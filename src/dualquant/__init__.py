"""Exact dual quantiles for finite mixtures of atoms and uniform segments.

The left quantile inf{x : P(X<=x) >= p} and the right quantile
inf{x : P(X<=x) > p} bracket every defensible answer at a level p, obey
a clean mirror identity under negation, and transport through monotone
maps once the map's one-sided continuity is taken seriously.  This
package computes both exactly, pushes distributions through
piecewise-affine and standard smooth monotone maps, and ships a
property-based verifier plus a small CLI.
"""

from pathlib import Path

from .distributions import *
from .errors import *
from .quantiles import *
from .transforms import *
from .verify import *

__version__ = "0.1.0"


def rain_csv_path() -> Path:
    """Path of the bundled rain-acidity fixture (pH and hydrogen-ion
    activity columns for ten rainfall samples)."""
    return Path(__file__).parent / "data" / "rain.csv"
