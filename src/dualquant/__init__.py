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

from .distributions import (
    NEG_INF,
    POS_INF,
    Atom,
    DistFnFlavor,
    ExtendedReal,
    MixtureDistribution,
    Probability,
    UniformSegment,
    as_extended,
    as_level,
    breakpoints,
    describe,
    dist_fn,
    essential_bounds,
    is_continuous,
    is_strictly_monotone_on_hull,
    make_empirical,
    negate,
)
from .errors import (
    BadValueError,
    BadWeightError,
    ContinuityMismatchError,
    DualquantError,
    EmptyDataError,
    MapDomainError,
    MapSpecError,
    UnsupportedPushforwardError,
)
from .quantiles import (
    QuantilePair,
    QuantileSide,
    left_quantile,
    quantile_at,
    quantile_pair,
    right_quantile,
)
from .transforms import (
    Continuity,
    Direction,
    MapPiece,
    MonotoneMap,
    PiecewiseMonotoneMap,
    SmoothKind,
    SmoothMonotoneMap,
    affine_map,
    apply_map,
    equivariance_counterexample,
    equivariant_quantile,
    map_from_spec,
    map_to_spec,
    neglog10_map,
    negation_map,
    pow10_neg_map,
    pushforward,
)
from .verify import (
    CheckResult,
    GeneratorConfig,
    PropertyReport,
    QuantileVariant,
    check_quantile_properties,
    check_symmetry,
    off_by_one_left_quantile,
    quantile_by_definition,
    random_mixture,
    reports_to_json,
    run_suite,
    standard_levels,
    stock_maps,
)

__version__ = "0.1.0"


def rain_csv_path() -> Path:
    """Path of the bundled rain-acidity fixture (pH and hydrogen-ion
    activity columns for ten rainfall samples)."""
    return Path(__file__).parent / "data" / "rain.csv"
