"""Exact dual quantiles for finite mixtures of atoms and uniform segments.

The left quantile inf{x : P(X<=x) >= p} and the right quantile
inf{x : P(X<=x) > p} bracket every defensible answer at a level p, obey
a clean mirror identity under negation, and transport through monotone
maps once the map's one-sided continuity is taken seriously.  This
package computes both exactly, pushes distributions through
piecewise-affine and standard smooth monotone maps, and ships a
property-based verifier plus a small CLI.
"""

import importlib
from pathlib import Path

__version__ = "0.1.0"

# the modules whose __all__ names the package offers, each after the
# modules it imports, so finding a name loads nothing its module does not
_MODULES = ("errors", "distributions", "quantiles", "transforms", "verify")


def __getattr__(name: str):
    """Resolve a public name on first access (PEP 562): import the module
    of that name, or else the first module whose ``__all__`` lists it, and
    bind it here, so importing the package loads none of its modules until
    a name is read.  ``__main__`` is never imported here, since importing
    it runs the CLI."""
    if name.isidentifier() and name != "__main__":
        if Path(__file__).with_name(f"{name}.py").is_file():
            return importlib.import_module(f".{name}", __name__)  # binds itself here
    if name == "__all__":
        value = [n for m in _MODULES for n in __getattr__(m).__all__] + ["rain_csv_path"]
    else:
        for m in _MODULES:
            module = __getattr__(m)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*__getattr__("__all__"), *globals()})


def rain_csv_path() -> Path:
    """Path of the bundled rain-acidity fixture (pH and hydrogen-ion
    activity columns for ten rainfall samples)."""
    return Path(__file__).parent / "data" / "rain.csv"
