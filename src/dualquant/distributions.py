"""Finite mixtures of point masses and uniform segments.

Probability is kept exact throughout: masses, weights and levels are
`fractions.Fraction`, support coordinates are floats compared exactly,
never through a tolerance.  That is what lets the complement identities
(P(X<=x) + P(X>x) = 1 and P(X<x) + P(X>=x) = 1) hold as equalities
rather than approximations.  Every value here is immutable.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import wraps
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import BadValueError, BadWeightError, EmptyDataError

__all__ = [
    "NEG_INF",
    "POS_INF",
    "ExtendedReal",
    "Probability",
    "as_level",
    "as_extended",
    "Atom",
    "UniformSegment",
    "MixtureDistribution",
    "DistFnFlavor",
    "make_empirical",
    "dist_fn",
    "negate",
    "essential_bounds",
    "breakpoints",
    "is_continuous",
    "is_strictly_monotone_on_hull",
    "describe",
]

NEG_INF = float("-inf")
POS_INF = float("inf")

# A point of the extended real line.  Finite values may be floats
# (support coordinates, including the +/-inf sentinels above) or exact
# Fractions (levels inverted inside a uniform segment); Python's
# numeric tower compares the two kinds exactly.
ExtendedReal = Union[float, Fraction]

# An exact probability in [0, 1].
Probability = Fraction

# The largest decimal exponent, in magnitude, that `as_exact` reads.
MAX_EXPONENT = 10_000


def as_exact(value: Union[int, float, str, Fraction]) -> Fraction:
    """Read ``value`` as an exact rational.

    Fractions pass through and ints (not bools) convert exactly.  Floats
    are read through their shortest decimal form, so the level ``0.2``
    means exactly 1/5, the number that was typed, rather than the nearest
    double, which is slightly above 1/5 and would name a different
    quantile on data with an atom exactly at the 20% mark.  Strings
    parse as exact decimals or fractions ("0.2", "1/5"); a decimal
    exponent may be at most `MAX_EXPONENT` in magnitude, since the exact
    value of ``1e-3000000`` takes millions of digits to build.  Raises
    TypeError for any other type and ValueError for a value that names
    no finite rational or whose exponent is out of bounds.
    """
    if isinstance(value, str):
        text = value
    elif isinstance(value, Fraction):
        return value
    elif isinstance(value, float):
        text = repr(value)  # 'inf' and 'nan' fail to parse below
    elif isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    else:
        raise TypeError(f"cannot read a {type(value).__name__} as an exact number")
    try:
        if text.isascii() and text.isdigit():  # the common weight cell: skip the regex
            return Fraction(int(text))
        # every exponent Fraction accepts, int accepts too, so a failure
        # here names text that Fraction would refuse anyway
        _, e, exponent = text.upper().partition("E")
        if e and abs(int(exponent)) > MAX_EXPONENT:
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{value!r} is not a finite number") from None


def as_level(p: Union[int, float, str, Fraction]) -> Probability:
    """Coerce ``p`` to an exact probability level in [0, 1] via `as_exact`."""
    if isinstance(p, Fraction) and 0 <= p.numerator <= p.denominator:
        return p  # already a level (a Fraction's denominator is positive)
    try:
        q = as_exact(p)
    except ValueError:
        raise BadValueError(f"level must be a finite number, got {p!r}") from None
    if not 0 <= q <= 1:
        raise BadValueError(f"level must lie in [0, 1], got {p!r}")
    return q


def as_extended(x: Union[float, Fraction]) -> ExtendedReal:
    """Collapse an exact rational to a float when that loses nothing."""
    if isinstance(x, Fraction):
        den = x.denominator
        if den & (den - 1):
            return x  # only a dyadic rational can be a float
        try:
            f = float(x)
        except OverflowError:
            return x
        if Fraction(f) == x:
            return f
        return x
    return x


def format_extended(x: Union[float, Fraction]) -> str:
    """Text form of an extended real: ``+inf``/``-inf``, ``n/d`` for a
    rational that a float would round, otherwise the float's repr."""
    x = as_extended(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if math.isinf(x):
        return "+inf" if x > 0 else "-inf"
    return repr(float(x))


def _exact_positive(value, error_cls, what: str) -> Fraction:
    # mass/weight coercion
    try:
        q = as_exact(value)
    except (TypeError, ValueError):
        raise error_cls(f"{what} must be a positive number, got {value!r}") from None
    if q.numerator <= 0:
        raise error_cls(f"{what} must be positive, got {value!r}")
    return q


def _finite_float(value, what: str) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadValueError(f"{what} must be a finite real, got {value!r}")
    try:
        f = float(value)
    except OverflowError:
        raise BadValueError(f"{what} must be finite, got an int past the float range") from None
    if not math.isfinite(f):
        raise BadValueError(f"{what} must be finite, got {value!r}")
    return f


@dataclass(frozen=True)
class Atom:
    """A point carrying positive probability mass."""

    location: float
    mass: Fraction

    def __post_init__(self):
        object.__setattr__(self, "location", _finite_float(self.location, "atom location"))
        object.__setattr__(self, "mass", _exact_positive(self.mass, BadWeightError, "atom mass"))


@dataclass(frozen=True)
class UniformSegment:
    """Mass spread uniformly over the closed interval [lo, hi], lo < hi."""

    lo: float
    hi: float
    mass: Fraction

    def __post_init__(self):
        lo = _finite_float(self.lo, "segment endpoint")
        hi = _finite_float(self.hi, "segment endpoint")
        if not lo < hi:
            raise BadValueError(f"segment needs lo < hi, got [{self.lo!r}, {self.hi!r}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "mass", _exact_positive(self.mass, BadWeightError, "segment mass"))

    @property
    def width(self) -> Fraction:
        return Fraction(self.hi) - Fraction(self.lo)


@dataclass(frozen=True)
class MixtureDistribution:
    """A finite mixture of atoms and uniform segments with total mass 1.

    Construction canonicalizes: parts are sorted, duplicate atom
    locations and overlapping segment interiors are rejected, and
    masses are renormalized exactly so they sum to 1.  Touching
    segments (one ending where the next begins) and atoms sitting
    inside or on segments are all legal.
    """

    atoms: tuple[Atom, ...] = ()
    segments: tuple[UniformSegment, ...] = ()

    def __post_init__(self):
        atoms = tuple(sorted(self.atoms, key=lambda a: a.location))
        segments = tuple(sorted(self.segments, key=lambda s: (s.lo, s.hi)))
        if not atoms and not segments:
            raise EmptyDataError("a distribution needs at least one atom or segment")
        for a, b in zip(atoms, atoms[1:]):
            if a.location == b.location:
                raise BadValueError(f"duplicate atom location {b.location!r}")
        for s, t in zip(segments, segments[1:]):
            if t.lo < s.hi:
                raise BadValueError(
                    f"segments [{s.lo}, {s.hi}] and [{t.lo}, {t.hi}] overlap"
                )
        total = sum(a.mass for a in atoms) + sum(s.mass for s in segments)
        if total != 1:
            atoms = tuple(Atom(a.location, a.mass / total) for a in atoms)
            segments = tuple(UniformSegment(s.lo, s.hi, s.mass / total) for s in segments)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "segments", segments)


def stored(fn):
    """Memoize a function of one distribution on the distribution itself.

    The value is computed on first use and kept in an attribute of the
    distribution.  A hit is the very object it was computed for, so a
    distribution never receives a value derived from an equal but
    different one (``-0.0 == 0.0``, so ``lru_cache`` would mix them up).
    It serves the library's own repeated queries only (the quantile
    profile, `dist_fn`'s tables, the breakpoints); callers that reuse
    some other value of a distribution hold it themselves.
    """
    name = f"_{fn.__name__.lstrip('_')}"

    @wraps(fn)
    def get(d: "MixtureDistribution"):
        try:
            return d.__dict__[name]
        except KeyError:
            value = fn(d)
            object.__setattr__(d, name, value)
            return value

    return get


class DistFnFlavor(Enum):
    """The four one-sided distribution functions of a real random variable."""

    LEFT_CLOSED = "left_closed"    # P(X <= x), right-continuous
    LEFT_OPEN = "left_open"        # P(X <  x), left-continuous
    RIGHT_CLOSED = "right_closed"  # P(X >= x), left-continuous
    RIGHT_OPEN = "right_open"      # P(X >  x), right-continuous


_LEFT_FLAVORS = frozenset({DistFnFlavor.LEFT_CLOSED, DistFnFlavor.LEFT_OPEN})


def make_empirical(
    values: Iterable[float],
    weights: Optional[Sequence[Union[int, float, str, Fraction]]] = None,
) -> MixtureDistribution:
    """Empirical distribution of a data vector.

    Duplicate values pool their weight into a single atom, keyed by the
    first of them seen (so ``-0.0`` or ``0.0``, whichever comes first).
    Without weights every observation carries exactly 1/n; explicit
    weights must be positive and are normalized exactly.
    """
    values = list(values)
    if not values:
        raise EmptyDataError("no data values")
    if weights is None:
        ws = [Fraction(1, len(values))] * len(values)
    else:
        ws = list(weights)
        if len(ws) != len(values):
            raise BadWeightError(f"{len(values)} values but {len(ws)} weights")
        ws = [_exact_positive(w, BadWeightError, "weight") for w in ws]
    # pool integer numerators, each value's over the common denominator of
    # its own weights: per row this is integer work on numbers that grow
    # with the denominators of that value's weights only, not with every
    # denominator in the column.  The mixture then normalizes once per
    # distinct value (unweighted masses k/n already sum to 1).
    nums: dict[float, int] = {}
    dens: dict[float, int] = {}
    for v, w in zip(values, ws):
        v = _finite_float(v, "data value")
        n, d = w.numerator, w.denominator
        dv = dens.setdefault(v, d)
        if d != dv:
            lcm = math.lcm(dv, d)
            nums[v] *= lcm // dv
            n *= lcm // d
            dens[v] = lcm
        nums[v] = nums.get(v, 0) + n
    # both dicts gained each key on the same row, so they iterate alike
    return MixtureDistribution(
        atoms=tuple(Atom(v, Fraction(n, d)) for (v, n), d in zip(nums.items(), dens.values()))
    )


def _sums(masses: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    # exact cumulative masses from the low end and, summed on their own
    # rather than derived from those, from the high end
    below = list(accumulate(masses, initial=Fraction(0)))
    above = list(accumulate(reversed(masses), initial=Fraction(0)))
    above.reverse()
    return below, above


class _Tables(NamedTuple):
    """What `dist_fn` reads of one distribution, built once.

    ``locs``, ``los`` and ``his`` hold the sorted atom locations and
    segment ends as Fractions, so an argument converted once bisects them
    exactly.  Segment interiors are disjoint, so segments sorted by
    ``lo`` have sorted ``his`` too.  Entry k of a ``*_below`` table is the
    mass of the first k parts, entry k of an ``*_above`` table that of
    the parts from k on; left and right flavors read separate tables.
    """

    locs: tuple[Fraction, ...]
    los: tuple[Fraction, ...]
    his: tuple[Fraction, ...]
    density: tuple[Fraction, ...]  # mass per unit length of each segment
    atoms_below: list[Fraction]
    atoms_above: list[Fraction]
    segments_below: list[Fraction]
    segments_above: list[Fraction]


@stored
def _tables(d: MixtureDistribution) -> _Tables:
    locs = tuple(Fraction(a.location) for a in d.atoms)
    los = tuple(Fraction(s.lo) for s in d.segments)
    his = tuple(Fraction(s.hi) for s in d.segments)
    density = tuple(s.mass / (hi - lo) for s, lo, hi in zip(d.segments, los, his))
    return _Tables(
        locs,
        los,
        his,
        density,
        *_sums([a.mass for a in d.atoms]),
        *_sums([s.mass for s in d.segments]),
    )


def dist_fn(d: MixtureDistribution, flavor: DistFnFlavor, x: ExtendedReal) -> Probability:
    """Evaluate one of the four distribution functions at ``x``, exactly.

    ``x`` may be an int, float, Fraction, or +/-infinity; infinite
    arguments return the monotone limit (0 or 1 depending on flavor),
    and NaN raises BadValueError.  Each call is two bisections plus at
    most one partial segment.
    """
    if not isinstance(flavor, DistFnFlavor):
        raise TypeError(f"flavor must be a DistFnFlavor, got {flavor!r}")
    left = flavor in _LEFT_FLAVORS
    if isinstance(x, float) and not math.isfinite(x):
        if math.isnan(x):  # every comparison with it is false: bisection would misread it
            raise BadValueError("a distribution function has no value at nan")
        high = x > 0
        return Fraction(1) if high == left else Fraction(0)
    if not isinstance(x, Fraction):
        x = Fraction.from_float(x)  # an int or a float; unlike Fraction(x), refuses a str
    t = _tables(d)
    if flavor is DistFnFlavor.LEFT_CLOSED:
        acc = t.atoms_below[bisect_right(t.locs, x)]
    elif flavor is DistFnFlavor.LEFT_OPEN:
        acc = t.atoms_below[bisect_left(t.locs, x)]
    elif flavor is DistFnFlavor.RIGHT_CLOSED:
        acc = t.atoms_above[bisect_left(t.locs, x)]
    else:
        acc = t.atoms_above[bisect_right(t.locs, x)]
    if left:
        i = bisect_right(t.his, x)  # the segments before i end at or below x
        acc += t.segments_below[i]
        if i < len(t.los) and t.los[i] < x:  # segment i straddles x
            acc += t.density[i] * (x - t.los[i])
    else:
        i = bisect_left(t.los, x)  # the segments from i on start at or above x
        acc += t.segments_above[i]
        if i and x < t.his[i - 1]:  # segment i - 1 straddles x
            acc += t.density[i - 1] * (t.his[i - 1] - x)
    return acc


def negate(d: MixtureDistribution) -> MixtureDistribution:
    """The distribution of -X.  Involutive: negate(negate(d)) == d."""
    return MixtureDistribution(
        atoms=tuple(Atom(-a.location, a.mass) for a in d.atoms),
        segments=tuple(UniformSegment(-s.hi, -s.lo, s.mass) for s in d.segments),
    )


def essential_bounds(d: MixtureDistribution) -> tuple[float, float]:
    """(essential infimum, essential supremum) of the support; both finite."""
    bps = breakpoints(d)
    return bps[0], bps[-1]


@stored
def breakpoints(d: MixtureDistribution) -> tuple[float, ...]:
    """Sorted distinct support landmarks: atom locations and segment endpoints."""
    pts = {a.location for a in d.atoms}
    for s in d.segments:
        pts.add(s.lo)
        pts.add(s.hi)
    return tuple(sorted(pts))


def is_continuous(d: MixtureDistribution, flavor: DistFnFlavor) -> bool:
    """Whether the chosen distribution function is continuous everywhere.

    The answer cannot depend on the flavor (all four jump exactly at
    the atoms); the parameter exists so callers can ask the question in
    whichever form they hold, and so the verifier can confirm the
    flavor-independence.
    """
    if not isinstance(flavor, DistFnFlavor):
        raise TypeError(f"flavor must be a DistFnFlavor, got {flavor!r}")
    return not d.atoms


def is_strictly_monotone_on_hull(d: MixtureDistribution, flavor: DistFnFlavor) -> bool:
    """Whether the distribution function is strictly monotone on the
    convex hull of the support.

    True exactly when the support has no interior gap: every open
    subinterval of [ess_inf, ess_sup] carries positive mass.  (On all
    of R no compactly supported distribution function is strictly
    monotone, hence the hull restriction.)  Flavor-independent, for the
    same reason as `is_continuous`.
    """
    if not isinstance(flavor, DistFnFlavor):
        raise TypeError(f"flavor must be a DistFnFlavor, got {flavor!r}")
    pieces = sorted(
        [(a.location, a.location) for a in d.atoms]
        + [(s.lo, s.hi) for s in d.segments]
    )
    reach = pieces[0][1]
    for lo, hi in pieces[1:]:
        if lo > reach:
            return False
        reach = max(reach, hi)
    return True


def describe(d: MixtureDistribution) -> str:
    """Compact human-readable summary, e.g. ``atoms{0: 1/2} + U[1, 2]: 1/2``."""
    bits = []
    if d.atoms:
        inner = ", ".join(f"{a.location:g}: {a.mass}" for a in d.atoms)
        bits.append("atoms{" + inner + "}")
    bits.extend(f"U[{s.lo:g}, {s.hi:g}]: {s.mass}" for s in d.segments)
    return " + ".join(bits)
