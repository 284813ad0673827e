"""Finite mixtures of point masses and uniform segments.

Probability is kept exact throughout: masses, weights and levels are
`fractions.Fraction`s or integer counts over an exact total, and support
coordinates are floats compared exactly, never through a tolerance.
That is what lets the complement identities
(P(X<=x) + P(X>x) = 1 and P(X<x) + P(X>=x) = 1) hold as equalities
rather than approximations.  Every value here is immutable.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, islice
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

# The most bits that `make_empirical` lets a weighted column's counts
# take: distinct values times the bit length of the common denominator.
MAX_COUNT_BITS = 2**30


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
        n = x.numerator
        try:
            f = n / den  # correctly rounded
        except OverflowError:
            return x
        if f.as_integer_ratio() == (n, den):
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


def _exact_positive(value, what: str) -> Fraction:
    # mass/weight coercion
    try:
        q = as_exact(value)
    except (TypeError, ValueError):
        raise BadWeightError(f"{what} must be a positive number, got {value!r}") from None
    if q.numerator <= 0:
        raise BadWeightError(f"{what} must be positive, got {value!r}")
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
        object.__setattr__(self, "mass", _exact_positive(self.mass, "atom mass"))


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
        object.__setattr__(self, "mass", _exact_positive(self.mass, "segment mass"))


class _Tables(NamedTuple):
    """What `dist_fn` reads of one distribution, built once.

    ``locs``, ``los`` and ``his`` hold the sorted atom locations and
    segment ends times ``scale`` (see `_dyadic_ints`), so an argument a/b
    bisects them as the ints floor(a*scale/b) and ceil(a*scale/b).
    Segment interiors are disjoint, so segments sorted by ``lo`` have
    sorted ``his`` too.  Every mass is a count of the mixture's count
    column, never normalized; `dist_fn` divides by the count total.
    Entry k of a ``*_below`` table is the count of the first k parts,
    entry k of an ``*_above`` table that of the parts from k on, summed
    on its own rather than derived from the other; left and right
    flavors read separate tables.
    """

    scale: int
    locs: tuple[int, ...]
    los: tuple[int, ...]
    his: tuple[int, ...]
    counts: tuple[int, ...]  # each segment's count
    atoms_below: list[int]
    atoms_above: list[int]
    segments_below: list[int]
    segments_above: list[int]


class _Profile(NamedTuple):
    """The exact CDF profile of one distribution, built once.

    ``xs`` are the sorted distinct landmarks (atom locations and segment
    endpoints); F is affine on each open gap between two of them.  The
    probabilities are integer numerators over the common denominator
    ``den``: ``cdf[i]`` is P(X <= xs[i]) and ``below_next[i]`` is
    P(X < xs[i+1]), i.e. ``cdf[i]`` plus the mass of the gap after
    ``xs[i]`` (the last entry is ``den``).  ``gaps`` keeps, for each gap
    a query has landed in, three ints ``(c0, c1, c2)`` such that F reaches
    p = pn/pd at x = (c0*pd + c1*pn) / (c2*pd) there: the exact inverse of
    the affine F on that gap, built on first use.
    """

    xs: tuple[float, ...]
    den: int
    cdf: tuple[int, ...]
    below_next: tuple[int, ...]
    gaps: dict[int, tuple[int, int, int]]


class MixtureDistribution:
    """A finite mixture of atoms and uniform segments with total mass 1.

    Both kinds of part are kept as sorted columns: the atoms' float
    locations, the segments' float ends ``lo`` and ``hi``, and one count
    column ``_counts``, the atoms' then the segments': each mass as a
    positive integer count over one common denominator, normalized only
    when read, by their int sum ``_total``.  Construction canonicalizes:
    parts are sorted, duplicate atom locations and overlapping segment
    interiors are rejected.  Touching segments (one ending where the next
    begins) and atoms sitting inside or on segments are all legal.

    ``atoms`` and ``segments`` are built from the columns on first read,
    each mass as its count over the total; `negate` and `pushforward`
    read the columns instead.  The breakpoints, `dist_fn`'s tables and
    the quantile profile are built from the columns on first read, and
    kept.  Equality compares the columns and the normalized masses;
    hashing hashes the location columns alone.
    """

    def __init__(self, atoms: Iterable[Atom] = (), segments: Iterable[UniformSegment] = ()):
        atoms = sorted(atoms, key=lambda a: a.location)
        segments = sorted(segments, key=lambda s: (s.lo, s.hi))
        masses = [p.mass for p in chain(atoms, segments)]
        self._set_columns(
            tuple(a.location for a in atoms),
            _common_counts([m.numerator for m in masses], [m.denominator for m in masses]),
            tuple(s.lo for s in segments),
            tuple(s.hi for s in segments),
        )

    @classmethod
    def _of_columns(cls, *columns):
        # the construction path without parts: tuple columns as `_set_columns` takes them
        d = cls.__new__(cls)
        d._set_columns(*columns)
        return d

    def _set_columns(self, locs, counts, los=(), his=()):
        # ``locs`` sorted; segments sorted by ``lo``, each with finite ends
        # ``lo < hi``; ``counts`` positive ints, the atoms' then the segments'
        if not locs and not los:
            raise EmptyDataError("a distribution needs at least one atom or segment")
        # one pass: sorted locations that strictly increase hold no nan,
        # so only the two ends can be infinite; parts and images are checked
        # before they get here, so a non-finite location is a data value
        if not (
            all(map(operator.lt, locs, islice(locs, 1, None)))
            and all(map(math.isfinite, locs[:1] + locs[-1:]))
        ):
            bad = next((x for x in locs if not math.isfinite(x)), None)
            if bad is not None:
                raise BadValueError(f"data value must be finite, got {bad!r}")
            bad = next(b for a, b in zip(locs, locs[1:]) if not a < b)
            raise BadValueError(f"duplicate atom location {bad!r}")
        if not all(map(operator.le, his, islice(los, 1, None))):
            k = next(k for k in range(1, len(los)) if los[k] < his[k - 1])
            raise BadValueError(
                f"segments [{los[k - 1]}, {his[k - 1]}] and [{los[k]}, {his[k]}] overlap"
            )
        self.__dict__.update(_locs=locs, _los=los, _his=his, _counts=counts, _total=sum(counts))

    # Each fact of a mixture is kept on the very object it describes, never
    # in a cache keyed on the distribution: -0.0 == 0.0, so such a cache
    # would hand one mixture's signed zeros to an equal one.

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        """The atoms in location order, with normalized masses; built on first read."""
        t = self._total
        return tuple(Atom(x, Fraction(c, t)) for x, c in zip(self._locs, self._counts))

    @cached_property
    def segments(self) -> tuple[UniformSegment, ...]:
        """The segments in order, with normalized masses; built on first read."""
        t = self._total
        cols = zip(self._los, self._his, self._counts[len(self._locs) :])
        return tuple(UniformSegment(lo, hi, Fraction(c, t)) for lo, hi, c in cols)

    @cached_property
    def _breakpoints(self) -> tuple[float, ...]:
        if not self._los:
            return self._locs
        # a set keeps the first of equal values, so an atom's zero names the
        # landmark, else the first segment end at zero, each lo before its hi
        return tuple(sorted(set(chain(self._locs, chain.from_iterable(zip(self._los, self._his))))))

    @cached_property
    def _tables(self) -> _Tables:
        n, m, counts = len(self._locs), len(self._los), self._counts
        scale, ints = _dyadic_ints(chain(self._locs, self._los, self._his))
        return _Tables(
            scale, ints[:n], ints[n : n + m], ints[n + m :], counts[n:],
            *_sums(counts[:n]), *_sums(counts[n:]),
        )

    @cached_property
    def _profile(self) -> _Profile:
        """The quantile profile, built from the columns and counts.

        The profile's denominator is the sum of the counts, so no mass is
        normalized.  Without segments (all data) the landmarks are the
        location column and the CDF the running sum of the counts.  A gap
        that is a whole segment adds the segment's count; only a segment
        cut by an atom gives its gaps `Fraction` shares by length, and
        then `_common_counts` scales every mass to the common denominator
        of those shares.
        """
        counts = self._counts
        if not self._los:
            cdf = tuple(accumulate(counts))
            return _Profile(self._locs, cdf[-1], cdf, cdf, {})
        xs = self._breakpoints
        jump = dict(zip(self._locs, counts))
        los, his, seg_counts = self._los, self._his, counts[len(self._locs):]
        masses = []  # the mass at each landmark, then that of the gap after it
        j = 0  # the first segment ending after the current landmark
        for x, nxt in zip(xs, xs[1:] + xs[-1:]):
            masses.append(jump.get(x, 0))
            while j < len(his) and his[j] <= x:
                j += 1
            if j < len(los) and los[j] <= x:  # segment j covers the gap (x, nxt)
                c = seg_counts[j]
                if los[j] != x or his[j] != nxt:
                    c = c * (Fraction(nxt) - Fraction(x)) / (Fraction(his[j]) - Fraction(los[j]))
                masses.append(c)
            else:
                masses.append(0)
        nums, dens = [m.numerator for m in masses], [m.denominator for m in masses]
        cum = tuple(accumulate(_common_counts(nums, dens)))
        return _Profile(xs, cum[-1], cum[0::2], cum[1::2], {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a distribution is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a distribution is immutable")

    def __eq__(self, other):
        if not isinstance(other, MixtureDistribution):
            return NotImplemented
        # the same columns, and masses in proportion (c/t == k/u for each
        # part), tested without reducing a count over its total
        if (self._locs, self._los, self._his) != (other._locs, other._los, other._his):
            return False
        g = math.gcd(self._total, other._total)
        t, u = self._total // g, other._total // g
        return all(c * u == k * t for c, k in zip(self._counts, other._counts))

    def __hash__(self):
        # equal mixtures have equal columns, and hash(-0.0) == hash(0.0)
        return hash((self._locs, self._los, self._his))

    def __repr__(self):
        return f"MixtureDistribution(atoms={self.atoms!r}, segments={self.segments!r})"


def _common_counts(nums: Sequence[int], dens: Sequence[int], den: int = 0) -> tuple[int, ...]:
    """The masses ``nums[i]/dens[i]`` as integer counts over ``den``, their
    least common denominator, found here unless the caller has it."""
    if not den:  # 1, without the lcm, when every weight is whole
        den = 1 if dens.count(1) == len(dens) else math.lcm(*dens)
    return tuple(nums) if den == 1 else tuple(n * (den // k) for n, k in zip(nums, dens))


def _dyadic_ints(xs: Iterable[float]) -> tuple[int, tuple[int, ...]]:
    """``(scale, ints)``: every float is a dyadic rational, and ``scale`` is
    the least power of two that makes each of ``xs`` times it an int."""
    ratios = [x.as_integer_ratio() for x in xs]
    scale = max(den for _, den in ratios)
    return scale, tuple(num * (scale // den) for num, den in ratios)


def _sums(counts: Sequence[int]) -> tuple[list[int], list[int]]:
    # cumulative counts from the low end and, summed on their own rather
    # than derived from those, from the high end
    below = list(accumulate(counts, initial=0))
    above = list(accumulate(reversed(counts), initial=0))
    above.reverse()
    return below, above


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
    Without weights every observation counts 1; explicit weights must
    be positive, and an ``int`` or `Fraction` weight is taken as it is.
    `_pool` pools them, the same routine that pools a pushforward's
    images, and its masses become the mixture's count column over one
    common denominator; no `Atom` is built.  Weights whose counts would
    take more than `MAX_COUNT_BITS` bits raise `BadWeightError`.
    """
    values = list(values)
    if not values:
        raise EmptyDataError("no data values")
    ws = None if weights is None else list(weights)
    if ws is not None and len(ws) != len(values):
        raise BadWeightError(f"{len(values)} values but {len(ws)} weights")
    if set(map(type, values)) != {float}:
        values = [_finite_float(v, "data value") for v in values]
    # Non-finite floats are refused by the mixture, once per distinct value.
    locs, nums, dens = _pool(values, ws)
    den = 1 if dens.count(1) == len(dens) else math.lcm(*dens)
    bits = 0 if den == 1 else den.bit_length()
    if len(locs) * bits > MAX_COUNT_BITS:
        raise BadWeightError(
            f"the weights' common denominator has {bits} bits, too many for "
            f"{len(locs)} distinct values (at most {MAX_COUNT_BITS} bits in all)"
        )
    return MixtureDistribution._of_columns(locs, _common_counts(nums, dens, den))


def _pool(
    values: Sequence[float], weights: Optional[Sequence[Union[int, float, str, Fraction]]]
) -> tuple[tuple[float, ...], tuple[int, ...], tuple[int, ...]]:
    """Pool equal values' weights into sorted columns ``(locs, nums, dens)``.

    ``locs`` holds the distinct values in order, and each one's total
    weight is ``nums[i]/dens[i]``; without weights every value counts 1.
    A weight that is not a positive ``int`` or `Fraction` goes through
    `_exact_positive`.
    """
    if weights is None:
        # one stable sort; each run of equal values is an atom, named by its
        # first, which is the first seen, so -0.0 or 0.0 names the atom
        s = sorted(values)
        starts = [0, *compress(range(1, len(s)), map(operator.ne, islice(s, 1, None), s))]
        counts = map(operator.sub, chain(islice(starts, 1, None), (len(s),)), starts)
        return tuple(map(s.__getitem__, starts)), tuple(counts), (1,) * len(starts)
    # Pool integer numerators, each value's over the common denominator of
    # its own weights, kept in ``dens`` where it is not 1: per row this is
    # integer work on numbers that grow with the denominators of that
    # value's weights only, not with every denominator in the column.  A
    # dict keeps the first of equal keys, so -0.0 or 0.0 names the atom.
    dens: dict[float, int] = {}
    nums: dict[float, int] = {}
    if set(map(type, weights)) == {int} and min(weights) > 0:
        # positive int counts, tested once for the column (a bool is no
        # int here, and is refused below): a bare sum, no dens to keep
        get = nums.get
        for v, w in zip(values, weights):
            nums[v] = get(v, 0) + w
    else:
        for v, w in zip(values, weights):
            if type(w) not in (int, Fraction) or w.numerator <= 0:
                w = _exact_positive(w, "weight")
            n, d = w.numerator, w.denominator
            dv = dens.get(v, 1)
            if d != dv:
                lcm = math.lcm(dv, d)
                nums[v] = nums.get(v, 0) * (lcm // dv)
                n *= lcm // d
                dens[v] = lcm
            nums[v] = nums.get(v, 0) + n
    locs = sorted(nums)
    return tuple(locs), tuple(map(nums.__getitem__, locs)), tuple(dens.get(x, 1) for x in locs)


def dist_fn(d: MixtureDistribution, flavor: DistFnFlavor, x: ExtendedReal) -> Probability:
    """Evaluate one of the four distribution functions at ``x``, exactly.

    ``x`` may be an int, float, Fraction, or +/-infinity; infinite
    arguments return the monotone limit (0 or 1 depending on flavor),
    and NaN raises BadValueError.  ``x`` is read once as a ratio a/b of
    ints; two bisections of the integer tables and at most one partial
    segment follow in ints, and one `Fraction` over the count total ends it.
    """
    if not isinstance(flavor, DistFnFlavor):
        raise TypeError(f"flavor must be a DistFnFlavor, got {flavor!r}")
    left = flavor in _LEFT_FLAVORS
    if isinstance(x, Fraction):
        a, b = x.numerator, x.denominator
    elif isinstance(x, (int, float)):
        if isinstance(x, float) and not math.isfinite(x):
            if math.isnan(x):  # every comparison with it is false: bisection would misread it
                raise BadValueError("a distribution function has no value at nan")
            return Fraction(1) if (x > 0) == left else Fraction(0)
        a, b = x.as_integer_ratio()
    else:
        a, b = Fraction.from_float(x).as_integer_ratio()  # another Integral; refuses a str
    t = d._tables
    # x*scale = ax/b: a scaled landmark is <= x iff it is <= fl, < x iff < ce
    ax = a * t.scale
    fl, rem = divmod(ax, b)
    ce = fl + 1 if rem else fl
    if flavor is DistFnFlavor.LEFT_CLOSED:
        acc = t.atoms_below[bisect_right(t.locs, fl)]
    elif flavor is DistFnFlavor.LEFT_OPEN:
        acc = t.atoms_below[bisect_left(t.locs, ce)]
    elif flavor is DistFnFlavor.RIGHT_CLOSED:
        acc = t.atoms_above[bisect_left(t.locs, ce)]
    else:
        acc = t.atoms_above[bisect_right(t.locs, fl)]
    # a segment [lo, hi] straddling x adds count*(x - lo)/(hi - lo) on the
    # left, count*(hi - x)/(hi - lo) on the right: over b*(hi - lo) in ints
    if left:
        i = bisect_right(t.his, fl)  # the segments before i end at or below x
        acc += t.segments_below[i]
        if i < len(t.los) and t.los[i] < ce:  # segment i straddles x
            w = t.his[i] - t.los[i]
            return Fraction(acc * b * w + t.counts[i] * (ax - t.los[i] * b), d._total * b * w)
    else:
        i = bisect_left(t.los, ce)  # the segments from i on start at or above x
        acc += t.segments_above[i]
        if i and fl < t.his[i - 1]:  # segment i - 1 straddles x
            w = t.his[i - 1] - t.los[i - 1]
            return Fraction(acc * b * w + t.counts[i - 1] * (t.his[i - 1] * b - ax), d._total * b * w)
    return Fraction(acc, d._total)


def negate(d: MixtureDistribution) -> MixtureDistribution:
    """The distribution of -X.  Involutive: negate(negate(d)) == d."""
    # every column reversed, the segments' ends swapped; the counts keep
    # their common denominator
    n, counts = len(d._locs), d._counts
    return MixtureDistribution._of_columns(
        tuple(-x for x in reversed(d._locs)),
        counts[:n][::-1] + counts[n:][::-1],
        tuple(-x for x in reversed(d._his)),
        tuple(-x for x in reversed(d._los)),
    )


def essential_bounds(d: MixtureDistribution) -> tuple[float, float]:
    """(essential infimum, essential supremum) of the support; both finite."""
    bps = breakpoints(d)
    return bps[0], bps[-1]


def breakpoints(d: MixtureDistribution) -> tuple[float, ...]:
    """Sorted distinct support landmarks: atom locations and segment endpoints."""
    return d._breakpoints


def is_continuous(d: MixtureDistribution) -> bool:
    """Whether the distribution function is continuous everywhere; one
    answer holds for all four flavors, as they all jump at the atoms."""
    return not d._locs


def is_strictly_monotone_on_hull(d: MixtureDistribution) -> bool:
    """Whether the distribution function is strictly monotone on the
    convex hull of the support.

    True exactly when the support has no interior gap: every open
    subinterval of [ess_inf, ess_sup] carries positive mass.  (On all
    of R no compactly supported distribution function is strictly
    monotone, hence the hull restriction.)  One answer holds for all
    four flavors, since they all stay flat on the same gaps.
    """
    prof = d._profile
    # F rises across every gap between two landmarks
    return all(map(operator.lt, prof.cdf, prof.below_next[:-1]))


def describe(d: MixtureDistribution) -> str:
    """Compact human-readable summary, e.g. ``atoms{0: 1/2} + U[1, 2]: 1/2``."""
    t, n = d._total, len(d._locs)
    inner = [f"{x:g}: {Fraction(c, t)}" for x, c in zip(d._locs, d._counts)]
    bits = ["atoms{" + ", ".join(inner) + "}"] if inner else []
    segs = zip(d._los, d._his, d._counts[n:])
    bits.extend(f"U[{lo:g}, {hi:g}]: {Fraction(c, t)}" for lo, hi, c in segs)
    return " + ".join(bits)
