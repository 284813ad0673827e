"""Left and right quantile functions.

The two generalized inverses of a distribution function differ exactly
on the flat stretches of F: the left quantile is inf{x : P(X<=x) >= p}
and the right quantile is inf{x : P(X<=x) > p}.  Both are found by
bisecting the mixture's exact CDF profile, built once per distribution
and stored on it, then inverting at most one affine gap, so results on
atoms are the atom coordinates themselves and results inside segments
are exact rationals.  Each level costs O(log n).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import NamedTuple, Union

from .distributions import (
    NEG_INF,
    POS_INF,
    ExtendedReal,
    MixtureDistribution,
    Probability,
    as_counts,
    as_extended,
    as_level,
    breakpoints,
    stored,
)
from .errors import BadValueError

__all__ = [
    "QuantileSide",
    "QuantilePair",
    "left_quantile",
    "right_quantile",
    "quantile_at",
    "quantile_pair",
]

LevelLike = Union[int, float, str, Fraction]


class QuantileSide(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class QuantilePair:
    """Both one-sided quantiles of one distribution at one level."""

    left: ExtendedReal
    right: ExtendedReal
    level: Probability

    def __post_init__(self):
        if not self.left <= self.right:
            raise BadValueError(
                f"left quantile {self.left} exceeds right quantile {self.right}"
            )

    @property
    def is_unique(self) -> bool:
        """True when both inverses agree, i.e. the level has a single quantile."""
        return self.left == self.right


class _Profile(NamedTuple):
    """The exact CDF profile of one distribution, built once.

    ``xs`` are the sorted distinct landmarks (atom locations and segment
    endpoints); F is affine on each open gap between two of them.  The
    probabilities are integer numerators over the common denominator
    ``den``: ``cdf[i]`` is P(X <= xs[i]) and ``below_next[i]`` is
    P(X < xs[i+1]), i.e. ``cdf[i]`` plus the mass of the gap after
    ``xs[i]`` (the last entry is ``den``).  ``gaps`` keeps, for each gap
    a query has landed in, ``(a, b)`` with F(a + b*p) = p there: the
    exact inverse of the affine F on that gap, built on first use.
    """

    xs: tuple[float, ...]
    den: int
    cdf: tuple[int, ...]
    below_next: tuple[int, ...]
    gaps: dict[int, tuple[Fraction, Fraction]]


@stored
def _profile(d: MixtureDistribution) -> _Profile:
    """The profile of ``d``, built from its columns.

    Every mass goes in as an integer count over the common denominator
    of all the parts' masses, and ``den`` is the sum of the counts, so no
    mass is normalized.  Without segments (all data) the landmarks are
    the location column and the CDF the running sum of the counts.  A
    gap that is a whole segment adds the segment's count; only a segment
    cut by an atom gives its gaps `Fraction` shares by length, and then
    every mass is scaled to the common denominator of those shares.
    """
    counts, _ = as_counts(d._nums + d._seg_nums, d._dens + d._seg_dens)
    if not d._los:
        cdf = tuple(accumulate(counts))
        return _Profile(d._locs, cdf[-1], cdf, cdf, {})
    xs = breakpoints(d)
    jump = dict(zip(d._locs, counts))
    los, his, seg_counts = d._los, d._his, counts[len(d._locs):]
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
    scale = lcm(*(m.denominator for m in masses))
    cum = tuple(accumulate(m.numerator * (scale // m.denominator) for m in masses))
    return _Profile(xs, cum[-1], cum[0::2], cum[1::2], {})


def _invert(prof: _Profile, i: int, p: Probability) -> ExtendedReal:
    # the point of the gap after xs[i] where the affine F reaches p
    try:
        a, b = prof.gaps[i]
    except KeyError:
        lo = Fraction(prof.xs[i])
        width, mass = Fraction(prof.xs[i + 1]) - lo, prof.below_next[i] - prof.cdf[i]
        a, b = prof.gaps[i] = lo - prof.cdf[i] * width / mass, width * prof.den / mass
    return as_extended(a + b * p)


def _lq(prof: _Profile, p: Probability) -> ExtendedReal:
    if not p.numerator:
        return NEG_INF
    # an integer numerator c has c/den >= p exactly when c >= ceil(p*den)
    t = -(-p.numerator * prof.den // p.denominator)
    i = bisect_left(prof.cdf, t)  # first landmark with F >= p
    if i and prof.below_next[i - 1] >= t:
        return _invert(prof, i - 1, p)
    return prof.xs[i]


def _rq(prof: _Profile, p: Probability) -> ExtendedReal:
    if p.numerator == p.denominator:
        return POS_INF
    t = p.numerator * prof.den // p.denominator  # c/den > p iff c > floor(p*den)
    i = bisect_right(prof.cdf, t)  # first landmark with F > p
    if i and prof.below_next[i - 1] > t:
        return _invert(prof, i - 1, p)
    return prof.xs[i]


def left_quantile(d: MixtureDistribution, p: LevelLike) -> ExtendedReal:
    """inf{x : P(X<=x) >= p}, the smallest value the level-p quantile can take.

    Equals -inf at p=0 and the essential supremum (finite) at p=1.
    """
    p = as_level(p)
    return _lq(_profile(d), p)


def right_quantile(d: MixtureDistribution, p: LevelLike) -> ExtendedReal:
    """inf{x : P(X<=x) > p}, the largest value the level-p quantile can take.

    Equals the essential infimum (finite) at p=0 and +inf at p=1.
    """
    p = as_level(p)
    return _rq(_profile(d), p)


def quantile_at(d: MixtureDistribution, p: LevelLike, side: QuantileSide) -> ExtendedReal:
    if not isinstance(side, QuantileSide):
        raise TypeError(f"side must be a QuantileSide, got {side!r}")
    if side is QuantileSide.LEFT:
        return left_quantile(d, p)
    return right_quantile(d, p)


def quantile_pair(d: MixtureDistribution, p: LevelLike) -> QuantilePair:
    """Both quantiles at one level; the pair brackets every valid answer."""
    p = as_level(p)
    prof = _profile(d)
    return QuantilePair(left=_lq(prof, p), right=_rq(prof, p), level=p)
