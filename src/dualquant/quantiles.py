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
    ``xs[i]`` (the last entry is ``den``).  ``gaps`` maps the index of
    each gap that carries mass to ``(a, b)`` with F(a + b*p) = p there:
    the exact inverse of the affine F on that gap.
    """

    xs: tuple[float, ...]
    den: int
    cdf: tuple[int, ...]
    below_next: tuple[int, ...]
    gaps: dict[int, tuple[Fraction, Fraction]]


@stored
def _profile(d: MixtureDistribution) -> _Profile:
    """The profile of ``d``, built from its atom columns and segments.

    With no segments (every empirical distribution) this is integer work
    only: the landmarks are the atom location column itself, and the
    running sums of the atoms' counts over one common denominator are
    the CDF's numerators over their own total, so no mass is normalized,
    no `Fraction` is built and ``d.atoms`` is never read.  With segments
    the atoms' normalized masses and each gap's share of its segment's
    mass go over the least common denominator of them all.
    """
    if not d.segments:
        counts, _ = as_counts(d._nums, d._dens)
        cdf = tuple(accumulate(counts))
        return _Profile(d._locs, cdf[-1], cdf, cdf, {})
    # a dict keeps the first of two equal keys, so where -0.0 meets 0.0
    # the atom's zero wins over a segment end's, and an earlier segment
    # end over a later one
    jump = dict(zip(d._locs, d._masses()))
    for s in d.segments:
        jump.setdefault(s.lo, 0)
        jump.setdefault(s.hi, 0)
    xs = sorted(jump)
    segs = d.segments
    masses = []  # the mass at each landmark, then that of the gap after it
    covering = {}
    j = 0  # the first segment ending after the current landmark
    for i, x in enumerate(xs):
        masses.append(jump[x])
        while j < len(segs) and segs[j].hi <= x:
            j += 1
        if i + 1 < len(xs) and j < len(segs) and segs[j].lo <= x:
            s = covering[i] = segs[j]  # the whole gap: its ends are landmarks
            masses.append(s.mass * (Fraction(xs[i + 1]) - Fraction(x)) / s.width)
        else:
            masses.append(0)
    den = lcm(*(m.denominator for m in masses))
    cum = list(accumulate(m.numerator * (den // m.denominator) for m in masses))
    cdf = cum[0::2]
    gaps = {}
    for i, s in covering.items():
        slope = s.width / s.mass
        gaps[i] = (Fraction(xs[i]) - Fraction(cdf[i], den) * slope, slope)
    return _Profile(tuple(xs), den, tuple(cdf), tuple(cum[1::2]), gaps)


def _invert(prof: _Profile, i: int, p: Probability) -> ExtendedReal:
    # the point of the gap after xs[i] where the affine F reaches p
    a, b = prof.gaps[i]
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
