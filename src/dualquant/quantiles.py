"""Left and right quantile functions.

The two generalized inverses of a distribution function differ exactly
on the flat stretches of F: the left quantile is inf{x : P(X<=x) >= p}
and the right quantile is inf{x : P(X<=x) > p}.  Both are found by
bisecting the mixture's exact CDF profile, which the mixture builds
from its integer counts on first read and keeps, then inverting at most
one affine gap, so results on atoms are the atom coordinates themselves
and results inside segments are exact rationals, each one `Fraction`
built from ints.  Each level costs O(log n).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .distributions import (
    NEG_INF,
    POS_INF,
    ExtendedReal,
    MixtureDistribution,
    Probability,
    _Profile,
    _dyadic_ints,
    as_extended,
    as_level,
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


def _invert(prof: _Profile, i: int, p: Probability) -> ExtendedReal:
    # the point of the gap after xs[i] where the affine F reaches p
    try:
        c0, c1, c2 = prof.gaps[i]
    except KeyError:
        # x = (lo + (hi - lo)*(p*den - cdf)/mass)/g, with the gap's ends lo/g and hi/g
        g, (lo, hi) = _dyadic_ints(prof.xs[i : i + 2])
        cdf, mass = prof.cdf[i], prof.below_next[i] - prof.cdf[i]
        c0, c1, c2 = prof.gaps[i] = lo * mass - (hi - lo) * cdf, (hi - lo) * prof.den, g * mass
    pn, pd = p.numerator, p.denominator
    return as_extended(Fraction(c0 * pd + c1 * pn, c2 * pd))


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
    return _lq(d._profile, p)


def right_quantile(d: MixtureDistribution, p: LevelLike) -> ExtendedReal:
    """inf{x : P(X<=x) > p}, the largest value the level-p quantile can take.

    Equals the essential infimum (finite) at p=0 and +inf at p=1.
    """
    p = as_level(p)
    return _rq(d._profile, p)


def quantile_at(d: MixtureDistribution, p: LevelLike, side: QuantileSide) -> ExtendedReal:
    if not isinstance(side, QuantileSide):
        raise TypeError(f"side must be a QuantileSide, got {side!r}")
    if side is QuantileSide.LEFT:
        return left_quantile(d, p)
    return right_quantile(d, p)


def quantile_pair(d: MixtureDistribution, p: LevelLike) -> QuantilePair:
    """Both quantiles at one level; the pair brackets every valid answer."""
    p = as_level(p)
    prof = d._profile
    return QuantilePair(left=_lq(prof, p), right=_rq(prof, p), level=p)
