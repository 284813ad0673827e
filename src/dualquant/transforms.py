"""Monotone transformations: evaluation, exact pushforward, and the
continuity-aware quantile equivariance rules.

The central subtlety: a quantile does NOT commute with every strictly
increasing map.  The left quantile passes through a non-decreasing map
only if the map is left-continuous (and through a non-increasing map,
side-swapped and level-reflected, only if right-continuous); dually for
the right quantile.  `equivariance_counterexample` exhibits the failure
with a strictly increasing jump map.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .distributions import (
    NEG_INF,
    POS_INF,
    Atom,
    ExtendedReal,
    MixtureDistribution,
    UniformSegment,
    as_extended,
    as_level,
    negate,
    stored,
)
from .errors import (
    ContinuityMismatchError,
    MapDomainError,
    MapSpecError,
    UnsupportedPushforwardError,
)
from .quantiles import LevelLike, QuantileSide, left_quantile, right_quantile

__all__ = [
    "Direction",
    "Continuity",
    "MapPiece",
    "PiecewiseMonotoneMap",
    "SmoothKind",
    "SmoothMonotoneMap",
    "MonotoneMap",
    "negation_map",
    "affine_map",
    "pow10_neg_map",
    "neglog10_map",
    "apply_map",
    "pushforward",
    "equivariant_quantile",
    "equivariance_counterexample",
    "map_from_spec",
    "map_to_spec",
]


class Direction(Enum):
    NON_DECREASING = "non_decreasing"
    NON_INCREASING = "non_increasing"


class Continuity(Enum):
    """Which neighbouring piece owns the value at a breakpoint."""

    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class MapPiece:
    """One affine piece y = slope*x + intercept on [lo, hi].

    ``lo`` may be -inf and ``hi`` +inf; slope and intercept are finite.
    """

    lo: float
    hi: float
    slope: float
    intercept: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi) or not lo < hi:
            raise MapSpecError(f"piece needs lo < hi, got [{self.lo!r}, {self.hi!r}]")
        slope, intercept = float(self.slope), float(self.intercept)
        if not (math.isfinite(slope) and math.isfinite(intercept)):
            raise MapSpecError("piece slope and intercept must be finite")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", intercept)

    def value(self, x) -> ExtendedReal:
        # exact rationals (segment-interior quantiles) stay exact; float
        # inputs keep float arithmetic so atom images match pushforward
        # locations bit for bit
        if isinstance(x, Fraction):
            return as_extended(Fraction(self.slope) * x + Fraction(self.intercept))
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class PiecewiseMonotoneMap:
    """A piecewise-affine monotone map defined on all of R.

    Pieces must tile (-inf, +inf) contiguously; each interior
    breakpoint carries a Continuity flag naming the piece whose formula
    holds AT the breakpoint.  The flags decide one-sided continuity,
    which in turn decides which equivariance identities are available.
    """

    pieces: tuple[MapPiece, ...]
    direction: Direction
    continuity: tuple[Continuity, ...] = ()

    def __post_init__(self):
        pieces = tuple(self.pieces)
        cont = tuple(self.continuity)
        if not pieces:
            raise MapSpecError("a piecewise map needs at least one piece")
        if not isinstance(self.direction, Direction):
            raise MapSpecError(f"bad direction {self.direction!r}")
        if pieces[0].lo != NEG_INF or pieces[-1].hi != POS_INF:
            raise MapSpecError("pieces must cover (-inf, +inf)")
        for a, b in zip(pieces, pieces[1:]):
            if a.hi != b.lo:
                raise MapSpecError(
                    f"pieces must tile contiguously; [{a.lo}, {a.hi}] is followed by [{b.lo}, {b.hi}]"
                )
        if len(cont) != len(pieces) - 1:
            raise MapSpecError(
                f"{len(pieces)} pieces need {len(pieces) - 1} continuity flags, got {len(cont)}"
            )
        if any(not isinstance(f, Continuity) for f in cont):
            raise MapSpecError("continuity flags must be Continuity values")
        rising = self.direction is Direction.NON_DECREASING
        for p in pieces:
            if (p.slope < 0) if rising else (p.slope > 0):
                raise MapSpecError(
                    f"piece slope {p.slope} contradicts direction {self.direction.value}"
                )
        for i, (a, b) in enumerate(zip(pieces, pieces[1:])):
            left_val, right_val = a.value(a.hi), b.value(b.lo)
            if (left_val > right_val) if rising else (left_val < right_val):
                raise MapSpecError(
                    f"values jump the wrong way at breakpoint {a.hi}: "
                    f"{left_val} then {right_val}"
                )
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "continuity", cont)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(p.hi for p in self.pieces[:-1])

    def _jump_free(self, i: int) -> bool:
        return self.pieces[i].value(self.pieces[i].hi) == self.pieces[i + 1].value(
            self.pieces[i + 1].lo
        )

    def is_left_continuous(self) -> bool:
        return all(
            self._jump_free(i) or f is Continuity.LEFT
            for i, f in enumerate(self.continuity)
        )

    def is_right_continuous(self) -> bool:
        return all(
            self._jump_free(i) or f is Continuity.RIGHT
            for i, f in enumerate(self.continuity)
        )


class SmoothKind(Enum):
    NEGATION = "negation"    # x -> -x
    AFFINE = "affine"        # x -> scale*x + offset, scale != 0
    POW10_NEG = "pow10neg"   # x -> 10**(-x)
    NEGLOG10 = "neglog10"    # x -> -log10(x), domain (0, +inf)


@dataclass(frozen=True)
class SmoothMonotoneMap:
    """A built-in everywhere-continuous strictly monotone map."""

    kind: SmoothKind
    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if not isinstance(self.kind, SmoothKind):
            raise MapSpecError(f"bad smooth map kind {self.kind!r}")
        scale, offset = float(self.scale), float(self.offset)
        if self.kind is SmoothKind.AFFINE:
            if not (math.isfinite(scale) and math.isfinite(offset)):
                raise MapSpecError("affine map needs finite scale and offset")
            if scale == 0:
                raise MapSpecError("affine map needs a nonzero scale to stay monotone")
        else:
            # parameters are meaningless for the fixed kinds; pin them so
            # equal maps compare and hash equal
            scale, offset = 1.0, 0.0
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "offset", offset)

    @property
    def direction(self) -> Direction:
        if self.kind is SmoothKind.AFFINE and self.scale > 0:
            return Direction.NON_DECREASING
        return Direction.NON_INCREASING

    def is_left_continuous(self) -> bool:
        return True

    def is_right_continuous(self) -> bool:
        return True


MonotoneMap = Union[PiecewiseMonotoneMap, SmoothMonotoneMap]


def negation_map() -> SmoothMonotoneMap:
    return SmoothMonotoneMap(SmoothKind.NEGATION)


def affine_map(scale: float, offset: float = 0.0) -> SmoothMonotoneMap:
    return SmoothMonotoneMap(SmoothKind.AFFINE, scale, offset)


def pow10_neg_map() -> SmoothMonotoneMap:
    return SmoothMonotoneMap(SmoothKind.POW10_NEG)


def neglog10_map() -> SmoothMonotoneMap:
    return SmoothMonotoneMap(SmoothKind.NEGLOG10)


def _apply_smooth(m: SmoothMonotoneMap, x: ExtendedReal) -> ExtendedReal:
    kind = m.kind
    if kind is SmoothKind.NEGATION:
        return -x  # exact for floats, Fractions and infinities alike
    if isinstance(x, float) and math.isinf(x):
        if kind is SmoothKind.AFFINE:
            return x if m.scale > 0 else -x
        if kind is SmoothKind.POW10_NEG:
            return 0.0 if x > 0 else POS_INF
        # NEGLOG10
        if x > 0:
            return NEG_INF
        raise MapDomainError("neglog10 is defined on (0, +inf) only")
    if kind is SmoothKind.AFFINE:
        if isinstance(x, Fraction):
            return as_extended(Fraction(m.scale) * x + Fraction(m.offset))
        return m.scale * x + m.offset
    xf = float(x)
    if kind is SmoothKind.POW10_NEG:
        return 10.0 ** (-xf)
    if xf <= 0:
        raise MapDomainError(f"neglog10 is undefined at {x!r}")
    return -math.log10(xf)


def _apply_piecewise(m: PiecewiseMonotoneMap, x: ExtendedReal) -> ExtendedReal:
    if isinstance(x, float) and math.isinf(x):
        piece = m.pieces[-1] if x > 0 else m.pieces[0]
        if piece.slope == 0:
            return piece.intercept  # constant tail: the limit is its value
        rising_here = (piece.slope > 0) == (x > 0)
        return POS_INF if rising_here else NEG_INF
    bs = m.breakpoints
    i = bisect_left(bs, x)
    if i < len(bs) and bs[i] == x:
        piece = m.pieces[i] if m.continuity[i] is Continuity.LEFT else m.pieces[i + 1]
    else:
        piece = m.pieces[bisect_right(bs, x)]
    return piece.value(x)


def apply_map(m: MonotoneMap, x: ExtendedReal) -> ExtendedReal:
    """Evaluate the map at ``x``, honouring the continuity flag at
    breakpoints; +/-infinity returns the map's monotone limit there."""
    if isinstance(m, SmoothMonotoneMap):
        return _apply_smooth(m, x)
    if isinstance(m, PiecewiseMonotoneMap):
        return _apply_piecewise(m, x)
    raise TypeError(f"not a monotone map: {m!r}")


def _push_smooth(d: MixtureDistribution, m: SmoothMonotoneMap) -> MixtureDistribution:
    kind = m.kind
    if kind is SmoothKind.NEGATION:
        return negate(d)
    if kind is SmoothKind.AFFINE:
        pool: dict[float, Fraction] = {}
        segs = []
        for a in d.atoms:
            y = m.scale * a.location + m.offset
            pool[y] = pool.get(y, Fraction(0)) + a.mass
        for s in d.segments:
            y1 = m.scale * s.lo + m.offset
            y2 = m.scale * s.hi + m.offset
            lo, hi = (y1, y2) if y1 <= y2 else (y2, y1)
            if lo == hi:  # interval narrower than float resolution
                pool[lo] = pool.get(lo, Fraction(0)) + s.mass
            else:
                segs.append(UniformSegment(lo, hi, s.mass))
        return MixtureDistribution(
            atoms=tuple(Atom(y, w) for y, w in pool.items()), segments=tuple(segs)
        )
    # the curved kinds keep exactness only for purely atomic distributions
    if d.segments:
        raise UnsupportedPushforwardError(
            f"{kind.value} pushforward needs an atom-only distribution; "
            "a uniform segment's image would not be uniform"
        )
    pool = {}
    for a in d.atoms:
        y = _apply_smooth(m, a.location)
        pool[y] = pool.get(y, Fraction(0)) + a.mass
    return MixtureDistribution(atoms=tuple(Atom(y, w) for y, w in pool.items()))


def _push_piecewise(d: MixtureDistribution, m: PiecewiseMonotoneMap) -> MixtureDistribution:
    pool: dict[float, Fraction] = {}
    segs = []

    def add_atom(loc: float, mass: Fraction) -> None:
        pool[loc] = pool.get(loc, Fraction(0)) + mass

    for a in d.atoms:
        add_atom(float(_apply_piecewise(m, a.location)), a.mass)
    bs = m.breakpoints
    for s in d.segments:
        # split at the map's interior breakpoints; each part rides one piece
        cuts = [s.lo] + [b for b in bs if s.lo < b < s.hi] + [s.hi]
        for u, v in zip(cuts, cuts[1:]):
            part = s.mass * (Fraction(v) - Fraction(u)) / s.width
            piece = m.pieces[bisect_right(bs, u)]  # owner of the open interval (u, v)
            if piece.slope == 0:
                add_atom(piece.intercept, part)
                continue
            y1, y2 = piece.value(u), piece.value(v)
            lo, hi = (y1, y2) if y1 <= y2 else (y2, y1)
            if lo == hi:
                add_atom(lo, part)
            else:
                segs.append(UniformSegment(lo, hi, part))
    return MixtureDistribution(
        atoms=tuple(Atom(y, w) for y, w in pool.items()), segments=tuple(segs)
    )


@stored
def _images(d: MixtureDistribution) -> dict:
    # id(map) -> (map, pushforward of d through it)
    return {}


def pushforward(d: MixtureDistribution, m: MonotoneMap) -> MixtureDistribution:
    """Exact distribution of m(X).

    Atoms map pointwise (images that collide pool their mass); uniform
    segments split at the map's breakpoints with mass divided in exact
    proportion, then ride their covering affine piece, flipping
    orientation under a negative slope and collapsing to an atom under
    slope zero.  The curved smooth kinds (pow10neg, neglog10) accept
    only atom-only distributions, since they would bend a uniform
    segment into a non-uniform law this model cannot represent.

    The image is memoized on ``d`` per map object.  Equal inputs are not
    enough for a hit: ``affine_map(2.0, -0.0) == affine_map(2.0, 0.0)``
    and ``make_empirical([-0.0]) == make_empirical([0.0])``, yet the
    signs of their images differ.
    """
    images = _images(d)
    hit = images.get(id(m))
    if hit is not None:
        return hit[1]
    if isinstance(m, SmoothMonotoneMap):
        image = _push_smooth(d, m)
    elif isinstance(m, PiecewiseMonotoneMap):
        image = _push_piecewise(d, m)
    else:
        raise TypeError(f"not a monotone map: {m!r}")
    images[id(m)] = (m, image)  # holding m keeps its id from being reused
    return image


def equivariant_quantile(
    d: MixtureDistribution, m: MonotoneMap, p: LevelLike, side: QuantileSide
) -> ExtendedReal:
    """A quantile of m(X) computed from a quantile of X alone.

    Non-decreasing maps pass the requested side straight through;
    non-increasing maps swap the side and reflect the level to 1-p.
    The identity is valid only when the map's one-sided continuity
    matches the requested side (left quantile: left-continuous if
    non-decreasing, right-continuous if non-increasing; mirrored for
    the right quantile); otherwise ContinuityMismatchError is raised.
    Equals the directly computed quantile of pushforward(d, m).
    """
    p = as_level(p)
    if not isinstance(side, QuantileSide):
        raise TypeError(f"side must be a QuantileSide, got {side!r}")
    rising = m.direction is Direction.NON_DECREASING
    if side is QuantileSide.LEFT:
        ok = m.is_left_continuous() if rising else m.is_right_continuous()
        needed = "left" if rising else "right"
    else:
        ok = m.is_right_continuous() if rising else m.is_left_continuous()
        needed = "right" if rising else "left"
    if not ok:
        raise ContinuityMismatchError(
            f"{side.value}-quantile equivariance through a "
            f"{m.direction.value.replace('_', '-')} map requires a "
            f"{needed}-continuous map, and this one is not"
        )
    if side is QuantileSide.LEFT:
        q = left_quantile(d, p) if rising else right_quantile(d, 1 - p)
    else:
        q = right_quantile(d, p) if rising else left_quantile(d, 1 - p)
    return apply_map(m, q)


def equivariance_counterexample():
    """A strictly increasing map that still defeats naive equivariance.

    Returns ``(d, m, p, pushforward_lq, naive_lq)``.  The map adds 1 to
    every x past 0.5 and owns the breakpoint value on the right, so it
    is strictly increasing but not left-continuous.  For X uniform on
    [0, 1] at p = 1/2 the pushforward's left quantile is 0.5, while
    naively transforming the original quantile gives m(0.5) = 1.5.
    """
    d = MixtureDistribution(segments=(UniformSegment(0.0, 1.0, Fraction(1)),))
    m = PiecewiseMonotoneMap(
        pieces=(
            MapPiece(NEG_INF, 0.5, 1.0, 0.0),
            MapPiece(0.5, POS_INF, 1.0, 1.0),
        ),
        direction=Direction.NON_DECREASING,
        continuity=(Continuity.RIGHT,),
    )
    p = Fraction(1, 2)
    actual = left_quantile(pushforward(d, m), p)
    naive = apply_map(m, left_quantile(d, p))
    return d, m, p, actual, naive


_BOUND_STRINGS = {
    "inf": POS_INF,
    "+inf": POS_INF,
    "infinity": POS_INF,
    "-inf": NEG_INF,
    "-infinity": NEG_INF,
}


def _bound_from_spec(v) -> float:
    if isinstance(v, str):
        try:
            return _BOUND_STRINGS[v.strip().lower()]
        except KeyError:
            raise MapSpecError(f"bad interval bound {v!r}") from None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MapSpecError(f"bad interval bound {v!r}")
    return float(v)


def _bound_to_spec(v: float):
    if v == POS_INF:
        return "inf"
    if v == NEG_INF:
        return "-inf"
    return v


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise MapSpecError(f"{context} is missing required key {key!r}")
    return obj[key]


def map_from_spec(spec: dict) -> MonotoneMap:
    """Build a map from its JSON-able dict form (inverse of `map_to_spec`).

    Smooth maps: ``{"kind": "negation" | "pow10neg" | "neglog10"}`` or
    ``{"kind": "affine", "a": 2, "b": 1}``.

    Piecewise maps::

        {"direction": "non_decreasing",
         "breakpoints": [{"at": 0.5, "continuity": "right"}],
         "pieces": [
           {"lo": "-inf", "hi": 0.5, "slope": 1, "intercept": 0},
           {"lo": 0.5, "hi": "inf", "slope": 1, "intercept": 1}]}

    Each breakpoint's ``at`` must equal the shared bound of its
    neighbouring pieces, in order.
    """
    if not isinstance(spec, dict):
        raise MapSpecError("a map spec must be a JSON object")
    if "kind" in spec:
        kind = spec["kind"]
        if kind == "negation":
            return negation_map()
        if kind == "pow10neg":
            return pow10_neg_map()
        if kind == "neglog10":
            return neglog10_map()
        if kind == "affine":
            a = _require(spec, "a", "affine map")
            b = spec.get("b", 0.0)
            for v in (a, b):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise MapSpecError(f"affine coefficient must be a number, got {v!r}")
            return affine_map(float(a), float(b))
        raise MapSpecError(f"unknown smooth map kind {kind!r}")
    direction_raw = _require(spec, "direction", "piecewise map")
    try:
        direction = Direction(direction_raw)
    except ValueError:
        raise MapSpecError(f"unknown direction {direction_raw!r}") from None
    pieces_raw = _require(spec, "pieces", "piecewise map")
    if not isinstance(pieces_raw, list) or not pieces_raw:
        raise MapSpecError("'pieces' must be a non-empty list")
    pieces = []
    for i, pr in enumerate(pieces_raw):
        if not isinstance(pr, dict):
            raise MapSpecError(f"piece {i} must be an object")
        ctx = f"piece {i}"
        lo = _bound_from_spec(_require(pr, "lo", ctx))
        hi = _bound_from_spec(_require(pr, "hi", ctx))
        slope = _require(pr, "slope", ctx)
        intercept = _require(pr, "intercept", ctx)
        for v in (slope, intercept):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise MapSpecError(f"{ctx}: slope and intercept must be numbers")
        pieces.append(MapPiece(lo, hi, float(slope), float(intercept)))
    bps_raw = spec.get("breakpoints", [])
    if not isinstance(bps_raw, list):
        raise MapSpecError("'breakpoints' must be a list")
    flags = []
    ats = []
    for i, br in enumerate(bps_raw):
        if not isinstance(br, dict):
            raise MapSpecError(f"breakpoint {i} must be an object")
        at = _require(br, "at", f"breakpoint {i}")
        if isinstance(at, bool) or not isinstance(at, (int, float)):
            raise MapSpecError(f"breakpoint {i}: 'at' must be a number")
        ats.append(float(at))
        cont_raw = _require(br, "continuity", f"breakpoint {i}")
        try:
            flags.append(Continuity(cont_raw))
        except ValueError:
            raise MapSpecError(f"breakpoint {i}: unknown continuity {cont_raw!r}") from None
    expected = [p.hi for p in pieces[:-1]]
    if ats != expected:
        raise MapSpecError(
            f"breakpoint positions {ats} do not match the piece boundaries {expected}"
        )
    return PiecewiseMonotoneMap(tuple(pieces), direction, tuple(flags))


def map_to_spec(m: MonotoneMap) -> dict:
    """Serialize a map to the dict form accepted by `map_from_spec`."""
    if isinstance(m, SmoothMonotoneMap):
        if m.kind is SmoothKind.AFFINE:
            return {"kind": "affine", "a": m.scale, "b": m.offset}
        return {"kind": m.kind.value}
    if isinstance(m, PiecewiseMonotoneMap):
        return {
            "direction": m.direction.value,
            "breakpoints": [
                {"at": b, "continuity": f.value}
                for b, f in zip(m.breakpoints, m.continuity)
            ],
            "pieces": [
                {
                    "lo": _bound_to_spec(p.lo),
                    "hi": _bound_to_spec(p.hi),
                    "slope": p.slope,
                    "intercept": p.intercept,
                }
                for p in m.pieces
            ],
        }
    raise TypeError(f"not a monotone map: {m!r}")
