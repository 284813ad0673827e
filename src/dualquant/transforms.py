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
from itertools import chain
from typing import Union

from .distributions import (
    NEG_INF,
    POS_INF,
    ExtendedReal,
    MixtureDistribution,
    Probability,
    UniformSegment,
    _common_counts,
    _dyadic_ints,
    _pool,
    as_extended,
    as_level,
    essential_bounds,
)
from .errors import (
    ContinuityMismatchError,
    MapDomainError,
    MapSpecError,
    UnsupportedPushforwardError,
)
from .quantiles import LevelLike, QuantileSide, left_quantile, quantile_at, right_quantile

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
    "Transport",
    "check_transport",
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
    The exact slope and intercept are kept beside the fields, as ints s
    and i over one power of two g, for `value` at a Fraction.
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
        g, (s, i) = _dyadic_ints((slope, intercept))
        object.__setattr__(self, "_exact", (s, i, g))

    def value(self, x) -> ExtendedReal:
        # the one formula, at +/-inf too: a flat piece is its intercept as
        # stored, signed zero included; exact rationals stay exact; floats keep
        # float arithmetic, so atom images match pushforward locations bit for
        # bit, and +/-inf gets the limit (2.0*inf + 1.0 == inf)
        if self.slope == 0:
            return self.intercept
        if isinstance(x, Fraction):
            s, i, g = self._exact
            a, b = x.numerator, x.denominator
            return as_extended(Fraction(s * a + i * b, g * b))
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class PiecewiseMonotoneMap:
    """A piecewise-affine monotone map defined on all of R.

    Pieces must tile (-inf, +inf) contiguously; each interior
    breakpoint carries a Continuity flag naming the piece whose formula
    holds AT the breakpoint.  The flags decide one-sided continuity,
    which in turn decides which equivariance identities are available.
    The breakpoints (the pieces' interior ends) and both answers, the
    attributes `left_continuous` and `right_continuous`, are set once.
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
        owners = set()  # the continuity flags of the breakpoints where the map jumps
        for a, b, f in zip(pieces, pieces[1:], cont):
            left_val, right_val = a.value(a.hi), b.value(b.lo)
            if (left_val > right_val) if rising else (left_val < right_val):
                raise MapSpecError(
                    f"values jump the wrong way at breakpoint {a.hi}: "
                    f"{left_val} then {right_val}"
                )
            if left_val != right_val:
                owners.add(f)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "continuity", cont)
        object.__setattr__(self, "breakpoints", tuple(p.hi for p in pieces[:-1]))
        object.__setattr__(self, "left_continuous", owners <= {Continuity.LEFT})
        object.__setattr__(self, "right_continuous", owners <= {Continuity.RIGHT})


class SmoothKind(Enum):
    POW10_NEG = "pow10neg"   # x -> 10**(-x)
    NEGLOG10 = "neglog10"    # x -> -log10(x), domain (0, +inf)


@dataclass(frozen=True)
class SmoothMonotoneMap:
    """A built-in everywhere-continuous strictly decreasing curved map."""

    kind: SmoothKind
    direction = Direction.NON_INCREASING
    left_continuous = right_continuous = True

    def __post_init__(self):
        if not isinstance(self.kind, SmoothKind):
            raise MapSpecError(f"bad smooth map kind {self.kind!r}")


MonotoneMap = Union[PiecewiseMonotoneMap, SmoothMonotoneMap]


def affine_map(scale: float, offset: float = 0.0) -> PiecewiseMonotoneMap:
    """x -> scale*x + offset, as a one-piece map."""
    piece = MapPiece(NEG_INF, POS_INF, scale, offset)
    if piece.slope == 0:
        raise MapSpecError("affine map needs a nonzero scale to stay monotone")
    direction = Direction.NON_DECREASING if piece.slope > 0 else Direction.NON_INCREASING
    return PiecewiseMonotoneMap((piece,), direction)


def negation_map() -> PiecewiseMonotoneMap:
    """x -> -x; the intercept -0.0 sends 0.0 to -0.0 and -0.0 to 0.0."""
    return affine_map(-1.0, -0.0)


def pow10_neg_map() -> SmoothMonotoneMap:
    return SmoothMonotoneMap(SmoothKind.POW10_NEG)


def neglog10_map() -> SmoothMonotoneMap:
    return SmoothMonotoneMap(SmoothKind.NEGLOG10)


def _apply_smooth(m: SmoothMonotoneMap, x: ExtendedReal) -> ExtendedReal:
    # the limits at +/-inf: 10.0 ** -inf == 0.0, 10.0 ** inf == inf, -log10(inf) == -inf
    xf = float(x)
    if m.kind is SmoothKind.POW10_NEG:
        try:
            return 10.0 ** (-xf)
        except OverflowError:  # past the float range, as a product would be
            return POS_INF
    if xf <= 0:
        raise MapDomainError(f"neglog10 is undefined at {x!r}")
    return -math.log10(xf)


def _apply_to_quantile(m: MonotoneMap, d: MixtureDistribution, x: ExtendedReal) -> ExtendedReal:
    """``apply_map(m, x)`` for a quantile ``x`` of ``d``.

    The sentinel lq(0) = -inf lies below all the data, not at a point of
    them.  Where the data lie in neglog10's domain (0, +inf), it stands
    for that edge of the domain and maps to the limit there, +inf;
    ``apply_map(neglog10, -inf)`` itself raises, and so does this for
    data with a point at or below 0.
    """
    if (
        isinstance(m, SmoothMonotoneMap)
        and m.kind is SmoothKind.NEGLOG10
        and x == NEG_INF
        and essential_bounds(d)[0] > 0
    ):
        return POS_INF
    return apply_map(m, x)


def _apply_piecewise(m: PiecewiseMonotoneMap, x: ExtendedReal) -> ExtendedReal:
    bs = m.breakpoints
    i = bisect_left(bs, x)  # x lies in piece i, or at its upper end bs[i] (+/-inf: an end piece)
    if i < len(bs) and bs[i] == x and m.continuity[i] is Continuity.RIGHT:
        i += 1
    return m.pieces[i].value(x)


def apply_map(m: MonotoneMap, x: ExtendedReal) -> ExtendedReal:
    """Evaluate the map at ``x``, honouring the continuity flag at
    breakpoints; +/-infinity returns the map's monotone limit there."""
    if isinstance(m, SmoothMonotoneMap):
        return _apply_smooth(m, x)
    if isinstance(m, PiecewiseMonotoneMap):
        return _apply_piecewise(m, x)
    raise TypeError(f"not a monotone map: {m!r}")


def pushforward(d: MixtureDistribution, m: MonotoneMap) -> MixtureDistribution:
    """Exact distribution of m(X).

    Atoms map pointwise; uniform segments split at the map's breakpoints
    with mass divided in exact proportion, then ride their covering
    affine piece, flipping orientation under a negative slope and
    collapsing to an atom under slope zero (or when the image is
    narrower than float resolution).  The curved smooth kinds (pow10neg,
    neglog10) accept only atom-only distributions, since they would bend
    a uniform segment into a non-uniform law this model cannot represent.

    The image is built from ``d``'s columns as `make_empirical` builds
    data: `_pool` pools the mapped atoms with their counts, then the
    collapsed parts, so colliding images add up and the first of
    ``-0.0`` and ``0.0`` names the atom; image segments go into segment
    columns.  A part that is a whole segment carries the segment's
    count, and only a segment cut by a breakpoint gives its parts a
    `Fraction` share; every mass then becomes a count over one common
    denominator.  No `Atom` or `UniformSegment` is built.
    """
    n = len(d._locs)
    ws = list(d._counts[:n])
    segs = []  # (lo, hi, numerator, denominator) of each image segment
    if isinstance(m, SmoothMonotoneMap):
        # the curved kinds keep exactness only for purely atomic distributions
        if d._los:
            raise UnsupportedPushforwardError(
                f"{m.kind.value} pushforward needs an atom-only distribution; "
                "a uniform segment's image would not be uniform"
            )
        ys = [_apply_smooth(m, x) for x in d._locs]
    elif isinstance(m, PiecewiseMonotoneMap):
        ys = [_apply_piecewise(m, x) for x in d._locs]
        bs = m.breakpoints
        for lo, hi, count in zip(d._los, d._his, d._counts[n:]):
            # split at the map's breakpoints inside (lo, hi); part j rides piece i + j
            i = bisect_right(bs, lo)
            cuts = [lo, *bs[i : bisect_left(bs, hi)], hi]
            density = count / (Fraction(hi) - Fraction(lo)) if len(cuts) > 2 else None
            for u, v, piece in zip(cuts, cuts[1:], m.pieces[i:]):
                part = count if density is None else density * (Fraction(v) - Fraction(u))
                a, b = sorted((piece.value(u), piece.value(v)))
                if a == b:
                    ys.append(a)
                    ws.append(part)
                else:
                    segs.append((a, b, part.numerator, part.denominator))
    else:
        raise TypeError(f"not a monotone map: {m!r}")
    # float overflow is the one way a finite point gets a non-finite image
    if not all(map(math.isfinite, chain(ys, (y for seg in segs for y in seg[:2])))):
        raise MapDomainError("the map sends a finite value past the float range")
    segs.sort()  # in order already, or reversed by a non-increasing map
    locs, nums, dens = _pool(ys, ws)
    los, his, seg_nums, seg_dens = zip(*segs) if segs else ((),) * 4
    counts = _common_counts(nums + seg_nums, dens + seg_dens)
    return MixtureDistribution._of_columns(locs, counts, los, his)


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
    rising, needs_left = _transport_rule(m, side)
    return _apply_to_quantile(m, d, _preimage_quantile(d, p, rising, needs_left))


def _transport_rule(m: MonotoneMap, side: QuantileSide) -> tuple[bool, bool]:
    """``(rising, needs_left)`` for the ``side`` quantile through ``m``:
    whether ``m`` is non-decreasing, and whether the identity needs it
    left-continuous (else right-continuous), which it must then be."""
    rising = m.direction is Direction.NON_DECREASING
    needs_left = (side is QuantileSide.LEFT) == rising
    if not (m.left_continuous if needs_left else m.right_continuous):
        raise ContinuityMismatchError(
            f"{side.value}-quantile equivariance through a "
            f"{m.direction.value.replace('_', '-')} map requires a "
            f"{'left' if needs_left else 'right'}-continuous map, and this one is not"
        )
    return rising, needs_left


def _preimage_quantile(
    d: MixtureDistribution, p: Probability, rising: bool, needs_left: bool
) -> ExtendedReal:
    """The quantile of X that `_transport_rule`'s answer routes to level
    ``p`` of m(X): the level reflected to 1-p through a non-increasing
    map, and X's left quantile exactly when the map needs left continuity."""
    level = p if rising else 1 - p
    return left_quantile(d, level) if needs_left else right_quantile(d, level)


class Transport(Enum):
    """Verdict on one transported quantile; the values are the labels
    the CLI prints."""

    NOT_CLAIMED = "boundary"
    EQUAL = "yes"
    UNEQUAL = "NO"


def check_transport(
    push: MixtureDistribution, p: LevelLike, side: QuantileSide, routed: ExtendedReal
) -> tuple[ExtendedReal, Transport]:
    """The pushforward's quantile at ``p`` and whether ``routed`` (from
    `equivariant_quantile`) matches it.

    The identity quantifies over reals, so it is not claimed at level 0
    on the left or level 1 on the right when ``routed`` is finite: a map
    bounded below routes lq(0) to its finite range edge, while lq(0) of
    the image is -inf by convention.  Otherwise the two must be equal
    under ``==``, so ``-0.0`` matches ``0.0``, as the pushforward names a
    pooled atom by the first image on it.  An answer inside a pushforward
    segment (not at one of its atoms) may also differ from ``routed`` by
    float rounding, within a fixed absolute allowance.
    """
    p = as_level(p)
    direct = quantile_at(push, p, side)
    finite = not (isinstance(routed, float) and math.isinf(routed))
    if finite and p == (0 if side is QuantileSide.LEFT else 1):
        return direct, Transport.NOT_CLAIMED
    if direct == routed or (
        finite
        and not (isinstance(direct, float) and math.isinf(direct))
        # not at an atom: no location of the image's sorted column equals it
        and bisect_left(push._locs, direct) == bisect_right(push._locs, direct)
        and abs(float(direct) - float(routed)) <= 1e-12
    ):
        return direct, Transport.EQUAL
    return direct, Transport.UNEQUAL


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


def _number_from_spec(v, what: str) -> float:
    # a JSON number: an int or a float, but not a bool
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MapSpecError(f"{what} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise MapSpecError(f"{what} lies past the float range") from None


def _bound_from_spec(v, what: str) -> float:
    if isinstance(v, str):
        try:
            return _BOUND_STRINGS[v.strip().lower()]
        except KeyError:
            raise MapSpecError(f"bad interval bound {v!r}") from None
    return _number_from_spec(v, what)


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

    Named maps: the curved ``{"kind": "pow10neg" | "neglog10"}``, and
    ``{"kind": "negation"}`` or ``{"kind": "affine", "a": 2, "b": 1}``,
    which build one-piece piecewise maps.

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
            a = _number_from_spec(_require(spec, "a", "affine map"), "affine coefficient")
            return affine_map(a, _number_from_spec(spec.get("b", 0.0), "affine coefficient"))
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
        pieces.append(
            MapPiece(
                _bound_from_spec(_require(pr, "lo", ctx), f"{ctx}: 'lo'"),
                _bound_from_spec(_require(pr, "hi", ctx), f"{ctx}: 'hi'"),
                _number_from_spec(_require(pr, "slope", ctx), f"{ctx}: 'slope'"),
                _number_from_spec(_require(pr, "intercept", ctx), f"{ctx}: 'intercept'"),
            )
        )
    bps_raw = spec.get("breakpoints", [])
    if not isinstance(bps_raw, list):
        raise MapSpecError("'breakpoints' must be a list")
    flags = []
    ats = []
    for i, br in enumerate(bps_raw):
        if not isinstance(br, dict):
            raise MapSpecError(f"breakpoint {i} must be an object")
        at = _require(br, "at", f"breakpoint {i}")
        ats.append(_number_from_spec(at, f"breakpoint {i}: 'at'"))
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
        return {"kind": m.kind.value}
    if isinstance(m, PiecewiseMonotoneMap):
        if len(m.pieces) == 1 and m.pieces[0].slope != 0:
            return {"kind": "affine", "a": m.pieces[0].slope, "b": m.pieces[0].intercept}
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
