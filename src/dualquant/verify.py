"""Independent oracles and the property-based verification suite.

`quantile_by_definition` re-derives quantiles straight from their set
definitions using only `dist_fn` over a provably sufficient candidate
grid, giving every closed-form result in the quantiles module a second,
unrelated route to be checked against.  `run_suite` drives seeded
random mixtures through the full battery: the one-sided quantile
properties (ids a-k), the negation mirror identity (S), agreement of
all definitional variants and distribution-function flavors (V), and
monotone-map equivariance across a stock library (E).
"""

from __future__ import annotations

import math
import operator
import os
import random
import threading
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional, Sequence

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
    format_extended,
    is_continuous,
    is_strictly_monotone_on_hull,
    negate,
)
from .errors import MapDomainError, ContinuityMismatchError, UnsupportedPushforwardError
# the battery calls left_quantile and pushforward by their names here, so a
# test can swap a fault in with monkeypatch and forked shards inherit it
from .quantiles import (
    LevelLike,
    QuantileSide,
    left_quantile,
    right_quantile,
)
from .transforms import (
    Continuity,
    Direction,
    MapPiece,
    MonotoneMap,
    PiecewiseMonotoneMap,
    Transport,
    affine_map,
    check_transport,
    equivariant_quantile,
    neglog10_map,
    negation_map,
    pow10_neg_map,
    pushforward,
)

__all__ = [
    "QuantileVariant",
    "CheckResult",
    "PropertyReport",
    "GeneratorConfig",
    "quantile_by_definition",
    "check_quantile_properties",
    "check_symmetry",
    "random_mixture",
    "run_suite",
    "stock_maps",
    "standard_levels",
    "suite_passed",
    "first_failure",
    "summarize",
    "report_to_dict",
    "reports_to_json",
]


class QuantileVariant(Enum):
    """The six definitional forms: each quantile as an inf over either
    distribution-function flavor, and as a sup of the complement set."""

    LQ_CLOSED_INF = "lq_closed_inf"  # inf {x : P(X<=x) >= p}
    LQ_OPEN_INF = "lq_open_inf"      # inf {x : P(X<x)  >= p}
    LQ_CLOSED_SUP = "lq_closed_sup"  # sup {x : P(X<=x) <  p}
    RQ_CLOSED_INF = "rq_closed_inf"  # inf {x : P(X<=x) >  p}
    RQ_OPEN_INF = "rq_open_inf"      # inf {x : P(X<x)  >  p}
    RQ_CLOSED_SUP = "rq_closed_sup"  # sup {x : P(X<=x) <= p}


@dataclass(frozen=True, slots=True)
class CheckResult:
    check_id: str
    passed: bool
    details: str
    checked: int = 1  # identities verified at this level; a vacuous one counts
    skipped: int = 0  # identities not claimed at this level


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of every check for one (distribution, level) pair."""

    distribution: str
    level: Probability
    results: tuple[CheckResult, ...]

    def __post_init__(self):
        ids = [r.check_id for r in self.results]
        if len(ids) != len(set(ids)):
            raise ValueError(f"duplicate check ids in report: {ids}")

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.passed)


# ---------------------------------------------------------------------------
# definitional oracle


class _Grid(NamedTuple):
    """The level-free part of one mixture's candidate grid.

    ``cells`` holds ``(x, P(X<=x), P(X<x))`` for one probe outside the
    hull on each side, every breakpoint and every midpoint between
    consecutive breakpoints, in increasing order; breakpoint k sits at
    index 2k+1.  ``crossings`` holds, for each breakpoint interval (a, b)
    that carries mass, ``(index of a, a, P(X<=a), P(X<b), (b-a)/gain)``,
    gain being the mass of (a, b): enough to place the point where the
    affine distribution function crosses any level.  `_candidates` reads
    both at each level; `_shape_witnesses` reads the jumps and gaps off
    them once per mixture.
    """

    cells: tuple[tuple[Fraction, Probability, Probability], ...]
    crossings: tuple[tuple[int, Fraction, Probability, Probability, Fraction], ...]


def _cell(d: MixtureDistribution, x: Fraction) -> tuple[Fraction, Probability, Probability]:
    return x, dist_fn(d, DistFnFlavor.LEFT_CLOSED, x), dist_fn(d, DistFnFlavor.LEFT_OPEN, x)


def _candidate_table(d: MixtureDistribution) -> _Grid:
    bps = [Fraction(b) for b in breakpoints(d)]
    xs = [bps[0] - 1]
    for a, b in zip(bps, bps[1:]):
        xs += (a, (a + b) / 2)
    xs += (bps[-1], bps[-1] + 1)
    cells = tuple(_cell(d, x) for x in xs)
    crossings = []
    for k in range(1, len(cells) - 2, 2):
        (a, fca, _), (b, _, fob) = cells[k], cells[k + 2]
        gain = fob - fca  # mass of the open interval (a, b)
        if gain > 0:
            crossings.append((k, a, fca, fob, (b - a) / gain))
    return _Grid(cells, tuple(crossings))


class _LevelGrid(NamedTuple):
    """The candidate grid at one level, with the sign of F - p at each
    cell for both flavors (1 above p, 0 at p, -1 below)."""

    cells: list[tuple[Fraction, Probability, Probability]]
    closed: list[int]  # sign of P(X<=x) - p
    open: list[int]  # sign of P(X<x) - p


def _signs(fs, p: Probability) -> list[int]:
    # exact comparison with p by integer cross-multiplication
    pn, pd = p.numerator, p.denominator
    return [(v > 0) - (v < 0) for v in (f.numerator * pd - pn * f.denominator for f in fs)]


def _candidates(d: MixtureDistribution, grid: _Grid, p: Probability) -> _LevelGrid:
    # insert into d's grid, per breakpoint interval (a, b) that carries mass,
    # the point t where F crosses level p: P(X<=a) < p < P(X<b) is exactly
    # a < t < b.  Right to left, so the recorded indices of the intervals
    # still to visit stay valid; t beside the midpoint keeps the cells in order.
    cells = list(grid.cells)
    for k, a, fca, fob, run in reversed(grid.crossings):
        if fca < p < fob:
            t = a + (p - fca) * run
            mid = cells[k + 1][0]
            if t != mid:
                cells.insert(k + 1 if t < mid else k + 2, _cell(d, t))
    return _LevelGrid(cells, _signs([c[1] for c in cells], p), _signs([c[2] for c in cells], p))


# (mode, which sign of a candidate: 0 for P(X<=x) - p, 1 for P(X<x) - p, test against 0)
_VARIANT_RULES = {
    QuantileVariant.LQ_CLOSED_INF: ("inf", 0, operator.ge),
    QuantileVariant.LQ_OPEN_INF: ("inf", 1, operator.ge),
    QuantileVariant.LQ_CLOSED_SUP: ("sup", 0, operator.lt),
    QuantileVariant.RQ_CLOSED_INF: ("inf", 0, operator.gt),
    QuantileVariant.RQ_OPEN_INF: ("inf", 1, operator.gt),
    QuantileVariant.RQ_CLOSED_SUP: ("sup", 0, operator.le),
}


def quantile_by_definition(
    d: MixtureDistribution, p: LevelLike, variant: QuantileVariant
) -> ExtendedReal:
    """Evaluate a quantile directly from its set definition.

    Scans exact distribution-function values over a candidate grid
    (hull-exterior probes, breakpoints, midpoints, and the point where
    F crosses the level inside each mass-carrying interval).  For a
    piecewise-affine F the defining set's boundary must be one of these
    points or sit just past one across a flat stretch, so a single
    one-sided-limit refinement at the boundary settles the inf/sup
    exactly.  Every variant tests every candidate, assuming nothing of
    F's monotonicity, and shares nothing with the bisection in the
    quantiles module.
    """
    p = as_level(p)
    if not isinstance(variant, QuantileVariant):
        raise TypeError(f"variant must be a QuantileVariant, got {variant!r}")
    return _scan(_candidates(d, _candidate_table(d), p), variant)


def _scan(grid: _LevelGrid, variant: QuantileVariant) -> ExtendedReal:
    # one variant's inf or sup over the candidate grid at its level
    mode, col, test = _VARIANT_RULES[variant]
    cells, closed, opened = grid
    strict = test is operator.gt or test is operator.lt
    flags = [test(s, 0) for s in (closed, opened)[col]]
    if mode == "inf":
        if flags[0]:
            # true below the entire support, hence on every lower real
            return NEG_INF
        for i, ok in enumerate(flags):
            if not ok:
                continue
            # past the previous candidate F tends to its P(X<=x)
            before = closed[i - 1]
            if strict:
                # set may open just past it: that limit must exceed p, or
                # touch p while the gap to this candidate still carries mass
                if before > 0 or (before == 0 and opened[i] > 0):
                    return as_extended(cells[i - 1][0])
            elif before >= 0:
                return as_extended(cells[i - 1][0])
            return as_extended(cells[i][0])
        return POS_INF  # empty set
    # sup mode
    if flags[-1]:
        return POS_INF
    last = None
    for i in range(len(flags) - 1, -1, -1):
        if flags[i]:
            last = i
            break
    if last is None:
        return NEG_INF  # empty set
    # just before the next candidate F tends to its P(X<x)
    after = opened[last + 1]
    if strict:
        # the open stretch before it still qualifies when F stays under
        # p there, or only reaches p in the limit
        if after < 0 or (after == 0 and closed[last] < 0):
            return as_extended(cells[last + 1][0])
    elif after <= 0:
        return as_extended(cells[last + 1][0])
    return as_extended(cells[last][0])


# ---------------------------------------------------------------------------
# property batteries


class _LevelFree(NamedTuple):
    """The parts of checks a-k that no level changes, for one mixture:
    checks h and j whole, the left and right quantiles at the levels k/10
    that check i adds to p, the distances span*j/8 of check k's probes
    from lq and rq, and F at the probes of each lq and rq met so far."""

    h: CheckResult
    j: CheckResult
    grid: tuple[tuple[ExtendedReal, ExtendedReal], ...]  # at _TENTHS
    offsets: tuple[Fraction, ...]
    probed: dict[tuple[ExtendedReal, int], list[Probability]]  # (x, -1 below / 1 above): F


def _probed(d: MixtureDistribution, fixed: _LevelFree, x: ExtendedReal, side: int):
    # F at check k's 8 probes below (side -1) or above (side 1) a finite x,
    # computed once per mixture: many levels share their lq or rq
    fs = fixed.probed.get((x, side))
    if fs is None:
        fs = fixed.probed[x, side] = [
            dist_fn(d, DistFnFlavor.LEFT_CLOSED, Fraction(x) + side * o) for o in fixed.offsets
        ]
    return fs


_TENTHS = tuple(Fraction(k, 10) for k in range(11))


def _level_free_checks(d: MixtureDistribution) -> _LevelFree:
    grid = tuple((left_quantile(d, q), right_quantile(d, q)) for q in _TENTHS)
    lq1, rq0 = grid[-1][0], grid[0][1]
    finite = not (isinstance(lq1, float) and math.isinf(lq1)) and not (
        isinstance(rq0, float) and math.isinf(rq0)
    )
    closed_mass = (
        dist_fn(d, DistFnFlavor.LEFT_CLOSED, lq1) - dist_fn(d, DistFnFlavor.LEFT_OPEN, rq0)
        if finite
        else None
    )
    h = CheckResult(
        "h",
        finite and closed_mass == 1,
        f"lq(1)={format_extended(lq1)}, rq(0)={format_extended(rq0)} finite and carry mass "
        f"{format_extended(closed_mass) if closed_mass is not None else '?'}",
    )

    bad_atoms = [
        x for x in d._locs if left_quantile(d, dist_fn(d, DistFnFlavor.LEFT_CLOSED, x)) != x
    ]
    j = CheckResult(
        "j",
        not bad_atoms,
        f"lq(F(x0)) == x0 at {len(d._locs)} atoms"
        + (f"; FAILED at {bad_atoms[0]!r}" if bad_atoms else ""),
    )
    lo_b, hi_b = essential_bounds(d)
    span = Fraction(hi_b) - Fraction(lo_b) + 1
    return _LevelFree(h, j, grid, tuple(span * Fraction(k, 8) for k in range(1, 9)), {})


def _property_results(
    d: MixtureDistribution, p: Probability, lq: ExtendedReal, rq: ExtendedReal,
    grid: _LevelGrid, fixed: _LevelFree,
) -> list[CheckResult]:
    # grid is the oracle's candidate grid on d at level p
    out = []
    fc_lq = dist_fn(d, DistFnFlavor.LEFT_CLOSED, lq)
    fo_rq = dist_fn(d, DistFnFlavor.LEFT_OPEN, rq)

    out.append(
        CheckResult("a", fc_lq >= p, f"F(lq)={format_extended(fc_lq)} >= p at lq={format_extended(lq)}")
    )
    out.append(CheckResult("b", lq <= rq, f"lq={format_extended(lq)} <= rq={format_extended(rq)}"))

    if p == 1:
        out.append(CheckResult("c", True, "vacuous: no level above 1"))
    else:
        q = 1 - p  # q > 0, so the five levels strictly increase
        higher = [p + q / 97, p + q / 4, p + q / 2, p + 3 * q / 4, p + q]
        bad = [p2 for p2 in higher if not rq <= left_quantile(d, p2)]
        out.append(
            CheckResult(
                "c",
                not bad,
                f"rq={format_extended(rq)} <= lq at {len(higher)} higher levels"
                + (f"; FAILED at {format_extended(bad[0])}" if bad else ""),
            )
        )

    sup_form = _scan(grid, QuantileVariant.RQ_CLOSED_SUP)
    out.append(
        CheckResult(
            "d", rq == sup_form, f"rq={format_extended(rq)} == sup-form {format_extended(sup_form)}"
        )
    )

    between = fo_rq - fc_lq if lq < rq else Fraction(0)  # P(lq < X < rq) = P(X < rq) - F(lq)
    out.append(CheckResult("e", between == 0, f"P(lq < X < rq)={format_extended(between)}"))

    out.append(
        CheckResult("f", fo_rq <= p, f"P(X<rq)={format_extended(fo_rq)} <= p at rq={format_extended(rq)}")
    )

    if p == 0 or p == 1:
        g = CheckResult(
            "g", True, "skipped at the endpoint levels (claim is for 0<p<1)", checked=0, skipped=1
        )
    elif lq < rq:
        gc_rq = dist_fn(d, DistFnFlavor.RIGHT_CLOSED, rq)
        g = CheckResult(
            "g",
            fc_lq == p and gc_rq == 1 - p,
            f"lq={format_extended(lq)} < rq={format_extended(rq)}: "
            f"F(lq)={format_extended(fc_lq)} == p and "
            f"P(X>=rq)={format_extended(gc_rq)} == 1-p",
        )
    else:
        g = CheckResult("g", True, f"vacuous: lq == rq == {format_extended(lq)}")
    out.append(g)

    out.append(fixed.h)

    rows = list(fixed.grid)
    k = bisect_left(_TENTHS, p)  # k <= 10, as p <= 1; p takes the place of an equal tenth
    rows[k : k + (_TENTHS[k] == p)] = [(lq, rq)]
    lqs, rqs = zip(*rows)
    mono = all(a <= b for a, b in zip(lqs, lqs[1:])) and all(
        a <= b for a, b in zip(rqs, rqs[1:])
    )
    out.append(CheckResult("i", mono, f"both quantile functions non-decreasing over {len(rows)} levels"))

    out.append(fixed.j)

    notes = []
    ok_k = True
    if isinstance(lq, float) and math.isinf(lq):
        notes.append("no reals below lq=-inf")
    else:
        ok_k &= all(s < 0 for s in _signs(_probed(d, fixed, lq, -1), p))
        notes.append("F < p at 8 probes below lq")
    if isinstance(rq, float) and math.isinf(rq):
        notes.append("no reals above rq=+inf")
    else:
        ok_k &= all(s > 0 for s in _signs(_probed(d, fixed, rq, 1), p))
        notes.append("F > p at 8 probes above rq")
    out.append(CheckResult("k", ok_k, "; ".join(notes)))
    return out


def _symmetry_results(
    nd: MixtureDistribution, nd_grid: _Grid, p: Probability, lq: ExtendedReal, rq: ExtendedReal
) -> list[CheckResult]:
    # nd is the negation of the mixture lq and rq at level p come from, nd_grid its table
    mirror = _candidates(nd, nd_grid, 1 - p)
    lq_mirror = -_scan(mirror, QuantileVariant.RQ_CLOSED_INF)
    rq_mirror = -_scan(mirror, QuantileVariant.LQ_CLOSED_INF)
    ok = lq == lq_mirror and rq == rq_mirror
    return [
        CheckResult(
            "S",
            ok,
            f"lq={format_extended(lq)} == -rq(-X,1-p)={format_extended(lq_mirror)}; "
            f"rq={format_extended(rq)} == -lq(-X,1-p)={format_extended(rq_mirror)}",
        )
    ]


def _shape_witnesses(d: MixtureDistribution, grid: _Grid) -> tuple[bool, bool]:
    # the shape predicates against structure-free witnesses read off d's
    # grid: a jump is a gap between P(X<=b) and P(X<b) at a breakpoint, a
    # monotonicity flat is a massless open interval between breakpoints,
    # one that the grid's crossings leave out
    at_bps = grid.cells[1::2]
    has_jump = any(fc != fo for _, fc, fo in at_bps)
    has_gap = len(grid.crossings) < len(at_bps) - 1
    return is_continuous(d) == (not has_jump), is_strictly_monotone_on_hull(d) == (not has_gap)


def _variant_results(
    lq: ExtendedReal, rq: ExtendedReal, grid: _LevelGrid, shapes_ok: tuple[bool, bool]
) -> list[CheckResult]:
    forms = [_scan(grid, v) for v in QuantileVariant]  # the three lq forms, then the rq ones
    ok_lq = all(x == lq for x in forms[:3])
    ok_rq = all(x == rq for x in forms[3:])

    ok_cont, ok_mono = shapes_ok
    ok = ok_lq and ok_rq and ok_cont and ok_mono
    return [
        CheckResult(
            "V",
            ok,
            f"3 lq variants == {format_extended(lq)}: {ok_lq}; "
            f"3 rq variants == {format_extended(rq)}: {ok_rq}; "
            f"continuity flavor-free and jump-checked: {ok_cont}; "
            f"strict-monotonicity flavor-free and gap-checked: {ok_mono}",
        )
    ]


_Image = tuple[str, MonotoneMap, MixtureDistribution | Exception | None]


def _pushforwards(d: MixtureDistribution, maps: Sequence[tuple[str, MonotoneMap]]) -> list[_Image]:
    """Each named map with the pushforward of d through it, None where
    the map cannot push d, or the exception of a pushforward that failed
    otherwise, which check E reports."""
    out = []
    for name, m in maps:
        try:
            push = pushforward(d, m)
        except (UnsupportedPushforwardError, MapDomainError):
            push = None
        except Exception as exc:  # a defect: reported at each level, not raised
            push = exc
        out.append((name, m, push))
    return out


def _equivariance_results(
    d: MixtureDistribution, p: Probability, images: Sequence[_Image]
) -> list[CheckResult]:
    checked = 0
    skipped = 0
    failures = []
    for name, m, push in images:
        if push is None:
            skipped += 2
            continue
        if isinstance(push, Exception):
            checked += 2
            failures.append(f"{name}: pushforward raised {type(push).__name__}: {push}")
            continue
        for side in (QuantileSide.LEFT, QuantileSide.RIGHT):
            try:
                try:
                    routed = equivariant_quantile(d, m, p, side)
                except (ContinuityMismatchError, MapDomainError):
                    # hypothesis not met, or the preimage quantile lies outside
                    # the map's domain closure: the identity is not claimed
                    skipped += 1
                    continue
                direct, verdict = check_transport(push, p, side, routed)
            except Exception as exc:  # a defect: fails E at this level, not raised
                checked += 1
                failures.append(f"{name}/{side.value}: raised {type(exc).__name__}: {exc}")
                continue
            if verdict is Transport.NOT_CLAIMED:
                skipped += 1
                continue
            checked += 1
            if verdict is Transport.UNEQUAL:
                failures.append(
                    f"{name}/{side.value}: direct {format_extended(direct)} "
                    f"!= routed {format_extended(routed)}"
                )
    ok = not failures
    detail = f"{checked} identities checked, {skipped} skipped over {len(images)} maps"
    if failures:
        detail += "; " + "; ".join(failures[:3])
    return [CheckResult("E", ok, detail, checked, skipped)]


def check_quantile_properties(d: MixtureDistribution, p: LevelLike) -> PropertyReport:
    """Run the one-sided quantile property battery (ids a-k) at one level."""
    p = as_level(p)
    lq, rq = left_quantile(d, p), right_quantile(d, p)
    grid = _candidates(d, _candidate_table(d), p)
    results = _property_results(d, p, lq, rq, grid, _level_free_checks(d))
    return PropertyReport(describe(d), p, tuple(results))


def check_symmetry(d: MixtureDistribution, p: LevelLike) -> PropertyReport:
    """Check the negation mirror identities at one level (id S).

    Both sides go through the definitional oracle on the negated
    distribution, so closed-form quantiles are confronted with an
    independent route on an independently constructed object.
    """
    p = as_level(p)
    nd = negate(d)
    results = _symmetry_results(nd, _candidate_table(nd), p, left_quantile(d, p), right_quantile(d, p))
    return PropertyReport(describe(d), p, tuple(results))


# ---------------------------------------------------------------------------
# stock map library


def _jump_pieces(slope: float, gap: float):
    return (
        MapPiece(NEG_INF, 0.0, slope, 0.0),
        MapPiece(0.0, POS_INF, slope, gap),
    )


def stock_maps() -> tuple[tuple[str, MonotoneMap], ...]:
    """Named maps covering every direction x one-sided-continuity cell,
    both curved smooth kinds, flat interior stretches, and negation.

    Tail pieces are strictly monotone so the maps are unbounded on both
    ends (jump maps aside, see the boundary rule in
    `transforms.check_transport`).
    """
    nd = Direction.NON_DECREASING
    ni = Direction.NON_INCREASING
    flat_nd = (
        MapPiece(NEG_INF, 0.0, 1.0, 0.0),
        MapPiece(0.0, 1.0, 0.0, 0.0),
        MapPiece(1.0, POS_INF, 1.0, -1.0),
    )
    flat_ni = (
        MapPiece(NEG_INF, 0.0, -1.0, 0.0),
        MapPiece(0.0, 1.0, 0.0, 0.0),
        MapPiece(1.0, POS_INF, -1.0, 1.0),
    )
    return (
        ("negation", negation_map()),
        ("affine_up", affine_map(2.0, 1.0)),
        ("affine_down", affine_map(-3.0, 0.5)),
        ("pow10neg", pow10_neg_map()),
        ("neglog10", neglog10_map()),
        ("nd_jump_left", PiecewiseMonotoneMap(_jump_pieces(1.0, 1.0), nd, (Continuity.LEFT,))),
        ("nd_jump_right", PiecewiseMonotoneMap(_jump_pieces(1.0, 1.0), nd, (Continuity.RIGHT,))),
        ("ni_jump_left", PiecewiseMonotoneMap(_jump_pieces(-1.0, -1.0), ni, (Continuity.LEFT,))),
        ("ni_jump_right", PiecewiseMonotoneMap(_jump_pieces(-1.0, -1.0), ni, (Continuity.RIGHT,))),
        ("nd_flat_mid", PiecewiseMonotoneMap(flat_nd, nd, (Continuity.LEFT, Continuity.LEFT))),
        ("ni_flat_mid", PiecewiseMonotoneMap(flat_ni, ni, (Continuity.RIGHT, Continuity.RIGHT))),
    )


# ---------------------------------------------------------------------------
# seeded random corpus


# the shape of every corpus mixture: up to 4 atoms and 3 segments on the
# 33-point lattice over the location range, with masses k/16
_MAX_ATOMS = 4
_MAX_SEGMENTS = 3
_MASS_GRANULARITY = 16
_LATTICE_STEPS = 32


def _lattice(cfg: GeneratorConfig) -> list[float]:
    # each point exact, then rounded once: nothing overflows or collapses
    lo, hi = map(Fraction, cfg.location_range)
    return [float(lo + (hi - lo) * k / _LATTICE_STEPS) for k in range(_LATTICE_STEPS + 1)]


@dataclass(frozen=True)
class GeneratorConfig:
    """The seed and location range of the seeded mixture generator."""

    seed: int = 0
    location_range: tuple[float, float] = (-4.0, 4.0)

    # built once per config: the check below and the draw share it
    _points = cached_property(_lattice)

    def __post_init__(self):
        lo, hi = self.location_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"bad location range {self.location_range!r}")
        if len(set(self._points)) <= _LATTICE_STEPS:
            raise ValueError(f"location range {self.location_range!r} has too few distinct floats")


def _rand_mass(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, _MASS_GRANULARITY), _MASS_GRANULARITY)


def _rand_segments(rng, lat, indices, count):
    # pair sorted distinct lattice indices into disjoint segments, then
    # fuse some junctions so touching segments occur with real frequency
    idxs = sorted(rng.sample(indices, 2 * count))
    pairs = [(idxs[2 * j], idxs[2 * j + 1]) for j in range(count)]
    for j in range(1, count):
        if rng.random() < 0.35:
            pairs[j] = (pairs[j - 1][1], pairs[j][1])
    return [UniformSegment(lat[a], lat[b], _rand_mass(rng)) for a, b in pairs]


def _rand_atoms(rng, lat, indices, count):
    return [Atom(lat[i], _rand_mass(rng)) for i in rng.sample(indices, count)]


def random_mixture(cfg: GeneratorConfig) -> MixtureDistribution:
    """Draw one random mixture, a pure function of the config.

    Locations sit on a fixed lattice over the location range so atoms
    land on segment endpoints and segments touch with positive
    probability.  Three edge shapes are forced with >= 5% frequency
    each: a single atom, an atom-free mixture, and a support with an
    interior gap.
    """
    rng = random.Random(cfg.seed)
    lat = cfg._points
    all_idx = range(len(lat))

    roll = rng.random()
    if roll < 0.05:  # a single atom
        return MixtureDistribution(atoms=(Atom(lat[rng.choice(all_idx)], Fraction(1)),))

    if roll < 0.10:  # atom-free
        count = rng.randint(1, _MAX_SEGMENTS)
        return MixtureDistribution(segments=tuple(_rand_segments(rng, lat, all_idx, count)))

    if roll < 0.15:  # gapped: one component on each side of an interior hole
        g1 = rng.randint(8, _LATTICE_STEPS // 2)
        g2 = g1 + rng.randint(2, 4)
        atoms, segments = [], []
        for side_idx in (range(g1 + 1), range(g2, _LATTICE_STEPS + 1)):
            if rng.random() < 0.5:
                segments.extend(_rand_segments(rng, lat, side_idx, 1))
            else:
                atoms.extend(_rand_atoms(rng, lat, side_idx, 1))
        return MixtureDistribution(atoms=tuple(atoms), segments=tuple(segments))

    n_atoms = rng.randint(0, _MAX_ATOMS)
    n_segs = rng.randint(0, _MAX_SEGMENTS)
    if n_atoms == 0 and n_segs == 0:
        n_atoms = 1
    segments = _rand_segments(rng, lat, all_idx, n_segs)
    atoms = _rand_atoms(rng, lat, all_idx, n_atoms)
    return MixtureDistribution(atoms=tuple(atoms), segments=tuple(segments))


def standard_levels(seed: int = 42) -> tuple[Probability, ...]:
    """The level battery for verification runs: the 21-point grid k/20
    plus 50 seeded random rationals with mixed denominators."""
    grid = {Fraction(k, 20) for k in range(21)}
    rng = random.Random(f"levels-{seed}")
    extra: set[Fraction] = set()
    while len(extra) < 50:
        den = rng.choice((8, 16, 20, 32, 100, 1000))
        f = Fraction(rng.randint(0, den), den)
        if f not in grid:
            extra.add(f)
    return tuple(sorted(grid | extra))


def run_suite(
    cfg: GeneratorConfig, n_dists: int, levels: Sequence[LevelLike]
) -> list[PropertyReport]:
    """Check every identity on ``n_dists`` seeded mixtures at every level.

    Returns one report per (distribution, level) pair holding the full
    battery: properties a-k, symmetry S, variant/flavor agreement V,
    and map equivariance E.

    The mixtures are dealt round-robin over the CPUs this process may
    use (`_usable_cpus`): the caller checks every k-th mixture from the
    first, and each of the other k - 1 shares runs in a forked child.
    The reports come back in seed order and are the same as a serial
    run's; ``taskset -c 0`` gives a serial run.  If mixtures raise, the
    exception of the first of them in seed order propagates, as in a
    serial run, and no child outlives the call.
    """
    if n_dists < 1:
        raise ValueError("n_dists must be >= 1")
    map_list = stock_maps()
    levels = [as_level(p) for p in levels]
    k = min(n_dists, _usable_cpus())

    def share(j: int) -> list:
        out = []
        for i in range(j, n_dists, k):
            try:
                mixture_cfg = replace(cfg, seed=cfg.seed + i)
                out.append(_mixture_reports(mixture_cfg, levels, map_list))
            except Exception as exc:  # raised below, once the mixtures before it are known
                out.append(exc)
                break
        return out

    shares = _forked(share, k)
    reports = []
    for i in range(n_dists):
        part = shares[i % k][i // k]
        if isinstance(part, Exception):
            raise part
        reports += part
    return reports


def _mixture_reports(cfg, levels, map_list) -> list[PropertyReport]:
    """The reports of the mixture `random_mixture(cfg)` at each level."""
    d = random_mixture(cfg)
    label = describe(d)
    nd = negate(d)
    grid, nd_grid = _candidate_table(d), _candidate_table(nd)
    fixed = _level_free_checks(d)
    shapes_ok = _shape_witnesses(d, grid)
    images = _pushforwards(d, map_list)
    reports = []
    for p in levels:
        lq, rq, level_grid = left_quantile(d, p), right_quantile(d, p), _candidates(d, grid, p)
        results = (
            _property_results(d, p, lq, rq, level_grid, fixed)
            + _symmetry_results(nd, nd_grid, p, lq, rq)
            + _variant_results(lq, rq, level_grid, shapes_ok)
            + _equivariance_results(d, p, images)
        )
        reports.append(PropertyReport(label, p, tuple(results)))
    return reports


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork, or should
    not: a forked child of a process with other threads can wait forever
    on a lock one of them held."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked(fn: Callable[[int], list], k: int) -> list[list]:
    """``[fn(0), ..., fn(k - 1)]``, with ``fn(0)`` run here and each other
    call in a forked child that sends its list back through a pipe.

    Fork, not spawn: the children inherit the imported package and the
    arguments as they are, where a fresh interpreter per child would
    cost as much as a share of a short run.  Each item goes as a pickle
    of its own, ended by a pickled None, so reading holds the unpickling
    memo of one item at a time rather than of the whole list.  A child
    leaves by ``os._exit``, so it runs no exit hooks and flushes no
    inherited buffer.  Whether this returns or raises, every child has
    been reaped; one still running after a failure here is killed first.
    """
    if k == 1:
        return [fn(0)]
    import pickle  # here, so that a serial run and every other command skip it
    import signal

    children = []  # (pid, read end of its pipe)
    try:
        for j in range(1, k):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                status = 1
                try:
                    with open(w, "wb") as pipe:
                        for item in (*fn(j), None):
                            pickle.dump(item, pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = [fn(0)]
        for pid, pipe in children:
            try:
                results.append(list(iter(partial(pickle.load, pipe), None)))
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"verify worker {pid} exited without a result") from None
        return results
    finally:
        # a child whose result was read has nothing left to do
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def suite_passed(reports: Sequence[PropertyReport]) -> bool:
    return all(r.passed for r in reports)


def first_failure(
    reports: Sequence[PropertyReport],
) -> Optional[tuple[PropertyReport, CheckResult]]:
    for r in reports:
        for c in r.results:
            if not c.passed:
                return r, c
    return None


def summarize(reports: Sequence[PropertyReport]) -> str:
    n_bad = sum(1 for r in reports if not r.passed)
    checks = sum(len(r.results) for r in reports)
    bad_checks = sum(len(r.failures()) for r in reports)
    return (
        f"{len(reports)} reports, {checks} checks: "
        f"{bad_checks} failed checks in {n_bad} reports"
    )


def report_to_dict(r: PropertyReport) -> dict:
    return {
        "distribution": r.distribution,
        "level": float(r.level),
        "level_exact": f"{r.level.numerator}/{r.level.denominator}",
        "passed": r.passed,
        "results": [
            {"id": c.check_id, "pass": c.passed, "details": c.details} for c in r.results
        ],
    }


def reports_to_json(reports: Sequence[PropertyReport]) -> dict:
    """JSON-able summary: totals plus the per-report breakdown."""
    return {
        "total_reports": len(reports),
        "failed_reports": sum(1 for r in reports if not r.passed),
        "all_passed": suite_passed(reports),
        "reports": [report_to_dict(r) for r in reports],
    }
