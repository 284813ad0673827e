"""Monotone maps: evaluation, pushforward, and quantile equivariance."""

import json
import math
import random
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest

from dualquant import (
    NEG_INF,
    POS_INF,
    Atom,
    Continuity,
    ContinuityMismatchError,
    Direction,
    GeneratorConfig,
    MapDomainError,
    MapPiece,
    MapSpecError,
    MixtureDistribution,
    PiecewiseMonotoneMap,
    QuantileSide,
    SmoothKind,
    SmoothMonotoneMap,
    UniformSegment,
    UnsupportedPushforwardError,
    affine_map,
    apply_map,
    as_extended,
    equivariance_counterexample,
    equivariant_quantile,
    left_quantile,
    make_empirical,
    map_from_spec,
    map_to_spec,
    negate,
    negation_map,
    neglog10_map,
    pow10_neg_map,
    pushforward,
    quantile_at,
    random_mixture,
    right_quantile,
    stock_maps,
)
from dualquant.transforms import Transport, check_transport

INF = float("inf")
LEFT, RIGHT = QuantileSide.LEFT, QuantileSide.RIGHT
ND, NI = Direction.NON_DECREASING, Direction.NON_INCREASING
# spec pieces: the identity on the whole line, and split at 0
WHOLE_LINE = {"lo": "-inf", "hi": "inf", "slope": 1, "intercept": 0}
HALVES = [{**WHOLE_LINE, "hi": 0.0}, {**WHOLE_LINE, "lo": 0.0}]
CL, CR = Continuity.LEFT, Continuity.RIGHT

STOCK = dict(stock_maps())


def unit_uniform():
    return MixtureDistribution(atoms=(), segments=(UniformSegment(0.0, 1.0, Fraction(1)),))


def mixed_dist():
    return MixtureDistribution(
        atoms=(Atom(0.25, Fraction(1, 4)),), segments=(UniformSegment(-1.0, 1.0, Fraction(3, 4)),)
    )


class TestApplySmooth:
    def test_negation_is_exact(self):
        m = negation_map()
        assert apply_map(m, 1.5) == -1.5
        assert apply_map(m, Fraction(1, 3)) == Fraction(-1, 3)
        assert apply_map(m, POS_INF) == NEG_INF

    def test_affine_values(self):
        m = affine_map(2.0, 1.0)
        assert apply_map(m, 3.0) == 7.0
        assert apply_map(m, NEG_INF) == NEG_INF
        down = affine_map(-2.0, 1.0)
        assert apply_map(down, POS_INF) == NEG_INF
        assert apply_map(down, NEG_INF) == POS_INF

    def test_affine_keeps_exact_rationals_exact(self):
        m = affine_map(3.0, 0.5)
        out = apply_map(m, Fraction(1, 3))
        assert out == Fraction(3, 2)  # 3 * 1/3 + 1/2, no rounding
        assert isinstance(out, float)  # representable, so collapsed
        lossy = apply_map(m, Fraction(1, 7))
        assert lossy == Fraction(3, 7) + Fraction(1, 2)

    def test_pow10_neg(self):
        m = pow10_neg_map()
        assert apply_map(m, 4.7336) == 10.0 ** -4.7336
        assert apply_map(m, 4.7336) == pytest.approx(18.4672e-6, rel=1e-4)
        assert apply_map(m, POS_INF) == 0.0
        assert apply_map(m, NEG_INF) == POS_INF

    def test_neglog10(self):
        m = neglog10_map()
        assert apply_map(m, 18.4672e-6) == -math.log10(18.4672e-6)
        assert apply_map(m, 18.4672e-6) == pytest.approx(4.7336, rel=1e-5)
        assert apply_map(m, POS_INF) == NEG_INF

    @pytest.mark.parametrize("x", [0.0, -1.0, NEG_INF])
    def test_neglog10_domain(self, x):
        with pytest.raises(MapDomainError, match=f"^neglog10 is undefined at {x!r}$"):
            apply_map(neglog10_map(), x)

    def test_directions(self):
        assert affine_map(2.0).direction is ND
        assert affine_map(-2.0).direction is NI
        assert negation_map().direction is NI
        assert pow10_neg_map().direction is NI
        assert neglog10_map().direction is NI

    def test_smooth_maps_are_continuous_both_ways(self):
        for m in (negation_map(), affine_map(0.5), pow10_neg_map(), neglog10_map()):
            assert m.left_continuous and m.right_continuous


class TestApplyPiecewise:
    def test_breakpoint_value_honours_continuity_side(self):
        assert apply_map(STOCK["nd_jump_left"], 0.0) == 0.0
        assert apply_map(STOCK["nd_jump_right"], 0.0) == 1.0

    def test_infinite_limits(self):
        assert apply_map(STOCK["nd_jump_left"], NEG_INF) == NEG_INF
        assert apply_map(STOCK["nd_jump_left"], POS_INF) == POS_INF
        assert apply_map(STOCK["ni_jump_left"], NEG_INF) == POS_INF
        assert apply_map(STOCK["ni_jump_left"], POS_INF) == NEG_INF

    def test_flat_piece_evaluates_to_its_constant(self):
        m = PiecewiseMonotoneMap(
            pieces=(MapPiece(-INF, 0.0, 1.0, 0.0), MapPiece(0.0, INF, 0.0, 5.0)),
            direction=ND,
            continuity=(CR,),
        )
        assert apply_map(m, 2.0) == 5.0
        assert apply_map(m, POS_INF) == 5.0  # constant tail

    def test_exact_rationals_ride_pieces_exactly(self):
        m = STOCK["nd_jump_left"]
        assert apply_map(m, Fraction(-1, 3)) == Fraction(-1, 3)
        assert apply_map(STOCK["nd_jump_right"], Fraction(2, 3)) == Fraction(2, 3) + 1

    def test_continuity_flags(self):
        assert STOCK["nd_jump_left"].left_continuous
        assert not STOCK["nd_jump_left"].right_continuous
        assert STOCK["nd_jump_right"].right_continuous
        assert not STOCK["nd_jump_right"].left_continuous


class TestMapValidation:
    def test_affine_needs_nonzero_scale(self):
        with pytest.raises(MapSpecError):
            affine_map(0.0)

    @pytest.mark.parametrize(
        "pieces, direction, continuity",
        [
            # hole in the domain
            ((MapPiece(-INF, 0.0, 1.0, 0.0), MapPiece(1.0, INF, 1.0, 0.0)), ND, (CL,)),
            # does not cover the whole line
            ((MapPiece(0.0, INF, 1.0, 0.0),), ND, ()),
            # slope fights the declared direction
            ((MapPiece(-INF, 0.0, -1.0, 0.0), MapPiece(0.0, INF, 1.0, 0.0)), ND, (CL,)),
            # value drops at a breakpoint of a non-decreasing map
            ((MapPiece(-INF, 0.0, 1.0, 0.0), MapPiece(0.0, INF, 1.0, -1.0)), ND, (CL,)),
            # one breakpoint needs exactly one continuity flag
            ((MapPiece(-INF, 0.0, 1.0, 0.0), MapPiece(0.0, INF, 1.0, 1.0)), ND, (CL, CR)),
        ],
    )
    def test_rejects_inconsistent_piecewise_maps(self, pieces, direction, continuity):
        with pytest.raises(MapSpecError):
            PiecewiseMonotoneMap(pieces=pieces, direction=direction, continuity=continuity)

    def test_rejects_degenerate_piece(self):
        with pytest.raises(MapSpecError):
            MapPiece(1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: PiecewiseMonotoneMap((), ND), "needs at least one piece"),
            (lambda: PiecewiseMonotoneMap((MapPiece(-INF, INF, 1.0, 0.0),), "non_decreasing"),
             "bad direction 'non_decreasing'"),
            (lambda: PiecewiseMonotoneMap(
                (MapPiece(-INF, 0.0, 1.0, 0.0), MapPiece(0.0, INF, 1.0, 0.0)), ND, ("left",)),
             "continuity flags must be Continuity values"),
            (lambda: SmoothMonotoneMap("pow10neg"), "bad smooth map kind 'pow10neg'"),
        ],
        ids=["no pieces", "direction", "continuity flag", "smooth kind"],
    )
    def test_rejects_parts_of_the_wrong_type(self, build, message):
        with pytest.raises(MapSpecError, match=message):
            build()


class TestTypeGuards:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: apply_map("negation", 1.0), "not a monotone map: 'negation'"),
            (lambda: pushforward(unit_uniform(), SmoothKind.POW10_NEG), "not a monotone map"),
            (lambda: map_to_spec({"kind": "negation"}), "not a monotone map"),
            (lambda: equivariant_quantile(unit_uniform(), negation_map(), "0.5", "left"),
             "side must be a QuantileSide"),
        ],
        ids=["apply_map", "pushforward", "map_to_spec", "equivariant_quantile"],
    )
    def test_an_argument_of_the_wrong_type_is_refused(self, call, message):
        with pytest.raises(TypeError, match=message):
            call()


class TestPushforward:
    def test_negation_matches_dedicated_negate(self):
        d = make_empirical([1.0, 2.0, 2.0, 3.5])
        assert pushforward(d, negation_map()) == negate(d)

    def test_negation_flips_the_sign_of_zero(self):
        m = negation_map()
        assert math.copysign(1.0, apply_map(m, 0.0)) == -1.0
        assert math.copysign(1.0, apply_map(m, -0.0)) == 1.0
        d = make_empirical([0.0, 1.5])
        hexes = [float.hex(a.location) for a in pushforward(d, m).atoms]
        assert hexes == [float.hex(a.location) for a in negate(d).atoms]
        assert hexes == ["-0x1.8000000000000p+0", "-0x0.0p+0"]
        via_json = map_from_spec(json.loads(json.dumps(map_to_spec(m))))
        assert math.copysign(1.0, apply_map(via_json, 0.0)) == -1.0

    def test_signed_zero_images_are_not_shared(self):
        # both the data sets and the maps compare equal across -0.0 and
        # 0.0, yet 2*(-0.0) + -0.0 is -0.0 while 2*0.0 + -0.0 is 0.0
        m = affine_map(2.0, -0.0)
        neg_zero = make_empirical([-0.0, 1.0])
        pos_zero = make_empirical([0.0, 1.0])
        assert math.copysign(1.0, pushforward(neg_zero, m).atoms[0].location) == -1.0
        assert math.copysign(1.0, pushforward(pos_zero, m).atoms[0].location) == 1.0
        shift = affine_map(1.0, 0.0)
        assert shift == affine_map(1.0, -0.0)
        assert math.copysign(1.0, pushforward(neg_zero, shift).atoms[0].location) == 1.0
        assert math.copysign(1.0, pushforward(neg_zero, affine_map(1.0, -0.0)).atoms[0].location) == -1.0

    def test_affine_rescales_segments(self):
        u = unit_uniform()
        up = pushforward(u, affine_map(2.0, 1.0))
        assert up.segments == (UniformSegment(1.0, 3.0, Fraction(1)),)
        down = pushforward(u, affine_map(-1.0))
        assert down.segments == (UniformSegment(-1.0, 0.0, Fraction(1)),)

    def test_flat_piece_collapses_mass_into_an_atom(self):
        m = PiecewiseMonotoneMap(
            pieces=(
                MapPiece(-INF, 0.0, 1.0, 0.0),
                MapPiece(0.0, 1.0, 0.0, 5.0),
                MapPiece(1.0, INF, 1.0, 4.5),
            ),
            direction=ND,
            continuity=(CR, CR),
        )
        d = MixtureDistribution(
            atoms=(Atom(5.0, Fraction(1, 2)),), segments=(UniformSegment(0.0, 1.0, Fraction(1, 2)),)
        )
        out = pushforward(d, m)
        assert out.segments == ()
        assert [(a.location, a.mass) for a in out.atoms] == [
            (5.0, Fraction(1, 2)),
            (9.5, Fraction(1, 2)),
        ]
        # Weights over different denominators pool like data.  0.25, 0.75 and
        # the part [0.5, 1] of the segment land on the flat piece's 0.0 after
        # the image of the zero atom, whose sign names the pooled atom.
        m = PiecewiseMonotoneMap(
            pieces=(
                MapPiece(-INF, 0.0, 1.0, -0.0),
                MapPiece(0.0, 1.0, 0.0, 0.0),
                MapPiece(1.0, INF, 1.0, -1.0),
            ),
            direction=ND,
            continuity=(CL, CL),
        )
        weights = [Fraction(1, 3), Fraction(2, 7), 5, Fraction(1, 3), 2]
        for zero in (-0.0, 0.0):
            values = [0.25, zero, 2.0, 0.75, 2.0]
            segment = UniformSegment(0.5, 1.5, Fraction(1, 3))
            for d in (
                make_empirical(values, weights),
                MixtureDistribution(map(Atom, values[:4], weights[:4]), [segment]),
            ):
                out = pushforward(d, m)
                # the plain definition: a Fraction sum of the masses per image
                want = {}
                for a in d.atoms:
                    y = apply_map(m, a.location)
                    want[y] = want.get(y, 0) + a.mass
                if d.segments:
                    want[0.0] += d.segments[0].mass / 2
                    assert out.segments == (UniformSegment(0.0, 0.5, d.segments[0].mass / 2),)
                assert [(a.location, a.mass) for a in out.atoms] == sorted(want.items())
                assert math.copysign(1.0, out.atoms[0].location) == math.copysign(1.0, zero)

    def test_segment_splits_at_interior_breakpoints(self):
        d, m, _, _, _ = equivariance_counterexample()
        out = pushforward(d, m)
        assert out.atoms == ()
        assert out.segments == (
            UniformSegment(0.0, 0.5, Fraction(1, 2)),
            UniformSegment(1.5, 2.0, Fraction(1, 2)),
        )

    def test_curved_maps_move_atoms_pointwise(self, ph_dist):
        out = pushforward(ph_dist, pow10_neg_map())
        assert {a.location for a in out.atoms} == {10.0 ** -x for x in
                                                   (a.location for a in ph_dist.atoms)}
        assert all(a.mass == Fraction(1, 10) for a in out.atoms)

    def test_curved_maps_refuse_segments(self):
        with pytest.raises(UnsupportedPushforwardError):
            pushforward(unit_uniform(), pow10_neg_map())
        with pytest.raises(UnsupportedPushforwardError):
            pushforward(unit_uniform(), neglog10_map())

    def test_curved_maps_respect_domain(self):
        d = make_empirical([-1.0, 1.0])
        with pytest.raises(MapDomainError):
            pushforward(d, neglog10_map())

    @pytest.mark.parametrize(
        "value, m", [(-400.0, pow10_neg_map()), (1e308, affine_map(10.0))]
    )
    def test_images_past_the_float_range_are_a_domain_error(self, value, m):
        with pytest.raises(MapDomainError):
            pushforward(make_empirical([1.0, value]), m)

    def test_total_mass_is_preserved(self):
        d = mixed_dist()
        for m in (affine_map(-3.0, 0.5), STOCK["nd_jump_right"], STOCK["ni_flat_mid"]):
            out = pushforward(d, m)
            total = sum(a.mass for a in out.atoms) + sum(s.mass for s in out.segments)
            assert total == 1

    @pytest.mark.parametrize("a", [-2.0, -0.5, 1.0, 3.0])
    @pytest.mark.parametrize("c", [-2.0, -0.5, 3.0])
    def test_affine_composition_is_associative_on_dyadics(self, a, c):
        d = make_empirical([-2.0, 0.5, 1.25])
        for b in (-1.0, 0.0, 0.25):
            for e in (-0.5, 1.0):
                two_step = pushforward(pushforward(d, affine_map(a, b)), affine_map(c, e))
                one_step = pushforward(d, affine_map(c * a, c * b + e))
                assert two_step == one_step


class TestEquivariance:
    LEVELS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 5))

    def test_increasing_affine_transports_left_quantiles(self, ph_dist):
        m = affine_map(2.0, 1.0)
        for p in ("0.2", "0.8"):
            expected = 2.0 * left_quantile(ph_dist, p) + 1.0
            assert equivariant_quantile(ph_dist, m, p, LEFT) == expected
            assert quantile_at(pushforward(ph_dist, m), p, LEFT) == expected

    def test_decreasing_map_swaps_sides_and_levels(self, ph_dist):
        m = pow10_neg_map()
        got = equivariant_quantile(ph_dist, m, "0.2", LEFT)
        assert got == apply_map(m, right_quantile(ph_dist, "0.8"))
        assert got == quantile_at(pushforward(ph_dist, m), "0.2", LEFT)
        assert got == 10.0 ** -5.5731

    @pytest.mark.parametrize(
        "name, side",
        [
            ("nd_jump_left", LEFT),
            ("ni_jump_right", LEFT),
            ("nd_jump_right", RIGHT),
            ("ni_jump_left", RIGHT),
            ("nd_flat_mid", LEFT),
            ("ni_flat_mid", RIGHT),
        ],
    )
    def test_admissible_cells_agree_with_pushforward(self, name, side):
        d = mixed_dist()
        m = STOCK[name]
        for p in self.LEVELS:
            assert equivariant_quantile(d, m, p, side) == quantile_at(pushforward(d, m), p, side)

    @pytest.mark.parametrize(
        "name, side",
        [
            ("nd_jump_right", LEFT),
            ("ni_jump_left", LEFT),
            ("nd_jump_left", RIGHT),
            ("ni_jump_right", RIGHT),
        ],
    )
    def test_inadmissible_cells_are_refused(self, name, side):
        with pytest.raises(ContinuityMismatchError):
            equivariant_quantile(mixed_dist(), STOCK[name], Fraction(1, 2), side)

    def test_neglog10_routes_the_lower_sentinel_to_its_limit(self):
        # rq(1) of -log10(X) is +inf; it is routed from lq(0) = -inf, which
        # lies outside the map's domain (0, +inf) but is the sentinel for
        # the edge where the map's limit is +inf
        d = make_empirical([0.25, 1.5])
        m = neglog10_map()
        push = pushforward(d, m)
        assert equivariant_quantile(d, m, 1, RIGHT) == POS_INF == quantile_at(push, 1, RIGHT)
        assert check_transport(push, 1, RIGHT, POS_INF) == (POS_INF, Transport.EQUAL)
        assert equivariant_quantile(d, m, 0, LEFT) == NEG_INF == quantile_at(push, 0, LEFT)

    @pytest.mark.parametrize("data", [[-1.0, 2.0], [0.0, 2.0], [-0.0, 2.0]])
    def test_neglog10_sentinel_needs_data_in_the_domain(self, data):
        # no pushforward exists, so there is no limit to route to
        d = make_empirical(data)
        with pytest.raises(MapDomainError):
            pushforward(d, neglog10_map())
        with pytest.raises(MapDomainError):
            equivariant_quantile(d, neglog10_map(), 1, RIGHT)

    def test_counterexample_shows_the_hypothesis_matters(self):
        d, m, p, direct, naive = equivariance_counterexample()
        assert (direct, naive) == (0.5, 1.5)
        assert quantile_at(pushforward(d, m), p, LEFT) == direct
        assert apply_map(m, quantile_at(d, p, LEFT)) == naive
        assert direct != naive
        with pytest.raises(ContinuityMismatchError):
            equivariant_quantile(d, m, p, LEFT)


class TestTransportRule:
    def test_bit_equal_answers_are_equal(self, ph_dist):
        m = pow10_neg_map()
        routed = equivariant_quantile(ph_dist, m, "0.2", LEFT)
        direct, verdict = check_transport(pushforward(ph_dist, m), Fraction(1, 5), LEFT, routed)
        assert verdict is Transport.EQUAL and direct == routed

    def test_segment_interior_answer_within_rounding_is_equal(self):
        direct, verdict = check_transport(unit_uniform(), Fraction(1, 3), LEFT, 1 / 3 + 1e-13)
        assert direct == Fraction(1, 3)
        assert verdict is Transport.EQUAL
        _, verdict = check_transport(unit_uniform(), Fraction(1, 3), LEFT, 1 / 3 + 1e-11)
        assert verdict is Transport.UNEQUAL

    def test_atom_answer_one_ulp_off_is_unequal(self):
        push = make_empirical([1.0, 2.0])
        routed = math.nextafter(1.0, 2.0)
        direct, verdict = check_transport(push, Fraction(1, 4), LEFT, routed)
        assert direct == 1.0
        assert verdict is Transport.UNEQUAL

    @pytest.mark.parametrize("p, side, direct", [(0, LEFT, NEG_INF), (1, RIGHT, POS_INF)])
    def test_finite_routed_value_at_the_boundary_is_not_claimed(self, p, side, direct):
        push = make_empirical([1.0, 2.0])
        assert check_transport(push, p, side, 0.0) == (direct, Transport.NOT_CLAIMED)
        assert check_transport(push, p, side, direct) == (direct, Transport.EQUAL)


# one spec per refusal of map_from_spec and MapPiece that JSON can reach,
# with the message it must give; ids keep the names spec0, spec1, ...
BAD_SPECS = [
    ({"kind": "nope"}, "unknown smooth map kind 'nope'"),
    ({"kind": "affine", "a": 0.0, "b": 1.0}, "nonzero scale"),
    ({"direction": "sideways", "breakpoints": [], "pieces": []}, "unknown direction 'sideways'"),
    (
        {
            "direction": "non_decreasing",
            "breakpoints": [{"at": 99.0, "continuity": "left"}],
            "pieces": [
                {"lo": "-inf", "hi": 0.0, "slope": 1.0, "intercept": 0.0},
                {"lo": 0.0, "hi": "inf", "slope": 1.0, "intercept": 1.0},
            ],
        },
        "breakpoint positions",
    ),
    ({"kind": "affine", "a": 10**400}, "past the float range"),
    ({"kind": "affine", "a": True}, "must be a number, got True"),
    ([], "a map spec must be a JSON object"),
    ({"direction": "non_decreasing", "pieces": []}, "'pieces' must be a non-empty list"),
    ({"direction": "non_decreasing", "pieces": WHOLE_LINE}, "'pieces' must be a non-empty list"),
    ({"direction": "non_decreasing", "pieces": [1]}, "piece 0 must be an object"),
    (
        {"direction": "non_decreasing", "pieces": [WHOLE_LINE], "breakpoints": {}},
        "'breakpoints' must be a list",
    ),
    (
        {"direction": "non_decreasing", "pieces": HALVES, "breakpoints": [0.0]},
        "breakpoint 0 must be an object",
    ),
    (
        {"direction": "non_decreasing", "pieces": [{"lo": "-inf", "hi": "inf", "slope": 1}]},
        "piece 0 is missing required key 'intercept'",
    ),
    (
        {"direction": "non_decreasing", "pieces": [{**WHOLE_LINE, "hi": "infinite"}]},
        "bad interval bound 'infinite'",
    ),
    (
        {
            "direction": "non_decreasing",
            "pieces": HALVES,
            "breakpoints": [{"at": 0.0, "continuity": "up"}],
        },
        "breakpoint 0: unknown continuity 'up'",
    ),
    (
        json.loads(
            '{"direction": "non_decreasing",'
            ' "pieces": [{"lo": "-inf", "hi": "inf", "slope": 1e999, "intercept": 0}]}'
        ),
        "piece slope and intercept must be finite",
    ),
]


class TestMapSpecs:
    def test_smooth_round_trips(self):
        for m in (negation_map(), affine_map(2.0, 1.0), pow10_neg_map(), neglog10_map()):
            assert map_from_spec(map_to_spec(m)) == m

    def test_affine_spec_shape(self):
        assert map_to_spec(affine_map(2.0, 1.0)) == {"kind": "affine", "a": 2.0, "b": 1.0}
        assert map_to_spec(pow10_neg_map()) == {"kind": "pow10neg"}

    def test_piecewise_round_trip(self):
        m = STOCK["ni_jump_right"]
        spec = map_to_spec(m)
        assert map_from_spec(spec) == m
        assert json.loads(json.dumps(spec)) == spec  # JSON-safe, infinities as strings

    @pytest.mark.parametrize("name", sorted(STOCK))
    def test_round_trip_keeps_the_continuity_answers(self, name):
        m = STOCK[name]
        again = map_from_spec(map_to_spec(m))
        assert (again.left_continuous, again.right_continuous) == (
            m.left_continuous,
            m.right_continuous,
        )

    def test_piecewise_spec_uses_inf_strings(self):
        spec = map_to_spec(STOCK["nd_jump_left"])
        assert spec["pieces"][0]["lo"] == "-inf"
        assert spec["pieces"][-1]["hi"] == "inf"

    @pytest.mark.parametrize(
        "spec, message", BAD_SPECS, ids=[f"spec{i}" for i in range(len(BAD_SPECS))]
    )
    def test_bad_specs_are_rejected(self, spec, message):
        with pytest.raises(MapSpecError, match=message):
            map_from_spec(spec)


class TestMapPieceCoefficients:
    """A piece keeps its exact slope and intercept beside its fields;
    they must not show in its equality, hash, repr or field list."""

    def test_fields_repr_equality_and_hash(self):
        piece = MapPiece(0, 1, 2, -0.5)
        assert [f.name for f in fields(MapPiece)] == ["lo", "hi", "slope", "intercept"]
        assert repr(piece) == "MapPiece(lo=0.0, hi=1.0, slope=2.0, intercept=-0.5)"
        twin = MapPiece(0.0, 1.0, 2.0, -0.5)
        assert piece == twin and hash(piece) == hash(twin)
        assert piece != MapPiece(0.0, 1.0, 2.0, 0.5)

    @pytest.mark.parametrize(
        "slope, intercept",
        [
            (0.1, 0.2), (-3.0, -0.0), (1e300, 5e-324),
            # the ends of the float range, and flat pieces
            (5e-324, 1e300), (-5e-324, -0.0), (-1e300, 5e-324), (1e300, -1e300),
            (5e-324, 5e-324), (0.0, -0.0), (-0.0, 0.2), (-0.0, 1e300),
        ],
    )
    def test_value_at_a_fraction_is_the_exact_image(self, slope, intercept):
        # a flat piece is its intercept as stored; any other piece the exact
        # image, a float exactly when a float holds it
        piece = MapPiece(NEG_INF, POS_INF, slope, intercept)
        xs = [Fraction(1, 3), Fraction(-7, 2**1100), Fraction(10**310, 3), Fraction(5, 3 * 2**1074),
              Fraction(3, 2), Fraction(-1, 2**1074), Fraction(0)]
        for x in xs:
            exact = Fraction(slope) * x + Fraction(intercept)
            want = intercept if slope == 0 else as_extended(exact)
            got = piece.value(x)
            assert type(got) is type(want) and repr(got) == repr(want), x
            assert slope == 0 or got == exact


def spec_bound(v):
    return "inf" if v == INF else "-inf" if v == -INF else v


def reference_spec(m):
    """The documented spec of a piecewise map, read off its pieces and flags."""
    if len(m.pieces) == 1 and m.pieces[0].slope != 0:
        return {"kind": "affine", "a": m.pieces[0].slope, "b": m.pieces[0].intercept}
    return {
        "direction": m.direction.value,
        "breakpoints": [
            {"at": p.hi, "continuity": f.value} for p, f in zip(m.pieces, m.continuity)
        ],
        "pieces": [
            {"lo": spec_bound(p.lo), "hi": spec_bound(p.hi), "slope": p.slope, "intercept": p.intercept}
            for p in m.pieces
        ],
    }


FLAT_SPEC = {
    "direction": "non_increasing",
    "breakpoints": [{"at": -1.5, "continuity": "right"}, {"at": 2.0, "continuity": "left"}],
    "pieces": [
        {"lo": "-inf", "hi": -1.5, "slope": -2.0, "intercept": 0.0},
        {"lo": -1.5, "hi": 2.0, "slope": 0.0, "intercept": 1.0},
        {"lo": 2.0, "hi": "inf", "slope": -1.0, "intercept": -4.0},
    ],
}
PARTITION_MAPS = {
    **{name: m for name, m in STOCK.items() if isinstance(m, PiecewiseMonotoneMap)},
    "from_spec": map_from_spec(FLAT_SPEC),
    "replaced": replace(STOCK["nd_flat_mid"], continuity=(CR, CL)),
}


class TestStoredPartition:
    """A piecewise map works out its breakpoints once, at construction."""

    @pytest.mark.parametrize("name", sorted(PARTITION_MAPS))
    def test_breakpoints_are_stored_and_frozen(self, name):
        m = PARTITION_MAPS[name]
        assert m.breakpoints is m.breakpoints
        assert m.breakpoints == tuple(p.hi for p in m.pieces[:-1])
        with pytest.raises(FrozenInstanceError):
            m.breakpoints = ()
        assert map_to_spec(m) == reference_spec(m)

    def test_spec_round_trips_unchanged(self):
        assert map_to_spec(map_from_spec(FLAT_SPEC)) == FLAT_SPEC


LATTICE = [k / 4 for k in range(-16, 17)] + [-0.0]


def random_piecewise_maps(draws=3000, seed=13):
    """The valid maps among seeded draws: 0-4 breakpoints from the quarter
    lattice on [-4, 4] and -0.0, each with a random flag, slopes from
    {0, 0.5, 1, 3} signed by the direction, intercepts from
    {-0.0, 0.0, 1.0, -2.5}; draws that tile badly or jump the wrong way
    are dropped."""
    rng = random.Random(seed)
    maps = []
    for _ in range(draws):
        direction = rng.choice((ND, NI))
        sign = 1.0 if direction is ND else -1.0
        ends = sorted(rng.sample(LATTICE, rng.randint(0, 4)))
        bounds = [-INF, *ends, INF]
        flags = tuple(rng.choice((CL, CR)) for _ in ends)
        try:
            pieces = tuple(
                MapPiece(
                    lo,
                    hi,
                    sign * rng.choice((0.0, 0.5, 1.0, 3.0)),
                    rng.choice((-0.0, 0.0, 1.0, -2.5)),
                )
                for lo, hi in zip(bounds, bounds[1:])
            )
            maps.append(PiecewiseMonotoneMap(pieces, direction, flags))
        except MapSpecError:
            pass
    return maps


def owner_by_scan(m, x):
    """The documented rule by a linear scan: the piece whose open interval
    holds x; at a breakpoint, the piece its flag names; at +/-inf, the
    tail piece's limit."""
    if x in (-INF, INF):
        tail = m.pieces[-1] if x > 0 else m.pieces[0]
        if tail.slope == 0:
            return tail.intercept
        return INF if (tail.slope > 0) == (x > 0) else -INF
    for k, piece in enumerate(m.pieces):
        if piece.lo < x < piece.hi:
            return piece.value(x)
        if x == piece.hi:
            return (piece if m.continuity[k] is CL else m.pieces[k + 1]).value(x)
    raise AssertionError(f"no piece owns {x!r}")


def same_value(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


RANDOM_MAPS = random_piecewise_maps()


class TestPieceOwnershipOnRandomMaps:
    def test_draws_cover_the_shapes(self):
        assert 1000 <= len(RANDOM_MAPS) <= 1500
        assert {len(m.pieces) for m in RANDOM_MAPS} == {1, 2, 3, 4, 5}
        assert any(not m.left_continuous for m in RANDOM_MAPS)
        assert any(not m.right_continuous for m in RANDOM_MAPS)

    def test_apply_map_follows_the_documented_rule(self):
        extra = [-INF, INF, 1 / 3, -7 / 5, Fraction(1, 3), Fraction(-7, 5)]
        for m in RANDOM_MAPS:
            for x in [*LATTICE, *m.breakpoints, *extra]:
                got, want = apply_map(m, x), owner_by_scan(m, x)
                assert same_value(got, want), (map_to_spec(m), x, got, want)

    def test_transported_quantiles_match_the_pushforward(self):
        verdicts = dict.fromkeys(Transport, 0)
        refused = 0
        levels = [Fraction(k, 8) for k in range(9)]
        for i, m in enumerate(RANDOM_MAPS):
            d = random_mixture(GeneratorConfig(seed=i))
            push = pushforward(d, m)
            for side in (LEFT, RIGHT):
                for p in levels:
                    try:
                        routed = equivariant_quantile(d, m, p, side)
                    except ContinuityMismatchError:
                        refused += 1
                        continue
                    direct, verdict = check_transport(push, p, side, routed)
                    assert verdict is not Transport.UNEQUAL, (map_to_spec(m), i, p, side, direct, routed)
                    verdicts[verdict] += 1
        assert verdicts[Transport.EQUAL] and verdicts[Transport.NOT_CLAIMED] and refused


# a flat piece with intercept -0.0: slope 0.0 on (-inf, 1] of a non-decreasing
# map, and slope -0.0 on [-1, +inf) of a non-increasing one; neither map jumps
FLAT_NEG_ZERO = {
    "nd": PiecewiseMonotoneMap(
        (MapPiece(-INF, 1.0, 0.0, -0.0), MapPiece(1.0, INF, 1.0, -1.0)), ND, (CL,)
    ),
    "ni": PiecewiseMonotoneMap(
        (MapPiece(-INF, -1.0, -1.0, -1.0), MapPiece(-1.0, INF, -0.0, -0.0)), NI, (CR,)
    ),
}


class TestFlatPieceIsItsIntercept:
    """A flat piece maps every point to its intercept as stored, so -0.0
    stays -0.0 wherever the arithmetic slope*x + intercept would give 0.0."""

    @pytest.mark.parametrize("name, tail", [("nd", NEG_INF), ("ni", POS_INF)])
    def test_apply_map_on_both_sides_of_zero_at_a_fraction_and_on_the_tail(self, name, tail):
        for x in (-0.5, -0.0, 0.0, 0.5, Fraction(1, 3), Fraction(-1, 3), tail):
            assert same_value(apply_map(FLAT_NEG_ZERO[name], x), -0.0), x

    @pytest.mark.parametrize("name, cut", [("nd", (0.5, 1.5)), ("ni", (-1.5, -0.5))])
    def test_pushforward_of_an_atom_and_of_a_segment_part(self, name, cut):
        m = FLAT_NEG_ZERO[name]
        for x in (-0.5, 0.5):
            (y,) = pushforward(MixtureDistribution([Atom(x, Fraction(1))]), m)._locs
            assert same_value(y, -0.0), x
        # half the segment lies on the flat piece, half on its affine neighbour
        out = pushforward(MixtureDistribution(segments=[UniformSegment(*cut, Fraction(1))]), m)
        assert len(out.atoms) == 1 and same_value(out.atoms[0].location, -0.0)
        assert out.atoms[0].mass == Fraction(1, 2)
        assert out.segments == (UniformSegment(0.0, 0.5, Fraction(1, 2)),)
