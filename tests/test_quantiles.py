"""Left/right quantiles: exact values, boundary behavior, and the mirror identity."""

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate

import pytest

from dualquant import (
    NEG_INF,
    POS_INF,
    Atom,
    BadValueError,
    GeneratorConfig,
    MixtureDistribution,
    QuantilePair,
    QuantileSide,
    QuantileVariant,
    UniformSegment,
    affine_map,
    distributions,
    equivariant_quantile,
    left_quantile,
    make_empirical,
    negate,
    pushforward,
    quantile_at,
    quantile_by_definition,
    quantile_pair,
    random_mixture,
    right_quantile,
    standard_levels,
)

PH_SORTED = [4.7336, 4.8327, 4.8492, 5.0050, 5.0389, 5.2487, 5.2713, 5.2901, 5.5731, 5.6105]
AH_SORTED = [
    2.4519e-6,
    2.6724e-6,
    5.1274e-6,
    5.3543e-6,
    5.6403e-6,
    9.1432e-6,
    9.8855e-6,
    14.1514e-6,
    14.6994e-6,
    18.4672e-6,
]


@pytest.fixture
def unit_uniform():
    return MixtureDistribution(atoms=(), segments=(UniformSegment(0.0, 1.0, Fraction(1)),))


@pytest.fixture
def atom_plus_segment():
    # half the mass at 0, half spread uniformly over [1, 3]
    return MixtureDistribution(
        atoms=(Atom(0.0, Fraction(1, 2)),), segments=(UniformSegment(1.0, 3.0, Fraction(1, 2)),)
    )


@pytest.fixture
def gapped():
    return MixtureDistribution(
        atoms=(),
        segments=(UniformSegment(0.0, 1.0, Fraction(1, 2)), UniformSegment(2.0, 3.0, Fraction(1, 2))),
    )


class TestRainValues:
    def test_ph_left_quantiles(self, ph_dist):
        assert left_quantile(ph_dist, "0.2") == 4.8327
        assert left_quantile(ph_dist, "0.8") == 5.2901
        assert left_quantile(ph_dist, "0.25") == 4.8492
        assert left_quantile(ph_dist, "0.75") == 5.2901

    def test_ph_right_quantiles(self, ph_dist):
        assert right_quantile(ph_dist, "0.2") == 4.8492
        assert right_quantile(ph_dist, "0.8") == 5.5731

    def test_ah_left_quantiles(self, ah_dist):
        assert left_quantile(ah_dist, "0.2") == 2.6724e-06
        assert left_quantile(ah_dist, "0.8") == 1.41514e-05
        assert left_quantile(ah_dist, "0.25") == 5.1274e-06
        assert left_quantile(ah_dist, "0.75") == 1.41514e-05

    def test_float_level_matches_decimal_intent(self, ph_dist):
        # 0.2 as a double is slightly above 1/5; naive use would land one
        # sample too high, so the level must be read as the decimal 1/5
        assert left_quantile(ph_dist, 0.2) == 4.8327
        assert left_quantile(ph_dist, Fraction(1, 5)) == 4.8327

    def test_grid_levels_hit_order_statistics(self, ph_dist):
        for k in range(1, 11):
            assert left_quantile(ph_dist, Fraction(k, 10)) == PH_SORTED[k - 1]
        for k in range(1, 10):
            assert right_quantile(ph_dist, Fraction(k, 10)) == PH_SORTED[k]

    def test_level_input_forms_agree(self, ph_dist):
        forms = [0.2, "0.2", "1/5", Fraction(1, 5)]
        assert len({left_quantile(ph_dist, p) for p in forms}) == 1


class TestBoundaryLevels:
    def test_level_zero(self, ph_dist):
        assert left_quantile(ph_dist, 0) == NEG_INF
        assert right_quantile(ph_dist, 0) == 4.7336  # smallest support point

    def test_level_one(self, ph_dist):
        assert right_quantile(ph_dist, 1) == POS_INF
        assert left_quantile(ph_dist, 1) == 5.6105  # largest support point

    def test_uniform_boundaries(self, unit_uniform):
        assert left_quantile(unit_uniform, 0) == NEG_INF
        assert right_quantile(unit_uniform, 0) == 0.0
        assert left_quantile(unit_uniform, 1) == 1.0
        assert right_quantile(unit_uniform, 1) == POS_INF


class TestSegmentInversion:
    def test_exact_rational_result_when_float_would_round(self, unit_uniform):
        q = left_quantile(unit_uniform, Fraction(3, 10))
        assert q == Fraction(3, 10)
        assert isinstance(q, Fraction)

    def test_float_result_when_representable(self, unit_uniform):
        q = left_quantile(unit_uniform, Fraction(1, 2))
        assert q == 0.5
        assert isinstance(q, float)

    def test_continuous_strictly_monotone_means_unique(self, unit_uniform):
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(7, 8)):
            pair = quantile_pair(unit_uniform, p)
            assert pair.left == pair.right

    def test_mixed_atom_and_segment(self, atom_plus_segment):
        assert left_quantile(atom_plus_segment, Fraction(1, 2)) == 0.0
        assert right_quantile(atom_plus_segment, Fraction(1, 2)) == 1.0
        assert left_quantile(atom_plus_segment, Fraction(3, 4)) == 2.0
        assert right_quantile(atom_plus_segment, Fraction(3, 4)) == 2.0

    def test_support_gap_splits_the_pair(self, gapped):
        assert left_quantile(gapped, Fraction(1, 2)) == 1.0
        assert right_quantile(gapped, Fraction(1, 2)) == 2.0


class TestSegmentInversionAtEveryScale:
    """Inside a gap of positive mass both quantiles are the point where the
    affine F reaches p: a + b*p, with the inverse's coefficients written in
    Fractions from the profile's fields, kept exact unless a float holds it."""

    def test_both_quantiles_are_the_affine_inverse(self, location_range):
        levels = [Fraction(k, 97) for k in range(1, 97)] + [Fraction(k, 64) for k in range(1, 64)]
        seen = set()
        for seed in range(8):
            base = random_mixture(GeneratorConfig(seed=seed, location_range=location_range))
            for d in (base, negate(base)):
                prof = d._profile
                for p in levels:
                    t = p * prof.den
                    i = bisect_left(prof.below_next, t)  # the first gap F leaves at p or above
                    if not prof.cdf[i] < t < prof.below_next[i]:
                        continue  # p is reached at a landmark
                    x0, x1 = Fraction(prof.xs[i]), Fraction(prof.xs[i + 1])
                    mass = prof.below_next[i] - prof.cdf[i]
                    a = x0 - prof.cdf[i] * (x1 - x0) / mass
                    b = (x1 - x0) * prof.den / mass
                    want = distributions.as_extended(a + b * p)
                    for got in (left_quantile(d, p), right_quantile(d, p)):
                        assert got == want and type(got) is type(want), (seed, p)
                    seen.add(type(want))
        assert seen == {float, Fraction}


class TestPairAndDispatch:
    def test_pair_carries_uniqueness(self, ph_dist):
        pair = quantile_pair(ph_dist, "0.2")
        assert (pair.left, pair.right) == (4.8327, 4.8492)
        exact = quantile_pair(ph_dist, "0.25")
        assert exact.left == exact.right == 4.8492

    def test_pair_rejects_crossed_endpoints(self):
        with pytest.raises(ValueError):
            QuantilePair(2.0, 1.0, Fraction(1, 2))

    def test_crossed_pair_raises_the_package_error(self):
        with pytest.raises(BadValueError):
            QuantilePair(2.0, 1.0, Fraction(1, 2))

    def test_side_dispatch(self, ph_dist):
        assert quantile_at(ph_dist, "0.2", QuantileSide.LEFT) == left_quantile(ph_dist, "0.2")
        assert quantile_at(ph_dist, "0.2", QuantileSide.RIGHT) == right_quantile(ph_dist, "0.2")

    @pytest.mark.parametrize("side", ["left", None, QuantileVariant.LQ_CLOSED_INF])
    def test_a_side_must_be_a_quantile_side(self, ph_dist, side):
        with pytest.raises(TypeError, match="side must be a QuantileSide"):
            quantile_at(ph_dist, "0.2", side)


class TestMirrorIdentity:
    @pytest.mark.parametrize("p", [Fraction(k, 20) for k in range(21)])
    def test_left_quantile_computable_through_negation(self, ph_dist, p):
        assert -right_quantile(negate(ph_dist), 1 - p) == left_quantile(ph_dist, p)

    def test_holds_on_segments_too(self, atom_plus_segment, gapped):
        levels = [Fraction(0), Fraction(1, 8), Fraction(3, 10), Fraction(1, 2), Fraction(9, 10), Fraction(1)]
        for d in (atom_plus_segment, gapped):
            for p in levels:
                assert -right_quantile(negate(d), 1 - p) == left_quantile(d, p)

    def test_single_point_mass(self):
        d = make_empirical([2.5, 2.5, 2.5])
        assert left_quantile(d, "0.5") == right_quantile(d, "0.5") == 2.5
        assert -right_quantile(negate(d), 1 - Fraction(1, 2)) == left_quantile(d, "0.5") == 2.5


LEVELS = standard_levels()


def _same(x, y):
    # equal value and equal kind: a float answer stays a float, an exact
    # rational stays a Fraction
    return type(x) is type(y) and x == y


def _assert_profile_matches_definition(d, levels=LEVELS):
    for p in levels:
        lq = quantile_by_definition(d, p, QuantileVariant.LQ_CLOSED_INF)
        rq = quantile_by_definition(d, p, QuantileVariant.RQ_CLOSED_INF)
        assert _same(left_quantile(d, p), lq), (d, p)
        assert _same(right_quantile(d, p), rq), (d, p)


class TestProfileAgainstDefinition:
    """The bisected profile against the definitional oracle, which scans
    distribution-function values and never reads the profile."""

    def test_empirical_data_with_ties(self, ph_dist):
        rng = random.Random(11)
        _assert_profile_matches_definition(ph_dist)
        for _ in range(20):
            values = [rng.choice((-2.5, 0.0, 1.0, 1.5, 4.0, 9.0)) for _ in range(rng.randint(1, 30))]
            _assert_profile_matches_definition(make_empirical(values))

    def test_weighted_levels_on_cumulative_masses(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(1, 12)
            values = rng.sample(range(-20, 20), n)
            weights = [rng.randint(1, 5) for _ in range(n)]
            d = make_empirical(values, weights)
            total = sum(weights)
            ordered = (w for _, w in sorted(zip(values, weights)))
            cumulative = [Fraction(c, total) for c in accumulate(ordered)]
            # each cumulative mass below 1 starts a flat stretch of F
            for p in cumulative[:-1]:
                assert left_quantile(d, p) < right_quantile(d, p)
            _assert_profile_matches_definition(d, LEVELS + tuple(cumulative))

    @pytest.mark.parametrize("start", range(0, 240, 60))
    def test_random_mixture_corpus(self, start):
        cfg = GeneratorConfig(seed=start)
        for i in range(60):
            _assert_profile_matches_definition(random_mixture(replace(cfg, seed=start + i)))

    def test_corpus_covers_touching_segments_and_atoms_on_endpoints(self):
        touching = on_endpoint = 0
        for seed in range(120):
            d = random_mixture(GeneratorConfig(seed=seed))
            ends = {e for s in d.segments for e in (s.lo, s.hi)}
            touched = any(s.hi == t.lo for s, t in zip(d.segments, d.segments[1:]))
            landed = any(a.location in ends for a in d.atoms)
            touching += touched
            on_endpoint += landed
            if touched or landed:
                _assert_profile_matches_definition(d)
                # the same parts again, with masses 1, 2, 3 in turn in place of k/16
                n = len(d.atoms)
                _assert_profile_matches_definition(
                    MixtureDistribution(
                        atoms=[Atom(a.location, 1 + k % 3) for k, a in enumerate(d.atoms)],
                        segments=[
                            UniformSegment(s.lo, s.hi, 1 + (n + k) % 3)
                            for k, s in enumerate(d.segments)
                        ],
                    )
                )
        assert touching >= 10 and on_endpoint >= 10

    def test_signed_zero_landmarks(self):
        shapes = [
            ((-0.0,), ((0.0, 1.0),)),
            ((0.0,), ((-1.0, -0.0),)),
            ((), ((-1.0, -0.0), (0.0, 1.0))),
            ((-0.0, 2.0), ((-1.0, 0.0), (0.0, 1.0))),
        ]
        for atoms, segments in shapes:
            d = MixtureDistribution(
                atoms=tuple(Atom(x, 1) for x in atoms),
                segments=tuple(UniformSegment(lo, hi, 1) for lo, hi in segments),
            )
            _assert_profile_matches_definition(d)


class TestProfileStorage:
    def test_profile_is_built_once_and_reused(self, monkeypatch):
        built = []
        real = distributions._Profile
        monkeypatch.setattr(
            distributions, "_Profile", lambda *cols: built.append(cols) or real(*cols)
        )
        d = make_empirical([3.0, 1.0, 2.0, 2.0, 5.0])
        left_quantile(d, "0.3")
        right_quantile(d, "0.3")
        quantile_pair(d, "0.6")
        quantile_at(d, 1, QuantileSide.LEFT)
        assert len(built) == 1
        # an equal but distinct distribution keeps its own profile
        left_quantile(make_empirical([3.0, 1.0, 2.0, 2.0, 5.0]), "0.3")
        assert len(built) == 2
        left_quantile(d, "0.9")
        assert len(built) == 2

    def test_signed_zero_data_do_not_share_answers(self):
        # -0.0 == 0.0, so the two data sets are equal distributions; each
        # must still answer with its own zero
        neg_zero = make_empirical([-0.0, 1.0])
        pos_zero = make_empirical([0.0, 1.0])
        assert math.copysign(1.0, left_quantile(neg_zero, 0.5)) == -1.0
        assert math.copysign(1.0, left_quantile(pos_zero, 0.5)) == 1.0
        assert math.copysign(1.0, right_quantile(pos_zero, 0)) == 1.0
        assert math.copysign(1.0, right_quantile(neg_zero, 0)) == -1.0

    def test_a_gap_inverse_is_built_on_the_first_query_in_it(self):
        d = MixtureDistribution(
            atoms=(Atom(1.0, 1),),
            segments=(UniformSegment(0.0, 2.0, 2), UniformSegment(3.0, 4.0, 1)),
        )
        prof = d._profile
        assert prof.gaps == {}
        assert quantile_pair(d, Fraction(1, 8)) == QuantilePair(0.5, 0.5, Fraction(1, 8))
        assert quantile_pair(d, Fraction(1, 16)) == QuantilePair(0.25, 0.25, Fraction(1, 16))
        assert list(prof.gaps) == [0]
        assert left_quantile(d, Fraction(7, 8)) == 3.5 and list(prof.gaps) == [0, 3]


def walk_quantiles(atoms, segments, levels):
    """lq and rq at each level by the definition, walking the parts in
    order in `Fraction` arithmetic: each segment is split at the atoms
    inside it, and a level is answered by the first part whose running
    mass reaches it (lq) or passes it (rq)."""
    inside = sorted(x for x, _ in atoms)
    parts = [(x, x, Fraction(m)) for x, m in atoms]
    for lo, hi, m in segments:
        cuts = [lo, *(x for x in inside[bisect_right(inside, lo) : bisect_left(inside, hi)]), hi]
        width = Fraction(hi) - Fraction(lo)
        parts += [(u, v, m * (Fraction(v) - Fraction(u)) / width) for u, v in zip(cuts, cuts[1:])]
    parts.sort(key=lambda part: part[:2])  # an atom after the part ending at it
    total = sum(m for _, _, m in parts)
    after = [c / total for c in accumulate(m for _, _, m in parts)]

    def answer(k, p):
        u, v, m = parts[k]
        if u == v:
            return u
        before = after[k - 1] if k else 0
        x = Fraction(u) + (p - before) * total * (Fraction(v) - Fraction(u)) / m
        return float(x) if Fraction(float(x)) == x else x

    return [
        (
            NEG_INF if p == 0 else answer(bisect_left(after, p), p),
            POS_INF if p == 1 else answer(bisect_right(after, p), p),
        )
        for p in levels
    ], after, parts


def _signed(x):
    return x, type(x), math.copysign(1.0, x) if isinstance(x, float) else None


class TestSegmentHeavyMixture:
    """About 20k touching segments on a grid of 1/64: some cut by atoms
    inside them, some with atoms on their ends, one gap in the support,
    and segment ends at both -0.0 and 0.0."""

    @pytest.fixture(scope="class")
    def mixture(self):
        rng = random.Random(16)
        n = 20_000
        ends = [k / 64 for k in range(-n // 2, n // 2 + 1)]
        gap = 7_000
        segments = []
        for k, (lo, hi) in enumerate(zip(ends, ends[1:])):
            if k == gap:
                continue
            mass = rng.choice((1, 2, 5, Fraction(1, 3), Fraction(7, 2)))
            segments.append((lo, -0.0 if hi == 0 else hi, mass))
        cut = rng.sample(range(n), 600)
        on_ends = rng.sample([k for k in range(1, n) if k not in (gap, gap + 1, n // 2)], 600)
        atoms = [((ends[k] + ends[k + 1]) / 2, Fraction(rng.randint(1, 4), 3)) for k in cut]
        atoms += [(ends[k], rng.randint(1, 9)) for k in on_ends]
        d = MixtureDistribution(
            atoms=tuple(Atom(x, m) for x, m in atoms),
            segments=tuple(UniformSegment(lo, hi, m) for lo, hi, m in segments),
        )
        _, after, parts = walk_quantiles(atoms, segments, ())
        # levels on a grid, at the flat stretch over the gap, at the zero
        # junction, and at, inside and below the jumps of some atoms
        at_gap = after[next(k for k, (u, _, _) in enumerate(parts) if u >= ends[gap + 1]) - 1]
        at_zero = after[next(k for k, (u, _, _) in enumerate(parts) if u >= 0) - 1]
        jumps = [k for k, (u, v, _) in enumerate(parts) if u == v][::400]
        levels = [Fraction(0), Fraction(1), at_gap, at_zero]
        levels += [Fraction(k, 29) for k in range(1, 29)]
        for k in jumps[:3]:
            levels += [after[k - 1], after[k], (after[k - 1] + after[k]) / 2]
        assert len(set(levels)) == 41
        want, _, _ = walk_quantiles(atoms, segments, levels)
        return d, levels, want

    def test_quantiles_match_a_walk_over_the_parts(self, mixture):
        d, levels, want = mixture
        got = [quantile_pair(d, p) for p in levels]
        assert [(_signed(q.left), _signed(q.right)) for q in got] == [
            (_signed(lq), _signed(rq)) for lq, rq in want
        ]
        # F is flat over the gap only, so no other level has two quantiles
        assert [(q.left, q.right) for q in got[2:] if q.left < q.right] == [(-46.875, -46.859375)]

    def test_negation_mirrors_both_quantiles(self, mixture):
        d, levels, _ = mixture
        nd = negate(d)
        for p in levels:
            pair, mirror = quantile_pair(d, p), quantile_pair(nd, 1 - p)
            assert (pair.left, pair.right) == (-mirror.right, -mirror.left), p
        assert negate(nd) == d

    def test_pushforward_quantiles_are_the_transported_ones(self, mixture):
        d, levels, _ = mixture
        m = affine_map(-3.0, 0.5)
        push = pushforward(d, m)
        for p in levels:
            for side in QuantileSide:
                assert _signed(quantile_at(push, p, side)) == _signed(
                    equivariant_quantile(d, m, p, side)
                ), (p, side)
