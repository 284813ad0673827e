"""Exact-mixture construction and the four distribution-function flavors."""

import math
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualquant import (
    NEG_INF,
    POS_INF,
    Atom,
    BadValueError,
    BadWeightError,
    Continuity,
    Direction,
    DistFnFlavor,
    EmptyDataError,
    GeneratorConfig,
    MapPiece,
    MixtureDistribution,
    PiecewiseMonotoneMap,
    QuantileSide,
    UniformSegment,
    affine_map,
    as_extended,
    as_level,
    breakpoints,
    describe,
    dist_fn,
    essential_bounds,
    is_continuous,
    is_strictly_monotone_on_hull,
    make_empirical,
    negate,
    pushforward,
    quantile_pair,
    random_mixture,
)
from dualquant import distributions
from dualquant.distributions import MAX_EXPONENT, _pool, as_exact
from dualquant.transforms import Transport, check_transport

F_CLOSED = DistFnFlavor.LEFT_CLOSED
F_OPEN = DistFnFlavor.LEFT_OPEN
G_CLOSED = DistFnFlavor.RIGHT_CLOSED
G_OPEN = DistFnFlavor.RIGHT_OPEN

ALL_FLAVORS = tuple(DistFnFlavor)


def uniform(lo, hi, mass=Fraction(1)):
    return UniformSegment(float(lo), float(hi), mass)


def flat_map(a, b):
    """x up to ``a``, ``a`` on [a, b], x - (b - a) above: continuous and
    non-decreasing, and flat on [a, b]."""
    return PiecewiseMonotoneMap(
        (MapPiece(NEG_INF, a, 1.0, 0.0), MapPiece(a, b, 0.0, a), MapPiece(b, POS_INF, 1.0, a - b)),
        Direction.NON_DECREASING,
        (Continuity.LEFT, Continuity.LEFT),
    )


def first_primes(k):
    sieve = [True] * 30_000
    for j in range(2, math.isqrt(30_000) + 1):
        sieve[j * j :: j] = [False] * len(sieve[j * j :: j])
    primes = [j for j in range(2, 30_000) if sieve[j]][:k]
    assert len(primes) == k
    return primes


@pytest.fixture
def touching_segments():
    return MixtureDistribution(
        atoms=(), segments=(uniform(0, 1, Fraction(1, 2)), uniform(1, 2, Fraction(1, 2)))
    )


@pytest.fixture
def gapped_segments():
    return MixtureDistribution(
        atoms=(), segments=(uniform(0, 1, Fraction(1, 2)), uniform(2, 3, Fraction(1, 2)))
    )


@pytest.fixture
def atom_in_segment():
    return MixtureDistribution(
        atoms=(Atom(0.5, Fraction(1, 2)),), segments=(uniform(0, 1, Fraction(1, 2)),)
    )


class TestLevelCoercion:
    def test_float_levels_follow_decimal_intent(self):
        # float 0.2 denotes the typed decimal 1/5, not the nearest double
        assert as_level(0.2) == Fraction(1, 5)
        assert as_level(0.1) == Fraction(1, 10)

    def test_string_and_fraction_and_int(self):
        assert as_level("0.25") == Fraction(1, 4)
        assert as_level("3/10") == Fraction(3, 10)
        assert as_level(Fraction(7, 8)) == Fraction(7, 8)
        assert as_level(1) == Fraction(1)
        assert as_level(0) == Fraction(0)

    @pytest.mark.parametrize(
        "bad", [-0.1, 1.5, float("nan"), float("inf"), "x", "1/0", "1e-3000000", "1e-10001"]
    )
    def test_rejects_bad_levels(self, bad):
        with pytest.raises(BadValueError):
            as_level(bad)

    def test_rejects_non_numeric_types(self):
        with pytest.raises(TypeError):
            as_level(None)

    def test_exponent_bound_is_inclusive(self):
        assert MAX_EXPONENT == 10_000
        assert as_level("1e-10000") == Fraction(1, 10**10000)
        assert as_exact("1E+10000") == 10**10000
        with pytest.raises(ValueError):
            as_exact("1e+10001")

    @pytest.mark.parametrize("text", ["0", "7", "07", "+7", " 7 ", "1_000", "\u0663", "1E+\u0663"])
    def test_shortcuts_read_what_fraction_reads(self, text):
        # the exponent bound's int reading agrees with Fraction on the
        # text it sees, refusals included: Fraction reads "1_000" from
        # Python 3.11 on only
        def reading(read):
            try:
                return read(text)
            except ValueError:
                return ValueError

        assert reading(as_exact) == reading(Fraction)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bools_like_masses_do(self, flag):
        with pytest.raises(TypeError):
            as_level(flag)

    @pytest.mark.parametrize("bad", [Fraction(3, 2), Fraction(-1, 2)])
    def test_fractions_outside_the_unit_interval_are_refused(self, bad):
        with pytest.raises(BadValueError):
            as_level(bad)

    def test_a_fraction_level_comes_back_as_it_is(self):
        p = Fraction(2, 7)
        assert as_level(p) is p


class TestExtendedCoercion:
    def test_collapses_lossless_rationals_to_floats(self):
        out = as_extended(Fraction(1, 2))
        assert out == 0.5 and isinstance(out, float)

    def test_keeps_lossy_rationals_exact(self):
        out = as_extended(Fraction(1, 3))
        assert out == Fraction(1, 3) and isinstance(out, Fraction)

    def test_keeps_overflowing_rationals_exact(self):
        big = Fraction(10) ** 400
        assert as_extended(big) == big and isinstance(as_extended(big), Fraction)

    @pytest.mark.parametrize(
        "x, want",
        [
            (Fraction(1, 4), 0.25),
            (Fraction(1, 3), Fraction(1, 3)),
            # dyadic, yet no float: too many bits, too large, too small
            (1 + Fraction(1, 2**60), 1 + Fraction(1, 2**60)),
            (Fraction(2**1100), Fraction(2**1100)),
            (Fraction(1, 2**1080), Fraction(1, 2**1080)),
            # an int that rounds; half the least subnormal rounds to 0.0
            (Fraction(2**53 + 1), Fraction(2**53 + 1)),
            (-Fraction(2**53 + 1), -Fraction(2**53 + 1)),
            (Fraction(1, 2**1075), Fraction(1, 2**1075)),
            (-Fraction(2**1100), -Fraction(2**1100)),
            # the least subnormal, zero and negatives are floats
            (Fraction(1, 2**1074), 5e-324),
            (Fraction(-1, 2**1074), -5e-324),
            (Fraction(0), 0.0),
            (Fraction(-3, 4), -0.75),
            (Fraction(-(2**53)), -9007199254740992.0),
        ],
    )
    def test_only_rationals_a_float_holds_collapse(self, x, want):
        out = as_extended(x)
        # repr tells 0.0 from -0.0
        assert out == want and type(out) is type(want) and repr(out) == repr(want)


def atoms_of(d):
    # locations bit for bit, so -0.0 and 0.0 differ
    return [(a.location.hex(), a.mass) for a in d.atoms]


def fraction_sum_atoms(values, weights):
    """The plain definition of pooling: add each row's exact weight to its
    value's running Fraction sum, keyed by the first of equal values seen,
    then divide by the total."""
    if weights is None:
        weights = [1] * len(values)
    pooled = {}
    for v, w in zip(values, weights):
        w = Fraction(repr(w)) if isinstance(w, float) else Fraction(w)
        pooled[float(v)] = pooled.get(float(v), Fraction(0)) + w
    total = sum(pooled.values())
    return [(v.hex(), pooled[v] / total) for v in sorted(pooled)]


class TestConstruction:
    def test_empirical_uniform_weights(self):
        d = make_empirical([3.0, 1.0, 2.0])
        assert [a.location for a in d.atoms] == [1.0, 2.0, 3.0]
        assert all(a.mass == Fraction(1, 3) for a in d.atoms)
        assert d.segments == ()

    def test_empirical_pools_duplicate_values(self):
        d = make_empirical([2.0, 1.0, 2.0])
        assert [(a.location, a.mass) for a in d.atoms] == [
            (1.0, Fraction(1, 3)),
            (2.0, Fraction(2, 3)),
        ]

    def test_empirical_weights(self):
        d = make_empirical([1.0, 2.0], weights=[1, 3])
        assert [(a.location, a.mass) for a in d.atoms] == [
            (1.0, Fraction(1, 4)),
            (2.0, Fraction(3, 4)),
        ]

    def test_empirical_weights_accept_strings_and_fractions(self):
        d = make_empirical([1.0, 2.0], weights=["0.5", Fraction(3, 2)])
        assert d.atoms[0].mass == Fraction(1, 4)
        assert d.atoms[1].mass == Fraction(3, 4)

    def test_empirical_pools_like_a_fraction_sum(self):
        values = [0.0, -0.0, 1.5, 0.0, 1.5, -2.0, -0.0, 7]
        weights = [3, "0.5", "1/3", Fraction(2, 7), 0.1, 1, Fraction(5, 3), "1e-2"]
        for vs, ws in ((values, weights), (values[1:], weights[1:]), (values, None)):
            assert atoms_of(make_empirical(vs, ws)) == fraction_sum_atoms(vs, ws)

    @settings(deadline=None, database=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-0.0, 0.0, 1.5, -2.0, 3.25, 1e300, 5e-324, 2]),
                st.one_of(
                    st.integers(1, 10**20),
                    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
                    st.floats(min_value=1e-6, max_value=1e6),
                    st.sampled_from(["0.5", "1/3", "07", "2e-3", "1e1"]),
                ),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_empirical_pooling_matches_a_fraction_sum(self, rows):
        values, weights = zip(*rows)
        assert atoms_of(make_empirical(values, weights)) == fraction_sum_atoms(values, weights)
        assert atoms_of(make_empirical(values)) == fraction_sum_atoms(values, None)

    @staticmethod
    def dict_pool(values):
        # the unweighted pool by a dict, which keeps the first of equal keys
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        locs = sorted(counts)
        return [(x, math.copysign(1.0, x)) for x in locs], [counts[x] for x in locs]

    def check_unweighted_pool(self, values):
        locs, nums, dens = _pool(values, None)
        assert ([(x, math.copysign(1.0, x)) for x in locs], list(nums)) == self.dict_pool(values)
        assert dens == (1,) * len(locs)

    @settings(deadline=None, database=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-0.0, 0.0, 1.5, -2.0, 5e-324, -5e-324, 1e300]),
                st.floats(allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_unweighted_pool_matches_a_dict(self, values):
        self.check_unweighted_pool(values)

    @pytest.mark.parametrize(
        "values",
        [[-0.0, 0.0], [0.0, -0.0], [1.0, -0.0, 2.0, 0.0, -0.0], [2.5], [3.0] * 5,
         [float(k) for k in range(20, 0, -1)]],
        ids=["minus-zero-first", "zero-first", "zeros-among-others", "one-row", "all-equal",
             "all-distinct"],
    )
    def test_unweighted_pool_runs(self, values):
        self.check_unweighted_pool(values)
        locs, _, _ = _pool(values, None)
        zero = next((v for v in values if v == 0), None)
        if zero is not None:  # the first zero seen names the atom
            assert math.copysign(1.0, locs[list(locs).index(0.0)]) == math.copysign(1.0, zero)

    def test_pooling_many_denominators_stays_fast(self):
        # weights 1/p over 3000 distinct primes: their common denominator
        # has ~40k bits.  Pooled per value, and with no mass normalized,
        # `make_empirical` takes a fraction of a second.
        # `dist_fn`'s tables hold counts over that denominator, and a call
        # divides by their total once: normalizing every cumulative count
        # instead took over ten seconds on the first call
        primes = first_primes(3000)
        t0 = time.perf_counter()
        d = make_empirical([float(p) for p in primes], [f"1/{p}" for p in primes])
        elapsed = time.perf_counter() - t0
        assert elapsed < 3.0, f"{elapsed:.2f} s"
        t0 = time.perf_counter()
        dist_fn(d, F_CLOSED, 100.5)
        elapsed = time.perf_counter() - t0
        assert elapsed < 3.0, f"{elapsed:.2f} s"
        assert d.atoms[0].mass / d.atoms[-1].mass == Fraction(primes[-1], 2)
        # the part-by-part sum over thousands of these masses takes seconds,
        # so each flavor is probed where it counts a short tail
        low = (1.0, 2.0, 3.0, 100.5)
        high = (primes[-1] + 1.0, float(primes[-1]), float(primes[-2]), primes[-30] - 0.5)
        for flavors, xs in (((F_CLOSED, F_OPEN), low), ((G_CLOSED, G_OPEN), high)):
            for flavor in flavors:
                for x in xs:
                    assert dist_fn(d, flavor, x) == dist_fn_by_parts(d, flavor, x), (flavor, x)

    def test_weights_are_bounded_by_the_bits_of_their_counts(self, monkeypatch):
        # two distinct values over the common denominator 15, of 4 bits: 8 count bits
        assert distributions.MAX_COUNT_BITS == 2**30
        values, weights = [1.0, 1.0, 2.0], [Fraction(1, 3), Fraction(1, 3), Fraction(1, 5)]
        monkeypatch.setattr(distributions, "MAX_COUNT_BITS", 8)
        d = make_empirical(values, weights)
        assert d.atoms == (Atom(1.0, Fraction(10, 13)), Atom(2.0, Fraction(3, 13)))
        monkeypatch.setattr(distributions, "MAX_COUNT_BITS", 7)
        message = r"has 4 bits, too many for 2 distinct values \(at most 7 bits in all\)"
        with pytest.raises(BadWeightError, match=message):
            make_empirical(values, weights)

    def test_the_common_denominator_is_found_once(self, monkeypatch):
        # the column of denominators goes through one lcm, for the budget and the counts
        columns = []
        lcm = math.lcm

        def spy(*args):
            if len(args) == 3:
                columns.append(args)
            return lcm(*args)

        monkeypatch.setattr(math, "lcm", spy)
        d = make_empirical([1.0, 2.0, 3.0], [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
        assert columns == [(2, 3, 5)]
        assert [a.mass for a in d.atoms] == [Fraction(15, 31), Fraction(10, 31), Fraction(6, 31)]

    @pytest.mark.parametrize("weights", [None, [1, 2], ["3", Fraction(4, 2)]])
    def test_whole_weights_take_no_count_budget(self, monkeypatch, weights):
        monkeypatch.setattr(distributions, "MAX_COUNT_BITS", 0)
        assert len(make_empirical([1.0, 2.0], weights).atoms) == 2

    def test_rejects_weights_with_huge_exponents(self):
        with pytest.raises(BadWeightError):
            make_empirical([1.0, 2.0], weights=[1, "1e-3000000"])
        with pytest.raises(BadWeightError):
            Atom(0.0, "1e3000000")

    def test_mixture_normalizes_total_mass(self):
        d = MixtureDistribution(
            atoms=(Atom(0.0, Fraction(2)),), segments=(uniform(1, 2, Fraction(2)),)
        )
        assert d.atoms[0].mass == Fraction(1, 2)
        assert d.segments[0].mass == Fraction(1, 2)

    def test_mixture_sorts_components(self):
        d = MixtureDistribution(
            atoms=(Atom(2.0, Fraction(1, 4)), Atom(-1.0, Fraction(1, 4))),
            segments=(uniform(5, 6, Fraction(1, 4)), uniform(3, 4, Fraction(1, 4))),
        )
        assert [a.location for a in d.atoms] == [-1.0, 2.0]
        assert [s.lo for s in d.segments] == [3.0, 5.0]

    @pytest.mark.parametrize(
        "ctor",
        [
            lambda: Atom(float("inf"), Fraction(1, 2)),
            lambda: Atom(float("nan"), Fraction(1, 2)),
            lambda: Atom("1.0", Fraction(1, 2)),
            lambda: make_empirical([1.0, True]),
            lambda: UniformSegment(1.0, 1.0, Fraction(1)),
            lambda: UniformSegment(2.0, 1.0, Fraction(1)),
            lambda: MixtureDistribution(
                (Atom(1.0, Fraction(1, 2)), Atom(1.0, Fraction(1, 2))), ()
            ),
            lambda: MixtureDistribution(
                (), (uniform(0, 2, Fraction(1, 2)), uniform(1, 3, Fraction(1, 2)))
            ),
        ],
    )
    def test_rejects_malformed_components(self, ctor):
        with pytest.raises(BadValueError):
            ctor()

    @pytest.mark.parametrize("mass", [Fraction(0), Fraction(-1, 2)])
    def test_rejects_nonpositive_masses(self, mass):
        with pytest.raises(BadWeightError):
            Atom(0.0, mass)
        with pytest.raises(BadWeightError):
            UniformSegment(0.0, 1.0, mass)

    def test_rejects_empty_mixture(self):
        with pytest.raises(EmptyDataError):
            MixtureDistribution((), ())
        with pytest.raises(EmptyDataError):
            make_empirical([])

    def test_rejects_bad_weight_lists(self):
        with pytest.raises(BadWeightError):
            make_empirical([1.0, 2.0], weights=[1, 0])
        with pytest.raises(BadWeightError):
            make_empirical([1.0, 2.0], weights=[1])

    def test_rejects_non_finite_values(self):
        with pytest.raises(BadValueError):
            make_empirical([float("nan")])
        with pytest.raises(BadValueError):
            make_empirical([float("inf")])

    def test_rejects_ints_past_the_float_range(self):
        with pytest.raises(BadValueError):
            make_empirical([10**400])

    def test_touching_segments_allowed(self, touching_segments):
        assert len(touching_segments.segments) == 2


class TestDistFn:
    def test_four_flavors_at_an_atom(self, ph_dist):
        x = 4.8327  # second-smallest sample point
        assert dist_fn(ph_dist, F_CLOSED, x) == Fraction(1, 5)
        assert dist_fn(ph_dist, F_OPEN, x) == Fraction(1, 10)
        assert dist_fn(ph_dist, G_CLOSED, x) == Fraction(9, 10)
        assert dist_fn(ph_dist, G_OPEN, x) == Fraction(4, 5)

    def test_flavors_agree_between_atoms(self, ph_dist):
        x = 4.9
        assert dist_fn(ph_dist, F_CLOSED, x) == dist_fn(ph_dist, F_OPEN, x) == Fraction(3, 10)
        assert dist_fn(ph_dist, G_CLOSED, x) == dist_fn(ph_dist, G_OPEN, x) == Fraction(7, 10)

    @pytest.mark.parametrize(
        "x", [4.0, 4.7336, 4.8, 4.8327, 5.0, 5.6105, 6.0, NEG_INF, POS_INF]
    )
    def test_complement_identities_hold_exactly(self, ph_dist, x):
        assert dist_fn(ph_dist, F_CLOSED, x) + dist_fn(ph_dist, G_OPEN, x) == 1
        assert dist_fn(ph_dist, F_OPEN, x) + dist_fn(ph_dist, G_CLOSED, x) == 1

    def test_limits_at_infinities(self, ph_dist):
        assert dist_fn(ph_dist, F_CLOSED, NEG_INF) == 0
        assert dist_fn(ph_dist, F_OPEN, NEG_INF) == 0
        assert dist_fn(ph_dist, G_CLOSED, NEG_INF) == 1
        assert dist_fn(ph_dist, G_OPEN, NEG_INF) == 1
        assert dist_fn(ph_dist, F_CLOSED, POS_INF) == 1
        assert dist_fn(ph_dist, F_OPEN, POS_INF) == 1
        assert dist_fn(ph_dist, G_CLOSED, POS_INF) == 0
        assert dist_fn(ph_dist, G_OPEN, POS_INF) == 0

    @pytest.mark.parametrize("flavor", ALL_FLAVORS)
    def test_nan_has_no_value(self, ph_dist, atom_in_segment, flavor):
        for d in (ph_dist, atom_in_segment):
            with pytest.raises(BadValueError):
                dist_fn(d, flavor, float("nan"))

    def test_segment_mass_is_exactly_linear(self):
        u = MixtureDistribution(atoms=(), segments=(uniform(0, 1),))
        assert dist_fn(u, F_CLOSED, 0.25) == Fraction(1, 4)
        assert dist_fn(u, F_CLOSED, 0.5) == Fraction(1, 2)
        assert dist_fn(u, F_OPEN, 0.5) == Fraction(1, 2)  # no atom: both flavors agree
        assert dist_fn(u, G_CLOSED, 0.75) == Fraction(1, 4)

    def test_atom_sitting_inside_a_segment(self, atom_in_segment):
        d = atom_in_segment
        assert dist_fn(d, F_CLOSED, 0.5) == Fraction(3, 4)
        assert dist_fn(d, F_OPEN, 0.5) == Fraction(1, 4)
        assert dist_fn(d, G_CLOSED, 0.5) == Fraction(3, 4)
        assert dist_fn(d, G_OPEN, 0.5) == Fraction(1, 4)

    @pytest.mark.parametrize("flavor", ALL_FLAVORS)
    def test_every_numeric_argument_type_reads_alike(self, flavor):
        # an int, a float (either zero) and a Fraction naming one number
        # give one exact value, the one the part-by-part sum gives
        d = MixtureDistribution(
            atoms=(Atom(-0.0, Fraction(1, 4)), Atom(2.0, Fraction(1, 4))),
            segments=(uniform(-1, 0, Fraction(1, 4)), uniform(1, 3, Fraction(1, 4))),
        )
        for forms in ([0, 0.0, -0.0, Fraction(0)], [2, 2.0, Fraction(2)], [-1, -1.0, Fraction(-1)],
                      [0.5, Fraction(1, 2)], [10**400], [-(10**400)]):
            want = dist_fn_by_parts(d, flavor, forms[0])
            for x in forms:
                got = dist_fn(d, flavor, x)
                assert got == want and isinstance(got, Fraction), (flavor, x)
        for text in ("1.0", "x"):
            with pytest.raises(TypeError):
                dist_fn(d, flavor, text)


def dist_fn_by_parts(d, flavor, x):
    # the definition, one part at a time in Fractions
    below = flavor in (F_CLOSED, F_OPEN)
    if isinstance(x, float) and math.isinf(x):
        return Fraction(int((x > 0) == below))
    x = Fraction(x)
    total = Fraction(0)
    for a in d.atoms:
        loc = Fraction(a.location)
        hit = {F_CLOSED: loc <= x, F_OPEN: loc < x, G_CLOSED: loc >= x, G_OPEN: loc > x}
        if hit[flavor]:
            total += a.mass
    for s in d.segments:
        lo, hi = Fraction(s.lo), Fraction(s.hi)
        inside = min(max(x, lo), hi)
        total += s.mass * ((inside - lo) if below else (hi - inside)) / (hi - lo)
    return total


def probes(d):
    # every breakpoint and midpoint, as floats and as Fractions, points
    # just off each breakpoint, both zeros, and both infinities
    bps = breakpoints(d)
    xs = [NEG_INF, POS_INF, 0.0, -0.0, 0, bps[0] - 1.0, bps[-1] + 1.0]
    for b in bps:
        xs += [b, Fraction(b), Fraction(b) - Fraction(1, 3), Fraction(b) + Fraction(1, 7)]
    for a, b in zip(bps, bps[1:]):
        xs += [(a + b) / 2, (Fraction(a) + Fraction(b)) / 2]
    return xs


POINTS = (-3.0, -1.5, 0.0, 0.25, 1.0, 2.0, 4.5, 7.0)


@st.composite
def mixtures(draw):
    # parts on a few points, so atoms sit on segment ends and segments
    # touch; each zero is drawn as 0.0 or -0.0 on its own
    def at(i):
        return draw(st.sampled_from([0.0, -0.0])) if POINTS[i] == 0 else POINTS[i]

    mass = st.integers(1, 9).map(Fraction)
    ends = sorted(draw(st.sets(st.integers(0, len(POINTS) - 1), max_size=6)))
    keep = draw(st.lists(st.booleans(), min_size=len(ends), max_size=len(ends)))
    segments = [
        UniformSegment(at(a), at(b), draw(mass)) for a, b, k in zip(ends, ends[1:], keep) if k
    ]
    spots = draw(st.sets(st.integers(0, len(POINTS) - 1), min_size=0 if segments else 1, max_size=4))
    atoms = [Atom(at(i), draw(mass)) for i in spots]
    return MixtureDistribution(atoms=tuple(atoms), segments=tuple(segments))


class TestDistFnAgainstParts:
    """`dist_fn` bisects stored tables; the loop above sums every part."""

    @staticmethod
    def check(d):
        for x in probes(d):
            for flavor in ALL_FLAVORS:
                got = dist_fn(d, flavor, x)
                assert got == dist_fn_by_parts(d, flavor, x), (describe(d), flavor, x)
                assert isinstance(got, Fraction)

    def test_seeded_corpus(self):
        for seed in range(150):
            self.check(random_mixture(GeneratorConfig(seed=seed)))

    @settings(deadline=None, database=None, derandomize=True, max_examples=300)
    @given(mixtures())
    def test_mixtures_with_touching_parts_and_signed_zeros(self, d):
        self.check(d)


def dist_fn_by_fraction_tables(d, flavor, x):
    """`dist_fn` written in `Fraction`s: the locations and segment ends as
    Fractions, each segment's count per unit length, the same bisections
    of the sorted columns, then one division by the count total."""
    left = flavor in (F_CLOSED, F_OPEN)
    if isinstance(x, float) and math.isinf(x):
        return Fraction(int((x > 0) == left))
    x = Fraction(x)
    n, counts = len(d._locs), d._counts
    locs = [Fraction(v) for v in d._locs]
    los, his = [Fraction(v) for v in d._los], [Fraction(v) for v in d._his]
    density = [c / (hi - lo) for c, lo, hi in zip(counts[n:], los, his)]
    acc = {
        F_CLOSED: sum(counts[: bisect_right(locs, x)]),
        F_OPEN: sum(counts[: bisect_left(locs, x)]),
        G_CLOSED: sum(counts[bisect_left(locs, x) : n]),
        G_OPEN: sum(counts[bisect_right(locs, x) : n]),
    }[flavor]
    if left:
        i = bisect_right(his, x)
        acc += sum(counts[n : n + i])
        if i < len(los) and los[i] < x:
            acc += density[i] * (x - los[i])
    else:
        i = bisect_left(los, x)
        acc += sum(counts[n + i :])
        if i and x < his[i - 1]:
            acc += density[i - 1] * (his[i - 1] - x)
    return Fraction(acc, d._total)


def scale_mixtures(lo, hi):
    """Seeded corpus mixtures on [lo, hi], and one built on its 9-point
    lattice: atoms on segment ends, two touching segments, and an atom at
    -0.0 on a segment end at 0.0, through a segment from the range to 0.0
    where the lattice holds no zero."""
    lat = [float(Fraction(lo) + (Fraction(hi) - Fraction(lo)) * k / 8) for k in range(9)]
    m = Fraction(1, 7)
    ends = [(lat[2], lat[4]), (lat[4], lat[6]), (lat[7], lat[8])]
    if lat[4] != 0:
        ends.append((0.0, lat[0]) if lat[0] > 0 else (lat[8], 0.0))
    built = MixtureDistribution(
        atoms=[Atom(x, m) for x in (lat[0], lat[2], -0.0, lat[8])],
        segments=[UniformSegment(a, b, m) for a, b in ends],
    )
    return [built] + [random_mixture(GeneratorConfig(seed, (lo, hi))) for seed in range(6)]


def scale_probes(d):
    # each breakpoint and its float neighbours, non-dyadic points inside
    # each gap, ints beyond the float range, True, both zeros, both infinities
    bps = breakpoints(d)
    xs = [NEG_INF, POS_INF, 10**400, -(10**400), True, 0.0, -0.0]
    for b in bps:
        xs += [b, math.nextafter(b, NEG_INF), math.nextafter(b, POS_INF)]
    for a, b in zip(bps, bps[1:]):
        xs += [Fraction(a) + (Fraction(b) - Fraction(a)) * Fraction(k, 7) for k in (1, 3, 6)]
    return xs


class TestDistFnAtEveryScale:
    """`dist_fn` works on an integer grid over a power of two; the
    reference above is the same evaluation in Fractions."""

    def test_matches_the_fraction_formula(self, location_range):
        for d in scale_mixtures(*location_range):
            for x in scale_probes(d):
                for flavor in ALL_FLAVORS:
                    got = dist_fn(d, flavor, x)
                    want = dist_fn_by_fraction_tables(d, flavor, x)
                    assert got == want and type(got) is Fraction, (describe(d), flavor, x)

    def test_nan_and_text_are_refused(self, location_range):
        for d in scale_mixtures(*location_range)[:2]:
            for flavor in ALL_FLAVORS:
                with pytest.raises(BadValueError):
                    dist_fn(d, flavor, float("nan"))
                with pytest.raises(TypeError):
                    dist_fn(d, flavor, "1.0")


EMPIRICAL_KINDS = {
    "unweighted": lambda vs: make_empirical(vs),
    "int weights": lambda vs: make_empirical(vs, [3, 1, 4, 1, 5][: len(vs)]),
    "exact weights": lambda vs: make_empirical(vs, ["1/3", 1, "0.25", Fraction(2, 7), 5][: len(vs)]),
}


class TestColumns:
    """A mixture keeps its atoms as sorted columns and builds `Atom`s on read."""

    def test_pooled_duplicates_equal_one_value(self):
        assert make_empirical([1.0, 1.0]) == make_empirical([1.0])
        assert hash(make_empirical([1.0, 1.0])) == hash(make_empirical([1.0]))
        assert make_empirical([1.0, 1.0]) != make_empirical([1.0, 2.0])

    def test_hashing_reads_only_the_location_columns(self):
        # weights 1/p over 3000 primes: normalizing each count over the
        # ~40k-bit total, as building the atoms does, takes seconds
        primes = first_primes(3000)
        d = make_empirical([float(p) for p in primes], [Fraction(1, p) for p in primes])
        h = hash(d)
        assert "atoms" not in vars(d) and "segments" not in vars(d)
        assert hash(negate(negate(d))) == h
        pos = MixtureDistribution(atoms=(Atom(0.0, 1),), segments=(uniform(-1.0, -0.0),))
        neg = MixtureDistribution(atoms=(Atom(-0.0, 1),), segments=(uniform(-1.0, 0.0),))
        assert pos == neg and hash(pos) == hash(neg)
        third = make_empirical([1.0, 2.0], [1, 3])
        assert make_empirical([1.0, 2.0], [2, 6]) == third
        assert hash(make_empirical([1.0, 2.0], [2, 6])) == hash(third)

    def test_equality_compares_masses_in_proportion(self):
        # equal parts over different totals are equal; other masses are not
        assert make_empirical([1.0, 2.0], [2, 6]) == make_empirical([1.0, 2.0], [1, 3])
        assert make_empirical([1.0, 2.0], [1, 3]) != make_empirical([1.0, 2.0])
        halves = MixtureDistribution(segments=(uniform(0, 1), uniform(1, 2)))
        assert halves == MixtureDistribution(
            segments=(uniform(0, 1, Fraction(1, 3)), uniform(1, 2, Fraction(1, 3)))
        )
        assert halves != MixtureDistribution(segments=(uniform(0, 1, 2), uniform(1, 2)))

    @pytest.mark.parametrize(
        "d",
        [
            make_empirical([3.0, 1.0, 3.0, -2.5]),
            make_empirical([3.0, 1.0, 3.0], [2, 5, 7]),
            make_empirical([3.0, 1.0, 3.0], ["1/3", 5, Fraction(2, 7)]),
            make_empirical([3.0, 1.0, 3.0], [Fraction(1, 3), Fraction(5, 2), Fraction(2, 7)]),
            random_mixture(GeneratorConfig(seed=11)),
            negate(random_mixture(GeneratorConfig(seed=11))),
            pushforward(random_mixture(GeneratorConfig(seed=11)), affine_map(-3.0, 0.5)),
            # cuts both segments; 1.5 and the flat parts collide at 0.3
            pushforward(
                MixtureDistribution(
                    atoms=(Atom(1.5, Fraction(1, 2)),),
                    segments=(uniform(0, 1, Fraction(1, 3)), uniform(1, 3)),
                ),
                flat_map(0.3, 2.0),
            ),
        ],
        ids=[
            "unweighted",
            "int weights",
            "exact weights",
            "Fraction weights",
            "atoms and segments",
            "negation",
            "affine image",
            "flat image",
        ],
    )
    def test_the_public_constructor_rebuilds_an_equal_mixture(self, d):
        twin = MixtureDistribution(atoms=d.atoms, segments=d.segments)
        assert twin == d and hash(twin) == hash(d)
        assert sum(a.mass for a in d.atoms) + sum(s.mass for s in d.segments) == 1
        # one count column holds every mass, normalized by its int total
        for m in (d, twin):
            assert type(m._total) is int and m._total == sum(m._counts)
            masses = [p.mass for p in m.atoms + m.segments]
            assert [Fraction(c, m._total) for c in m._counts] == masses

    @pytest.mark.parametrize("kind", EMPIRICAL_KINDS)
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_each_zero_keeps_its_own_sign(self, kind, zero):
        d = EMPIRICAL_KINDS[kind]([2.0, zero, -zero, -1.0, zero])
        sign = math.copysign(1.0, zero)
        assert [math.copysign(1.0, a.location) for a in d.atoms if a.location == 0] == [sign]
        assert math.copysign(1.0, breakpoints(d)[1]) == sign
        pair = quantile_pair(d, dist_fn(d, F_CLOSED, 0.0))
        assert math.copysign(1.0, pair.left) == sign

    @pytest.mark.parametrize("kind", EMPIRICAL_KINDS)
    def test_queries_build_no_atom(self, kind):
        d = EMPIRICAL_KINDS[kind]([2.0, 1.0, 2.0, 0.5])
        quantile_pair(d, "0.5")
        dist_fn(d, F_OPEN, 1.5)
        negate(d)
        breakpoints(d)
        describe(d)
        pushforward(d, affine_map(-3.0, 0.5))
        push = pushforward(d, flat_map(0.0, 1.5))  # 0.5 and 1.0 collide at 0.0
        # a routed value one step off an atom of the image must match it bit for bit
        direct, verdict = check_transport(push, "0.1", QuantileSide.LEFT, math.nextafter(0.0, 1.0))
        assert (direct, verdict) == (0.0, Transport.UNEQUAL)
        assert "atoms" not in vars(d) and "atoms" not in vars(push)
        assert [a.location for a in d.atoms] == [0.5, 1.0, 2.0]
        assert "atoms" in vars(d)

    def test_queries_build_no_segment(self, monkeypatch):
        d = MixtureDistribution(
            atoms=(Atom(1.5, Fraction(1, 2)), Atom(3.0, Fraction(1))),
            segments=(uniform(0, 1, Fraction(2)), uniform(1, 3, Fraction(1, 3)), uniform(-2, -1)),
        )
        built = []
        real = UniformSegment.__post_init__
        monkeypatch.setattr(UniformSegment, "__post_init__", lambda s: built.append(s) or real(s))
        quantile_pair(d, "0.5")
        quantile_pair(d, "0.3")
        dist_fn(d, F_OPEN, 0.5)
        dist_fn(d, G_CLOSED, 2.0)
        nd = negate(d)
        quantile_pair(nd, "0.7")
        breakpoints(d)
        for m in (affine_map(-3.0, 0.5), flat_map(0.5, 2.0)):
            quantile_pair(pushforward(d, m), "0.5")
        assert built == [] and "segments" not in vars(d)
        segments = d.segments  # built on first read, with normalized masses
        assert len(built) == 3
        total = Fraction(1, 2) + 1 + 2 + Fraction(1, 3) + 1
        assert segments == (
            uniform(-2, -1, 1 / total),
            uniform(0, 1, 2 / total),
            uniform(1, 3, Fraction(1, 3) / total),
        )

    @pytest.mark.parametrize("kind", EMPIRICAL_KINDS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_are_refused(self, kind, bad):
        with pytest.raises(BadValueError, match="data value must be finite"):
            EMPIRICAL_KINDS[kind]([1.0, bad, 2.0])

    def test_an_exact_weight_is_not_coerced_again(self, monkeypatch):
        calls = []
        real = distributions._exact_positive
        monkeypatch.setattr(
            distributions, "_exact_positive", lambda *args: calls.append(args[0]) or real(*args)
        )
        make_empirical([1.0, 2.0, 1.0], [3, Fraction(1, 2), 5])
        assert calls == []
        make_empirical([1.0, 2.0, 3.0], [3, "1/2", 0.25])
        assert calls == ["1/2", 0.25]
        with pytest.raises(BadWeightError, match="weight must be positive"):
            make_empirical([1.0, 2.0], [3, Fraction(-1, 2)])

    def test_a_distribution_is_immutable(self):
        d = make_empirical([1.0, 2.0])
        with pytest.raises(AttributeError):
            d.segments = ()
        with pytest.raises(AttributeError):
            del d.segments


class TestNegate:
    def test_involution(self, ph_dist, atom_in_segment):
        for d in (ph_dist, atom_in_segment):
            assert negate(negate(d)) == d

    def test_component_mirroring(self):
        d = MixtureDistribution(
            atoms=(Atom(2.0, Fraction(1, 2)),), segments=(uniform(0, 1, Fraction(1, 2)),)
        )
        nd = negate(d)
        assert [(a.location, a.mass) for a in nd.atoms] == [(-2.0, Fraction(1, 2))]
        assert [(s.lo, s.hi, s.mass) for s in nd.segments] == [(-1.0, 0.0, Fraction(1, 2))]

    def test_signed_zero_data_do_not_share_a_negation(self):
        # -0.0 == 0.0, so the two data sets are equal distributions; each
        # must still be mirrored from its own zero
        pos_zero = make_empirical([0.0, 1.0])
        neg_zero = make_empirical([-0.0, 1.0])
        assert math.copysign(1.0, negate(pos_zero).atoms[1].location) == -1.0
        assert math.copysign(1.0, negate(neg_zero).atoms[1].location) == 1.0

    def test_reverses_the_counts_over_their_common_denominator(self, monkeypatch):
        # weights 1/p over 3000 primes give the counts a ~40k-bit common
        # denominator; the negation keeps it rather than rebuilding it
        primes = first_primes(3000)
        d = MixtureDistribution(
            atoms=[Atom(float(p), Fraction(1, p)) for p in primes[::2]],
            segments=[uniform(p + 0.25, p + 0.75, Fraction(1, p)) for p in primes[1::2]],
        )

        def no_lcm(*args):
            raise AssertionError("negate rebuilt a common denominator")

        monkeypatch.setattr(distributions.math, "lcm", no_lcm)
        nd = negate(d)
        nnd = negate(nd)
        monkeypatch.undo()
        n = len(d._locs)
        assert nd._counts == d._counts[:n][::-1] + d._counts[n:][::-1]
        assert nnd == d

    def test_each_call_builds_an_equal_distribution(self, ph_dist):
        assert negate(ph_dist) == negate(ph_dist)

    @pytest.mark.parametrize("x", [4.0, 4.7336, 4.8327, 5.0, 5.6105, 6.0])
    def test_mirror_swaps_tail_functions(self, ph_dist, x):
        nd = negate(ph_dist)
        assert dist_fn(nd, F_CLOSED, -x) == dist_fn(ph_dist, G_CLOSED, x)
        assert dist_fn(nd, F_OPEN, -x) == dist_fn(ph_dist, G_OPEN, x)


class TestShapePredicates:
    def test_essential_bounds(self, ph_dist):
        assert essential_bounds(ph_dist) == (4.7336, 5.6105)
        d = MixtureDistribution(
            atoms=(Atom(5.0, Fraction(1, 2)),), segments=(uniform(-1, 3, Fraction(1, 2)),)
        )
        assert essential_bounds(d) == (-1.0, 5.0)

    @pytest.mark.parametrize("zero", [-0.0, 0.0])
    def test_essential_bounds_keep_the_atoms_signed_zero(self, zero):
        # an atom and a segment end share the zero, each with its own sign
        low = MixtureDistribution(
            atoms=(Atom(zero, Fraction(1, 2)),), segments=(uniform(-zero, 1, Fraction(1, 2)),)
        )
        high = MixtureDistribution(
            atoms=(Atom(zero, Fraction(1, 2)),), segments=(uniform(-1, -zero, Fraction(1, 2)),)
        )
        assert math.copysign(1.0, essential_bounds(low)[0]) == math.copysign(1.0, zero)
        assert math.copysign(1.0, essential_bounds(high)[1]) == math.copysign(1.0, zero)

    def test_breakpoints_cover_all_component_edges(self, atom_in_segment):
        assert breakpoints(atom_in_segment) == (0.0, 0.5, 1.0)

    def test_signed_zero_data_do_not_share_breakpoints(self):
        neg_zero = make_empirical([-0.0, 1.0])
        pos_zero = make_empirical([0.0, 1.0])
        assert math.copysign(1.0, breakpoints(neg_zero)[0]) == -1.0
        assert math.copysign(1.0, breakpoints(pos_zero)[0]) == 1.0

    def test_continuity_means_no_atoms(self, ph_dist, touching_segments):
        assert not is_continuous(ph_dist)
        assert is_continuous(touching_segments)

    def test_strict_monotonicity_witnesses(
        self, ph_dist, touching_segments, gapped_segments, atom_in_segment
    ):
        single = make_empirical([1.5])
        assert is_strictly_monotone_on_hull(touching_segments)
        assert not is_strictly_monotone_on_hull(gapped_segments)
        assert not is_strictly_monotone_on_hull(ph_dist)  # flat between atoms
        assert is_strictly_monotone_on_hull(atom_in_segment)
        assert is_strictly_monotone_on_hull(single)


class TestTypeGuards:
    @pytest.mark.parametrize(
        "flavor",
        ["left_closed", None, QuantileSide.LEFT],
        ids=["left_closed-dist_fn", "None-dist_fn", "QuantileSide.LEFT-dist_fn"],
    )
    def test_a_flavor_must_be_a_dist_fn_flavor(self, atom_in_segment, flavor):
        with pytest.raises(TypeError, match="flavor must be a DistFnFlavor"):
            dist_fn(atom_in_segment, flavor, 0.5)

    @pytest.mark.parametrize("other", [None, 1, "x", Atom(0.5, 1), (Atom(0.5, 1),)])
    def test_equality_with_a_non_mixture_is_left_to_the_other_side(self, other):
        d = make_empirical([0.5])
        assert d.__eq__(other) is NotImplemented
        assert d != other and other != d

    @pytest.mark.parametrize(
        "d",
        [
            make_empirical([3.0, -0.0, 3.0], ["1/3", 2, "0.25"]),
            MixtureDistribution(atoms=(Atom(0.5, 1),), segments=(uniform(0, 1, 3),)),
            MixtureDistribution(segments=(uniform(-1, 0), uniform(0, 2, Fraction(1, 7)))),
        ],
        ids=["atoms", "atoms and segments", "segments"],
    )
    def test_repr_names_every_part_and_rebuilds_the_mixture(self, d):
        text = repr(d)
        assert text == f"MixtureDistribution(atoms={d.atoms!r}, segments={d.segments!r})"
        names = {"MixtureDistribution": MixtureDistribution, "Atom": Atom,
                 "UniformSegment": UniformSegment, "Fraction": Fraction}
        twin = eval(text, names)
        assert twin == d and repr(twin) == text


class TestDescribe:
    def test_mentions_every_component(self, atom_in_segment):
        text = describe(atom_in_segment)
        assert "0.5" in text and "U[0, 1]" in text

    def test_total_mass_is_one(self):
        d = make_empirical([1.0, 2.0, 3.0], weights=[1, 2, 3])
        assert sum(a.mass for a in d.atoms) == 1
        assert math.isclose(float(sum(a.mass for a in d.atoms)), 1.0)
