"""The self-checking battery: scan oracle, property checks, generator, suite driver."""

from fractions import Fraction

import pytest

from dualquant import (
    Atom,
    CheckResult,
    Direction,
    GeneratorConfig,
    MixtureDistribution,
    PiecewiseMonotoneMap,
    PropertyReport,
    QuantileVariant,
    SmoothKind,
    SmoothMonotoneMap,
    UniformSegment,
    check_quantile_properties,
    check_symmetry,
    left_quantile,
    make_empirical,
    neglog10_map,
    negation_map,
    off_by_one_left_quantile,
    quantile_by_definition,
    random_mixture,
    right_quantile,
    run_suite,
    standard_levels,
    stock_maps,
)
from dualquant.verify import (
    _equivariance_results,
    first_failure,
    report_to_dict,
    reports_to_json,
    suite_passed,
    summarize,
)

LQ_VARIANTS = [v for v in QuantileVariant if v.name.startswith("LQ")]
RQ_VARIANTS = [v for v in QuantileVariant if v.name.startswith("RQ")]

ORACLE_LEVELS = [
    Fraction(0),
    Fraction(1, 20),
    Fraction(1, 5),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(9, 10),
    Fraction(1),
]


def oracle_subjects(ph_dist):
    return [
        ph_dist,
        MixtureDistribution(
            atoms=(Atom(0.0, Fraction(1, 2)),), segments=(UniformSegment(1.0, 3.0, Fraction(1, 2)),)
        ),
        MixtureDistribution(
            atoms=(),
            segments=(UniformSegment(0.0, 1.0, Fraction(1, 2)), UniformSegment(1.0, 2.0, Fraction(1, 2))),
        ),
        MixtureDistribution(
            atoms=(),
            segments=(UniformSegment(0.0, 1.0, Fraction(1, 2)), UniformSegment(2.0, 3.0, Fraction(1, 2))),
        ),
        make_empirical([1.5]),
    ]


class TestScanOracle:
    def test_every_variant_matches_the_closed_form(self, ph_dist):
        for d in oracle_subjects(ph_dist):
            for p in ORACLE_LEVELS:
                want_left = left_quantile(d, p)
                want_right = right_quantile(d, p)
                for v in LQ_VARIANTS:
                    assert quantile_by_definition(d, p, v) == want_left, (d, p, v)
                for v in RQ_VARIANTS:
                    assert quantile_by_definition(d, p, v) == want_right, (d, p, v)

    def test_there_are_three_variants_per_side(self):
        assert len(LQ_VARIANTS) == 3 and len(RQ_VARIANTS) == 3


class TestPropertyChecks:
    def test_full_battery_passes_on_rain(self, ph_dist):
        report = check_quantile_properties(ph_dist, "0.2")
        assert report.passed
        assert [r.check_id for r in report.results] == list("abcdefghijk")

    def test_endpoint_levels_document_their_skips(self, ph_dist):
        for p in (Fraction(0), Fraction(1)):
            report = check_quantile_properties(ph_dist, p)
            assert report.passed
            skips = [r for r in report.results if "skipped" in r.details]
            assert skips and all(r.check_id == "g" for r in skips)

    def test_interior_levels_skip_nothing(self, ph_dist):
        report = check_quantile_properties(ph_dist, Fraction(1, 2))
        assert not [r for r in report.results if "skipped" in r.details]

    def test_wrong_quantile_function_is_caught(self, ph_dist):
        report = check_quantile_properties(ph_dist, "0.2", lq_fn=off_by_one_left_quantile)
        assert not report.passed
        assert report.failures()

    def test_equivariance_checks_the_neglog10_boundary(self):
        # at level 1 the right side is routed from lq(0) = -inf to the
        # map's limit +inf, so both sides are checked, none skipped
        d = make_empirical([0.25, 1.5])
        (res,) = _equivariance_results(d, Fraction(1), [("neglog10", neglog10_map())])
        assert res.passed
        assert res.details == "2 identities checked, 0 skipped over 1 maps"

    def test_symmetry_battery(self, ph_dist):
        for d in oracle_subjects(ph_dist):
            for p in (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1)):
                assert check_symmetry(d, p).passed


class TestReports:
    def test_duplicate_check_ids_are_rejected(self):
        dup = (CheckResult("a", True, ""), CheckResult("a", True, ""))
        with pytest.raises(ValueError):
            PropertyReport("d", Fraction(1, 2), dup)

    def test_failures_lists_only_failed_checks(self):
        rep = PropertyReport(
            "d",
            Fraction(1, 2),
            (CheckResult("a", True, "fine"), CheckResult("b", False, "broken")),
        )
        assert not rep.passed
        assert [r.check_id for r in rep.failures()] == ["b"]


class TestGenerator:
    def test_config_defaults_are_valid(self):
        cfg = GeneratorConfig()
        assert cfg.seed == 0 and cfg.max_atoms >= 1 and cfg.max_segments >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_atoms": -1},
            {"max_atoms": 0, "max_segments": 0},
            {"location_range": (4.0, -4.0)},
            {"mass_granularity": 0},
        ],
    )
    def test_config_rejects_bad_shapes(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)

    def test_draws_are_deterministic_per_seed(self):
        assert random_mixture(GeneratorConfig(seed=3)) == random_mixture(GeneratorConfig(seed=3))
        draws = [random_mixture(GeneratorConfig(seed=i)) for i in range(20)]
        assert any(d != draws[0] for d in draws[1:])

    def test_draws_are_valid_and_inside_the_location_box(self):
        lo, hi = GeneratorConfig().location_range
        for i in range(100):
            d = random_mixture(GeneratorConfig(seed=i))
            total = sum(a.mass for a in d.atoms) + sum(s.mass for s in d.segments)
            assert total == 1
            points = [a.location for a in d.atoms] + [
                x for s in d.segments for x in (s.lo, s.hi)
            ]
            assert all(lo <= x <= hi for x in points)

    def test_edge_shapes_appear_often_enough(self):
        single = atom_free = gapped = 0
        for i in range(400):
            d = random_mixture(GeneratorConfig(seed=i))
            if len(d.atoms) == 1 and not d.segments:
                single += 1
            if not d.atoms:
                atom_free += 1
            pieces = [(a.location, a.location) for a in d.atoms] + [
                (s.lo, s.hi) for s in d.segments
            ]
            pieces.sort()
            if any(b[0] > a[1] for a, b in zip(pieces, pieces[1:])):
                gapped += 1
        assert single >= 8
        assert atom_free >= 8
        assert gapped >= 8


class TestStandardLevels:
    def test_composition(self):
        levels = standard_levels(42)
        assert len(levels) == 71
        grid = {Fraction(k, 20) for k in range(21)}
        assert grid <= set(levels)
        assert len(set(levels) - grid) == 50
        assert all(0 <= p <= 1 for p in levels)

    def test_deterministic_and_seed_sensitive(self):
        assert standard_levels(42) == standard_levels(42)
        assert standard_levels(1) != standard_levels(2)


class TestRunSuite:
    def test_small_clean_suite(self):
        levels = standard_levels(42)[:8]
        reports = run_suite(GeneratorConfig(seed=42), 5, levels)
        assert len(reports) == 5 * len(levels)
        assert suite_passed(reports)
        assert first_failure(reports) is None
        assert "0 failed" in summarize(reports)

    def test_report_serialization(self):
        reports = run_suite(GeneratorConfig(seed=7), 1, [Fraction(3, 10)])
        d = report_to_dict(reports[0])
        assert set(d) == {"distribution", "level", "level_exact", "passed", "results"}
        assert d["level"] == 0.3 and d["level_exact"] == "3/10"
        assert {r["id"] for r in d["results"]} >= set("abcdefghijk") | {"S", "V", "E"}
        blob = reports_to_json(reports)
        assert set(blob) == {"total_reports", "failed_reports", "all_passed", "reports"}
        assert blob["all_passed"] and blob["failed_reports"] == 0

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            run_suite(GeneratorConfig(), 0, [Fraction(1, 2)])

    def test_map_library_can_be_narrowed(self):
        reports = run_suite(
            GeneratorConfig(seed=9), 2, [Fraction(1, 2)], maps=[("negation", negation_map())]
        )
        assert suite_passed(reports)


class TestMutationSensitivity:
    def test_off_by_one_moves_to_the_next_breakpoint(self, ph_dist):
        assert left_quantile(ph_dist, "0.2") == 4.8327
        assert off_by_one_left_quantile(ph_dist, "0.2") == 4.8492

    def test_suite_catches_the_mutation(self):
        levels = standard_levels(42)[:10]
        reports = run_suite(GeneratorConfig(seed=42), 6, levels, lq_fn=off_by_one_left_quantile)
        assert not suite_passed(reports)
        found = first_failure(reports)
        assert found is not None
        report, check = found
        assert not check.passed and check.details


class TestStockMaps:
    def test_library_composition(self):
        lib = stock_maps()
        assert len(lib) == 11
        piecewise = [m for _, m in lib if isinstance(m, PiecewiseMonotoneMap)]
        cells = {
            (m.direction, m.is_left_continuous(), m.is_right_continuous()) for m in piecewise
        }
        # every direction x one-sided-continuity combination is exercised
        assert (Direction.NON_DECREASING, True, False) in cells
        assert (Direction.NON_DECREASING, False, True) in cells
        assert (Direction.NON_INCREASING, True, False) in cells
        assert (Direction.NON_INCREASING, False, True) in cells
        smooth_kinds = {m.kind for _, m in lib if isinstance(m, SmoothMonotoneMap)}
        assert {SmoothKind.POW10_NEG, SmoothKind.NEGLOG10} <= smooth_kinds

    def test_names_are_unique(self):
        names = [n for n, _ in stock_maps()]
        assert len(names) == len(set(names))



class TestLevelFreeChecksOncePerMixture:
    """`run_suite` computes the checks no level changes (h, j, the fixed
    levels of i) once per mixture; each report must still read exactly
    as `check_quantile_properties` computes it for that one level."""

    @pytest.mark.parametrize("lq_fn", [left_quantile, off_by_one_left_quantile])
    def test_suite_reports_match_single_level_batteries(self, lq_fn):
        failing = set()
        for seed in (0, 11, 42):
            levels = standard_levels(seed)
            reports = run_suite(GeneratorConfig(seed=seed), 4, levels, lq_fn=lq_fn)
            for i in range(4):
                d = random_mixture(GeneratorConfig(seed=seed + i))
                for report in reports[i * len(levels) : (i + 1) * len(levels)]:
                    alone = check_quantile_properties(d, report.level, lq_fn=lq_fn)
                    assert report.results[:11] == alone.results, (seed + i, report.level)
                    failing |= {r.check_id for r in alone.failures()}
        if lq_fn is off_by_one_left_quantile:
            assert failing & {"h", "i", "j"}
        else:
            assert not failing

    @pytest.mark.parametrize("p, size", [(Fraction(3, 10), 11), (Fraction(1, 3), 12)])
    def test_monotonicity_grid_holds_the_level_itself(self, ph_dist, p, size):
        (i_check,) = [r for r in check_quantile_properties(ph_dist, p).results if r.check_id == "i"]
        assert i_check.details == f"both quantile functions non-decreasing over {size} levels"
