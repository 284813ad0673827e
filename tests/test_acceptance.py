"""End-to-end acceptance: every shipped guarantee, one pass/fail line per criterion.

Criteria 4-7 share one 1000-distribution corpus (seed 42, 71 levels per
distribution).  The corpus is processed in chunks and reduced to tallies so
the full battery never holds 71k reports in memory at once.
"""

import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from dualquant import (
    GeneratorConfig,
    MixtureDistribution,
    PiecewiseMonotoneMap,
    QuantileSide,
    SmoothKind,
    SmoothMonotoneMap,
    UniformSegment,
    apply_map,
    equivariance_counterexample,
    equivariant_quantile,
    is_continuous,
    is_strictly_monotone_on_hull,
    left_quantile,
    make_empirical,
    negate,
    pow10_neg_map,
    pushforward,
    quantile_at,
    rain_csv_path,
    random_mixture,
    right_quantile,
    run_suite,
    standard_levels,
    stock_maps,
)
from dualquant.cli import main as cli_main
from dualquant.errors import (
    ContinuityMismatchError,
    MapDomainError,
    UnsupportedPushforwardError,
)

CORPUS_SEED = 42
CORPUS_SIZE = 1000
CHUNK = 100
LEVELS = standard_levels(42)
POINTWISE_IDS = set("abcdefghijk")
LEFT, RIGHT = QuantileSide.LEFT, QuantileSide.RIGHT


def _conclude(num, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} {label}: {detail}"


@pytest.fixture(scope="session")
def corpus():
    """Run the full verification battery over the shared corpus, keeping tallies only."""
    agg = SimpleNamespace(
        reports=0,
        checks=0,
        fails=Counter(),
        passes=Counter(),
        first_failure={},
        skip_records=set(),  # (check_id, level) for pointwise checks that skipped
        e_checked=0,
        e_skipped=0,
        e_short=0,  # E results whose counts do not cover the 11 maps x 2 sides
    )
    for start in range(0, CORPUS_SIZE, CHUNK):
        n = min(CHUNK, CORPUS_SIZE - start)
        reports = run_suite(GeneratorConfig(seed=CORPUS_SEED + start), n, LEVELS)
        for rep in reports:
            agg.reports += 1
            for res in rep.results:
                agg.checks += 1
                if res.passed:
                    agg.passes[res.check_id] += 1
                else:
                    agg.fails[res.check_id] += 1
                    agg.first_failure.setdefault(
                        res.check_id, (rep.distribution, rep.level, res.details)
                    )
                if res.check_id in POINTWISE_IDS and res.skipped:
                    agg.skip_records.add((res.check_id, rep.level))
                if res.check_id == "E":
                    agg.e_checked += res.checked
                    agg.e_skipped += res.skipped
                    agg.e_short += res.checked + res.skipped != 22
    return agg


class TestCriterion1:
    def test_criterion_1_sample_table_reproduction(self):
        runner = CliRunner()
        rain = str(rain_csv_path())
        cases = [
            ("pH", "0.2,0.8", ["4.8327", "5.2901"]),
            ("aH", "0.2,0.8", ["2.6724e-06", "1.41514e-05"]),
            ("pH", "0.25,0.75", ["4.8492", "5.2901"]),
            ("aH", "0.25,0.75", ["5.1274e-06", "1.41514e-05"]),
        ]
        t0 = time.perf_counter()
        mismatches = []
        for column, levels, expected in cases:
            res = runner.invoke(
                cli_main, ["quantile", rain, "--column", column, "--levels", levels]
            )
            assert res.exit_code == 0, res.stderr
            got = [line.split()[1] for line in res.stdout.strip().splitlines()[1:]]
            if got != expected:
                mismatches.append((column, levels, got, expected))
        elapsed = time.perf_counter() - t0
        _conclude(
            1,
            "bundled sample reproduces all eight percentile strings",
            not mismatches and elapsed < 1.0,
            f"4 runs in {elapsed:.3f}s" + (f"; mismatches: {mismatches}" if mismatches else ""),
        )


class TestCriterion2:
    def test_criterion_2_one_row_asymmetry_and_exact_dual_identity(self, ph_dist):
        runner = CliRunner()
        rain = str(rain_csv_path())
        res = runner.invoke(cli_main, ["symmetry", rain, "--column", "pH", "--levels", "0.2,0.8"])
        narrative_ok = (
            res.exit_code == 0
            and "direct 4.8327; via reversed scale 4.8492 -> off by 1 row (row 2 vs row 3)"
            in res.stdout
            and "direct 5.2901; via reversed scale 5.5731 -> off by 1 row (row 8 vs row 9)"
            in res.stdout
            and res.stdout.count("pass") >= 2
        )
        m = pow10_neg_map()
        pushed = pushforward(ph_dist, m)
        identity_ok = True
        for p, q in (("0.2", "0.8"), ("0.8", "0.2")):
            direct = quantile_at(pushed, p, LEFT)
            transported = apply_map(m, right_quantile(ph_dist, q))
            identity_ok &= direct == transported
            identity_ok &= equivariant_quantile(ph_dist, m, p, LEFT) == direct
        _conclude(
            2,
            "reversed-scale answers land one row off while the dual identity is exact",
            narrative_ok and identity_ok,
            f"narrative={narrative_ok} exact-identity={identity_ok}",
        )


class TestCriterion3:
    def test_criterion_3_negation_symmetry_across_corpus(self):
        t0 = time.perf_counter()
        broken = 0
        for i in range(CORPUS_SIZE):
            d = random_mixture(GeneratorConfig(seed=CORPUS_SEED + i))
            nd = negate(d)
            for p in LEVELS:
                q = 1 - p
                broken += left_quantile(d, p) != -right_quantile(nd, q)
                broken += right_quantile(d, p) != -left_quantile(nd, q)
        elapsed = time.perf_counter() - t0
        _conclude(
            3,
            "both negation-symmetry identities hold over 1000 mixtures x 71 levels",
            broken == 0 and elapsed < 30.0,
            f"{CORPUS_SIZE * len(LEVELS) * 2} identities, {broken} broken, "
            f"{elapsed:.1f}s (budget 30s)",
        )


class TestCriterion4:
    def test_criterion_4_pointwise_property_battery(self, corpus):
        fails = {cid: corpus.fails[cid] for cid in sorted(POINTWISE_IDS) if corpus.fails[cid]}
        undocumented = {
            (cid, lvl) for cid, lvl in corpus.skip_records if lvl not in (Fraction(0), Fraction(1))
        }
        ok = not fails and not undocumented and corpus.reports == CORPUS_SIZE * len(LEVELS)
        _conclude(
            4,
            "all eleven pointwise quantile properties hold corpus-wide",
            ok,
            f"{corpus.reports} reports; failures={fails or 0}; "
            f"skips only at endpoint levels={not undocumented}"
            + (f"; first={next(iter(corpus.first_failure.items()))}" if fails else ""),
        )


class TestCriterion5:
    def test_criterion_5_definitional_variants_agree(self, corpus):
        ok = corpus.fails["V"] == 0 and corpus.passes["V"] == CORPUS_SIZE * len(LEVELS)
        _conclude(
            5,
            "all six first-principles quantile variants match the closed form",
            ok,
            f"{corpus.passes['V']} agreement checks, {corpus.fails['V']} failures"
            + (f"; first={corpus.first_failure.get('V')}" if corpus.fails["V"] else ""),
        )


class TestCriterion6:
    def test_criterion_6_shape_predicates_and_witnesses(self, corpus, ph_dist):
        suite_ok = corpus.fails["V"] == 0  # flavor independence is checked per report
        touching = MixtureDistribution(
            atoms=(),
            segments=(
                UniformSegment(0.0, 1.0, Fraction(1, 2)),
                UniformSegment(1.0, 2.0, Fraction(1, 2)),
            ),
        )
        gapped = MixtureDistribution(
            atoms=(),
            segments=(
                UniformSegment(0.0, 1.0, Fraction(1, 2)),
                UniformSegment(2.0, 3.0, Fraction(1, 2)),
            ),
        )
        witness_ok = is_continuous(touching) and is_strictly_monotone_on_hull(touching)
        witness_ok &= is_continuous(gapped) and not is_strictly_monotone_on_hull(gapped)
        witness_ok &= not is_continuous(ph_dist)
        _conclude(
            6,
            "shape predicates are flavor-independent and witnesses behave",
            suite_ok and witness_ok,
            f"corpus-checks={suite_ok} witnesses={witness_ok}",
        )


class TestCriterion7:
    def test_criterion_7_equivariance_across_the_map_library(self, corpus):
        zero_failures = corpus.fails["E"] == 0
        non_vacuous = corpus.e_checked > 0
        # every report accounts for all 11 maps x 2 sides
        all_counted = (
            corpus.e_short == 0
            and corpus.e_checked + corpus.e_skipped == 22 * CORPUS_SIZE * len(LEVELS)
        )

        lib = stock_maps()
        piecewise_cells = {
            (m.direction.value, m.left_continuous, m.right_continuous)
            for _, m in lib
            if isinstance(m, PiecewiseMonotoneMap)
        }
        covers_cells = len(piecewise_cells) >= 4 and {
            kind for _, m in lib if isinstance(m, SmoothMonotoneMap) for kind in [m.kind]
        } >= {SmoothKind.POW10_NEG, SmoothKind.NEGLOG10}

        # every stock map verifies the identity on at least one concrete case
        pool = [random_mixture(GeneratorConfig(seed=CORPUS_SEED + i)) for i in range(80)]
        pool.append(make_empirical([0.25, 1.5, 3.0]))  # positive atoms: valid for every map
        per_map_hits = Counter()
        per_map_mismatch = Counter()
        for name, m in lib:
            for d in pool:
                for side in (LEFT, RIGHT):
                    for p in (Fraction(1, 4), Fraction(1, 2)):
                        try:
                            got = equivariant_quantile(d, m, p, side)
                            want = quantile_at(pushforward(d, m), p, side)
                        except (
                            ContinuityMismatchError,
                            MapDomainError,
                            UnsupportedPushforwardError,
                        ):
                            continue
                        if got == want:
                            per_map_hits[name] += 1
                        else:
                            per_map_mismatch[name] += 1
        every_map_hit = all(per_map_hits[name] >= 1 for name, _ in lib)
        no_mismatch = not per_map_mismatch

        d, m, p, direct, naive = equivariance_counterexample()
        ce_ok = (
            (direct, naive) == (0.5, 1.5)
            and quantile_at(pushforward(d, m), p, LEFT) == direct
            and apply_map(m, quantile_at(d, p, LEFT)) == naive
        )
        try:
            equivariant_quantile(d, m, p, LEFT)
            ce_refused = False
        except ContinuityMismatchError:
            ce_refused = True

        ok = (
            zero_failures
            and non_vacuous
            and all_counted
            and covers_cells
            and every_map_hit
            and no_mismatch
            and ce_ok
            and ce_refused
        )
        _conclude(
            7,
            "quantiles commute with every admissible monotone map",
            ok,
            f"corpus identities checked={corpus.e_checked} skipped={corpus.e_skipped} "
            f"short reports={corpus.e_short} "
            f"failures={corpus.fails['E']}; per-map hits={dict(per_map_hits)}; "
            f"counterexample (0.5, 1.5) refused={ce_refused}",
        )


class TestCriterion8:
    def test_criterion_8_battery_catches_an_off_by_one_quantile(self, off_by_one):
        reports = run_suite(GeneratorConfig(seed=CORPUS_SEED), 25, LEVELS[:12])
        failed_checks = sum(1 for r in reports for c in r.results if not c.passed)
        failed_reports = sum(1 for r in reports if not r.passed)
        _conclude(
            8,
            "an off-by-one left quantile (next breakpoint up) trips the battery",
            failed_checks >= 1,
            f"{failed_checks} failed checks across {failed_reports} reports",
        )
