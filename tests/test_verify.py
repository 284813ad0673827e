"""The self-checking battery: scan oracle, property checks, generator, suite driver."""

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import signal
import threading
from fractions import Fraction

import pytest
from cli_runner import CliRunner

import dualquant.verify
from dualquant import (
    Atom,
    CheckResult,
    Direction,
    DistFnFlavor,
    GeneratorConfig,
    MixtureDistribution,
    PiecewiseMonotoneMap,
    PropertyReport,
    QuantileVariant,
    SmoothKind,
    SmoothMonotoneMap,
    UniformSegment,
    breakpoints,
    check_quantile_properties,
    check_symmetry,
    describe,
    dist_fn,
    left_quantile,
    make_empirical,
    negate,
    neglog10_map,
    quantile_by_definition,
    random_mixture,
    right_quantile,
    run_suite,
    standard_levels,
    stock_maps,
)
from dualquant.cli import main as cli_main
from dualquant.errors import BadValueError
from dualquant.verify import (
    _candidate_table,
    _candidates,
    _equivariance_results,
    _pushforwards,
    _shape_witnesses,
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

    @pytest.mark.parametrize("variant", ["lq_closed_inf", None, DistFnFlavor.LEFT_CLOSED])
    def test_a_variant_must_be_a_quantile_variant(self, ph_dist, variant):
        with pytest.raises(TypeError, match="variant must be a QuantileVariant"):
            quantile_by_definition(ph_dist, "0.5", variant)


def reference_fixed_cells(d):
    # hull probes, breakpoints and midpoints, each with P(X<=x) and P(X<x)
    bps = breakpoints(d)
    xs = [Fraction(bps[0]) - 1]
    for i, b in enumerate(bps):
        xs.append(Fraction(b))
        if i + 1 < len(bps):
            xs.append((Fraction(b) + Fraction(bps[i + 1])) / 2)
    xs.append(Fraction(bps[-1]) + 1)
    return {
        x: (dist_fn(d, DistFnFlavor.LEFT_CLOSED, x), dist_fn(d, DistFnFlavor.LEFT_OPEN, x))
        for x in xs
    }


def reference_candidates(d, p, fixed):
    """The candidate grid built the plain way: a dict of the fixed cells,
    every interval's crossing of level p added, then sorted."""
    cells = dict(fixed)
    bps = breakpoints(d)
    for i in range(len(bps) - 1):
        a, b = Fraction(bps[i]), Fraction(bps[i + 1])
        fca = cells[a][0]
        fob = cells[b][1]
        gain = fob - fca
        if gain > 0:
            t = a + (p - fca) * (b - a) / gain
            if a < t < b:
                cells[t] = (
                    dist_fn(d, DistFnFlavor.LEFT_CLOSED, t),
                    dist_fn(d, DistFnFlavor.LEFT_OPEN, t),
                )
    return [(x, fc, fo) for x, (fc, fo) in sorted(cells.items())]


def assert_grid_matches_reference(d, levels):
    fixed = reference_fixed_cells(d)
    table = _candidate_table(d)
    for p in levels:
        grid = _candidates(d, table, p)
        assert grid.cells == reference_candidates(d, p, fixed), (d, p)
        for signs, col in ((grid.closed, 1), (grid.open, 2)):
            assert signs == [(c[col] > p) - (c[col] < p) for c in grid.cells], (d, p)


SEG = UniformSegment


class TestCandidateGrid:
    """The stored grid with one crossing merged per interval gives the
    cells of the dict-and-sort reference, in the same order."""

    def test_corpus_mixtures_and_their_negations(self):
        levels = standard_levels()
        for seed in range(200):
            d = random_mixture(GeneratorConfig(seed=seed))
            assert_grid_matches_reference(d, levels)
            assert_grid_matches_reference(negate(d), [1 - p for p in levels])

    @pytest.mark.parametrize(
        "d, p, added",
        [
            # the crossing lands exactly on the interval's midpoint
            (MixtureDistribution(segments=(SEG(0.0, 2.0, Fraction(1)),)), Fraction(1, 2), []),
            # p equals F at a breakpoint: no interval crosses it
            (
                MixtureDistribution(
                    atoms=(Atom(0.0, Fraction(1, 2)),), segments=(SEG(1.0, 3.0, Fraction(1, 2)),)
                ),
                Fraction(1, 2),
                [],
            ),
            # an atom on a segment's end; the crossing sits left of the midpoint
            (
                MixtureDistribution(
                    atoms=(Atom(1.0, Fraction(1, 4)),), segments=(SEG(0.0, 1.0, Fraction(3, 4)),)
                ),
                Fraction(1, 4),
                [Fraction(1, 3)],
            ),
            # ... and inside the atom's jump nothing crosses
            (
                MixtureDistribution(
                    atoms=(Atom(1.0, Fraction(1, 4)),), segments=(SEG(0.0, 1.0, Fraction(3, 4)),)
                ),
                Fraction(7, 8),
                [],
            ),
            # a gapped support: the massless gap has no crossing
            (
                MixtureDistribution(
                    segments=(SEG(0.0, 1.0, Fraction(1, 2)), SEG(2.0, 3.0, Fraction(1, 2)))
                ),
                Fraction(1, 2),
                [],
            ),
            (
                MixtureDistribution(
                    segments=(SEG(0.0, 1.0, Fraction(1, 2)), SEG(2.0, 3.0, Fraction(1, 2)))
                ),
                Fraction(5, 6),
                [Fraction(8, 3)],
            ),
        ],
    )
    def test_hand_cases(self, d, p, added):
        fixed = reference_fixed_cells(d)
        xs = [c[0] for c in _candidates(d, _candidate_table(d), p).cells]
        assert sorted(set(xs) - set(fixed)) == added
        assert_grid_matches_reference(d, [p, *standard_levels()])


class TestVerifierStoresNothing:
    def test_checks_leave_only_the_library_memos_on_a_mixture(self):
        d = random_mixture(GeneratorConfig(seed=7))
        p = Fraction(1, 3)
        quantile_by_definition(d, p, QuantileVariant.LQ_CLOSED_INF)
        check_quantile_properties(d, p)
        check_symmetry(d, p)
        assert set(vars(d)) == {
            "_locs", "_los", "_his", "_counts", "_total",
            "_tables", "_profile", "_breakpoints",
        }


class TestSymmetryCheck:
    def test_builds_no_grid_of_the_checked_mixture(self):
        # check S reads lq and rq of d and the oracle's grid of -d only
        d = random_mixture(GeneratorConfig(seed=7))
        report = check_symmetry(d, Fraction(1, 3))
        assert report.passed and [r.check_id for r in report.results] == ["S"]
        assert "_tables" not in vars(d)


class TestPropertyChecks:
    def test_full_battery_passes_on_rain(self, ph_dist):
        report = check_quantile_properties(ph_dist, "0.2")
        assert report.passed
        assert [r.check_id for r in report.results] == list("abcdefghijk")

    def test_endpoint_levels_document_their_skips(self, ph_dist):
        for p in (Fraction(0), Fraction(1)):
            report = check_quantile_properties(ph_dist, p)
            assert report.passed
            skips = [(r.check_id, r.checked, r.skipped) for r in report.results if r.skipped]
            assert skips == [("g", 0, 1)]

    def test_interior_levels_skip_nothing(self, ph_dist):
        report = check_quantile_properties(ph_dist, Fraction(1, 2))
        assert not [r for r in report.results if r.skipped]

    def test_wrong_quantile_function_is_caught(self, ph_dist, off_by_one):
        report = check_quantile_properties(ph_dist, "0.2")
        assert not report.passed
        assert report.failures()

    def test_equivariance_checks_the_neglog10_boundary(self):
        # at level 1 the right side is routed from lq(0) = -inf to the
        # map's limit +inf, so both sides are checked, none skipped
        d = make_empirical([0.25, 1.5])
        images = _pushforwards(d, [("neglog10", neglog10_map())])
        (res,) = _equivariance_results(d, Fraction(1), images)
        assert res.passed
        assert res.details == "2 identities checked, 0 skipped over 1 maps"
        assert res.checked == 2 and res.skipped == 0

    def test_equivariance_failure_names_three_transports(self, monkeypatch):
        # every finite routed value one too high: each identity E checks
        # fails, its counts still cover 11 maps x 2 sides, and the details
        # name the first three failures
        routed = dualquant.verify.equivariant_quantile

        def one_too_high(d, m, p, side):
            x = routed(d, m, p, side)
            return x if isinstance(x, float) and math.isinf(x) else x + 1

        monkeypatch.setattr(dualquant.verify, "equivariant_quantile", one_too_high)
        d = random_mixture(GeneratorConfig(seed=42))
        (res,) = _equivariance_results(d, Fraction(1, 2), _pushforwards(d, stock_maps()))
        assert not res.passed
        assert res.checked + res.skipped == 22
        head = f"{res.checked} identities checked, {res.skipped} skipped over 11 maps; "
        assert res.details.startswith(head)
        clauses = res.details[len(head):].split("; ")
        assert len(clauses) == 3
        for clause in clauses:
            assert re.fullmatch(r"[\w-]+/(left|right): direct \S+ != routed \S+", clause), clause

    def test_a_pushforward_that_raises_fails_E_at_every_level(self, monkeypatch):
        # any exception but the two that mean "not applicable" is a defect:
        # E fails naming the map, counts its two sides as checked, and
        # neither run_suite nor the command raises
        push = dualquant.verify.pushforward
        jump = dict(stock_maps())["nd_jump_left"]
        levels = standard_levels(42)[::10]
        want = run_suite(GeneratorConfig(seed=42), 2, levels)

        def overlapping(d, m):
            if m == jump:
                raise BadValueError("segments [-1.25, 2.75] and [2.75, 3.75] overlap")
            return push(d, m)

        monkeypatch.setattr(dualquant.verify, "pushforward", overlapping)
        raised = "nd_jump_left: pushforward raised BadValueError: segments [-1.25, 2.75] and "
        d = random_mixture(GeneratorConfig(seed=42))
        # its right side is never claimed, as the map is not right-continuous
        (e,) = _equivariance_results(d, Fraction(1, 2), _pushforwards(d, [("nd_jump_left", jump)]))
        assert not e.passed and (e.checked, e.skipped) == (2, 0)
        assert e.details.startswith("2 identities checked, 0 skipped over 1 maps; " + raised)
        reports = run_suite(GeneratorConfig(seed=42), 2, levels)
        for got, base in zip(reports, want):
            (e,) = [c for c in got.results if c.check_id == "E"]
            assert not e.passed and "; " + raised in e.details
            assert [c for c in got.results if c.check_id != "E"] == [
                c for c in base.results if c.check_id != "E"
            ]
        res = CliRunner().invoke(cli_main, ["verify", "--n", "2"])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("first failure: [E] ")
        assert "nd_jump_left: pushforward raised BadValueError" in res.stderr

    def test_a_routing_that_raises_fails_E_and_does_not_crash(self, monkeypatch):
        # a transported quantile or a verdict that raises is a defect too:
        # E fails naming the map and side, which count as checked, and
        # neither run_suite nor the command raises
        route, judge = dualquant.verify.equivariant_quantile, dualquant.verify.check_transport
        maps = dict(stock_maps())
        up, down = maps["affine_up"], maps["affine_down"]
        levels = standard_levels(42)[::10]
        want = run_suite(GeneratorConfig(seed=42), 2, levels)
        routing = []  # the map of the transport check in progress

        def routed(d, m, p, side):
            routing[:] = [m]
            if m == up:
                raise KeyError("affine_up")
            return route(d, m, p, side)

        def judged(push, p, side, routed):
            if routing[0] == down:
                raise ZeroDivisionError("no verdict")
            return judge(push, p, side, routed)

        monkeypatch.setattr(dualquant.verify, "equivariant_quantile", routed)
        monkeypatch.setattr(dualquant.verify, "check_transport", judged)
        named = (
            "; affine_up/left: raised KeyError: 'affine_up'; "
            "affine_up/right: raised KeyError: 'affine_up'; "
            "affine_down/left: raised ZeroDivisionError: no verdict"
        )
        d = random_mixture(GeneratorConfig(seed=42))
        (e,) = _equivariance_results(d, Fraction(1, 2), _pushforwards(d, [("affine_down", down)]))
        assert not e.passed and (e.checked, e.skipped) == (2, 0)
        assert e.details.endswith("affine_down/right: raised ZeroDivisionError: no verdict")
        reports = run_suite(GeneratorConfig(seed=42), 2, levels)
        assert len(reports) == len(want)
        for got, base in zip(reports, want):
            (e,) = [c for c in got.results if c.check_id == "E"]
            assert not e.passed and e.details.endswith(named)
            assert [c for c in got.results if c.check_id != "E"] == [
                c for c in base.results if c.check_id != "E"
            ]
        res = CliRunner().invoke(cli_main, ["verify", "--n", "2"])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.stderr.startswith("first failure: [E] ")
        assert "affine_up/left: raised KeyError" in res.stderr
        assert "Traceback" not in res.output + res.stderr
        # an interrupt is no defect of the battery's: it passes through
        def interrupted(*args):
            raise _Stop

        monkeypatch.setattr(dualquant.verify, "check_transport", interrupted)
        with pytest.raises(_Stop):
            _equivariance_results(d, Fraction(1, 2), _pushforwards(d, [("affine_down", down)]))

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
        assert cfg.seed == 0 and cfg.location_range == (-4.0, 4.0)
        assert [f.name for f in dataclasses.fields(cfg)] == ["seed", "location_range"]

    def test_config_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GeneratorConfig(location_range=(4.0, -4.0))

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

    @pytest.mark.parametrize(
        "location_range",
        [(-1.7e308, 1.7e308), (1e-310, 3e-310), (1e15, 1e15 + 4096.3)],
        ids=["float-limits", "subnormal", "far-from-origin"],
    )
    def test_draws_reach_every_float_scale(self, location_range):
        lo, hi = location_range
        for i in range(50):
            d = random_mixture(GeneratorConfig(seed=i, location_range=location_range))
            assert all(lo <= x <= hi for x in breakpoints(d))

    @pytest.mark.parametrize(
        "location_range, seeds, digest",
        [
            (
                (-4.0, 4.0),
                2000,
                "4b298fde75505b51069f6ed40fdeeb08d437b8f0b537a9bcc3c1aba737f84d2c",
            ),
            (
                (-1.7e308, 1.7e308),
                200,
                "274f94928e606a7a13d51de63aac5a41021bd0e03ad4560e24a71c434675c63d",
            ),
            (
                (1e-310, 3e-310),
                200,
                "c11a27f1d9936b632ad53a84cc70505349385fc5b49eecc7cd0e3bbdeb983ac3",
            ),
            (
                (1e15, 1e15 + 4096.3),
                200,
                "3ddfd5de5ae9094b38b281da9ced6f857813665c29bc4db53ef819d2a71174cf",
            ),
        ],
        ids=["default", "float-limits", "subnormal", "far-from-origin"],
    )
    def test_the_corpus_is_frozen(self, location_range, seeds, digest):
        # every mixture of every generator mode, bit for bit: a change to
        # the generator that moves one location or mass changes the digest
        text = "\n".join(
            repr(random_mixture(GeneratorConfig(seed=i, location_range=location_range)))
            for i in range(seeds)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_lattice_points_are_exact_interpolations(self):
        lat = dualquant.verify._lattice(GeneratorConfig(location_range=(-1.7e308, 1.7e308)))
        assert lat[0] == -1.7e308 and lat[16] == 0.0 and lat[-1] == 1.7e308
        assert dualquant.verify._lattice(GeneratorConfig()) == [-4.0 + k / 4 for k in range(33)]

    def test_a_range_too_narrow_for_distinct_lattice_points_is_refused(self):
        with pytest.raises(ValueError, match="distinct"):
            GeneratorConfig(location_range=(0.0, 5e-323))

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
        for r in reports:
            (e,) = [c for c in r.results if c.check_id == "E"]
            assert e.checked + e.skipped == 22
            assert e.details == f"{e.checked} identities checked, {e.skipped} skipped over 11 maps"

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


class TestGoldenReports:
    """The JSON of two suites, digested at the commit before the oracle's
    grid became a stored table with one crossing merged per level; any
    change in a check's result or its details text changes the digest."""

    @pytest.mark.parametrize(
        "seed, mutated, digest",
        [
            (42, False, "a9d5e643ac7303a4c1175628de46dda2d1b9bbc7040a3ef4e36b1db2cd544e63"),
            (3, True, "012637e9dcaef6c7ca157ac5a731c085f4eb499db363e38c995a362dbe891518"),
        ],
        ids=["seed42", "seed3-off-by-one"],
    )
    def test_report_digest(self, request, seed, mutated, digest):
        if mutated:
            request.getfixturevalue("off_by_one")
        reports = run_suite(GeneratorConfig(seed=seed), 5, standard_levels(seed))
        text = json.dumps(reports_to_json(reports), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class _Stop(BaseException):
    """An interrupt that no `except Exception` in the battery catches."""


@contextlib.contextmanager
def within(seconds):
    """Fail the block, instead of hanging the run, if it takes too long."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def raising_on(seed, failing):
    """A left quantile that raises ValueError("boom <i>") on mixture i of
    the corpus from ``seed`` for each i in ``failing``."""
    labels = {describe(random_mixture(GeneratorConfig(seed=seed + i))): i for i in failing}

    def lq(d, p):
        i = labels.get(describe(d))
        if i is not None:
            raise ValueError(f"boom {i}")
        return left_quantile(d, p)

    return lq


@pytest.mark.skipif(not hasattr(os, "fork"), reason="run_suite runs serially without os.fork")
class TestShardedSuite:
    """`run_suite` deals its mixtures over the CPUs the process may use;
    the reports read as a serial run's, and no child outlives a call."""

    LEVELS = standard_levels(5)[::6]

    @pytest.fixture
    def cpus(self, monkeypatch):
        def use(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

        return use

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children `run_suite` forks."""
        pids, fork = [], os.fork

        def counting():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting)
        return pids

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("mutated", [False, True], ids=["None", "off_by_one_left_quantile"])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_sharded_reports_equal_serial(self, request, cpus, forks, n, mutated):
        if mutated:
            request.getfixturevalue("off_by_one")
        runs = {}
        for n_cpus in (1, 2, 3, 4):
            cpus(n_cpus)
            with within(120):
                reports = run_suite(GeneratorConfig(seed=5), n, self.LEVELS)
            self.assert_no_child_left()
            runs[n_cpus] = json.dumps(reports_to_json(reports), indent=2)
        assert len(json.loads(runs[1])["reports"]) == n * len(self.LEVELS)
        assert runs[2] == runs[1] and runs[3] == runs[1] and runs[4] == runs[1]
        assert len(forks) == sum(min(n, n_cpus) - 1 for n_cpus in runs)

    @pytest.mark.parametrize(
        "failing, raised",
        [({5}, "boom 5"), ({4, 5}, "boom 4"), ({3, 4}, "boom 3"), ({1, 3}, "boom 1")],
        ids=["last-share", "two-children", "caller-first", "child-first"],
    )
    def test_the_first_failure_in_seed_order_reaches_the_caller(
        self, cpus, fake_left_quantile, failing, raised
    ):
        # with 3 CPUs, mixtures 0 and 3 are checked here, 1 and 4 in the
        # first child, 2 and 5 in the second
        fake_left_quantile(raising_on(17, failing))
        for n_cpus in (1, 3):
            cpus(n_cpus)
            with within(120), pytest.raises(ValueError, match=f"^{raised}$"):
                run_suite(GeneratorConfig(seed=17), 6, self.LEVELS)
            self.assert_no_child_left()

    def test_a_child_that_dies_is_an_error(self, cpus, fake_left_quantile):
        caller = os.getpid()

        def lq(d, p):
            if os.getpid() != caller:
                os._exit(3)
            return left_quantile(d, p)

        fake_left_quantile(lq)
        cpus(2)
        with within(120), pytest.raises(RuntimeError, match="exited without a result"):
            run_suite(GeneratorConfig(seed=17), 2, self.LEVELS)
        self.assert_no_child_left()

    def test_a_caller_with_threads_runs_serially(self, cpus, monkeypatch):
        cpus(2)
        want = run_suite(GeneratorConfig(seed=17), 2, self.LEVELS)

        def refuse():
            raise AssertionError("forked beside a live thread")

        monkeypatch.setattr(os, "fork", refuse)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            assert run_suite(GeneratorConfig(seed=17), 2, self.LEVELS) == want
        finally:
            release.set()
            other.join(60)
        assert not other.is_alive()

    def test_an_interrupt_here_stops_the_children(self, cpus, fake_left_quantile):
        # the caller's share is interrupted at once; the children, still
        # checking theirs, are stopped and reaped before the interrupt leaves
        caller = os.getpid()

        def lq(d, p):
            if os.getpid() == caller:
                raise _Stop
            return left_quantile(d, p)

        fake_left_quantile(lq)
        cpus(3)
        with within(120), pytest.raises(_Stop):
            run_suite(GeneratorConfig(seed=17), 30, standard_levels(17))
        self.assert_no_child_left()


class TestMutationSensitivity:
    def test_off_by_one_moves_to_the_next_breakpoint(self, ph_dist, off_by_one):
        assert left_quantile(ph_dist, "0.2") == 4.8327
        assert off_by_one(ph_dist, "0.2") == 4.8492

    def test_suite_catches_the_mutation(self, off_by_one):
        levels = standard_levels(42)[:10]
        reports = run_suite(GeneratorConfig(seed=42), 6, levels)
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
            (m.direction, m.left_continuous, m.right_continuous) for m in piecewise
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
    levels of i) and the pushforwards once per mixture, and lq, rq and
    the oracle's grids once per level; each report must still read
    exactly as the checks compute it alone for that one level."""

    @pytest.mark.parametrize(
        "mutated", [False, True], ids=["left_quantile", "off_by_one_left_quantile"]
    )
    def test_suite_reports_match_single_level_batteries(self, request, mutated):
        if mutated:
            request.getfixturevalue("off_by_one")
        failing = set()
        for seed in (0, 11, 42):
            levels = standard_levels(seed)
            reports = run_suite(GeneratorConfig(seed=seed), 4, levels)
            for i in range(4):
                d = random_mixture(GeneratorConfig(seed=seed + i))
                for report in reports[i * len(levels) : (i + 1) * len(levels)]:
                    alone = check_quantile_properties(d, report.level)
                    assert report.results[:11] == alone.results, (seed + i, report.level)
                    failing |= {r.check_id for r in alone.failures()}
        if mutated:
            assert failing & {"h", "i", "j"}
        else:
            assert not failing

    @pytest.mark.parametrize("p, size", [(Fraction(3, 10), 11), (Fraction(1, 3), 12)])
    def test_monotonicity_grid_holds_the_level_itself(self, ph_dist, p, size):
        (i_check,) = [r for r in check_quantile_properties(ph_dist, p).results if r.check_id == "i"]
        assert i_check.details == f"both quantile functions non-decreasing over {size} levels"

    def test_suite_symmetry_and_equivariance_match_fresh_runs(self):
        # S as `check_symmetry` computes it at that one level, and E on
        # images pushed afresh, through freshly built maps, for each level
        for seed in (5, 23):
            levels = standard_levels(seed)
            reports = run_suite(GeneratorConfig(seed=seed), 4, levels)
            for i in range(4):
                d = random_mixture(GeneratorConfig(seed=seed + i))
                for report in reports[i * len(levels) : (i + 1) * len(levels)]:
                    p = report.level
                    by_id = {r.check_id: r for r in report.results}
                    (alone,) = check_symmetry(d, p).results
                    assert by_id["S"] == alone, (seed + i, p)
                    (fresh,) = _equivariance_results(d, p, _pushforwards(d, stock_maps()))
                    assert by_id["E"] == fresh, (seed + i, p)


def reference_shape_witnesses(d):
    """Check V's shape witnesses from `dist_fn` directly: a jump where
    P(X<=b) != P(X<b) at a breakpoint b, a gap where P(a < X < b) is 0
    between consecutive breakpoints."""
    bps = breakpoints(d)
    has_jump = any(
        dist_fn(d, DistFnFlavor.LEFT_CLOSED, b) != dist_fn(d, DistFnFlavor.LEFT_OPEN, b)
        for b in bps
    )
    has_gap = any(
        dist_fn(d, DistFnFlavor.LEFT_OPEN, b) - dist_fn(d, DistFnFlavor.LEFT_CLOSED, a) == 0
        for a, b in zip(bps, bps[1:])
    )
    ok_cont = dualquant.verify.is_continuous(d) == (not has_jump)
    ok_mono = dualquant.verify.is_strictly_monotone_on_hull(d) == (not has_gap)
    return ok_cont, ok_mono


WITNESS_CASES = [
    # touching segments
    MixtureDistribution(segments=(SEG(0.0, 1.0, Fraction(1, 3)), SEG(1.0, 2.5, Fraction(2, 3)))),
    # a gapped mixture
    MixtureDistribution(segments=(SEG(0.0, 1.0, Fraction(1, 2)), SEG(2.0, 3.0, Fraction(1, 2)))),
    # a single atom
    MixtureDistribution(atoms=(Atom(-0.0, Fraction(1)),)),
    # an atom on a segment's end
    MixtureDistribution(atoms=(Atom(1.0, Fraction(1, 4)),), segments=(SEG(0.0, 1.0, Fraction(3, 4)),)),
]


def witness_subjects():
    for seed in range(200):
        d = random_mixture(GeneratorConfig(seed=seed))
        yield d
        yield negate(d)
    yield from WITNESS_CASES


class TestShapeWitnesses:
    """Check V reads jumps and gaps off the grid `run_suite` already holds."""

    def test_reads_the_grid_without_calling_dist_fn(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return dist_fn(*args)

        for d in witness_subjects():
            grid = _candidate_table(d)
            monkeypatch.setattr(dualquant.verify, "dist_fn", counting)
            _shape_witnesses(d, grid)
            monkeypatch.undo()
        assert calls == []

    def test_matches_the_dist_fn_definitions(self):
        for d in witness_subjects():
            assert _shape_witnesses(d, _candidate_table(d)) == reference_shape_witnesses(d), d

    def test_finds_the_same_jumps_and_gaps(self, monkeypatch):
        # with both shape predicates answering True, each flag of the pair
        # reads "no jump" and "no gap", so the pair shows the witnesses
        monkeypatch.setattr(dualquant.verify, "is_continuous", lambda d: True)
        monkeypatch.setattr(dualquant.verify, "is_strictly_monotone_on_hull", lambda d: True)
        seen = set()
        for d in witness_subjects():
            pair = _shape_witnesses(d, _candidate_table(d))
            assert pair == reference_shape_witnesses(d), d
            seen.add(pair)
        assert seen == {(True, True), (True, False), (False, True), (False, False)}
