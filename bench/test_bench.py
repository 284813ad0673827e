"""Tests of the benchmark's own reference, checkers and contract.

    python -m pytest bench -q

The smoke runs start the real CLI on tiny inputs, so they need the
package sources under src/ and take a few seconds each.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads
from workloads import NEG_INF, POS_INF, ExactCDF, same_answer

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def brute_force(values, weights, p):
    """Quantiles read straight off their definitions by scanning."""
    weights = weights or [1] * len(values)
    total = sum(weights)

    def F(x):
        return Fraction(sum(w for v, w in zip(values, weights) if v <= x), total)

    xs = sorted(set(values))
    lq = min((x for x in xs if F(x) >= p), default=POS_INF) if p > 0 else NEG_INF
    rq = min((x for x in xs if F(x) > p), default=POS_INF)
    return lq, rq


class TestExactCDF:
    def test_ties_pool_their_weight_and_flat_stretches_split_the_pair(self):
        ref = ExactCDF([2.0, 1.0, 3.0, 2.0], [1, 1, 4, 2])  # masses 1/8, 3/8, 1/2
        assert (ref.left(Fraction(1, 8)), ref.right(Fraction(1, 8))) == (1.0, 2.0)
        assert (ref.left(Fraction(1, 2)), ref.right(Fraction(1, 2))) == (2.0, 3.0)
        assert ref.left(Fraction(3, 10)) == ref.right(Fraction(3, 10)) == 2.0

    def test_end_levels(self):
        ref = ExactCDF([5.0, -1.5, 2.25])
        assert (ref.left(Fraction(0)), ref.right(Fraction(0))) == (NEG_INF, -1.5)
        assert (ref.left(Fraction(1)), ref.right(Fraction(1))) == (5.0, POS_INF)

    def test_unweighted_multiples_of_one_row_sit_on_flat_stretches(self):
        values = [0.5, 0.1, 0.4, 0.3]
        ref = ExactCDF(values)
        for j, (lo, hi) in enumerate([(0.1, 0.3), (0.3, 0.4), (0.4, 0.5)], start=1):
            assert (ref.left(Fraction(j, 4)), ref.right(Fraction(j, 4))) == (lo, hi)

    def test_agrees_with_the_definitions_on_random_weighted_ties(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 9)
            values = [rng.choice((-2.0, -0.5, 0.0, 1.25, 3.0, 7.5)) for _ in range(n)]
            weights = [rng.randint(1, 5) for _ in range(n)] if rng.random() < 0.5 else None
            total = sum(weights) if weights else n
            ref = ExactCDF(values, weights)
            levels = {Fraction(k, total) for k in range(total + 1)}
            levels |= {Fraction(rng.randint(0, 97), 97) for _ in range(5)}
            for p in levels:
                assert (ref.left(p), ref.right(p)) == brute_force(values, weights, p)


def test_same_answer_is_bit_for_bit():
    assert same_answer(1.5, 1.5)
    assert not same_answer(-0.0, 0.0)
    assert not same_answer(0.1 + 0.2, 0.3)
    assert same_answer("+inf", POS_INF) and same_answer("-inf", NEG_INF)
    assert not same_answer(float("inf"), POS_INF)  # JSON renders infinities as words
    assert not same_answer(True, 1.0)
    assert not same_answer(None, 1.0)


def test_query_levels_span_the_unit_interval_and_half_are_flat():
    n = 1000
    values = [float(i) for i in range(n)]
    ref = ExactCDF(values)
    levels = workloads.query_levels(n)
    assert len(levels) == 16 and all(0 < p < 1 for p in levels)
    assert min(levels) < Fraction(1, 8) and max(levels) > Fraction(7, 8)
    assert sum(ref.left(p) < ref.right(p) for p in levels) == 8


def test_quantile_checker_counts_wrong_and_missing_answers():
    levels = (Fraction(0), Fraction(1, 2), Fraction(1))
    check = workloads._quantile_checker(levels, ExactCDF([1.0, 2.0]))
    rows = [{"left": "-inf", "right": 1.0}, {"left": 1.0, "right": 2.0},
            {"left": 2.0, "right": "+inf"}]
    assert check(0, json.dumps({"rows": rows})) == 0
    rows[1]["right"] = 1.0
    assert check(0, json.dumps({"rows": rows})) == 1
    assert check(0, json.dumps({"rows": rows[:2]})) == 3
    assert check(0, "not json") == 6
    assert check(3, json.dumps({"rows": rows})) == 6


def test_verify_checker_needs_exit_0_and_the_exact_check_total():
    check = workloads.verify_checker(2)
    ok = "2 mixtures x 71 levels -> 142 reports, 1988 checks: 0 failed checks in 0 reports"
    assert check(0, ok) == 0
    assert check(1, ok.replace(": 0 failed", ": 3 failed")) == 1988
    assert check(0, ok.replace(": 0 failed", ": 3 failed")) == 3
    assert check(0, ok.replace("1988 checks", "1987 checks")) == 1988
    assert check(0, "") == 1988


@pytest.fixture
def small_inputs(monkeypatch):
    """Shrinks every workload to a few hundred rows or one mixture."""
    monkeypatch.setattr(workloads, "LOAD_ROWS", 2400)
    monkeypatch.setattr(workloads, "QUERY_ROWS", 320)
    monkeypatch.setattr(workloads, "VERIFY_MIXTURES", 1)


def test_generated_inputs_depend_only_on_the_seed(tmp_path, small_inputs):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for name in ("load-tied-weighted", "query-distinct"):
        wa = workloads.build(name, 3, a)
        wb = workloads.build(name, 3, b)
        assert (a / f"{name}.csv").read_bytes() == (b / f"{name}.csv").read_bytes()
        assert wa.inputs == wb.inputs
    va = workloads.build("verify-battery", 3, a)
    vb = workloads.build("verify-battery", 4, a)
    again = workloads.build("verify-battery", 3, b)
    assert [c.args for c in va.calls] == [c.args for c in again.calls]
    assert va.calls[0].args != vb.calls[0].args
    assert len({c.args for c in va.calls}) == len(va.calls) > 1


def test_benchmark_json_names_the_metrics_the_runner_reports():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        m: run.layer_unit(m) for m in run.LAYER_METRICS}


def _smoke(monkeypatch, capsys, *args: str) -> dict:
    """Runs the benchmark in this process on the small inputs and returns
    its result line."""
    monkeypatch.chdir(ROOT)
    assert run.main(["--seed", "5", "--seconds", "1", *args]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, small_inputs, monkeypatch, capsys):
    metrics = _smoke(monkeypatch, capsys, "--workload", workload, "--trace", "0")["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


def test_smoke_traced_run(small_inputs, monkeypatch, capsys):
    metrics = _smoke(monkeypatch, capsys, "--workload", "query-distinct",
                     "--trace", "1")["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["quantiles.pair_calls"]["value"] == 16
    assert metrics["distributions.dist_fn_calls"]["value"] > 0
    assert metrics["verify.family_s.E"]["value"] > metrics["verify.family_self_s.E"]["value"]
    assert metrics["trace.overhead_s.verify-battery"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "verify-battery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
