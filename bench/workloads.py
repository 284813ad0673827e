"""Seeded workload inputs and an independent reference for the benchmark.

Nothing here imports dualquant.  The reference finds exact left and
right quantiles of the generated data by sorting the distinct values
and bisecting their cumulative `Fraction` weights, so a defect in the
package cannot hide in the answer it is checked against.
"""

from __future__ import annotations

import json
import math
import random
import re
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

NEG_INF = float("-inf")
POS_INF = float("inf")

WORKLOADS = ("load-tied-weighted", "query-distinct", "verify-battery")

# Input sizes.  Each CLI call takes 1.5-3 s on 2 CPUs with
# Python 3.11, so one run repeats every call several times.
LOAD_ROWS = 120_000
LOAD_GRID = 6_500          # 3-decimal values 1.000 .. 7.499: ~6.5k distinct atoms
LOAD_LEVELS = (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(1))
QUERY_ROWS = 16_000
VERIFY_MIXTURES = 10       # per call
VERIFY_PANEL = 8           # disjoint corpora per run

# `dualquant verify` checks every mixture at the 21-point grid k/20 plus
# 50 seeded extra levels, and files 14 checks per (mixture, level): the
# eleven properties a-k, then S, V and E.
VERIFY_LEVELS = 71
VERIFY_CHECKS_PER_REPORT = 14


class ExactCDF:
    """Exact distribution function of weighted data, for reference answers."""

    def __init__(self, values: Sequence[float], weights: Optional[Sequence[int]] = None):
        if not values:
            raise ValueError("no data values")
        pooled: dict[float, int] = {}
        for i, v in enumerate(values):
            pooled[v] = pooled.get(v, 0) + (1 if weights is None else weights[i])
        self.xs = sorted(pooled)
        total = sum(pooled.values())
        running = 0
        self.cum = []
        for x in self.xs:
            running += pooled[x]
            self.cum.append(Fraction(running, total))

    def left(self, p: Fraction) -> float:
        """inf{x : P(X <= x) >= p}."""
        if p == 0:
            return NEG_INF
        return self.xs[bisect_left(self.cum, p)]

    def right(self, p: Fraction) -> float:
        """inf{x : P(X <= x) > p}."""
        if p == 1:
            return POS_INF
        return self.xs[bisect_right(self.cum, p)]


def same_answer(got, want: float) -> bool:
    """Whether a JSON answer from the CLI is bit for bit the reference float."""
    if math.isinf(want):
        return got == ("+inf" if want > 0 else "-inf")
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return struct.pack("<d", float(got)) == struct.pack("<d", want)


@dataclass(frozen=True)
class Call:
    """One CLI invocation: its arguments after ``python -m dualquant``, the
    items it completes, the answers it owes, and a checker that returns
    how many of those answers are wrong or missing given (exit code, stdout)."""

    args: tuple[str, ...]
    items: int
    answers: int
    check: Callable[[int, str], int]


@dataclass(frozen=True)
class Workload:
    """A panel of distinct calls.  A run repeats the panel in rounds, so
    every call is timed more than once on the same input."""

    inputs: dict
    calls: tuple[Call, ...]


def _quantile_checker(levels: Sequence[Fraction], ref: ExactCDF) -> Callable[[int, str], int]:
    expected = [(ref.left(p), ref.right(p)) for p in levels]
    owed = 2 * len(levels)

    def check(code: int, stdout: str) -> int:
        if code != 0:
            return owed
        try:
            rows = json.loads(stdout)["rows"]
        except (ValueError, KeyError, TypeError):
            return owed
        wrong = owed
        for row, (lq, rq) in zip(rows, expected):
            if isinstance(row, dict):
                wrong -= same_answer(row.get("left"), lq) + same_answer(row.get("right"), rq)
        return wrong

    return check


def _level_arg(levels: Sequence[Fraction]) -> str:
    return ",".join(f"{p.numerator}/{p.denominator}" for p in levels)


def load_tied_weighted(seed: int, work: Path) -> Workload:
    """Many tied 3-decimal rows with integer weights 1-9: reading and
    pooling dominate, and the five quantile queries are cheap."""
    rng = random.Random(f"load-tied-weighted/{seed}")
    n = LOAD_ROWS
    cells, values, weights = [], [], []
    for _ in range(n):
        k = 1000 + rng.randrange(LOAD_GRID)
        w = rng.randint(1, 9)
        cell = f"{k // 1000}.{k % 1000:03d}"
        cells.append(f"{cell},{w}")
        values.append(float(cell))
        weights.append(w)
    path = work / "load-tied-weighted.csv"
    path.write_text("value,weight\n" + "\n".join(cells) + "\n", encoding="utf-8")
    ref = ExactCDF(values, weights)
    call = Call(
        ("quantile", str(path), "--column", "value", "--weights", "weight",
         "--levels", _level_arg(LOAD_LEVELS), "--format", "json"),
        items=n,
        answers=2 * len(LOAD_LEVELS),
        check=_quantile_checker(LOAD_LEVELS, ref),
    )
    return Workload({"rows": n, "distinct": len(ref.xs), "levels": len(LOAD_LEVELS)}, (call,))


def query_levels(n: int) -> tuple[Fraction, ...]:
    """Sixteen levels spanning (0, 1): eight of the form k/17, where the
    quantile is unique, and eight exact multiples j/n of one row's mass,
    where lq < rq across a flat stretch."""
    unique = [Fraction(k, 17) for k in range(1, 17, 2)]
    flat = [Fraction(min(n - 1, n * k // 16 + 1), n) for k in range(1, 17, 2)]
    return tuple(sorted(set(unique + flat)))


def query_distinct(seed: int, work: Path) -> Workload:
    """Distinct full-precision floats, unweighted: every level walks the
    whole profile, and the walk is what the queries cost."""
    rng = random.Random(f"query-distinct/{seed}")
    n = QUERY_ROWS
    seen: set[float] = set()
    values = []
    while len(values) < n:
        v = rng.lognormvariate(3.0, 0.75)
        if v not in seen:
            seen.add(v)
            values.append(v)
    path = work / "query-distinct.csv"
    path.write_text("x\n" + "\n".join(map(repr, values)) + "\n", encoding="utf-8")
    levels = query_levels(n)
    ref = ExactCDF(values)
    call = Call(
        ("quantile", str(path), "--column", "x", "--levels", _level_arg(levels),
         "--format", "json"),
        items=len(levels),
        answers=2 * len(levels),
        check=_quantile_checker(levels, ref),
    )
    return Workload({"rows": n, "distinct": n, "levels": len(levels)}, (call,))


_SUMMARY_CHECKS = re.compile(r"\b(\d+) checks\b")
_SUMMARY_FAILED = re.compile(r"\b(\d+) failed checks\b")


def verify_checker(n_mixtures: int) -> Callable[[int, str], int]:
    owed = n_mixtures * VERIFY_LEVELS * VERIFY_CHECKS_PER_REPORT

    def check(code: int, stdout: str) -> int:
        total = _SUMMARY_CHECKS.search(stdout)
        failed = _SUMMARY_FAILED.search(stdout)
        if code != 0 or total is None or failed is None or int(total.group(1)) != owed:
            return owed
        return min(owed, int(failed.group(1)))

    return check


def verify_battery(seed: int, work: Path) -> Workload:
    """`dualquant verify` on seeded corpora of small mixtures.  The cost
    of a mixture varies a lot with its shape (coefficient of variation
    about 0.4), so a run times a panel of disjoint corpora rather than one."""
    rng = random.Random(f"verify-battery/{seed}")
    n = VERIFY_MIXTURES
    base = rng.randrange(1, 10**6)
    check = verify_checker(n)
    owed = n * VERIFY_LEVELS * VERIFY_CHECKS_PER_REPORT
    calls = tuple(
        Call(("verify", "--n", str(n), "--seed", str(base + k * n)),
             items=owed, answers=owed, check=check)
        for k in range(VERIFY_PANEL)
    )
    return Workload({"mixtures_per_call": n, "corpora": VERIFY_PANEL, "levels": VERIFY_LEVELS,
                     "checks_per_call": owed, "first_corpus_seed": base}, calls)


GENERATORS = {
    "load-tied-weighted": load_tied_weighted,
    "query-distinct": query_distinct,
    "verify-battery": verify_battery,
}


def build(name: str, seed: int, work: Path) -> Workload:
    return GENERATORS[name](seed, work)
