"""A fixed pure-Python job that gauges how fast the host runs right now.

    python3 -B bench/calibrate.py

On a shared virtual machine the same code does not run at one speed.
Timing a 0.7 ms loop back to back for 20 s on 2 vCPUs with Python 3.11
gave two modes, at 1.1x and 1.9x the fastest chunk, switching within
milliseconds, and the share of time in the fast mode moved between 44%
and 2% within minutes.  The benchmark runs this job as a child process
between its CLI calls, like them a fresh interpreter, and divides the
calls' times by the job's.

The job does what the CLI does: it parses CSV text, pools floats in a
dict, sorts them and accumulates `Fraction` weights, through the
benchmark's own reference, and then walks cumulative `Fraction` sums
level by level as the quantile functions do.  It imports nothing from
``dualquant``, so a change to the program cannot change it.
"""

from __future__ import annotations

import csv
import random
import sys
from fractions import Fraction

import workloads

# Reported times are seconds on a host that runs job() in a fresh
# interpreter in REFERENCE_S.  It is about the job's mean wall time on
# 2 vCPUs of a 2.0 GHz Xeon with Python 3.11.7, so there reported times
# come out close to measured ones.  Only its being fixed matters.
REFERENCE_S = 0.90

ROWS = 40_000
LEVELS = tuple(Fraction(k, 16) for k in range(17))
WALK_LEVELS = (Fraction(1, 3), Fraction(2, 3))


def job() -> int:
    """Always the same work; returns a checksum so none of it is skipped."""
    rng = random.Random(20240601)
    text = "x,w\n" + "\n".join(
        f"{rng.lognormvariate(3.0, 0.75)!r},{rng.randint(1, 9)}" for _ in range(ROWS))
    rows = list(csv.reader(text.splitlines()))[1:]
    values = [float(x) for x, _ in rows]
    weights = [int(w) for _, w in rows]
    checksum = 0
    for ref in (workloads.ExactCDF(values), workloads.ExactCDF(values, weights)):
        for p in LEVELS:
            checksum += hash((ref.left(p), ref.right(p)))
    # the left-quantile walk of dualquant.quantiles, over one mass per atom
    steps = tuple((x, Fraction(1, len(ref.xs))) for x in ref.xs)
    for p in WALK_LEVELS:
        cum = Fraction(0)
        for x, mass in steps:
            here = cum + mass
            if here >= p:
                checksum += hash(x)
                break
            cum = here
    return checksum


if __name__ == "__main__":
    print(job())
