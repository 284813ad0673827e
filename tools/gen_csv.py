"""Write a seeded CSV of Gaussian data for `dualquant quantile`, or its answers.

    python tools/gen_csv.py --rows 1000000 --seed 1 [--weights] > data.csv
    python tools/gen_csv.py --rows 1000000 --seed 1 [--weights] --reference 0.1,0.5,0.9

The file has a ``value`` column of standard normal draws written to six
decimals and, with ``--weights``, a ``weight`` column of integers 1-9.
With ``--reference`` the script writes no CSV: it prints, as JSON in the
layout of ``dualquant quantile --format json``, the left and right
quantiles of that file at the given levels, found by pooling the parsed
values into integer counts, sorting them and bisecting the running
totals.  It uses the standard library only and imports nothing from
dualquant, so its answers are an independent reference.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate


def rows(n: int, seed: int, weights: bool):
    """The generated (value cell, weight cell or None) pairs, in file order."""
    rng = random.Random(seed)
    for _ in range(n):
        value = f"{rng.gauss(0.0, 1.0):.6f}"
        yield value, (str(rng.randint(1, 9)) if weights else None)


def reference(n: int, seed: int, weights: bool, levels: list[Fraction]) -> list[dict]:
    """Left and right quantiles of the generated data at each level, exactly."""
    pooled: dict[float, int] = {}
    for value, weight in rows(n, seed, weights):
        x = float(value)
        pooled[x] = pooled.get(x, 0) + (int(weight) if weight else 1)
    xs = sorted(pooled)
    cum = list(accumulate(pooled[x] for x in xs))
    total = cum[-1]
    out = []
    for p in levels:
        # an integer c has c/total >= p exactly when c >= ceil(p*total),
        # and c/total > p exactly when c > floor(p*total)
        left = "-inf" if p == 0 else xs[bisect_left(cum, -(-p.numerator * total // p.denominator))]
        right = "+inf" if p == 1 else xs[bisect_right(cum, p.numerator * total // p.denominator)]
        out.append({"level": float(p), "left": left, "right": right, "traditional": left})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, required=True, help="number of data rows")
    parser.add_argument("--seed", type=int, default=1, help="random seed (default 1)")
    parser.add_argument("--weights", action="store_true", help="add a weight column of integers 1-9")
    parser.add_argument("--reference", metavar="LEVELS", default=None,
                        help="print the quantiles at these comma-separated levels instead of the CSV")
    args = parser.parse_args(argv)
    if args.rows < 1:
        parser.error("--rows must be at least 1")
    if args.reference is not None:
        try:
            levels = [Fraction(tok.strip()) for tok in args.reference.split(",")]
        except (ValueError, ZeroDivisionError):
            parser.error(f"--reference levels must be numbers, got {args.reference!r}")
        if not all(0 <= p <= 1 for p in levels):
            parser.error("--reference levels must lie in [0, 1]")
        rows_out = reference(args.rows, args.seed, args.weights, levels)
        json.dump({"rows": rows_out}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    out = sys.stdout
    out.write("value,weight\n" if args.weights else "value\n")
    for value, weight in rows(args.rows, args.seed, args.weights):
        out.write(f"{value},{weight}\n" if weight else f"{value}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
