"""Check the dualquant command end to end, as CI does after `pip install .`.

    python tools/smoke.py --rows 1000000 -- dualquant
    python tools/smoke.py --rows 10000 -- python -m dualquant

The command runs the rain examples, the verifier and a generated column of
--rows rows, unweighted and weighted, whose answers must equal
`tools/gen_csv.py --reference`, and a weight column of 12,000 coprime denominators, which it must refuse in little
memory; library checks run in a child of this interpreter, and the verifier and
`symmetry` must fail on source mutants of the package it imports.  Exits 1
naming a failed check.
"""

import argparse
import hashlib
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
LEVELS = ["0.1", "0.5", "0.9"]
# the source mutants: (name, module, function, line, its replacement)
NEXT_LANDMARK = ("_lq returns the next landmark", "quantiles.py", "_lq",
            "    return prof.xs[i]\n", "    return prof.xs[min(i + 1, len(prof.xs) - 1)]\n")
REFLECTION = ("_preimage_quantile reflects the level as p - 1", "transforms.py",
              "_preimage_quantile", "    level = p if rising else 1 - p\n",
              "    level = p if rising else p - 1\n")


def run(argv, code=0, label=None, max_mib=None):
    """Run ``argv``, fail unless it exits with ``code`` (and, given ``max_mib``,
    peaks under that many MiB), return its stdout and stderr.  With a label,
    print the child's wall time and peak RSS; os.wait4 gives this child's own,
    where RUSAGE_CHILDREN gives the largest so far."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0), err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if child.returncode != code:
        sys.exit(f"FAILED: {label or ' '.join(map(str, argv))} exited {child.returncode}, "
                 f"not {code}\n{stderr[-2000:]}")
    peak = usage.ru_maxrss / 1024
    if label:
        print(f"{label}: {wall:.2f} s, peak RSS {peak:.1f} MiB")
    if max_mib is not None and peak > max_mib:
        sys.exit(f"FAILED: {label or ' '.join(map(str, argv))} peaked at {peak:.1f} MiB, "
                 f"over {max_mib}")
    return stdout, stderr


def first_primes(n):
    limit = 200_000  # past the 12,000th prime, 128,189
    sieve = bytearray([1]) * limit
    for k in range(2, math.isqrt(limit) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, limit, k)))
    return [k for k in range(2, limit) if sieve[k]][:n]


def expect(what, got, want):
    print(f"{what}\n  got  {got}\n  want {want}")
    if got != want:
        sys.exit(f"FAILED: {what}")


def mutant(package, tmp, mutation):
    """Copy ``package`` under ``tmp`` with ``mutation`` applied, and return the
    directory to put on PYTHONPATH; fail unless its function holds the line once."""
    name, module, function, line, replacement = mutation
    copy = tmp / function / package.name
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = copy / module
    head, sep, rest = source.read_text().partition(f"\ndef {function}(")
    body, end, tail = rest.partition("\ndef ")
    if body.count(line) != 1:
        sys.exit(f"FAILED: mutation {name}: {line.strip()!r} is in "
                 f"{package / module}'s {function} {body.count(line)} times, not once")
    source.write_text(head + sep + body.replace(line, replacement) + end + tail)
    return copy.parent


def library(path):
    """Time the first query on touching segments between the values in ``path``,
    and hash, negate and pushforward on weights 1/p over 3000 primes (a ~40k-bit
    denominator); check that each answer mirrors its negation's."""
    from dualquant import (MixtureDistribution, UniformSegment, affine_map, make_empirical,
                           negate, pushforward, quantile_pair)

    def timed(what, step):
        start = time.perf_counter()
        value = step()
        print(f"{what}: {time.perf_counter() - start:.3f} s")
        return value

    with open(path) as fh:
        xs = sorted({float(line) for line in list(fh)[1:]})
    touching = MixtureDistribution(segments=[UniformSegment(a, b, 1) for a, b in zip(xs, xs[1:])])
    negated = negate(touching)
    for p in map(Fraction, LEVELS):
        timed(f"{len(xs) - 1} segments, first query at p={p}", lambda: quantile_pair(touching, p))
        print(f"  peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")
    primes = first_primes(3000)
    d = make_empirical([float(p) for p in primes], [Fraction(1, p) for p in primes])
    h = timed("hash, 3000 prime weights", lambda: hash(d))
    nd = timed("negate, 3000 prime weights", lambda: negate(d))
    timed("pushforward through affine(-3, 0.5)", lambda: pushforward(d, affine_map(-3.0, 0.5)))
    expect("hash after a double negation", hash(negate(nd)), h)
    for what, d, nd in ("touching segments", touching, negated), ("3000 prime weights", d, nd):
        for p in map(Fraction, LEVELS):
            pair, mirror = quantile_pair(d, p), quantile_pair(nd, 1 - p)
            expect(f"{what} at p={p}, and negated at 1 - p",
                   (pair.left, pair.right), (-mirror.right, -mirror.left))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, required=True, help="rows of the generated column")
    parser.add_argument("command", nargs="+", help="the dualquant command, after --")
    args = parser.parse_args()
    cmd, rows = args.command, args.rows
    scratch = tempfile.TemporaryDirectory()  # removed at exit, also after a failure
    tmp = Path(scratch.name)

    find = "import dualquant; print(dualquant.__file__); print(dualquant.rain_csv_path())"
    init, rain = run([sys.executable, "-c", find])[0].splitlines()
    ph = [rain, "--column", "pH", "--levels", "0.2,0.8"]
    _, log = run(["env", "PYTHONPROFILEIMPORTTIME=1", *cmd, "quantile", *ph])
    loaded = set(re.findall(r"dualquant\.(quantiles|transforms|verify)\b", log))
    expect("library modules that quantile imports", sorted(loaded), ["quantiles"])
    run([*cmd, "symmetry", *ph])
    run([*cmd, "transform", *ph, "--map", '{"kind":"pow10neg"}'])
    run([*cmd, "transform", *ph, "--map", '{"kind":"negation"}', "--side", "right"])
    run([*cmd, "verify", "--n", "3"])

    # the battery spread over every CPU writes the report of a serial run, and
    # fails on the mutant; the package copy heads the inherited path
    print(f"usable CPUs: {len(os.sched_getaffinity(0))}")

    def on(copy):
        path = os.pathsep.join(filter(None, (str(copy), os.environ.get("PYTHONPATH"))))
        return ["env", f"PYTHONPATH={path}", sys.executable, "-m", "dualquant"]

    mutated = on(mutant(Path(init).parent, tmp, NEXT_LANDMARK))
    for what, command, code in ("plain", cmd, 0), (NEXT_LANDMARK[0], mutated, 1):
        digests = []
        for pin in ["taskset", "-c", "0"], []:
            report = tmp / f"report{len(digests)}.json"
            run([*pin, *command, "verify", "--n", "6", "--seed", "9", "--report", report], code)
            digests.append(hashlib.sha256(report.read_bytes()).hexdigest())
        expect(f"serial and sharded reports, verify {what}", *digests)
    _, log = run([*mutated, "symmetry", *ph], 1)
    expect(f"symmetry's error line, {NEXT_LANDMARK[0]}", log.splitlines()[-1:],
           ["error: the negation identity fails at levels 0.2, 0.8"])
    # a routing that raises fails check E; the battery does not crash
    _, log = run([*on(mutant(Path(init).parent, tmp, REFLECTION)), "verify", "--n", "3",
                  "--seed", "9"], 1)
    last = (log.splitlines() or [""])[-1]
    expect(f"verify's last error line, and a traceback, {REFLECTION[0]}",
           (last[:18], "raised BadValueError" in last, "Traceback" in log),
           ("first failure: [E]", True, False))

    # a generated column: the answers equal the generator's own reference
    def generate(n, *flags):
        return run([sys.executable, TOOLS / "gen_csv.py", "--rows", str(n), *flags])[0]

    def pairs(rows):
        return [(repr(r["left"]), repr(r["right"])) for r in rows]

    big, mid = tmp / "big.csv", tmp / "mid.csv"
    big.write_text(generate(rows))
    want = json.loads(generate(rows, "--reference", ",".join(LEVELS)))["rows"]
    read = [big, "--column", "value", "--levels", ",".join(LEVELS)]
    out, _ = run([*cmd, "quantile", *read, "--format", "json"], label=f"quantile, {rows} rows")
    expect("quantile answers", pairs(json.loads(out)["rows"]), pairs(want))
    weighted = tmp / "weighted.csv"
    weighted.write_text(generate(rows, "--weights"))
    wwant = json.loads(generate(rows, "--weights", "--reference", ",".join(LEVELS)))["rows"]
    out, _ = run([*cmd, "quantile", weighted, "--column", "value", "--weights", "weight",
                  "--levels", ",".join(LEVELS), "--format", "json"],
                 label=f"quantile --weights, {rows} rows")
    expect("weighted quantile answers", pairs(json.loads(out)["rows"]), pairs(wwant))

    # through x -> -3x + 0.5 the right quantile at p is the image of the left one at 1 - p;
    # through a continuous three-piece map, both flags left, it is the left one mapped,
    # and the median lands on the flat piece, whose intercept -0.0 both columns keep.
    # The pushforward pools the values with equal images and names the atom by the
    # least of them, so only a zero can print apart from the routed image: a value
    # at -0.5, where the column has one, maps to 0.0 and names the zero.  The file is
    # streamed, so no column stays in this process, whose size a forked child's peak
    # RSS would take
    def pooled(rule, x):
        if rule(x) != 0:
            return rule(x)
        with open(big) as fh:
            next(fh)
            return rule(min(v for v in map(float, fh) if rule(v) == 0))

    pieces = [{"lo": lo, "hi": hi, "slope": a, "intercept": b}
              for lo, hi, a, b in [("-inf", -0.5, 1, 0.5), (-0.5, 0.5, 0, -0.0), (0.5, "inf", 1, -0.5)]]
    three = {"direction": "non_decreasing", "pieces": pieces,
             "breakpoints": [{"at": x, "continuity": "left"} for x in (-0.5, 0.5)]}
    for name, spec, side, ref, rule in [
        ("affine", {"kind": "affine", "a": -3, "b": 0.5}, "right", want[::-1],
         lambda x: -3.0 * x + 0.5),
        ("three pieces", three, "left", want,
         lambda x: x + 0.5 if x <= -0.5 else (x - 0.5 if x > 0.5 else -0.0)),
    ]:
        out, _ = run([*cmd, "transform", *read, "--map", json.dumps(spec), "--side", side],
                     label=f"transform, {rows} rows, {name}")
        got = [(repr(float(pushed)), repr(float(moved)), verdict)
               for _, pushed, moved, verdict in map(str.split, out.splitlines()[1:])]
        expect(f"{name} transform answers", got,
               [(repr(pooled(rule, r["left"])), repr(rule(r["left"])), "yes") for r in ref])

    # weights 1/p over 12,000 primes would make counts of ~180k bits each, past
    # the budget of MAX_COUNT_BITS: refused, naming the weight column, in little memory
    heavy = tmp / "primes.csv"
    heavy.write_text("".join(f"{p}.0,1/{p}\n" for p in first_primes(12_000)))
    _, log = run([*cmd, "quantile", heavy, "--weights", "1", "--levels", ",".join(LEVELS)], 3,
                 label="quantile, 12000 prime weights", max_mib=64)
    expect("the refusal names the weight column", "weight column '1'" in log, True)

    # the library checks, on a column one tenth as long
    mid.write_text(generate(rows // 10))
    call = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import smoke; smoke.library({str(mid)!r})"
    print(run([sys.executable, "-c", call])[0], end="")
    print("smoke: every check passed")


if __name__ == "__main__":
    main()
