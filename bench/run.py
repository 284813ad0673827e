#!/usr/bin/env python3
"""Benchmark of the dualquant command-line program.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload query-distinct --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the benchmark is a single client in a closed loop: it
starts one ``python -m dualquant`` process at a time, each after the
previous one has exited, for ``--seconds`` seconds, in rounds of a fixed
calibration job (``bench/calibrate.py``), a ``--help`` call (start-up
cost, ``setup_s``) and a workload call.  Times are reported in reference
seconds, scaled by the calibration job's time over the same run, because
the speed of a shared host drifts.  Every call is a fresh interpreter, so
no ``lru_cache`` in the package survives from one measured repetition to
the next.  Each answer is compared with an independent reference
computed before the timed region.

With ``--trace 1`` it alternates, for every workload, untraced calls and
traced in-process passes (``bench/trace_pass.py``, also fresh
interpreters), and reports per-layer times and counts.  Each per-layer
metric is taken from the workload whose end-to-end time that layer
drives, so a traced run reports all of them whichever workload it names.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts the answers requested and ``failed`` those that were wrong or
missing; their ratio is the error rate.  A fuller record, with the
environment and every sample, goes to ``.bench_out/``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the benchmark's own modules leave no .pyc behind

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import threading
import time
from pathlib import Path

import calibrate
import workloads

BENCH_DIR = Path(__file__).resolve().parent
DEADLINE_S = 165.0  # a run must end within 180 s, whatever the program does
MAX_CALL_S = 120.0
SUBCOMMANDS = ("quantile", "symmetry", "transform", "verify")
TRACE_REPEATS = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "items_per_s": "items/s",
}

# per-layer metric -> (workload whose traced pass measures it, key in that trace)
LAYER_METRICS = {
    "cli.load_column_s": ("load-tied-weighted", "cli.load_column_s"),
    "cli.rows": ("load-tied-weighted", "cli.rows"),
    "distributions.make_empirical_s": ("load-tied-weighted", "distributions.make_empirical_s"),
    "distributions.atoms": ("load-tied-weighted", "distributions.atoms"),
    "quantiles.first_pair_s": ("query-distinct", "quantiles.first_pair_s"),
    "quantiles.pair_s": ("query-distinct", "quantiles.pair_s"),
    "quantiles.pair_median_s": ("query-distinct", "quantiles.pair_median_s"),
    "quantiles.pair_calls": ("query-distinct", "quantiles.pair_calls"),
    "quantiles.one_sided_s": ("verify-battery", "quantiles.one_sided_s"),
    "quantiles.one_sided_calls": ("verify-battery", "quantiles.one_sided_calls"),
    "distributions.dist_fn_s": ("verify-battery", "distributions.dist_fn_s"),
    "distributions.dist_fn_calls": ("verify-battery", "distributions.dist_fn_calls"),
    "distributions.negate_s": ("verify-battery", "distributions.negate_s"),
    "verify.random_mixture_s": ("verify-battery", "verify.random_mixture_s"),
    "verify.quantile_by_definition_s": ("verify-battery", "verify.quantile_by_definition_s"),
    "verify.quantile_by_definition_self_s":
        ("verify-battery", "verify.quantile_by_definition_self_s"),
    "verify.quantile_by_definition_calls":
        ("verify-battery", "verify.quantile_by_definition_calls"),
    "transforms.equivariant_quantile_s": ("verify-battery", "transforms.equivariant_quantile_s"),
    "transforms.equivariant_quantile_self_s":
        ("verify-battery", "transforms.equivariant_quantile_self_s"),
    **{
        f"verify.family{stat}.{fam}": ("verify-battery", f"verify.family{stat}.{fam}")
        for stat in ("_s", "_self_s")
        for fam in ("a-k", "S", "V", "E")
    },
    **{
        f"transforms.pushforward_s.{kind}": ("verify-battery", f"transforms.pushforward_s.{kind}")
        for kind in ("affine", "piecewise", "pow10neg", "neglog10", "negation")
    },
    **{
        f"cache.{cache}.{stat}": ("verify-battery", f"cache.{cache}.{stat}")
        for cache in ("_lq", "_rq", "_steps", "pushforward", "_candidates", "_atom_tables")
        for stat in ("hit_share", "lookups")
    },
    **{
        f"layer_self_s.{layer}.{wl}": (wl, f"layer_self_s.{layer}")
        for wl, layers in (
            ("load-tied-weighted", ("cli", "distributions", "quantiles")),
            ("query-distinct", ("cli", "distributions", "quantiles")),
            ("verify-battery", ("cli", "distributions", "quantiles", "transforms", "verify")),
        )
        for layer in layers
    },
    # the other workloads record a few dozen spans, so their overhead is nil
    "trace.overhead_s.verify-battery": ("verify-battery", "trace.overhead_s"),
}


def layer_unit(name: str) -> str:
    if name.endswith(".hit_share"):
        return "ratio"
    if name.endswith(("_calls", ".lookups", ".rows", ".atoms")):
        return "count"
    return "s"


class Runner:
    """Starts one child process at a time and measures it from spawn to exit."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def run(self, argv: list[str]) -> dict:
        timeout = max(1.0, min(MAX_CALL_S, DEADLINE_S - self.elapsed()))
        out_path, err_path = self.work / "child.stdout", self.work / "child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            # a blocking wait: polling wakes the parent often enough to slow
            # the child measurably on a virtual machine
            reaped = threading.Event()
            lock = threading.Lock()

            def kill():
                with lock:
                    if not reaped.is_set():
                        os.kill(proc.pid, signal.SIGKILL)

            watchdog = threading.Timer(timeout, kill)
            watchdog.start()
            # os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN
            # would give the largest over every child reaped so far
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            with lock:
                reaped.set()
            watchdog.cancel()
            watchdog.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "code": proc.returncode,
            "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace")[-2000:],
        }

    def cli(self, args) -> dict:
        return self.run([sys.executable, "-m", "dualquant", *args])


def help_failed(res: dict) -> int:
    return int(res["code"] != 0 or not all(c in res["stdout"] for c in SUBCOMMANDS))


def measure(runner: Runner, wl: workloads.Workload, seconds: float):
    """Closed loop for ``seconds`` in rounds of three child processes, one
    after another: the calibration job, a ``--help`` call, and the next
    call of the workload's panel.  Every call of the panel runs at least
    once, whatever ``seconds`` says, unless the run's deadline comes first.

    The host's speed drifts within a run and between runs (see
    ``calibrate.py``), by up to 1.9x, and a minimum over repeats then
    swings with whether one call happened to run fast.  So times are
    reported in reference seconds: a time measured here, divided by the
    mean time of the calibration job over the same run, times
    ``calibrate.REFERENCE_S``.  The job runs between every two calls, so
    it sees the same mix of fast and slow stretches as they do.

    ``wall_s`` is the mean over the panel of each call's mean time, in
    reference seconds: a call's time grows linearly with the share of it
    spent in the slow mode, so means over a run cancel against the
    calibration's mean where medians of a two-mode spread would not.
    ``setup_s`` is the median over rounds of the ``--help`` time divided
    by the calibration time of its own round.
    """
    panel = len(wl.calls)
    walls = [[] for _ in range(panel)]
    rss, helps, cals, samples = [], [], [], []
    attempted = failed = 0
    runner.cli(["--help"])  # untimed: compiles the package's bytecode
    t_start = time.perf_counter()
    last = 0.0
    i = 0
    while i == 0 or (runner.elapsed() + 2 * last < DEADLINE_S
                     and (i < panel or time.perf_counter() - t_start + last <= seconds)):
        t_iter = time.perf_counter()
        cal = runner.run([sys.executable, "-B", str(BENCH_DIR / "calibrate.py")])
        if cal["code"] != 0:
            raise RuntimeError(f"calibration job failed: {cal['stderr']}")
        cals.append(cal["wall_s"])
        setup = runner.cli(["--help"])
        helps.append(setup["wall_s"])
        attempted += 1
        failed += help_failed(setup)
        k = i % panel
        call = wl.calls[k]
        res = runner.cli(call.args)
        wrong = call.check(res["code"], res["stdout"])
        attempted += call.answers
        failed += wrong
        walls[k].append(res["wall_s"])
        rss.append(res["peak_rss_mb"])
        samples.append({"call": k, "code": res["code"], "wrong": wrong,
                        "wall_s": res["wall_s"], "peak_rss_mb": res["peak_rss_mb"],
                        "setup_s": setup["wall_s"], "calibration_s": cal["wall_s"],
                        "stderr": res["stderr"] if res["code"] else ""})
        last = time.perf_counter() - t_iter
        i += 1
    scale = calibrate.REFERENCE_S / statistics.fmean(cals)
    call_means = [statistics.fmean(w) for w in walls if w]
    wall = statistics.fmean(call_means) * scale
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(h / c for h, c in zip(helps, cals))
                   * calibrate.REFERENCE_S,
        "peak_rss_mb": statistics.median(rss),
        "items_per_s": statistics.fmean(c.items for c in wl.calls) / wall,
    }
    repeats = [len(w) for w in walls if w]
    per_call = (f"{len(repeats)} calls x {min(repeats)}-{max(repeats)} repeats"
                if len(repeats) > 1 else f"{repeats[0]} repeats")
    counts = {"wall_s": per_call, "setup_s": f"{len(helps)} --help calls",
              "peak_rss_mb": f"{len(rss)} calls", "items_per_s": per_call}
    measured = {
        "measured_wall_s": statistics.fmean(call_means),
        "measured_setup_s": statistics.median(helps),
        "calibration_s": statistics.fmean(cals),
    }
    return metrics, counts, attempted, failed, {"calls": samples, "measured": measured,
                                                "args": [list(c.args) for c in wl.calls]}


def trace(runner: Runner, built: dict, out_dir: Path):
    """Per workload, alternate untraced calls and traced passes
    (``TRACE_REPEATS`` of each).  A per-layer time is its minimum over the
    passes, in measured seconds.  The untraced calls check the answers again
    and leave their wall times in the record next to the traced ones."""
    per_workload, attempted, failed, samples = {}, 0, 0, []
    spec = runner.work / "trace-spec.json"
    result = runner.work / "trace-result.json"
    for name, wl in built.items():
        call = wl.calls[0]
        spec.write_text(json.dumps({
            "args": list(call.args), "spans_out": str(out_dir / f"spans-{name}.csv")}))
        layers = []
        for _ in range(TRACE_REPEATS):
            plain = runner.cli(call.args)
            result.unlink(missing_ok=True)
            traced = runner.run([sys.executable, str(BENCH_DIR / "trace_pass.py"),
                                 str(spec), str(result)])
            wrong = call.check(plain["code"], plain["stdout"])
            wrong_traced = call.check(traced["code"], traced["stdout"])
            attempted += 2 * call.answers
            failed += wrong + wrong_traced
            layers.append(json.loads(result.read_text()) if result.exists() else {})
            samples.append({"workload": name, "untraced_wall_s": plain["wall_s"],
                            "traced_wall_s": traced["wall_s"], "wrong": wrong,
                            "wrong_traced": wrong_traced, "layer": layers[-1],
                            "stderr": traced["stderr"] if traced["code"] else ""})
        keys = set().union(*layers)
        merged = {k: min(layer.get(k, 0) for layer in layers) for k in keys}
        per_workload[name] = merged
    metrics = {m: per_workload[wl].get(key, 0) for m, (wl, key) in LAYER_METRICS.items()}
    counts = {m: f"{TRACE_REPEATS} passes" for m in metrics}
    return metrics, counts, attempted, failed, samples


def git_sha(root: Path) -> str:
    # the checkout the benchmark runs in need not be a git repository
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, args, inputs: dict) -> dict:
    src = root / "src" / "dualquant"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "src_dualquant_lines": lines,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dualquant" / "__init__.py").is_file():
        print(f"error: no dualquant sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work"
    out_dir = root / ".bench_out"
    work.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    runner = Runner(root, work)

    if args.trace:
        # the named workload's pass first, then the others that own layers
        order = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
        built = {w: workloads.build(w, args.seed, work) for w in order}
        metrics, counts, attempted, failed, samples = trace(runner, built, out_dir)
        units = {m: layer_unit(m) for m in metrics}
    else:
        built = {args.workload: workloads.build(args.workload, args.seed, work)}
        metrics, counts, attempted, failed, samples = measure(
            runner, built[args.workload], args.seconds)
        units = END_TO_END_UNITS

    env = environment(root, args, {w: b.inputs for w, b in built.items()})
    record = {"environment": env, "attempted": attempted, "failed": failed,
              "metrics": metrics, "counts": counts, "samples": samples}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    if not args.trace:
        for m, v in samples["measured"].items():
            print(f"  {m:<44} {v:>14.6g} {'s':<8} as measured, not scaled")
    for m, v in metrics.items():
        print(f"  {m:<44} {v:>14.6g} {units[m]:<8} {counts[m]}")
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} {'ratio':<8} "
          f"{failed} of {attempted} answers wrong or missing")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
