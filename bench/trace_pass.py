"""One traced, in-process run of a dualquant CLI command.

    PYTHONPATH=src python bench/trace_pass.py SPEC.json OUT.json

SPEC.json holds ``{"args": [...], "spans_out": path}``: the arguments
that would follow ``python -m dualquant``, and where to write the spans.
The pass wraps the public functions of each module (and the check
families of ``verify``, which have none) at run time, runs the command
through ``dualquant.cli.main`` in this interpreter, and writes per-layer
times, counts, ``lru_cache`` statistics and the tracing overhead to
OUT.json.  The command's own output goes to stdout as usual and its
exit code is this process's.

A span is (name, start, end, parent).  Spans stay in memory until the
command ends.  Self time is a span's duration minus that of its
children.  Functions that a later version of the package renames or
removes are skipped, and their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from array import array
from pathlib import Path


class Tracer:
    """Records a span around every call of each wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name, on_result=None):
        """``name`` is a span name, or a function of the call's arguments
        that returns one."""
        fixed = self._id(name) if isinstance(name, str) else None
        stack, name_of, parent, start, end = (
            self._stack, self.name_of, self.parent, self.start, self.end)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(fixed if fixed is not None else self._id(name(*args)))
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def totals(self):
        """Per span name: (inclusive seconds, self seconds, calls)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[self.name_of[i]], [0.0, 0.0, 0])
            row[0] += dur
            row[1] += dur - child[i]
            row[2] += 1
        return out

    def durations(self, name: str) -> list[float]:
        i = self._ids.get(name)
        return [e - s for k, s, e in zip(self.name_of, self.start, self.end) if k == i]

    def write_spans(self, path: Path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (k, s, e, p) in enumerate(zip(self.name_of, self.start, self.end, self.parent)):
                fh.write(f"{i},{self.names[k]},{s - origin:.9f},{e - origin:.9f},{p}\n")


def _pushforward_name(d, m, *rest) -> str:
    kind = getattr(getattr(m, "kind", None), "value", None)
    return f"transforms.pushforward|{kind or 'piecewise'}"


# (module, attribute, span name or namer, counter of the result)
TARGETS = (
    ("dualquant.cli", "_load_column", "cli.load_column",
     lambda r: ("cli.rows", len(r[0]))),
    ("dualquant.distributions", "make_empirical", "distributions.make_empirical",
     lambda r: ("distributions.atoms", len(r.atoms))),
    ("dualquant.distributions", "dist_fn", "distributions.dist_fn", None),
    ("dualquant.distributions", "negate", "distributions.negate", None),
    ("dualquant.quantiles", "quantile_pair", "quantiles.pair", None),
    ("dualquant.quantiles", "left_quantile", "quantiles.one_sided", None),
    ("dualquant.quantiles", "right_quantile", "quantiles.one_sided", None),
    ("dualquant.transforms", "pushforward", _pushforward_name, None),
    ("dualquant.transforms", "equivariant_quantile", "transforms.equivariant_quantile", None),
    ("dualquant.verify", "run_suite", "verify.run_suite", None),
    ("dualquant.verify", "random_mixture", "verify.random_mixture", None),
    ("dualquant.verify", "quantile_by_definition", "verify.quantile_by_definition", None),
    ("dualquant.verify", "_property_results", "verify.family|a-k", None),
    ("dualquant.verify", "_symmetry_results", "verify.family|S", None),
    ("dualquant.verify", "_variant_results", "verify.family|V", None),
    ("dualquant.verify", "_equivariance_results", "verify.family|E", None),
)

CACHES = (
    ("dualquant.quantiles", "_lq"),
    ("dualquant.quantiles", "_rq"),
    ("dualquant.quantiles", "_steps"),
    ("dualquant.transforms", "pushforward"),
    ("dualquant.verify", "_candidates"),
    ("dualquant.distributions", "_atom_tables"),
)


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "dualquant" or k.startswith("dualquant."))]


def install(tracer: Tracer) -> dict:
    """Replace each target, under every name a package module binds it to.
    Returns the original objects, whose cache statistics stay readable."""
    originals = {}
    for module, attr, name, counter in TARGETS:
        orig = getattr(importlib.import_module(module), attr, None)
        if orig is None:
            continue
        originals[(module, attr)] = orig
        on_result = None
        if counter is not None:
            def on_result(r, counter=counter):
                tracer.count(*counter(r))
        wrapper = tracer.wrap(orig, name, on_result)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
    return originals


def _metric_key(name: str, stat: str) -> str:
    base, _, variant = name.partition("|")
    return f"{base}{stat}.{variant}" if variant else f"{base}{stat}"


def metrics(tracer: Tracer, originals: dict) -> dict:
    out: dict[str, float] = {}
    layers: dict[str, float] = {}
    for name, (incl, own, calls) in tracer.totals().items():
        out[_metric_key(name, "_s")] = incl
        out[_metric_key(name, "_self_s")] = own
        out[_metric_key(name, "_calls")] = calls
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    for layer, own in layers.items():
        out[f"layer_self_s.{layer}"] = own
    pairs = tracer.durations("quantiles.pair")
    if pairs:
        out["quantiles.first_pair_s"] = pairs[0]
        if len(pairs) > 1:
            out["quantiles.pair_median_s"] = statistics.median(pairs[1:])
    out.update(tracer.counts)
    for module, attr in CACHES:
        fn = originals.get((module, attr)) or getattr(sys.modules.get(module), attr, None)
        info = getattr(fn, "cache_info", None)
        if info is None:
            continue
        stats = info()
        lookups = stats.hits + stats.misses
        out[f"cache.{attr}.lookups"] = lookups
        out[f"cache.{attr}.hit_share"] = stats.hits / lookups if lookups else 0.0
    out["trace.spans"] = len(tracer.start)
    return out


def span_cost(calls: int = 20_000, rounds: int = 5) -> float:
    """Seconds the wrapper adds to one call: the fastest of ``rounds`` loops
    of ``calls`` traced calls of a no-op, less the fastest untraced loop."""

    def noop():
        return None

    def fastest(fn) -> float:
        clock = time.perf_counter
        times = []
        for _ in range(rounds):
            t0 = clock()
            for _ in range(calls):
                fn()
            times.append(clock() - t0)
        return min(times)

    return (fastest(Tracer().wrap(noop, "noop")) - fastest(noop)) / calls


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    from dualquant.cli import main as cli_main

    tracer = Tracer()
    originals = install(tracer)
    command = tracer.wrap(
        functools.partial(cli_main.main, prog_name="dualquant", standalone_mode=False),
        "cli.main",
    )
    code = 0
    origin = time.perf_counter()
    try:
        command(list(spec["args"]))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        elapsed = time.perf_counter() - origin
        sys.stdout.flush()
        result = metrics(tracer, originals)
        result["trace.in_process_s"] = elapsed
        # The difference between a traced and an untraced process is below
        # the noise between two untraced ones, so the overhead is the
        # measured cost of one span times the spans recorded.
        result["trace.span_cost_s"] = span_cost()
        result["trace.overhead_s"] = result["trace.span_cost_s"] * len(tracer.start)
        Path(out_path).write_text(json.dumps(result, indent=1, sort_keys=True), encoding="utf-8")
        if spec.get("spans_out"):
            tracer.write_spans(Path(spec["spans_out"]), origin)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
