"""Benchmark of the avoidance workbench.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process generates the load; only ``sharded`` starts a pool,
through the library's own ``workers=2`` sites.

With ``--trace 0`` the run repeats untraced passes of the workload for
``--seconds`` (at least three) and reports the end-to-end metrics as
medians over the passes. With ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics, the tracing overhead
and, on ``sharded``, the pool speed-up against workers=1; the spans are
written to ``perfbench/out/``.

Every output of every pass is checked. The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` count the
checks, and ``metrics`` maps each metric name to its value and unit.
See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 4  # fresh interpreters; with the run's own set-up, 5 samples
TIMEOUT_S = 120


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "avoidance" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    wl = workloads.setup(args.workload, args.seed)
    setup_own = time.perf_counter() - t0

    book = Checks()
    if args.trace:
        metrics = traced_run(wl, args.seconds, book)
    else:
        metrics = end_to_end_run(wl, args.seconds, book, [setup_own])
    for name, ok in workloads.cross_checks(wl, book.last_outputs):
        book.add(name, ok)

    print(f"workload {wl.name} seed {wl.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_frac = {book.failed / book.attempted:.6g} "
          f"({book.failed} of {book.attempted} checks failed)")
    for name in book.failures[:10]:
        print(f"  FAILED {name}")
    print(json.dumps({
        "correct": book.failed == 0,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


class Checks:
    """Checks attempted and failed over the run, and the outputs of the
    latest pass for the cross-checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.last_outputs: dict = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def outputs(self, wl, outputs: dict) -> None:
        self.last_outputs = outputs
        failed = set(wl.check(outputs))
        for name in outputs:
            self.add(name, name not in failed)


def setup_probe(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter, where the imports are
    not yet cached."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=TIMEOUT_S, check=True)
    return float(out.stdout.split()[-1])


def cpu_seconds() -> float:
    # user + sys of this process and of its reaped children (pool workers)
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Pass:
    """One pass over the items, in an order shuffled from ``order``:
    timings and outputs."""

    def __init__(self, wl, order: str, workers: int = 1, tracer=None):
        self.items = {}
        self.item_cpu = {}
        self.latency = {}
        self.outputs = {}
        self.counters = {}
        items = wl.items(workers)
        random.Random(order).shuffle(items)
        t0 = time.perf_counter()
        with _maybe_span(tracer, f"pass:{wl.name}", order) as sp:
            for item in items:
                with _maybe_span(tracer, item.name, order):
                    c = cpu_seconds()
                    t = time.perf_counter()
                    self.outputs[item.name] = item.call()
                    dt = time.perf_counter() - t
                    self.item_cpu[item.name] = cpu_seconds() - c
                if item.latency:
                    self.latency[item.name] = dt
                self.items[item.name] = dt
        self.wall = time.perf_counter() - t0
        if sp is not None:
            self.counters = sp.counters


def _maybe_span(tracer, name, run):
    return tracer.span(name, run) if tracer is not None else nullcontext()


def end_to_end_run(wl, seconds: float, book: Checks, setups: list) -> dict:
    """Untraced passes for ``seconds``, at least MIN_PASSES. The speed of a
    shared machine drifts from one second to the next, so each pass runs
    the items in a new order and a pass time is assembled from per-item
    medians: a slow spell then lands on different items in each pass
    instead of on whole passes. The set-up probes run between passes for
    the same reason."""
    workers = workloads.SHARDED_WORKERS if wl.name == "sharded" else 1
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        p = Pass(wl, f"{wl.name}/{wl.seed}/{len(passes)}", workers)
        book.outputs(wl, p.outputs)
        passes.append(p)
        if len(setups) < 1 + SETUP_PROBES:
            setups.append(setup_probe(wl.name, wl.seed))
        elapsed = time.perf_counter() - start
        typical = statistics.median(q.wall for q in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    while len(setups) < 1 + SETUP_PROBES:
        setups.append(setup_probe(wl.name, wl.seed))

    def per_item(field: str) -> dict:
        return {name: statistics.median(getattr(p, field)[name] for p in passes)
                for name in getattr(passes[0], field)}

    latency = per_item("latency")
    p50, tail, level = latency_summary(list(latency.values()))
    print(f"passes {len(passes)}; item_tail_ms is the {level} of "
          f"{len(latency)} items (each the median of its {len(passes)} passes)")
    return {
        "wall_s": (sum(per_item("items").values()), "s"),
        "cpu_s": (sum(per_item("item_cpu").values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "item_p50_ms": (p50 * 1e3, "ms"),
        "item_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def latency_summary(values: list[float]) -> tuple[float, float, str]:
    """Median, and the highest percentile with at least ten samples beyond
    it; with fewer than eleven samples the tail is the slowest one."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return statistics.median(s), s[-1], "maximum"
    return statistics.median(s), s[n - 11], f"p{100 * (n - 10) / n:.1f}"


def traced_run(wl, seconds: float, book: Checks) -> dict:
    """Alternate untraced and traced passes. On ``sharded`` the traced pass
    runs at workers=1, because counters incremented in pool workers stay in
    those processes; an untraced workers=1 pass gives the pool speed-up."""
    sharded = wl.name == "sharded"
    tracer = tracing.Tracer()
    plain: list[Pass] = []
    traced: list[Pass] = []
    serial: list[Pass] = []
    start = time.perf_counter()
    k = 0
    while True:
        order = f"{wl.name}/{wl.seed}/{k}"
        if sharded:
            plain.append(Pass(wl, order, workloads.SHARDED_WORKERS))
            serial.append(Pass(wl, order))
            book.outputs(wl, serial[-1].outputs)
        else:
            plain.append(Pass(wl, order))
        book.outputs(wl, plain[-1].outputs)
        with tracer.installed():
            traced.append(Pass(wl, order + "/traced", 1, tracer))
        book.outputs(wl, traced[-1].outputs)
        base = serial[-1] if sharded else plain[-1]
        book.add(f"trace-identical:{k}", traced[-1].outputs == base.outputs)
        book.add(f"trace-counts-repeat:{k}",
                 _exact(traced[-1].counters) == _exact(traced[0].counters))
        k += 1
        cycle = (time.perf_counter() - start) / k
        if time.perf_counter() - start + cycle > seconds:
            break
    write_spans(tracer, wl)
    base = serial if sharded else plain
    metrics = layer_metrics(wl, tracer, traced)
    t_wall = statistics.median(p.wall for p in traced)
    metrics["trace.wall_s"] = (t_wall, "s")
    metrics["trace.overhead_s"] = (t_wall - statistics.median(p.wall for p in base), "s")
    for site in ("verify_entry", "count_avoiding", "enumerate_remaining"):
        speedup = cpu = 0.0
        if sharded:
            t1 = statistics.median(p.items[site] for p in serial)
            t2 = statistics.median(p.items[site] for p in plain)
            speedup = t1 / t2
            cpu = statistics.median(p.item_cpu[site] for p in plain)
        metrics[f"pool.{site}.speedup"] = (speedup, "x")
        metrics[f"pool.{site}.cpu_s"] = (cpu, "s")
    print(f"cycles {k}; spans {len(tracer.spans)}")
    return metrics


_EXACT_SUFFIXES = (".calls", ".hits", ".host_letters", ".words", ".conclusive",
                   "iterations")


def _exact(counters: dict) -> dict:
    return {k: v for k, v in counters.items() if k.endswith(_EXACT_SUFFIXES)}


def layer_metrics(wl, tracer, traced: list[Pass]) -> dict:
    first = traced[0].counters

    def count(key):
        return int(first.get(key, 0))

    def busy(key):
        return statistics.median(p.counters.get(key, 0.0) for p in traced)

    out = {}
    for key in ("patterns.find_occurrence.calls", "patterns.find_occurrence.hits",
                "patterns.find_occurrence.host_letters",
                "patterns.pattern_contains_doubled.calls",
                "words.generate_free_words.words", "certify.apply_morphism.calls",
                "series.certify_threeavoidable.calls",
                "series.certify_threeavoidable.conclusive",
                "series.smallest_positive_root.calls", "series.evaluate.calls",
                "spectral.avoidability_exponent.calls", "spectral.iterations"):
        out[key] = (count(key), "count")
    for key in ("patterns.find_occurrence.busy_s",
                "patterns.enumerate_remaining.busy_s",
                "words.generate_free_words.busy_s", "certify.apply_morphism.busy_s",
                "certify.verify_entry.busy_s",
                "series.certify_threeavoidable.busy_s",
                "series.smallest_positive_root.busy_s",
                "spectral.avoidability_exponent.busy_s"):
        out[key] = (busy(key), "s")

    # per-entry verify time, and the layer ratios, from the item spans of
    # the first traced pass
    spans = [s for s in tracer.spans if s.run == tracer.spans[0].run]
    verify = _sum_counters(s for s in spans if s.name.startswith("verify"))
    counting = _sum_counters(s for s in spans if s.name.startswith("count"))
    entry_busy = {workloads.entry_of(s.name): s.counters.get(
        "certify.verify_entry.busy_s", 0.0) for s in spans
        if s.name.startswith("verify")}
    for pattern in wl.expected["verify"]["entries"]:
        out[f"certify.verify_entry.{pattern}.busy_s"] = (
            entry_busy.get(pattern, 0.0), "s")
    words = verify.get("words.generate_free_words.words", 0.0)
    out["certify.verify_entry.windows_per_preimage"] = (
        verify.get("patterns.find_occurrence.calls", 0.0) / words if words else 0.0,
        "ratio")
    nodes = sum(sum(v) for k, v in traced[0].outputs.items() if k.startswith("count"))
    calls = counting.get("patterns.find_occurrence.calls", 0.0)
    out["certify.count_avoiding.nodes"] = (nodes, "count")
    out["certify.count_avoiding.prune_ratio"] = (
        counting.get("patterns.find_occurrence.hits", 0.0) / calls if calls else 0.0,
        "ratio")
    out["certify.count_avoiding.self_s"] = (
        counting.get("certify.count_avoiding.busy_s", 0.0)
        - counting.get("patterns.find_occurrence.busy_s", 0.0), "s")
    return out


def _sum_counters(spans) -> dict:
    total: dict[str, float] = {}
    for s in spans:
        for k, v in s.counters.items():
            total[k] = total.get(k, 0.0) + v
    return total


def write_spans(tracer, wl) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{wl.name}-seed{wl.seed}.jsonl"
    with open(path, "w") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps(s.as_dict(i)) + "\n")


if __name__ == "__main__":
    sys.exit(main())
