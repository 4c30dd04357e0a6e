"""Run one rupture-kit benchmark workload and print its metrics.

    python3 bench/run.py --workload kernel-large --seed 1 --seconds 30 --trace 0

Each run sets up its workload several times (the median is ``setup_s``),
then repeats the workload's pass of tasks in a closed loop with one caller
until ``--seconds`` have passed, checking every result against a known
answer. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics, and writes the spans of the last traced pass under
``.bench_out/``. Lines starting with ``#`` describe the run; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import array
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# Reference runs on each side of a window of tasks that set its scale.
SMOOTHING = 2
# Reference runs on each side of a set-up: at least three, and at least
# this long in all.
SETUP_PROBE_NS = 30_000_000
# task_p90_ms needs at least ten samples above it.
MIN_TASKS = 100
# Fresh interpreters per figure when the traced run times interpreter start
# and the import of the CLI.
START_SAMPLES = 7
SPANS_WRITTEN = 50_000

END_TO_END = (
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class Scaler:
    """Scales wall times to the speed the benchmark was calibrated at.

    Machines that share their cores run the same code up to a third faster
    or slower from one minute to the next, which swamps any bound on raw
    wall time. So the workload's reference job runs between tasks, at most
    every ``reference.every_ns``, and the tasks between two reference runs
    have their wall times multiplied by the reference's nominal time over
    the median of the reference times around them (``SMOOTHING`` on each
    side). A set-up is scaled by the median of the reference times on both
    sides of it. Raw wall times are kept as well.
    """

    def __init__(self, reference):
        self.reference = reference
        # Compact arrays: a run keeps every time, and peak memory is a metric.
        self.raw = array.array("q")
        self.scaled = array.array("d")
        self._probes = [self.probe()]
        self._windows: list[list[int]] = []  # window j lies between probes j and j + 1
        self._current: list[int] = []
        self._last_at = perf_counter_ns()

    def probe(self) -> int:
        start = perf_counter_ns()
        self.reference.run()
        return perf_counter_ns() - start

    def add(self, ns: int) -> None:
        self.raw.append(ns)
        self._current.append(ns)
        if perf_counter_ns() - self._last_at >= self.reference.every_ns:
            self._cut()
            self._scale(final=False)

    def close(self) -> None:
        if self._current:
            self._cut()
        self._scale(final=True)

    def _cut(self) -> None:
        self._probes.append(self.probe())
        self._windows.append(self._current)
        self._current = []
        self._last_at = perf_counter_ns()

    def _scale(self, final: bool) -> None:
        while self._windows:
            j = len(self._probes) - 1 - len(self._windows)  # oldest unscaled window
            if not final and j + 1 + SMOOTHING > len(self._probes):
                return
            around = self._probes[max(0, j + 1 - SMOOTHING):j + 1 + SMOOTHING]
            factor = self.reference.nominal_ns / statistics.median(around)
            self.scaled.extend(ns * factor for ns in self._windows.pop(0))

    def _probes_for(self, ns: int) -> list[int]:
        out = []
        while len(out) < 3 or sum(out) < ns:
            out.append(self.probe())
        return out

    def timed_setup(self, build):
        """Run ``build``; return (its result, scaled seconds, raw seconds)."""
        before = self._probes_for(SETUP_PROBE_NS)
        # The collector is paused: set-up builds a large heap of long-lived
        # inputs, and collections rescanning it would time the harness.
        gc.disable()
        start = perf_counter_ns()
        try:
            result = build()
        finally:
            raw = perf_counter_ns() - start
            gc.enable()
        factor = self.reference.nominal_ns / statistics.median(
            before + self._probes_for(SETUP_PROBE_NS))
        return result, raw * factor / 1e9, raw / 1e9


def run_task(task) -> tuple[int, bool]:
    """Time one task; return (nanoseconds, whether the answer was right)."""
    start = perf_counter_ns()
    try:
        result = task.call()
    except Exception as exc:  # a crash is a wrong answer, counted not raised
        result = exc
    elapsed = perf_counter_ns() - start
    if isinstance(result, Exception):
        return elapsed, False
    try:
        return elapsed, bool(task.check(result))
    except Exception:
        return elapsed, False


def closed_loop(tasks, seconds: float, whole_passes: bool, scaler: Scaler,
                min_tasks: int = MIN_TASKS) -> int:
    """Repeat the pass until ``seconds`` are up and ``min_tasks`` have run,
    stopping after the task or, with ``whole_passes``, the pass that crosses
    that line. Times go to ``scaler``; returns the number of wrong answers."""
    deadline = perf_counter_ns() + int(seconds * 1e9)
    failed = 0

    def done() -> bool:
        return perf_counter_ns() >= deadline and len(scaler.raw) >= min_tasks

    try:
        while True:
            for task in tasks:
                ns, ok = run_task(task)
                scaler.add(ns)
                failed += not ok
                if not whole_passes and done():
                    return failed
            if done():
                return failed
    finally:
        scaler.close()


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def latency(times) -> dict:
    return {
        "task_p50_ms": statistics.median(times) / 1e6,
        "task_p90_ms": quantile(times, 0.9) / 1e6,
        "tasks_per_s": len(times) / (sum(times) / 1e9),
    }


def end_to_end(wl, seconds: float, reference, setups) -> tuple[dict, dict, int, int]:
    """(scaled metrics, raw wall-time figures, attempted, failed)."""
    scaler = Scaler(reference)
    failed = closed_loop(wl.tasks, seconds, wl.whole_passes, scaler)
    rss = peak_rss_mb(wl.rss_of_children)  # before sorting copies of the times
    values = latency(scaler.scaled)
    values["peak_rss_mb"] = rss
    values["setup_s"] = statistics.median(scaled for scaled, _ in setups)
    raw = latency(scaler.raw)
    raw["setup_s"] = statistics.median(r for _, r in setups)
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return metrics, raw, len(scaler.raw), failed


def fresh_start_ms(code: str, env: dict) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(START_SAMPLES):
        start = perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       capture_output=True, check=True)
        times.append(perf_counter_ns() - start)
    return statistics.median(times) / 1e6


def traced(wl, seconds: float, workload_name: str, seed: int, reference) -> tuple[dict, int, int]:
    """Alternate untraced and traced passes of the in-process tasks until
    ``seconds`` are up; per-layer metrics come from the traced passes."""
    from bench import tracing, workloads

    extra = {}
    if workload_name == "cli-fixtures":
        env = workloads.cli_env()
        extra["interpreter_ms"] = fresh_start_ms("pass", env)
        extra["import_ms"] = fresh_start_ms("import rupture_kit.cli", env) - extra["interpreter_ms"]
    tasks = wl.trace_tasks
    tracer = tracing.Tracer(workloads.kernel())
    passes, plain_ns, traced_ns = [], [], []
    attempted = failed = 0
    deadline = perf_counter_ns() + int(seconds * 1e9)
    spans = []
    while True:
        plain = Scaler(reference)
        for task in tasks:
            ns, ok = run_task(task)
            plain.add(ns)
            failed += not ok
        plain.close()
        with_spans = Scaler(reference)
        tracer.on()
        try:
            for i, task in enumerate(tasks):
                tracer.task_id = i
                ns, ok = run_task(task)
                with_spans.add(ns)
                failed += not ok
        finally:
            tracer.off()
        with_spans.close()
        plain_ns.append(sum(plain.scaled))
        traced_ns.append(sum(with_spans.scaled))
        attempted += 2 * len(tasks)
        spans = tracer.take()
        passes.append(tracing.summarize_pass(spans))
        if perf_counter_ns() >= deadline:
            break
    extra["overhead_ratio"] = statistics.median(traced_ns) / statistics.median(plain_ns)
    values = tracing.layer_metrics(passes, tasks, workloads.SUBCOMMANDS, extra)
    write_spans(spans, workload_name, seed)
    spec = tracing.per_layer_spec(workloads.SUBCOMMANDS)
    return {name: (values[name], unit) for name, unit, _ in spec}, attempted, failed


def write_spans(spans, workload_name: str, seed: int) -> None:
    """The spans of the last traced pass, oldest start first."""
    keys = ("id", "name", "start_ns", "end_ns", "parent", "task", "out", "tag")
    rows = [dict(zip(keys, s)) for s in sorted(spans, key=lambda s: s[2])[:SPANS_WRITTEN]]
    path = OUT_DIR / f"trace-{workload_name}-seed{seed}.json"
    path.write_text(json.dumps({"spans": rows, "total": len(spans)}), encoding="utf-8")


def parse_args(argv):
    from bench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "rupture_kit" / "__init__.py").is_file() or not (
            ROOT / "fixtures").is_dir():
        print(f"error: no rupture_kit sources and fixtures under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from bench import workloads

    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    build = workloads.WORKLOADS[args.workload]
    reference = workloads.REFERENCES[args.workload]
    setup_scaler = Scaler(reference)
    setups, wl = [], None
    raw = {}
    try:
        for _ in range(SETUP_REPEATS):
            if wl is not None:
                wl.cleanup()
                wl = None
            wl, scaled_s, raw_s = setup_scaler.timed_setup(lambda: build(args.seed))
            setups.append((scaled_s, raw_s))
        # The inputs and answers live for the whole run: keep the collector
        # from rescanning them during timed calls.
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics, attempted, failed = traced(wl, args.seconds, args.workload, args.seed,
                                                reference)
        else:
            metrics, raw, attempted, failed = end_to_end(wl, args.seconds, reference, setups)
    finally:
        if wl is not None:
            wl.cleanup()

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  loop closed, 1 caller")
    print(f"# python {platform.python_version()}  nproc {nproc()}  "
          f"PYTHONHASHSEED {workloads.HASH_SEED} for CLI subprocesses")
    print(f"# tasks {attempted}  failed {failed}  "
          f"error_ratio {failed / max(attempted, 1):.6f} share")
    for name, value in raw.items():
        print(f"# unscaled wall time: {name} {value:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
