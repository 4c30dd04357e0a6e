"""Tests of the benchmark itself: every workload at a tiny size, wrong
answers counted, the metric names of BENCHMARK.json printed with their
units, and the oracle agreeing with the kernel.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import oracle, run, tracing, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_pass(tasks) -> int:
    return run.closed_loop(tasks, 0, True, run.Scaler(workloads.SCAN), min_tasks=0)


def tiny(name, tmp_path, **kwargs):
    if name == "cli-fixtures":
        kwargs.setdefault("gen_root", tmp_path)
    return workloads.WORKLOADS[name](7, "tiny", **kwargs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_is_correct_plain_and_traced(name, tmp_path):
    wl = tiny(name, tmp_path)
    try:
        assert wl.tasks and one_pass(wl.tasks) == 0
        tracer = tracing.Tracer(workloads.kernel())
        tracer.on()
        try:
            for i, task in enumerate(wl.trace_tasks):
                tracer.task_id = i
                assert run.run_task(task)[1]
        finally:
            tracer.off()
        passes = [tracing.summarize_pass(tracer.take())]
        values = tracing.layer_metrics(passes, wl.trace_tasks, workloads.SUBCOMMANDS, {})
    finally:
        wl.cleanup()
    assert set(values) == {m for m, _, _ in tracing.per_layer_spec(workloads.SUBCOMMANDS)}
    if name == "kernel-large":
        growth = [name for name, _, _, kind, _ in tracing.OP_METRICS if kind == "growth"]
        assert len(growth) == 8 and all(values[name] > 0 for name in growth)
    if name == "cli-fixtures":
        assert all(values[f"cli.{cmd}.main_ms"] > 0 for cmd in {t.cmd for t in wl.trace_tasks})
    # switching the tracer off puts every original function back
    mods = workloads.kernel()
    for module, attrs in tracing.TRACED.items():
        for attr in attrs:
            owner = mods[module]
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert owner.__qualname__ == attr, (module, attr)


def test_wrong_expected_cli_output_is_counted(tmp_path):
    expected = json.loads(workloads.EXPECTED_CLI.read_text(encoding="utf-8"))
    key = workloads.invocation_key(workloads.CLI_INVOCATIONS[0])
    expected[key] = dict(expected[key], stdout=expected[key]["stdout"] + "x")
    wl = tiny("cli-fixtures", tmp_path, expected=expected)
    try:
        assert one_pass(wl.tasks) == 1
        assert one_pass(wl.trace_tasks) == 1
    finally:
        wl.cleanup()


def test_wrong_kernel_answer_is_counted(tmp_path, monkeypatch):
    real = oracle.all_horns
    monkeypatch.setattr(oracle, "all_horns", lambda x: real(x)[1:])
    wl = tiny("kernel-large", tmp_path)
    # both fully_gapped sizes, the parsed and the serialized document disagree
    assert one_pass(wl.tasks) == 4


def test_oracle_matches_kernel_horns_and_fillers():
    k = workloads.kernel()
    S = k["simplicial"]
    rng = random.Random(11)
    for _ in range(60):
        x = workloads.random_complex(S, rng)
        table = oracle.filler_table(x)
        for n in (1, 2):
            for kk in range(n + 1):
                mine = oracle.horns(x, n, kk)
                assert mine == [tuple(h.faces) for h in S.enumerate_horns(x, n, kk)]
                for faces in mine:
                    fillers = [s.index for s in S.find_fillers(x, S.HornSpec(n, kk, faces))]
                    assert table.get((n, kk, faces), []) == fillers


def test_benchmark_json_matches_printed_metrics():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == (
        tracing.per_layer_spec(workloads.SUBCOMMANDS))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_with_unit(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel-small-many", "--seed", "5",
         "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("# tasks ") and "error_ratio 0.000000 share" in line
               for line in lines)
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"# {m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
