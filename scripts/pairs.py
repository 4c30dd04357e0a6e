#!/usr/bin/env python3
"""Run one benchmark workload in alternating pairs at a parent revision and
at this checkout, and summarize each end-to-end metric.

    python3 scripts/pairs.py --parent REV --workload W --pairs N --seconds S [--label L]

The parent's tree is extracted with ``git archive`` into a temporary
directory, as ``scripts/replay.py`` extracts its ``src``, and this
checkout's files (tracked and untracked, not ignored, as ``git ls-files``
lists them) are copied beside it, so both sides start from the same state.
Both trees are byte-compiled before the first run: a side that compiled
its modules in process would read more ``peak_rss_mb``. Pair i runs
``bench/run.py --workload W --seed i --seconds S --trace 0`` on each side,
the parent first when i is odd and this checkout first when i is even.

It prints each pair's metrics and, per metric of ``BENCHMARK.json``'s
``end_to_end``, the medians and quartiles of both sides, the pairs the
change wins, whether a gain is shown (at least nine tenths of the pairs won
and the medians apart by more than the parent's interquartile range), and
whether the change's median stays within the metric's bound. It writes
the same to ``BENCH_<label>.json`` at the root of the checkout; the label
defaults to the workload's name.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], spec: list[dict]) -> dict:
    """Per metric of ``spec`` (``BENCHMARK.json``'s ``end_to_end`` rows),
    from ``pairs``, each {"parent": metrics, "change": metrics} with metrics
    a name -> value dict: both sides' quartiles, the pairs the change wins,
    whether a gain is shown, the relative change of the medians in the
    worse direction, and whether that stays within the bound."""
    summary = {}
    for row in spec:
        name, lower = row["name"], row["better"] == "lower"
        old = [pair["parent"][name] for pair in pairs]
        new = [pair["change"][name] for pair in pairs]
        (q1, median, q3), (_, new_median, _) = quartiles(old), quartiles(new)
        wins = sum(b < a if lower else b > a for a, b in zip(old, new))
        worse = new_median - median if lower else median - new_median
        summary[name] = {
            "unit": row["unit"],
            "better": row["better"],
            "parent": {"q1": q1, "median": median, "q3": q3},
            "change": dict(zip(("q1", "median", "q3"), quartiles(new))),
            "wins": wins,
            "pairs": len(pairs),
            "gain_shown": wins >= math.ceil(0.9 * len(pairs)) and -worse > q3 - q1,
            "worse_by": worse / median if median else 0.0,
            "bound": row["bound"],
            "within_bound": worse <= row["bound"] * median,
        }
    return summary


def report(pairs: list[dict], summary: dict) -> list[str]:
    """The printed lines: one per pair and side, then one per metric."""
    names = list(summary)
    lines = []
    for i, pair in enumerate(pairs, 1):
        for side in ("parent", "change"):
            values = "  ".join(f"{name} {pair[side][name]:.6g}" for name in names)
            lines.append(f"pair {i} seed {pair['seed']} {side:6s} {values}  "
                         f"failed {pair[side + '_failed']}")
    for name, row in summary.items():
        old, new = row["parent"], row["change"]
        lines.append(
            f"{name} ({row['unit']}, {row['better']} is better): parent median "
            f"{old['median']:.6g} [{old['q1']:.6g}, {old['q3']:.6g}], change median "
            f"{new['median']:.6g} [{new['q1']:.6g}, {new['q3']:.6g}]; change wins "
            f"{row['wins']} of {row['pairs']}; gain {'shown' if row['gain_shown'] else 'not shown'}"
            f"; worse by {row['worse_by']:+.1%}, bound {row['bound']:.0%}: "
            f"{'pass' if row['within_bound'] else 'FAIL'}")
    return lines


def copy_checkout(into: Path) -> None:
    """This checkout's files as ``git ls-files`` lists them: tracked and
    untracked, without the ignored ones or those deleted."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], check=True, capture_output=True).stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = ROOT / name
        if source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The parsed last line of one ``bench/run.py`` run on ``tree``."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare with")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, required=True, help="pairs of runs")
    parser.add_argument("--seconds", type=float, required=True, help="seconds per run")
    parser.add_argument("--label", help="names BENCH_<label>.json; the workload by default")
    args = parser.parse_args(argv)
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                          f"{args.parent}^{{commit}}"], capture_output=True, text=True)
    rev = rev.stdout.strip()
    if not rev:
        parser.error(f"no commit {args.parent!r} in {ROOT}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"no workload {args.workload!r} in BENCHMARK.json")
    pairs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                             capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=tar, check=True)
        copy_checkout(trees["change"])
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                           cwd=tree, check=True, capture_output=True)
        for seed in range(1, args.pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                result = run_bench(trees[side], args.workload, seed, args.seconds)
                pair[f"{side}_failed"] = result["failed"]
                pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
            pairs.append(pair)
            print(f"# pair {seed} of {args.pairs} done, {order[0]} first", file=sys.stderr)
    summary = summarize(pairs, spec["end_to_end"])
    print("\n".join(report(pairs, summary)))
    out = ROOT / f"BENCH_{args.label or args.workload}.json"
    record = {"parent": rev, "workload": args.workload, "seconds": args.seconds,
              "python": sys.version.split()[0], "pairs": pairs, "summary": summary}
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
