#!/usr/bin/env python3
"""Replay a seeded corpus of CLI runs at a parent revision and at this
checkout, and compare each run's exit code, stdout and stderr.

    python3 scripts/replay.py --parent REV [--seeds N]

The corpus is every bundled fixture and N seeded mutations of it
(``tests/test_cli_fuzz.mutate``), and every document of the gap-list corpus
of ``tests/test_horn_rows.py`` with the gap-list edits that its test makes
(``edited_list`` over ``LIST_EDITS``, from one seeded rng per document),
and the documents that the JSON reader itself refuses
(``tests/support.hostile_documents``), each handed to every command of its
kind in ``tests/support.COMMANDS``, in text and with ``--json``; and argv
spellings that go through argparse: refusals, help and odd spellings. The
documents are written once, so both sides read the same files. The
parent's ``src`` is extracted with ``git archive`` into a temporary
directory, which leaves no worktree record behind, and each side replays
the whole corpus in one subprocess, through ``cli.main`` in process.

The report counts the runs per (parent exit, change exit) pair and lists
every run whose results differ, in one of four classes. Each run also
rebuilds, from this checkout and into temporary files, every fixture of
``scripts/gen_fixtures.FIXTURES`` and ``bench/cli_expected.json`` (through
``bench/capture_cli.py``), and compares their bytes with the checked-in
files. The exit status is 1 when some run that the parent refuses is
accepted by the change, or when a rebuilt file differs, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import random
import resource
import subprocess
import sys
import tempfile
from collections import Counter
from functools import reduce
from itertools import zip_longest
from operator import getitem
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MEMORY_CAP = 1 << 30
CLASSES = NEWLY_ACCEPTED, NEWLY_REJECTED, OTHER_EXIT, OTHER_BYTES = (
    "rejected then accepted", "accepted then rejected", "other exit", "same exit, other bytes")


def build_corpus(seeds: int, into: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of each run, with the fixtures, their mutations and the
    gap-list edits written to ``into``; the label names the document the
    command reads."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from support import COMMANDS, FIXTURES, hostile_documents
    from test_cli_fuzz import mutate

    docs = []  # (path, text or bytes, kind): a mutation's text may not parse
    for fixture in sorted(FIXTURES.glob("*.json")):
        text = fixture.read_text(encoding="utf-8")
        rng, kind = random.Random(fixture.name), json.loads(text)["kind"]
        docs.append((into / fixture.name, text, kind))
        docs += [(into / f"{fixture.stem}.{i}.json", mutate(rng, text), kind)
                 for i in range(1, seeds + 1)]
    docs += [(into / f"{name}.json", text, json.loads(text)["kind"])
             for name, text in list_edits()]
    docs += [(into / f"{name}.json", data, kind) for name, data, kind in hostile_documents()]
    runs = []
    for path, text, kind in docs:
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        for command in COMMANDS[kind]:
            argv = [str(path) if a == "@" else str(into / a) if a.endswith(".json") else a
                    for a in command]
            runs += [(path.name, argv), (path.name, argv + ["--json"])]
    return runs + [(f"argv {name}", argv) for name, argv in argv_variants(into)]


def argv_variants(into: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of spellings besides the plain ones of the corpus, over
    fixtures already written to ``into``: argvs that argparse refuses or
    answers with help, and odd spellings that it reads."""
    horns = ["horns", str(into / "circle3_gapped.json")]
    dims = ["--dim", "2", "--missing", "1"]
    validate = ["validate", str(into / "triangle.json")]
    transport = ["transport", str(into / "bank.json"), "--term", "0", "--path", "0"]
    return [
        ("no command", []),
        ("an unknown command", ["check", *validate[1:]]),
        ("a missing --dim", horns + dims[2:]),
        ("--dim x", horns + ["--dim", "x"] + dims[2:]),
        ("an extra positional", validate + [str(into / "bank.json")]),
        ("-h", ["-h"]),
        ("validate --help", ["validate", "--help"]),
        ("--dim=2", horns + ["--dim=2"] + dims[2:]),
        ("--js", validate + ["--js"]),
        ("a repeated --json", transport + ["--json", "--json"]),
        ("--dim 2 --dim 1", horns + dims + ["--dim", "1"]),
        ("options before positionals", [horns[0], "--json", *dims, horns[1]]),
        ("options before positionals, validate", ["validate", "--max-dim", "2", *validate[1:]]),
    ]


def list_edits() -> list[tuple[str, str]]:
    """(name, JSON text) of each document of the gap-list corpus of
    ``tests/test_horn_rows.py`` and of each gap-list edit its test makes,
    with the same rng per document."""
    from test_horn_rows import LIST_EDITS, corpus, edited_list, gap_lists

    from rupture_kit.documents import parse_document

    edits = []
    for name, doc, _ in corpus():
        text = json.dumps(doc)
        edits.append((f"list-{name}", text))
        rng, body = random.Random(f"list {name}"), parse_document(text).body
        for keys, where in gap_lists(doc):
            rows = reduce(getitem, keys, doc)
            if not rows:
                continue
            counts = reduce(getattr, keys[:-1], body).underlying.counts
            for op in LIST_EDITS:
                for i in range(4):
                    changed = copy.deepcopy(doc)
                    reduce(getitem, keys[:-1], changed)[keys[-1]], _ = edited_list(
                        rng, rows, op, counts)
                    edits.append((f"list-{name}.{where}.{op.replace(' ', '-')}.{i}",
                                  json.dumps(changed)))
    return edits


def replay(src: str, corpus: str, out: str) -> int:
    """Run each argv of the ``corpus`` file through ``cli.main`` of the
    package under ``src`` and write [exit, stdout, stderr] per run to ``out``;
    an exception that escapes ``main`` is a result too. The process may map
    at most ``MEMORY_CAP`` bytes, so that a document on which one side
    builds without limit (as an unchecked ``dim_bound`` makes it) ends in a
    ``MemoryError``, not in the machine running out of memory."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    sys.path.insert(0, src)
    from rupture_kit import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"rupture_kit was imported from {cli.__file__}, not {src}")
    results = []
    for argv in json.loads(Path(corpus).read_text(encoding="utf-8")):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refusing the arguments
                code = exc.code or 0
            except Exception as exc:
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, stdout.getvalue(), stderr.getvalue()])
    Path(out).write_text(json.dumps(results), encoding="utf-8")
    return 0


def compare(runs: list, parent: list, change: list) -> tuple[Counter, list]:
    """The number of runs per (parent exit, change exit) pair, and (class,
    label, argv, parent result, change result) for each run whose results
    differ; a result is [exit, stdout, stderr], and only exit 0 accepts."""
    pairs, differences = Counter(), []
    for (label, argv), old, new in zip(runs, parent, change, strict=True):
        pairs[old[0], new[0]] += 1
        if old == new:
            continue
        if old[0] != 0 and new[0] == 0:
            kind = NEWLY_ACCEPTED
        elif old[0] == 0 and new[0] != 0:
            kind = NEWLY_REJECTED
        else:
            kind = OTHER_EXIT if old[0] != new[0] else OTHER_BYTES
        differences.append((kind, label, argv, old, new))
    return pairs, differences


def report(pairs: Counter, differences: list) -> tuple[str, int]:
    """The text of the comparison and the exit status of the replay."""
    lines = [f"parent exit {old}, change exit {new}: {count} runs"
             for (old, new), count in sorted(pairs.items(), key=str)]
    for kind, label, argv, old, new in differences:
        shown = [Path(a).name if a.endswith(".json") else a for a in argv]
        lines.append(f"{kind}: {label}: {' '.join(shown)} (exit {old[0]}, then {new[0]})")
        for stream, before, after in zip(("stdout", "stderr"), old[1:], new[1:]):
            if before != after:
                first = next(((a, b) for a, b in zip_longest(
                    before.splitlines(), after.splitlines(), fillvalue="") if a != b),
                    (before[-60:], after[-60:]))
                lines.append(f"  {stream}: {first[0]!r}, then {first[1]!r}")
    counts = Counter(kind for kind, *_ in differences)
    lines.append(f"{len(differences)} of {sum(pairs.values())} runs differ"
                 + "".join(f"; {kind}: {counts[kind]}" for kind in CLASSES if counts[kind]))
    return "\n".join(lines), int(counts[NEWLY_ACCEPTED] > 0)


def rebuild(into: Path) -> list[tuple[Path, Path]]:
    """(checked-in file, its copy rebuilt from this checkout into ``into``)
    for each fixture and for the captured CLI output of the benchmark."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts"), str(ROOT)]
    from bench import capture_cli, workloads
    from gen_fixtures import FIXTURES
    from rupture_kit.documents import serialize_document

    pairs = []
    for name, doc in sorted(FIXTURES.items()):
        (into / name).write_text(serialize_document(doc), encoding="utf-8")
        pairs.append((ROOT / "fixtures" / name, into / name))
    checked_in, workloads.EXPECTED_CLI = workloads.EXPECTED_CLI, into / "cli_expected.json"
    with contextlib.redirect_stdout(io.StringIO()):
        capture_cli.main()
    return pairs + [(checked_in, workloads.EXPECTED_CLI)]


def compare_files(pairs: list[tuple[Path, Path]]) -> tuple[str, int]:
    """The text of the byte comparison of each (checked-in, rebuilt) file
    pair, and its exit status: 1 when some pair differs."""
    differ = [old for old, new in pairs if old.read_bytes() != new.read_bytes()]
    lines = [f"rebuilt {old.parent.name}/{old.name} differs from the checked-in file"
             for old in differ]
    lines.append(f"{len(pairs) - len(differ)} of {len(pairs)} rebuilt files are byte-identical")
    return "\n".join(lines), int(bool(differ))


def run_side(src: Path, corpus: Path, out: Path) -> list:
    subprocess.run([sys.executable, __file__, "--replay", str(src), str(corpus), str(out)],
                   check=True)
    return json.loads(out.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare with")
    parser.add_argument("--seeds", type=int, default=40, help="mutations per fixture")
    args = parser.parse_args(argv)
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                          f"{args.parent}^{{commit}}"], capture_output=True, text=True)
    rev = rev.stdout.strip()
    if not rev:
        parser.error(f"no commit {args.parent!r} in {ROOT}")
    with tempfile.TemporaryDirectory(prefix="replay-") as tmp:
        tmp = Path(tmp)
        for name in ("corpus", "parent", "rebuilt"):
            (tmp / name).mkdir()
        runs = build_corpus(args.seeds, tmp / "corpus")
        (tmp / "argvs.json").write_text(json.dumps([argv for _, argv in runs]), encoding="utf-8")
        tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], check=True,
                             capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp / "parent")], input=tar, check=True)
        parent = run_side(tmp / "parent" / "src", tmp / "argvs.json", tmp / "parent.json")
        change = run_side(ROOT / "src", tmp / "argvs.json", tmp / "change.json")
        files, rebuilt = compare_files(rebuild(tmp / "rebuilt"))
    text, status = report(*compare(runs, parent, change))
    print(f"parent {rev[:12]} against this checkout, {len(runs)} runs\n{text}\n{files}")
    return status or rebuilt


if __name__ == "__main__":
    if sys.argv[1:2] == ["--replay"]:
        sys.exit(replay(*sys.argv[2:]))
    sys.exit(main())
