"""The comparison of ``scripts/replay.py`` on two in-memory result sets,
without git or a subprocess: every run is counted under its (parent exit,
change exit) pair, every run whose results differ is listed under its
class, and only a run that the parent refuses and the change accepts makes
the replay exit 1. The byte comparison of rebuilt files is checked on files
written here, and the corpus is checked to hold each gap-list edit of
``tests/test_horn_rows.py``."""

import importlib.util
from collections import Counter
from functools import reduce

from support import SRC

spec = importlib.util.spec_from_file_location("replay", SRC.parent / "scripts" / "replay.py")
replay = importlib.util.module_from_spec(spec)
spec.loader.exec_module(replay)


def runs_of(pairs: list) -> tuple[list, list, list]:
    """(runs, parent results, change results) of (parent, change) result pairs."""
    runs = [(f"doc.{i}.json", ["validate", f"/corpus/doc.{i}.json", "--json"])
            for i in range(len(pairs))]
    return runs, [old for old, _ in pairs], [new for _, new in pairs]


def test_each_difference_is_listed_under_its_class():
    pairs = [
        ([0, "valid\n", ""], [0, "valid\n", ""]),
        ([2, "parse error: x (at gap[3])\n", ""], [0, "valid\n", ""]),
        ([0, "valid\n", ""], [1, "error: no simplex\n", ""]),
        ([1, "error: a\n", ""], [2, "parse error: a\n", ""]),
        ([2, "parse error: a\nb\n", ""], [2, "parse error: a\nc\n", ""]),
        ([2, "", "usage: x\n"], [2, "", "usage: y\n"]),
        ([1, "error: a\n", ""], ["raised KeyError: 'n'", "", ""]),
        ([1, "error: a\n", ""], [1, "error: a\n", ""]),
    ]
    counts, differences = replay.compare(*runs_of(pairs))
    assert counts == Counter({(0, 0): 1, (2, 0): 1, (0, 1): 1, (1, 2): 1, (2, 2): 2,
                              (1, "raised KeyError: 'n'"): 1, (1, 1): 1})
    assert [(kind, label) for kind, label, *_ in differences] == [
        ("rejected then accepted", "doc.1.json"),
        ("accepted then rejected", "doc.2.json"),
        ("other exit", "doc.3.json"),
        ("same exit, other bytes", "doc.4.json"),
        ("same exit, other bytes", "doc.5.json"),
        ("other exit", "doc.6.json"),
    ]
    text, status = replay.report(counts, differences)
    assert status == 1
    lines = text.splitlines()
    assert "parent exit 2, change exit 0: 1 runs" in lines
    assert ("rejected then accepted: doc.1.json: validate doc.1.json --json (exit 2, then 0)"
            in lines)
    assert "  stdout: 'b', then 'c'" in lines and "  stderr: 'usage: x', then 'usage: y'" in lines
    assert lines[-1] == ("6 of 8 runs differ; rejected then accepted: 1; accepted then "
                         "rejected: 1; other exit: 2; same exit, other bytes: 2")


def test_a_replay_without_a_newly_accepted_run_exits_0():
    same = [([0, "valid\n", ""], [0, "valid\n", ""]), ([2, "parse error\n", ""],) * 2]
    text, status = replay.report(*replay.compare(*runs_of(same)))
    assert status == 0 and text.splitlines()[-1] == "0 of 2 runs differ"
    stricter = same + [([0, "valid\n", ""], [1, "error: x\n", ""])]
    text, status = replay.report(*replay.compare(*runs_of(stricter)))
    assert status == 0 and text.splitlines()[-1] == (
        "1 of 3 runs differ; accepted then rejected: 1")


def test_each_rebuilt_file_that_differs_is_named_and_fails_the_replay(tmp_path):
    pairs = []
    for name, before, after in (("a.json", b"{}\n", b"{}\n"), ("b.json", b"[1]\n", b"[2]\n"),
                                ("c.json", b"x", b"x\n")):
        old, new = tmp_path / "fixtures" / name, tmp_path / "rebuilt" / name
        for path, data in ((old, before), (new, after)):
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(data)
        pairs.append((old, new))
    text, status = replay.compare_files(pairs)
    assert status == 1 and text.splitlines() == [
        "rebuilt fixtures/b.json differs from the checked-in file",
        "rebuilt fixtures/c.json differs from the checked-in file",
        "1 of 3 rebuilt files are byte-identical",
    ]
    assert replay.compare_files(pairs[:1]) == ("1 of 1 rebuilt files are byte-identical", 0)


def test_the_corpus_holds_each_gap_list_edit_of_the_horn_row_test():
    from test_horn_rows import LIST_EDITS, corpus, gap_lists

    edits = replay.list_edits()
    names = [name for name, _ in edits]
    assert len(set(names)) == len(names)
    lists = [(name, where) for name, doc, _ in corpus() for keys, where in gap_lists(doc)
             if reduce(dict.get, keys, doc)]
    assert len(lists) >= 3
    for name, where in lists:
        ops = [n.split(".")[-2] for n in names if n.startswith(f"list-{name}.{where}.")]
        assert ops == [op.replace(" ", "-") for op in LIST_EDITS for _ in range(4)], name


def test_the_argv_variants_but_the_reordered_ones_go_to_argparse(tmp_path):
    from rupture_kit.cli import read_argv

    for name, argv in replay.argv_variants(tmp_path):
        assert (read_argv(argv) is None) != name.startswith("options before positionals"), name
