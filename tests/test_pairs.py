"""The summary of ``scripts/pairs.py`` on canned pair metrics, without git
or a bench run: quartiles, wins (ties count for neither side), a gain
shown only on nine tenths of the pairs won and a median difference above
the parent's interquartile range, and the bound check of each metric."""

import importlib.util

from support import SRC

spec = importlib.util.spec_from_file_location("pairs", SRC.parent / "scripts" / "pairs.py")
pairs_script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs_script)

SPEC = [
    {"name": "task_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "tasks_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
]


def canned(columns: dict) -> list[dict]:
    """Pairs from name -> (parent values, change values)."""
    count = len(next(iter(columns.values()))[0])
    return [{"seed": i + 1, "first": "parent" if i % 2 == 0 else "change",
             "parent_failed": 0, "change_failed": i,
             "parent": {name: old[i] for name, (old, _) in columns.items()},
             "change": {name: new[i] for name, (_, new) in columns.items()}}
            for i in range(count)]


def test_summary_of_canned_pairs():
    pairs = canned({
        "task_p50_ms": ([10, 11, 12, 13, 14], [6, 7, 8, 9, 10]),
        "tasks_per_s": ([100, 100, 100, 100, 100], [100, 101, 99, 100, 130]),
        "peak_rss_mb": ([20, 20, 20, 20, 20], [24, 24, 24, 24, 24]),
    })
    summary = pairs_script.summarize(pairs, SPEC)
    p50, rate, rss = (summary[row["name"]] for row in SPEC)
    assert p50["parent"] == {"q1": 11, "median": 12, "q3": 13}
    assert p50["change"] == {"q1": 7, "median": 8, "q3": 9}
    assert (p50["wins"], p50["pairs"], p50["gain_shown"]) == (5, 5, True)
    assert (round(p50["worse_by"], 4), p50["within_bound"]) == (-0.3333, True)
    assert (rate["wins"], rate["gain_shown"], rate["worse_by"], rate["within_bound"]) == (
        2, False, 0.0, True)
    assert (rss["wins"], rss["gain_shown"], round(rss["worse_by"], 4), rss["within_bound"]) == (
        0, False, 0.2, False)
    lines = pairs_script.report(pairs, summary)
    assert lines[1] == ("pair 1 seed 1 change task_p50_ms 6  tasks_per_s 100  peak_rss_mb 24  "
                        "failed 0")
    assert lines[9] == ("pair 5 seed 5 change task_p50_ms 10  tasks_per_s 130  peak_rss_mb 24  "
                        "failed 4")
    assert lines[10:] == [
        "task_p50_ms (ms, lower is better): parent median 12 [11, 13], change median 8 [7, 9]; "
        "change wins 5 of 5; gain shown; worse by -33.3%, bound 20%: pass",
        "tasks_per_s (1/s, higher is better): parent median 100 [100, 100], change median 100 "
        "[100, 101]; change wins 2 of 5; gain not shown; worse by +0.0%, bound 20%: pass",
        "peak_rss_mb (MB, lower is better): parent median 20 [20, 20], change median 24 "
        "[24, 24]; change wins 0 of 5; gain not shown; worse by +20.0%, bound 15%: FAIL",
    ]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_spread():
    parent = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
    faster = [v - 1 for v in parent]
    for lost, shown in ((0, True), (1, True), (2, False)):
        change = faster[:10 - lost] + [v + 1 for v in parent[10 - lost:]]
        row = pairs_script.summarize(canned({"task_p50_ms": (parent, change)}), SPEC[:1])
        assert (row["task_p50_ms"]["wins"], row["task_p50_ms"]["gain_shown"]) == (
            10 - lost, shown)
    # every pair won, but the medians lie within the parent's quartiles
    close = [v - 0.05 for v in parent]
    row = pairs_script.summarize(canned({"task_p50_ms": (parent, close)}), SPEC[:1])
    assert (row["task_p50_ms"]["wins"], row["task_p50_ms"]["gain_shown"]) == (10, False)
