#!/usr/bin/env python3
"""Regenerate the bundled JSON fixtures from the in-memory builders."""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from rupture_kit.documents import Document, serialize_document
from rupture_kit.covering import build_double_cover
from fixture_builders import (
    bank_fibration,
    bottle_fibration,
    crane_fibration,
    double_cover_task,
    linear_horn_task,
)
from rupture_kit.judgments import ArrowJudgment, BaseJudgment, Polarity, ScriptCommand
from rupture_kit.ruptured import from_kan, fully_gapped
from rupture_kit.simplicial import standard_simplex
from rupture_kit.covering import build_cycle


def script_commands():
    return [
        ScriptCommand("add", ArrowJudgment("J", "K"), Polarity.COHERENT),
        ScriptCommand("add", ArrowJudgment("K", "L"), Polarity.COHERENT),
        ScriptCommand("add", ArrowJudgment("J", "L"), Polarity.GAPPED),
        ScriptCommand("is_open", BaseJudgment("M")),
        ScriptCommand("horn", first="w1", second="w2", gap="w3"),
        ScriptCommand("add", ArrowJudgment("J", "K"), Polarity.COHERENT),
        ScriptCommand("level_up"),
    ]


FIXTURES = {
    "triangle.json": Document("complex", standard_simplex(2, 2)),
    "triangle_kan.json": Document("ruptured", from_kan(standard_simplex(2, 2))),
    "circle3_open.json": Document("ruptured", from_kan(build_cycle(3))),
    "circle3_gapped.json": Document("ruptured", fully_gapped(build_cycle(3))),
    "bank.json": Document("fibration", bank_fibration()),
    "crane.json": Document("fibration", crane_fibration()),
    "bottle.json": Document("fibration", bottle_fibration()),
    "double_cover_3.json": Document("fibration", build_double_cover(3)),
    "monodromy_task_3.json": Document("covering-task", double_cover_task(3)),
    "derive_linear_horn.json": Document("derive-task", linear_horn_task()),
    "judgment_script.json": Document("judgment-script", script_commands()),
}


def main() -> None:
    out_dir = ROOT / "fixtures"
    out_dir.mkdir(exist_ok=True)
    for name, doc in sorted(FIXTURES.items()):
        path = out_dir / name
        path.write_text(serialize_document(doc), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
