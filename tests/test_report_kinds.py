"""Every report kind in the source is listed in the README, and every kind
the README lists is one the source can report: a kind is a stable code."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def source_kinds() -> set[str]:
    """The string literals passed as the first argument of ``Violation(...)``
    anywhere under ``src``."""
    kinds = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Violation"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                kinds.add(node.args[0].value)
    return kinds


def readme_kinds() -> set[str]:
    """The first column of the table under the README's "Report kinds"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Report kinds\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))


def test_the_readme_lists_every_report_kind():
    kinds = source_kinds()
    assert len(kinds) >= 10, kinds
    assert readme_kinds() == kinds
