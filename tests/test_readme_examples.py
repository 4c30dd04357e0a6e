"""The README's "Examples against the bundled fixtures" block, run: each
``rupture-kit`` command runs as ``python -m rupture_kit`` from the repository
root, and its output must read as the ``# `` lines under it, where ``...``
stands for lines left out."""

import pathlib
import shlex
import subprocess
import sys

import pytest

from support import cli_env

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEFT_OUT = None  # a run of lines, maybe none, that the README leaves out


def readme_examples(text: str) -> list[tuple[str, list]]:
    """(command, shown lines) of each command of the examples block, in
    order; a shown line ending in ``...`` is that line and then ``LEFT_OUT``."""
    block = text.split("Examples against the bundled fixtures", 1)[1].split("```sh\n", 1)[1]
    examples = []
    for line in block.split("\n```", 1)[0].splitlines():
        if line.startswith("rupture-kit "):
            examples.append((line.removeprefix("rupture-kit "), []))
        elif line.startswith("# "):
            left_out = line.endswith("...")
            shown = line[2:].removesuffix("...").rstrip()
            examples[-1][1].extend([shown] * bool(shown) + [LEFT_OUT] * left_out)
        else:
            assert not line.strip(), line
    return examples


def shows(shown: list, lines: list[str]) -> bool:
    """Whether ``lines`` read as ``shown``, each ``LEFT_OUT`` any run of lines."""
    if not shown:
        return not lines
    if shown[0] is LEFT_OUT:
        return any(shows(shown[1:], lines[i:]) for i in range(len(lines) + 1))
    return bool(lines) and lines[0] == shown[0] and shows(shown[1:], lines[1:])


EXAMPLES = readme_examples((ROOT / "README.md").read_text(encoding="utf-8"))


def test_the_block_holds_examples():
    assert len(EXAMPLES) >= 3 and all(shown for _, shown in EXAMPLES)


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[c.split()[0] for c, _ in EXAMPLES])
def test_each_example_shows_its_output(command, shown):
    run = subprocess.run([sys.executable, "-m", "rupture_kit", *shlex.split(command)],
                         capture_output=True, text=True, cwd=ROOT, env=cli_env())
    assert run.stderr == ""
    assert shows(shown, run.stdout.splitlines()), run.stdout


def test_left_out_lines_match_any_run():
    assert readme_examples("Examples against the bundled fixtures:\n\n```sh\n"
                           "rupture-kit x\n# a ...\n# ...\n# b\n```\n") == [
        ("x", ["a", LEFT_OUT, LEFT_OUT, "b"])]
    assert shows(["a", LEFT_OUT, "c"], ["a", "b", "b", "c"])
    assert shows(["a", LEFT_OUT], ["a"])
    assert not shows(["a", LEFT_OUT, "c"], ["a", "b"])
    assert not shows(["a"], ["a", "b"])
