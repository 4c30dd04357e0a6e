"""Each command loads only the kernel modules its documents and its kernel
calls need, and every public codec of the document layer imports what it
builds.

In-process tests cannot see a missing import: by the time they run, the
test session has loaded every module. So these run in fresh interpreters.
A module set is a count, not a time, and does not depend on the machine.
"""

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from rupture_kit import documents

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

COMPLEX = {"cli", "documents", "errors", "simplicial"}
RUPTURED = COMPLEX | {"ruptured"}
FIBRATION = RUPTURED | {"fibration"}

# One command per document kind, and the rupture_kit modules it loads.
MODULE_SETS = [
    (("validate", "triangle.json"), COMPLEX),
    (("horns", "circle3_gapped.json", "--dim", "2", "--missing", "1"), RUPTURED),
    (("transport", "bank.json", "--term", "0", "--path", "0"), FIBRATION),
    (("monodromy", "double_cover_3.json", "monodromy_task_3.json"), FIBRATION | {"covering"}),
    (("derive", "derive_linear_horn.json"), {"cli", "derivability", "documents", "errors"}),
    (("judgments", "judgment_script.json"), {"cli", "documents", "errors", "judgments"}),
]

RUN_MAIN = """
import contextlib, io, json, sys
from rupture_kit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("rupture_kit."))
print(json.dumps({"exit": code, "modules": loaded}))
"""


def fresh(code: str, *args: str) -> str:
    """The stdout of ``code`` run in a new interpreter with ``src`` and
    ``tests`` on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    run = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, cwd=ROOT, env=env)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.parametrize("argv,modules", MODULE_SETS, ids=[m[0][0] for m in MODULE_SETS])
def test_command_loads_only_what_it_reads(argv, modules):
    args = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    got = json.loads(fresh(RUN_MAIN, *args))
    assert got["exit"] == 0
    assert set(got["modules"]) == modules


# Every public codec of ``documents``, called as the first documents call
# of a fresh interpreter. ``load(name)`` is a fixture's raw JSON; the
# arguments of a serializer are built with the kernel or the test builders.
CODEC_CALLS = {
    "body_to_complex": "D.body_to_complex(load('triangle.json'))",
    "complex_to_body": "D.complex_to_body(standard_simplex(2, 2))",
    "body_to_mode": "D.body_to_mode(load('bank.json')['gap_lifts'][0]['mode'], 'm')",
    "body_to_mode monodromy": (
        "D.body_to_mode({'kind': 'monodromy', 'payload': "
        "{'fiber': [0, 3], 'images': [[0, 3], [3, 0]]}}, 'm')"
    ),
    "mode_to_body": (
        "D.mode_to_body(GapMode('monodromy', FiberPermutation.of([0, 3], {0: 3, 3: 0})))"
    ),
    "body_to_horn": (
        "D.body_to_horn({'n': 2, 'k': 1, 'faces': {'0': 2, '2': 0}}, 'h', standard_simplex(2, 2))"
    ),
    "horn_to_body": "D.horn_to_body(enumerate_horns(standard_simplex(2, 2), 2, 1)[0])",
    "body_to_ruptured": "D.body_to_ruptured(load('circle3_gapped.json'))",
    "ruptured_to_body": "D.ruptured_to_body(fully_gapped(standard_simplex(2, 2)))",
    "body_to_fibration": "D.body_to_fibration(load('double_cover_3.json'))",
    "fibration_to_body": "D.fibration_to_body(bank_fibration())",
    "body_to_covering_task": "D.body_to_covering_task(load('monodromy_task_3.json'))",
    "covering_task_to_body": "D.covering_task_to_body(double_cover_task())",
    "body_to_type": "D.body_to_type({'prod': [{'atom': 'A'}, {'unit': {}}]}, 't')",
    "type_to_body": "D.type_to_body(linear_horn_task().goal)",
    "body_to_term": "D.body_to_term({'pair': [{'var': 'x'}, {'unit': {}}]}, 't')",
    "term_to_body": "D.term_to_body(linear_horn_task().term)",
    "body_to_context": "D.body_to_context(load('derive_linear_horn.json')['gamma'], 'g')",
    "context_to_body": "D.context_to_body(linear_horn_task().gamma)",
    "body_to_derive_task": "D.body_to_derive_task(load('derive_linear_horn.json'))",
    "derive_task_to_body": "D.derive_task_to_body(linear_horn_task())",
    "body_to_judgment": "D.body_to_judgment({'arrow': ['J', 'K']}, 'j')",
    "judgment_to_body": "D.judgment_to_body(BaseJudgment('M'))",
    "body_to_script": "D.body_to_script(load('judgment_script.json'))",
    "script_to_body": "D.script_to_body([ScriptCommand('is_open', BaseJudgment('M'))])",
    "parse_document": "D.parse_document(text('crane.json'))",
    "serialize_document": (
        "D.serialize_document(D.Document('derive-task', linear_horn_task()))"
    ),
    "load_document": "D.load_document(FIXTURES / 'bottle.json')",
}

# Names the serializers' arguments are built from, imported before the
# codec call; the parsers get JSON only.
BUILDERS = {
    "standard_simplex": "from rupture_kit.simplicial import standard_simplex",
    "enumerate_horns": "from rupture_kit.simplicial import enumerate_horns",
    "fully_gapped": "from rupture_kit.ruptured import fully_gapped",
    "GapMode": "from rupture_kit.ruptured import GapMode",
    "FiberPermutation": "from rupture_kit.covering import FiberPermutation",
    "BaseJudgment": "from rupture_kit.judgments import BaseJudgment",
    "ScriptCommand": "from rupture_kit.judgments import ScriptCommand",
    "bank_fibration": "from fixture_builders import bank_fibration",
    "double_cover_task": "from fixture_builders import double_cover_task",
    "linear_horn_task": "from fixture_builders import linear_horn_task",
}

CALL_CODEC = """
import json, pathlib
import rupture_kit.documents as D
FIXTURES = pathlib.Path({fixtures!r})
def text(name):
    return (FIXTURES / name).read_text(encoding="utf-8")
def load(name):
    return json.loads(text(name))
{imports}
print(repr({call}))
"""


def codec_program(call: str) -> str:
    imports = "\n".join(line for name, line in BUILDERS.items() if re.search(rf"\b{name}\b", call))
    return CALL_CODEC.format(fixtures=str(FIXTURES), imports=imports, call=call)


def test_every_public_codec_is_called():
    public = {
        name for name, value in vars(documents).items()
        if callable(value) and not name.startswith("_")
        and getattr(value, "__module__", None) == documents.__name__
        and name != "Document"
    }
    assert public == {call.split(" ")[0] for call in CODEC_CALLS}


@pytest.mark.parametrize("name", sorted(CODEC_CALLS))
def test_codec_works_as_the_first_call(name):
    program = codec_program(CODEC_CALLS[name])
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(program, {"__name__": "__main__"})
    assert fresh(program) == here.getvalue()


def test_task_records_import_from_documents():
    from rupture_kit.covering import CoveringTask
    from rupture_kit.derivability import DeriveTask
    from rupture_kit.judgments import ScriptCommand

    assert documents.CoveringTask is CoveringTask
    assert documents.DeriveTask is DeriveTask
    assert documents.ScriptCommand is ScriptCommand
    with pytest.raises(AttributeError):
        documents.NoSuchRecord
