"""Seeded CLI fuzzing at the document boundary.

Every fixture is mutated many times (a key dropped, an integer bumped, a
list shortened or lengthened, a value swapped for one of another type, or
the JSON text cut short) and handed to each command that reads it, in
process through ``cli.main``, after ``validate`` has judged it once.
Whatever the input, the command must answer with exit 0, 1 or 2; an
exception escaping ``main`` fails the test. And no command may answer with
exit 0 about a document that ``validate`` rejects; one whose fibration map
``validate`` refuses to parse, every command refuses with the same parse
error.
"""

import contextlib
import copy
import io
import json
import pathlib
import random

import pytest

from rupture_kit.cli import main

from support import COMMANDS

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

# Every other mutation runs the commands of its kind with --json.
MUTATIONS_PER_FIXTURE = 40

OTHER_TYPES = ["x", 3, -1, 2.5, True, None, [], [0], {}, {"n": 1}]


def _nodes(value, path=()):
    """Every (path, value) in a JSON value, the root included."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _nodes(child, path + (i,))


def _replace(doc, path, value):
    if not path:
        return value
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return doc


def mutate(rng: random.Random, text: str) -> str:
    """One seeded mutation of a document's JSON text."""
    doc = json.loads(text)
    kind = rng.choice(["drop", "bump", "shorten", "lengthen", "retype", "truncate"])
    if kind == "truncate":
        return text[: rng.randrange(len(text))]
    nodes = list(_nodes(doc))
    wanted = {
        "drop": lambda v: isinstance(v, dict) and v,
        "bump": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "shorten": lambda v: isinstance(v, list) and v,
        "lengthen": lambda v: isinstance(v, list),
    }.get(kind, lambda v: True)
    # With no node of the wanted shape, the value's type is swapped instead.
    path, value = rng.choice([n for n in nodes if wanted(n[1])] or nodes)
    value = copy.deepcopy(value)
    if kind == "drop" and isinstance(value, dict) and value:
        del value[rng.choice(sorted(value))]
    elif kind == "bump" and isinstance(value, int):
        value += rng.choice([-5, -2, -1, 1, 2, 5])
    elif kind == "shorten" and isinstance(value, list) and value:
        del value[rng.randrange(len(value)):]
    elif kind == "lengthen" and isinstance(value, list):
        value.append(copy.deepcopy(rng.choice(value)) if value else 0)
    else:
        value = rng.choice([v for v in OTHER_TYPES if type(v) is not type(value)])
    return json.dumps(_replace(doc, path, value))


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return main(argv), out.getvalue()


def mutated_runs(tmp_path, seed, fixture):
    """Each seeded mutation of a fixture, written to disk, with the argv of
    every command that reads it."""
    text = (FIXTURES / fixture).read_text(encoding="utf-8")
    commands = COMMANDS[json.loads(text)["kind"]]
    rng = random.Random(seed)
    mutated = tmp_path / fixture
    for i in range(MUTATIONS_PER_FIXTURE):
        doc = mutate(rng, text)
        mutated.write_text(doc, encoding="utf-8")
        yield doc, mutated, [
            [str(mutated) if a == "@" else str(FIXTURES / a) if a.endswith(".json") else a
             for a in command + ("--json",) * (i % 2)]
            for command in commands
        ]


FIXTURE_SEEDS = list(enumerate(sorted(p.name for p in FIXTURES.glob("*.json"))))


@pytest.mark.parametrize("seed,fixture", FIXTURE_SEEDS)
def test_every_command_answers_a_mutated_document_as_validate_does(tmp_path, seed, fixture):
    """``validate`` runs once per mutation, then each command once: each
    exits 0, 1 or 2 without raising; none exits 0 on a document that
    ``validate`` rejects; and each gives ``validate``'s line and exit 2 on a
    fibration map that ``validate`` refuses to parse. Every fixture yields a
    rejected mutation, and every fibration a refused map."""
    rejected = refused = 0
    for doc, path, argvs in mutated_runs(tmp_path, seed, fixture):
        verdict, report = run(["validate", str(path)])
        line = report if verdict == 2 and "(at fibration.map" in report else ""
        rejected += verdict != 0
        refused += bool(line)
        for argv in argvs:
            try:
                code, out = run(argv)
            except Exception as exc:
                pytest.fail(f"{argv} raised {exc!r} on {doc}")
            assert code in (0, 1, 2), (argv, doc)
            assert code != 0 or verdict == 0, (argv, report, doc)
            assert not line or (code, out) == (2, line), (argv, doc)
    assert rejected
    kind = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))["kind"]
    assert refused or kind != "fibration"
