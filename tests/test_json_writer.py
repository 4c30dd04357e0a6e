"""``documents.dump_json`` against the stdlib's indented dump.

The one JSON writer of the documents and the CLI must give the text of
``json.dumps(value, indent=2, sort_keys=True)`` or raise ``TypeError``,
never other text, where every ``HornSpec`` is written as its
``horn_to_body``; only a dict key that is not a str may make it raise where
the stdlib writes. It is compared on every value it writes for the bundled
fixtures, for every ``--json`` report of every command on them, for the
benchmark's 7-simplex document, on horns of every shape up to n = 12 and on
seeded nested values. And no command or serializer may reach the stdlib's
pure-Python encoder, which is what an indented ``json.dumps`` runs on
CPython.
"""

import contextlib
import io
import json
import json.encoder
import random
from collections import OrderedDict
from enum import Enum, IntEnum
from typing import NamedTuple

import pytest

from rupture_kit import documents
from rupture_kit.cli import main
from rupture_kit.documents import (
    Document, dump_json, horn_to_body, load_document, parse_document, serialize_document,
)
from rupture_kit.fibration import RupturedFibrationData
from rupture_kit.ruptured import fully_gapped
from rupture_kit.simplicial import HornSpec, SimplicialMap, standard_simplex

from support import FIXTURES, fixture_commands, plain


def stdlib(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.fixture
def written(monkeypatch):
    """Every value a serializer or a command hands to ``dump_json``."""
    values = []

    def record(value):
        values.append(value)
        return dump_json(value)

    monkeypatch.setattr(documents, "dump_json", record)
    return values


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return main(argv), out.getvalue()


FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))
ARGVS = fixture_commands()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_bodies_match_the_stdlib(written, name):
    doc = parse_document((FIXTURES / name).read_text(encoding="utf-8"))
    text = serialize_document(doc)
    (payload,) = written
    assert dump_json(payload) == stdlib(plain(payload))
    assert text == stdlib(plain(payload)) + "\n"


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a).replace(str(FIXTURES) + "/", "")
                                             for a in ARGVS])
def test_every_json_report_matches_the_stdlib(written, argv):
    code, out = run(argv)
    if not written:  # text, or a command that refused its documents
        assert "--json" not in argv or code != 0, out
        return
    assert "--json" in argv and len(written) == 1, argv
    assert out == stdlib(plain(written[0])) + "\n"


FIBRATIONS = [name for name in FIXTURE_NAMES
              if json.loads((FIXTURES / name).read_text(encoding="utf-8"))["kind"] == "fibration"]


@pytest.mark.parametrize("name", FIBRATIONS)
def test_compose_reports_match_the_stdlib(written, tmp_path, name):
    """``compose`` of a fixture with itself is refused; with the identity
    on its base it answers."""
    f = load_document(FIXTURES / name).body
    identity = RupturedFibrationData(f.base, f.base, SimplicialMap.identity(f.base.underlying))
    path = tmp_path / "identity.json"
    path.write_text(serialize_document(Document("fibration", identity)), encoding="utf-8")
    written.clear()
    code, out = run(["compose", str(FIXTURES / name), str(path), "--json"])
    assert code == 0 and len(written) == 1
    assert out == stdlib(plain(written[0])) + "\n"


def test_the_benchmark_document_matches_the_stdlib(written):
    doc = Document("ruptured", fully_gapped(standard_simplex(7, 3)))
    text = serialize_document(doc)
    (payload,) = written
    assert len(payload["gap"]) == 632
    assert text == stdlib(plain(payload)) + "\n"


@pytest.mark.parametrize("n", range(1, 13))
def test_horns_are_written_as_their_bodies(n):
    """From n = 10 on, a horn body's face keys sort as strings, "10"
    before "2", not in the order of its faces."""
    for k in range(n + 1):
        h = HornSpec(n, k, tuple(range(100, 100 + n)))
        value = {"horn": h, "rows": [h, {"at": [h]}], "gap": (h,)}
        assert dump_json(h) == stdlib(horn_to_body(h))
        assert dump_json(value) == stdlib(plain(value))


class Pair(NamedTuple):
    left: object
    right: object


class Label(str, Enum):
    A = "a\"\\\n"


class Level(IntEnum):
    LOW = -3


STRINGS = ["", "plain", 'quote " inside', "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f",
           "café", "  ", "\U0001f600", "\ud800", "/slash/", Label.A]
INTS = [0, 1, -1, 7, -2 ** 63, 2 ** 100, -(10 ** 30), Level.LOW]
FLOATS = [0.5, -0.0, 1e100, -2.5e-7, 3.0, float("nan"), float("inf"), float("-inf")]
ATOMS = STRINGS + INTS + FLOATS + [True, False, None]


def nested(rng: random.Random, depth: int):
    """A seeded value the writer must match: str keys only."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(ATOMS)
    size = rng.choice([0, 0, 1, 2, 3, 5])
    items = [nested(rng, depth - 1) for _ in range(size)]
    if roll < 0.45:
        return items
    if roll < 0.55:
        return tuple(items)
    if roll < 0.6 and size:
        return Pair(items[0], items[-1])
    keys = [rng.choice(STRINGS) + rng.choice(["", "k", "0", "10", "2"]) for _ in items]
    made = dict(zip(keys, items))
    return OrderedDict(reversed(made.items())) if roll < 0.65 else made


def test_seeded_values_match_the_stdlib():
    rng = random.Random(15)
    for _ in range(3000):
        value = nested(rng, rng.randint(0, 5))
        assert dump_json(value) == stdlib(value), value


@pytest.mark.parametrize("value", [
    2.5, [1.0], {"x": float("nan")}, float("inf"), -0.0, 1e300, {"a": [0.1, {"b": -1e-7}]},
])
def test_floats_match_the_stdlib(value):
    assert dump_json(value) == stdlib(value)


@pytest.mark.parametrize("value", [
    {1: "a"}, {None: 0}, {True: 1}, {2.5: []}, {"a": 1, 2: 3}, [{"ok": {3: 4}}], {(1, 2): 0},
])
def test_non_str_keys_match_or_raise_type_error(value):
    try:
        expected = stdlib(value)
    except TypeError:
        expected = None
    try:
        got = dump_json(value)
    except TypeError:
        return
    assert got == expected


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", object(), [{"a": {1, 2}}]])
def test_values_the_stdlib_refuses_raise_type_error(value):
    with pytest.raises(TypeError):
        stdlib(value)
    with pytest.raises(TypeError):
        dump_json(value)


def test_no_command_reaches_the_pure_python_encoder(monkeypatch):
    """With the stdlib's indented encoder broken, every command on every
    fixture, and every serializer, still answers as it did."""
    expected = [run(argv) for argv in ARGVS]
    texts = {name: (FIXTURES / name).read_text(encoding="utf-8") for name in FIXTURE_NAMES}

    class Reached(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Reached("the pure-Python JSON encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(Reached):
        stdlib({"a": 1})
    assert [run(argv) for argv in ARGVS] == expected
    for name, text in texts.items():
        assert serialize_document(parse_document(text)) == text
