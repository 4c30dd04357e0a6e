"""Document parsing, serialization round-trips, and schema errors."""

import importlib.util
import json
import pathlib

import pytest

from rupture_kit.documents import (
    Document,
    load_document,
    parse_document,
    serialize_document,
)
from rupture_kit.errors import DocumentError

FIXTURES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "fixtures").glob("*.json")
)


def test_fixture_corpus_present():
    names = {p.name for p in FIXTURES}
    assert {
        "bank.json",
        "crane.json",
        "bottle.json",
        "double_cover_3.json",
        "monodromy_task_3.json",
        "derive_linear_horn.json",
        "judgment_script.json",
        "triangle.json",
        "triangle_kan.json",
        "circle3_open.json",
        "circle3_gapped.json",
    } <= names


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_round_trip_identity(path):
    doc = load_document(path)
    text = serialize_document(doc)
    again = parse_document(text)
    assert again.kind == doc.kind
    assert again.body == doc.body
    # serialization is a fixed point
    assert serialize_document(again) == text


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_fixture_files_are_canonical(path):
    # the committed files equal their own re-serialization
    doc = load_document(path)
    assert path.read_text(encoding="utf-8") == serialize_document(doc)


class TestParseErrors:
    def test_malformed_json_positions(self):
        with pytest.raises(DocumentError) as err:
            parse_document("{not json")
        assert "line 1" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(DocumentError, match="unknown kind"):
            parse_document('{"format": "rupture-kit/1", "kind": "mystery"}')

    def test_wrong_format(self):
        with pytest.raises(DocumentError, match="unsupported format"):
            parse_document('{"format": "other/9", "kind": "complex"}')

    def test_missing_key_names_path(self):
        with pytest.raises(DocumentError) as err:
            parse_document('{"format": "rupture-kit/1", "kind": "complex"}')
        assert "dim_bound" in str(err.value)

    def test_face_row_arity_checked(self):
        text = (
            '{"format": "rupture-kit/1", "kind": "complex", "dim_bound": 1,'
            ' "simplices": {"0": 2, "1": 1}, "faces": {"1": [[0]]}}'
        )
        with pytest.raises(DocumentError, match="needs 2 entries"):
            parse_document(text)

    def test_horn_face_indices_checked(self):
        text = (
            '{"format": "rupture-kit/1", "kind": "ruptured", "dim_bound": 1,'
            ' "simplices": {"0": 2, "1": 1}, "faces": {"1": [[1, 0]]},'
            ' "coh": {}, "gap": [{"n": 1, "k": 0, "faces": {"0": 0}}]}'
        )
        with pytest.raises(DocumentError, match="cover indices"):
            parse_document(text)

    def test_semantic_mode_payload_schema(self):
        text = (
            '{"format": "rupture-kit/1", "kind": "ruptured", "dim_bound": 1,'
            ' "simplices": {"0": 2, "1": 1}, "faces": {"1": [[1, 0]]},'
            ' "coh": {}, "gap": [{"n": 1, "k": 0, "faces": {"1": 0},'
            ' "mode": {"kind": "semantic", "payload": [3]}}]}'
        )
        with pytest.raises(DocumentError, match="feature strings"):
            parse_document(text)

    def test_monodromy_payload_must_be_bijection(self):
        text = (
            '{"format": "rupture-kit/1", "kind": "ruptured", "dim_bound": 1,'
            ' "simplices": {"0": 2, "1": 1}, "faces": {"1": [[1, 0]]},'
            ' "coh": {}, "gap": [{"n": 1, "k": 0, "faces": {"1": 0},'
            ' "mode": {"kind": "monodromy",'
            ' "payload": {"fiber": [0, 1], "images": [[0, 0], [1, 0]]}}}]}'
        )
        with pytest.raises(DocumentError, match="bijection"):
            parse_document(text)

    def test_covering_task_direction_checked(self):
        text = (
            '{"format": "rupture-kit/1", "kind": "covering-task",'
            ' "basepoint": 0, "loops": [[{"edge": 0, "dir": "up"}]]}'
        )
        with pytest.raises(DocumentError, match="'\\+' or '-'"):
            parse_document(text)

    def test_unknown_annotation(self):
        text = (
            '{"format": "rupture-kit/1", "kind": "derive-task",'
            ' "gamma": [{"var": "x", "type": {"atom": "A"}, "annotation": "weird"}],'
            ' "delta": [], "sigma": {}, "term": {"unit": {}}, "goal": {"unit": {}}}'
        )
        with pytest.raises(DocumentError, match="unknown annotation"):
            parse_document(text)

    def test_missing_file(self):
        with pytest.raises(DocumentError):
            load_document("/nonexistent/nowhere.json")


class TestGapModePayloads:
    def test_monodromy_payload_round_trip(self):
        from rupture_kit.covering import FiberPermutation
        from rupture_kit.documents import body_to_mode, mode_to_body
        from rupture_kit.ruptured import GapMode

        mode = GapMode("monodromy", FiberPermutation.of([0, 3], {0: 3, 3: 0}))
        body = mode_to_body(mode)
        assert body == {
            "kind": "monodromy",
            "payload": {"fiber": [0, 3], "images": [[0, 3], [3, 0]]},
        }
        assert body_to_mode(body, "test") == mode

    def test_resource_payload_round_trip(self):
        from rupture_kit.documents import body_to_mode, mode_to_body
        from rupture_kit.ruptured import GapMode

        mode = GapMode("resource", (("y", 2),))
        body = mode_to_body(mode)
        assert body == {"kind": "resource", "payload": [["y", 2]]}
        assert body_to_mode(body, "test") == mode

    def test_plain_and_custom_kinds(self):
        from rupture_kit.documents import body_to_mode, mode_to_body
        from rupture_kit.ruptured import GapMode

        assert body_to_mode(mode_to_body(GapMode("plain")), "t") == GapMode("plain")
        custom = GapMode("drift")
        assert body_to_mode(mode_to_body(custom), "t") == custom

    def test_monodromy_mode_in_ruptured_document(self):
        from rupture_kit.covering import FiberPermutation, build_cycle
        from rupture_kit.documents import Document
        from rupture_kit.ruptured import GapMode, RupturedComplex
        from rupture_kit.simplicial import HornSpec, enumerate_horns

        circle = build_cycle(3)
        horn = enumerate_horns(circle, 2, 1)[0]
        mode = GapMode("monodromy", FiberPermutation.of([0, 1], {0: 1, 1: 0}))
        r = RupturedComplex.create(circle, {0: range(3)}, [horn], {horn: mode})
        text = serialize_document(Document("ruptured", r))
        again = parse_document(text)
        assert again.body == r
        assert again.body.gap[horn].payload.cycles() == "(0 1)"


class TestLabelAndCountForms:
    def test_counts_only_document(self):
        text = (
            '{"format": "rupture-kit/1", "kind": "complex", "dim_bound": 1,'
            ' "simplices": {"0": 2, "1": 1}, "faces": {"1": [[1, 0]]}}'
        )
        doc = parse_document(text)
        assert doc.body.count(0) == 2 and doc.body.labels == ()
        # round-trips through counts, not labels
        again = parse_document(serialize_document(doc))
        assert again.body == doc.body

    def test_missing_dimension_defaults_to_zero(self):
        text = (
            '{"format": "rupture-kit/1", "kind": "complex", "dim_bound": 2,'
            ' "simplices": {"0": 1}}'
        )
        doc = parse_document(text)
        assert [doc.body.count(n) for n in range(3)] == [1, 0, 0]


def _gen_fixtures():
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "gen_fixtures.py"
    spec = importlib.util.spec_from_file_location("gen_fixtures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixtures_regenerate_byte_for_byte():
    # the builders plus the serializer reproduce every committed fixture
    generated = _gen_fixtures().FIXTURES
    assert sorted(generated) == [p.name for p in FIXTURES]
    for path in FIXTURES:
        assert serialize_document(generated[path.name]) == path.read_text(encoding="utf-8")


def test_serialize_unknown_kind():
    with pytest.raises(DocumentError, match="unknown kind 'mystery'"):
        serialize_document(Document("mystery", None))


class TestMissingReferences:
    """References to simplices that do not exist fail at parse time with
    the key path of the reference."""

    HEAD = (
        '{"format": "rupture-kit/1", "kind": "ruptured", "dim_bound": 1,'
        ' "simplices": {"0": 2, "1": 1}, '
    )

    @pytest.mark.parametrize(
        "rest,message,where",
        [
            ('"faces": {"1": [[1, 2]]}', "no simplex 0/2", "ruptured.faces.1[0]"),
            ('"faces": {"1": [[1, 0]]}, "coh": {"1": [1]}', "no simplex 1/1", "ruptured.coh.1"),
            ('"faces": {"1": [[1, 0]]}, "coh": {"-1": []}', "dimension -1 is outside 0..1",
             "ruptured.coh.-1"),
            ('"faces": {"1": [[1, 0]]}, "gap": [{"n": 1, "k": 0, "faces": {"1": 4}}]',
             "no simplex 0/4", "ruptured.gap[0].faces.1"),
            ('"faces": {"1": [[1, 0]]}, "gap": [{"n": 2, "k": 0, "faces": {"1": 0, "2": 0}}]',
             "horn dimension 2 exceeds bound 1", "ruptured.gap[0].n"),
            ('"faces": {"1": [[1, 0]]}, "gap": [{"n": 1, "k": 0, "faces": {"1": 0}},'
             ' {"n": 1, "k": 0, "faces": {"1": 0}, "mode": {"kind": "drift"}}]',
             "is listed twice", "ruptured.gap[1]"),
        ],
        ids=["face-row", "coh-index", "coh-dimension", "gap-horn-face", "gap-horn-dimension",
             "gap-horn-twice"],
    )
    def test_names_the_key_path(self, rest, message, where):
        with pytest.raises(DocumentError, match=message) as err:
            parse_document(self.HEAD + rest + "}")
        assert err.value.position == where


def _set_lift(key, value):
    return lambda lifts: lifts[0].__setitem__(key, value)


@pytest.mark.parametrize(
    "mutate,message,where",
    [
        (_set_lift("horn", {"n": 1, "k": 0, "faces": {"1": 40}}), "no simplex 0/40",
         "fibration.gap_lifts[0].horn.faces.1"),
        (_set_lift("horn", {"n": 2, "k": 0, "faces": {"1": 0, "2": 0}}),
         "horn dimension 2 exceeds bound 1", "fibration.gap_lifts[0].horn.n"),
        (_set_lift("base_simplex", 99), "no simplex 1/99",
         "fibration.gap_lifts[0].base_simplex"),
        (lambda lifts: lifts.append(dict(lifts[0], mode=None)), "is listed twice",
         "fibration.gap_lifts[1]"),
    ],
    ids=["horn-face", "horn-dimension", "base-simplex", "listed-twice"],
)
def test_bad_gap_lift(mutate, message, where):
    fixture = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "bank.json"
    doc = json.loads(fixture.read_text(encoding="utf-8"))
    mutate(doc["gap_lifts"])
    with pytest.raises(DocumentError, match=message) as err:
        parse_document(json.dumps(doc))
    assert err.value.position == where


class TestTreeCodec:
    """Types and terms share one codec; each keeps its own words."""

    @pytest.mark.parametrize(
        "body,message,where",
        [
            (3, "type must be one of atom/unit/prod", "goal"),
            ({"atom": ""}, "atom needs a name", "goal"),
            ({"prod": [{"atom": "A"}]}, "prod needs two components", "goal"),
            ({"prod": [{"atom": "A"}, {"pair": []}]}, "type must be one of atom/unit/prod",
             "goal.prod[1]"),
        ],
    )
    def test_type_errors(self, body, message, where):
        from rupture_kit.documents import body_to_type

        with pytest.raises(DocumentError, match=message) as err:
            body_to_type(body, "goal")
        assert err.value.position == where

    @pytest.mark.parametrize(
        "body,message,where",
        [
            ({"atom": "A"}, "term must be one of var/unit/pair", "term"),
            ({"var": 1}, "var needs a name", "term"),
            ({"pair": [{"unit": {}}, {"pair": 5}]}, "pair needs two components",
             "term.pair[1]"),
        ],
    )
    def test_term_errors(self, body, message, where):
        from rupture_kit.documents import body_to_term

        with pytest.raises(DocumentError, match=message) as err:
            body_to_term(body, "term")
        assert err.value.position == where

    def test_round_trip(self):
        from rupture_kit.derivability import AtomType, Pair, ProdType, UnitTerm, UnitType, Var
        from rupture_kit.documents import body_to_term, body_to_type, term_to_body, type_to_body

        t = ProdType(AtomType("A"), ProdType(UnitType(), AtomType("B")))
        assert type_to_body(t) == {"prod": [{"atom": "A"}, {"prod": [{"unit": {}}, {"atom": "B"}]}]}
        assert body_to_type(type_to_body(t), "t") == t
        term = Pair(Var("x"), UnitTerm())
        assert body_to_term(term_to_body(term), "t") == term
