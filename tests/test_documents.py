"""Document parsing, serialization round-trips, and schema errors."""

import importlib.util
import json
import pathlib
import sys

import pytest

from rupture_kit import documents
from rupture_kit.cli import main
from rupture_kit.documents import (
    MAX_DIM_BOUND,
    Document,
    load_document,
    parse_document,
    serialize_document,
)
from rupture_kit.errors import DocumentError

from support import held_bytes, hostile_documents, shape_documents

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


def test_high_horn_shapes_are_written_and_leave_nothing_held():
    """A horn shape's layout and text above dimension 8 live only for the
    call that reads or writes them: once a first parse has loaded the
    modules, parse plus serialize of the 40 KB document of high shapes
    leaves under 16 KB held, where keeping each shape's data left 198 KB."""
    [(_, data, _)] = shape_documents()
    text = data.decode()
    load_document(FIXTURES[0])
    assert held_bytes(lambda: serialize_document(parse_document(text))) < 16_000
    doc = parse_document(text)
    written = serialize_document(doc)
    assert parse_document(written) == doc
    rows = json.loads(written)["gap"]
    assert [(row["n"], row["k"]) for row in rows][:4] == [(9, 0), (9, 4), (9, 9), (16, 0)]
    assert list(rows[3]["faces"])[:3] == ["1", "10", "11"] and rows[3]["mode"]["kind"] == "plain"


def test_script_payloads_with_floats_round_trip():
    """An ``add`` payload is free JSON: floats in it, at its top or nested,
    are written back as the stdlib writes them."""
    text = json.dumps({"format": "rupture-kit/1", "kind": "judgment-script", "script": [
        {"op": "add", "judgment": {"atom": "J"}, "polarity": "coherent", "payload": 0.5},
        {"op": "add", "judgment": {"atom": "K"}, "polarity": "gapped",
         "payload": {"score": 1e2, "scale": [-2.5e-7, {"deep": 3.0}], "n": 2}},
    ]}, indent=2, sort_keys=True) + "\n"
    doc = parse_document(text)
    assert doc.body[0].payload == 0.5
    assert serialize_document(doc) == text


@pytest.mark.parametrize("row,message", [
    ({"op": "add"}, "missing key 'judgment' (at judgment-script.script[0])"),
    ({"op": "add", "judgment": 1, "polarity": 2},
     "judgment must be atom or arrow (at judgment-script.script[0].judgment)"),
    ({"op": "add", "judgment": {"atom": "J"}, "polarity": 2},
     "key 'polarity' has type int (at judgment-script.script[0])"),
    ({"op": "is_open"}, "missing key 'judgment' (at judgment-script.script[0])"),
    ({"op": "horn"}, "missing key 'first' (at judgment-script.script[0])"),
    ({"op": "horn", "first": "a", "gap": 3}, "missing key 'second' (at judgment-script.script[0])"),
    ({"op": "horn", "first": "a", "second": "b", "gap": 3},
     "key 'gap' has type int (at judgment-script.script[0])"),
])
def test_a_script_row_names_its_first_fault_in_read_order(row, message):
    """An op's keys are read in one order, "judgment" before "polarity" and
    "first", "second", "gap", so a row with several faults names the first."""
    text = json.dumps({"format": "rupture-kit/1", "kind": "judgment-script", "script": [row]})
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert str(err.value) == message


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
            ' "coh": {}, "gap": [{"n": 1, "k": 0, "faces": %s}]}'
        )
        # The missing face's index is no key of the horn's faces.
        with pytest.raises(DocumentError) as err:
            parse_document(text % '{"0": 0}')
        assert str(err.value) == "face index '0' is not one of [1] (at ruptured.gap[0].faces.0)"
        with pytest.raises(DocumentError) as err:
            parse_document(text % "{}")
        assert str(err.value) == "horn faces must cover indices [1] (at ruptured.gap[0].faces)"

    def test_a_horn_above_the_bound_fails_at_its_dimension(self):
        """A huge n is refused at ``.n`` before its faces are read, so the
        message does not grow with n."""
        text = (
            '{"format": "rupture-kit/1", "kind": "ruptured", "dim_bound": 1,'
            ' "simplices": {"0": 2, "1": 1}, "faces": {"1": [[1, 0]]},'
            ' "coh": {}, "gap": [{"n": 1000000, "k": 0, "faces": {}}]}'
        )
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        message = str(err.value)
        assert message == "horn dimension 1000000 exceeds bound 1 (at ruptured.gap[0].n)"
        assert len(message) < 200

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

    def test_monodromy_images_name_each_source_once(self, tmp_path):
        """A repeated pair would collapse into one and leave the
        document's serialization a pair short."""
        text = (
            '{"format": "rupture-kit/1", "kind": "ruptured", "dim_bound": 1,'
            ' "simplices": {"0": 2, "1": 1}, "faces": {"1": [[1, 0]]},'
            ' "coh": {}, "gap": [{"n": 1, "k": 0, "faces": {"1": 0},'
            ' "mode": {"kind": "monodromy",'
            ' "payload": {"fiber": [0, 1], "images": [[0, 1], [0, 1], [1, 0]]}}}]}'
        )
        with pytest.raises(DocumentError, match="images name source 0 twice") as err:
            parse_document(text)
        assert err.value.position == "ruptured.gap[0].mode.payload"
        path = tmp_path / "twice.json"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("pair", ["[0]", "[0, 1, 1]", "0"],
                             ids=["one-element", "three-element", "not-a-list"])
    def test_monodromy_images_must_be_pairs(self, pair):
        text = (
            '{"format": "rupture-kit/1", "kind": "ruptured", "dim_bound": 1,'
            ' "simplices": {"0": 2, "1": 1}, "faces": {"1": [[1, 0]]},'
            ' "coh": {}, "gap": [{"n": 1, "k": 0, "faces": {"1": 0},'
            ' "mode": {"kind": "monodromy",'
            ' "payload": {"fiber": [0, 1], "images": [%s, [1, 0]]}}}]}' % pair
        )
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert str(err.value) == (
            "images must be [source, image] pairs (at ruptured.gap[0].mode.payload)")

    @pytest.mark.parametrize("name,data", [doc[:2] for doc in hostile_documents()],
                             ids=[doc[0] for doc in hostile_documents()])
    def test_text_the_json_reader_refuses_is_a_document_error(self, tmp_path, name, data):
        """Bytes that are not UTF-8 are placed at the file; nesting deeper
        than the reader recurses, and an integer literal over the digit
        limit, at the top level; a bound over the limit at the bound."""
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        messages = {
            "hostile-not-utf8": f"not UTF-8: byte 0 cannot be decoded (at {path})",
            "hostile-nested": "JSON nests too deeply to read (at top level)",
            "hostile-long-int": f"integer literal longer than {sys.get_int_max_str_digits()} "
                                "digits (at top level)",
            "hostile-dim-bound": f"dim_bound must be at most {MAX_DIM_BOUND} "
                                 "(at complex.dim_bound)",
        }
        messages["hostile-dim-bound-digits"] = messages["hostile-dim-bound"]
        with pytest.raises(DocumentError) as err:
            load_document(path)
        assert str(err.value) == messages[name]

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

    @pytest.mark.parametrize("module,name,attr,document", [
        ("covering", "FiberPermutation", "of",
         '{"format": "rupture-kit/1", "kind": "ruptured", "dim_bound": 1,'
         ' "simplices": {"0": 2, "1": 1}, "faces": {"1": [[1, 0]]},'
         ' "gap": [{"n": 1, "k": 0, "faces": {"1": 0}, "mode": {"kind": "monodromy",'
         ' "payload": {"fiber": [0, 1], "images": [[0, 1], [1, 0]]}}}]}'),
        ("derivability", "ResourceContext", None,
         (FIXTURES[0].parent / "derive_linear_horn.json").read_text(encoding="utf-8")),
    ], ids=["fiber-permutation", "resource-context"])
    def test_only_a_kernel_error_is_a_parse_error(self, monkeypatch, module, name, attr,
                                                  document):
        """A constructor's KernelError words bad input; any other exception
        is a bug in the kernel, and it is raised as it is."""
        def broken(*args):
            raise ZeroDivisionError("a bug")

        target = importlib.import_module(f"rupture_kit.{module}")
        if attr is None:
            monkeypatch.setattr(target, name, broken)
        else:
            monkeypatch.setattr(getattr(target, name), attr, broken)
        with pytest.raises(ZeroDivisionError):
            parse_document(document)

    def test_missing_file(self):
        with pytest.raises(DocumentError):
            load_document("/nonexistent/nowhere.json")


def parsed_mode(body):
    """The mode of the one gap horn of a ruptured document with this mode body."""
    text = json.dumps({
        "format": "rupture-kit/1", "kind": "ruptured", "dim_bound": 1,
        "simplices": {"0": 2, "1": 1}, "faces": {"1": [[1, 0]]},
        "gap": [{"n": 1, "k": 0, "faces": {"1": 0}, "mode": body}],
    })
    (mode,) = parse_document(text).body.gap.values()
    return mode


# kind -> (a payload of that kind, the payload the writer writes for it):
# every kind of ``documents._MODES``, "plain" and a kind outside the table.
MODE_SAMPLES = {
    "monodromy": (((0, 3), ((0, 3), (3, 0))), {"fiber": [0, 3], "images": [[0, 3], [3, 0]]}),
    "semantic": (("warm", "x\"y"), ["warm", "x\"y"]),
    "resource": ((("y", 2), ("x", 0)), [["y", 2], ["x", 0]]),
    "plain": (None, None),
    "drift": (None, None),
}


class TestGapModePayloads:
    @pytest.mark.parametrize("kind", [*documents._MODES, "plain", "drift"])
    def test_each_kind_round_trips(self, kind):
        """A kind of the table both writes and reads its payload; any other
        kind carries null. A kind added to the table without a sample here,
        or with only one direction, fails."""
        from rupture_kit.covering import FiberPermutation
        from rupture_kit.ruptured import GapMode

        payload, written = MODE_SAMPLES[kind]
        if kind == "monodromy":
            payload = FiberPermutation(*payload)
        mode = GapMode(kind, payload)
        body = documents.mode_to_body(mode)
        assert body == {"kind": kind, "payload": written}
        parsed = parsed_mode(body)
        assert parsed == mode and type(parsed.payload) is type(payload)

    @pytest.mark.parametrize("kind,message,where", [
        ("plain", "plain mode carries no payload", "ruptured.gap[0].mode.payload"),
        ("drift", "unknown mode kind 'drift' cannot carry payload", "ruptured.gap[0].mode"),
    ])
    def test_a_kind_outside_the_table_carries_null(self, kind, message, where):
        """A payload on a kind outside the table is refused at the mode, on
        "plain" at the payload."""
        with pytest.raises(DocumentError) as err:
            parsed_mode({"kind": kind, "payload": ["a"]})
        assert str(err.value) == f"{message} (at {where})"

    def test_monodromy_mode_in_ruptured_document(self):
        from rupture_kit.covering import FiberPermutation, build_cycle
        from rupture_kit.documents import Document
        from rupture_kit.ruptured import GapMode, RupturedComplex
        from rupture_kit.simplicial import HornSpec, enumerate_horns

        circle = build_cycle(3)
        horn = enumerate_horns(circle, 2, 1)[0]
        mode = GapMode("monodromy", FiberPermutation.of([0, 1], {0: 1, 1: 0}))
        r = RupturedComplex.create(circle, {0: range(3)}, {horn: mode})
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
            ('"faces": {"1": [[1, 0]]}, "coh": {"-1": []}', "dimension '-1' is outside 0..1",
             "ruptured.coh.-1"),
            # A coherence fault comes before a gap fault.
            ('"faces": {"1": [[1, 0]]}, "coh": {"0": [5]},'
             ' "gap": [{"n": 1, "k": 0, "faces": {"1": 4}}]', "no simplex 0/5", "ruptured.coh.0"),
            ('"faces": {"1": [[1, 0]]}, "gap": [{"n": 1, "k": 0, "faces": {"1": 4}}]',
             "no simplex 0/4", "ruptured.gap[0].faces.1"),
            ('"faces": {"1": [[1, 0]]}, "gap": [{"n": 2, "k": 0, "faces": {"1": 0, "2": 0}}]',
             "horn dimension 2 exceeds bound 1", "ruptured.gap[0].n"),
            ('"faces": {"1": [[1, 0]]}, "gap": [{"n": 1, "k": 0, "faces": {"1": 0}},'
             ' {"n": 1, "k": 0, "faces": {"1": 0}, "mode": {"kind": "drift"}}]',
             "is listed twice", "ruptured.gap[1]"),
            # "01" is no second spelling of face 1, in either order of the keys.
            ('"faces": {"1": [[1, 0]]}, "gap": [{"n": 1, "k": 0, "faces": {"01": 0, "1": 1}}]',
             "face index '01' is not one of", "ruptured.gap[0].faces.01"),
            ('"faces": {"1": [[1, 0]]}, "gap": [{"n": 1, "k": 0, "faces": {"1": 1, "01": 0}}]',
             "face index '01' is not one of", "ruptured.gap[0].faces.01"),
        ],
        ids=["face-row", "coh-index", "coh-dimension", "coh-before-gap", "gap-horn-face",
             "gap-horn-dimension", "gap-horn-twice", "gap-horn-respelled-face",
             "gap-horn-respelled-face-last"],
    )
    def test_names_the_key_path(self, rest, message, where):
        with pytest.raises(DocumentError, match=message) as err:
            parse_document(self.HEAD + rest + "}")
        assert err.value.position == where

    @pytest.mark.parametrize(
        "fixture,n,j,value,message",
        [
            ("double_cover_3.json", "0", 5, 7, "no simplex 0/7"),
            ("double_cover_3.json", "1", 0, 3, "no simplex 1/3"),
            ("crane.json", "0", 2, 9, "no simplex 0/9"),
            ("crane.json", "1", 1, -1, "no simplex 1/-1"),
        ],
        ids=["cover-vertex", "cover-edge", "crane-vertex", "crane-edge-negative"],
    )
    def test_map_entry_names_the_key_path(self, fixture, n, j, value, message):
        path = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / fixture
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["map"][n][j] = value
        with pytest.raises(DocumentError, match=message) as err:
            parse_document(json.dumps(doc))
        assert err.value.position == f"fibration.map.{n}[{j}]"

    def test_long_map_level_names_the_missing_total_simplex(self):
        path = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "crane.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["map"]["0"].append(0)
        with pytest.raises(DocumentError, match="the total space has no simplex 0/3") as err:
            parse_document(json.dumps(doc))
        assert err.value.position == "fibration.map.0[3]"

    @pytest.mark.parametrize(
        "fixture,key,value,message",
        [
            ("crane.json", "1", [0], "map covers 1 of 2 simplices of the total space"),
            ("crane.json", "0", [], "map covers 0 of 3 simplices of the total space"),
            ("double_cover_3.json", "1", [0, 1, 2], "map covers 3 of 6 simplices"),
            ("crane.json", "7", [0], "dimension '7' is outside 0..1"),
            ("crane.json", "x", 5, "dimension 'x' is outside 0..1"),
            ("crane.json", "01", [0, 1], "dimension '01' is outside 0..1"),
            ("double_cover_3.json", "-1", [], "dimension '-1' is outside 0..2"),
        ],
        ids=["short", "empty", "cover-short", "above-bound", "not-int", "padded", "negative"],
    )
    def test_map_level_names_its_key(self, fixture, key, value, message):
        path = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / fixture
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["map"][key] = value
        with pytest.raises(DocumentError, match=message) as err:
            parse_document(json.dumps(doc))
        assert err.value.position == f"fibration.map.{key}"

    def test_missing_level_of_an_empty_dimension_is_empty(self):
        path = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "double_cover_3.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["map"]["2"]
        assert parse_document(json.dumps(doc)).body.proj.levels[2] == ()


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


def derive_task(**trees) -> str:
    """A derive-task document with empty contexts and unit term and goal,
    but for the trees given."""
    body = {"gamma": [], "delta": [], "sigma": {}, "term": {"unit": {}}, "goal": {"unit": {}}}
    return json.dumps({"format": "rupture-kit/1", "kind": "derive-task", **body, **trees})


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
        with pytest.raises(DocumentError, match=message) as err:
            parse_document(derive_task(goal=body))
        assert err.value.position == f"derive-task.{where}"

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
        with pytest.raises(DocumentError, match=message) as err:
            parse_document(derive_task(term=body))
        assert err.value.position == f"derive-task.{where}"

    def test_round_trip(self):
        from rupture_kit.derivability import (
            AtomType, DeriveTask, Pair, ProdType, ResourceContext, Substitution, UnitTerm,
            UnitType, Var,
        )

        t = ProdType(AtomType("A"), ProdType(UnitType(), AtomType("B")))
        term = Pair(Var("x"), UnitTerm())
        empty = ResourceContext(())
        task = DeriveTask(empty, empty, Substitution.of({}), term, t)
        text = serialize_document(Document("derive-task", task))
        body = json.loads(text)
        assert body["goal"] == {"prod": [{"atom": "A"}, {"prod": [{"unit": {}}, {"atom": "B"}]}]}
        assert body["term"] == {"pair": [{"var": "x"}, {"unit": {}}]}
        assert parse_document(text).body == task
