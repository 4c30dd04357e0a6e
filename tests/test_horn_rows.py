"""Horn rows written and read by shape, against the paths they replaced.

``documents._gap_horns`` reads a list of horn bodies one run of a shape at
a time, and only a row of a run it refuses goes to the checked reader.
``oracle_horn_fields`` below reads every row key by key, and takes as face
keys just the strings the writer writes: it stays here as the reference.
``oracle_gap_table`` reads a ``gap`` list row
by row with it: the horn, then a horn listed twice, then the mode, and the
first fault in row order raises. A seeded corpus of horn-row edits
(ruptured ``gap`` rows, a fibration's total-space ``gap`` rows and its
``gap_lifts[i].horn``) and of gap-list edits (rows shuffled, a mode, an
unknown key, a duplicate far from its twin, two faults, a bad mode before a
faulty horn row, a duplicate after a mode row, a mode on every row, a
respelled face key) goes
through ``parse_document`` twice, once as shipped and once with the row-by-row
readers in place of ``_gap_table`` and ``_gap_horns``. Each edit must give the
same document, or the same ``DocumentError`` message at the same key path.

``dump_json`` writes a horn row from its shape's text. Seeded ruptured and
fibration documents, with horns of every shape up to n = 3 and modes of
every kind, must serialize to the text of the plain-dict body written by
the stdlib, and parse back to an equal document.
"""

import copy
import json
import random

import pytest

from rupture_kit import documents
from rupture_kit.covering import FiberPermutation, build_double_cover
from rupture_kit.documents import (
    FORMAT, Document, DocumentError, fibration_to_body, parse_document, ruptured_to_body,
    serialize_document,
)
from rupture_kit.fibration import LiftingProblemKey, RupturedFibrationData
from rupture_kit.ruptured import GapMode, RupturedComplex, fully_gapped
from rupture_kit.simplicial import (
    HornSpec, SimplexId, SimplicialMap, TruncatedComplex, bad_index, enumerate_horns,
    standard_simplex,
)

from support import FIXTURES, plain


def oracle_horn_fields(body, where: str, within):
    """The (n, k, faces) of a horn body whose faces must be simplices of
    ``within``, read key by key; its face keys are exactly the strings the
    writer writes."""

    def get(obj, key, where, expected=None):
        if not isinstance(obj, dict) or key not in obj:
            raise DocumentError(f"missing key '{key}'", where)
        value = obj[key]
        if expected is not None and not isinstance(value, expected):
            raise DocumentError(f"key '{key}' has type {type(value).__name__}", where)
        return value

    def integer(value, where):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DocumentError("expected an integer", where)

    n = get(body, "n", where)
    if type(n) is not int:
        integer(n, f"{where}.n")
    k = get(body, "k", where)
    if type(k) is not int:
        integer(k, f"{where}.k")
    if not (n >= 1 and 0 <= k <= n):
        raise DocumentError(f"bad horn shape (n={n}, k={k})", where)
    if n > within.dim_bound:
        raise DocumentError(f"horn dimension {n} exceeds bound {within.dim_bound}", f"{where}.n")
    faces_obj = get(body, "faces", where, dict)
    present = [i for i in range(n + 1) if i != k]
    mapping = {}
    for key, value in faces_obj.items():
        # A face key is written "i" for each face i: "01" and "+1" are no face keys.
        if key not in [str(i) for i in present]:
            raise DocumentError(f"face index '{key}' is not one of {present}",
                                f"{where}.faces.{key}")
        if type(value) is not int:
            integer(value, f"{where}.faces.{key}")
        mapping[int(key)] = value
    if len(mapping) != n:
        raise DocumentError(f"horn faces must cover indices {present}", f"{where}.faces")
    count, values = within.count(n - 1), list(mapping.values())
    if not 0 <= min(values) <= max(values) < count:
        j, reason = bad_index(values, n - 1, count)
        raise DocumentError(reason, f"{where}.faces.{list(mapping)[j]}")
    return n, k, tuple([mapping[i] for i in present])


def oracle_gap_horns(rows: list, within, where):
    """The horns of a list of horn bodies read row by row, up to the first
    fault, and that fault or None."""
    horns = []
    for i, row in enumerate(rows):
        try:
            horns.append(HornSpec(*oracle_horn_fields(row, where(i), within)))
        except DocumentError as fault:
            return horns, fault
    return horns, None


def oracle_gap_table(rows: list, within, where: str) -> dict:
    """The table of a ruptured ``gap`` list read row by row: the horn, then a
    horn listed twice, then the mode; the first fault in row order raises."""
    gap = {}
    for i, row in enumerate(rows):
        here = f"{where}.gap[{i}]"
        h = HornSpec(*oracle_horn_fields(row, here, within))
        if h in gap:
            raise DocumentError(f"{h} is listed twice", here)
        mode = row.get("mode")
        gap[h] = None if mode is None else GapMode(*documents._mode_fields(mode, f"{here}.mode"))
    return gap


def fibration_with_gap_rows() -> dict:
    """``build_double_cover(3)`` with every horn of its total space gapped
    and each edge horn a gap lift."""
    f = build_double_cover(3)
    doc = json.loads(serialize_document(Document("fibration", f)))
    rows = json.loads(serialize_document(Document("ruptured", fully_gapped(f.total.underlying))))
    doc["total"]["gap"] = rows["gap"]
    edges = f.base.underlying.count(1)
    doc["gap_lifts"] = [{"horn": copy.deepcopy(row), "base_simplex": i % edges}
                        for i, row in enumerate(r for r in rows["gap"] if r["n"] == 1)]
    return doc


def corpus() -> list[tuple[str, dict, list]]:
    """(name, document, [(keys to a horn body, its key path), ...])."""
    circle = json.loads((FIXTURES / "circle3_gapped.json").read_text(encoding="utf-8"))
    simplex = json.loads(serialize_document(Document("ruptured",
                                                     fully_gapped(standard_simplex(3, 3)))))
    bank = json.loads((FIXTURES / "bank.json").read_text(encoding="utf-8"))
    cover = fibration_with_gap_rows()

    def gap(doc, *above, where):
        rows = doc
        for key in above:
            rows = rows[key]
        return [((*above, "gap", i), f"{where}.gap[{i}]") for i in range(len(rows["gap"]))]

    def lifts(doc):
        return [(("gap_lifts", i, "horn"), f"fibration.gap_lifts[{i}].horn")
                for i in range(len(doc["gap_lifts"]))]

    return [
        ("circle3_gapped", circle, gap(circle, where="ruptured")),
        ("simplex3", simplex, gap(simplex, where="ruptured")),
        ("bank", bank, lifts(bank)),
        ("cover", cover, gap(cover, "total", where="fibration.total") + lifts(cover)),
    ]


def edited(rng: random.Random, body: dict, op: str, counts: tuple):
    """``body`` with one edit; a horn body is n, k and a faces object whose
    values name simplices of a complex with these ``counts``."""
    body = copy.deepcopy(body)
    faces, n, k = body["faces"], body["n"], body["k"]
    key = rng.choice(sorted(faces))
    if op in ("01", " 1", "+1", "1_0"):
        new = {"01": "0" + key, " 1": " " + key, "+1": "+" + key, "1_0": key + "_0"}[op]
        faces[new] = faces.pop(key)
    elif op == "missing key":
        del faces[key]
    elif op == "extra key":
        faces[rng.choice([str(k), str(n + 1), "x"])] = 0
    elif op == "duplicate key":
        faces["0" + key] = rng.choice([faces[key], 0])
    elif op in ("bool", "float", "negative", "at count", "past", "string", "null"):
        faces[key] = {"bool": rng.choice([True, False]), "float": float(faces[key]),
                      "negative": -1, "at count": counts[n - 1], "past": 10 ** 6,
                      "string": "0", "null": None}[op]
    elif op == "n bool":
        body["n"] = True
    elif op == "n out of range":
        body["n"] = rng.choice([0, -1, n + 1, 9])
    elif op == "n above bound":
        # Every key and face fits an n-horn, but the complex stops below n.
        top = len(counts)
        body.update(n=top, k=0, faces={str(i): 0 for i in range(1, top + 1)})
    elif op == "k bool":
        body["k"] = rng.choice([True, False])
    elif op == "k out of range":
        body["k"] = rng.choice([-1, n + 1])
    elif op == "faces list":
        body["faces"] = list(faces.values())
    elif op == "dropped field":
        del body[rng.choice(["n", "k", "faces"])]
    elif op == "not an object":
        body = rng.choice([[], 0, "horn", None])
    elif op == "reordered":
        body["faces"] = dict(reversed(list(faces.items())))
    elif op == "other k":
        # The same faces under another missing index: a valid row when
        # the keys happen to fit.
        body["k"] = rng.randrange(n + 1)
    return body


EDITS = ["01", " 1", "+1", "1_0", "missing key", "extra key", "duplicate key", "bool",
         "float", "negative", "at count", "past", "string", "null", "n bool", "n out of range",
         "n above bound", "k bool", "k out of range", "faces list", "dropped field",
         "not an object", "reordered", "other k", "none"]


def outcome(text: str):
    try:
        doc = parse_document(text)
    except DocumentError as exc:
        return "refused", str(exc.args[0]), exc.position
    return "parsed", doc.body, serialize_document(doc)


def oracle_outcome(monkeypatch, text: str):
    """:func:`outcome` with every gap row and gap-lift horn read row by row."""
    with monkeypatch.context() as m:
        m.setattr(documents, "_gap_table", oracle_gap_table)
        m.setattr(documents, "_gap_horns", oracle_gap_horns)
        return outcome(text)


@pytest.mark.parametrize("name,doc,rows", corpus(), ids=[c[0] for c in corpus()])
def test_every_horn_row_edit_reads_as_the_oracle_reads_it(monkeypatch, name, doc, rows):
    rng = random.Random(name)
    body = parse_document(json.dumps(doc)).body
    counts = getattr(body, "total", body).underlying.counts
    seen = set()
    for op in EDITS:
        for keys, where in rng.sample(rows, min(6, len(rows))):
            changed = copy.deepcopy(doc)
            parent = changed
            for key in keys[:-1]:
                parent = parent[key]
            parent[keys[-1]] = edited(rng, parent[keys[-1]], op, counts)
            text = json.dumps(changed)
            expected = oracle_outcome(monkeypatch, text)
            assert outcome(text) == expected, (op, where, parent[keys[-1]])
            seen.add(expected[0])
            if expected[0] == "refused" and "listed twice" not in expected[1]:
                # The key path names the edited row, or the gap lift holding it.
                assert expected[2].startswith(where.removesuffix(".horn")), (op, expected)
    assert seen == {"parsed", "refused"}


def gap_lists(doc: dict) -> list[tuple[tuple, str]]:
    """(keys to a ``gap`` list, its key path) of each gap list of a corpus
    document."""
    if doc["kind"] == "ruptured":
        return [(("gap",), "ruptured.gap")]
    return [(("total", "gap"), "fibration.total.gap"), (("base", "gap"), "fibration.base.gap")]


GOOD_MODES = [{"kind": "plain", "payload": None}, {"kind": "semantic", "payload": ["x"]},
              {"kind": "resource", "payload": [["x", 1]]}, None]
BAD_MODES = [{"kind": "plain", "payload": 1}, {"kind": ""}, {}, 0, {"kind": "semantic"}]


def edited_list(rng: random.Random, rows: list, op: str, counts: tuple) -> tuple[list, int]:
    """A copy of a gap list with one list-level edit, and the index of the
    first row the edit touched (None for a shuffle or a mode on every row)."""
    rows, at = copy.deepcopy(rows), rng.randrange(len(rows))
    if op == "shuffle":
        rng.shuffle(rows)
        return rows, None
    if op == "every mode":
        return [{**row, "mode": rng.choice(GOOD_MODES)} for row in rows], None
    if op == "mode":
        at = len(rows) // 2
        rows[at] = {**rows[at], "mode": rng.choice(
            [None, {"kind": "plain", "payload": None}, {"kind": "semantic", "payload": ["x"]},
             {"kind": "plain", "payload": 1}])}
    elif op == "unknown key":
        rows[at]["note"] = "kept apart"
    elif op == "respelled key":
        # A face key that int() reads as the face it respells.
        rows[at] = edited(rng, rows[at], rng.choice(["01", " 1", "+1", "duplicate key"]), counts)
    elif op == "far duplicate":
        at = rng.randrange((len(rows) + 1) // 2)
        rows.append(copy.deepcopy(rows[at]))
    elif op == "two faults":
        first, second = sorted(rng.sample(range(len(rows)), 2)) if len(rows) > 1 else (at, at)
        for i in (second, first):
            rows[i] = edited(rng, rows[i], rng.choice(["past", "bool", "string", "missing key"]),
                             counts)
        at = first
    elif op == "bad mode first":
        # The mode's row may be the faulty horn row itself: then the horn is the fault.
        at, later = sorted(rng.sample(range(len(rows)), 2)) if len(rows) > 1 else (at, at)
        rows[later] = edited(rng, rows[later], rng.choice(["past", "bool", "missing key"]), counts)
        rows[at]["mode"] = rng.choice(BAD_MODES)
    elif op == "duplicate after mode":
        # A good mode, then a horn listed twice, then a bad mode when a row is left.
        rows[at]["mode"] = rng.choice(GOOD_MODES[:3])
        at += 1
        rows.insert(at, copy.deepcopy(rows[rng.randrange(at)]))
        if at + 1 < len(rows):
            rows[rng.randrange(at + 1, len(rows))]["mode"] = rng.choice(BAD_MODES)
    return rows, at


LIST_EDITS = ["shuffle", "mode", "unknown key", "far duplicate", "two faults", "bad mode first",
              "duplicate after mode", "every mode", "respelled key"]
# The edits whose first fault is on the row they return.
ON_ROW = {"two faults", "bad mode first", "duplicate after mode", "respelled key"}


@pytest.mark.parametrize("name,doc,rows", corpus(), ids=[c[0] for c in corpus()])
def test_every_gap_list_edit_reads_as_the_oracle_reads_it(monkeypatch, name, doc, rows):
    rng = random.Random(f"list {name}")
    seen = set()
    for keys, where in gap_lists(doc):
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        if not parent[keys[-1]]:
            continue
        body = parse_document(json.dumps(doc)).body
        counts = (body if len(keys) == 1 else getattr(body, keys[0])).underlying.counts
        for op in LIST_EDITS:
            for _ in range(4):
                changed = copy.deepcopy(doc)
                holder = changed
                for key in keys[:-1]:
                    holder = holder[key]
                holder[keys[-1]], at = edited_list(rng, holder[keys[-1]], op, counts)
                text = json.dumps(changed)
                expected = oracle_outcome(monkeypatch, text)
                assert outcome(text) == expected, (op, where)
                seen.add((op, expected[0]))
                if expected[0] == "refused" and at is not None:
                    # The first fault in document order names the error.
                    assert expected[2].startswith(f"{where}["), (op, expected)
                    if op in ON_ROW:
                        assert expected[2].startswith(f"{where}[{at}]"), (op, expected)
    if name != "bank":
        assert {("shuffle", "parsed"), ("far duplicate", "refused"),
                ("unknown key", "parsed"), ("two faults", "refused"),
                ("bad mode first", "refused"), ("duplicate after mode", "refused"),
                ("every mode", "parsed"), ("respelled key", "refused")} <= seen, seen


def test_the_row_paths_are_pinned():
    doc = fibration_with_gap_rows()
    # Both the total space and a gap lift hold a fault: the total space is read first.
    doc["gap_lifts"][2]["horn"]["faces"] = {"01": 0}
    doc["total"]["gap"][3]["k"] = True
    with pytest.raises(DocumentError) as exc:
        parse_document(json.dumps(doc))
    assert str(exc.value) == "expected an integer (at fibration.total.gap[3].k)"
    doc["total"]["gap"][3]["k"] = 0
    with pytest.raises(DocumentError) as exc:
        parse_document(json.dumps(doc))
    assert str(exc.value) == (
        "face index '01' is not one of [1] (at fibration.gap_lifts[2].horn.faces.01)")
    doc["gap_lifts"][2]["horn"]["faces"] = {"1": 99}
    with pytest.raises(DocumentError) as exc:
        parse_document(json.dumps(doc))
    assert str(exc.value) == "no simplex 0/99 (at fibration.gap_lifts[2].horn.faces.1)"
    doc["gap_lifts"][2] = {"base_simplex": 0}
    with pytest.raises(DocumentError) as exc:
        parse_document(json.dumps(doc))
    assert str(exc.value) == "missing key 'horn' (at fibration.gap_lifts[2])"


# -- writing -------------------------------------------------------------------


def random_mode(rng: random.Random):
    """No mode, or a mode of one of the four kinds with a seeded payload."""
    kind = rng.choice([None, None, "plain", "monodromy", "semantic", "resource"])
    if kind == "monodromy":
        fiber = rng.sample(range(10), rng.randint(1, 4))
        images = dict(zip(fiber, rng.sample(fiber, len(fiber))))
        return GapMode(kind, FiberPermutation.of(fiber, images))
    if kind == "semantic":
        return GapMode(kind, tuple(rng.sample(["warm", "late", "x\"y", "\u00e9"], 2)))
    if kind == "resource":
        return GapMode(kind, tuple((v, rng.randint(0, 3)) for v in rng.sample("xyz", 2)))
    return None if kind is None else GapMode(kind)


def random_complex3(rng: random.Random) -> TruncatedComplex:
    """A standard 3- or 4-simplex truncated at 3, with or without labels."""
    x = standard_simplex(rng.choice([3, 4]), 3)
    if rng.random() < 0.5:
        return x
    return TruncatedComplex.create(3, x.counts, {n: x.face_table[n - 1] for n in (1, 2, 3)})


def random_ruptured3(rng: random.Random, x: TruncatedComplex) -> RupturedComplex:
    coh = {n: [i for i in range(x.count(n)) if rng.random() < 0.3] for n in range(4)}
    gap = {h: random_mode(rng) for n in (1, 2, 3) for k in range(n + 1)
           for h in enumerate_horns(x, n, k) if rng.random() < 0.4}
    return RupturedComplex.create(x, coh, gap)


def random_fibration3(rng: random.Random) -> RupturedFibrationData:
    """The identity of a seeded complex between two seeded markings, with
    seeded gap lifts and composites."""
    x = random_complex3(rng)
    total, base = random_ruptured3(rng, x), random_ruptured3(rng, x)
    horns = [h for n in (1, 2, 3) for k in range(n + 1) for h in enumerate_horns(x, n, k)]
    lifts = {LiftingProblemKey(h, SimplexId(h.n, rng.randrange(x.count(h.n)))): random_mode(rng)
             for h in rng.sample(horns, 40)}
    edges = x.count(1)
    composites = {(rng.randrange(edges), rng.randrange(edges)): rng.randrange(edges)
                  for _ in range(rng.randint(0, 5))}
    return RupturedFibrationData(total, base, SimplicialMap.identity(x), lifts, composites)


def written_documents() -> list[Document]:
    rng = random.Random(19)
    return ([Document("ruptured", random_ruptured3(rng, random_complex3(rng)))
             for _ in range(12)]
            + [Document("fibration", random_fibration3(rng)) for _ in range(6)])


def test_the_written_corpus_covers_every_shape_and_mode():
    shapes, kinds, labelled = set(), set(), set()
    for doc in written_documents():
        spaces = [doc.body] if doc.kind == "ruptured" else [doc.body.total, doc.body.base]
        rows = [(h, m) for r in spaces for h, m in r.gap.items()]
        rows += [(key.horn, m) for key, m in getattr(doc.body, "gap_lifts", {}).items()]
        shapes |= {(h.n, h.k) for h, _ in rows}
        kinds |= {None if m is None else m.kind for _, m in rows}
        labelled |= {bool(r.underlying.labels) for r in spaces}
    assert shapes == {(n, k) for n in (1, 2, 3) for k in range(n + 1)}
    assert kinds == {None, "plain", "monodromy", "semantic", "resource"}
    assert labelled == {True, False}


@pytest.mark.parametrize("doc", written_documents(),
                         ids=[f"{d.kind}-{i}" for i, d in enumerate(written_documents())])
def test_written_rows_match_the_plain_body(monkeypatch, doc):
    to_body = {"ruptured": ruptured_to_body, "fibration": fibration_to_body}[doc.kind]
    body = {"format": FORMAT, "kind": doc.kind, **plain(to_body(doc.body))}
    text = serialize_document(doc)
    assert text == json.dumps(body, indent=2, sort_keys=True) + "\n"
    assert parse_document(text) == doc
    assert oracle_outcome(monkeypatch, text) == ("parsed", doc.body, text)
