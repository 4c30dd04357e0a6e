"""Horn rows read in one pass, against the row loop they replaced.

``documents._horn_fields`` reads a well-formed horn row directly and sends
any other to the checked loop. ``oracle_horn_fields`` below is that loop as
it read every row before: it stays here as the reference. A seeded corpus
of horn-row edits (ruptured ``gap`` rows, a fibration's total-space ``gap``
rows and its ``gap_lifts[i].horn``) goes through ``parse_document`` twice,
once as shipped and once with the oracle in place of ``_horn_fields``. Each
edit must give the same document, or the same ``DocumentError`` message at
the same key path.
"""

import copy
import json
import random

import pytest

from rupture_kit import documents
from rupture_kit.covering import build_double_cover
from rupture_kit.documents import Document, DocumentError, parse_document, serialize_document
from rupture_kit.ruptured import fully_gapped
from rupture_kit.simplicial import bad_index, standard_simplex

from support import FIXTURES


def oracle_horn_fields(body, where: str, within):
    """The (n, k, faces) of a horn body whose faces must be simplices of
    ``within``, read key by key."""

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
    faces_obj = get(body, "faces", where, dict)
    mapping = {}
    for key, value in faces_obj.items():
        try:
            i = int(key)
        except ValueError:
            raise DocumentError(f"face index '{key}' is not an integer", f"{where}.faces")
        if type(value) is not int:
            integer(value, f"{where}.faces.{key}")
        mapping[i] = value
    present = [i for i in range(n + 1) if i != k]
    if len(mapping) != n or not all(i in mapping for i in present):
        raise DocumentError(f"horn faces must cover indices {present}", f"{where}.faces")
    bound = within.dim_bound
    if n > bound:
        raise DocumentError(f"horn dimension {n} exceeds bound {bound}", f"{where}.n")
    count, values = within.count(n - 1), list(mapping.values())
    if not 0 <= min(values) <= max(values) < count:
        j, reason = bad_index(values, n - 1, count)
        raise DocumentError(reason, f"{where}.faces.{list(mapping)[j]}")
    return n, k, tuple([mapping[i] for i in present])


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
    with monkeypatch.context() as m:
        m.setattr(documents, "_horn_fields",
                  lambda body, within, where: oracle_horn_fields(body, where(), within))
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


def test_the_row_paths_are_pinned():
    doc = fibration_with_gap_rows()
    doc["gap_lifts"][2]["horn"]["faces"] = {"01": 0}
    doc["total"]["gap"][3]["k"] = True
    with pytest.raises(DocumentError) as exc:
        parse_document(json.dumps(doc))
    assert str(exc.value) == "expected an integer (at fibration.total.gap[3].k)"
    doc["total"]["gap"][3]["k"] = 0
    doc["gap_lifts"][2]["horn"]["faces"] = {"1": 99}
    with pytest.raises(DocumentError) as exc:
        parse_document(json.dumps(doc))
    assert str(exc.value) == "no simplex 0/99 (at fibration.gap_lifts[2].horn.faces.1)"
    doc["gap_lifts"][2] = {"base_simplex": 0}
    with pytest.raises(DocumentError) as exc:
        parse_document(json.dumps(doc))
    assert str(exc.value) == "missing key 'horn' (at fibration.gap_lifts[2])"
