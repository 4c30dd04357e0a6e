"""The shape rule of complexes, fibration maps and coherence marks, against
oracles written here.

Each fixture with face rows or a map has one face row or one map level
changed at a time: cut, extended, an entry made negative, pointed past the
end, or given as a bool or a float, or an entry swapped for another index
that fits. The constructor must refuse the value exactly when the oracle
calls it malformed, naming the oracle's reason and position, and
``parse_document`` must report that reason at the matching key path. A map
level is checked three ways with one rule: by the fibration constructor,
and as a bare map by ``check_simplicial_map`` and ``check_morphism``.
Coherence marks get the same treatment through ``RupturedComplex.create``,
``_replace`` and ``_make``, and label lists through the four ways a
complex is built. A ``coh`` key must be one the writer writes: a second
spelling of a dimension ("01", "+1") is refused by the document reader,
which alone sees it. A few parse errors are also pinned verbatim. The
builders that skip the rule (restrictions, coherent cores, fibers, horn
complexes) must build only what it accepts, in the form it stores.
"""

import copy
import json
import pathlib
import random

import pytest

from rupture_kit.covering import build_cycle, build_double_cover, trivial_double_cover
from rupture_kit.documents import Document, parse_document, serialize_document
from rupture_kit.errors import DocumentError, ShapeError
from rupture_kit.fibration import RupturedFibrationData, fiber
from rupture_kit.ruptured import (
    RupturedComplex, check_morphism, coherent_core, from_kan, fully_gapped, product,
)
from rupture_kit.simplicial import (
    SimplexId, SimplicialMap, TruncatedComplex, check_simplicial_map, horn_complex, restrict,
    standard_simplex,
)

from support import random_ruptured

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
SHAPED = ["bank.json", "bottle.json", "circle3_gapped.json", "circle3_open.json", "crane.json",
          "double_cover_3.json", "triangle.json", "triangle_kan.json"]
OPS = ["cut", "extend", "negative", "past", "bool", "float", "swap"]


def counts_of(space: dict) -> list[int]:
    """Simplex counts of a complex body (a count or a label list per n)."""
    return [
        len(entry) if isinstance(entry, list) else entry
        for entry in (space["simplices"].get(str(n), 0) for n in range(space["dim_bound"] + 1))
    ]


def entry_problem(v, dim: int, count: int):
    """Why ``v`` names none of the ``count`` simplices of dimension ``dim``."""
    if isinstance(v, bool) or not isinstance(v, int):
        return "expected an integer"
    if v < 0 or v >= count:
        return f"no simplex {dim}/{v}"
    return None


def face_problem(space: dict):
    """The first face row of a complex body that breaks the rule, as
    (reason, position), dimension by dimension and row by row."""
    counts = counts_of(space)
    for n in range(1, space["dim_bound"] + 1):
        for i, row in enumerate(space["faces"].get(str(n), [])):
            if not isinstance(row, list):
                return "face row must be a list", ("faces", n, i)
            if len(row) != n + 1:
                return f"face row needs {n + 1} entries, got {len(row)}", ("faces", n, i)
            for v in row:
                reason = entry_problem(v, n - 1, counts[n - 1])
                if reason:
                    return reason, ("faces", n, i)
    return None


def map_problem(doc: dict):
    """The first map level of a fibration body that breaks the rule."""
    total, base = counts_of(doc["total"]), counts_of(doc["base"])
    for n in range(min(len(total), len(base))):
        level = doc["map"].get(str(n), [])
        if len(level) > total[n]:
            return f"the total space has no simplex {n}/{total[n]}", ("map", n, total[n])
        if len(level) < total[n]:
            return f"map covers {len(level)} of {total[n]} simplices of the total space", ("map", n)
        for j, v in enumerate(level):
            reason = entry_problem(v, n, base[n])
            if reason:
                return reason, ("map", n, j)
    return None


def at(doc: dict, keys: tuple):
    """The value at a key path."""
    for key in keys:
        doc = doc[key]
    return doc


def targets(doc: dict) -> list[tuple]:
    """Key paths of every face row and every map level of a document."""
    spaces = [("total",), ("base",)] if doc["kind"] == "fibration" else [()]
    out = []
    for space in spaces:
        for n, rows in at(doc, space)["faces"].items():
            out.extend((*space, "faces", n, i) for i in range(len(rows)))
    out.extend(("map", n) for n in doc.get("map", {}))
    return out


def mutate(rng: random.Random, values: list, op: str, bound: int) -> list:
    """``values`` (a face row or a map level) changed by ``op``; ``bound``
    is the number of simplices its entries may name."""
    values = list(values)
    if op == "cut":
        return values[:-1]
    if op == "extend":
        return values + [0]
    if not values:
        return values
    j = rng.randrange(len(values))
    values[j] = {
        "negative": -1,
        "past": bound,
        "bool": values[j] == 1,
        "float": float(values[j]),
        "swap": rng.randrange(bound) if bound else values[j],
    }[op]
    return values


def map_parts(doc: dict) -> tuple:
    """The total space and base a fibration document parses to, and its map
    as a bare map of the raw JSON levels."""
    parsed = parse_document(json.dumps(strip_map(doc))).body
    levels = tuple(doc["map"].get(str(n), []) for n in range(len(parsed.proj.levels)))
    return parsed.total, parsed.base, SimplicialMap(levels)


# The three callers of the map-level rule.
MAP_CHECKS = {
    "fibration": lambda e, b, f: RupturedFibrationData(e, b, f),
    "check_simplicial_map": lambda e, b, f: check_simplicial_map(f, e.underlying, b.underlying),
    "check_morphism": lambda e, b, f: check_morphism(f, e, b),
}


def complex_of(body: dict) -> TruncatedComplex:
    faces = {n: body["faces"].get(str(n), []) for n in range(1, body["dim_bound"] + 1)}
    return TruncatedComplex.create(body["dim_bound"], counts_of(body), faces)


def refusal(build, *args):
    """The (reason, position) of the ``ShapeError`` ``build`` raises, or None."""
    try:
        build(*args)
    except ShapeError as err:
        return err.reason, err.path
    return None


def strip_map(doc: dict) -> dict:
    """A fibration document with a map that fits, so only the spaces parse."""
    total, base = counts_of(doc["total"]), counts_of(doc["base"])
    top = min(len(total), len(base))
    return {**doc, "map": {str(n): [0] * total[n] for n in range(top)}, "gap_lifts": [],
            "composites": []}


def key_path(kind: str, space: tuple, position: tuple) -> str:
    head = ".".join([kind, *space, *map(str, position[:2])])
    return head + "".join(f"[{i}]" for i in position[2:])


@pytest.mark.parametrize("fixture", SHAPED)
def test_constructor_refuses_exactly_what_the_oracle_calls_malformed(fixture):
    original = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    rng = random.Random(fixture)
    seen = {"refused": 0, "built": 0}
    for _ in range(60):
        doc = copy.deepcopy(original)
        path, op = rng.choice(targets(doc)), rng.choice(OPS)
        if path[0] == "map":
            space, bound = ("map",), counts_of(doc["base"])[int(path[1])]
        else:
            space = path[:-3]
            bound = counts_of(at(doc, space))[int(path[-2]) - 1]
        holder = at(doc, path[:-1])
        holder[path[-1]] = mutate(rng, holder[path[-1]], op, bound)
        if space == ("map",):
            want, where = map_problem(doc), ()
            parts = map_parts(doc)
            got = {name: refusal(check, *parts) for name, check in MAP_CHECKS.items()}
        else:
            want, where = face_problem(at(doc, space)), space
            got = {"complex": refusal(complex_of, at(doc, space))}
        assert set(got.values()) == {want}, (fixture, path, op, want, got)
        if want is None:
            parse_document(json.dumps(doc))
            seen["built"] += 1
            continue
        with pytest.raises(DocumentError) as parsed:
            parse_document(json.dumps(doc))
        assert str(parsed.value) == f"{want[0]} (at {key_path(doc['kind'], where, want[1])})"
        seen["refused"] += 1
    assert seen["refused"] >= 30 and seen["built"] >= 3, seen


FIBRATIONS = [name for name in SHAPED if "map" in json.loads((FIXTURES / name).read_text())]


@pytest.mark.parametrize("fixture", FIBRATIONS)
@pytest.mark.parametrize("edit", ["drop", "add"])
def test_a_map_with_a_level_too_few_or_too_many_is_refused_by_all_three(fixture, edit):
    doc = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    total, base, f = map_parts(doc)
    levels = f.levels[:-1] if edit == "drop" else f.levels + ((),)
    top = len(f.levels) - 1
    want = (f"map covers dimensions 0..{len(levels) - 1}, expected 0..{top}", ("map",))
    for check in MAP_CHECKS.values():
        assert refusal(check, total, base, SimplicialMap(levels)) == want


COH_SPACES = {"bank.json": [("total",), ("base",)], "bottle.json": [("total",), ("base",)],
              "circle3_gapped.json": [()], "circle3_open.json": [()],
              "crane.json": [("total",), ("base",)],
              "double_cover_3.json": [("total",), ("base",)], "triangle_kan.json": [()]}
COH_OPS = ["past", "negative", "bool", "key above", "key below", "swap", "drop", "key respelled"]


def coh_problem(body: dict):
    """The first coherence key of a ruptured body that is not one of "0"..
    "dim_bound", as the writer writes it, or else its first coherence mark
    that names no simplex, in document order, as (reason, position)."""
    counts, bound = counts_of(body), body["dim_bound"]
    dims = [str(n) for n in range(bound + 1)]
    for key in body["coh"]:
        if key not in dims:
            return f"dimension '{key}' is outside 0..{bound}", ("coh", key)
    for key, marks in body["coh"].items():
        for v in marks:
            reason = entry_problem(v, int(key), counts[int(key)])
            if reason:
                return reason, ("coh", int(key))
    return None


def mutate_coh(rng: random.Random, body: dict, op: str) -> None:
    """Change one coherence mark or key of a ruptured body in place."""
    coh, counts, bound = body["coh"], counts_of(body), body["dim_bound"]
    if op in ("key above", "key below"):
        coh[str(bound + 1 if op == "key above" else -1)] = [0]
        return
    n = rng.choice(sorted(coh))
    marks = coh[n]
    if op == "key respelled":
        # A second spelling of a dimension that int() reads as the first.
        coh[rng.choice(["0", "+", " "]) + n] = rng.choice([[], list(marks)])
        return
    if op == "drop":
        if marks:
            marks.pop(rng.randrange(len(marks)))
        return
    value = {"past": counts[int(n)], "negative": -1, "bool": rng.random() < 0.5,
             "swap": rng.randrange(counts[int(n)]) if counts[int(n)] else None}[op]
    if value is None:
        return
    if marks and rng.random() < 0.5:
        marks[rng.randrange(len(marks))] = value
    else:
        marks.insert(rng.randrange(len(marks) + 1), value)


@pytest.mark.parametrize("fixture", sorted(COH_SPACES))
def test_coherence_marks_are_refused_exactly_when_the_oracle_calls_them_malformed(fixture):
    original = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    parsed = parse_document(json.dumps(original)).body
    rng = random.Random(f"coh {fixture}")
    seen = {"refused": 0, "built": 0, "respelled": 0}
    for _ in range(40):
        doc = copy.deepcopy(original)
        space, op = rng.choice(COH_SPACES[fixture]), rng.choice(COH_OPS)
        body = at(doc, space)
        mutate_coh(rng, body, op)
        want = coh_problem(body)
        key = want[1][1] if want is not None and want[0].startswith("dimension") else None
        if key is not None:
            with pytest.raises(DocumentError) as err:
                parse_document(json.dumps(doc))
            assert str(err.value) == f"{want[0]} (at {key_path(doc['kind'], space, want[1])})"
            seen["refused"] += 1
            if str(int(key)) != key:
                # A respelled key reads as a dimension once int() has read it:
                # only the document sees the spelling.
                seen["respelled"] += 1
                continue
        r = getattr(parsed, space[0]) if space else parsed
        bound = r.underlying.dim_bound
        coh = {int(n): marks for n, marks in body["coh"].items()}
        levels = [coh.get(n, []) for n in range(bound + 1)]
        if key is not None:
            # An int key off the dimensions: one level too many, and the
            # constructor's reason words the int.
            want = (f"dimension {key} is outside 0..{bound}", ("coh", int(key)))
            levels.append([0])
        builds = [
            lambda: RupturedComplex.create(r.underlying, coh, r.gap),
            lambda: r._replace(coh=levels),
            lambda: RupturedComplex._make((r.underlying, levels, r.gap)),
        ]
        got = [refusal(build) for build in builds]
        assert got[0] == want, (fixture, space, op, got)
        if want is None:
            assert got == [None] * 3, (fixture, space, op, got)
            assert builds[1]().coh == tuple(frozenset(level) for level in levels)
            parse_document(json.dumps(doc))
            seen["built"] += 1
            continue
        assert None not in got, (fixture, space, op, got)
        if key is not None:
            continue
        assert got[1] == got[2] == want, (fixture, space, op, got)
        with pytest.raises(DocumentError) as err:
            parse_document(json.dumps(doc))
        assert str(err.value) == f"{want[0]} (at {key_path(doc['kind'], space, want[1])})"
        seen["refused"] += 1
    assert seen["refused"] >= 15 and seen["built"] >= 3 and seen["respelled"] >= 1, seen


# (dim_bound, counts, faces, labels) of complexes whose labels do not fit
# their counts, with the reason and position of the refusal.
BAD_LABELS = [
    ((0, [1], {}, {0: ["a", "b", "c"]}), "1 simplices need 1 labels, got 3", ("simplices", 0)),
    ((1, [2, 1], {1: [[1, 0]]}, {0: ["a"]}), "2 simplices need 2 labels, got 1", ("simplices", 0)),
    ((1, [2, 1], {1: [[1, 0]]}, {1: [7]}), "labels must be strings", ("simplices", 1)),
]


@pytest.mark.parametrize("args,reason,where", BAD_LABELS, ids=[c[1] for c in BAD_LABELS])
def test_labels_that_do_not_fit_their_counts_are_refused_on_every_path(args, reason, where):
    d, counts, faces, labels = args
    table = tuple(faces.get(n, ()) for n in range(1, d + 1))
    names = tuple(tuple(labels[n]) if n in labels else None for n in range(d + 1))
    plain = TruncatedComplex(d, counts, table)
    builds = [
        lambda: TruncatedComplex(d, counts, table, names),
        lambda: TruncatedComplex.create(d, counts, faces, labels),
        lambda: plain._replace(labels=names),
        lambda: TruncatedComplex._make((d, counts, table, names)),
    ]
    assert [refusal(build) for build in builds] == [(reason, where)] * 4


def test_label_lists_beyond_the_bound_or_not_lists_are_refused():
    assert refusal(TruncatedComplex, 0, [1], (), (None, ("x",))) == (
        "dimension 1 is outside 0..0", ("simplices", 1))
    assert refusal(TruncatedComplex, 0, [1], (), ("x",)) == (
        "expected a list of labels", ("simplices", 0))


def test_create_refuses_a_key_outside_the_dimensions():
    # Face rows of a triangle above dim_bound 1, and labels of edges in a
    # complex of vertices only, were dropped without a word.
    assert refusal(TruncatedComplex.create, 1, [2, 1], {1: [[1, 0]], 2: [[0, 0, 0]]}) == (
        "dimension 2 is outside 1..1", ("faces", 2))
    assert refusal(TruncatedComplex.create, 0, [1], None, {1: ["x"]}) == (
        "dimension 1 is outside 0..0", ("simplices", 1))
    assert refusal(TruncatedComplex.create, 1, [2, 1], {0: [[0]], 1: [[1, 0]]}) == (
        "dimension 0 is outside 1..1", ("faces", 0))
    assert refusal(TruncatedComplex.create, 1, [2, 1], None, {-1: []}) == (
        "dimension -1 is outside 0..1", ("simplices", -1))


def test_every_builder_labels_each_simplex_once():
    d3 = standard_simplex(3, 2)
    built = [
        d3, horn_complex(1, 0), horn_complex(3, 1), restrict(d3, [[0, 1], [0], []])[0],
        coherent_core(RupturedComplex.create(d3, {2: [1]}))[0],
        product(from_kan(d3), fully_gapped(build_cycle(3))).underlying, build_cycle(4),
        build_double_cover(3).total.underlying, trivial_double_cover(3).total.underlying,
    ]
    for x in built:
        assert x.labels and all(
            names is None or len(names) == count for names, count in zip(x.labels, x.counts))
        assert parse_document(serialize_document(Document("complex", x))).body == x


def assert_fits(value) -> None:
    """``value``, built without the shape rule, equals itself built again
    through it: the same rows, marks and labels, in the same form."""
    if isinstance(value, RupturedComplex):
        assert_fits(value.underlying)
        assert RupturedComplex(*value) == value
        assert type(value.coh) is tuple and {type(marks) for marks in value.coh} == {frozenset}
    else:
        assert TruncatedComplex(*value) == value


def face_closed(rng: random.Random, x: TruncatedComplex) -> list[set[int]]:
    """A random set of simplices of ``x`` per dimension, closed under faces."""
    keep = [set(rng.sample(range(count), rng.randrange(count + 1))) for count in x.counts]
    for n in range(x.dim_bound, 0, -1):
        for idx in keep[n]:
            keep[n - 1].update(x.face_row(n, idx))
    return keep


def labelled(rng: random.Random, r: RupturedComplex) -> RupturedComplex:
    """``r`` with a random choice of its dimensions labelled."""
    x = r.underlying
    labels = [rng.choice([None, tuple(f"s{n}.{i}" for i in range(count))])
              for n, count in enumerate(x.counts)]
    return RupturedComplex(TruncatedComplex(*x[:3], labels), r.coh, r.gap)


def derived(rng: random.Random, value) -> list:
    """What the builders that skip the shape rule return on a fixture body or
    a seeded structure: its restrictions, coherent cores and fibers."""
    if isinstance(value, TruncatedComplex):
        return [restrict(value, face_closed(rng, value))[0],
                restrict(value, [range(count) for count in value.counts])[0]]
    if isinstance(value, RupturedComplex):
        return [coherent_core(value)[0], *derived(rng, value.underlying)]
    if isinstance(value, RupturedFibrationData):
        fibers = [fiber(value, SimplexId(0, b))[0] for b in sorted(value.base.coh[0])]
        return fibers + derived(rng, value.total) + derived(rng, value.base)
    return []


def test_builders_that_skip_the_shape_rule_build_what_it_accepts():
    rng = random.Random(23)
    bodies = [parse_document(path.read_text()).body for path in sorted(FIXTURES.glob("*.json"))]
    for _ in range(200):
        r = random_ruptured(rng)
        bodies.append(labelled(rng, r) if rng.random() < 0.5 else r)
    bodies += [cover(m) for m in range(3, 9) for cover in (build_double_cover, trivial_double_cover)]
    for x in (standard_simplex(2, 2), standard_simplex(3, 3)):
        bodies.append(RupturedFibrationData(fully_gapped(x), from_kan(x), SimplicialMap.identity(x)))
    built = [horn_complex(n, k) for n in range(1, 6) for k in range(n + 1)]
    for body in bodies:
        built += derived(rng, body)
    for value in built:
        assert_fits(value)
    # Both label forms, and fibers with gap horns, are among them.
    assert {bool(x.labels) for x in built if isinstance(x, TruncatedComplex)} == {False, True}
    assert sum(bool(r.gap) for r in built if isinstance(r, RupturedComplex)) >= 4
    assert len(built) >= 600


# Parse errors of single edits, verbatim: the reason and key path are part
# of the document format.
PINNED = [
    ("triangle.json", ("faces", "2", 0), lambda r: r[:2],
     "face row needs 3 entries, got 2", "complex.faces.2[0]"),
    ("triangle_kan.json", ("faces", "1", 1), lambda r: r + [0],
     "face row needs 2 entries, got 3", "ruptured.faces.1[1]"),
    ("circle3_gapped.json", ("faces", "1", 2), lambda r: [r[0], True],
     "expected an integer", "ruptured.faces.1[2]"),
    ("crane.json", ("total", "faces", "1", 1), lambda r: [r[0], 1.0],
     "expected an integer", "fibration.total.faces.1[1]"),
    ("double_cover_3.json", ("base", "faces", "1", 0), lambda r: [-1, r[1]],
     "no simplex 0/-1", "fibration.base.faces.1[0]"),
    ("double_cover_3.json", ("map", "1"), lambda r: r + [0],
     "the total space has no simplex 1/6", "fibration.map.1[6]"),
    ("bottle.json", ("map", "0"), lambda r: [r[0], False, r[2]],
     "expected an integer", "fibration.map.0[1]"),
    ("bank.json", ("map", "0"), lambda r: r[:1],
     "map covers 1 of 2 simplices of the total space", "fibration.map.0"),
    ("crane.json", ("map", "1"), lambda r: [r[0], 7], "no simplex 1/7", "fibration.map.1[1]"),
    ("triangle_kan.json", ("coh",), lambda c: {**c, "01": [7]},
     "dimension '01' is outside 0..2", "ruptured.coh.01"),
    # "02" would otherwise empty "2" and leave the fixture's filled horn open.
    ("triangle_kan.json", ("coh",), lambda c: {**c, "02": []},
     "dimension '02' is outside 0..2", "ruptured.coh.02"),
    ("circle3_open.json", ("coh",), lambda c: {**c, "-1": [0]},
     "dimension '-1' is outside 0..2", "ruptured.coh.-1"),
    ("bank.json", ("total", "coh", "0"), lambda m: m + [False],
     "expected an integer", "fibration.total.coh.0"),
    ("triangle.json", ("simplices",), lambda s: {**s, "3": 1},
     "dimension '3' is outside 0..2", "complex.simplices.3"),
    ("circle3_open.json", ("simplices",), lambda s: {**s, "x": 5},
     "dimension 'x' is outside 0..2", "ruptured.simplices.x"),
    ("crane.json", ("base", "faces"), lambda f: {**f, "0": []},
     "dimension '0' is outside 1..1", "fibration.base.faces.0"),
    ("triangle_kan.json", ("faces",), lambda f: {**f, "3": [[0, 0, 0, 0]]},
     "dimension '3' is outside 1..2", "ruptured.faces.3"),
    ("triangle_kan.json", ("coh",), lambda c: {**c, "x": [0]},
     "dimension 'x' is outside 0..2", "ruptured.coh.x"),
    ("judgment_script.json", ("script", 0, "op"), lambda op: "drop",
     "unknown op 'drop'", "judgment-script.script[0]"),
    ("judgment_script.json", ("script", 1, "polarity"), lambda polarity: "neutral",
     "unknown polarity 'neutral'", "judgment-script.script[1].polarity"),
]


@pytest.mark.parametrize("fixture,path,edit,message,where", PINNED,
                         ids=[f"{c[0]} {c[-1]}" for c in PINNED])
def test_pinned_parse_errors(fixture, path, edit, message, where):
    doc = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    holder = at(doc, path[:-1])
    holder[path[-1]] = edit(holder[path[-1]])
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(doc))
    assert (err.value.args[0], err.value.position) == (message, where)
