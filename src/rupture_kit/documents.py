"""The JSON document formats consumed and produced by the CLI.

Every file is a single JSON object with a ``format`` of "rupture-kit/1"
and a ``kind`` discriminator. Simplices are referenced by (dimension,
index); face lists are ordered d_0..d_n. The parsers raise
:class:`DocumentError` with a key path on any schema mismatch, and the
serializers emit values the parsers map back to equal in-memory objects.
The parsers accept exactly the keys the serializers write: a
``simplices``, ``faces``, ``coh`` or ``map`` key is ``str(n)`` for a
dimension n the object may hold, and a horn's ``faces`` keys are those of
its shape, so "02" is a fault, never a second name for "2". A reference to a
simplex that does not exist (a face row entry, a coherence mark, a gap-horn
face, a composite edge) is a schema mismatch too, and so is a fibration map
that is not total on the total space: the constructors check face rows,
labels, marks and map levels, and their :class:`ShapeError` becomes a key path.
Simplicial identities, face commutation, horn compatibility and Exclusion
are left to the validators. A ``gap`` list, mode rows too, is read one run
of a shape (n, k) at a time in column passes; only a refused run is read
row by row. Text that is not UTF-8, that nests deeper than ``json.loads``
recurses, or that holds an int literal over Python's digit limit is a
:class:`DocumentError` too, placed at the file or at the top level. A
complex's ``dim_bound`` is at most :data:`MAX_DIM_BOUND`, checked before
anything is built from it. A horn row's layout and text are kept per
shape in :class:`errors.ShapeTables`, so only up to dimension 8: reading or
writing higher horns leaves nothing held.

Each kind's codec imports its kernel module when it runs, so that a
command loads only the modules of the documents it reads: this module
itself imports none. A codec imports once per document, never per row:
the row readers that two codecs share return plain values
(``_gap_horns``, ``_mode_fields``) or take the classes the codec
imported (the type and term trees). Besides the six codec pairs, the
document functions and ``Document.to_body`` (the JSON object that
``serialize_document`` writes), the public surface is the four row
serializers the CLI prints rows with: ``complex_to_body``,
``horn_to_body``, ``mode_to_body`` and ``judgment_to_body``; and
``dump_json``, the one JSON writer of the documents and of the CLI's
``--json`` reports, which writes a ``HornSpec`` as its horn body: a body
holds a gap row without a mode as the horn itself.

Document kinds:

    complex          dim_bound, simplices {"n": count | [labels]},
                     faces {"n": [[i0..in], ...]}
    ruptured         complex keys plus coh {"n": [indices]} and
                     gap [{n, k, faces {"i": index}, mode?}]
    fibration        total and base (ruptured bodies), map {"n": [targets]},
                     gap_lifts [{horn, base_simplex, mode?}],
                     composites [{first, second, composite}]
    covering-task    basepoint plus loops [[{edge, dir "+"|"-"}], ...]
    derive-task      gamma and delta binding lists, sigma, term, goal
    judgment-script  script of add / is_open / horn / level_up commands
"""

from __future__ import annotations

import json
import sys
from itertools import accumulate, chain, compress, groupby, pairwise, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, is_not, itemgetter
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional

from .errors import DocumentError, KernelError, ShapeError, ShapeTables, record

if TYPE_CHECKING:
    from .covering import CoveringTask
    from .derivability import DeriveTask, ResourceContext
    from .fibration import RupturedFibrationData
    from .judgments import JudgmentAtom, ScriptCommand
    from .ruptured import GapMode, RupturedComplex
    from .simplicial import HornSpec, TruncatedComplex

FORMAT = "rupture-kit/1"
# The largest ``dim_bound`` a complex may name. Reading and validating cost
# time for every dimension up to the bound, held or empty, so a short
# document with a huge bound would cost without limit.
MAX_DIM_BOUND = 2000


@record
class Document:
    kind: str
    body: object

    def to_body(self) -> dict:
        """The JSON object of the document: its format, its kind and the
        keys its kind's codec writes for ``body``."""
        _, to_body = _codec(self.kind)
        return {"format": FORMAT, "kind": self.kind, **to_body(self.body)}


# -- helpers -------------------------------------------------------------------


def dump_json(value) -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)`` with each
    ``HornSpec`` as its :func:`horn_to_body`, or :class:`TypeError`: dict,
    list and tuple are written, subclasses too (another named tuple is a
    list), and every other value as ``json.dumps`` writes it; a dict key that
    is not a str raises, and a value that contains itself recurses without
    end. On CPython an indented ``json.dumps`` runs the stdlib's pure-Python
    encoder; this writer quotes with its C ``encode_basestring_ascii``,
    writes a plain int item in place, joins each container once and fills a
    horn's faces into its shape's text."""
    # No horn exists before simplicial is loaded, so the writer does not load it.
    simplicial = sys.modules.get(f"{__package__}.simplicial")
    return _dump(value, "\n", getattr(simplicial, "HornSpec", None))


def _dump(value, newline: str, horn: Optional[type]) -> str:
    """:func:`dump_json` of a value whose items follow the line break and
    indent ``newline``; ``horn`` is the ``HornSpec`` class, or None."""
    if type(value) is horn:
        n, k, faces = value
        template, order = _TEMPLATES[n, k, newline]
        return template % (order(faces) if order else faces)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # The quoting raises TypeError on a key that is not a str.
        items = [encode_basestring_ascii(key) + ": "
                 + (repr(item) if type(item) is int else _dump(item, inner, horn))
                 for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [repr(item) if type(item) is int else _dump(item, inner, horn)
                 for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    # A float or an unknown value: the stdlib's C encoder writes or refuses it.
    return json.dumps(value)


def _expect(cond: bool, message: str, where: str):
    if not cond:
        raise DocumentError(message, where)


def _get(obj: Mapping, key: str, where: str, expected=None):
    if not isinstance(obj, dict) or key not in obj:
        raise DocumentError(f"missing key '{key}'", where)
    value = obj[key]
    if expected is not None and not isinstance(value, expected):
        raise DocumentError(
            f"key '{key}' has type {type(value).__name__}", where
        )
    return value


def _optional(body: Mapping, key: str, where: str, kind: type):
    """An optional list or object; absent means empty."""
    value = body.get(key, kind())
    if not isinstance(value, kind):
        noun = "a list" if kind is list else "an object"
        raise DocumentError(f"{key} must be {noun}", f"{where}.{key}")
    return value


def _int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError("expected an integer", where)
    return value


def _by_dimension(obj: dict, low: int, high: int, where: str) -> dict[int, Any]:
    """The values of an object keyed by dimension, keyed by int. A key must be
    one of ``str(low)``..``str(high)``, as the writer writes it: ``"02"`` is
    no second spelling of ``"2"`` but a fault at its key path."""
    dims = {str(n): n for n in range(low, high + 1)}
    for key in obj:
        _expect(key in dims, f"dimension '{key}' is outside {low}..{high}", f"{where}.{key}")
    return {dims[key]: value for key, value in obj.items()}


def _shaped(where: str, build: Callable, *args):
    """``build(*args)``, with its :class:`ShapeError` placed under ``where``."""
    try:
        return build(*args)
    except ShapeError as exc:
        raise DocumentError(exc.reason, f"{where}.{exc.key_path}") from None


# -- complexes -----------------------------------------------------------------


def complex_to_body(x: TruncatedComplex) -> dict:
    simplices = {
        str(n): x.counts[n] if names is None else list(names)
        for n, names in zip(range(x.dim_bound + 1), x.labels or repeat(None))
    }
    faces = {}
    for n in range(1, x.dim_bound + 1):
        if x.count(n):
            faces[str(n)] = [list(x.face_row(n, i)) for i in range(x.count(n))]
    return {"dim_bound": x.dim_bound, "simplices": simplices, "faces": faces}


def body_to_complex(body: Mapping, where: str = "complex") -> TruncatedComplex:
    from .simplicial import TruncatedComplex

    dim_bound = _int(_get(body, "dim_bound", where), f"{where}.dim_bound")
    _expect(dim_bound >= 0, "dim_bound must be non-negative", f"{where}.dim_bound")
    _expect(dim_bound <= MAX_DIM_BOUND, f"dim_bound must be at most {MAX_DIM_BOUND}",
            f"{where}.dim_bound")
    simplices = _by_dimension(_get(body, "simplices", where, dict), 0, dim_bound,
                              f"{where}.simplices")
    # A label list counts its simplices; the constructor checks the labels.
    labels = {n: entry for n, entry in simplices.items() if isinstance(entry, list)}
    counts = [len(labels[n]) if n in labels else simplices.get(n, 0) for n in range(dim_bound + 1)]
    for n, count in enumerate(counts):
        _expect(type(count) is int, "expected a count or a label array", f"{where}.simplices.{n}")
        _expect(count >= 0, "count must be non-negative", f"{where}.simplices.{n}")
    faces = _by_dimension(_optional(body, "faces", where, dict), 1, dim_bound, f"{where}.faces")
    return _shaped(where, TruncatedComplex.create, dim_bound, counts, faces, labels)


# -- gap modes -----------------------------------------------------------------


def mode_to_body(mode: Optional[GapMode]) -> Optional[dict]:
    if mode is None:
        return None
    kind, payload = mode
    if kind in _MODES:
        payload = _MODES[kind][1](payload)
    return {"kind": kind, "payload": payload}


def _mode_fields(body, where: str) -> tuple[str, object]:
    """The (kind, payload) of a gap mode body."""
    kind = _get(body, "kind", where, str)
    _expect(bool(kind), "mode kind must be non-empty", f"{where}.kind")
    payload = body.get("payload")
    if kind in _MODES:
        return kind, _MODES[kind][0](payload, f"{where}.payload")
    if kind == "plain":  # it and every kind outside the table carry null
        _expect(payload is None, "plain mode carries no payload", f"{where}.payload")
    _expect(payload is None, f"unknown mode kind '{kind}' cannot carry payload", where)
    return kind, None


def _monodromy_payload(payload, here: str):
    from .covering import FiberPermutation

    fiber = [_int(v, here) for v in _get(payload, "fiber", here, list)]
    mapping = {}
    for pair in _get(payload, "images", here, list):
        _expect(isinstance(pair, list) and len(pair) == 2,
                "images must be [source, image] pairs", here)
        source = _int(pair[0], here)
        _expect(source not in mapping, f"images name source {source} twice", here)
        mapping[source] = _int(pair[1], here)
    try:
        return FiberPermutation.of(fiber, mapping)
    except KernelError as exc:
        raise DocumentError(str(exc), here)


def _semantic_payload(payload, here: str) -> tuple[str, ...]:
    _expect(isinstance(payload, list) and all(isinstance(v, str) for v in payload),
            "semantic payload must be a list of feature strings", here)
    return tuple(payload)


def _resource_payload(payload, here: str) -> tuple[tuple[str, int], ...]:
    _expect(isinstance(payload, list), "resource payload must be a list", here)
    for pair in payload:
        _expect(isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str),
                "resource payload entries are [variable, count] pairs", here)
        _int(pair[1], here)
    return tuple(map(tuple, payload))


# kind -> (read its payload at a key path, write it); every other kind,
# "plain" among them, carries null.
_MODES = {
    "monodromy": (_monodromy_payload, lambda perm: {
        "fiber": list(perm.fiber), "images": [list(pair) for pair in perm.mapping]}),
    "semantic": (_semantic_payload, list),
    "resource": (_resource_payload, lambda counts: [list(pair) for pair in counts]),
}


# -- ruptured complexes ----------------------------------------------------------


def _horn_layout(n: int, k: int) -> tuple[tuple[str, ...], Callable[[dict], tuple]]:
    """The ``faces`` keys of an (n, k)-horn body, "0".."n" without k, in the
    order of ``HornSpec.faces``, and the getter of the faces tuple from a
    body's ``faces``, which raises :class:`KeyError` on a missing key: a horn
    row's one layout, read and written per shape."""
    keys = tuple([str(i) for i in range(n + 1) if i != k])
    # An itemgetter of one key gives the bare value.
    return keys, itemgetter(*keys) if n > 1 else lambda faces: (faces[keys[0]],)


def _horn_template(n: int, k: int, newline: str) -> tuple[str, Optional[itemgetter]]:
    """The text of a horn body at the indent ``newline``, with a ``%d`` per
    face in the sorted order of its key, and the itemgetter of the faces in
    that order (None when it is theirs, as it is for n < 10)."""
    keys, inner = _LAYOUTS[n, k][0], newline + "  "
    order = sorted(range(n), key=keys.__getitem__)
    faces = ("," + inner + "  ").join([f'"{keys[i]}": %d' for i in order])
    text = f'{{{inner}"faces": {{{inner}  {faces}{inner}}},{inner}"k": {k},{inner}"n": {n}'
    return text + newline + "}", None if order == sorted(order) else itemgetter(*order)


_LAYOUTS = ShapeTables(_horn_layout)
_TEMPLATES = ShapeTables(_horn_template)  # by (n, k, newline)


def horn_to_body(h: HornSpec) -> dict:
    n, k, faces = h
    return {"n": n, "k": k, "faces": dict(zip(_LAYOUTS[n, k][0], faces))}


def _checked_horn_fields(body: Mapping, where: str, within: TruncatedComplex
                         ) -> tuple[int, int, tuple[int, ...]]:
    """The (n, k, faces) of a horn body that :func:`_gap_horns` refuses to
    read in runs, or :class:`DocumentError` at its first fault. Its ``faces``
    holds exactly its shape's keys, so a row read here reads in a run too.
    n is checked against the bound first, so no work or message outgrows it."""
    n = _get(body, "n", where)
    if type(n) is not int:
        _int(n, f"{where}.n")
    k = _get(body, "k", where)
    if type(k) is not int:
        _int(k, f"{where}.k")
    if not (n >= 1 and 0 <= k <= n):
        raise DocumentError(f"bad horn shape (n={n}, k={k})", where)
    if n > within.dim_bound:
        raise DocumentError(f"horn dimension {n} exceeds bound {within.dim_bound}", f"{where}.n")
    faces_obj = _get(body, "faces", where, dict)
    present = [i for i in range(n + 1) if i != k]
    names = set(map(str, present))
    for key, value in faces_obj.items():
        if key not in names:
            raise DocumentError(f"face index '{key}' is not one of {present}",
                                f"{where}.faces.{key}")
        if type(value) is not int:
            _int(value, f"{where}.faces.{key}")
    if len(faces_obj) != n:
        raise DocumentError(f"horn faces must cover indices {present}", f"{where}.faces")
    count, values = within.count(n - 1), list(faces_obj.values())
    if not 0 <= min(values) <= max(values) < count:
        from .simplicial import bad_index

        j, reason = bad_index(values, n - 1, count)
        raise DocumentError(reason, f"{where}.faces.{list(faces_obj)[j]}")
    return n, k, _LAYOUTS[n, k][1](faces_obj)


def _run_faces(ns: list, ks: list, objs: list, within: TruncatedComplex) -> Optional[list]:
    """The faces of a run of horn bodies of one shape from their n, k and
    ``faces`` columns; None unless each n and k is an int (True == 1 joins a
    run of n = 1) and each object holds just the shape's keys, each naming a
    simplex of ``within``."""
    from .simplicial import bad_index

    n, k = (ns[0], ks[0]) if set(map(type, ns + ks)) == {int} else (0, 0)
    try:  # TypeError: an object that is no dict; KeyError: one without a key
        if 1 <= n <= within.dim_bound and 0 <= k <= n and set(map(len, objs)) == {n}:
            faces = list(map(_LAYOUTS[n, k][1], objs))
            if not bad_index(list(chain.from_iterable(faces)), n - 1, within.counts[n - 1]):
                return faces
    except (KeyError, TypeError):
        pass
    return None


def _gap_horns(rows: list, within: TruncatedComplex, where: Callable[[int], str]
               ) -> tuple[list[HornSpec], Optional[DocumentError]]:
    """The horns of a list of horn bodies up to the first one at fault, and
    that fault, or None; other keys of a row, as a mode, are the caller's.
    Each run of a shape (n, k) is read by :func:`_run_faces`, and each row of
    a run it refuses by :func:`_checked_horn_fields`, which words a fault at
    ``where(i)``. A row that is no dict is a fault: the rest is its run."""
    from .simplicial import fitted_horn, fitted_horns

    size = [*map(isinstance, rows, repeat(dict)), False].index(False)
    ns, ks, objs = [list(map(dict.get, rows[:size], repeat(key))) for key in ("n", "k", "faces")]
    sizes = [len(list(run)) for _, run in groupby(zip(ns, ks))] + [len(rows) - size]
    horns = []
    try:
        for start, stop in pairwise(accumulate(sizes, initial=0)):
            if faces := _run_faces(ns[start:stop], ks[start:stop], objs[start:stop], within):
                horns += fitted_horns(ns[start], ks[start], faces)
            else:
                for i in range(start, stop):
                    horns.append(fitted_horn(*_checked_horn_fields(rows[i], where(i), within)))
    except DocumentError as fault:
        return horns, fault
    return horns, None


def _gap_table(rows: list, within: TruncatedComplex, where: str) -> dict:
    """The gap table of a ruptured ``gap`` list: each row's horn by
    :func:`_gap_horns`, and its mode, if any, by :func:`_mode_fields`. The
    first fault in row order raises; within a row, the horn comes first, then
    a horn listed twice, then the mode."""
    from .ruptured import GapMode

    here = lambda i: f"{where}.gap[{i}]"  # the key path, built on a fault only
    horns, fault = _gap_horns(rows, within, here)
    gap, end = dict.fromkeys(horns), len(horns)
    if len(gap) < end:
        seen = set()
        end = next(i for i, h in enumerate(horns) if h in seen or seen.add(h))
        fault = DocumentError(f"{horns[end]} is listed twice", here(end))
    modes = map(dict.get, rows[:end], repeat("mode"))
    for i in compress(range(end), map(is_not, modes, repeat(None))):
        gap[horns[i]] = GapMode(*_mode_fields(rows[i]["mode"], f"{here(i)}.mode"))
    if fault is not None:
        raise fault
    return gap


def ruptured_to_body(r: RupturedComplex) -> dict:
    body = complex_to_body(r.underlying)
    body["coh"] = {
        str(n): sorted(r.coh[n]) for n in range(r.underlying.dim_bound + 1)
    }
    # A row without a mode is the horn, which dump_json writes as its body.
    body["gap"] = [
        h if (mode := r.gap[h]) is None else {**horn_to_body(h), "mode": mode_to_body(mode)}
        for h in sorted(r.gap)
    ]
    return body


def body_to_ruptured(body: Mapping, where: str = "ruptured") -> RupturedComplex:
    from .ruptured import RupturedComplex

    underlying = body_to_complex(body, where)
    coh = _by_dimension(_optional(body, "coh", where, dict), 0, underlying.dim_bound,
                        f"{where}.coh")
    for n, members in coh.items():
        _expect(isinstance(members, list), "expected a list of indices", f"{where}.coh.{n}")
    # Built before the gap list is read, so that a bad mark is the first error.
    r = _shaped(where, RupturedComplex.create, underlying, coh)
    gap = _gap_table(_optional(body, "gap", where, list), underlying, where)
    return tuple.__new__(RupturedComplex, (*r[:2], gap))  # a gap table has no shape rule


# -- fibrations -------------------------------------------------------------------


def fibration_to_body(f: RupturedFibrationData) -> dict:
    gap_rows = []
    for key in sorted(f.gap_lifts):
        row = {"horn": key.horn, "base_simplex": key.base.index}
        mode = f.gap_lifts[key]
        if mode is not None:
            row["mode"] = mode_to_body(mode)
        gap_rows.append(row)
    composites = [
        {"first": first, "second": second, "composite": comp}
        for (first, second), comp in sorted(f.composites.items())
    ]
    return {
        "total": ruptured_to_body(f.total),
        "base": ruptured_to_body(f.base),
        "map": {
            str(n): list(f.proj.levels[n]) for n in range(f.proj.top_dim + 1)
        },
        "gap_lifts": gap_rows,
        "composites": composites,
    }


def body_to_fibration(body: Mapping, where: str = "fibration") -> RupturedFibrationData:
    from .fibration import LiftingProblemKey, RupturedFibrationData
    from .ruptured import GapMode
    from .simplicial import SimplexId, SimplicialMap, bad_index

    total = body_to_ruptured(_get(body, "total", where, dict), f"{where}.total")
    base = body_to_ruptured(_get(body, "base", where, dict), f"{where}.base")
    top = min(total.underlying.dim_bound, base.underlying.dim_bound)
    levels = _by_dimension(_get(body, "map", where, dict), 0, top, f"{where}.map")
    proj = SimplicialMap(tuple(levels.get(n, []) for n in range(top + 1)))
    # Built before the gap lifts are read, so that a bad map level is the
    # first error, as the document lists it.
    f = _shaped(where, RupturedFibrationData, total, base, proj)
    rows = _optional(body, "gap_lifts", where, list)
    bodies = [row.get("horn") if isinstance(row, dict) else None for row in rows]
    horns, fault = _gap_horns(bodies, total.underlying, lambda i: f"{where}.gap_lifts[{i}].horn")
    gap_lifts = {}
    for i, (row, horn) in enumerate(zip(rows, horns)):
        here = f"{where}.gap_lifts[{i}]"
        base_index = _get(row, "base_simplex", here)
        bad = bad_index([base_index], horn.n, base.underlying.count(horn.n))
        if bad:
            raise DocumentError(bad[1], f"{here}.base_simplex")
        key = LiftingProblemKey(horn, SimplexId(horn.n, base_index))
        if key in gap_lifts:
            raise DocumentError(f"{key} is listed twice", here)
        mode = row.get("mode")
        gap_lifts[key] = None if mode is None else GapMode(*_mode_fields(mode, f"{here}.mode"))
    if fault is not None:  # a row without a horn object is a fault before its horn's
        _get(rows[len(horns)], "horn", f"{where}.gap_lifts[{len(horns)}]", dict)
        raise fault
    composites = {}
    edges = base.underlying.count(1)
    for i, row in enumerate(_optional(body, "composites", where, list)):
        here = f"{where}.composites[{i}]"
        first = _int(_get(row, "first", here), here)
        second = _int(_get(row, "second", here), here)
        comp = _int(_get(row, "composite", here), here)
        bad = bad_index((first, second, comp), 1, edges)
        if bad:
            raise DocumentError(bad[1], here)
        if (first, second) in composites:
            raise DocumentError(f"composite of ({first}, {second}) is listed twice", here)
        composites[(first, second)] = comp
    return f._replace(gap_lifts=gap_lifts, composites=composites)


# -- covering tasks -----------------------------------------------------------------


def covering_task_to_body(task: CoveringTask) -> dict:
    return {
        "basepoint": task.basepoint.index,
        "loops": [
            [{"edge": e, "dir": "+" if fwd else "-"} for e, fwd in loop.steps]
            for loop in task.loops
        ],
    }


def body_to_covering_task(body: Mapping, where: str = "covering-task") -> CoveringTask:
    from .covering import CoveringTask, EdgePath
    from .simplicial import SimplexId

    basepoint = _int(_get(body, "basepoint", where), f"{where}.basepoint")
    loops = []
    rows = _get(body, "loops", where, list)
    for i, row in enumerate(rows):
        here = f"{where}.loops[{i}]"
        _expect(isinstance(row, list), "loop must be a list of steps", here)
        steps = []
        for j, step in enumerate(row):
            there = f"{here}[{j}]"
            edge = _int(_get(step, "edge", there), there)
            direction = _get(step, "dir", there, str)
            _expect(direction in ("+", "-"), "dir must be '+' or '-'", there)
            steps.append((edge, direction == "+"))
        loops.append(EdgePath(tuple(steps)))
    return CoveringTask(SimplexId(0, basepoint), tuple(loops))


# -- derive tasks ---------------------------------------------------------------------


# Types and terms share one grammar: a named leaf, the unit and a binary node.
# Each tree is (what, leaf key, leaf class, unit class, node key, node class),
# with its classes imported from derivability when it is read.
def _type_tree():
    from .derivability import AtomType, ProdType, UnitType

    return ("type", "atom", AtomType, UnitType, "prod", ProdType)


def _term_tree():
    from .derivability import Pair, UnitTerm, Var

    return ("term", "var", Var, UnitTerm, "pair", Pair)


def _tree_to_body(tree, t) -> dict:
    _, leaf, leaf_cls, unit_cls, node, _ = tree
    if isinstance(t, leaf_cls):
        return {leaf: t.name}
    if isinstance(t, unit_cls):
        return {"unit": {}}
    return {node: [_tree_to_body(tree, t.left), _tree_to_body(tree, t.right)]}


def _body_to_tree(tree, body, where: str):
    what, leaf, leaf_cls, unit_cls, node, node_cls = tree
    if isinstance(body, dict) and len(body) == 1:
        if leaf in body:
            name = body[leaf]
            _expect(isinstance(name, str) and bool(name), f"{leaf} needs a name", where)
            return leaf_cls(name)
        if "unit" in body:
            return unit_cls()
        if node in body:
            parts = body[node]
            _expect(
                isinstance(parts, list) and len(parts) == 2,
                f"{node} needs two components",
                where,
            )
            return node_cls(
                *(_body_to_tree(tree, p, f"{where}.{node}[{i}]") for i, p in enumerate(parts))
            )
    raise DocumentError(f"{what} must be one of {leaf}/unit/{node}", where)


def _context_to_body(ctx: ResourceContext) -> list:
    tree = _type_tree()
    return [
        {
            "var": b.var,
            "type": _tree_to_body(tree, b.type),
            "annotation": b.annotation.value,
        }
        for b in ctx.bindings
    ]


def _body_to_context(rows, where: str) -> ResourceContext:
    from .derivability import Annotation, Binding, ResourceContext

    _expect(isinstance(rows, list), "context must be a list of bindings", where)
    tree = _type_tree()
    bindings = []
    for i, row in enumerate(rows):
        here = f"{where}[{i}]"
        var = _get(row, "var", here, str)
        t = _body_to_tree(tree, _get(row, "type", here), f"{here}.type")
        ann_text = _get(row, "annotation", here, str)
        try:
            ann = Annotation(ann_text)
        except ValueError:
            raise DocumentError(f"unknown annotation '{ann_text}'", f"{here}.annotation")
        bindings.append(Binding(var, t, ann))
    try:
        return ResourceContext(tuple(bindings))
    except KernelError as exc:
        raise DocumentError(str(exc), where)


def derive_task_to_body(task: DeriveTask) -> dict:
    return {
        "gamma": _context_to_body(task.gamma),
        "delta": _context_to_body(task.delta),
        "sigma": {src: dst for src, dst in task.sigma.mapping},
        "term": _tree_to_body(_term_tree(), task.term),
        "goal": _tree_to_body(_type_tree(), task.goal),
    }


def body_to_derive_task(body: Mapping, where: str = "derive-task") -> DeriveTask:
    from .derivability import DeriveTask, Substitution

    gamma = _body_to_context(_get(body, "gamma", where), f"{where}.gamma")
    delta = _body_to_context(_get(body, "delta", where), f"{where}.delta")
    sigma_obj = _get(body, "sigma", where, dict)
    for key, value in sigma_obj.items():
        _expect(isinstance(value, str), "sigma images must be variable names", f"{where}.sigma.{key}")
    sigma = Substitution.of(sigma_obj)
    term = _body_to_tree(_term_tree(), _get(body, "term", where), f"{where}.term")
    goal = _body_to_tree(_type_tree(), _get(body, "goal", where), f"{where}.goal")
    return DeriveTask(gamma, delta, sigma, term, goal)


# -- judgment scripts ------------------------------------------------------------------


def judgment_to_body(j: JudgmentAtom) -> dict:
    # A base atom has a label; an arrow has a source and a target.
    if hasattr(j, "label"):
        return {"atom": j.label}
    return {"arrow": [j.source, j.target]}


# op -> the keys of its row besides "op", in the order they are read, each
# the ScriptCommand field of its name. A "first", "second" or "gap" is a
# string as written; a payload of None is not written.
_SCRIPT_ROWS = {
    "add": ("judgment", "polarity", "payload"),
    "is_open": ("judgment",),
    "horn": ("first", "second", "gap"),
    "level_up": (),
}


def script_to_body(commands) -> dict:
    write = {"judgment": judgment_to_body, "polarity": attrgetter("value")}
    rows = []
    for cmd in commands:
        row = {"op": cmd.op}
        for key in _SCRIPT_ROWS[cmd.op]:
            value = getattr(cmd, key)
            if value is not None or key != "payload":
                row[key] = write[key](value) if key in write else value
        rows.append(row)
    return {"script": rows}


def body_to_script(body: Mapping, where: str = "judgment-script") -> list[ScriptCommand]:
    from .judgments import ArrowJudgment, BaseJudgment, Polarity, ScriptCommand

    def read_judgment(row, here):
        body, at = _get(row, "judgment", here), f"{here}.judgment"
        one = isinstance(body, dict) and len(body) == 1
        if one and "atom" in body:
            label = body["atom"]
            _expect(isinstance(label, str) and bool(label), "atom needs a label", at)
            return BaseJudgment(label)
        if one and "arrow" in body:
            pair = body["arrow"]
            _expect(
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(v, str) and v for v in pair),
                "arrow needs [source, target] labels",
                at,
            )
            return ArrowJudgment(*pair)
        raise DocumentError("judgment must be atom or arrow", at)

    def read_polarity(row, here):
        text = _get(row, "polarity", here, str)
        try:
            return Polarity(text)
        except ValueError:
            raise DocumentError(f"unknown polarity '{text}'", f"{here}.polarity")

    read = {"judgment": read_judgment, "polarity": read_polarity,
            "payload": lambda row, here: row.get("payload")}
    commands = []
    for i, row in enumerate(_get(body, "script", where, list)):
        here = f"{where}.script[{i}]"
        op = _get(row, "op", here, str)
        _expect(op in _SCRIPT_ROWS, f"unknown op '{op}'", here)
        fields = {key: read[key](row, here) if key in read else _get(row, key, here, str)
                  for key in _SCRIPT_ROWS[op]}
        commands.append(ScriptCommand(op, **fields))
    return commands


# -- top level -----------------------------------------------------------------------


# kind -> (parse the body, build the body)
_KINDS = {
    "complex": (body_to_complex, complex_to_body),
    "ruptured": (body_to_ruptured, ruptured_to_body),
    "fibration": (body_to_fibration, fibration_to_body),
    "covering-task": (body_to_covering_task, covering_task_to_body),
    "derive-task": (body_to_derive_task, derive_task_to_body),
    "judgment-script": (body_to_script, script_to_body),
}


def _codec(kind: str):
    if kind not in _KINDS:
        raise DocumentError(f"unknown kind '{kind}'", "kind")
    return _KINDS[kind]


def parse_document(text: str) -> Document:
    """Parse one document from JSON text, dispatching on its kind."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(exc.msg, f"line {exc.lineno}, column {exc.colno}")
    except RecursionError:
        raise DocumentError("JSON nests too deeply to read", "top level") from None
    except ValueError:  # the one other refusal: an int literal over the digit limit
        limit = sys.get_int_max_str_digits()
        raise DocumentError(f"integer literal longer than {limit} digits", "top level") from None
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object", "top level")
    fmt = _get(raw, "format", "top level", str)
    _expect(fmt == FORMAT, f"unsupported format '{fmt}'", "format")
    kind = _get(raw, "kind", "top level", str)
    parse, _ = _codec(kind)
    return Document(kind, parse(raw, kind))


def serialize_document(doc: Document) -> str:
    """Deterministic JSON text for a document (sorted keys, 2-space indent)."""
    return dump_json(doc.to_body()) + "\n"


def load_document(path) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(str(exc), str(path))
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not UTF-8: byte {exc.start} cannot be decoded", str(path)) from None
    return parse_document(text)
