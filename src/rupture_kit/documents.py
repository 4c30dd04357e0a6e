"""The JSON document formats consumed and produced by the CLI.

Every file is a single JSON object with a ``format`` of "rupture-kit/1"
and a ``kind`` discriminator. Simplices are referenced by (dimension,
index); face lists are ordered d_0..d_n. The parsers raise
:class:`DocumentError` with a key path on any schema mismatch, and the
serializers emit values the parsers map back to equal in-memory objects.
A reference to a simplex that does not exist (a face row entry, a coherence
mark, a gap-horn face) is a schema mismatch too, and so is a fibration map
that is not total on the total space or has a level outside the dimensions
both spaces share; simplicial identities, face commutation, horn
compatibility and Exclusion are left to the validators.

Each kind's codec imports its kernel module when it runs, so that a
command loads only the modules of the documents it reads: this module
itself imports none. A codec imports once per document, never per row:
the row readers it shares with the public row codecs return plain values
(``_horn_fields``, ``_mode_fields``, ``_judgment_labels``) or take the
classes the codec imported (the type and term trees).

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional

from .errors import DocumentError

if TYPE_CHECKING:
    from .covering import CoveringTask
    from .derivability import DeriveTask, ResourceContext, TupleTerm, TypeExpr
    from .fibration import RupturedFibrationData
    from .judgments import JudgmentAtom, ScriptCommand
    from .ruptured import GapMode, RupturedComplex
    from .simplicial import HornSpec, SimplexId, TruncatedComplex

FORMAT = "rupture-kit/1"

# The task records live next to the kernel modules they feed, and load with
# them; they can still be imported from here.
_TASKS = {"CoveringTask": "covering", "DeriveTask": "derivability", "ScriptCommand": "judgments"}


def __getattr__(name: str):
    if name not in _TASKS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__package__}.{_TASKS[name]}"), name)


@dataclass(frozen=True)
class Document:
    kind: str
    body: object


# -- helpers -------------------------------------------------------------------


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
    noun = "a list" if kind is list else "an object"
    _expect(isinstance(value, kind), f"{key} must be {noun}", f"{where}.{key}")
    return value


def _int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError("expected an integer", where)
    return value


def _index(value, dim: int, count: int, where: str) -> int:
    """An integer naming one of the ``count`` simplices of dimension ``dim``."""
    i = _int(value, where)
    _expect(0 <= i < count, f"no simplex {dim}/{i}", where)
    return i


# -- complexes -----------------------------------------------------------------


def complex_to_body(x: TruncatedComplex) -> dict:
    simplices = {}
    for n in range(x.dim_bound + 1):
        per_dim = x.labels[n] if n < len(x.labels) else None
        if per_dim is not None:
            simplices[str(n)] = list(per_dim)
        else:
            simplices[str(n)] = x.count(n)
    faces = {}
    for n in range(1, x.dim_bound + 1):
        if x.count(n):
            faces[str(n)] = [list(x.face_row(n, i)) for i in range(x.count(n))]
    return {"dim_bound": x.dim_bound, "simplices": simplices, "faces": faces}


def body_to_complex(body: Mapping, where: str = "complex") -> TruncatedComplex:
    from .simplicial import TruncatedComplex

    dim_bound = _int(_get(body, "dim_bound", where), f"{where}.dim_bound")
    _expect(dim_bound >= 0, "dim_bound must be non-negative", f"{where}.dim_bound")
    simplices = _get(body, "simplices", where, dict)
    counts = []
    labels = {}
    for n in range(dim_bound + 1):
        entry = simplices.get(str(n), 0)
        here = f"{where}.simplices.{n}"
        if isinstance(entry, int) and not isinstance(entry, bool):
            _expect(entry >= 0, "count must be non-negative", here)
            counts.append(entry)
        elif isinstance(entry, list):
            _expect(
                all(isinstance(l, str) for l in entry), "labels must be strings", here
            )
            counts.append(len(entry))
            labels[n] = entry
        else:
            raise DocumentError("expected a count or a label array", here)
    faces_obj = _optional(body, "faces", where, dict)
    faces = {}
    for n in range(1, dim_bound + 1):
        rows = faces_obj.get(str(n), [])
        here = f"{where}.faces.{n}"
        _expect(isinstance(rows, list), "expected a list of face rows", here)
        _expect(
            len(rows) == counts[n],
            f"{counts[n]} simplices need {counts[n]} face rows, got {len(rows)}",
            here,
        )
        parsed_rows = []
        for i, row in enumerate(rows):
            _expect(isinstance(row, list), "face row must be a list", f"{here}[{i}]")
            _expect(
                len(row) == n + 1,
                f"face row needs {n + 1} entries, got {len(row)}",
                f"{here}[{i}]",
            )
            parsed_rows.append(
                [_index(v, n - 1, counts[n - 1], f"{here}[{i}]") for v in row]
            )
        faces[n] = parsed_rows
    return TruncatedComplex.create(dim_bound, counts, faces, labels)


# -- gap modes -----------------------------------------------------------------


def mode_to_body(mode: Optional[GapMode]) -> Optional[dict]:
    if mode is None:
        return None
    payload: Any = mode.payload
    if isinstance(payload, tuple):
        payload = [list(item) if isinstance(item, tuple) else item for item in payload]
    elif payload is not None:
        # Only a monodromy mode carries such a payload, and only then is
        # covering loaded.
        from .covering import FiberPermutation

        if isinstance(payload, FiberPermutation):
            payload = {
                "fiber": list(payload.fiber),
                "images": [list(pair) for pair in payload.mapping],
            }
    return {"kind": mode.kind, "payload": payload}


def _mode_fields(body, where: str) -> Optional[tuple[str, object]]:
    """The (kind, payload) of a gap mode body; None for no mode."""
    if body is None:
        return None
    kind = _get(body, "kind", where, str)
    _expect(bool(kind), "mode kind must be non-empty", f"{where}.kind")
    payload = body.get("payload")
    here = f"{where}.payload"
    if kind == "plain":
        _expect(payload is None, "plain mode carries no payload", here)
        return kind, None
    if kind == "monodromy":
        from .covering import FiberPermutation

        fiber = [_int(v, here) for v in _get(payload, "fiber", here, list)]
        images = _get(payload, "images", here, list)
        mapping = {}
        for pair in images:
            _expect(
                isinstance(pair, list) and len(pair) == 2,
                "images must be [source, image] pairs",
                here,
            )
            mapping[_int(pair[0], here)] = _int(pair[1], here)
        try:
            return kind, FiberPermutation.of(fiber, mapping)
        except Exception as exc:
            raise DocumentError(str(exc), here)
    if kind == "semantic":
        _expect(
            isinstance(payload, list) and all(isinstance(v, str) for v in payload),
            "semantic payload must be a list of feature strings",
            here,
        )
        return kind, tuple(payload)
    if kind == "resource":
        _expect(isinstance(payload, list), "resource payload must be a list", here)
        counts = []
        for pair in payload:
            _expect(
                isinstance(pair, list)
                and len(pair) == 2
                and isinstance(pair[0], str),
                "resource payload entries are [variable, count] pairs",
                here,
            )
            counts.append((pair[0], _int(pair[1], here)))
        return kind, tuple(counts)
    _expect(payload is None, f"unknown mode kind '{kind}' cannot carry payload", where)
    return kind, None


def body_to_mode(body, where: str) -> Optional[GapMode]:
    from .ruptured import GapMode

    fields = _mode_fields(body, where)
    return None if fields is None else GapMode(*fields)


# -- ruptured complexes ----------------------------------------------------------


def horn_to_body(h: HornSpec) -> dict:
    return {
        "n": h.n,
        "k": h.k,
        "faces": {str(i): f for i, f in h.face_map().items()},
    }


def _horn_fields(body: Mapping, where: str, within: TruncatedComplex) -> tuple[int, int, dict]:
    """The (n, k, face map) of a horn body whose faces must be simplices of
    ``within``."""
    n = _int(_get(body, "n", where), f"{where}.n")
    k = _int(_get(body, "k", where), f"{where}.k")
    _expect(n >= 1 and 0 <= k <= n, f"bad horn shape (n={n}, k={k})", where)
    faces_obj = _get(body, "faces", where, dict)
    mapping = {}
    for key, value in faces_obj.items():
        try:
            i = int(key)
        except ValueError:
            raise DocumentError(f"face index '{key}' is not an integer", f"{where}.faces")
        mapping[i] = _int(value, f"{where}.faces.{key}")
    expected = [i for i in range(n + 1) if i != k]
    _expect(
        sorted(mapping) == expected,
        f"horn faces must cover indices {expected}",
        f"{where}.faces",
    )
    bound = within.dim_bound
    _expect(n <= bound, f"horn dimension {n} exceeds bound {bound}", f"{where}.n")
    for i, f in mapping.items():
        _index(f, n - 1, within.count(n - 1), f"{where}.faces.{i}")
    return n, k, mapping


def body_to_horn(body: Mapping, where: str, within: TruncatedComplex) -> HornSpec:
    """A horn whose faces must be simplices of ``within``."""
    from .simplicial import HornSpec

    return HornSpec.from_mapping(*_horn_fields(body, where, within))


def ruptured_to_body(r: RupturedComplex) -> dict:
    body = complex_to_body(r.underlying)
    body["coh"] = {
        str(n): sorted(r.coh[n]) for n in range(r.underlying.dim_bound + 1)
    }
    gap_rows = []
    for h in sorted(r.gap):
        row = horn_to_body(h)
        mode = r.gap[h]
        if mode is not None:
            row["mode"] = mode_to_body(mode)
        gap_rows.append(row)
    body["gap"] = gap_rows
    return body


def body_to_ruptured(body: Mapping, where: str = "ruptured") -> RupturedComplex:
    from .ruptured import GapMode, RupturedComplex
    from .simplicial import HornSpec

    underlying = body_to_complex(body, where)
    coh_obj = _optional(body, "coh", where, dict)
    coh = {}
    for key, members in coh_obj.items():
        here = f"{where}.coh.{key}"
        try:
            n = int(key)
        except ValueError:
            raise DocumentError(f"dimension '{key}' is not an integer", here)
        bound = underlying.dim_bound
        _expect(0 <= n <= bound, f"dimension {n} is outside 0..{bound}", here)
        _expect(isinstance(members, list), "expected a list of indices", here)
        coh[n] = [_index(v, n, underlying.count(n), here) for v in members]
    gap = {}
    for i, row in enumerate(_optional(body, "gap", where, list)):
        here = f"{where}.gap[{i}]"
        h = HornSpec.from_mapping(*_horn_fields(row, here, underlying))
        _expect(h not in gap, f"{h} is listed twice", here)
        mode = _mode_fields(row.get("mode"), f"{here}.mode")
        gap[h] = None if mode is None else GapMode(*mode)
    return RupturedComplex.create(underlying, coh, gap, gap)


# -- fibrations -------------------------------------------------------------------


def fibration_to_body(f: RupturedFibrationData) -> dict:
    gap_rows = []
    for key in sorted(f.gap_lifts):
        row = {
            "horn": horn_to_body(key.horn),
            "base_simplex": key.base.index,
        }
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
    from .simplicial import HornSpec, SimplexId, SimplicialMap

    total = body_to_ruptured(_get(body, "total", where, dict), f"{where}.total")
    base = body_to_ruptured(_get(body, "base", where, dict), f"{where}.base")
    map_obj = _get(body, "map", where, dict)
    top = min(total.underlying.dim_bound, base.underlying.dim_bound)
    dims = [str(n) for n in range(top + 1)]
    for key in map_obj:
        _expect(
            key in dims,
            f"map level '{key}' is not a dimension in 0..{top}",
            f"{where}.map.{key}",
        )
    levels = []
    for n in range(top + 1):
        here = f"{where}.map.{n}"
        row = map_obj.get(str(n), [])
        _expect(isinstance(row, list), "expected a list of targets", here)
        have = total.underlying.count(n)
        _expect(
            len(row) <= have, f"the total space has no simplex {n}/{have}", f"{here}[{have}]"
        )
        _expect(
            len(row) == have, f"map covers {len(row)} of {have} simplices of the total space", here
        )
        count = base.underlying.count(n)
        levels.append(tuple(_index(v, n, count, f"{here}[{j}]") for j, v in enumerate(row)))
    proj = SimplicialMap(tuple(levels))
    gap_lifts = {}
    for i, row in enumerate(_optional(body, "gap_lifts", where, list)):
        here = f"{where}.gap_lifts[{i}]"
        horn_body = _get(row, "horn", here, dict)
        horn = HornSpec.from_mapping(*_horn_fields(horn_body, f"{here}.horn", total.underlying))
        base_index = _index(
            _get(row, "base_simplex", here),
            horn.n,
            base.underlying.count(horn.n),
            f"{here}.base_simplex",
        )
        key = LiftingProblemKey(horn, SimplexId(horn.n, base_index))
        _expect(key not in gap_lifts, f"{key} is listed twice", here)
        mode = _mode_fields(row.get("mode"), f"{here}.mode")
        gap_lifts[key] = None if mode is None else GapMode(*mode)
    composites = {}
    for i, row in enumerate(_optional(body, "composites", where, list)):
        here = f"{where}.composites[{i}]"
        first = _int(_get(row, "first", here), here)
        second = _int(_get(row, "second", here), here)
        comp = _int(_get(row, "composite", here), here)
        composites[(first, second)] = comp
    return RupturedFibrationData(total, base, proj, gap_lifts, composites)


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


def type_to_body(t: TypeExpr) -> dict:
    return _tree_to_body(_type_tree(), t)


def body_to_type(body, where: str) -> TypeExpr:
    return _body_to_tree(_type_tree(), body, where)


def term_to_body(t: TupleTerm) -> dict:
    return _tree_to_body(_term_tree(), t)


def body_to_term(body, where: str) -> TupleTerm:
    return _body_to_tree(_term_tree(), body, where)


def context_to_body(ctx: ResourceContext) -> list:
    tree = _type_tree()
    return [
        {
            "var": b.var,
            "type": _tree_to_body(tree, b.type),
            "annotation": b.annotation.value,
        }
        for b in ctx.bindings
    ]


def body_to_context(rows, where: str) -> ResourceContext:
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
    except Exception as exc:
        raise DocumentError(str(exc), where)


def derive_task_to_body(task: DeriveTask) -> dict:
    return {
        "gamma": context_to_body(task.gamma),
        "delta": context_to_body(task.delta),
        "sigma": {src: dst for src, dst in task.sigma.mapping},
        "term": term_to_body(task.term),
        "goal": type_to_body(task.goal),
    }


def body_to_derive_task(body: Mapping, where: str = "derive-task") -> DeriveTask:
    from .derivability import DeriveTask, Substitution

    gamma = body_to_context(_get(body, "gamma", where), f"{where}.gamma")
    delta = body_to_context(_get(body, "delta", where), f"{where}.delta")
    sigma_obj = _get(body, "sigma", where, dict)
    for key, value in sigma_obj.items():
        _expect(isinstance(value, str), "sigma images must be variable names", f"{where}.sigma.{key}")
    sigma = Substitution.of(sigma_obj)
    term = body_to_term(_get(body, "term", where), f"{where}.term")
    goal = body_to_type(_get(body, "goal", where), f"{where}.goal")
    return DeriveTask(gamma, delta, sigma, term, goal)


# -- judgment scripts ------------------------------------------------------------------


def judgment_to_body(j: JudgmentAtom) -> dict:
    # A base atom has a label; an arrow has a source and a target.
    if hasattr(j, "label"):
        return {"atom": j.label}
    return {"arrow": [j.source, j.target]}


def _judgment_labels(body, where: str) -> tuple[str, ...]:
    """(label,) of an atom body, (source, target) of an arrow body."""
    if not isinstance(body, dict) or len(body) != 1:
        raise DocumentError("judgment must be atom or arrow", where)
    if "atom" in body:
        label = body["atom"]
        _expect(isinstance(label, str) and bool(label), "atom needs a label", where)
        return (label,)
    if "arrow" in body:
        pair = body["arrow"]
        _expect(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(v, str) and v for v in pair),
            "arrow needs [source, target] labels",
            where,
        )
        return tuple(pair)
    raise DocumentError("judgment must be atom or arrow", where)


def body_to_judgment(body, where: str) -> JudgmentAtom:
    from .judgments import ArrowJudgment, BaseJudgment

    labels = _judgment_labels(body, where)
    return BaseJudgment(*labels) if len(labels) == 1 else ArrowJudgment(*labels)


def script_to_body(commands) -> dict:
    rows = []
    for cmd in commands:
        if cmd.op == "add":
            row = {
                "op": "add",
                "judgment": judgment_to_body(cmd.judgment),
                "polarity": cmd.polarity.value,
            }
            if cmd.payload is not None:
                row["payload"] = cmd.payload
        elif cmd.op == "is_open":
            row = {"op": "is_open", "judgment": judgment_to_body(cmd.judgment)}
        elif cmd.op == "horn":
            row = {"op": "horn", "first": cmd.first, "second": cmd.second, "gap": cmd.gap}
        else:
            row = {"op": "level_up"}
        rows.append(row)
    return {"script": rows}


def body_to_script(body: Mapping, where: str = "judgment-script") -> list[ScriptCommand]:
    from .judgments import ArrowJudgment, BaseJudgment, Polarity, ScriptCommand

    def read_judgment(row, here):
        labels = _judgment_labels(_get(row, "judgment", here), f"{here}.judgment")
        return BaseJudgment(*labels) if len(labels) == 1 else ArrowJudgment(*labels)

    rows = _get(body, "script", where, list)
    commands = []
    for i, row in enumerate(rows):
        here = f"{where}.script[{i}]"
        op = _get(row, "op", here, str)
        if op == "add":
            judgment = read_judgment(row, here)
            pol_text = _get(row, "polarity", here, str)
            try:
                polarity = Polarity(pol_text)
            except ValueError:
                raise DocumentError(f"unknown polarity '{pol_text}'", f"{here}.polarity")
            commands.append(
                ScriptCommand("add", judgment, polarity, row.get("payload"))
            )
        elif op == "is_open":
            commands.append(ScriptCommand("is_open", read_judgment(row, here)))
        elif op == "horn":
            commands.append(
                ScriptCommand(
                    "horn",
                    first=_get(row, "first", here, str),
                    second=_get(row, "second", here, str),
                    gap=_get(row, "gap", here, str),
                )
            )
        elif op == "level_up":
            commands.append(ScriptCommand("level_up"))
        else:
            raise DocumentError(f"unknown op '{op}'", here)
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
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object", "top level")
    fmt = _get(raw, "format", "top level", str)
    _expect(fmt == FORMAT, f"unsupported format '{fmt}'", "format")
    kind = _get(raw, "kind", "top level", str)
    parse, _ = _codec(kind)
    return Document(kind, parse(raw, kind))


def serialize_document(doc: Document) -> str:
    """Deterministic JSON text for a document (sorted keys, 2-space indent)."""
    _, to_body = _codec(doc.kind)
    payload = {"format": FORMAT, "kind": doc.kind}
    payload.update(to_body(doc.body))
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_document(path) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(str(exc), str(path))
    return parse_document(text)
