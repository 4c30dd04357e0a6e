"""Spans around the public functions of each rupture_kit module, and the
per-layer metrics computed from them.

The tracer wraps each function listed in :data:`TRACED` and puts the
wrapper in place of every reference to it in the loaded ``rupture_kit``
modules, so calls from one module into another are traced as well as the
benchmark's own calls. Nothing under ``src/`` changes, and the originals
are put back when the tracer is switched off. Spans are kept in memory:
id, name, start, end, parent span, task id, the size of the returned value,
and an outcome tag: the result class of ``classify_horn``, or "!" and the
class of a raised exception.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("simplicial", "ruptured", "fibration", "covering", "judgments",
          "derivability", "documents", "cli")

# Public functions wrapped per module; "Class.method" wraps a method.
TRACED = {
    "simplicial": ("is_kan_up_to", "enumerate_horns", "find_fillers", "validate_complex"),
    "ruptured": ("fully_gapped", "product", "validate_ruptured", "classify_horn",
                 "RupturedComplex.with_coherent", "coherent_core"),
    "fibration": ("enumerate_lifting_problems", "transport", "compose_fibrations", "fiber",
                  "validate_fibration_deep"),
    "covering": ("monodromy_ruptured", "monodromy", "lift_edge_path"),
    "judgments": ("add_witness", "is_open", "make_horn", "level_up", "is_coherent_fragment"),
    "derivability": ("check_derivable", "detect_derivability_horn"),
    "documents": ("load_document", "parse_document", "serialize_document"),
    "cli": ("main",),
}

# Growth of these operations is measured against an output of their
# callees: the horns an is_kan_up_to scan enumerates, the steps a monodromy
# lifts, the problems a composition enumerates.
GROWTH_CHILD = {
    "simplicial.is_kan_up_to": "simplicial.enumerate_horns",
    "covering.monodromy_ruptured": "covering.lift_edge_path",
    "fibration.compose_fibrations": "fibration.enumerate_lifting_problems",
}

# Operations whose output, for growth, is the number of calls a task made
# that returned: transports in a sweep, entries added by a script.
GROWTH_BY_CALLS = ("fibration.transport", "judgments.add_witness")


def _op_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _out_size(name: str, args, result) -> int:
    """Size of what a call produced (or read, for the parser): horns,
    problems, lifted steps or bytes."""
    if name in ("simplicial.enumerate_horns", "fibration.enumerate_lifting_problems",
                "covering.lift_edge_path"):
        return len(result)
    if name in ("ruptured.fully_gapped", "ruptured.product"):
        return len(result.gap)
    if name == "documents.parse_document":
        return len(args[0].encode("utf-8"))
    return 0


class Tracer:
    """Records spans while switched on. One instance per traced run."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.task_id = -1
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        tag_result = name == "ruptured.classify_horn"

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.task_id, 0,
                              "!" + type(exc).__name__))
                raise
            end = perf_counter_ns()
            stack.pop()
            spans.append((sid, name, start, end, parent, self.task_id,
                          _out_size(name, args, result),
                          type(result).__name__ if tag_result else ""))
            return result

        return traced

    def on(self) -> None:
        loaded = [m for key, m in list(sys.modules.items())
                  if key == "rupture_kit" or key.startswith("rupture_kit.")]
        for module, attrs in TRACED.items():
            mod = self.modules[module]
            for attr in attrs:
                name = _op_name(module, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original)
                for holder in loaded:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, key, original))
                            setattr(holder, key, wrapper)

    def off(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def take(self) -> list[tuple]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize_pass(spans: list[tuple]) -> dict:
    """Totals of one traced pass.

    ``incl_ns`` counts each outermost span of a name (a span not inside
    another of the same name) and ``grown`` its output, plus the output of
    the callee named in :data:`GROWTH_CHILD`; ``self_ns`` is, per layer, span time minus
    the time its child spans cover; ``per_task`` holds, per task and name,
    [outermost ns, growth output, calls, raised]; ``cli`` holds, per CLI
    replay, the time of ``cli.main`` and of its load and kernel children.
    """
    by_id = {s[0]: s for s in spans}
    child_ns = defaultdict(int)
    subtree = defaultdict(lambda: defaultdict(int))
    for sid, name, start, end, parent, _task, out, _tag in spans:  # children end first
        if parent >= 0:
            child_ns[parent] += end - start
            sub = subtree[parent]
            sub[name] += out
            for key, value in subtree.get(sid, {}).items():
                sub[key] += value

    def outermost(span) -> bool:
        parent = span[4]
        while parent >= 0:
            up = by_id[parent]
            if up[1] == span[1]:
                return False
            parent = up[4]
        return True

    s = {key: defaultdict(int) for key in ("calls", "incl_ns", "self_ns", "grown",
                                           "raised", "tags")}
    per_task = defaultdict(lambda: defaultdict(lambda: [0, 0, 0, 0]))
    cli = defaultdict(lambda: defaultdict(int))
    for span in spans:
        sid, name, start, end, parent, task, out, tag = span
        dur = end - start
        raised = tag.startswith("!")
        s["calls"][name] += 1
        s["self_ns"][layer_of(name)] += dur - child_ns[sid]
        s["raised"][name] += raised
        if tag:
            s["tags"][(name, tag)] += 1
        cell = per_task[task][name]
        cell[2] += 1
        cell[3] += raised
        if outermost(span):
            grown = out + subtree.get(sid, {}).get(GROWTH_CHILD.get(name, ""), 0)
            s["incl_ns"][name] += dur
            s["grown"][name] += grown
            cell[0] += dur
            cell[1] += grown
        if name == "cli.main":
            cli[task]["main"] += dur
        elif parent >= 0 and by_id[parent][1] == "cli.main":
            if name == "documents.load_document":
                cli[task]["load"] += dur
            elif layer_of(name) not in ("documents", "cli"):
                cli[task]["kernel"] += dur
    s["per_task"] = per_task
    s["cli"] = cli
    return s


def _med(values) -> float:
    return statistics.median(values) if values else 0.0


def growth(passes: list[dict], tasks, op: str) -> float:
    """log(t_large / t_small) / log(out_large / out_small) over the tasks
    whose primary operation is ``op``, with times the median over passes.
    0.0 when ``op`` did not run at two sizes in this workload."""
    sizes = {}
    for size in ("small", "large"):
        ids = [i for i, t in enumerate(tasks) if t.op == op and t.size == size]
        if not ids:
            return 0.0
        times, outs = [], []
        for p in passes:
            cells = [p["per_task"][i][op] for i in ids]
            times.append(sum(c[0] for c in cells))
            if op in GROWTH_BY_CALLS:
                outs.append(sum(c[2] - c[3] for c in cells))
            else:
                outs.append(sum(c[1] for c in cells))
        sizes[size] = (_med(times), _med(outs))
    (t_s, o_s), (t_l, o_l) = sizes["small"], sizes["large"]
    if min(t_s, t_l, o_s) <= 0 or o_s == o_l:
        return 0.0
    return math.log(t_l / t_s) / math.log(o_l / o_s)


def _op_metrics() -> list[tuple]:
    """(metric, unit, better, kind, op) for every per-operation metric."""
    spec = [
        ("simplicial.is_kan_up_to", ("ms", "growth", "horns")),
        ("simplicial.enumerate_horns", ("ms", "horns")),
        ("simplicial.find_fillers", ("calls", "ms")),
        ("simplicial.validate_complex", ("ms",)),
        ("ruptured.fully_gapped", ("ms", "growth", "gap_horns")),
        ("ruptured.product", ("ms", "growth")),
        ("ruptured.validate_ruptured", ("ms",)),
        ("ruptured.classify_horn", ("calls", "ms", "coherent_share", "gapped_share",
                                    "open_share")),
        ("ruptured.with_coherent", ("calls", "ms", "rejected_share")),
        ("ruptured.coherent_core", ("ms",)),
        ("fibration.enumerate_lifting_problems", ("ms", "growth", "problems")),
        ("fibration.transport", ("calls", "ms", "growth")),
        ("fibration.compose_fibrations", ("ms", "growth")),
        ("fibration.fiber", ("ms",)),
        ("fibration.validate_fibration_deep", ("ms",)),
        ("covering.monodromy_ruptured", ("ms", "growth", "lifted_steps")),
        ("covering.lift_edge_path", ("calls", "ms")),
        ("judgments.add_witness", ("calls", "ms", "growth", "rejected_share")),
        ("judgments.is_open", ("calls", "ms")),
        ("judgments.make_horn", ("ms",)),
        ("derivability.check_derivable", ("calls", "ms")),
        ("documents.parse_document", ("ms", "bytes")),
        ("documents.serialize_document", ("ms",)),
    ]
    units = {"ms": "ms", "growth": "exponent", "calls": "count", "bytes": "bytes"}
    out = []
    for op, kinds in spec:
        for kind in kinds:
            unit = units.get(kind, "share" if kind.endswith("share") else "count")
            better = "higher" if kind == "coherent_share" else "lower"
            out.append((f"{op}.{kind}", unit, better, kind, op))
    return out


OP_METRICS = _op_metrics()
CLI_PHASES = ("main", "load", "kernel", "render")


def per_layer_spec(subcommands) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    spec = [(name, unit, better) for name, unit, better, _, _ in OP_METRICS]
    spec += [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS if layer != "cli"]
    spec += [("cli.interpreter_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower")]
    spec += [(f"cli.{cmd}.{phase}_ms", "ms", "lower")
             for cmd in subcommands for phase in CLI_PHASES]
    spec.append(("trace.overhead_ratio", "ratio", "lower"))
    return spec


_CLASS_OF_SHARE = {"coherent_share": "CoherentlyFilled", "gapped_share": "GapWitnessed",
                   "open_share": "Open"}


def layer_metrics(passes: list[dict], tasks, subcommands, extra: dict) -> dict:
    """Every per-layer metric, as medians over traced passes. Operations
    the workload never calls read 0, as do growth exponents outside
    kernel-large and CLI phases outside cli-fixtures."""
    def med(fn):
        return _med([fn(p) for p in passes])

    def share(p, op, count):
        calls = p["calls"].get(op, 0)
        return count / calls if calls else 0.0

    values = {}
    for name, _unit, _better, kind, op in OP_METRICS:
        if kind == "ms":
            values[name] = med(lambda p: p["incl_ns"].get(op, 0) / 1e6)
        elif kind == "calls":
            values[name] = med(lambda p: p["calls"].get(op, 0))
        elif kind == "growth":
            values[name] = growth(passes, tasks, op)
        elif kind == "rejected_share":
            values[name] = med(lambda p: share(p, op, p["raised"].get(op, 0)))
        elif kind in _CLASS_OF_SHARE:
            tag = _CLASS_OF_SHARE[kind]
            values[name] = med(lambda p: share(p, op, p["tags"].get((op, tag), 0)))
        else:  # horns, gap_horns, problems, lifted_steps, bytes
            values[name] = med(lambda p: p["grown"].get(op, 0))
    for layer in LAYERS:
        if layer != "cli":
            values[f"{layer}.self_ms"] = med(lambda p: p["self_ns"].get(layer, 0) / 1e6)
    values["cli.interpreter_ms"] = extra.get("interpreter_ms", 0.0)
    values["cli.import_ms"] = extra.get("import_ms", 0.0)
    for cmd in subcommands:
        ids = [i for i, t in enumerate(tasks) if t.cmd == cmd]

        def phase_ms(p, phase, ids=ids):
            if not ids:
                return 0.0
            rows = [p["cli"][i] for i in ids]
            if phase == "render":
                ns = [r["main"] - r["load"] - r["kernel"] for r in rows]
            else:
                ns = [r[phase] for r in rows]
            return sum(ns) / len(ns) / 1e6

        for phase in CLI_PHASES:
            values[f"cli.{cmd}.{phase}_ms"] = med(lambda p: phase_ms(p, phase))
    values["trace.overhead_ratio"] = extra.get("overhead_ratio", 0.0)
    return values
