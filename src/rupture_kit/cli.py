"""File-driven command line: parse documents, run kernel operations, and
render deterministic reports.

Exit codes: 0 for a clean result, 1 for semantic violations or negative
findings (and kernel-level argument errors), 2 for parse and IO errors.
Every command but ``validate`` first runs the validator ``validate`` uses
on each document it reads, and exits 1 on the first violation instead of
answering. Human-readable output is the default; ``--json`` switches every
command to a machine-readable report with sorted keys.

Each command is a compute step and a text renderer. ``cmd_<name>`` loads
the documents, runs the kernel and returns ``(exit code, payload, loaded)``:
the payload is the whole ``--json`` report, and ``loaded`` is the document
body whose names or counts the text needs, or None. ``text_<name>`` yields
the text lines from those two alone and calls no kernel function. ``main``
prints one of the two renderings, once.

The grammar is one table, :data:`COMMANDS`. ``main`` reads a plainly spelt
argv from it (:func:`read_argv`), sparing a run the import of argparse and
the building of its parsers. Every other argv, help and usage errors
included, goes to the argparse parser built from the same table.

Each command imports the kernel modules it calls when it runs, and the
document layer imports those of the documents it reads, so a command loads
only what it uses. The names are imported in the function body on each
call, never kept in this module, so a wrapper put over a kernel function
(as ``bench/tracing.py`` does) is the one called.
"""

from __future__ import annotations

import sys
import types

from . import documents as docs
from .errors import DocumentError, KernelError, Violation


def _mode_text(mode) -> str:
    """The text of a gap mode body, or of None for a plain mark."""
    return f"gapped ({mode['kind']})" if mode is not None else "gapped"


def _gapped(mode) -> dict:
    """The JSON state of a gap-witnessed horn or a gapped transport."""
    return {"state": "gapped", "mode": docs.mode_to_body(mode)}


def _not_coherent_text(state: dict) -> str:
    """The text of a gapped or an open state."""
    return _mode_text(state["mode"]) if state["state"] == "gapped" else "open"


def _violations(doc: docs.Document) -> list:
    """The report ``validate`` gives on a document; kinds without a
    validator have none."""
    if doc.kind == "complex":
        from .simplicial import validate_complex as validator
    elif doc.kind == "ruptured":
        from .ruptured import validate_ruptured as validator
    elif doc.kind == "fibration":
        from .fibration import validate_fibration_deep as validator
    else:
        return []
    return validator(doc.body)


def _load(path, *kinds) -> docs.Document:
    """A document of one of ``kinds`` that ``validate`` accepts."""
    doc = docs.load_document(path)
    if doc.kind not in kinds:
        raise DocumentError(
            f"expected a {' or '.join(kinds)} document, got '{doc.kind}'", str(path)
        )
    report = _violations(doc)
    if report:
        raise KernelError(f"{path} is not valid: {report[0]}")
    return doc


# -- commands: compute, then text ---------------------------------------------------


def cmd_validate(args):
    doc = docs.load_document(args.path)
    if args.max_dim is not None and doc.kind not in ("complex", "ruptured"):
        reason = f"--max-dim needs a complex or ruptured document, got '{doc.kind}'"
        raise DocumentError(reason, str(args.path))
    report = _violations(doc)
    payload = {
        "kind": doc.kind,
        "valid": not report,
        "violations": [{"kind": v.kind, "message": v.message} for v in report],
    }
    code = 1 if report else 0
    if args.max_dim is not None and not report:
        from .simplicial import is_kan_up_to

        target = doc.body.underlying if doc.kind == "ruptured" else doc.body
        filled, witness = is_kan_up_to(target, args.max_dim)
        payload["kan"] = kan = {"max_dim": args.max_dim, "filled": filled}
        if witness is not None:
            kan["witness"] = witness
        code = 0 if filled else 1
    return code, payload, None


def text_validate(payload, _):
    if payload["valid"]:
        yield f"valid {payload['kind']}"
    for row in payload["violations"]:
        yield str(Violation(row["kind"], row["message"]))
    kan = payload.get("kan")
    if kan is not None:
        if kan["filled"]:
            yield f"kan up to {kan['max_dim']}: yes"
        else:
            witness = kan["witness"]
            yield (f"kan up to {kan['max_dim']}: no, first unfilled "
                   f"n={witness.n} k={witness.k}")


def cmd_horns(args):
    from .ruptured import CoherentlyFilled, GapWitnessed, classify_horn
    from .simplicial import enumerate_horns

    r = _load(args.path, "ruptured").body
    rows = []
    for h in enumerate_horns(r.underlying, args.dim, args.missing):
        outcome = classify_horn(r, h)
        if isinstance(outcome, CoherentlyFilled):
            state = {"state": "coherent", "fillers": [s.index for s in outcome.fillers]}
        elif isinstance(outcome, GapWitnessed):
            state = _gapped(outcome.mode)
        else:
            state = {"state": "open"}
        rows.append({"horn": h, **state})
    return 0, rows, None


def text_horns(rows, _):
    for row in rows:
        h = row["horn"]
        if row["state"] == "coherent":
            text = "coherent fillers " + ",".join(map(str, row["fillers"]))
        else:
            text = _not_coherent_text(row)
        faces = ",".join(f"{i}:{f}" for i, f in h.face_map().items())
        yield f"n={h.n} k={h.k} faces {faces} -> {text}"


def cmd_transport(args):
    from .fibration import Coherent, Gapped, transport
    from .simplicial import SimplexId

    f = _load(args.path, "fibration").body
    outcome = transport(f, SimplexId(0, args.term), SimplexId(1, args.path_edge))
    if isinstance(outcome, Coherent):
        state = {"state": "coherent", "target": outcome.target.index,
                 "multiplicity": outcome.multiplicity}
    elif isinstance(outcome, Gapped):
        state = _gapped(outcome.mode)
    else:
        state = {"state": "open"}
    return 0, state, f


def text_transport(state, f):
    from .simplicial import SimplexId

    if state["state"] == "coherent":
        name = f.total.underlying.name(SimplexId(0, state["target"]))
        yield f"coherent -> {name} (multiplicity {state['multiplicity']})"
    else:
        yield _not_coherent_text(state)


def cmd_monodromy(args):
    from .covering import FiberPermutation, monodromy_ruptured

    f = _load(args.path, "fibration").body
    task = _load(args.task, "covering-task").body
    ruptured = monodromy_ruptured(f, task.basepoint, list(task.loops))

    def permutation(loop) -> FiberPermutation:
        """A loop's monodromy read from its closure problems: a gapped
        closure's mode is the whole permutation, and with none gapped every
        start closes."""
        closures = {v: e for (key, v), e in ruptured.loop_gaps.items() if key == loop.key()}
        for entry in closures.values():
            if entry.gapped:
                return entry.mode.payload
        return FiberPermutation.of(list(closures), {v: v for v in closures})

    payload = {
        "basepoint": task.basepoint.index,
        "loops": [
            {"loop": i, "permutation": perm.cycles(), "images": [list(p) for p in perm.mapping]}
            for i, perm in enumerate(map(permutation, task.loops))
        ],
        "gapped_closures": [
            {"loop": [list(s) for s in loop_key], "start": start,
             "mode": docs.mode_to_body(entry.mode)}
            for (loop_key, start), entry in sorted(ruptured.loop_gaps.items()) if entry.gapped
        ],
    }
    return 0, payload, f


def text_monodromy(payload, f):
    from .simplicial import SimplexId

    for loop in payload["loops"]:
        yield f"loop {loop['loop']}: permutation: {loop['permutation']}"
    closures = payload["gapped_closures"]
    yield f"gapped closures: {len(closures)}"
    for closure in closures:
        name = f.total.underlying.name(SimplexId(0, closure["start"]))
        yield f"  at {name}: {_mode_text(closure['mode'])}"


def cmd_core(args):
    from .ruptured import coherent_core

    r = _load(args.path, "ruptured").body
    core, inclusion = coherent_core(r)
    payload = {
        "core": docs.complex_to_body(core),
        "inclusion": {str(n): list(level) for n, level in enumerate(inclusion.levels)},
    }
    return 0, payload, r


def text_core(payload, r):
    for n, level in enumerate(payload["inclusion"].values()):
        kept = ",".join(map(str, level))
        yield (f"dim {n}: {len(level)} of {r.underlying.count(n)} kept"
               + (f" ({kept})" if kept else ""))


def cmd_product(args):
    from .ruptured import product

    left = _load(args.left, "ruptured")
    right = _load(args.right, "ruptured")
    result = product(left.body, right.body)
    return 0, docs.Document("ruptured", result).to_body(), None


def text_product(body, _):
    counts = ", ".join(str(c if type(c) is int else len(c)) for c in body["simplices"].values())
    yield f"product dim_bound {body['dim_bound']}; counts {counts}"
    yield f"gapped horns: {len(body['gap'])}"


def cmd_compose(args):
    from .fibration import compose_fibrations

    first = _load(args.first, "fibration")
    second = _load(args.second, "fibration")
    result = compose_fibrations(first.body, second.body)
    return 0, docs.Document("fibration", result).to_body(), None


def text_compose(body, _):
    from .fibration import LiftingProblemKey
    from .simplicial import SimplexId

    rows = body["gap_lifts"]
    yield f"composite gap-marked problems: {len(rows)}"
    for row in rows:
        h = row["horn"]
        key = LiftingProblemKey(h, SimplexId(h.n, row["base_simplex"]))
        yield f"  {key} -> {_mode_text(row.get('mode'))}"


def cmd_derive(args):
    from .derivability import apply_substitution, check_derivable, check_substitution

    task = _load(args.task, "derive-task").body
    gamma_result = check_derivable(task.gamma, task.term, task.goal)
    delta_result = check_derivable(
        task.delta, apply_substitution(task.term, task.sigma), task.goal
    )
    check_substitution(task.gamma, task.delta, task.sigma)

    def result_body(result):
        cert = result.certificate
        return {
            "derivable": result.derivable,
            "certificate": {
                "counts": {var: n for var, n in cert.counts},
                "verdicts": {var: ok for var, ok in cert.verdicts},
                "type_error": cert.type_error,
            },
        }

    payload = {
        "gamma": result_body(gamma_result),
        "delta": result_body(delta_result),
        # the derivability horn: derivable in gamma, its image underivable in delta
        "horn": gamma_result.derivable and not delta_result.derivable,
    }
    return 0, payload, None


def text_derive(payload, _):
    for name in ("gamma", "delta"):
        result = payload[name]
        cert = result["certificate"]
        verdict = "derivable" if result["derivable"] else "underivable"
        counts = ", ".join(f"{var}={n}" for var, n in cert["counts"].items())
        yield f"{name}: {verdict} (counts: {counts})"
        for var, ok in cert["verdicts"].items():
            if not ok:
                yield f"  {name} violation: {var}: usage violates annotation"
        if cert["type_error"]:
            yield f"  {name} violation: {cert['type_error']}"
    yield f"horn: {'inhabited' if payload['horn'] else 'none'}"


def cmd_judgments(args):
    from .judgments import (ExclusionViolation, WitnessStore, add_witness,
                            is_coherent_fragment, is_open, level_up, make_horn)

    script = _load(args.script, "judgment-script").body
    store = WitnessStore()
    lines = []
    failures = 0
    for cmd in script:
        if cmd.op == "add":
            try:
                store = add_witness(store, cmd.judgment, cmd.polarity, cmd.payload)
                lines.append(f"add {cmd.judgment} {cmd.polarity.value}: "
                             f"{store.last().witness_id}")
            except ExclusionViolation as exc:
                failures += 1
                lines.append(f"add {cmd.judgment} {cmd.polarity.value}: rejected ({exc})")
        elif cmd.op == "is_open":
            lines.append(f"open {cmd.judgment}: {is_open(store, cmd.judgment)}")
        elif cmd.op == "horn":
            try:
                triple = make_horn(store, cmd.first, cmd.second, cmd.gap)
                lines.append(f"horn ({triple.first}, {triple.second}, {triple.gap})")
            except KernelError as exc:
                failures += 1
                lines.append(f"horn error: {exc}")
        else:
            store = level_up(store)
            universe = ",".join(sorted(store.universe or ()))
            lines.append(f"level {store.level} universe [{universe}]")
    payload = {
        "log": lines,
        "entries": [{"id": e.witness_id, "judgment": docs.judgment_to_body(e.judgment),
                     "polarity": e.polarity.value} for e in store.entries],
        "level": store.level,
        "coherent_fragment": is_coherent_fragment(store),
        "failures": failures,
    }
    return (1 if failures else 0), payload, None


def text_judgments(payload, _):
    yield from payload["log"]
    yield (f"final level {payload['level']}, {len(payload['entries'])} entries, "
           f"coherent fragment: {payload['coherent_fragment']}")


# -- entry point ------------------------------------------------------------------

# Each command: its positionals, its int options as (flag, dest, required,
# help), its compute step and its text renderer. Every command also takes
# ``--json``.
COMMANDS = {
    "validate": (("path",), (("--max-dim", "max_dim", False,
                              "also check inner-horn filling up to this dimension"),),
                 cmd_validate, text_validate),
    "horns": (("path",), (("--dim", "dim", True, None), ("--missing", "missing", True, None)),
              cmd_horns, text_horns),
    "transport": (("path",), (("--term", "term", True, "total-space vertex index"),
                              ("--path", "path_edge", True, "base edge index")),
                  cmd_transport, text_transport),
    "monodromy": (("path", "task"), (), cmd_monodromy, text_monodromy),
    "core": (("path",), (), cmd_core, text_core),
    "product": (("left", "right"), (), cmd_product, text_product),
    "compose": (("first", "second"), (), cmd_compose, text_compose),
    "derive": (("task",), (), cmd_derive, text_derive),
    "judgments": (("script",), (), cmd_judgments, text_judgments),
}


def read_argv(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, for an argv
    spelt plainly: the command, its positionals in order, ``--json`` at most
    once and each int option at most once as ``--opt N`` with N plain ASCII
    digits (under 100 of them: int() has a digit limit), in any order. None
    for every other argv, which argparse reads."""
    if not argv or argv[0] not in COMMANDS:
        return None
    positionals, options, compute, render = COMMANDS[argv[0]]
    dests = {flag: dest for flag, dest, _, _ in options}
    values = dict.fromkeys(dests.values())
    values.update(command=argv[0], json=False, compute=compute, render=render)
    args, names = iter(argv[1:]), iter(positionals)
    for arg in args:
        if arg == "--json" and not values["json"]:
            values["json"] = True
        elif arg in dests and values[dests[arg]] is None:
            value = next(args, "")
            if not (value.isascii() and value.isdigit() and len(value) < 100):
                return None
            values[dests[arg]] = int(value)
        elif not arg.startswith("-") and (name := next(names, None)):
            values[name] = arg
        else:
            return None
    if next(names, None) or any(req and values[dest] is None for _, dest, req, _ in options):
        return None
    return types.SimpleNamespace(**values)


def build_parser():
    """The argparse grammar of :data:`COMMANDS`, which gives help and usage
    errors, and reads every argv :func:`read_argv` leaves."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="rupture-kit",
        description="Finite ruptured simplicial structures: validation, horn "
        "classification, transport, monodromy, derivability, and witness stores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (positionals, options, compute, render) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for positional in positionals:
            p.add_argument(positional)
        for flag, dest, required, help in options:
            p.add_argument(flag, dest=dest, type=int, required=required, help=help)
        p.set_defaults(compute=compute, render=render)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_argv(argv) or build_parser().parse_args(argv)
    try:
        code, payload, loaded = args.compute(args)
    except DocumentError as exc:
        print(f"parse error: {exc}")
        return 2
    except KernelError as exc:
        print(f"error: {exc}")
        return 1
    lines = [docs.dump_json(payload)] if args.json else list(args.render(payload, loaded))
    if lines:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
