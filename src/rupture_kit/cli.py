"""File-driven command line: parse documents, run kernel operations, and
render deterministic reports.

Exit codes: 0 for a clean result, 1 for semantic violations or negative
findings (and kernel-level argument errors), 2 for parse and IO errors.
Every command but ``validate`` first runs the validator ``validate`` uses
on each document it reads, and exits 1 on the first violation instead of
answering. Human-readable output is the default; ``--json`` switches every
command to a machine-readable report with sorted keys.

Each command imports the kernel modules it calls when it runs, and the
document layer imports those of the documents it reads, so a command loads
only what it uses. The names are imported in the function body on each
call, never kept in this module, so a wrapper put over a kernel function
(as ``bench/tracing.py`` does) is the one called.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import documents as docs
from .errors import DocumentError, KernelError


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _mode_text(mode) -> str:
    return f"gapped ({mode.kind})" if mode is not None else "gapped"


def _gapped(mode) -> dict:
    """The JSON state of a gap-witnessed horn or a gapped transport."""
    return {"state": "gapped", "mode": docs.mode_to_body(mode)}


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


# -- commands -------------------------------------------------------------------


def cmd_validate(args) -> int:
    doc = docs.load_document(args.path)
    report = _violations(doc)
    kan = None
    if args.max_dim is not None and not report and doc.kind in ("complex", "ruptured"):
        from .simplicial import is_kan_up_to

        target = doc.body.underlying if doc.kind == "ruptured" else doc.body
        filled, witness = is_kan_up_to(target, args.max_dim)
        kan = {"max_dim": args.max_dim, "filled": filled}
        if witness is not None:
            kan["witness"] = docs.horn_to_body(witness)
    if args.json:
        payload = {
            "kind": doc.kind,
            "valid": not report,
            "violations": [{"kind": v.kind, "message": v.message} for v in report],
        }
        if kan is not None:
            payload["kan"] = kan
        _emit_json(payload)
    else:
        if not report:
            print(f"valid {doc.kind}")
        for v in report:
            print(str(v))
        if kan is not None:
            if kan["filled"]:
                print(f"kan up to {args.max_dim}: yes")
            else:
                print(f"kan up to {args.max_dim}: no, first unfilled "
                      f"n={kan['witness']['n']} k={kan['witness']['k']}")
    if report:
        return 1
    if kan is not None and not kan["filled"]:
        return 1
    return 0


def cmd_horns(args) -> int:
    from .ruptured import CoherentlyFilled, GapWitnessed, classify_horn
    from .simplicial import enumerate_horns

    r = _load(args.path, "ruptured").body
    horns = enumerate_horns(r.underlying, args.dim, args.missing)
    rows = []
    for h in horns:
        outcome = classify_horn(r, h)
        if isinstance(outcome, CoherentlyFilled):
            ids = [s.index for s in outcome.fillers]
            state = {"state": "coherent", "fillers": ids}
            text = "coherent fillers " + ",".join(map(str, ids))
        elif isinstance(outcome, GapWitnessed):
            state, text = _gapped(outcome.mode), _mode_text(outcome.mode)
        else:
            state, text = {"state": "open"}, "open"
        rows.append((h, state, text))
    if args.json:
        _emit_json([{"horn": docs.horn_to_body(h), **state} for h, state, _ in rows])
    else:
        for h, _, text in rows:
            faces = ",".join(f"{i}:{f}" for i, f in h.face_map().items())
            print(f"n={h.n} k={h.k} faces {faces} -> {text}")
    return 0


def cmd_transport(args) -> int:
    from .fibration import Coherent, Gapped, transport
    from .simplicial import SimplexId

    f = _load(args.path, "fibration").body
    outcome = transport(f, SimplexId(0, args.term), SimplexId(1, args.path_edge))
    if isinstance(outcome, Coherent):
        state = {
            "state": "coherent",
            "target": outcome.target.index,
            "multiplicity": outcome.multiplicity,
        }
        name = f.total.underlying.name(outcome.target)
        text = f"coherent -> {name} (multiplicity {outcome.multiplicity})"
    elif isinstance(outcome, Gapped):
        state, text = _gapped(outcome.mode), _mode_text(outcome.mode)
    else:
        state, text = {"state": "open"}, "open"
    if args.json:
        _emit_json(state)
    else:
        print(text)
    return 0


def cmd_monodromy(args) -> int:
    from .covering import FiberPermutation, monodromy_ruptured
    from .simplicial import SimplexId

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

    perms = [permutation(loop) for loop in task.loops]
    gapped = [
        (key, entry) for key, entry in sorted(ruptured.loop_gaps.items()) if entry.gapped
    ]
    if args.json:
        payload = {
            "basepoint": task.basepoint.index,
            "loops": [
                {
                    "loop": i,
                    "permutation": perm.cycles(),
                    "images": [list(p) for p in perm.mapping],
                }
                for i, perm in enumerate(perms)
            ],
            "gapped_closures": [
                {
                    "loop": list(list(s) for s in loop_key),
                    "start": start,
                    "mode": docs.mode_to_body(entry.mode),
                }
                for (loop_key, start), entry in gapped
            ],
        }
        _emit_json(payload)
    else:
        for i, perm in enumerate(perms):
            print(f"loop {i}: permutation: {perm.cycles()}")
        print(f"gapped closures: {len(gapped)}")
        for (_, start), entry in gapped:
            name = f.total.underlying.name(SimplexId(0, start))
            print(f"  at {name}: {_mode_text(entry.mode)}")
    return 0


def cmd_core(args) -> int:
    from .ruptured import coherent_core

    r = _load(args.path, "ruptured").body
    core, inclusion = coherent_core(r)
    if args.json:
        _emit_json(
            {
                "core": docs.complex_to_body(core),
                "inclusion": {
                    str(n): list(level) for n, level in enumerate(inclusion.levels)
                },
            }
        )
    else:
        for n in range(core.dim_bound + 1):
            kept = ",".join(str(i) for i in inclusion.levels[n])
            print(
                f"dim {n}: {core.count(n)} of {r.underlying.count(n)} kept"
                + (f" ({kept})" if kept else "")
            )
    return 0


def cmd_product(args) -> int:
    from .ruptured import product

    left = _load(args.left, "ruptured")
    right = _load(args.right, "ruptured")
    result = product(left.body, right.body)
    if args.json:
        print(docs.serialize_document(docs.Document("ruptured", result)), end="")
    else:
        x = result.underlying
        counts = ", ".join(str(x.count(n)) for n in range(x.dim_bound + 1))
        print(f"product dim_bound {x.dim_bound}; counts {counts}")
        print(f"gapped horns: {len(result.gap)}")
    return 0


def cmd_compose(args) -> int:
    from .fibration import compose_fibrations

    first = _load(args.first, "fibration")
    second = _load(args.second, "fibration")
    result = compose_fibrations(first.body, second.body)
    if args.json:
        print(docs.serialize_document(docs.Document("fibration", result)), end="")
    else:
        print(f"composite gap-marked problems: {len(result.gap_lifts)}")
        for key in sorted(result.gap_lifts):
            print(f"  {key} -> {_mode_text(result.gap_lifts[key])}")
    return 0


def cmd_derive(args) -> int:
    from .derivability import apply_substitution, check_derivable, check_substitution

    task = _load(args.task, "derive-task").body
    gamma_result = check_derivable(task.gamma, task.term, task.goal)
    delta_result = check_derivable(
        task.delta, apply_substitution(task.term, task.sigma), task.goal
    )
    check_substitution(task.gamma, task.delta, task.sigma)
    # the derivability horn: derivable in gamma, its image underivable in delta
    horn = gamma_result.derivable and not delta_result.derivable
    if args.json:
        def cert_body(cert):
            return {
                "counts": {var: n for var, n in cert.counts},
                "verdicts": {var: ok for var, ok in cert.verdicts},
                "type_error": cert.type_error,
            }

        _emit_json(
            {
                "gamma": {
                    "derivable": gamma_result.derivable,
                    "certificate": cert_body(gamma_result.certificate),
                },
                "delta": {
                    "derivable": delta_result.derivable,
                    "certificate": cert_body(delta_result.certificate),
                },
                "horn": horn,
            }
        )
    else:
        for name, result in (("gamma", gamma_result), ("delta", delta_result)):
            verdict = "derivable" if result.derivable else "underivable"
            counts = ", ".join(f"{var}={n}" for var, n in result.certificate.counts)
            print(f"{name}: {verdict} (counts: {counts})")
            for line in result.certificate.violations():
                print(f"  {name} violation: {line}")
        print(f"horn: {'inhabited' if horn else 'none'}")
    return 0


def cmd_judgments(args) -> int:
    from .judgments import (
        ExclusionViolation,
        WitnessStore,
        add_witness,
        is_coherent_fragment,
        is_open,
        level_up,
        make_horn,
    )

    script = _load(args.script, "judgment-script").body
    store = WitnessStore()
    lines = []
    failures = 0
    for cmd in script:
        if cmd.op == "add":
            try:
                store = add_witness(store, cmd.judgment, cmd.polarity, cmd.payload)
                lines.append(
                    f"add {cmd.judgment} {cmd.polarity.value}: "
                    f"{store.last().witness_id}"
                )
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
    if args.json:
        _emit_json(
            {
                "log": lines,
                "entries": [
                    {
                        "id": e.witness_id,
                        "judgment": docs.judgment_to_body(e.judgment),
                        "polarity": e.polarity.value,
                    }
                    for e in store.entries
                ],
                "level": store.level,
                "coherent_fragment": is_coherent_fragment(store),
                "failures": failures,
            }
        )
    else:
        for line in lines:
            print(line)
        print(f"final level {store.level}, {len(store.entries)} entries, "
              f"coherent fragment: {is_coherent_fragment(store)}")
    return 1 if failures else 0


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rupture-kit",
        description="Finite ruptured simplicial structures: validation, horn "
        "classification, transport, monodromy, derivability, and witness stores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, configure):
        p = sub.add_parser(name)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        configure(p)
        p.set_defaults(handler=handler)
        return p

    def validate_args(p):
        p.add_argument("path")
        p.add_argument(
            "--max-dim",
            type=int,
            default=None,
            help="also check inner-horn filling up to this dimension",
        )

    add("validate", cmd_validate, validate_args)

    def horns_args(p):
        p.add_argument("path")
        p.add_argument("--dim", type=int, required=True)
        p.add_argument("--missing", type=int, required=True)

    add("horns", cmd_horns, horns_args)

    def transport_args(p):
        p.add_argument("path")
        p.add_argument("--term", type=int, required=True, help="total-space vertex index")
        p.add_argument(
            "--path", dest="path_edge", type=int, required=True, help="base edge index"
        )

    add("transport", cmd_transport, transport_args)

    def monodromy_args(p):
        p.add_argument("path")
        p.add_argument("task")

    add("monodromy", cmd_monodromy, monodromy_args)
    add("core", cmd_core, lambda p: p.add_argument("path"))

    def product_args(p):
        p.add_argument("left")
        p.add_argument("right")

    add("product", cmd_product, product_args)

    def compose_args(p):
        p.add_argument("first")
        p.add_argument("second")

    add("compose", cmd_compose, compose_args)
    add("derive", cmd_derive, lambda p: p.add_argument("task"))
    add("judgments", cmd_judgments, lambda p: p.add_argument("script"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except DocumentError as exc:
        print(f"parse error: {exc}")
        return 2
    except KernelError as exc:
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
