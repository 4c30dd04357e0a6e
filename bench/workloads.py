"""Seeded inputs, tasks and known answers for the three benchmark workloads.

A workload is one pass: an ordered list of tasks. A task is one CLI
invocation or one public kernel call on one input, with a check that
compares the result against an answer computed without the code under
test (a construction fact, a closed form, a captured CLI output, or a
brute-force scan from :mod:`bench.oracle`). The runner repeats the pass in a
closed loop with one caller.

Kernel calls go through module attributes (``S.is_kan_up_to``, not a bound
name), so the tracer in :mod:`bench.tracing` sees them when it is switched
on.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Optional

from bench import oracle

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
EXPECTED_CLI = Path(__file__).resolve().parent / "cli_expected.json"

# The hash seed every CLI subprocess runs under.
HASH_SEED = "0"

REJECTED = "rejected"


@dataclass
class Task:
    """One timed call. ``call`` runs the work; ``check`` gets its result and
    says whether it is the known answer (a raised exception is a wrong one).
    ``op`` and ``size`` label kernel-large tasks for growth exponents;
    ``cmd`` labels CLI tasks by subcommand."""

    op: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    size: str = ""
    cmd: str = ""


@dataclass
class Workload:
    tasks: list[Task]
    # In-process tasks the traced run replays; the CLI workload replays its
    # invocations through ``cli.main`` because subprocesses cannot be traced.
    trace_tasks: list[Task]
    rss_of_children: bool = False
    # Kernel-large tasks differ in cost by 100x, so its runs end on a whole
    # pass and every task weighs the same in the percentiles.
    whole_passes: bool = False
    cleanup: Callable[[], None] = lambda: None


@dataclass(frozen=True)
class Reference:
    """A fixed job run between tasks to measure the machine's current speed
    (see ``run.Scaler``): its time in nanoseconds on the machine the
    benchmark was calibrated on (2 vCPUs, Python 3.11), and how often it
    runs."""

    run: Callable[[], object]
    nominal_ns: float
    every_ns: int


@dataclass(frozen=True, order=True)
class _Cell:
    dim: int
    index: int


def scan_work() -> None:
    """A fixed scan with tuple keys into a dict, like the kernel's long
    horn and filler scans."""
    table: dict = {}
    for i in range(5000):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0) + len(key)


def cell_work() -> int:
    """Small frozen dataclasses made, hashed and compared, and short calls,
    like the kernel's many small calls."""
    seen = set()
    total = 0
    row = (3, 5, 7)
    for i in range(700):
        cell = _Cell(i % 3, i % 41)
        if cell not in seen:
            seen.add(cell)
        total += sum(1 for f in row if f == cell.index)
    return total


def interpreter_start() -> None:
    subprocess.run([sys.executable, "-c", "pass"], env=cli_env(), cwd=ROOT, check=True)


# Each workload's reference is the same kind of work as its tasks, so that
# both slow down alike: a bare interpreter start for a CLI task (exec, page
# faults, unmarshalling), a scan for the large kernel calls, object-heavy
# small calls for the small ones.
FRESH_INTERPRETER = Reference(interpreter_start, 60e6, 300_000_000)
SCAN = Reference(scan_work, 2.0e6, 20_000_000)
CELLS = Reference(cell_work, 1.5e6, 20_000_000)


def kernel():
    """The kernel modules, imported from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {
        name: importlib.import_module(f"rupture_kit.{name}")
        for name in (
            "simplicial", "ruptured", "fibration", "covering", "judgments",
            "derivability", "documents", "cli", "errors",
        )
    }
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"rupture_kit was imported from {origin}, not {SRC}")
    return mods


def _expect_raise(fn, exc_type):
    """Run ``fn``; an ``exc_type`` exception is the expected rejection."""
    try:
        return fn()
    except exc_type:
        return REJECTED


def _horn_key(h) -> tuple:
    return (h.n, h.k, tuple(h.faces))


def _classified(result) -> tuple:
    name = type(result).__name__
    if name == "CoherentlyFilled":
        return ("coherent", tuple(s.index for s in result.fillers))
    if name == "GapWitnessed":
        return ("gapped",)
    return ("open",)


# -- kernel-large ------------------------------------------------------------

# (small, large) size of each scaled operation.
LARGE_SIZES = {
    "full": {
        "kan": (6, 8), "gapped": (5, 7), "cycle": (4, 8), "cover": (20, 80),
        "compose": (4, 5), "script": (500, 2000), "doc": 7,
    },
    "tiny": {
        "kan": (3, 4), "gapped": (3, 4), "cycle": (3, 4), "cover": (3, 5),
        "compose": (2, 3), "script": (20, 60), "doc": 3,
    },
}


def _witness_script(rng: random.Random, n_adds: int, J) -> list[tuple]:
    """``n_adds`` add commands; every tenth re-adds an earlier judgment with
    the opposite polarity, so exactly ``n_adds // 10`` are rejected."""
    seen: list[tuple] = []
    script = []
    for i in range(n_adds):
        if i % 10 == 9:
            judgment, pol = rng.choice(seen)
            other = J.Polarity.GAPPED if pol is J.Polarity.COHERENT else J.Polarity.COHERENT
            script.append((judgment, other))
            continue
        if seen and rng.random() < 0.3:
            script.append(rng.choice(seen))
            continue
        if rng.random() < 0.5:
            judgment = J.BaseJudgment(f"a{i}")
        else:
            judgment = J.ArrowJudgment(f"s{i}", f"t{rng.randrange(n_adds)}")
        pol = rng.choice((J.Polarity.COHERENT, J.Polarity.GAPPED))
        seen.append((judgment, pol))
        script.append((judgment, pol))
    return script


def _run_script(J, script) -> tuple:
    store = J.WitnessStore()
    rejected = 0
    for judgment, pol in script:
        try:
            store = J.add_witness(store, judgment, pol)
        except J.ExclusionViolation:
            rejected += 1
    return store, rejected


def kernel_large(seed: int, scale: str = "full") -> Workload:
    """Each scaled operation at a small and a large size."""
    k = kernel()
    S, R, F, C, J, D = (k[m] for m in (
        "simplicial", "ruptured", "fibration", "covering", "judgments", "documents"))
    sizes = LARGE_SIZES[scale]
    rng = random.Random(seed)
    tasks: list[Task] = []

    for size, n in zip(("small", "large"), sizes["kan"]):
        x = S.standard_simplex(n, 3)
        tasks.append(Task("simplicial.is_kan_up_to", lambda x=x: S.is_kan_up_to(x, 3),
                          lambda res: res == (True, None), size))

    for size, n in zip(("small", "large"), sizes["gapped"]):
        x = S.standard_simplex(n, 3)
        want = set(oracle.all_horns(x))

        def gap_and_validate(x=x):
            r = R.fully_gapped(x)
            return r, R.validate_ruptured(r)

        def check_gapped(res, want=want):
            r, report = res
            return (report == [] and not any(r.coh)
                    and {_horn_key(h) for h in r.gap} == want)

        tasks.append(Task("ruptured.fully_gapped", gap_and_validate, check_gapped, size))

    for size, m in zip(("small", "large"), sizes["cycle"]):
        c = C.build_cycle(m)
        left, right = R.fully_gapped(c), R.from_kan(c)

        def check_product(res, m=m):
            # Every product horn projects to a gapped horn of the cycle:
            # 2m^2 one-dimensional horns and 3m^2 pairs of edges.
            return (res.underlying.counts == (m * m, m * m, 0)
                    and not any(res.coh) and len(res.gap) == 5 * m * m)

        tasks.append(Task("ruptured.product", lambda a=left, b=right: R.product(a, b),
                          check_product, size))

    for size, m in zip(("small", "large"), sizes["cover"]):
        cover = C.build_double_cover(m)
        generator = C.EdgePath.forward(*range(m))
        loops = [generator, generator.concat(generator)]
        base = S.SimplexId(0, 0)

        def check_monodromy(res, m=m, gen=generator.key()):
            gaps = res.loop_gaps
            dbl = gen + gen
            if set(gaps) != {(gen, 0), (gen, m), (dbl, 0), (dbl, m)}:
                return False
            # The generator loop swaps the two sheets; the doubled loop closes.
            swapped = all(gaps[(gen, v)].gapped
                          and gaps[(gen, v)].mode.payload.mapping == ((0, m), (m, 0))
                          for v in (0, m))
            closed = all(not gaps[(dbl, v)].gapped
                         and len(gaps[(dbl, v)].closing_lift.steps) == 2 * m
                         for v in (0, m))
            return swapped and closed

        tasks.append(Task("covering.monodromy_ruptured",
                          lambda f=cover, loops=loops: C.monodromy_ruptured(f, base, loops),
                          check_monodromy, size))

        def check_problems(res, m=m):
            # From each of the 2m total vertices, one base edge leaves and one
            # arrives; the base has no triangles.
            return len(res) == 4 * m and all(key.horn.n == 1 for key in res)

        tasks.append(Task("fibration.enumerate_lifting_problems",
                          lambda f=cover: F.enumerate_lifting_problems(f),
                          check_problems, size))

        def sweep(f=cover, m=m):
            return [F.transport(f, S.SimplexId(0, w), S.SimplexId(1, w % m))
                    for w in range(2 * m)]

        def check_sweep(res, m=m):
            return len(res) == 2 * m and all(
                type(o).__name__ == "Coherent" and o.target.index == (w + 1) % (2 * m)
                and o.multiplicity == 1
                for w, o in enumerate(res))

        tasks.append(Task("fibration.transport", sweep, check_sweep, size))

    # Two disjoint sheets close every loop. This unscaled task also makes the
    # task count odd, so the median lands inside one task's samples instead
    # of between two tasks of different cost.
    m = sizes["cover"][1]
    sheets = C.trivial_double_cover(m)
    generator = C.EdgePath.forward(*range(m))

    def check_identity(res, gen=generator.key()):
        gaps = res.loop_gaps
        dbl = gen + gen
        return set(gaps) == {(gen, 0), (gen, m), (dbl, 0), (dbl, m)} and all(
            not gaps[(loop, v)].gapped and len(gaps[(loop, v)].closing_lift.steps) == len(loop)
            for loop in (gen, dbl) for v in (0, m))

    tasks.append(Task(
        "covering.monodromy_ruptured",
        lambda: C.monodromy_ruptured(sheets, S.SimplexId(0, 0),
                                     [generator, generator.concat(generator)]),
        check_identity))

    tri = R.from_kan(S.standard_simplex(2, 2))
    for size, n in zip(("small", "large"), sizes["compose"]):
        xr = R.from_kan(S.standard_simplex(n, 2))
        total = R.product(xr, tri)
        per = tri.underlying.counts
        levels = tuple(
            tuple(i // per[d] for i in range(total.underlying.counts[d])) for d in range(3))
        f = F.RupturedFibrationData(total, xr, S.SimplicialMap(levels))
        g = F.RupturedFibrationData(xr, xr, S.SimplicialMap.identity(xr.underlying))
        tasks.append(Task(
            "fibration.compose_fibrations", lambda f=f, g=g: F.compose_fibrations(f, g),
            lambda res, levels=levels: not res.gap_lifts and res.proj.levels == levels,
            size))

    for size, n_adds in zip(("small", "large"), sizes["script"]):
        script = _witness_script(rng, n_adds, J)
        rejected = n_adds // 10

        def check_script(res, n_adds=n_adds, rejected=rejected):
            store, got = res
            kept = n_adds - rejected
            return (got == rejected and len(store.entries) == kept
                    and store.entries[-1].witness_id == f"w{kept}")

        tasks.append(Task("judgments.add_witness", lambda s=script: _run_script(J, s),
                          check_script, size))

    n = sizes["doc"]
    x = S.standard_simplex(n, 3)
    doc = D.Document("ruptured", R.fully_gapped(x))
    text = D.serialize_document(doc)
    horn_count = len(oracle.all_horns(x))
    simplex_counts = tuple(comb(n + 1, d + 1) for d in range(4))

    def check_parsed(res):
        return (res.kind == "ruptured" and res.body.underlying.counts == simplex_counts
                and not any(res.body.coh) and len(res.body.gap) == horn_count)

    def check_text(res):
        body = json.loads(res)
        return body["kind"] == "ruptured" and len(body["gap"]) == horn_count

    tasks.append(Task("documents.parse_document", lambda: D.parse_document(text), check_parsed))
    tasks.append(Task("documents.serialize_document", lambda: D.serialize_document(doc),
                      check_text))

    rng.shuffle(tasks)
    return Workload(tasks, tasks, whole_passes=True)


# -- kernel-small-many -------------------------------------------------------

# Tasks per pass. Horn counts per structure are heavy-tailed, so a pass is
# filled up to a number of tasks rather than of structures: memory and set-up
# work then vary less from seed to seed.
SMALL_TASKS = {"full": 75_000, "tiny": 600}


def random_complex(S, rng: random.Random, max_vertices=8, max_edges=14, max_triangles=8):
    """A valid random complex of dimension <= 2, at most 30 simplices;
    triangles are assembled from existing edges."""
    v = rng.randint(1, max_vertices)
    e = rng.randint(0, max_edges)
    edges = [(rng.randrange(v), rng.randrange(v)) for _ in range(e)]  # (target, source)
    triangles = []
    for _ in range(rng.randint(0, max_triangles)):
        if not edges:
            break
        d2 = rng.randrange(len(edges))
        v0, v1 = edges[d2][1], edges[d2][0]
        starts_v1 = [i for i, (_, src) in enumerate(edges) if src == v1]
        if not starts_v1:
            continue
        d0 = rng.choice(starts_v1)
        v2 = edges[d0][0]
        direct = [i for i, (tgt, src) in enumerate(edges) if src == v0 and tgt == v2]
        if not direct:
            continue
        triangles.append([d0, rng.choice(direct), d2])
    faces = {1: [list(edge) for edge in edges], 2: triangles}
    return S.TruncatedComplex.create(2, [v, e, len(triangles)], faces)


@dataclass
class RandomRuptured:
    """A random ruptured complex and the oracle's view of it."""

    r: object
    coh: list[set[int]]
    gapped: set[tuple]
    horns: list[tuple]
    table: dict
    conflicts: int


def random_ruptured(S, R, rng: random.Random, force_valid: bool, **sizes) -> RandomRuptured:
    x = random_complex(S, rng, **sizes)
    coh = [{i for i in range(x.counts[n]) if rng.random() < 0.55} for n in range(3)]
    horns = oracle.all_horns(x)
    table = oracle.filler_table(x)
    gapped = set()
    for key in horns:
        if rng.random() >= 0.35:
            continue
        n, _, _ = key
        if force_valid and any(i in coh[n] for i in table.get(key, ())):
            continue
        gapped.add(key)
    gap = [S.HornSpec(n, k, faces) for n, k, faces in sorted(gapped)]
    r = R.RupturedComplex.create(x, dict(enumerate(coh)), gap)
    return RandomRuptured(r, coh, gapped, horns, table,
                          oracle.exclusion_conflicts(table, coh, gapped))


class Chain:
    """Mutable state threaded through a run of dependent tasks; the first
    task of the run resets it."""

    value: object = None


def _structure_tasks(k, rng: random.Random, s: RandomRuptured) -> list[Task]:
    S, R, E = k["simplicial"], k["ruptured"], k["errors"]
    x = s.r.underlying
    tasks = [Task(
        "ruptured.validate_ruptured", lambda r=s.r: R.validate_ruptured(r),
        lambda res, want=s.conflicts: len(res) == want
        and all(v.kind == "exclusion" for v in res))]

    for key in s.horns:
        h = S.HornSpec(*key)
        want = oracle.classify(s.table, s.coh, s.gapped, key)
        tasks.append(Task("ruptured.classify_horn", lambda r=s.r, h=h: R.classify_horn(r, h),
                          lambda res, want=want: _classified(res) == want))

    closure = oracle.face_closure(x, s.coh)
    tasks.append(Task(
        "ruptured.coherent_core", lambda r=s.r: R.coherent_core(r),
        lambda res, want=closure: [list(level) for level in res[1].levels] == want
        and list(res[0].counts) == [len(level) for level in want]))

    if s.conflicts or not s.horns:
        return tasks
    # Coherence writes interleaved with reads, replayed against the oracle.
    chain = Chain()
    coh = [set(level) for level in s.coh]
    candidates = [(n, i) for n in range(3) for i in range(x.counts[n]) if i not in coh[n]]
    for step, (n, i) in enumerate(rng.sample(candidates, min(4, len(candidates)))):
        sid = S.SimplexId(n, i)
        rejected = oracle.fills_gapped(x, s.gapped, n, i)

        def write(sid=sid, first=step == 0, base=s.r):
            start = base if first else chain.value
            out = _expect_raise(lambda: start.with_coherent(sid), E.ExclusionError)
            chain.value = start if out is REJECTED else out
            return out

        tasks.append(Task("ruptured.with_coherent", write,
                          lambda res, rejected=rejected: (res is REJECTED) == rejected))
        if not rejected:
            coh[n].add(i)
        key = rng.choice(s.horns)
        h = S.HornSpec(*key)
        want = oracle.classify(s.table, coh, s.gapped, key)
        tasks.append(Task("ruptured.classify_horn",
                          lambda h=h: R.classify_horn(chain.value, h),
                          lambda res, want=want: _classified(res) == want))
    return tasks


def _product_task(k, a: RandomRuptured, b: RandomRuptured) -> Task:
    """Product of two small structures. Product horns are exactly pairs of
    factor horns of the same (n, k); one is gapped when either factor is."""
    R = k["ruptured"]
    x, y = a.r.underlying, b.r.underlying
    counts = tuple(x.counts[n] * y.counts[n] for n in range(3))
    coh = [{i * y.counts[n] + j for i in a.coh[n] for j in b.coh[n]} for n in range(3)]
    horns_y = {}
    for key in b.horns:
        horns_y.setdefault(key[:2], []).append(key)
    gapped = set()
    for ka in a.horns:
        for kb in horns_y.get(ka[:2], ()):
            if ka in a.gapped or kb in b.gapped:
                n, kk = ka[:2]
                width = y.counts[n - 1]
                gapped.add((n, kk, tuple(p * width + q for p, q in zip(ka[2], kb[2]))))

    def check(res):
        return (res.underlying.counts == counts
                and [set(level) for level in res.coh] == coh
                and {_horn_key(h) for h in res.gap} == gapped)

    return Task("ruptured.product", lambda: R.product(a.r, b.r), check)


def _script_tasks(k, rng: random.Random) -> list[Task]:
    """A read-heavy witness script of at most 20 commands: a chained horn
    triple, then ``is_open`` reads, ``make_horn`` and further adds, one of
    which may re-add a judgment with the opposite polarity."""
    J = k["judgments"]
    chain = Chain()
    labels = [f"q{i}" for i in range(6)]
    a, b, c = rng.sample(labels, 3)
    state: dict = {}
    tasks = []

    def add(judgment, pol, first=False):
        def call():
            store = J.WitnessStore() if first else chain.value
            out = _expect_raise(lambda: J.add_witness(store, judgment, pol),
                                J.ExclusionViolation)
            chain.value = store if out is REJECTED else out
            return out if out is REJECTED else out.entries[-1].witness_id

        clash = state.get(judgment, pol) is not pol
        if not clash:
            state[judgment] = pol
            state["next"] = state.get("next", 0) + 1
        want = REJECTED if clash else f"w{state['next']}"
        tasks.append(Task("judgments.add_witness", call, lambda res, want=want: res == want))

    add(J.ArrowJudgment(a, b), J.Polarity.COHERENT, first=True)
    add(J.ArrowJudgment(b, c), J.Polarity.COHERENT)
    add(J.ArrowJudgment(a, c), J.Polarity.GAPPED)
    pool = [J.BaseJudgment(lab) for lab in labels[:3]] + [
        J.ArrowJudgment(p, q) for p, q in ((a, b), (b, a), (a, c), (c, b))]
    for _ in range(rng.randint(5, 17)):
        roll = rng.random()
        if roll < 0.6:
            judgment = rng.choice(pool)
            want = judgment not in state
            tasks.append(Task("judgments.is_open",
                              lambda j=judgment: J.is_open(chain.value, j),
                              lambda res, want=want: res is want))
        elif roll < 0.75:
            tasks.append(Task("judgments.make_horn",
                              lambda: J.make_horn(chain.value, "w1", "w2", "w3"),
                              lambda res: (res.first, res.second, res.gap) == ("w1", "w2", "w3")))
        else:
            add(rng.choice(pool), rng.choice((J.Polarity.COHERENT, J.Polarity.GAPPED)))
    return tasks


def _derive_task(k, rng: random.Random) -> Task:
    """``check_derivable`` on a term of depth <= 2 over a context of up to
    four annotated variables; the goal is the term's own type or, a third
    of the time, another one."""
    Dv = k["derivability"]
    atom_a, atom_b = Dv.AtomType("A"), Dv.AtomType("B")
    types = [atom_a, atom_b, Dv.UnitType(), Dv.ProdType(atom_a, atom_b)]
    anns = list(Dv.Annotation)
    bindings = [(f"x{i}", rng.choice(types), rng.choice(anns))
                for i in range(rng.randint(1, 4))]

    def term(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.45:
            name, t, _ = rng.choice(bindings)
            return Dv.Var(name), t
        if roll < 0.55:
            return Dv.UnitTerm(), Dv.UnitType()
        (left, lt), (right, rt) = term(depth - 1), term(depth - 1)
        return Dv.Pair(left, right), Dv.ProdType(lt, rt)

    t, goal = term(2)
    if rng.random() < 0.33:
        goal = rng.choice(types)
    ctx = Dv.ResourceContext.of(*bindings)
    want = oracle.derivable([(n, ty, a.value) for n, ty, a in bindings], t, goal)
    return Task("derivability.check_derivable", lambda: Dv.check_derivable(ctx, t, goal),
                lambda res: (res.derivable, res.certificate.counts) == want)


def _fibration_tasks(k, rng: random.Random) -> list[Task]:
    """A double cover (connected or two sheets) of a small cycle with some
    total edges not coherent and some of their transports gap-marked."""
    S, R, F, C = (k[m] for m in ("simplicial", "ruptured", "fibration", "covering"))
    m = rng.randint(3, 8)
    connected = rng.random() < 0.5
    cover = C.build_double_cover(m) if connected else C.trivial_double_cover(m)
    x = cover.total.underlying
    vertex_image, edge_image = cover.proj.levels[0], cover.proj.levels[1]
    coh = [set(range(2 * m)), {e for e in range(2 * m) if rng.random() < 0.8}, set()]
    gap_keys = set()
    gap_lifts = {}
    for te in range(2 * m):
        if te not in coh[1] and rng.random() < 0.5:
            w, b = oracle.face(x, 1, te, 1), edge_image[te]
            gap_keys.add((w, b))
            key = F.LiftingProblemKey(S.HornSpec.from_mapping(1, 0, {1: w}), S.SimplexId(1, b))
            gap_lifts[key] = R.GapMode("plain")
    total = R.RupturedComplex.create(x, dict(enumerate(coh)))
    f = F.RupturedFibrationData(total, cover.base, cover.proj, gap_lifts)
    tasks = []
    for b in range(m):
        want = oracle.fiber_levels(x, vertex_image, b)
        tasks.append(Task("fibration.fiber", lambda b=b: F.fiber(f, S.SimplexId(0, b)),
                          lambda res, want=want: [list(level) for level in res[1].levels] == want))
    for w in range(2 * m):
        b = vertex_image[w]  # base edge b leaves base vertex b
        want = oracle.transport(x, coh, edge_image, gap_keys, w, b)

        def check(res, want=want):
            name = type(res).__name__
            if name == "Coherent":
                return ("coherent", res.target.index, res.multiplicity) == want
            return ("gapped",) == want if name == "Gapped" else ("open",) == want

        tasks.append(Task("fibration.transport",
                          lambda w=w, b=b: F.transport(f, S.SimplexId(0, w), S.SimplexId(1, b)),
                          check))
    loop = C.EdgePath.forward(*range(m))
    image = ((0, m), (m, 0)) if connected else ((0, 0), (m, m))
    tasks.append(Task("covering.monodromy",
                      lambda: C.monodromy(f, S.SimplexId(0, 0), loop),
                      lambda res: res.mapping == image))
    return tasks


def kernel_small_many(seed: int, scale: str = "full") -> Workload:
    """Thousands of small seeded structures, each put through the public
    calls that classify, validate, write, multiply and transport."""
    k = kernel()
    S, R = k["simplicial"], k["ruptured"]
    rng = random.Random(seed)
    groups: list[list[Task]] = []
    total = 0
    while total < SMALL_TASKS[scale]:
        i = len(groups)
        if i % 4 == 3:
            group = _fibration_tasks(k, rng)
        else:
            s = random_ruptured(S, R, rng, force_valid=rng.random() < 0.9)
            group = _structure_tasks(k, rng, s)
            if i % 8 == 0:
                small = dict(max_vertices=3, max_edges=5, max_triangles=2)
                a = random_ruptured(S, R, rng, True, **small)
                b = random_ruptured(S, R, rng, True, **small)
                group.append(_product_task(k, a, b))
            if i % 2 == 0:
                group.extend(_script_tasks(k, rng))
            group.append(_derive_task(k, rng))
        groups.append(group)
        total += len(group)
    rng.shuffle(groups)
    tasks = [task for group in groups for task in group]
    return Workload(tasks, tasks)


# -- cli-fixtures --------------------------------------------------------------

# "@name" is a bundled fixture and "%name" a document generated in setup.
CLI_INVOCATIONS = [
    ("validate", "@triangle.json"),
    ("validate", "@triangle_kan.json", "--json"),
    ("validate", "@circle3_open.json"),
    ("validate", "@circle3_gapped.json", "--json"),
    ("validate", "@bank.json"),
    ("validate", "@crane.json", "--json"),
    ("validate", "@bottle.json"),
    ("validate", "@double_cover_3.json", "--json"),
    ("validate", "@monodromy_task_3.json"),
    ("validate", "@derive_linear_horn.json", "--json"),
    ("validate", "@judgment_script.json"),
    ("validate", "@triangle.json", "--max-dim", "2"),
    ("validate", "@triangle_kan.json", "--max-dim", "2", "--json"),
    ("validate", "@circle3_open.json", "--max-dim", "2"),
    ("horns", "@triangle_kan.json", "--dim", "2", "--missing", "1"),
    ("horns", "@circle3_open.json", "--dim", "2", "--missing", "1", "--json"),
    ("horns", "@circle3_gapped.json", "--dim", "2", "--missing", "1"),
    ("horns", "@circle3_gapped.json", "--dim", "1", "--missing", "0", "--json"),
    ("transport", "@bank.json", "--term", "0", "--path", "0"),
    ("transport", "@bank.json", "--term", "0", "--path", "0", "--json"),
    ("transport", "@bottle.json", "--term", "0", "--path", "0"),
    ("transport", "@crane.json", "--term", "0", "--path", "0", "--json"),
    ("monodromy", "@double_cover_3.json", "@monodromy_task_3.json"),
    ("monodromy", "@double_cover_3.json", "@monodromy_task_3.json", "--json"),
    ("core", "@triangle_kan.json"),
    ("core", "@circle3_gapped.json", "--json"),
    ("product", "@circle3_gapped.json", "@circle3_open.json"),
    ("product", "@triangle_kan.json", "@circle3_gapped.json", "--json"),
    ("compose", "@bank.json", "%bank_identity.json"),
    ("compose", "@crane.json", "%crane_identity.json", "--json"),
    ("derive", "@derive_linear_horn.json"),
    ("derive", "@derive_linear_horn.json", "--json"),
    ("judgments", "@judgment_script.json"),
    ("judgments", "@judgment_script.json", "--json"),
]

SUBCOMMANDS = sorted({argv[0] for argv in CLI_INVOCATIONS})


def invocation_key(argv) -> str:
    return " ".join(argv)


def write_generated_documents(k, out_dir: Path) -> None:
    """The identity fibration on the base of each fibration fixture that
    ``compose`` is run on."""
    D, F, S = k["documents"], k["fibration"], k["simplicial"]
    for name in ("bank", "crane"):
        f = D.load_document(FIXTURES / f"{name}.json").body
        ident = F.RupturedFibrationData(
            f.base, f.base, S.SimplicialMap.identity(f.base.underlying))
        (out_dir / f"{name}_identity.json").write_text(
            D.serialize_document(D.Document("fibration", ident)), encoding="utf-8")


def resolve(argv, gen_dir: Path) -> list[str]:
    out = []
    for a in argv:
        if a.startswith("@"):
            out.append(str(FIXTURES / a[1:]))
        elif a.startswith("%"):
            out.append(str(gen_dir / a[1:]))
        else:
            out.append(a)
    return out


def cli_env() -> dict:
    """The environment of each CLI subprocess: this checkout's ``src`` and
    nothing else on the path, a fixed hash seed, and bytecode caching on, so
    that the warm invocation in setup leaves compiled modules behind, as an
    installed package has."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_cli(args: list[str], env: dict) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "rupture_kit", *args], env=env,
                          cwd=ROOT, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def _replay(cli, args: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def cli_fixtures(seed: int, scale: str = "full", gen_root: Optional[Path] = None,
                 expected: Optional[dict] = None) -> Workload:
    """One fresh interpreter per task on the bundled fixtures."""
    k = kernel()
    if expected is None:
        expected = json.loads(EXPECTED_CLI.read_text(encoding="utf-8"))
    gen_root = gen_root or ROOT / ".bench_out"
    gen_root.mkdir(exist_ok=True)
    gen_dir = Path(tempfile.mkdtemp(prefix="gen-", dir=gen_root))
    write_generated_documents(k, gen_dir)
    env = cli_env()
    invocations = CLI_INVOCATIONS if scale == "full" else CLI_INVOCATIONS[::6]
    tasks, replays = [], []
    for argv in invocations:
        want = expected[invocation_key(argv)]
        want = (want["exit"], want["stdout"])
        args = resolve(argv, gen_dir)
        check = (lambda res, want=want: res == want)
        tasks.append(Task("cli", lambda a=args: run_cli(a, env), check, cmd=argv[0]))
        replays.append(Task("cli.main", lambda a=args: _replay(k["cli"], a), check,
                            cmd=argv[0]))
    order = random.Random(seed)
    order.shuffle(tasks)
    order.shuffle(replays)
    # One invocation writes the bytecode cache before anything is timed.
    run_cli(resolve(invocations[0], gen_dir), env)
    return Workload(tasks, replays, rss_of_children=True,
                    cleanup=lambda: shutil.rmtree(gen_dir, ignore_errors=True))


WORKLOADS = {
    "cli-fixtures": cli_fixtures,
    "kernel-large": kernel_large,
    "kernel-small-many": kernel_small_many,
}

REFERENCES = {
    "cli-fixtures": FRESH_INTERPRETER,
    "kernel-large": SCAN,
    "kernel-small-many": CELLS,
}
