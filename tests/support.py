"""Shared test scaffolding: seeded random structures and the two-strand
composition fixtures.

Everything here is deterministic under a fixed seed so the suites are
reproducible run to run.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import tracemalloc
from pathlib import Path

from rupture_kit.covering import FiberPermutation
from rupture_kit.documents import Document, horn_to_body, serialize_document
from rupture_kit.fibration import LiftingProblemKey, RupturedFibrationData
from rupture_kit.ruptured import GapMode, RupturedComplex
from rupture_kit.simplicial import (
    HornSpec,
    SimplexId,
    SimplicialMap,
    TruncatedComplex,
    enumerate_horns,
)

from fixture_builders import misfit_lift_fibration

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = SRC.parent / "fixtures"

# Each command reading a document of the kind, with the document as "@";
# every other argument is a bundled fixture or an option.
COMMANDS = {
    "complex": [("validate", "@", "--max-dim", "2")],
    "ruptured": [
        ("validate", "@", "--max-dim", "2"),
        ("horns", "@", "--dim", "2", "--missing", "1"),
        ("core", "@"),
        ("product", "@", "circle3_gapped.json"),
    ],
    "fibration": [
        ("validate", "@"),
        ("transport", "@", "--term", "0", "--path", "0"),
        ("monodromy", "@", "monodromy_task_3.json"),
        ("compose", "@", "@"),
    ],
    "covering-task": [("validate", "@"), ("monodromy", "double_cover_3.json", "@")],
    "derive-task": [("validate", "@"), ("derive", "@")],
    "judgment-script": [("validate", "@"), ("judgments", "@")],
}


def fixture_commands() -> list[list[str]]:
    """The argv of every command of :data:`COMMANDS` on every bundled
    fixture of its kind, in text and with ``--json``."""
    argvs = []
    for fixture in sorted(FIXTURES.glob("*.json")):
        kind = json.loads(fixture.read_text(encoding="utf-8"))["kind"]
        for command in COMMANDS[kind]:
            argv = [str(fixture) if a == "@" else str(FIXTURES / a) if a.endswith(".json")
                    else a for a in command]
            argvs += [argv, argv + ["--json"]]
    return argvs


def hostile_documents() -> list[tuple[str, bytes, str]]:
    """(name, bytes, kind) of five short documents that the reader refuses,
    each handed to the commands of its kind. The JSON reader itself refuses
    bytes that are not UTF-8, 1,200 nested lists (deeper than ``json.loads``
    recurses), and a ``dim_bound`` of 5,000 digits (over Python's int digit
    limit); the complex reader refuses a ``dim_bound`` of 1,000,000 and one
    of 4,000 digits, over ``documents.MAX_DIM_BOUND``, before it builds
    anything."""
    head = '{"format": "rupture-kit/1", "kind": "complex", '
    nested = head + '"dim_bound": 0, "simplices": {"0": 1}, "extra": '
    return [
        ("hostile-not-utf8", b'\xff{"format":1}', "ruptured"),
        ("hostile-nested", (nested + "[" * 1200 + "]" * 1200 + "}").encode(), "complex"),
        ("hostile-long-int",
         (head + '"dim_bound": ' + "9" * 5000 + ', "simplices": {}}').encode(), "complex"),
        ("hostile-dim-bound", (head + '"dim_bound": 1000000, "simplices": {}}').encode(),
         "complex"),
        ("hostile-dim-bound-digits",
         (head + '"dim_bound": ' + "9" * 4000 + ', "simplices": {}}').encode(), "complex"),
    ]


def misfit_documents() -> list[tuple[str, bytes, str]]:
    """(name, bytes, kind) of a document that parses but that ``validate``
    refuses, as every command that loads it does: the fibration of
    :func:`fixture_builders.misfit_lift_fibration`, whose one gap lift has
    a horn with faces that disagree."""
    text = serialize_document(Document("fibration", misfit_lift_fibration()))
    return [("misfit-lift", text.encode(), "fibration")]


def count_documents(scale: int = 1) -> list[tuple[str, bytes, str]]:
    """(name, bytes, kind) of three documents that stretch one count each,
    at 2,000, 1,000 and 4,000 times ``scale``: a derive-task over that many
    linear ``x_i : A`` renamed to linear ``y_i : A``, whose term is the
    balanced pair tree of the ``x_i`` and whose goal is the matching product
    tree; a covering-task of that many distinct closed walks at vertex 0 of
    the base of ``fixtures/double_cover_3.json``, shortest first; and a
    fibration of that many disjoint 3-cycles over the 3-cycle, for
    ``fixtures/monodromy_task_3.json``. A command that scans the whole
    context, registry or fiber once per item costs the square of the count
    on them. The text is the writer's body in one line, without indents."""
    from rupture_kit.covering import CoveringTask, EdgePath, build_cycle
    from rupture_kit.derivability import (
        Annotation, AtomType, DeriveTask, Pair, ProdType, ResourceContext, Substitution, Var,
    )
    from rupture_kit.ruptured import from_kan

    a = AtomType("A")
    n, walks, sheets = 2000 * scale, 1000 * scale, 4000 * scale

    def tree(lo, hi):
        if hi - lo == 1:
            return Var(f"x{lo}"), a
        (left, lt), (right, rt) = tree(lo, (lo + hi) // 2), tree((lo + hi) // 2, hi)
        return Pair(left, right), ProdType(lt, rt)

    def context(prefix):
        return ResourceContext.of(*((f"{prefix}{i}", a, Annotation.LINEAR) for i in range(n)))

    term, goal = tree(0, n)
    derive = DeriveTask(context("x"), context("y"),
                        Substitution.of({f"x{i}": f"y{i}" for i in range(n)}), term, goal)

    # On the 3-cycle, edge j runs from vertex j to j + 1: a forward step from
    # v takes edge v, a backward one edge v - 1, and a walk closes when its
    # forward and backward steps differ by a multiple of 3.
    def closed_walks():
        for length in itertools.count(1):
            for dirs in itertools.product((True, False), repeat=length):
                at, steps = 0, []
                for forward in dirs:
                    steps.append((at if forward else (at - 1) % 3, forward))
                    at = (at + (1 if forward else -1)) % 3
                if at == 0:
                    yield EdgePath(tuple(steps))

    covering = CoveringTask(SimplexId(0, 0), tuple(itertools.islice(closed_walks(), walks)))

    faces = {1: [[3 * s + (i + 1) % 3, 3 * s + i] for s in range(sheets) for i in range(3)],
             2: []}
    total = TruncatedComplex.create(2, [3 * sheets, 3 * sheets, 0], faces)
    wrap = tuple(j % 3 for j in range(3 * sheets))
    fibration = RupturedFibrationData(from_kan(total), from_kan(build_cycle(3)),
                                      SimplicialMap((wrap, wrap, ())))
    return [(name, json.dumps(Document(kind, body).to_body()).encode(), kind)
            for name, kind, body in (("count-derive", "derive-task", derive),
                                     ("count-walks", "covering-task", covering),
                                     ("count-sheets", "fibration", fibration))]


def shape_documents() -> list[tuple[str, bytes, str]]:
    """(name, bytes, kind) of a ruptured document of horn shapes above
    dimension 8, whose data the readers and the writer rebuild and do not
    keep: a chain of one simplex per dimension up to 100, every face row
    zero, gapped by the horns (n, k) of n = 9, 16, .., 100 and k in
    {0, n // 2, n}, each face 0, with a plain mode on the rows of k = 0. From
    n = 10 on, the writer writes a horn's face keys in sorted order ("10"
    before "2"). The text is one line, built here without the codec."""
    d = 100
    gap = [{"n": n, "k": k, "faces": {str(i): 0 for i in range(n + 1) if i != k},
            **({"mode": {"kind": "plain", "payload": None}} if k == 0 else {})}
           for n in range(9, d + 1, 7) for k in sorted({0, n // 2, n})]
    body = {"format": "rupture-kit/1", "kind": "ruptured", "dim_bound": d,
            "simplices": {str(n): 1 for n in range(d + 1)},
            "faces": {str(n): [[0] * (n + 1)] for n in range(1, d + 1)}, "gap": gap}
    return [("shape-chain", json.dumps(body).encode(), "ruptured")]


def held_bytes(call) -> int:
    """The bytes that ``call()`` leaves allocated after it returns, by
    ``tracemalloc``. A full collection before and after it empties the
    interpreter's free lists, whose blocks would count as held."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


# Plain argvs that the kernel refuses, each with bundled fixtures as its
# documents: a transport from a vertex past the total space's vertex count.
KERNEL_REFUSALS = [("transport", "bank.json", "--term", "9", "--path", "0")]


def plain(value):
    """``value`` with every ``HornSpec`` in it replaced by its
    ``horn_to_body``: the value the stdlib's ``json.dumps`` writes as
    ``documents.dump_json`` writes ``value``."""
    if type(value) is HornSpec:
        return horn_to_body(value)
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def cli_env() -> dict:
    """The environment of a ``python -m rupture_kit`` child process: this
    checkout's ``src`` first on PYTHONPATH, however pytest was started."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def is_identity(p: FiberPermutation) -> bool:
    """Whether a fiber permutation fixes every vertex of its fiber."""
    return all(src == dst for src, dst in p.mapping)


def compose_after(second: FiberPermutation, first: FiberPermutation) -> FiberPermutation:
    """``second`` after ``first``: apply ``first``, then ``second``."""
    return FiberPermutation.of(second.fiber, {src: second.apply(dst) for src, dst in first.mapping})


def random_complex(rng: random.Random, max_vertices=8, max_edges=14, max_triangles=8):
    """A valid random complex of dimension <= 2 (at most 30 simplices).

    Triangles are assembled from existing edges so the simplicial
    identities hold by construction.
    """
    v = rng.randint(1, max_vertices)
    e = rng.randint(0, max_edges)
    edges = [(rng.randrange(v), rng.randrange(v)) for _ in range(e)]
    triangles = []
    for _ in range(rng.randint(0, max_triangles)):
        if not edges:
            break
        d2 = rng.randrange(len(edges))  # edge v0 -> v1
        v0, v1 = edges[d2][1], edges[d2][0]
        starts_v1 = [i for i, (tgt, src) in enumerate(edges) if src == v1]
        if not starts_v1:
            continue
        d0 = rng.choice(starts_v1)  # edge v1 -> v2
        v2 = edges[d0][0]
        direct = [i for i, (tgt, src) in enumerate(edges) if src == v0 and tgt == v2]
        if not direct:
            continue
        d1 = rng.choice(direct)  # edge v0 -> v2
        triangles.append([d0, d1, d2])
    faces = {1: [[tgt, src] for tgt, src in edges], 2: triangles}
    return TruncatedComplex.create(2, [v, e, len(triangles)], faces)


def random_ruptured(
    rng: random.Random, force_valid=True, coh_p=0.55, gap_p=0.35
) -> RupturedComplex:
    """A random ruptured complex over :func:`random_complex`.

    With ``force_valid`` the gap set avoids horns that have coherent
    fillers, so Exclusion holds; without it, arbitrary horns may be
    marked and Exclusion may fail.
    """
    x = random_complex(rng)
    coh = {
        n: {i for i in range(x.count(n)) if rng.random() < coh_p}
        for n in range(x.dim_bound + 1)
    }
    candidates = []
    for n in range(1, x.dim_bound + 1):
        for k in range(n + 1):
            candidates.extend(enumerate_horns(x, n, k))
    gap = []
    for h in candidates:
        if rng.random() >= gap_p:
            continue
        if force_valid:
            fm = h.face_map()
            has_coherent_filler = any(
                i in coh[h.n]
                and all(x.face_row(h.n, i)[j] == f for j, f in fm.items())
                for i in range(x.count(h.n))
            )
            if has_coherent_filler:
                continue
        gap.append(h)
    return RupturedComplex.create(x, coh, gap)


def oracle_exclusion_conflicts(r: RupturedComplex):
    """Independent brute-force scan: every (gapped horn, coherent filler)
    pair, found without the library's filler search."""
    x = r.underlying
    conflicts = []
    for h in sorted(r.gap):
        wanted = h.face_map()
        for idx in range(x.count(h.n)):
            if idx not in r.coh[h.n]:
                continue
            row = x.face_table[h.n - 1][idx]
            if all(row[i] == f for i, f in wanted.items()):
                conflicts.append((h, SimplexId(h.n, idx)))
    return conflicts


# -- composition fixtures -----------------------------------------------------


def _two_strand_base() -> RupturedComplex:
    """Two disjoint directed edges: the probe strand (alpha) and the
    control strand (alpha')."""
    from rupture_kit.ruptured import from_kan

    x = TruncatedComplex.create(
        1,
        [4, 2],
        {1: [[1, 0], [3, 2]]},
        {0: ["a0", "a1", "a0'", "a1'"], 1: ["alpha", "alpha'"]},
    )
    return from_kan(x)


def _strand_stage(
    statuses: tuple[str, str], vertex_prefix: str, under: RupturedComplex,
    under_edges: tuple[int, int],
) -> tuple[RupturedComplex, SimplicialMap, dict]:
    """One fibration stage over a two-strand space.

    ``statuses[s]`` gives the lifting character of strand s: "C" adds a
    coherent edge over the strand's base edge, "G" gap-marks the problem,
    "O" leaves it open. Returns (total, proj, gap_lifts).
    """
    labels0 = []
    vertex_map = []
    strand_vertex = {}
    for s in range(2):
        start = under_edges[s]
        src = under.underlying.face(SimplexId(1, start), 1).index
        tgt = under.underlying.face(SimplexId(1, start), 0).index
        strand_vertex[s] = (len(labels0), len(labels0) + 1)
        labels0 += [f"{vertex_prefix}{2 * s}", f"{vertex_prefix}{2 * s + 1}"]
        vertex_map += [src, tgt]
    edges = []
    edge_map = []
    gap_marks = {}
    labels1 = []
    for s, status in enumerate(statuses):
        lo, hi = strand_vertex[s]
        if status == "C":
            edges.append([hi, lo])
            edge_map.append(under_edges[s])
            labels1.append(f"{vertex_prefix}lift{s}")
        elif status == "G":
            gap_marks[
                LiftingProblemKey(
                    HornSpec.from_mapping(1, 0, {1: lo}),
                    SimplexId(1, under_edges[s]),
                )
            ] = GapMode("plain")
    total = TruncatedComplex.create(
        1,
        [len(labels0), len(edges)],
        {1: edges},
        {0: labels0, 1: labels1} if labels1 else {0: labels0},
    )
    from rupture_kit.ruptured import from_kan

    proj = SimplicialMap((tuple(vertex_map), tuple(edge_map)))
    return from_kan(total), proj, gap_marks


def composition_fixture(s1: str, s2: str):
    """A two-stage tower E -> B -> A realizing step characters (s1, s2).

    The probe strand carries s1 at the lower stage; when s1 is "C" it also
    carries s2 at the upper stage. The control strand always carries "C"
    below and s2 above, so every cell of the truth table is realized by a
    well-posed decomposition on one strand or the other. Returns
    (upper, lower, probe_key, control_key) ready for
    compose_fibrations(upper, lower).
    """
    base = _two_strand_base()
    mid, q_proj, q_gaps = _strand_stage((s1, "C"), "b", base, (0, 1))
    lower = RupturedFibrationData(mid, base, q_proj, q_gaps)

    # Middle-edge indices: the probe strand's lift exists only when s1 is
    # coherent and then precedes the control strand's lift.
    strands = []
    if s1 == "C":
        strands.append((s2, 0))
        strands.append((s2, 1))
    else:
        strands.append((s2, 0))

    # Build the top stage over the middle complex's strand edges.
    labels0 = []
    vertex_map = []
    edges = []
    edge_map = []
    gap_marks = {}
    labels1 = []
    for s, (status, under_edge) in enumerate(strands):
        src = mid.underlying.face(SimplexId(1, under_edge), 1).index
        tgt = mid.underlying.face(SimplexId(1, under_edge), 0).index
        lo = len(labels0)
        hi = lo + 1
        labels0 += [f"e{2 * s}", f"e{2 * s + 1}"]
        vertex_map += [src, tgt]
        if status == "C":
            edges.append([hi, lo])
            edge_map.append(under_edge)
            labels1.append(f"elift{s}")
        elif status == "G":
            gap_marks[
                LiftingProblemKey(
                    HornSpec.from_mapping(1, 0, {1: lo}),
                    SimplexId(1, under_edge),
                )
            ] = GapMode("plain")
    # When s1 is not "C" the probe strand has no middle edge; still give the
    # total space a fiber point over the probe's source so the composite
    # problem is well-posed.
    probe_vertex = None
    if s1 != "C":
        probe_vertex = len(labels0)
        labels0.append("e_probe")
        vertex_map.append(0)  # b0, the probe strand's source in the middle
    from rupture_kit.ruptured import from_kan

    total = TruncatedComplex.create(
        1,
        [len(labels0), len(edges)],
        {1: edges},
        {0: labels0, 1: labels1} if labels1 else {0: labels0},
    )
    upper = RupturedFibrationData(
        from_kan(total), mid, SimplicialMap((tuple(vertex_map), tuple(edge_map))),
        gap_marks,
    )
    if s1 == "C":
        probe_start = 0
        control_start = 2
    else:
        probe_start = probe_vertex
        control_start = 0
    probe_key = LiftingProblemKey(
        HornSpec.from_mapping(1, 0, {1: probe_start}), SimplexId(1, 0)
    )
    control_key = LiftingProblemKey(
        HornSpec.from_mapping(1, 0, {1: control_start}), SimplexId(1, 1)
    )
    return upper, lower, probe_key, control_key
