"""Ruptured fibrations: lifting problems over a structure-preserving
projection, transport with coherent/gapped/open outcomes, fibers, and
composition.

A lifting problem pairs a horn in the total space, which fits it
(:func:`simplicial.horn_fits`) with all faces coherent, with a coherent
base simplex whose faces are the projected horn faces. Exactly one of
three things holds for it: a coherent solution exists, the problem is
gap-marked, or it is open. Transport is the 1-dimensional case anchored
at the source vertex: the lift of an edge from a fiber point, whose target
endpoint is the transported point.

Based-loop closure problems (lifting a multi-edge loop to a loop at a fiber
point) cannot be keyed by a single horn in a face-map-only model; they live
in a dedicated registry attached to the fibration, populated by the
covering machinery.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Optional

from .errors import KernelError, Violation, named_tuple, record
from .ruptured import (
    GapMode,
    RupturedComplex,
    Trichotomy,
    decide,
    validate_ruptured,
)
from .simplicial import (
    HornSpec,
    SimplexId,
    SimplicialMap,
    check_simplicial_map,
    enumerate_horns,
    fitted_horn,
    horn_dims,
    horn_fits,
    horn_rows,
    horn_violations,
    restrict,
    shaped_map,
)


@named_tuple
class LiftingProblemKey:
    """A horn in the total space together with the coherent base simplex it
    should lift. The base simplex's dimension equals the horn's. A key is
    the tuple (horn, base) and orders as one."""

    horn: HornSpec
    base: SimplexId

    def __str__(self) -> str:
        return f"lift({self.horn} over {self.base})"


@record
class LoopProblem:
    """One based-loop closure problem: lift a loop to a loop at ``start``.

    Coherent entries carry the closing lift; gapped entries carry a
    monodromy-style gap mode whose payload is the fiber permutation.
    """

    loop_key: tuple[tuple[int, bool], ...]
    start: SimplexId
    gapped: bool
    mode: Optional[GapMode] = None
    closing_lift: Optional[object] = None  # EdgePath when coherent


@record
class RupturedFibrationData:
    """A projection between ruptured complexes plus its gap-marked lifting
    problems, composite-edge designations, and based-loop registry; each of
    the last three starts as a new empty dict when left out."""

    total: RupturedComplex
    base: RupturedComplex
    proj: SimplicialMap
    gap_lifts: Mapping[LiftingProblemKey, Optional[GapMode]]
    composites: Mapping[tuple[int, int], int]
    loop_gaps: Mapping[tuple[tuple[tuple[int, bool], ...], int], LoopProblem]

    def __new__(
        cls,
        total: RupturedComplex,
        base: RupturedComplex,
        proj: SimplicialMap,
        gap_lifts: Optional[Mapping] = None,
        composites: Optional[Mapping] = None,
        loop_gaps: Optional[Mapping] = None,
    ) -> "RupturedFibrationData":
        """The map-level rule of :func:`shaped_map` on every construction,
        else :class:`ShapeError`; the levels are stored as tuples."""
        proj = shaped_map(proj, total.underlying, base.underlying)
        tables = [{} if t is None else t for t in (gap_lifts, composites, loop_gaps)]
        return tuple.__new__(cls, (total, base, proj, *tables))

    @cached_property
    def lift_table(self) -> tuple[dict[tuple[int, int, int], list[int]], Optional[str]]:
        """The edge-lifting table of :func:`build_lift_table`, built on first
        use and kept with the fibration in its ``__dict__``."""
        return build_lift_table(self)

    @cached_property
    def vertices_over(self) -> dict[int, tuple[int, ...]]:
        """Base vertex index -> the ascending indices of the total vertices
        over it: the preimage of ``proj.levels[0]``, built on first use and
        kept with the fibration like ``lift_table``."""
        over: dict[int, list[int]] = {}
        for w, v in enumerate(self.proj.levels[0]):
            over.setdefault(v, []).append(w)
        return {v: tuple(ws) for v, ws in over.items()}


def build_lift_table(
    f: RupturedFibrationData,
) -> tuple[dict[tuple[int, int, int], list[int]], Optional[str]]:
    """Unique path lifting as a table, built in one pass over the total
    edges: (base edge, face index, total vertex) -> the total edges over
    that base edge whose face at that index is that vertex, ascending.

    Also returns a description of the first (total vertex, incident base
    edge, direction), in that order, without exactly one lift; None for a
    covering.
    """
    e, b = f.total.underlying, f.base.underlying
    vertex_of, edge_of = f.proj.level(0), f.proj.level(1)
    if len(edge_of) < e.count(1):
        # A base without edges leaves the total edges unmapped.
        f.proj.apply(SimplexId(1, len(edge_of)))  # raises
    table: dict[tuple[int, int, int], list[int]] = {}
    for te, be in enumerate(edge_of):
        row = e.face_table[0][te]
        for face_idx in (1, 0):
            table.setdefault((be, face_idx, row[face_idx]), []).append(te)
    # base edges by the vertex they leave from: forward at d_1, backward at d_0
    leaving: dict[int, list[tuple[int, int, str]]] = {}
    for be in range(b.count(1)):
        row = b.face_table[0][be]
        for face_idx, direction in ((1, "forward"), (0, "backward")):
            leaving.setdefault(row[face_idx], []).append((be, face_idx, direction))
    for w, v in enumerate(vertex_of):
        for be, face_idx, direction in leaving.get(v, ()):
            lifts = table.get((be, face_idx, w), ())
            if len(lifts) != 1:
                return table, (
                    f"vertex 0/{w} has {len(lifts)} {direction} lifts of base edge 1/{be}"
                )
    return table, None


@record
class Coherent:
    """Transport succeeded; ``multiplicity`` counts the coherent lifts and
    ``target`` is the endpoint of the least one."""

    target: SimplexId
    multiplicity: int = 1


@record
class Gapped:
    mode: Optional[GapMode] = None


@record
class OpenTransport:
    pass


TransportOutcome = Coherent | Gapped | OpenTransport
OPEN_TRANSPORT = OpenTransport()


@record
class TransportHornInhabitant:
    """A coherent term, a coherent path, and the gap witness of their
    lifting problem. ``path`` is a base edge, or an edge path for
    based-loop closure problems."""

    term: SimplexId
    path: object
    gap: Optional[GapMode]


@record
class FunctorialityHornInhabitant:
    """Stepwise transport succeeded but the designated composite is gapped."""

    term: SimplexId
    first: SimplexId
    second: SimplexId
    composite: SimplexId
    midpoint: SimplexId
    endpoint: SimplexId
    gap: Optional[GapMode]


# -- key validation ----------------------------------------------------------


def key_violations(f: RupturedFibrationData, key: LiftingProblemKey) -> list[Violation]:
    """Well-formedness of a lifting problem: the horn fits the total space
    (:func:`horn_fits`) and its faces are coherent there, the base simplex
    is coherent with matching dimension, and proj(face_i) = d_i(base) for
    every present i. A horn that does not fit gets its
    :func:`horn_violations` rows, each naming the key, and nothing else."""
    e, b = f.total.underlying, f.base.underlying
    h, base = key
    if not horn_fits(e, h):
        return [Violation(v.kind, f"{key}: {v.message}") for v in horn_violations(e, h)]
    n, present = h.n, h.present_indices
    coh = f.total.coh[n - 1]
    report = [
        Violation("lift-horn-coherence", f"{key}: face {i} = {n - 1}/{fc} is not coherent")
        for i, fc in zip(present, h.faces)
        if fc not in coh
    ]
    if base.dim != n:
        report.append(Violation("lift-base-dim", f"{key}: base dimension {base.dim} != {n}"))
    elif not b.has(base):
        report.append(Violation("lift-base-missing", f"{key}: base simplex missing"))
    elif not f.base.is_coherent(base):
        report.append(Violation("lift-base-coherence", f"{key}: base simplex not coherent"))
    if report:
        return report
    base_row, level = b.face_row(n, base.index), f.proj.levels[n - 1]
    return [
        Violation("lift-compatibility", f"{key}: proj(face {i}) != d_{i}(base)")
        for i, fc in zip(present, h.faces)
        if level[fc] != base_row[i]
    ]


def _coherent_lifts(f: RupturedFibrationData, h: HornSpec) -> dict[int, int]:
    """The coherent total-space fillers of a horn whose faces exist, in
    ascending index order, each with the index of its image under the
    projection."""
    n = h.n
    level = f.proj.levels[n]
    coh = f.total.coh[n]
    fillers = f.total.underlying.fillers[n - 1][h.k].get(h.faces, ())
    return {s: level[s] for s in fillers if s in coh}


def _solutions(f: RupturedFibrationData, key: LiftingProblemKey) -> list[int]:
    """Indices of the coherent total-space simplices that fill the horn of a
    well-formed key and project onto its base simplex, ascending."""
    base = key.base.index
    return [s for s, image in _coherent_lifts(f, key.horn).items() if image == base]


# -- operations --------------------------------------------------------------


def validate_fibration(f: RupturedFibrationData) -> list[Violation]:
    """Projection validity, well-formedness of every gap-marked problem,
    and lifting-exclusion: no gap-marked problem may have a coherent
    solution."""
    report = list(
        check_simplicial_map(f.proj, f.total.underlying, f.base.underlying)
    )
    for key in sorted(f.gap_lifts):
        bad = key_violations(f, key)
        report.extend(bad)
        if bad:
            continue
        for sol in _solutions(f, key):
            report.append(
                Violation(
                    "lifting-exclusion",
                    f"{key} is gap-marked but coherent {key.horn.n}/{sol} solves it",
                )
            )
    return report


def validate_fibration_deep(f: RupturedFibrationData) -> list[Violation]:
    """validate_fibration plus full validation of both ruptured complexes."""
    report = []
    for name, r in (("total", f.total), ("base", f.base)):
        for v in validate_ruptured(r):
            report.append(Violation(v.kind, f"{name}: {v.message}"))
    report.extend(validate_fibration(f))
    return report


def classify_lift(f: RupturedFibrationData, key: LiftingProblemKey) -> Trichotomy:
    """Trichotomy for one lifting problem: coherent solutions if any exist,
    else the gap mark, else open. Malformed keys are rejected."""
    bad = key_violations(f, key)
    if bad:
        raise KernelError("; ".join(v.message for v in bad))
    n = key.horn.n
    return decide([SimplexId(n, s) for s in _solutions(f, key)], f.gap_lifts, key)


def transport_key(e: SimplexId, path: SimplexId) -> LiftingProblemKey:
    """The lifting problem of transporting fiber point ``e`` along base
    edge ``path``: the source-anchored 1-horn (present face index 1, the
    target face missing) over the edge, built unchecked: its shape holds."""
    return tuple.__new__(LiftingProblemKey, (fitted_horn(1, 0, (e.index,)), path))


def transport(
    f: RupturedFibrationData, e: SimplexId, path: SimplexId
) -> TransportOutcome:
    """Transport a coherent fiber point along a coherent base edge: the
    lifting problem :func:`transport_key`, classified as :func:`classify_lift`
    does.

    Coherent with the endpoint of the least coherent lift (an edge starting
    at ``e`` projecting onto ``path``) and the lift multiplicity; gapped
    when the problem is gap-marked; open otherwise.

    A key is accepted on ints, without a report, when both spaces have
    edges, ``path`` is a coherent edge, ``e`` a coherent point, and ``e``
    projects onto the source d_1 of ``path``. These are the checks of
    :func:`key_violations` on this key: a 1-horn has no boundary identity,
    so it fits exactly when its one face is in range, which ``e`` being
    coherent implies. Any other key is rejected with that report, as
    :func:`classify_lift` rejects it.
    """
    if e.dim != 0:
        raise KernelError(f"transport needs a total-space vertex, got {e}")
    w, b, levels = e.index, path.index, f.proj.levels
    # A shaped map has an edge level iff both spaces have edges.
    if not (
        path.dim == 1 and len(levels) > 1 and w in f.total.coh[0] and b in f.base.coh[1]
        and levels[0][w] == f.base.underlying.face_table[0][b][1]
    ):
        bad = key_violations(f, transport_key(e, path))
        raise KernelError("; ".join(v.message for v in bad))
    x, coh = f.total.underlying, f.total.coh[1]
    lifts = [s for s in x.fillers[0][0].get((w,), ()) if s in coh and levels[1][s] == b]
    if lifts:  # the outcome records check nothing, so no constructor is called
        return tuple.__new__(Coherent, (SimplexId(0, x.face_table[0][lifts[0]][0]), len(lifts)))
    key = transport_key(e, path)
    if key in f.gap_lifts:
        return tuple.__new__(Gapped, (f.gap_lifts[key],))
    return OPEN_TRANSPORT


def detect_transport_horn(
    f: RupturedFibrationData, e: SimplexId, path
) -> Optional[TransportHornInhabitant]:
    """The transport-horn inhabitant (term, path, gap witness) when the
    transport problem is gapped; None otherwise.

    ``path`` may be a base edge, or an edge path for based-loop closure
    problems registered by the covering machinery.
    """
    if isinstance(path, SimplexId):
        outcome = transport(f, e, path)
        if isinstance(outcome, Gapped):
            return TransportHornInhabitant(e, path, outcome.mode)
        return None
    key = (path.key(), e.index)
    entry = f.loop_gaps.get(key)
    if entry is not None and entry.gapped:
        return TransportHornInhabitant(e, path, entry.mode)
    return None


def fiber(
    f: RupturedFibrationData, b: SimplexId
) -> tuple[RupturedComplex, SimplicialMap]:
    """The ruptured sub-complex of the total space over a coherent base
    vertex, with its inclusion map.

    Contains the simplices all of whose vertices project to ``b``, with
    coherence restricted and gap restricted to horns lying in the fiber.
    """
    if b.dim != 0 or not f.base.underlying.has(b):
        raise KernelError(f"fiber needs a base vertex, got {b}")
    if not f.base.is_coherent(b):
        raise KernelError(f"base vertex {b} is not coherent")
    e = f.total.underlying
    # A simplex lies over b iff all its faces do, so one dimension decides
    # the next, and its candidates are the simplices whose d_0 lies over b.
    keep = [f.vertices_over.get(b.index, ())]
    for n in range(1, e.dim_bound + 1):
        below = set(keep[-1])
        meet = e.cofaces[n - 1]
        keep.append(
            [
                idx
                for fc in keep[-1]
                for idx in meet.get(fc, ())
                if below.issuperset(e.face_row(n, idx))
            ]
        )
    sub, inclusion = restrict(e, keep)
    # Coherence marks follow the simplices to their new indices; the gap
    # horns are the fiber's own horns whose image is gapped, so there are
    # none to look for when the total space has no gap horns.
    coh = tuple(
        frozenset([new for new, old in enumerate(level) if old in marks])
        for level, marks in zip(inclusion.levels, f.total.coh)
    )
    gap = {}
    if f.total.gap:
        for n in horn_dims(sub, sub.dim_bound):
            for k in range(n + 1):
                for h in enumerate_horns(sub, n, k):
                    image = inclusion.apply_horn(h)
                    if image in f.total.gap:
                        gap[h] = f.total.gap[image]
    # The marks name kept simplices, so the shape rule is skipped.
    return tuple.__new__(RupturedComplex, (sub, coh, gap)), inclusion


def enumerate_lifting_problems(f: RupturedFibrationData) -> list[LiftingProblemKey]:
    """Every well-formed lifting problem representable in the truncation,
    in (horn, base) order. The keys of one horn are adjacent and share one
    :class:`HornSpec` object, built only for a horn with a problem, which
    :func:`compose_fibrations` relies on. Each record is built unchecked,
    by ``tuple.__new__``: the walk gives every one its shape."""
    e, b = f.total.underlying, f.base.underlying
    out = []
    new = tuple.__new__
    for n in horn_dims(e, min(e.dim_bound, b.dim_bound)):
        coh, base_coh = f.total.coh[n - 1], f.base.coh[n]
        if not base_coh:  # no base simplex to lift to
            continue
        image = f.proj.levels[n - 1].__getitem__
        for k in range(n + 1):
            fillers = b.fillers[n - 1][k]
            for faces in horn_rows(e, n, k):
                if not coh.issuperset(faces):
                    continue
                h = None
                for s in fillers.get(tuple(map(image, faces)), ()):
                    if s in base_coh:
                        h = h or new(HornSpec, (n, k, faces))
                        out.append(new(LiftingProblemKey, (h, new(SimplexId, (n, s)))))
    return out


def compose_fibrations(
    f: RupturedFibrationData, g: RupturedFibrationData
) -> RupturedFibrationData:
    """Compose p: E -> B with q: B -> A into E -> A.

    The composite's gap-marked problems are materialized over every
    well-formed problem of the composite: a problem is gapped when its
    base-level step is gapped, or that step is coherent, no coherent middle
    lift admits a coherent total-level solution, and the total-level step
    over some middle lift is gapped (the least such middle's mode is used;
    the others may be open). It is coherent when some middle admits a
    coherent total-level solution, and open otherwise. Loop registries and
    composite designations of the first stage do not survive composition.

    No step is checked with :func:`key_violations`. The composite's
    projection stops at the middle's bound, so its constructor refuses a
    middle space below both ends, and every composite problem (horn h,
    base a) has n <= the middle bound. Its horn h fits E, as every
    enumerated horn does, and p(h) fits B as the image of a fitting horn
    under a map that commutes with faces. Its base-level step (p(h), a) is
    then well formed exactly when the faces of p(h) are coherent in B, one
    probe per horn: they name simplices of B because p is shaped, a is a
    coherent n-simplex of A because the composite problem is well formed,
    and q(d_i p(h)) = d_i(a) for every present i because q . p is the
    composite's projection and a fills the composite-projected horn. The
    total-level step (h, mid) over a coherent middle lift is well formed
    too: the faces of h are coherent in E, ``mid`` is a coherent n-simplex
    of B, and ``mid`` fills p(h), so p(face i) = d_i(mid) for every i.

    The keys of one horn are adjacent, so the work on p(h) and on the
    coherent lifts of h is done once per horn; a stage without gap marks
    is not searched for one, and with none in either stage no key is.
    """
    if f.base != g.total:
        raise KernelError("composition needs the first base to equal the second total")
    proj = SimplicialMap.compose(g.proj, f.proj)
    composite = RupturedFibrationData(f.total, g.base, proj)
    problems = enumerate_lifting_problems(composite)  # bench/tracing.py counts them, read or not
    mid, upper_gaps, lower_gaps = f.base, f.gap_lifts, g.gap_lifts
    if not upper_gaps and not lower_gaps:
        return composite  # no step is gapped, so no composite problem is
    gap_lifts: dict[LiftingProblemKey, Optional[GapMode]] = {}
    prev = None
    for key in problems:
        h, base = key
        n = h.n
        if h is not prev:
            prev, level, coh = h, f.proj.levels[n - 1], mid.coh[n]
            pf = tuple([level[i] for i in h.faces])
            # The coherent middle fillers of p(h); None when p(h) is not coherent.
            fillers = [
                s for s in mid.underlying.fillers[n - 1][h.k].get(pf, ()) if s in coh
            ] if mid.coh[n - 1].issuperset(pf) else None
            lifted = set(_coherent_lifts(f, h).values()) if upper_gaps and fillers else ()
        if fillers is None:
            continue
        images = g.proj.levels[n]
        mids = [s for s in fillers if images[s] == base.index]
        if not mids:
            if lower_gaps:
                step1 = LiftingProblemKey(fitted_horn(n, h.k, pf), base)
                if step1 in lower_gaps:
                    gap_lifts[key] = lower_gaps[step1]
            continue
        if not upper_gaps or not lifted.isdisjoint(mids):
            continue
        for m in mids:
            step2 = LiftingProblemKey(h, SimplexId(n, m))
            if step2 in upper_gaps:
                gap_lifts[key] = upper_gaps[step2]
                break
    return RupturedFibrationData(f.total, g.base, proj, gap_lifts)


def detect_functoriality_horn(
    f: RupturedFibrationData,
    e: SimplexId,
    first: SimplexId,
    second: SimplexId,
) -> Optional[FunctorialityHornInhabitant]:
    """The functoriality-horn inhabitant when stepwise transport along two
    composable base edges succeeds but transport along their designated
    composite edge is gapped; None otherwise.

    The composite edge must be designated in the fibration data, since a
    face-map-only model has no canonical composite of two edges.
    """
    b = f.base.underlying
    for edge in (first, second):
        if edge.dim != 1 or not b.has(edge):
            raise KernelError(f"{edge} is not a base edge")
    if b.face(first, 0) != b.face(second, 1):
        raise KernelError("edges do not compose: target of first != source of second")
    designation = f.composites.get((first.index, second.index))
    if designation is None:
        raise KernelError(
            f"no composite edge designated for ({first.index}, {second.index})"
        )
    composite = SimplexId(1, designation)
    step1 = transport(f, e, first)
    if not isinstance(step1, Coherent):
        return None
    step2 = transport(f, step1.target, second)
    if not isinstance(step2, Coherent):
        return None
    direct = transport(f, e, composite)
    if not isinstance(direct, Gapped):
        return None
    return FunctorialityHornInhabitant(
        e, first, second, composite, step1.target, step2.target, direct.mode
    )
