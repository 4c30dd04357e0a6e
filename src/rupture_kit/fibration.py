"""Ruptured fibrations: lifting problems over a structure-preserving
projection, transport with coherent/gapped/open outcomes, fibers, and
composition.

A lifting problem pairs a horn in the total space (all faces coherent) with
a coherent base simplex whose faces are the projected horn faces. Exactly
one of three things holds for it: a coherent solution exists, the problem
is gap-marked, or it is open. Transport is the 1-dimensional case anchored
at the source vertex: the lift of an edge from a fiber point, whose target
endpoint is the transported point.

Based-loop closure problems (lifting a multi-edge loop to a loop at a fiber
point) cannot be keyed by a single horn in a face-map-only model; they live
in a dedicated registry attached to the fibration, populated by the
covering machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Optional

from .errors import KernelError, Violation
from .ruptured import (
    CoherentlyFilled,
    GapMode,
    GapWitnessed,
    Open,
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
    restrict,
)


@dataclass(frozen=True, order=True)
class LiftingProblemKey:
    """A horn in the total space together with the coherent base simplex it
    should lift. The base simplex's dimension equals the horn's. Keys order
    by (horn, base)."""

    horn: HornSpec
    base: SimplexId

    def __str__(self) -> str:
        return f"lift({self.horn} over {self.base})"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RupturedFibrationData:
    """A projection between ruptured complexes plus its gap-marked lifting
    problems, composite-edge designations, and based-loop registry."""

    total: RupturedComplex
    base: RupturedComplex
    proj: SimplicialMap
    gap_lifts: Mapping[LiftingProblemKey, Optional[GapMode]] = field(
        default_factory=dict
    )
    composites: Mapping[tuple[int, int], int] = field(default_factory=dict)
    loop_gaps: Mapping[tuple[tuple[tuple[int, bool], ...], int], LoopProblem] = field(
        default_factory=dict
    )

    def with_loop_gaps(self, registry) -> "RupturedFibrationData":
        return replace(self, loop_gaps=dict(registry))

    @cached_property
    def lift_table(self) -> tuple[dict[tuple[int, int, int], list[int]], Optional[str]]:
        """The edge-lifting table of :func:`build_lift_table`, built on first
        use and kept with the fibration (the frozen dataclass has no slots,
        so the cache fits)."""
        return build_lift_table(self)


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
    table: dict[tuple[int, int, int], list[int]] = {}
    for te in range(e.count(1)):
        be = f.proj.apply(SimplexId(1, te)).index
        row = e.face_row(1, te)
        for face_idx in (1, 0):
            table.setdefault((be, face_idx, row[face_idx]), []).append(te)
    # base edges by the vertex they leave from: forward at d_1, backward at d_0
    leaving: dict[int, list[tuple[int, int, str]]] = {}
    for be in range(b.count(1)):
        row = b.face_row(1, be)
        for face_idx, direction in ((1, "forward"), (0, "backward")):
            leaving.setdefault(row[face_idx], []).append((be, face_idx, direction))
    for w in range(e.count(0)):
        for be, face_idx, direction in leaving.get(f.proj.apply(SimplexId(0, w)).index, ()):
            lifts = table.get((be, face_idx, w), ())
            if len(lifts) != 1:
                return table, (
                    f"vertex 0/{w} has {len(lifts)} {direction} lifts of base edge 1/{be}"
                )
    return table, None


@dataclass(frozen=True)
class Coherent:
    """Transport succeeded; ``multiplicity`` counts the coherent lifts and
    ``target`` is the endpoint of the least one."""

    target: SimplexId
    multiplicity: int = 1


@dataclass(frozen=True)
class Gapped:
    mode: Optional[GapMode] = None


@dataclass(frozen=True)
class OpenTransport:
    pass


TransportOutcome = Coherent | Gapped | OpenTransport


@dataclass(frozen=True)
class TransportHornInhabitant:
    """A coherent term, a coherent path, and the gap witness of their
    lifting problem. ``path`` is a base edge, or an edge path for
    based-loop closure problems."""

    term: SimplexId
    path: object
    gap: Optional[GapMode]


@dataclass(frozen=True)
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
    """Well-formedness of a lifting problem: horn faces exist and are
    coherent in the total space, the base simplex is coherent with matching
    dimension, and proj(face_i) = d_i(base) for every present i."""
    report: list[Violation] = []
    e, b = f.total.underlying, f.base.underlying
    h = key.horn
    if not 1 <= h.n <= e.dim_bound:
        report.append(Violation("lift-horn-dim", f"{key}: horn dimension out of range"))
        return report
    present = h.present_indices
    for i, fc in zip(present, h.faces):
        if not 0 <= fc < e.count(h.n - 1):
            report.append(
                Violation("lift-horn-face", f"{key}: face {i} missing in total space")
            )
        elif not f.total.is_coherent(SimplexId(h.n - 1, fc)):
            report.append(
                Violation(
                    "lift-horn-coherence",
                    f"{key}: face {i} = {h.n - 1}/{fc} is not coherent",
                )
            )
    if key.base.dim != h.n:
        report.append(
            Violation("lift-base-dim", f"{key}: base dimension {key.base.dim} != {h.n}")
        )
    elif not b.has(key.base):
        report.append(Violation("lift-base-missing", f"{key}: base simplex missing"))
    elif not f.base.is_coherent(key.base):
        report.append(Violation("lift-base-coherence", f"{key}: base simplex not coherent"))
    if report:
        return report
    base_row = b.face_row(h.n, key.base.index)
    for i, fc in zip(present, h.faces):
        if f.proj.apply(SimplexId(h.n - 1, fc)).index != base_row[i]:
            report.append(
                Violation(
                    "lift-compatibility",
                    f"{key}: proj(face {i}) != d_{i}(base)",
                )
            )
    return report


def _solutions(f: RupturedFibrationData, key: LiftingProblemKey) -> list[SimplexId]:
    """Coherent total-space simplices that fill the horn and project onto
    the base simplex, in ascending index order."""
    return [
        s for s in f.total.coherent_fillers(key.horn) if f.proj.apply(s) == key.base
    ]


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
                    f"{key} is gap-marked but coherent {sol} solves it",
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
    return decide(_solutions(f, key), f.gap_lifts, key)


def transport_key(e: SimplexId, path: SimplexId) -> LiftingProblemKey:
    """The lifting problem of transporting fiber point ``e`` along base
    edge ``path``: the source-anchored 1-horn (present face index 1, the
    target face missing) over the edge."""
    return LiftingProblemKey(HornSpec(1, 0, (e.index,)), path)


def transport(
    f: RupturedFibrationData, e: SimplexId, path: SimplexId
) -> TransportOutcome:
    """Transport a coherent fiber point along a coherent base edge: the
    lifting problem :func:`transport_key`, classified by :func:`classify_lift`.

    Coherent with the endpoint of the least coherent lift (an edge starting
    at ``e`` projecting onto ``path``) and the lift multiplicity; gapped
    when the problem is gap-marked; open otherwise.
    """
    if e.dim != 0:
        raise KernelError(f"transport needs a total-space vertex, got {e}")
    outcome = classify_lift(f, transport_key(e, path))
    if isinstance(outcome, CoherentlyFilled):
        lifts = outcome.fillers
        return Coherent(f.total.underlying.face(lifts[0], 0), len(lifts))
    if isinstance(outcome, GapWitnessed):
        return Gapped(outcome.mode)
    return OpenTransport()


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
    # A simplex lies over b iff all its faces do, so one dimension decides the next.
    keep = [[w for w in range(e.count(0)) if f.proj.apply(SimplexId(0, w)) == b]]
    for n in range(1, e.dim_bound + 1):
        below = set(keep[-1])
        keep.append([idx for idx in range(e.count(n)) if below.issuperset(e.face_row(n, idx))])
    sub, inclusion = restrict(e, keep)
    # Coherence marks and gap horns follow the simplices to their new indices.
    position = [
        {old: new for new, old in enumerate(level)} for level in inclusion.levels
    ]
    coh = {
        n: {position[n][old] for old in f.total.coh[n] if old in position[n]}
        for n in range(e.dim_bound + 1)
    }
    gap = {
        HornSpec(h.n, h.k, tuple(position[h.n - 1][fc] for fc in h.faces)): mode
        for h, mode in f.total.gap.items()
        if all(fc in position[h.n - 1] for fc in h.faces)
    }
    return RupturedComplex.create(sub, coh, gap, gap), inclusion


def enumerate_lifting_problems(f: RupturedFibrationData) -> list[LiftingProblemKey]:
    """Every well-formed lifting problem representable in the truncation,
    in (horn, base) order."""
    top = min(f.total.underlying.dim_bound, f.base.underlying.dim_bound)
    out = []
    for n in range(1, top + 1):
        for k in range(n + 1):
            for h in enumerate_horns(f.total.underlying, n, k):
                if all(f.total.is_coherent(SimplexId(n - 1, fc)) for fc in h.faces):
                    for base_sid in f.base.coherent_fillers(f.proj.apply_horn(h)):
                        out.append(LiftingProblemKey(h, base_sid))
    return out


def compose_fibrations(
    f: RupturedFibrationData, g: RupturedFibrationData
) -> RupturedFibrationData:
    """Compose p: E -> B with q: B -> A into E -> A.

    The composite's gap-marked problems are materialized over every
    well-formed problem of the composite: a problem is gapped when its
    base-level step is gapped, or that step is coherent and the total-level
    step over every coherent middle lift is gapped (the least middle's mode
    is used). It is coherent when some middle admits a coherent total-level
    solution, and open otherwise. Loop registries and composite
    designations of the first stage do not survive composition.
    """
    if f.base != g.total:
        raise KernelError("composition needs the first base to equal the second total")
    proj = SimplicialMap.compose(g.proj, f.proj)
    composite = RupturedFibrationData(f.total, g.base, proj)
    mid_bound = f.base.underlying.dim_bound
    gap_lifts: dict[LiftingProblemKey, Optional[GapMode]] = {}
    for key in enumerate_lifting_problems(composite):
        h = key.horn
        if h.n > mid_bound:
            continue
        mid_horn = f.proj.apply_horn(h)
        step1 = LiftingProblemKey(mid_horn, key.base)
        if key_violations(g, step1):
            continue
        s1 = decide(_solutions(g, step1), g.gap_lifts, step1)
        if isinstance(s1, GapWitnessed):
            gap_lifts[key] = s1.mode
            continue
        if isinstance(s1, Open):
            continue
        statuses = []
        for mid in s1.fillers:
            step2 = LiftingProblemKey(h, mid)
            if key_violations(f, step2):
                continue
            statuses.append(decide(_solutions(f, step2), f.gap_lifts, step2))
        if any(isinstance(st, CoherentlyFilled) for st in statuses):
            continue
        gapped = [st for st in statuses if isinstance(st, GapWitnessed)]
        if gapped:
            gap_lifts[key] = gapped[0].mode
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
