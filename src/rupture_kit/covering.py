"""Finite covering models: simplicial circles, double covers, unique
edge-path lifting, monodromy, and the monodromy-ruptured structure.

A covering here is a fibration whose projection has the exact-lift
property: from every total-space vertex, every incident base edge (in
either direction) lifts to exactly one total-space edge. Loops are edge
paths (sequences of directed edges), not single simplices; lifting a based
loop yields a path that may end elsewhere in the fiber. The permutation of
the fiber induced by a loop is its monodromy, and a based-loop closure
problem is gap-witnessed exactly when the monodromy moves its start point,
with the permutation itself as the witness.

Loop concatenation acts left to right: the monodromy of "alpha then beta"
is mu(beta) composed after mu(alpha).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import KernelError, record
from .fibration import (
    LoopProblem,
    RupturedFibrationData,
)
from .ruptured import GapMode, from_kan
from .simplicial import SimplexId, SimplicialMap, TruncatedComplex


@record
class EdgePath:
    """An ordered walk along edges, each traversed forward or backward.

    Forward traversal runs source (d_1) to target (d_0); backward runs the
    other way. Consecutive steps must chain through the shared vertex,
    which :func:`check_path` checks against a host complex.
    """

    steps: tuple[tuple[int, bool], ...]

    @classmethod
    def of(cls, *steps: tuple[int, bool]) -> "EdgePath":
        return cls(tuple((int(e), bool(d)) for e, d in steps))

    @classmethod
    def forward(cls, *edges: int) -> "EdgePath":
        return cls(tuple((e, True) for e in edges))

    def key(self) -> tuple[tuple[int, bool], ...]:
        return self.steps

    def __len__(self) -> int:
        return len(self.steps)

    def concat(self, other: "EdgePath") -> "EdgePath":
        return EdgePath(self.steps + other.steps)


@record
class CoveringTask:
    """The loops at a base vertex whose monodromy ``rupture-kit monodromy``
    reports: the body of a covering-task document."""

    basepoint: SimplexId
    loops: tuple[EdgePath, ...]


def _step_ends(x: TruncatedComplex, step: tuple[int, bool]) -> tuple[int, int]:
    """(start, end) vertex indices of one directed step."""
    edge, forward = step
    row = x.face_table[0][edge]
    return (row[1], row[0]) if forward else (row[0], row[1])


def path_source(x: TruncatedComplex, path: EdgePath) -> Optional[SimplexId]:
    if not path.steps:
        return None
    return SimplexId(0, _step_ends(x, path.steps[0])[0])


def path_target(x: TruncatedComplex, path: EdgePath) -> Optional[SimplexId]:
    if not path.steps:
        return None
    return SimplexId(0, _step_ends(x, path.steps[-1])[1])


def check_path(x: TruncatedComplex, path: EdgePath) -> None:
    """Raise unless every edge exists and consecutive steps chain."""
    count = x.count(1)
    prev_end = None
    for step in path.steps:
        edge, _ = step
        if not 0 <= edge < count:
            raise KernelError(f"edge path references missing edge 1/{edge}")
        start, end = _step_ends(x, step)
        if prev_end is not None and start != prev_end:
            raise KernelError(
                f"edge path breaks at edge 1/{edge}: starts at 0/{start}, expected 0/{prev_end}"
            )
        prev_end = end


@record
class FiberPermutation:
    """A bijection on the fiber vertices over a basepoint.

    ``mapping`` pairs (source vertex index, image vertex index), sorted on
    the source. ``fiber`` lists the fiber's vertex indices in order.
    """

    fiber: tuple[int, ...]
    mapping: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, fiber: Sequence[int], images: dict[int, int]) -> "FiberPermutation":
        fiber = tuple(sorted(fiber))
        if sorted(images) != list(fiber) or sorted(images.values()) != list(fiber):
            raise KernelError("fiber permutation must be a bijection on the fiber")
        return cls(fiber, tuple(sorted(images.items())))

    def apply(self, vertex: int) -> int:
        for src, dst in self.mapping:
            if src == vertex:
                return dst
        raise KernelError(f"vertex {vertex} is not in the fiber")

    def cycles(self) -> str:
        """Cycle notation over fiber positions, "()" for the identity."""
        pos = {v: i for i, v in enumerate(self.fiber)}
        image = dict(self.mapping)
        seen = set()
        parts = []
        for v in self.fiber:
            if v in seen:
                continue
            cycle = [v]
            seen.add(v)
            nxt = image[v]
            while nxt != v:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = image[nxt]
            if len(cycle) > 1:
                parts.append("(" + " ".join(str(pos[c]) for c in cycle) + ")")
        return "".join(parts) if parts else "()"


# -- builders ----------------------------------------------------------------


def build_cycle(
    m: int, vertex_prefix: str = "v", edge_prefix: str = "e"
) -> TruncatedComplex:
    """A simplicial circle: m vertices, m edges v_i -> v_{i+1 mod m}, no
    higher cells, truncated at dimension 2."""
    if m < 3:
        raise KernelError("a simplicial circle needs at least 3 vertices")
    faces = {1: [[(i + 1) % m, i] for i in range(m)], 2: []}
    labels = {
        0: [f"{vertex_prefix}{i}" for i in range(m)],
        1: [f"{edge_prefix}{i}" for i in range(m)],
    }
    return TruncatedComplex.create(2, [m, m, 0], faces, labels)


def _over_cycle(base: TruncatedComplex, total: TruncatedComplex) -> RupturedFibrationData:
    """``total`` over the m-cycle ``base``: vertex and edge j project to j mod m."""
    wrap = tuple(j % base.count(0) for j in range(total.count(0)))
    return RupturedFibrationData(from_kan(total), from_kan(base), SimplicialMap((wrap, wrap, ())))


def build_double_cover(m: int) -> RupturedFibrationData:
    """The connected double cover of the m-cycle: a 2m-cycle wrapping twice,
    everything coherent, no gap marks."""
    return _over_cycle(build_cycle(m), build_cycle(2 * m, vertex_prefix="w", edge_prefix="f"))


def trivial_double_cover(m: int) -> RupturedFibrationData:
    """Two disjoint copies of the m-cycle over the m-cycle; monodromy is
    trivial by construction."""
    base = build_cycle(m)
    faces = {
        1: [[(i + 1) % m + m * sheet, i + m * sheet] for sheet in (0, 1) for i in range(m)],
        2: [],
    }
    labels = {
        0: [f"w{sheet}.{i}" for sheet in (0, 1) for i in range(m)],
        1: [f"f{sheet}.{i}" for sheet in (0, 1) for i in range(m)],
    }
    total = TruncatedComplex.create(2, [2 * m, 2 * m, 0], faces, labels)
    return _over_cycle(base, total)


# -- lifting and monodromy -----------------------------------------------------


def covering_violation(f: RupturedFibrationData) -> Optional[str]:
    """None when every (total vertex, incident base edge, direction) has
    exactly one lift; otherwise a description of the first failure."""
    return f.lift_table[1]


def lift_edge_path(
    f: RupturedFibrationData, start: SimplexId, path: EdgePath
) -> EdgePath:
    """The unique lift of a base edge path from a total-space vertex.

    The empty path lifts to the empty path at ``start``. The walk that lifts
    the path also checks it, so a path that lifts is read once; a step
    refused for any fault is named by :func:`_refuse`.
    """
    table, problem = f.lift_table
    if problem is not None:
        raise KernelError(f"not a covering: {problem}")
    e, b = f.total.underlying, f.base.underlying
    if start.dim != 0 or not e.has(start):
        _refuse(f, start, path, None)
    rows = e.face_table[0] if e.dim_bound else ()
    ends = b.face_table[0] if b.dim_bound else ()
    at, end, lifted = start.index, f.proj.levels[0][start.index], []
    for edge, forward in path.steps:
        face = 1 if forward else 0  # a step leaves its edge's d_1 forward, its d_0 back
        matches = table.get((edge, face, at), ())
        if not (0 <= edge < len(ends) and ends[edge][face] == end and len(matches) == 1):
            _refuse(f, start, path, f"{len(matches)} lifts of edge 1/{edge} at 0/{at}")
        end, at = ends[edge][1 - face], rows[matches[0]][1 - face]
        lifted.append((matches[0], forward))
    return EdgePath(tuple(lifted))


def _refuse(f: RupturedFibrationData, start: SimplexId, path: EdgePath,
            no_lift: Optional[str]) -> None:
    """Raise the first fault of lifting ``path`` from ``start`` in the order
    the checks take: the path itself (:func:`check_path`), the start, the
    path's source, and last ``no_lift``, the first step without one lift."""
    b = f.base.underlying
    check_path(b, path)
    if start.dim != 0 or not f.total.underlying.has(start):
        raise KernelError(f"lift must start at a total-space vertex, got {start}")
    src = path_source(b, path)
    if f.proj.apply(start) != src:
        raise KernelError(f"source mismatch: proj({start}) != path source {src}")
    raise KernelError(f"not a covering: {no_lift}")


def fiber_vertices(f: RupturedFibrationData, basepoint: SimplexId) -> list[SimplexId]:
    """The total vertices over a base vertex, ascending."""
    over = f.vertices_over.get(basepoint.index, ()) if basepoint.dim == 0 else ()
    return [SimplexId(0, w) for w in over]


def _lift_loop(
    f: RupturedFibrationData, basepoint: SimplexId, loop: EdgePath
) -> tuple[FiberPermutation, dict[int, EdgePath]]:
    """The loop's lift from each fiber point over the basepoint, once each,
    and the fiber permutation their endpoints give."""
    b = f.base.underlying
    check_path(b, loop)
    if basepoint.dim != 0 or not b.has(basepoint):
        raise KernelError(f"basepoint must be a base vertex, got {basepoint}")
    if loop.steps:
        if path_source(b, loop) != basepoint or path_target(b, loop) != basepoint:
            raise KernelError("loop must start and end at the basepoint")
    lifts = {v.index: lift_edge_path(f, v, loop) for v in fiber_vertices(f, basepoint)}
    images = {}
    for v, lifted in lifts.items():
        end = path_target(f.total.underlying, lifted)
        images[v] = v if end is None else end.index
    return FiberPermutation.of(list(lifts), images), lifts


def monodromy(
    f: RupturedFibrationData, basepoint: SimplexId, loop: EdgePath
) -> FiberPermutation:
    """The fiber permutation sending each fiber point to the endpoint of
    the loop's lift from it."""
    return _lift_loop(f, basepoint, loop)[0]


def monodromy_ruptured(
    f: RupturedFibrationData, basepoint: SimplexId, loops: Sequence[EdgePath]
) -> RupturedFibrationData:
    """Register each based-loop closure problem: gapped with the loop's
    monodromy permutation as witness when the permutation moves the start
    point, coherent with the closing lift otherwise.

    Returns ``f`` with the registry as its ``loop_gaps``, built unchecked:
    nothing else differs.
    """
    # Checked here as well: an empty fiber or loop list calls no lift.
    problem = covering_violation(f)
    if problem is not None:
        raise KernelError(f"not a covering: {problem}")
    registry = {}
    for loop in loops:
        perm, lifts = _lift_loop(f, basepoint, loop)
        moved = {src for src, dst in perm.mapping if src != dst}
        for v, lifted in lifts.items():
            start = SimplexId(0, v)
            if v in moved:
                entry = LoopProblem(loop.key(), start, True, GapMode("monodromy", perm))
            else:
                entry = LoopProblem(loop.key(), start, False, None, lifted)
            registry[(loop.key(), v)] = entry
    return tuple.__new__(RupturedFibrationData, (*f[:-1], registry))
