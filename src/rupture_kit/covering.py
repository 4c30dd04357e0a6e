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

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import KernelError
from .fibration import (
    LoopProblem,
    RupturedFibrationData,
)
from .ruptured import GapMode, from_kan
from .simplicial import SimplexId, SimplicialMap, TruncatedComplex


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CoveringTask:
    """The loops at a base vertex whose monodromy ``rupture-kit monodromy``
    reports: the body of a covering-task document."""

    basepoint: SimplexId
    loops: tuple[EdgePath, ...]


def step_endpoints(x: TruncatedComplex, step: tuple[int, bool]) -> tuple[SimplexId, SimplexId]:
    """(start, end) vertices of one directed step."""
    edge, forward = step
    sid = SimplexId(1, edge)
    src, tgt = x.face(sid, 1), x.face(sid, 0)
    return (src, tgt) if forward else (tgt, src)


def path_source(x: TruncatedComplex, path: EdgePath) -> Optional[SimplexId]:
    if not path.steps:
        return None
    return step_endpoints(x, path.steps[0])[0]


def path_target(x: TruncatedComplex, path: EdgePath) -> Optional[SimplexId]:
    if not path.steps:
        return None
    return step_endpoints(x, path.steps[-1])[1]


def check_path(x: TruncatedComplex, path: EdgePath) -> None:
    """Raise unless every edge exists and consecutive steps chain."""
    prev_end = None
    for step in path.steps:
        edge, _ = step
        if not 0 <= edge < x.count(1):
            raise KernelError(f"edge path references missing edge 1/{edge}")
        start, end = step_endpoints(x, step)
        if prev_end is not None and start != prev_end:
            raise KernelError(
                f"edge path breaks at edge 1/{edge}: starts at {start}, expected {prev_end}"
            )
        prev_end = end


@dataclass(frozen=True)
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

    def is_identity(self) -> bool:
        return all(src == dst for src, dst in self.mapping)

    def compose_after(self, first: "FiberPermutation") -> "FiberPermutation":
        """self after first (apply ``first``, then ``self``)."""
        return FiberPermutation.of(
            self.fiber, {src: self.apply(dst) for src, dst in first.mapping}
        )

    def cycles(self) -> str:
        """Cycle notation over fiber positions, "()" for the identity."""
        pos = {v: i for i, v in enumerate(self.fiber)}
        seen = set()
        parts = []
        for v in self.fiber:
            if v in seen:
                continue
            cycle = [v]
            seen.add(v)
            nxt = self.apply(v)
            while nxt != v:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self.apply(nxt)
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

    The empty path lifts to the empty path at ``start``.
    """
    table, problem = f.lift_table
    if problem is not None:
        raise KernelError(f"not a covering: {problem}")
    e, b = f.total.underlying, f.base.underlying
    check_path(b, path)
    if start.dim != 0 or not e.has(start):
        raise KernelError(f"lift must start at a total-space vertex, got {start}")
    if path.steps:
        src = path_source(b, path)
        if f.proj.apply(start) != src:
            raise KernelError(
                f"source mismatch: proj({start}) != path source {src}"
            )
    at = start
    lifted = []
    for edge, forward in path.steps:
        matches = table.get((edge, 1 if forward else 0, at.index), ())
        if len(matches) != 1:
            raise KernelError(
                f"not a covering: {len(matches)} lifts of edge 1/{edge} at {at}"
            )
        te = matches[0]
        lifted.append((te, forward))
        at = e.face(SimplexId(1, te), 0 if forward else 1)
    return EdgePath(tuple(lifted))


def fiber_vertices(f: RupturedFibrationData, basepoint: SimplexId) -> list[SimplexId]:
    e = f.total.underlying
    return [
        SimplexId(0, w)
        for w in range(e.count(0))
        if f.proj.apply(SimplexId(0, w)) == basepoint
    ]


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

    The registry is returned embedded in the fibration's ``loop_gaps``.
    """
    # Checked here as well: an empty fiber or loop list calls no lift.
    problem = covering_violation(f)
    if problem is not None:
        raise KernelError(f"not a covering: {problem}")
    registry = {}
    for loop in loops:
        perm, lifts = _lift_loop(f, basepoint, loop)
        for v, lifted in lifts.items():
            start = SimplexId(0, v)
            if perm.apply(v) != v:
                entry = LoopProblem(loop.key(), start, True, GapMode("monodromy", perm))
            else:
                entry = LoopProblem(loop.key(), start, False, None, lifted)
            registry[(loop.key(), v)] = entry
    return f.with_loop_gaps(registry)
