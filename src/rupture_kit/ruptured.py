"""Ruptured simplicial structures: coherence marks, gap-witnessed horns,
the Exclusion condition, and the three-way horn classification.

A ruptured complex adds to a truncated complex a per-dimension set Coh of
coherently witnessed simplices and a table Gap of horns witnessed as
unfillable, each with an optional gap mode. Exclusion is the single law: no
gapped horn may have a coherent filler. Every horn then sits in exactly one
of three states: coherently filled, gap-witnessed, or open.

Coh is not required to be closed under faces; the face closure is computed
by :func:`coherent_core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import ExclusionError, KernelError, Violation
from .simplicial import (
    HornSpec,
    SimplexId,
    SimplicialMap,
    TruncatedComplex,
    check_simplicial_map,
    enumerate_horns,
    find_fillers,
    horn_of,
    horn_violations,
    restrict,
    validate_complex,
)


@dataclass(frozen=True)
class GapMode:
    """How a horn fails to fill: a kind label plus kind-specific payload.

    Payloads are canonical hashable values: a fiber permutation for
    "monodromy", a tuple of (variable, count) pairs for "resource", a tuple
    of feature strings for "semantic", and None for "plain".
    """

    kind: str
    payload: object = None

    def __post_init__(self):
        if not self.kind:
            raise KernelError("gap mode kind must be non-empty")

    def __str__(self) -> str:
        return self.kind


PLAIN = GapMode("plain")


@dataclass(frozen=True)
class RupturedComplex:
    """A truncated complex with coherence and gap annotations.

    ``coh[n]`` is the set of coherent simplex indices in dimension n.
    ``gap`` maps each gap-witnessed horn to its mode, None for a plain
    mark: the same table a fibration keeps for its gap-marked problems.
    """

    underlying: TruncatedComplex
    coh: tuple[frozenset[int], ...]
    gap: Mapping[HornSpec, Optional[GapMode]]

    @classmethod
    def create(
        cls,
        underlying: TruncatedComplex,
        coh: Mapping[int, object] | None = None,
        gap=(),
        gap_modes: Mapping[HornSpec, Optional[GapMode]] | None = None,
    ) -> "RupturedComplex":
        """``gap`` lists the gapped horns and ``gap_modes`` gives some of
        them a mode (the others are plain); a gap table can serve as both."""
        coh = coh or {}
        per_dim = tuple(
            frozenset(coh.get(n, ())) for n in range(underlying.dim_bound + 1)
        )
        modes = gap_modes or {}
        return cls(underlying, per_dim, {h: modes.get(h) for h in gap})

    def is_coherent(self, sid: SimplexId) -> bool:
        return (
            0 <= sid.dim <= self.underlying.dim_bound
            and sid.index in self.coh[sid.dim]
        )

    def coherent_fillers(self, h: HornSpec) -> list[SimplexId]:
        return [s for s in find_fillers(self.underlying, h) if self.is_coherent(s)]

    def with_coherent(self, sid: SimplexId) -> "RupturedComplex":
        """Return a copy with one more coherent simplex.

        Rejected with :class:`ExclusionError` when the simplex fills a
        gap-witnessed horn, since Exclusion would no longer hold.
        """
        if not self.underlying.has(sid):
            raise KernelError(f"no simplex {sid} in the complex")
        conflicts = []
        if sid.dim >= 1:
            filled = (horn_of(self.underlying, sid, k) for k in range(sid.dim + 1))
            conflicts = [(h, sid) for h in filled if h in self.gap]
        if conflicts:
            raise ExclusionError(
                f"coherent {sid} would fill {len(conflicts)} gap-witnessed horn(s)",
                conflicts,
            )
        per_dim = list(self.coh)
        per_dim[sid.dim] = per_dim[sid.dim] | {sid.index}
        return RupturedComplex(self.underlying, tuple(per_dim), self.gap)


# -- trichotomy --------------------------------------------------------------


@dataclass(frozen=True)
class CoherentlyFilled:
    """The horn has at least one coherent filler; all of them are listed."""

    fillers: tuple[SimplexId, ...]

    def __post_init__(self):
        if not self.fillers:
            raise KernelError("coherent filling needs at least one filler")


@dataclass(frozen=True)
class GapWitnessed:
    mode: Optional[GapMode] = None


@dataclass(frozen=True)
class Open:
    pass


Trichotomy = CoherentlyFilled | GapWitnessed | Open


def decide(solutions, gap: Mapping, key) -> Trichotomy:
    """The one rule behind every trichotomy: coherent solutions first, else
    the gap entry of ``key`` with its mode, else open."""
    if solutions:
        return CoherentlyFilled(tuple(solutions))
    if key in gap:
        return GapWitnessed(gap[key])
    return Open()


# -- operations --------------------------------------------------------------


def validate_exclusion(r: RupturedComplex) -> list[Violation]:
    """Report every (gapped horn, coherent filler) conflict; empty iff
    Exclusion holds."""
    report = []
    for h in sorted(r.gap):
        for s in r.coherent_fillers(h):
            report.append(
                Violation(
                    "exclusion",
                    f"{h} is gap-witnessed but coherent {s} fills it",
                )
            )
    return report


def validate_ruptured(r: RupturedComplex) -> list[Violation]:
    """Full structural report: underlying complex validity, coherence marks
    in range, gap horns well-formed, and Exclusion."""
    report = list(validate_complex(r.underlying))
    for n, members in enumerate(r.coh):
        for i in members:
            if not 0 <= i < r.underlying.count(n):
                report.append(
                    Violation("coh-range", f"coherent mark {n}/{i} has no simplex")
                )
    for h in sorted(r.gap):
        report.extend(horn_violations(r.underlying, h))
    if not report:
        report.extend(validate_exclusion(r))
    return report


def classify_horn(r: RupturedComplex, h: HornSpec) -> Trichotomy:
    """The three-way state of a horn.

    Coherently filled (with all coherent fillers) when some filler lies in
    Coh; else gap-witnessed when the horn is in Gap; else open. Fillers
    outside Coh never count as coherent filling.
    """
    bad = horn_violations(r.underlying, h)
    if bad:
        raise KernelError("; ".join(v.message for v in bad))
    return decide(r.coherent_fillers(h), r.gap, h)


def from_kan(x: TruncatedComplex) -> RupturedComplex:
    """Everything coherent, nothing gapped: the fully coherent structure an
    ordinary complex carries."""
    return RupturedComplex.create(
        x, {n: range(x.count(n)) for n in range(x.dim_bound + 1)}
    )


def fully_gapped(x: TruncatedComplex) -> RupturedComplex:
    """Every enumerable horn gap-witnessed and no simplex coherent.

    Coh must be empty for Exclusion to hold against an all-horn gap set.
    """
    gap = []
    for n in range(1, x.dim_bound + 1):
        for k in range(n + 1):
            gap.extend(enumerate_horns(x, n, k))
    return RupturedComplex.create(x, {}, gap)


def coherent_core(r: RupturedComplex) -> tuple[TruncatedComplex, SimplicialMap]:
    """The face closure of Coh as a sub-complex, with its inclusion map.

    Contains every coherent simplex and all iterated faces thereof, nothing
    else. The inclusion sends each core simplex to its original id.
    """
    x = r.underlying
    keep = [set(members) for members in r.coh]
    for n in range(x.dim_bound, 0, -1):
        for idx in keep[n]:
            keep[n - 1].update(x.face_row(n, idx))
    return restrict(x, keep)


def product(r: RupturedComplex, s: RupturedComplex) -> RupturedComplex:
    """The degreewise product with componentwise coherence.

    The pair (i, j) of factor indices sits at flat index i * right_count + j
    in each dimension. A horn of the product is gap-witnessed iff its
    projection to either factor is gap-witnessed there; the mode is
    inherited from the left factor first. Exclusion is re-validated on the
    result and a conflict raises :class:`ExclusionError` rather than being
    silently repaired.
    """
    x, y = r.underlying, s.underlying
    bound = min(x.dim_bound, y.dim_bound)
    counts = [x.count(n) * y.count(n) for n in range(bound + 1)]
    faces = {}
    for n in range(1, bound + 1):
        rows = []
        for xi in range(x.count(n)):
            xrow = x.face_row(n, xi)
            for yi in range(y.count(n)):
                yrow = y.face_row(n, yi)
                rows.append(
                    [xf * y.count(n - 1) + yf for xf, yf in zip(xrow, yrow)]
                )
        faces[n] = rows
    labels = {}
    for n in range(bound + 1):
        has_labels = any(
            x.label(SimplexId(n, i)) is not None for i in range(x.count(n))
        ) or any(y.label(SimplexId(n, j)) is not None for j in range(y.count(n)))
        if has_labels and counts[n]:
            labels[n] = [
                f"({x.name(SimplexId(n, xi))},{y.name(SimplexId(n, yi))})"
                for xi in range(x.count(n))
                for yi in range(y.count(n))
            ]
    underlying = TruncatedComplex.create(bound, counts, faces, labels)

    coh = {
        n: {xi * y.count(n) + yi for xi in r.coh[n] for yi in s.coh[n]}
        for n in range(bound + 1)
    }

    def project(h: HornSpec, right_count: int, left: bool) -> HornSpec:
        coords = tuple(
            (f // right_count) if left else (f % right_count) for f in h.faces
        )
        return HornSpec(h.n, h.k, coords)

    gap = {}
    for n in range(1, bound + 1):
        rc = y.count(n - 1)
        for k in range(n + 1):
            for h in enumerate_horns(underlying, n, k):
                hx = project(h, rc, True)
                hy = project(h, rc, False)
                if hx in r.gap or hy in s.gap:
                    gap[h] = r.gap.get(hx) or s.gap.get(hy)
    result = RupturedComplex.create(underlying, coh, gap, gap)
    conflicts = validate_exclusion(result)
    if conflicts:
        raise ExclusionError(
            "product gap structure conflicts with componentwise coherence",
            conflicts,
        )
    return result


def check_morphism(
    f: SimplicialMap, r: RupturedComplex, s: RupturedComplex
) -> list[Violation]:
    """Report for a rupture-preserving morphism: the map must commute with
    faces, send Coh into Coh, and send gapped horns to gapped horns."""
    report = list(check_simplicial_map(f, r.underlying, s.underlying))
    if report:
        return report
    for n in range(f.top_dim + 1):
        for i in sorted(r.coh[n]):
            img = f.apply(SimplexId(n, i))
            if not s.is_coherent(img):
                report.append(
                    Violation(
                        "coherence-preservation",
                        f"coherent {n}/{i} maps to non-coherent {img}",
                    )
                )
    for h in sorted(r.gap):
        img = f.apply_horn(h)
        if img not in s.gap:
            report.append(
                Violation(
                    "gap-preservation",
                    f"gapped {h} maps to non-gapped {img}",
                )
            )
    return report
