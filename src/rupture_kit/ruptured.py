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

from itertools import compress, repeat
from operator import add, itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ExclusionError, KernelError, ShapeError, Violation, record
from .simplicial import (
    HornSpec,
    SimplexId,
    SimplicialMap,
    TruncatedComplex,
    bad_index,
    check_simplicial_map,
    enumerate_horns,
    fitted_horns,
    horn_dims,
    horn_fits,
    horn_of,
    horn_rows,
    horn_violations,
    misfit_runs,
    restrict,
    shape_runs,
    validate_complex,
)


@record
class GapMode:
    """How a horn fails to fill: a kind label plus kind-specific payload.

    Payloads are canonical hashable values: a fiber permutation for
    "monodromy", a tuple of (variable, count) pairs for "resource", a tuple
    of feature strings for "semantic", and None for "plain".
    """

    kind: str
    payload: object = None

    def __new__(cls, kind: str, payload: object = None) -> "GapMode":
        if not kind:
            raise KernelError("gap mode kind must be non-empty")
        return tuple.__new__(cls, (kind, payload))

    def __str__(self) -> str:
        return self.kind


PLAIN = GapMode("plain")


@record
class RupturedComplex:
    """A truncated complex with coherence and gap annotations.

    ``coh[n]`` is the set of coherent simplex indices in dimension n.
    ``gap`` maps each gap-witnessed horn to its mode, None for a plain
    mark: the same table a fibration keeps for its gap-marked problems.
    """

    underlying: TruncatedComplex
    coh: tuple[frozenset[int], ...]
    gap: Mapping[HornSpec, Optional[GapMode]]

    def __new__(
        cls,
        underlying: TruncatedComplex,
        coh: Sequence[Iterable[int]],
        gap: Mapping[HornSpec, Optional[GapMode]],
    ) -> "RupturedComplex":
        """The shape rule of every construction, else :class:`ShapeError`:
        one collection of marks per dimension 0..dim_bound, each mark an
        int (not a bool) naming a simplex of its dimension. The marks are
        stored as frozensets."""
        counts = underlying.counts
        if len(coh) != len(counts):
            raise ShapeError(f"need {len(counts)} coherence levels, got {len(coh)}", "coh")
        for n, marks in enumerate(coh):
            bad = bad_index(marks, n, counts[n])
            if bad:
                raise ShapeError(bad[1], "coh", n)
        return tuple.__new__(cls, (underlying, tuple(map(frozenset, coh)), gap))

    @classmethod
    def create(
        cls,
        underlying: TruncatedComplex,
        coh: Mapping[int, Iterable[int]] | None = None,
        gap: Mapping[HornSpec, Optional[GapMode]] | Iterable[HornSpec] = (),
    ) -> "RupturedComplex":
        """``coh`` maps a dimension in 0..dim_bound to its coherent indices;
        ``gap`` maps each gapped horn to its mode, or lists plain ones."""
        coh, dims = coh or {}, range(underlying.dim_bound + 1)
        for n in coh:
            if n not in dims:
                raise ShapeError(f"dimension {n!r} is outside 0..{dims[-1]}", "coh", n)
        # A mapping has keys, as dict() itself decides.
        gap = dict(gap) if hasattr(gap, "keys") else dict.fromkeys(gap)
        return cls(underlying, [tuple(coh.get(n, ())) for n in dims], gap)

    def is_coherent(self, sid: SimplexId) -> bool:
        return (
            0 <= sid.dim <= self.underlying.dim_bound
            and sid.index in self.coh[sid.dim]
        )

    def with_coherent(self, sid: SimplexId) -> "RupturedComplex":
        """Return a copy with one more coherent simplex.

        Rejected with :class:`ExclusionError` when the simplex fills a
        gap-witnessed horn, since Exclusion would no longer hold.
        """
        if not self.underlying.has(sid):
            raise KernelError(f"no simplex {sid} in the complex")
        conflicts = []
        if sid.dim >= 1:
            x, n = self.underlying, sid.dim
            row = x.face_row(n, sid.index)
            # A HornSpec hashes and compares as its (n, k, faces) tuple, so
            # one is built only for a conflict.
            conflicts = [
                (horn_of(x, sid, k), sid)
                for k in range(n + 1)
                if (n, k, row[:k] + row[k + 1 :]) in self.gap
            ]
        if conflicts:
            raise ExclusionError(
                f"coherent {sid} would fill {len(conflicts)} gap-witnessed horn(s)",
                conflicts,
            )
        per_dim = list(self.coh)
        per_dim[sid.dim] = per_dim[sid.dim] | {sid.index}
        # has(sid) checked the one new mark, so the shape rule is skipped.
        return tuple.__new__(RupturedComplex, (self.underlying, tuple(per_dim), self.gap))


# -- trichotomy --------------------------------------------------------------


@record
class CoherentlyFilled:
    """The horn has at least one coherent filler; all of them are listed."""

    fillers: tuple[SimplexId, ...]

    def __new__(cls, fillers: tuple[SimplexId, ...]) -> "CoherentlyFilled":
        if not fillers:
            raise KernelError("coherent filling needs at least one filler")
        return tuple.__new__(cls, (fillers,))


@record
class GapWitnessed:
    mode: Optional[GapMode] = None


@record
class Open:
    pass


Trichotomy = CoherentlyFilled | GapWitnessed | Open
OPEN = Open()


def decide(solutions, gap: Mapping, key) -> Trichotomy:
    """The one rule behind every trichotomy: coherent solutions first, else
    the gap entry of ``key`` with its mode, else the shared :data:`OPEN`."""
    if solutions:  # CoherentlyFilled's one check; no answer calls a record's __new__
        return tuple.__new__(CoherentlyFilled, (tuple(solutions),))
    if key in gap:
        return tuple.__new__(GapWitnessed, (gap[key],))
    return OPEN


# -- operations --------------------------------------------------------------


def validate_exclusion(r: RupturedComplex) -> list[Violation]:
    """Report every (gapped horn, coherent filler) conflict; empty iff
    Exclusion holds. A gap horn that names no simplex of the complex has no
    filler, so no conflict: :func:`validate_ruptured` reports it."""
    return _exclusion_rows(r, sorted(r.gap))


def _conflicts(r: RupturedComplex, horns) -> Iterator[tuple[HornSpec, SimplexId]]:
    """The (gap horn, coherent filler) pairs of the sorted ``horns``, one run
    of a shape at a time: a run above the bound, or whose dimension has
    nothing coherent, is skipped, so that it builds no filler table."""
    bound = r.underlying.dim_bound
    for n, k, run in shape_runs(horns):
        if n <= bound and (coh := r.coh[n]):
            table = r.underlying.fillers[n - 1][k]
            for h in compress(run, map(table.__contains__, map(itemgetter(2), run))):
                yield from ((h, SimplexId(n, s)) for s in table[h.faces] if s in coh)


def _exclusion_rows(r: RupturedComplex, horns) -> list[Violation]:
    """The report rows of :func:`_conflicts`."""
    return [Violation("exclusion", f"{h} is gap-witnessed but coherent {s} fills it")
            for h, s in _conflicts(r, horns)]


def validate_ruptured(r: RupturedComplex) -> list[Violation]:
    """Full structural report: underlying complex validity, gap horns
    well-formed, and Exclusion. Only a run of one shape that
    :func:`misfit_runs` refuses is checked horn by horn."""
    report = list(validate_complex(r.underlying))
    horns = sorted(r.gap)
    for run in misfit_runs(r.underlying, horns):
        for h in run:
            report.extend(horn_violations(r.underlying, h))
    if not report:
        report.extend(_exclusion_rows(r, horns))
    return report


def classify_horn(r: RupturedComplex, h: HornSpec) -> Trichotomy:
    """The three-way state of a horn.

    Coherently filled (with all coherent fillers) when some filler lies in
    Coh; else gap-witnessed when the horn is in Gap; else open. Fillers
    outside Coh never count as coherent filling.
    """
    if not horn_fits(r.underlying, h):
        raise KernelError("; ".join(v.message for v in horn_violations(r.underlying, h)))
    # The horn fits, so its fillers are read without a second check; most
    # horns have none, and then no list is built.
    n, k, faces = h
    fillers = r.underlying.fillers[n - 1][k].get(faces)
    return decide(fillers and [SimplexId(n, s) for s in fillers if s in r.coh[n]], r.gap, h)


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
    gap = [h for n in horn_dims(x, x.dim_bound) for k in range(n + 1)
           for h in enumerate_horns(x, n, k)]
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
    result and a conflict raises :class:`ExclusionError`, with its (gap
    horn, coherent filler) pairs, rather than being silently repaired.
    """
    x, y = r.underlying, s.underlying
    bound = min(x.dim_bound, y.dim_bound)
    counts = [x.counts[n] * y.counts[n] for n in range(bound + 1)]
    table = [
        [tuple(map(add, shifted, yrow))
         for xrow in xrows for shifted in [[f * y.counts[n - 1] for f in xrow]] for yrow in yrows]
        for n, xrows, yrows in zip(range(1, bound + 1), x.face_table, y.face_table)
    ]
    labels = [
        [f"({a},{b})" for a in _names(xn, n, x.counts[n]) for b in _names(yn, n, y.counts[n])]
        if counts[n] and (xn or yn) else None
        for n, xn, yn in zip(range(bound + 1), x.labels or repeat(None), y.labels or repeat(None))
    ]
    underlying = TruncatedComplex(bound, counts, table, labels)

    coh = {
        n: {xi * y.counts[n] + yi for xi in r.coh[n] for yi in s.coh[n]}
        for n in range(bound + 1)
    }

    # Face rows are componentwise, so the product's (n, k)-horns are exactly
    # the pairs of factor (n, k)-horns; a pair whose left horn is not gapped
    # is gapped only through its right horn. Only a dimension with a
    # coherent simplex can hold a conflict, so only its horns are checked.
    gap, checked = {}, []
    for n in horn_dims(underlying, bound):
        rc = y.counts[n - 1]
        for k in range(n + 1):
            right = [(b, s.gap.get((n, k, b))) for b in horn_rows(y, n, k)]
            right_gapped = [(b, mode) for b, mode in right if (n, k, b) in s.gap]
            rows, modes = [], []
            for a in horn_rows(x, n, k):
                shifted, left = [f * rc for f in a], r.gap.get((n, k, a))
                for b, mode in right if (n, k, a) in r.gap else right_gapped:
                    rows.append(tuple(map(add, shifted, b)))
                    modes.append(left or mode)
            horns = list(fitted_horns(n, k, rows))
            gap.update(zip(horns, modes))
            if coh[n]:
                checked += horns
    result = RupturedComplex.create(underlying, coh, gap)
    conflicts = tuple(_conflicts(result, sorted(checked)))
    if conflicts:
        raise ExclusionError(
            "product gap structure conflicts with componentwise coherence",
            conflicts,
        )
    return result


def _names(names: Optional[tuple[str, ...]], n: int, count: int) -> list[str]:
    """The :meth:`TruncatedComplex.name` of each of ``count`` n-simplices
    with the labels ``names``: the label unless it is absent or empty."""
    return [name or f"{n}/{i}" for i, name in enumerate(names or repeat(None, count))]


def check_morphism(
    f: SimplicialMap, r: RupturedComplex, s: RupturedComplex
) -> list[Violation]:
    """Report for a rupture-preserving morphism: the map must commute with
    faces, send Coh into Coh, and send gapped horns to gapped horns. A gap
    horn of r that does not fit its complex (:func:`horn_fits`) gets its
    :func:`horn_violations` rows in place of a gap-preservation check, and
    one whose faces lie above the map's top dimension has no image, which
    is a gap-preservation violation."""
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
    x = r.underlying
    for h in sorted(r.gap):
        if not horn_fits(x, h):
            report.extend(horn_violations(x, h))
            continue
        if h.n - 1 > f.top_dim:
            report.append(
                Violation(
                    "gap-preservation",
                    f"gapped {h} has no image: the map stops at dimension {f.top_dim}",
                )
            )
            continue
        img = f.apply_horn(h)
        if img not in s.gap:
            report.append(
                Violation(
                    "gap-preservation",
                    f"gapped {h} maps to non-gapped {img}",
                )
            )
    return report
