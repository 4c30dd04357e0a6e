"""Finite face-map-only simplicial structures.

A complex stores, for each dimension n up to a truncation bound, a finite
set of n-simplices indexed 0..count-1, and for n >= 1 the ordered face list
of each simplex: entry i is d_i, a simplex of dimension n-1. Degeneracy
maps are deliberately absent, so every enumeration below is exhaustive over
finite data.

Orientation of edges follows the face indices: for an edge e, d_1(e) is the
source vertex and d_0(e) the target.

Horns are partial simplices: a (n, k)-horn assigns a face to every index
i != k, and a filler is an n-simplex whose i-th face matches the assignment
for each present i. One-dimensional horn complexes are anchored so that the
(1, 1)-horn retains the source vertex {0} and the (1, 0)-horn the target
vertex {1}, matching the anchoring used by transport problems.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain, combinations, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import KernelError, ShapeError, ShapeTables, Violation, named_tuple, record


@named_tuple
class SimplexId:
    """Identity of a simplex inside one complex: (dimension, index).

    A tuple: it equals, hashes and orders as the plain pair."""

    dim: int
    index: int

    def __str__(self) -> str:
        return f"{self.dim}/{self.index}"


@named_tuple
class HornSpec:
    """A (n, k)-horn: faces for every index i != k, the k-th face missing.

    ``faces`` lists the assigned face indices (into dimension n-1) for the
    present indices in ascending order of i. A horn is the tuple
    (n, k, faces), so ordering is lexicographic on (n, k, faces).
    """

    n: int
    k: int
    faces: tuple[int, ...]

    def __new__(cls, n: int, k: int, faces: tuple[int, ...]) -> "HornSpec":
        if not (n >= 1 and 0 <= k <= n):
            raise KernelError(f"horn index k={k} out of range for n={n}")
        if len(faces) != n:
            raise KernelError(f"(n={n}, k={k})-horn needs {n} faces, got {len(faces)}")
        return tuple.__new__(cls, (n, k, faces))

    @property
    def present_indices(self) -> tuple[int, ...]:
        return (*range(self.k), *range(self.k + 1, self.n + 1))

    def face(self, i: int) -> int:
        """Assigned face index at position i (i != k)."""
        if i == self.k or not 0 <= i <= self.n:
            raise KernelError(f"horn has no face at index {i}")
        return self.faces[i if i < self.k else i - 1]

    def face_map(self) -> dict[int, int]:
        return dict(zip(self.present_indices, self.faces))

    @classmethod
    def from_mapping(cls, n: int, k: int, mapping: Mapping[int, int]) -> "HornSpec":
        present = tuple(i for i in range(n + 1) if i != k)
        if set(mapping) != set(present):
            raise KernelError(
                f"(n={n}, k={k})-horn needs faces exactly at indices {present}"
            )
        return cls(n, k, tuple(mapping[i] for i in present))

    def __str__(self) -> str:
        inner = ", ".join(f"{i}:{f}" for i, f in zip(self.present_indices, self.faces))
        return f"horn(n={self.n}, k={self.k}, faces={{{inner}}})"


def fitted_horn(n: int, k: int, faces: tuple[int, ...]) -> HornSpec:
    """A horn whose caller has checked its shape: n >= 1, 0 <= k <= n, n faces."""
    return tuple.__new__(HornSpec, (n, k, faces))


def fitted_horns(n: int, k: int, rows: Iterable[tuple[int, ...]]) -> Iterator[HornSpec]:
    """A :func:`fitted_horn` per face tuple of ``rows``, in one C-level map."""
    return map(tuple.__new__, repeat(HornSpec), zip(repeat(n), repeat(k), rows))


@record
class TruncatedComplex:
    """A finite simplicial structure truncated at ``dim_bound``.

    ``counts[n]`` is the number of n-simplices. ``face_table[n-1][i]`` holds
    the ordered face indices (d_0 .. d_n) of simplex (n, i), each an index
    into dimension n-1. ``labels`` is ``()`` when no dimension is labelled,
    else one entry per dimension: None, or a tuple of one human-readable
    name per simplex. Labels are metadata only and carry no semantics."""

    dim_bound: int
    counts: tuple[int, ...]
    face_table: tuple[tuple[tuple[int, ...], ...], ...]
    labels: tuple[Optional[tuple[str, ...]], ...] = ()

    def __new__(
        cls,
        dim_bound: int,
        counts: Sequence[int],
        face_table: Sequence[Sequence[Sequence[int]]],
        labels: tuple[Optional[tuple[str, ...]], ...] = (),
    ) -> "TruncatedComplex":
        """The shape rule of every construction, else :class:`ShapeError`:
        ``dim_bound + 1`` counts; for each n >= 1, one face row per
        n-simplex, each n + 1 ints (not bools) naming (n-1)-simplices; and at
        most ``dim_bound + 1`` label entries, each None or one string per
        simplex of its dimension. A list may stand for a tuple; rows and
        labels are stored as tuples, and the labels in the class's form."""
        d, counts, table = dim_bound, tuple(counts), face_table
        if type(d) is not int or d < 0:
            raise ShapeError("dim_bound must be a non-negative integer", "dim_bound")
        if len(counts) != d + 1 or any(type(c) is not int or c < 0 for c in counts):
            raise ShapeError(f"need {d + 1} non-negative counts, got {list(counts)}", "counts")
        if len(table) != d:
            raise ShapeError(f"need {d} face row lists, got {len(table)}", "faces")
        for n, rows in enumerate(table, 1):
            count, below, width = counts[n], counts[n - 1], n + 1
            if type(rows) not in (list, tuple):
                raise ShapeError("expected a list of face rows", "faces", n)
            if len(rows) != count:
                reason = f"{count} simplices need {count} face rows, got {len(rows)}"
                raise ShapeError(reason, "faces", n)
            if (
                set(map(type, rows)) <= {list, tuple}
                and set(map(len, rows)) <= {width}
                and not bad_index(list(chain.from_iterable(rows)), n - 1, below)
            ):
                continue
            for i, row in enumerate(rows):  # the first row that does not fit
                if type(row) not in (list, tuple):
                    raise ShapeError("face row must be a list", "faces", n, i)
                if len(row) != width:
                    reason = f"face row needs {width} entries, got {len(row)}"
                    raise ShapeError(reason, "faces", n, i)
                bad = bad_index(row, n - 1, below)
                if bad:
                    raise ShapeError(bad[1], "faces", n, i)
        table = tuple(tuple(map(tuple, rows)) for rows in table)
        if len(labels) > d + 1:
            raise ShapeError(f"dimension {d + 1} is outside 0..{d}", "simplices", d + 1)
        for n, names in enumerate(labels):
            if names is None:
                continue
            if type(names) not in (list, tuple):
                raise ShapeError("expected a list of labels", "simplices", n)
            if len(names) != counts[n]:
                reason = f"{counts[n]} simplices need {counts[n]} labels, got {len(names)}"
                raise ShapeError(reason, "simplices", n)
            if not set(map(type, names)) <= {str}:
                raise ShapeError("labels must be strings", "simplices", n)
        if not any(names is not None for names in labels):
            return tuple.__new__(cls, (d, counts, table, ()))
        labels = (*(names if names is None else tuple(names) for names in labels),
                  *(None,) * (d + 1 - len(labels)))
        return tuple.__new__(cls, (d, counts, table, labels))

    @classmethod
    def create(
        cls,
        dim_bound: int,
        counts: Sequence[int],
        faces: Mapping[int, Sequence[Sequence[int]]] | None = None,
        labels: Mapping[int, Sequence[str]] | None = None,
    ) -> "TruncatedComplex":
        """Build a complex from per-dimension counts and face lists.

        ``faces[n]`` lists, for each n-simplex in index order, its d_0..d_n
        face indices. The constructor checks their shape, and a ``faces``
        key outside 1..dim_bound or a ``labels`` key outside 0..dim_bound
        is a :class:`ShapeError`; run :func:`validate_complex` to check the
        simplicial identities.
        """
        faces, labels = faces or {}, labels or {}
        for keys, part, low in ((faces, "faces", 1), (labels, "simplices", 0)):
            for n in keys:
                if n not in range(low, dim_bound + 1):
                    raise ShapeError(f"dimension {n!r} is outside {low}..{dim_bound}", part, n)
        table = tuple(faces.get(n, ()) for n in range(1, dim_bound + 1))
        names = tuple(tuple(labels[n]) if n in labels else None for n in range(dim_bound + 1))
        return cls(dim_bound, counts, table, names)

    # -- basic queries -----------------------------------------------------

    def count(self, n: int) -> int:
        if 0 <= n <= self.dim_bound:
            return self.counts[n]
        return 0

    def has(self, sid: SimplexId) -> bool:
        return 0 <= sid.dim <= self.dim_bound and 0 <= sid.index < self.counts[sid.dim]

    def face_row(self, n: int, index: int) -> tuple[int, ...]:
        return self.face_table[n - 1][index]

    def face(self, sid: SimplexId, i: int) -> SimplexId:
        """d_i of a simplex of dimension >= 1."""
        if sid.dim < 1:
            raise KernelError(f"simplex {sid} has no faces")
        if not self.has(sid):
            raise KernelError(f"no simplex {sid} in the complex")
        row = self.face_row(sid.dim, sid.index)
        if not 0 <= i < len(row):
            raise KernelError(f"face index {i} out of range for {sid}")
        return SimplexId(sid.dim - 1, row[i])

    def label(self, sid: SimplexId) -> Optional[str]:
        """The label of a simplex of the complex; None in an unlabelled dimension."""
        names = self.labels[sid.dim] if self.labels and self.has(sid) else None
        return None if names is None else names[sid.index]

    def name(self, sid: SimplexId) -> str:
        """Label when present, else the dim/index form."""
        return self.label(sid) or str(sid)

    @cached_property
    def fillers(self) -> tuple[tuple[dict[tuple[int, ...], tuple[int, ...]], ...], ...]:
        """``fillers[n - 1][k]``, for n in :func:`horn_dims`, maps a face row
        with entry k dropped to the ascending indices of the n-simplices
        filling that (n, k)-horn; built on first use, kept in ``__dict__``."""
        return tuple(
            tuple(_positions(row[:k] + row[k + 1 :] for row in rows) for k in range(n + 1))
            for n, rows in zip(horn_dims(self, self.dim_bound), self.face_table)
        )

    @cached_property
    def cofaces(self) -> tuple[dict[int, tuple[int, ...]], ...]:
        """``cofaces[n - 1]`` maps an (n-1)-simplex to the ascending indices of
        the n-simplices whose d_0 it is; built on first use, for fibers."""
        return tuple(_positions(map(itemgetter(0), rows)) for rows in self.face_table)


def _positions(keys: Iterable) -> dict:
    """Each key mapped to the tuple of its positions in ``keys``, ascending."""
    table: dict = {}
    for idx, key in enumerate(keys):
        table.setdefault(key, []).append(idx)
    return {key: tuple(ids) for key, ids in table.items()}


def bad_index(values: Sequence, dim: int, count: int) -> Optional[tuple[int, str]]:
    """The position and reason of the first entry of ``values`` that is not
    the index of one of the ``count`` simplices of dimension ``dim`` (an
    ``int`` in range, not a ``bool``); None, after a few C-level scans,
    when every entry is one."""
    if not values or set(map(type, values)) == {int} and 0 <= min(values) <= max(values) < count:
        return None
    for j, v in enumerate(values):
        if type(v) is not int:
            return j, "expected an integer"
        if not 0 <= v < count:
            return j, f"no simplex {dim}/{v}"


@record
class SimplicialMap:
    """A per-dimension total map of simplex indices between two complexes.

    ``levels[n][i]`` is the target index of source simplex (n, i). The map
    covers dimensions 0..len(levels)-1. It is built without its complexes:
    :func:`shaped_map` checks its levels against them, and
    :func:`check_simplicial_map` whether it commutes with faces.
    """

    levels: tuple[tuple[int, ...], ...]

    @property
    def top_dim(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> tuple[int, ...]:
        """The targets of the n-simplices; empty above the top dimension."""
        return self.levels[n] if 0 <= n < len(self.levels) else ()

    def apply(self, sid: SimplexId) -> SimplexId:
        dim, index = sid
        if not 0 <= dim <= self.top_dim or not 0 <= index < len(self.levels[dim]):
            raise KernelError(f"map not defined on {sid}")
        return SimplexId(dim, self.levels[dim][index])

    def apply_horn(self, h: HornSpec) -> HornSpec:
        d = h.n - 1
        level = self.level(d)
        size = len(level)
        for f in h.faces:
            if not 0 <= f < size:
                raise KernelError(f"map not defined on {d}/{f}")
        return HornSpec(h.n, h.k, tuple([level[f] for f in h.faces]))

    @classmethod
    def identity(cls, x: TruncatedComplex) -> "SimplicialMap":
        return cls(tuple(tuple(range(x.count(n))) for n in range(x.dim_bound + 1)))

    @classmethod
    def compose(cls, outer: "SimplicialMap", inner: "SimplicialMap") -> "SimplicialMap":
        """outer after inner, defined up to the smaller top dimension."""
        levels = []
        for n in range(min(outer.top_dim, inner.top_dim) + 1):
            level, targets = outer.levels[n], inner.levels[n]
            if targets and not 0 <= min(targets) <= max(targets) < len(level):
                j = next(j for j in targets if not 0 <= j < len(level))
                raise KernelError(f"map not defined on {n}/{j}")
            levels.append(tuple([level[j] for j in targets]))
        return cls(tuple(levels))


# -- the shared rules -------------------------------------------------------


def shaped_map(f: SimplicialMap, x: TruncatedComplex, y: TruncatedComplex) -> SimplicialMap:
    """The map-level rule of f: X -> Y, else :class:`ShapeError` at the first
    failing position: a level for each dimension both complexes share, each
    one int (not a bool) per simplex of X (the total space) naming a simplex
    of Y. A list may stand for a tuple; f is returned with tuple levels."""
    top, levels = min(x.dim_bound, y.dim_bound), f.levels
    if len(levels) != top + 1:
        reason = f"map covers dimensions 0..{len(levels) - 1}, expected 0..{top}"
        raise ShapeError(reason, "map")
    for n, level in enumerate(levels):
        have = x.counts[n]
        if type(level) not in (list, tuple):
            raise ShapeError("expected a list of targets", "map", n)
        if len(level) > have:
            raise ShapeError(f"the total space has no simplex {n}/{have}", "map", n, have)
        if len(level) != have:
            reason = f"map covers {len(level)} of {have} simplices of the total space"
            raise ShapeError(reason, "map", n)
        bad = bad_index(level, n, y.counts[n])
        if bad:
            raise ShapeError(bad[1], "map", n, bad[0])
    if type(levels) is not tuple or any(type(level) is not tuple for level in levels):
        return SimplicialMap(tuple(map(tuple, levels)))
    return f


def horn_of(x: TruncatedComplex, sid: SimplexId, k: int) -> HornSpec:
    """The (n, k)-horn a simplex fills: its face row with entry k dropped."""
    row = x.face_row(sid.dim, sid.index)
    return HornSpec(sid.dim, k, row[:k] + row[k + 1 :])


def restrict(
    x: TruncatedComplex, keep: Sequence[Iterable[int]]
) -> tuple[TruncatedComplex, SimplicialMap]:
    """The sub-complex on the kept simplices, with its inclusion map.

    ``keep[n]`` holds the kept n-simplex indices for every n up to the
    bound and must be closed under faces. Kept simplices are renumbered in
    ascending order of their old index; the labels of a labelled dimension
    carry over where some of its simplices are kept.
    """
    if len(keep) != x.dim_bound + 1:
        raise KernelError(f"need {x.dim_bound + 1} kept levels, got {len(keep)}")
    ordered = [sorted(members) for members in keep]
    new_index = [{old: new for new, old in enumerate(level)} for level in ordered]
    table = []
    for n, (rows, level, renumber) in enumerate(zip(x.face_table, ordered[1:], new_index), 1):
        try:
            table.append(tuple([tuple(map(renumber.__getitem__, rows[old])) for old in level]))
        except KeyError as exc:
            raise KernelError(f"keep is not closed under faces: a kept {n}-simplex has "
                              f"the face {n - 1}/{exc.args[0]}, which is not kept") from None
    labels = tuple(
        tuple([names[old] for old in level]) if names is not None and level else None
        for names, level in zip(x.labels, ordered)
    )
    # Kept rows fit the kept counts, so the shape rule is skipped.
    fields = (x.dim_bound, tuple(map(len, ordered)), tuple(table), labels if any(labels) else ())
    sub = tuple.__new__(TruncatedComplex, fields)
    return sub, SimplicialMap(tuple(map(tuple, ordered)))


# -- construction of standard shapes ---------------------------------------


def standard_simplex(n: int, dim_bound: int) -> TruncatedComplex:
    """The standard n-simplex, truncated at ``dim_bound``.

    m-simplices are the strictly increasing (m+1)-subsequences of {0..n};
    d_i deletes the i-th vertex. Cells above the bound are dropped, so
    standard_simplex(3, 2) keeps the 2-skeleton of the 3-simplex.
    """
    if n < 0:
        raise KernelError("n must be non-negative")
    subsets: list[list[tuple[int, ...]]] = []
    index_of: list[dict[tuple[int, ...], int]] = []
    for m in range(dim_bound + 1):
        level = list(combinations(range(n + 1), m + 1))
        subsets.append(level)
        index_of.append({c: i for i, c in enumerate(level)})
    faces = {}
    for m in range(1, dim_bound + 1):
        rows = []
        for combo in subsets[m]:
            rows.append(
                [index_of[m - 1][combo[:i] + combo[i + 1 :]] for i in range(m + 1)]
            )
        faces[m] = rows
    labels = {
        m: ["-".join(str(v) for v in combo) for combo in subsets[m]]
        for m in range(dim_bound + 1)
        if subsets[m]
    }
    return TruncatedComplex.create(
        dim_bound, [len(level) for level in subsets], faces, labels
    )


def horn_complex(n: int, k: int) -> TruncatedComplex:
    """The standard (n, k)-horn as a complex: the n-simplex boundary with
    one (n-1)-face removed, plus all lower simplices.

    For n == 1 the result is a single vertex and follows the anchoring
    convention: (1, 1) retains the source vertex {0}, (1, 0) the target
    vertex {1}.
    """
    if n < 1:
        raise KernelError("horn dimension must be >= 1")
    if not 0 <= k <= n:
        raise KernelError(f"horn index k={k} out of range for n={n}")
    if n == 1:
        kept = 1 - k
        return TruncatedComplex.create(0, [1], labels={0: [str(kept)]})
    boundary = standard_simplex(n, n - 1)
    # (n-1)-faces are listed with the omitted vertex descending: d_k is n - k.
    keep = [range(boundary.count(m)) for m in range(n - 1)]
    keep.append([i for i in range(boundary.count(n - 1)) if i != n - k])
    return restrict(boundary, keep)[0]


# -- validation -------------------------------------------------------------


def _identity_table(n: int, k: int) -> tuple[tuple[int, int, int, int], ...]:
    """The identities d_i d_j = d_{j-1} d_i among the present faces of an
    (n, k)-horn, or of an n-simplex for k = n + 1: (b, a, i, j - 1) for
    present indices i < j at positions a < b, by b and then a, so
    d_i(faces[j]) = d_{j-1}(faces[i]) is entry i of face b's row against
    entry j - 1 of face a's."""
    present = (*range(k), *range(k + 1, n + 1))
    return tuple((b, a, i, j - 1) for b, j in enumerate(present) for a, i in enumerate(present[:b]))


_IDENTITIES = ShapeTables(_identity_table)
# The two sides of each identity of a shape, as getters over the entries
# a * n + m, entry m of the row of face a.
_GETTERS = ShapeTables(lambda n, k: tuple(itemgetter(*side) for side in zip(*[
    (b * n + i, a * n + m) for b, a, i, m in _IDENTITIES[n, k]])))


def validate_complex(x: TruncatedComplex) -> list[Violation]:
    """Check the simplicial identities: empty iff d_i d_j = d_{j-1} d_i
    holds for all i < j on every simplex of dimension >= 2. Face rows that
    do not fit their counts cannot be built, so they need no report."""
    report: list[Violation] = []
    for n, simplices in enumerate(x.face_table[1:], 2):
        if not simplices:
            continue  # no table for an empty dimension: dim_bound may far exceed the input
        rows, identities = x.face_table[n - 2], _IDENTITIES[n, n + 1]
        for idx, row in enumerate(simplices):
            for b, a, i, m in identities:
                if rows[row[b]][i] != rows[row[a]][m]:
                    report.append(Violation(
                        "simplicial-identity", f"d_{i} d_{m + 1} != d_{m} d_{i} on simplex {n}/{idx}"
                    ))
    return report


def horn_fits(x: TruncatedComplex, h: HornSpec) -> bool:
    """True iff :func:`horn_violations` reports nothing: its rule, without a report."""
    n, k, faces = h
    if not 1 <= n <= x.dim_bound or min(faces) < 0 or max(faces) >= x.counts[n - 1]:
        return False
    rows = x.face_table[n - 2]  # unread for n = 1, which has no identity
    for b, a, i, m in _IDENTITIES[n, k]:
        if rows[faces[b]][i] != rows[faces[a]][m]:
            return False
    return True


def horn_violations(x: TruncatedComplex, h: HornSpec) -> list[Violation]:
    """Well-formedness of a horn inside a complex: references and boundary
    compatibility d_i(faces[j]) = d_{j-1}(faces[i]) for present i < j."""
    n, k, faces = h
    if not 1 <= n <= x.dim_bound:
        return [Violation("horn-dimension", f"horn dimension {n} exceeds bound {x.dim_bound}")]
    # The a-th assigned face sits at index i = a if a < k else a + 1.
    count = x.counts[n - 1]
    if min(faces) < 0 or max(faces) >= count:
        return [
            Violation(
                "horn-dangling-face",
                f"{h} face {a if a < k else a + 1} references missing {n - 1}/{f}",
            )
            for a, f in enumerate(faces)
            if not 0 <= f < count
        ]
    report: list[Violation] = []
    rows = x.face_table[n - 2]  # unread for n = 1, which has no identity
    for b, a, i, m in _IDENTITIES[n, k]:
        if rows[faces[b]][i] != rows[faces[a]][m]:
            report.append(Violation(
                "horn-compatibility", f"{h}: d_{i}(faces[{m + 1}]) != d_{m}(faces[{i}])"
            ))
    return report


def shape_runs(horns: Sequence[HornSpec]) -> Iterator[tuple[int, int, Sequence[HornSpec]]]:
    """(n, k, run) for each run of one shape (n, k) of the sorted ``horns``."""
    start, size = 0, len(horns)
    while start < size:
        n, k, _ = horns[start]
        stop = bisect_left(horns, (n, k + 1), start)  # the first horn past the shape
        yield n, k, horns[start:stop]
        start = stop


def misfit_runs(x: TruncatedComplex, horns: Sequence[HornSpec]) -> Iterator[Sequence[HornSpec]]:
    """The runs of :func:`shape_runs` holding a horn that :func:`horn_violations`
    reports, each tested in C-level passes over its face columns."""
    for n, k, run in shape_runs(horns):
        columns = list(zip(*map(itemgetter(2), run)))  # column a: every horn's face a
        if (not 1 <= n <= x.dim_bound or min(map(min, columns)) < 0
                or max(map(max, columns)) >= x.counts[n - 1]):
            yield run
        elif n >= 2:
            rows, (left, right) = x.face_table[n - 2], _GETTERS[n, k]
            entries = [m for column in columns for m in zip(*map(rows.__getitem__, column))]
            if left(entries) != right(entries):
                yield run


# -- horn enumeration and filling -------------------------------------------


def horn_dims(x: TruncatedComplex, top: int) -> range:
    """The n in 1..top where x has (n-1)-simplices, so may have n-horns: as a
    face row names simplices a dimension down, all n up to the first empty."""
    return range(1, min(top, (*x.counts, 0).index(0)) + 1)


def horn_rows(x: TruncatedComplex, n: int, k: int) -> list[tuple[int, ...]]:
    """The face tuples of all boundary-compatible (n, k)-horns of the
    complex, each once, in lexicographic order: the horns of
    :func:`enumerate_horns` without a record per horn.

    Faces are chosen one present index i at a time, ascending. The identity
    with a chosen face g at an earlier index j fixes the new face's d_j to
    d_{i-1}(g), so a table keyed by each face row's entries at the earlier
    indices gives a partial horn all its extensions, ascending, in one probe.
    """
    if not 1 <= n <= x.dim_bound:
        raise KernelError(f"horn dimension {n} not in 1..{x.dim_bound}")
    if not 0 <= k <= n:
        raise KernelError(f"horn index k={k} out of range for n={n}")
    present = (*range(k), *range(k + 1, n + 1))
    rows = x.face_table[n - 2] if n >= 2 else ()
    prefixes = [(f,) for f in range(x.counts[n - 1])]
    for pos in range(1, n):
        i = present[pos]
        key = itemgetter(*present[:pos])  # an int for one index, else a tuple
        extensions: dict = {}
        for f, row in enumerate(rows):
            extensions.setdefault(key(row), []).append(f)
        if pos == 1:
            prefixes = [
                (g, f) for (g,) in prefixes for f in extensions.get(rows[g][i - 1], ())
            ]
        else:
            prefixes = [
                (*p, f)
                for p in prefixes
                for f in extensions.get(tuple([rows[g][i - 1] for g in p]), ())
            ]
    return prefixes


def enumerate_horns(x: TruncatedComplex, n: int, k: int) -> list[HornSpec]:
    """All boundary-compatible (n, k)-horns of the complex, each once, in
    lexicographic order on the assigned face indices: :func:`horn_rows`
    built into :func:`fitted_horns`."""
    return list(fitted_horns(n, k, horn_rows(x, n, k)))


def find_fillers(x: TruncatedComplex, h: HornSpec) -> list[SimplexId]:
    """All n-simplices whose i-th face matches the horn for every present i,
    in ascending index order."""
    n, k, faces = h
    if not 1 <= n <= x.dim_bound or min(faces) < 0 or max(faces) >= x.counts[n - 1]:
        raise KernelError("; ".join(v.message for v in horn_violations(x, h)))
    return [SimplexId(n, idx) for idx in x.fillers[n - 1][k].get(faces, ())]


def is_kan_up_to(
    x: TruncatedComplex, max_dim: int
) -> tuple[bool, Optional[HornSpec]]:
    """Check horn filling for every inner horn of dimension <= max_dim.

    Only inner horns (0 < k < n) are checked: outer and 1-dimensional horn
    specs have fillers only through degenerate simplices, which the
    face-map-only model omits. Returns (True, None) when every inner horn
    has a filler, else (False, first unfilled horn) in (n, k, faces) order.
    The check says nothing about horns above the truncation bound, and a
    ``max_dim`` below 0 or above it raises :class:`KernelError`.
    """
    if max_dim < 0:
        raise KernelError(f"max_dim {max_dim} is negative")
    if max_dim > x.dim_bound:
        raise KernelError(f"max_dim {max_dim} exceeds bound {x.dim_bound}")
    for n in horn_dims(x, max_dim):
        for k in range(1, n):
            filled = x.fillers[n - 1][k]
            for h in enumerate_horns(x, n, k):  # bench/tracing.py counts them here
                if h.faces not in filled:
                    return False, h
    return True, None


def check_simplicial_map(
    f: SimplicialMap, x: TruncatedComplex, y: TruncatedComplex
) -> list[Violation]:
    """Face-commutation report for f: X -> Y: empty iff f(d_i(s)) = d_i(f(s))
    on every simplex of X. Levels that do not fit X -> Y raise
    :class:`ShapeError` from :func:`shaped_map`, as a fibration's
    constructor does, so they need no report."""
    f = shaped_map(f, x, y)
    report: list[Violation] = []
    for n in range(1, f.top_dim + 1):
        below, level = f.levels[n - 1], f.levels[n]
        rows, images = x.face_table[n - 1], y.face_table[n - 1]
        for idx in range(x.count(n)):
            row, image = rows[idx], images[level[idx]]
            for i in range(n + 1):
                if below[row[i]] != image[i]:
                    report.append(
                        Violation(
                            "face-commutation",
                            f"f(d_{i}({n}/{idx})) != d_{i}(f({n}/{idx}))",
                        )
                    )
    return report
