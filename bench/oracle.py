"""Brute-force reference answers that do not go through the code under test.

Every function here reads the raw data of a structure (``counts``,
``face_table``, ``coh``, ``gap``) and recomputes an answer with plain
scans and lookups, in the style of ``oracle_exclusion_conflicts`` in the test suite.
The benchmark compares the kernel's results against these answers.
"""

from __future__ import annotations


def count(x, n: int) -> int:
    return x.counts[n] if 0 <= n < len(x.counts) else 0


def face(x, n: int, idx: int, i: int) -> int:
    """Index of d_i of simplex (n, idx), read from the face table."""
    return x.face_table[n - 1][idx][i]


def horns(x, n: int, k: int) -> list[tuple[int, ...]]:
    """Every boundary-compatible (n, k)-horn as its face tuple (ascending
    present index), in lexicographic order, by backtracking over faces."""
    present = [i for i in range(n + 1) if i != k]
    m = count(x, n - 1)
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def fits(pos: int, f: int) -> bool:
        if n < 2:
            return True
        j = present[pos]
        for q in range(pos):
            i, g = present[q], chosen[q]
            # i < j: d_i(faces[j]) == d_{j-1}(faces[i])
            if face(x, n - 1, f, i) != face(x, n - 1, g, j - 1):
                return False
        return True

    def extend(pos: int) -> None:
        if pos == len(present):
            out.append(tuple(chosen))
            return
        for f in range(m):
            if fits(pos, f):
                chosen.append(f)
                extend(pos + 1)
                chosen.pop()

    extend(0)
    return out


def all_horns(x) -> list[tuple[int, int, tuple[int, ...]]]:
    """(n, k, faces) for every horn of every dimension 1..dim_bound."""
    return [
        (n, k, faces)
        for n in range(1, len(x.counts))
        for k in range(n + 1)
        for faces in horns(x, n, k)
    ]


def filler_table(x) -> dict[tuple, list[int]]:
    """(n, k, faces) -> ascending indices of the n-simplices that fill that
    horn: simplex (n, idx) fills (n, k, its face row without entry k)."""
    table: dict[tuple, list[int]] = {}
    for n in range(1, len(x.counts)):
        for idx, row in enumerate(x.face_table[n - 1]):
            for k in range(n + 1):
                table.setdefault((n, k, row[:k] + row[k + 1:]), []).append(idx)
    return table


def classify(table, coh, gapped, key) -> tuple:
    """("coherent", fillers) | ("gapped",) | ("open",) for the horn ``key``
    = (n, k, faces), given the coherent index sets and the gapped keys."""
    coherent = tuple(i for i in table.get(key, ()) if i in coh[key[0]])
    if coherent:
        return ("coherent", coherent)
    if key in gapped:
        return ("gapped",)
    return ("open",)


def exclusion_conflicts(table, coh, gapped) -> int:
    """Number of (gapped horn, coherent filler) pairs."""
    return sum(1 for key in gapped for idx in table.get(key, ()) if idx in coh[key[0]])


def fills_gapped(x, gapped, n: int, idx: int) -> bool:
    """True when simplex (n, idx) fills some gapped horn, so marking it
    coherent would break Exclusion."""
    if n == 0:
        return False
    row = x.face_table[n - 1][idx]
    return any((n, k, row[:k] + row[k + 1:]) in gapped for k in range(n + 1))


def face_closure(underlying, coh) -> list[list[int]]:
    """Sorted indices per dimension of the face closure of Coh."""
    top = len(underlying.counts) - 1
    keep = [set(coh[n]) for n in range(top + 1)]
    for n in range(top, 0, -1):
        for idx in keep[n]:
            keep[n - 1].update(underlying.face_table[n - 1][idx])
    return [sorted(level) for level in keep]


def vertex_set(x, n: int, idx: int) -> set[int]:
    level = {idx}
    for m in range(n, 0, -1):
        level = {f for s in level for f in x.face_table[m - 1][s]}
    return level


def fiber_levels(total, vertex_image, b: int) -> list[list[int]]:
    """Indices per dimension of the total-space simplices all of whose
    vertices map to base vertex ``b``."""
    return [
        [
            idx
            for idx in range(count(total, n))
            if all(vertex_image[v] == b for v in vertex_set(total, n, idx))
        ]
        for n in range(len(total.counts))
    ]


def transport(total, total_coh, edge_image, gap_keys, w: int, b: int) -> tuple:
    """("coherent", target, multiplicity) | ("gapped",) | ("open",) for
    transporting vertex ``w`` along base edge ``b`` by scanning the edges."""
    lifts = [
        te
        for te in range(count(total, 1))
        if te in total_coh[1]
        and face(total, 1, te, 1) == w
        and edge_image[te] == b
    ]
    if lifts:
        return ("coherent", face(total, 1, min(lifts), 0), len(lifts))
    if (w, b) in gap_keys:
        return ("gapped",)
    return ("open",)


def term_uses(term) -> list[str]:
    """Variable occurrences of a term, left to right."""
    name = type(term).__name__
    if name == "Var":
        return [term.name]
    if name == "UnitTerm":
        return []
    return term_uses(term.left) + term_uses(term.right)


def shape_ok(types: dict, term, goal) -> bool:
    name = type(term).__name__
    if name == "Var":
        return types[term.name] == goal
    if name == "UnitTerm":
        return type(goal).__name__ == "UnitType"
    if type(goal).__name__ != "ProdType":
        return False
    return shape_ok(types, term.left, goal.left) and shape_ok(
        types, term.right, goal.right
    )


ANNOTATION_RULES = {
    "linear": lambda c: c == 1,
    "affine": lambda c: c <= 1,
    "relevant": lambda c: c >= 1,
    "exponential": lambda c: True,
}


def derivable(bindings, term, goal) -> tuple[bool, tuple[tuple[str, int], ...]]:
    """(derivable, sorted usage counts) for a term in a context given as
    (name, type, annotation value) triples."""
    uses = term_uses(term)
    counts = {name: uses.count(name) for name, _, _ in bindings}
    ok = all(ANNOTATION_RULES[ann](counts[name]) for name, _, ann in bindings)
    types = {name: t for name, t, _ in bindings}
    return ok and shape_ok(types, term, goal), tuple(sorted(counts.items()))
