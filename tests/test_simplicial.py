"""Core simplicial machinery: construction, validation, horn enumeration,
filler search, and the Kan check."""

import pickle
import random
from collections import namedtuple
from dataclasses import field, make_dataclass
from itertools import product as cartesian

import pytest

from rupture_kit.covering import CoveringTask, EdgePath, FiberPermutation
from rupture_kit.derivability import (
    Annotation,
    AtomType,
    Binding,
    DerivabilityHorn,
    DerivabilityResult,
    DeriveTask,
    Pair,
    ProdType,
    ResourceContext,
    Substitution,
    UnitTerm,
    UnitType,
    UsageCertificate,
    Var,
)
from rupture_kit.documents import Document, body_to_complex, complex_to_body, parse_document
from rupture_kit.errors import ExclusionError, KernelError, ShapeError, Violation, record
from rupture_kit.fibration import (
    Coherent,
    FunctorialityHornInhabitant,
    Gapped,
    LiftingProblemKey,
    LoopProblem,
    OpenTransport,
    RupturedFibrationData,
    TransportHornInhabitant,
)
from rupture_kit.judgments import (
    ArrowJudgment,
    BaseJudgment,
    HornTriple,
    Polarity,
    ScriptCommand,
    WitnessEntry,
)
from rupture_kit.ruptured import (
    CoherentlyFilled,
    GapMode,
    GapWitnessed,
    Open,
    RupturedComplex,
    fully_gapped,
    from_kan,
    product,
)
from rupture_kit.simplicial import (
    HornSpec,
    SimplexId,
    SimplicialMap,
    TruncatedComplex,
    bad_index,
    check_simplicial_map,
    enumerate_horns,
    find_fillers,
    horn_complex,
    horn_of,
    horn_violations,
    is_kan_up_to,
    restrict,
    standard_simplex,
    validate_complex,
)
from rupture_kit import simplicial
from rupture_kit.covering import build_cycle, build_double_cover

from support import random_complex, random_ruptured


def doubled_triangle():
    """Two parallel 2-cells over the same three edges."""
    d2 = standard_simplex(2, 2)
    faces = {1: [list(d2.face_row(1, i)) for i in range(3)], 2: [[2, 1, 0], [2, 1, 0]]}
    return TruncatedComplex.create(2, [3, 3, 2], faces)


class TestStandardSimplex:
    def test_triangle_counts(self):
        d2 = standard_simplex(2, 2)
        assert [d2.count(n) for n in range(3)] == [3, 3, 1]

    def test_point(self):
        pt = standard_simplex(0, 0)
        assert pt.dim_bound == 0 and pt.count(0) == 1

    def test_truncation_drops_top_cell(self):
        # brute-force oracle: (m+1)-subsets of {0..3}
        from math import comb

        d3 = standard_simplex(3, 2)
        assert [d3.count(n) for n in range(3)] == [comb(4, 1), comb(4, 2), comb(4, 3)]
        assert d3.dim_bound == 2

    def test_validates(self):
        for n, bound in [(0, 0), (1, 1), (2, 2), (3, 2), (3, 3), (4, 3)]:
            assert validate_complex(standard_simplex(n, bound)) == []

    def test_rejects_negative(self):
        with pytest.raises(KernelError):
            standard_simplex(-1, 2)
        with pytest.raises(ShapeError, match="^dim_bound must be a non-negative integer"):
            standard_simplex(2, -1)


class TestHornComplex:
    def test_inner_two_horn(self):
        h = horn_complex(2, 1)
        assert [h.count(0), h.count(1)] == [3, 2]
        assert h.labels[1] == ("0-1", "1-2")

    def test_outer_two_horns(self):
        assert horn_complex(2, 0).labels[1] == ("0-1", "0-2")
        assert horn_complex(2, 2).labels[1] == ("0-2", "1-2")

    def test_one_horns_anchor(self):
        assert horn_complex(1, 1).labels[0] == ("0",)
        assert horn_complex(1, 0).labels[0] == ("1",)
        assert horn_complex(1, 1).count(0) == 1

    def test_three_horn(self):
        h = horn_complex(3, 1)
        assert [h.count(n) for n in range(3)] == [4, 6, 3]
        assert validate_complex(h) == []

    def test_rejects_bad_k(self):
        with pytest.raises(KernelError):
            horn_complex(2, 3)


class TestValidateComplex:
    def test_broken_identity_reported(self):
        d2 = standard_simplex(2, 2)
        # swap one face of the 2-cell so d_i d_j identities fail
        faces = {1: [list(d2.face_row(1, i)) for i in range(3)], 2: [[0, 1, 0]]}
        broken = TruncatedComplex.create(2, [3, 3, 1], faces)
        report = validate_complex(broken)
        assert report and all(v.kind == "simplicial-identity" for v in report)

    def test_dangling_reference_reported(self):
        # refused when built, naming the missing target and the row
        with pytest.raises(ShapeError) as err:
            TruncatedComplex.create(1, [2, 1], {1: [[5, 0]]})
        assert str(err.value) == "no simplex 0/5 (at faces.1[0])"
        assert (err.value.reason, err.value.path) == ("no simplex 0/5", ("faces", 1, 0))

    def test_identity_holds_exhaustively_on_random_complexes(self):
        rng = random.Random(11)
        for _ in range(50):
            x = random_complex(rng)
            assert validate_complex(x) == []
            for idx in range(x.count(2)):
                sid = SimplexId(2, idx)
                for j in range(3):
                    for i in range(j):
                        assert x.face(x.face(sid, j), i) == x.face(
                            x.face(sid, i), j - 1
                        )


def seeded_complex(rng):
    """A 3-dimensional complex on at most three vertices with face rows drawn
    at random, so horns are plentiful and most identities fail."""
    counts, faces = [rng.randint(1, 3)], {}
    for n in (1, 2, 3):
        counts.append(rng.randint(0, 7) if counts[-1] else 0)
        faces[n] = [
            [rng.randrange(counts[n - 1]) for _ in range(n + 1)] for _ in range(counts[n])
        ]
    return TruncatedComplex.create(3, counts, faces)


def cartesian_horns(x, n, k):
    """The (n, k)-horns of x by brute force: every n-tuple of (n-1)-simplices,
    kept when d_i(faces[j]) = d_{j-1}(faces[i]) for present i < j."""
    present = [i for i in range(n + 1) if i != k]
    rows = x.face_table[n - 2] if n >= 2 else ()
    horns = []
    for combo in cartesian(range(x.count(n - 1)), repeat=n):
        fm = dict(zip(present, combo))
        if all(rows[fm[j]][i] == rows[fm[i]][j - 1] for i in present for j in present if i < j):
            horns.append(HornSpec(n, k, combo))
    return horns


def assert_enumerates_the_oracle(x) -> dict[int, int]:
    """Every (n, k) with n <= 3 enumerates the brute-force horns, in order,
    as plain HornSpecs; the number of horns of each n."""
    sizes = {}
    for n in range(1, min(x.dim_bound, 3) + 1):
        sizes[n] = 0
        for k in range(n + 1):
            got = enumerate_horns(x, n, k)
            assert got == cartesian_horns(x, n, k), (n, k)
            for h in got:
                assert type(h) is HornSpec and type(h.faces) is tuple
                assert {type(h.n), type(h.k), *map(type, h.faces)} == {int}
            sizes[n] += len(got)
    return sizes


class TestEnumerateHorns:
    def test_circle_inner_horns(self):
        circle = build_cycle(3)
        horns = enumerate_horns(circle, 2, 1)
        assert len(horns) == 3
        assert horns == sorted(horns)

    def test_triangle_inner_horn_includes_top_cell_boundary(self):
        d2 = standard_simplex(2, 2)
        horns = enumerate_horns(d2, 2, 1)
        row = d2.face_row(2, 0)
        assert HornSpec.from_mapping(2, 1, {0: row[0], 2: row[2]}) in horns

    def test_no_edges_no_two_horns(self):
        x = TruncatedComplex.create(2, [3, 0, 0])
        for k in range(3):
            assert enumerate_horns(x, 2, k) == []

    def test_oracle_full_cartesian_filter(self):
        rng = random.Random(23)
        for _ in range(20):
            x = random_complex(rng, max_vertices=5, max_edges=8, max_triangles=4)
            assert_enumerates_the_oracle(x)

    def test_oracle_up_to_three_on_seeded_complexes(self):
        # face rows drawn at random break the simplicial identities, which
        # enumeration does not assume
        rng = random.Random(29)
        sizes = [assert_enumerates_the_oracle(seeded_complex(rng)) for _ in range(40)]
        assert sum(size[3] for size in sizes) >= 500
        assert sum(size[2] for size in sizes) >= 500

    def test_oracle_up_to_three_on_restricted_simplices(self):
        rng = random.Random(31)
        x = standard_simplex(5, 3)
        sizes = []
        for share in (0.1, 0.15, 0.2, 0.3, 0.5, 0.7):
            keep = [{i for i in range(x.count(n)) if rng.random() < share} for n in range(4)]
            for n in range(3, 0, -1):
                for idx in keep[n]:
                    keep[n - 1].update(x.face_row(n, idx))
            sizes.append(assert_enumerates_the_oracle(restrict(x, keep)[0]))
        assert sum(size[3] for size in sizes) >= 100

    def test_rejects_out_of_range(self):
        d2 = standard_simplex(2, 2)
        with pytest.raises(KernelError):
            enumerate_horns(d2, 3, 0)
        with pytest.raises(KernelError):
            enumerate_horns(d2, 2, 5)


class TestFindFillers:
    def test_triangle_inner_horn_unique_filler(self):
        d2 = standard_simplex(2, 2)
        (horn,) = enumerate_horns(d2, 2, 1)
        assert find_fillers(d2, horn) == [SimplexId(2, 0)]

    def test_circle_has_no_fillers(self):
        circle = build_cycle(3)
        for horn in enumerate_horns(circle, 2, 1):
            assert find_fillers(circle, horn) == []

    def test_parallel_cells_both_listed(self):
        x = doubled_triangle()
        horn = HornSpec.from_mapping(2, 1, {0: 2, 2: 0})
        assert find_fillers(x, horn) == [SimplexId(2, 0), SimplexId(2, 1)]

    def test_rejects_dangling_horn(self):
        d2 = standard_simplex(2, 2)
        with pytest.raises(KernelError):
            find_fillers(d2, HornSpec.from_mapping(2, 1, {0: 9, 2: 0}))

    def test_oracle_equivalence(self):
        # every returned filler satisfies the face predicate and the full
        # scan finds no others
        rng = random.Random(5)
        for _ in range(20):
            x = random_complex(rng)
            for k in range(3):
                for horn in enumerate_horns(x, 2, k):
                    got = find_fillers(x, horn)
                    fm = horn.face_map()
                    ref = [
                        SimplexId(2, i)
                        for i in range(x.count(2))
                        if all(x.face_row(2, i)[j] == f for j, f in fm.items())
                    ]
                    assert got == ref


    def test_index_matches_slice_scan(self):
        # the indexed lookup against comparing every face row with entry k
        # dropped, on random complexes, complexes reached through
        # with_coherent and complexes built by product
        rng = random.Random(47)

        def scan(x, h):
            rows = x.face_table[h.n - 1]
            return [SimplexId(h.n, i) for i, row in enumerate(rows)
                    if row[: h.k] + row[h.k + 1 :] == h.faces]

        def horns(x):
            for n in range(1, x.dim_bound + 1):
                for k in range(n + 1):
                    yield from enumerate_horns(x, n, k)
                    for i in range(x.count(n)):
                        yield horn_of(x, SimplexId(n, i), k)
                    if x.count(n - 1):
                        for _ in range(3):
                            faces = tuple(rng.randrange(x.count(n - 1)) for _ in range(n))
                            yield HornSpec(n, k, faces)

        checked = 0
        for _ in range(30):
            r, s = random_ruptured(rng), random_ruptured(rng)
            x = r.underlying
            sid = SimplexId(2, 0) if x.count(2) else SimplexId(0, 0)
            try:
                grown = r.with_coherent(sid)
            except ExclusionError:
                grown = r
            for y in (x, grown.underlying, product(r, s).underlying):
                for h in horns(y):
                    assert find_fillers(y, h) == scan(y, h), h
                    checked += 1
            for h in horns(grown.underlying):
                want = [f for f in scan(x, h) if f.index in grown.coh[h.n]]
                got = find_fillers(grown.underlying, h)
                assert [f for f in got if f.index in grown.coh[h.n]] == want
        assert checked >= 5000


class TestKan:
    def test_triangle_kan_up_to_two(self):
        assert is_kan_up_to(standard_simplex(2, 2), 2) == (True, None)

    def test_circle_not_kan(self):
        ok, witness = is_kan_up_to(build_cycle(3), 2)
        assert not ok
        assert witness is not None and (witness.n, witness.k) == (2, 1)
        assert find_fillers(build_cycle(3), witness) == []

    def test_point_kan(self):
        assert is_kan_up_to(standard_simplex(0, 0), 0) == (True, None)

    @pytest.mark.parametrize("max_dim,message", [(-1, "max_dim -1 is negative"),
                                                 (3, "max_dim 3 exceeds bound 2")])
    def test_max_dim_outside_the_bound_raises(self, max_dim, message):
        with pytest.raises(KernelError, match=message):
            is_kan_up_to(standard_simplex(2, 2), max_dim)

    def test_matches_filler_scan(self):
        # false iff some inner horn has no filler
        rng = random.Random(31)
        for _ in range(20):
            x = random_complex(rng)
            ok, witness = is_kan_up_to(x, 2)
            unfilled = [
                h for h in enumerate_horns(x, 2, 1) if not find_fillers(x, h)
            ]
            assert ok == (not unfilled)
            if not ok:
                assert witness == unfilled[0]

    def test_first_unfilled_inner_horn_up_to_three(self):
        # the first inner horn in (n, k, faces) order that no face row fills
        # under a slice scan, on the seeded complexes of the enumeration oracle
        rng = random.Random(29)
        verdicts = set()
        for _ in range(40):
            x = seeded_complex(rng)
            want = None
            for n, k in ((2, 1), (3, 1), (3, 2)):
                rows = x.face_table[n - 1]
                filled = {row[:k] + row[k + 1 :] for row in rows}
                want = next((h for h in cartesian_horns(x, n, k) if h.faces not in filled), None)
                if want:
                    break
            assert is_kan_up_to(x, 3) == (want is None, want)
            verdicts.add(want.n if want else None)
        assert verdicts == {None, 2, 3}

    def test_rejects_excessive_dim(self):
        with pytest.raises(KernelError):
            is_kan_up_to(build_cycle(3), 5)


class TestSimplicialMap:
    def test_identity_passes(self):
        d2 = standard_simplex(2, 2)
        assert check_simplicial_map(SimplicialMap.identity(d2), d2, d2) == []

    def test_double_cover_projection_passes(self):
        cover = build_double_cover(3)
        assert (
            check_simplicial_map(
                cover.proj, cover.total.underlying, cover.base.underlying
            )
            == []
        )

    def test_vertex_swap_breaks_commutation(self):
        d1 = standard_simplex(1, 1)
        swapped = SimplicialMap(((1, 0), (0,)))
        report = check_simplicial_map(swapped, d1, d1)
        assert report and all(v.kind == "face-commutation" for v in report)

    def test_totality_checked(self):
        d2 = standard_simplex(2, 2)
        short = SimplicialMap(((0, 1), (0, 1, 2), (0,)))
        with pytest.raises(ShapeError) as err:
            check_simplicial_map(short, d2, d2)
        assert str(err.value) == "map covers 2 of 3 simplices of the total space (at map.0)"

    def test_compose_respects_application(self):
        d2 = standard_simplex(2, 2)
        ident = SimplicialMap.identity(d2)
        comp = SimplicialMap.compose(ident, ident)
        assert comp == ident

    @pytest.mark.parametrize("outer,inner,message", [
        (((0, 1, 2), (0, 1)), ((0, 1, 2), (0, 1, 2)), "map not defined on 1/2"),
        (((0, 1), (0, 1, 2)), ((0, 1, 2), (0, 1, 2)), "map not defined on 0/2"),
        (((0, 1, 2), (0, 1)), ((0, 1, 2), (1, 4, 3)), "map not defined on 1/4"),
    ])
    def test_compose_rejects_a_short_outer_level(self, outer, inner, message):
        with pytest.raises(KernelError) as err:
            SimplicialMap.compose(SimplicialMap(outer), SimplicialMap(inner))
        assert str(err.value) == message

    def test_matches_the_simplex_id_scan(self):
        """Seeded maps, most of them broken, against the face-commutation
        check written with ``SimplexId`` and ``face``: the same report, or
        the same error, for each. A map whose levels do not fit is refused
        with the same ``ShapeError``. A seeded face-row defect is refused when
        the complex is built, and the map is checked against the complex as
        it was."""
        rng = random.Random(43)
        seen = {"clean": 0, "commutation": 0, "refused": 0, "rows refused": 0}
        for _ in range(300):
            x, y = random_complex(rng), random_complex(rng)
            if rng.random() < 0.5:
                y = x
            f = seeded_map(rng, x, y)
            seen["rows refused"] += refuses_seeded_defect(rng, x)
            want = outcome(check_simplicial_map_scan, f, x, y)
            assert outcome(check_simplicial_map, f, x, y) == want
            if isinstance(want, str):
                assert want.startswith("ShapeError: "), want
                seen["refused"] += 1
            else:
                seen["commutation" if want else "clean"] += 1
        assert min(seen.values()) >= 10, seen


def seeded_map(rng: random.Random, x: TruncatedComplex, y: TruncatedComplex) -> SimplicialMap:
    """The identity when x is y, else a map to random targets; then a few
    entries moved, and sometimes a level cut short, pointed out of range or
    dropped."""
    if x is y:
        levels = [list(range(x.count(n))) for n in range(x.dim_bound + 1)]
    else:
        levels = [[rng.randrange(y.count(n)) if y.count(n) else 0 for _ in range(x.count(n))]
                  for n in range(x.dim_bound + 1)]
    for level in levels:
        if level and rng.random() < 0.3:
            level[rng.randrange(len(level))] = rng.randrange(len(level))
    defect = rng.random()
    if defect < 0.05 and levels[1]:
        levels[1].pop()
    elif defect < 0.1 and levels[0]:
        levels[0][0] = y.count(0) + 1
    elif defect < 0.15:
        levels.pop()
    return SimplicialMap(tuple(tuple(level) for level in levels))


def refuses_seeded_defect(rng: random.Random, x: TruncatedComplex, share=0.1) -> bool:
    """For about ``share`` of the calls, cut a face row of x short or point
    it past its dimension, and check that the copy cannot be built; whether
    it tried."""
    if rng.random() >= share or not x.count(1):
        return False
    rows = [list(row) for row in x.face_table[0]]
    i = rng.randrange(len(rows))
    row = rows[i]
    if rng.random() < 0.5:
        row.pop()
        message = "face row needs 2 entries, got 1"
    else:
        row[0] = x.count(0) + 2
        message = f"no simplex 0/{row[0]}"
    faces = {1: rows, 2: [list(row) for row in x.face_table[1]]}
    with pytest.raises(ShapeError) as err:
        TruncatedComplex.create(2, x.counts, faces)
    assert str(err.value) == f"{message} (at faces.1[{i}])"
    return True


def outcome(check, f, x, y):
    """The report as (kind, message) pairs, or the text of the error."""
    try:
        return [(v.kind, v.message) for v in check(f, x, y)]
    except KernelError as err:
        return f"{type(err).__name__}: {err}"


def check_simplicial_map_scan(f, x, y):
    """The level rule, simplex by simplex through ``SimplexId`` and ``has``,
    then the face-commutation check, face by face through
    ``SimplicialMap.apply`` and ``TruncatedComplex.face``."""
    top = min(x.dim_bound, y.dim_bound)
    if f.top_dim != top:
        raise ShapeError(f"map covers dimensions 0..{f.top_dim}, expected 0..{top}", "map")
    for n, level in enumerate(f.levels):
        have = x.count(n)
        if len(level) > have:
            raise ShapeError(f"the total space has no simplex {n}/{have}", "map", n, have)
        if len(level) < have:
            raise ShapeError(
                f"map covers {len(level)} of {have} simplices of the total space", "map", n)
        for i, t in enumerate(level):
            if not y.has(SimplexId(n, t)):
                raise ShapeError(f"no simplex {n}/{t}", "map", n, i)
    report = []
    for n in range(1, f.top_dim + 1):
        for idx in range(x.count(n)):
            src = SimplexId(n, idx)
            img = f.apply(src)
            for i in range(n + 1):
                if f.apply(x.face(src, i)) != y.face(img, i):
                    report.append(Violation(
                        "face-commutation", f"f(d_{i}({src})) != d_{i}(f({src}))"))
    return report


class TestHornViolationsOracle:
    def test_matches_the_reference_check(self):
        """Seeded horns, many of them malformed, against the check written
        with ``present_indices`` and one face identity per pair: the same
        report in the same order, or the same error, for each."""
        rng = random.Random(71)
        seen = dict.fromkeys(
            ["clean", "horn-dimension", "horn-dangling-face", "horn-compatibility",
             "several", "refused"], 0)
        for trial in range(400):
            x = random_complex(rng) if trial % 4 else seeded_tetrahedra(rng)
            if trial % 4 == 1:
                seen["refused"] += refuses_seeded_defect(rng, x, share=1)
            for h in seeded_horns(rng, x):
                want = horn_outcome(horn_violations_reference, x, h)
                assert horn_outcome(horn_violations, x, h) == want, h
                assert isinstance(want, list), want
                seen[want[0][0] if want else "clean"] += 1
                seen["several"] += len(want) > 1
        assert min(seen.values()) >= 10, seen


class TestValidateComplexOracle:
    def test_matches_the_reference_check(self):
        """Seeded complexes of dimension 2 and 3 with some face rows redrawn,
        against the identities checked pair by pair through ``face``: the
        same report in the same order."""
        rng = random.Random(73)
        seen = {"clean": 0, "several": 0, 2: 0, 3: 0}
        for trial in range(300):
            x = random_complex(rng) if trial % 2 else standard_simplex(rng.choice((3, 4)), 3)
            x = redrawn_rows(rng, x)
            want = [(v.kind, v.message) for v in validate_complex_reference(x)]
            assert [(v.kind, v.message) for v in validate_complex(x)] == want
            seen["clean"] += not want
            seen["several"] += len(want) > 1
            for n in {int(message.split()[-1].split("/")[0]) for _, message in want}:
                seen[n] += 1
        assert min(seen.values()) >= 20, seen

    def test_an_empty_dimension_builds_no_table(self, monkeypatch):
        # A 77-byte document may name any bound; only a dimension that
        # holds simplices may cost an identity table.
        text = '{"format": "rupture-kit/1", "kind": "complex", "dim_bound": 2000, "simplices": {}}'
        d2 = standard_simplex(2, 2)
        tri = TruncatedComplex(40, d2.counts + (0,) * 38, d2.face_table + ((),) * 38)
        shapes, tables = [], simplicial._IDENTITIES

        class Spy:
            def __getitem__(self, shape):
                assert shape[0] == 2, f"a table for the empty dimension {shape[0]}"
                shapes.append(shape)
                return tables[shape]

        monkeypatch.setattr(simplicial, "_IDENTITIES", Spy())
        assert validate_complex(parse_document(text).body) == []
        assert validate_complex(tri) == []
        assert shapes == [(2, 3)]

    def test_no_table_above_dimension_eight_is_kept(self):
        # One simplex per dimension up to 12, every face the one below, and
        # its horns.
        x = TruncatedComplex(12, [1] * 13, [[[0] * (n + 1)] for n in range(1, 13)])
        simplicial._IDENTITIES.clear()
        assert validate_complex(x) == []
        assert all(horn_violations(x, HornSpec(n, k, (0,) * n)) == []
                   for n in range(1, 13) for k in range(n + 1))
        assert max(n for n, _ in simplicial._IDENTITIES) == 8
        # A table built and not kept is still the whole rule.
        pairs = [(i, m + 1) for _, _, i, m in simplicial._IDENTITIES[12, 5]]
        assert sorted(pairs) == [(i, j) for i in range(13) for j in range(i + 1, 13) if 5 not in (i, j)]
        assert (12, 5) not in simplicial._IDENTITIES


def redrawn_rows(rng: random.Random, x: TruncatedComplex) -> TruncatedComplex:
    """``x`` with up to two face rows per dimension >= 2 given one entry
    drawn at random from the dimension below; each row still fits."""
    table = [list(rows) for rows in x.face_table]
    for n in range(2, x.dim_bound + 1):
        rows = table[n - 1]
        for idx in rng.sample(range(len(rows)), min(len(rows), rng.randrange(3))):
            row = list(rows[idx])
            row[rng.randrange(n + 1)] = rng.randrange(x.count(n - 1))
            rows[idx] = row
    return TruncatedComplex(x.dim_bound, x.counts, table, x.labels)


def validate_complex_reference(x):
    """d_i d_j = d_{j-1} d_i for each i < j on each simplex of dimension
    >= 2, read through ``face``."""
    report = []
    for n in range(2, x.dim_bound + 1):
        for idx in range(x.count(n)):
            s = SimplexId(n, idx)
            for j in range(n + 1):
                for i in range(j):
                    if x.face(x.face(s, j), i) != x.face(x.face(s, i), j - 1):
                        report.append(Violation(
                            "simplicial-identity", f"d_{i} d_{j} != d_{j - 1} d_{i} on simplex {s}"))
    return report


def seeded_tetrahedra(rng: random.Random) -> TruncatedComplex:
    """The 3-skeleton of the 4-simplex with a few 3-simplices whose
    faces are redrawn at random, so their horns fail in several places."""
    x = standard_simplex(4, 3)
    rows = [list(row) for row in x.face_table[2]]
    for row in rng.sample(rows, 2):
        row[rng.randrange(4)] = rng.randrange(x.count(2))
    faces = {n: [list(row) for row in x.face_table[n - 1]] for n in (1, 2)}
    return TruncatedComplex.create(3, x.counts, {**faces, 3: rows})


def seeded_horns(rng: random.Random, x: TruncatedComplex) -> list[HornSpec]:
    """Horns of every dimension up to one past the bound: enumerated ones,
    the horns the simplices fill, faces drawn at random (mostly
    incompatible) and faces drawn past either end of their dimension."""
    horns = []
    for n in range(1, x.dim_bound + 2):
        count = x.count(n - 1)
        for k in range(n + 1):
            if n <= x.dim_bound:
                horns.extend(enumerate_horns(x, n, k)[:3])
                horns.extend(horn_of(x, SimplexId(n, i), k) for i in range(min(3, x.count(n))))
            for _ in range(3):
                faces = tuple(
                    rng.randrange(-2, count + 2) if rng.random() < 0.3
                    else rng.randrange(max(count, 1))
                    for _ in range(n)
                )
                horns.append(HornSpec(n, k, faces))
    return horns


def horn_outcome(check, x, h):
    """The report as (kind, message) pairs, or the type and text of the
    error."""
    try:
        return [(v.kind, v.message) for v in check(x, h)]
    except KernelError as err:
        return f"{type(err).__name__}: {err}"


def horn_violations_reference(x, h):
    """References, then d_i(faces[j]) = d_{j-1}(faces[i]) for each present
    pair i < j, walked through ``present_indices``."""
    from rupture_kit.errors import Violation

    report = []
    if not 1 <= h.n <= x.dim_bound:
        report.append(
            Violation("horn-dimension", f"horn dimension {h.n} exceeds bound {x.dim_bound}")
        )
        return report
    faces = tuple(zip(h.present_indices, h.faces))
    count = x.count(h.n - 1)
    for i, f in faces:
        if not 0 <= f < count:
            report.append(Violation(
                "horn-dangling-face", f"{h} face {i} references missing {h.n - 1}/{f}"))
    if report:
        return report
    if h.n >= 2:
        rows = x.face_table[h.n - 2]
        for b, (j, fj) in enumerate(faces):
            for i, fi in faces[:b]:
                if rows[fj][i] != rows[fi][j - 1]:
                    report.append(Violation(
                        "horn-compatibility",
                        f"{h}: d_{i}(faces[{j}]) != d_{j - 1}(faces[{i}])"))
    return report


class TestApplyHorn:
    def test_maps_each_face(self):
        cover = build_double_cover(3)
        h = HornSpec.from_mapping(1, 0, {1: 4})
        assert cover.proj.apply_horn(h) == HornSpec.from_mapping(1, 0, {1: 1})

    def test_short_map_raises_kernel_error(self):
        d2 = standard_simplex(2, 2)
        short = SimplicialMap(((0, 1), (0, 1, 2), (0,)))
        (horn,) = enumerate_horns(d2, 2, 1)
        with pytest.raises(KernelError, match="map not defined on 0/2"):
            short.apply_horn(HornSpec.from_mapping(1, 0, {1: 2}))
        with pytest.raises(KernelError, match="map not defined"):
            SimplicialMap(((0, 1, 2),)).apply_horn(horn)


class TestHornOf:
    def test_triangle_faces_without_k(self):
        d2 = standard_simplex(2, 2)
        row = d2.face_row(2, 0)
        for k in range(3):
            h = horn_of(d2, SimplexId(2, 0), k)
            assert (h.n, h.k) == (2, k)
            assert [h.face(i) for i in h.present_indices] == [
                row[i] for i in range(3) if i != k
            ]

    def test_every_simplex_fills_its_own_horns(self):
        rng = random.Random(11)
        for _ in range(20):
            x = random_complex(rng)
            for n in (1, 2):
                for idx in range(x.count(n)):
                    for k in range(n + 1):
                        h = horn_of(x, SimplexId(n, idx), k)
                        assert h in enumerate_horns(x, n, k)
                        assert SimplexId(n, idx) in find_fillers(x, h)

    def test_vertex_has_no_horn(self):
        with pytest.raises(KernelError):
            horn_of(standard_simplex(2, 2), SimplexId(0, 0), 0)


class TestLabelsForm:
    """A complex stores ``()`` when no dimension is labelled, else one entry
    per dimension, so the constructor and ``create`` build equal complexes."""

    EDGE = (1, [2, 1], [[[1, 0]]])

    @pytest.mark.parametrize("labels,mapping,stored", [
        ((None, None), {}, ()),
        ((None,), {}, ()),
        ((["a", "b"],), {0: ["a", "b"]}, (("a", "b"), None)),
        ((None, ["e"]), {1: ["e"]}, (None, ("e",))),
    ], ids=["all-none", "short-none", "short-labelled", "labelled"])
    def test_the_constructor_stores_what_create_stores(self, labels, mapping, stored):
        d, counts, table = self.EDGE
        built = TruncatedComplex(d, counts, table, labels)
        created = TruncatedComplex.create(d, counts, {1: table[0]}, mapping)
        assert built.labels == created.labels == stored
        assert built == created and hash(built) == hash(created)

    def test_a_labelled_dimension_without_simplices_keeps_its_entry(self):
        built = TruncatedComplex(1, [0, 0], [[]], ([],))
        created = TruncatedComplex.create(1, [0, 0], {}, {0: []})
        assert built.labels == created.labels == ((), None)
        assert built == created and hash(built) == hash(created)
        body = complex_to_body(built)
        assert body["simplices"] == {"0": [], "1": 0}
        assert body_to_complex(body) == built


class TestRestrict:
    def test_keeping_everything_is_the_identity(self):
        d3 = standard_simplex(3, 3)
        sub, inclusion = restrict(d3, [range(c) for c in d3.counts])
        assert sub == d3
        assert inclusion == SimplicialMap.identity(d3)

    def test_edge_of_triangle(self):
        d2 = standard_simplex(2, 2)
        # edge 1-2 and its two vertices, given out of order
        sub, inclusion = restrict(d2, [{2, 1}, [2], []])
        assert sub.counts == (2, 1, 0)
        assert sub.face_row(1, 0) == (1, 0)
        assert sub.labels[0] == ("1", "2") and sub.labels[1] == ("1-2",)
        assert inclusion.levels == ((1, 2), (2,), ())
        assert validate_complex(sub) == []
        assert check_simplicial_map(inclusion, sub, d2) == []

    def test_a_level_per_dimension_is_required(self):
        # The kept rows are trusted, so a level too few or too many is refused
        # before any is read.
        d2 = standard_simplex(2, 2)
        for keep in ([[0, 1, 2], [0]], [[0, 1, 2], [0], [], []]):
            with pytest.raises(KernelError, match=f"need 3 kept levels, got {len(keep)}"):
                restrict(d2, keep)

    def test_a_keep_not_closed_under_faces_is_refused(self):
        d2 = standard_simplex(2, 2)
        with pytest.raises(KernelError, match="closed under faces: a kept 1-simplex has the face 0/1,"):
            restrict(d2, [[0], [0], []])
        with pytest.raises(KernelError, match="closed under faces: a kept 2-simplex has the face 1/0,"):
            restrict(d2, [[0, 1, 2], [1, 2], [0]])

    def test_missing_labels_become_empty(self):
        x = TruncatedComplex.create(1, [3, 2], {1: [[1, 0], [2, 1]]}, {1: ["a", "b"]})
        sub, _ = restrict(x, [[1, 2], [1]])
        assert sub.labels == (None, ("b",))


class TestHornComplexOracle:
    def test_matches_subset_construction(self):
        # the (n, k)-horn from first principles: every proper subset of
        # {0..n} except {0..n} minus k, faces by deleting one vertex
        for n in range(2, 7):
            for k in range(n + 1):
                x = horn_complex(n, k)
                levels = []
                for m in range(n):
                    level = [
                        c for c in cartesian(range(n + 1), repeat=m + 1)
                        if list(c) == sorted(set(c))
                    ]
                    if m == n - 1:
                        level.remove(tuple(v for v in range(n + 1) if v != k))
                    levels.append(level)
                assert x.dim_bound == n - 1
                assert list(x.counts) == [len(level) for level in levels]
                for m in range(1, n):
                    for idx, c in enumerate(levels[m]):
                        want = [
                            levels[m - 1].index(c[:i] + c[i + 1 :]) for i in range(m + 1)
                        ]
                        assert list(x.face_row(m, idx)) == want
                for m in range(n):
                    assert list(x.labels[m]) == [
                        "-".join(map(str, c)) for c in levels[m]
                    ]
                assert validate_complex(x) == []


# The value types as frozen dataclasses: the reference their tuples keep
# hash, order, equality and repr with.
RefSimplexId = make_dataclass(
    "SimplexId", [("dim", int), ("index", int)], frozen=True, order=True
)
RefHornSpec = make_dataclass(
    "HornSpec", [("n", int), ("k", int), ("faces", tuple)], frozen=True, order=True
)
RefLiftingProblemKey = make_dataclass(
    "LiftingProblemKey", [("horn", RefHornSpec), ("base", RefSimplexId)],
    frozen=True, order=True,
)


class Spec:
    """A record to build from fields that may hold specs themselves: as the
    record, or as its reference dataclass."""

    def __init__(self, cls, *fields):
        self.cls, self.fields = cls, fields

    def __repr__(self):
        return f"Spec({self.cls.__name__}, {self.fields!r})"


def _nonempty(message, *names):
    def check(self):
        if not all(getattr(self, name) for name in names):
            raise KernelError(message)
    return check


def _distinct_names(self):
    names = [b.var for b in self.bindings]
    if len(set(names)) != len(names):
        raise KernelError("context variable names must be distinct")


# The checks the records ran as dataclasses, in ``__post_init__``. The shape
# rules of ``TruncatedComplex`` and ``RupturedFibrationData`` are pinned
# against an oracle in test_shape_rule.py, so only well-formed ones are
# seeded here.
OLD_CHECKS = {
    CoherentlyFilled: _nonempty("coherent filling needs at least one filler", "fillers"),
    GapMode: _nonempty("gap mode kind must be non-empty", "kind"),
    ResourceContext: _distinct_names,
    BaseJudgment: _nonempty("judgment label must be non-empty", "label"),
    ArrowJudgment: _nonempty("arrow labels must be non-empty", "source", "target"),
}

WORDS = ["", "a", "b", "x", "plain"]
SIDS = [SimplexId(0, 0), SimplexId(0, 1), SimplexId(1, 0)]
COMPLEXES = [standard_simplex(1, 1), standard_simplex(2, 2), build_cycle(3)]
RUPTURED = [from_kan(COMPLEXES[0]), fully_gapped(COMPLEXES[1])]
COVERS = [build_double_cover(3), build_double_cover(4)]


def _word(rng, blank=True):
    return rng.choice(WORDS if blank else WORDS[1:])


def _gap_mode(rng):
    payload = rng.choice([None, ("f",), (("x", 1),), Spec(FiberPermutation, (0, 3), ((0, 3), (3, 0)))])
    return Spec(GapMode, _word(rng), *rng.choice([(), (payload,)]))


def _mode(rng):
    return rng.choice([None, _gap_mode(rng)])


def _path(rng):
    return Spec(EdgePath, tuple((rng.randrange(3), rng.random() < 0.5) for _ in range(rng.randrange(3))))


def _tree(rng, leaf, unit, node, depth=2):
    pick = rng.randrange(3 if depth else 2)
    if pick == 0:
        return Spec(leaf, _word(rng, False))
    if pick == 1:
        return Spec(unit)
    return Spec(node, _tree(rng, leaf, unit, node, depth - 1), _tree(rng, leaf, unit, node, depth - 1))


def _type(rng):
    return _tree(rng, AtomType, UnitType, ProdType)


def _term(rng):
    return _tree(rng, Var, UnitTerm, Pair)


def _context(rng):
    return Spec(ResourceContext, tuple(
        Spec(Binding, rng.choice("xyz"), _type(rng), rng.choice(list(Annotation)))
        for _ in range(rng.randrange(3))
    ))


def _certificate(rng):
    names = sorted(rng.sample("xyz", rng.randrange(3)))
    return Spec(UsageCertificate, tuple((v, rng.randrange(3)) for v in names),
                tuple((v, rng.random() < 0.5) for v in names),
                *rng.choice([(), (None,), ("pair term against non-product goal Unit",)]))


def _substitution(rng):
    return Spec(Substitution, tuple(sorted({rng.choice("xy"): rng.choice("yz")}.items())))


def _judgment(rng):
    return rng.choice([Spec(BaseJudgment, _word(rng)), Spec(ArrowJudgment, _word(rng), _word(rng))])


# Each record's seeded fields, drawn from small pools so that equal values
# come up; some fail the record's check.
RECORD_FIELDS = {
    Violation: lambda r: (_word(r), _word(r)),
    TruncatedComplex: lambda r: tuple(r.choice(COMPLEXES)),
    SimplicialMap: lambda r: (r.choice([((0, 1), (0,)), ((0, 0), (0,)), ((0,),)]),),
    GapMode: lambda r: _gap_mode(r).fields,
    RupturedComplex: lambda r: tuple(r.choice(RUPTURED)),
    CoherentlyFilled: lambda r: (tuple(r.sample(SIDS, r.randrange(3))),),
    GapWitnessed: lambda r: r.choice([(), (_mode(r),)]),
    Open: lambda r: (),
    LoopProblem: lambda r: (((0, True),) * r.randrange(1, 3), r.choice(SIDS), r.random() < 0.5,
                            *r.choice([(), (_mode(r),), (None, _path(r))])),
    RupturedFibrationData: lambda r: tuple(r.choice(COVERS))[:r.randrange(3, 7)],
    Coherent: lambda r: (r.choice(SIDS), *r.choice([(), (1,), (2,)])),
    Gapped: lambda r: r.choice([(), (_mode(r),)]),
    OpenTransport: lambda r: (),
    TransportHornInhabitant: lambda r: (r.choice(SIDS), r.choice([r.choice(SIDS), _path(r)]), _mode(r)),
    FunctorialityHornInhabitant: lambda r: (*(r.choice(SIDS) for _ in range(6)), _mode(r)),
    EdgePath: lambda r: _path(r).fields,
    CoveringTask: lambda r: (r.choice(SIDS), tuple(_path(r) for _ in range(r.randrange(3)))),
    FiberPermutation: lambda r: r.choice([((0, 3), ((0, 3), (3, 0))), ((0, 3), ((0, 0), (3, 3)))]),
    AtomType: lambda r: (_word(r, False),),
    UnitType: lambda r: (),
    ProdType: lambda r: (_type(r), _type(r)),
    Var: lambda r: (_word(r, False),),
    UnitTerm: lambda r: (),
    Pair: lambda r: (_term(r), _term(r)),
    Binding: lambda r: (r.choice("xy"), _type(r), r.choice(list(Annotation))),
    ResourceContext: lambda r: _context(r).fields,
    UsageCertificate: lambda r: _certificate(r).fields,
    DerivabilityResult: lambda r: (r.random() < 0.5, _certificate(r)),
    Substitution: lambda r: _substitution(r).fields,
    DerivabilityHorn: lambda r: (_certificate(r), _substitution(r), _certificate(r)),
    DeriveTask: lambda r: (_context(r), _context(r), _substitution(r), _term(r), _type(r)),
    BaseJudgment: lambda r: (r.choice(["", "a", "b"]),),
    ArrowJudgment: lambda r: (_word(r), _word(r)),
    WitnessEntry: lambda r: (_judgment(r), r.choice(list(Polarity)), _word(r, False),
                             *r.choice([(), ("note",)])),
    HornTriple: lambda r: (_word(r), _word(r), _word(r)),
    ScriptCommand: lambda r: r.choice([("level_up",), ("is_open", _judgment(r)),
                                       ("add", _judgment(r), Polarity.GAPPED, {"n": 1})]),
    Document: lambda r: (_word(r, False), r.choice([_type(r), _context(r), RUPTURED[0]])),
}
RECORDS = list(RECORD_FIELDS)


def reference(cls):
    """The record as the frozen dataclass it was: its fields, defaults and
    old check, and its own ``__str__`` and ``__len__``."""
    fields = [
        (name, object, field(default=cls._field_defaults[name]))
        if name in cls._field_defaults else (name, object)
        for name in cls._fields
    ]
    if cls is RupturedFibrationData:
        fields[3:] = [(name, object, field(default_factory=dict)) for name in cls._fields[3:]]
    namespace = {name: vars(cls)[name] for name in ("__str__", "__len__") if name in vars(cls)}
    if cls in OLD_CHECKS:
        namespace["__post_init__"] = OLD_CHECKS[cls]
    return make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


REFERENCES = {cls: reference(cls) for cls in RECORDS}


def seeded_record(cls, rng) -> Spec:
    return Spec(cls, *RECORD_FIELDS[cls](rng))


def build(value, as_reference: bool):
    if isinstance(value, Spec):
        cls = REFERENCES[value.cls] if as_reference else value.cls
        return cls(*(build(v, as_reference) for v in value.fields))
    if type(value) is tuple:
        return tuple(build(v, as_reference) for v in value)
    return value


def outcome_of(spec: Spec, as_reference: bool):
    try:
        return "built", build(spec, as_reference)
    except KernelError as exc:
        return f"{type(exc).__name__}: {exc}", None


def hash_of(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


class TestValueTypes:
    @staticmethod
    def seeded_fields(rng):
        """Seeded ((dim, index), (n, k, faces)) field pairs, with repeats."""
        out = []
        for _ in range(40):
            n = rng.randrange(1, 4)
            faces = tuple(rng.randrange(3) for _ in range(n))
            out.append(((rng.randrange(3), rng.randrange(4)), (n, rng.randrange(n + 1), faces)))
        return out

    def test_match_a_frozen_dataclass(self):
        fields = self.seeded_fields(random.Random(41))
        pairs = []
        for sid, horn in fields:
            pairs.append((SimplexId(*sid), RefSimplexId(*sid)))
            pairs.append((HornSpec(*horn), RefHornSpec(*horn)))
            key = LiftingProblemKey(HornSpec(*horn), SimplexId(*sid))
            pairs.append((key, RefLiftingProblemKey(RefHornSpec(*horn), RefSimplexId(*sid))))
        for value, ref in pairs:
            assert hash(value) == hash(ref)
            assert repr(value) == repr(ref)
            for other, other_ref in pairs:
                if type(other_ref) is type(ref):
                    assert (value == other) == (ref == other_ref)
                    assert (value < other) == (ref < other_ref)

    @pytest.mark.parametrize("i", [1, -1, 3])
    def test_a_horn_has_no_face_at_its_missing_index_or_out_of_range(self, i):
        h = HornSpec(2, 1, (4, 5))
        assert (h.face(0), h.face(2)) == (4, 5)
        with pytest.raises(KernelError, match=f"^horn has no face at index {i}$"):
            h.face(i)

    def test_are_tuples(self):
        sid = SimplexId(1, 2)
        dim, index = sid
        assert sid == (1, 2) and hash(sid) == hash((1, 2)) and (dim, index) == (1, 2)
        h = HornSpec(2, 1, (4, 5))
        assert h == (2, 1, (4, 5)) and len(h) == 3
        assert HornSpec(n=2, k=1, faces=(4, 5)) == h
        assert str(sid) == "1/2" and str(h) == "horn(n=2, k=1, faces={0:4, 2:5})"

    @pytest.mark.parametrize(
        "n,k,faces,message",
        [
            (0, 0, (), "horn index k=0 out of range for n=0"),
            (2, 3, (1, 2), "horn index k=3 out of range for n=2"),
            (2, -1, (1, 2), "horn index k=-1 out of range for n=2"),
            (2, 1, (1,), r"\(n=2, k=1\)-horn needs 2 faces, got 1"),
            (1, 0, (1, 2), r"\(n=1, k=0\)-horn needs 1 faces, got 2"),
        ],
    )
    def test_horn_shape_errors_keep_their_text(self, n, k, faces, message):
        with pytest.raises(KernelError, match=f"^{message}$"):
            HornSpec(n, k, faces)

    def test_attributes_cannot_be_assigned(self):
        values = [
            (SimplexId(0, 1), ("dim", "index", "label")),
            (HornSpec(1, 0, (2,)), ("n", "k", "faces", "label")),
            (LiftingProblemKey(HornSpec(1, 0, (2,)), SimplexId(1, 0)), ("horn", "base")),
        ]
        for value, names in values:
            for name in names:
                with pytest.raises(AttributeError):
                    setattr(value, name, 0)

    def test_records_match_their_dataclass(self):
        values = [seeded_record(cls, random.Random(f"{cls.__name__}-{i}"))
                  for cls in RECORDS for i in range(8)]
        built = []
        for spec in values:
            got, want = outcome_of(spec, False), outcome_of(spec, True)
            assert got[0] == want[0], spec
            if got[0] != "built":
                continue
            value, ref = got[1], want[1]
            assert type(value) is spec.cls and type(ref).__name__ == spec.cls.__name__
            assert repr(value) == repr(ref) and str(value) == str(ref)
            assert bool(value) == bool(ref)
            assert hash_of(value) == hash_of(ref)
            # the one intended difference: a record equals its plain field tuple
            assert value == tuple(value) and not value != tuple(value)
            assert ref != tuple(value)
            built.append((value, ref))
        assert {type(v) for v, _ in built} == set(RECORDS)
        for value, ref in built:
            for other, other_ref in built:
                assert (value == other) == (ref == other_ref), (value, other)
                assert (value != other) == (ref != other_ref), (value, other)

    def test_same_arity_records_stay_apart(self):
        mode = GapMode("plain")
        groups = [
            [Open(), OpenTransport(), UnitType(), UnitTerm()],
            [GapWitnessed(mode), Gapped(mode)],
            [Var("x"), AtomType("x"), BaseJudgment("x")],
            [Pair(Var("x"), UnitTerm()), ProdType(AtomType("x"), UnitType())],
            [Violation("a", "b"), ArrowJudgment("a", "b"), Document("a", "b")],
        ]
        for group in groups:
            assert len(set(group)) == len(group)
            assert all(value for value in group)
            for a in group:
                for b in group:
                    assert (a == b) == (a is b) and (a != b) == (a is not b)
                    assert hash(a) == hash(tuple(a))

    def test_replace_and_make_run_the_check(self):
        d2 = standard_simplex(2, 2)
        cover = build_double_cover(3)
        short_map = SimplicialMap((cover.proj.levels[0][:5], *cover.proj.levels[1:]))
        binding = Binding("x", UnitType(), Annotation.LINEAR)
        cases = [
            (HornSpec(2, 1, (4, 5)), {"faces": (1,)}),
            (HornSpec(2, 1, (4, 5)), {"n": 0, "k": 0, "faces": ()}),
            (d2, {"face_table": (((1,), *d2.face_table[0][1:]), d2.face_table[1])}),
            (d2, {"counts": (3, 3)}),
            (cover, {"proj": short_map}),
            (CoherentlyFilled((SimplexId(1, 0),)), {"fillers": ()}),
            (GapMode("plain"), {"kind": ""}),
            (ResourceContext((binding,)), {"bindings": (binding, binding)}),
            (BaseJudgment("J"), {"label": ""}),
            (ArrowJudgment("J", "K"), {"target": ""}),
        ]
        for value, changes in cases:
            fields = value._asdict() | changes
            with pytest.raises(KernelError) as built:
                type(value)(**fields)
            for make in (lambda: value._replace(**changes),
                         lambda: type(value)._make(fields.values())):
                with pytest.raises(KernelError) as got:
                    make()
                assert type(got.value) is type(built.value)
                assert str(got.value) == str(built.value)
            assert type(value)._make(value) == value
            assert value._replace() == value


BINDING = Binding("x", UnitType(), Annotation.LINEAR)
# A record of each class whose check, its ``__new__``, holds, and field values it refuses.
FOLDED = [
    (GapMode("semantic", ("warm",)), {"kind": ""}),
    (RupturedComplex.create(standard_simplex(1, 1), {0: [1]}, [HornSpec(1, 0, (0,))]),
     {"coh": ((5,), ())}),
    (CoherentlyFilled((SimplexId(1, 0),)), {"fillers": ()}),
    (ResourceContext((BINDING,)), {"bindings": (BINDING, BINDING)}),
    (BaseJudgment("J"), {"label": ""}),
    (ArrowJudgment("J", "K"), {"source": ""}),
]


@pytest.mark.parametrize("value,refused", FOLDED, ids=[type(v).__name__ for v, _ in FOLDED])
def test_a_record_with_a_check_is_one_class(value, refused):
    cls = type(value)
    assert cls.__bases__ == (tuple,) and cls.__slots__ == () and not hasattr(value, "__dict__")
    fields = value._asdict() | refused
    with pytest.raises(KernelError) as built:
        cls(**fields)
    for make in (lambda: cls._make(fields.values()), lambda: value._replace(**refused)):
        with pytest.raises(KernelError) as got:
            make()
        assert (type(got.value), str(got.value)) == (type(built.value), str(built.value))
    assert pickle.loads(pickle.dumps(value)) == value
    assert value == tuple(value) and not value != tuple(value)
    assert hash_of(value) == hash_of(tuple(value))
    body = type("Other", (), {"__annotations__": dict.fromkeys(cls._fields, "object")})
    other = record(body)(*value)
    assert value != other and other != value and not value == other
    mode = GapMode("plain")
    assert GapWitnessed(mode) != Gapped(mode) and GapWitnessed(mode) == (mode,)


# Each record class's fields, as they were when the records were
# typing.NamedTuple classes; those after "|" have a default, None unless
# DEFAULTS names another.
FIELDS = {
    Violation: "kind message",
    TruncatedComplex: "dim_bound counts face_table | labels",
    SimplicialMap: "levels",
    GapMode: "kind | payload",
    RupturedComplex: "underlying coh gap",
    CoherentlyFilled: "fillers",
    GapWitnessed: "| mode",
    Open: "",
    LoopProblem: "loop_key start gapped | mode closing_lift",
    RupturedFibrationData: "total base proj gap_lifts composites loop_gaps",
    Coherent: "target | multiplicity",
    Gapped: "| mode",
    OpenTransport: "",
    TransportHornInhabitant: "term path gap",
    FunctorialityHornInhabitant: "term first second composite midpoint endpoint gap",
    EdgePath: "steps",
    CoveringTask: "basepoint loops",
    FiberPermutation: "fiber mapping",
    AtomType: "name",
    UnitType: "",
    ProdType: "left right",
    Var: "name",
    UnitTerm: "",
    Pair: "left right",
    Binding: "var type annotation",
    ResourceContext: "bindings",
    UsageCertificate: "counts verdicts | type_error",
    DerivabilityResult: "derivable certificate",
    Substitution: "mapping",
    DerivabilityHorn: "source_certificate substitution target_certificate",
    DeriveTask: "gamma delta sigma term goal",
    BaseJudgment: "label",
    ArrowJudgment: "source target",
    WitnessEntry: "judgment polarity witness_id | payload",
    HornTriple: "first second gap",
    ScriptCommand: "op | judgment polarity payload first second gap",
    Document: "kind body",
    # the classes with plain tuple equality
    SimplexId: "dim index",
    HornSpec: "n k faces",
    LiftingProblemKey: "horn base",
}
DEFAULTS = {(TruncatedComplex, "labels"): (), (Coherent, "multiplicity"): 1}
CACHED = {TruncatedComplex, RupturedFibrationData}  # the classes with a __dict__
PLAIN = {
    SimplexId: SimplexId(1, 2),
    HornSpec: HornSpec(2, 1, (4, 5)),
    LiftingProblemKey: LiftingProblemKey(HornSpec(1, 0, (2,)), SimplexId(1, 0)),
}


def contract_value(cls):
    """A value of ``cls``: the first of its seeded records its check accepts."""
    if cls in PLAIN:
        return PLAIN[cls]
    for i in range(8):
        got, value = outcome_of(seeded_record(cls, random.Random(f"{cls.__name__}-{i}")), False)
        if got == "built":
            return value


def test_the_contract_covers_every_record():
    assert set(FIELDS) == set(RECORDS) | set(PLAIN)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    """What a record class kept from ``typing.NamedTuple``: its fields and
    defaults, namedtuple's repr, C-level field getters, keyword calls,
    arity errors, ``_make`` and ``_replace`` through the class, pickling,
    and no ``__dict__`` but on the two classes that cache tables."""
    value = contract_value(cls)
    required, _, defaulted = (part.split() for part in FIELDS[cls].partition("|"))
    assert cls.__bases__ == (tuple,)
    assert cls._fields == (*required, *defaulted)
    assert cls._field_defaults == {name: DEFAULTS.get((cls, name)) for name in defaulted}
    assert {type(vars(cls)[name]).__name__ for name in cls._fields} <= {"_tuplegetter"}
    assert repr(value) == repr(namedtuple(cls.__name__, cls._fields)(*value))
    assert value == tuple(value) and hash_of(value) == hash_of(tuple(value))

    assert cls(**value._asdict()) == value
    assert cls(*value[:len(required)])[len(required):] == tuple(cls._field_defaults.values())
    for wrong in (lambda: cls(*value, None), lambda: cls(**value._asdict(), extra=None),
                  lambda: cls._make((*value, None))):
        with pytest.raises(TypeError):
            wrong()
    if required:
        with pytest.raises(TypeError):
            cls()

    assert type(cls._make(value)) is cls and cls._make(value) == value
    assert value._replace() == value and type(value._replace()) is cls
    with pytest.raises(ValueError, match="^Got unexpected field names: \\['extra'\\]$"):
        value._replace(extra=None)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value
    assert hasattr(value, "__dict__") == (cls in CACHED)


@pytest.mark.parametrize("cls,args,kwargs", [
    (SimplexId, (1,), {}),
    (SimplexId, (1, 2, 3), {}),
    (SimplexId, (1,), {"dim": 2}),
    (SimplexId, (1, 2), {"label": 2}),
    (Coherent, (), {"multiplicity": 2}),
    (Open, (1,), {}),
    (FunctorialityHornInhabitant, (1,) * 8, {}),
])
def test_a_record_without_a_new_binds_its_arguments_as_namedtuple_does(cls, args, kwargs):
    reference = namedtuple(cls.__name__, cls._fields, defaults=cls._field_defaults.values())
    with pytest.raises(TypeError) as refused:
        cls(*args, **kwargs)
    with pytest.raises(TypeError) as expected:
        reference(*args, **kwargs)
    assert str(refused.value) == str(expected.value)
    assert SimplexId(index=2, dim=1) == SimplexId(1, index=2) == (1, 2)
    assert Coherent(SimplexId(0, 1)) == Coherent(target=SimplexId(0, 1), multiplicity=1)


class TestNegativeIds:
    def test_a_map_is_not_defined_on_a_negative_id(self):
        f = SimplicialMap(((0, 1), (0,)))
        for sid in (SimplexId(0, -1), SimplexId(-1, 0), SimplexId(1, -1)):
            with pytest.raises(KernelError, match=f"^map not defined on {sid}$"):
                f.apply(sid)
        with pytest.raises(KernelError, match="^map not defined on 0/-1$"):
            f.apply_horn(HornSpec(1, 0, (-1,)))
        assert f.apply(SimplexId(0, 1)) == SimplexId(0, 1)
        assert f.apply_horn(HornSpec(1, 0, (1,))) == HornSpec(1, 0, (1,))
        assert f.level(-1) == () and f.level(1) == (0,)

    def test_a_negative_id_has_no_label(self):
        d1 = standard_simplex(1, 1)
        assert d1.label(SimplexId(0, -1)) is None and d1.label(SimplexId(-1, 0)) is None
        assert d1.name(SimplexId(0, -1)) == "0/-1"
        assert d1.label(SimplexId(0, 1)) == "1"

    @pytest.mark.parametrize("sid", [SimplexId(1, -1), SimplexId(1, 5), SimplexId(5, 0)],
                             ids=str)
    def test_face_or_coherence_of_an_id_that_names_no_simplex_raises(self, sid):
        d1 = standard_simplex(1, 1)
        with pytest.raises(KernelError, match=f"^no simplex {sid} in the complex$"):
            d1.face(sid, 0)
        with pytest.raises(KernelError, match=f"^no simplex {sid} in the complex$"):
            from_kan(d1).with_coherent(sid)
        assert d1.face(SimplexId(1, 0), 0) == SimplexId(0, 1)


@pytest.mark.parametrize(
    "values,expected",
    [
        ([], None),
        ([0, 2, 1, 2], None),
        ([0, True], (1, "expected an integer")),
        ([1, 1.0], (1, "expected an integer")),
        (["0"], (0, "expected an integer")),
        ([0, -1], (1, "no simplex 1/-1")),
        ([2, 3], (1, "no simplex 1/3")),
        ([0, 7, "x"], (1, "no simplex 1/7")),
    ],
    ids=["empty", "in-range", "bool", "float", "str", "negative", "count", "first-fault"],
)
def test_bad_index_names_the_first_entry_that_is_no_simplex(values, expected):
    """None exactly when every entry indexes one of the 3 simplices of
    dimension 1, else the first entry that does not and why."""
    assert bad_index(values, 1, 3) == expected
    assert bad_index(tuple(values), 1, 3) == expected
