"""Simplicial circles, double covers, path lifting, and monodromy."""

import itertools

import pytest

from rupture_kit.errors import KernelError, ShapeError
from rupture_kit.covering import (
    EdgePath,
    FiberPermutation,
    build_cycle,
    build_double_cover,
    check_path,
    covering_violation,
    fiber_vertices,
    lift_edge_path,
    monodromy,
    monodromy_ruptured,
    path_target,
    trivial_double_cover,
)
from rupture_kit.fibration import (
    LoopProblem,
    RupturedFibrationData,
    detect_transport_horn,
    validate_fibration,
)
from rupture_kit.ruptured import GapMode, from_kan
from rupture_kit.simplicial import (
    SimplexId,
    SimplicialMap,
    TruncatedComplex,
    is_kan_up_to,
    validate_complex,
)

from support import compose_after, is_identity

GEN3 = EdgePath.forward(0, 1, 2)


def first_unmapped(proj: SimplicialMap, x: TruncatedComplex) -> str | None:
    """The error a bare map raises on the first simplex of x, in (dim,
    index) order, that its levels leave out; None when it maps them all."""
    for n in range(x.dim_bound + 1):
        for i in range(x.count(n)):
            try:
                proj.apply(SimplexId(n, i))
            except KernelError as err:
                return str(err)
    return None


class TestBuilders:
    def test_cycle_shape(self):
        c = build_cycle(3)
        assert [c.count(n) for n in range(3)] == [3, 3, 0]
        assert validate_complex(c) == []
        assert c.labels[0] == ("v0", "v1", "v2")

    def test_cycle_not_kan(self):
        assert is_kan_up_to(build_cycle(3), 2)[0] is False

    def test_cycle_rejects_small(self):
        with pytest.raises(KernelError):
            build_cycle(2)

    def test_double_cover_shape(self):
        cover = build_double_cover(3)
        assert cover.total.underlying.count(0) == 6
        assert cover.base.underlying.count(0) == 3
        assert validate_fibration(cover) == []
        for v in range(3):
            fib = fiber_vertices(cover, SimplexId(0, v))
            assert len(fib) == 2

    def test_double_cover_fiber_over_v0(self):
        cover = build_double_cover(3)
        assert fiber_vertices(cover, SimplexId(0, 0)) == [
            SimplexId(0, 0),
            SimplexId(0, 3),
        ]

    def test_double_cover_rejects_small(self):
        with pytest.raises(KernelError):
            build_double_cover(2)

    def test_covering_property_holds(self):
        assert covering_violation(build_double_cover(3)) is None
        assert covering_violation(trivial_double_cover(4)) is None

    def test_non_covering_detected(self):
        cover = build_double_cover(3)
        # drop one total edge: some vertex loses its unique lift
        total = cover.total.underlying
        smaller = total._replace(
            counts=(6, 5, 0),
            face_table=(total.face_table[0][:5], ()),
            labels=(total.labels[0], total.labels[1][:5], None),
        )
        broken = RupturedFibrationData(
            from_kan(smaller),
            cover.base,
            SimplicialMap((cover.proj.levels[0], cover.proj.levels[1][:5], ())),
        )
        assert covering_violation(broken) is not None
        with pytest.raises(KernelError):
            lift_edge_path(broken, SimplexId(0, 0), GEN3)


class TestLifting:
    def test_single_edge_lift(self):
        cover = build_double_cover(3)
        lifted = lift_edge_path(cover, SimplexId(0, 0), EdgePath.forward(0))
        assert lifted.steps == ((0, True),)
        assert path_target(cover.total.underlying, lifted) == SimplexId(0, 1)

    def test_empty_path(self):
        cover = build_double_cover(3)
        lifted = lift_edge_path(cover, SimplexId(0, 2), EdgePath(()))
        assert lifted.steps == ()

    def test_full_loop_changes_sheet(self):
        cover = build_double_cover(3)
        lifted = lift_edge_path(cover, SimplexId(0, 0), GEN3)
        assert path_target(cover.total.underlying, lifted) == SimplexId(0, 3)

    def test_backward_steps(self):
        cover = build_double_cover(3)
        back = EdgePath.of((2, False), (1, False), (0, False))
        lifted = lift_edge_path(cover, SimplexId(0, 0), back)
        assert path_target(cover.total.underlying, lifted) == SimplexId(0, 3)

    def test_source_mismatch_rejected(self):
        cover = build_double_cover(3)
        with pytest.raises(KernelError):
            lift_edge_path(cover, SimplexId(0, 1), GEN3)

    def test_uniqueness_against_enumeration(self):
        # brute-force: enumerate all candidate edge sequences in the total
        # space projecting onto the loop; exactly one starts at each point
        cover = build_double_cover(3)
        e = cover.total.underlying
        for start in (0, 3):  # the fiber over the loop's source
            candidates = []
            for seq in itertools.product(range(6), repeat=3):
                if any(cover.proj.levels[1][te] != be for te, be in zip(seq, (0, 1, 2))):
                    continue
                at = SimplexId(0, start)
                ok = True
                for te in seq:
                    sid = SimplexId(1, te)
                    if e.face(sid, 1) != at:
                        ok = False
                        break
                    at = e.face(sid, 0)
                if ok:
                    candidates.append(seq)
            assert len(candidates) == 1
            lifted = lift_edge_path(cover, SimplexId(0, start), GEN3)
            assert tuple(te for te, _ in lifted.steps) == candidates[0]


class TestPathErrors:
    """The exact texts of the path, lift and loop rejections."""

    @pytest.mark.parametrize(
        "path,message",
        [
            (EdgePath.forward(0, 5), "edge path references missing edge 1/5"),
            (EdgePath.forward(-1), "edge path references missing edge 1/-1"),
            (EdgePath.forward(0, 2), "edge path breaks at edge 1/2: starts at 0/2, expected 0/1"),
            (
                EdgePath.of((0, True), (0, True)),
                "edge path breaks at edge 1/0: starts at 0/0, expected 0/1",
            ),
            (
                EdgePath.of((0, True), (1, False)),
                "edge path breaks at edge 1/1: starts at 0/2, expected 0/1",
            ),
        ],
    )
    def test_check_path(self, path, message):
        with pytest.raises(KernelError) as err:
            check_path(build_cycle(3), path)
        assert str(err.value) == message

    def test_check_path_on_a_short_face_row(self):
        # such a row is refused when the complex is built, so no path meets it
        with pytest.raises(ShapeError) as err:
            TruncatedComplex.create(1, [2, 2], {1: [[1, 0], [1]]})
        assert str(err.value) == "face row needs 2 entries, got 1 (at faces.1[1])"

    @pytest.mark.parametrize(
        "start,path,message",
        [
            ((1, 0), GEN3, "lift must start at a total-space vertex, got 1/0"),
            ((0, 6), GEN3, "lift must start at a total-space vertex, got 0/6"),
            ((0, 1), GEN3, "source mismatch: proj(0/1) != path source 0/0"),
            ((0, 0), EdgePath.of((1, False)), "source mismatch: proj(0/0) != path source 0/2"),
            ((0, 0), EdgePath.forward(3), "edge path references missing edge 1/3"),
        ],
    )
    def test_lift_edge_path(self, start, path, message):
        with pytest.raises(KernelError) as err:
            lift_edge_path(build_double_cover(3), SimplexId(*start), path)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "path,message",
        [
            (EdgePath.forward(0, 1), "not a covering: 0 lifts of edge 1/1 at 0/1"),
            (EdgePath.forward(0, 1, 0), "edge path breaks at edge 1/0: starts at 0/0, expected 0/2"),
            (EdgePath.forward(0, 1, 7), "edge path references missing edge 1/7"),
            # Each step lifts, but the base path breaks.
            (EdgePath.forward(0, 0), "edge path breaks at edge 1/0: starts at 0/0, expected 0/1"),
        ],
    )
    def test_a_break_after_a_step_without_a_lift_is_named(self, path, message):
        """Over a projection that does not commute with faces, a covering
        can leave a step of a chaining path without a lift: each total
        vertex maps to 0/0, with one edge over 1/0 out of it and one over
        1/2 into it, and none over 1/1. The step is named only when the
        rest of the path chains, and a path that breaks is refused even
        where each of its steps lifts."""
        faces = [[(i + 1) % 3, i] for i in range(3)] + [[i, (i + 1) % 3] for i in range(3)]
        total = TruncatedComplex.create(2, [3, 6, 0], {1: faces, 2: []})
        f = RupturedFibrationData(from_kan(total), from_kan(build_cycle(3)),
                                  SimplicialMap(((0, 0, 0), (0, 0, 0, 2, 2, 2), ())))
        assert covering_violation(f) is None
        with pytest.raises(KernelError) as err:
            lift_edge_path(f, SimplexId(0, 0), path)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "levels,message,reason",
        [
            (((0, 1, 2, 0), (0, 1, 2, 0, 1, 2), ()), "map not defined on 0/4",
             "map covers 4 of 6 simplices of the total space (at map.0)"),
            (((0, 1, 2, 0, 1, 2), (0, 1, 2), ()), "map not defined on 1/3",
             "map covers 3 of 6 simplices of the total space (at map.1)"),
            (((0, 1, 2, 0, 1, 2),), "map not defined on 1/0",
             "map covers dimensions 0..0, expected 0..2 (at map)"),
        ],
    )
    def test_lift_table_over_a_short_level(self, levels, message, reason):
        """A level that leaves out a simplex the lift table reads (as a bare
        map: ``message``) cannot be built into a fibration."""
        cover = build_double_cover(3)
        assert first_unmapped(SimplicialMap(levels), cover.total.underlying) == message
        with pytest.raises(ShapeError) as err:
            RupturedFibrationData(cover.total, cover.base, SimplicialMap(levels))
        assert str(err.value) == reason

    def test_lift_table_over_a_base_without_edges(self):
        # The map stops at the vertices, so the total edges have no image.
        cycle = from_kan(build_cycle(3))
        point = from_kan(TruncatedComplex.create(0, [1]))
        f = RupturedFibrationData(cycle, point, SimplicialMap(((0, 0, 0),)))
        for call in (
            lambda: covering_violation(f),
            lambda: lift_edge_path(f, SimplexId(0, 0), EdgePath(())),
        ):
            with pytest.raises(KernelError) as err:
                call()
            assert str(err.value) == "map not defined on 1/0"

    @pytest.mark.parametrize(
        "basepoint,loop,message",
        [
            ((0, 3), GEN3, "basepoint must be a base vertex, got 0/3"),
            ((1, 0), GEN3, "basepoint must be a base vertex, got 1/0"),
            ((0, 0), EdgePath.forward(0, 1), "loop must start and end at the basepoint"),
            ((0, 1), GEN3, "loop must start and end at the basepoint"),
            ((0, 0), EdgePath.forward(0, 2), "edge path breaks at edge 1/2: starts at 0/2, expected 0/1"),
        ],
    )
    def test_loop(self, basepoint, loop, message):
        cover = build_double_cover(3)
        for call in (
            lambda: monodromy(cover, SimplexId(*basepoint), loop),
            lambda: monodromy_ruptured(cover, SimplexId(*basepoint), [GEN3, loop]),
        ):
            with pytest.raises(KernelError) as err:
                call()
            assert str(err.value) == message


class TestMonodromy:
    def test_generator_swaps(self):
        cover = build_double_cover(3)
        perm = monodromy(cover, SimplexId(0, 0), GEN3)
        assert perm.mapping == ((0, 3), (3, 0))
        assert perm.cycles() == "(0 1)"

    def test_double_loop_identity(self):
        cover = build_double_cover(3)
        perm = monodromy(cover, SimplexId(0, 0), GEN3.concat(GEN3))
        assert is_identity(perm)

    def test_empty_loop_identity(self):
        cover = build_double_cover(3)
        assert is_identity(monodromy(cover, SimplexId(0, 0), EdgePath(())))

    def test_non_loop_rejected(self):
        cover = build_double_cover(3)
        with pytest.raises(KernelError):
            monodromy(cover, SimplexId(0, 0), EdgePath.forward(0))

    def test_trivial_cover_all_loops_trivial(self):
        cover = trivial_double_cover(3)
        assert is_identity(monodromy(cover, SimplexId(0, 0), GEN3))

    def test_homomorphism_law_exhaustive(self):
        # mu(alpha then beta) = mu(beta) after mu(alpha), over every loop
        # pair with |alpha| + |beta| <= 2m
        m = 3
        cover = build_double_cover(m)
        base = cover.base.underlying
        basepoint = SimplexId(0, 0)

        def loops_up_to(length):
            paths = [((), basepoint)]
            out = []
            for _ in range(length):
                nxt = []
                for steps, at in paths:
                    for edge in range(base.count(1)):
                        for forward in (True, False):
                            sid = SimplexId(1, edge)
                            src = base.face(sid, 1 if forward else 0)
                            if src != at:
                                continue
                            end = base.face(sid, 0 if forward else 1)
                            nxt.append((steps + ((edge, forward),), end))
                paths = nxt
                out.extend(
                    EdgePath(steps) for steps, at in paths if at == basepoint
                )
            return out

        loops = loops_up_to(2 * m)
        short = [l for l in loops if len(l) <= m]
        assert loops
        for alpha in short:
            for beta in short:
                lhs = monodromy(cover, basepoint, alpha.concat(beta))
                rhs = compose_after(
                    monodromy(cover, basepoint, beta), monodromy(cover, basepoint, alpha)
                )
                assert lhs == rhs


class TestMonodromyRuptured:
    def test_generator_registers_two_gaps(self):
        cover = build_double_cover(3)
        ruptured = monodromy_ruptured(cover, SimplexId(0, 0), [GEN3])
        gapped = [e for e in ruptured.loop_gaps.values() if e.gapped]
        assert len(gapped) == 2
        for entry in gapped:
            assert entry.mode.kind == "monodromy"
            assert entry.mode.payload == monodromy(cover, SimplexId(0, 0), GEN3)

    def test_doubled_loop_coherent_closure(self):
        cover = build_double_cover(3)
        doubled = GEN3.concat(GEN3)
        ruptured = monodromy_ruptured(cover, SimplexId(0, 0), [doubled])
        entries = list(ruptured.loop_gaps.values())
        assert entries and all(not e.gapped for e in entries)
        closing = entries[0].closing_lift
        assert closing is not None and len(closing) == 6
        assert path_target(cover.total.underlying, closing) == entries[0].start

    def test_trivial_cover_no_gaps(self):
        cover = trivial_double_cover(3)
        ruptured = monodromy_ruptured(cover, SimplexId(0, 0), [GEN3])
        assert all(not e.gapped for e in ruptured.loop_gaps.values())

    def test_exclusion_no_gapped_problem_closes(self):
        # brute force: a gapped based-loop problem never has a closing lift
        cover = build_double_cover(3)
        ruptured = monodromy_ruptured(cover, SimplexId(0, 0), [GEN3, GEN3.concat(GEN3)])
        for (loop_key, start), entry in ruptured.loop_gaps.items():
            lifted = lift_edge_path(cover, SimplexId(0, start), EdgePath(loop_key))
            closes = path_target(cover.total.underlying, lifted) == SimplexId(0, start)
            assert closes == (not entry.gapped)

    def test_transport_horn_payload_matches(self):
        ruptured = monodromy_ruptured(build_double_cover(3), SimplexId(0, 0), [GEN3])
        perm = monodromy(build_double_cover(3), SimplexId(0, 0), GEN3)
        for v in (0, 3):
            inh = detect_transport_horn(ruptured, SimplexId(0, v), GEN3)
            assert inh is not None
            assert inh.gap.payload == perm


class TestFiberPermutation:
    def test_bijectivity_enforced(self):
        with pytest.raises(KernelError):
            FiberPermutation.of([0, 3], {0: 3, 3: 3})

    def test_cycles_identity(self):
        assert FiberPermutation.of([0, 3], {0: 0, 3: 3}).cycles() == "()"

    def test_composition_closure(self):
        swap = FiberPermutation.of([0, 3], {0: 3, 3: 0})
        assert is_identity(compose_after(swap, swap))


# -- nested edge scans: the reference for the lift table -------------------------


def scan_lifts(f, edge, face_idx, at):
    """Total edges over ``edge`` whose d_{face_idx} is vertex ``at``."""
    e = f.total.underlying
    return [
        te
        for te in range(e.count(1))
        if e.face_row(1, te)[face_idx] == at and f.proj.levels[1][te] == edge
    ]


def scan_violation(f):
    e, b = f.total.underlying, f.base.underlying
    for w in range(e.count(0)):
        for be in range(b.count(1)):
            for face_idx, direction in ((1, "forward"), (0, "backward")):
                if b.face_row(1, be)[face_idx] != f.proj.levels[0][w]:
                    continue
                lifts = scan_lifts(f, be, face_idx, w)
                if len(lifts) != 1:
                    return f"vertex 0/{w} has {len(lifts)} {direction} lifts of base edge 1/{be}"
    return None


def scan_lift(f, start, path):
    """Steps of the lift of ``path`` from total vertex ``start``, and its end."""
    e, at, steps = f.total.underlying, start, []
    for edge, forward in path.steps:
        (te,) = scan_lifts(f, edge, 1 if forward else 0, at)
        steps.append((te, forward))
        at = e.face_row(1, te)[0 if forward else 1]
    return EdgePath(tuple(steps)), at


def scan_registry(f, basepoint, loops):
    fiber = [w for w in range(f.total.underlying.count(0)) if f.proj.levels[0][w] == basepoint]
    registry = {}
    for loop in loops:
        lifts = {v: scan_lift(f, v, loop) for v in fiber}
        perm = FiberPermutation.of(fiber, {v: end for v, (_, end) in lifts.items()})
        for v, (lifted, end) in lifts.items():
            start = SimplexId(0, v)
            if end != v:
                entry = LoopProblem(loop.key(), start, True, GapMode("monodromy", perm))
            else:
                entry = LoopProblem(loop.key(), start, False, None, lifted)
            registry[(loop.key(), v)] = entry
    return registry


def with_edges(f, keep):
    """``f`` with total edges ``keep`` (old indices, repeats allowed) only."""
    e = f.total.underlying
    rows = [list(e.face_row(1, te)) for te in keep]
    total = TruncatedComplex.create(2, [e.count(0), len(rows), 0], {1: rows, 2: []})
    proj = SimplicialMap((f.proj.levels[0], tuple(f.proj.levels[1][te] for te in keep), ()))
    return RupturedFibrationData(from_kan(total), f.base, proj)


def base_loops(m, basepoint):
    """Generator from the basepoint, its double, its reverse and the empty loop."""
    gen = EdgePath.forward(*((basepoint + i) % m for i in range(m)))
    back = EdgePath.of(*((e, False) for e, _ in reversed(gen.steps)))
    return [gen, gen.concat(gen), back, EdgePath(())]


def oracle_covers():
    for m in range(3, 9):
        yield m, build_double_cover(m)
        yield m, trivial_double_cover(m)


class TestLiftTableOracle:
    def test_covers_match_the_scan(self):
        for m, cover in oracle_covers():
            assert covering_violation(cover) is None and scan_violation(cover) is None
            for b in range(m):
                loops = base_loops(m, b)
                got = monodromy_ruptured(cover, SimplexId(0, b), loops)
                assert got.loop_gaps == scan_registry(cover, b, loops)
            for w in range(2 * m):
                for loop in base_loops(m, w % m):
                    lifted = lift_edge_path(cover, SimplexId(0, w), loop)
                    assert lifted == scan_lift(cover, w, loop)[0]

    def test_broken_covers_report_the_scan_failure(self):
        broken = 0
        for m, cover in oracle_covers():
            if m > 5:
                continue
            edges = list(range(cover.total.underlying.count(1)))
            for te in edges:
                dropped = with_edges(cover, edges[:te] + edges[te + 1 :])
                doubled = with_edges(cover, edges + [te])
                for f in (dropped, doubled):
                    want = scan_violation(f)
                    assert want is not None and covering_violation(f) == want
                    for call in (
                        lambda: lift_edge_path(f, SimplexId(0, 0), EdgePath(())),
                        lambda: monodromy_ruptured(f, SimplexId(0, 0), []),
                    ):
                        with pytest.raises(KernelError) as err:
                            call()
                        assert str(err.value) == f"not a covering: {want}"
                    broken += 1
        assert broken == 2 * 2 * (6 + 8 + 10)
