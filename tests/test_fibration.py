"""Lifting problems, transport, fibers, horn detectors, and composition."""

import importlib.util
import pathlib
import random
from itertools import product as cartesian

import pytest

from rupture_kit.documents import load_document
from rupture_kit.errors import KernelError, ShapeError
from rupture_kit.fibration import (
    Coherent,
    Gapped,
    LiftingProblemKey,
    OpenTransport,
    RupturedFibrationData,
    classify_lift,
    compose_fibrations,
    detect_functoriality_horn,
    detect_transport_horn,
    enumerate_lifting_problems,
    fiber,
    key_violations,
    transport,
    transport_key,
    validate_fibration,
    validate_fibration_deep,
)
from rupture_kit.ruptured import (
    CoherentlyFilled,
    GapMode,
    GapWitnessed,
    Open,
    RupturedComplex,
    classify_horn,
    from_kan,
    product,
)
from rupture_kit.simplicial import (
    HornSpec,
    SimplexId,
    SimplicialMap,
    TruncatedComplex,
    enumerate_horns,
    find_fillers,
    horn_fits,
    standard_simplex,
)
from rupture_kit.covering import EdgePath, build_cycle, build_double_cover, trivial_double_cover
from fixture_builders import (
    bank_fibration,
    bottle_fibration,
    crane_fibration,
    misfit_lift_fibration,
    mobius_rupture,
    source_anchored_problem,
)
from support import FIXTURES, composition_fixture, random_complex

# The benchmark's brute-force scans, which import nothing from rupture_kit.
_spec = importlib.util.spec_from_file_location(
    "bench_oracle", pathlib.Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
)
bench_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_oracle)


class TestValidateFibration:
    def test_double_cover_clean(self):
        assert validate_fibration(build_double_cover(3)) == []

    def test_gap_marking_liftable_problem_reported(self):
        cover = trivial_double_cover(3)
        # every edge problem in the trivial cover has a coherent lift
        key = source_anchored_problem(0, 0)
        marked = RupturedFibrationData(
            cover.total, cover.base, cover.proj, {key: GapMode("plain")}
        )
        report = validate_fibration(marked)
        assert any(v.kind == "lifting-exclusion" for v in report)

    def test_broken_projection_reported(self):
        cover = build_double_cover(3)
        broken = SimplicialMap(
            (cover.proj.levels[0], tuple((t + 1) % 3 for t in cover.proj.levels[1]), ())
        )
        bad = RupturedFibrationData(cover.total, cover.base, broken)
        assert any(
            v.kind == "face-commutation" for v in validate_fibration(bad)
        )

    @pytest.mark.parametrize("side", ["total", "base"])
    @pytest.mark.parametrize(
        "row,reason", [((3,), "face row needs 2 entries, got 1"), ((9, 0), "no simplex 0/9")]
    )
    def test_deep_reports_a_face_row_that_does_not_fit(self, side, row, reason):
        # Such a row is refused when the space is built, so the deep check
        # never meets it; the cover itself is clean.
        cover = build_double_cover(3)
        x = getattr(cover, side).underlying
        rows = list(x.face_table[0])
        rows[2] = row
        with pytest.raises(ShapeError) as err:
            x._replace(face_table=(tuple(rows), *x.face_table[1:]))
        assert str(err.value) == f"{reason} (at faces.1[2])"
        assert validate_fibration_deep(cover) == []

    def test_malformed_key_reported(self):
        bank = bank_fibration()
        bad_key = LiftingProblemKey(
            HornSpec.from_mapping(1, 0, {1: 1}), SimplexId(1, 0)
        )  # river-edge meaning does not sit over the edge's source
        bad = RupturedFibrationData(
            bank.total, bank.base, bank.proj, {bad_key: None}
        )
        assert any(
            v.kind == "lift-compatibility" for v in validate_fibration(bad)
        )


class TestClassifyLift:
    def test_trivial_cover_edge_problems_coherent(self):
        cover = trivial_double_cover(3)
        for key in enumerate_lifting_problems(cover):
            out = classify_lift(cover, key)
            assert isinstance(out, CoherentlyFilled)

    def test_gap_marked_problem(self):
        bank = bank_fibration()
        key = source_anchored_problem(0, 0)
        out = classify_lift(bank, key)
        assert isinstance(out, GapWitnessed) and out.mode.kind == "semantic"

    def test_unmarked_unliftable_problem_open(self):
        bank = bank_fibration()
        # the river-edge sense has no incoming lift and no mark: build the
        # problem of lifting the edge from the river sense backwards is not
        # well-formed; instead probe the unmarked forward problem from a
        # second fixture copy without the mark
        unmarked = RupturedFibrationData(bank.total, bank.base, bank.proj, {})
        out = classify_lift(unmarked, source_anchored_problem(0, 0))
        assert isinstance(out, Open)

    def test_rejects_incompatible_key(self):
        bank = bank_fibration()
        with pytest.raises(KernelError):
            classify_lift(
                bank,
                LiftingProblemKey(
                    HornSpec.from_mapping(1, 0, {1: 1}), SimplexId(1, 0)
                ),
            )

    def test_partition_over_all_problems(self):
        for fib in (
            build_double_cover(3),
            trivial_double_cover(3),
            bank_fibration(),
            crane_fibration(),
            bottle_fibration(),
        ):
            assert validate_fibration(fib) == []
            for key in enumerate_lifting_problems(fib):
                out = classify_lift(fib, key)
                marked = key in fib.gap_lifts
                if isinstance(out, CoherentlyFilled):
                    assert not marked
                elif isinstance(out, GapWitnessed):
                    assert marked
                else:
                    assert not marked


class TestTransport:
    def test_trivial_cover_coherent(self):
        cover = trivial_double_cover(3)
        out = transport(cover, SimplexId(0, 0), SimplexId(1, 0))
        assert out == Coherent(SimplexId(0, 1), 1)
        # second sheet stays on its sheet
        out2 = transport(cover, SimplexId(0, 3), SimplexId(1, 0))
        assert out2 == Coherent(SimplexId(0, 4), 1)

    def test_bank_gapped_semantic(self):
        bank = bank_fibration()
        out = transport(bank, SimplexId(0, 0), SimplexId(1, 0))
        assert isinstance(out, Gapped) and out.mode.kind == "semantic"

    def test_self_loop_identity_transport(self):
        base = TruncatedComplex.create(1, [1, 1], {1: [[0, 0]]})
        total = TruncatedComplex.create(1, [1, 1], {1: [[0, 0]]})
        f = RupturedFibrationData(
            from_kan(total), from_kan(base), SimplicialMap(((0,), (0,)))
        )
        out = transport(f, SimplexId(0, 0), SimplexId(1, 0))
        assert out == Coherent(SimplexId(0, 0), 1)

    def test_source_mismatch_rejected(self):
        bank = bank_fibration()
        with pytest.raises(KernelError):
            transport(bank, SimplexId(0, 1), SimplexId(1, 0))

    def test_multiplicity_reported_with_least_lift(self):
        base = TruncatedComplex.create(1, [2, 1], {1: [[1, 0]]})
        total = TruncatedComplex.create(
            1, [3, 2], {1: [[1, 0], [2, 0]]}
        )  # two lifts from vertex 0
        f = RupturedFibrationData(
            from_kan(total), from_kan(base), SimplicialMap(((0, 1, 1), (0, 0)))
        )
        out = transport(f, SimplexId(0, 0), SimplexId(1, 0))
        assert out == Coherent(SimplexId(0, 1), 2)

    def test_target_typing(self):
        # Coherent(e') implies proj(e') = d_0(path)
        cover = build_double_cover(4)
        for e_idx in range(8):
            for p_idx in range(4):
                e, p = SimplexId(0, e_idx), SimplexId(1, p_idx)
                if cover.proj.apply(e) != cover.base.underlying.face(p, 1):
                    continue
                out = transport(cover, e, p)
                assert isinstance(out, Coherent)
                assert cover.proj.apply(out.target) == cover.base.underlying.face(
                    p, 0
                )


class TestTransportHorn:
    def test_bank_inhabitant(self):
        bank = bank_fibration()
        inh = detect_transport_horn(bank, SimplexId(0, 0), SimplexId(1, 0))
        assert inh is not None and inh.gap.kind == "semantic"

    def test_trivial_cover_none(self):
        cover = trivial_double_cover(3)
        assert detect_transport_horn(cover, SimplexId(0, 0), SimplexId(1, 0)) is None

    def test_open_problem_yields_none(self):
        bank = bank_fibration()
        unmarked = RupturedFibrationData(bank.total, bank.base, bank.proj, {})
        assert detect_transport_horn(unmarked, SimplexId(0, 0), SimplexId(1, 0)) is None

    def test_based_loop_inhabitant_carries_permutation(self):
        mr = mobius_rupture(3)
        loop = EdgePath.forward(0, 1, 2)
        inh = detect_transport_horn(mr, SimplexId(0, 0), loop)
        assert inh is not None and inh.gap.kind == "monodromy"
        assert inh.gap.payload.cycles() == "(0 1)"
        # the doubled loop closes, so no horn
        assert detect_transport_horn(mr, SimplexId(0, 0), loop.concat(loop)) is None


class TestFiber:
    def test_double_cover_fiber_two_points(self):
        cover = build_double_cover(3)
        fib, inc = fiber(cover, SimplexId(0, 0))
        assert [fib.underlying.count(n) for n in range(3)] == [2, 0, 0]
        assert inc.levels[0] == (0, 3)
        assert fib.coh[0] == frozenset({0, 1})

    def test_identity_fibration_fiber_single_point(self):
        r = from_kan(build_cycle(3))
        ident = RupturedFibrationData(
            r, r, SimplicialMap.identity(r.underlying)
        )
        fib, inc = fiber(ident, SimplexId(0, 1))
        assert fib.underlying.count(0) == 1 and inc.levels[0] == (1,)

    def test_product_projection_fiber_matches_factor(self):
        from rupture_kit.ruptured import product

        r = from_kan(build_cycle(3))
        s = from_kan(build_cycle(4))
        p = product(r, s)
        # project pairs onto the left factor
        proj = SimplicialMap(
            tuple(
                tuple(
                    flat // s.underlying.count(n)
                    for flat in range(p.underlying.count(n))
                )
                for n in range(3)
            )
        )
        f = RupturedFibrationData(p, r, proj)
        fib, _ = fiber(f, SimplexId(0, 0))
        # vertices of the fiber match the right factor; edges need both
        # endpoints over the basepoint, which the cycle never provides
        assert fib.underlying.count(0) == s.underlying.count(0)
        assert fib.underlying.count(1) == 0

    def test_fiber_internal_horn_classification_agrees(self):
        # a fiber with internal 2-horns: two triangles over one basepoint
        total_complex = TruncatedComplex.create(
            2,
            [4, 4, 1],
            {1: [[1, 0], [2, 1], [2, 0], [3, 0]], 2: [[1, 2, 0]]},
        )
        # one vertex with a loop edge and a triangle on it, so that every
        # edge and the triangle have an image
        base = from_kan(TruncatedComplex.create(2, [1, 1, 1], {1: [[0, 0]], 2: [[0, 0, 0]]}))
        total = RupturedComplex.create(
            total_complex,
            {0: range(4), 1: [0, 1, 2], 2: [0]},
            [HornSpec.from_mapping(1, 0, {1: 3})],
        )
        f = RupturedFibrationData(
            total,
            base,
            SimplicialMap(((0, 0, 0, 0), (0, 0, 0, 0), (0,))),
        )
        assert validate_fibration(f) == []
        fib, inc = fiber(f, SimplexId(0, 0))
        assert fib.underlying.count(0) == 4
        # translate and compare classification through the inclusion
        for n in (1, 2):
            for k in range(n + 1):
                for h in enumerate_horns(fib.underlying, n, k):
                    image = inc.apply_horn(h)
                    direct = classify_horn(f.total, image)
                    through_fiber = classify_horn(fib, h)
                    if n >= 2:
                        assert type(direct) is type(through_fiber)
                    if isinstance(through_fiber, CoherentlyFilled):
                        assert [inc.apply(s) for s in through_fiber.fillers] == list(
                            direct.fillers
                        )

    def test_rejects_noncoherent_base_vertex(self):
        cover = build_double_cover(3)
        stripped = RupturedFibrationData(
            cover.total,
            RupturedComplex.create(cover.base.underlying, {0: [], 1: []}),
            cover.proj,
        )
        with pytest.raises(KernelError):
            fiber(stripped, SimplexId(0, 0))
        with pytest.raises(KernelError):
            fiber(cover, SimplexId(1, 0))


class TestCompose:
    def test_identity_step_preserves_classification(self):
        # classification unchanged on every enumerable problem
        for fib in (bank_fibration(), crane_fibration(), trivial_double_cover(3)):
            ident = RupturedFibrationData(
                fib.base, fib.base, SimplicialMap.identity(fib.base.underlying)
            )
            comp = compose_fibrations(fib, ident)
            problems = enumerate_lifting_problems(fib)
            assert problems == enumerate_lifting_problems(comp)
            for key in problems:
                assert type(classify_lift(comp, key)) is type(classify_lift(fib, key))

    def test_truth_table(self):
        expect_probe = {
            "C": {"C": CoherentlyFilled, "G": GapWitnessed, "O": Open},
            "G": {"C": GapWitnessed, "G": GapWitnessed, "O": GapWitnessed},
            "O": {"C": Open, "G": Open, "O": Open},
        }
        expect_control = {"C": CoherentlyFilled, "G": GapWitnessed, "O": Open}
        for s1 in "CGO":
            for s2 in "CGO":
                upper, lower, probe, control = composition_fixture(s1, s2)
                assert validate_fibration(upper) == []
                assert validate_fibration(lower) == []
                comp = compose_fibrations(upper, lower)
                assert validate_fibration(comp) == []
                assert isinstance(classify_lift(comp, probe), expect_probe[s1][s2])
                assert isinstance(classify_lift(comp, control), expect_control[s2])

    def test_mode_inherited_from_gapped_step(self):
        upper, lower, probe, _ = composition_fixture("G", "O")
        comp = compose_fibrations(upper, lower)
        out = classify_lift(comp, probe)
        assert isinstance(out, GapWitnessed) and out.mode == GapMode("plain")

    def test_complex_mismatch_rejected(self):
        bank = bank_fibration()
        crane = crane_fibration()
        with pytest.raises(KernelError):
            compose_fibrations(bank, crane)


class TestFunctorialityHorn:
    def test_crane_drift(self):
        crane = crane_fibration()
        inh = detect_functoriality_horn(
            crane, SimplexId(0, 0), SimplexId(1, 0), SimplexId(1, 1)
        )
        assert inh is not None
        assert inh.midpoint == SimplexId(0, 1)
        assert inh.endpoint == SimplexId(0, 2)
        assert inh.gap.kind == "semantic"

    def test_all_coherent_none(self):
        crane = crane_fibration()
        # add the direct lift; composite transport becomes coherent
        total = crane.total.underlying
        richer = TruncatedComplex.create(
            1,
            [3, 3],
            {1: [list(total.face_row(1, 0)), list(total.face_row(1, 1)), [2, 0]]},
        )
        fixed = RupturedFibrationData(
            from_kan(richer),
            crane.base,
            SimplicialMap((crane.proj.levels[0], (0, 1, 2))),
            {},
            crane.composites,
        )
        assert (
            detect_functoriality_horn(
                fixed, SimplexId(0, 0), SimplexId(1, 0), SimplexId(1, 1)
            )
            is None
        )

    def test_first_step_gapped_none(self):
        crane = crane_fibration()
        # remove the first-step lift and gap-mark it instead
        total = crane.total.underlying
        poorer = TruncatedComplex.create(
            1, [3, 1], {1: [list(total.face_row(1, 1))]}
        )
        marked = RupturedFibrationData(
            from_kan(poorer),
            crane.base,
            SimplicialMap((crane.proj.levels[0], (1,))),
            {
                source_anchored_problem(0, 0): GapMode("plain"),
                source_anchored_problem(0, 2): GapMode("semantic", ("x",)),
            },
            crane.composites,
        )
        assert validate_fibration(marked) == []
        assert (
            detect_functoriality_horn(
                marked, SimplexId(0, 0), SimplexId(1, 0), SimplexId(1, 1)
            )
            is None
        )

    def test_missing_designation_rejected(self):
        crane = crane_fibration()
        undesignated = RupturedFibrationData(
            crane.total, crane.base, crane.proj, dict(crane.gap_lifts)
        )
        with pytest.raises(KernelError):
            detect_functoriality_horn(
                undesignated, SimplexId(0, 0), SimplexId(1, 0), SimplexId(1, 1)
            )

    def test_non_composable_rejected(self):
        crane = crane_fibration()
        with pytest.raises(KernelError):
            detect_functoriality_horn(
                crane, SimplexId(0, 0), SimplexId(1, 1), SimplexId(1, 0)
            )


def left_projection(r: RupturedComplex, s: RupturedComplex) -> RupturedFibrationData:
    """r x s projected onto r."""
    p = product(r, s)
    top = p.underlying.dim_bound
    proj = SimplicialMap(
        tuple(
            tuple(flat // s.underlying.count(n) for flat in range(p.underlying.count(n)))
            for n in range(top + 1)
        )
    )
    return RupturedFibrationData(p, r, proj)


def product_projection() -> RupturedFibrationData:
    """cycle(3) x cycle(4) projected onto the left factor."""
    return left_projection(from_kan(build_cycle(3)), from_kan(build_cycle(4)))


def thinned(f: RupturedFibrationData, rng: random.Random) -> RupturedFibrationData:
    """Drop about a third of the coherent total edges and gap-mark half of
    the transport problems left without a lift."""
    x = f.total.underlying
    coh = {n: set(f.total.coh[n]) for n in range(x.dim_bound + 1)}
    coh[1] = {i for i in coh[1] if rng.random() < 0.65}
    total = RupturedComplex.create(x, coh)
    gap_lifts = {}
    for w in range(x.count(0)):
        for e in range(f.base.underlying.count(1)):
            lifted = any(
                x.face_row(1, t)[1] == w and f.proj.levels[1][t] == e for t in coh[1]
            )
            if not lifted and rng.random() < 0.5:
                key = LiftingProblemKey(
                    HornSpec.from_mapping(1, 0, {1: w}), SimplexId(1, e)
                )
                gap_lifts[key] = GapMode("plain")
    return RupturedFibrationData(total, f.base, f.proj, gap_lifts)


def oracle_fibrations():
    rng = random.Random(71)
    plain = [build_double_cover(m) for m in (3, 4, 5)]
    plain += [trivial_double_cover(m) for m in (3, 4)]
    plain.append(product_projection())
    return plain + [thinned(f, rng) for f in plain]


class TestTransportOracle:
    def test_matches_nested_edge_scan(self):
        checked = 0
        for f in oracle_fibrations():
            x, b = f.total.underlying, f.base.underlying
            for w in range(x.count(0)):
                for e in range(b.count(1)):
                    if f.proj.levels[0][w] != b.face_row(1, e)[1]:
                        continue
                    lifts = [
                        t
                        for t in range(x.count(1))
                        if t in f.total.coh[1]
                        and x.face_row(1, t)[1] == w
                        and f.proj.levels[1][t] == e
                    ]
                    key = LiftingProblemKey(
                        HornSpec.from_mapping(1, 0, {1: w}), SimplexId(1, e)
                    )
                    if lifts:
                        target = SimplexId(0, x.face_row(1, lifts[0])[0])
                        want = Coherent(target, len(lifts))
                    elif key in f.gap_lifts:
                        want = Gapped(f.gap_lifts[key])
                    else:
                        want = OpenTransport()
                    assert transport(f, SimplexId(0, w), SimplexId(1, e)) == want
                    checked += 1
        assert checked >= 100

    def test_matches_edge_scan_on_seeded_fibrations(self):
        """Seeded fibrations with parallel total edges over one base edge,
        incoherent points and edges, and gap marks (some on problems that
        have a coherent lift): every (term, edge) pair, out-of-range ones
        included, against one scan over all total edges."""
        rng = random.Random(37)
        seen = {"coherent": 0, "multiple": 0, "gapped": 0, "marked-coherent": 0,
                "open": 0, "rejected": 0}
        for _ in range(60):
            f = seeded_transport_fibration(rng)
            x, b = f.total.underlying, f.base.underlying
            vertex_of, edge_of = f.proj.levels[0], f.proj.levels[1]
            for w in range(x.count(0) + 1):
                for e in range(b.count(1) + 1):
                    well_formed = (
                        w in f.total.coh[0] and e in f.base.coh[1]
                        and vertex_of[w] == b.face_row(1, e)[1]
                    )
                    if not well_formed:
                        with pytest.raises(KernelError):
                            transport(f, SimplexId(0, w), SimplexId(1, e))
                        seen["rejected"] += 1
                        continue
                    lifts = [
                        t for t in range(x.count(1))
                        if t in f.total.coh[1] and x.face_row(1, t)[1] == w and edge_of[t] == e
                    ]
                    key = LiftingProblemKey(HornSpec(1, 0, (w,)), SimplexId(1, e))
                    if lifts:
                        want = Coherent(SimplexId(0, x.face_row(1, lifts[0])[0]), len(lifts))
                        seen["coherent"] += 1
                        seen["multiple"] += len(lifts) > 1
                        seen["marked-coherent"] += key in f.gap_lifts
                    elif key in f.gap_lifts:
                        want = Gapped(f.gap_lifts[key])
                        seen["gapped"] += 1
                    else:
                        want = OpenTransport()
                        seen["open"] += 1
                    assert transport(f, SimplexId(0, w), SimplexId(1, e)) == want
        assert min(seen.values()) >= 20, seen


    def test_agrees_with_classify_lift_and_the_bench_scan(self):
        """Every (term, edge) pair, in range and out of range, on the covers
        and on thinned, gap-marked covers: the outcome and the error text
        that :func:`classify_lift` gives for the transport key, and on a
        well-formed key the benchmark's scan over all total edges."""
        rng = random.Random(53)
        covers = [build_double_cover(3), build_double_cover(4), trivial_double_cover(3)]
        seen = {"coherent": 0, "gapped": 0, "open": 0, "rejected": 0}
        for f in covers + [small_gapped_cover(rng) for _ in range(30)]:
            x, b = f.total.underlying, f.base.underlying
            gap_keys = {(key.horn.faces[0], key.base.index) for key in f.gap_lifts}
            for w in range(-1, x.count(0) + 1):
                for e in range(-1, b.count(1) + 1):
                    term, path = SimplexId(0, w), SimplexId(1, e)
                    try:
                        outcome = classify_lift(f, transport_key(term, path))
                    except KernelError as err:
                        with pytest.raises(KernelError) as got:
                            transport(f, term, path)
                        assert str(got.value) == str(err)
                        seen["rejected"] += 1
                        continue
                    got = transport(f, term, path)
                    scan = bench_oracle.transport(x, f.total.coh, f.proj.levels[1], gap_keys, w, e)
                    if isinstance(outcome, CoherentlyFilled):
                        lifts = outcome.fillers
                        assert got == Coherent(x.face(lifts[0], 0), len(lifts))
                        assert scan == ("coherent", got.target.index, got.multiplicity)
                    elif isinstance(outcome, GapWitnessed):
                        assert got == Gapped(outcome.mode) and scan == ("gapped",)
                    else:
                        assert got == OpenTransport() and scan == ("open",)
                    seen[scan[0]] += 1
        assert min(seen.values()) >= 20, seen


def small_gapped_cover(rng: random.Random) -> RupturedFibrationData:
    """A double cover, connected or two sheets, of a cycle of 3 to 8
    vertices with about a fifth of the total edges not coherent and the
    transport along half of those gap-marked."""
    m = rng.randint(3, 8)
    cover = build_double_cover(m) if rng.random() < 0.5 else trivial_double_cover(m)
    x = cover.total.underlying
    coh = {0: range(2 * m), 1: [t for t in range(2 * m) if rng.random() < 0.8]}
    gap_lifts = {
        LiftingProblemKey(HornSpec(1, 0, (x.face_row(1, t)[1],)),
                          SimplexId(1, cover.proj.levels[1][t])): GapMode("plain")
        for t in range(2 * m)
        if t not in coh[1] and rng.random() < 0.5
    }
    return RupturedFibrationData(
        RupturedComplex.create(x, coh), cover.base, cover.proj, gap_lifts
    )


class TestSeededLiftingProblems:
    def test_match_the_edge_scan(self):
        """On seeded 1-dimensional fibrations with incoherent points and
        base edges: the (1, 0)-problems are the coherent base edges leaving
        the image of a coherent point, the (1, 1)-problems those arriving."""
        rng = random.Random(41)
        skipped_base = 0
        for _ in range(60):
            f = seeded_transport_fibration(rng)
            b = f.base.underlying
            want = []
            for k in (0, 1):
                for w in sorted(f.total.coh[0]):
                    for e in range(b.count(1)):
                        if b.face_row(1, e)[1 - k] != f.proj.levels[0][w]:
                            continue
                        if e not in f.base.coh[1]:
                            skipped_base += 1
                            continue
                        want.append(LiftingProblemKey(HornSpec(1, k, (w,)), SimplexId(1, e)))
            assert enumerate_lifting_problems(f) == want
        assert skipped_base >= 20


def seeded_transport_fibration(rng: random.Random) -> RupturedFibrationData:
    """A 1-dimensional fibration: one to three points over each base vertex,
    zero to three total edges over each base edge (a repeated face row is a
    parallel edge), random coherence in both spaces, and gap marks with
    random modes on about a third of the transport problems."""
    v = rng.randint(1, 4)
    base_rows = [[rng.randrange(v), rng.randrange(v)] for _ in range(rng.randint(1, 5))]
    over = {b: [] for b in range(v)}
    vertex_of = []
    for b in range(v):
        for _ in range(rng.randint(1, 3)):
            over[b].append(len(vertex_of))
            vertex_of.append(b)
    rows, edge_of = [], []
    for e, (tgt, src) in enumerate(base_rows):
        for _ in range(rng.randint(0, 3)):
            row = [rng.choice(over[tgt]), rng.choice(over[src])]
            for _ in range(rng.choice((1, 1, 2))):
                rows.append(row)
                edge_of.append(e)
    total = TruncatedComplex.create(1, [len(vertex_of), len(rows)], {1: rows})
    base = TruncatedComplex.create(1, [v, len(base_rows)], {1: base_rows})
    total_coh = {0: [w for w in range(len(vertex_of)) if rng.random() < 0.85],
                 1: [t for t in range(len(rows)) if rng.random() < 0.6]}
    base_coh = {0: range(v), 1: [e for e in range(len(base_rows)) if rng.random() < 0.85]}
    modes = [None, GapMode("plain"), GapMode("semantic", ("cut",))]
    gap_lifts = {
        LiftingProblemKey(HornSpec(1, 0, (w,)), SimplexId(1, e)): rng.choice(modes)
        for w in range(len(vertex_of))
        for e, (_, src) in enumerate(base_rows)
        if vertex_of[w] == src and rng.random() < 0.35
    }
    return RupturedFibrationData(
        RupturedComplex.create(total, total_coh),
        RupturedComplex.create(base, base_coh),
        SimplicialMap((tuple(vertex_of), tuple(edge_of))),
        gap_lifts,
    )


def product_fibrations(seed: int, count: int):
    """Left projections of products of seeded random complexes; loop edges
    in the left factor give fibers with edges and triangles."""
    rng = random.Random(seed)
    for _ in range(count):
        yield left_projection(from_kan(random_complex(rng)), from_kan(random_complex(rng)))


class TestFiberOracle:
    def test_matches_vertex_set_scan(self):
        kept_above_vertices = 0
        for f in [*oracle_fibrations(), *product_fibrations(13, 8)]:
            x = f.total.underlying

            def vertices(n, idx):
                level = {idx}
                for m in range(n, 0, -1):
                    level = {v for s in level for v in x.face_row(m, s)}
                return level

            for b in sorted(f.base.coh[0]):
                want = tuple(
                    tuple(
                        idx
                        for idx in range(x.count(n))
                        if all(f.proj.levels[0][v] == b for v in vertices(n, idx))
                    )
                    for n in range(x.dim_bound + 1)
                )
                fib, inclusion = fiber(f, SimplexId(0, b))
                assert inclusion.levels == want
                assert [fib.underlying.count(n) for n in range(x.dim_bound + 1)] == [
                    len(level) for level in want
                ]
                kept_above_vertices += len(want[1]) + len(want[2])
        assert kept_above_vertices >= 50


    def test_marks_follow_the_kept_simplices(self):
        """Coherence marks and gap horns of the fiber match a scan of every
        mark of a total space with random marks and modes."""
        rng = random.Random(23)
        kept_gaps = 0
        for f in product_fibrations(17, 8):
            x = f.total.underlying
            coh = {n: [i for i in range(x.count(n)) if rng.random() < 0.7]
                   for n in range(x.dim_bound + 1)}
            gap = {
                h: rng.choice([None, GapMode("plain"), GapMode("semantic", ("cut",))])
                for n in range(1, x.dim_bound + 1)
                for k in range(n + 1)
                for h in enumerate_horns(x, n, k)
                if rng.random() < 0.5
            }
            f = RupturedFibrationData(RupturedComplex.create(x, coh, gap), f.base, f.proj)
            for b in sorted(f.base.coh[0]):
                fib, inclusion = fiber(f, SimplexId(0, b))
                position = [{old: new for new, old in enumerate(level)}
                            for level in inclusion.levels]
                assert fib.coh == tuple(
                    frozenset(position[n][i] for i in coh[n] if i in position[n])
                    for n in range(x.dim_bound + 1)
                )
                want = {
                    HornSpec(h.n, h.k, tuple(position[h.n - 1][fc] for fc in h.faces)): mode
                    for h, mode in gap.items()
                    if all(fc in position[h.n - 1] for fc in h.faces)
                }
                assert dict(fib.gap) == want
                kept_gaps += len(want)
        assert kept_gaps >= 100


class TestLiftingProblemOracle:
    def test_matches_nested_horn_and_base_scan(self):
        for f in oracle_fibrations():
            x, b = f.total.underlying, f.base.underlying
            want = []
            for n in range(1, min(x.dim_bound, b.dim_bound) + 1):
                for k in range(n + 1):
                    present = [i for i in range(n + 1) if i != k]
                    for faces in cartesian(range(x.count(n - 1)), repeat=n):
                        fm = dict(zip(present, faces))
                        if not all(fc in f.total.coh[n - 1] for fc in faces):
                            continue
                        if not all(
                            x.face_row(n - 1, fm[j])[i] == x.face_row(n - 1, fm[i])[j - 1]
                            for i in present
                            for j in present
                            if i < j
                        ):
                            continue
                        for base in sorted(f.base.coh[n]):
                            if all(
                                f.proj.levels[n - 1][fm[i]] == b.face_row(n, base)[i]
                                for i in present
                            ):
                                want.append(
                                    LiftingProblemKey(
                                        HornSpec(n, k, tuple(faces)), SimplexId(n, base)
                                    )
                                )
            want.sort(key=lambda key: (key.horn, key.base))
            assert enumerate_lifting_problems(f) == want


def law_fibrations() -> list[RupturedFibrationData]:
    """The four fibration fixtures as read from their documents, the double
    covers, the projections of Delta^n x Delta^2 onto Delta^n (n = 2, 3), and
    the fibration whose gap lift's horn faces disagree."""
    fixtures = [load_document(FIXTURES / f"{name}.json").body
                for name in ("bank", "bottle", "crane", "double_cover_3")]
    tri = from_kan(standard_simplex(2, 2))
    return fixtures + [build_double_cover(3), build_double_cover(4), trivial_double_cover(3)] + [
        left_projection(from_kan(standard_simplex(n, 2)), tri) for n in (2, 3)
    ] + [misfit_lift_fibration()]


def test_a_key_is_well_formed_exactly_when_it_is_enumerated():
    """Every in-range key, a horn whose faces name simplices of the total
    space over a simplex of the base, has an empty :func:`key_violations`
    report exactly when :func:`enumerate_lifting_problems` lists it: both
    ask the one horn rule, so a horn whose faces disagree is neither."""
    keys = misfits = 0
    for f in law_fibrations():
        x, b = f.total.underlying, f.base.underlying
        listed = set(enumerate_lifting_problems(f))
        for n in range(1, min(x.dim_bound, b.dim_bound) + 1):
            for k in range(n + 1):
                for faces in cartesian(range(x.count(n - 1)), repeat=n):
                    h = HornSpec(n, k, faces)
                    misfits += not horn_fits(x, h)
                    for s in range(b.count(n)):
                        key = LiftingProblemKey(h, SimplexId(n, s))
                        assert (key_violations(f, key) == []) == (key in listed), key
                        keys += 1
    assert keys >= 4600 and misfits >= 100
    gap_lift = next(iter(misfit_lift_fibration().gap_lifts))
    assert [v.kind for v in key_violations(misfit_lift_fibration(), gap_lift)] == [
        "horn-compatibility"]


class TestTransportErrors:
    """Transport checks its inputs as the lifting problem it is: the
    messages are those of the key's well-formedness report."""

    @pytest.mark.parametrize(
        "term,path,message",
        [
            ((0, 1), (1, 0), r"over 1/0\): proj\(face 1\) != d_1\(base\)"),
            ((0, 5), (1, 0),
             r"over 1/0\): horn\(n=1, k=0, faces=\{1:5\}\) face 1 references missing 0/5"),
            ((0, 0), (0, 0), r"base dimension 0 != 1"),
            ((0, 0), (1, 3), r"base simplex missing"),
            ((1, 0), (1, 0), r"transport needs a total-space vertex, got 1/0"),
        ],
    )
    def test_rejection_names_the_broken_part(self, term, path, message):
        with pytest.raises(KernelError, match=message):
            transport(bank_fibration(), SimplexId(*term), SimplexId(*path))

    def test_noncoherent_point_and_edge_both_reported(self):
        cover = trivial_double_cover(3)
        x, b = cover.total.underlying, cover.base.underlying
        f = RupturedFibrationData(
            RupturedComplex.create(x, {0: range(1, 6), 1: range(6)}),
            RupturedComplex.create(b, {0: range(3), 1: [1, 2]}),
            cover.proj,
        )
        with pytest.raises(KernelError) as err:
            transport(f, SimplexId(0, 0), SimplexId(1, 0))
        assert "face 1 = 0/0 is not coherent" in str(err.value)
        assert "base simplex not coherent" in str(err.value)


def with_levels(f: RupturedFibrationData, *levels) -> RupturedFibrationData:
    """``f`` with its projection's levels replaced."""
    return RupturedFibrationData(f.total, f.base, SimplicialMap(tuple(levels)), f.gap_lifts)


def first_horn_off_the_base(proj: SimplicialMap, f: RupturedFibrationData) -> str | None:
    """The error of the first (1, 0)-horn of f's total space whose image
    under a bare map is no horn of f's base; None when every image is one."""
    for h in enumerate_horns(f.total.underlying, 1, 0):
        try:
            find_fillers(f.base.underlying, proj.apply_horn(h))
        except KernelError as err:
            return str(err)
    return None


class TestMapLevelErrors:
    """A level that is too short or points outside the base cannot be built
    into a fibration, whatever would read it. As a bare map it still raises
    the error (``message``) of the first simplex or horn it cannot carry."""

    @pytest.mark.parametrize(
        "vertices,message,reason",
        [
            ((0, 1, 2, 0), "map not defined on 0/4",
             "map covers 4 of 6 simplices of the total space (at map.0)"),
            ((), "map not defined on 0/0",
             "map covers 0 of 6 simplices of the total space (at map.0)"),
            ((0, 1, 7, 0, 1, 2), "horn(n=1, k=0, faces={1:7}) face 1 references missing 0/7",
             "no simplex 0/7 (at map.0[2])"),
            ((0, 1, -1, 0, 1, 2), "horn(n=1, k=0, faces={1:-1}) face 1 references missing 0/-1",
             "no simplex 0/-1 (at map.0[2])"),
        ],
    )
    def test_enumerate_lifting_problems(self, vertices, message, reason):
        cover = build_double_cover(3)
        levels = (vertices, cover.proj.levels[1], ())
        assert first_horn_off_the_base(SimplicialMap(levels), cover) == message
        with pytest.raises(ShapeError) as err:
            with_levels(cover, *levels)
        assert str(err.value) == reason

    def test_enumerate_skips_incoherent_faces_outside_the_level(self):
        # refused even when every vertex the level leaves out is incoherent
        cover = build_double_cover(3)
        total = RupturedComplex.create(
            cover.total.underlying, {0: range(4), 1: range(6)}
        )
        with pytest.raises(ShapeError) as err:
            RupturedFibrationData(
                total, cover.base, SimplicialMap(((0, 1, 2, 0), *cover.proj.levels[1:]))
            )
        assert str(err.value) == "map covers 4 of 6 simplices of the total space (at map.0)"

    @pytest.mark.parametrize(
        "term,vertices,edges,message",
        [
            (3, (0, 1, 2, 0, 1, 2), (0, 1, 2), "map not defined on 1/3"),
            (4, (0, 1, 2, 0, 1, 2), (0, 1, 2, 0), "map not defined on 1/4"),
            (0, (0, 1, 2, 0, 1, 2), (), "map not defined on 1/0"),
            (4, (0, 1, 2, 0), (0, 1, 2, 0, 1, 2), "map not defined on 0/4"),
        ],
    )
    def test_transport(self, term, vertices, edges, message):
        # the bare map leaves out the point or the edge lifting it
        cover = build_double_cover(3)
        bare = SimplicialMap((vertices, edges, ()))
        with pytest.raises(KernelError) as err:
            for sid in (SimplexId(0, term), SimplexId(1, term)):
                bare.apply(sid)
        assert str(err.value) == message
        with pytest.raises(ShapeError) as err:
            with_levels(cover, vertices, edges, ())
        n, short = (0, vertices) if len(vertices) < 6 else (1, edges)
        assert str(err.value) == (
            f"map covers {len(short)} of 6 simplices of the total space (at map.{n})"
        )

    def test_transport_reads_only_its_lifts(self):
        # refused even where transport would read only lifts the level covers
        cover = build_double_cover(3)
        with pytest.raises(ShapeError) as err:
            with_levels(cover, cover.proj.levels[0], (0, 1, 2), ())
        assert str(err.value) == "map covers 3 of 6 simplices of the total space (at map.1)"

    def test_compose_over_a_short_outer_level(self):
        cover = build_double_cover(3)
        with pytest.raises(ShapeError) as err:
            with_levels(identity_over(cover.base), cover.proj.levels[0][:3], (0, 1), ())
        assert str(err.value) == "map covers 2 of 3 simplices of the total space (at map.1)"

    @pytest.mark.parametrize("edges", [(0, 1, 2), ()])
    def test_compose(self, edges):
        cover = build_double_cover(3)
        with pytest.raises(ShapeError) as err:
            with_levels(cover, cover.proj.levels[0], edges, ())
        assert str(err.value) == (
            f"map covers {len(edges)} of 6 simplices of the total space (at map.1)"
        )


    def test_compose_through_a_lower_middle_space(self):
        # The middle space stops at vertices, so the composite edge to edge
        # map has no edge level: the composite is refused, not returned short.
        edge, point = from_kan(standard_simplex(1, 1)), from_kan(standard_simplex(0, 0))
        f = RupturedFibrationData(edge, point, SimplicialMap(((0, 0),)))
        g = RupturedFibrationData(point, edge, SimplicialMap(((0,),)))
        with pytest.raises(ShapeError) as err:
            compose_fibrations(f, g)
        assert str(err.value) == "map covers dimensions 0..0, expected 0..1 (at map)"


def identity_over(r: RupturedComplex) -> RupturedFibrationData:
    return RupturedFibrationData(r, r, SimplicialMap.identity(r.underlying))


def compose_towers():
    """Composable pairs (f, g): the nine truth-table towers, identity steps
    on either side of fibrations of dimension 1 and 2, and towers of two
    product projections with 2-horns in every stage."""
    for s1 in "CGO":
        for s2 in "CGO":
            upper, lower, _, _ = composition_fixture(s1, s2)
            yield upper, lower
    tri = from_kan(standard_simplex(2, 2))
    square = left_projection(from_kan(standard_simplex(3, 2)), tri)
    for fib in (
        bank_fibration(), crane_fibration(), bottle_fibration(),
        build_double_cover(3), trivial_double_cover(3), square,
    ):
        yield fib, identity_over(fib.base)
        yield identity_over(fib.total), fib
    lower = left_projection(from_kan(build_cycle(3)), tri)
    yield left_projection(lower.total, tri), lower
    # One vertex with two loops and every triangle on them: over tri, each
    # edge and triangle of the middle space has two lifts, so a base-level
    # step has two middle solutions.
    loops = TruncatedComplex.create(
        2, [1, 2, 8], {1: [[0, 0], [0, 0]], 2: [list(c) for c in cartesian(range(2), repeat=3)]}
    )
    doubled = left_projection(tri, from_kan(loops))
    yield left_projection(doubled.total, tri), doubled


def thinned_tower(f, g, rng: random.Random):
    """A copy of the tower with some coherence marks, gap marks and modes
    dropped in every stage, and some gap marks put on random horns."""

    def thin(r: RupturedComplex) -> RupturedComplex:
        coh = {n: [i for i in sorted(members) if rng.random() < 0.8]
               for n, members in enumerate(r.coh)}
        return RupturedComplex.create(r.underlying, coh, r.gap)

    def marks(fib, total, base):
        gaps = {key: mode for key, mode in fib.gap_lifts.items() if rng.random() < 0.7}
        x, b = total.underlying, base.underlying
        for n in range(1, min(x.dim_bound, b.dim_bound) + 1):
            for k in range(n + 1):
                for h in enumerate_horns(x, n, k):
                    for base_sid in find_fillers(b, fib.proj.apply_horn(h)):
                        if rng.random() < 0.4:
                            key = LiftingProblemKey(h, base_sid)
                            gaps[key] = GapMode("semantic", (f"marked {len(gaps)}",))
        return {key: mode if rng.random() < 0.7 else None for key, mode in gaps.items()}

    e, mid, a = thin(f.total), thin(f.base), thin(g.base)
    return (
        RupturedFibrationData(e, mid, f.proj, marks(f, e, mid)),
        RupturedFibrationData(mid, a, g.proj, marks(g, mid, a)),
    )


def scanned_gap_lifts(f: RupturedFibrationData, g: RupturedFibrationData) -> dict:
    """The gap table of the composite of f: E -> B and g: B -> A by nested
    scans of the documented rule, reading only face rows, coherence marks,
    map levels and the two gap tables."""
    e, b, a = f.total.underlying, f.base.underlying, g.base.underlying

    def step(fib, n, present, faces, target):
        """One stage's problem (horn ``faces`` at ``present``, over
        ``target``): ("C", coherent solutions), ("G", mode) or ("O", None)."""
        x = fib.total.underlying
        solutions = [
            s
            for s in range(x.count(n))
            if s in fib.total.coh[n]
            and all(x.face_row(n, s)[i] == fc for i, fc in zip(present, faces))
            and fib.proj.levels[n][s] == target
        ]
        if solutions:
            return "C", solutions
        k = next(i for i in range(n + 1) if i not in present)
        key = LiftingProblemKey(HornSpec(n, k, tuple(faces)), SimplexId(n, target))
        if key in fib.gap_lifts:
            return "G", fib.gap_lifts[key]
        return "O", None

    want = {}
    for n in range(1, min(e.dim_bound, b.dim_bound, a.dim_bound) + 1):
        for k in range(n + 1):
            present = [i for i in range(n + 1) if i != k]
            for faces in cartesian(range(e.count(n - 1)), repeat=n):
                fm = dict(zip(present, faces))
                if not all(fc in f.total.coh[n - 1] for fc in faces):
                    continue
                if not all(
                    e.face_row(n - 1, fm[j])[i] == e.face_row(n - 1, fm[i])[j - 1]
                    for i in present
                    for j in present
                    if i < j
                ):
                    continue
                mid = [f.proj.levels[n - 1][fc] for fc in faces]
                for base in range(a.count(n)):
                    if base not in g.base.coh[n] or any(
                        g.proj.levels[n - 1][m] != a.face_row(n, base)[i]
                        for i, m in zip(present, mid)
                    ):
                        continue
                    # The base-level step is well formed only over coherent middle faces.
                    if not all(m in f.base.coh[n - 1] for m in mid):
                        continue
                    key = LiftingProblemKey(HornSpec(n, k, faces), SimplexId(n, base))
                    status, found = step(g, n, present, mid, base)
                    if status == "G":
                        want[key] = found
                    elif status == "C":
                        upper = [step(f, n, present, faces, m) for m in found]
                        gapped = [mode for st, mode in upper if st == "G"]
                        if gapped and not any(st == "C" for st, _ in upper):
                            want[key] = gapped[0]
    return want


class TestComposeOracle:
    def test_gap_table_matches_nested_scans(self):
        rng = random.Random(29)
        towers = list(compose_towers())
        towers += [thinned_tower(f, g, rng) for f, g in towers for _ in range(3)]
        seen = {"gapped": 0, "upper": 0, "plain": 0, "2-horn": 0}
        for f, g in towers:
            want = scanned_gap_lifts(f, g)
            assert dict(compose_fibrations(f, g).gap_lifts) == want
            seen["gapped"] += len(want)
            seen["upper"] += sum(
                LiftingProblemKey(f.proj.apply_horn(key.horn), key.base) not in g.gap_lifts
                for key in want
            )
            seen["plain"] += sum(mode is None for mode in want.values())
            seen["2-horn"] += sum(key.horn.n == 2 for key in want)
        assert seen["gapped"] >= 100 and min(seen.values()) >= 20, seen

    def test_each_stage_alone_or_neither_gap_marked(self):
        """Thinned towers with the gap marks of the upper stage only, the
        lower stage only, or neither: composition skips searching a stage
        without marks, and the gap table still matches the nested scans."""
        rng = random.Random(31)
        seen = {"upper": 0, "lower": 0, "neither": 0}
        towers = [thinned_tower(f, g, rng) for f, g in compose_towers() for _ in range(2)]
        for f, g in towers:
            bare_f, bare_g = without_gap_lifts(f), without_gap_lifts(g)
            for stage, pair in (("upper", (f, bare_g)), ("lower", (bare_f, g)),
                                ("neither", (bare_f, bare_g))):
                want = scanned_gap_lifts(*pair)
                assert dict(compose_fibrations(*pair).gap_lifts) == want
                seen[stage] += len(want)
        assert seen["neither"] == 0 and min(seen["upper"], seen["lower"]) >= 20, seen

    def test_base_step_is_well_formed_iff_its_faces_are_coherent_in_the_middle(self):
        """The one probe per horn that composition makes in place of
        :func:`key_violations` on the base-level step, on every composite
        problem, each within the middle space's bound."""
        rng = random.Random(43)
        towers = list(compose_towers())
        towers += [thinned_tower(f, g, rng) for f, g in towers]
        seen = {True: 0, False: 0}
        for f, g in towers:
            proj = SimplicialMap.compose(g.proj, f.proj)
            for key in enumerate_lifting_problems(RupturedFibrationData(f.total, g.base, proj)):
                n = key.horn.n
                assert n <= f.base.underlying.dim_bound
                step1 = LiftingProblemKey(f.proj.apply_horn(key.horn), key.base)
                coherent = f.base.coh[n - 1].issuperset(step1.horn.faces)
                assert (key_violations(g, step1) == []) == coherent, key
                seen[coherent] += 1
        assert min(seen.values()) >= 20, seen


def without_gap_lifts(f: RupturedFibrationData) -> RupturedFibrationData:
    return RupturedFibrationData(f.total, f.base, f.proj)


def test_composition_accepts_middle_spaces_built_either_way():
    """A middle space built through the constructor with ``(None, None)``
    labels is the one ``create`` builds, so the two stages compose."""
    d, counts, faces = 1, [2, 1], {1: [[1, 0]]}
    created = TruncatedComplex.create(d, counts, faces)
    built = TruncatedComplex(d, counts, (faces[1],), (None, None))
    upper = RupturedFibrationData(from_kan(created), from_kan(created),
                                  SimplicialMap.identity(created))
    lower = RupturedFibrationData(from_kan(built), from_kan(built), SimplicialMap.identity(built))
    for f, g in ((upper, lower), (lower, upper)):
        composite = compose_fibrations(f, g)
        assert composite.total == f.total and composite.base == g.base
