"""Lifting problems, transport, fibers, horn detectors, and composition."""

import random
from itertools import product as cartesian

import pytest

from rupture_kit.errors import KernelError
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
    transport,
    validate_fibration,
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
    standard_simplex,
)
from rupture_kit.covering import EdgePath, build_cycle, build_double_cover, trivial_double_cover
from rupture_kit.fixtures import (
    bank_fibration,
    bottle_fibration,
    crane_fibration,
    mobius_rupture,
    source_anchored_problem,
)

from support import composition_fixture


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
        base = from_kan(standard_simplex(0, 2))
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


def product_projection() -> RupturedFibrationData:
    """cycle(3) x cycle(4) projected onto the left factor."""
    r, s = from_kan(build_cycle(3)), from_kan(build_cycle(4))
    p = product(r, s)
    proj = SimplicialMap(
        tuple(
            tuple(flat // s.underlying.count(n) for flat in range(p.underlying.count(n)))
            for n in range(3)
        )
    )
    return RupturedFibrationData(p, r, proj)


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


class TestTransportErrors:
    """Transport checks its inputs as the lifting problem it is: the
    messages are those of the key's well-formedness report."""

    @pytest.mark.parametrize(
        "term,path,message",
        [
            ((0, 1), (1, 0), r"over 1/0\): proj\(face 1\) != d_1\(base\)"),
            ((0, 5), (1, 0), r"face 1 missing in total space"),
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
