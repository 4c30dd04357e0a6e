"""Coherence/gap annotation, Exclusion, classification, core, product,
and rupture-preserving morphisms."""

import random

import pytest

from rupture_kit.errors import ExclusionError, KernelError, ShapeError, Violation
from rupture_kit.ruptured import (
    CoherentlyFilled,
    GapMode,
    GapWitnessed,
    Open,
    RupturedComplex,
    check_morphism,
    classify_horn,
    coherent_core,
    from_kan,
    fully_gapped,
    product,
    validate_exclusion,
    validate_ruptured,
)
from rupture_kit.simplicial import (
    HornSpec,
    SimplexId,
    SimplicialMap,
    TruncatedComplex,
    check_simplicial_map,
    enumerate_horns,
    find_fillers,
    horn_of,
    horn_violations,
    standard_simplex,
)
from rupture_kit.covering import build_cycle
from rupture_kit.judgments import BaseJudgment, Polarity, WitnessStore, add_witness

from support import oracle_exclusion_conflicts, random_ruptured


def triangle():
    return standard_simplex(2, 2)


def inner_horn(x):
    (h,) = enumerate_horns(x, 2, 1)
    return h


def circle_with_inner_gaps(mode=None):
    circle = build_cycle(3)
    horns = enumerate_horns(circle, 2, 1)
    return RupturedComplex.create(
        circle,
        {n: range(circle.count(n)) for n in range(3)},
        {h: mode for h in horns},
    )


class TestExclusion:
    def test_from_kan_clean(self):
        assert validate_exclusion(from_kan(triangle())) == []

    def test_conflict_reported(self):
        d2 = triangle()
        r = RupturedComplex.create(
            d2,
            {0: range(3), 1: range(3), 2: [0]},
            [inner_horn(d2)],
        )
        report = validate_exclusion(r)
        assert len(report) == 1 and report[0].kind == "exclusion"
        # independently: the coherent filler set intersects the gap mark
        assert find_fillers(d2, inner_horn(d2)) == [SimplexId(2, 0)]

    def test_a_gap_horn_naming_no_simplex_is_no_conflict(self):
        # it has no filler, so validate_exclusion passes it over, also in the
        # run of a horn that fits, and validate_ruptured reports it
        d2 = triangle()
        h = inner_horn(d2)
        for bad in (HornSpec(2, 1, (0, 9)), HornSpec(3, 1, (0, 0, 0))):
            r = RupturedComplex.create(d2, {2: [0]}, [h, bad])
            assert validate_exclusion(r) == [
                Violation("exclusion", f"{h} is gap-witnessed but coherent 2/0 fills it")]
            assert validate_ruptured(r) == horn_violations(d2, bad) != []

    def test_circle_gaps_clean(self):
        assert validate_exclusion(circle_with_inner_gaps()) == []

    def test_insertion_of_filler_rejected(self):
        d2 = triangle()
        r = RupturedComplex.create(d2, {0: range(3), 1: range(3)}, [inner_horn(d2)])
        with pytest.raises(ExclusionError):
            r.with_coherent(SimplexId(2, 0))
        # unrelated insertions fine
        r2 = r.with_coherent(SimplexId(0, 0))
        assert r2.is_coherent(SimplexId(0, 0))

    @pytest.mark.parametrize("breach", ["with_coherent", "product", "add_witness"])
    def test_one_except_catches_every_breach_of_exclusion(self, breach):
        d2, j = triangle(), BaseJudgment("J")
        h, filler = inner_horn(d2), SimplexId(2, 0)
        gapped = RupturedComplex.create(d2, {0: range(3), 1: range(3)}, [h])
        breaking = RupturedComplex.create(d2, {2: [0]}, [h])
        store = add_witness(WitnessStore(), j, Polarity.COHERENT)
        # the product's one 2-simplex fills its one gapped horn, the pair (h, h)
        square = product(gapped, from_kan(d2)).underlying
        act, conflicts = {
            "with_coherent": (lambda: gapped.with_coherent(filler), ((h, filler),)),
            "product": (lambda: product(breaking, from_kan(d2)),
                        ((horn_of(square, filler, 1), filler),)),
            "add_witness": (lambda: add_witness(store, j, Polarity.GAPPED),
                            ((j, store.last()),)),
        }[breach]
        try:
            act()
        except ExclusionError as err:
            assert err.conflicts == conflicts
            assert type(err.conflicts) is tuple and {len(c) for c in err.conflicts} == {2}
        else:
            pytest.fail("no ExclusionError")

    def test_agrees_with_oracle_on_random_structures(self):
        rng = random.Random(47)
        for i in range(100):
            r = random_ruptured(rng, force_valid=(i % 2 == 0))
            assert len(validate_exclusion(r)) == len(oracle_exclusion_conflicts(r))


class TestClassifyHorn:
    def test_kan_triangle_coherently_filled(self):
        r = from_kan(triangle())
        out = classify_horn(r, inner_horn(triangle()))
        assert isinstance(out, CoherentlyFilled)
        assert out.fillers == (SimplexId(2, 0),)

    def test_gapped_with_mode(self):
        mode = GapMode("plain")
        r = circle_with_inner_gaps(mode)
        for h in enumerate_horns(r.underlying, 2, 1):
            out = classify_horn(r, h)
            assert isinstance(out, GapWitnessed) and out.mode == mode

    def test_open_when_unmarked_and_unfilled(self):
        r = from_kan(build_cycle(3))
        for h in enumerate_horns(r.underlying, 2, 1):
            assert isinstance(classify_horn(r, h), Open)

    def test_noncoherent_fillers_do_not_count(self):
        d2 = triangle()
        r = RupturedComplex.create(d2, {0: range(3), 1: range(3)})  # 2-cell not coherent
        assert isinstance(classify_horn(r, inner_horn(d2)), Open)

    def test_partition_and_gap_exclusion(self):
        rng = random.Random(3)
        for _ in range(30):
            r = random_ruptured(rng)
            x = r.underlying
            for n in range(1, 3):
                for k in range(n + 1):
                    for h in enumerate_horns(x, n, k):
                        out = classify_horn(r, h)
                        coherent = [
                            s for s in find_fillers(x, h) if r.is_coherent(s)
                        ]
                        if coherent:
                            assert isinstance(out, CoherentlyFilled)
                            assert list(out.fillers) == coherent
                        elif h in r.gap:
                            assert isinstance(out, GapWitnessed)
                        else:
                            assert isinstance(out, Open)

    def test_rejects_invalid_horn(self):
        with pytest.raises(KernelError):
            classify_horn(from_kan(triangle()), HornSpec.from_mapping(2, 1, {0: 7, 2: 0}))


class TestFromKanFullyGapped:
    def test_from_kan_marks_everything(self):
        d1 = standard_simplex(1, 1)
        r = from_kan(d1)
        assert r.coh == (frozenset({0, 1}), frozenset({0}))
        assert not r.gap

    def test_kan_fixture_has_no_open_inner_horns(self):
        r = from_kan(triangle())
        for n in range(2, 3):
            for k in range(1, n):
                for h in enumerate_horns(r.underlying, n, k):
                    assert isinstance(classify_horn(r, h), CoherentlyFilled)

    def test_fully_gapped_marks_all_horns(self):
        d2 = triangle()
        r = fully_gapped(d2)
        expected = sum(
            len(enumerate_horns(d2, n, k)) for n in (1, 2) for k in range(n + 1)
        )
        assert len(r.gap) == expected == 17
        assert all(not members for members in r.coh)
        for h in r.gap:
            assert isinstance(classify_horn(r, h), GapWitnessed)
        assert validate_exclusion(r) == []

    def test_fully_gapped_core_empty(self):
        core, _ = coherent_core(fully_gapped(triangle()))
        assert [core.count(n) for n in range(3)] == [0, 0, 0]


class TestCoherentCore:
    def test_single_cell_closure(self):
        d2 = triangle()
        core, inc = coherent_core(RupturedComplex.create(d2, {2: [0]}))
        assert [core.count(n) for n in range(3)] == [3, 3, 1]
        assert check_simplicial_map(inc, core, d2) == []

    def test_from_kan_core_is_everything(self):
        d2 = triangle()
        core, inc = coherent_core(from_kan(d2))
        assert [core.count(n) for n in range(3)] == [3, 3, 1]
        assert inc.levels == SimplicialMap.identity(d2).levels

    def test_idempotent_monotone_least(self):
        rng = random.Random(13)
        for _ in range(25):
            r = random_ruptured(rng)
            x = r.underlying
            core, inc = coherent_core(r)
            kept = [set(level) for level in inc.levels]
            # oracle: brute-force closure
            want = [set(r.coh[n]) for n in range(x.dim_bound + 1)]
            changed = True
            while changed:
                changed = False
                for n in range(x.dim_bound, 0, -1):
                    for idx in list(want[n]):
                        for f in x.face_row(n, idx):
                            if f not in want[n - 1]:
                                want[n - 1].add(f)
                                changed = True
            assert kept == want
            # idempotent: the core of the core (all coherent) is itself
            again, _ = coherent_core(from_kan(core))
            assert [again.count(n) for n in range(3)] == [
                core.count(n) for n in range(3)
            ]
            # monotone: adding a coherent simplex never shrinks the core
            for n in range(x.dim_bound + 1):
                if x.count(n) > len(r.coh[n]):
                    extra = next(
                        i for i in range(x.count(n)) if i not in r.coh[n]
                    )
                    bigger = RupturedComplex.create(
                        x,
                        {m: (set(r.coh[m]) | ({extra} if m == n else set()))
                         for m in range(x.dim_bound + 1)},
                    )
                    core2, inc2 = coherent_core(bigger)
                    assert all(
                        set(a) <= set(b) for a, b in zip(inc.levels, inc2.levels)
                    )
                    break


class TestProduct:
    def test_point_unit_up_to_truncation(self):
        pt = from_kan(standard_simplex(0, 0))
        r = from_kan(triangle())
        p = product(pt, r)
        assert p.underlying.dim_bound == 0
        assert p.underlying.count(0) == 3
        assert p.coh[0] == frozenset({0, 1, 2})

    def test_labels_when_exactly_one_factor_is_labelled(self):
        """A dimension in which one factor is labelled is labelled in the
        product, the other factor's simplices by their dim/index names, and
        every dimension up to the bound gets its entry."""
        left = TruncatedComplex.create(1, [2, 1], {1: [[1, 0]]}, {1: ["0-1"]})
        right = TruncatedComplex.create(1, [2, 1], {1: [[1, 0]]}, {0: ["p", "q"]})
        x = product(from_kan(left), from_kan(right)).underlying
        assert [[x.name(SimplexId(n, i)) for i in range(x.count(n))] for n in (0, 1)] == [
            ["(0/0,p)", "(0/0,q)", "(0/1,p)", "(0/1,q)"],
            ["(0-1,1/0)"],
        ]

    def test_an_empty_label_is_named_by_its_position(self):
        """An empty label names its simplex as no label does, by dim/index,
        as ``TruncatedComplex.name`` reads it."""
        left = TruncatedComplex.create(1, [2, 1], {1: [[1, 0]]}, {0: ["", "b"]})
        assert left.name(SimplexId(0, 0)) == "0/0"
        x = product(from_kan(left), from_kan(left)).underlying
        assert [x.name(SimplexId(0, i)) for i in range(x.count(0))] == [
            "(0/0,0/0)", "(0/0,b)", "(b,0/0)", "(b,b)"]

    def test_two_kan_factors_no_gaps(self):
        p = product(from_kan(triangle()), from_kan(triangle()))
        assert not p.gap
        assert validate_exclusion(p) == []

    def test_projection_rule(self):
        gapped_circle = circle_with_inner_gaps(GapMode("plain"))
        kan_circle = from_kan(build_cycle(3))
        p = product(gapped_circle, kan_circle)
        x, y = gapped_circle.underlying, kan_circle.underlying
        found_gapped = 0
        for n in (1, 2):
            rc = y.count(n - 1)
            for k in range(n + 1):
                for h in enumerate_horns(p.underlying, n, k):
                    hx = HornSpec(h.n, h.k, tuple(f // rc for f in h.faces))
                    hy = HornSpec(h.n, h.k, tuple(f % rc for f in h.faces))
                    in_gap = h in p.gap
                    assert in_gap == (hx in gapped_circle.gap or hy in kan_circle.gap)
                    if in_gap:
                        found_gapped += 1
                        assert isinstance(classify_horn(p, h), GapWitnessed)
        assert found_gapped > 0

    def test_gaps_match_every_projected_product_horn(self):
        # oracle: enumerate every horn of the product, project it to both
        # factors, and apply the gap rule with the left factor's mode first
        rng = random.Random(41)
        modes = [None, GapMode("plain"), GapMode("semantic", ("a",)),
                 GapMode("resource", (("x", 2),))]

        def with_modes(r):
            return RupturedComplex(r.underlying, r.coh,
                                   {h: rng.choice(modes) for h in r.gap})

        gapped = 0
        for _ in range(40):
            r, s = with_modes(random_ruptured(rng)), with_modes(random_ruptured(rng))
            p = product(r, s)
            expected = {}
            for n in range(1, p.underlying.dim_bound + 1):
                rc = s.underlying.count(n - 1)
                for k in range(n + 1):
                    for h in enumerate_horns(p.underlying, n, k):
                        hx = HornSpec(n, k, tuple(f // rc for f in h.faces))
                        hy = HornSpec(n, k, tuple(f % rc for f in h.faces))
                        if hx in r.gap or hy in s.gap:
                            expected[h] = r.gap.get(hx) or s.gap.get(hy)
            assert p.gap == expected
            gapped += len(expected)
        assert gapped >= 1000

    def test_componentwise_coherence(self):
        r = RupturedComplex.create(triangle(), {0: [0, 1], 1: [2]})
        s = RupturedComplex.create(triangle(), {0: [2], 1: [0, 2]})
        p = product(r, s)
        assert p.coh[0] == frozenset({0 * 3 + 2, 1 * 3 + 2})
        assert p.coh[1] == frozenset({2 * 3 + 0, 2 * 3 + 2})

    def test_inconsistent_input_raises(self):
        # an exclusion-violating factor surfaces as a product error
        d2 = triangle()
        bad = RupturedComplex.create(
            d2, {0: range(3), 1: range(3), 2: [0]}, [inner_horn(d2)]
        )
        with pytest.raises(ExclusionError):
            product(bad, from_kan(d2))


class TestMorphisms:
    def test_identity_passes(self):
        r = circle_with_inner_gaps(GapMode("plain"))
        ident = SimplicialMap.identity(r.underlying)
        assert check_morphism(ident, r, r) == []

    def test_core_inclusion_preserves_coherence(self):
        d2 = triangle()
        r = RupturedComplex.create(d2, {2: [0], 1: [0]})
        core, inc = coherent_core(r)
        # ruptured structure on the core: restrict the coherence marks
        restricted = RupturedComplex.create(
            core,
            {
                n: {
                    new
                    for new, old in enumerate(inc.levels[n])
                    if old in r.coh[n]
                }
                for n in range(core.dim_bound + 1)
            },
        )
        assert check_morphism(inc, restricted, r) == []

    def test_coherence_violation_reported(self):
        d1 = standard_simplex(1, 1)
        two_edges = TruncatedComplex.create(1, [2, 2], {1: [[1, 0], [1, 0]]})
        r = RupturedComplex.create(two_edges, {0: [0, 1], 1: [0]})
        s = RupturedComplex.create(two_edges, {0: [0, 1], 1: [0]})
        send_to_noncoherent = SimplicialMap(((0, 1), (1, 1)))
        report = check_morphism(send_to_noncoherent, r, s)
        assert any(v.kind == "coherence-preservation" for v in report)

    def test_gap_violation_reported(self):
        circle = build_cycle(3)
        horns = enumerate_horns(circle, 2, 1)
        r = RupturedComplex.create(circle, {}, [horns[0]])
        s = RupturedComplex.create(circle, {}, [])
        ident = SimplicialMap.identity(circle)
        report = check_morphism(ident, r, s)
        assert [v.kind for v in report] == ["gap-preservation"]

    @pytest.mark.parametrize(
        "horn,kind",
        [(HornSpec(2, 1, (0, 9)), "horn-dangling-face"),
         (HornSpec(3, 1, (0, 1, 2)), "horn-dimension"),
         (HornSpec(2, 1, (0, 0)), "horn-compatibility")],
    )
    def test_gap_horn_that_does_not_fit_is_reported_not_mapped(self, horn, kind):
        # The horn has no image to check, so it gets its validate rows and
        # the other gap horns are still checked.
        d2 = triangle()
        fits = enumerate_horns(d2, 2, 0)[0]
        r = RupturedComplex.create(d2, {}, [horn, fits])
        s = RupturedComplex.create(d2, {}, [])
        report = check_morphism(SimplicialMap.identity(d2), r, s)
        assert [v.kind for v in report] == ["gap-preservation", kind]
        assert report[1:] == horn_violations(d2, horn)
        assert check_morphism(SimplicialMap.identity(d2), r, r) == horn_violations(d2, horn)

    def test_gap_horn_above_the_map_has_no_image(self):
        # The map to a point covers dimension 0 only, so a gapped 2-horn,
        # whose faces are edges, has no image: reported, not raised.
        source = fully_gapped(standard_simplex(2, 2))
        point = RupturedComplex.create(standard_simplex(0, 0))
        report = check_morphism(SimplicialMap(((0, 0, 0),)), source, point)
        above = [h for h in sorted(source.gap) if h.n == 2]
        assert above and {v.kind for v in report} == {"gap-preservation"}
        assert [v.message for v in report[-len(above):]] == [
            f"gapped {h} has no image: the map stops at dimension 0" for h in above]
        assert len(report) == len(source.gap)

    def test_composition_of_passing_morphisms_passes(self):
        # rotation of the all-gapped circle is rupture-preserving, and so
        # is its composite with itself
        circle = build_cycle(3)
        r = fully_gapped(circle)
        rotate = SimplicialMap(
            (
                tuple((i + 1) % 3 for i in range(3)),
                tuple((i + 1) % 3 for i in range(3)),
                (),
            )
        )
        assert check_morphism(rotate, r, r) == []
        twice = SimplicialMap.compose(rotate, rotate)
        assert check_morphism(twice, r, r) == []
        rng = random.Random(61)
        for _ in range(10):
            s = random_ruptured(rng)
            ident = SimplicialMap.identity(s.underlying)
            assert check_morphism(ident, s, s) == []
            assert check_morphism(SimplicialMap.compose(ident, ident), s, s) == []


class TestValidateRuptured:
    def test_out_of_range_coherence_reported(self):
        d1 = standard_simplex(1, 1)
        with pytest.raises(ShapeError) as err:
            RupturedComplex.create(d1, {0: [5]})
        assert str(err.value) == "no simplex 0/5 (at coh.0)"

    def test_malformed_gap_horn_reported(self):
        d2 = triangle()
        r = RupturedComplex.create(d2, {}, [HornSpec.from_mapping(2, 1, {0: 9, 2: 0})])
        assert any(v.kind == "horn-dangling-face" for v in validate_ruptured(r))

    def test_a_short_row_under_a_gap_horn_cannot_be_built(self):
        # A row cut short under a 2-dimensional gap horn is refused when the
        # complex is built, by every construction path, so no horn check
        # can index past it.
        d2 = standard_simplex(2, 2)
        rows = {n: [list(row) for row in d2.face_table[n - 1]] for n in (1, 2)}
        rows[1][0] = [1]
        for build in (
            lambda: TruncatedComplex.create(2, d2.counts, rows),
            lambda: d2._replace(face_table=(((1,), *d2.face_table[0][1:]), d2.face_table[1])),
        ):
            with pytest.raises(ShapeError) as err:
                build()
            assert str(err.value) == "face row needs 2 entries, got 1 (at faces.1[0])"
        # the same gap horn over the whole rows is reported, not raised
        r = RupturedComplex.create(d2, {}, [HornSpec(2, 1, (0, 2))])
        assert [v.kind for v in validate_ruptured(r)] == ["horn-compatibility"]


class TestWithCoherentOracle:
    def test_rejects_iff_a_gap_horn_scan_finds_a_match(self):
        # brute force: compare the simplex's faces with every gapped horn
        rng = random.Random(61)
        rejected = 0
        for i in range(200):
            r = random_ruptured(rng, force_valid=(i % 2 == 0))
            x = r.underlying
            for n in range(x.dim_bound + 1):
                for idx in range(x.count(n)):
                    sid = SimplexId(n, idx)
                    want = {
                        (h, sid)
                        for h in r.gap
                        if h.n == n
                        and all(
                            x.face_row(n, idx)[i] == h.face(i) for i in h.present_indices
                        )
                    }
                    if want:
                        with pytest.raises(ExclusionError) as err:
                            r.with_coherent(sid)
                        assert set(err.value.conflicts) == want
                        assert len(err.value.conflicts) == len(want)
                        rejected += 1
                    else:
                        assert r.with_coherent(sid).is_coherent(sid)
        assert rejected >= 100

    def test_conflicts_and_message_match_a_gap_table_scan(self):
        # each k in turn, the horn the simplex fills at k against every
        # gapped horn by its fields
        rng = random.Random(62)
        rejected = 0
        for i in range(100):
            r = random_ruptured(rng, force_valid=(i % 2 == 0), gap_p=0.6)
            x = r.underlying
            for n in range(1, x.dim_bound + 1):
                for idx in range(x.count(n)):
                    sid, row = SimplexId(n, idx), x.face_row(n, idx)
                    want = [
                        (g, sid)
                        for k in range(n + 1)
                        for g in sorted(r.gap)
                        if (g.n, g.k, g.faces) == (n, k, row[:k] + row[k + 1 :])
                    ]
                    if not want:
                        continue
                    with pytest.raises(ExclusionError) as err:
                        r.with_coherent(sid)
                    assert list(err.value.conflicts) == want
                    assert all(type(h) is HornSpec for h, _ in err.value.conflicts)
                    assert str(err.value) == (
                        f"coherent {sid} would fill {len(want)} gap-witnessed horn(s)"
                    )
                    rejected += 1
        assert rejected >= 100

    @pytest.mark.parametrize("row,message,reason", [
        ((1,), "(n=1, k=0)-horn needs 1 faces, got 0", "face row needs 2 entries, got 1"),
        ((1, 0, 2), "(n=1, k=0)-horn needs 1 faces, got 2", "face row needs 2 entries, got 3"),
        ((), "(n=1, k=0)-horn needs 1 faces, got 0", "face row needs 2 entries, got 0"),
    ])
    def test_a_row_of_the_wrong_length_raises_the_horn_error(self, row, message, reason):
        """The horn cut from such a row raises the horn error, and the row
        itself is refused when the complex is built, so ``with_coherent``
        never cuts one."""
        with pytest.raises(KernelError) as err:
            HornSpec(1, 0, row[1:])
        assert str(err.value) == message
        with pytest.raises(ShapeError) as err:
            TruncatedComplex.create(1, [3, 2], {1: [(1, 0), row]})
        assert str(err.value) == f"{reason} (at faces.1[1])"


class TestCoherentFillersOracle:
    def test_matches_find_fillers_filtered_by_coh(self):
        # classify_horn's coherent fillers are find_fillers' fillers in Coh,
        # in the same order, for enumerated horns and horns drawn at
        # random; a horn that does not fit raises the same text from both
        rng = random.Random(63)
        seen = {"coherent": 0, "incoherent only": 0, "none": 0, "raised": 0}
        incompatible = 0
        for _ in range(150):
            r = random_ruptured(rng, force_valid=False)
            x = r.underlying
            horns = []
            for n in range(1, x.dim_bound + 2):
                for k in range(n + 1):
                    if n <= x.dim_bound:
                        horns.extend(enumerate_horns(x, n, k))
                    count = x.count(n - 1)
                    horns.extend(
                        HornSpec(n, k, tuple(rng.randrange(-1, count + 2) for _ in range(n)))
                        for _ in range(3)
                    )
            for h in horns:
                try:
                    fillers = find_fillers(x, h)
                except KernelError as err:
                    with pytest.raises(KernelError) as got:
                        classify_horn(r, h)
                    assert str(got.value) == str(err)
                    seen["raised"] += 1
                    continue
                want = [s for s in fillers if s.index in r.coh[h.n]]
                try:
                    state = classify_horn(r, h)
                except KernelError:
                    # in range, but its faces disagree on a shared face:
                    # nothing in a well-formed complex fills it
                    assert horn_violations(x, h) and not fillers
                    incompatible += 1
                    continue
                got = list(state.fillers) if isinstance(state, CoherentlyFilled) else []
                assert got == want
                assert all(type(s) is SimplexId for s in got)
                seen["coherent" if want else "incoherent only" if fillers else "none"] += 1
        assert min(seen.values()) >= 50 and incompatible >= 50, (seen, incompatible)
