"""Acceptance suite: every exit criterion, exact tolerances, one printed
pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import pathlib
import random
import subprocess
import sys
from contextlib import contextmanager

import pytest

from rupture_kit.covering import (
    EdgePath,
    build_cycle,
    build_double_cover,
    monodromy,
    monodromy_ruptured,
)
from rupture_kit.derivability import (
    Annotation,
    AtomType,
    Pair,
    ProdType,
    ResourceContext,
    Substitution,
    UnitTerm,
    UnitType,
    Var,
    check_derivable,
    detect_derivability_horn,
)
from rupture_kit.documents import load_document, parse_document, serialize_document
from rupture_kit.errors import ExclusionError, KernelError
from rupture_kit.fibration import (
    classify_lift,
    compose_fibrations,
    detect_functoriality_horn,
    detect_transport_horn,
    transport,
    validate_fibration,
)
from rupture_kit.fibration import Gapped
from rupture_kit.judgments import (
    ArrowJudgment,
    BaseJudgment,
    ExclusionViolation,
    Polarity,
    WitnessStore,
    add_witness,
    is_coherent_fragment,
    make_horn,
)
from rupture_kit.ruptured import (
    CoherentlyFilled,
    GapWitnessed,
    Open,
    RupturedComplex,
    classify_horn,
    from_kan,
    fully_gapped,
    product,
    validate_exclusion,
)
from rupture_kit.simplicial import (
    HornSpec,
    SimplexId,
    TruncatedComplex,
    enumerate_horns,
    find_fillers,
    is_kan_up_to,
    standard_simplex,
)

from fixture_builders import bank_fibration, crane_fibration
from support import (
    cli_env,
    composition_fixture,
    is_identity,
    oracle_exclusion_conflicts,
    random_ruptured,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
GEN3 = EdgePath.forward(0, 1, 2)


@contextmanager
def criterion(name):
    try:
        yield
        print(f"[PASS] {name}")
    except BaseException:
        print(f"[FAIL] {name}")
        raise


def test_mobius_monodromy():
    with criterion("Moebius monodromy: generator swaps the fiber, doubled loop is identity"):
        cover = build_double_cover(3)
        basepoint = SimplexId(0, 0)
        generator = monodromy(cover, basepoint, GEN3)
        assert generator.mapping == ((0, 3), (3, 0))
        assert generator.cycles() == "(0 1)"
        doubled = monodromy(cover, basepoint, GEN3.concat(GEN3))
        assert is_identity(doubled)


def test_monodromy_transport_horn():
    with criterion(
        "Monodromy transport horn: 2 gapped based-loop problems, payload = the swap"
    ):
        cover = build_double_cover(3)
        basepoint = SimplexId(0, 0)
        ruptured = monodromy_ruptured(cover, basepoint, [GEN3])
        swap = monodromy(cover, basepoint, GEN3)
        gapped = {
            key: entry for key, entry in ruptured.loop_gaps.items() if entry.gapped
        }
        assert len(gapped) == 2
        assert {start for _, start in gapped} == {0, 3}
        for entry in gapped.values():
            assert entry.mode.kind == "monodromy"
            assert entry.mode.payload == swap
        for start in (0, 3):
            inhabitant = detect_transport_horn(ruptured, SimplexId(0, start), GEN3)
            assert inhabitant is not None
            assert inhabitant.gap.payload == swap


def test_exclusion_fuzzing():
    with criterion(
        "Exclusion fuzzing: 1,000 random ruptured complexes agree with the oracle; "
        "filler insertion always rejected"
    ):
        rng = random.Random(20260810)
        insertions_exercised = 0
        for i in range(1000):
            r = random_ruptured(rng, force_valid=(i % 2 == 0))
            report = validate_exclusion(r)
            oracle = oracle_exclusion_conflicts(r)
            assert len(report) == len(oracle)
            assert (not report) == (not oracle)
            if i % 2 == 0:
                assert not report
            # attempt to insert a coherent filler for some gapped horn
            if not oracle:
                for h in sorted(r.gap):
                    fillers = find_fillers(r.underlying, h)
                    if fillers:
                        with pytest.raises(ExclusionError):
                            r.with_coherent(fillers[0])
                        insertions_exercised += 1
                        break
        assert insertions_exercised >= 100


def twenty_fixture_complexes():
    d2 = standard_simplex(2, 2)
    circle = build_cycle(3)
    inner = enumerate_horns(circle, 2, 1)
    doubled = TruncatedComplex.create(
        2,
        [3, 3, 2],
        {1: [list(d2.face_row(1, i)) for i in range(3)], 2: [[2, 1, 0], [2, 1, 0]]},
    )
    fixtures = [
        from_kan(d2),
        fully_gapped(d2),
        from_kan(standard_simplex(3, 2)),
        from_kan(circle),
        RupturedComplex.create(circle, {n: range(circle.count(n)) for n in range(3)}, inner),
        fully_gapped(build_cycle(4)),
        from_kan(doubled),
        RupturedComplex.create(doubled, {0: range(3), 1: range(3), 2: [0]}),
        product(
            RupturedComplex.create(circle, {n: range(circle.count(n)) for n in range(3)}, inner),
            from_kan(circle),
        ),
        product(from_kan(d2), from_kan(d2)),
    ]
    rng = random.Random(404)
    while len(fixtures) < 20:
        fixtures.append(random_ruptured(rng))
    return fixtures


def test_trichotomy_partition():
    with criterion(
        "Trichotomy partition: one variant per horn over 20 fixtures, "
        "gap-witnessed horns have zero coherent fillers"
    ):
        fixtures = twenty_fixture_complexes()
        assert len(fixtures) == 20
        horns_seen = 0
        for r in fixtures:
            assert validate_exclusion(r) == []
            x = r.underlying
            for n in range(1, x.dim_bound + 1):
                for k in range(n + 1):
                    for h in enumerate_horns(x, n, k):
                        horns_seen += 1
                        out = classify_horn(r, h)
                        states = [
                            isinstance(out, CoherentlyFilled),
                            isinstance(out, GapWitnessed),
                            isinstance(out, Open),
                        ]
                        assert sum(states) == 1
                        if isinstance(out, GapWitnessed):
                            coherent = [
                                s
                                for s in find_fillers(x, h)
                                if r.is_coherent(s)
                            ]
                            assert coherent == []
        assert horns_seen > 200


def test_kan_checks():
    with criterion(
        "Kan checks: triangle is Kan up to 2, the 3-cycle is not (with witness), "
        "and the Kan fixture has no open horns"
    ):
        d2 = standard_simplex(2, 2)
        assert is_kan_up_to(d2, 2) == (True, None)
        ok, witness = is_kan_up_to(build_cycle(3), 2)
        assert ok is False and witness is not None
        assert witness.n == 2 and witness.k == 1
        assert find_fillers(build_cycle(3), witness) == []
        r = from_kan(d2)
        for n in range(2, 3):
            for k in range(1, n):
                for h in enumerate_horns(d2, n, k):
                    assert not isinstance(classify_horn(r, h), Open)


def test_product_gap_rule():
    with criterion(
        "Product gap rule: gapped in the product iff gapped in a projection, "
        "on all enumerable horns"
    ):
        circle = build_cycle(3)  # 6 simplices
        d2 = standard_simplex(2, 2)  # 7 simplices
        inner = enumerate_horns(circle, 2, 1)
        # vertices coherent, edges not: 1-horns can then be gap-marked
        # without their (non-coherent) fillers breaking Exclusion
        gapped_circle = RupturedComplex.create(
            circle,
            {0: range(3)},
            inner + enumerate_horns(circle, 1, 0)[:2],
        )
        assert validate_exclusion(gapped_circle) == []
        pairs = [
            (gapped_circle, from_kan(d2)),
            (fully_gapped(d2), from_kan(circle)),
        ]
        checked = 0
        for left, right in pairs:
            p = product(left, right)
            x, y = left.underlying, right.underlying
            for n in range(1, p.underlying.dim_bound + 1):
                rc = y.count(n - 1)
                for k in range(n + 1):
                    for h in enumerate_horns(p.underlying, n, k):
                        hx = HornSpec(h.n, h.k, tuple(f // rc for f in h.faces))
                        hy = HornSpec(h.n, h.k, tuple(f % rc for f in h.faces))
                        expected = hx in left.gap or hy in right.gap
                        assert (h in p.gap) == expected
                        checked += 1
        assert checked > 100


def test_composition_truth_table():
    with criterion(
        "Composition truth table: all nine step-outcome pairs classify as "
        "coherent/gapped/open per the composite rule"
    ):
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
                composite = compose_fibrations(upper, lower)
                assert validate_fibration(composite) == []
                assert isinstance(
                    classify_lift(composite, probe), expect_probe[s1][s2]
                )
                assert isinstance(
                    classify_lift(composite, control), expect_control[s2]
                )


def test_linear_derivability_horn():
    with criterion(
        "Linear derivability horn: inhabited with count(y)=2 and linear verdict "
        "violated; no open verdicts on 1,000 random judgments"
    ):
        a = AtomType("A")
        gamma = ResourceContext.of(("x", a, Annotation.EXPONENTIAL))
        delta = ResourceContext.of(("y", a, Annotation.LINEAR))
        term = Pair(Var("x"), Var("x"))
        goal = ProdType(a, a)
        horn = detect_derivability_horn(
            gamma, delta, Substitution.of({"x": "y"}), term, goal
        )
        assert horn is not None
        assert horn.target_certificate.count("y") == 2
        assert horn.target_certificate.verdict("y") is False
        assert check_derivable(gamma, term, goal).derivable

        rng = random.Random(88)
        names = ["a", "b", "c", "d"]
        types = [a, AtomType("B"), UnitType()]

        def random_term(depth, bound):
            if depth == 0 or rng.random() < 0.35:
                if bound and rng.random() < 0.8:
                    return Var(rng.choice(bound))
                return UnitTerm()
            return Pair(random_term(depth - 1, bound), random_term(depth - 1, bound))

        for _ in range(1000):
            k = rng.randint(0, 4)
            bindings = tuple(
                (names[i], rng.choice(types), rng.choice(list(Annotation)))
                for i in range(k)
            )
            context = ResourceContext.of(*bindings)
            t = random_term(3, [b[0] for b in bindings])
            g = rng.choice(types)
            result = check_derivable(context, t, g)
            assert result.derivable is True or result.derivable is False


def test_judgment_store():
    with criterion(
        "Judgment store: dual polarity rejected over 1,000 scripts, horns only on "
        "chained triples, coherent fragments yield no horn"
    ):
        rng = random.Random(1009)
        labels = ["J", "K", "L", "M"]
        atoms = [BaseJudgment(l) for l in labels] + [
            ArrowJudgment(a, b) for a in labels for b in labels if a != b
        ]
        for _ in range(1000):
            store = WitnessStore()
            first_polarity = {}
            for _ in range(12):
                judgment = rng.choice(atoms)
                polarity = rng.choice([Polarity.COHERENT, Polarity.GAPPED])
                try:
                    store = add_witness(store, judgment, polarity)
                    assert first_polarity.setdefault(judgment, polarity) is polarity
                except ExclusionViolation:
                    assert first_polarity[judgment] is not polarity
            by_judgment = {}
            for e in store.entries:
                by_judgment.setdefault(e.judgment, set()).add(e.polarity)
            assert all(len(p) == 1 for p in by_judgment.values())

        # horn exactness on a mixed store
        s = WitnessStore()
        for a in labels[:3]:
            for b in labels[:3]:
                if a != b:
                    polarity = (
                        Polarity.GAPPED
                        if (a, b) in {("J", "L"), ("L", "K")}
                        else Polarity.COHERENT
                    )
                    s = add_witness(s, ArrowJudgment(a, b), polarity)
        entries = list(s.entries)
        got = set()
        for f in entries:
            for g in entries:
                for h in entries:
                    try:
                        make_horn(s, f.witness_id, g.witness_id, h.witness_id)
                        got.add((f.witness_id, g.witness_id, h.witness_id))
                    except KernelError:
                        pass
        expected = {
            (f.witness_id, g.witness_id, h.witness_id)
            for f in entries
            for g in entries
            for h in entries
            if f.polarity is Polarity.COHERENT
            and g.polarity is Polarity.COHERENT
            and h.polarity is Polarity.GAPPED
            and f.judgment.target == g.judgment.source
            and h.judgment.source == f.judgment.source
            and h.judgment.target == g.judgment.target
        }
        assert got == expected and got

        # coherent fragments never yield a horn
        for _ in range(50):
            s = WitnessStore()
            for _ in range(rng.randint(1, 10)):
                a, b = rng.sample(labels, 2)
                s = add_witness(s, ArrowJudgment(a, b), Polarity.COHERENT)
            assert is_coherent_fragment(s)
            ids = [e.witness_id for e in s.entries]
            for f in ids:
                for g in ids:
                    for h in ids:
                        with pytest.raises(KernelError):
                            make_horn(s, f, g, h)


def test_semantic_fixtures():
    with criterion(
        "Semantic fixtures: bank transport is gapped, crane yields a "
        "functoriality-horn inhabitant"
    ):
        bank = bank_fibration()
        assert validate_fibration(bank) == []
        outcome = transport(bank, SimplexId(0, 0), SimplexId(1, 0))
        assert isinstance(outcome, Gapped) and outcome.mode.kind == "semantic"

        crane = crane_fibration()
        assert validate_fibration(crane) == []
        step1 = transport(crane, SimplexId(0, 0), SimplexId(1, 0))
        assert not isinstance(step1, Gapped)
        inhabitant = detect_functoriality_horn(
            crane, SimplexId(0, 0), SimplexId(1, 0), SimplexId(1, 1)
        )
        assert inhabitant is not None
        assert inhabitant.composite == SimplexId(1, 2)
        assert inhabitant.gap.kind == "semantic"


def test_cli_round_trip_and_determinism():
    with criterion(
        "CLI: parse/serialize/parse identity on all bundled fixtures, "
        "byte-identical reports across runs"
    ):
        fixture_files = sorted(FIXTURES.glob("*.json"))
        assert len(fixture_files) >= 11
        for path in fixture_files:
            doc = load_document(path)
            text = serialize_document(doc)
            again = parse_document(text)
            assert again.kind == doc.kind and again.body == doc.body

        commands = [
            ["validate", str(FIXTURES / "bank.json")],
            [
                "horns",
                str(FIXTURES / "circle3_gapped.json"),
                "--dim",
                "2",
                "--missing",
                "1",
            ],
            ["transport", str(FIXTURES / "bank.json"), "--term", "0", "--path", "0"],
            [
                "monodromy",
                str(FIXTURES / "double_cover_3.json"),
                str(FIXTURES / "monodromy_task_3.json"),
            ],
            ["derive", str(FIXTURES / "derive_linear_horn.json"), "--json"],
        ]
        for argv in commands:
            cmd = [sys.executable, "-m", "rupture_kit"] + argv
            first = subprocess.run(cmd, capture_output=True, env=cli_env())
            second = subprocess.run(cmd, capture_output=True, env=cli_env())
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout and first.stdout
