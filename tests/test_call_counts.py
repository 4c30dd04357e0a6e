"""Each input check and each lift runs once per public call, each complex
builds its filler table and its coface table once each and only when a call
reads it, each fibration its lift table once, and a fiber reads the face
rows around it only. A gap table is read and checked one shape at a time: no
checked row read, a mode read per mode row only, no per-horn check, and no
filler table where nothing is coherent. Fibers and coherent cores are built
without a checked constructor.

The checks (``horn_violations``, ``key_violations``), the path lift
(``lift_edge_path``), the derivability decision (``check_derivable``), the
lift table build (``build_lift_table``) and horn enumeration are wrapped in
every loaded ``rupture_kit`` module that references them, so calls from one
module into another are counted; a complex's two tables are counted where
its class builds them.
"""

import contextlib
import io
import json
import pathlib
import random
import sys
import time
from functools import cached_property

import pytest

from rupture_kit import (
    cli, covering, derivability, documents, fibration, judgments, ruptured, simplicial,
)
from rupture_kit.errors import ExclusionError
from rupture_kit.covering import EdgePath, build_double_cover, trivial_double_cover
from rupture_kit.errors import KernelError
from rupture_kit.fibration import (
    LiftingProblemKey,
    RupturedFibrationData,
    classify_lift,
    compose_fibrations,
    enumerate_lifting_problems,
    key_violations,
    transport,
)
from rupture_kit.ruptured import (
    PLAIN,
    CoherentlyFilled,
    classify_horn,
    coherent_core,
    from_kan,
    fully_gapped,
    product,
    validate_ruptured,
)
from rupture_kit.simplicial import (
    HornSpec,
    SimplexId,
    SimplicialMap,
    enumerate_horns,
    find_fillers,
    horn_fits,
    is_kan_up_to,
    standard_simplex,
)

from support import composition_fixture, random_ruptured

COUNTED = {
    "horn_violations": simplicial.horn_violations,
    "key_violations": fibration.key_violations,
    "lift_edge_path": covering.lift_edge_path,
    "check_derivable": derivability.check_derivable,
}

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture
def calls(monkeypatch):
    """The names of the counted functions, one entry per call, in order."""
    log = []

    def counting(name, original):
        def counted(*args, **kwargs):
            log.append(name)
            return original(*args, **kwargs)

        return counted

    for name, original in COUNTED.items():
        wrap_everywhere(monkeypatch, original, counting(name, original))
    return log


def wrap_everywhere(monkeypatch, original, wrapper):
    """Put ``wrapper`` over every loaded ``rupture_kit`` module's reference
    to ``original``."""
    modules = [
        m for key, m in list(sys.modules.items())
        if key == "rupture_kit" or key.startswith("rupture_kit.")
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapper)


def first_args(monkeypatch, original) -> list:
    """The first argument of each call to ``original``, in order."""
    log = []

    def recorded(first, *args, **kwargs):
        log.append(first)
        return original(first, *args, **kwargs)

    wrap_everywhere(monkeypatch, original, recorded)
    return log


def table_builds(monkeypatch) -> list:
    """(complex, table name) for each filler or coface table built, in order."""
    log = []
    cls = simplicial.TruncatedComplex
    for part in ("fillers", "cofaces"):
        build = vars(cls)[part].func

        def recorded(x, part=part, build=build):
            log.append((x, part))
            return build(x)

        counting = cached_property(recorded)
        counting.__set_name__(cls, part)
        monkeypatch.setattr(cls, part, counting)
    return log


def every_horn(x):
    for n in range(1, x.dim_bound + 1):
        for k in range(n + 1):
            yield from enumerate_horns(x, n, k)


def test_classify_horn_checks_its_horn_once(calls):
    """A fitting horn is accepted without a report; one that does not fit
    gets exactly one, which words the error."""
    rng = random.Random(5)
    checked = rejected = 0
    for _ in range(60):
        r = random_ruptured(rng)
        x = r.underlying
        for h in every_horn(x):
            calls.clear()
            classify_horn(r, h)
            assert calls == [], h
            checked += 1
            for f in range(x.count(h.n - 1)):  # every face in the first position
                bent = HornSpec(h.n, h.k, (f, *h.faces[1:]))
                calls.clear()
                if horn_fits(x, bent):
                    classify_horn(r, bent)
                    assert calls == [], bent
                else:
                    with pytest.raises(KernelError, match="!="):
                        classify_horn(r, bent)
                    assert calls == ["horn_violations"], bent
                    rejected += 1
    assert checked >= 200 and rejected >= 200


def test_classify_horn_rejects_a_dangling_horn_after_one_check(calls):
    r = random_ruptured(random.Random(5))
    h = HornSpec(1, 0, (r.underlying.count(0),))
    with pytest.raises(KernelError, match="references missing"):
        classify_horn(r, h)
    assert calls == ["horn_violations"]


def test_find_fillers_builds_no_report_for_a_valid_horn(calls):
    rng = random.Random(6)
    for _ in range(60):
        x = random_ruptured(rng).underlying
        for h in every_horn(x):
            find_fillers(x, h)
    assert calls == []


def covers():
    return [build_double_cover(m) for m in (3, 4)] + [trivial_double_cover(3)]


def test_transport_checks_its_key_once(calls):
    """A well-formed key is accepted on ints without a report; a malformed
    one, out of range or not over the edge's source, gets exactly one, and
    its horn gets one more, to word it, exactly when the horn does not fit."""
    checked = malformed = misfits = 0
    for f in covers():
        x, b = f.total.underlying, f.base.underlying
        for w in range(x.count(0) + 1):
            for e in range(b.count(1) + 1):
                well_formed = (
                    w in f.total.coh[0] and e in f.base.coh[1]
                    and f.proj.levels[0][w] == b.face_row(1, e)[1]
                )
                fits = horn_fits(x, HornSpec(1, 0, (w,)))
                calls.clear()
                try:
                    transport(f, SimplexId(0, w), SimplexId(1, e))
                except KernelError:
                    assert not well_formed, (w, e)
                    malformed += 1
                    misfits += not fits
                want = [] if well_formed else ["key_violations"] + ["horn_violations"] * (not fits)
                assert calls == want, (w, e)
                checked += 1
    assert checked >= 40 and malformed >= 20 and misfits >= 3


def compose_steps(f, g) -> int:
    """The base-level steps of ``compose_fibrations(f, g)``: one per
    composite problem within the middle bound. Each is well formed exactly
    when its faces are coherent in the middle space, and the total-level
    step over each coherent middle lift is then well formed too, so
    composition needs no report; this asserts both."""
    composite = RupturedFibrationData(
        f.total, g.base, SimplicialMap.compose(g.proj, f.proj)
    )
    steps = 0
    for key in enumerate_lifting_problems(composite):
        if key.horn.n > f.base.underlying.dim_bound:
            continue
        steps += 1
        step1 = LiftingProblemKey(f.proj.apply_horn(key.horn), key.base)
        coherent = f.base.coh[key.horn.n - 1].issuperset(step1.horn.faces)
        assert (key_violations(g, step1) == []) == coherent, key
        if coherent:
            s1 = classify_lift(g, step1)
            if isinstance(s1, CoherentlyFilled):
                for mid in s1.fillers:
                    assert key_violations(f, LiftingProblemKey(key.horn, mid)) == []
    return steps


def compositions():
    for s1 in "CGO":
        for s2 in "CGO":
            upper, lower, _, _ = composition_fixture(s1, s2)
            yield upper, lower
    for f in covers():
        yield f, RupturedFibrationData(f.base, f.base, SimplicialMap.identity(f.base.underlying))


def test_compose_checks_each_step_once(calls):
    total = 0
    for f, g in compositions():
        steps = compose_steps(f, g)
        calls.clear()
        compose_fibrations(f, g)
        assert calls == []
        total += steps
    assert total >= 30


def test_compose_without_gap_marks_reads_nothing_of_the_middle_space(monkeypatch):
    """With neither stage gapped no composite problem is, so composition
    enumerates the problems and looks at no middle filler table."""
    x = standard_simplex(3, 3)
    total, middle, base = from_kan(x), from_kan(standard_simplex(3, 3)), from_kan(x)
    identity = SimplicialMap.identity(x)
    f = RupturedFibrationData(total, middle, identity)
    g = RupturedFibrationData(middle, base, identity)
    builds = table_builds(monkeypatch)
    composite = compose_fibrations(f, g)
    assert composite == RupturedFibrationData(total, base, identity) and not composite.gap_lifts
    assert builds and all(y is not middle.underlying for y, _ in builds)


def test_monodromy_ruptured_lifts_each_fiber_point_once(calls):
    generator = EdgePath.forward(*range(5))
    covering.monodromy_ruptured(
        build_double_cover(5), SimplexId(0, 0), [generator, generator.concat(generator)]
    )
    assert calls.count("lift_edge_path") == 4


def test_monodromy_ruptured_checks_each_loop_once(monkeypatch):
    """Each loop is checked once, before its lifts, and no lift checks the
    whole loop again: 3 loops over a fiber of 2 points make 3 ``check_path``
    calls, where a check per lift too made 9."""
    checked = first_args(monkeypatch, covering.check_path)
    generator = EdgePath.forward(*range(3))
    loops = [generator, generator.concat(generator), EdgePath.of((2, False), (1, False), (0, False))]
    f = covering.monodromy_ruptured(trivial_double_cover(3), SimplexId(0, 0), loops)
    assert len(f.loop_gaps) == 6 and len(checked) == 3


def run_cli(*args) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(FIXTURES / a) if a.endswith(".json") else a for a in args])


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_cli_monodromy_lifts_each_fiber_point_once(calls, extra):
    assert run_cli("monodromy", "double_cover_3.json", "monodromy_task_3.json", *extra) == 0
    assert calls.count("lift_edge_path") == 4


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_cli_derive_decides_each_judgment_once(calls, extra):
    assert run_cli("derive", "derive_linear_horn.json", *extra) == 0
    assert calls.count("check_derivable") == 2


def test_kan_check_builds_one_index(monkeypatch):
    builds = table_builds(monkeypatch)
    x = standard_simplex(8, 3)
    assert is_kan_up_to(x, 3) == (True, None)
    assert [(y is x, part) for y, part in builds] == [(True, "fillers")]


def test_enumerating_horns_builds_no_table(monkeypatch):
    builds = table_builds(monkeypatch)
    rng = random.Random(13)
    for x in [standard_simplex(6, 3)] + [random_ruptured(rng).underlying for _ in range(30)]:
        assert list(every_horn(x))
    assert builds == []


def test_classifying_builds_only_the_filler_table(monkeypatch):
    builds = table_builds(monkeypatch)
    rng = random.Random(12)
    for _ in range(30):
        r = random_ruptured(rng)
        horns = list(every_horn(r.underlying))
        builds.clear()
        for h in horns:
            classify_horn(r, h)
        validate_ruptured(r)
        assert [(y is r.underlying, part) for y, part in builds] == [(True, "fillers")]


def test_fiber_builds_only_the_coface_table(monkeypatch):
    builds = table_builds(monkeypatch)
    for cover in covers():
        builds.clear()
        for v in range(cover.base.underlying.count(0)):
            fibration.fiber(cover, SimplexId(0, v))
        assert [(y is cover.total.underlying, part) for y, part in builds] == [
            (True, "cofaces")
        ]


def constructions(monkeypatch) -> list:
    """The class of each complex or ruptured complex built through its
    checked constructor, in order."""
    log = []
    for cls in (simplicial.TruncatedComplex, ruptured.RupturedComplex):

        def counted(kind, *args, new=cls.__new__, **kwargs):
            log.append(kind)
            return new(kind, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", staticmethod(counted))
    return log


def test_fiber_and_coherent_core_skip_the_shape_rule(monkeypatch):
    """Their rows and marks fit by construction, so neither builds through
    a checked constructor."""
    rng = random.Random(15)
    structures = [random_ruptured(rng) for _ in range(30)]
    x = standard_simplex(3, 3)
    fibrations = covers() + [
        RupturedFibrationData(fully_gapped(x), from_kan(x), SimplicialMap.identity(x))]
    built = constructions(monkeypatch)
    for r in structures:
        coherent_core(r)
    for f in fibrations:
        coherent_core(f.total)
        for v in range(f.base.underlying.count(0)):
            fibration.fiber(f, SimplexId(0, v))
    assert built == []
    from_kan(x)  # the log sees a checked construction
    assert built == [ruptured.RupturedComplex]


def test_fiber_enumerates_no_horn_without_total_gap_horns(monkeypatch):
    enumerated = first_args(monkeypatch, simplicial.enumerate_horns)
    for cover in covers():
        assert not cover.total.gap
        for v in range(cover.base.underlying.count(0)):
            fibration.fiber(cover, SimplexId(0, v))
        assert enumerated == []
    # With gap horns in the total space, fiber enumerates its own horns only.
    x = standard_simplex(2, 2)
    f = RupturedFibrationData(fully_gapped(x), from_kan(x), SimplicialMap.identity(x))
    enumerated.clear()
    fib, _ = fibration.fiber(f, SimplexId(0, 0))
    assert fib.gap == {HornSpec(1, 0, (0,)): None, HornSpec(1, 1, (0,)): None}
    assert enumerated and all(y is fib.underlying for y in enumerated)


def test_product_enumerates_no_horn_of_the_product(monkeypatch):
    enumerated = first_args(monkeypatch, simplicial.horn_rows)
    rng = random.Random(8)
    for _ in range(30):
        r, s = random_ruptured(rng), random_ruptured(rng)
        enumerated.clear()
        product(r, s)
        assert enumerated
        assert all(x is r.underlying or x is s.underlying for x in enumerated)



def test_a_bound_far_above_the_input_scans_only_the_dimensions_with_horns(monkeypatch):
    """At any bound, up to the largest a document may name, the 2-simplex
    has n-horns for n <= 3 only, and each horn scan reads those shapes
    alone: one ``horn_rows`` call per shape (two in a product, one per
    factor), none for the empty dimensions, and none for a lifting problem
    without a coherent base simplex (n = 3). The small bound comes first,
    so that a scan of every dimension fails the count before it takes hours
    at the largest."""
    scanned = first_args(monkeypatch, simplicial.horn_rows)
    for bound in (40, documents.MAX_DIM_BOUND):
        x = standard_simplex(2, bound)
        r = fully_gapped(x)
        f = RupturedFibrationData(from_kan(x), from_kan(x), SimplicialMap.identity(x))
        g = RupturedFibrationData(r, from_kan(x), SimplicialMap.identity(x))
        calls = [
            (lambda: fully_gapped(x), 2 + 3 + 4),
            (lambda: is_kan_up_to(x, x.dim_bound), 1 + 2),  # inner horns only
            (lambda: product(r, r), 2 * (2 + 3 + 4)),
            (lambda: enumerate_lifting_problems(f), 2 + 3),
            (lambda: compose_fibrations(f, f), 2 + 3),
            (lambda: fibration.fiber(g, SimplexId(0, 0)), 2),  # the fiber is one vertex
        ]
        start = time.perf_counter()
        for call, count in calls:
            scanned.clear()
            call()
            assert len(scanned) == count
        assert time.perf_counter() - start < 5  # about 0.05 s at the largest bound


def test_a_gap_table_is_read_and_checked_one_shape_at_a_time(monkeypatch, calls):
    """The serialized ``fully_gapped(standard_simplex(7, 3))`` is read in runs,
    without a checked row read, and its validation calls no per-horn check
    and builds no filler table: nothing is coherent. With a mode on every
    third row and on row 300, the rows are still read in runs, and each mode
    alone is read row by row."""
    rows = []
    for name in ("_checked_horn_fields", "_mode_fields"):
        original = getattr(documents, name)
        monkeypatch.setattr(documents, name,
                            lambda *args, name=name, original=original:
                            rows.append(name) or original(*args))
    r = fully_gapped(standard_simplex(7, 3))
    text = documents.serialize_document(documents.Document("ruptured", r))
    parsed = documents.parse_document(text).body
    assert rows == [] and parsed == r and len(parsed.gap) == 632
    builds = table_builds(monkeypatch)
    assert validate_ruptured(parsed) == []
    assert calls == [] and builds == []
    doc, marked = json.loads(text), {*range(1, 632, 3), 300}
    for i in marked:
        doc["gap"][i]["mode"] = {"kind": "plain", "payload": None}
    moded = documents.parse_document(json.dumps(doc)).body
    assert rows == ["_mode_fields"] * len(marked)
    assert moded.gap == {h: PLAIN if i in marked else None for i, h in enumerate(sorted(r.gap))}


def test_product_of_a_gapped_cycle_builds_no_table_of_the_product(monkeypatch):
    builds = table_builds(monkeypatch)
    for m in (3, 8):
        c = covering.build_cycle(m)
        builds.clear()
        result = product(fully_gapped(c), from_kan(c))
        assert len(result.gap) == 5 * m * m
        assert all(x is not result.underlying for x, _ in builds)


def test_with_coherent_shares_its_complexs_tables(monkeypatch):
    builds = table_builds(monkeypatch)
    rng = random.Random(9)
    structures = [random_ruptured(rng) for _ in range(30)]
    reached = 0
    for r in structures:
        x = r.underlying
        for n in range(x.dim_bound + 1):
            for i in range(x.count(n)):
                try:
                    r = r.with_coherent(SimplexId(n, i))
                except ExclusionError:
                    continue
                reached += 1
                for h in every_horn(r.underlying):
                    classify_horn(r, h)
    assert reached >= 100
    built = [id(x) for x, part in builds if part == "fillers"]
    assert built == [id(r.underlying) for r in structures]
    assert "cofaces" not in [part for _, part in builds]


def test_lift_table_is_built_once_per_fibration(monkeypatch):
    builds = first_args(monkeypatch, fibration.build_lift_table)
    generator = EdgePath.forward(*range(5))
    cover = build_double_cover(5)
    base = SimplexId(0, 0)
    covering.monodromy_ruptured(cover, base, [generator, generator.concat(generator)])
    for _ in range(3):
        covering.monodromy(cover, base, generator)
    assert covering.covering_violation(cover) is None
    assert builds == [cover] and builds[0] is cover


def test_fiber_reads_only_the_face_rows_at_its_vertices(monkeypatch):
    """The fiber over a base vertex of a double cover has two vertices and
    no edge, whatever the cycle's length: fiber reads the face rows of the
    simplices whose d_0 is one of those vertices, not every total row."""
    reads = []
    face_row = simplicial.TruncatedComplex.face_row

    def counted(x, n, index):
        reads.append((n, index))
        return face_row(x, n, index)

    monkeypatch.setattr(simplicial.TruncatedComplex, "face_row", counted)
    counts = []
    for m in (4, 16, 64):
        cover = build_double_cover(m)
        reads.clear()
        fib, _ = fibration.fiber(cover, SimplexId(0, 0))
        assert fib.underlying.counts == (2, 0, 0)
        counts.append(len(reads))
    assert counts == [2, 2, 2]


def script_document(tmp_path, adds: int) -> pathlib.Path:
    """A judgment script of ``adds`` adds, every tenth one rejected."""
    rows = []
    for i in range(adds):
        polarity = "gapped" if i % 10 == 9 else "coherent"
        label = f"J{i - 1}" if polarity == "gapped" else f"J{i}"
        rows.append({"op": "add", "judgment": {"atom": label}, "polarity": polarity})
    path = tmp_path / f"script_{adds}.json"
    path.write_text(json.dumps({"format": "rupture-kit/1", "kind": "judgment-script",
                                "script": rows}))
    return path


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_cli_judgments_copies_the_entries_once(monkeypatch, tmp_path, extra):
    """Only the final store's entries are copied out, whatever the script's
    length; reading each new entry costs O(1)."""
    copied = []
    entries = judgments.WitnessStore.entries

    def counted(store):
        copied.append(store)
        return entries.func(store)

    counting = cached_property(counted)
    counting.__set_name__(judgments.WitnessStore, "entries")
    monkeypatch.setattr(judgments.WitnessStore, "entries", counting)
    for adds in (20, 400):
        copied.clear()
        assert run_cli("judgments", str(script_document(tmp_path, adds)), *extra) == 1
        assert len(copied) == 1


def test_the_witness_store_hashes_no_polarity(monkeypatch):
    """The store's tables are keyed by judgment or by witness id alone, so
    no store operation, nor the ``judgments`` command, hashes a
    ``Polarity``."""

    def refuse(member):
        raise AssertionError(f"{member!r} hashed")

    monkeypatch.setattr(judgments.Polarity, "__hash__", refuse)
    coherent, gapped = judgments.Polarity.COHERENT, judgments.Polarity.GAPPED
    with pytest.raises(AssertionError):
        hash(coherent)
    j, k, l = (judgments.ArrowJudgment(*pair) for pair in ("JK", "KL", "JL"))
    store = judgments.WitnessStore()
    for judgment, polarity in ((j, coherent), (k, coherent), (l, gapped)):
        store = judgments.add_witness(store, judgment, polarity)  # at the tip
    tip = judgments.add_witness(store, j, coherent)
    fork = judgments.add_witness(store, k, coherent)  # store is behind the tip
    assert fork._log is not tip._log
    for s in (store, tip, fork):
        with pytest.raises(judgments.ExclusionViolation):
            judgments.add_witness(s, l, coherent)
        assert not judgments.is_open(s, j) and judgments.is_open(s, judgments.BaseJudgment("M"))
        assert s.by_id("w3").polarity is gapped
        assert judgments.make_horn(s, "w1", "w2", "w3") == ("w1", "w2", "w3")
    up = judgments.level_up(fork)
    assert up.universe == frozenset({"w1", "w2", "w4"})
    judgments.add_witness(up, judgments.BaseJudgment("w4"), gapped)
    for extra in ((), ("--json",)):
        assert run_cli("judgments", "judgment_script.json", *extra) == 0
