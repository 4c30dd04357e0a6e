"""Each input check and each lift runs once per public call, each complex
builds its incidence index once, and each fibration its lift table once.

The checks (``horn_violations``, ``key_violations``), the path lift
(``lift_edge_path``), the derivability decision (``check_derivable``), the
index and table builds (``build_incidence``, ``build_lift_table``) and horn
enumeration are wrapped in every loaded ``rupture_kit`` module that
references them, so calls from one module into another are counted.
"""

import contextlib
import io
import json
import pathlib
import random
import sys
from functools import cached_property

import pytest

from rupture_kit import cli, covering, derivability, fibration, judgments, simplicial
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
from rupture_kit.ruptured import CoherentlyFilled, classify_horn, product
from rupture_kit.simplicial import (
    HornSpec,
    SimplexId,
    SimplicialMap,
    enumerate_horns,
    find_fillers,
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


def every_horn(x):
    for n in range(1, x.dim_bound + 1):
        for k in range(n + 1):
            yield from enumerate_horns(x, n, k)


def test_classify_horn_checks_its_horn_once(calls):
    rng = random.Random(5)
    checked = 0
    for _ in range(60):
        r = random_ruptured(rng)
        for h in every_horn(r.underlying):
            calls.clear()
            classify_horn(r, h)
            assert calls == ["horn_violations"], h
            checked += 1
    assert checked >= 200


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
    checked = 0
    for f in covers():
        x, b = f.total.underlying, f.base.underlying
        for w in range(x.count(0) + 1):
            for e in range(b.count(1) + 1):
                calls.clear()
                try:
                    transport(f, SimplexId(0, w), SimplexId(1, e))
                except KernelError:
                    pass
                assert calls == ["key_violations"], (w, e)
                checked += 1
    assert checked >= 40


def compose_steps(f, g) -> int:
    """The lifting problems ``compose_fibrations(f, g)`` must decide: one
    base-level step per composite problem within the middle bound, plus one
    total-level step per coherent middle lift of that step."""
    composite = RupturedFibrationData(
        f.total, g.base, SimplicialMap.compose(g.proj, f.proj)
    )
    steps = 0
    for key in enumerate_lifting_problems(composite):
        if key.horn.n > f.base.underlying.dim_bound:
            continue
        steps += 1
        step1 = LiftingProblemKey(f.proj.apply_horn(key.horn), key.base)
        if not key_violations(g, step1):
            s1 = classify_lift(g, step1)
            if isinstance(s1, CoherentlyFilled):
                steps += len(s1.fillers)
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
        assert calls == ["key_violations"] * steps
        total += steps
    assert total >= 30


def test_monodromy_ruptured_lifts_each_fiber_point_once(calls):
    generator = EdgePath.forward(*range(5))
    covering.monodromy_ruptured(
        build_double_cover(5), SimplexId(0, 0), [generator, generator.concat(generator)]
    )
    assert calls.count("lift_edge_path") == 4


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
    builds = first_args(monkeypatch, simplicial.build_incidence)
    x = standard_simplex(8, 3)
    assert is_kan_up_to(x, 3) == (True, None)
    assert builds == [x] and builds[0] is x


def test_product_enumerates_no_horn_of_the_product(monkeypatch):
    enumerated = first_args(monkeypatch, simplicial.enumerate_horns)
    rng = random.Random(8)
    for _ in range(30):
        r, s = random_ruptured(rng), random_ruptured(rng)
        enumerated.clear()
        product(r, s)
        assert enumerated
        assert all(x is r.underlying or x is s.underlying for x in enumerated)


def test_with_coherent_shares_its_complexs_index(monkeypatch):
    builds = first_args(monkeypatch, simplicial.build_incidence)
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
    assert [id(x) for x in builds] == [id(r.underlying) for r in structures]


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
