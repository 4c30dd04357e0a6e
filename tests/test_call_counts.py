"""Each input check and each lift runs once per public call.

The checks (``horn_violations``, ``key_violations``), the path lift
(``lift_edge_path``) and the derivability decision (``check_derivable``)
are wrapped in every loaded ``rupture_kit`` module that references them,
so calls from one module into another are counted.
"""

import contextlib
import io
import pathlib
import random
import sys

import pytest

from rupture_kit import cli, covering, derivability, fibration, simplicial
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
from rupture_kit.ruptured import CoherentlyFilled, classify_horn
from rupture_kit.simplicial import (
    HornSpec,
    SimplexId,
    SimplicialMap,
    enumerate_horns,
    find_fillers,
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

    modules = [
        m for key, m in list(sys.modules.items())
        if key == "rupture_kit" or key.startswith("rupture_kit.")
    ]
    for name, original in COUNTED.items():
        wrapper = counting(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
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
