"""Gap horns checked one shape at a time, against a check per horn.

``validate_ruptured`` tests each run of one shape (n, k) of the sorted gap
horns in column passes, hands a run that fails to ``horn_violations`` horn
by horn, and its Exclusion scan skips a run whose dimension has nothing
coherent. ``reference_report`` below is the check per horn: the complex's
identities, then ``horn_violations`` over the sorted gap horns, then the
Exclusion rows of a brute-force scan when nothing else was reported. Seeded
structures get gap horns that fail in each way across several shapes: a
dimension above the bound, a dangling face, faces that do not fit together
and an Exclusion conflict. Each report must equal the reference, row for
row and in order; ``validate_exclusion`` must equal the brute-force rows,
without raising, on every structure, a horn that does not fit included; and
``product``'s conflicts on factors that break Exclusion must be the
brute-force pairs of the product.
"""

import random

import pytest

from rupture_kit import ruptured
from rupture_kit.errors import ExclusionError, Violation
from rupture_kit.ruptured import (
    RupturedComplex, product, validate_exclusion, validate_ruptured,
)
from rupture_kit.simplicial import (
    HornSpec, SimplexId, TruncatedComplex, horn_of, horn_violations, misfit_runs, shape_runs,
    validate_complex,
)

from support import held_bytes, oracle_exclusion_conflicts, random_ruptured

FAULTS = ["dimension", "dangling", "incompatible", "exclusion"]

# The row kinds misfit_runs tests for.
KINDS = {"horn-dimension", "horn-dangling-face", "horn-compatibility"}


def exclusion_rows(r: RupturedComplex) -> list[Violation]:
    return [Violation("exclusion", f"{h} is gap-witnessed but coherent {s} fills it")
            for h, s in oracle_exclusion_conflicts(r)]


def reference_report(r: RupturedComplex) -> list[Violation]:
    report = list(validate_complex(r.underlying))
    for h in sorted(r.gap):
        report.extend(horn_violations(r.underlying, h))
    return report or exclusion_rows(r)


def faulty_horns(rng: random.Random, r: RupturedComplex, fault: str) -> list[HornSpec]:
    """A few gap horns of one kind of fault, over several shapes."""
    x = r.underlying
    bound, counts = x.dim_bound, x.counts
    if fault == "dimension":
        return [HornSpec(n, k, tuple(rng.randrange(3) for _ in range(n)))
                for n in (bound + 1, bound + 2) for k in rng.sample(range(n + 1), 2)]
    if fault == "dangling":
        horns = []
        for n in range(1, bound + 1):
            k = rng.randrange(n + 1)
            faces = [rng.randrange(max(counts[n - 1], 1)) for _ in range(n)]
            faces[rng.randrange(n)] = rng.choice([-1, counts[n - 1], counts[n - 1] + 4])
            horns.append(HornSpec(n, k, tuple(faces)))
        return horns
    if fault == "incompatible":
        horns = []
        for n in range(2, bound + 1):
            if not counts[n - 1]:
                continue
            for k in range(n + 1):
                for _ in range(6):
                    h = HornSpec(n, k, tuple(rng.randrange(counts[n - 1]) for _ in range(n)))
                    if horn_violations(x, h):
                        horns.append(h)
        return horns
    coherent = [SimplexId(n, i) for n in range(1, bound + 1) for i in sorted(r.coh[n])]
    return [horn_of(x, sid, rng.randrange(sid.dim + 1))
            for sid in rng.sample(coherent, min(3, len(coherent)))]


def structures():
    """(name, structure): seeded structures, each with gap horns of a seeded
    choice of faults added."""
    rng = random.Random(20)
    out = []
    for i in range(160):
        r = random_ruptured(rng)
        faults = rng.sample(FAULTS, rng.randint(0, 2))
        gap = dict(r.gap)
        for fault in faults:
            gap.update(dict.fromkeys(faulty_horns(rng, r, fault)))
        out.append((f"{i}-{'+'.join(faults) or 'none'}", RupturedComplex(r.underlying, r.coh, gap)))
    return out


def test_the_structures_cover_every_fault_on_several_shapes():
    shapes, misfits_beside_conflicts = {}, 0
    for _, r in structures():
        misfits_beside_conflicts += bool(exclusion_rows(r)) and any(
            v.kind in ("horn-dimension", "horn-dangling-face")
            for h in r.gap for v in horn_violations(r.underlying, h))
        for v in reference_report(r):
            # "horn(n=2, k=1" for a horn's rows, the whole text for a dimension row
            shapes.setdefault(v.kind, set()).add(v.message.split(", faces")[0])
    assert {kind: len(found) >= 2 for kind, found in shapes.items()} == {
        "horn-dimension": True, "horn-dangling-face": True, "horn-compatibility": True,
        "exclusion": True}
    assert min(len(shapes[kind]) for kind in ("horn-dangling-face", "horn-compatibility",
                                              "exclusion")) >= 3, shapes
    assert misfits_beside_conflicts >= 10


@pytest.mark.parametrize("name,r", structures(), ids=[name for name, _ in structures()])
def test_validate_ruptured_matches_the_check_per_horn(name, r):
    assert validate_ruptured(r) == reference_report(r)


@pytest.mark.parametrize("name,r", structures(), ids=[name for name, _ in structures()])
def test_a_run_is_refused_iff_one_of_its_horns_is_reported(name, r):
    """Each run, and each of its horns as a run of one, is refused exactly
    when :func:`horn_violations` reports one of its horns."""
    x = r.underlying

    def reported(horns):
        return any(v.kind in KINDS for h in horns for v in horn_violations(x, h))

    for n, k, run in shape_runs(sorted(r.gap)):
        assert {(h.n, h.k) for h in run} == {(n, k)}
        for horns in [run] + [[h] for h in run]:
            refused = list(misfit_runs(x, horns))
            assert refused == ([horns] if reported(horns) else []), horns


def test_high_shapes_keep_no_tables():
    """A shape's identity getters have O(n^2) entries, so none above
    dimension 8 outlives its call: over the 41 shapes of 40-dimensional
    horns on a chain of one simplex per dimension, under 1 MB stays held,
    where keeping each shape's tables holds 4.8 MB."""
    x = TruncatedComplex(40, [1] * 41, [[[0] * (n + 1)] for n in range(1, 41)])
    horns = [HornSpec(40, k, (0,) * 40) for k in range(41)]
    runs = []
    assert held_bytes(lambda: runs.extend(misfit_runs(x, horns))) < 1_000_000
    assert runs == []


@pytest.mark.parametrize("name,r", structures(), ids=[name for name, _ in structures()])
def test_validate_exclusion_is_the_brute_force_report(name, r):
    # a horn that does not fit has no filler, so it is no conflict
    assert validate_exclusion(r) == exclusion_rows(r)


def test_product_conflicts_are_the_brute_force_pairs(monkeypatch):
    rng = random.Random(21)
    conflicting = 0
    for _ in range(60):
        a = random_ruptured(rng, force_valid=False, gap_p=0.5)
        b = random_ruptured(rng, force_valid=False, gap_p=0.5)
        with monkeypatch.context() as m:
            m.setattr(ruptured, "_conflicts", lambda r, horns: iter(()))
            unchecked = product(a, b)
        expected = tuple(oracle_exclusion_conflicts(unchecked))
        if not expected:
            assert product(a, b) == unchecked
            continue
        conflicting += 1
        with pytest.raises(ExclusionError) as exc:
            product(a, b)
        assert exc.value.conflicts == expected
    assert conflicting >= 15
