"""The accept predicate and the shared trichotomy records, against the
reporter and the public constructors.

``horn_fits`` must accept exactly the horns ``horn_violations`` reports
nothing for: every candidate horn of every fixture and of seeded
structures (every face tuple, one index past each dimension included), and
horns mutated in each way a horn can fail. ``decide`` and ``transport``
build their answers, and ``transport_key`` its key, without the records'
constructors, so each must equal, hash like and have the type of the
record its public constructor builds.
"""

import pathlib
import random
from itertools import product as cartesian

import pytest

from rupture_kit.documents import load_document
from rupture_kit.fibration import (
    OPEN_TRANSPORT, Coherent, Gapped, OpenTransport, classify_lift, enumerate_lifting_problems,
    transport, transport_key,
)
from rupture_kit.ruptured import (
    OPEN, CoherentlyFilled, GapWitnessed, Open, classify_horn, decide,
)
from rupture_kit.simplicial import (
    HornSpec, SimplexId, TruncatedComplex, enumerate_horns, horn_fits, horn_violations,
    standard_simplex,
)

from support import random_ruptured

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def fixture_bodies(*kinds):
    for path in sorted(FIXTURES.glob("*.json")):
        doc = load_document(path)
        if doc.kind in kinds:
            yield path.stem, doc.body


def fixture_complexes():
    for name, body in fixture_bodies("complex", "ruptured", "fibration"):
        if hasattr(body, "total"):
            yield f"{name}.total", body.total.underlying
            yield f"{name}.base", body.base.underlying
        else:
            yield name, getattr(body, "underlying", body)


def candidate_horns(x: TruncatedComplex):
    """Every (n, k)-horn of the complex's dimensions whose faces name a
    simplex of dimension n - 1 or the index one past the last."""
    for n in range(1, x.dim_bound + 1):
        for k in range(n + 1):
            for faces in cartesian(range(x.counts[n - 1] + 1), repeat=n):
                yield HornSpec(n, k, faces)


def mutated_horns(x: TruncatedComplex):
    """Horns of the complex bent in each way a horn can fail."""
    d = x.dim_bound
    yield HornSpec(d + 1, 0, (0,) * (d + 1))  # a dimension above the bound
    yield HornSpec(1, 0, (-1,))
    for n in range(1, d + 1):
        count = x.counts[n - 1]
        for k in range(n + 1):
            yield HornSpec(n, k, (count,) * n)  # dangling
            for h in enumerate_horns(x, n, k)[:20]:
                yield h
                for a in range(n):  # each face in turn, redrawn
                    for f in (-1, 0, count - 1, count):
                        yield HornSpec(n, k, h.faces[:a] + (f,) + h.faces[a + 1:])


def assert_fits_iff_unreported(x, horns):
    seen = {True: 0, False: 0}
    for h in horns:
        fits = horn_fits(x, h)
        assert fits == (horn_violations(x, h) == []), h
        seen[fits] += 1
    return seen


FIXTURE_COMPLEXES = dict(fixture_complexes())


@pytest.mark.parametrize("name", FIXTURE_COMPLEXES)
def test_fits_iff_unreported_on_fixtures(name):
    x = FIXTURE_COMPLEXES[name]
    seen = assert_fits_iff_unreported(x, [*candidate_horns(x), *mutated_horns(x)])
    assert seen[False], name


def test_fits_iff_unreported_on_seeded_structures():
    rng = random.Random(26)
    seen = {True: 0, False: 0}
    for _ in range(400):
        x = random_ruptured(rng).underlying
        for fits, count in assert_fits_iff_unreported(x, candidate_horns(x)).items():
            seen[fits] += count
    assert min(seen.values()) >= 1000, seen


@pytest.mark.parametrize("x", [
    standard_simplex(4, 3),
    standard_simplex(5, 4),
    # one simplex per dimension, every face the one below: every horn fits
    TruncatedComplex(12, [1] * 13, [[[0] * (n + 1)] for n in range(1, 13)]),
], ids=["simplex4", "simplex5", "chain12"])
def test_fits_iff_unreported_on_mutated_horns(x):
    seen = assert_fits_iff_unreported(x, mutated_horns(x))
    assert min(seen.values()) >= 1, seen


def test_a_broken_identity_is_refused_in_every_shape():
    # One triangle at every present index: two of its own faces would
    # have to agree.
    x = standard_simplex(3, 3)
    for k in range(4):
        for h in enumerate_horns(x, 3, k):
            bent = HornSpec(3, k, (h.faces[1],) * 3)
            assert not horn_fits(x, bent) and horn_violations(x, bent), bent


def assert_is_constructed(answer):
    built = type(answer)(*answer)  # the public, checked constructor
    assert type(answer) is type(built)
    assert answer == built and hash(answer) == hash(built)
    assert answer == tuple(answer) and repr(answer) == repr(built)


def test_classify_horn_answers_are_constructed_records():
    rng = random.Random(27)
    kinds = {CoherentlyFilled: 0, GapWitnessed: 0, Open: 0}
    for _ in range(150):
        r = random_ruptured(rng)
        x = r.underlying
        for n in range(1, x.dim_bound + 1):
            for k in range(n + 1):
                for h in enumerate_horns(x, n, k):
                    answer = classify_horn(r, h)
                    assert_is_constructed(answer)
                    assert type(answer) is not Open or answer is OPEN
                    kinds[type(answer)] += 1
    assert min(kinds.values()) >= 100, kinds


def test_decide_answers_are_constructed_records():
    gap = {"plain": None, "moded": "mode"}
    for solutions in ([], (), [SimplexId(2, 0)], (SimplexId(1, 3), SimplexId(1, 4))):
        for key in ("plain", "moded", "open"):
            assert_is_constructed(decide(solutions, gap, key))
    assert decide([], gap, "open") is decide((), {}, None) is OPEN


def test_fibration_answers_are_constructed_records():
    kinds = {Coherent: 0, Gapped: 0, OpenTransport: 0}
    fibrations = [f for _, f in fixture_bodies("fibration")]
    # Without its gap marks, a gapped problem of a fixture is open.
    for f in fibrations + [f._replace(gap_lifts={}) for f in fibrations]:
        for key in enumerate_lifting_problems(f):
            assert_is_constructed(classify_lift(f, key))
        coh_points, coh_edges = sorted(f.total.coh[0]), sorted(f.base.coh[1])
        below = f.base.underlying.face_table[0]
        for w in coh_points:
            for b in coh_edges:
                if f.proj.levels[0][w] != below[b][1]:
                    continue
                answer = transport(f, SimplexId(0, w), SimplexId(1, b))
                assert_is_constructed(answer)
                key = transport_key(SimplexId(0, w), SimplexId(1, b))
                assert_is_constructed(key)
                assert_is_constructed(key.horn)
                assert type(answer) is not OpenTransport or answer is OPEN_TRANSPORT
                kinds[type(answer)] += 1
    assert min(kinds.values()) >= 1, kinds
