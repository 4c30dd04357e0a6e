"""The records that the horn walks build without calling a constructor:
every key of :func:`enumerate_lifting_problems` and every gap horn of
:func:`product` is exactly its record class, the keys of one horn share one
horn object, and the conflicts of a product's Exclusion re-check, which
sorts only the gap horns of dimensions with a coherent simplex, are those
of a brute-force scan, in its order."""

import random
from itertools import groupby

import pytest

from rupture_kit.covering import build_double_cover
from rupture_kit.errors import ExclusionError
from rupture_kit.fibration import LiftingProblemKey, enumerate_lifting_problems
from rupture_kit.ruptured import GapMode, RupturedComplex, product
from rupture_kit.simplicial import HornSpec, SimplexId, enumerate_horns
from support import oracle_exclusion_conflicts, random_ruptured
from test_fibration import law_fibrations, product_fibrations, seeded_transport_fibration

MODES = [None, GapMode("plain"), GapMode("semantic", ("cut",))]


def walked_fibrations():
    """The fixture fibrations, double covers, and seeded fibrations of one
    and two dimensions."""
    rng = random.Random(53)
    return [*law_fibrations(), *(build_double_cover(m) for m in (3, 5, 8)),
            *(seeded_transport_fibration(rng) for _ in range(40)), *product_fibrations(29, 8)]


def test_lifting_problem_keys_are_exact_records_sharing_their_horn():
    keys = shared = 0
    for f in walked_fibrations():
        problems = enumerate_lifting_problems(f)
        for key in problems:
            assert type(key) is LiftingProblemKey
            assert type(key.horn) is HornSpec and type(key.base) is SimplexId
        for _, run in groupby(problems, key=lambda key: key.horn):
            run = list(run)
            assert all(key.horn is run[0].horn for key in run)
            shared += len(run) > 1
        keys += len(problems)
    assert keys >= 500 and shared >= 20


def seeded_pairs(seed: int, count: int):
    """(r, s) factor pairs of seeded structures whose gap marks ignore
    Exclusion, each factor with random modes and, in each dimension with
    probability 0.3, no coherent simplex."""
    rng = random.Random(seed)

    def factor():
        r = random_ruptured(rng, force_valid=False, gap_p=0.3)
        coh = [frozenset() if rng.random() < 0.3 else marks for marks in r.coh]
        return RupturedComplex(r.underlying, coh, {h: rng.choice(MODES) for h in r.gap})

    return [(factor(), factor()) for _ in range(count)]


def test_product_gap_horns_are_exact_records():
    horns = 0
    for r, s in seeded_pairs(61, 60):
        try:
            p = product(r, s)
        except ExclusionError:
            continue
        assert {type(h) for h in p.gap} <= {HornSpec}
        horns += len(p.gap)
    assert horns >= 1000


def oracle_product(r: RupturedComplex, s: RupturedComplex) -> RupturedComplex:
    """The product, without its Exclusion re-check: the complex and the
    coherence of the product of the factors without their gap marks, and as
    gap every product horn whose projection to either factor is gapped."""
    bare = product(*(RupturedComplex(t.underlying, t.coh, {}) for t in (r, s)))
    x, gap = bare.underlying, {}
    for n in range(1, x.dim_bound + 1):
        rc = s.underlying.count(n - 1)
        for k in range(n + 1):
            for h in enumerate_horns(x, n, k):
                hx = HornSpec(n, k, tuple(f // rc for f in h.faces))
                hy = HornSpec(n, k, tuple(f % rc for f in h.faces))
                if hx in r.gap or hy in s.gap:
                    gap[h] = r.gap.get(hx) or s.gap.get(hy)
    return RupturedComplex(x, bare.coh, gap)


@pytest.mark.parametrize("seed", [67, 71])
def test_product_conflicts_match_the_oracle_in_order(seed):
    conflicted = mixed = 0
    for r, s in seeded_pairs(seed, 50):
        want = oracle_product(r, s)
        conflicts = tuple(oracle_exclusion_conflicts(want))
        try:
            p = product(r, s)
        except ExclusionError as err:
            assert err.conflicts == conflicts
            assert all(type(h) is HornSpec and type(c) is SimplexId for h, c in err.conflicts)
            conflicted += 1
            # a dimension whose gap horns the re-check skips
            mixed += any(not want.coh[h.n] for h in want.gap)
        else:
            assert conflicts == () and p.gap == want.gap and p.coh == want.coh
    assert conflicted >= 15 and mixed >= 5
