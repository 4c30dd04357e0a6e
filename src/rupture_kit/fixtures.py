"""Bundled finite fixtures: the polysemy and drift fibrations, partial
transport, and small covering tasks.

Each builder returns fully validated in-memory data; the JSON files under
``fixtures/`` are these values serialized through the document layer.
"""

from __future__ import annotations

from .covering import EdgePath, build_double_cover
from .documents import CoveringTask, DeriveTask
from .derivability import (
    Annotation,
    AtomType,
    Pair,
    ProdType,
    ResourceContext,
    Substitution,
    Var,
)
from .fibration import LiftingProblemKey, RupturedFibrationData, transport_key
from .ruptured import GapMode, from_kan
from .simplicial import SimplexId, SimplicialMap, TruncatedComplex


def _edge_complex(vertices, edges, dim_bound=1):
    """A 1-dimensional complex from vertex labels and (source, target,
    label) edge triples."""
    index = {name: i for i, name in enumerate(vertices)}
    faces = {1: [[index[tgt], index[src]] for src, tgt, _ in edges]}
    labels = {0: list(vertices), 1: [label for _, _, label in edges]}
    counts = [len(vertices), len(edges)] + [0] * (dim_bound - 1)
    for n in range(2, dim_bound + 1):
        faces[n] = []
    return TruncatedComplex.create(dim_bound, counts, faces, labels)


def source_anchored_problem(e_index: int, base_edge: int) -> LiftingProblemKey:
    """The transport problem of fiber vertex ``e_index`` along ``base_edge``:
    source face present, target face missing."""
    return transport_key(SimplexId(0, e_index), SimplexId(1, base_edge))


def bank_fibration() -> RupturedFibrationData:
    """Polysemy over the token pair for "bank".

    The base has two tokens joined by a lexical-identity edge; the fiber
    over each token holds its senses. The financial-institution sense does
    not travel along the lexical edge: that transport problem is
    gap-marked with the incompatible features as witness.
    """
    base = _edge_complex(
        ["bank:financial", "bank:river"],
        [("bank:financial", "bank:river", "lexical-identity")],
    )
    total = _edge_complex(
        ["financial-institution", "river-edge"],
        [],
    )
    proj = SimplicialMap(((0, 1), ()))
    mode = GapMode(
        "semantic",
        (
            "domain: finance vs geography",
            "taxonomy: institution vs landform",
            "inference: money vs water",
        ),
    )
    return RupturedFibrationData(
        from_kan(total),
        from_kan(base),
        proj,
        {source_anchored_problem(0, 0): mode},
    )


def crane_fibration() -> RupturedFibrationData:
    """Meaning drift across the senses of "crane".

    Stepwise transport succeeds (bird to machine, machine to verb) but the
    designated composite edge from bird to verb is gap-marked: the features
    that survive each step do not survive the composite.
    """
    base = _edge_complex(
        ["crane:bird", "crane:machine", "crane:verb"],
        [
            ("crane:bird", "crane:machine", "metaphor:shape"),
            ("crane:machine", "crane:verb", "metaphor:motion"),
            ("crane:bird", "crane:verb", "composite:bird-verb"),
        ],
    )
    total = _edge_complex(
        ["tall-thin-reacher", "lifting-arm", "neck-stretch"],
        [
            ("tall-thin-reacher", "lifting-arm", "shape-carries"),
            ("lifting-arm", "neck-stretch", "motion-carries"),
        ],
    )
    proj = SimplicialMap(((0, 1, 2), (0, 1)))
    mode = GapMode(
        "semantic",
        ("animacy lost", "habitat lost", "shape ground exhausted"),
    )
    return RupturedFibrationData(
        from_kan(total),
        from_kan(base),
        proj,
        {source_anchored_problem(0, 2): mode},
        composites={(0, 1): 2},
    )


def bottle_fibration() -> RupturedFibrationData:
    """Partial transport across the container/contents pattern: the shape
    sense travels, the material sense is gap-marked."""
    base = _edge_complex(
        ["bottle:container", "bottle:contents"],
        [("bottle:container", "bottle:contents", "container-contents")],
    )
    total = _edge_complex(
        ["vessel-shape", "made-of-glass", "poured-volume"],
        [("vessel-shape", "poured-volume", "shape-carries")],
    )
    proj = SimplicialMap(((0, 0, 1), (0,)))
    mode = GapMode("semantic", ("material does not apply to contents",))
    return RupturedFibrationData(
        from_kan(total),
        from_kan(base),
        proj,
        {source_anchored_problem(1, 0): mode},
    )


def double_cover_task(m: int = 3) -> CoveringTask:
    """Basepoint and loops for the connected double cover of the m-cycle:
    the generator loop and the doubled loop."""
    generator = EdgePath.forward(*range(m))
    return CoveringTask(SimplexId(0, 0), (generator, generator.concat(generator)))


def linear_horn_task() -> DeriveTask:
    """The contraction failure: duplication is fine exponentially, fatal
    linearly."""
    a = AtomType("A")
    gamma = ResourceContext.of(("x", a, Annotation.EXPONENTIAL))
    delta = ResourceContext.of(("y", a, Annotation.LINEAR))
    return DeriveTask(
        gamma,
        delta,
        Substitution.of({"x": "y"}),
        Pair(Var("x"), Var("x")),
        ProdType(a, a),
    )


def mobius_rupture(m: int = 3):
    """The double cover with its generator-loop closure problems
    registered: the monodromy-ruptured structure used across the tests."""
    from .covering import monodromy_ruptured

    cover = build_double_cover(m)
    task = double_cover_task(m)
    return monodromy_ruptured(cover, task.basepoint, list(task.loops))
