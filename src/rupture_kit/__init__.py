"""Computational kernel for finite ruptured simplicial structures.

The pieces, bottom up: face-map-only complexes with exhaustive horn
machinery (``simplicial``), coherence/gap annotation under the Exclusion
law with the three-way horn classification (``ruptured``), lifting
problems and transport over a projection (``fibration``), finite covering
models with monodromy as gap structure (``covering``), resource-annotated
derivability certificates (``derivability``), a polarity-tagged witness
store (``judgments``), and the JSON document layer plus CLI (``documents``,
``cli``).
"""

from .errors import DocumentError, ExclusionError, KernelError, Violation
from .simplicial import (
    HornSpec,
    SimplexId,
    SimplicialMap,
    TruncatedComplex,
    check_simplicial_map,
    enumerate_horns,
    find_fillers,
    horn_complex,
    horn_of,
    is_kan_up_to,
    restrict,
    standard_simplex,
    validate_complex,
)
from .ruptured import (
    CoherentlyFilled,
    GapMode,
    GapWitnessed,
    Open,
    RupturedComplex,
    Trichotomy,
    classify_horn,
    coherent_core,
    from_kan,
    fully_gapped,
    product,
    check_morphism,
    validate_exclusion,
    validate_ruptured,
)
from .fibration import (
    Coherent,
    FunctorialityHornInhabitant,
    Gapped,
    LiftingProblemKey,
    LoopProblem,
    OpenTransport,
    RupturedFibrationData,
    TransportHornInhabitant,
    classify_lift,
    compose_fibrations,
    detect_functoriality_horn,
    detect_transport_horn,
    enumerate_lifting_problems,
    fiber,
    transport,
    validate_fibration,
)
from .covering import (
    EdgePath,
    FiberPermutation,
    build_cycle,
    build_double_cover,
    lift_edge_path,
    monodromy,
    monodromy_ruptured,
    trivial_double_cover,
)
from .derivability import (
    Annotation,
    AtomType,
    DerivabilityHorn,
    DerivabilityResult,
    Pair,
    ProdType,
    ResourceContext,
    Substitution,
    TupleTerm,
    TypeExpr,
    UnitTerm,
    UnitType,
    UsageCertificate,
    Var,
    apply_substitution,
    check_derivable,
    detect_derivability_horn,
)
from .judgments import (
    ArrowJudgment,
    BaseJudgment,
    ExclusionViolation,
    HornTriple,
    JudgmentAtom,
    Polarity,
    WitnessEntry,
    WitnessStore,
    add_witness,
    is_coherent_fragment,
    is_open,
    level_up,
    make_horn,
)
from .documents import Document, load_document, parse_document, serialize_document

__all__ = [name for name in dir() if not name.startswith("_")]
