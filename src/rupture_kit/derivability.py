"""Resource-annotated derivability with usage-count certificates.

The term language is minimal: variables, pairs, and the unit value. Types
are opaque names, binary products, and Unit. A context binds each variable
with a resource annotation, and derivability reduces to shape-checking the
term against the goal type plus counting variable occurrences against the
annotations:

    linear      used exactly once
    affine      used at most once
    relevant    used at least once
    exponential unrestricted

The decision procedure never reports an undetermined state: every judgment
comes back derivable or underivable, with a recomputable certificate either
way. A derivability horn is a judgment derivable in one context whose image
under a substitution is certified underivable in another; substitution
validity deliberately ignores annotations (it is exactly the mismatch of
annotations that makes the horn inhabitable).
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Optional, Union

from .errors import KernelError, record


class Annotation(Enum):
    LINEAR = "linear"
    AFFINE = "affine"
    RELEVANT = "relevant"
    EXPONENTIAL = "exponential"

    def permits(self, count: int) -> bool:
        if self is Annotation.LINEAR:
            return count == 1
        if self is Annotation.AFFINE:
            return count <= 1
        if self is Annotation.RELEVANT:
            return count >= 1
        return True


# -- types and terms ---------------------------------------------------------


@record
class AtomType:
    name: str

    def __str__(self) -> str:
        return self.name


@record
class UnitType:
    def __str__(self) -> str:
        return "Unit"


@record
class ProdType:
    left: "TypeExpr"
    right: "TypeExpr"

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


TypeExpr = Union[AtomType, UnitType, ProdType]


@record
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@record
class UnitTerm:
    def __str__(self) -> str:
        return "()"


@record
class Pair:
    left: "TupleTerm"
    right: "TupleTerm"

    def __str__(self) -> str:
        return f"({self.left}, {self.right})"


TupleTerm = Union[Var, UnitTerm, Pair]


@record
class Binding:
    var: str
    type: TypeExpr
    annotation: Annotation


@record
class ResourceContext:
    """An ordered list of annotated bindings with distinct variable names."""

    bindings: tuple[Binding, ...]

    def __new__(cls, bindings: tuple[Binding, ...]) -> "ResourceContext":
        names = [b.var for b in bindings]
        if len(set(names)) != len(names):
            raise KernelError("context variable names must be distinct")
        return tuple.__new__(cls, (bindings,))

    @classmethod
    def of(cls, *bindings: tuple[str, TypeExpr, Annotation]) -> "ResourceContext":
        return cls(tuple(Binding(v, t, a) for v, t, a in bindings))

    def lookup(self, name: str) -> Optional[Binding]:
        for b in self.bindings:
            if b.var == name:
                return b
        return None


@record
class UsageCertificate:
    """Occurrence counts per context variable with per-annotation verdicts.

    ``counts`` and ``verdicts`` pair every context variable with its exact
    occurrence count in the term and whether the annotation's rule accepts
    that count. ``type_error`` records a shape mismatch against the goal
    type, when there is one.
    """

    counts: tuple[tuple[str, int], ...]
    verdicts: tuple[tuple[str, bool], ...]
    type_error: Optional[str] = None

    def count(self, var: str) -> int:
        return dict(self.counts)[var]

    def verdict(self, var: str) -> bool:
        return dict(self.verdicts)[var]

    @property
    def all_satisfied(self) -> bool:
        return all(ok for _, ok in self.verdicts) and self.type_error is None


@record
class DerivabilityResult:
    derivable: bool
    certificate: UsageCertificate


@record
class Substitution:
    """A type-matching rename of one context's variables into another's.

    ``mapping`` sends each variable of the judgment's home context to a
    variable of the destination context. Validity requires totality and
    matching types; annotations are intentionally not compared.
    """

    mapping: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, mapping: Mapping[str, str]) -> "Substitution":
        return cls(tuple(sorted(mapping.items())))


@record
class DerivabilityHorn:
    """Derivable here, witnessed underivable after substitution."""

    source_certificate: UsageCertificate
    substitution: Substitution
    target_certificate: UsageCertificate


@record
class DeriveTask:
    """A term and goal judged in ``gamma`` and, renamed by ``sigma``, in
    ``delta``: the body of a derive-task document."""

    gamma: ResourceContext
    delta: ResourceContext
    sigma: Substitution
    term: TupleTerm
    goal: TypeExpr


# -- operations ----------------------------------------------------------------


def _walk(
    term: TupleTerm, goal: Optional[TypeExpr], types: dict, counts: dict
) -> Optional[str]:
    """Count the term's variable occurrences into ``counts`` and return its
    first shape mismatch against ``goal``, left to right; a ``goal`` of None
    (below a mismatch) only counts. ``types`` holds each bound variable's
    type, and the first unbound occurrence raises."""
    if isinstance(term, Var):
        name = term.name
        if name not in types:
            raise KernelError(f"unbound variable {name}")
        counts[name] += 1
        bound = types[name]
        if goal is None or bound == goal:
            return None
        return f"variable {name} has type {bound}, goal wants {goal}"
    if isinstance(term, UnitTerm):
        if goal is None or isinstance(goal, UnitType):
            return None
        return f"unit term against non-unit goal {goal}"
    error = left = right = None
    if isinstance(goal, ProdType):
        left, right = goal
    elif goal is not None:
        error = f"pair term against non-product goal {goal}"
    error = _walk(term.left, left, types, counts) or error
    return _walk(term.right, None if error else right, types, counts) or error


def check_derivable(
    ctx: ResourceContext, term: TupleTerm, goal: TypeExpr
) -> DerivabilityResult:
    """Decide the judgment and emit its usage certificate.

    Derivable iff the term matches the goal type's shape and every
    variable's occurrence count satisfies its annotation. There is no
    undetermined outcome. One walk of the term counts the occurrences and
    checks the shape, reading each binding's type from one table.
    """
    types = {b.var: b.type for b in ctx.bindings}
    counts = dict.fromkeys(types, 0)
    type_error = _walk(term, goal, types, counts)
    verdicts = {
        b.var: b.annotation.permits(counts[b.var]) for b in ctx.bindings
    }
    cert = UsageCertificate(
        tuple(sorted(counts.items())),
        tuple(sorted(verdicts.items())),
        type_error,
    )
    return DerivabilityResult(cert.all_satisfied, cert)


def apply_substitution(term: TupleTerm, sub: Substitution) -> TupleTerm:
    """Leaf-wise variable renaming; the tree shape is preserved."""
    images = dict(sub.mapping)

    def rename(term: TupleTerm) -> TupleTerm:
        if isinstance(term, Var):
            if term.name not in images:
                raise KernelError(f"substitution does not map variable {term.name}")
            return Var(images[term.name])
        if isinstance(term, UnitTerm):
            return term
        return Pair(rename(term.left), rename(term.right))

    return rename(term)


def check_substitution(
    gamma: ResourceContext, delta: ResourceContext, sub: Substitution
) -> None:
    """Raise unless the substitution is total on gamma, lands in delta, and
    matches types. Annotations are not compared."""
    mapped = dict(sub.mapping)
    targets = {b.var: b for b in delta.bindings}
    for b in gamma.bindings:
        if b.var not in mapped:
            raise KernelError(f"substitution misses variable {b.var}")
        image = targets.get(mapped[b.var])
        if image is None:
            raise KernelError(
                f"substitution image {mapped[b.var]} is not bound in the target context"
            )
        if image.type != b.type:
            raise KernelError(
                f"substitution maps {b.var}: {b.type} to {image.var}: {image.type}"
            )
    known = {b.var for b in gamma.bindings}
    for src in mapped:
        if src not in known:
            raise KernelError(f"substitution maps unknown variable {src}")


def detect_derivability_horn(
    gamma: ResourceContext,
    delta: ResourceContext,
    sub: Substitution,
    term: TupleTerm,
    goal: TypeExpr,
) -> Optional[DerivabilityHorn]:
    """The derivability-horn inhabitant when the judgment is derivable in
    ``gamma`` and its substituted image is underivable in ``delta``; None
    otherwise."""
    check_substitution(gamma, delta, sub)
    source = check_derivable(gamma, term, goal)
    if not source.derivable:
        return None
    target = check_derivable(delta, apply_substitution(term, sub), goal)
    if target.derivable:
        return None
    return DerivabilityHorn(source.certificate, sub, target.certificate)
