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

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Union

from .errors import KernelError


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


@dataclass(frozen=True)
class AtomType:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class UnitType:
    def __str__(self) -> str:
        return "Unit"


@dataclass(frozen=True)
class ProdType:
    left: "TypeExpr"
    right: "TypeExpr"

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


TypeExpr = Union[AtomType, UnitType, ProdType]


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class UnitTerm:
    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True)
class Pair:
    left: "TupleTerm"
    right: "TupleTerm"

    def __str__(self) -> str:
        return f"({self.left}, {self.right})"


TupleTerm = Union[Var, UnitTerm, Pair]


@dataclass(frozen=True)
class Binding:
    var: str
    type: TypeExpr
    annotation: Annotation


@dataclass(frozen=True)
class ResourceContext:
    """An ordered list of annotated bindings with distinct variable names."""

    bindings: tuple[Binding, ...]

    @classmethod
    def of(cls, *bindings: tuple[str, TypeExpr, Annotation]) -> "ResourceContext":
        return cls(tuple(Binding(v, t, a) for v, t, a in bindings))

    def __post_init__(self):
        names = [b.var for b in self.bindings]
        if len(set(names)) != len(names):
            raise KernelError("context variable names must be distinct")

    def lookup(self, name: str) -> Optional[Binding]:
        for b in self.bindings:
            if b.var == name:
                return b
        return None


@dataclass(frozen=True)
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

    def violations(self) -> list[str]:
        out = [f"{var}: usage violates annotation" for var, ok in self.verdicts if not ok]
        if self.type_error:
            out.append(self.type_error)
        return out


@dataclass(frozen=True)
class DerivabilityResult:
    derivable: bool
    certificate: UsageCertificate


@dataclass(frozen=True)
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

    def image(self, name: str) -> Optional[str]:
        for src, dst in self.mapping:
            if src == name:
                return dst
        return None


@dataclass(frozen=True)
class DerivabilityHorn:
    """Derivable here, witnessed underivable after substitution."""

    source_certificate: UsageCertificate
    substitution: Substitution
    target_certificate: UsageCertificate


@dataclass(frozen=True)
class DeriveTask:
    """A term and goal judged in ``gamma`` and, renamed by ``sigma``, in
    ``delta``: the body of a derive-task document."""

    gamma: ResourceContext
    delta: ResourceContext
    sigma: Substitution
    term: TupleTerm
    goal: TypeExpr


# -- operations ----------------------------------------------------------------


def term_variables(term: TupleTerm) -> list[str]:
    """Every variable occurrence, left to right (with repetitions)."""
    if isinstance(term, Var):
        return [term.name]
    if isinstance(term, UnitTerm):
        return []
    return term_variables(term.left) + term_variables(term.right)


def _shape_error(
    ctx: ResourceContext, term: TupleTerm, goal: TypeExpr
) -> Optional[str]:
    if isinstance(term, Var):
        bound = ctx.lookup(term.name).type
        if bound != goal:
            return f"variable {term.name} has type {bound}, goal wants {goal}"
        return None
    if isinstance(term, UnitTerm):
        if not isinstance(goal, UnitType):
            return f"unit term against non-unit goal {goal}"
        return None
    if not isinstance(goal, ProdType):
        return f"pair term against non-product goal {goal}"
    return _shape_error(ctx, term.left, goal.left) or _shape_error(
        ctx, term.right, goal.right
    )


def check_derivable(
    ctx: ResourceContext, term: TupleTerm, goal: TypeExpr
) -> DerivabilityResult:
    """Decide the judgment and emit its usage certificate.

    Derivable iff the term matches the goal type's shape and every
    variable's occurrence count satisfies its annotation. There is no
    undetermined outcome.
    """
    occurrences = term_variables(term)
    for name in occurrences:
        if ctx.lookup(name) is None:
            raise KernelError(f"unbound variable {name}")
    counts = {b.var: 0 for b in ctx.bindings}
    for name in occurrences:
        counts[name] += 1
    verdicts = {
        b.var: b.annotation.permits(counts[b.var]) for b in ctx.bindings
    }
    type_error = _shape_error(ctx, term, goal)
    cert = UsageCertificate(
        tuple(sorted(counts.items())),
        tuple(sorted(verdicts.items())),
        type_error,
    )
    return DerivabilityResult(cert.all_satisfied, cert)


def apply_substitution(term: TupleTerm, sub: Substitution) -> TupleTerm:
    """Leaf-wise variable renaming; the tree shape is preserved."""
    if isinstance(term, Var):
        image = sub.image(term.name)
        if image is None:
            raise KernelError(f"substitution does not map variable {term.name}")
        return Var(image)
    if isinstance(term, UnitTerm):
        return term
    return Pair(
        apply_substitution(term.left, sub), apply_substitution(term.right, sub)
    )


def check_substitution(
    gamma: ResourceContext, delta: ResourceContext, sub: Substitution
) -> None:
    """Raise unless the substitution is total on gamma, lands in delta, and
    matches types. Annotations are not compared."""
    mapped = dict(sub.mapping)
    for b in gamma.bindings:
        if b.var not in mapped:
            raise KernelError(f"substitution misses variable {b.var}")
        image = delta.lookup(mapped[b.var])
        if image is None:
            raise KernelError(
                f"substitution image {mapped[b.var]} is not bound in the target context"
            )
        if image.type != b.type:
            raise KernelError(
                f"substitution maps {b.var}: {b.type} to {image.var}: {image.type}"
            )
    for src in mapped:
        if gamma.lookup(src) is None:
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
