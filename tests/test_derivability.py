"""Resource-annotated derivability, certificates, substitution, and the
derivability horn."""

import random

import pytest

from rupture_kit.errors import KernelError
from rupture_kit.derivability import (
    Annotation,
    AtomType,
    DerivabilityResult,
    Pair,
    ProdType,
    ResourceContext,
    Substitution,
    UnitTerm,
    UnitType,
    UsageCertificate,
    Var,
    apply_substitution,
    check_derivable,
    check_substitution,
    detect_derivability_horn,
)

A = AtomType("A")
B = AtomType("B")


def ctx(*bindings):
    return ResourceContext.of(*bindings)


class TestCheckDerivable:
    def test_linear_duplication_underivable(self):
        result = check_derivable(
            ctx(("x", A, Annotation.LINEAR)), Pair(Var("x"), Var("x")), ProdType(A, A)
        )
        assert not result.derivable
        assert result.certificate.count("x") == 2
        assert result.certificate.verdict("x") is False

    def test_exponential_duplication_derivable(self):
        result = check_derivable(
            ctx(("y", A, Annotation.EXPONENTIAL)),
            Pair(Var("y"), Var("y")),
            ProdType(A, A),
        )
        assert result.derivable
        assert result.certificate.count("y") == 2

    def test_relevant_unused_underivable(self):
        result = check_derivable(
            ctx(("x", A, Annotation.RELEVANT)), UnitTerm(), UnitType()
        )
        assert not result.derivable
        assert result.certificate.count("x") == 0
        assert result.certificate.verdict("x") is False

    def test_affine_rules(self):
        zero = check_derivable(ctx(("x", A, Annotation.AFFINE)), UnitTerm(), UnitType())
        assert zero.derivable
        two = check_derivable(
            ctx(("x", A, Annotation.AFFINE)), Pair(Var("x"), Var("x")), ProdType(A, A)
        )
        assert not two.derivable

    def test_type_mismatch_underivable(self):
        result = check_derivable(
            ctx(("x", A, Annotation.EXPONENTIAL)), Var("x"), B
        )
        assert not result.derivable
        assert result.certificate.type_error is not None

    def test_unbound_variable_rejected(self):
        with pytest.raises(KernelError):
            check_derivable(ctx(), Var("ghost"), A)

    def test_never_open_and_recomputable(self):
        # seeded random (context, term) pairs always come back decided,
        # with counts matching an independent recount
        rng = random.Random(97)
        names = ["a", "b", "c", "d"]
        types = [A, B, UnitType()]

        def random_term(depth, bound):
            if depth == 0 or rng.random() < 0.35:
                if bound and rng.random() < 0.8:
                    return Var(rng.choice(bound))
                return UnitTerm()
            return Pair(random_term(depth - 1, bound), random_term(depth - 1, bound))

        def natural_type(term, context):
            if isinstance(term, Var):
                return context.lookup(term.name).type
            if isinstance(term, UnitTerm):
                return UnitType()
            return ProdType(
                natural_type(term.left, context), natural_type(term.right, context)
            )

        def recount(term, acc):
            if isinstance(term, Var):
                acc[term.name] = acc.get(term.name, 0) + 1
            elif isinstance(term, Pair):
                recount(term.left, acc)
                recount(term.right, acc)
            return acc

        for _ in range(300):
            k = rng.randint(0, 4)
            bindings = tuple(
                (names[i], rng.choice(types), rng.choice(list(Annotation)))
                for i in range(k)
            )
            context = ctx(*bindings)
            term = random_term(3, [b[0] for b in bindings])
            goal = (
                natural_type(term, context)
                if rng.random() < 0.7
                else rng.choice(types)
            )
            result = check_derivable(context, term, goal)
            assert isinstance(result.derivable, bool)
            independent = recount(term, {n: 0 for n, _, _ in bindings})
            assert dict(result.certificate.counts) == independent


class TestSubstitution:
    def test_rename_pair(self):
        renamed = apply_substitution(
            Pair(Var("x"), Var("x")), Substitution.of({"x": "y"})
        )
        assert renamed == Pair(Var("y"), Var("y"))

    def test_unit_unchanged(self):
        assert apply_substitution(UnitTerm(), Substitution.of({})) == UnitTerm()

    def test_shape_preserved(self):
        term = Pair(Pair(Var("x"), Var("z")), Var("x"))
        renamed = apply_substitution(term, Substitution.of({"x": "a", "z": "b"}))
        assert renamed == Pair(Pair(Var("a"), Var("b")), Var("a"))

    def test_unmapped_variable_rejected(self):
        with pytest.raises(KernelError):
            apply_substitution(Var("x"), Substitution.of({}))


class TestDerivabilityHorn:
    def test_exponential_to_linear_inhabited(self):
        gamma = ctx(("x", A, Annotation.EXPONENTIAL))
        delta = ctx(("y", A, Annotation.LINEAR))
        horn = detect_derivability_horn(
            gamma, delta, Substitution.of({"x": "y"}),
            Pair(Var("x"), Var("x")), ProdType(A, A),
        )
        assert horn is not None
        assert horn.target_certificate.count("y") == 2
        assert horn.target_certificate.verdict("y") is False
        assert horn.source_certificate.verdict("x") is True

    def test_identity_substitution_no_horn(self):
        gamma = ctx(("x", A, Annotation.EXPONENTIAL))
        horn = detect_derivability_horn(
            gamma, gamma, Substitution.of({"x": "x"}),
            Pair(Var("x"), Var("x")), ProdType(A, A),
        )
        assert horn is None

    def test_underivable_source_no_horn(self):
        gamma = ctx(("x", A, Annotation.LINEAR))
        delta = ctx(("y", A, Annotation.LINEAR))
        horn = detect_derivability_horn(
            gamma, delta, Substitution.of({"x": "y"}),
            Pair(Var("x"), Var("x")), ProdType(A, A),
        )
        assert horn is None

    def test_type_mismatched_substitution_rejected(self):
        gamma = ctx(("x", A, Annotation.EXPONENTIAL))
        delta = ctx(("y", B, Annotation.LINEAR))
        with pytest.raises(KernelError):
            detect_derivability_horn(
                gamma, delta, Substitution.of({"x": "y"}),
                Pair(Var("x"), Var("x")), ProdType(A, A),
            )

    def test_partial_substitution_rejected(self):
        gamma = ctx(("x", A, Annotation.EXPONENTIAL), ("z", A, Annotation.AFFINE))
        delta = ctx(("y", A, Annotation.LINEAR))
        with pytest.raises(KernelError):
            detect_derivability_horn(
                gamma, delta, Substitution.of({"x": "y"}),
                Pair(Var("x"), Var("x")), ProdType(A, A),
            )

    def test_horn_target_always_has_violation(self):
        # Exclusion at this instance: an inhabitant's target certificate
        # never has all verdicts satisfied
        rng = random.Random(7)
        annotations = list(Annotation)
        inhabited = 0
        for _ in range(200):
            g_ann = rng.choice(annotations)
            d_ann = rng.choice(annotations)
            gamma = ctx(("x", A, g_ann))
            delta = ctx(("y", A, d_ann))
            uses = rng.randint(0, 2)
            if uses == 0:
                term, goal = UnitTerm(), UnitType()
            elif uses == 1:
                term, goal = Var("x"), A
            else:
                term, goal = Pair(Var("x"), Var("x")), ProdType(A, A)
            horn = detect_derivability_horn(
                gamma, delta, Substitution.of({"x": "y"}), term, goal
            )
            if horn is not None:
                inhabited += 1
                assert not horn.target_certificate.all_satisfied
                assert horn.source_certificate.all_satisfied
        assert inhabited > 0


class TestStructuralWitnesses:
    def test_weakening_failure_with_relevant_variable(self):
        base = ctx(("x", A, Annotation.EXPONENTIAL))
        term, goal = Pair(Var("x"), Var("x")), ProdType(A, A)
        assert check_derivable(base, term, goal).derivable
        extended = ctx(
            ("x", A, Annotation.EXPONENTIAL), ("r", B, Annotation.RELEVANT)
        )
        result = check_derivable(extended, term, goal)
        assert not result.derivable
        assert result.certificate.count("r") == 0

    def test_contraction_failure_merging_copies(self):
        two_copies = ctx(
            ("y", A, Annotation.EXPONENTIAL), ("z", A, Annotation.EXPONENTIAL)
        )
        term, goal = Pair(Var("y"), Var("z")), ProdType(A, A)
        assert check_derivable(two_copies, term, goal).derivable
        merged = ctx(("w", A, Annotation.LINEAR))
        sub = Substitution.of({"y": "w", "z": "w"})
        horn = detect_derivability_horn(two_copies, merged, sub, term, goal)
        assert horn is not None
        assert horn.target_certificate.count("w") == 2

    def test_the_first_unbound_variable_is_named(self):
        term = Pair(Pair(Var("x"), Var("z")), Var("w"))
        with pytest.raises(KernelError, match="^unbound variable z$"):
            check_derivable(ctx(("x", A, Annotation.LINEAR)), term, ProdType(ProdType(A, A), A))


# -- the two-walk decision, kept as the reference for the one-walk one ---------


def reference_variables(term):
    if isinstance(term, Var):
        return [term.name]
    if isinstance(term, UnitTerm):
        return []
    return reference_variables(term.left) + reference_variables(term.right)


def reference_shape_error(context, term, goal):
    if isinstance(term, Var):
        bound = context.lookup(term.name).type
        if bound != goal:
            return f"variable {term.name} has type {bound}, goal wants {goal}"
        return None
    if isinstance(term, UnitTerm):
        if not isinstance(goal, UnitType):
            return f"unit term against non-unit goal {goal}"
        return None
    if not isinstance(goal, ProdType):
        return f"pair term against non-product goal {goal}"
    return reference_shape_error(context, term.left, goal.left) or reference_shape_error(
        context, term.right, goal.right
    )


def reference_check_derivable(context, term, goal):
    occurrences = reference_variables(term)
    for name in occurrences:
        if context.lookup(name) is None:
            raise KernelError(f"unbound variable {name}")
    counts = {b.var: 0 for b in context.bindings}
    for name in occurrences:
        counts[name] += 1
    verdicts = {b.var: b.annotation.permits(counts[b.var]) for b in context.bindings}
    cert = UsageCertificate(
        tuple(sorted(counts.items())),
        tuple(sorted(verdicts.items())),
        reference_shape_error(context, term, goal),
    )
    return DerivabilityResult(cert.all_satisfied, cert)


def reference_apply_substitution(term, sub):
    if isinstance(term, Var):
        image = next((dst for src, dst in sub.mapping if src == term.name), None)
        if image is None:
            raise KernelError(f"substitution does not map variable {term.name}")
        return Var(image)
    if isinstance(term, UnitTerm):
        return term
    return Pair(
        reference_apply_substitution(term.left, sub), reference_apply_substitution(term.right, sub)
    )


def reference_check_substitution(gamma, delta, sub):
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


def outcome(call, *args):
    """The value of ``call(*args)``, or the text of the KernelError it raises."""
    try:
        return "value", call(*args)
    except KernelError as exc:
        return "error", str(exc)


class TestOneWalk:
    """The one-walk decision gives the two-walk reference's certificates and
    error texts on seeded (context, term, goal) triples with unbound
    variables, goal mismatches at every depth, and substitutions that miss,
    mistype, leave the target context or add a variable."""

    TYPES = [A, B, UnitType(), ProdType(A, B), ProdType(UnitType(), ProdType(B, A))]
    NAMES = ["a", "b", "c", "d", "e"]

    def natural_type(self, context, term):
        if isinstance(term, Var):
            found = context.lookup(term.name)
            return A if found is None else found.type
        if isinstance(term, UnitTerm):
            return UnitType()
        return ProdType(self.natural_type(context, term.left),
                        self.natural_type(context, term.right))

    def perturbed(self, rng, goal, depth):
        """``goal`` with the subtree ``depth`` steps down one random branch
        replaced by a random type (the whole goal when the branch ends)."""
        if depth == 0 or not isinstance(goal, ProdType):
            return rng.choice(self.TYPES)
        if rng.random() < 0.5:
            return ProdType(self.perturbed(rng, goal.left, depth - 1), goal.right)
        return ProdType(goal.left, self.perturbed(rng, goal.right, depth - 1))

    def triple(self, rng):
        bound = rng.sample(self.NAMES, rng.randint(1, 4))
        gamma = ctx(*((n, rng.choice(self.TYPES), rng.choice(list(Annotation))) for n in bound))

        def term(depth):
            roll = rng.random()
            if depth == 0 or roll < 0.3:
                return Var(rng.choice(bound if rng.random() < 0.95 else self.NAMES))
            if roll < 0.4:
                return UnitTerm()
            return Pair(term(depth - 1), term(depth - 1))

        t = term(rng.randint(0, 4))
        goal, depth = self.natural_type(gamma, t), None
        if rng.random() < 0.6:
            depth = rng.randint(0, 4)
            goal = self.perturbed(rng, goal, depth)
        images = {b.var: f"{b.var}'" for b in gamma.bindings}
        targets = [(images[b.var], b.type, rng.choice(list(Annotation))) for b in gamma.bindings]
        edit = rng.choice(["none", "none", "miss", "mistype", "unbound image", "add"])
        victim = rng.choice(gamma.bindings).var
        if edit == "miss":
            del images[victim]
        elif edit == "mistype":
            targets = [(n, rng.choice(self.TYPES), a) for n, _, a in targets]
        elif edit == "unbound image":
            images[victim] = "ghost"
        elif edit == "add":
            images[rng.choice([n for n in self.NAMES + ["f"] if n not in images])] = victim + "'"
        return (gamma, ctx(*targets), Substitution.of(images), t, goal), depth

    # Each message template, ahead of any template it starts with.
    TEMPLATES = (
        "unbound variable", "substitution misses variable", "substitution image",
        "substitution maps unknown variable", "substitution does not map variable",
        "substitution maps", "variable", "unit term", "pair term",
    )

    def test_matches_the_two_walk_reference(self):
        rng = random.Random(31)
        texts, mismatch_depths = set(), set()
        for _ in range(2500):
            (gamma, delta, sub, term, goal), depth = self.triple(rng)
            pairs = [
                (check_derivable, reference_check_derivable, (gamma, term, goal)),
                (apply_substitution, reference_apply_substitution, (term, sub)),
                (check_substitution, reference_check_substitution, (gamma, delta, sub)),
            ]
            kind, renamed = outcome(reference_apply_substitution, term, sub)
            if kind == "value":
                pairs.append((check_derivable, reference_check_derivable, (delta, renamed, goal)))
            for call, reference, args in pairs:
                got = outcome(call, *args)
                assert got == outcome(reference, *args)
                kind, value = got
                if kind == "error":
                    text = value
                elif isinstance(value, DerivabilityResult):
                    text = value.certificate.type_error
                else:
                    text = None
                if text:
                    texts.add(next(t for t in self.TEMPLATES if text.startswith(t)))
            kind, value = outcome(check_derivable, gamma, term, goal)
            if kind == "value" and value.certificate.type_error and depth is not None:
                mismatch_depths.add(depth)
        assert texts == set(self.TEMPLATES)
        assert mismatch_depths == set(range(5))
