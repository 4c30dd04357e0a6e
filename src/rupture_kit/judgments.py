"""A persistent witness store for polarity-tagged judgments.

Judgments are base atoms (opaque labels) or arrow atoms (an ordered pair,
read "the first composes to the second"). Every entry records a judgment,
a polarity (coherent or gapped), a store-unique witness id, and optional
payload. The store enforces one law: the same judgment can never carry
both polarities. Multiple witnesses of the same polarity are allowed;
witnesses are data, not mere flags.

A horn triple is two coherent arrow witnesses that chain, (J, K) then
(K, L), together with a gapped witness for the direct arrow (J, L).

Stores are values: adding an entry returns a new store. ``level_up``
starts a fresh store one level higher whose base-atom universe is the
coherence witness ids of the current store, so the same calculus can be
replayed over its own witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .errors import KernelError


class Polarity(Enum):
    COHERENT = "coherent"
    GAPPED = "gapped"


@dataclass(frozen=True)
class BaseJudgment:
    label: str

    def __post_init__(self):
        if not self.label:
            raise KernelError("judgment label must be non-empty")

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class ArrowJudgment:
    source: str
    target: str

    def __post_init__(self):
        if not self.source or not self.target:
            raise KernelError("arrow labels must be non-empty")

    def __str__(self) -> str:
        return f"{self.source} => {self.target}"


JudgmentAtom = Union[BaseJudgment, ArrowJudgment]


@dataclass(frozen=True)
class WitnessEntry:
    judgment: JudgmentAtom
    polarity: Polarity
    witness_id: str
    payload: object = None


@dataclass(frozen=True)
class HornTriple:
    first: str
    second: str
    gap: str


class ExclusionViolation(KernelError):
    """Adding the opposite polarity for an already-witnessed judgment."""

    def __init__(self, judgment: JudgmentAtom, conflicting: WitnessEntry):
        super().__init__(
            f"judgment '{judgment}' already witnessed {conflicting.polarity.value} "
            f"by {conflicting.witness_id}"
        )
        self.judgment = judgment
        self.conflicting = conflicting


@dataclass(frozen=True)
class WitnessStore:
    """An append-only collection of witness entries at one level.

    ``universe`` restricts the admissible atom labels (None means
    unrestricted, the level-0 case). Witness ids count the entries: w1,
    w2, ... at every level.
    """

    entries: tuple[WitnessEntry, ...] = ()
    level: int = 0
    universe: Optional[frozenset[str]] = None

    def entries_for(self, judgment: JudgmentAtom) -> tuple[WitnessEntry, ...]:
        return tuple(e for e in self.entries if e.judgment == judgment)

    def by_id(self, witness_id: str) -> Optional[WitnessEntry]:
        for e in self.entries:
            if e.witness_id == witness_id:
                return e
        return None

    def coherent_ids(self) -> tuple[str, ...]:
        return tuple(
            e.witness_id for e in self.entries if e.polarity is Polarity.COHERENT
        )

    def _check_universe(self, judgment: JudgmentAtom) -> None:
        if self.universe is None:
            return
        labels = (
            (judgment.label,)
            if isinstance(judgment, BaseJudgment)
            else (judgment.source, judgment.target)
        )
        for label in labels:
            if label not in self.universe:
                raise KernelError(
                    f"label '{label}' is outside this level-{self.level} universe"
                )


def add_witness(
    store: WitnessStore,
    judgment: JudgmentAtom,
    polarity: Polarity,
    payload: object = None,
) -> WitnessStore:
    """Append an entry with a fresh witness id.

    Raises :class:`ExclusionViolation`, naming the conflicting entry, when
    the judgment already carries the opposite polarity; the store is
    unchanged in that case. Repeated witnesses of the same polarity are
    fine.
    """
    store._check_universe(judgment)
    for e in store.entries:
        if e.judgment == judgment and e.polarity is not polarity:
            raise ExclusionViolation(judgment, e)
    entry = WitnessEntry(judgment, polarity, f"w{len(store.entries) + 1}", payload)
    return WitnessStore(store.entries + (entry,), store.level, store.universe)


def is_open(store: WitnessStore, judgment: JudgmentAtom) -> bool:
    """True iff no entry of either polarity exists for the judgment."""
    return not store.entries_for(judgment)


def make_horn(
    store: WitnessStore, first_id: str, second_id: str, gap_id: str
) -> HornTriple:
    """Validate and return the horn triple (coherent first step, coherent
    second step, gapped closure). The store is not modified.

    Failures are reported distinctly: a missing id, a wrong polarity, or
    arrows that do not chain as (J,K), (K,L), (J,L).
    """
    ids = {"first": first_id, "second": second_id, "gap": gap_id}
    found = {}
    for role, wid in ids.items():
        entry = store.by_id(wid)
        if entry is None:
            raise KernelError(f"missing witness id '{wid}' for {role}")
        found[role] = entry
    for role, wanted in (
        ("first", Polarity.COHERENT),
        ("second", Polarity.COHERENT),
        ("gap", Polarity.GAPPED),
    ):
        if found[role].polarity is not wanted:
            raise KernelError(
                f"{role} witness {ids[role]} must be {wanted.value}, "
                f"is {found[role].polarity.value}"
            )
    for role in ids:
        if not isinstance(found[role].judgment, ArrowJudgment):
            raise KernelError(f"{role} witness {ids[role]} is not an arrow judgment")
    a, b, c = (found["first"].judgment, found["second"].judgment, found["gap"].judgment)
    if a.target != b.source:
        raise KernelError(
            f"arrows do not chain: first targets '{a.target}', second starts at '{b.source}'"
        )
    if c.source != a.source or c.target != b.target:
        raise KernelError(
            f"gap arrow must close ({a.source} => {b.target}), is ({c.source} => {c.target})"
        )
    return HornTriple(first_id, second_id, gap_id)


def level_up(store: WitnessStore) -> WitnessStore:
    """A fresh empty store one level higher whose base atoms are the
    coherence witness ids of this store. Gap witnesses are not lifted."""
    return WitnessStore((), store.level + 1, frozenset(store.coherent_ids()))


def is_coherent_fragment(store: WitnessStore) -> bool:
    """True iff every entry is coherent (vacuously true when empty)."""
    return all(e.polarity is Polarity.COHERENT for e in store.entries)
