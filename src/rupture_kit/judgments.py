"""A persistent witness store for polarity-tagged judgments.

Judgments are base atoms (opaque labels) or arrow atoms (an ordered pair,
read "the first composes to the second"). Every entry records a judgment,
a polarity (coherent or gapped), a store-unique witness id, and optional
payload. The store enforces one law: the same judgment can never carry
both polarities. Multiple witnesses of the same polarity are allowed;
witnesses are data, not mere flags.

A horn triple is two coherent arrow witnesses that chain, (J, K) then
(K, L), together with a gapped witness for the direct arrow (J, L).

Stores are values: adding an entry returns a new store and leaves the old
one as it was. The stores of one lineage share an append-only log, with
one table per polarity from each judgment to its first position, and one
from each witness id to its first position; a store is a prefix of that
log. Adding to the store at the log's tip appends in place, O(1); adding
to any other store forks a new log from a copy of its entries, O(n). The
Exclusion check and ``by_id`` are one dict probe each, ``is_open`` two
(Driscoll, Sarnak, Sleator & Tarjan, *Making data structures persistent*,
1989). An Exclusion rejection formats its text only when it is read.

``level_up`` starts a fresh store one level higher whose base-atom
universe is the coherence witness ids of the current store, so the same
calculus can be replayed over its own witnesses.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Optional, Union

from .errors import ExclusionError, KernelError, record


class Polarity(Enum):
    COHERENT = "coherent"
    GAPPED = "gapped"


@record
class BaseJudgment:
    label: str

    def __new__(cls, label: str) -> "BaseJudgment":
        if not label:
            raise KernelError("judgment label must be non-empty")
        return tuple.__new__(cls, (label,))

    def __str__(self) -> str:
        return self.label


@record
class ArrowJudgment:
    source: str
    target: str

    def __new__(cls, source: str, target: str) -> "ArrowJudgment":
        if not source or not target:
            raise KernelError("arrow labels must be non-empty")
        return tuple.__new__(cls, (source, target))

    def __str__(self) -> str:
        return f"{self.source} => {self.target}"


JudgmentAtom = Union[BaseJudgment, ArrowJudgment]


@record
class WitnessEntry:
    judgment: JudgmentAtom
    polarity: Polarity
    witness_id: str
    payload: object = None


@record
class HornTriple:
    first: str
    second: str
    gap: str


@record
class ScriptCommand:
    """One row of a judgment-script document: ``add``, ``is_open``,
    ``horn`` or ``level_up``, with the fields that op reads."""

    op: str
    judgment: Optional[JudgmentAtom] = None
    polarity: Optional[Polarity] = None
    payload: object = None
    first: Optional[str] = None
    second: Optional[str] = None
    gap: Optional[str] = None


class ExclusionViolation(ExclusionError):
    """Adding the opposite polarity for an already-witnessed judgment."""

    def __init__(self, judgment: JudgmentAtom, conflicting: WitnessEntry):
        # args is (judgment, conflicting); conflicts is built when read.
        KernelError.__init__(self, judgment, conflicting)
        self.judgment = judgment
        self.conflicting = conflicting

    @property
    def conflicts(self) -> tuple[tuple[JudgmentAtom, WitnessEntry]]:
        return ((self.judgment, self.conflicting),)

    def __str__(self) -> str:
        # Formatted on demand: most rejections are counted, not printed.
        return (
            f"judgment '{self.judgment}' already witnessed "
            f"{self.conflicting.polarity.value} by {self.conflicting.witness_id}"
        )


class _Log:
    """The append-only entry list shared by every store of one lineage,
    with one table per polarity from each judgment to its first position
    (``coherent``, ``gapped``) and one from each witness id (``ids``)."""

    def __init__(self, entries=()):
        self.entries: list[WitnessEntry] = list(entries)
        self.coherent: dict[JudgmentAtom, int] = {}
        self.gapped: dict[JudgmentAtom, int] = {}
        self.ids: dict[str, int] = {}
        for i, e in enumerate(self.entries):
            table = self.coherent if e.polarity is Polarity.COHERENT else self.gapped
            table.setdefault(e.judgment, i)
            self.ids.setdefault(e.witness_id, i)


class WitnessStore:
    """An append-only collection of witness entries at one level.

    ``universe`` restricts the admissible atom labels (None means
    unrestricted, the level-0 case). Witness ids count the entries: w1,
    w2, ... at every level. A store is a prefix of a shared log: the first
    ``len(entries)`` log entries are its own, and a lookup there is one
    dict probe.
    """

    def __init__(
        self,
        entries: tuple[WitnessEntry, ...] = (),
        level: int = 0,
        universe: Optional[frozenset[str]] = None,
    ):
        self._log = _Log(entries)
        self._size = len(self._log.entries)
        self.level = level
        self.universe = universe

    @cached_property
    def entries(self) -> tuple[WitnessEntry, ...]:
        return tuple(self._log.entries[: self._size])

    def __eq__(self, other) -> bool:
        if not isinstance(other, WitnessStore):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "WitnessStore(entries={!r}, level={!r}, universe={!r})".format(*self._key())

    def _key(self) -> tuple:
        return self.entries, self.level, self.universe

    def _at(self, position: Optional[int]) -> Optional[WitnessEntry]:
        if position is None or position >= self._size:
            return None
        return self._log.entries[position]

    def last(self) -> Optional[WitnessEntry]:
        """The newest entry, None when empty; O(1), unlike ``entries[-1]``,
        which copies the store's entries."""
        return self._at(self._size - 1) if self._size else None

    def by_id(self, witness_id: str) -> Optional[WitnessEntry]:
        return self._at(self._log.ids.get(witness_id))

    def coherent_ids(self) -> tuple[str, ...]:
        return tuple(
            e.witness_id for e in self.entries if e.polarity is Polarity.COHERENT
        )

    def _check_universe(self, judgment: JudgmentAtom) -> None:
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
    fine. A store at the tip of its log appends in place; any other store
    first copies its own entries into a new log.
    """
    if store.universe is not None:
        store._check_universe(judgment)
    log, size = store._log, store._size
    coherent = polarity is Polarity.COHERENT
    # A position at or past ``size`` belongs to a later store of the log.
    position = (log.gapped if coherent else log.coherent).get(judgment, size)
    if position < size:
        raise ExclusionViolation(judgment, log.entries[position])
    if len(log.entries) != size:
        log = _Log(log.entries[:size])
    witness_id = f"w{size + 1}"
    (log.coherent if coherent else log.gapped).setdefault(judgment, size)
    log.ids.setdefault(witness_id, size)
    # WitnessEntry checks nothing, so its named-tuple __new__ is skipped.
    log.entries.append(tuple.__new__(WitnessEntry, (judgment, polarity, witness_id, payload)))
    # The new store is the log's first size + 1 entries: set, not recounted.
    tip = object.__new__(WitnessStore)
    tip._log = log
    tip._size = size + 1
    tip.level = store.level
    tip.universe = store.universe
    return tip


def is_open(store: WitnessStore, judgment: JudgmentAtom) -> bool:
    """True iff no entry of either polarity exists for the judgment."""
    log, size = store._log, store._size
    return log.coherent.get(judgment, size) >= size and log.gapped.get(judgment, size) >= size


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
