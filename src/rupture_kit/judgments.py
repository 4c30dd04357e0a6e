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
the first position of each (judgment, polarity) and of each witness id;
a store is a prefix of that log. Adding to the store at the log's tip
appends in place, O(1); adding to any other store forks a new log from a
copy of its entries, O(n). The Exclusion check, ``is_open`` and ``by_id``
are one dict probe each (Driscoll, Sarnak, Sleator & Tarjan, *Making data
structures persistent*, 1989).

``level_up`` starts a fresh store one level higher whose base-atom
universe is the coherence witness ids of the current store, so the same
calculus can be replayed over its own witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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


@dataclass(frozen=True)
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


class ExclusionViolation(KernelError):
    """Adding the opposite polarity for an already-witnessed judgment."""

    def __init__(self, judgment: JudgmentAtom, conflicting: WitnessEntry):
        super().__init__(
            f"judgment '{judgment}' already witnessed {conflicting.polarity.value} "
            f"by {conflicting.witness_id}"
        )
        self.judgment = judgment
        self.conflicting = conflicting


class _Log:
    """The append-only entry list shared by every store of one lineage,
    with the first position of each (judgment, polarity) and of each
    witness id."""

    def __init__(self, entries=()):
        self.entries: list[WitnessEntry] = []
        self.first: dict[tuple[JudgmentAtom, Polarity], int] = {}
        self.ids: dict[str, int] = {}
        for e in entries:
            self.append(e)

    def append(self, e: WitnessEntry) -> None:
        self.first.setdefault((e.judgment, e.polarity), len(self.entries))
        self.ids.setdefault(e.witness_id, len(self.entries))
        self.entries.append(e)


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
        _log: Optional[_Log] = None,
    ):
        self._log = _Log(entries) if _log is None else _log
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

    def _first(self, judgment: JudgmentAtom, polarity: Polarity) -> Optional[WitnessEntry]:
        """The earliest entry of this judgment with this polarity."""
        return self._at(self._log.first.get((judgment, polarity)))

    def last(self) -> Optional[WitnessEntry]:
        """The newest entry, None when empty; O(1), unlike ``entries[-1]``,
        which copies the store's entries."""
        return self._at(self._size - 1) if self._size else None

    def entries_for(self, judgment: JudgmentAtom) -> tuple[WitnessEntry, ...]:
        return tuple(e for e in self.entries if e.judgment == judgment)

    def by_id(self, witness_id: str) -> Optional[WitnessEntry]:
        return self._at(self._log.ids.get(witness_id))

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
    fine. A store at the tip of its log appends in place; any other store
    first copies its own entries into a new log.
    """
    store._check_universe(judgment)
    other = Polarity.GAPPED if polarity is Polarity.COHERENT else Polarity.COHERENT
    conflict = store._first(judgment, other)
    if conflict is not None:
        raise ExclusionViolation(judgment, conflict)
    log = store._log
    if len(log.entries) != store._size:
        log = _Log(log.entries[: store._size])
    log.append(WitnessEntry(judgment, polarity, f"w{store._size + 1}", payload))
    return WitnessStore((), store.level, store.universe, log)


def is_open(store: WitnessStore, judgment: JudgmentAtom) -> bool:
    """True iff no entry of either polarity exists for the judgment."""
    return all(store._first(judgment, p) is None for p in Polarity)


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
