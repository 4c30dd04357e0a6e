"""The witness store: polarity exclusion, openness, horn triples, and
levels."""

import random

import pytest

from rupture_kit.errors import KernelError
from rupture_kit.judgments import (
    ArrowJudgment,
    BaseJudgment,
    ExclusionViolation,
    Polarity,
    WitnessEntry,
    WitnessStore,
    add_witness,
    is_coherent_fragment,
    is_open,
    level_up,
    make_horn,
)

J, K, L, M = (BaseJudgment(x) for x in "JKLM")


def arrow(a, b):
    return ArrowJudgment(a, b)


def chain_store():
    s = WitnessStore()
    s = add_witness(s, arrow("J", "K"), Polarity.COHERENT)
    s = add_witness(s, arrow("K", "L"), Polarity.COHERENT)
    s = add_witness(s, arrow("J", "L"), Polarity.GAPPED)
    return s


class TestAddWitness:
    def test_add_coherent(self):
        s = add_witness(WitnessStore(), J, Polarity.COHERENT)
        assert len(s.entries) == 1 and s.entries[0].witness_id == "w1"

    def test_dual_polarity_rejected_naming_conflict(self):
        s = add_witness(WitnessStore(), J, Polarity.COHERENT)
        with pytest.raises(ExclusionViolation) as err:
            add_witness(s, J, Polarity.GAPPED)
        assert err.value.conflicting.witness_id == "w1"
        assert len(s.entries) == 1  # unchanged

    def test_proof_relevance_second_witness(self):
        s = add_witness(WitnessStore(), J, Polarity.COHERENT)
        s = add_witness(s, J, Polarity.COHERENT)
        assert [e.witness_id for e in s.entries] == ["w1", "w2"]

    def test_gap_witnesses_also_proof_relevant(self):
        s = add_witness(WitnessStore(), J, Polarity.GAPPED)
        s = add_witness(s, J, Polarity.GAPPED, payload={"reason": "second"})
        assert len(s.entries) == 2

    def test_exclusion_invariant_under_random_scripts(self):
        rng = random.Random(271)
        atoms = [J, K, L, M, arrow("J", "K"), arrow("K", "L"), arrow("J", "L")]
        for _ in range(100):
            store = WitnessStore()
            seen = {}
            for _ in range(30):
                judgment = rng.choice(atoms)
                polarity = rng.choice([Polarity.COHERENT, Polarity.GAPPED])
                try:
                    store = add_witness(store, judgment, polarity)
                    assert seen.get(judgment, polarity) is polarity
                    seen[judgment] = polarity
                except ExclusionViolation:
                    assert seen[judgment] is not polarity
            # invariant: no dual-polarity judgment in the final store
            polarities = {}
            for e in store.entries:
                polarities.setdefault(e.judgment, set()).add(e.polarity)
            assert all(len(p) == 1 for p in polarities.values())


class TestExclusionText:
    """A rejection's text is formatted when it is read, and reads as
    ``judgment '<judgment>' already witnessed <polarity> by <id>``,
    wherever the store sits in its log."""

    CASES = [
        # level, judgment, its text, the polarity witnessed first, its text
        (0, J, "J", Polarity.COHERENT, "coherent"),
        (0, J, "J", Polarity.GAPPED, "gapped"),
        (0, arrow("J", "K"), "J => K", Polarity.COHERENT, "coherent"),
        (0, arrow("J", "K"), "J => K", Polarity.GAPPED, "gapped"),
        (1, BaseJudgment("w1"), "w1", Polarity.COHERENT, "coherent"),
        (1, BaseJudgment("w2"), "w2", Polarity.GAPPED, "gapped"),
        (1, arrow("w2", "w1"), "w2 => w1", Polarity.COHERENT, "coherent"),
        (1, arrow("w1", "w2"), "w1 => w2", Polarity.GAPPED, "gapped"),
    ]

    @staticmethod
    def opposite(polarity):
        return Polarity.GAPPED if polarity is Polarity.COHERENT else Polarity.COHERENT

    @staticmethod
    def empty(level):
        store = WitnessStore()
        if level:
            store = add_witness(store, J, Polarity.COHERENT)
            store = level_up(add_witness(store, K, Polarity.COHERENT))
        return store

    def stores(self, level, judgment, polarity):
        """Stores whose entry w2 witnesses ``judgment`` with ``polarity``:
        one at the tip of its log, one behind it, one on a forked log and
        one built directly."""
        unrelated = arrow("w1", "w1") if level else M
        start = add_witness(self.empty(level), unrelated, polarity)
        behind = add_witness(start, judgment, polarity)  # w2
        tip = add_witness(behind, judgment, polarity)  # w3, in place
        fork = add_witness(behind, unrelated, polarity)  # w3, on a new log
        built = WitnessStore(behind.entries, behind.level, behind.universe)
        assert built == behind and fork._log is not tip._log
        return [tip, behind, fork, built]

    @pytest.mark.parametrize("level,judgment,shown,polarity,word", CASES)
    def test_text_and_fields(self, level, judgment, shown, polarity, word):
        for store in self.stores(level, judgment, polarity):
            before = store.entries
            with pytest.raises(ExclusionViolation) as err:
                add_witness(store, judgment, self.opposite(polarity))
            assert str(err.value) == f"judgment '{shown}' already witnessed {word} by w2"
            assert err.value.judgment is judgment
            assert err.value.conflicting == WitnessEntry(judgment, polarity, "w2")
            assert err.value.conflicting is store.by_id("w2")
            assert err.value.args == (judgment, err.value.conflicting)
            assert store.entries == before

    def test_the_universe_is_checked_before_exclusion(self):
        # a directly built level-1 store may hold judgments outside its
        # universe; adding their opposite polarity fails on the universe
        conflicting = (J, arrow("w1", "J"))
        entries = tuple(WitnessEntry(j, Polarity.COHERENT, f"w{i + 1}")
                        for i, j in enumerate(conflicting))
        store = WitnessStore(entries, 1, frozenset({"w1"}))
        unrestricted = WitnessStore(entries)
        for judgment in conflicting:
            with pytest.raises(KernelError) as err:
                add_witness(store, judgment, Polarity.GAPPED)
            assert type(err.value) is KernelError
            assert str(err.value) == "label 'J' is outside this level-1 universe"
            with pytest.raises(ExclusionViolation):
                add_witness(unrestricted, judgment, Polarity.GAPPED)


class TestIsOpen:
    def test_empty_store_all_open(self):
        assert is_open(WitnessStore(), J)

    def test_witnessed_not_open(self):
        s = add_witness(WitnessStore(), J, Polarity.COHERENT)
        assert not is_open(s, J)

    def test_unrelated_judgment_still_open(self):
        s = add_witness(WitnessStore(), K, Polarity.GAPPED)
        assert is_open(s, J)

    def test_trichotomy_restated(self):
        s = chain_store()
        for judgment in (J, K, arrow("J", "K"), arrow("J", "L"), arrow("K", "J")):
            assert is_open(s, judgment) != any(e.judgment == judgment for e in s.entries)


class TestMakeHorn:
    def test_valid_triple(self):
        triple = make_horn(chain_store(), "w1", "w2", "w3")
        assert (triple.first, triple.second, triple.gap) == ("w1", "w2", "w3")

    def test_missing_id(self):
        with pytest.raises(KernelError, match="missing witness id"):
            make_horn(chain_store(), "w1", "w2", "w9")

    def test_wrong_polarity(self):
        with pytest.raises(KernelError, match="must be gapped"):
            make_horn(chain_store(), "w1", "w2", "w1")

    def test_non_chaining_arrow(self):
        s = chain_store()
        s = add_witness(s, arrow("J", "M"), Polarity.GAPPED)  # w4
        with pytest.raises(KernelError, match="must close"):
            make_horn(s, "w1", "w2", "w4")

    def test_base_atom_rejected(self):
        s = add_witness(chain_store(), J, Polarity.GAPPED)
        with pytest.raises(KernelError, match="not an arrow"):
            make_horn(s, "w1", "w2", "w4")

    def test_exhaustive_over_small_store(self):
        # horns succeed exactly on chained (J,K)/(K,L)/(J,L) triples with
        # coherent/coherent/gapped polarities
        s = WitnessStore()
        labels = ["J", "K", "L"]
        for a in labels:
            for b in labels:
                if a != b:
                    polarity = (
                        Polarity.GAPPED
                        if (a, b) in {("J", "L"), ("L", "K")}
                        else Polarity.COHERENT
                    )
                    s = add_witness(s, arrow(a, b), polarity)
        ids = [e.witness_id for e in s.entries]
        succeeded = []
        for f in ids:
            for g in ids:
                for h in ids:
                    try:
                        make_horn(s, f, g, h)
                        succeeded.append((f, g, h))
                    except KernelError:
                        pass
        expected = []
        for f in s.entries:
            for g in s.entries:
                for h in s.entries:
                    if (
                        f.polarity is Polarity.COHERENT
                        and g.polarity is Polarity.COHERENT
                        and h.polarity is Polarity.GAPPED
                        and f.judgment.target == g.judgment.source
                        and h.judgment.source == f.judgment.source
                        and h.judgment.target == g.judgment.target
                    ):
                        expected.append(
                            (f.witness_id, g.witness_id, h.witness_id)
                        )
        assert succeeded == expected and succeeded


class TestCoherentFragment:
    def test_all_coherent_true(self):
        s = add_witness(WitnessStore(), J, Polarity.COHERENT)
        s = add_witness(s, arrow("J", "K"), Polarity.COHERENT)
        assert is_coherent_fragment(s)

    def test_any_gap_false(self):
        s = add_witness(WitnessStore(), J, Polarity.GAPPED)
        assert not is_coherent_fragment(s)

    def test_empty_true(self):
        assert is_coherent_fragment(WitnessStore())

    def test_coherent_fragment_never_yields_horn(self):
        rng = random.Random(5)
        labels = ["J", "K", "L", "M"]
        for _ in range(50):
            s = WitnessStore()
            for _ in range(rng.randint(1, 12)):
                a, b = rng.sample(labels, 2)
                s = add_witness(s, arrow(a, b), Polarity.COHERENT)
            assert is_coherent_fragment(s)
            ids = [e.witness_id for e in s.entries]
            for f in ids:
                for g in ids:
                    for h in ids:
                        with pytest.raises(KernelError):
                            make_horn(s, f, g, h)


class TestLevels:
    def test_level_up_universe_from_coherences(self):
        s = add_witness(WitnessStore(), J, Polarity.COHERENT)
        s = add_witness(s, K, Polarity.COHERENT)
        s = add_witness(s, L, Polarity.GAPPED)
        up = level_up(s)
        assert up.level == 1 and not up.entries
        assert up.universe == frozenset({"w1", "w2"})  # gaps not lifted

    def test_empty_store_empty_universe(self):
        up = level_up(WitnessStore())
        assert up.universe == frozenset()

    def test_level_two(self):
        s = add_witness(WitnessStore(), J, Polarity.COHERENT)
        up = level_up(s)
        up = add_witness(up, BaseJudgment("w1"), Polarity.COHERENT)
        upup = level_up(up)
        assert upup.level == 2 and upup.universe == frozenset({"w1"})

    def test_universe_enforced(self):
        up = level_up(add_witness(WitnessStore(), J, Polarity.COHERENT))
        with pytest.raises(KernelError):
            add_witness(up, BaseJudgment("unrelated"), Polarity.COHERENT)
        up = add_witness(up, arrow("w1", "w1"), Polarity.GAPPED)
        assert len(up.entries) == 1

    def test_level_store_keeps_exclusion(self):
        s = add_witness(WitnessStore(), J, Polarity.COHERENT)
        up = level_up(s)
        up = add_witness(up, BaseJudgment("w1"), Polarity.COHERENT)
        with pytest.raises(ExclusionViolation):
            add_witness(up, BaseJudgment("w1"), Polarity.GAPPED)


class TestSharedLog:
    """Every store answers as a linear scan of its own entries would,
    whether it sits at the tip of its log or not."""

    ATOMS = [J, K, L, M, arrow("J", "K"), arrow("K", "L"), arrow("J", "L")]

    def assert_scans(self, store, expected):
        assert store.entries == expected
        for judgment in self.ATOMS:
            assert is_open(store, judgment) == all(e.judgment != judgment for e in expected)
        for i in range(len(expected) + 2):
            wid = f"w{i + 1}"
            assert store.by_id(wid) == next((e for e in expected if e.witness_id == wid), None)

    def add_and_check(self, store, expected, judgment, polarity):
        """Add to a store and compare the outcome with a scan of
        ``expected``; returns the new (store, expected) or None."""
        conflict = next(
            (e for e in expected if e.judgment == judgment and e.polarity is not polarity), None
        )
        try:
            child = add_witness(store, judgment, polarity)
        except ExclusionViolation as err:
            assert conflict is not None and err.conflicting == conflict
            return None
        assert conflict is None
        return child, expected + (WitnessEntry(judgment, polarity, f"w{len(expected) + 1}"),)

    def test_random_branches_match_a_scan(self):
        rng = random.Random(1989)
        forks = 0
        for _ in range(60):
            stores = [(WitnessStore(), ())]
            extended = set()  # stores that already have a child: not a tip
            for _ in range(40):
                store, expected = rng.choice(stores)
                forks += id(store) in extended
                out = self.add_and_check(
                    store, expected, rng.choice(self.ATOMS), rng.choice(list(Polarity))
                )
                if out is not None:
                    stores.append(out)
                    extended.add(id(store))
                self.assert_scans(store, expected)
            for store, expected in stores:
                self.assert_scans(store, expected)
                self.assert_scans(WitnessStore(expected), expected)
        assert forks >= 500

    def test_two_branches_from_one_parent_interleave(self):
        parent = chain_store()
        base = parent.entries
        left = add_witness(parent, J, Polarity.COHERENT)  # parent's log, in place
        right = add_witness(parent, J, Polarity.GAPPED)  # a copy of parent's entries
        left = add_witness(left, K, Polarity.GAPPED)
        right = add_witness(right, K, Polarity.COHERENT)
        with pytest.raises(ExclusionViolation) as err:
            add_witness(left, J, Polarity.GAPPED)
        assert err.value.conflicting.witness_id == "w4"
        assert err.value.conflicting.polarity is Polarity.COHERENT
        assert parent.entries == base and len(parent.entries) == 3
        self.assert_scans(parent, base)
        self.assert_scans(left, base + (WitnessEntry(J, Polarity.COHERENT, "w4"),
                                        WitnessEntry(K, Polarity.GAPPED, "w5")))
        self.assert_scans(right, base + (WitnessEntry(J, Polarity.GAPPED, "w4"),
                                         WitnessEntry(K, Polarity.COHERENT, "w5")))
        assert left != right and parent == chain_store()

    def test_directly_constructed_store_answers_from_its_entries(self):
        # two polarities on J and a repeated id: the first match wins, as a
        # scan in entry order would find it
        entries = (
            WitnessEntry(J, Polarity.COHERENT, "a"),
            WitnessEntry(J, Polarity.GAPPED, "b"),
            WitnessEntry(K, Polarity.COHERENT, "a"),
        )
        store = WitnessStore(entries, 2, frozenset("JK"))
        assert store.by_id("a") is entries[0] and store.by_id("w1") is None
        assert not is_open(store, J) and is_open(store, L)
        for polarity, conflicting in ((Polarity.COHERENT, 1), (Polarity.GAPPED, 0)):
            with pytest.raises(ExclusionViolation) as err:
                add_witness(store, J, polarity)
            assert err.value.conflicting is entries[conflicting]
        grown = add_witness(store, K, Polarity.COHERENT)
        assert grown.entries[-1].witness_id == "w4" and grown.level == 2
        assert grown.universe == frozenset("JK") and store.entries == entries
