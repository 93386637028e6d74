"""Collapse-map enumeration, marking, and the unclogged-coupling bound."""

import itertools
import tracemalloc

import numpy as np
import pytest

from quintlab.couplings import (
    BARE,
    MINUS,
    PLUS,
    CollapseMap,
    NodeKind,
    SignedExpansion,
    all_signed_expansions,
    check_map_order,
    classify_couplings,
    double_factorial,
    enumerate_collapse_maps,
    estimate_schedule,
    mark_expansion,
    min_unclogged,
    min_unclogged_floor,
    raw_summand_count,
    _level_step,
    _merge,
    _targets,
)
from quintlab.cli import main
from quintlab.grids import MemoryBudgetError


def _congested_counts_vectorized(
    k: int, tg: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Congested-level counts for every signed expansion of the maps in the
    target table `tg` (default: all of `_targets(k)`), shape (maps, 2^k),
    with that table.

    Level l (1-based, l < k) is congested iff all five consumed contents are
    nodes, i.e. every one of (slot 2l, both sides), (slot 2l+1, both sides),
    (slot mu(2l), level-l side) is the target of some deeper level with the
    matching side.  Sign pattern s puts level l on the unprimed side iff bit
    l-1 of s is set.  The test runs on bitmasks, for level l and each
    consumed slot: the deeper levels targeting the slot form a mask per map
    (bit j stands for level l+1+j), and the deeper levels acting on the
    unprimed side a mask per sign pattern.  The slot is covered on the
    unprimed side when the two masks share a bit, and on the primed side when
    the hit mask shares a bit with the complement.
    """
    if tg is None:
        tg = _targets(k)
    sig = np.arange(2**k)
    counts = np.zeros((len(tg), 2**k), dtype=np.uint8)

    def covered(hits, side):  # (maps, signs): a level hitting the slot acts on that side
        return (hits[:, None] & side[None, :]) != 0

    for l in range(1, k):
        deep = tg[:, l:]  # the targets of levels l+1..k
        hit_target, hit_2l, hit_2l1 = (
            np.packbits(deep == slot, axis=1, bitorder="little")[:, 0]
            for slot in (tg[:, l - 1, None], 2 * l, 2 * l + 1)
        )
        plus = ((sig >> l) & ((1 << (k - l)) - 1)).astype(np.uint8)
        congested = covered(hit_target, np.where((sig >> (l - 1)) & 1, plus, ~plus))
        for hits in (hit_2l, hit_2l1):
            congested &= covered(hits, plus)
            congested &= covered(hits, ~plus)
        counts += congested
    return counts, tg


def _restricted_step(table: dict[int, int], l: int, allowed: int = -1) -> dict[int, int]:
    """Take the dict entering level l through that level state by state, the
    level choosing among the (slot, side) pairs set in `allowed`."""
    width = 4 * l - 2  # the bits of slots 1..2l-1: level l's choices, and what stays
    full = (1 << width) - 1
    quad = 0b1111 << width  # slots 2l and 2l+1, both sides
    nxt: dict[int, int] = {}
    for state, value in table.items():
        kept = state & full
        if kept & allowed:  # a choice already in the hit set: congested iff the quad is full too
            gain = value + ((state & quad) == quad)
            if nxt.get(kept, -1) < gain:
                nxt[kept] = gain
        fresh = allowed & full & ~kept
        while fresh:  # a new choice: the level keeps a bare factor
            grown = kept | (fresh & -fresh)
            fresh &= fresh - 1
            if nxt.get(grown, -1) < value:
                nxt[grown] = value
    return nxt


def _one_side_unprimed(table: dict[int, int]) -> dict[int, int]:
    """table with each slot hit on one side moved to its unprimed side, the
    best value kept: swapping a slot's sides in a state and in every later
    choice on it keeps every level's congestion."""
    out: dict[int, int] = {}
    for state, value in table.items():
        rep = 0
        for shift in range(0, state.bit_length(), 2):
            pair = state >> shift & 0b11
            rep |= (pair if pair in (0, 0b11) else 0b01) << shift
        out[rep] = max(out.get(rep, -1), value)
    return out


def _restricted_reruns(k: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(max_congested, targets, signs) of min_unclogged's witness, fixed choice
    by choice with a restricted value pass per candidate: the targets of levels
    1..k, then the signs of levels k..1, each the first with which the free
    deeper levels still reach the maximum."""
    entering = {k: {0: 0}}
    for l in range(k, 1, -1):
        entering[l - 1] = _restricted_step(entering[l], l)
    max_congested = max(_restricted_step(entering[1], 1).values())

    def reaches_max(top: int, allowed: dict[int, int]) -> bool:
        table = entering[top]
        for l in range(top, 0, -1):
            table = _restricted_step(table, l, allowed[l])
        return max(table.values()) == max_congested

    allowed: dict[int, int] = {}  # level -> its allowed pairs; at the end one, 2(slot-1) + side
    for j in range(1, k + 1):
        both = (0b11 << 2 * t for t in range(2 * j - 1))  # slots 1..2j-1
        allowed[j] = next(m for m in both if reaches_max(j, {**allowed, j: m}))
    for j in range(k, 0, -1):
        primed = allowed[j] & allowed[j] << 1  # the higher bit of the slot's pair
        allowed[j] = primed if reaches_max(k, {**allowed, j: primed}) else primed >> 1
    targets = tuple((m.bit_length() + 1) // 2 for m in allowed.values())
    signs = tuple(PLUS if m.bit_length() % 2 else MINUS for m in allowed.values())
    return max_congested, targets, signs


class TestEnumeration:
    def test_k1_single_forced_map(self):
        maps = enumerate_collapse_maps(1)
        assert len(maps) == 1
        assert maps[0].targets == (1,)

    def test_k2_bruteforce(self):
        maps = enumerate_collapse_maps(2)
        assert len(maps) == 3
        assert sorted(m.targets[1] for m in maps) == [1, 2, 3]

    def test_k4_count_and_bound(self):
        maps = enumerate_collapse_maps(4)
        assert len(maps) == 105
        assert 105 <= 2 ** (3 * 4 - 1)
        # lexicographic, the order in which min_unclogged picks its witness
        assert [m.targets for m in maps] == list(
            itertools.product(range(1, 2), range(1, 4), range(1, 6), range(1, 8))
        )

    @pytest.mark.parametrize("k", range(1, 9))
    def test_double_factorial_identity_and_bound(self, k):
        if k <= 7:
            count = len(enumerate_collapse_maps(k))
        else:
            # 2,027,025 CollapseMap objects would take seconds and ~500 MiB;
            # check the target table they are built from instead
            tg = _targets(k)
            count = len(tg)
            for l in range(1, k + 1):
                assert tg[:, l - 1].min() == 1 and tg[:, l - 1].max() == 2 * l - 1
            # rows read as big-endian 8-byte keys strictly increase, so they are distinct
            keys = tg.view(">u8").ravel()
            assert np.all(keys[1:] > keys[:-1])
        assert count == double_factorial(2 * k - 1)
        assert count <= 2 ** (3 * k - 1)

    def test_order_past_the_memory_budget_rejected(self):
        # 15!! maps fit the budget; 17!! would not, so k = 9 is refused before enumerating
        check_map_order(8)
        with pytest.raises(MemoryBudgetError):
            check_map_order(9)
        with pytest.raises(ValueError):
            check_map_order(0)

    def test_invalid_maps_rejected(self):
        with pytest.raises(ValueError):
            CollapseMap(2, (2, 1))  # first collapse must act on slot 1
        with pytest.raises(ValueError):
            CollapseMap(2, (1, 4))  # target must precede the level


class TestRawCount:
    def test_k1(self):
        out = raw_summand_count(1)
        assert out["brute_force"] == 2
        assert out["printed_formula"] == 6

    def test_k2(self):
        assert raw_summand_count(2)["brute_force"] == 12

    @pytest.mark.parametrize("k", range(1, 8))
    def test_consistency_with_enumeration(self, k):
        out = raw_summand_count(k)
        assert out["brute_force"] == out["collapse_maps_times_signs"]
        assert out["brute_force"] == len(enumerate_collapse_maps(k)) * 2**k


class TestMarking:
    def test_worked_example_node_kinds(self):
        # three levels, targets (1, 2, 3), signs (+, -, +): the innermost
        # node is the rough one, the middle node carries only bare factors,
        # the outer node carries both a bare factor and the rough subtree
        e = SignedExpansion(CollapseMap(3, (1, 2, 3)), (PLUS, MINUS, PLUS))
        marked = mark_expansion(e)
        assert marked.nodes[2].kind is NodeKind.Q_R
        assert marked.nodes[2].order_label == 7
        assert marked.nodes[1].kind is NodeKind.Q_PHI
        assert marked.nodes[1].order_label == 5
        assert marked.nodes[0].kind is NodeKind.Q_PHI_R
        assert marked.nodes[0].order_label == 3

    def test_k1_single_node_is_rough(self):
        e = SignedExpansion(CollapseMap(1, (1,)), (PLUS,))
        marked = mark_expansion(e)
        assert len(marked.nodes) == 1
        assert marked.nodes[0].kind is NodeKind.Q_R
        assert marked.nodes[0].bare_children == 5

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bare_consumption_bookkeeping(self, k):
        # symbolic recount oracle: of the 4k-3 bare factors remaining after
        # the innermost collapse, all but at most one are absorbed by the
        # classified nodes; exactly 4k-4 whenever the excluded top side
        # keeps its bare factor
        for e in all_signed_expansions(k):
            marked = mark_expansion(e)
            consumed = marked.bare_consumed_classified
            assert consumed + marked.surviving_bare == 4 * k - 3
            if marked.top_other_side is BARE:
                assert consumed == 4 * k - 4
            assert consumed >= 4 * k - 4

    def test_at_most_one_rough_child(self):
        for e in all_signed_expansions(3):
            for node in mark_expansion(e).nodes:
                rough_children = sum(
                    1
                    for c in node.children
                    if c is not BARE and c.contains_innermost
                )
                assert rough_children <= 1

    def test_kind_consistency(self):
        # kind subscripts must reflect the node structure exactly
        for e in all_signed_expansions(3):
            for node in mark_expansion(e).nodes[:-1]:
                has_phi = node.bare_children >= 1
                in_kind_phi = node.kind in (NodeKind.Q_PHI, NodeKind.Q_PHI_R)
                assert has_phi == in_kind_phi


class TestClassification:
    def test_worked_example_both_unclogged(self):
        e = SignedExpansion(CollapseMap(3, (1, 2, 3)), (PLUS, MINUS, PLUS))
        out = classify_couplings(e)
        assert out["unclogged"] == {1, 2}
        assert out["congested"] == set()

    def test_k2_always_unclogged(self):
        for e in all_signed_expansions(2):
            out = classify_couplings(e)
            assert out["unclogged"] == {1}

    def test_partition(self):
        for e in all_signed_expansions(3):
            out = classify_couplings(e)
            assert out["unclogged"] | out["congested"] == {1, 2}
            assert not (out["unclogged"] & out["congested"])

    def test_k1_empty(self):
        e = SignedExpansion(CollapseMap(1, (1,)), (MINUS,))
        out = classify_couplings(e)
        assert out["unclogged"] == set() and out["congested"] == set()

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_vectorized_matches_object_path(self, k):
        counts, targets = _congested_counts_vectorized(k)
        if k <= 4:
            pairs = itertools.product(range(len(targets)), range(2**k))
        else:
            rng = np.random.default_rng(k)
            pairs = zip(rng.integers(len(targets), size=200), rng.integers(2**k, size=200))
        for mi, si in pairs:
            signs = tuple(PLUS if (si >> l) & 1 else MINUS for l in range(k))
            e = SignedExpansion(CollapseMap(k, tuple(targets[mi].tolist())), signs)
            assert counts[mi, si] == len(classify_couplings(e)["congested"])


class TestMinUnclogged:
    def test_k2(self):
        out = min_unclogged(2)
        assert out["min_count"] == 1
        assert out["floor"] == 1

    def test_k3(self):
        out = min_unclogged(3)
        assert out["min_count"] >= 2
        assert out["consumption_bound_holds"]

    @pytest.mark.parametrize("k,targets,signs", [
        (6, (1, 1, 2, 2, 3, 3), "--+-+-"),
        (7, (1, 1, 1, 2, 2, 3, 3), "---+-+-"),
    ])
    def test_witness(self, k, targets, signs):
        witness = min_unclogged(k)["witnessing_expansion"]
        assert witness.collapse.targets == targets
        assert witness.signs == tuple(PLUS if s == "+" else MINUS for s in signs)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_matches_exhaustive_argmax(self, k):
        # the exhaustive count over every (map, signs) pair stays the oracle
        counts, targets = _congested_counts_vectorized(k)
        mi, si = np.unravel_index(int(np.argmax(counts)), counts.shape)
        out = min_unclogged(k)
        witness = out["witnessing_expansion"]
        assert out["max_congested"] == counts.max()
        assert witness.collapse.targets == tuple(targets[mi].tolist())
        assert witness.signs == tuple(PLUS if (si >> l) & 1 else MINUS for l in range(k))

    @pytest.mark.parametrize("k", range(2, 11))
    def test_matches_restricted_reruns(self, k):
        # the merged level step gives the state-by-state dicts up to side
        # swaps, and the stored-table witness the one the per-candidate re-runs find
        table, expected = {0: 0}, {0: 0}
        for l in range(k, 0, -1):
            expected = _restricted_step(expected, l)
            table = _level_step(*_merge(table, l), l)
            assert table == _one_side_unprimed(expected)
        max_congested, targets, signs = _restricted_reruns(k)
        out = min_unclogged(k)
        assert out["max_congested"] == max_congested == max(table.values())
        assert out["min_count"] == k - 1 - max_congested
        witness = out["witnessing_expansion"]
        assert witness.collapse.targets == targets
        assert witness.signs == signs

    @pytest.mark.parametrize("k", [8, 9, 10])
    def test_floor_holds_past_the_map_table(self, k):
        # k = 9, 10 have no map table within the budget; the witness needs none
        out = min_unclogged(k)
        assert out["min_count"] >= min_unclogged_floor(k)
        witness = out["witnessing_expansion"]
        assert len(classify_couplings(witness)["unclogged"]) == out["min_count"]

    def test_run_path_builds_no_map_table(self, monkeypatch, tmp_path, capsys):
        def refuse(k):
            raise AssertionError("the map table was built")

        # patch the function object itself, so that any imported alias refuses too
        monkeypatch.setattr(_targets, "__code__", refuse.__code__)
        for k in range(2, 9):
            assert min_unclogged(k)["min_count"] >= min_unclogged_floor(k)
        assert main(["couplings", "--k", "8", "--out", str(tmp_path)]) == 0

    def test_k8_peak_memory(self):
        # the exhaustive witness scan peaked at 19.5 MiB on this call
        tracemalloc.start()
        try:
            min_unclogged(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_k7_never_builds_the_exhaustive_table(self):
        # the (maps, 2^k) count table of k = 7 alone takes 67 MiB
        tracemalloc.start()
        try:
            min_unclogged(7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("k", range(2, 8))
    def test_floor_holds(self, k):
        out = min_unclogged(k)
        assert out["min_count"] >= min_unclogged_floor(k)
        assert out["consumption_bound_holds"]
        witness = out["witnessing_expansion"]
        got = len(classify_couplings(witness)["unclogged"])
        assert got == out["min_count"]


class TestEstimateSchedule:
    def test_worked_example_schedule(self):
        e = SignedExpansion(CollapseMap(3, (1, 2, 3)), (PLUS, MINUS, PLUS))
        out = estimate_schedule(e)
        assert out["per_level"] == ["MLFL1", "MLFL2"]
        assert out["freq_localized_count"] == 2

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_freq_localized_floor(self, k):
        for e in all_signed_expansions(k):
            out = estimate_schedule(e)
            assert out["freq_localized_count"] >= min_unclogged_floor(k)
