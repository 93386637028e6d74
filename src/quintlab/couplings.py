"""Symbolic enumeration of the iterated-collapse expansion of the first
marginal.

The k-fold iterated Duhamel expansion writes the first marginal through a
chain of collapse operators B_{mu(2l); 2l, 2l+1}, l = 1..k, applied innermost
(l = k) first.  A collapse map mu fixes which earlier slot each level acts
on; a sign per level says whether the collapse lands on the unprimed (+) or
primed (-) side of the kernel.  Acting at level l consumes five factor slots
(the target-side content of slot mu(2l), and both sides of slots 2l and
2l+1) and replaces the target content with a quintic node.

Node kinds record two structural facts used by the estimate bookkeeping:
whether the node contains at least one bare free-evolved factor (subscript
phi), and whether its subtree contains the innermost, roughest node
(subscript R).  A level with no bare factor in its node is congested; the
count of congested levels is bounded by the consumption argument
4k - 4 <= 5 * (number of unclogged levels).

The minimum of the unclogged count over all (2k-1)!! 2^k signed expansions
is found without visiting them, by dynamic programming over hit sets.
Levels are processed from k down to 1.  The state is the set of (slot,
side) pairs that the deeper levels target, a bitmask with bit
2(slot-1) + side; after level l only slots <= 2l-1 are kept, since the
shallower levels consume and target nothing higher.  Level l < k is
congested when the state holds both sides of slots 2l and 2l+1 and the
pair (mu(2l), its side) that the level chooses.  A dict maps each state to
the most congested levels any deeper choices reach with it, and the
maximum over the last dict is the answer.  The witness is the
lexicographically first signed expansion attaining it: the vectorized
count runs over consecutive chunks of the map table and stops at the first
chunk that attains the maximum.  That count builds no objects: for each
level l and each consumed slot, the deeper levels targeting that slot form
a bitmask per map, and the deeper levels acting on the unprimed side form
a bitmask per sign pattern; the slot is covered on the unprimed side when
the two masks share a bit, and on the primed side when the hit mask shares
a bit with the complement.  Over the whole table it is the exhaustive
oracle of the dynamic program, and the object path (mark_expansion) is the
oracle of both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .grids import check_entries

BARE = "phi"

PLUS, MINUS = +1, -1


@dataclass(frozen=True)
class CollapseMap:
    """targets[l-1] is the slot acted on at level l (the value mu(2l));
    constraints: targets[0] == 1 and 1 <= targets[l-1] <= 2l - 1."""

    k: int
    targets: tuple[int, ...]

    def __post_init__(self):
        if len(self.targets) != self.k:
            raise ValueError("need one target per level")
        if self.k >= 1 and self.targets[0] != 1:
            raise ValueError("the first collapse always acts on slot 1")
        for l, t in enumerate(self.targets, start=1):
            if not 1 <= t <= 2 * l - 1:
                raise ValueError(f"level {l} target {t} outside 1..{2 * l - 1}")


def check_map_order(k: int) -> None:
    """enumerate_collapse_maps needs k >= 1 and at most MEMORY_BUDGET maps."""
    if k < 1:
        raise ValueError(f"map order must be >= 1, got {k}")
    count = 1
    for l in range(2, k + 1):  # stops at the first level past the budget
        count *= 2 * l - 1
        check_entries(f"k={k}: the maps of levels 1..{l}", count)


def _targets(k: int) -> np.ndarray:
    """The (maps, k) table of every admissible collapse map's targets, in
    lexicographic order: column l-1 runs over 1..2l-1, the first column slowest."""
    check_map_order(k)
    sizes = [2 * l - 1 for l in range(1, k + 1)]
    tg = np.empty(sizes + [k], dtype=np.uint8)
    for l, size in enumerate(sizes):
        tg[..., l] = np.arange(1, size + 1, dtype=np.uint8).reshape(
            [size if j == l else 1 for j in range(k)]
        )
    return tg.reshape(-1, k)


def enumerate_collapse_maps(k: int) -> list[CollapseMap]:
    """All admissible collapse maps, lexicographically ordered.

    There are prod_{l=2}^{k} (2l-1) = (2k-1)!! of them.
    """
    # viewed as one k-field record per row, tolist() gives each row as a tuple
    rows = _targets(k).view([("", "u1")] * k).reshape(-1).tolist()
    return [CollapseMap(k, t) for t in rows]


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def raw_summand_count(k: int) -> dict[str, int]:
    """Count the signed summands of the k-fold expansion by direct expansion.

    Each level l contributes a sum over 2l-1 slots, each split into a + and a
    - collapse, so the brute-force product is prod_l 2(2l-1) = (2k-1)!! 2^k.
    The alternative closed form (2k+1)!! 2^k is reported alongside; the two
    disagree and the direct expansion is treated as ground truth.
    """
    if not 1 <= k <= 12:
        raise ValueError("supported range is 1 <= k <= 12")
    brute = 1
    for l in range(1, k + 1):
        brute *= 2 * (2 * l - 1)
    return {
        "k": k,
        "brute_force": brute,
        "printed_formula": double_factorial(2 * k + 1) * 2**k,
        "collapse_maps_times_signs": double_factorial(2 * k - 1) * 2**k,
    }


@dataclass(frozen=True)
class SignedExpansion:
    collapse: CollapseMap
    signs: tuple[int, ...]  # +1 (unprimed side) or -1 (primed side) per level

    def __post_init__(self):
        if len(self.signs) != self.collapse.k:
            raise ValueError("need one sign per level")
        if any(s not in (PLUS, MINUS) for s in self.signs):
            raise ValueError("signs must be +1 or -1")

    @property
    def k(self) -> int:
        return self.collapse.k


def all_signed_expansions(k: int):
    """Lexicographic iteration over (collapse map, sign pattern) pairs."""
    for cm in enumerate_collapse_maps(k):
        for signs in itertools.product((PLUS, MINUS), repeat=k):
            yield SignedExpansion(cm, signs)


class NodeKind(Enum):
    Q = "Q"
    Q_PHI = "Q_phi"
    Q_R = "Q_R"
    Q_PHI_R = "Q_phi_R"


@dataclass
class QuinticNode:
    """The quintic factor created at one level of the collapse chain.

    children holds the five consumed contents in the order (target content,
    slot 2l unprimed, slot 2l+1 unprimed, slot 2l primed, slot 2l+1 primed);
    each is either BARE or a deeper QuinticNode.
    """

    level: int
    children: tuple = field(default_factory=tuple)
    kind: NodeKind = NodeKind.Q
    contains_innermost: bool = False

    @property
    def bare_children(self) -> int:
        return sum(1 for c in self.children if c is BARE)

    @property
    def order_label(self) -> int:
        return 2 * self.level + 1


@dataclass
class MarkedExpansion:
    expansion: SignedExpansion
    nodes: list[QuinticNode]  # indexed by level - 1
    top_other_side: object  # content of slot 1 on the side opposite level 1

    @property
    def bare_consumed_classified(self) -> int:
        """Bare factors absorbed by the nodes of levels 1..k-1."""
        return sum(n.bare_children for n in self.nodes[:-1])

    @property
    def surviving_bare(self) -> int:
        return 1 if self.top_other_side is BARE else 0


def mark_expansion(e: SignedExpansion) -> MarkedExpansion:
    """Run the collapse chain symbolically, innermost level first, and mark
    the node created at each level with its phi / R subscripts."""
    k = e.k
    unprimed: dict[int, object] = {s: BARE for s in range(1, 2 * k + 2)}
    primed: dict[int, object] = {s: BARE for s in range(1, 2 * k + 2)}
    nodes: list[QuinticNode | None] = [None] * k
    for l in range(k, 0, -1):
        j = e.collapse.targets[l - 1]
        side = unprimed if e.signs[l - 1] == PLUS else primed
        target = side[j]
        children = (
            target,
            unprimed.pop(2 * l),
            unprimed.pop(2 * l + 1),
            primed.pop(2 * l),
            primed.pop(2 * l + 1),
        )
        has_phi = any(c is BARE for c in children)
        contains_inner = l == k or any(
            isinstance(c, QuinticNode) and c.contains_innermost for c in children
        )
        if l == k:
            kind = NodeKind.Q_R  # the roughest factor, by construction
        elif has_phi and contains_inner:
            kind = NodeKind.Q_PHI_R
        elif has_phi:
            kind = NodeKind.Q_PHI
        elif contains_inner:
            kind = NodeKind.Q_R
        else:
            kind = NodeKind.Q
        node = QuinticNode(l, children, kind, contains_inner)
        side[j] = node
        nodes[l - 1] = node
    other = primed[1] if e.signs[0] == PLUS else unprimed[1]
    return MarkedExpansion(e, nodes, other)


def classify_couplings(e: SignedExpansion) -> dict[str, set[int]]:
    """Partition levels 1..k-1 into unclogged (node carries a bare factor)
    and congested (it does not)."""
    marked = mark_expansion(e)
    unclogged = {n.level for n in marked.nodes[:-1] if n.bare_children >= 1}
    congested = set(range(1, e.k)) - unclogged
    return {"unclogged": unclogged, "congested": congested}


ESTIMATE_BY_KIND = {
    NodeKind.Q_PHI_R: "MLFL1",
    NodeKind.Q_PHI: "MLFL2",
    NodeKind.Q_R: "Old1",
    NodeKind.Q: "Old2",
}


def estimate_schedule(e: SignedExpansion) -> dict:
    """Which multilinear estimate each level's node triggers (levels < k);
    nodes carrying a bare factor call the frequency-localized variants."""
    marked = mark_expansion(e)
    schedule = [ESTIMATE_BY_KIND[n.kind] for n in marked.nodes[:-1]]
    freq_localized = sum(1 for s in schedule if s.startswith("MLFL"))
    return {
        "per_level": schedule,
        "freq_localized_count": freq_localized,
        "plain_count": len(schedule) - freq_localized,
    }


def min_unclogged_floor(k: int) -> int:
    """ceil(4(k-1)/5): the consumption-argument lower bound on the number of
    unclogged levels."""
    return -((-4 * (k - 1)) // 5)


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
    l-1 of s is set.  The test runs on the bitmasks of the module docstring:
    for level l, bit j of a mask stands for level l+1+j.
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


def _max_congested(k: int) -> int:
    """The largest number of congested levels over all signed expansions,
    by dynamic programming over hit sets (see the module docstring)."""
    table = {0: 0}  # hit set of the levels below -> most congested levels among them
    for l in range(k, 0, -1):
        width = 4 * l - 2  # the bits of slots 1..2l-1: level l's choices, and what stays
        quad = 0b1111 << width  # slots 2l and 2l+1, both sides
        nxt: dict[int, int] = {}
        for state, value in table.items():
            kept = state & ((1 << width) - 1)
            if kept:  # a choice already in the hit set: congested iff the quad is full too
                gain = value + ((state & quad) == quad)
                if nxt.get(kept, -1) < gain:
                    nxt[kept] = gain
            for bit in range(width):  # a new choice: the level keeps a bare factor
                if not kept >> bit & 1:
                    grown = kept | 1 << bit
                    if nxt.get(grown, -1) < value:
                        nxt[grown] = value
        table = nxt
    return max(table.values())


_WITNESS_CHUNK = 4096  # maps per step of the witness scan


def min_unclogged(k: int, tg: np.ndarray | None = None) -> dict:
    """Minimum of the unclogged-level count over all signed expansions, with
    the lexicographically first witnessing expansion and the consumption-bound
    check.  Needs k >= 2 and a map table within the memory budget; `tg` is
    that table, `_targets(k)`, when the caller already holds it.
    """
    if k < 2:
        raise ValueError(f"min_unclogged needs k >= 2, got {k}")
    max_congested = _max_congested(k)
    if tg is None:
        tg = _targets(k)
    for start in range(0, len(tg), _WITNESS_CHUNK):
        counts, rows = _congested_counts_vectorized(k, tg[start : start + _WITNESS_CHUNK])
        # argmax finds the first expansion of the chunk with the fewest unclogged levels
        mi, si = np.unravel_index(int(np.argmax(counts)), counts.shape)
        if counts[mi, si] == max_congested:
            break
    min_count = (k - 1) - max_congested
    signs = tuple(PLUS if (si >> l) & 1 else MINUS for l in range(k))
    witness = SignedExpansion(CollapseMap(k, tuple(rows[mi].tolist())), signs)
    return {
        "k": k,
        "min_count": min_count,
        "floor": min_unclogged_floor(k),
        "max_congested": max_congested,
        "consumption_bound_holds": 4 * k - 4 <= 5 * min_count,
        "witnessing_expansion": witness,
    }
