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

min_unclogged finds the minimum unclogged count over all (2k-1)!! 2^k
signed expansions without visiting them, by dynamic programming over hit
sets, levels from k down to 1.  The state is the set of (slot, side) pairs
that the deeper levels target, a bitmask with bit 2(slot-1) + side (side 1
is the primed side), cut after level l to slots <= 2l-1, since the
shallower levels consume and target nothing higher.  Level l < k is
congested when the state holds both sides of slots 2l and 2l+1 and the
pair (mu(2l), its side) that the level chooses.  Swapping the two sides of
one slot, in the state and in every later choice on that slot, keeps every
level's congestion, so a slot hit on one side is stored on its unprimed
side.  A dict maps each state to the most congested levels any deeper
choices reach with it; states that agree on slots 1..2l-1 (the kept set)
expand alike and are merged first.  The object path (mark_expansion) is
the oracle of the program.
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
    """_targets (the oracle's enumeration; no run) needs k >= 1 and at most MEMORY_BUDGET maps."""
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


def check_coupling_order(k: int) -> None:
    """raw_summand_count and a couplings run take 1 <= k <= 12."""
    if not 1 <= k <= 12:
        raise ValueError(f"coupling order must be in 1..12, got {k}")


def raw_summand_count(k: int) -> dict[str, int]:
    """Count the signed summands of the k-fold expansion by direct expansion.

    Each level l contributes a sum over 2l-1 slots, each split into a + and a
    - collapse, so the brute-force product is prod_l 2(2l-1) = (2k-1)!! 2^k.
    The alternative closed form (2k+1)!! 2^k is reported alongside; the two
    disagree and the direct expansion is treated as ground truth.
    """
    check_coupling_order(k)
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


def _masks(l: int) -> tuple[int, int]:
    """The bits of slots 1..2l-1 (level l's choices, and what stays) and of
    the quad, slots 2l and 2l+1 on both sides."""
    return (1 << 4 * l - 2) - 1, 0b1111 << 4 * l - 2


def _merge(table: dict[int, int], l: int) -> tuple[dict[int, int], set[int]]:
    """Fold the dict entering level l into one entry per kept set, its best
    value, and the set of kept sets whose best value a state with a full quad
    reaches: there a choice already hit is congested and gains 1."""
    full, quad = _masks(l)
    best: dict[int, int] = {}
    quad_full = []
    for state, value in table.items():
        kept = state & full
        if best.get(kept, -1) < value:
            best[kept] = value
        if state & quad == quad:
            quad_full.append((kept, value))
    return best, {kept for kept, value in quad_full if kept and value == best[kept]}


def _level_step(best: dict[int, int], packed: set[int], l: int) -> dict[int, int]:
    """The dict leaving level l, from the merged dict entering it."""
    full = _masks(l)[0]
    unprimed = full // 3  # the unprimed bit of each of slots 1..2l-1
    nxt: dict[int, int] = {}
    for kept, value in best.items():
        if kept:  # a choice already in the hit set: congested iff the quad is full too
            gain = value + (kept in packed)
            if nxt.get(kept, -1) < gain:
                nxt[kept] = gain
        # a new choice keeps a bare factor: a slot hit on no side gains its
        # unprimed side, one hit on one side (the unprimed) its primed side
        fresh = unprimed & ~kept | (kept & ~(kept >> 1) & unprimed) << 1
        while fresh:
            grown = kept | (fresh & -fresh)
            fresh &= fresh - 1
            if nxt.get(grown, -1) < value:
                nxt[grown] = value
    return nxt


def min_unclogged(k: int) -> dict:
    """Minimum of the unclogged-level count over all signed expansions, with
    the first witnessing expansion in the order of the exhaustive argmax (its
    sign index has level k as the top bit, 0 for the primed side) and the
    consumption-bound check.  Needs k >= 2.  The witness is fixed choice by
    choice, the targets of levels 1..k, then the signs of levels k..1, each
    the first with which the free deeper levels still reach the maximum.
    shallow[j] maps each kept set entering level j, its quad not full and
    full, to the most congested levels j..1 reach, each fixed to its chosen
    slot and free in its side; level j's target is the first slot whose
    table, one pass over merged[j] reading shallow[j-1], reaches the maximum,
    and the signs walk down from level k on the same tables."""
    if k < 2:
        raise ValueError(f"min_unclogged needs k >= 2, got {k}")
    merged = {}  # level -> the merged dict entering it
    table = {0: 0}  # hit set of the deeper levels -> most congested among them
    for l in range(k, 0, -1):
        merged[l] = _merge(table, l)
        table = _level_step(*merged[l], l)
    max_congested = max(table.values())

    shallow = {0: (0, 0, {0: 0}, {0: 0})}  # no level below 1: every state reaches 0
    targets = []
    for j in range(1, k + 1):
        best, packed = merged.pop(j)
        full, quad, loose, tight = shallow[j - 1]  # read at the states leaving level j
        for t in range(2 * j - 1):
            unprimed, primed = 1 << 2 * t, 2 << 2 * t
            loose_j, tight_j, top = {}, {}, -1
            for kept, value in best.items():
                lo = hi = -1  # the most congested levels j..1 reach, quad not full and full
                if kept & unprimed:  # slot t+1 hit: a choice already in the hit set
                    lo = (tight if kept & quad == quad else loose)[kept & full]
                    hi, top = lo + 1, max(top, value + (kept in packed) + lo)
                if not kept & primed:  # a side of slot t+1 not hit yet
                    state = kept | (primed if kept & unprimed else unprimed)
                    below = (tight if state & quad == quad else loose)[state & full]
                    lo, hi, top = max(lo, below), max(hi, below), max(top, value + below)
                loose_j[kept], tight_j[kept] = lo, hi
            if top == max_congested:
                break
        targets.append(t + 1)
        shallow[j] = (*_masks(j), loose_j, tight_j)

    signs, state, acc = [], 0, 0  # state: the hit set entering level j; acc: congested above it
    for j in range(k, 0, -1):
        full, quad = _masks(j)
        kept, quad_full = state & full, state & quad == quad
        below_full, below_quad, loose, tight = shallow[j - 1]
        for bit, sign in ((2, MINUS), (1, PLUS)):  # the primed side first
            bit <<= 2 * targets[j - 1] - 2
            congested = quad_full and bool(kept & bit)
            state = kept | bit
            unprimed = full // 3  # the tables hold a slot hit on one side on its unprimed side
            canonical = (state | state >> 1) & unprimed | (state & state >> 1 & unprimed) << 1
            below = (tight if canonical & below_quad == below_quad else loose)[
                canonical & below_full]
            if sign is PLUS or acc + congested + below == max_congested:
                break
        acc += congested
        signs.append(sign)
    min_count = (k - 1) - max_congested
    return {
        "k": k,
        "min_count": min_count,
        "floor": min_unclogged_floor(k),
        "max_congested": max_congested,
        "consumption_bound_holds": 4 * k - 4 <= 5 * min_count,
        "witnessing_expansion": SignedExpansion(CollapseMap(k, tuple(targets)),
                                                tuple(reversed(signs))),
    }
