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
pair (mu(2l), its side) that the level chooses.  A dict maps each state to
the most congested levels any deeper choices reach with it.  The object
path (mark_expansion) is the oracle of the program.
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


def _level_step(table: dict[int, int], l: int, allowed: int = -1) -> dict[int, int]:
    """Take the dict entering level l through that level (see the module
    docstring), the level choosing among the pairs set in `allowed`."""
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


def min_unclogged(k: int) -> dict:
    """Minimum of the unclogged-level count over all signed expansions, with
    the first witnessing expansion in the order of the exhaustive argmax (its
    sign index has level k as the top bit, 0 for the primed side) and the
    consumption-bound check.  Needs k >= 2.  The witness is fixed choice by
    choice, the targets of levels 1..k, then the signs of levels k..1, each
    the first with which the free deeper levels still reach the maximum."""
    if k < 2:
        raise ValueError(f"min_unclogged needs k >= 2, got {k}")
    entering = {k: {0: 0}}  # level -> hit set of the deeper levels -> most congested among them
    for l in range(k, 1, -1):
        entering[l - 1] = _level_step(entering[l], l)
    max_congested = max(_level_step(entering[1], 1).values())

    def reaches_max(top: int, allowed: dict[int, int]) -> bool:
        table = entering[top]
        for l in range(top, 0, -1):
            table = _level_step(table, l, allowed[l])
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
    min_count = (k - 1) - max_congested
    return {
        "k": k,
        "min_count": min_count,
        "floor": min_unclogged_floor(k),
        "max_congested": max_congested,
        "consumption_bound_holds": 4 * k - 4 <= 5 * min_count,
        "witnessing_expansion": SignedExpansion(CollapseMap(k, targets), signs),
    }
