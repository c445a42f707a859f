"""Maximum partial matchings and the deficiency of an instance.

Two independent routes to the same number live here: an augmenting-path
maximum matching over the adjacency, and the definitional maximum of
|S| - |delta(S)| over all 2^|A| subsets (the defect form of Hall's
condition), folded over the one subset sweep: blocks of 2^16 subsets, each
two byte planes holding |S| and |N(S)| for its subsets S of a list of masks
(the rows here and for lambda, the columns for rho), of which a reader
keeps one number.  The two routes are cross-checked in the test suite.
The augmenting search is the capacity-k assign, which also builds the
admissible partitions.  Every certificate (matching pairs, partition
classes) is decoded by slot_matchings from its Kuhn order; a call that
needs only how many sources stay unplaced (deficiency, the least-k probes
behind rho and lambda) searches with lookahead: the same count, faster.
"""

from __future__ import annotations

from .errors import InvalidDefectError, ResourceLimitError
from .groups import Element, _Value
from .sets import Deltoid

DEFAULT_SUBSET_BOUND = 22

_BLOCK_ROWS = 16  # subset_blocks yields 2^16 subsets per block
_LANE_LIMIT = 127  # the largest n whose subset_blocks lanes never carry
_POPCOUNT = bytes(map(int.bit_count, range(256)))
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


class Verdict(_Value):
    """Outcome of a validity check; falsy with a reason when it fails."""

    _fields = __slots__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: str = ""):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok


class PartialMatching(_Value):
    """An injective partial assignment A -> B along the adjacency.

    pairs are (a, b) in canonical order of a; defect = |A| - len(pairs).
    """

    _fields = __slots__ = ("pairs", "defect")

    def __init__(self, pairs: tuple[tuple[Element, Element], ...], defect: int):
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "defect", defect)


def assign(masks, k: int, lookahead: bool = False) -> tuple[list[list[int]], int]:
    """Give each source a target from its bitmask, each target holding at most k.

    Bit t of masks[i] lets source i use target t; there are as many targets
    as sources.  Returns holders[target], the sources placed there, and the
    number of sources left unplaced.  An iterative Kuhn search, deterministic for
    fixed input: sources are placed in index order, targets scanned low bit
    first, and a full target's holders tried in list order.  On success each
    source on the path moves to the end of the holder list of the target its
    child left.  Path frames are (source, holder list of the full target it
    tried); the source being scanned is a holder in the top frame's list.

    Each source's search starts from the targets outside the dead set, kept
    as an unvisited mask that loses one bit per step.  A source that fails
    leaves every target it visited full, with every holder of those
    targets having all its candidates among them; no later augmenting path
    can pass through them, so they stay dead for later sources.  Skipping
    them changes neither the live targets visited nor their order.

    With lookahead, each step takes the lowest candidate that still has
    room, if any, before descending into a full one.  The unplaced count is
    the same (every search finds a maximum assignment), but the holders
    differ, so only callers that read the count alone pass it.
    """
    holders: list[list[int]] = [[] for _ in masks]
    free = (1 << len(masks)) - 1  # targets holding fewer than k sources
    live = free  # targets outside the dead set
    for root in range(len(masks)):
        unvisited = live
        src = root
        path = []
        while True:
            cand = masks[src] & unvisited
            if cand:
                if lookahead and cand & free:
                    cand &= free
                low = cand & -cand
                unvisited ^= low
                bucket = holders[low.bit_length() - 1]
                if len(bucket) < k:
                    bucket.append(src)
                    if len(bucket) == k:
                        free ^= low
                    for parent, bucket in reversed(path):
                        bucket.remove(src)
                        bucket.append(parent)
                        src = parent
                    break
                path.append((src, bucket))
                src = bucket[0]
            elif path:
                # src has no target left: the parent tries its next holder,
                # or else goes back to scanning its own targets
                parent, bucket = path[-1]
                nxt = bucket.index(src) + 1
                src = bucket[nxt] if nxt < len(bucket) else path.pop()[0]
            else:
                live = unvisited
                break
    return holders, len(masks) - sum(map(len, holders))


def max_matching(D: Deltoid) -> PartialMatching:
    """A maximum-cardinality partial matching, deterministic for fixed input.

    Rows are augmented in canonical order and columns scanned in canonical
    order, so equal inputs give byte-equal outputs.  The search runs once
    per deltoid and is cached on it.
    """
    return slot_matchings(D, D.row_assignment[0], 1, "left")[0]


def slot_matchings(D: Deltoid, holders, k: int, side: str) -> list[PartialMatching]:
    """The k matchings of assign's holders over D.rows (left) or D.columns (right).

    Slot h pairs each target with its h-th holder by index, so it sees every
    target at most once; its pairs are (a, b) in canonical order of a.
    """
    slots: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for target, sources in enumerate(holders):
        for h, src in enumerate(sorted(sources)):
            slots[h].append((src, target) if side == "left" else (target, src))
    a_elems, b_elems, n = D.A.elements, D.B.elements, D.size
    return [
        PartialMatching(tuple([(a_elems[i], b_elems[j]) for i, j in sorted(slot)]), n - len(slot))
        for slot in slots
    ]


def deficiency(D: Deltoid) -> int:
    """Smallest achievable defect: |A| minus the maximum matching size."""
    return assign(D.rows, 1, lookahead=True)[1]


def partial_matching_with_defect(D: Deltoid, d: int) -> PartialMatching | None:
    """A matching with defect exactly d, or None when d is below the deficiency."""
    if not 0 <= d <= D.size:
        raise InvalidDefectError(f"defect {d} outside 0..{D.size}")
    best = max_matching(D)
    if d < best.defect:
        return None
    keep = D.size - d
    return PartialMatching(best.pairs[:keep], d)


def _check_subset_bound(n: int, subset_bound: int) -> int:
    if n > subset_bound:
        raise ResourceLimitError(f"|A| = {n} exceeds subset sweep bound {subset_bound}")
    if n > _LANE_LIMIT:
        raise ResourceLimitError(f"|A| = {n} exceeds subset sweep lane limit {_LANE_LIMIT}, "
                                 "which subset_bound cannot raise")
    return n


def subset_blocks(masks, subset_bound: int = DEFAULT_SUBSET_BOUND):
    """Sizes and neighborhood sizes of all 2^n subsets of n masks, by blocks.

    Yields (sizes, degrees) for 2^16 subsets at a time in subset order, one
    byte each: |S| and |N(S)|, S the positions set in the subset's index and
    N(S) the OR of their masks.  A block's N(S) are the lanes of one int,
    grown by doubling over the first 16 masks and ORed in every lane with
    the OR of the others that the block's index picks, popcounted a byte at
    a time through a table; its sizes are those of the first 16 masks plus
    the count of the others.  One block is held at a time, whatever n is.
    Refuses n above subset_bound at the call, not at the first block.

    Both planes hold values up to n.  Their readers add them lane by lane as
    one int, sums up to 2n in deficiency_by_subsets and n + 127 in
    subset_least_k, so no lane carries into the next while n <= 127, the
    lane limit that _check_subset_bound enforces.
    """
    n = _check_subset_bound(len(masks), subset_bound)
    width = (n + 7) // 8  # bytes per lane, enough for one N(S)
    head, lanes, ones, low = bytearray(1), 1, 1, 0
    for mask in masks[:_BLOCK_ROWS]:
        head += head.translate(_PLUS_ONE)
        shift = lanes * 8 * width
        low |= (low | mask * ones) << shift
        ones |= ones << shift
        lanes *= 2
    rest = masks[_BLOCK_ROWS:]

    def blocks():
        for tail in range(1 << len(rest)):
            high = 0  # the OR of the other masks that tail's bits pick
            for i, mask in enumerate(rest):
                if tail >> i & 1:
                    high |= mask
            counts = (low | high * ones).to_bytes(lanes * width, "little").translate(_POPCOUNT)
            if width > 1:
                # at most n <= 255 per lane, so the byte sums never carry
                total = sum(int.from_bytes(counts[i::width], "little") for i in range(width))
                counts = total.to_bytes(lanes, "little")
            plus = tail.bit_count()  # how many of the other masks each S of the block holds
            yield head.translate(bytes(range(plus, 256)).ljust(256)) if plus else head, counts

    return blocks()


def subset_least_k(masks, subset_bound: int = DEFAULT_SUBSET_BOUND) -> int:
    """The least k in [1, n] at which no S has |S| > k|N(S)| (see subset_blocks).

    lambda's test on D.rows, rho's on D.columns.  It is monotone in k and the
    caller makes k = n clear, so k only grows: a block failing at k is probed
    at k + 1, at most blocks + n - 1 probes in all.  Refuses n above subset_bound.
    """
    blocks = subset_blocks(masks, subset_bound)  # refuses n before a table is built
    n = len(masks)
    # clear(k): no lane of sizes + T_k[degrees], T_k[y] = 127 - min(k * y, n),
    # reaches 128; a lane of sizes holds some x <= n, so it does iff x > k * y
    pad, k = bytes([127 - n]), 1
    for sizes, degrees in blocks:
        fixed = int.from_bytes(sizes, "little")
        while k < n:
            table = bytes(range(127, 126 - n, -k)).ljust(256, pad)
            lanes = fixed + int.from_bytes(degrees.translate(table), "little")
            if lanes.to_bytes(len(degrees), "little").isascii():
                break
            k += 1
    return k


def deficiency_by_subsets(D: Deltoid, subset_bound: int = DEFAULT_SUBSET_BOUND) -> int:
    """Definitional oracle: max over all S of |S| - |delta(S)|.

    The largest lane of |S| + (n - |delta(S)|), at least n from S empty: a
    running best, which each block of subset_blocks raises to the largest
    value it holds above it.  Refuses instances above subset_bound.
    """
    blocks = subset_blocks(D.rows, subset_bound)  # refuses n before a table is built
    n, best = D.size, D.size
    rest = bytes(range(n, -1, -1)).ljust(256, b"\0")  # x -> n - x
    for sizes, degrees in blocks:
        lanes = int.from_bytes(sizes, "little") + int.from_bytes(degrees.translate(rest), "little")
        lanes = lanes.to_bytes(len(sizes), "little")
        for top in range(2 * n, best, -1):
            if top in lanes:
                best = top
                break
    return best - n


def verify_matching(D: Deltoid, f: PartialMatching) -> Verdict:
    """Check injectivity, adjacency membership, and defect bookkeeping."""
    a_index = D.a_index
    b_index = D.b_index
    seen_a: set[int] = set()
    seen_b: set[int] = set()
    for a, b in f.pairs:
        i = a_index.get(a)
        if i is None:
            return Verdict(False, f"domain element {a} is not in A")
        j = b_index.get(b)
        if j is None:
            return Verdict(False, f"range element {b} is not in B")
        if i in seen_a:
            return Verdict(False, f"domain element {a} is used twice")
        if j in seen_b:
            return Verdict(False, f"range element {b} is used twice")
        seen_a.add(i)
        seen_b.add(j)
        if not D.adjacent(i, j):
            return Verdict(False, f"pair ({a}, {b}) lands back inside A")
    if f.defect != D.size - len(f.pairs):
        return Verdict(
            False, f"defect {f.defect} != |A| - pairs = {D.size - len(f.pairs)}"
        )
    return Verdict(True)
