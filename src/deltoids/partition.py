"""Left and right partition numbers with constructive partitions.

The right partition number rho is the least k for which B splits into k
disjoint right-admissible sets (math.inf when some element of B stabilizes
A); lambda is the analogue for A and is always finite.  Partitions are
realized by a capacity-k assignment found with augmenting paths and then
split across classes, so every answer ships with verifiable certificates.
"""

from __future__ import annotations

import math

from .errors import InfiniteRhoError, InternalInconsistencyError, InvalidInputError
from .groups import DEFAULT_ORDER_BOUND, GroupSet, _check_searchable, _Value
from .matching import (
    DEFAULT_SUBSET_BOUND,
    PartialMatching,
    Verdict,
    assign,
    slot_matchings,
    subset_least,
    verify_matching,
)
from .sets import Deltoid
from .structure import ObstructionWitness, verify_witness
from .transform import improving_terms


class AdmissiblePartition(_Value):
    """k disjoint admissible classes covering A (left) or B (right).

    classes[i] is certified by matchings[i]: the class is its domain on the
    left side and its range on the right side.  Trailing classes may be
    empty when k exceeds the minimum.
    """

    _fields = __slots__ = ("side", "classes", "matchings")

    def __init__(
        self, side: str, classes: tuple[GroupSet, ...], matchings: tuple[PartialMatching, ...]
    ):
        super().__init__(side, classes, matchings)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _rho_is_infinite(D: Deltoid) -> bool:
    # Some b in B has no edge at all iff A*b = A iff rho is infinite.
    mask = 0
    for row in D.rows:
        mask |= row
    return mask != D.full_mask


def _least_k(clear, n: int) -> int:
    # The least k in [1, n] with clear(k), for clear monotone in k and true
    # at k = n: double k from 1 until it clears, then bisect the last gap.
    # Small answers, the common case, take few probes.
    k = 1
    while k < n and not clear(k):
        k *= 2
    lo, hi = k // 2 + 1, min(k, n)
    while lo < hi:
        mid = (lo + hi) // 2
        if clear(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def rho(D: Deltoid, subset_bound: int = DEFAULT_SUBSET_BOUND) -> int | float:
    """Right partition number by the definitional subset sweep.

    math.inf when some element of B stabilizes A; otherwise the maximum of
    ceil(|U_S| / (|A| - |S|)) over proper subsets S, which is at least 1.
    Since ceil(u / r) <= k iff u <= k*r, with u = n - |delta(S)| that is
    the least k in [1, n] at which every S has |S| <= n - ceil(u / k),
    found by subset_least over the subset sweep of the rows.  S = A clears
    every k, since delta(A) = B when rho is finite.
    """
    if _rho_is_infinite(D):
        return math.inf
    n = D.size
    return subset_least(D.rows, 1, lambda k, y: n - _ceil_div(n - y, k), subset_bound)


def lambda_(D: Deltoid, subset_bound: int = DEFAULT_SUBSET_BOUND) -> int:
    """Left partition number: max of ceil(|S| / |delta(S)|) over nonempty S.

    Always finite since delta(S) is nonempty for nonempty S.  Since
    ceil(x / y) <= k iff x <= k*y, that is the least k in [1, n] at which
    every S has |S| <= k|delta(S)|, found by subset_least over the subset
    sweep of the rows.
    """
    k = subset_least(D.rows, 1, lambda k, y: k * y, subset_bound)
    # delta(S), the OR of S's rows, is empty for some nonempty S iff a row is
    # 0; otherwise k = n clears every S.  No row is 0: a + B inside A means
    # a + B = A (n elements each), so a = a + b for some b, and 0 = b is in B
    if 0 in D.rows:
        raise InternalInconsistencyError("nonempty S with empty neighborhood")
    return k


def _partition(D: Deltoid, k: int, side: str) -> AdmissiblePartition | None:
    # assign the rows (left) or columns (right) at capacity k; each class is
    # the sorted a's (left) or b's (right) of one slot_matchings slot
    if k < 1:
        raise InvalidInputError("k must be positive")
    if side == "left":
        holders, unplaced = D.row_assignment if k == 1 else assign(D.rows, k)
    else:
        holders, unplaced = assign(D.columns, k)
    if unplaced:
        return None
    pick = 0 if side == "left" else 1
    built = sorted(
        ((tuple(sorted(p[pick] for p in m.pairs)), m) for m in slot_matchings(D, holders, k, side)),
        key=lambda item: (-len(item[0]), item[0]),
    )
    classes = tuple(GroupSet(D.A.group, elems) for elems, _ in built)
    return AdmissiblePartition(side, classes, tuple(m for _, m in built))


def partition_left(D: Deltoid, k: int) -> AdmissiblePartition | None:
    """Split A into k disjoint left-admissible classes, or None if infeasible."""
    return _partition(D, k, "left")


def partition_right(D: Deltoid, k: int) -> AdmissiblePartition | None:
    """Split B into k disjoint right-admissible classes, or None if infeasible."""
    return _partition(D, k, "right")


def validate_partition(D: Deltoid, p: AdmissiblePartition) -> Verdict:
    """Check disjointness, coverage, and every class certificate."""
    if p.side not in ("left", "right"):
        return Verdict(False, f"unknown side {p.side!r}")
    if len(p.classes) != len(p.matchings):
        return Verdict(False, "classes and matchings differ in length")
    whole = D.A if p.side == "left" else D.B
    seen: set = set()
    for cls in p.classes:
        if cls.group != whole.group:
            return Verdict(False, "class lives in a different group")
        overlap = seen & cls.member_set
        if overlap:
            return Verdict(False, f"classes overlap at {sorted(overlap)[0]}")
        seen |= cls.member_set
    if seen != whole.member_set:
        return Verdict(False, "classes do not cover the whole side")
    pick = 0 if p.side == "left" else 1
    for cls, matching in zip(p.classes, p.matchings):
        check = verify_matching(D, matching)
        if not check:
            return Verdict(False, f"class certificate invalid: {check.reason}")
        covered = {pair[pick] for pair in matching.pairs}
        if covered != cls.member_set:
            return Verdict(False, "certificate does not cover its class")
    return Verdict(True)


def lambda_by_feasibility(D: Deltoid) -> int:
    """Exact lambda as the least feasible partition size; no sweep bound."""
    # a probe reads only the unplaced count, so it searches with lookahead
    return _least_k(lambda k: not assign(D.rows, k, lookahead=True)[1], D.size)


def rho_by_feasibility(D: Deltoid) -> int:
    """Exact finite rho as the least feasible size; InfiniteRhoError when infinite."""
    if _rho_is_infinite(D):
        raise InfiniteRhoError("some element of B stabilizes A")
    return _least_k(lambda k: not assign(D.columns, k, lookahead=True)[1], D.size)


def rho_by_pairs(D: Deltoid, order_bound: int = DEFAULT_ORDER_BOUND) -> int:
    """Finite rho as a maximum over the subgroup terms.

    Each H contributes ceil(|B n H| / (|A| - |full H-cosets in A|)); the
    floor of 1 comes from the empty-S pair.  Requires rho finite.  Reads
    only the two counts of each term (improving_terms).
    """
    if _rho_is_infinite(D):
        raise InfiniteRhoError("some element of B stabilizes A")
    _check_searchable(D.A.group, order_bound)
    n = D.size

    def score(full, inside):
        return math.inf if full >= n else _ceil_div(inside, n - full)

    best = 1
    for best, _, _ in improving_terms(D, score, 1):
        if best == math.inf:
            raise InternalInconsistencyError("A is a union of cosets meeting B")
    return best


def lambda_lower_bound(D: Deltoid, order_bound: int = DEFAULT_ORDER_BOUND) -> int:
    """Subgroup-indexed lower bound for lambda; equality is not guaranteed.

    Each H contributes ceil(|full H-cosets in A| / (|B| - |B n H|)), the
    floor being 1.  Reads only the two counts of each term (improving_terms).
    """
    _check_searchable(D.A.group, order_bound)
    n = D.size

    def score(full, inside):
        return math.inf if inside >= n else _ceil_div(full, n - inside)

    best = 1
    for best, _, _ in improving_terms(D, score, 1):
        if best == math.inf:
            raise InternalInconsistencyError("B inside a subgroup with a full coset in A")
    return best


def rho_estimate_from_witness(D: Deltoid, w: ObstructionWitness) -> int:
    """Lower bound ceil(|R| / |Y|) for rho extracted from a verified witness.

    The bound always lands at or below rho and strictly above
    |R| / (|R| - level).
    """
    verdict = verify_witness(D, w)
    if not verdict:
        raise InvalidInputError(f"witness does not verify: {verdict.reason}")
    if _rho_is_infinite(D):
        raise InfiniteRhoError("estimate needs a finite right partition number")
    if not w.Y.elements:
        raise InternalInconsistencyError("verified witness with empty Y yet finite rho")
    return _ceil_div(len(w.R.elements), len(w.Y.elements))
