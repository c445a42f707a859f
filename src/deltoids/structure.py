"""Obstruction witnesses and construction of pairs with forced deficiency.

A witness splits A = S + Y and B = R + Z (disjoint unions) with S a
nonempty union of <R>-cosets and |Y| < |R| - level; its existence is
equivalent to the deficiency exceeding the level.  This module searches
for witnesses, verifies them without running any matching, and builds
pairs of prescribed size whose deficiency exceeds a prescribed level.
"""

from __future__ import annotations

from .errors import (
    InternalInconsistencyError,
    InvalidParametersError,
    NoConstructionError,
)
from .groups import (
    DEFAULT_ORDER_BOUND,
    GroupSet,
    GroupSpec,
    _check_searchable,
    _Value,
    cosets_of,
    elements_of,
    enumerate_subgroups,  # noqa: F401  unused here; perfbench/replay.py wraps it by name
    first_subgroup_of_order,
)
from .matching import Verdict
from .sets import Deltoid
from .transform import _escape


class ObstructionWitness(_Value):
    """Decomposition A = S + Y, B = R + Z certifying deficiency > level."""

    _fields = __slots__ = ("S", "R", "Y", "Z", "level")

    def __init__(self, S: GroupSet, R: GroupSet, Y: GroupSet, Z: GroupSet, level: int):
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "level", level)


def find_witness(
    D: Deltoid, level: int, order_bound: int = DEFAULT_ORDER_BOUND
) -> ObstructionWitness | None:
    """First witness in canonical subgroup order, or None when none exists.

    For each subgroup H the only candidates worth trying are R = B n H and
    S = the full H-cosets inside A: shrinking R weakens |R| - level and S
    cannot grow past the full cosets.  A witness exists for some (S, R) iff
    one exists of this restricted shape.  Every term has S nonempty.

    The shape is a witness iff |S| - n + |R| > level, so the first entry
    of D.delta_terms above the level is it, the only term decoded.
    """
    if level < 0:
        raise InvalidParametersError("level must be nonnegative")
    group = D.A.group
    _check_searchable(group, order_bound)
    for value, S, R in D.delta_terms:
        if value > level:
            S, R = GroupSet(group, tuple(S)), GroupSet(group, tuple(R))
            return ObstructionWitness(S, R, D.A.difference(S), D.B.difference(R), level)
    return None


def verify_witness(D: Deltoid, w: ObstructionWitness) -> Verdict:
    """Check every witness invariant; a passing witness proves deficiency > level.

    No matching is run: the verdict rests only on the decomposition shape.
    The work is bounded by |S| * |R|, not by the order of <R>:
    <R> is infinite iff some r in R has a nonzero free coordinate, and a
    finite S is a union of <R>-cosets iff S + r lies in S for every r in R.
    Only if: s + r lies in the coset s + <R>.  If: translation by r maps
    the finite S injectively into S, hence onto S, so S - r = S as well;
    S is then closed under adding and subtracting each r in R, hence under
    <R>, and S is the union of the cosets s + <R> over s in S.
    """
    group = D.A.group
    for name, part in (("S", w.S), ("R", w.R), ("Y", w.Y), ("Z", w.Z)):
        if part.group != group:
            return Verdict(False, f"{name} lives in a different group")
    if w.level < 0:
        return Verdict(False, "level must be nonnegative")
    if w.S.member_set & w.Y.member_set:
        return Verdict(False, "S and Y overlap")
    if w.S.union(w.Y) != D.A:
        return Verdict(False, "S and Y do not partition A")
    if w.R.member_set & w.Z.member_set:
        return Verdict(False, "R and Z overlap")
    if w.R.union(w.Z) != D.B:
        return Verdict(False, "R and Z do not partition B")
    if not w.R.elements:
        return Verdict(False, "R is empty")
    if not w.S.elements:
        return Verdict(False, "S is empty")
    k = len(group.torsion)
    if any(any(r[k:]) for r in w.R.elements):
        return Verdict(False, "R generates an infinite subgroup")
    if _escape(w.S, w.R, w.S.elements) is not None:
        return Verdict(False, "S is not a union of cosets of the subgroup R generates")
    if not len(w.Y.elements) < len(w.R.elements) - w.level:
        return Verdict(
            False,
            f"|Y| = {len(w.Y.elements)} is not below |R| - level = "
            f"{len(w.R.elements) - w.level}",
        )
    return Verdict(True)


def existence_predicate(
    group: GroupSpec, n: int, level: int, order_bound: int = DEFAULT_ORDER_BOUND
) -> GroupSet | None:
    """A subgroup H with |H| <= n and |H| dividing none of n+1 .. n+level+1.

    Such a subgroup exists iff some pair (A, B) with |A| = |B| = n and the
    identity outside B has deficiency above the level.  The subgroup orders
    of a finite abelian group are the divisors of |G|, so only the smallest
    qualifying subgroup (canonical tie-break) is built; None if there is none.
    """
    if not group.is_finite:
        raise InvalidParametersError("existence search needs a finite group")
    if level < 0:
        raise InvalidParametersError("level must be nonnegative")
    _check_searchable(group, order_bound)
    size = group.order
    orders = [m for m in range(2, size) if size % m == 0]
    if not orders:
        raise InvalidParametersError("group has no nontrivial proper subgroup")
    if not orders[0] <= n < size:
        raise InvalidParametersError(f"n must satisfy {orders[0]} <= n < {size}, got {n}")
    m = next((m for m in orders if m <= n and all((n + j) % m for j in range(1, level + 2))), 0)
    if not m:
        return None
    return first_subgroup_of_order(group, m)


def construct_deficient_pair(
    group: GroupSpec, n: int, level: int, order_bound: int = DEFAULT_ORDER_BOUND
) -> ObstructionWitness:
    """The witness of a built pair A = S + Y, B = R + Z with deficiency > level.

    |A| = |B| = n and the identity lies outside B.  With H the qualifying
    subgroup, m = |H| and n = mq + r: S is the first q cosets of H and Y the
    first r elements outside them, R is H minus the identity and Z the first
    n - m + 1 elements outside H.  All free choices go to the smallest
    elements, so the output is deterministic.

    It is the witness find_witness(build_deltoid(S + Y, R + Z), level)
    returns, so no subgroup search is needed to find it again:
    (1) a term K of order k scoring |full_K(A)| - n + |B n K| > level has
    |full_K(A)| = tk <= n with t >= 1 and |B n K| <= k - 1, so
    (t + 1)k >= n + level + 2; no multiple of k lies in n+1 .. n+level+1,
    k qualifies, and k >= m.
    (2) the subgroup search runs in (size, elements) order and H is the
    canonically first subgroup of order m, so no term before H scores above
    the level.
    (3) H = <B n H> is a term and scores above the level: its full cosets in
    A are the q chosen ones (any other coset holds at most r < m elements of
    A), B n H = H minus the identity because Z lies outside H, and m divides
    none of n+1 .. n+level+1, which gives m - 1 - r > level.
    """
    sub = existence_predicate(group, n, level, order_bound)
    if sub is None:
        raise NoConstructionError(
            f"no subgroup qualifies for n = {n}, level = {level}"
        )
    m = len(sub.elements)
    q, r = divmod(n, m)
    cosets = cosets_of(group, sub)
    S = GroupSet.of(group, [x for coset in cosets[:q] for x in coset])
    everything = elements_of(group)
    Y = GroupSet.of(group, [x for x in everything if x not in S.member_set][:r])
    if len(Y.elements) < r:
        raise InternalInconsistencyError("ran out of elements for Y")
    z_count = n - m + 1
    Z = GroupSet.of(group, [x for x in everything if x not in sub.member_set][:z_count])
    if len(Z.elements) < z_count:
        raise InternalInconsistencyError("ran out of elements for Z")
    R = GroupSet(group, sub.elements[1:])  # the identity sorts first in H
    if len(S.union(Y).elements) != n or len(R.union(Z).elements) != n:
        raise InternalInconsistencyError("constructed sets have the wrong size")
    return ObstructionWitness(S=S, R=R, Y=Y, Z=Z, level=level)
