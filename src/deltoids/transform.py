"""The Dyson e-transform and the subgroup-indexed route to the deficiency.

The transform grows S and shrinks R while preserving |S| + |R|, stopping
once S*R = S.  Stabilized pairs are exactly the unions of cosets of <R>,
which reduces the pair-indexed deficiency formula to a single maximization
over subgroups; that reduction is certified against exhaustive pair
enumeration in the test suite.
"""

from __future__ import annotations

from itertools import islice

from .errors import InternalInconsistencyError, InvalidInputError
from .groups import (
    DEFAULT_ORDER_BOUND,
    Element,
    GroupSet,
    _check_searchable,
    _search_subgroups,
    _Value,
    canonicalize,
    compose,
    enumerate_subgroups,  # noqa: F401  unused here; perfbench/replay.py wraps it by name
    invert,
    sums_in,
)
from .matching import Verdict
from .sets import Deltoid


class StabilizerPair(_Value):
    """A pair (S, R) with S*R = S, scored by |S| - |B \\ R|."""

    _fields = __slots__ = ("S", "R", "value")

    def __init__(self, S: GroupSet, R: GroupSet, value: int):
        super().__init__(S, R, value)

    def validate(self, D: Deltoid) -> Verdict:
        group = D.A.group
        for name, part in (("S", self.S), ("R", self.R)):
            if part.group != group:
                return Verdict(False, f"{name} lives in a different group")
        if not self.S.issubset(D.A):
            return Verdict(False, "S is not a subset of A")
        if not self.R.member_set <= D.B.member_set | {group.identity}:
            return Verdict(False, "R is not a subset of B plus identity")
        escape = _escape(self.S, self.R, self.S.elements)
        if escape is not None:
            return Verdict(False, "{}*{} leaves S, so S*R != S".format(*escape))
        expected = len(self.S.elements) - len(D.B.difference(self.R).elements)
        if self.value != expected:
            return Verdict(False, f"value {self.value} != |S| - |B \\ R| = {expected}")
        return Verdict(True)


def e_transform_step(
    S: GroupSet, R: GroupSet, e: Element, r: Element
) -> tuple[GroupSet, GroupSet]:
    """One transform step: S1 = S union e*R, R1 = R intersect S*e^-1.

    Requires the identity in R, e in S, r in R, and e*r outside S (the
    witness that S*R != S).  The step conserves |S| + |R| and strictly
    grows S.
    """
    group = S.group
    if R.group != group:
        raise InvalidInputError("S and R live in different groups")
    e = canonicalize(group, e)
    r = canonicalize(group, r)
    if group.identity not in R:
        raise InvalidInputError("identity must be in R")
    if e not in S:
        raise InvalidInputError(f"e = {e} is not in S")
    if r not in R:
        raise InvalidInputError(f"r = {r} is not in R")
    if compose(group, e, r) in S:
        raise InvalidInputError(f"e*r = {compose(group, e, r)} is in S; not a witness")
    e_inv = invert(group, e)
    s1 = GroupSet.of(group, list(S.elements) + [compose(group, e, x) for x in R.elements])
    shifted = {compose(group, s, e_inv) for s in S.elements}
    r1 = GroupSet(group, tuple(x for x in R.elements if x in shifted))
    # conservation |S1| + |R1| = |S| + |R| is forced; anything else is a bug
    if len(s1.elements) + len(r1.elements) != len(S.elements) + len(R.elements):
        raise InternalInconsistencyError("e-transform step changed |S| + |R|")
    return s1, r1


def _escape(S: GroupSet, R: GroupSet, E) -> tuple[Element, Element] | None:
    # First (e, r) in canonical order with e*r outside the elements E, or
    # None; with E = S, an e-transform witness.  e is the lowest bit missed
    # by some sums_in row over S per r, and r the first r whose row misses it.
    full = (1 << len(S.elements)) - 1
    rows = sums_in(S.group, R.elements, S.elements, E)
    missed = 0
    for row in rows:
        missed |= full ^ row
    if not missed:
        return None
    low = missed & -missed
    r = next(r for r, row in zip(R.elements, rows) if row & low == 0)
    return S.elements[low.bit_length() - 1], r


def stabilize(A: GroupSet, S: GroupSet, R: GroupSet) -> tuple[GroupSet, GroupSet]:
    """Iterate the e-transform until S*R = S.

    Requires nonempty S and R, the identity in R, and S*R inside A.  The
    result (S', R') satisfies S within S'*R' = S' within A, identity in
    R' within R, and |S'| + |R'| = |S| + |R|.  Terminates because S grows
    strictly inside the finite set A.
    """
    group = A.group
    if S.group != group or R.group != group:
        raise InvalidInputError("A, S, R must live in one group")
    if not S.elements or not R.elements:
        raise InvalidInputError("S and R must be nonempty")
    if group.identity not in R:
        raise InvalidInputError("identity must be in R")
    escape = _escape(S, R, A.elements)
    if escape is not None:
        raise InvalidInputError("S*R leaves A at {}*{}".format(*escape))
    while True:
        witness = _escape(S, R, S.elements)
        if witness is None:
            return S, R
        S, R = e_transform_step(S, R, *witness)


def improving_terms(D: Deltoid, *scored):
    """Yield (*bests, full, inside) per subgroup term that beats some score's best.

    scored holds (score, floor) pairs, and bests are each score's best so
    far, from its floor, after the term.  The terms are
    (full H-cosets inside A, B n H) per H = <B n H> != 1 with a full coset
    in A: the subgroup search over B within A, in canonical order (size,
    then elements), each part a sized view of its elements, decoded only
    when iterated.  Every formula gets the answers of a scan over all
    subgroups: <B n H> keeps B n H and H's full cosets, scores no lower and
    sorts no later, and a subgroup with no full coset in A scores at most
    what the trivial subgroup does.

    A score reads (|full H-cosets inside A|, |B n H|) and does not decrease
    in either count.  A supergroup H' of H has
    |H'| <= |full(H')| <= |full(H)| and |B n H'| <= |H'| - 1 (the identity
    is not in B), so it scores at most score(|full(H)|, |full(H)| - 1).  H
    is grown while that beats some score's best, so no term that could beat
    a best is lost: for each score, the terms that raise its best are those
    of the unpruned scan.
    """
    held = [[score, floor] for score, floor in scored]  # each score and its best

    def grows(f):
        for score, best in held:
            if score(f, f - 1) > best:
                return True
        return False

    terms = _search_subgroups(D.A.group, D.B.elements, D.A.elements, grows)
    next(terms)  # the trivial subgroup: full = A, B n H empty
    for inside, full in terms:
        f, i, improved = len(full), len(inside), False
        for entry in held:
            if (value := entry[0](f, i)) > entry[1]:
                entry[1] = value
                improved = True
        if improved:
            yield (*[best for _, best in held], full, inside)


class _Chain:
    """The entries of a search, drawn from it only as far as a reader goes.

    Iterating yields the entries kept so far, then draws and keeps more
    from search(); [-1] drains it.  A draw that raises keeps what was kept,
    and the next draw starts the search again past those entries.  Once
    the search runs out, search is dropped and readers get the kept list.
    """

    __slots__ = ("_kept", "_search", "_rest")

    def __init__(self, first, search):
        self._kept, self._search, self._rest = [first], search, None

    def _draw(self, count):
        # keep up to count more entries (None: all); whether any came
        rest = self._rest or islice(self._search(), len(self._kept) - 1, None)
        self._rest, kept = None, len(self._kept)  # a draw that raises restarts
        self._kept.extend(islice(rest, count))
        drawn = len(self._kept) - kept
        if count is None or drawn < count:
            self._search = None  # drained
        else:
            self._rest = rest
        return drawn > 0

    def __iter__(self):
        return iter(self._kept) if self._search is None else self._walk()

    def _walk(self):
        i = 0
        while i < len(self._kept) or self._search is not None and self._draw(1):
            yield self._kept[i]
            i += 1

    def __getitem__(self, index):
        if self._search is not None:
            self._draw(None)
        return self._kept[index]


def _delta_terms(D: Deltoid) -> _Chain:
    # The chain of improving terms |full(H)| - n + |B n H| from the trivial
    # (0, A, ()): the last is the canonically first best, and the first above
    # a level L is the first term above L, as each term before it scores at
    # most L.  Deltoid.delta_terms keeps it; each reader checks its own bound.
    n = D.size
    scored = (lambda f, inside: f - n + inside, 0)
    return _Chain((0, D.A, ()), lambda: improving_terms(D, scored))


def deficiency_by_subgroups(D: Deltoid, order_bound: int = DEFAULT_ORDER_BOUND) -> int:
    """Deficiency as a maximum over subgroups H.

    Each H contributes |full H-cosets inside A| - |B| + |B intersect H|;
    the trivial subgroup contributes 0, so the result is never negative.
    Only the stabilized pairs (S = full coset union, R = (B n H) + identity)
    can attain the pair-formula maximum, which makes this exact.  Reads
    the last entry of D.delta_terms, the one subgroup search per deltoid.
    """
    _check_searchable(D.A.group, order_bound)
    return D.delta_terms[-1][0]


def best_stabilizer_pair(
    D: Deltoid, order_bound: int = DEFAULT_ORDER_BOUND
) -> StabilizerPair:
    """A witnessing pair attaining the subgroup maximum.

    Starts from the trivial subgroup's pair (A, {identity}) of value 0 and
    keeps the first strict improvement in canonical subgroup order, so the
    returned pair is deterministic.  Only the kept term is decoded.
    """
    group = D.A.group
    _check_searchable(group, order_bound)
    value, full, inside = D.delta_terms[-1]
    # the identity sorts first in a finite group and lies outside B
    paired_r = GroupSet(group, (group.identity, *inside))
    return StabilizerPair(GroupSet(group, tuple(full)), paired_r, value)
