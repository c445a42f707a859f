"""Validated matching instances and the neighborhoods of their subsets.

A matching instance is a pair (A, B) of equal-size finite subsets with the
identity excluded from B.  Its edge set pairs a in A with b in B whenever
a*b falls outside A.  The adjacency is stored one bitmask per row of A
(bit j of row i set iff a_i * b_j lies outside A): the neighborhood of a
subset of A is the OR of its rows, which is what the augmenting search and
the one subset sweep (matching.subset_blocks) read.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import or_

from .errors import (
    EmptySetError,
    GroupMismatchError,
    IdentityInBError,
    NotASubsetError,
    SizeMismatchError,
)
from .groups import (
    Element,
    GroupSet,
    _Value,
    canonicalize,
    compose,
    members,
    order,
    sums_in,
)


class Deltoid(_Value):
    """Validated instance (A, B) with its full adjacency, one bitmask per row."""

    _fields = ("A", "B", "rows")

    def __init__(self, A: GroupSet, B: GroupSet, rows: tuple[int, ...]):
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.A.elements)

    @cached_property
    def a_index(self) -> dict[Element, int]:
        return {a: i for i, a in enumerate(self.A.elements)}

    @cached_property
    def b_index(self) -> dict[Element, int]:
        return {b: j for j, b in enumerate(self.B.elements)}

    @cached_property
    def columns(self) -> tuple[int, ...]:
        """The adjacency by columns: bit i of columns[j] iff bit j of rows[i]."""
        # Each block of 256 rows is written as digits, last row first, into
        # a 256 * n byte buffer (one n * n buffer raises peak memory); column
        # j of a block is the strided slice from n - 1 - j, parsed in C.
        n = self.size
        cols = [0] * n
        for base in range(0, n, 256):
            block = self.rows[base:base + 256]
            bits = bytearray(len(block) * n)
            for i, row in enumerate(reversed(block)):
                bits[i * n:i * n + n] = format(row, f"0{n}b").encode()
            for j in range(n):
                cols[j] |= int(bits[n - 1 - j::n], 2) << base
        return tuple(cols)

    @cached_property
    def row_assignment(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The Kuhn-order assign of the rows at capacity 1: (holders, unplaced).

        Shared by the maximum matching and the one-class left partition;
        the holders are tuples, so no caller can change the cached search.
        """
        from .matching import assign  # matching builds on this module

        holders, unplaced = assign(self.rows, 1)
        return tuple(map(tuple, holders)), unplaced

    @cached_property
    def delta_terms(self):
        """The improving (value, full, inside) terms: transform._delta_terms, searched once.

        Shared by deficiency_by_subgroups, best_stabilizer_pair and
        find_witness, which each check their own order bound first.
        """
        from .transform import _delta_terms  # transform builds on this module

        return _delta_terms(self)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def column_set(self, mask: int) -> GroupSet:
        """Decode a column bitmask into the corresponding subset of B."""
        return GroupSet(self.B.group, members(mask, self.size, self.B.elements))


def build_deltoid(A: GroupSet, B: GroupSet) -> Deltoid:
    """Validate (A, B) and materialize the adjacency.

    Raises GroupMismatchError, EmptySetError, SizeMismatchError, or
    IdentityInBError when the instance is malformed.
    """
    if A.group != B.group:
        raise GroupMismatchError("A and B live in different groups")
    if not A.elements or not B.elements:
        raise EmptySetError("A and B must be nonempty")
    if len(A.elements) != len(B.elements):
        raise SizeMismatchError(f"|A| = {len(A.elements)} but |B| = {len(B.elements)}")
    if A.group.identity in B:
        raise IdentityInBError("the identity element may not appear in B")
    full = (1 << len(B.elements)) - 1
    rows = sums_in(A.group, A.elements, B.elements, A.elements)
    return Deltoid(A, B, tuple(full ^ row for row in rows))


def delta_mask(D: Deltoid, S: GroupSet) -> int:
    """Column bitmask of the b with some s*b outside A; NotASubsetError unless S is in A."""
    if S.group != D.A.group:
        raise NotASubsetError("subset lives in a different group")
    rows, idx = D.rows, D.a_index
    try:
        return reduce(or_, [rows[idx[a]] for a in S.elements], 0)
    except KeyError as missing:
        raise NotASubsetError(f"{missing.args[0]} is not in A") from None


def delta_set(D: Deltoid, S: GroupSet) -> GroupSet:
    """The set of b in B with S*b not contained in A; empty for empty S."""
    return D.column_set(delta_mask(D, S))


def u_set(D: Deltoid, S: GroupSet) -> GroupSet:
    """The complement of delta_set in B: the b with S*b inside A."""
    return D.column_set(D.full_mask & ~delta_mask(D, S))


def max_progression_length(A: GroupSet, x) -> int:
    """Longest run a, a*x, ..., a*x^(n-1) inside A with n-1 < order(x).

    Scans every start point; returns at least 1 for nonempty A and is
    capped at order(x) when a whole orbit of x lies inside A.
    """
    group = A.group
    x = canonicalize(group, x)
    ox = order(group, x)
    in_a = A.member_set
    best = 1
    for a in A.elements:
        length = 1
        cur = a
        while length < ox:
            cur = compose(group, cur, x)
            if cur not in in_a:
                break
            length += 1
        if length > best:
            best = length
    return best


def chowla_defect(B: GroupSet) -> int:
    """Number of elements of B whose order does not exceed |B|.

    This is the least d for which B is a d-defective Chowla set: all but at
    most d elements have order above |B|; zero means B is a Chowla set.
    """
    n = len(B.elements)
    return sum(1 for x in B.elements if order(B.group, x) <= n)
