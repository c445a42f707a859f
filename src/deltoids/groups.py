"""Arithmetic in finitely generated abelian groups.

A group is presented as Z/n1 x ... x Z/nk x Z^r.  Elements are canonical
integer tuples: torsion coordinates first, reduced into [0, n_i), then the
free coordinates over Z.  The identity is the zero vector.  Finite
subsets, subgroups included, are GroupSets.  All values here are immutable
and every operation is a pure function.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, reduce
from itertools import compress, product
from math import gcd, lcm, prod
from operator import add, and_, attrgetter, index, itemgetter, neg, or_

from .errors import (
    GroupMismatchError,
    InfiniteSubgroupError,
    InvalidElementError,
    ResourceLimitError,
    UnsupportedInfiniteGroupError,
)

Element = tuple[int, ...]

DEFAULT_ORDER_BOUND = 10_000


class _Value:
    """Immutable value: equality (within one class), hash, repr and pickling
    over the fields named in _fields, which __init__ sets once through
    object.__setattr__; setting or deleting an attribute raises
    AttributeError.  cached_property writes to the instance __dict__, so it
    works on subclasses without __slots__.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # every subclass has at least two fields, so _key returns a tuple
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        # most comparisons are of a group with itself, e.g. in _same_group
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = (f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{self.__class__.__name__}({', '.join(fields)})"

    def __reduce__(self):
        return self.__class__, self._key(self)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__


class GroupSpec(_Value):
    """An abelian group Z/n1 x ... x Z/nk x Z^r; moduli >= 2, free_rank >= 0.

    The trivial group is torsion=() with free_rank=0.
    """

    _fields = __slots__ = ("torsion", "free_rank")

    def __init__(self, torsion: tuple[int, ...] = (), free_rank: int = 0):
        try:
            torsion, free_rank = tuple(map(index, torsion)), index(free_rank)
        except TypeError:
            raise InvalidElementError(
                f"torsion moduli and free_rank must be integers, got {torsion!r}, {free_rank!r}"
            ) from None
        if any(n < 2 for n in torsion):
            raise InvalidElementError(f"torsion moduli must be >= 2, got {torsion}")
        if free_rank < 0:
            raise InvalidElementError(f"free_rank must be >= 0, got {free_rank}")
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "free_rank", free_rank)

    @property
    def dimension(self) -> int:
        return len(self.torsion) + self.free_rank

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def order(self) -> int | float:
        return prod(self.torsion) if self.is_finite else math.inf

    @property
    def identity(self) -> Element:
        return (0,) * self.dimension


def _check_dimension(group: GroupSpec, elements) -> None:
    dimension = group.dimension
    for x in elements:
        if len(x) != dimension:
            raise InvalidElementError(
                f"element of length {len(x)} does not fit group of dimension {dimension}"
            )


def canonicalize(group: GroupSpec, coords) -> Element:
    """Reduce torsion coordinates mod n_i; free coordinates pass through."""
    _check_dimension(group, (coords,))
    k = len(group.torsion)
    head = tuple(int(c) % n for c, n in zip(coords, group.torsion))
    return head + tuple(int(c) for c in coords[k:])


def compose(group: GroupSpec, x: Element, y: Element) -> Element:
    """Group operation: componentwise addition, torsion coordinates mod n_i."""
    _check_dimension(group, (x, y))
    k = len(group.torsion)
    head = tuple((a + b) % n for a, b, n in zip(x, y, group.torsion))
    return head + tuple(a + b for a, b in zip(x[k:], y[k:]))


def invert(group: GroupSpec, x: Element) -> Element:
    _check_dimension(group, (x,))
    k = len(group.torsion)
    head = tuple(-a % n for a, n in zip(x, group.torsion))
    return head + tuple(-a for a in x[k:])


def order(group: GroupSpec, x: Element) -> int | float:
    """Least n >= 1 with n*x = 0; math.inf when a free coordinate is nonzero."""
    _check_dimension(group, (x,))
    k = len(group.torsion)
    if any(c != 0 for c in x[k:]):
        return math.inf
    o = 1
    for c, n in zip(x, group.torsion):
        o = lcm(o, n // gcd(n, c))
    return o


def elements_of(group: GroupSpec) -> list[Element]:
    """All elements of a finite group in lexicographic order."""
    if not group.is_finite:
        raise UnsupportedInfiniteGroupError("cannot enumerate an infinite group")
    return list(product(*(range(n) for n in group.torsion)))


class GroupSet(_Value):
    """A deduplicated, canonically sorted finite subset of a group.

    Instance sets, certificate parts and subgroups are all GroupSets.
    Build one with :meth:`of`; the raw constructor trusts its input.
    """

    _fields = ("group", "elements")

    def __init__(self, group: GroupSpec, elements: tuple[Element, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "elements", elements)

    @classmethod
    def of(cls, group: GroupSpec, elements) -> "GroupSet":
        canon = sorted({canonicalize(group, e) for e in elements})
        return cls(group, tuple(canon))

    @cached_property
    def member_set(self) -> frozenset[Element]:
        return frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self.member_set

    def _same_group(self, other: "GroupSet") -> None:
        if self.group != other.group:
            raise GroupMismatchError("sets live in different groups")

    def union(self, other: "GroupSet") -> "GroupSet":
        self._same_group(other)
        return GroupSet(self.group, tuple(sorted(self.member_set | other.member_set)))

    def intersection(self, other: "GroupSet") -> "GroupSet":
        self._same_group(other)
        return GroupSet(self.group, tuple(sorted(self.member_set & other.member_set)))

    def difference(self, other: "GroupSet") -> "GroupSet":
        self._same_group(other)
        return GroupSet(self.group, tuple(sorted(self.member_set - other.member_set)))

    def issubset(self, other: "GroupSet") -> bool:
        self._same_group(other)
        return self.member_set <= other.member_set


def generate_subgroup(group: GroupSpec, generators) -> GroupSet:
    """Closure of the generators (plus identity) under the group operation.

    Only defined when the closure is finite: every generator must have all
    free coordinates zero, otherwise InfiniteSubgroupError is raised.
    """
    k = len(group.torsion)
    gens = []
    for g in generators:
        g = canonicalize(group, g)
        if any(c != 0 for c in g[k:]):
            raise InfiniteSubgroupError(f"generator {g} has infinite order")
        gens.append(g)
    # <H, g> is the union of the cosets H + j*g for j = 0 .. m - 1, where m
    # is the least j >= 1 with j*g in H; a generator already in H adds nothing.
    # Each coset is the last one plus g, and leads with j*g since H leads
    # with the identity.
    elems = [group.identity]
    seen = {group.identity}
    for g in gens:
        if g in seen:
            continue
        coset, elems = elems, list(elems)
        while True:
            coset = [compose(group, x, g) for x in coset]
            if coset[0] in seen:
                break
            elems.extend(coset)
        seen = set(elems)
    return GroupSet(group, tuple(sorted(elems)))


# --- bitmask kernel ---------------------------------------------------------

# One bit of a mask costs about a thousandth of a tuple lookup, so masks
# are used while they hold at most this many bits per input element.
# Beyond that (a huge torsion order next to a small set) the plain lookup
# path is faster, and masks would grow with the modulus, not the input.
_MASK_BITS_PER_ELEMENT = 1024

# binary digits "0"/"1" to the byte values 0/1, selectors for compress
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def members(mask: int, width: int, items, codes=None) -> tuple:
    """The items whose codes are set in a width-bit mask; codes[i] (default i) codes items[i]."""
    bits = format(mask, f"0{width}b")[::-1].encode().translate(_BIT_VALUES)
    return tuple(compress(items, bits if codes is None else map(bits.__getitem__, codes)))


class _Masks:
    """Sets of group elements as int bitmasks over the torsion part.

    The torsion part of an element gets the mixed-radix code
    sum(x_i * stride_i), last coordinate fastest, so code order is the
    canonical tuple order.  A set becomes one mask per distinct free part
    (bit c set iff the element with torsion code c is present), so no mask
    is longer than the torsion order.  Callers check element lengths.
    """

    __slots__ = ("torsion", "axes", "size")

    def __init__(self, group: GroupSpec):
        self.torsion = group.torsion
        self.size = size = prod(self.torsion)
        # per axis: modulus n, stride s, and a mask with bit 0 of every
        # block of n * s bits set
        axes = []
        stride = 1
        for n in reversed(self.torsion):
            axes.append((n, stride, ((1 << size) - 1) // ((1 << n * stride) - 1)))
            stride *= n
        self.axes = tuple(reversed(axes))

    def code(self, x) -> int:
        """Code of x's torsion part; coordinates are reduced mod n_i first."""
        code = 0
        for c, n in zip(x, self.torsion):
            code = code * n + c % n
        return code

    def masks(self, elements) -> dict[tuple[int, ...], int]:
        """One mask per free part of the given elements."""
        k = len(self.torsion)
        out: dict[tuple[int, ...], int] = {}
        for x in elements:
            key = tuple(x[k:])
            out[key] = out.get(key, 0) | 1 << self.code(x)
        return out

    def translate(self, mask: int, shift) -> int:
        """The set mask + shift; shift's torsion coordinates (any ints) count.

        Per axis, every block of n_i * stride_i bits rotates by
        shift_i * stride_i: the low part moves up, the rest wraps down.
        """
        for c, (n, s, rep) in zip(shift, self.axes):
            c %= n
            if c:
                cut = (n - c) * s
                low = mask & rep * ((1 << cut) - 1)
                mask = low << c * s | (mask ^ low) >> cut
        return mask


def sums_in(group: GroupSpec, X, Y, E) -> list[int]:
    """For each x in X, the bitmask over Y of the y with x + y in E.

    Bit j of the i-th mask is set iff X[i] + Y[j] lies in E.  Torsion
    coordinates may be unreduced; a wrong length raises InvalidElementError.
    The library's only choice between int masks and set lookups is made here.
    """
    X, Y, E = tuple(X), tuple(Y), tuple(E)
    for part in (X, Y, E):
        _check_dimension(group, part)
    if not Y:
        return [0] * len(X)
    k = len(group.torsion)
    size = prod(group.torsion)
    offsets: dict[tuple[int, ...], int] = {}
    for y in Y:
        offsets.setdefault(tuple(y[k:]), len(offsets) * size)
    if len(offsets) * size > _MASK_BITS_PER_ELEMENT * len(Y):
        # a mask row would be far longer than the |Y| lookups it replaces
        e_set = {canonicalize(group, e) for e in E}
        return [
            sum(1 << j for j, y in enumerate(Y) if compose(group, x, y) in e_set) for x in X
        ]
    # y lies in E - x iff its code is set in the mask of E's free part
    # x_free + y_free, translated by -x_torsion.  Each row is one string of
    # those masks for Y's free parts side by side, size bits each; one
    # itemgetter picks y_{n-1} .. y_0 out of it as binary digits (a single
    # character when |Y| = 1, which join passes through).
    masks = _Masks(group)
    e_masks = masks.masks(E)
    pick = itemgetter(*[offsets[tuple(y[k:])] + size - 1 - masks.code(y) for y in reversed(Y)])
    zeros, width = "0" * size, f"0{size}b"
    rows = []
    for x in X:
        shift = tuple(map(neg, x[:k]))
        free = x[k:]
        parts = []
        for f in offsets:
            mask = e_masks.get(tuple(map(add, free, f)))
            parts.append(format(masks.translate(mask, shift), width) if mask else zeros)
        rows.append(int("".join(pick("".join(parts))), 2))
    return rows


def _saturate(masks: _Masks, mask: int, shifted: int, x: Element, combine) -> int:
    # combine = or_: the least superset of mask closed under +x; and_: the
    # greatest subset.  Doubles the run of translates mask + k*x, from
    # shifted = mask + x, until closed.
    out = combine(mask, shifted)
    step = x
    while out and masks.translate(out, x) != out:
        step = tuple(2 * c for c in step)
        out = combine(out, masks.translate(out, step))
    return out


def _check_searchable(group: GroupSpec, order_bound: int) -> None:
    if not group.is_finite:
        raise UnsupportedInfiniteGroupError("subgroup formulas need a finite group")
    if group.order > order_bound:
        raise ResourceLimitError(
            f"group order {group.order} exceeds enumeration bound {order_bound}"
        )


class _Members:
    """The items whose codes are set in a mask, decoded only when iterated.

    Every set bit codes one item, so len() is the popcount.
    """

    __slots__ = ("masks", "mask", "items", "codes")

    def __init__(self, masks: _Masks, mask: int, items, codes):
        self.masks, self.mask, self.items, self.codes = masks, mask, items, codes

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        return iter(members(self.mask, self.masks.size, self.items, self.codes))


def _search_subgroups(group: GroupSpec, generators, within, grows=None):
    """The subgroups H generated by elements of `generators` that have a
    full coset in the finite set `within`, lazily in canonical order: size,
    then elements.

    From the trivial subgroup, joins one generator per coset of the
    subgroup being grown.  A subgroup H carries the mask of the x with
    x + H inside `within`, ANDed from the mask of the subgroup it grew
    from; at 0 H is dropped ungrown, since no supergroup has a full coset
    either.  Yields (H n generators, the x in within with x + H inside
    within) per kept H, as _Members.  A join is larger than the subgroup
    it grew from, so the subgroups of each size are all found once every
    smaller one is grown; each size is then sorted and yielded in turn.
    After each H, grows(|full cosets|) says whether to grow it (None:
    always); a supergroup reached only through ungrown subgroups is never
    found.  Its callers have checked the group with _check_searchable.
    """
    masks = _Masks(group)
    generators, within = tuple(generators), tuple(within)
    gen_codes = [masks.code(x) for x in generators]
    within_codes = [masks.code(x) for x in within]
    gens = list(zip(gen_codes, generators))
    in_generators = sum(1 << code for code in gen_codes)
    width = f"0{masks.size}b"
    found = {1: sum(1 << code for code in within_codes)}
    by_size = {1: [1]}  # the trivial subgroup: the identity has code 0
    while by_size:
        # of two sets of one size, the one holding the lowest code where they
        # differ comes first: it has the larger mask with the bits reversed
        level = by_size.pop(min(by_size))
        level.sort(key=lambda h: int(format(h, width)[::-1], 2), reverse=True)
        for base in level:
            full = found[base]
            yield (_Members(masks, base & in_generators, generators, gen_codes),
                   _Members(masks, full, within, within_codes))
            if grows is not None and not grows(full.bit_count()):
                continue
            covered = base
            for code, x in gens:
                if covered >> code & 1:
                    continue
                # every element of the coset x + base gives the same join
                shifted = masks.translate(base, x)
                covered |= shifted
                joined = _saturate(masks, base, shifted, x, or_)
                if joined not in found:
                    shifted = masks.translate(full, x)
                    found[joined] = joined_full = _saturate(masks, full, shifted, x, and_)
                    if joined_full:
                        by_size.setdefault(joined.bit_count(), []).append(joined)


def enumerate_subgroups(
    group: GroupSpec, order_bound: int = DEFAULT_ORDER_BOUND
) -> list[GroupSet]:
    """Every subgroup of a finite group, each exactly once.

    The subgroup search over every element, nothing cached: a subgroup is
    the join of a chain of its elements from the trivial one, so none is
    missed.  Sorted by size, then lexicographically by element tuple.
    """
    _check_searchable(group, order_bound)  # before the elements are listed
    everything = elements_of(group)
    return [GroupSet(group, tuple(h))
            for h, _ in _search_subgroups(group, everything, everything)]


def first_subgroup_of_order(group: GroupSpec, m: int) -> GroupSet:
    """The canonically first subgroup of order m of a finite group; m divides |G|.

    Greedy in code order: a join whose order divides m lies in an order-m
    subgroup (G/H has subgroups of all orders dividing its own), and those
    holding x sort first, since they all agree with H below x.  A rejected
    x stays rejected as H grows; none joins at |H| = m.
    """
    masks, everything, h = _Masks(group), elements_of(group), 1
    for code, x in enumerate(everything):
        if h.bit_count() < m and not (h >> code & 1 or m % order(group, x)):
            joined = _saturate(masks, h, masks.translate(h, x), x, or_)
            h = joined if m % joined.bit_count() == 0 else h
    return GroupSet(group, members(h, masks.size, everything))


def full_cosets_within(group: GroupSpec, elements, sub: GroupSet) -> tuple[Element, ...]:
    """The union of the H-cosets fully contained in the given finite set.

    The x with x + H inside the set are the AND over h in H of the sums_in
    rows of h; the result size is always a multiple of |H|.  Torsion
    coordinates may be unreduced and are returned as given.  Works in
    infinite ambient groups since H is finite and only the finite input set
    is scanned.
    """
    elements = tuple(elements)
    rows = sums_in(group, sub.elements, elements, elements)
    inside = reduce(and_, rows, (1 << len(elements)) - 1)
    return tuple(sorted(members(inside, len(elements), elements)))


def cosets_of(group: GroupSpec, sub: GroupSet) -> list[tuple[Element, ...]]:
    """All cosets x + H of a subgroup as sorted tuples, ordered by smallest member."""
    seen: set[Element] = set()
    out = []
    for g in elements_of(group):
        if g in seen:
            continue
        coset = tuple(sorted(compose(group, g, h) for h in sub.elements))
        seen.update(coset)
        out.append(coset)
    return out


# --- group literal syntax ("Z12", "Z2xZ4", "Z2xZ", "Z1" for the trivial group) ---

# the "group" pattern of docs/instance.schema.json is "^(" + this + ")$"
_LITERAL = re.compile("Z1|Z(xZ)*|Z0*([2-9]|[1-9][0-9]+)(xZ0*([2-9]|[1-9][0-9]+))*(xZ)*")


def parse_group(literal: str) -> GroupSpec:
    """Parse a group literal: cyclic factors "Z<n>", bare "Z" for a free factor.

    A literal is valid iff _LITERAL matches all of it: no whitespace, only
    ASCII digits, moduli n >= 2 and free factors last, so the coordinate
    order matches the internal layout (torsion first); "Z1" alone denotes
    the trivial group.  Leading zeros do not count toward int()'s digit
    limit.
    """
    if not _LITERAL.fullmatch(literal):
        raise InvalidElementError(
            f"group literal {literal!r} does not match ^({_LITERAL.pattern})$"
        )
    tokens = literal.split("x")
    torsion = []
    for digits in (token[1:].lstrip("0") for token in tokens if token != "Z"):
        try:
            torsion.append(int(digits))
        except ValueError:  # more digits than int() converts
            raise InvalidElementError(f"modulus of {len(digits)} digits is too large") from None
    # Z1, the trivial group, is the one factor of modulus 1 the pattern admits
    return GroupSpec(tuple(n for n in torsion if n > 1), tokens.count("Z"))


def format_group(group: GroupSpec) -> str:
    if not group.torsion and not group.free_rank:
        return "Z1"
    parts = [f"Z{n}" for n in group.torsion] + ["Z"] * group.free_rank
    return "x".join(parts)
