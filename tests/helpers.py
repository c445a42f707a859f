"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's bitmask machinery: they
recompute neighborhoods with plain sets and search matchings by trying
injections, so agreement with the library is a real cross-check.
"""

import math
import re
from array import array
from functools import reduce
from itertools import combinations, islice, permutations, product, repeat
from operator import and_, floordiv, neg, or_, sub

from deltoids import (
    Deltoid,
    GroupSet,
    GroupSpec,
    InternalInconsistencyError,
    InvalidInputError,
    ResourceLimitError,
    UnsupportedInfiniteGroupError,
    build_deltoid,
    canonicalize,
    compose,
    cosets_of,
    elements_of,
    enumerate_subgroups,
    invert,
)
from deltoids.groups import (
    DEFAULT_ORDER_BOUND,
    _check_searchable,
    _Masks,
    _saturate,
    members,
    sums_in,
)
from deltoids.matching import DEFAULT_SUBSET_BOUND
from deltoids.partition import _rho_is_infinite

Z3 = GroupSpec((3,))
Z6 = GroupSpec((6,))
Z8 = GroupSpec((8,))
Z9 = GroupSpec((9,))
Z12 = GroupSpec((12,))
Z2xZ4 = GroupSpec((2, 4))
Z2xZ2 = GroupSpec((2, 2))
Z2xZ = GroupSpec((2,), 1)
TRIVIAL = GroupSpec((), 0)

GOLDEN_A = [(0,), (1,), (2,), (4,), (6,), (8,), (10,), (11,)]
GOLDEN_B = [(1,), (2,), (3,), (4,), (6,), (8,), (10,), (11,)]


def cyc(*values):
    """Wrap plain integers as one-coordinate elements."""
    return [(v,) for v in values]


def gset(group, items):
    return GroupSet.of(group, items)


def refusal(fn, *args) -> tuple[type, str]:
    """The exact type and text of the exception that fn(*args) raises."""
    try:
        fn(*args)
    except Exception as err:
        return type(err), str(err)
    raise AssertionError(f"{fn.__name__} raised nothing")


def golden_deltoid() -> Deltoid:
    """The shipped Z12 instance with deficiency 3 and rho 3."""
    return build_deltoid(gset(Z12, GOLDEN_A), gset(Z12, GOLDEN_B))


def chain_rows(n):
    """Rows i -> {i, i + 1} and a last row -> {0}.

    Placing the last row in order needs an augmenting path through all n
    rows, so the search depth grows with n.
    """
    return [(1 << i) | (1 << (i + 1)) for i in range(n - 1)] + [1]


def chain_deltoid(n, transposed=False):
    """A Deltoid carrying chain_rows(n) (or its transpose) as adjacency.

    Built directly, not through build_deltoid: the matching and partition
    code reads only the rows and the element lists, so the elements are
    placeholders.
    """
    rows = chain_rows(n)
    return rows_deltoid(transpose(rows) if transposed else rows)


def transpose(rows):
    """The columns of square bitmask rows: bit i of column j iff bit j of row i."""
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return cols


def scan_order(masks):
    """Each of n masks with bit t moved to bit n - 1 - t, the order assign reads.

    The reversal is its own inverse: scan_order(scan_order(masks)) == masks.
    """
    n = len(masks)
    return [int(format(mask, f"0{n}b")[::-1], 2) for mask in masks]


def rows_deltoid(rows):
    """A Deltoid carrying the given low-bit rows (bit j for b_j), with placeholder elements."""
    n = len(rows)
    group = GroupSpec((2 * n,))
    A = GroupSet(group, tuple((i,) for i in range(n)))
    B = GroupSet(group, tuple((i,) for i in range(n, 2 * n)))
    return Deltoid(A, B, tuple(scan_order(rows)))


def reference_assign(masks, k: int) -> tuple[list[list[int]], int]:
    """Give each source a target from its bitmask, each target holding at most k.

    The Kuhn search without the dead set or the lookahead, kept as the
    reference that assign's default order must match exactly.

    Bit t of masks[i] lets source i use target t; there are as many targets
    as sources.  Returns holders[target], the sources placed there, and the
    number of sources left unplaced.  An iterative Kuhn search, deterministic for
    fixed input: sources are placed in index order, targets scanned low bit
    first with the visited set reset per source, and a full target's
    holders tried in list order.  On success each source on the path moves
    to the end of the holder list of the target its child left.
    """
    holders: list[list[int]] = [[] for _ in masks]
    unplaced = 0
    for root in range(len(masks)):
        visited = 0
        # frames are [source, holder list of the target it tries, next index]
        path = [[root, None, 0]]
        while path:
            frame = path[-1]
            cand = masks[frame[0]] & ~visited
            if cand:
                low = cand & -cand
                visited |= low
                bucket = holders[low.bit_length() - 1]
                if len(bucket) < k:
                    bucket.append(frame[0])
                    for src, parent_bucket, nxt in path[:-1]:
                        del parent_bucket[nxt - 1]
                        parent_bucket.append(src)
                    break
                frame[1] = bucket
                frame[2] = 1
                path.append([bucket[0], None, 0])
                continue
            # no target left: the parent tries its next holder, or else
            # goes back to scanning its own targets
            path.pop()
            if path:
                frame = path[-1]
                bucket = frame[1]
                if frame[2] < len(bucket):
                    path.append([bucket[frame[2]], None, 0])
                    frame[2] += 1
        else:
            unplaced += 1
    return holders, unplaced


def reference_subset_neighborhoods(D: Deltoid, subset_bound: int = DEFAULT_SUBSET_BOUND) -> array:
    """Neighborhoods of all 2^|A| subsets: table[m] is the column mask of delta(S).

    S is the subset of A at the row positions set in m.  The table is built
    by doubling in place: once rows 0..i-1 are in, the subsets that also
    hold row i are the table so far ORed with that row.  Refuses instances
    above subset_bound.

    The 8-byte mask table that matching.subset_planes replaced, kept with
    the three scans below as the reference for the byte-plane sweeps.
    """
    n = D.size
    if n > subset_bound:
        raise ResourceLimitError(f"|A| = {n} exceeds subset sweep bound {subset_bound}")
    table = array("Q", [0])
    for row in D.rows:
        table.extend(map(row.__or__, islice(table, len(table))))
    return table


def reference_deficiency_by_subsets(D: Deltoid, subset_bound: int = DEFAULT_SUBSET_BOUND) -> int:
    """Definitional oracle: max over all S of |S| - |delta(S)|.

    One scan of the subset table; refuses instances above subset_bound.
    """
    table = reference_subset_neighborhoods(D, subset_bound)
    sizes = map(int.bit_count, range(len(table)))
    return max(map(sub, sizes, map(int.bit_count, table)))


def reference_rho(D: Deltoid, subset_bound: int = DEFAULT_SUBSET_BOUND) -> int | float:
    """Right partition number by the definitional subset sweep.

    math.inf when some element of B stabilizes A; otherwise the maximum of
    ceil(|U_S| / (|A| - |S|)) over proper subsets S, which is at least 1.
    """
    if _rho_is_infinite(D):
        return math.inf
    n = D.size
    table = reference_subset_neighborhoods(D, subset_bound)
    # ceil(u / r) is -(-u // r), with -|U_S| = |delta(S)| - n and r = n - |S|;
    # the sizes stop before S = A.  The maps keep the scan in C.
    neg_u = map(sub, map(int.bit_count, table), repeat(n))
    rest = map(sub, repeat(n), map(int.bit_count, range(len(table) - 1)))
    return max(1, -min(map(floordiv, neg_u, rest)))


def reference_lambda(D: Deltoid, subset_bound: int = DEFAULT_SUBSET_BOUND) -> int:
    """Left partition number: max of ceil(|S| / |delta(S)|) over nonempty S.

    Always finite since delta(S) is nonempty for nonempty S.
    """
    table = reference_subset_neighborhoods(D, subset_bound)
    # ceil(|S| / |delta(S)|) is -(-|S| // |delta(S)|) over the nonempty S
    neg_sizes = map(neg, map(int.bit_count, range(1, len(table))))
    degrees = map(int.bit_count, islice(table, 1, None))
    try:
        return max(1, -min(map(floordiv, neg_sizes, degrees)))
    except ZeroDivisionError:
        raise InternalInconsistencyError("nonempty S with empty neighborhood") from None


def reference_generate_subgroup(group: GroupSpec, generators) -> GroupSet:
    """Closure of the generators (plus identity) under the group operation.

    The breadth-first closure that composes every element with every
    generator, kept as the reference that groups.generate_subgroup's coset
    joins must agree with.
    """
    k = len(group.torsion)
    gens = []
    for g in generators:
        g = canonicalize(group, g)
        if any(c != 0 for c in g[k:]):
            raise InvalidInputError(f"generator {g} has infinite order")
        gens.append(g)
    elems = {group.identity}
    queue = [group.identity]
    while queue:
        u = queue.pop()
        for g in gens:
            v = compose(group, u, g)
            if v not in elems:
                elems.add(v)
                queue.append(v)
    return GroupSet(group, tuple(sorted(elems)))


def reference_subgroup_terms(D: Deltoid, order_bound: int = DEFAULT_ORDER_BOUND, grows=None):
    """Yield (full H-cosets inside A, B n H) for each subgroup H meeting B.

    Subgroups in canonical order (size, then element order).  A subgroup
    missing B is skipped: every subgroup formula scores it at most as high
    as the trivial subgroup, which misses B because the identity is not in B.

    The scan over the whole subgroup lattice, kept as the reference that
    the pruned subgroup search behind transform.improving_terms must agree
    with.  It grows every subgroup, so the formulas' grows is ignored.
    """
    group = D.A.group
    if not group.is_finite:
        raise UnsupportedInfiniteGroupError("subgroup formulas need a finite group")
    for sub in enumerate_subgroups(group, order_bound):
        inside = tuple(b for b in D.B.elements if b in sub.member_set)
        if inside:
            full = full_cosets_within(group, D.A.elements, sub)
            yield GroupSet(group, full), GroupSet(group, inside)


def reference_search_subgroups(group: GroupSpec, order_bound: int, generators, within):
    """The subgroups H generated by elements of `generators` that have a
    full coset in the finite set `within`.

    From the trivial subgroup, joins one generator per coset of the
    subgroup being grown.  A subgroup H carries the mask of the x with
    x + H inside `within`, ANDed from the mask of the subgroup it grew
    from; at 0 H is dropped ungrown, since no supergroup has a full coset
    either.  Returns (H n generators, the x in within with x + H inside
    within) as element tuples, per kept H in canonical order: size, then
    elements.

    groups._search_subgroups before it took a value bound, kept verbatim
    (but for _saturate, which now takes the first translate from its
    caller, and the decoder, now groups.members) as the reference for the
    bounded search: it grows every kept subgroup and decodes every one.
    """
    _check_searchable(group, order_bound)
    masks = _Masks(group)
    generators, within = tuple(generators), tuple(within)
    gen_codes = [masks.code(x) for x in generators]
    within_codes = [masks.code(x) for x in within]
    gens = list(zip(gen_codes, generators))
    found = {1: sum(1 << code for code in within_codes)}
    stack = [1]  # the trivial subgroup: the identity has code 0
    while stack:
        base = stack.pop()
        covered = base
        for code, x in gens:
            if covered >> code & 1:
                continue
            # every element of the coset x + base gives the same join
            covered |= masks.translate(base, x)
            joined = _saturate(masks, base, masks.translate(base, x), x, or_)
            if joined not in found:
                found[joined] = _saturate(
                    masks, found[base], masks.translate(found[base], x), x, and_
                )
                if found[joined]:
                    stack.append(joined)
    codes = range(group.order)
    kept = sorted(((h, full) for h, full in found.items() if full),
                  key=lambda item: (item[0].bit_count(), members(item[0], masks.size, codes)))
    return [(members(h, masks.size, generators, gen_codes),
             members(full, masks.size, within, within_codes))
            for h, full in kept]


def reference_subgroup_answers(D: Deltoid) -> dict:
    """Every subgroup formula's answer, read off the unbounded reference search.

    The terms are those transform.improving_terms reads before the value bound:
    (|full H-cosets in A|, B n H) per kept H but the trivial one, in
    canonical order.  Keys: deficiency, pair (S, R, value), witnesses (the
    first witness's (S, R) or None per level 0 .. deficiency), rho (None
    when rho is infinite) and lambda.
    """
    group, n = D.A.group, D.size
    terms = reference_search_subgroups(group, DEFAULT_ORDER_BOUND, D.B.elements, D.A.elements)
    terms = [(full, inside) for inside, full in terms[1:]]
    value, S, R = 0, D.A.elements, ()
    for full, inside in terms:
        if len(full) - n + len(inside) > value:
            value, S, R = len(full) - n + len(inside), full, inside
    pair = (GroupSet(group, S), GroupSet.of(group, R + (group.identity,)), value)
    witnesses = [
        next(((full, inside) for full, inside in terms if n - len(full) < len(inside) - level),
             None)
        for level in range(value + 1)
    ]
    rho = None
    if not _rho_is_infinite(D):
        rho = max([1] + [ceil_div(len(inside), n - len(full)) for full, inside in terms])
    lam = max([1] + [ceil_div(len(full), n - len(inside)) for full, inside in terms])
    return {"deficiency": value, "pair": pair, "witnesses": witnesses, "rho": rho, "lambda": lam}


def reference_existence_predicate(group, n, level, lattice):
    """The smallest qualifying subgroup, read off the whole subgroup lattice.

    The lattice scan that structure.existence_predicate replaced, kept as
    its reference; `lattice` is enumerate_subgroups(group), passed in so
    that a test enumerates each group once.
    """
    if level < 0:
        raise InvalidInputError("level must be nonnegative")
    if not group.is_finite:
        raise UnsupportedInfiniteGroupError("subgroup formulas need a finite group")
    proper = [h for h in lattice if 1 < len(h) < group.order]
    if not proper:
        raise InvalidInputError("group has no nontrivial proper subgroup")
    n0 = len(proper[0].elements)
    if not n0 <= n < group.order:
        raise InvalidInputError(
            f"n must satisfy {n0} <= n < {group.order}, got {n}"
        )
    for sub in proper:
        m = len(sub.elements)
        if m > n:
            continue
        if all((n + j) % m for j in range(1, level + 2)):
            return sub
    return None


def reference_sums_in(group, X, Y, E):
    """For each x in X, the bitmask over Y of the y with x + y in E.

    One compose and one set lookup per pair, kept as the reference for
    groups.sums_in on both its mask and its lookup path.
    """
    members = {canonicalize(group, e) for e in E}
    return [sum(1 << j for j, y in enumerate(Y) if compose(group, x, y) in members) for x in X]


def reference_escape(S: GroupSet, R: GroupSet, members) -> tuple | None:
    """The double loop that transform._escape ran before it read sums_in rows.

    Kept verbatim (members is a set) as the reference for its first (e, r).
    """
    # First (e, r) in canonical order with e*r outside members; None when
    # S*R lies inside.  With members = S, this is an e-transform witness.
    group = S.group
    for e in S.elements:
        for r in R.elements:
            if compose(group, e, r) not in members:
                return e, r
    return None


def universe_for(group, span=3):
    """All candidate elements; free coordinates restricted to [-span, span]."""
    if group.is_finite:
        return elements_of(group)
    ranges = [range(n) for n in group.torsion]
    ranges += [range(-span, span + 1)] * group.free_rank
    return [tuple(p) for p in product(*ranges)]


def exhaustive_instances(group=Z6, sizes=(1, 2, 3)):
    """Every instance (A, B) over the group with |A| = |B| in sizes, 0 not in B."""
    uni = elements_of(group)
    nonzero = [e for e in uni if e != group.identity]
    for size in sizes:
        for a_elems in combinations(uni, size):
            A = GroupSet(group, a_elems)
            for b_elems in combinations(nonzero, size):
                yield build_deltoid(A, GroupSet(group, b_elems))


def random_instance(rng, group, max_size=8, span=3, identity_in_a=True):
    """One seeded random instance; B never contains the identity."""
    uni = universe_for(group, span)
    pool_b = [e for e in uni if e != group.identity]
    pool_a = uni if identity_in_a else pool_b
    n = rng.randint(1, min(max_size, len(pool_b), len(pool_a)))
    A = rng.sample(pool_a, n)
    B = rng.sample(pool_b, n)
    return build_deltoid(GroupSet.of(group, A), GroupSet.of(group, B))


def cyclic_instance(rng, p, n, shape):
    """A seeded Z_p instance of size n in the shape "uniform" or "progression".

    uniform draws A from Z_p and B from its nonzero elements.  progression
    takes A and B as intervals of length n, B inside 1..p-1 without
    wrapping, with five members of each swapped for nonzero elements outside
    it.
    """
    group = GroupSpec((p,))
    if shape == "uniform":
        a = rng.sample(range(p), n)
        b = rng.sample(range(1, p), n)
    else:
        a = _swapped_interval(rng, p, n, rng.randrange(p))
        b = _swapped_interval(rng, p, n, rng.randrange(1, p - n))
    return build_deltoid(GroupSet.of(group, cyc(*a)), GroupSet.of(group, cyc(*b)))


def _swapped_interval(rng, p, n, start):
    chosen = [(start + i) % p for i in range(n)]
    inside = set(chosen)
    outside = [x for x in range(1, p) if x not in inside]
    for slot, new in zip(rng.sample(range(n), 5), rng.sample(outside, 5)):
        chosen[slot] = new
    return chosen


def random_witnessed_instance(rng, group=Z12):
    """A seeded instance shaped like an obstruction: coset-heavy A, subgroup-heavy B.

    A is a union of whole subgroup cosets plus a nonempty remainder, B starts
    from the subgroup's nonidentity part; such pairs are usually deficient
    while keeping the right partition number finite.
    """
    subs = [h for h in enumerate_subgroups(group) if 1 < len(h.elements) < group.order]
    sub = rng.choice(subs)
    all_cosets = cosets_of(group, sub)
    q = rng.randint(1, len(all_cosets) - 1)
    size = len(elements_of(group))
    while size - 1 - q * len(sub.elements) < 1:
        q -= 1
    s_elems = [x for coset in rng.sample(all_cosets, q) for x in coset]
    taken = set(s_elems)
    rest = [x for x in elements_of(group) if x not in taken]
    max_extra = min(2, size - 1 - len(s_elems))
    y_elems = rng.sample(rest, rng.randint(1, max_extra))
    A = GroupSet.of(group, s_elems + y_elems)
    n = len(A.elements)
    r_elems = [x for x in sub.elements if x != group.identity]
    pool = [
        x
        for x in elements_of(group)
        if x != group.identity and x not in set(r_elems)
    ]
    z_elems = rng.sample(pool, n - len(r_elems))
    B = GroupSet.of(group, r_elems + z_elems)
    return build_deltoid(A, B)


def coset_heavy_instance(rng, group):
    """A seeded instance with A mostly whole cosets of one subgroup L and B
    partly inside L; about one in eight has several best subgroup terms.

    None when B cannot be filled (tiny groups).
    """
    subs = [h for h in enumerate_subgroups(group) if 1 < len(h.elements) < group.order]
    L = rng.choice(subs)
    all_cosets = cosets_of(group, L)
    a_elems = [x for coset in rng.sample(all_cosets, rng.randint(1, len(all_cosets) - 1))
               for x in coset]
    taken = set(a_elems)
    rest = [x for x in elements_of(group) if x not in taken]
    a_elems += rng.sample(rest, rng.randint(0, min(2, len(rest))))
    n = len(a_elems)
    inner = [x for x in L.elements if x != group.identity]
    b_elems = rng.sample(inner, rng.randint(1, min(len(inner), n)))
    chosen = set(b_elems)
    pool = [x for x in elements_of(group) if x != group.identity and x not in chosen]
    if len(pool) < n - len(b_elems):
        return None
    b_elems += rng.sample(pool, n - len(b_elems))
    return build_deltoid(GroupSet.of(group, a_elems), GroupSet.of(group, b_elems))


def is_subgroup(S):
    """Closure oracle: S holds the identity and is closed under compose and invert."""
    g = S.group
    members = S.member_set
    if g.identity not in members:
        return False
    for x in S.elements:
        if invert(g, x) not in members:
            return False
        for y in S.elements:
            if compose(g, x, y) not in members:
                return False
    return True


def brute_delta_elems(D, s_elems):
    """Neighborhood recomputed with plain sets: b with some s*b outside A."""
    group = D.A.group
    members = set(D.A.elements)
    return {
        b
        for b in D.B.elements
        if any(compose(group, s, b) not in members for s in s_elems)
    }


def brute_rows(A, B):
    """Adjacency rows recomputed with plain sets: bit n - 1 - j of row i iff a_i*b_j leaves A."""
    group = A.group
    members = set(A.elements)
    top = len(B.elements) - 1
    return tuple(
        sum(1 << top - j for j, b in enumerate(B.elements) if compose(group, a, b) not in members)
        for a in A.elements
    )


def full_cosets_within(group, elements, sub):
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


def bucket_full_cosets(group, elements, sub):
    """Full H-cosets inside a set, by bucketing on the least coset member."""
    buckets = {}
    for a in elements:
        buckets.setdefault(min(compose(group, a, h) for h in sub.elements), []).append(a)
    target = len(sub.elements)
    return tuple(sorted(a for bucket in buckets.values() if len(bucket) == target for a in bucket))


def brute_deficiency(D):
    """Smallest defect found by trying every injection; exponential, tiny n only."""
    n = D.size
    for size in range(n, 0, -1):
        for rows in combinations(range(n), size):
            for cols in permutations(range(n), size):
                if all(D.adjacent(i, j) for i, j in zip(rows, cols)):
                    return n - size
    return n


def subsets_of(elems):
    for size in range(len(elems) + 1):
        yield from combinations(elems, size)


def stabilizer_pairs(D):
    """Every pair (S, R) with S in A, R in B + identity, S*R = S, as frozensets."""
    group = D.A.group
    b_plus = sorted(set(D.B.elements) | {group.identity})
    for s_elems in subsets_of(D.A.elements):
        s_set = frozenset(s_elems)
        for r_elems in subsets_of(b_plus):
            if not r_elems and s_elems:
                continue  # S*empty is empty, not S
            if all(
                compose(group, s, r) in s_set for s in s_elems for r in r_elems
            ):
                yield s_set, frozenset(r_elems)


def ceil_div(a, b):
    return -(-a // b)


def hall_inequality_holds(D, d):
    """Brute check of |S| <= |delta(S)| + d over all subsets of A."""
    for s_elems in subsets_of(D.A.elements):
        if len(s_elems) > len(brute_delta_elems(D, s_elems)) + d:
            return False
    return True


def left_inequality_holds(D, k):
    """Brute check of |S| <= k * |delta(S)| over all subsets of A."""
    for s_elems in subsets_of(D.A.elements):
        if len(s_elems) > k * len(brute_delta_elems(D, s_elems)):
            return False
    return True


def right_inequality_holds(D, k):
    """Brute check of k|S| + |B| <= k|A| + |delta(S)| over all subsets of A."""
    n = D.size
    for s_elems in subsets_of(D.A.elements):
        if k * len(s_elems) + n > k * n + len(brute_delta_elems(D, s_elems)):
            return False
    return True


_JSON_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
               "boolean": bool, "null": type(None)}
# the keywords that check only values of one JSON type, and pass the others
_KEYWORD_TYPES = {"required": dict, "properties": dict, "additionalProperties": dict,
                  "minProperties": dict, "items": list, "minItems": list, "maxItems": list,
                  "minimum": (int, float), "pattern": str}
_ANNOTATIONS = {"$schema", "$id", "title", "description", "definitions"}


def _is_json_type(value, name):
    # bool is an int subclass in Python but no JSON number, and a draft-07
    # integer is any number with a zero fractional part, 1.0 included
    if isinstance(value, bool):
        return name == "boolean"
    if name == "integer":
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    return isinstance(value, _JSON_TYPES[name])


def _ecma_pattern(pattern):
    # Python's $ also matches before a trailing newline; ECMA-262's, without
    # the multiline flag, only at the end of input, as \Z does
    out, escaped, in_class = [], False, False
    for ch in pattern:
        if escaped:
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch in "[]":
            in_class = ch == "["
        elif ch == "$" and not in_class:
            ch = r"\Z"
        out.append(ch)
    return "".join(out)


def schema_errors(value, schema, root=None, path="$"):
    """The draft-07 violations of a JSON value against a schema, one line each.

    A stdlib validator for the keywords docs/*.schema.json use: type, enum,
    const, required, properties, additionalProperties, items (one schema),
    minItems, maxItems, minProperties, minimum, pattern, oneOf, allOf,
    if/then and $ref into the root's definitions.  Any other keyword raises
    ValueError, so a schema that grows one fails here rather than passing
    unchecked.  A pattern's $ is the end of input, as in ECMA-262.
    """
    root = schema if root is None else root
    if isinstance(schema, bool):
        return [] if schema else [f"{path}: no value is allowed"]
    errors = []
    for key, want in schema.items():
        if key in _ANNOTATIONS or not isinstance(value, _KEYWORD_TYPES.get(key, object)):
            continue
        if key == "$ref":
            prefix, _, name = want.rpartition("/")
            if prefix != "#/definitions":
                raise ValueError(f"$ref {want!r} does not name a definition")
            errors += schema_errors(value, root["definitions"][name], root, path)
        elif key == "type":
            names = [want] if isinstance(want, str) else want
            if not any(_is_json_type(value, name) for name in names):
                errors.append(f"{path}: not of type {want}")
        elif key in ("enum", "const"):
            # JSON equality: true is not 1
            if not any(value == v and isinstance(value, bool) == isinstance(v, bool)
                       for v in (want if key == "enum" else [want])):
                errors.append(f"{path}: not {key} {want}")
        elif key == "allOf":
            for sub in want:
                errors += schema_errors(value, sub, root, path)
        elif key == "if":
            if not schema_errors(value, want, root, path):
                errors += schema_errors(value, schema.get("then", True), root, path)
        elif key == "then":
            continue  # read by if
        elif key == "oneOf":
            hits = sum(not schema_errors(value, sub, root, path) for sub in want)
            if hits != 1:
                errors.append(f"{path}: matches {hits} of the oneOf schemas")
        elif key == "required":
            errors += [f"{path}: lacks {name!r}" for name in want if name not in value]
        elif key == "properties":
            for name in sorted(want.keys() & value.keys()):
                errors += schema_errors(value[name], want[name], root, f"{path}.{name}")
        elif key == "additionalProperties":
            for name in sorted(value.keys() - schema.get("properties", {}).keys()):
                errors += schema_errors(value[name], want, root, f"{path}.{name}")
        elif key == "items":
            for i, item in enumerate(value):
                errors += schema_errors(item, want, root, f"{path}[{i}]")
        elif key in ("minItems", "minProperties"):
            if len(value) < want:
                errors.append(f"{path}: {len(value)} entries, fewer than {key} {want}")
        elif key == "maxItems":
            if len(value) > want:
                errors.append(f"{path}: {len(value)} entries, more than maxItems {want}")
        elif key == "minimum":
            if value < want:
                errors.append(f"{path}: {value} below minimum {want}")
        elif key == "pattern":
            if not re.search(_ecma_pattern(want), value):
                errors.append(f"{path}: {value!r} does not match {want}")
        else:
            raise ValueError(f"schema keyword {key!r} is not implemented")
    return errors
