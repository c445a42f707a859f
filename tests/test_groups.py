"""Group arithmetic, subgroup enumeration, and coset machinery."""

import json
import math
import random
import re
import time
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltoids import (
    GroupSpec,
    GroupSet,
    InvalidInputError,
    ResourceLimitError,
    UnsupportedInfiniteGroupError,
    canonicalize,
    compose,
    elements_of,
    enumerate_subgroups,
    format_group,
    full_cosets_within,
    generate_subgroup,
    invert,
    max_progression_length,
    order,
    parse_group,
)
from deltoids import groups
from deltoids.groups import _Masks, sums_in
from helpers import (
    GOLDEN_A,
    TRIVIAL,
    Z2xZ,
    Z2xZ2,
    Z2xZ4,
    Z6,
    Z12,
    bucket_full_cosets,
    cyc,
    gset,
    is_subgroup,
    reference_generate_subgroup,
    reference_sums_in,
    refusal,
)

SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "instance.schema.json"
LITERAL_PATTERN = json.loads(SCHEMA.read_text(encoding="utf-8"))["properties"]["group"]["pattern"]


def test_compose_examples():
    assert compose(Z12, (4,), (8,)) == (0,)
    assert compose(Z12, (10,), (3,)) == (1,)
    assert compose(Z2xZ, (1, 5), (1, -2)) == (0, 3)


def test_compose_dimension_mismatch():
    assert refusal(compose, Z12, (1, 2), (3,)) == (
        InvalidInputError, "element of length 2 does not fit group of dimension 1")


# every public entry that takes an element reads it through one shape check
ELEMENT_ENTRIES = {
    "canonicalize": lambda x: canonicalize(Z12, x),
    "GroupSet.of": lambda x: GroupSet.of(Z12, [(0,), x]),
    "compose-left": lambda x: compose(Z12, x, (1,)),
    "compose-right": lambda x: compose(Z12, (1,), x),
    "invert": lambda x: invert(Z12, x),
    "order": lambda x: order(Z12, x),
    "full_cosets_within": lambda x: full_cosets_within(Z12, [(0,), x], GroupSet(Z12, cyc(0, 6))),
    "generate_subgroup": lambda x: generate_subgroup(Z12, [(4,), x]),
    "max_progression_length": lambda x: max_progression_length(GroupSet.of(Z12, cyc(1, 2)), x),
}


@pytest.mark.parametrize("entry", ELEMENT_ENTRIES.values(), ids=ELEMENT_ENTRIES.keys())
@pytest.mark.parametrize("element, text", [
    (5, "element must be a sequence of integers, got 5"),
    ((1.5,), "coordinates must be integers, got (1.5,)"),
    (("1",), "coordinates must be integers, got ('1',)"),
    ((1, 2), "element of length 2 does not fit group of dimension 1"),
], ids=["int", "float", "str", "length"])
def test_every_element_entry_refuses_a_malformed_element(entry, element, text):
    assert refusal(entry, element) == (InvalidInputError, text)


def test_invert_examples():
    assert invert(Z12, (5,)) == (7,)
    assert invert(Z12, (0,)) == (0,)
    assert invert(GroupSpec((), 1), (3,)) == (-3,)
    for x in elements_of(Z2xZ4):
        assert compose(Z2xZ4, x, invert(Z2xZ4, x)) == Z2xZ4.identity


def test_order_examples():
    assert order(Z12, (2,)) == 6
    assert order(Z12, (11,)) == 12
    assert order(Z2xZ, (1, 1)) == math.inf
    assert order(Z2xZ, (1, 0)) == 2
    assert order(Z12, (0,)) == 1


def test_order_divides_group_order():
    for group in (Z12, Z2xZ4):
        for x in elements_of(group):
            assert group.order % order(group, x) == 0


@given(st.lists(st.integers(-40, 40), min_size=2, max_size=2))
@settings(max_examples=60, derandomize=True)
def test_canonicalize_idempotent_z2xz4(coords):
    once = canonicalize(Z2xZ4, coords)
    assert canonicalize(Z2xZ4, once) == once
    assert all(0 <= c < n for c, n in zip(once, Z2xZ4.torsion))


@given(st.lists(st.integers(-40, 40), min_size=2, max_size=2))
@settings(max_examples=60, derandomize=True)
def test_canonicalize_idempotent_z2xz(coords):
    once = canonicalize(Z2xZ, coords)
    assert canonicalize(Z2xZ, once) == once


def test_canonicalize_refuses_coordinates_that_are_not_integers():
    # coordinates follow GroupSpec's rule for moduli: no float is truncated
    # and no string parsed, free coordinates included; a bool is an integer
    assert refusal(GroupSet.of, Z12, [[1.7], ["3"], [True]]) == (
        InvalidInputError, "coordinates must be integers, got [1.7]")
    assert refusal(GroupSet.of, Z12, [["3"]]) == (
        InvalidInputError, "coordinates must be integers, got ['3']")
    assert refusal(canonicalize, Z12, [" 5 "]) == (
        InvalidInputError, "coordinates must be integers, got [' 5 ']")
    assert refusal(canonicalize, Z2xZ, [1, 2.9]) == (
        InvalidInputError, "coordinates must be integers, got [1, 2.9]")
    assert GroupSet.of(Z12, [[True], [13]]).elements == ((1,),)


def test_group_spec_validation():
    assert refusal(GroupSpec, (1,)) == (InvalidInputError, "torsion moduli must be >= 2, got (1,)")
    assert refusal(GroupSpec, (), -1) == (InvalidInputError, "free_rank must be >= 0, got -1")
    # non-integer moduli and free rank used to be truncated, parsed or accepted
    for torsion, free_rank, shown in [((2.7,), 0, "(2.7,), 0"), (("12",), 0, "('12',), 0"),
                                      ((), 1.5, "(), 1.5")]:
        assert refusal(GroupSpec, torsion, free_rank) == (
            InvalidInputError, f"torsion moduli and free_rank must be integers, got {shown}")
    assert TRIVIAL.order == 1
    assert TRIVIAL.identity == ()


def test_generate_subgroup_examples():
    assert generate_subgroup(Z12, cyc(2, 4, 6, 8, 10)).elements == tuple(
        cyc(0, 2, 4, 6, 8, 10)
    )
    assert generate_subgroup(Z12, []).elements == ((0,),)
    assert generate_subgroup(Z12, cyc(3)).elements == tuple(cyc(0, 3, 6, 9))


def test_generate_subgroup_infinite_refusal():
    assert refusal(generate_subgroup, Z2xZ, [(0, 1)]) == (
        InvalidInputError, "generator (0, 1) has infinite order")
    # zero free coordinates are fine even when the ambient group is infinite
    assert generate_subgroup(Z2xZ, [(1, 0)]).elements == ((0, 0), (1, 0))


def test_generate_subgroup_closed_for_small_generating_sets():
    elems = elements_of(Z12)
    for size in range(4):
        for gens in combinations(elems, size):
            assert is_subgroup(generate_subgroup(Z12, gens))


def test_generate_subgroup_agrees_with_the_closure_bfs():
    # unreduced and negative coordinates, zero free parts next to Z, empty
    # generator lists, Z1, and generators of infinite order (same refusal)
    rng = random.Random(7)
    groups = [TRIVIAL, Z12, Z2xZ4, Z2xZ2, parse_group("Z3xZ3"), parse_group("Z360"),
              Z2xZ, parse_group("Z6xZxZ")]
    for group in groups:
        k = len(group.torsion)
        for _ in range(300):
            gens = []
            for _ in range(rng.randint(0, 4)):
                head = [rng.randrange(-2 * n, 3 * n) for n in group.torsion]
                free = [rng.choice((0, 0, 0, 0, 0, 0, 0, 0, 0, rng.randint(-3, 3)))
                        for _ in range(group.free_rank)]
                gens.append(tuple(head + free))
            try:
                expected = reference_generate_subgroup(group, gens)
            except InvalidInputError as err:
                assert refusal(generate_subgroup, group, gens) == (InvalidInputError, str(err))
                assert any(any(g[k:]) for g in gens)
                continue
            assert generate_subgroup(group, gens) == expected, (group, gens)


def test_generate_subgroup_joins_cosets_not_elements():
    # the closure BFS composes each of the 2,500 elements with each of the
    # 2,499 generators (about 24 s); the coset joins skip every generator
    # already in the closure
    group = GroupSpec((10_000,))
    start = time.perf_counter()
    H = generate_subgroup(group, cyc(*range(4, 10_000, 4)))
    assert time.perf_counter() - start < 1.0
    assert H.elements == tuple(cyc(*range(0, 10_000, 4)))


def test_enumerate_subgroups_orders():
    assert [len(h.elements) for h in enumerate_subgroups(Z12)] == [1, 2, 3, 4, 6, 12]
    assert len(enumerate_subgroups(Z2xZ2)) == 5
    assert len(enumerate_subgroups(TRIVIAL)) == 1


def test_enumerate_subgroups_errors():
    with pytest.raises(UnsupportedInfiniteGroupError):
        enumerate_subgroups(Z2xZ)
    with pytest.raises(ResourceLimitError):
        enumerate_subgroups(Z12, order_bound=11)


def test_infinite_groups_and_mixed_sets_are_refused():
    infinite = (UnsupportedInfiniteGroupError, "cannot enumerate an infinite group")
    assert refusal(elements_of, Z2xZ) == infinite
    X, Y = gset(Z12, cyc(0, 1)), gset(Z6, cyc(0, 1))
    for combine in (GroupSet.union, GroupSet.intersection, GroupSet.difference, GroupSet.issubset):
        assert refusal(combine, X, Y) == (InvalidInputError, "sets live in different groups")


def test_enumerate_subgroups_are_exactly_closure_fixed_points():
    # A subset appears iff generating from it gives it back; exhaustive check.
    for group in (Z6, Z2xZ2, Z12, Z2xZ4):
        listed = {h.elements for h in enumerate_subgroups(group)}
        elems = elements_of(group)
        fixed = set()
        for size in range(1, len(elems) + 1):
            for subset in combinations(elems, size):
                if group.identity not in subset:
                    continue
                if generate_subgroup(group, subset).elements == subset:
                    fixed.add(subset)
        assert listed == fixed


def test_enumerate_subgroups_sorted_and_unique():
    # in Z2^3 the order-4 subgroups with codes {0, 1, 6, 7} and {0, 2, 4, 6} sort
    # differently by elements than by their bitmasks as integers
    for literal in ("Z2xZ4", "Z2xZ2xZ2", "Z2xZ2xZ2xZ2", "Z3xZ3"):
        subs = enumerate_subgroups(parse_group(literal))
        keys = [(len(h.elements), h.elements) for h in subs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_full_cosets_within_golden():
    H = generate_subgroup(Z12, cyc(2))
    assert full_cosets_within(Z12, GOLDEN_A, H) == tuple(cyc(0, 2, 4, 6, 8, 10))


def test_full_cosets_within_edges():
    H = generate_subgroup(Z12, cyc(3))
    assert full_cosets_within(Z12, H.elements, H) == H.elements
    assert full_cosets_within(Z12, cyc(0, 3, 6), H) == ()


def test_full_cosets_within_stability():
    H = generate_subgroup(Z12, cyc(4))
    kept = full_cosets_within(Z12, GOLDEN_A, H)
    kept_set = set(kept)
    for a in kept:
        for h in H.elements:
            assert compose(Z12, a, h) in kept_set


def test_full_cosets_within_matches_bucketing_for_every_subgroup():
    rng = random.Random(7)
    for literal in ("Z12", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3"):
        group = parse_group(literal)
        elems = elements_of(group)
        for sub in enumerate_subgroups(group):
            cosets = {tuple(sorted(compose(group, x, h) for h in sub)) for x in elems}
            for _ in range(40):
                # a few whole cosets plus stray elements, so both outcomes occur
                picked = {x for c in rng.sample(sorted(cosets), rng.randint(0, min(2, len(cosets)))) for x in c}
                picked |= set(rng.sample(elems, rng.randint(0, len(elems) // 2)))
                S = rng.sample(sorted(picked), len(picked))
                assert full_cosets_within(group, S, sub) == bucket_full_cosets(group, S, sub)


def test_full_cosets_within_free_rank_non_canonical():
    # torsion coordinates off by multiples of 2 are kept as given; free
    # coordinates key separate buckets
    H = generate_subgroup(Z2xZ, [(1, 0)])
    assert full_cosets_within(Z2xZ, [(3, 5), (-2, 5), (1, -4), (4, 7)], H) == ((-2, 5), (3, 5))
    rng = random.Random(11)
    for _ in range(300):
        canon = {(rng.randint(0, 1), rng.randint(-3, 3)) for _ in range(rng.randint(0, 9))}
        S = [(c + 2 * rng.randint(-2, 2), f) for c, f in canon]
        for sub in (H, generate_subgroup(Z2xZ, [])):
            assert full_cosets_within(Z2xZ, S, sub) == bucket_full_cosets(Z2xZ, S, sub)


def test_full_cosets_within_huge_torsion_order():
    # a torsion order of 2 * 10^18 next to a handful of elements takes the
    # plain lookup path; it must agree with bucketing and stay small
    group = GroupSpec((2 * 10**18,), 1)
    half = 10**18
    H = GroupSet(group, ((0, 0), (half, 0)))
    rng = random.Random(5)
    for _ in range(100):
        S = {(rng.choice([0, 1, half, half + 1]), rng.randint(-1, 1)) for _ in range(6)}
        S = sorted(S)
        assert full_cosets_within(group, S, H) == bucket_full_cosets(group, S, H)


def test_full_cosets_within_wrong_length_element():
    H = generate_subgroup(Z12, cyc(6))
    assert refusal(full_cosets_within, Z12, [(0,), (6, 1)], H) == (
        InvalidInputError, "element of length 2 does not fit group of dimension 1")
    assert refusal(full_cosets_within, Z2xZ, [(0,)], generate_subgroup(Z2xZ, [(1, 0)])) == (
        InvalidInputError, "element of length 1 does not fit group of dimension 2")


# bits per element at which sums_in switches path: 0 forces the lookup
# path, 10^9 the mask path
KERNEL_PATHS = pytest.mark.parametrize("bits", [0, 10**9], ids=["lookup", "mask"])


def _kernel_cases():
    rng = random.Random(14)

    def pick(group, size):
        # torsion coordinates off by multiples of n_i; free ones in [-2, 2]
        return [tuple([rng.randrange(n) + n * rng.randint(-2, 2) for n in group.torsion]
                      + [rng.randint(-2, 2) for _ in range(group.free_rank)])
                for _ in range(size)]

    for group in (Z12, Z2xZ4, parse_group("Z2xZ2xZ2"), Z2xZ, parse_group("Z6xZ"),
                  GroupSpec((3,), 2), GroupSpec((), 1), TRIVIAL):
        for _ in range(40):
            sizes = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 9)
            yield (group, *(pick(group, size) for size in sizes))
        # |Y| = 1, where the digit picker returns one character, and empty Y
        yield group, pick(group, 4), pick(group, 1), pick(group, 6)
        yield group, pick(group, 4), [], pick(group, 6)


@KERNEL_PATHS
def test_sums_in_matches_compose_oracle(monkeypatch, bits):
    monkeypatch.setattr(groups, "_MASK_BITS_PER_ELEMENT", bits)
    for group, X, Y, E in _kernel_cases():
        assert sums_in(group, X, Y, E) == reference_sums_in(group, X, Y, E), (group, X, Y, E)
    # several free parts in Y, each next to a free part of E
    group = GroupSpec((3,), 2)
    Y = [(0, 0, 0), (1, 1, 0), (2, 0, 1), (5, -1, -1)]
    E = [(1, 0, 0), (2, 1, 0), (-1, 0, 1), (2, -1, -1)]
    X = [(1, 0, 0), (-2, 0, 0), (0, 0, 0)]
    assert sums_in(group, X, Y, E) == reference_sums_in(group, X, Y, E) == [0b0011, 0b0011, 0b1100]


@KERNEL_PATHS
def test_sums_in_huge_prime_order(monkeypatch, bits):
    # Z1000003 with n = 10, sums wrapping past the modulus
    monkeypatch.setattr(groups, "_MASK_BITS_PER_ELEMENT", bits)
    p = 1_000_003
    group = GroupSpec((p,))
    rng = random.Random(10)
    window = list(range(-12, 12))
    for _ in range(5):
        X, Y, E = ([(rng.choice(window) % p,) for _ in range(10)] for _ in range(3))
        assert sums_in(group, X, Y, E) == reference_sums_in(group, X, Y, E)


def test_sums_in_picks_its_path_by_bits_per_element(monkeypatch):
    def refused(*args):
        raise AssertionError("wrong path")

    rng = random.Random(3)
    small = [(rng.randrange(12),) for _ in range(8)]
    huge = [(rng.randrange(1_000_003),) for _ in range(10)]
    with monkeypatch.context() as patched:
        patched.setattr(groups, "compose", refused)  # only the lookup path composes
        assert sums_in(Z12, small, small, small) == reference_sums_in(Z12, small, small, small)
    big = GroupSpec((1_000_003,))
    with monkeypatch.context() as patched:
        patched.setattr(groups, "_Masks", refused)  # only the mask path builds masks
        assert sums_in(big, huge, huge, huge) == reference_sums_in(big, huge, huge, huge)


def test_sums_in_checks_element_lengths():
    for X, Y, E, length in (([(1, 2)], [(1,)], [(1,)], 2), ([(1,)], [(1, 2)], [(1,)], 2),
                            ([(1,)], [(1,)], [(1, 2)], 2), ([], [], [()], 0)):
        assert refusal(sums_in, Z12, X, Y, E) == (
            InvalidInputError, f"element of length {length} does not fit group of dimension 1")
    assert sums_in(Z12, [], [(1,)], []) == []
    assert sums_in(Z12, [(1,)], [(1,)], []) == [0]


def _mask_of(masks, elements):
    return sum(1 << masks.code(x) for x in elements)


def test_translate_composes_and_shifts_every_element():
    rng = random.Random(3)
    for literal in ("Z12", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3", "Z2xZ6", "Z5xZ3xZ4"):
        group = parse_group(literal)
        masks = _Masks(group)
        elems = elements_of(group)
        for _ in range(60):
            S = rng.sample(elems, rng.randint(0, len(elems)))
            m = _mask_of(masks, S)
            x = [rng.randint(-50, 50) for _ in group.torsion]
            y = [rng.randint(-50, 50) for _ in group.torsion]
            xy = [a + b for a, b in zip(x, y)]
            assert masks.translate(masks.translate(m, x), y) == masks.translate(m, xy)
            shifted = [canonicalize(group, [a + b for a, b in zip(s, x)]) for s in S]
            assert masks.translate(m, x) == _mask_of(masks, shifted)


def test_codes_follow_canonical_order():
    for literal in ("Z12", "Z2xZ4", "Z3xZ2xZ5", "Z1"):
        group = parse_group(literal)
        masks = _Masks(group)
        assert [masks.code(x) for x in elements_of(group)] == list(range(group.order))


def test_enumerate_subgroups_counts():
    # Z2^5: the Gaussian binomials [5 choose k]_2 sum to 1+31+155+155+31+1
    assert len(enumerate_subgroups(parse_group("Z2xZ2xZ2xZ2xZ2"))) == 374
    assert len(enumerate_subgroups(parse_group("Z4xZ4xZ4"))) == 129
    assert len(enumerate_subgroups(parse_group("Z2xZ4xZ8"))) == 81


def test_subgroup_validate_rejects_non_subgroup():
    assert not is_subgroup(GroupSet(Z12, ((0,), (1,))))
    assert not is_subgroup(GroupSet(Z12, ((1,),)))


def test_enumerated_subgroups_are_closed_group_sets():
    for literal in ("Z12", "Z2xZ4", "Z2xZ2xZ2"):
        for H in enumerate_subgroups(parse_group(literal)):
            assert type(H) is GroupSet and is_subgroup(H)


def test_group_literals_round_trip():
    for literal in ("Z12", "Z2xZ4", "Z2xZ", "Z1", "Z", "Z3xZ3xZ"):
        assert format_group(parse_group(literal)) == literal
    assert parse_group("Z2xZ") == Z2xZ
    assert parse_group("Z1") == TRIVIAL


def test_schema_group_pattern_accepts_what_parse_group_accepts():
    # docs/instance.schema.json's pattern against the parser, on every join
    # of up to three tokens; fullmatch, since Python's $ (unlike JSON
    # Schema's) also matches before a final newline
    tokens = ["Z", "Z0", "Z00", "Z1", "Z01", "Z001", "Z2", "Z02", "Z9", "Z10", "Z010",
              "Z12", "Z100", "z2", "Q8", "Z-2", "Z 2", "Z\u00b2", "Z\u0661", ""]
    corpus = ["".join(p) for p in product(tokens, repeat=1)]
    corpus += ["x".join(p) for k in (2, 3) for p in product(tokens, repeat=k)]
    corpus += ["Z12\n", " Z12 ", "Z2 x Z4", "Z2xxZ4", "xZ2", "Z2X Z4", "Z1xZ1"]
    accepted = 0
    for literal in corpus:
        try:
            parse_group(literal)
        except InvalidInputError:
            parsed = False
        else:
            parsed = True
            accepted += 1
        assert parsed == bool(re.fullmatch(LITERAL_PATTERN, literal)), repr(literal)
    assert len(corpus) == 8427 and accepted == 466
    # the one gap the pattern leaves: int() refuses a modulus of more than
    # 4,300 digits, which the schema's description states
    assert re.fullmatch(LITERAL_PATTERN, "Z" + "9" * 5000)
    with pytest.raises(InvalidInputError, match="^modulus of 5000 digits is too large$"):
        parse_group("Z" + "9" * 5000)


def test_leading_zeros_do_not_count_toward_the_digit_limit():
    # the schema allows leading zeros: only a modulus of more than 4,300
    # digits after them is refused
    assert parse_group("Z" + "0" * 5000 + "12") == Z12
    assert parse_group("Z" + "0" * 5000 + "2xZ04xZ") == GroupSpec((2, 4), 1)
    assert refusal(parse_group, "Z1" + "0" * 4300) == (
        InvalidInputError, "modulus of 4301 digits is too large")


def test_group_literal_errors():
    # one line that names the literal and states the schema's pattern; it
    # has no whitespace and only ASCII digits, so " Z12 ", "Z2 x Z4" and
    # "Z\u0661\u0662", which int() would read, are refused too
    for bad in ("", "Q8", "Z0", "Z-2", "ZxZ2", "Z2x", "z12", "Z\u00b2", " Z12 ", "Z2 x Z4",
                "Z\u0661\u0662", "Z2\n", "Z2xZxZ3"):
        assert refusal(parse_group, bad) == (
            InvalidInputError, f"group literal {bad!r} does not match {LITERAL_PATTERN}")
