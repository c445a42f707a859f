"""GroupSet, instance validation, neighborhoods, progressions, Chowla defect."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltoids import (
    EmptySetError,
    GroupMismatchError,
    GroupSpec,
    GroupSet,
    IdentityInBError,
    InvalidElementError,
    NotASubsetError,
    SizeMismatchError,
    build_deltoid,
    chowla_defect,
    compose,
    delta_set,
    max_progression_length,
    order,
    parse_group,
    u_set,
)
from helpers import (
    GOLDEN_A,
    GOLDEN_B,
    Z3,
    Z6,
    Z12,
    brute_delta_elems,
    brute_rows,
    cyc,
    cyclic_instance,
    exhaustive_instances,
    golden_deltoid,
    gset,
    random_instance,
    subsets_of,
)


def test_group_set_canonicalizes_dedups_sorts():
    s = GroupSet.of(Z12, [[14], [2], [2], [-1], [0]])
    assert s.elements == ((0,), (2,), (11,))
    assert (2,) in s and (5,) not in s
    assert len(s) == 3


def test_build_deltoid_golden_shape():
    D = golden_deltoid()
    assert D.size == 8
    assert len(D.rows) == 8
    # spot-assert the stored adjacency by direct recomputation
    members = set(D.A.elements)
    for i, a in enumerate(D.A.elements):
        for j, b in enumerate(D.B.elements):
            assert D.adjacent(i, j) == (compose(Z12, a, b) not in members)
    assert D.adjacent(0, 2) == ((0 + 3) % 12 not in {e[0] for e in D.A.elements})


def test_build_deltoid_singleton():
    D = build_deltoid(gset(Z3, cyc(1)), gset(Z3, cyc(1)))
    assert D.rows == (1,)


def test_build_deltoid_errors():
    with pytest.raises(IdentityInBError):
        build_deltoid(gset(Z12, cyc(1, 2)), gset(Z12, cyc(0, 1)))
    with pytest.raises(SizeMismatchError):
        build_deltoid(gset(Z12, cyc(1, 2)), gset(Z12, cyc(1)))
    with pytest.raises(EmptySetError):
        build_deltoid(gset(Z12, []), gset(Z12, []))
    with pytest.raises(GroupMismatchError):
        build_deltoid(gset(Z12, cyc(1)), gset(Z6, cyc(1)))


# The last three have torsion orders far above n, so their rows take the
# plain lookup path instead of masks.
KERNEL_GROUPS = (
    "Z12", "Z8", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3", "Z2xZ6", "Z2xZ2xZ2xZ2", "Z997",
    "Z2xZ", "Z6xZ", "Z3xZxZ", "Z", "Z1000003", "Z1000003xZ", "Z1000000000000000000",
)


def test_build_deltoid_rows_match_plain_sets():
    # Free coordinates come from a few values, small or of size 10^12, so
    # that sums of free parts land on free parts of A and rows mix both
    # outcomes.
    rng = random.Random(2024)
    for literal in KERNEL_GROUPS:
        group = parse_group(literal)
        for palette in ([-1, 0, 1, 2], [-10**12, 0, 10**12, 2 * 10**12]):
            for _ in range(25):
                def draw():
                    head = [rng.randrange(n) for n in group.torsion]
                    return tuple(head + [rng.choice(palette) for _ in range(group.free_rank)])
                n = rng.randint(1, 10)
                A, B = sorted({draw() for _ in range(n)}), set()
                for _ in range(10 * n):
                    # half of B from A itself, so a*b often lands back in A
                    x = rng.choice(A) if rng.random() < 0.5 else draw()
                    if x != group.identity and len(B) < len(A):
                        B.add(x)
                A, B = GroupSet.of(group, A[: len(B)]), GroupSet.of(group, B)
                assert build_deltoid(A, B).rows == brute_rows(A, B), (literal, A, B)


def test_columns_transpose_rows():
    rng = random.Random(57)
    instances = [golden_deltoid()]
    instances += [random_instance(rng, Z12, max_size=11) for _ in range(100)]
    # widths around one machine word, and one past a 256-row block
    instances += [cyclic_instance(rng, 997, n, "uniform") for n in (63, 64, 65, 300)]
    for D in instances:
        n = D.size
        assert len(D.columns) == n
        for i in range(n):
            for j in range(n):
                assert (D.columns[j] >> i & 1) == (D.rows[i] >> j & 1), (D, i, j)


def test_build_deltoid_trivial_group_and_wrong_length():
    Z1 = parse_group("Z1")
    with pytest.raises(IdentityInBError):
        build_deltoid(GroupSet.of(Z1, [[]]), GroupSet.of(Z1, [[]]))
    # the raw constructor skips canonicalization; build_deltoid still
    # checks every element's length
    with pytest.raises(InvalidElementError):
        build_deltoid(GroupSet(Z12, ((1,), (2, 0))), gset(Z12, cyc(1, 2)))
    with pytest.raises(InvalidElementError):
        build_deltoid(gset(Z12, cyc(1, 2)), GroupSet(Z12, ((1,), (2, 0))))


def test_delta_set_golden():
    D = golden_deltoid()
    assert delta_set(D, gset(Z12, cyc(0, 2, 4, 6, 8, 10))).elements == tuple(
        cyc(1, 3, 11)
    )
    assert delta_set(D, gset(Z12, [])).elements == ()
    assert delta_set(D, D.A) == D.B


def test_delta_set_not_a_subset():
    D = golden_deltoid()
    with pytest.raises(NotASubsetError):
        delta_set(D, gset(Z12, cyc(3)))
    with pytest.raises(NotASubsetError):
        delta_set(D, gset(Z6, cyc(1)))


def test_u_set_golden():
    D = golden_deltoid()
    assert u_set(D, gset(Z12, cyc(0, 2, 4, 6, 8, 10))).elements == tuple(
        cyc(2, 4, 6, 8, 10)
    )
    assert u_set(D, gset(Z12, [])) == D.B
    assert u_set(D, D.A).elements == ()


def test_delta_and_u_decode_past_one_machine_word():
    # 200 columns span several machine words; S = A has delta(A) = B, so
    # its mask has the top bit set, and u(A) is empty
    rng = random.Random(200)
    D = cyclic_instance(rng, 997, 200, "uniform")
    a_elems = list(D.A.elements)
    subsets = [[], a_elems] + [rng.sample(a_elems, k) for k in (1, 5, 60, 140, 199)]
    for s in subsets:
        S = GroupSet(D.A.group, tuple(sorted(s)))
        expected = brute_delta_elems(D, s)
        assert delta_set(D, S).elements == tuple(b for b in D.B.elements if b in expected)
        assert u_set(D, S).elements == tuple(b for b in D.B.elements if b not in expected)
    assert delta_set(D, D.A) == D.B and u_set(D, D.A).elements == ()
    assert u_set(D, GroupSet(D.A.group, ())) == D.B
    outside = next((x,) for x in range(997) if (x,) not in D.A)
    for neighborhood in (delta_set, u_set):
        with pytest.raises(NotASubsetError) as missing:
            neighborhood(D, GroupSet.of(D.A.group, [outside, a_elems[0]]))
        assert str(missing.value) == f"{outside} is not in A"
        with pytest.raises(NotASubsetError) as foreign:
            neighborhood(D, gset(Z12, cyc(1)))
        assert str(foreign.value) == "subset lives in a different group"


def test_delta_and_u_partition_b_exhaustively():
    # delta(S) and u(S) split B, and u(S) != B for nonempty S, on every
    # subset of every small instance plus the golden one.
    instances = list(exhaustive_instances(Z6, sizes=(1, 2))) + [golden_deltoid()]
    for D in instances:
        group = D.A.group
        for s_elems in subsets_of(D.A.elements):
            S = GroupSet(group, s_elems)
            d = delta_set(D, S)
            u = u_set(D, S)
            assert not (d.member_set & u.member_set)
            assert d.member_set | u.member_set == D.B.member_set
            assert set(d.elements) == brute_delta_elems(D, s_elems)
            if s_elems:
                assert u != D.B


@given(st.data())
@settings(max_examples=60, derandomize=True, deadline=None)
def test_delta_set_monotone(data):
    D = golden_deltoid()
    small = data.draw(st.sets(st.sampled_from(D.A.elements)))
    extra = data.draw(st.sets(st.sampled_from(D.A.elements)))
    big = small | extra
    d_small = delta_set(D, GroupSet.of(Z12, small))
    d_big = delta_set(D, GroupSet.of(Z12, big))
    assert d_small.member_set <= d_big.member_set


def test_max_progression_length_examples():
    assert max_progression_length(gset(Z12, cyc(0, 2, 4)), (2,)) == 3
    # the whole orbit of 2 lies inside <2>, so the cap at order(2) = 6 binds
    assert max_progression_length(gset(Z12, cyc(0, 2, 4, 6, 8, 10)), (2,)) == 6
    # ratio 11 walks 2 -> 1 -> 0 -> 11 -> 10 through the golden A
    assert max_progression_length(gset(Z12, GOLDEN_A), (11,)) == 5


def test_max_progression_length_brute():
    A = gset(Z12, GOLDEN_A)
    for x in ((1,), (2,), (3,), (5,), (11,)):
        ox = order(Z12, x)
        best = 1
        for a in A.elements:
            cur, length = a, 1
            while length < ox:
                cur = compose(Z12, cur, x)
                if cur not in A:
                    break
                length += 1
            best = max(best, length)
        assert max_progression_length(A, x) == best
        assert max_progression_length(A, x) <= ox


def test_max_progression_cap_iff_full_coset():
    # length reaches order(x) exactly when some whole <x>-coset sits in A
    for a_elems in ([0, 2, 4, 6, 8, 10], [0, 1, 2, 3], [1, 5, 9], [0, 4, 8, 2]):
        A = gset(Z12, cyc(*a_elems))
        x = (4,)
        coset_in = any(
            all(compose(Z12, a, (4 * k,)) in A for k in range(3)) for a in A.elements
        )
        assert (max_progression_length(A, x) == order(Z12, x)) == coset_in


def test_chowla_defect_examples():
    assert chowla_defect(gset(Z12, GOLDEN_B)) == 6
    assert chowla_defect(GroupSet.of(GroupSpec((), 1), [[1]])) == 0
    assert chowla_defect(gset(Z12, cyc(6))) == 0
    # zero defect means every element has order above |B|
    B = gset(Z12, cyc(5, 7, 11))
    assert chowla_defect(B) == 0
    assert all(order(Z12, x) > len(B) for x in B)
