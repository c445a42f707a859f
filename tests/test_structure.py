"""Obstruction witnesses, the existence search, and the pair constructor."""

import random
import time
import tracemalloc

import pytest

from deltoids import (
    GroupSpec,
    InternalInconsistencyError,
    InvalidInputError,
    NoConstructionError,
    ObstructionWitness,
    build_deltoid,
    construct_deficient_pair,
    deficiency,
    enumerate_subgroups,
    existence_predicate,
    find_witness,
    parse_group,
    partial_matching_with_defect,
    structure,
    verify_witness,
)
from deltoids.groups import first_subgroup_of_order
from helpers import (
    TRIVIAL,
    Z2xZ2,
    Z2xZ4,
    Z6,
    Z12,
    cyc,
    exhaustive_instances,
    golden_deltoid,
    gset,
    is_subgroup,
    random_instance,
    reference_existence_predicate,
    refusal,
)


def test_find_witness_golden_level_two():
    D = golden_deltoid()
    w = find_witness(D, 2)
    assert w is not None
    assert w.S.elements == tuple(cyc(0, 2, 4, 6, 8, 10))
    assert w.R.elements == tuple(cyc(2, 4, 6, 8, 10))
    assert w.Y.elements == tuple(cyc(1, 11))
    assert w.Z.elements == tuple(cyc(1, 3, 11))
    assert w.level == 2
    assert verify_witness(D, w)


def test_find_witness_absent_cases():
    D = golden_deltoid()
    assert find_witness(D, 3) is None
    matchable = build_deltoid(gset(Z12, cyc(1, 2)), gset(Z12, cyc(1, 2)))
    assert find_witness(matchable, 0) is None
    assert refusal(find_witness, D, -1) == (InvalidInputError, "level must be nonnegative")


def test_verify_witness_rejects_damage():
    D = golden_deltoid()
    w = find_witness(D, 2)
    # moving 2 from S to Y breaks the coset-union structure
    moved = ObstructionWitness(
        S=gset(Z12, cyc(0, 4, 6, 8, 10)),
        R=w.R,
        Y=gset(Z12, cyc(1, 2, 11)),
        Z=w.Z,
        level=2,
    )
    bad = verify_witness(D, moved)
    assert not bad and "coset" in bad.reason
    # raising the level to 3 makes |Y| < |R| - level fail: 2 < 5 - 3 is false
    raised = ObstructionWitness(w.S, w.R, w.Y, w.Z, level=3)
    assert not verify_witness(D, raised)
    overlap = ObstructionWitness(w.S, w.R, D.A, w.Z, level=2)
    assert not verify_witness(D, overlap)
    empty_r = ObstructionWitness(D.A, gset(Z12, []), gset(Z12, []), D.B, level=0)
    assert not verify_witness(D, empty_r)


def test_verify_witness_names_an_infinite_subgroup():
    # (1, 1) has a nonzero free coordinate, so R generates an infinite subgroup
    group = parse_group("Z2xZ")
    D = build_deltoid(gset(group, [(0, 0), (1, 0)]), gset(group, [(1, 1), (1, 2)]))
    w = ObstructionWitness(
        S=gset(group, [(0, 0)]), R=gset(group, [(1, 1)]),
        Y=gset(group, [(1, 0)]), Z=gset(group, [(1, 2)]), level=0,
    )
    assert verify_witness(D, w).reason == "R generates an infinite subgroup"


def test_verify_witness_work_is_bounded_by_the_input():
    # R = {1} generates all of Z1000003, which would take seconds and over
    # 100 MB to build; testing S + r inside S needs |S| * |R| sums
    group = GroupSpec((1_000_003,))
    tracemalloc.start()
    try:
        D = build_deltoid(gset(group, cyc(0, 5)), gset(group, cyc(1, 2)))
        w = ObstructionWitness(
            S=gset(group, cyc(0)), R=gset(group, cyc(1)),
            Y=gset(group, cyc(5)), Z=gset(group, cyc(2)), level=0,
        )
        verdict = verify_witness(D, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.reason == "S is not a union of cosets of the subgroup R generates"
    assert peak < 2**20


def test_witness_biconditional_exhaustive_small():
    # Z2xZ2 exercises the diagonal subgroups that cyclic groups never show
    for group, sizes in ((Z6, (1, 2, 3)), (Z2xZ4, (1, 2, 3)), (Z2xZ2, (1, 2, 3))):
        for D in exhaustive_instances(group, sizes):
            delta = deficiency(D)
            for level in range(4):
                w = find_witness(D, level)
                assert (w is not None) == (delta > level)
                if w is not None:
                    assert verify_witness(D, w)


def test_witness_biconditional_random_z12():
    rng = random.Random(500)
    for _ in range(500):
        D = random_instance(rng, Z12, max_size=8)
        delta = deficiency(D)
        for level in range(4):
            w = find_witness(D, level)
            assert (w is not None) == (delta > level)


def test_witness_soundness_blocks_matching():
    # a verified witness at some level rules out matchings with that defect
    checked = 0
    for n in range(2, 12):
        for level in range(5):
            if existence_predicate(Z12, n, level) is None:
                continue
            built = construct_deficient_pair(Z12, n, level)
            D = build_deltoid(built.S.union(built.Y), built.R.union(built.Z))
            w = find_witness(D, level)
            assert w is not None and verify_witness(D, w)
            assert partial_matching_with_defect(D, level) is None
            checked += 1
    golden = golden_deltoid()
    for level in range(3):
        w = find_witness(golden, level)
        assert verify_witness(golden, w)
        assert partial_matching_with_defect(golden, level) is None
    assert checked >= 15  # the sweep exercised many constructed instances


def test_existence_predicate_examples():
    sub = existence_predicate(Z12, 8, 2)
    assert sub is not None and len(sub.elements) == 4
    assert existence_predicate(Z12, 11, 0) is None
    sub = existence_predicate(Z2xZ2, 2, 0)
    assert sub is not None and len(sub.elements) == 2


def test_existence_predicate_smallest_qualifying_order():
    # at n = 6 every level up to 4 is served by the order-6 subgroup,
    # while level 0 already works with order 2
    sub = existence_predicate(Z12, 6, 0)
    assert len(sub.elements) == 2
    sub = existence_predicate(Z12, 6, 4)
    assert len(sub.elements) == 6


def test_existence_predicate_parameter_errors():
    no_proper = (InvalidInputError, "group has no nontrivial proper subgroup")
    assert refusal(existence_predicate, TRIVIAL, 1, 0) == no_proper
    assert refusal(existence_predicate, GroupSpec((7,)), 3, 0) == no_proper  # prime order
    # below the smallest subgroup size, and not below |G|
    assert refusal(existence_predicate, Z12, 1, 0) == (
        InvalidInputError, "n must satisfy 2 <= n < 12, got 1")
    assert refusal(existence_predicate, Z12, 12, 0) == (
        InvalidInputError, "n must satisfy 2 <= n < 12, got 12")
    assert refusal(existence_predicate, Z12, 8, -1) == (
        InvalidInputError, "level must be nonnegative")


def _outcome(call):
    try:
        return call()
    except InvalidInputError as err:
        return type(err), str(err)


def test_existence_predicate_agrees_with_the_lattice_scan():
    # the divisor arithmetic and the greedy join give the subgroup the scan
    # over every subgroup picks, or the same error; n = 0 and n = |G| are
    # outside the range, level -1 is invalid
    literals = [
        "Z12", "Z2xZ2", "Z8", "Z2xZ4", "Z3xZ3", "Z2xZ6", "Z2xZ2xZ2", "Z4xZ4",
        "Z2xZ2xZ2xZ2", "Z2xZ2xZ2xZ2xZ2", "Z4xZ4xZ4", "Z2xZ4xZ8", "Z360", "Z6xZ6",
        "Z3xZ3xZ3", "Z2xZ3xZ4", "Z30", "Z9xZ3", "Z5xZ5", "Z2xZ2xZ3xZ3", "Z1", "Z7",
    ]
    for literal in literals:
        group = parse_group(literal)
        lattice = enumerate_subgroups(group)
        for n in [0, *range(1, min(group.order - 1, 60) + 1), group.order]:
            for level in range(-1, 5):
                got = _outcome(lambda: existence_predicate(group, n, level))
                want = _outcome(lambda: reference_existence_predicate(group, n, level, lattice))
                assert got == want, (literal, n, level)


def test_existence_predicate_on_big_lattices():
    # Z2^8 has 417,199 subgroups and Z2^13 far more; Z2xZ4999 has 4,998
    # elements of order 4999 that the order test skips without a join
    cases = [
        ("x".join(["Z2"] * 8), 40, 1, 4),
        ("x".join(["Z2"] * 13), 8, 0, 2),
        ("Z2xZ4999", 40, 0, 2),
        ("Z10000", 5000, 1000, 1250),
    ]
    start = time.perf_counter()
    subs = [existence_predicate(parse_group(literal), n, level) for literal, n, level, _ in cases]
    # about 0.04 s; joining every element of order 4999 takes over a second
    assert time.perf_counter() - start < 1.0
    assert subs[0].elements == ((0,) * 8, (0,) * 7 + (1,), (0,) * 6 + (1, 0), (0,) * 6 + (1, 1))
    for sub, (_, _, _, m) in zip(subs[1:3], cases[1:3]):
        assert len(sub.elements) == m and is_subgroup(sub)
    # a cyclic group has one subgroup per order; the closure oracle is
    # quadratic, too slow for 1,250 elements
    assert subs[3].elements == tuple(cyc(*range(0, 10000, 8)))


def test_construct_deficient_pair_golden():
    w = construct_deficient_pair(Z12, 8, 2)
    A, B = w.S.union(w.Y), w.R.union(w.Z)
    assert len(A.elements) == len(B.elements) == 8
    assert (0,) not in B
    D = build_deltoid(A, B)
    assert deficiency(D) > 2
    # all free choices resolve to smallest elements, so the output is pinned:
    # two cosets of the order-4 subgroup, then the smallest fillers
    assert A.elements == tuple(cyc(0, 1, 3, 4, 6, 7, 9, 10))
    assert B.elements == tuple(cyc(1, 2, 3, 4, 5, 6, 7, 9))


def test_construct_matches_its_own_witness():
    # the returned witness verifies at the level on the pair it describes:
    # S is q full cosets of the qualifying subgroup, R that subgroup minus 0
    for n in range(2, 12):
        for level in range(5):
            sub = existence_predicate(Z12, n, level)
            if sub is None:
                with pytest.raises(NoConstructionError):
                    construct_deficient_pair(Z12, n, level)
                continue
            w = construct_deficient_pair(Z12, n, level)
            D = build_deltoid(w.S.union(w.Y), w.R.union(w.Z))
            assert D.size == n and w.level == level
            assert w.R.elements == sub.elements[1:]
            assert len(w.S.elements) == n - n % len(sub.elements)
            assert verify_witness(D, w)
            assert deficiency(D) > level


def test_construct_returns_the_first_witness():
    # the built witness is the one the subgroup search finds on the built
    # pair, so construct reports the same bytes without searching
    literals = [
        "Z6", "Z8", "Z12", "Z16", "Z18", "Z24", "Z30", "Z2xZ2", "Z2xZ2xZ2",
        "Z2xZ2xZ2xZ2", "Z2xZ2xZ2xZ2xZ2", "Z2xZ4", "Z2xZ6", "Z3xZ3", "Z4xZ4",
        "Z2xZ2xZ4", "Z2xZ3xZ4", "Z36", "Z60", "Z6xZ6", "Z2xZ4xZ8",
    ]
    checked = 0
    for literal in literals:
        group = parse_group(literal)
        smallest = min(m for m in range(2, group.order) if group.order % m == 0)
        for n in range(smallest, group.order):
            for level in range(min(n, 8)):
                if existence_predicate(group, n, level) is None:
                    with pytest.raises(NoConstructionError):
                        construct_deficient_pair(group, n, level)
                    continue
                w = construct_deficient_pair(group, n, level)
                D = build_deltoid(w.S.union(w.Y), w.R.union(w.Z))
                assert verify_witness(D, w), (literal, n, level)
                assert w == find_witness(D, level), (literal, n, level)
                checked += 1
    assert checked == 1858


def test_forward_direction_from_random_instances():
    # any instance with deficiency above level forces the predicate present
    rng = random.Random(502)
    for _ in range(300):
        D = random_instance(rng, Z12, max_size=10)
        delta = deficiency(D)
        n = D.size
        if not 2 <= n <= 11:
            continue
        for level in range(min(delta, 5)):
            assert existence_predicate(Z12, n, level) is not None


@pytest.mark.parametrize("n, order, message", [
    (13, 2, "ran out of elements for Y"),
    (12, 1, "ran out of elements for Z"),
    (8, 12, "constructed sets have the wrong size"),
])
def test_construct_guards_refuse_a_wrong_subgroup(monkeypatch, n, order, message):
    # existence_predicate never returns these: <6> leaves no element for Y
    # at n = 13, {0} leaves 11 for 12 of Z, and Z12 itself makes |R| = 11
    sub = first_subgroup_of_order(Z12, order)
    monkeypatch.setattr(structure, "existence_predicate", lambda *args: sub)
    with pytest.raises(InternalInconsistencyError, match=f"^{message}$"):
        construct_deficient_pair(Z12, n, 0)


def test_construct_rejected_when_predicate_absent():
    with pytest.raises(NoConstructionError):
        construct_deficient_pair(Z12, 11, 0)
    with pytest.raises(NoConstructionError):
        construct_deficient_pair(Z12, 2, 1)
