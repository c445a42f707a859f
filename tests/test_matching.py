"""Maximum matchings, deficiency routes, and the defect-bound corollaries."""

import random
import sys

import pytest

from deltoids import (
    InvalidDefectError,
    PartialMatching,
    ResourceLimitError,
    build_deltoid,
    chowla_defect,
    deficiency,
    deficiency_by_subsets,
    lambda_,
    max_matching,
    max_progression_length,
    order,
    partial_matching_with_defect,
    rho,
    verify_matching,
)
from deltoids.matching import _check_subset_bound, assign, subset_blocks, subset_least_k
from helpers import (
    Z2xZ,
    Z2xZ4,
    Z3,
    Z6,
    Z8,
    Z12,
    brute_deficiency,
    chain_deltoid,
    chain_rows,
    cyc,
    cyclic_instance,
    exhaustive_instances,
    golden_deltoid,
    gset,
    random_instance,
    reference_assign,
    refusal,
    rows_deltoid,
)


def test_max_matching_golden():
    D = golden_deltoid()
    m = max_matching(D)
    assert len(m.pairs) == 5
    assert m.defect == 3
    assert verify_matching(D, m)


def test_augmenting_path_longer_than_recursion_limit():
    n = 3 * sys.getrecursionlimit()
    holders, unplaced = assign(chain_rows(n), 1)
    assert unplaced == 0
    # the last row takes column 0 and every other row shifts one column up
    assert holders == [[n - 1]] + [[i] for i in range(n - 1)]
    D = chain_deltoid(n)
    m = max_matching(D)
    assert m.defect == 0 and verify_matching(D, m)


def test_assign_capacity_and_unplaced_count():
    # three sources share one target of capacity 2; the third stays unplaced
    assert assign([1, 1, 1], 2) == ([[0, 1], [], []], 1)
    # a full target's holder moves on and the newcomer joins the end of the list
    assert assign([0b01, 0b11, 0b01], 2) == ([[0, 2], [1], []], 0)


def random_masks(rng, n, density):
    return [sum(1 << t for t in range(n) if rng.random() < density) for _ in range(n)]


def test_assign_matches_reference_and_lookahead_keeps_the_count():
    rng = random.Random(6)
    for _ in range(20_000):
        n = rng.randint(1, 14)
        k = rng.randint(1, 3)
        masks = random_masks(rng, n, rng.random())
        expected = reference_assign(masks, k)
        assert assign(masks, k) == expected, (masks, k)
        assert assign(masks, k, lookahead=True)[1] == expected[1], (masks, k)


def test_assign_matches_reference_at_ladder_size():
    # Z997 n = 300 masks span several machine words, and the Kuhn search
    # runs augmenting paths of 150 to 300 sources on both sides of the
    # adjacency; at k = 2 the order of each holder list decides which
    # holder a path descends into
    rng = random.Random(997)
    for shape in ("uniform", "progression"):
        D = cyclic_instance(rng, 997, 300, shape)
        for side, masks in (("rows", D.rows), ("columns", D.columns)):
            for k in (1, 2):
                expected = reference_assign(masks, k)
                assert assign(masks, k) == expected, (shape, side, k)
                assert assign(masks, k, lookahead=True)[1] == expected[1], (shape, side, k)


def test_assign_strongly_deficient_keeps_reference_order():
    # 40 sources crowd onto targets 0..3, so most fail and leave those
    # targets dead; the 24 later sources reach the dead targets as well as
    # live ones, and must place exactly as the reference does
    rng = random.Random(61)
    masks = [rng.randint(1, 0b1111) for _ in range(40)]
    masks += [rng.getrandbits(64) | rng.randint(1, 0b1111) for _ in range(24)]
    for k in (1, 2, 3):
        expected = reference_assign(masks, k)
        assert expected[1] == 40 - 4 * k
        assert assign(masks, k) == expected
        assert assign(masks, k, lookahead=True)[1] == expected[1]


def test_max_matching_singleton():
    D = build_deltoid(gset(Z3, cyc(1)), gset(Z3, cyc(1)))
    m = max_matching(D)
    assert len(m.pairs) == 1 and m.defect == 0


def test_max_matching_deterministic():
    D1 = golden_deltoid()
    D2 = golden_deltoid()
    assert max_matching(D1) == max_matching(D2)


def test_max_matching_agrees_with_subset_oracle_on_random_z8():
    rng = random.Random(88)
    for _ in range(150):
        D = random_instance(rng, Z8, max_size=6)
        assert deficiency(D) == deficiency_by_subsets(D)


def test_deficiency_golden():
    assert deficiency(golden_deltoid()) == 3


def test_self_pair_matchable_when_identity_absent():
    rng = random.Random(36)
    for _ in range(60):
        D = random_instance(rng, Z12, max_size=8, identity_in_a=False)
        self_pair = build_deltoid(D.A, D.A)
        assert deficiency(self_pair) == 0


def test_partial_matching_with_defect_golden():
    D = golden_deltoid()
    got = partial_matching_with_defect(D, 3)
    assert got is not None and got.defect == 3
    assert verify_matching(D, got)
    assert partial_matching_with_defect(D, 2) is None
    empty = partial_matching_with_defect(D, 8)
    assert empty is not None and empty.pairs == () and empty.defect == 8
    assert verify_matching(D, empty)


def test_partial_matching_defect_out_of_range():
    D = golden_deltoid()
    with pytest.raises(InvalidDefectError):
        partial_matching_with_defect(D, 9)
    with pytest.raises(InvalidDefectError):
        partial_matching_with_defect(D, -1)


def test_defect_monotone_over_small_instances():
    for D in exhaustive_instances(Z6, sizes=(1, 2)):
        delta = deficiency(D)
        for d in range(D.size + 1):
            got = partial_matching_with_defect(D, d)
            assert (got is not None) == (d >= delta)
            if got is not None:
                assert got.defect == d
                assert verify_matching(D, got)


def test_deficiency_by_subsets_examples():
    assert deficiency_by_subsets(golden_deltoid()) == 3
    assert deficiency_by_subsets(build_deltoid(gset(Z3, cyc(1)), gset(Z3, cyc(1)))) == 0


def test_deficiency_by_subsets_bound():
    with pytest.raises(ResourceLimitError):
        deficiency_by_subsets(golden_deltoid(), subset_bound=7)


@pytest.mark.parametrize("n", [130, 256])
def test_sweeps_refuse_large_n_before_any_table(n):
    # each built a byte table from n before the bound was checked, which
    # raised ValueError from subset_least_k at n >= 128 and from both at
    # n >= 256
    D = cyclic_instance(random.Random(n), 4001, n, "uniform")
    message = f"|A| = {n} exceeds subset sweep bound 22"
    assert refusal(deficiency_by_subsets, D) == (ResourceLimitError, message)
    assert refusal(subset_least_k, D.rows) == (ResourceLimitError, message)


def test_sweep_lane_limit_is_refused_whatever_the_bound():
    # the byte lanes of subset_blocks carry past n = 127, so no subset_bound
    # admits more.  The one reader of the bound is checked first: a sweep
    # that went past it would iterate 2^112 block tails.
    message = "|A| = 128 exceeds subset sweep lane limit 127, which subset_bound cannot raise"
    assert refusal(_check_subset_bound, 128, 1000) == (ResourceLimitError, message)
    assert _check_subset_bound(127, 1000) == 127
    D = cyclic_instance(random.Random(128), 4001, 128, "uniform")
    for sweep, masks in ((subset_blocks, D.rows), (subset_least_k, D.rows),
                         (deficiency_by_subsets, D), (rho, D), (lambda_, D)):
        assert refusal(sweep, masks, 1000) == (ResourceLimitError, message)


def joined_blocks(masks):
    # the blocks of the streamed sweep, joined back into two 2^n-byte planes
    sizes, degrees = zip(*subset_blocks(masks))
    return b"".join(sizes), b"".join(degrees)


def test_subset_planes_against_or_of_rows():
    rng = random.Random(11)
    for n in range(1, 11):
        for _ in range(5):
            rows = [rng.getrandbits(n) for _ in range(n)]
            sizes, degrees = joined_blocks(rows_deltoid(rows).rows)
            assert len(sizes) == len(degrees) == 1 << n
            for m in range(1 << n):
                expected = 0
                for i in range(n):
                    if m >> i & 1:
                        expected |= rows[i]
                assert degrees[m] == expected.bit_count()
                assert sizes[m] == m.bit_count()


def test_subset_planes_across_blocks():
    # the sweep yields 2^16 subsets per block, in subset order
    rng = random.Random(12)
    for n in (16, 17, 18):
        rows = [rng.getrandbits(n) for _ in range(n)]
        sizes, degrees = joined_blocks(rows_deltoid(rows).rows)
        assert len(sizes) == len(degrees) == 1 << n
        table = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            table[m] = table[m ^ low] | rows[low.bit_length() - 1]
        assert degrees == bytes(mask.bit_count() for mask in table)
        assert sizes == bytes(m.bit_count() for m in range(1 << n))


def test_oracle_agreement_exhaustive_and_brute():
    for D in exhaustive_instances(Z6, sizes=(1, 2, 3)):
        expected = brute_deficiency(D)
        assert deficiency(D) == expected
        assert deficiency_by_subsets(D) == expected


def test_oracle_agreement_random_groups():
    for seed, group in ((7, Z12), (8, Z2xZ4), (9, Z2xZ)):
        rng = random.Random(seed)
        for _ in range(150):
            D = random_instance(rng, group, max_size=7)
            assert deficiency(D) == deficiency_by_subsets(D)


def test_verify_matching_rejects_tampering():
    D = golden_deltoid()
    m = max_matching(D)
    # rerouting 0 to 4 lands back inside A since 0 + 4 = 4
    bad_pairs = tuple(((0,), (4,)) if a == (0,) else (a, b) for a, b in m.pairs)
    assert not verify_matching(D, PartialMatching(bad_pairs, m.defect))
    dup_domain = (m.pairs[0], (m.pairs[0][0], m.pairs[1][1])) + m.pairs[2:]
    assert not verify_matching(D, PartialMatching(dup_domain, m.defect))
    dup_range = (m.pairs[0], (m.pairs[1][0], m.pairs[0][1])) + m.pairs[2:]
    assert not verify_matching(D, PartialMatching(dup_range, m.defect))
    assert not verify_matching(D, PartialMatching(m.pairs, m.defect + 1))
    assert not verify_matching(D, PartialMatching((((3,), (1,)),), 7))
    assert not verify_matching(D, PartialMatching((((0,), (5,)),), 7))
    assert verify_matching(D, PartialMatching((), 8))


def test_intersection_defect_bound():
    # with the identity outside both sets, |A| - |A n B| matchings suffice
    rng = random.Random(41)
    for _ in range(200):
        D = random_instance(rng, Z12, max_size=8, identity_in_a=False)
        bound = D.size - len(D.A.intersection(D.B).elements)
        assert deficiency(D) <= bound


def test_progression_order_defect_bound():
    # no progression longer than n with ratio in B, few low-order elements:
    # the deficiency stays within the count of low-order elements of B
    rng = random.Random(42)
    for group in (Z12, Z2xZ4, Z2xZ):
        for _ in range(120):
            D = random_instance(rng, group, max_size=6)
            n = max(max_progression_length(D.A, x) for x in D.B.elements)
            d = sum(1 for x in D.B.elements if order(group, x) <= n)
            assert deficiency(D) <= d


def test_chowla_defect_bound():
    rng = random.Random(43)
    for group in (Z12, Z2xZ4, Z2xZ):
        for _ in range(120):
            D = random_instance(rng, group, max_size=6)
            bound = chowla_defect(D.B)
            assert bound <= len(D.B.elements)
            assert deficiency(D) <= bound
