"""Partition numbers, constructive partitions, and their certificates."""

import math
import random
import sys

import pytest

from deltoids import (
    Deltoid,
    GroupSet,
    GroupSpec,
    InfiniteRhoError,
    InternalInconsistencyError,
    InvalidInputError,
    ObstructionWitness,
    ResourceLimitError,
    build_deltoid,
    deficiency,
    delta_set,
    find_witness,
    lambda_,
    lambda_by_feasibility,
    lambda_lower_bound,
    max_matching,
    partition_left,
    partition_right,
    rho,
    rho_by_feasibility,
    rho_by_pairs,
    rho_estimate_from_witness,
    u_set,
    validate_partition,
    verify_witness,
)
from deltoids.matching import subset_least
from deltoids.partition import _least_k
from helpers import (
    Z6,
    Z2xZ,
    hall_inequality_holds,
    left_inequality_holds,
    random_instance,
    right_inequality_holds,
    Z12,
    ceil_div,
    chain_deltoid,
    cyc,
    exhaustive_instances,
    golden_deltoid,
    gset,
    random_witnessed_instance,
    refusal,
    rows_deltoid,
    stabilizer_pairs,
    subsets_of,
)


def infinite_rho_deltoid():
    # 2 is in B and A + 2 = A, so no right-admissible set can contain 2
    A = gset(Z12, cyc(0, 2, 4, 6, 8, 10))
    B = gset(Z12, cyc(1, 2, 4, 6, 8, 10))
    return build_deltoid(A, B)


def test_rho_golden():
    D = golden_deltoid()
    assert rho(D) == 3
    # the even subgroup contributes ceil(5 / 2) = 3
    S = gset(Z12, cyc(0, 2, 4, 6, 8, 10))
    term = ceil_div(len(u_set(D, S).elements), D.size - len(S.elements))
    assert term == 3


def test_rho_infinite_when_b_stabilizes_a():
    assert rho(infinite_rho_deltoid()) is math.inf


def test_rho_sweep_bound():
    with pytest.raises(ResourceLimitError):
        rho(golden_deltoid(), subset_bound=7)


def test_rho_refuses_before_building_the_columns():
    # rho sweeps the rows and never builds D.columns, a full transposition,
    # whether it refuses at the sweep bound or answers within it
    group = GroupSpec((97,))
    D = build_deltoid(gset(group, cyc(*range(23))), gset(group, cyc(*range(1, 24))))
    with pytest.raises(ResourceLimitError, match=r"^\|A\| = 23 exceeds subset sweep bound 22$"):
        rho(D)
    assert "columns" not in D.__dict__
    D = build_deltoid(gset(group, cyc(*range(12))), gset(group, cyc(*range(1, 13))))
    assert rho(D) == rho_by_feasibility(build_deltoid(D.A, D.B)) < math.inf
    assert "columns" not in D.__dict__


def test_lambda_sweep_bound():
    with pytest.raises(ResourceLimitError):
        lambda_(golden_deltoid(), subset_bound=7)


def test_lambda_golden():
    D = golden_deltoid()
    assert lambda_(D) == 2
    # definitional sweep recomputed with plain sets
    best = 1
    for s_elems in subsets_of(D.A.elements):
        if not s_elems:
            continue
        d = len(delta_set(D, GroupSet(Z12, s_elems)).elements)
        best = max(best, ceil_div(len(s_elems), d))
    assert best == 2


def test_lambda_singleton_and_matchable():
    D = build_deltoid(gset(Z12, cyc(1)), gset(Z12, cyc(1)))
    assert lambda_(D) == 1
    assert deficiency(D) == 0
    assert partition_left(D, 1) is not None


def test_least_k_finds_every_threshold():
    for n in range(1, 41):
        for answer in range(1, n + 1):
            probes = []

            def clear(k):
                assert 1 <= k <= n
                probes.append(k)
                return k >= answer

            assert _least_k(clear, n) == answer
            # the common answer 1 costs at most one probe
            assert answer > 1 or len(probes) <= 1


@pytest.mark.parametrize("n", range(1, 13))
def test_partition_numbers_when_one_target_takes_everything(n):
    # every row is the one bit of b_0, so lambda = n: the doubling search's
    # worst case, capped at n when n is not a power of two; the transpose
    # (a_0 adjacent to every b, the other rows empty) has rho = n
    D = rows_deltoid([1] * n)
    assert lambda_(D) == lambda_by_feasibility(D) == n
    T = rows_deltoid([(1 << n) - 1] + [0] * (n - 1))
    assert rho(T) == rho_by_feasibility(T) == n


def test_partition_left_golden_threshold():
    D = golden_deltoid()
    assert partition_left(D, 2) is not None
    assert partition_left(D, 1) is None
    full = partition_left(D, D.size)
    assert full is not None
    assert validate_partition(D, full)


def test_partition_right_golden_threshold():
    D = golden_deltoid()
    part = partition_right(D, 3)
    assert part is not None
    assert validate_partition(D, part)
    nonempty = [c for c in part.classes if c.elements]
    assert len(nonempty) == 3
    covered = set()
    for cls in nonempty:
        assert not (covered & cls.member_set)
        covered |= cls.member_set
    assert covered == D.B.member_set
    assert partition_right(D, 2) is None


def test_partition_right_infinite_rho_always_infeasible():
    D = infinite_rho_deltoid()
    for k in range(1, 7):
        assert partition_right(D, k) is None


def test_feasibility_and_partitions_follow_long_augmenting_paths():
    # both sides place their sources along a path longer than the recursion limit
    n = 3 * sys.getrecursionlimit()
    left, right = chain_deltoid(n), chain_deltoid(n, transposed=True)
    assert lambda_by_feasibility(left) == 1
    assert rho_by_feasibility(right) == 1
    for D, build in ((left, partition_left), (right, partition_right)):
        part = build(D, 1)
        assert part is not None and validate_partition(D, part)


def test_partition_k_validation():
    assert refusal(partition_left, golden_deltoid(), 0) == (InvalidInputError, "k must be positive")
    assert refusal(partition_right, golden_deltoid(), -2) == (InvalidInputError, "k must be positive")


def test_partition_pads_with_empty_classes():
    D = build_deltoid(gset(Z12, cyc(1)), gset(Z12, cyc(1)))
    part = partition_left(D, 3)
    assert part is not None and len(part.classes) == 3
    assert [len(c.elements) for c in part.classes] == [1, 0, 0]
    assert validate_partition(D, part)


def test_max_matching_and_one_class_partition_share_one_search():
    # both read the deltoid's cached Kuhn search; either call order must
    # give what each gives on a fresh deltoid, so neither changes the cache
    rng = random.Random(66)
    instances = [golden_deltoid()] + [random_instance(rng, Z12, max_size=10) for _ in range(60)]
    assert any(partition_left(D, 1) is not None for D in instances)
    for D in instances:
        fresh = build_deltoid(D.A, D.B), build_deltoid(D.A, D.B)
        expected = repr(max_matching(fresh[0])), repr(partition_left(fresh[1], 1))
        D1 = build_deltoid(D.A, D.B)
        matching_first = repr(max_matching(D1)), repr(partition_left(D1, 1))
        D2 = build_deltoid(D.A, D.B)
        left = repr(partition_left(D2, 1))
        partition_first = repr(max_matching(D2)), left
        assert matching_first == partition_first == expected


def test_subset_probes_agree_with_the_inequalities_for_every_k():
    # deficiency, lambda and rho each pass subset_least their inequality on
    # D.rows: |S| <= |delta(S)| + d from d = 0, |S| <= k|delta(S)| and
    # |U_S| <= k(n - |S|) from k = 1.  Each is monotone in x, so from any
    # start x subset_least must stop at the first x' >= x where it holds.
    # A zero column (rho infinite) fails rho's at every k; rho answers it
    # before any sweep.
    rng = random.Random(17)
    seeded = [random_instance(rng, group, max_size=8) for group in (Z12, Z2xZ) for _ in range(20)]
    infinite = 0
    for D in [*exhaustive_instances(Z6, (1, 2, 3)), *seeded]:
        n = D.size
        probes = (
            (0, lambda d, y: y + d, hall_inequality_holds),
            (1, lambda k, y: k * y, left_inequality_holds),
            (1, lambda k, y: n - ceil_div(n - y, k), right_inequality_holds),
        )
        for start, limit, holds in probes:
            verdicts = [holds(D, x) for x in range(start, n + 1)]
            assert verdicts == sorted(verdicts)
            if not verdicts[-1]:
                assert holds is right_inequality_holds and rho(D) is math.inf
                infinite += 1
                continue
            least = start + verdicts.index(True)
            for x in range(start, n + 1):
                assert subset_least(D.rows, x, limit) == max(x, least)
    assert infinite > 0


def test_certificates_come_out_in_canonical_order():
    # every class is a canonically sorted set and every certificate's pairs
    # are sorted, on both sides and for every feasible k
    rng = random.Random(29)
    seen_right = 0
    for group in (Z12, Z2xZ):
        for _ in range(60):
            D = random_instance(rng, group, max_size=8)
            if deficiency(D) == 0:
                assert max_matching(D) == partition_left(D, 1).matchings[0]
            parts = [partition_left(D, k) for k in range(lambda_(D), D.size + 1)]
            r = rho(D)
            if r is not math.inf:
                parts += [partition_right(D, k) for k in range(r, D.size + 1)]
                seen_right += 1
            for part in parts:
                assert validate_partition(D, part)
                for cls, matching in zip(part.classes, part.matchings):
                    assert cls.elements == GroupSet.of(group, cls.elements).elements
                    assert list(matching.pairs) == sorted(matching.pairs)
    assert seen_right > 20


def test_partition_feasibility_matches_inequalities_and_thresholds():
    for D in exhaustive_instances(Z6, sizes=(1, 2, 3)):
        r = rho(D)
        lam = lambda_(D)
        for k in range(1, D.size + 1):
            left = partition_left(D, k)
            right = partition_right(D, k)
            assert (left is not None) == left_inequality_holds(D, k)
            assert (right is not None) == right_inequality_holds(D, k)
            assert (left is not None) == (k >= lam)
            if r is math.inf:
                assert right is None
            else:
                assert (right is not None) == (k >= r)
            for part in (left, right):
                if part is not None:
                    assert validate_partition(D, part)


def test_partition_thresholds_on_random_z12():
    rng = random.Random(777)
    for _ in range(500):
        D = random_instance(rng, Z12, max_size=8)
        lam = lambda_(D)
        r = rho(D)
        for k in (1, max(1, lam - 1), lam, lam + 1, D.size):
            assert (partition_left(D, k) is not None) == (k >= lam)
        probe = [1, D.size]
        if r is not math.inf:
            probe += [max(1, r - 1), r]
        for k in probe:
            feasible = partition_right(D, k) is not None
            assert feasible == (r is not math.inf and k >= r)


def test_right_partition_matches_pair_criterion():
    # feasibility at k agrees with the stabilized-pair inequality
    for D in exhaustive_instances(Z6, sizes=(1, 2)):
        n = D.size
        b_members = D.B.member_set
        pairs = list(stabilizer_pairs(D))
        for k in range(1, n + 1):
            ok = all(
                k * len(s) - (k - 1) * n <= len(b_members - r) for s, r in pairs
            )
            assert (partition_right(D, k) is not None) == ok


def test_rho_by_pairs_golden_and_floor():
    assert rho_by_pairs(golden_deltoid()) == 3
    single = build_deltoid(gset(Z12, cyc(1)), gset(Z12, cyc(1)))
    assert rho_by_pairs(single) == 1 == rho(single)


def test_rho_by_pairs_requires_finite_rho():
    with pytest.raises(InfiniteRhoError):
        rho_by_pairs(infinite_rho_deltoid())


def test_rho_and_lambda_route_agreement_exhaustive():
    for D in exhaustive_instances(Z6, sizes=(1, 2, 3)):
        r = rho(D)
        if r is math.inf:
            with pytest.raises(InfiniteRhoError):
                rho_by_pairs(D)
            with pytest.raises(InfiniteRhoError):
                rho_by_feasibility(D)
        else:
            assert rho_by_pairs(D) == r
            assert rho_by_feasibility(D) == r
        assert lambda_by_feasibility(D) == lambda_(D)


def test_lambda_lower_bound_golden_and_sweep():
    assert lambda_lower_bound(golden_deltoid()) == 2
    for D in exhaustive_instances(Z6, sizes=(1, 2, 3)):
        assert lambda_lower_bound(D) <= lambda_(D)


def _coset_deltoid(B):
    # A = {0, 6} in Z12 with every pair an edge: built without build_deltoid,
    # so its rows contradict its sets and reach the subgroup routes' guards
    return Deltoid(gset(Z12, cyc(0, 6)), gset(Z12, B), (0b11, 0b11))


def test_partition_fault_guards_refuse_an_inconsistent_deltoid():
    # a real deltoid has 6 stabilizing A = <6> (rho infinite) and 0 outside B
    assert refusal(rho_by_pairs, _coset_deltoid(cyc(6, 1))) == (
        InternalInconsistencyError, "A is a union of cosets meeting B"
    )
    assert refusal(lambda_lower_bound, _coset_deltoid(cyc(0, 6))) == (
        InternalInconsistencyError, "B inside a subgroup with a full coset in A"
    )
    D = _coset_deltoid(cyc(6, 1))
    w = ObstructionWitness(D.A, gset(Z12, cyc(6)), gset(Z12, []), gset(Z12, cyc(1)), 0)
    assert verify_witness(D, w)
    assert refusal(rho_estimate_from_witness, D, w) == (
        InternalInconsistencyError, "verified witness with empty Y yet finite rho"
    )


def test_rho_estimate_from_witness_golden():
    D = golden_deltoid()
    w = find_witness(D, 2)
    est = rho_estimate_from_witness(D, w)
    assert est == 3
    assert est <= rho(D)
    assert est > len(w.R.elements) / (len(w.R.elements) - w.level)


def test_rho_estimate_rejects_invalid_witness():
    D = golden_deltoid()
    w = find_witness(D, 2)
    broken = ObstructionWitness(w.S, w.R, w.Y, w.Z, level=3)
    assert refusal(rho_estimate_from_witness, D, broken) == (
        InvalidInputError, "witness does not verify: |Y| = 2 is not below |R| - level = 2")


def test_rho_estimate_refuses_infinite_rho():
    # A + 6 = A with 6 in B; S = A, R = {6}, Y = {} is a witness at level 0
    D = build_deltoid(gset(Z12, cyc(0, 1, 6, 7)), gset(Z12, cyc(2, 3, 4, 6)))
    w = ObstructionWitness(D.A, gset(Z12, cyc(6)), gset(Z12, []), gset(Z12, cyc(2, 3, 4)), 0)
    assert verify_witness(D, w)
    assert refusal(rho_estimate_from_witness, D, w) == (
        InfiniteRhoError, "estimate needs a finite right partition number"
    )


def test_rho_estimate_random_sweep():
    rng = random.Random(900)
    hits = 0
    for _ in range(200):
        D = random_witnessed_instance(rng, Z12)
        r = rho(D)
        if r is math.inf:
            continue
        delta = deficiency(D)
        for level in range(delta):
            w = find_witness(D, level)
            if w is None:
                continue
            est = rho_estimate_from_witness(D, w)
            assert est <= r
            assert est > len(w.R.elements) / (len(w.R.elements) - level)
            hits += 1
    assert hits > 20
