"""Acceptance suite: one pass/fail line per criterion (run with pytest -s).

Every expected number here is either a frozen golden value or recomputed by
an independent brute-force oracle; seeds are fixed so reruns are identical.
"""

import math
import random
import time
from itertools import combinations

from deltoids import (
    GroupSet,
    build_deltoid,
    chowla_defect,
    compose,
    construct_deficient_pair,
    deficiency,
    deficiency_by_subgroups,
    deficiency_by_subsets,
    elements_of,
    existence_predicate,
    find_witness,
    lambda_,
    lambda_lower_bound,
    max_progression_length,
    order,
    partition_left,
    partition_right,
    rho,
    rho_estimate_from_witness,
    stabilize,
    validate_partition,
    verify_witness,
)
from helpers import (
    Z2xZ,
    Z2xZ4,
    Z6,
    Z9,
    Z12,
    exhaustive_instances,
    golden_deltoid,
    left_inequality_holds,
    random_instance,
    random_witnessed_instance,
    right_inequality_holds,
    universe_for,
)


def check(num, description, ok):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_golden_deficiency_three_routes():
    start = time.perf_counter()
    D = golden_deltoid()
    values = (deficiency(D), deficiency_by_subsets(D), deficiency_by_subgroups(D))
    elapsed = time.perf_counter() - start
    ok = values == (3, 3, 3) and elapsed < 1.0
    check(1, f"golden Z12 deficiency 3 by all routes (got {values}, {elapsed:.3f}s)", ok)


def test_criterion_2_golden_right_partition():
    start = time.perf_counter()
    D = golden_deltoid()
    r = rho(D)
    part = partition_right(D, 3)
    ok = r == 3 and part is not None and bool(validate_partition(D, part))
    if ok:
        nonempty = [c for c in part.classes if c.elements]
        covered = set()
        disjoint = True
        for cls in nonempty:
            disjoint = disjoint and not (covered & cls.member_set)
            covered |= cls.member_set
        ok = len(nonempty) == 3 and disjoint and covered == D.B.member_set
    ok = ok and partition_right(D, 2) is None
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    check(2, f"golden Z12 rho 3, partition at 3, infeasible at 2 ({elapsed:.3f}s)", ok)


def test_criterion_3_witness_biconditional_exhaustive_z6():
    start = time.perf_counter()
    failures = 0
    instances = 0
    for D in exhaustive_instances(Z6, sizes=(1, 2, 3)):
        instances += 1
        delta = deficiency(D)
        for level in range(4):
            witness = find_witness(D, level)
            if (witness is not None) != (delta > level):
                failures += 1
            if witness is not None and not verify_witness(D, witness):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    check(
        3,
        f"witness present iff deficiency exceeds level on {instances} Z6 instances "
        f"x 4 levels ({failures} exceptions, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_4_triple_formula_agreement():
    failures = 0
    total = 0
    for D in exhaustive_instances(Z6, sizes=(1, 2, 3)):
        total += 1
        d = deficiency(D)
        if deficiency_by_subsets(D) != d or deficiency_by_subgroups(D) != d:
            failures += 1
    for seed, group, with_subgroups in (
        (101, Z12, True),
        (102, Z2xZ4, True),
        (103, Z2xZ, False),
    ):
        rng = random.Random(seed)
        for _ in range(500):
            D = random_instance(rng, group, max_size=8)
            total += 1
            d = deficiency(D)
            if deficiency_by_subsets(D) != d:
                failures += 1
            if with_subgroups and deficiency_by_subgroups(D) != d:
                failures += 1
    check(4, f"three deficiency routes agree on {total} instances ({failures} exceptions)", failures == 0)


def test_criterion_5_existence_theorem_both_directions():
    failures = []
    # forward: predicate present -> the constructed pair overshoots the level
    for n in range(2, 12):
        for level in range(5):
            sub = existence_predicate(Z12, n, level)
            if sub is None:
                continue
            w = construct_deficient_pair(Z12, n, level)
            if deficiency(build_deltoid(w.S.union(w.Y), w.R.union(w.Z))) <= level:
                failures.append(("construct", n, level))
    # converse: predicate absent -> no counterexample, exhaustively for
    # n <= 4 and by 10^4 seeded samples for larger n
    absent = {
        n: [lv for lv in range(5) if existence_predicate(Z12, n, lv) is None]
        for n in range(2, 12)
    }
    uni = elements_of(Z12)
    nonzero = uni[1:]
    for n in (2, 3, 4):
        if not absent[n]:
            continue
        bound = min(absent[n])
        for a_elems in combinations(uni, n):
            A = GroupSet(Z12, a_elems)
            for b_elems in combinations(nonzero, n):
                if deficiency(build_deltoid(A, GroupSet(Z12, b_elems))) > bound:
                    failures.append(("exhaustive", n, bound))
    rng = random.Random(314159)
    for n in range(5, 12):
        if not absent[n]:
            continue
        bound = min(absent[n])
        for _ in range(10_000):
            A = GroupSet.of(Z12, rng.sample(uni, n))
            B = GroupSet.of(Z12, rng.sample(nonzero, n))
            if deficiency(build_deltoid(A, B)) > bound:
                failures.append(("sampled", n, bound))
    check(5, f"existence theorem both directions on Z12 ({len(failures)} exceptions)", not failures)


def _stabilize_contract_holds(A, S, R, S2, R2):
    group = A.group
    product = {compose(group, s, r) for s in S2.elements for r in R2.elements}
    return (
        S.member_set <= S2.member_set
        and product == S2.member_set
        and S2.member_set <= A.member_set
        and group.identity in R2
        and R2.member_set <= R.member_set
        and len(S2.elements) + len(R2.elements) == len(S.elements) + len(R.elements)
    )


def test_criterion_6_e_transform_certification():
    failures = 0
    for seed, group in ((601, Z12), (602, Z2xZ4)):
        rng = random.Random(seed)
        uni = universe_for(group)
        for _ in range(500):
            a_elems = rng.sample(uni, rng.randint(2, min(9, len(uni))))
            A = GroupSet.of(group, a_elems)
            S = GroupSet.of(group, rng.sample(A.elements, rng.randint(1, len(A.elements))))
            allowed = [
                x
                for x in uni
                if all(compose(group, s, x) in A.member_set for s in S.elements)
            ]
            r_elems = {group.identity}
            if allowed:
                r_elems.update(rng.sample(allowed, rng.randint(0, len(allowed))))
            R = GroupSet.of(group, r_elems)
            S2, R2 = stabilize(A, S, R)
            if not _stabilize_contract_holds(A, S, R, S2, R2):
                failures += 1
    check(6, f"1000 seeded e-transform stabilizations meet the contract ({failures} exceptions)", failures == 0)


def test_criterion_7_partition_minimality_and_criteria():
    failures = 0
    instances = 0
    for D in exhaustive_instances(Z6, sizes=(1, 2, 3)):
        instances += 1
        lam = lambda_(D)
        r = rho(D)
        for k in range(1, D.size + 1):
            left = partition_left(D, k)
            right = partition_right(D, k)
            if (left is not None) != (k >= lam):
                failures += 1
            want_right = r is not math.inf and k >= r
            if (right is not None) != want_right:
                failures += 1
            if (left is not None) != left_inequality_holds(D, k):
                failures += 1
            if (right is not None) != right_inequality_holds(D, k):
                failures += 1
            if left is not None and not validate_partition(D, left):
                failures += 1
            if right is not None and not validate_partition(D, right):
                failures += 1
    check(
        7,
        f"partition feasibility matches lambda/rho thresholds and subset criteria "
        f"on {instances} Z6 instances ({failures} exceptions)",
        failures == 0,
    )


def test_criterion_8_corollary_bounds():
    failures = 0
    counts = {"intersection": 0, "chowla": 0, "progression": 0, "lambda": 0, "rho": 0}
    batches = [
        (801, Z12, random_instance, 250),
        (802, Z12, random_witnessed_instance, 150),
        (803, Z2xZ4, random_instance, 200),
        (804, Z2xZ4, random_witnessed_instance, 100),
        (805, Z9, random_instance, 150),
        (806, Z2xZ, random_instance, 150),
    ]
    total = 0
    for seed, group, make, count in batches:
        rng = random.Random(seed)
        for _ in range(count):
            D = make(rng, group)
            total += 1
            delta = deficiency(D)
            identity = group.identity
            if identity not in D.A and identity not in D.B:
                counts["intersection"] += 1
                if delta > D.size - len(D.A.intersection(D.B).elements):
                    failures += 1
            bound = chowla_defect(D.B)
            if bound <= len(D.B.elements):
                counts["chowla"] += 1
                if delta > bound:
                    failures += 1
            n = max(max_progression_length(D.A, x) for x in D.B.elements)
            low_order = sum(1 for x in D.B.elements if order(group, x) <= n)
            counts["progression"] += 1
            if delta > low_order:
                failures += 1
            if group.is_finite:
                counts["lambda"] += 1
                if lambda_lower_bound(D) > lambda_(D):
                    failures += 1
                if delta > 0 and rho(D) is not math.inf:
                    r = rho(D)
                    for level in range(delta):
                        witness = find_witness(D, level)
                        if witness is None:
                            failures += 1
                            continue
                        counts["rho"] += 1
                        estimate = rho_estimate_from_witness(D, witness)
                        size_r = len(witness.R.elements)
                        if estimate > r or not estimate > size_r / (size_r - level):
                            failures += 1
    nonvacuous = all(counts[key] > 30 for key in counts)
    check(
        8,
        f"corollary bounds hold on {total} seeded instances "
        f"(checks {counts}, {failures} violations)",
        failures == 0 and nonvacuous,
    )
