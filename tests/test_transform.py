"""Dyson e-transform, stabilization, and the subgroup route to deficiency."""

import math
import random
import time

import pytest

from deltoids import (
    GroupSet,
    GroupSpec,
    ObstructionWitness,
    ResourceLimitError,
    cosets_of,
    elements_of,
    enumerate_subgroups,
    find_witness,
    full_cosets_within,
    generate_subgroup,
    lambda_lower_bound,
    parse_group,
    rho_by_pairs,
    verify_witness,
    InternalInconsistencyError,
    InvalidInputError,
    UnsupportedInfiniteGroupError,
    best_stabilizer_pair,
    build_deltoid,
    compose,
    deficiency,
    deficiency_by_subgroups,
    deficiency_by_subsets,
    delta_set,
    e_transform_step,
    partial_matching_with_defect,
    stabilize,
)
from deltoids import groups, partition, transform
from deltoids.groups import DEFAULT_ORDER_BOUND
import helpers
from helpers import (
    Z2xZ,
    Z2xZ2,
    Z6,
    Z12,
    ceil_div,
    coset_heavy_instance,
    cyc,
    exhaustive_instances,
    golden_deltoid,
    gset,
    random_instance,
    random_witnessed_instance,
    reference_escape,
    reference_search_subgroups,
    reference_subgroup_answers,
    reference_subgroup_terms,
    refusal,
    stabilizer_pairs,
    subsets_of,
    universe_for,
)


def _assert_stabilized(A, S, R, S2, R2):
    # the three contract conditions, asserted literally
    group = A.group
    product = {compose(group, s, r) for s in S2.elements for r in R2.elements}
    assert S.member_set <= S2.member_set
    assert product == S2.member_set
    assert S2.member_set <= A.member_set
    assert group.identity in R2
    assert R2.member_set <= R.member_set
    assert len(S2.elements) + len(R2.elements) == len(S.elements) + len(R.elements)


def test_e_transform_step_example():
    S = gset(Z12, cyc(0))
    R = gset(Z12, cyc(0, 2))
    S1, R1 = e_transform_step(S, R, (0,), (2,))
    assert S1.elements == tuple(cyc(0, 2))
    assert R1.elements == tuple(cyc(0))
    assert len(S1.elements) + len(R1.elements) == len(S.elements) + len(R.elements)


def test_e_transform_step_rejects_non_witness():
    S = gset(Z12, cyc(0, 2))
    R = gset(Z12, cyc(0, 2))
    assert refusal(e_transform_step, S, R, (0,), (2,)) == (
        InvalidInputError, "e*r = (2,) is in S; not a witness")
    assert refusal(e_transform_step, S, gset(Z12, cyc(2)), (0,), (2,)) == (
        InvalidInputError, "identity must be in R")
    assert refusal(e_transform_step, S, R, (4,), (2,)) == (
        InvalidInputError, "e = (4,) is not in S")
    assert refusal(e_transform_step, S, R, (0,), (4,)) == (
        InvalidInputError, "r = (4,) is not in R")
    assert refusal(e_transform_step, S, gset(Z6, cyc(0, 2)), (0,), (2,)) == (
        InvalidInputError, "S and R live in different groups"
    )


def test_e_transform_step_guards_conservation():
    # the raw constructor trusts its input: S holds 0 twice, so |S1| + |R1|
    # = 2 + 1 falls short of |S| + |R| = 2 + 2
    S = GroupSet(Z12, ((0,), (0,)))
    assert refusal(e_transform_step, S, gset(Z12, cyc(0, 1)), (0,), (1,)) == (
        InternalInconsistencyError, "e-transform step changed |S| + |R|")


def test_stabilize_already_stable():
    A = gset(Z12, cyc(0, 2, 4, 6, 8, 10))
    S = gset(Z12, cyc(0, 2, 4, 6, 8, 10))
    R = gset(Z12, cyc(0, 2))
    assert stabilize(A, S, R) == (S, R)


def test_stabilize_grows_to_contract():
    A = gset(Z12, cyc(0, 2, 4, 6, 8, 10))
    S = gset(Z12, cyc(0))
    R = gset(Z12, cyc(0, 2))
    S2, R2 = stabilize(A, S, R)
    _assert_stabilized(A, S, R, S2, R2)


def test_stabilize_rejects_bad_input():
    A = gset(Z12, cyc(0, 2, 4))
    assert refusal(stabilize, A, gset(Z12, []), gset(Z12, cyc(0))) == (
        InvalidInputError, "S and R must be nonempty")
    assert refusal(stabilize, A, gset(Z12, cyc(0)), gset(Z12, cyc(2))) == (
        InvalidInputError, "identity must be in R")
    assert refusal(stabilize, A, gset(Z12, cyc(4)), gset(Z12, cyc(0, 2))) == (
        InvalidInputError, "S*R leaves A at (4,)*(2,)")  # 4+2 leaves A
    assert refusal(stabilize, A, gset(Z12, cyc(0)), gset(Z6, cyc(0, 2))) == (
        InvalidInputError, "A, S, R must live in one group"
    )


def _random_transform_triple(rng, group, span=2):
    # random (A, S, R) with identity in R and S*R inside A
    uni = universe_for(group, span)
    a_elems = rng.sample(uni, rng.randint(2, min(8, len(uni))))
    A = GroupSet.of(group, a_elems)
    s_elems = rng.sample(A.elements, rng.randint(1, len(A.elements)))
    S = GroupSet.of(group, s_elems)
    allowed = [
        x
        for x in uni
        if all(compose(group, s, x) in A.member_set for s in S.elements)
    ]
    r_elems = {group.identity}
    if allowed:
        r_elems.update(rng.sample(allowed, rng.randint(0, len(allowed))))
    R = GroupSet.of(group, r_elems)
    return A, S, R


@pytest.mark.parametrize("bits", [0, 10**9], ids=["lookup", "mask"])
def test_escape_matches_the_double_loop(monkeypatch, bits):
    # the first (e, r) in canonical order, as the compose double loop found it,
    # on both paths of the sums_in kernel
    monkeypatch.setattr(groups, "_MASK_BITS_PER_ELEMENT", bits)
    rng = random.Random(6)
    for group in (Z12, parse_group("Z2xZ4"), parse_group("Z2xZ6"), Z2xZ, GroupSpec((101,))):
        universe = universe_for(group, span=2)
        for _ in range(150):
            S = GroupSet.of(group, rng.sample(universe, rng.randint(1, 8)))
            R = GroupSet.of(group, rng.sample(universe, rng.randint(0, 5)))
            for E in (S, S.union(GroupSet.of(group, rng.sample(universe, 6)))):
                expected = reference_escape(S, R, E.member_set)
                assert transform._escape(S, R, E.elements) == expected


def test_stabilize_random_triples():
    rng = random.Random(2024)
    for _ in range(200):
        A, S, R = _random_transform_triple(rng, Z12)
        S2, R2 = stabilize(A, S, R)
        _assert_stabilized(A, S, R, S2, R2)


def test_deficiency_by_subgroups_golden():
    D = golden_deltoid()
    assert deficiency_by_subgroups(D) == 3
    # the even subgroup term attains it: 6 full-coset elements - 8 + 5 inside B
    H = generate_subgroup(Z12, cyc(2))
    full = full_cosets_within(Z12, D.A.elements, H)
    inside = [b for b in D.B.elements if b in H]
    assert len(full) - D.size + len(inside) == 3


def test_deficiency_by_subgroups_nonnegative():
    rng = random.Random(5)
    for _ in range(80):
        D = random_instance(rng, Z12, max_size=8)
        assert deficiency_by_subgroups(D) >= 0


def test_deficiency_by_subgroups_order_bound(monkeypatch):
    with pytest.raises(ResourceLimitError):
        deficiency_by_subgroups(golden_deltoid(), order_bound=5)
    # a term kept on the deltoid never answers a call whose bound refuses
    D = golden_deltoid()
    assert deficiency_by_subgroups(D) == best_stabilizer_pair(D).value == 3
    for formula in (deficiency_by_subgroups, best_stabilizer_pair):
        assert refusal(formula, D, 5) == (
            ResourceLimitError, "group order 12 exceeds enumeration bound 5"
        )
    big = parse_group("Z10007")
    D = build_deltoid(GroupSet.of(big, [(0,)]), GroupSet.of(big, [(1,)]))
    assert deficiency_by_subgroups(D, order_bound=10007) == 0
    for formula in (deficiency_by_subgroups, best_stabilizer_pair):
        assert refusal(formula, D) == (
            ResourceLimitError, "group order 10007 exceeds enumeration bound 10000"
        )
    assert best_stabilizer_pair(D, order_bound=10007).value == 0
    assert refusal(find_witness, D, 0) == (
        ResourceLimitError, "group order 10007 exceeds enumeration bound 10000"
    )
    assert find_witness(D, 0, order_bound=10007) is None
    # find_witness checks its level, then its own bound, before it reads the
    # chain: a deltoid that keeps one refuses as a fresh one does
    kept, fresh = golden_deltoid(), golden_deltoid()
    assert deficiency_by_subgroups(kept) == 3 and "delta_terms" in vars(kept)
    assert refusal(find_witness, kept, 0, 5) == refusal(find_witness, fresh, 0, 5) == (
        ResourceLimitError, "group order 12 exceeds enumeration bound 5"
    )
    searches = []
    monkeypatch.setattr(transform, "_search_subgroups", lambda *args: searches.append(args))
    for D in (kept, fresh):
        assert refusal(find_witness, D, -1) == (
            InvalidInputError, "level must be nonnegative"
        )
    assert searches == [] and "delta_terms" not in vars(fresh)
    free = build_deltoid(
        GroupSet.of(Z2xZ, [(0, 0), (1, 1)]), GroupSet.of(Z2xZ, [(1, 0), (0, 2)])
    )
    for level in (0, 1, 0):
        assert refusal(find_witness, free, level) == (
            UnsupportedInfiniteGroupError, "subgroup formulas need a finite group"
        )
    assert searches == []


def test_deficiency_by_subgroups_refuses_infinite():
    D = build_deltoid(
        GroupSet.of(Z2xZ, [(0, 0), (1, 1)]), GroupSet.of(Z2xZ, [(1, 0), (0, 2)])
    )
    with pytest.raises(UnsupportedInfiniteGroupError):
        deficiency_by_subgroups(D)
    # on every call, with nothing kept from the first
    for formula in (deficiency_by_subgroups, best_stabilizer_pair) * 2:
        assert refusal(formula, D) == (
            UnsupportedInfiniteGroupError, "subgroup formulas need a finite group"
        )


def _memo_instances():
    # seeded uniform and coset-heavy instances, many with a positive maximum
    rng = random.Random(21)
    for literal in ("Z12", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3", "Z2xZ6", "Z2xZ2xZ4"):
        group = parse_group(literal)
        for _ in range(6):
            yield random_instance(rng, group, max_size=10)
            D = coset_heavy_instance(rng, group)
            if D is not None:
                yield D


def test_memoized_best_term_answers_as_a_fresh_deltoid():
    # deficiency_by_subgroups and best_stabilizer_pair read one chain kept on
    # the deltoid: either call order gives what each gives on its own on a
    # fresh deltoid, and the matching's deficiency
    positive = 0
    for D in _memo_instances():
        delta = deficiency_by_subgroups(build_deltoid(D.A, D.B))
        pair = best_stabilizer_pair(build_deltoid(D.A, D.B))
        assert delta == pair.value == deficiency(D) and pair.validate(D)
        first = build_deltoid(D.A, D.B)
        assert (deficiency_by_subgroups(first), best_stabilizer_pair(first)) == (delta, pair)
        second = build_deltoid(D.A, D.B)
        assert (best_stabilizer_pair(second), deficiency_by_subgroups(second)) == (pair, delta)
        assert (deficiency_by_subgroups(second), best_stabilizer_pair(second)) == (delta, pair)
        positive += delta > 0
    assert positive >= 20


def test_one_subgroup_search_serves_both_formulas(monkeypatch):
    # deficiency_by_subgroups, best_stabilizer_pair and find_witness at every
    # level from 0 to the deficiency + 1 read one chain kept on the deltoid:
    # in either call order they search the subgroups once, with equal answers
    searches = []
    search = transform._search_subgroups

    def counted(*args):
        searches.append(args[0])
        return search(*args)

    monkeypatch.setattr(transform, "_search_subgroups", counted)
    for D in _memo_instances():
        levels = range(deficiency(D) + 2)
        calls = [deficiency_by_subgroups, best_stabilizer_pair,
                 *[lambda E, level=level: find_witness(E, level) for level in levels]]
        answers = []
        for order in (calls, calls[::-1]):
            fresh = build_deltoid(D.A, D.B)
            searches.clear()
            answers.append([call(fresh) for call in order])
            assert searches == [D.A.group]
        assert answers[1] == answers[0][::-1]


def test_memoized_deltoid_equals_a_fresh_one():
    for D in _memo_instances():
        best_stabilizer_pair(D)
        fresh = build_deltoid(D.A, D.B)
        assert "delta_terms" in vars(D) and "delta_terms" not in vars(fresh)
        assert D == fresh and fresh == D and hash(D) == hash(fresh)


def test_triple_agreement_exhaustive():
    # Z2xZ2 included so the subgroup formula meets diagonal subgroups
    for group in (Z6, Z2xZ2):
        for D in exhaustive_instances(group, sizes=(1, 2, 3)):
            delta = deficiency(D)
            assert deficiency_by_subsets(D) == delta
            assert deficiency_by_subgroups(D) == delta


def test_best_stabilizer_pair_golden():
    D = golden_deltoid()
    pair = best_stabilizer_pair(D)
    assert pair.S.elements == tuple(cyc(0, 2, 4, 6, 8, 10))
    assert pair.R.elements == tuple(cyc(0, 2, 4, 6, 8, 10))
    assert pair.value == 3
    assert pair.validate(D)


def test_best_stabilizer_pair_matchable_instance():
    D = build_deltoid(gset(Z12, cyc(1, 2)), gset(Z12, cyc(1, 2)))
    pair = best_stabilizer_pair(D)
    assert pair.value == 0 == deficiency(D)
    assert pair.S == D.A and pair.R.elements == ((0,),)
    assert pair.validate(D)


def test_best_stabilizer_pair_random_validity():
    rng = random.Random(77)
    for group in (Z12, Z6):
        for _ in range(250):
            D = random_instance(rng, group, max_size=7)
            pair = best_stabilizer_pair(D)
            assert pair.validate(D)
            assert pair.value == deficiency(D)


def _subset_condition_holds(D, alpha, beta):
    # alpha*|S| + beta <= |delta(S)| for every subset S of A
    group = D.A.group
    for s_elems in subsets_of(D.A.elements):
        if alpha * len(s_elems) + beta > len(
            delta_set(D, GroupSet(group, s_elems)).elements
        ):
            return False
    return True


def _pair_condition_holds(D, alpha, beta):
    # alpha*|S| + beta <= |B \ R| over all stabilized pairs, enumerated raw
    b_members = D.B.member_set
    for s_set, r_set in stabilizer_pairs(D):
        if alpha * len(s_set) + beta > len(b_members - r_set):
            return False
    return True


def test_subset_and_pair_conditions_equivalent_at_matching_values():
    # the two criteria agree at alpha = 1, beta = -d for every defect d
    for D in exhaustive_instances(Z6, sizes=(1, 2)):
        for d in range(D.size + 1):
            assert _subset_condition_holds(D, 1, -d) == _pair_condition_holds(D, 1, -d)


def test_pair_criterion_matches_constructive_matchings():
    # a defect-d matching exists exactly when no stabilized pair refutes it
    for D in exhaustive_instances(Z6, sizes=(1, 2)):
        for d in range(D.size + 1):
            found = partial_matching_with_defect(D, d) is not None
            assert found == _pair_condition_holds(D, 1, -d)


def test_deficiency_equals_pair_formula_exhaustive():
    # max of |S| - |B \ R| over stabilized pairs, computed by raw enumeration
    for D in exhaustive_instances(Z6, sizes=(1, 2)):
        b_members = D.B.member_set
        best = max(
            len(s) - len(b_members - r) for s, r in stabilizer_pairs(D)
        )
        assert max(best, 0) == deficiency(D)
        assert deficiency_by_subgroups(D) == max(best, 0)


def _subgroup_answers(D):
    # the answers read from the subgroup search, with S and R where there are any
    delta = deficiency(D)
    answers = [best_stabilizer_pair(D), find_witness(D, delta)]
    if delta:
        answers.append(find_witness(D, delta - 1))
    if not partition._rho_is_infinite(D):
        answers.append(rho_by_pairs(D))
    return answers


def _reference_search(D, with_full_coset):
    # groups._search_subgroups over D's lattice scan: the trivial term
    # ((), A), then the reference's terms as (inside, full); with_full_coset
    # keeps only the terms with a full coset in A, which lambda_lower_bound
    # needs where a B inside H would make its denominator 0; grows is
    # ignored, as by the reference
    def search(group, generators, within, grows=None):
        assert (group, generators, within) == (D.A.group, D.B.elements, D.A.elements)
        yield (), D.A
        for full, inside in reference_subgroup_terms(D):
            if full.elements or not with_full_coset:
                yield inside, full
    return search


def _search_instances():
    yield from exhaustive_instances(Z6, sizes=(1, 2, 3))
    yield from exhaustive_instances(Z2xZ2, sizes=(1, 2, 3))
    rng = random.Random(7)
    for literal, count in (
        ("Z12", 8), ("Z2xZ4", 8), ("Z2xZ2xZ2", 8), ("Z3xZ3", 8), ("Z2xZ6", 8),
        ("Z2xZ2xZ2xZ2", 6), ("Z2xZ2xZ2xZ2xZ2xZ2", 1),
    ):
        group = parse_group(literal)
        for _ in range(count):
            yield random_instance(rng, group, max_size=10)
            yield random_witnessed_instance(rng, group)


def test_subgroup_search_agrees_with_the_lattice_scan(monkeypatch):
    # the search yields exactly the reference terms of the H = <B n H> with
    # a full coset in A, in order, and every formula answers as from the scan
    lattices = {}

    def lattice(group, order_bound=DEFAULT_ORDER_BOUND):
        # each lattice once: the reference scans it up to six times per instance
        if group not in lattices:
            lattices[group] = enumerate_subgroups(group, order_bound)
        return lattices[group]

    monkeypatch.setattr(helpers, "enumerate_subgroups", lattice)
    for D in _search_instances():
        group = D.A.group
        meets_b = [h for h in lattice(group) if any(b in h for b in D.B.elements)]
        expected = [
            (full, inside)
            for h, (full, inside) in zip(meets_b, reference_subgroup_terms(D), strict=True)
            if full.elements and generate_subgroup(group, inside.elements) == h
        ]
        terms = transform._search_subgroups(group, D.B.elements, D.A.elements)
        inside, full = next(terms)  # the trivial term, which improving_terms skips
        assert (tuple(inside), tuple(full)) == ((), D.A.elements)
        decoded = [(GroupSet(group, tuple(full)), GroupSet(group, tuple(inside)))
                   for inside, full in terms]
        assert decoded == expected
        answers = _subgroup_answers(D)
        bound = lambda_lower_bound(D)
        # a fresh deltoid, so the chain D.delta_terms keeps cannot answer
        # for the reference
        fresh = build_deltoid(D.A, D.B)
        with monkeypatch.context() as patched:
            patched.setattr(transform, "_search_subgroups", _reference_search(fresh, False))
            assert _subgroup_answers(fresh) == answers
            patched.setattr(transform, "_search_subgroups", _reference_search(fresh, True))
            assert lambda_lower_bound(fresh) == bound


def _bounded_answers(D):
    # the keys of reference_subgroup_answers, from the value-bounded search
    delta = deficiency_by_subgroups(D)
    pair = best_stabilizer_pair(D)
    witnesses = [find_witness(D, level) for level in range(delta + 1)]
    return {
        "deficiency": delta,
        "pair": (pair.S, pair.R, pair.value),
        "witnesses": [w and (w.S.elements, w.R.elements) for w in witnesses],
        "rho": None if partition._rho_is_infinite(D) else rho_by_pairs(D),
        "lambda": lambda_lower_bound(D),
    }


def _best_terms(D):
    # how many subgroup terms take the best positive value
    n = D.size
    terms = reference_search_subgroups(
        D.A.group, DEFAULT_ORDER_BOUND, D.B.elements, D.A.elements
    )[1:]
    values = [len(full) - n + len(inside) for inside, full in terms]
    best = max(values, default=0)
    return values.count(best) if best > 0 else 0


def _coset_heavy_instances():
    rng = random.Random(11)
    for literal in ("Z2xZ2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ6", "Z4xZ4", "Z2xZ2xZ2xZ2", "Z2xZ2xZ4"):
        group = parse_group(literal)
        for _ in range(40):
            D = coset_heavy_instance(rng, group)
            if D is not None:
                yield D


def test_bounded_search_agrees_with_the_unbounded_reference():
    # every formula that stops growing a subgroup at its value bound answers
    # as from the search that grows them all; best_stabilizer_pair prunes
    # ties too, and the instances with several best terms check that it
    # still returns the canonically first
    tied = 0
    for D in [*_search_instances(), *_coset_heavy_instances()]:
        assert _bounded_answers(D) == reference_subgroup_answers(D)
        tied += _best_terms(D) > 1
    assert tied >= 40


def _scores(D):
    # (score, floor) of the four subgroup formulas: deficiency and witness, rho, lambda
    n = D.size
    yield (lambda f, inside: f - n + inside), 0
    yield (lambda f, inside: f - n + inside), max(deficiency(D) - 1, 0)
    yield (lambda f, inside: math.inf if f >= n else ceil_div(inside, n - f)), 1
    yield (lambda f, inside: math.inf if inside >= n else ceil_div(f, n - inside)), 1


def test_improving_terms_yields_the_improvements_of_the_full_scan():
    # the value bound grows fewer subgroups, yet every term that beats the
    # floor and all before it comes out, as from the search that grows them all
    for D in [*_search_instances(), *_coset_heavy_instances()]:
        terms = reference_search_subgroups(
            D.A.group, DEFAULT_ORDER_BOUND, D.B.elements, D.A.elements
        )[1:]
        for score, floor in _scores(D):
            expected, best = [], floor
            for inside, full in terms:
                if (value := score(len(full), len(inside))) > best:
                    best = value
                    expected.append((value, tuple(full), tuple(inside)))
            found = [(value, tuple(full), tuple(inside))
                     for value, full, inside in transform.improving_terms(D, score, floor)]
            assert found == expected


def test_one_chain_of_improving_terms_answers_find_witness_at_every_level():
    # every term before the first chain entry above a level L scores at most
    # the chain value before it, itself at most L; so that entry is the first
    # term above L, at any level, as find_witness reads it from the chain
    # Deltoid.delta_terms keeps; the chain here is built apart from that one
    for D in _search_instances():
        group, n = D.A.group, D.size
        chain = list(transform.improving_terms(D, lambda f, i: f - n + i, 0))
        delta = chain[-1][0] if chain else 0
        assert delta == deficiency(D)
        for level in range(delta + 1):
            above = [(full, inside) for value, full, inside in chain if value > level]
            expected = None
            if above:
                S, R = (GroupSet(group, tuple(part)) for part in above[0])
                expected = ObstructionWitness(S, R, D.A.difference(S), D.B.difference(R), level)
            assert find_witness(D, level) == expected


def test_subgroup_route_in_z2_to_the_8():
    # Z2^8 has 417,199 subgroups; the search over B visits only those with a
    # full coset in A.  A holds two cosets of a subgroup of order 16 whose
    # nonidentity elements are in B, so the deficiency is well above 0.
    group = parse_group("x".join(["Z2"] * 8))
    rng = random.Random(8)
    everything = elements_of(group)
    H = generate_subgroup(group, rng.sample(everything, 4))
    s_elems = [x for coset in rng.sample(cosets_of(group, H), 2) for x in coset]
    rest = [x for x in everything if x not in set(s_elems)]
    r_elems = [x for x in H.elements if x != group.identity]
    pool = [x for x in everything if x != group.identity and x not in set(r_elems)]
    D = build_deltoid(
        GroupSet.of(group, s_elems + rng.sample(rest, 40 - len(s_elems))),
        GroupSet.of(group, r_elems + rng.sample(pool, 40 - len(r_elems))),
    )
    delta = deficiency(D)
    assert delta >= 1
    start = time.perf_counter()
    assert deficiency_by_subgroups(D) == delta
    assert verify_witness(D, find_witness(D, delta - 1))
    assert find_witness(D, delta) is None
    # about 0.1 s; scanning every subgroup takes minutes
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("rank, n", [(9, 200), (10, 256)])
def test_subgroup_route_on_seeded_uniform_sets(rank, n):
    # the subgroup route took tens of seconds here before the value bound;
    # uniform sets this sparse have deficiency 0, so a second instance puts
    # A as n / 2 cosets of <b> for some b in B, which scores 1
    group = parse_group("x".join(["Z2"] * rank))
    rng = random.Random(1)
    everything = elements_of(group)
    uniform = build_deltoid(
        GroupSet.of(group, rng.sample(everything, n)),
        GroupSet.of(group, rng.sample(everything[1:], n)),
    )
    b = rng.choice(everything[1:])
    cosets = rng.sample(cosets_of(group, generate_subgroup(group, [b])), n // 2)
    paired = build_deltoid(
        GroupSet.of(group, [x for coset in cosets for x in coset]),
        GroupSet.of(group, [b] + rng.sample([x for x in everything[1:] if x != b], n - 1)),
    )
    assert deficiency(uniform) == 0 and deficiency(paired) >= 1
    start = time.perf_counter()
    for D in (uniform, paired):
        delta = deficiency(D)
        assert deficiency_by_subgroups(D) == delta
        pair = best_stabilizer_pair(D)
        assert pair.value == delta and pair.validate(D)
        assert find_witness(D, delta) is None
        if D is paired:
            assert verify_witness(D, find_witness(D, delta - 1))
    # about 0.1 s in all
    assert time.perf_counter() - start < 5.0
