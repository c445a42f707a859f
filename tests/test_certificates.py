"""Every rejection reason of the three certificate checks, one corruption each.

Valid certificates come from the library: the shipped Z12 fixture and
seeded Z12 and Z2xZ4 instances.  Each case changes one thing and expects a
falsy Verdict carrying exactly that reason.
"""

import random

import pytest

from deltoids import (
    AdmissiblePartition,
    GroupSet,
    GroupSpec,
    ObstructionWitness,
    PartialMatching,
    StabilizerPair,
    best_stabilizer_pair,
    deficiency,
    elements_of,
    find_witness,
    lambda_by_feasibility,
    partition_left,
    partition_right,
    rho_by_feasibility,
    validate_partition,
    verify_witness,
)
from deltoids.partition import _rho_is_infinite
from helpers import Z12, Z2xZ4, golden_deltoid, random_witnessed_instance, reference_escape


def _instances():
    # the fixture, then the first two seeded instances per group with
    # deficiency above 0 and finite rho
    yield "fixture", golden_deltoid()
    for group, name in ((Z12, "Z12"), (Z2xZ4, "Z2xZ4")):
        rng, kept = random.Random(3), 0
        while kept < 2:
            D = random_witnessed_instance(rng, group)
            if deficiency(D) and not _rho_is_infinite(D):
                kept += 1
                yield f"{name}-{kept}", D


INSTANCES = dict(_instances())


def _elsewhere(part: GroupSet) -> GroupSet:
    # the same elements in another group of the same shape
    return GroupSet(GroupSpec(tuple(2 * m for m in part.group.torsion)), part.elements)


def _without_first(part: GroupSet) -> GroupSet:
    return GroupSet(part.group, part.elements[1:])


def _with(part: GroupSet, x) -> GroupSet:
    return GroupSet.of(part.group, list(part.elements) + [x])


def _partition(D, side):
    # at least two classes, so two of them can overlap
    if side == "left":
        return partition_left(D, max(2, lambda_by_feasibility(D)))
    return partition_right(D, max(2, rho_by_feasibility(D)))


def _replace(items: tuple, i: int, new) -> tuple:
    return items[:i] + (new,) + items[i + 1:]


def _partition_damage(p: AdmissiblePartition):
    # (corrupted partition, expected reason) per reason of validate_partition
    classes, matchings = p.classes, p.matchings
    first, m = classes[0], matchings[0]
    x = first.elements[0]
    overlapping = _replace(classes, 1, _with(classes[1], x))
    wrong_defect = PartialMatching(m.pairs, m.defect + 1)
    short = PartialMatching(m.pairs[1:], m.defect + 1)
    return [
        (AdmissiblePartition("middle", classes, matchings), "unknown side 'middle'"),
        (AdmissiblePartition(p.side, classes, matchings[:-1]),
         "classes and matchings differ in length"),
        (AdmissiblePartition(p.side, _replace(classes, 0, _elsewhere(first)), matchings),
         "class lives in a different group"),
        (AdmissiblePartition(p.side, overlapping, matchings), f"classes overlap at {x}"),
        (AdmissiblePartition(p.side, _replace(classes, 0, _without_first(first)), matchings),
         "classes do not cover the whole side"),
        (AdmissiblePartition(p.side, classes, _replace(matchings, 0, wrong_defect)),
         f"class certificate invalid: defect {m.defect + 1} != |A| - pairs = {m.defect}"),
        (AdmissiblePartition(p.side, classes, _replace(matchings, 0, short)),
         "certificate does not cover its class"),
    ]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("label", sorted(INSTANCES))
def test_validate_partition_names_each_fault(label, side):
    D = INSTANCES[label]
    p = _partition(D, side)
    assert p is not None and validate_partition(D, p)
    for damaged, reason in _partition_damage(p):
        verdict = validate_partition(D, damaged)
        assert not verdict and verdict.reason == reason


@pytest.mark.parametrize("label", sorted(INSTANCES))
def test_stabilizer_pair_validate_names_each_fault(label):
    D = INSTANCES[label]
    pair = best_stabilizer_pair(D)
    assert pair.value > 0 and pair.validate(D)
    outside_a = next(x for x in D.B.elements if x not in D.A.member_set)
    group = D.A.group
    outside_b = next(x for x in elements_of(group) if x not in D.B and x != group.identity)
    holed = _without_first(pair.S)
    expected = len(pair.S.elements) - len(D.B.difference(pair.R).elements)
    cases = [
        # the wording verify_witness gives for a part from another group
        (StabilizerPair(_elsewhere(pair.S), pair.R, pair.value), "S lives in a different group"),
        (StabilizerPair(pair.S, _elsewhere(pair.R), pair.value), "R lives in a different group"),
        (StabilizerPair(_with(pair.S, outside_a), pair.R, pair.value), "S is not a subset of A"),
        (StabilizerPair(pair.S, _with(pair.R, outside_b), pair.value),
         "R is not a subset of B plus identity"),
        (StabilizerPair(holed, pair.R, pair.value),
         "{}*{} leaves S, so S*R != S".format(*reference_escape(holed, pair.R, holed.member_set))),
        (StabilizerPair(pair.S, pair.R, pair.value + 1),
         f"value {pair.value + 1} != |S| - |B \\ R| = {expected}"),
    ]
    for damaged, reason in cases:
        verdict = damaged.validate(D)
        assert not verdict and verdict.reason == reason


@pytest.mark.parametrize("label", sorted(INSTANCES))
def test_verify_witness_names_each_fault(label):
    D = INSTANCES[label]
    w = find_witness(D, deficiency(D) - 1)
    assert w is not None and verify_witness(D, w)
    S, R, Y, Z, level = w.S, w.R, w.Y, w.Z, w.level
    empty = GroupSet(S.group, ())
    cases = [
        (ObstructionWitness(S, R, _elsewhere(Y), Z, level), "Y lives in a different group"),
        (ObstructionWitness(S, R, Y, Z, -1), "level must be nonnegative"),
        (ObstructionWitness(_without_first(S), R, Y, Z, level), "S and Y do not partition A"),
        (ObstructionWitness(S, R, Y, _with(Z, R.elements[0]), level), "R and Z overlap"),
        (ObstructionWitness(S, _without_first(R), Y, Z, level), "R and Z do not partition B"),
        (ObstructionWitness(empty, R, D.A, Z, level), "S is empty"),
    ]
    for damaged, reason in cases:
        verdict = verify_witness(D, damaged)
        assert not verdict and verdict.reason == reason
