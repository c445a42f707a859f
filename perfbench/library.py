"""The in-process workloads: small-sweep and large-cyclic.

Each workload has a seeded input generator (`setup_*`), an op (`*_op`)
that makes the public library calls through a `Recorder`, and a check
(`check_*`) that compares the op's record with the library's own
independent routes and certificate verifiers.  The op returns a plain,
JSON-encodable record; the check runs outside the timed region.
"""

from __future__ import annotations

import random
from itertools import product

from deltoids import (
    GroupSet,
    InfiniteRhoError,
    UnsupportedInfiniteGroupError,
    best_stabilizer_pair,
    build_deltoid,
    deficiency_by_subgroups,
    deficiency_by_subsets,
    elements_of,
    enumerate_subgroups,
    find_witness,
    generate_subgroup,
    lambda_,
    lambda_by_feasibility,
    lambda_lower_bound,
    max_matching,
    parse_group,
    partition_left,
    partition_right,
    rho,
    rho_by_feasibility,
    rho_by_pairs,
    validate_partition,
    verify_matching,
    verify_witness,
)

# --- small-sweep ------------------------------------------------------------

SMALL_FINITE = ("Z8", "Z12", "Z2xZ4", "Z2xZ2xZ2", "Z3xZ3", "Z2xZ6", "Z2xZ2xZ2xZ2")
SMALL_FREE = ("Z2xZ", "Z6xZ")
FREE_BOX = 3  # free coordinates are drawn from [-FREE_BOX, FREE_BOX]
SMALL_N = range(2, 13)
SMALL_COPIES = 2  # instances per (group, n, shape)


def box_of(group) -> list[tuple[int, ...]]:
    if group.is_finite:
        return elements_of(group)
    ranges = [range(m) for m in group.torsion]
    ranges += [range(-FREE_BOX, FREE_BOX + 1)] * group.free_rank
    return list(product(*ranges))


def _raw(rng: random.Random, group, elements) -> list[list[int]]:
    # Torsion coordinates are shifted by a random multiple of their modulus,
    # so GroupSet.of has real canonicalization work to do.
    out = []
    for x in elements:
        head = [c + rng.randint(-1, 1) * m for c, m in zip(x, group.torsion)]
        out.append(head + list(x[len(group.torsion):]))
    return out


def coset_in(group, x, sub) -> set:
    """The coset x + H of a torsion subgroup H, free coordinates kept."""
    k = len(group.torsion)
    return {tuple((c + h) % m for c, h, m in zip(x, y, group.torsion)) + x[k:] for y in sub}


def coset_instance(rng, group, box, n):
    """Elements of A and B, with A mostly full cosets of a random cyclic
    torsion subgroup H and B starting with H minus the identity; this makes
    deficiency > 0 common, where uniform draws mostly give 0."""
    k = len(group.torsion)
    torsion = [x for x in box if any(x[:k]) and not any(x[k:])]
    sub = generate_subgroup(group, [rng.choice(torsion)]).elements
    a: set = set()
    for x in rng.sample(box, len(box)):
        if len(a) + len(sub) > n:
            break
        coset = coset_in(group, x, sub)
        if not coset & a:
            a |= coset
    a |= set(rng.sample([x for x in box if x not in a], n - len(a)))
    identity = group.identity
    b = [y for y in sub if y != identity][:n]
    rest = [x for x in box if x != identity and x not in b]
    b += rng.sample(rest, n - len(b))
    return sorted(a), b


def setup_small(seed: int, tiny: bool) -> list:
    """The seeded small-sweep stream, in a fixed order of (group, n, shape).

    Group, n and shape are fixed by the order; the seed picks elements.
    """
    rng = random.Random(seed)
    sizes = range(2, 5) if tiny else SMALL_N
    copies = 1 if tiny else SMALL_COPIES
    items = []
    for literal in SMALL_FINITE + SMALL_FREE:
        group = parse_group(literal)
        box = box_of(group)
        nonzero = [x for x in box if any(x)]
        for n in sizes:
            if n >= len(box):
                continue
            for copy in range(copies):
                for shape in ("uniform", "cosets"):
                    if shape == "uniform":
                        a, b = rng.sample(box, n), rng.sample(nonzero, n)
                    else:
                        a, b = coset_instance(rng, group, box, n)
                    label = f"{literal}/n{n}/{shape}/{copy}"
                    items.append((label, group, _raw(rng, group, a), _raw(rng, group, b)))
    return items


def warm_small(rec, items) -> None:
    """Enumerate the subgroups of every finite group in the stream."""
    for group in {item[1] for item in items if item[1].is_finite}:
        rec.call("groups.enumerate_subgroups", enumerate_subgroups, group)


def _pairs(m) -> list:
    return [[list(a), list(b)] for a, b in m.pairs]


def _set(s) -> list:
    return [list(x) for x in s.elements]


def _partition(p) -> list | None:
    return None if p is None else [_set(c) for c in p.classes]


def small_op(rec, item) -> dict:
    """One small-sweep op: every route, witness, partition and verifier."""
    _, group, raw_a, raw_b = item
    A = rec.call("sets.GroupSet.of", GroupSet.of, group, raw_a)
    B = rec.call("sets.GroupSet.of", GroupSet.of, group, raw_b)
    D = rec.call("sets.build_deltoid", build_deltoid, A, B)
    m = rec.call("matching.max_matching", max_matching, D)
    delta = m.defect
    out = {
        "matching": _pairs(m),
        "routes": {
            "matching": delta,
            "subsets": rec.call("matching.deficiency_by_subsets", deficiency_by_subsets, D),
        },
        "verdicts": {
            "matching": bool(rec.call("matching.verify_matching", verify_matching, D, m)),
        },
    }
    try:
        out["routes"]["subgroups"] = rec.call(
            "transform.deficiency_by_subgroups", deficiency_by_subgroups, D
        )
    except UnsupportedInfiniteGroupError:
        out["routes"]["subgroups"] = None
    finite = out["routes"]["subgroups"] is not None
    if finite:
        pair = rec.call("transform.best_stabilizer_pair", best_stabilizer_pair, D)
        out["pair"] = {"S": _set(pair.S), "R": _set(pair.R), "value": pair.value}
        out["verdicts"]["pair"] = bool(
            rec.call("transform.StabilizerPair.validate", pair.validate, D)
        )
        witnesses = {}
        for level in (delta - 1, delta):
            if level < 0:
                continue
            w = rec.call("structure.find_witness", find_witness, D, level)
            witnesses[str(level)] = None if w is None else {"S": _set(w.S), "R": _set(w.R)}
            if w is not None:
                out["verdicts"][f"witness{level}"] = bool(
                    rec.call("structure.verify_witness", verify_witness, D, w)
                )
        out["witnesses"] = witnesses
    r = rec.call("partition.rho", rho, D)
    lam = rec.call("partition.lambda_", lambda_, D)
    out["rho"] = "infinite" if r == float("inf") else r
    out["lambda"] = lam
    try:
        out["rho_by_feasibility"] = rec.call(
            "partition.rho_by_feasibility", rho_by_feasibility, D
        )
    except InfiniteRhoError:
        out["rho_by_feasibility"] = "infinite"
    out["lambda_by_feasibility"] = rec.call(
        "partition.lambda_by_feasibility", lambda_by_feasibility, D
    )
    if finite:
        try:
            out["rho_by_pairs"] = rec.call("partition.rho_by_pairs", rho_by_pairs, D)
        except InfiniteRhoError:
            out["rho_by_pairs"] = "infinite"
        out["lambda_lower_bound"] = rec.call(
            "partition.lambda_lower_bound", lambda_lower_bound, D
        )
    left = rec.call("partition.partition_left", partition_left, D, lam)
    out["partition_left"] = _partition(left)
    if left is not None:
        out["verdicts"]["partition_left"] = bool(
            rec.call("partition.validate_partition", validate_partition, D, left)
        )
    if out["rho"] != "infinite":
        right = rec.call("partition.partition_right", partition_right, D, r)
        out["partition_right"] = _partition(right)
        if right is not None:
            out["verdicts"]["partition_right"] = bool(
                rec.call("partition.validate_partition", validate_partition, D, right)
            )
    return out


def check_small(item, out: dict) -> list[str]:
    """Wrong answers in a small-sweep record; empty when every check holds."""
    problems = [f"certificate {name} does not verify"
                for name, ok in out["verdicts"].items() if not ok]
    routes = out["routes"]
    values = {v for v in routes.values() if v is not None}
    if len(values) != 1:
        problems.append(f"deficiency routes disagree: {routes}")
    delta = routes["matching"]
    n = len(item[2])
    if len(out["matching"]) != n - delta:
        problems.append("matching size does not match its defect")
    if routes["subgroups"] is not None:
        if out["pair"]["value"] != delta:
            problems.append(f"best stabilizer pair scores {out['pair']['value']}, not {delta}")
        wit = out["witnesses"]
        if delta >= 1 and wit.get(str(delta - 1)) is None:
            problems.append(f"no witness at level {delta - 1} although delta = {delta}")
        if wit.get(str(delta)) is not None:
            problems.append(f"witness at level {delta} although delta = {delta}")
        if out["rho"] != "infinite" and out["rho_by_pairs"] != out["rho"]:
            problems.append(f"rho_by_pairs {out['rho_by_pairs']} != rho {out['rho']}")
        if not out["lambda_lower_bound"] <= out["lambda"]:
            problems.append("lambda_lower_bound exceeds lambda")
    if out["rho_by_feasibility"] != out["rho"]:
        problems.append(f"rho_by_feasibility {out['rho_by_feasibility']} != rho {out['rho']}")
    if out["lambda_by_feasibility"] != out["lambda"]:
        problems.append(
            f"lambda_by_feasibility {out['lambda_by_feasibility']} != lambda {out['lambda']}"
        )
    if out["partition_left"] is None or len(out["partition_left"]) != out["lambda"]:
        problems.append("no left partition into lambda classes")
    if out["rho"] != "infinite" and (
        out["partition_right"] is None or len(out["partition_right"]) != out["rho"]
    ):
        problems.append("no right partition into rho classes")
    return problems


# --- large-cyclic -----------------------------------------------------------

BOTH = ("uniform", "progression")
# (modulus, n, shapes, copies).  Z4001 n = 700 stays below the recursion
# limit of the augmenting-path searches; n = 1100 is above it.  The copies
# put op_p50_ms inside the block of eight n = 300 ops and op_p90_ms inside
# the n = 1100 pair, so neither rests on one op.  A pass takes about 20 s.
LARGE_LADDER = ((997, 300, BOTH, 4), (4001, 700, BOTH, 1), (4001, 1100, ("uniform",), 2))
TINY_LADDER = ((997, 40, BOTH, 1), (4001, 60, BOTH, 1))
SWAPS = 5  # elements of each interval swapped out in the progression shape


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))


def _progression(rng, p, n, start):
    # An interval of length n with SWAPS members replaced from outside it.
    chosen = [(start + i) % p for i in range(n)]
    inside = set(chosen)
    outside = [x for x in range(1, p) if x not in inside]
    for slot, new in zip(rng.sample(range(n), SWAPS), rng.sample(outside, SWAPS)):
        chosen[slot] = new
    return chosen


def setup_large(seed: int, tiny: bool) -> list:
    """The seeded ladder; the seed picks elements, never sizes."""
    rng = random.Random(seed)
    items = []
    for p, n, shapes, copies in TINY_LADDER if tiny else LARGE_LADDER:
        if not _is_prime(p):
            raise ValueError(f"check_large's reference values need a prime order, not {p}")
        group = parse_group(f"Z{p}")
        for copy, shape in product(range(copies), shapes):
            if shape == "uniform":
                a = rng.sample(range(p), n)
                b = rng.sample(range(1, p), n)
            else:
                a = _progression(rng, p, n, rng.randrange(p))
                b = _progression(rng, p, n, rng.randrange(1, p - n))
            A = GroupSet.of(group, [[x] for x in a])
            B = GroupSet.of(group, [[x] for x in b])
            items.append((f"Z{p}/n{n}/{shape}/{copy}", A, B))
    return items


def large_op(rec, item) -> dict:
    """One large-cyclic op: polynomial routes only, each failure recorded."""
    _, A, B = item
    D = rec.call("sets.build_deltoid", build_deltoid, A, B)
    out: dict = {"errors": {}, "verdicts": {}}

    def stage(name, fn, *args):
        try:
            return rec.call(name, fn, *args)
        except Exception as exc:  # a failed stage is recorded, never retried
            out["errors"][name] = type(exc).__name__
            return None

    m = stage("matching.max_matching", max_matching, D)
    if m is not None:
        out["defect"] = m.defect
        out["matching"] = _pairs(m)
        out["verdicts"]["matching"] = bool(
            stage("matching.verify_matching", verify_matching, D, m)
        )
    out["rho"] = stage("partition.rho_by_feasibility", rho_by_feasibility, D)
    out["lambda"] = stage("partition.lambda_by_feasibility", lambda_by_feasibility, D)
    for side, k, build in (("right", out["rho"], partition_right),
                           ("left", out["lambda"], partition_left)):
        if k is None:
            continue
        part = stage(f"partition.partition_{side}", build, D, k)
        out[f"partition_{side}"] = _partition(part)
        if part is not None:
            out["verdicts"][f"partition_{side}"] = bool(
                stage("partition.validate_partition", validate_partition, D, part)
            )
    return out


def failure_large(item, out: dict) -> str | None:
    """Why a large-cyclic op gave no answer, or None when every stage did."""
    if not out["errors"]:
        return None
    return "; ".join(f"{name} raised {kind}" for name, kind in out["errors"].items())


def check_large(item, out: dict) -> list[str]:
    """Wrong answers in a large-cyclic record that has no failed stage.

    In a group of prime order the only subgroups are {0} and the whole
    group, so the subgroup-indexed formulas (deficiency_by_subgroups,
    rho_by_pairs) give delta = 0 and rho = 1 for every instance with
    |A| < p; delta = 0 then forces lambda = 1.  Those are the references.
    """
    problems = [f"certificate {name} does not verify"
                for name, ok in out["verdicts"].items() if not ok]
    if out["defect"] != 0:
        problems.append(f"deficiency {out['defect']} != 0")
    for key, side in (("rho", "right"), ("lambda", "left")):
        if out[key] != 1:
            problems.append(f"{key} {out[key]} != 1")
        if out.get(f"partition_{side}") is None:
            problems.append(f"no {side} partition at k = {out[key]}")
    return problems
