"""The cli-cold workload: one `python -m deltoids` child process per op.

Set-up writes seeded instance files; the op list covers all nine
subcommands.  Reports are checked in this process, outside the timed
region, against the library's polynomial routes and certificate
verifiers.  A traced op runs `replay.py` instead of `python -m deltoids`:
the same `cli.main` with spans around the calls it makes.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from deltoids import (
    AdmissiblePartition,
    GroupSet,
    InfiniteRhoError,
    ObstructionWitness,
    PartialMatching,
    build_deltoid,
    canonicalize,
    generate_subgroup,
    chowla_defect,
    lambda_by_feasibility,
    max_matching,
    parse_group,
    partition_left,
    partition_right,
    rho_by_feasibility,
    validate_partition,
    verify_matching,
    verify_witness,
)
from library import box_of, coset_in

HERE = Path(__file__).resolve().parent
FIXTURE = HERE.parent / "fixtures" / "z12-paper.json"
CHILD_TIMEOUT = 60  # seconds; a child still running then is killed and counted failed

# Light instances (group, n), drawn by light_instance so that delta >= 1.
LIGHT = (("Z12", 8), ("Z8", 6), ("Z2xZ4", 6), ("Z3xZ3", 4), ("Z2xZ6", 8), ("Z6xZ", 8))
# n in Z64 at and below the subset sweep bound of 22.  The twelve n = 20
# ops are where op_p90_ms falls, so it rests on a block of similar ops.
NEAR_BOUND = (20, 20, 20, 22)
ABOVE_BOUND = (("Z64", 30), ("Z997", 300))
# construct (group, n, ell): large subgroup lattices or orders, plus the README example.
CONSTRUCT = (
    ("Z12", 8, 2),
    ("Z2xZ2xZ2xZ2xZ2", 20, 1),
    ("Z4xZ4xZ4", 40, 1),
    ("Z2xZ4xZ8", 40, 1),
    ("Z360", 100, 1),
)


class Op:
    """One CLI call: subcommand, options, the instance it reads, what to save."""

    def __init__(self, label, cmd, inst=None, save=None, save_instance=None, **opts):
        self.label = label
        self.cmd = cmd
        self.inst = inst
        self.save = save  # report path that a later verify op reads
        self.save_instance = save_instance  # where construct's instance goes
        self.opts = opts

    def argv(self, state) -> list[str]:
        args = [self.cmd]
        if self.inst is not None:
            args.append(str(state.paths[self.inst]))
        for key, value in self.opts.items():
            if value is not None:
                args += [f"--{key}", str(value)]
        return args


class State:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.paths: dict[str, Path] = {}
        self.ops: list[Op] = []
        self.refs: dict[str, dict] = {}
        self.verdicts: dict = {}

    def write_instance(self, name: str, literal: str, a, b) -> None:
        path = self.workdir / f"{name}.json"
        data = {"group": literal, "A": [list(x) for x in a], "B": [list(x) for x in b]}
        path.write_text(json.dumps(data), encoding="utf-8")
        self.paths[name] = path


def _instance_ops(state, name, finite=True) -> None:
    delta = reference(state, name)["delta"]
    ops = state.ops
    report = state.workdir / f"{name}"
    ops += [
        Op(f"deficiency {name}", "deficiency", name),
        Op(f"match {name}", "match", name, save=f"{report}-match.json", defect=delta),
    ]
    if finite:
        ops.append(Op(f"witness {name}", "witness", name, save=f"{report}-witness.json",
                      ell=max(delta - 1, 0)))
    ops += [
        Op(f"rho {name}", "rho", name),
        Op(f"lambda {name}", "lambda", name),
        Op(f"partition-right {name}", "partition", name, save=f"{report}-right.json",
           side="right"),
        Op(f"partition-left {name}", "partition", name, side="left"),
        Op(f"partition-left-k3 {name}", "partition", name, side="left", k=3),
        Op(f"chowla {name}", "chowla", name),
        Op(f"verify-match {name}", "verify", name, certificate=f"{report}-match.json"),
    ]
    if finite:
        ops.append(Op(f"verify-witness {name}", "verify", name,
                      certificate=f"{report}-witness.json"))
    ops.append(Op(f"verify-right {name}", "verify", name, certificate=f"{report}-right.json"))


def setup(seed: int, tiny: bool, workdir: Path) -> State:
    """Write the seeded instance files and build the op list."""
    rng = random.Random(seed)
    state = State(workdir)
    state.paths["fixture"] = FIXTURE
    _instance_ops(state, "fixture")
    light = LIGHT[:1] if tiny else LIGHT
    for literal, n in light:
        group = parse_group(literal)
        name = f"{literal}-n{n}"
        # Redrawn until rho is finite, so that every seed gets the same op list.
        for _ in range(100):
            state.write_instance(name, literal, *light_instance(rng, group, n))
            if reference(state, name)["rho"] != math.inf:
                break
            del state.refs[name]
        else:
            raise RuntimeError(f"no light instance with finite rho in {literal}")
        _instance_ops(state, name, finite=group.is_finite)
    for i, n in enumerate(() if tiny else NEAR_BOUND):
        name = f"Z64-n{n}-{i}"
        state.write_instance(name, "Z64", *_uniform(rng, 64, n))
        state.ops += [Op(f"{cmd} {name}", cmd, name) for cmd in ("deficiency", "rho", "lambda")]
        state.ops.append(Op(f"partition-right {name}", "partition", name, side="right"))
    for literal, n in ABOVE_BOUND[:1] if tiny else ABOVE_BOUND:
        name = f"{literal}-n{n}"
        state.write_instance(name, literal, *_uniform(rng, int(literal[1:]), n))
        cmds = ["rho", "lambda"] + (["deficiency"] if n < 100 else ["match", "chowla"])
        state.ops += [Op(f"{cmd} {name}", cmd, name, defect=0 if cmd == "match" else None)
                      for cmd in cmds]
        state.ops += [Op(f"partition-{side} {name}", "partition", name, side=side)
                      for side in ("right", "left")]
    for literal, n, ell in CONSTRUCT[:1] if tiny else CONSTRUCT:
        name = f"construct-{literal}-n{n}"
        save = state.workdir / f"{name}.json"
        state.paths[name] = state.workdir / f"{name}-instance.json"
        state.ops.append(Op(f"construct {literal}", "construct", save=save,
                            save_instance=state.paths[name], group=literal, n=n, ell=ell))
        state.ops.append(Op(f"verify-construct {literal}", "verify", name, certificate=save))
    return state


def light_instance(rng, group, n):
    """A = one coset x + H plus n - |H| loose elements, B = H minus 0 plus
    n - |H| + 1 elements outside H, for a random cyclic torsion subgroup H
    with 2|H| - n - 1 >= 1.  The pair (coset, B n H) then scores at least 1
    in the subgroup formula, so delta >= 1 and a witness exists.
    """
    k = len(group.torsion)
    box = box_of(group)
    torsion = [x for x in box if any(x[:k]) and not any(x[k:])]
    while True:
        sub = generate_subgroup(group, [rng.choice(torsion)]).elements
        if 2 * len(sub) - n - 1 >= 1 and len(sub) <= n:
            break
    x = rng.choice(box)
    coset = coset_in(group, x, sub)
    a = sorted(coset) + rng.sample([y for y in box if y not in coset], n - len(sub))
    inside = [y for y in sub if any(y)]
    b = inside + rng.sample([y for y in box if y not in sub], n - len(inside))
    return a, b


def _uniform(rng, p, n):
    a = rng.sample(range(p), n)
    b = rng.sample(range(1, p), n)
    return [[x] for x in a], [[x] for x in b]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(HERE.parent / "src")
    return env


def run_op(rec, state, op: Op) -> dict:
    """Run one child, the real CLI or (when traced) the replay, to completion."""
    argv = op.argv(state)
    if rec.spans is None:
        cmd = [sys.executable, "-m", "deltoids", *argv]
    else:
        cmd = [sys.executable, str(HERE / "replay.py"), str(state.workdir / "spans.json"), *argv]
    try:
        proc = subprocess.run(cmd, cwd=HERE.parent, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"code": None, "stdout": "", "stderr": f"timed out after {CHILD_TIMEOUT} s"}
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-300:]}


def after_op(rec, state, op: Op, out: dict) -> dict:
    """Collect the replay's spans and save reports that later ops read."""
    if rec.spans is not None:
        rec.counts["cli.ops"] += 1
        rec.counts["cli.exit3"] += out["code"] == 3
        spans_path = state.workdir / "spans.json"
        if spans_path.exists():
            child = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
            rec.add_child_spans(child["spans"], child["counts"])
    if op.save is not None and out["code"] == 0:
        Path(op.save).write_text(out["stdout"], encoding="utf-8")
        if op.save_instance is not None:
            inst = json.loads(out["stdout"])["results"]["instance"]
            op.save_instance.write_text(json.dumps(inst), encoding="utf-8")
    return out


# --- checks -------------------------------------------------------------------


def reference(state, name: str) -> dict:
    """Polynomial-route answers for an instance file, computed once."""
    if name not in state.refs:
        data = json.loads(state.paths[name].read_text(encoding="utf-8"))
        group = parse_group(data["group"])
        D = build_deltoid(GroupSet.of(group, data["A"]), GroupSet.of(group, data["B"]))
        try:
            r = rho_by_feasibility(D)
        except InfiniteRhoError:
            r = math.inf
        state.refs[name] = {
            "D": D,
            "delta": max_matching(D).defect,
            "rho": r,
            "lambda": lambda_by_feasibility(D),
        }
    return state.refs[name]


def _matching(group, pairs, n) -> PartialMatching:
    canon = tuple((canonicalize(group, a), canonicalize(group, b)) for a, b in pairs)
    return PartialMatching(canon, n - len(canon))


def failure(state, op: Op, out: dict) -> str | None:
    """Why a CLI op gave no answer (exit code other than 0 or 1), or None."""
    code = out["code"]
    if code in (0, 1):
        return None
    text = f"exit {code}: {out['stderr'].strip()}"
    if code == 3 and op.inst is not None:
        ref = reference(state, op.inst)
        text += (f" although the polynomial routes give delta={ref['delta']}, "
                 f"rho={ref['rho']}, lambda={ref['lambda']}")
    return text


def check(state, op: Op, out: dict) -> list[str]:
    """Wrong answers in one CLI report; verdicts are cached per distinct output."""
    key = (op.label, out["code"], out["stdout"])
    if key not in state.verdicts:
        try:
            state.verdicts[key] = _check(state, op, out)
        except (KeyError, TypeError, ValueError) as err:  # JSONDecodeError included
            state.verdicts[key] = [f"report does not have the documented shape: {err!r}"]
    return state.verdicts[key]


def _check(state, op: Op, out: dict) -> list[str]:
    code = out["code"]
    report = json.loads(out["stdout"])
    res = report["results"]
    if op.cmd == "construct":
        return _check_construct(op, code, report)
    ref = reference(state, op.inst)
    D = ref["D"]
    group = D.A.group
    n = D.size
    problems = []

    def expect(cond, text):
        if not cond:
            problems.append(text)

    if op.cmd == "deficiency":
        expect(res["delta"] == ref["delta"], f"delta {res['delta']} != {ref['delta']}")
        expect(all(v in (None, ref["delta"]) for v in res["routes"].values()),
               f"routes {res['routes']} disagree with {ref['delta']}")
    elif op.cmd == "match":
        d = op.opts["defect"]
        expect(code == (0 if d >= ref["delta"] else 1), f"exit {code} for defect {d}")
        if code == 0:
            cert = report["certificates"]["matching"]
            m = _matching(group, cert["pairs"], n)
            expect(len(m.pairs) == n - d and bool(verify_matching(D, m)),
                   "matching certificate does not verify")
    elif op.cmd == "witness":
        ell = op.opts["ell"]
        expect(code == (0 if ref["delta"] > ell else 1), f"exit {code} for ell {ell}")
        if code == 0:
            cert = report["certificates"]["witness"]
            parts = {k: GroupSet.of(group, cert[k]) for k in ("S", "R", "Y", "Z")}
            w = ObstructionWitness(level=cert["level"], **parts)
            expect(w.level == ell and bool(verify_witness(D, w)),
                   "witness certificate does not verify")
    elif op.cmd == "rho":
        want = "infinite" if ref["rho"] == math.inf else ref["rho"]
        expect(res["rho"] == want, f"rho {res['rho']} != {want}")
    elif op.cmd == "lambda":
        expect(res["lambda"] == ref["lambda"], f"lambda {res['lambda']} != {ref['lambda']}")
    elif op.cmd == "partition":
        problems += _check_partition(op, code, report, ref)
    elif op.cmd == "chowla":
        bound = chowla_defect(D.B)
        expect(res["chowla_defect"] == bound and res["deficiency"] == ref["delta"]
               and res["bound_holds"] == (ref["delta"] <= bound), f"chowla report {res}")
    elif op.cmd == "verify":
        expect(code == 0 and res["valid"], f"certificate rejected: {res['checks']}")
    return problems


def _check_partition(op, code, report, ref) -> list[str]:
    side, k = op.opts["side"], op.opts.get("k")
    least = ref["rho"] if side == "right" else ref["lambda"]
    feasible = least != math.inf and (k is None or k >= least)
    if code != (0 if feasible else 1):
        return [f"exit {code} but the least k is {least}"]
    if code == 1:
        return []
    res = report["results"]
    D = ref["D"]
    group = D.A.group
    if k is None and res["k"] != least:
        return [f"k {res['k']} is not the least k {least}"]
    cert = report["certificates"]["partition"]
    classes = tuple(GroupSet.of(group, c) for c in cert["classes"])
    matchings = tuple(_matching(group, pairs, D.size) for pairs in cert["matchings"])
    part = AdmissiblePartition(cert["side"], classes, matchings)
    if len(classes) != res["k"] or not validate_partition(D, part):
        return ["partition certificate does not verify"]
    build = partition_right if side == "right" else partition_left
    if k is not None and build(D, k) is None:
        return [f"library finds no partition at k {k}"]
    return []


def _check_construct(op, code, report) -> list[str]:
    if code != 0:
        return [f"construct found no pair for {op.opts}"]
    inst = report["results"]["instance"]
    group = parse_group(inst["group"])
    A, B = GroupSet.of(group, inst["A"]), GroupSet.of(group, inst["B"])
    n, ell = op.opts["n"], op.opts["ell"]
    if len(A) != n or len(B) != n:
        return ["constructed sets have the wrong size"]
    D = build_deltoid(A, B)
    delta = max_matching(D).defect
    problems = []
    if delta <= ell or report["results"]["deficiency"] != delta:
        problems.append(f"constructed deficiency {delta} is not above ell {ell}")
    cert = report["certificates"]["witness"]
    parts = {k: GroupSet.of(group, cert[k]) for k in ("S", "R", "Y", "Z")}
    if not verify_witness(D, ObstructionWitness(level=cert["level"], **parts)):
        problems.append("construct witness does not verify")
    return problems
