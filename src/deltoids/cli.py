"""Command-line frontend: load instances, dispatch computations, print reports.

Reports are JSON on standard output, byte-identical across runs for
identical inputs.  Exit codes: 0 computed, 1 requested object does not
exist, 2 invalid input, 3 resource limit exceeded, 4 internal error (a
bug, not bad input).  Codes 2 to 4 print one line on standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .errors import (
    DeltoidError,
    InfiniteRhoError,
    InternalInconsistencyError,
    NoConstructionError,
    ResourceLimitError,
    UnsupportedInfiniteGroupError,
)
from .groups import GroupSet, GroupSpec, canonicalize, format_group, parse_group
from .matching import (
    PartialMatching,
    deficiency,
    deficiency_by_subsets,
    max_matching,
    partial_matching_with_defect,
    verify_matching,
)
from .partition import (
    AdmissiblePartition,
    lambda_,
    lambda_by_feasibility,
    partition_left,
    partition_right,
    rho,
    rho_by_feasibility,
    validate_partition,
)
from .sets import Deltoid, build_deltoid, chowla_defect
from .structure import ObstructionWitness, construct_deficient_pair, find_witness, verify_witness
from .transform import deficiency_by_subgroups


class InstanceFileError(DeltoidError):
    """Instance or certificate JSON is malformed; message names the field."""


# --- JSON encoding: the library's tuples render as JSON arrays -------------


def _enc_instance(A: GroupSet, B: GroupSet) -> dict:
    return {"group": format_group(A.group), "A": A.elements, "B": B.elements}


def _matching_cert(m: PartialMatching) -> dict:
    return {"kind": "matching", "pairs": m.pairs, "defect": m.defect}


_WITNESS_PARTS = ("S", "R", "Y", "Z")  # A = S + Y, B = R + Z


def _witness_cert(w: ObstructionWitness) -> dict:
    parts = {name: getattr(w, name).elements for name in _WITNESS_PARTS}
    return {"kind": "witness", "level": w.level, **parts}


def _partition_cert(p: AdmissiblePartition) -> dict:
    return {
        "kind": "partition",
        "side": p.side,
        "classes": [c.elements for c in p.classes],
        "matchings": [m.pairs for m in p.matchings],
    }


def _elements(raw, where: str) -> list:
    """Check a JSON array of elements, each an array of integers (no booleans)."""
    if not isinstance(raw, list):
        raise InstanceFileError(f"{where} must be an array of elements")
    for x in raw:
        if not isinstance(x, list) or any(type(c) is not int for c in x):
            raise InstanceFileError(
                f"{where}: element {json.dumps(x)} is not an array of integers"
            )
    return raw


def _array(value, field: str) -> list:
    """Check a certificate field the report schema types as an array; errors name it."""
    if not isinstance(value, list):
        raise InstanceFileError(f"certificate: {field} must be an array")
    return value


def _require(obj: dict, field: str, path: str):
    if field not in obj:
        raise InstanceFileError(f"{path}: missing field {field!r}")
    return obj[field]


def _count(obj: dict, field: str) -> int:
    """A certificate's nonnegative integer field (no booleans, floats or strings)."""
    value = _require(obj, field, "certificate")
    if type(value) is not int or value < 0:
        raise InstanceFileError(f"certificate: {field} must be a nonnegative integer")
    return value


def _read_object(path: str) -> dict:
    """Read a JSON file whose top level must be an object."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise InstanceFileError(f"{path}: {err.strerror or err}") from None
    except json.JSONDecodeError as err:
        raise InstanceFileError(f"{path}: invalid JSON ({err.msg} at line {err.lineno})") from None
    except (ValueError, RecursionError) as err:
        # not UTF-8, an integer past int()'s digit limit, or nested too deeply
        raise InstanceFileError(f"{path}: unreadable JSON ({err})") from None
    if not isinstance(data, dict):
        raise InstanceFileError(f"{path}: top level must be an object")
    return data


def load_instance(path: str) -> tuple[Deltoid, dict, list[str]]:
    """Read an instance file into a validated Deltoid.

    Returns the deltoid, the canonical inputs echo, and any warnings
    (currently only element deduplication notices).
    """
    data = _read_object(path)
    if unknown := sorted(set(data) - {"group", "A", "B"}):
        raise InstanceFileError(f"{path}: unknown field {unknown[0]!r}")
    if not isinstance(literal := _require(data, "group", path), str):
        raise InstanceFileError(f"{path}: field 'group' must be a string")
    group = parse_group(literal)
    warnings = []
    sets = {}
    for name in ("A", "B"):
        raw = _elements(_require(data, name, path), f"{path}: field {name!r}")
        canon = GroupSet.of(group, raw)
        if len(canon.elements) < len(raw):
            warnings.append(f"duplicate elements removed from {name}")
        sets[name] = canon
    deltoid = build_deltoid(sets["A"], sets["B"])
    return deltoid, _enc_instance(deltoid.A, deltoid.B), warnings


def _parse_matching(group, obj: dict) -> PartialMatching:
    canon = _pairs(group, _require(obj, "pairs", "certificate"), "pairs")
    return PartialMatching(canon, _count(obj, "defect"))


def _pairs(group, pairs, field: str) -> tuple:
    canon = []
    for pair in _array(pairs, field):
        if len(_elements(pair, "certificate: pair")) != 2:
            raise InstanceFileError("certificate: each pair must be [a, b]")
        canon.append((canonicalize(group, pair[0]), canonicalize(group, pair[1])))
    return tuple(canon)


def _parse_witness(group, obj: dict) -> ObstructionWitness:
    parts = {
        name: GroupSet.of(
            group, _elements(_require(obj, name, "certificate"), f"certificate: field {name!r}")
        )
        for name in _WITNESS_PARTS
    }
    return ObstructionWitness(level=_count(obj, "level"), **parts)


def _parse_partition(group, size: int, obj: dict) -> AdmissiblePartition:
    side = _require(obj, "side", "certificate")
    if side not in ("left", "right"):
        raise InstanceFileError('certificate: side must be "left" or "right"')
    classes = tuple(
        GroupSet.of(group, _elements(c, "certificate: class"))
        for c in _array(_require(obj, "classes", "certificate"), "classes")
    )
    matchings = []
    for pairs in _array(_require(obj, "matchings", "certificate"), "matchings"):
        canon = _pairs(group, pairs, "each item of matchings")
        # certificates carry pairs only; the defect follows from the instance size
        matchings.append(PartialMatching(canon, size - len(canon)))
    return AdmissiblePartition(side, classes, tuple(matchings))


# --- subcommand handlers ----------------------------------------------------
#
# Each takes the loaded instance (for construct, the parsed group) and the
# parsed arguments, and returns (exit code, results, certificates or None);
# main wraps them into the report.


def _cmd_deficiency(deltoid: Deltoid, args) -> tuple:
    delta = deficiency(deltoid)
    routes: dict = {"matching": delta, "subsets": None, "subgroups": None}
    skipped = {}
    for name, route in (("subsets", deficiency_by_subsets), ("subgroups", deficiency_by_subgroups)):
        try:
            routes[name] = route(deltoid)
        except (UnsupportedInfiniteGroupError, ResourceLimitError) as err:
            skipped[name] = str(err)
    computed = [v for v in routes.values() if v is not None]
    results = {
        "delta": delta,
        "routes": routes,
        "agreement": len(set(computed)) == 1,
        "skipped": skipped,
    }
    return 0, results, None


def _cmd_match(deltoid: Deltoid, args) -> tuple:
    matching = partial_matching_with_defect(deltoid, args.defect)
    results = {"present": matching is not None, "defect": args.defect}
    if matching is None:
        results["deficiency"] = max_matching(deltoid).defect
        results["reason"] = "no matching with requested defect: deficiency exceeds it"
        return 1, results, None
    results["pairs"] = len(matching.pairs)
    return 0, results, {"matching": _matching_cert(matching)}


def _cmd_witness(deltoid: Deltoid, args) -> tuple:
    witness = find_witness(deltoid, args.ell)
    results = {"present": witness is not None, "ell": args.ell}
    if witness is None:
        results["reason"] = "no witness: deficiency not greater than ell"
        return 1, results, None
    results["sizes"] = {name: len(getattr(witness, name).elements) for name in _WITNESS_PARTS}
    return 0, results, {"witness": _witness_cert(witness)}


def _cmd_rho(deltoid: Deltoid, args) -> tuple:
    value = rho(deltoid)
    return 0, {"rho": "infinite" if value is math.inf else value}, None


def _cmd_lambda(deltoid: Deltoid, args) -> tuple:
    return 0, {"lambda": lambda_(deltoid)}, None


def _cmd_partition(deltoid: Deltoid, args) -> tuple:
    side, k = args.side, args.k
    if k is not None and k > deltoid.size:
        whole = "A" if side == "left" else "B"
        raise ResourceLimitError(
            f"--k {k} exceeds the bound |{whole}| = {deltoid.size}: "
            f"classes past |{whole}| are always empty"
        )
    results = {"side": side}
    try:
        if k is None:
            k = (lambda_by_feasibility if side == "left" else rho_by_feasibility)(deltoid)
    except InfiniteRhoError:
        part, reason = None, "no finite partition: an element of B stabilizes A"
    else:
        results["k"] = k
        part = (partition_left if side == "left" else partition_right)(deltoid, k)
        reason = "no partition into k admissible classes"
    results["feasible"] = part is not None
    if part is None:
        results["reason"] = reason
        return 1, results, None
    results["class_sizes"] = [len(c.elements) for c in part.classes]
    return 0, results, {"partition": _partition_cert(part)}


def _cmd_construct(group: GroupSpec, args) -> tuple:
    try:
        witness = construct_deficient_pair(group, args.n, args.ell)
    except NoConstructionError as err:
        return 1, {"present": False, "reason": str(err)}, None
    A, B = witness.S.union(witness.Y), witness.R.union(witness.Z)
    results = {
        "present": True,
        "instance": _enc_instance(A, B),
        "deficiency": deficiency(build_deltoid(A, B)),
    }
    return 0, results, {"witness": _witness_cert(witness)}


def _cmd_chowla(deltoid: Deltoid, args) -> tuple:
    bound = chowla_defect(deltoid.B)
    delta = deficiency(deltoid)
    results = {
        "chowla_defect": bound,
        "size": deltoid.size,
        "deficiency": delta,
        "bound_holds": delta <= bound,
    }
    return 0, results, None


def _verify_one(deltoid: Deltoid, obj: dict) -> tuple[str, bool, str]:
    kind = obj.get("kind")
    group = deltoid.A.group
    if kind == "matching":
        verdict = verify_matching(deltoid, _parse_matching(group, obj))
    elif kind == "witness":
        verdict = verify_witness(deltoid, _parse_witness(group, obj))
    elif kind == "partition":
        verdict = validate_partition(deltoid, _parse_partition(group, deltoid.size, obj))
    else:
        raise InstanceFileError(f"certificate: unknown kind {kind!r}")
    return kind, bool(verdict), verdict.reason


def _cmd_verify(deltoid: Deltoid, args) -> tuple:
    data = _read_object(args.certificate)
    if "certificates" in data:
        named = data["certificates"]
    elif "kind" in data:
        named = {"certificate": data}
    else:
        raise InstanceFileError("certificate file has neither 'kind' nor 'certificates'")
    if not isinstance(named, dict):
        raise InstanceFileError("'certificates' must be an object")
    if not named:
        raise InstanceFileError("'certificates' is empty: nothing to verify")
    checks = []
    for name in sorted(named):
        if not isinstance(named[name], dict):
            raise InstanceFileError(f"certificate {name!r} must be an object")
        kind, ok, reason = _verify_one(deltoid, named[name])
        checks.append({"name": name, "kind": kind, "valid": ok, "reason": reason})
    all_ok = all(c["valid"] for c in checks)
    return (0 if all_ok else 1), {"valid": all_ok, "checks": checks}, None


# --- report rendering and the entry point ----------------------------------


def render_json(value, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, two-space indent, short arrays inline."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(key)}: {render_json(value[key], indent + 1)}'
            for key in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        flat = json.dumps(value, sort_keys=True, separators=(", ", ": "))
        if len(flat) <= 72:
            return flat
        items = [f"{pad}  {render_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return json.dumps(value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltoids",
        description="Partial matchings, deficiency, and admissible partitions "
        "of finite subsets of abelian groups.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, help_text, instance=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if instance:
            p.add_argument("instance")
        return p

    add("deficiency", _cmd_deficiency, "deficiency by all available routes")
    p = add("match", _cmd_match, "a partial matching with the requested defect")
    p.add_argument("--defect", type=int, required=True)
    p = add("witness", _cmd_witness, "an obstruction witness for the requested level")
    p.add_argument("--ell", type=int, required=True)
    add("rho", _cmd_rho, "right partition number")
    add("lambda", _cmd_lambda, "left partition number")
    p = add("partition", _cmd_partition, "partition into admissible classes")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("--k", type=int, default=None)
    p = add("construct", _cmd_construct, "build a pair with deficiency above ell",
            instance=False)
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    add("chowla", _cmd_chowla, "Chowla defect of B and the deficiency bound")
    p = add("verify", _cmd_verify, "re-verify a certificate against an instance")
    p.add_argument("--certificate", required=True)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only code that builds and prints a report."""
    args = _build_parser().parse_args(argv)
    try:
        if "instance" in args:
            subject, inputs, warnings = load_instance(args.instance)
        else:
            subject, warnings = parse_group(args.group), []
            inputs = {"group": format_group(subject), "n": args.n, "ell": args.ell}
        code, results, certificates = args.handler(subject, args)
    except ResourceLimitError as err:
        message, code = f"resource limit: {err}", 3
    except InternalInconsistencyError as err:
        message, code = f"internal error: {err}", 4
    except DeltoidError as err:
        message, code = str(err), 2
    except Exception as err:  # any other exception is a bug, not bad input
        message, code = f"internal error: {type(err).__name__}: {err}", 4
    else:
        report = {
            "command": args.subcommand,
            "inputs": inputs,
            "results": results,
            "version": __version__,
        }
        if certificates:
            report["certificates"] = certificates
        if warnings:
            report["warnings"] = warnings
        print(render_json(report))
        return code
    print(f"deltoids: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
