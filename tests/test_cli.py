"""End-to-end CLI behavior: reports, certificates, exit codes, determinism."""

import ast
import importlib
import json
import random
import re
import time
from itertools import product
from pathlib import Path

import pytest

from deltoids import GroupSet, InternalInconsistencyError, cli, elements_of, parse_group, structure
from deltoids.cli import main
from helpers import schema_errors

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = str(ROOT / "fixtures" / "z12-paper.json")
# A + 6 = A with 6 in B, so no finite number of classes covers B
INFINITE_RHO = str(ROOT / "fixtures" / "z12-infinite-rho.json")
REPORT_SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text(encoding="utf-8"))
INSTANCE_SCHEMA = json.loads((ROOT / "docs" / "instance.schema.json").read_text(encoding="utf-8"))


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    report = json.loads(out) if out.strip() else None
    return code, report, err


def write_instance(tmp_path, payload, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_deficiency_subgroup_route_in_z2_to_the_9(capsys, tmp_path):
    # a seeded uniform instance of size 200 in Z2^9: the subgroup route took
    # tens of seconds before the search stopped at its value bound
    rng = random.Random(1)
    everything = [[int(c) for c in format(code, "09b")] for code in range(512)]
    path = write_instance(tmp_path, {
        "group": "x".join(["Z2"] * 9),
        "A": rng.sample(everything, 200),
        "B": rng.sample(everything[1:], 200),
    })
    start = time.perf_counter()
    code, report, _ = run_json(capsys, "deficiency", path)
    assert code == 0
    routes = report["results"]["routes"]
    assert routes["subgroups"] == routes["matching"] == report["results"]["delta"]
    assert set(report["results"]["skipped"]) == {"subsets"}  # 2^200 subsets
    assert time.perf_counter() - start < 5.0


def test_deficiency_golden(capsys):
    code, report, _ = run_json(capsys, "deficiency", FIXTURE)
    assert code == 0
    assert report["results"]["delta"] == 3
    assert report["results"]["routes"] == {"matching": 3, "subsets": 3, "subgroups": 3}
    assert report["results"]["agreement"] is True
    assert report["inputs"]["group"] == "Z12"


def test_reports_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "deficiency", FIXTURE)
    _, second, _ = run_cli(capsys, "deficiency", FIXTURE)
    assert first == second
    _, first, _ = run_cli(capsys, "partition", FIXTURE, "--side", "right")
    _, second, _ = run_cli(capsys, "partition", FIXTURE, "--side", "right")
    assert first == second


GOLDEN = ROOT / "tests" / "golden"

# (expected stdout file, exit code, argv); the files are the exact reports
# on the fixture, so any change to a report's bytes fails here.  The verify
# cases read whole reports from this table as their certificates.
GOLDEN_CASES = [
    ("deficiency", 0, ["deficiency", FIXTURE]),
    ("match-defect3", 0, ["match", FIXTURE, "--defect", "3"]),
    ("match-defect2", 1, ["match", FIXTURE, "--defect", "2"]),
    ("witness-ell2", 0, ["witness", FIXTURE, "--ell", "2"]),
    ("witness-ell3", 1, ["witness", FIXTURE, "--ell", "3"]),
    ("rho", 0, ["rho", FIXTURE]),
    ("lambda", 0, ["lambda", FIXTURE]),
    ("partition-left", 0, ["partition", FIXTURE, "--side", "left"]),
    ("partition-right", 0, ["partition", FIXTURE, "--side", "right"]),
    ("partition-right-k2", 1, ["partition", FIXTURE, "--side", "right", "--k", "2"]),
    ("partition-left-k1", 1, ["partition", FIXTURE, "--side", "left", "--k", "1"]),
    ("partition-infinite-rho", 1, ["partition", INFINITE_RHO, "--side", "right"]),
    ("construct-z12", 0, ["construct", "--group", "Z12", "--n", "8", "--ell", "2"]),
    # arrays past 72 characters, which render one element per line
    ("construct-z24", 0, ["construct", "--group", "Z24", "--n", "16", "--ell", "1"]),
    # non-cyclic: many subgroups of one order, of which H is the canonically first
    ("construct-z2xz4xz8", 0, ["construct", "--group", "Z2xZ4xZ8", "--n", "40", "--ell", "1"]),
    ("construct-z2-to-the-5", 0,
     ["construct", "--group", "Z2xZ2xZ2xZ2xZ2", "--n", "20", "--ell", "1"]),
    ("construct-z12-n11", 1, ["construct", "--group", "Z12", "--n", "11", "--ell", "0"]),
    ("chowla", 0, ["chowla", FIXTURE]),
    ("verify-witness", 0,
     ["verify", FIXTURE, "--certificate", str(GOLDEN / "witness-ell2.json")]),
    ("verify-partition-right", 0,
     ["verify", FIXTURE, "--certificate", str(GOLDEN / "partition-right.json")]),
    # a valid certificate checked against another instance
    ("verify-partition-infinite-rho", 1,
     ["verify", INFINITE_RHO, "--certificate", str(GOLDEN / "partition-right.json")]),
]


@pytest.mark.parametrize(
    "name, expected_code, argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES]
)
def test_report_bytes_match_golden(capsys, name, expected_code, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (expected_code, "")
    assert out == (GOLDEN / f"{name}.json").read_bytes().decode("utf-8")


def test_leading_zeros_answer_past_the_digit_limit(capsys, tmp_path):
    # the literal's leading zeros are not digits of the modulus: the
    # fixture as "Z000...012" gives the golden report, and construct echoes
    # the canonical literal
    zeros = "Z" + "0" * 5000
    fixture = json.loads(Path(FIXTURE).read_text(encoding="utf-8"))
    path = write_instance(tmp_path, dict(fixture, group=zeros + "12"))
    assert run_cli(capsys, "deficiency", path) == (
        0, (GOLDEN / "deficiency.json").read_text(encoding="utf-8"), "")
    assert run_cli(capsys, "construct", "--group", zeros + "12", "--n", "8", "--ell", "2") == (
        0, (GOLDEN / "construct-z12.json").read_text(encoding="utf-8"), "")
    # a modulus of more than 4,300 digits after its zeros is still refused
    path = write_instance(tmp_path, dict(fixture, group="Z1" + "0" * 4300))
    assert run_cli(capsys, "deficiency", path) == (
        2, "", "deltoids: modulus of 4301 digits is too large\n")


def test_every_answer_shape_is_pinned():
    # each subcommand that can answer "does not exist" has both reports pinned
    pinned = {(argv[0], code) for _, code, argv in GOLDEN_CASES}
    for command in ("match", "witness", "partition", "construct", "verify"):
        assert {(command, 0), (command, 1)} <= pinned, command


def test_construct_runs_no_subgroup_search(capsys, monkeypatch):
    # construct reports the witness it built; neither the witness search nor
    # the subgroup search it runs on (looked up in transform) may be called
    def searched(*args, **kwargs):
        raise AssertionError("construct searched for its own witness")

    monkeypatch.setattr(cli, "find_witness", searched)
    monkeypatch.setattr("deltoids.transform._search_subgroups", searched)
    cases = [case for case in GOLDEN_CASES if case[2][0] == "construct"]
    assert len(cases) == 5
    for name, expected_code, argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (expected_code, ""), name
        assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8"), name


def test_witness_present_and_absent(capsys, tmp_path):
    code, report, _ = run_json(capsys, "witness", FIXTURE, "--ell", "2")
    assert code == 0
    assert report["results"]["present"] is True
    assert report["certificates"]["witness"]["R"] == [[2], [4], [6], [8], [10]]
    cert = tmp_path / "witness.json"
    cert.write_text(json.dumps(report), encoding="utf-8")
    code, verify_report, _ = run_json(
        capsys, "verify", FIXTURE, "--certificate", str(cert)
    )
    assert code == 0 and verify_report["results"]["valid"] is True

    code, report, _ = run_json(capsys, "witness", FIXTURE, "--ell", "3")
    assert code == 1
    assert report["results"]["reason"] == "no witness: deficiency not greater than ell"


def test_negative_ell_is_refused_by_the_library(capsys):
    # find_witness and existence_predicate check the level; the CLI has no
    # second check, so witness and construct print the same line
    for argv in (
        ["witness", FIXTURE, "--ell", "-1"],
        ["construct", "--group", "Z12", "--n", "8", "--ell", "-1"],
    ):
        assert run_cli(capsys, *argv) == (2, "", "deltoids: level must be nonnegative\n"), argv


def test_match_roundtrip_and_exit_codes(capsys, tmp_path):
    code, report, _ = run_json(capsys, "match", FIXTURE, "--defect", "3")
    assert code == 0 and report["results"]["pairs"] == 5
    # pinned: the augmenting search order fixes which matching is emitted
    assert report["certificates"]["matching"]["pairs"] == [
        [[0], [3]], [[1], [2]], [[2], [1]], [[4], [11]], [[11], [4]]
    ]
    cert = tmp_path / "match.json"
    cert.write_text(json.dumps(report), encoding="utf-8")
    code, verify_report, _ = run_json(
        capsys, "verify", FIXTURE, "--certificate", str(cert)
    )
    assert code == 0 and verify_report["results"]["valid"] is True

    code, report, _ = run_json(capsys, "match", FIXTURE, "--defect", "2")
    assert code == 1 and report["results"]["present"] is False
    assert report["results"]["deficiency"] == 3

    code, _, err = run_json(capsys, "match", FIXTURE, "--defect", "15")
    assert code == 2 and "defect" in err


def test_rho_and_lambda(capsys, tmp_path):
    code, report, _ = run_json(capsys, "rho", FIXTURE)
    assert code == 0 and report["results"]["rho"] == 3
    code, report, _ = run_json(capsys, "lambda", FIXTURE)
    assert code == 0 and report["results"]["lambda"] == 2

    stabilized = write_instance(
        tmp_path,
        {
            "group": "Z12",
            "A": [[0], [2], [4], [6], [8], [10]],
            "B": [[1], [2], [4], [6], [8], [10]],
        },
    )
    code, report, _ = run_json(capsys, "rho", stabilized)
    assert code == 0 and report["results"]["rho"] == "infinite"
    code, report, _ = run_json(capsys, "partition", stabilized, "--side", "right")
    assert code == 1
    assert "stabilizes" in report["results"]["reason"]


def test_partition_right_golden(capsys, tmp_path):
    code, report, _ = run_json(capsys, "partition", FIXTURE, "--side", "right")
    assert code == 0
    assert report["results"]["k"] == 3
    classes = report["certificates"]["partition"]["classes"]
    assert classes == [[[1], [2], [3], [4], [11]], [[6], [10]], [[8]]]
    assert report["certificates"]["partition"]["matchings"] == [
        [[[0], [3]], [[1], [2]], [[2], [1]], [[4], [11]], [[11], [4]]],
        [[[1], [6]], [[11], [10]]],
        [[[1], [8]]],
    ]
    flattened = sorted(tuple(e) for cls in classes for e in cls)
    assert flattened == sorted(tuple(e) for e in json.loads(Path(FIXTURE).read_text())["B"])
    cert = tmp_path / "partition.json"
    cert.write_text(json.dumps(report), encoding="utf-8")
    code, verify_report, _ = run_json(
        capsys, "verify", FIXTURE, "--certificate", str(cert)
    )
    assert code == 0 and verify_report["results"]["valid"] is True

    code, report, _ = run_json(capsys, "partition", FIXTURE, "--side", "right", "--k", "2")
    assert code == 1 and report["results"]["feasible"] is False

    code, report, _ = run_json(capsys, "partition", FIXTURE, "--side", "left")
    assert code == 0 and report["results"]["k"] == 2
    assert report["certificates"]["partition"]["classes"] == [
        [[0], [1], [4], [6], [11]], [[2], [8], [10]]
    ]
    assert report["certificates"]["partition"]["matchings"] == [
        [[[0], [3]], [[1], [2]], [[4], [11]], [[6], [1]], [[11], [4]]],
        [[[2], [3]], [[8], [1]], [[10], [11]]],
    ]


@pytest.mark.parametrize("command", ["rho", "lambda"])
def test_sweep_routes_above_the_bound_exit_three(capsys, tmp_path, command):
    # the sweep refuses n = 30 before any block; rho is finite here, so its
    # infinite check cannot answer first
    rng = random.Random(30)
    path = write_instance(tmp_path, {
        "group": "Z64",
        "A": [[x] for x in rng.sample(range(64), 30)],
        "B": [[x] for x in rng.sample(range(1, 64), 30)],
    })
    code, out, err = run_cli(capsys, command, path)
    assert (code, out) == (3, "")
    assert err == "deltoids: resource limit: |A| = 30 exceeds subset sweep bound 22\n"


@pytest.mark.parametrize("n", [256, 300])
def test_deficiency_at_n_256_and_above_skips_the_sweep(capsys, tmp_path, n):
    # the subset route built a byte table from n before its bound check, so
    # n >= 256 exited 4 with "bytes must be in range(0, 256)"
    rng = random.Random(1)
    path = write_instance(tmp_path, {
        "group": "Z4001",
        "A": [[x] for x in rng.sample(range(4001), n)],
        "B": [[x] for x in rng.sample(range(1, 4001), n)],
    })
    code, report, err = run_json(capsys, "deficiency", path)
    assert (code, err) == (0, "")
    assert report["results"]["agreement"] is True
    assert report["results"]["skipped"] == {
        "subsets": f"|A| = {n} exceeds subset sweep bound 22"
    }


def test_partition_right_least_k_above_sweep_bound(capsys, tmp_path):
    # n = 30 is above the 2^n sweep bound; H = <3> forces
    # rho >= ceil(|B n H| / (|A| - |H|)) = ceil(19 / 10) = 2
    others = [x for x in range(60) if x % 3]
    payload = {
        "group": "Z60",
        "A": [[x] for x in range(0, 60, 3)] + [[x] for x in others[:10]],
        "B": [[x] for x in range(3, 60, 3)] + [[x] for x in others[:11]],
    }
    instance = write_instance(tmp_path, payload)
    code, report, _ = run_json(capsys, "partition", instance, "--side", "right")
    assert code == 0 and report["results"]["k"] == 2
    cert = tmp_path / "partition.json"
    cert.write_text(json.dumps(report), encoding="utf-8")
    code, verify_report, _ = run_json(
        capsys, "verify", instance, "--certificate", str(cert)
    )
    assert code == 0 and verify_report["results"]["valid"] is True
    code, report, _ = run_json(capsys, "partition", instance, "--side", "right", "--k", "1")
    assert code == 1 and report["results"]["feasible"] is False


def test_partition_k_bounded_by_side_size(capsys):
    # the fixture has |A| = |B| = 8; k = 8 still pads with empty classes
    code, report, _ = run_json(capsys, "partition", FIXTURE, "--side", "right", "--k", "8")
    assert code == 0 and report["results"]["class_sizes"] == [5, 1, 1, 1, 0, 0, 0, 0]
    for side, whole in (("left", "|A|"), ("right", "|B|")):
        for k in ("9", "100000"):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "partition", FIXTURE, "--side", side, "--k", k)
            assert time.perf_counter() - start < 1.0
            assert code == 3 and out == ""
            assert err.count("\n") == 1
            assert f"bound {whole} = 8" in err and "always empty" in err


def test_construct(capsys):
    code, report, _ = run_json(
        capsys, "construct", "--group", "Z12", "--n", "8", "--ell", "2"
    )
    assert code == 0
    assert report["results"]["deficiency"] == 3
    assert [[0]] not in report["results"]["instance"]["B"]

    code, report, _ = run_json(
        capsys, "construct", "--group", "Z12", "--n", "11", "--ell", "0"
    )
    assert code == 1 and report["results"]["present"] is False

    code, _, err = run_json(capsys, "construct", "--group", "Z12", "--n", "1", "--ell", "0")
    assert code == 2 and "n must satisfy" in err

    code, _, err = run_json(capsys, "construct", "--group", "Z7", "--n", "3", "--ell", "0")
    assert code == 2 and "nontrivial" in err

    code, out, err = run_cli(capsys, "construct", "--group", "Z2xZ", "--n", "3", "--ell", "0")
    assert (code, out, err) == (2, "", "deltoids: subgroup formulas need a finite group\n")


def test_chowla(capsys):
    code, report, _ = run_json(capsys, "chowla", FIXTURE)
    assert code == 0
    assert report["results"]["chowla_defect"] == 6
    assert report["results"]["deficiency"] == 3
    assert report["results"]["bound_holds"] is True


def test_verify_rejects_tampered_certificate(capsys, tmp_path):
    code, report, _ = run_json(capsys, "match", FIXTURE, "--defect", "3")
    cert_obj = report["certificates"]["matching"]
    cert_obj["pairs"][0][1] = [4]  # reroute 0 -> 4, which lands inside A
    cert = tmp_path / "bad.json"
    cert.write_text(json.dumps(cert_obj), encoding="utf-8")
    code, verify_report, _ = run_json(
        capsys, "verify", FIXTURE, "--certificate", str(cert)
    )
    assert code == 1
    assert verify_report["results"]["valid"] is False
    assert verify_report["results"]["checks"][0]["reason"]


def test_instance_loading_errors(capsys, tmp_path):
    code, _, err = run_json(capsys, "deficiency", str(tmp_path / "missing.json"))
    assert code == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    code, _, err = run_json(capsys, "deficiency", str(bad_json))
    assert code == 2 and "invalid JSON" in err

    no_field = write_instance(tmp_path, {"group": "Z12", "A": [[1]]}, "nofield.json")
    code, _, err = run_json(capsys, "deficiency", no_field)
    assert code == 2 and "'B'" in err

    zero_in_b = write_instance(
        tmp_path, {"group": "Z12", "A": [[1], [2]], "B": [[0], [1]]}, "zerob.json"
    )
    code, _, err = run_json(capsys, "deficiency", zero_in_b)
    assert code == 2 and "identity" in err


def test_duplicate_elements_warn_or_fail(capsys, tmp_path):
    dup_ok = write_instance(
        tmp_path,
        {"group": "Z12", "A": [[1], [1], [2]], "B": [[1], [2]]},
        "dup_ok.json",
    )
    code, report, _ = run_json(capsys, "deficiency", dup_ok)
    assert code == 0
    assert report["warnings"] == ["duplicate elements removed from A"]

    dup_bad = write_instance(
        tmp_path,
        {"group": "Z12", "A": [[1], [1], [2]], "B": [[1], [2], [3]]},
        "dup_bad.json",
    )
    code, _, err = run_json(capsys, "deficiency", dup_bad)
    assert code == 2 and "|A|" in err


# (group, sizes) of the exit-code sweep: finite and free-rank groups, n
# from 1 to 300, across the 255 past which a byte table once broke
CONTRACT_GROUPS = [
    ("Z12", (1, 6, 11)),
    ("Z2xZ2xZ2xZ2", (3, 8, 15)),
    ("Z64", (22, 23, 40)),
    ("Z4001", (127, 128, 255, 256, 300)),
    ("Z2xZ", (1, 7, 23)),
    ("Z3xZxZ", (30, 256, 300)),
]


def _contract_instance(rng, literal, n):
    # seeded uniform sets; free coordinates in [-7, 7], 675 elements in Z3xZxZ
    group = parse_group(literal)
    ranges = [range(m) for m in group.torsion] + [range(-7, 8)] * group.free_rank
    universe = [list(x) for x in product(*ranges)]
    return {"group": literal, "A": rng.sample(universe, n),
            "B": rng.sample([x for x in universe if any(x)], n)}


def test_every_subcommand_ends_in_a_documented_exit(capsys, tmp_path):
    # exit 0 or 1: a report that follows docs/report.schema.json and nothing
    # on stderr; exit 2 or 3: one stderr line and no report; never exit 4,
    # which is a bug.  Every certificate a report emits verifies.
    rng = random.Random(8)
    seen = set()

    def ends_documented(*argv):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2, 3), (argv, err)
        if code <= 1:
            assert err == "" and json.loads(out)["command"] == argv[0], argv
            assert schema_errors(json.loads(out), REPORT_SCHEMA) == [], argv
        else:
            assert out == "" and err.startswith("deltoids: ") and err.count("\n") == 1, argv
        seen.add((argv[0], code))
        return code, out

    # the fixtures have deficiency 3 and infinite rho, which uniform sets rarely do
    instances = [json.loads(Path(path).read_text(encoding="utf-8"))
                 for path in (FIXTURE, INFINITE_RHO)]
    instances += [_contract_instance(rng, literal, n)
                  for literal, sizes in CONTRACT_GROUPS for n in sizes]
    for instance in instances:
        n = len(instance["A"])
        path = write_instance(tmp_path, instance)
        reports = []
        for argv in (
            ["deficiency"], ["match", "--defect", str(rng.randint(0, n))],
            ["witness", "--ell", str(rng.randint(0, 2))], ["rho"], ["lambda"],
            ["partition", "--side", "left"], ["partition", "--side", "right"], ["chowla"],
        ):
            code, out = ends_documented(argv[0], path, *argv[1:])
            if code == 0 and "certificates" in json.loads(out):
                reports.append(out)
        for i, out in enumerate(reports):
            certificate = tmp_path / f"report{i}.json"
            certificate.write_text(out, encoding="utf-8")
            assert ends_documented("verify", path, "--certificate", str(certificate))[0] == 0
        ends_documented("construct", "--group", instance["group"], "--n", str(n),
                        "--ell", str(rng.randint(0, 2)))
    # every subcommand answered somewhere, and every exit code 0 to 3 came up
    assert {command for command, code in seen if code == 0} == {
        "deficiency", "match", "witness", "rho", "lambda", "partition", "chowla", "verify",
        "construct",
    }
    assert {code for _, code in seen} == {0, 1, 2, 3}


# the rules docs/instance.schema.json cannot state, each with the message it
# exits 2 with: a file that breaks only these passes the schema
SCHEMA_CANNOT_STATE = {
    "sizes": r"\|A\| = \d+ but \|B\| = \d+",
    "identity": r"the identity element may not appear in B",
    "length": r"element of length \d+ does not fit group of dimension \d+",
    "digits": r"modulus of \d+ digits is too large",
}
# the one documented difference: an integral float such as 1.0 or 1e2 is a
# draft-07 integer, so it passes the schema, but the loader takes JSON
# integers only and exits 2
INTEGRAL_FLOAT = r"element \[.*\] is not an array of integers"
# written into the file text unquoted, so that 1e2 stays 1e2
RAW_NUMBERS = ("1.0", "1e2", "-0.0", "2E0", "1.7", "-2.5")


def _literal_variants(rng, literal):
    # group literals made from a valid one by one change each: leading
    # zeros (a few, and more than int()'s 4,300-digit limit), Z0, Z1 inside
    # a product, whitespace, a trailing newline, a non-ASCII digit, a free
    # factor first, too many digits, the trivial group
    factors = literal.split("x")
    i = rng.choice([i for i, factor in enumerate(factors) if factor != "Z"])
    j = rng.choice([j for j, c in enumerate(literal) if c.isdigit()])
    k = rng.randrange(len(literal) + 1)

    def with_factor(text):
        return "x".join(factors[:i] + [text] + factors[i + 1:])

    yield with_factor("Z" + "0" * rng.randint(1, 3) + factors[i][1:])
    yield with_factor("Z" + "0" * 4301 + factors[i][1:])
    yield with_factor(rng.choice(["Z0", "Z00"]))
    yield rng.choice(["Z1x", "Z01x"]) + literal
    yield literal[:k] + rng.choice([" ", "\t", "\u00a0", "\u3000"]) + literal[k:]
    yield literal + "\n"
    yield literal[:j] + chr(rng.choice([0xFF10, 0x0660, 0x0966]) + int(literal[j])) + literal[j + 1:]
    yield "x".join(["Z"] + factors[:-1]) if factors[-1] == "Z" else "Zx" + literal
    yield with_factor("Z1" + "0" * 4300)
    yield "Z1"


def _instance_mutants(rng, instance):
    # (what was changed, instance) per mutant: the group literal, the
    # fields, A or B as a whole, one coordinate, and the rules the schema
    # cannot state
    for literal in _literal_variants(rng, instance["group"]):
        yield "group", dict(instance, group=literal)
    field = rng.choice(["group", "A", "B"])
    yield "missing", {key: value for key, value in instance.items() if key != field}
    yield "extra", dict(instance, **{rng.choice(["C", "a", "A ", "groups"]): [[1]]})
    yield "top", rng.choice([[], 5, "Z12", None, [instance]])
    for name in ("A", "B"):
        yield "set", dict(instance, **{name: rng.choice([5, "A", {}, None, True, {"0": [1]}])})
        yield "set", dict(instance, **{name: []})
        for bad in (True, False, "1", None, *RAW_NUMBERS):
            elements = [list(x) for x in instance[name]]
            x = rng.choice(elements)
            x[rng.randrange(len(x))] = f"@{bad}@" if bad in RAW_NUMBERS else bad
            yield "coordinate", dict(instance, **{name: elements})
        yield "sizes", dict(instance, **{name: instance[name][1:]})
        elements = [list(x) for x in instance[name]]
        x = rng.choice(elements)
        if rng.random() < 0.5 or len(x) == 1:
            x.append(0)
        else:
            x.pop()
        yield "length", dict(instance, **{name: elements})
    B = list(instance["B"])
    B[rng.randrange(len(B))] = [0] * len(B[0])
    yield "identity", dict(instance, B=B)


def test_every_instance_the_schema_refuses_exits_2(capsys, tmp_path):
    # an instance differential: on seeded mutants of valid instances, each
    # file docs/instance.schema.json rejects makes deficiency exit 2 with one
    # stderr line and no report; each file it accepts answers with exit 0,
    # or exits 2 by a rule the schema cannot state or by the one documented
    # difference (INTEGRAL_FLOAT).  chowla refuses what deficiency refuses,
    # and construct --group each literal parse_group refuses, with the same
    # line
    rng = random.Random(23)
    instances = [json.loads(Path(FIXTURE).read_text(encoding="utf-8"))]
    instances += [_contract_instance(rng, literal, n)
                  for literal, n in (("Z12", 2), ("Z2xZ4", 5), ("Z7", 4), ("Z2xZ", 3),
                                     ("Z3xZxZ", 6), ("Z2xZ2xZ2", 3))]
    rules = {**SCHEMA_CANNOT_STATE, "float": INTEGRAL_FLOAT}
    outcomes = {}
    path = tmp_path / "mutant.json"
    for instance in instances:
        for changed, mutant in [("none", instance), *_instance_mutants(rng, instance)]:
            text = json.dumps(mutant)
            for number in RAW_NUMBERS:
                text = text.replace(f'"@{number}@"', number)
            path.write_text(text, encoding="utf-8")
            accepted = schema_errors(json.loads(text), INSTANCE_SCHEMA) == []
            code, out, err = run_cli(capsys, "deficiency", str(path))
            if code == 0:
                assert accepted and err == "", text
                outcome = "answered"
            else:
                assert code == 2 and out == "", text
                assert err.startswith("deltoids: ") and err.count("\n") == 1, text
                outcome = "refused"
                if accepted:
                    outcome = next((rule for rule, message in rules.items()
                                    if re.search(message, err)), "unexplained")
                assert run_cli(capsys, "chowla", str(path)) == (2, "", err), text
                if changed == "group" and outcome in ("refused", "digits"):
                    argv = ["--group", mutant["group"], "--n", "2", "--ell", "0"]
                    assert run_cli(capsys, "construct", *argv) == (2, "", err), text
            if changed == "group" and accepted:
                # only significant digits count: leading zeros never refuse
                digits = max(len(token[1:].lstrip("0")) for token in mutant["group"].split("x"))
                assert (outcome == "digits") == (digits > 4300), text
            outcomes.setdefault(changed, set()).add((accepted, outcome))
    # leading zeros answer, every kind of break is refused by both, and each
    # rule the schema cannot state, and only such a rule, exits 2 past it
    assert outcomes["none"] == {(True, "answered")}
    assert (True, "answered") in outcomes["group"] and (False, "refused") in outcomes["group"]
    for changed in ("missing", "extra", "top", "set"):
        assert outcomes[changed] == {(False, "refused")}, changed
    assert outcomes["coordinate"] == {(False, "refused"), (True, "float")}
    assert outcomes["sizes"] == {(True, "sizes")}
    assert outcomes["length"] == {(True, "length")}
    assert outcomes["identity"] == {(True, "identity")}
    assert {outcome for accepted, outcome in outcomes["group"] if accepted} == {
        "answered", "length", "digits"}


def test_free_group_instance_skips_subgroup_route(capsys, tmp_path):
    free = write_instance(
        tmp_path,
        {"group": "Z2xZ", "A": [[0, 0], [1, 1]], "B": [[1, 0], [0, 2]]},
        "free.json",
    )
    code, report, _ = run_json(capsys, "deficiency", free)
    assert code == 0
    assert report["results"]["routes"]["subgroups"] is None
    assert report["results"]["skipped"]["subgroups"] == "subgroup formulas need a finite group"
    assert report["results"]["agreement"] is True


def test_group_order_above_enumeration_bound(capsys, tmp_path):
    big = write_instance(tmp_path, {"group": "Z10007", "A": [[0]], "B": [[1]]}, "big.json")
    code, report, _ = run_json(capsys, "deficiency", big)
    message = "group order 10007 exceeds enumeration bound 10000"
    assert code == 0 and report["results"]["skipped"]["subgroups"] == message
    code, out, err = run_cli(capsys, "witness", big, "--ell", "0")
    assert code == 3 and out == "" and err.count("\n") == 1 and message in err
    code, out, err = run_cli(capsys, "construct", "--group", "Z10007", "--n", "8", "--ell", "0")
    assert code == 3 and out == "" and err.count("\n") == 1 and message in err
    # the bound is checked before anything of size |G| is built
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "construct", "--group", "Z1000000000000", "--n", "8", "--ell", "0"
    )
    assert code == 3 and out == "" and "exceeds enumeration bound 10000" in err
    assert time.perf_counter() - start < 1.0


def test_construct_in_z2_to_the_8_verifies(capsys, tmp_path):
    # Z2^8 has 417,199 subgroups; construct builds only the one it uses
    group = "x".join(["Z2"] * 8)
    code, report, _ = run_json(capsys, "construct", "--group", group, "--n", "40", "--ell", "1")
    assert code == 0 and report["results"]["deficiency"] > 1
    instance = write_instance(tmp_path, report["results"]["instance"])
    cert = tmp_path / "report.json"
    cert.write_text(json.dumps(report), encoding="utf-8")
    code, verify_report, _ = run_json(capsys, "verify", instance, "--certificate", str(cert))
    assert code == 0 and verify_report["results"]["checks"][0]["kind"] == "witness"


def test_instance_fields_follow_the_schema(capsys, tmp_path):
    # docs/instance.schema.json: no other fields, and the group is a string
    extra = write_instance(tmp_path, {"group": "Z12", "A": [[0]], "B": [[1]], "extra": 1})
    code, out, err = run_cli(capsys, "deficiency", extra)
    assert _one_line_error(code, out, err) and "'extra'" in err
    number = write_instance(tmp_path, {"group": 12, "A": [[0]], "B": [[1]]}, "number.json")
    code, out, err = run_cli(capsys, "deficiency", number)
    assert _one_line_error(code, out, err) and "'group'" in err
    # the group pattern has no whitespace and only ASCII digits; these used
    # to give reports with exit 0
    for literal in (" Z12 ", "Z2 x Z4", "Z\u0661\u0662"):
        spaced = write_instance(tmp_path, {"group": literal, "A": [[0]], "B": [[1]]}, "g.json")
        code, out, err = run_cli(capsys, "deficiency", spaced)
        assert _one_line_error(code, out, err) and "group literal" in err
        code, out, err = run_cli(capsys, "construct", "--group", literal, "--n", "8", "--ell", "2")
        assert _one_line_error(code, out, err) and "group literal" in err


@pytest.mark.parametrize("side", [5, None, "up", ["left"]])
def test_partition_certificate_side_follows_the_schema(capsys, tmp_path, side):
    # side is an enum in the report schema; 5 used to verify as "valid": false, exit 1
    cert = json.loads((GOLDEN / "partition-right.json").read_text(encoding="utf-8"))
    cert["certificates"]["partition"]["side"] = side
    path = tmp_path / "side.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", FIXTURE, "--certificate", str(path))
    assert _one_line_error(code, out, err) and "side" in err


@pytest.mark.parametrize("bad", [5, {"a": [1]}, "ab"], ids=["int", "object", "string"])
@pytest.mark.parametrize("field", ["pairs", "classes", "matchings", "matchings item"])
def test_certificate_arrays_are_checked_by_name(capsys, tmp_path, field, bad):
    # the report schema types these as arrays; an int used to exit 2 as
    # "malformed ('int' object is not iterable)", naming no field
    if field == "pairs":
        cert = {"kind": "matching", "pairs": bad, "defect": 0}
    else:
        report = json.loads((GOLDEN / "partition-right.json").read_text(encoding="utf-8"))
        cert = report["certificates"]["partition"]
        if field == "matchings item":
            cert["matchings"][0] = bad
        else:
            cert[field] = bad
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", FIXTURE, "--certificate", str(path))
    assert _one_line_error(code, out, err) and field.split()[0] in err


def test_unknown_subcommand_exits_two(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2 and "usage" in err


def _one_line_error(code, out, err):
    return code == 2 and not out and err.startswith("deltoids: ") and err.count("\n") == 1


def test_verify_rejects_non_object_certificates(capsys, tmp_path):
    # both used to end in an AttributeError traceback
    entry = tmp_path / "entry.json"
    entry.write_text(json.dumps({"certificates": {"x": [1, 2]}}), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", FIXTURE, "--certificate", str(entry))
    assert _one_line_error(code, out, err) and "'x'" in err
    string = tmp_path / "string.json"
    string.write_text(json.dumps("kind"), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", FIXTURE, "--certificate", str(string))
    assert _one_line_error(code, out, err) and "top level" in err


@pytest.mark.parametrize(
    "cert, message",
    [
        ({"kind": "witness", "S": 5, "R": [], "Y": [], "Z": [], "level": 0},
         "certificate: field 'S' must be an array of elements"),
        ({"kind": "matching", "pairs": [[[0], [1], [2]]], "defect": 7},
         "certificate: each pair must be [a, b]"),
        ({"kind": "bogus"}, "certificate: unknown kind 'bogus'"),
        # a kind that is not a string, unhashable ones included, is input, not a bug
        ({"kind": ["matching"]}, "certificate: unknown kind ['matching']"),
        ({"kind": {"x": 1}}, "certificate: unknown kind {'x': 1}"),
        ({"kind": None}, "certificate: unknown kind None"),
        ({"certificate": {}}, "certificate file has neither 'kind' nor 'certificates'"),
        ({"certificates": [{"kind": "matching"}]}, "'certificates' must be an object"),
    ],
    ids=["witness-part", "pair-length", "kind", "kind-list", "kind-object", "kind-null",
         "no-kind", "certificates-array"],
)
def test_verify_refusals_are_one_line(capsys, tmp_path, cert, message):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", FIXTURE, "--certificate", str(path))
    assert (code, out, err) == (2, "", f"deltoids: {message}\n")


def test_verify_rejects_empty_certificates(capsys, tmp_path):
    # used to print "valid": true with no checks and exit 0
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"certificates": {}}), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", FIXTURE, "--certificate", str(empty))
    assert _one_line_error(code, out, err) and "'certificates' is empty" in err


@pytest.mark.parametrize("bad", [1.7, True, "1"])
def test_non_integer_coordinates_exit_two(capsys, tmp_path, bad):
    # the instance schema says "integer"; these used to load as [1]
    instance = write_instance(
        tmp_path, {"group": "Z12", "A": [[bad], [2]], "B": [[1], [2]]}
    )
    code, out, err = run_cli(capsys, "deficiency", instance)
    assert _one_line_error(code, out, err) and "'A'" in err

    certificates = {
        "matching": {"kind": "matching", "pairs": [[[0], [bad]]], "defect": 7},
        "witness": {"kind": "witness", "S": [[bad]], "R": [[2]], "Y": [], "Z": [], "level": 0},
        "partition": {"kind": "partition", "side": "right", "classes": [[[bad]]],
                      "matchings": [[]]},
    }
    for name, cert in certificates.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cert), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", FIXTURE, "--certificate", str(path))
        assert _one_line_error(code, out, err) and "integers" in err, name

    # the report schema says "integer", minimum 0; these used to verify as valid
    counts = {
        "defect": {"kind": "matching", "pairs": [], "defect": bad},
        "level": {"kind": "witness", "S": [[0]], "R": [[2]], "Y": [], "Z": [], "level": bad},
        "negative": {"kind": "matching", "pairs": [], "defect": -1},
    }
    for name, cert in counts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cert), encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", FIXTURE, "--certificate", str(path))
        assert _one_line_error(code, out, err) and "nonnegative integer" in err, name


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000, b"[" + b"1" * 5000 + b"]"],
    ids=["utf16_bom", "deep_nesting", "huge_integer"],
)
def test_unreadable_json_exits_two(capsys, tmp_path, content):
    # not UTF-8, nested past the parser's recursion limit, or an integer
    # past int()'s digit limit: each used to end in a traceback with exit 1
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "deficiency", str(path))
    assert _one_line_error(code, out, err) and str(path) in err
    code, out, err = run_cli(capsys, "verify", FIXTURE, "--certificate", str(path))
    assert _one_line_error(code, out, err) and str(path) in err


@pytest.mark.parametrize(
    "fault", [InternalInconsistencyError("broken invariant"), KeyError("lost")],
    ids=["inconsistency", "key_error"],
)
def test_internal_fault_exits_four(capsys, monkeypatch, fault):
    def handler(D):
        raise fault

    monkeypatch.setattr(cli, "deficiency", handler)
    code, out, err = run_cli(capsys, "deficiency", FIXTURE)
    assert code == 4 and not out and err.count("\n") == 1
    assert err.startswith("deltoids: internal error: ")


def test_constructor_fault_exits_four(capsys, monkeypatch):
    # a qualifying subgroup as large as the group leaves R + Z too big; the
    # constructor's guard is an internal fault, not bad input
    group = parse_group("Z12")
    whole = GroupSet(group, tuple(elements_of(group)))
    monkeypatch.setattr(structure, "existence_predicate", lambda *args: whole)
    argv = ["construct", "--group", "Z12", "--n", "8", "--ell", "2"]
    assert run_cli(capsys, *argv) == (
        4, "", "deltoids: internal error: constructed sets have the wrong size\n"
    )


def test_benchmark_spans_fire_once_per_run(capsys, monkeypatch):
    # perfbench/replay.py wraps cli.load_instance and cli.render_json by name
    # and records one span per outermost call; count calls the same way
    calls = {"load_instance": 0, "render_json": 0}

    def counting(name):
        fn = getattr(cli, name)
        depth = [0]

        def wrapper(*args, **kwargs):
            calls[name] += depth[0] == 0
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    runs = [(argv, code) for _, code, argv in GOLDEN_CASES] + [
        (["partition", FIXTURE, "--side", "left", "--k", "99"], 3),
        (["witness", FIXTURE, "--ell", "-1"], 2),
        (["construct", "--group", "Z1x", "--n", "8", "--ell", "2"], 2),
    ]
    assert {argv[0] for argv, _ in runs} == {
        "deficiency", "match", "witness", "rho", "lambda", "partition", "construct",
        "chowla", "verify",
    }
    for argv, expected_code in runs:
        calls.update(load_instance=0, render_json=0)
        code, _, _ = run_cli(capsys, *argv)
        assert code == expected_code, argv
        assert calls["load_instance"] == (argv[0] != "construct"), argv
        assert calls["render_json"] == (code in (0, 1)), argv


def test_benchmark_replay_wraps_names_the_library_has():
    # perfbench/replay.py looks these names up in each module and wraps them;
    # its table is read with ast so that nothing under perfbench/ is imported
    tree = ast.parse((ROOT / "perfbench" / "replay.py").read_text(encoding="utf-8"))
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]
    ]
    assert wrapped
    for module_name, names in wrapped.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
