"""The two JSON schemas in docs/ as contracts on whole files.

Every golden report must validate against docs/report.schema.json and
every fixture against docs/instance.schema.json, by the stdlib draft-07
validator in helpers.py; reports or instances broken on purpose must not.
"""

import copy
import json
from pathlib import Path

import pytest

from helpers import schema_errors

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = ROOT / "fixtures"


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


REPORT_SCHEMA = _load(ROOT / "docs" / "report.schema.json")
INSTANCE_SCHEMA = _load(ROOT / "docs" / "instance.schema.json")
GOLDEN_NAMES = sorted(path.name for path in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_report_follows_the_report_schema(name):
    assert schema_errors(_load(GOLDEN / name), REPORT_SCHEMA) == []


@pytest.mark.parametrize("name", sorted(path.name for path in FIXTURES.glob("*.json")))
def test_fixture_follows_the_instance_schema(name):
    assert schema_errors(_load(FIXTURES / name), INSTANCE_SCHEMA) == []


def test_a_golden_without_a_required_field_fails():
    # every top-level field the schema requires, and every field a
    # certificate of each kind requires, dropped from every golden holding it
    dropped = 0
    for name in GOLDEN_NAMES:
        report = _load(GOLDEN / name)
        for field in REPORT_SCHEMA["required"]:
            broken = copy.deepcopy(report)
            del broken[field]
            assert f"$: lacks {field!r}" in schema_errors(broken, REPORT_SCHEMA)
            dropped += 1
        for cert_name, cert in report.get("certificates", {}).items():
            for field in cert:
                broken = copy.deepcopy(report)
                del broken["certificates"][cert_name][field]
                assert schema_errors(broken, REPORT_SCHEMA), (name, cert_name, field)
                dropped += 1
    assert dropped > 4 * len(GOLDEN_NAMES)


def test_a_mistyped_report_or_an_unknown_certificate_kind_fails():
    report = _load(GOLDEN / "witness-ell2.json")
    for path, bad in (
        (("version",), 1),
        (("results",), []),
        (("command",), "sweep"),
        (("certificates", "witness", "kind"), "chain"),
        (("certificates", "witness", "level"), -1),
        (("certificates", "witness", "level"), True),
        (("certificates", "witness", "S", 0, 0), 1.5),
        (("certificates",), {}),
    ):
        broken = copy.deepcopy(report)
        *parents, last = path
        target = broken
        for key in parents:
            target = target[key]
        target[last] = bad
        assert schema_errors(broken, REPORT_SCHEMA), (path, bad)


def test_a_broken_instance_fails():
    instance = _load(FIXTURES / "z12-paper.json")
    for field, bad in (
        ("group", "Z1x"),
        ("group", "Z12\n"),
        ("group", "Z2xZ\n"),
        ("group", 12),
        ("A", []),
        ("A", [[True]]),
        ("B", [[1, "2"]]),
        ("C", [[1]]),
    ):
        broken = dict(instance, **{field: bad})
        assert schema_errors(broken, INSTANCE_SCHEMA), (field, bad)
    assert schema_errors({"group": "Z12"}, INSTANCE_SCHEMA) == ["$: lacks 'A'", "$: lacks 'B'"]


def _fields(value, path=()):
    # the path to every field of an object, and of every object below it
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from _fields(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _fields(item, path + (i,))


def test_a_golden_with_a_results_field_dropped_or_retyped_fails():
    # results is typed per command and exit code, down to the fields of
    # deficiency's routes, witness's sizes, construct's instance and
    # verify's checks
    broken_count = 0
    for name in GOLDEN_NAMES:
        report = _load(GOLDEN / name)
        for *parents, last in _fields(report["results"], ("results",)):
            for drop in (True, False):
                broken = copy.deepcopy(report)
                target = broken
                for key in parents:
                    target = target[key]
                if drop:
                    del target[last]
                else:
                    target[last] = 0 if isinstance(target[last], str) else "x"
                assert schema_errors(broken, REPORT_SCHEMA), (name, *parents, last, drop)
                broken_count += 1
    assert broken_count > 8 * len(GOLDEN_NAMES)


def test_results_follow_their_own_command():
    # every golden's results under any other command fails: no two
    # commands share a results shape
    commands = REPORT_SCHEMA["properties"]["command"]["enum"]
    for name in GOLDEN_NAMES:
        report = _load(GOLDEN / name)
        for command in commands:
            if command != report["command"]:
                assert schema_errors(dict(report, command=command), REPORT_SCHEMA), (name, command)


def test_the_validator_reads_allof_if_then_and_patterns_as_draft_07_does():
    # if without a match leaves then unread; properties pass an absent field,
    # so a missing a still reads then; $ is the end of input, as in ECMA-262
    schema = {"allOf": [{"if": {"properties": {"a": {"const": 1}}}, "then": {"required": ["b"]}},
                        {"required": ["a"]}]}
    assert schema_errors({"a": 1, "b": 0}, schema) == []
    assert schema_errors({"a": 2}, schema) == []
    assert schema_errors({"a": 1}, schema) == ["$: lacks 'b'"]
    assert schema_errors({}, schema) == ["$: lacks 'b'", "$: lacks 'a'"]
    assert schema_errors("ab", {"pattern": "^ab$"}) == []
    assert schema_errors("ab\n", {"pattern": "^ab$"}) == ["$: 'ab\\n' does not match ^ab$"]
    assert schema_errors("a$b", {"pattern": "^a[$]b$"}) == []
    assert schema_errors("a$b", {"pattern": "^a\\$b$"}) == []


def test_the_validator_refuses_keywords_it_does_not_implement():
    # a schema that grows a keyword, such as else, must not pass unchecked
    with pytest.raises(ValueError, match="'else' is not implemented"):
        schema_errors({}, {"if": {"required": ["x"]}, "then": {}, "else": {}})


def test_the_validator_types_numbers_as_draft_07_does():
    # 1.0 is a draft-07 integer, though the instance loader refuses it
    # (exit 2); a JSON true is no number at all
    assert schema_errors(1.0, {"type": "integer"}) == []
    assert schema_errors(1.5, {"type": "integer"}) == ["$: not of type integer"]
    assert schema_errors(True, {"type": "integer"}) == ["$: not of type integer"]
    assert schema_errors(True, {"type": ["number", "boolean"]}) == []
