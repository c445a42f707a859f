"""Value semantics of the library's result classes, and what importing the CLI loads."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from deltoids import (
    AdmissiblePartition,
    Deltoid,
    GroupSet,
    GroupSpec,
    ObstructionWitness,
    PartialMatching,
    StabilizerPair,
    Verdict,
    build_deltoid,
)
from helpers import Z12, cyc, gset

ROOT = Path(__file__).resolve().parent.parent

A = gset(Z12, cyc(0, 1, 3))
B = gset(Z12, cyc(2, 4, 6))
D = build_deltoid(A, B)
M = PartialMatching((((0,), (2,)),), 2)

# each class with its field names in order and one set of field values
VALUES = [
    (GroupSpec, ("torsion", "free_rank"), ((12,), 0)),
    (GroupSet, ("group", "elements"), (Z12, A.elements)),
    (Deltoid, ("A", "B", "rows"), (A, B, D.rows)),
    (Verdict, ("ok", "reason"), (False, "no edge")),
    (PartialMatching, ("pairs", "defect"), (M.pairs, 2)),
    (StabilizerPair, ("S", "R", "value"), (A, B, 0)),
    (ObstructionWitness, ("S", "R", "Y", "Z", "level"), (A, B, A, B, 1)),
    (AdmissiblePartition, ("side", "classes", "matchings"), ("left", (A,), (M,))),
]


@pytest.mark.parametrize("cls, names, values", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_semantics(cls, names, values):
    one, two = cls(*values), cls(*values)
    assert one == two and hash(one) == hash(two) and not one != two
    assert cls(**dict(zip(names, values))) == one
    assert pickle.loads(pickle.dumps(one)) == one == copy.deepcopy(one)
    assert tuple(getattr(one, name) for name in names) == values
    assert repr(one) == "{}({})".format(
        cls.__name__, ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    )

    other = type("Other", (cls,), {})(*values)
    assert one != other and other != one
    assert one != values

    for name in names:
        with pytest.raises(AttributeError):
            setattr(one, name, values[0])
        with pytest.raises(AttributeError):
            delattr(one, name)
    assert one == two


def test_value_details():
    assert repr(GroupSpec((12,))) == "GroupSpec(torsion=(12,), free_rank=0)"
    assert repr(Verdict(True)) == "Verdict(ok=True, reason='')"
    assert GroupSpec() == GroupSpec((), 0) and Verdict(True).reason == ""
    assert GroupSpec([2, 4]).torsion == (2, 4)
    assert ObstructionWitness(level=1, S=A, R=B, Y=A, Z=B) == ObstructionWitness(A, B, A, B, 1)

    # sets and dict keys, as a warm-up keyed by group uses them
    assert {GroupSpec((12,)), GroupSpec([12], 0), GroupSpec((2, 6))} == {Z12, GroupSpec((2, 6))}
    assert {Z12: "cyclic"}[GroupSpec([12])] == "cyclic"
    assert GroupSpec((12,)) != GroupSpec((12,), 1)

    # cached views are computed once and reused, and leave equality alone
    s = GroupSet(Z12, A.elements)
    assert s.member_set is s.member_set == frozenset(A.elements)
    assert s == A and hash(s) == hash(A)
    fresh = build_deltoid(A, B)
    assert fresh.row_assignment is fresh.row_assignment
    assert fresh == D and hash(fresh) == hash(D)


def test_cli_import_loads_no_dataclass_machinery():
    # a fresh interpreter, since pytest itself imports these modules
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import deltoids.cli, sys; print(sorted(set({heavy!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
