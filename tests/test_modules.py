"""Module boundaries of the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "deltoids"

# the element encoding behind the bitmask kernel, private to groups.py
MASK_INTERNALS = {"_Masks", "_saturate", "_MASK_BITS_PER_ELEMENT", "_check_dimension"}
# the byte-plane blocks of the subset sweep, private to matching.py
PLANE_INTERNALS = {"subset_blocks", "_POPCOUNT", "_PLUS_ONE", "_BLOCK_ROWS"}


def test_only_groups_touches_the_mask_encoding():
    sources = sorted(SRC.glob("*.py"))
    assert "groups.py" in {path.name for path in sources}
    offenders = []
    for path in sources:
        if path.name == "groups.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rpartition(".")[2] for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names & MASK_INTERNALS]
    assert offenders == []


def test_only_matching_touches_the_subset_planes():
    # partition's rho and lambda read the sweep through matching.subset_least_k
    sources = sorted(SRC.glob("*.py"))
    assert "matching.py" in {path.name for path in sources}
    offenders = []
    for path in sources:
        if path.name == "matching.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rpartition(".")[2] for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names & PLANE_INTERNALS]
    assert offenders == []
