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
    # partition's rho and lambda read the sweep through matching.subset_least
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


def _readers(tree, name, scope=""):
    # (enclosing function, line) of every use of `name` below a node, imports aside
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _readers(node, name, node.name)
            continue
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name):
            yield scope, node.lineno
        yield from _readers(node, name, scope)


def _src_readers(name):
    # "module.function" of every use of `name` in src/, sorted
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        readers += [f"{path.stem}.{scope}" for scope, _ in _readers(tree, name)]
    return sorted(readers)


def test_only_improving_terms_and_enumerate_subgroups_call_the_subgroup_search():
    # every subgroup formula reaches the search through the value bound of
    # transform.improving_terms; enumerate_subgroups lists the whole lattice
    assert _src_readers("_search_subgroups") == [
        "groups.enumerate_subgroups", "transform.improving_terms"
    ]


def test_only_the_delta_chain_and_two_partition_bounds_call_improving_terms():
    # the three deficiency formulas read the one chain Deltoid.delta_terms
    # keeps, so none of them can grow a second search; rho_by_pairs and
    # lambda_lower_bound prune by their own scores
    assert _src_readers("improving_terms") == [
        "partition.lambda_lower_bound", "partition.rho_by_pairs", "transform._delta_terms"
    ]


def test_only_the_polynomial_right_side_routes_read_the_columns():
    # rho's subset sweep reads D.rows like deficiency_by_subsets and
    # lambda_, so a fault in Deltoid.columns cannot hide in both rho routes
    assert _src_readers("columns") == ["partition._partition", "partition.rho_by_feasibility"]
