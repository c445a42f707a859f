"""Module boundaries of the library source, and where each bound is checked."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import deltoids
from deltoids import (
    GroupSet,
    InfiniteRhoError,
    InvalidInputError,
    ResourceLimitError,
    build_deltoid,
    errors,
)
from helpers import Z12, Z2xZ, cyc, golden_deltoid, refusal

SRC = Path(__file__).resolve().parent.parent / "src" / "deltoids"

# one class per outcome a caller acts on; errors.py states each outcome
ERROR_CLASSES = {
    "DeltoidError", "InvalidInputError", "UnsupportedInfiniteGroupError", "ResourceLimitError",
    "InfiniteRhoError", "NoConstructionError", "InternalInconsistencyError",
}

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


def test_the_seven_subgroup_entries_and_the_sweep_check_their_bounds():
    # the subgroup search and improving_terms take no bound: each entry that
    # takes one checks it; the sweep's callers leave its bound to it
    assert _src_readers("_check_searchable") == [
        "groups.enumerate_subgroups",
        "partition.lambda_lower_bound", "partition.rho_by_pairs",
        "structure.existence_predicate", "structure.find_witness",
        "transform.best_stabilizer_pair", "transform.deficiency_by_subgroups",
    ]
    assert _src_readers("_check_subset_bound") == ["matching.subset_blocks"]


def _callers(tree, name, scope=""):
    # the enclosing function of every call of `name` below a node
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _callers(node, name, node.name)
            continue
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            yield scope
        yield from _callers(node, name, scope)


def test_resource_limits_are_refused_in_three_places():
    # the order bound, the sweep bound (and its lane limit) and --k
    places = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        places |= {f"{path.stem}.{scope}" for scope in _callers(tree, "ResourceLimitError")}
    assert sorted(places) == [
        "cli._cmd_partition", "groups._check_searchable", "matching._check_subset_bound"
    ]


def test_each_public_entry_checks_each_bound_once(monkeypatch):
    # every binding of the two checks is wrapped, so a second check by the
    # search, the sweep or a caller counts wherever it is made
    calls = Counter()

    def counting(name, check):
        def wrapper(*args):
            calls[name] += 1
            return check(*args)
        return wrapper

    for info in pkgutil.iter_modules(deltoids.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"deltoids.{info.name}")
        for name in ("_check_searchable", "_check_subset_bound"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    subgroup_entries = {
        "enumerate_subgroups": lambda D: deltoids.enumerate_subgroups(D.A.group),
        "deficiency_by_subgroups": deltoids.deficiency_by_subgroups,
        "best_stabilizer_pair": deltoids.best_stabilizer_pair,
        "find_witness": lambda D: deltoids.find_witness(D, 2),
        "rho_by_pairs": deltoids.rho_by_pairs,
        "lambda_lower_bound": deltoids.lambda_lower_bound,
        "existence_predicate": lambda D: deltoids.existence_predicate(D.A.group, 8, 2),
        "construct_deficient_pair": lambda D: deltoids.construct_deficient_pair(D.A.group, 8, 2),
    }
    sweep_entries = {
        "deficiency_by_subsets": deltoids.deficiency_by_subsets,
        "rho": deltoids.rho,
        "lambda_": deltoids.lambda_,
    }
    counts = {}
    for entry, call in {**subgroup_entries, **sweep_entries}.items():
        calls.clear()
        call(golden_deltoid())  # fresh, so the delta readers search
        counts[entry] = dict(calls)
    assert counts == {
        **{entry: {"_check_searchable": 1} for entry in subgroup_entries},
        **{entry: {"_check_subset_bound": 1} for entry in sweep_entries},
    }


def test_subgroup_entries_check_their_inputs_before_the_bound():
    # a bound of 5 refuses Z12, so each answer below names an earlier check
    infinite_rho = build_deltoid(
        GroupSet.of(Z12, cyc(0, 2, 4, 6, 8, 10)), GroupSet.of(Z12, cyc(1, 2, 4, 6, 8, 10))
    )
    assert refusal(deltoids.rho_by_pairs, infinite_rho, 5) == (
        InfiniteRhoError, "some element of B stabilizes A"
    )
    assert refusal(deltoids.find_witness, golden_deltoid(), -1, 5) == (
        InvalidInputError, "level must be nonnegative"
    )
    assert refusal(deltoids.existence_predicate, Z2xZ, 3, -1, 5) == (
        InvalidInputError, "existence search needs a finite group"
    )
    assert refusal(deltoids.existence_predicate, Z12, 8, -1, 5) == (
        InvalidInputError, "level must be nonnegative"
    )
    assert refusal(deltoids.existence_predicate, Z12, 8, 2, 5) == (
        ResourceLimitError, "group order 12 exceeds enumeration bound 5"
    )


def _scoped(tree, scope=""):
    # (enclosing qualified scope, node) of every node below a node
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(node, f"{scope}.{node.name}".lstrip("."))
            continue
        yield scope, node
        yield from _scoped(node, scope)


def _raised(tree):
    # (enclosing qualified scope, class constructed) of every raise below a
    # node; a raise that constructs no named class yields its source
    for scope, node in _scoped(tree):
        if isinstance(node, ast.Raise):
            call = node.exc
            named = isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            yield scope, call.func.id if named else ast.unparse(node)


def test_src_raises_only_the_seven_classes_and_asserts_nothing():
    # python -O strips an assert, so an invariant is checked by a raise of
    # InternalInconsistencyError; the one entry point exits through
    # SystemExit and _Value refuses assignment as any immutable Python
    # value does
    asserts, others = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        asserts += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Assert)]
        others += [f"{path.stem}:{scope} {name}" for scope, name in _raised(tree)
                   if name not in ERROR_CLASSES]
    assert asserts == []
    assert sorted(others) == ["__main__: SystemExit", "groups:_Value.__setattr__ AttributeError"]


def test_only_value_init_writes_the_fields_of_a_value():
    # every value class passes its fields to _Value.__init__ instead of
    # going around _Value.__setattr__'s refusal
    writers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        writers += [f"{path.stem}:{scope}" for scope, node in _scoped(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert writers == ["groups:_Value.__init__"]


def test_the_package_exports_exactly_the_seven_error_classes():
    def error_classes(namespace):
        return {name for name, value in vars(namespace).items()
                if isinstance(value, type) and issubclass(value, BaseException)}

    assert error_classes(errors) == error_classes(deltoids) == ERROR_CLASSES
    assert all(issubclass(getattr(deltoids, name), deltoids.DeltoidError) for name in ERROR_CLASSES)
    # no module defines an exception class of its own
    for info in pkgutil.iter_modules(deltoids.__path__):
        if info.name in ("__main__", "errors"):  # importing __main__ runs the CLI
            continue
        module = importlib.import_module(f"deltoids.{info.name}")
        assert {name for name in error_classes(module)
                if getattr(module, name).__module__ == module.__name__} == set(), info.name
