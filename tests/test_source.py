"""Checks on the library's source text."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "primroot"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def modules():
    """(file name, syntax tree) of every library module."""
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in sorted(SRC.glob("*.py"))]


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so no check may rest on one
    found = [
        f"{name}:{node.lineno}"
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def imports(node, in_function=False):
    """(modules named, whether inside a function body) of each import under node.

    `from a import b` names a and a.b.  A relative import names modules of
    primroot: `from . import surveys` and `from .surveys import x` both name
    primroot.surveys.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield [alias.name for alias in child.names], in_function
        elif isinstance(child, ast.ImportFrom):
            base = ".".join(filter(None, ["primroot", child.module])) if child.level else child.module
            yield [base, *(f"{base}.{alias.name}" for alias in child.names)], in_function
        yield from imports(child, in_function or isinstance(child, FUNCTIONS))


def test_only_the_kernel_module_imports_numpy_when_loaded():
    # import primroot and the scalar commands must not load numpy: every
    # other module imports it inside the functions that use it
    at_load = [
        name
        for name, tree in modules()
        for names, in_function in imports(tree)
        if not in_function and any(n == "numpy" or n.startswith("numpy.") for n in names)
    ]
    assert at_load == ["_kernel.py"]


CORE = ("__init__.py", "arith.py", "cli.py", "modmath.py", "report.py", "roots.py")


def test_core_modules_import_characters_and_surveys_only_in_functions():
    # import primroot and the core commands must not load these two modules
    found = [
        f"{name}:{module}"
        for name, tree in modules()
        if name in CORE
        for names, in_function in imports(tree)
        if not in_function
        for module in names
        if module in ("primroot.characters", "primroot.surveys")
    ]
    assert found == []


def names_used(node):
    """Every identifier read under node, as a name or an attribute."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def test_every_private_helper_has_a_caller():
    # a private function or class that only its own body mentions is dead code
    trees = modules()
    used = Counter(name for _, tree in trees for name in names_used(tree))
    dead = [
        f"{name}:{node.name}"
        for name, tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and used[node.name] == Counter(names_used(node))[node.name]
    ]
    assert dead == []


# The scalar references the tests check the fast paths against: survey_row
# for the batch kernel behind stationary_survey, local_factor for the log
# sums of euler_product_constant.
TEST_REFERENCES = {"survey_row", "local_factor"}


def names_mentioned(name, tree):
    """names_used, plus each imported name, plus the string names of __init__'s lazy table."""
    yield from names_used(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif name == "__init__.py" and isinstance(node, ast.Assign):
            if ast.unparse(node.targets[0]) == "_LAZY_MODULES":
                yield from (c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))


def test_every_public_name_has_a_caller():
    # a public function or class that no other line of the library names is
    # there only for the tests
    trees = modules()
    used = Counter(used for name, tree in trees for used in names_mentioned(name, tree))
    dead = [
        f"{name}:{node.name}"
        for name, tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in TEST_REFERENCES
        and used[node.name] == Counter(names_mentioned(name, node))[node.name]
    ]
    assert dead == []


def p_minus_1_factorizations(node, scope=()):
    """Qualified name of the function around each call factorize(x - 1) under node."""
    for child in ast.iter_child_nodes(node):
        if (
            isinstance(child, ast.Call)
            and ast.unparse(child.func).split(".")[-1] == "factorize"
            and len(child.args) == 1
            and isinstance(child.args[0], ast.BinOp)
            and isinstance(child.args[0].op, ast.Sub)
            and ast.unparse(child.args[0].right) == "1"
        ):
            yield ".".join(scope)
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from p_minus_1_factorizations(child, scope + (child.name,) if named else scope)


def test_only_for_prime_factors_p_minus_1():
    # every path to a prime's group goes through CyclicGroupSpec.for_prime,
    # which proves p and factors p - 1 once
    found = [f"{name}:{where}" for name, tree in modules() for where in p_minus_1_factorizations(tree)]
    assert found == ["roots.py:CyclicGroupSpec.for_prime"]


def output_format_uses(tree):
    """Each json import, dataclasses.asdict use and relative import under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name == "json" for alias in node.names):
            yield "json"
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield "relative import"
            elif node.module == "json":
                yield "json"
            elif node.module == "dataclasses" and any(alias.name == "asdict" for alias in node.names):
                yield "dataclasses.asdict"
        elif isinstance(node, ast.Attribute) and node.attr == "asdict":
            yield "dataclasses.asdict"


def test_only_report_knows_the_output_format():
    # one module owns JSON and CSV output: it alone imports json, no module
    # converts dataclasses on its own, and report.py imports no primroot module
    found = sorted(
        f"{name}:{use}"
        for name, tree in modules()
        for use in set(output_format_uses(tree))
        if use != "relative import" or name == "report.py"
    )
    assert found == ["report.py:json"]
