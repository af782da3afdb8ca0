"""Checks on the library's source text."""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "primroot"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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
        if isinstance(node, DEFINITIONS)
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and used[node.name] == Counter(names_used(node))[node.name]
    ]
    assert dead == []


ACCEPTANCE = SRC.parents[1] / "tests" / "test_acceptance.py"
# Python calls these when it builds an object, never by name
CONSTRUCTION_HOOKS = {"__init__", "__post_init__"}


def public_definitions(tree):
    """(qualified name, node) of each public function and class, and of each method of a public class.

    A dunder method other than a construction hook counts as public: an
    operator is part of the API too.
    """
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (
                        isinstance(member, DEFINITIONS)
                        and member.name not in CONSTRUCTION_HOOKS
                        and (not member.name.startswith("_") or member.name.endswith("__"))
                    ):
                        yield f"{node.name}.{member.name}", member


def test_every_public_name_has_a_caller():
    # a public function, class or method that no other line of the library
    # calls is there only for the tests, unless the acceptance gate calls it;
    # a re-export in __init__ is no call
    trees = modules()
    used = Counter(used for _, tree in trees for used in names_used(tree))
    acceptance = ast.parse(ACCEPTANCE.read_text())
    gate = {*names_used(acceptance), *(a.name for a in ast.walk(acceptance) if isinstance(a, ast.alias))}
    dead = [
        f"{name}:{qualified}"
        for name, tree in trees
        for qualified, node in public_definitions(tree)
        if used[node.name] == Counter(names_used(node))[node.name] and node.name not in gate
    ]
    assert dead == []


def test_readme_cli_block_names_each_command_once():
    from primroot.cli import COMMANDS

    readme = (SRC.parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    assert sorted(re.findall(r"^primroot ([\w-]+)", block, re.M)) == sorted(COMMANDS)


def factorize_calls(node, scope=()):
    """(qualified name of the function around it, its argument) of each call to factorize under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and ast.unparse(child.func).split(".")[-1] == "factorize":
            yield ".".join(scope), ast.unparse(child.args[0]) if len(child.args) == 1 else None
        named = isinstance(child, DEFINITIONS)
        yield from factorize_calls(child, scope + (child.name,) if named else scope)


def test_only_for_prime_factors_p_minus_1():
    # every path to a prime's group goes through CyclicGroupSpec.for_prime,
    # which proves p and factors p - 1 once; factorize has no other caller,
    # so no modulus a user gives is ever factored
    found = [f"{name}:{where}({arg})" for name, tree in modules() for where, arg in factorize_calls(tree)]
    assert found == ["roots.py:CyclicGroupSpec.for_prime(p - 1)"]


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


def freeze_uses(node, scope=()):
    """(qualified name of the function around it) of each use of gc.freeze under node."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Attribute) and child.attr == "freeze" and ast.unparse(child.value) == "gc") or (
            isinstance(child, ast.ImportFrom) and child.module == "gc"
        ):
            yield ".".join(scope)
        named = isinstance(child, DEFINITIONS)
        yield from freeze_uses(child, scope + (child.name,) if named else scope)


def test_only_the_cli_entry_freezes_the_heap():
    # gc.freeze keeps every live object out of later collections, so only
    # the process entry may call it, after main has returned; a library
    # call, or main, which tests run in-process, must not
    found = [f"{name}:{where}" for name, tree in modules() for where in freeze_uses(tree)]
    assert found == ["cli.py:entry"]
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    assert 'primroot = "primroot.cli:entry"' in pyproject  # the console script enters there too


def test_every_window_scan_classifies_through_the_kernel():
    # surveys takes no private name from roots, and no module keeps a scalar
    # least-roots scan beside least_roots
    trees = dict(modules())
    private = [
        alias.name
        for node in ast.walk(trees["surveys.py"])
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "roots"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    scans = [
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS) and node.name == "_least_roots"
    ]
    assert scans == []
