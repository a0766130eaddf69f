"""Static checks of the package source: every import is used, every export exists, every
``json.load`` / ``json.loads`` call sits in a try that catches RecursionError, and the
incremental learner makes no BLAS call."""

import ast
from pathlib import Path

import pytest

import cpslearn

MODULES = sorted(
    path for path in Path(cpslearn.__file__).resolve().parent.glob("*.py") if path.name != "__init__.py"
)


def module_imports(tree: ast.Module) -> dict[str, int]:
    """The name each module-level import binds, with its line number."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def annotations(tree: ast.Module):
    """Every annotation expression, with string annotations parsed."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, including inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_module_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in module_imports(tree).items() if name not in used}
    assert unused == {}


def test_every_export_resolves():
    missing = [name for name in cpslearn.__all__ if not hasattr(cpslearn, name)]
    assert missing == []
    assert len(set(cpslearn.__all__)) == len(cpslearn.__all__)


# Handlers that catch the RecursionError json raises on deeply nested input.
CATCHES_RECURSION = {"RecursionError", "RuntimeError", "Exception", "BaseException"}


def json_reads(node: ast.AST, caught: frozenset = frozenset()):
    """Each ``json.load`` / ``json.loads`` call under ``node``, with the names the try blocks around it catch."""
    if isinstance(node, ast.Try):
        names = {  # a bare except catches what BaseException does
            name.id
            for handler in node.handlers
            for name in ast.walk(handler.type or ast.Name("BaseException"))
            if isinstance(name, ast.Name)
        }
        for child in node.body:
            yield from json_reads(child, caught | names)
        for child in [*node.handlers, *node.orelse, *node.finalbody]:
            yield from json_reads(child, caught)
        return
    func = getattr(node, "func", None)
    if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute) and func.attr in ("load", "loads")
            and isinstance(func.value, ast.Name) and func.value.id == "json"):
        yield node, caught
    for child in ast.iter_child_nodes(node):
        yield from json_reads(child, caught)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_json_read_catches_recursion_error(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unguarded = [call.lineno for call, caught in json_reads(tree) if not caught & CATCHES_RECURSION]
    assert unguarded == []


# numpy names that call BLAS (or LAPACK), whose result depends on the CPU kernel it picks.
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}
# The incremental learner and the solver it calls, which must give the same bits on any kernel.
BLAS_FREE = {"IncrementalLinearLearner", "_solve_positive_definite"}


def blas_uses(node: ast.AST):
    """(line, what) for each ``@`` and each BLAS name read under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult):
            yield sub.lineno, "@"
        elif isinstance(sub, ast.Attribute) and sub.attr in BLAS_NAMES:
            yield sub.lineno, sub.attr
        elif isinstance(sub, ast.Name) and sub.id in BLAS_NAMES:
            yield sub.lineno, sub.id


def test_incremental_learner_makes_no_blas_call():
    tree = ast.parse(Path(cpslearn.learners.__file__).read_text(encoding="utf-8"))
    owners = [node for node in tree.body
              if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in BLAS_FREE]
    assert {node.name for node in owners} == BLAS_FREE
    assert [use for node in owners for use in blas_uses(node)] == []


def test_blas_rule_sees_each_form():
    source = "def f(a, b):\n    a @ b\n    a.dot(b)\n    np.einsum('i,i', a, b)\n    np.linalg.solve(a, b)\n"
    assert [what for _, what in blas_uses(ast.parse(source))] == ["@", "dot", "einsum", "linalg"]
