"""Static checks of the package source: every import is used, every export exists, every
``json.load`` / ``json.loads`` call sits in a try that catches RecursionError, the
incremental learner makes no BLAS call and sums only in the order its code writes (no
``np.add.reduce``, ``sum`` or ``mean``), every public name has a caller outside the tests,
every defaulted parameter of a public callable is passed outside the tests, only
``dataset.py`` builds a Dataset without checking its columns, no module imports
``base64``, so columns have one encoding on the wire: their float64 bytes, only
``load_csv`` has a ``global`` statement, so its memo is the one process-wide mutable state,
only ``IncrementalLinearLearner`` names its accumulation state, so no reader sees G
and b with batches still queued, and ``config.py`` names no local learner class,
``DatasetStream`` or ``learn_incremental``, so ``learners.LOCAL_KINDS`` stays the one owner of
the local learner kinds."""

import ast
import math
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


def imported_modules(tree: ast.AST):
    """(line, top-level module) of each import statement anywhere under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_imports_base64(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [line for line, module in imported_modules(tree) if module == "base64"] == []


def test_base64_rule_sees_each_form():
    source = "import base64\nimport os, base64 as b\nfrom base64 import b64encode\ndef f():\n    import base64.x\n"
    assert [line for line, module in imported_modules(ast.parse(source)) if module == "base64"] == [1, 2, 3, 5]


# numpy names that call BLAS (or LAPACK), whose result depends on the CPU kernel it picks.
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}
# The online learners, the Cholesky helpers they call and the tree fit, which must give the same
# bits on any kernel.
BLAS_FREE = {
    "IncrementalLinearLearner",
    "EpsilonGreedyActiveLearner",
    "_cholesky",
    "_forward_substitute",
    "_solve_positive_definite",
    "_best_split",
    "_scores",
    "_pow_square",
    "_presort",
    "_grow_tree",
    "fit_tree",
}


def blas_uses(node: ast.AST):
    """(line, what) for each ``@`` and each BLAS name read under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult):
            yield sub.lineno, "@"
        elif isinstance(sub, ast.Attribute) and sub.attr in BLAS_NAMES:
            yield sub.lineno, sub.attr
        elif isinstance(sub, ast.Name) and sub.id in BLAS_NAMES:
            yield sub.lineno, sub.id


def test_online_learners_and_tree_fit_make_no_blas_call():
    tree = ast.parse(Path(cpslearn.learners.__file__).read_text(encoding="utf-8"))
    owners = [node for node in tree.body
              if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in BLAS_FREE]
    assert {node.name for node in owners} == BLAS_FREE
    assert [use for node in owners for use in blas_uses(node)] == []


def test_blas_rule_sees_each_form():
    source = "def f(a, b):\n    a @ b\n    a.dot(b)\n    np.einsum('i,i', a, b)\n    np.linalg.solve(a, b)\n"
    assert [what for _, what in blas_uses(ast.parse(source))] == ["@", "dot", "einsum", "linalg"]


def numpy_ordered_sums(node: ast.AST):
    """(line, what) for each ``np.add.reduce`` and each ``sum`` or ``mean`` function or method read
    under ``node``: reductions that sum recursively or pairwise as numpy picks from the memory layout."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Attribute):
            continue
        if sub.attr == "reduce" and isinstance(sub.value, ast.Attribute) and sub.value.attr == "add":
            yield sub.lineno, "add.reduce"
        elif sub.attr in {"sum", "mean"}:
            yield sub.lineno, sub.attr


def test_incremental_learner_sums_in_the_order_its_code_writes():
    tree = ast.parse(Path(cpslearn.learners.__file__).read_text(encoding="utf-8"))
    (owner,) = [node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "IncrementalLinearLearner"]
    assert list(numpy_ordered_sums(owner)) == []


def test_ordered_sum_rule_sees_each_form():
    source = (
        "def f(a):\n    np.add.reduce(a, axis=0)\n    np.sum(a)\n    a.sum(axis=1)\n    np.mean(a)\n"
        "    a.mean()\n    total = np.add.reduce\n    a += a[0]\n    sum(a)\n"
    )
    assert sorted(numpy_ordered_sums(ast.parse(source))) == [
        (2, "add.reduce"), (3, "sum"), (4, "sum"), (5, "mean"), (6, "mean"), (7, "add.reduce"),
    ]


# Library names with no library caller, each with the reason it stays.
TEST_ONLY = {
    "OfflineEnvironment.with_transform": "acceptance criterion 7 pins transforms attached to an environment",
}
ROOT = Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions(tree: ast.Module, exported):
    """(qualified name, definition) of each public method of a public class, and of each
    public module-level function whose name is not in ``exported``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, FUNCTIONS) and not node.name.startswith("_") and node.name not in exported:
            yield node.name, node


def reads(node: ast.AST, inside: tuple = ()):
    """(name, read as an attribute, enclosing definitions) for each name or attribute read under ``node``."""
    if isinstance(node, FUNCTIONS):
        inside = (*inside, node)
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, True, inside
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, False, inside
    for child in ast.iter_child_nodes(node):
        yield from reads(child, inside)


def uncalled(definitions, sources) -> list[str]:
    """The qualified names in ``definitions`` that no source reads outside their own definition:
    a method counts only when read as an attribute, a function when read either way."""
    index: dict[str, list] = {}
    for tree in sources:
        for name, attribute, inside in reads(tree):
            index.setdefault(name, []).append((attribute, inside))
    return sorted(
        qualified for qualified, node in definitions
        if not any((attribute or "." not in qualified) and node not in inside
                   for attribute, inside in index.get(node.name, ()))
    )


def library_and_callers() -> tuple[list, list]:
    """The parsed library modules, and those together with the demos and perfbench scripts."""
    library = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    callers = sorted({*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")}
                     - {ROOT / "perfbench" / "test_smoke.py"})
    return library, library + [ast.parse(path.read_text(encoding="utf-8")) for path in callers]


def test_every_public_name_has_a_library_caller():
    library, sources = library_and_callers()
    definitions = [pair for tree in library for pair in public_definitions(tree, cpslearn.__all__)]
    assert uncalled(definitions, sources) == sorted(TEST_ONLY)


def test_caller_rule_sees_each_form():
    source = (
        "class A:\n    def read(self): ...\n    def recursive(self): self.recursive()\n"
        "    def by_name(self): ...\n\n"
        "def used(): ...\ndef via_module(): ...\ndef exported(): ...\ndef unused(): ...\n\n"
        "A().read()\nused()\nmodule.via_module()\nby_name\n"
    )
    tree = ast.parse(source)
    definitions = list(public_definitions(tree, ["exported"]))
    assert [name for name, _ in definitions] == ["A.read", "A.recursive", "A.by_name", "used", "via_module", "unused"]
    assert uncalled(definitions, [tree]) == ["A.by_name", "A.recursive", "unused"]


# Defaulted parameters that no library, demo or perfbench call passes, each with the reason it stays.
UNPASSED = {
    "main.argv": "tests drive the CLI in process",
    "WaterTankActiveEnvironment.step_period": "no config kind reaches the active strategy (ROADMAP item 4)",
    "WaterTankActiveEnvironment.substep": "no config kind reaches the active strategy (ROADMAP item 4)",
    "EpsilonGreedyActiveLearner.action_grid_size": "no config kind reaches the active strategy (ROADMAP item 4)",
    "EpsilonGreedyActiveLearner.forgetting_factor": "no config kind reaches the active strategy (ROADMAP item 4)",
    "EpsilonGreedyActiveLearner.regularization": "no config kind reaches the active strategy (ROADMAP item 4)",
    "f_beta.beta": "no config field carries metric parameters",
}


def defaulted_parameters(tree: ast.Module):
    """(qualified name, callee name, position) of each defaulted parameter of a public function,
    of a public method of a public class, and of a public class's constructor. ``position`` is the
    parameter's index among the positional arguments a call passes (after ``self``), or None for a
    keyword-only parameter."""
    owners = []  # (qualified name, callee name, definition, leading parameters no call passes)
    for node in tree.body:
        if isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
            owners.append((node.name, node.name, node, 0))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if not isinstance(item, FUNCTIONS) or item.name.startswith("_") and item.name != "__init__":
                    continue
                skip = 0 if any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list) else 1
                if item.name == "__init__":
                    owners.append((node.name, node.name, item, skip))
                else:
                    owners.append((f"{node.name}.{item.name}", item.name, item, skip))
    for qualified, callee, node, skip in owners:
        positional = [*node.args.posonlyargs, *node.args.args]
        for index in range(len(positional) - len(node.args.defaults), len(positional)):
            yield f"{qualified}.{positional[index].arg}", callee, index - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield f"{qualified}.{arg.arg}", callee, None


def callee_name(func: ast.AST):
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def passes(tree: ast.Module):
    """(callee name, keywords passed or None for all, positional count) for each call in ``tree``:
    ``**`` passes every keyword, ``*`` every later position. Each name in the factory of a kind
    table (a dict of ``kind: (factory, {parameter: ...})``) passes the parameters its table lists,
    and so does each name among the factories of a ``_kind(factory, ..., parameter=check, ...)``
    entry of the local learner kinds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and callee_name(node.func):
            keywords = None if any(k.arg is None for k in node.keywords) else {k.arg for k in node.keywords}
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield callee_name(node.func), keywords, math.inf if starred else len(node.args)
            if callee_name(node.func) == "_kind":
                for sub in (sub for factory in node.args for sub in ast.walk(factory)):
                    if callee_name(sub):
                        yield callee_name(sub), keywords, 0
        elif isinstance(node, ast.Dict) and node.values and all(
            isinstance(v, ast.Tuple) and len(v.elts) == 2 and isinstance(v.elts[1], ast.Dict) for v in node.values
        ):
            for factory, params in (entry.elts for entry in node.values):
                for sub in ast.walk(factory):
                    if callee_name(sub):
                        yield callee_name(sub), {key.value for key in params.keys}, 0


def unpassed(parameters, sources) -> list[str]:
    """The qualified names in ``parameters`` that no call in ``sources`` passes."""
    index: dict[str, list] = {}
    for tree in sources:
        for callee, keywords, count in passes(tree):
            index.setdefault(callee, []).append((keywords, count))
    return sorted(
        qualified for qualified, callee, position in parameters
        if not any(keywords is None or qualified.rpartition(".")[2] in keywords
                   or position is not None and position < count
                   for keywords, count in index.get(callee, ()))
    )


def test_every_defaulted_parameter_is_passed_by_a_library_caller():
    library, sources = library_and_callers()
    parameters = [entry for tree in library for entry in defaulted_parameters(tree)]
    assert unpassed(parameters, sources) == sorted(UNPASSED)


def test_parameter_rule_sees_each_form():
    source = (
        "class A:\n"
        "    def __init__(self, a=1, b=2): ...\n"
        "    def m(self, c=3, *, d=4): ...\n"
        "    @staticmethod\n    def s(e=5): ...\n"
        "    def _private(self, f=6): ...\n\n"
        "def g(h, i=7, j=8, k=9): g(h, i=0)\n"
        "def kinds(l=10, m=11): ...\n"
        "def spread(n=12): ...\n"
        "def _hidden(o=13): ...\n"
        "def tabled(p=14, q=15): ...\n\n"
        "A(1)\nx.m(d=0)\nA.s(0)\ng(0, *rest)\nspread(**options)\n"
        "X_KINDS = {'k': (kinds, {'l': (check, 1)})}\n"
        "Y_KINDS = {'k': _kind(tabled, _drive, p=check)}\n"
    )
    tree = ast.parse(source)
    parameters = list(defaulted_parameters(tree))
    assert [name for name, *_ in parameters] == [
        "A.a", "A.b", "A.m.c", "A.m.d", "A.s.e", "g.i", "g.j", "g.k", "kinds.l", "kinds.m", "spread.n",
        "tabled.p", "tabled.q",
    ]
    assert unpassed(parameters, [tree]) == ["A.b", "A.m.c", "kinds.m", "tabled.q"]


# A Dataset's column store and the constructor that fills it without checks: only dataset.py
# may name them, so every other module builds Datasets through the checked constructor.
UNCHECKED = {"_columns", "_unchecked_dataset"}


def name_uses(tree: ast.AST, names: set[str]):
    """(line, name) for each of ``names`` that ``tree`` reads, writes or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in names:
            yield node.lineno, node.id
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, alias.name) for alias in node.names if alias.name in names)


def test_only_dataset_module_builds_unchecked_datasets():
    paths = sorted({*MODULES, *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py"), *ROOT.glob("tests/*.py")}
                   - {Path(cpslearn.dataset.__file__).resolve()})
    found = {f"{path.parent.name}/{path.name}": list(name_uses(ast.parse(path.read_text(encoding="utf-8")), UNCHECKED))
             for path in paths}
    assert {path: uses for path, uses in found.items() if uses} == {}


def test_unchecked_rule_sees_each_form():
    source = (
        "from cpslearn.dataset import _unchecked_dataset\n"
        "d._columns\nd._columns = {}\n_unchecked_dataset({}, 0)\ndataset._unchecked_dataset({}, 0)\n"
        "self._input_columns\n'_columns'\n"
    )
    assert list(name_uses(ast.parse(source), UNCHECKED)) == [
        (1, "_unchecked_dataset"), (2, "_columns"), (3, "_columns"), (4, "_unchecked_dataset"), (5, "_unchecked_dataset"),
    ]


# What the local learner kinds' table owns: their learner classes, and the stream and strategy
# of the kind driven batch by batch. config.py reads the kinds from ``learners.LOCAL_KINDS`` and
# names none of these, so a kind, a setting's check or its default is written in one place.
TABLE_OWNED = {
    "RegressionTreeLearner", "LinearRegressionLearner", "IncrementalLinearLearner", "DatasetStream",
    "learn_incremental",
}


def test_config_module_names_nothing_the_learner_kinds_table_owns():
    tree = ast.parse((Path(cpslearn.__file__).resolve().parent / "config.py").read_text(encoding="utf-8"))
    assert list(name_uses(tree, TABLE_OWNED)) == []


def test_table_rule_sees_each_form():
    source = (
        "from .learners import RegressionTreeLearner as Tree\n"
        "from . import environments, strategies\n"
        "environments.DatasetStream(rows, 3)\n"
        "learn = strategies.learn_incremental\n"
        "IncrementalLinearLearner = None\n"
        "LinearRegressionLearner()\n"
        "'DatasetStream'\n"
    )
    assert sorted(name_uses(ast.parse(source), TABLE_OWNED)) == [
        (1, "RegressionTreeLearner"), (3, "DatasetStream"), (4, "learn_incremental"),
        (5, "IncrementalLinearLearner"), (6, "LinearRegressionLearner"),
    ]


def global_statements(node: ast.AST, inside: str | None = None):
    """The qualified name of the definition around each ``global`` statement under ``node``,
    None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Global):
            yield inside
        elif isinstance(child, (*FUNCTIONS, ast.ClassDef)):
            yield from global_statements(child, f"{inside}.{child.name}" if inside else child.name)
        else:
            yield from global_statements(child, inside)


def test_only_load_csv_has_a_global_statement():
    found = [f"{path.name}:{where}" for path in MODULES
             for where in global_statements(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == ["dataset.py:load_csv"]


def test_global_rule_sees_each_form():
    source = (
        "global a\n"
        "def f():\n    global b\n    def g():\n        global c\n"
        "class C:\n    def m(self):\n        if x:\n            global d\n"
        "    async def n(self):\n        global e\n"
    )
    assert list(global_statements(ast.parse(source))) == [None, "f", "f.g", "C.m", "C.n"]


# The incremental learner's accumulated sums, row count and queue of unaccumulated batches:
# only the class itself may name them, so every other reader goes through ``_sums``, which
# accumulates the queue first.
ACCUMULATION_STATE = {"_gram", "_moment", "_rows", "_queue", "_queued_rows"}


def state_uses(node: ast.AST, owner: str | None = None):
    """(enclosing class or None, name) for each name in ACCUMULATION_STATE read or written under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and child.attr in ACCUMULATION_STATE:
            yield owner, child.attr
        elif isinstance(child, ast.Name) and child.id in ACCUMULATION_STATE:
            yield owner, child.id
        yield from state_uses(child, child.name if isinstance(child, ast.ClassDef) else owner)


def test_only_the_incremental_learner_names_its_accumulation_state():
    found = [f"{path.name}:{owner}.{name}" for path in MODULES
             for owner, name in state_uses(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, owner) != ("learners.py", "IncrementalLinearLearner")]
    assert found == []


def test_state_rule_sees_each_form():
    source = (
        "class IncrementalLinearLearner:\n    def f(self):\n        self._gram = self._queue\n"
        "class Other:\n    def g(self, s):\n        s._surrogate._rows\n        s._moment += 1\n"
        "def h(learner):\n    _queued_rows = learner._gram\n    '_moment'\n"
    )
    assert list(state_uses(ast.parse(source))) == [
        ("IncrementalLinearLearner", "_gram"), ("IncrementalLinearLearner", "_queue"),
        ("Other", "_rows"), ("Other", "_moment"), (None, "_queued_rows"), (None, "_gram"),
    ]
