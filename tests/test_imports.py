"""Every name a symfrob module imports is used there, every private
module-level helper is used somewhere in the package, one function calls
``partitions._block_splits``, every lru_cache decorates a module-level
function, no module uses an assert statement, only symfunc.py touches a
SymFunc's numerator form, only SymFunc._build builds one without
__init__, package code calls the validating constructor only for a
scalar and in the roots oracle, the oracle imports no transform engine,
only the integer column kernels name partition ids, no verify
suite defines a closure, one function takes fraction-free elimination
steps, only ``symfunc._check_reach`` raises PrecisionError and the
transforms and the oracle read no cutoff, the CLI loads no standard
library module beyond what its own imports need, every symfrob name the
benchmark binds exists, and every source line the benchmark self-test
patches occurs once."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symfrob
from symfrob.cli import SUITES

PACKAGE = Path(symfrob.__file__).parent
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"; "from m import x as y" binds "y".
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    # __all__ names are strings, not uses: an imported name listed there and
    # used nowhere else is a dead re-export.
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from os import path, sep\nimport json\n__all__ = ['sep']\n"
    assert unused_imports(source) == [(1, "path"), (1, "sep"), (2, "json")]


def private_helpers(tree) -> list:
    """Module-level functions and classes whose name has one leading underscore."""
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def dead_helpers(sources: dict) -> list:
    """(module, name) of each private helper referenced nowhere outside its own body.

    A reference is a bare name, an attribute or an imported name, in any
    module of the package; one inside the helper's own definition (its
    recursion) does not count.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced_from: dict = {}
    for tree in trees.values():
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                referenced_from.setdefault(name, set()).add(id(statement))
    return sorted(
        (module, node.name)
        for module, tree in trees.items()
        for node in private_helpers(tree)
        if not referenced_from.get(node.name, set()) - {id(node)}
    )


def test_no_dead_helpers():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert dead_helpers(sources) == []


def test_dead_helper_is_reported():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _dead():\n    return _dead()\n",
        "b.py": "from a import _used\n\n\nclass _Gone:\n    pass\n\n\nx = _used()\n",
    }
    assert dead_helpers(sources) == [("a.py", "_dead"), ("b.py", "_Gone")]


def callers(sources: dict, *names: str) -> list:
    """(module, definition) of each place that calls one of ``names`` by a
    bare name or as an attribute: a top-level function, nested functions
    included, ``Class.method`` for a method of a top-level class (``Class``
    for any other statement in its body), or "<module>" for any other
    top-level statement."""
    found = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            scopes = [(getattr(statement, "name", "<module>"), statement)]
            if isinstance(statement, ast.ClassDef):
                scopes = [
                    (".".join(filter(None, (statement.name, getattr(item, "name", None)))), item)
                    for item in statement.body
                ]
            for definition, scope in scopes:
                if any(
                    isinstance(node, ast.Call)
                    and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & {*names}
                    for node in ast.walk(scope)
                ):
                    found.add((module, definition))
    return sorted(found)


def test_block_splits_has_one_caller():
    # The sub-multiset splits feed one set-partition sum; the m basis and
    # the p closed forms of the transforms read that sum with their own
    # block weights instead of each recursing over the splits.
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    found = callers(sources, "_block_splits")
    assert len(found) == 1, found


def test_caller_is_reported():
    sources = {
        "a.py": (
            "from b import _block_splits\n"
            "\n"
            "def one(lam):\n"
            "    return _block_splits(lam)\n"
            "\n"
            "def merely_names():\n"
            "    return _block_splits\n"
        ),
        "b.py": (
            "import partitions\n"
            "\n"
            "class C:\n"
            "    def two(self, lam):\n"
            "        def inner():\n"
            "            return partitions._block_splits(lam)\n"
            "        return inner()\n"
            "\n"
            "splits = _block_splits(())\n"
        ),
    }
    assert callers(sources, "_block_splits") == [
        ("a.py", "one"),
        ("b.py", "<module>"),
        ("b.py", "C.two"),
    ]


ID_NAMES = ("_PART_ENTRIES", "_part_id")


def id_readers(sources: dict) -> list:
    """(module, definition) of each top-level function or class, or
    "<module>" for any other top-level statement, that names the partition
    id table (``_PART_ENTRIES`` or ``_part_id``) by a bare name or as an
    attribute. Import statements do not count."""
    found = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            if any(
                getattr(node, "id", None) in ID_NAMES or getattr(node, "attr", None) in ID_NAMES
                for node in ast.walk(statement)
            ):
                found.add((module, getattr(statement, "name", "<module>")))
    return sorted(found)


def test_partition_ids_stay_in_the_column_kernels():
    # The integer columns key their memos by partition id; every other
    # function reads partitions, so the ids never reach a result and
    # clear_caches() may empty the table with the memos.
    sources = {
        path.name: path.read_text() for path in PACKAGE.glob("*.py") if path.name != "partitions.py"
    }
    assert id_readers(sources) == [
        ("frobenius.py", "_insert_part"),
        ("frobenius.py", "_pleth_coeff"),
        ("symfunc.py", "_column_sum"),
        ("symfunc.py", "_p_in_h"),
        ("symfunc.py", "_p_in_m"),
        ("symfunc.py", "_p_in_s"),
        ("symfunc.py", "_strip_step"),
    ]


def test_id_reader_is_reported():
    source = (
        "from partitions import _PART_ENTRIES, _part_id\n"
        "import partitions\n"
        "\n"
        "def column(nu):\n"
        "    return _part_id(nu)\n"
        "\n"
        "def merely_reads(pid):\n"
        "    return partitions._PART_ENTRIES[pid]\n"
        "\n"
        "def clean(lam):\n"
        "    return lam\n"
        "\n"
        "EMPTY = _part_id(())\n"
    )
    assert id_readers({"a.py": source}) == [
        ("a.py", "<module>"),
        ("a.py", "column"),
        ("a.py", "merely_reads"),
    ]


def misplaced_caches(source: str) -> list:
    """Lines of each lru_cache that does not decorate a module-level function.

    ``clear_caches()`` finds memos only as module attributes and then
    empties the partition id table, so a memo on a method, a nested
    function or a wrapped value would keep ids that no longer exist.
    """
    tree = ast.parse(source)
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for decorator in node.decorator_list:
                allowed.add(id(decorator))
                if isinstance(decorator, ast.Call):
                    allowed.add(id(decorator.func))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Name) and node.id == "lru_cache"
            or isinstance(node, ast.Attribute) and node.attr == "lru_cache"
        )
        and id(node) not in allowed
    )


def test_every_cache_decorates_a_module_level_function():
    found = [
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for line in misplaced_caches(path.read_text())
    ]
    assert found == []


def test_misplaced_cache_is_reported():
    source = (
        "import functools\n"
        "from functools import lru_cache\n"
        "\n"
        "@lru_cache(maxsize=None)\n"
        "def a(n):\n"
        "    @lru_cache(maxsize=None)\n"
        "    def inner(k):\n"
        "        return k\n"
        "    return inner(n)\n"
        "\n"
        "@functools.lru_cache\n"
        "def b(n):\n"
        "    return n\n"
        "\n"
        "class C:\n"
        "    @lru_cache\n"
        "    def m(self):\n"
        "        return 1\n"
        "\n"
        "d = functools.lru_cache(maxsize=8)(b)\n"
    )
    assert misplaced_caches(source) == [6, 16, 20]


def suite_closures(source: str) -> list:
    """(suite, line) of each lambda or nested function inside a top-level
    ``_suite_*`` function."""
    return [
        (statement.name, node.lineno)
        for statement in ast.parse(source).body
        if isinstance(statement, ast.FunctionDef) and statement.name.startswith("_suite_")
        for node in ast.walk(statement)
        if node is not statement
        and isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_suites_define_no_closures():
    # A verify suite runs each check as it yields its result; a check
    # wrapped in a closure would only be called once, later, in order.
    assert all(build.__name__.startswith("_suite_") for build in SUITES.values())
    assert suite_closures((PACKAGE / "cli.py").read_text()) == []


def test_suite_closure_is_reported():
    source = (
        "def _suite_a(maxdeg):\n"
        "    def check(k=maxdeg):\n"
        "        return k > 0\n"
        "    yield 'a', check()\n"
        "\n"
        "def _suite_b(maxdeg):\n"
        "    return [('b', lambda: True)]\n"
        "\n"
        "def _suite_c(maxdeg):\n"
        "    yield 'c', all(n >= 0 for n in range(maxdeg))\n"
        "\n"
        "def helper():\n"
        "    return lambda: True\n"
    )
    assert suite_closures(source) == [("_suite_a", 2), ("_suite_b", 7)]


def test_no_assert_statements():
    # python -O strips assert statements, so a library check must raise.
    found = [
        (path.name, node.lineno)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def fraction_private_uses(source: str) -> list:
    """Lines that reach past the public Fraction API: the ``_normalize``
    keyword, the ``_numerator``/``_denominator`` slots, or a Fraction made
    by ``object.__new__``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg == "_normalize":
            found.append(node.value.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in ("_numerator", "_denominator"):
            found.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) == "object.__new__"
            and any(ast.unparse(arg) == "Fraction" for arg in node.args)
        ):
            found.append(node.lineno)
    return sorted(found)


def test_no_fraction_private_api():
    # Fraction's private fields and its _normalize keyword differ across
    # Python 3.10-3.13; the kernels use only the public constructor.
    found = [
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for line in fraction_private_uses(path.read_text())
    ]
    assert found == []


def test_fraction_private_use_is_reported():
    source = (
        "from fractions import Fraction\n"
        "a = Fraction(1, 2, _normalize=False)\n"
        "b = a._numerator + a._denominator\n"
        "c = object.__new__(Fraction)\n"
        "d = Fraction(3, 4).numerator\n"
    )
    assert fraction_private_uses(source) == [2, 3, 3, 4]


def representation_uses(source: str) -> list:
    """Lines that reach a SymFunc's ``_nums`` or ``_den`` slot, or build one
    with ``_normalized``, which trusts its pair to be reduced already."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("_nums", "_den", "_normalized")
    )


def test_representation_stays_in_symfunc():
    # symfunc.py alone knows the int-numerators-over-one-denominator form;
    # the other modules read elements through its functions and build them
    # with SymFunc._build, which reduces what it is given.
    found = [
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "symfunc.py"
        for line in representation_uses(path.read_text())
    ]
    assert found == []


def test_representation_use_is_reported():
    source = (
        "a = f._nums\n"
        "b = f._den + f.cutoff\n"
        "c = SymFunc._normalized({}, 1)\n"
        "d = SymFunc._build({(1,): 2}, 4)\n"
        "f._nums = {}\n"
    )
    assert representation_uses(source) == [1, 2, 3, 5]


def constructors_outside_build(source: str) -> list:
    """Lines that name ``__new__`` (an attribute, a name, a def or a string)
    anywhere but inside ``SymFunc._build``, the one constructor that sets
    a SymFunc's slots without ``__init__``."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "SymFunc":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "_build":
                    inside.update(map(id, ast.walk(item)))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            isinstance(node, ast.Attribute) and node.attr == "__new__"
            or isinstance(node, ast.Name) and node.id == "__new__"
            or isinstance(node, ast.FunctionDef) and node.name == "__new__"
            or isinstance(node, ast.Constant) and node.value == "__new__"
        )
    )


def test_symfunc_is_built_only_by_build():
    # _build reduces the pair it is given; a second constructor that skips
    # __init__ would have to trust its caller to hand it a reduced pair.
    assert constructors_outside_build((PACKAGE / "symfunc.py").read_text()) == []


def test_constructor_outside_build_is_reported():
    source = (
        "class SymFunc:\n"
        "    def _build(cls, nums):\n"
        "        return cls.__new__(cls)\n"
        "\n"
        "    def _trusted(cls, nums):\n"
        "        return cls.__new__(cls)\n"
        "\n"
        "    def __new__(cls):\n"
        "        return object.__new__(cls)\n"
        "\n"
        "def _build(cls):\n"
        "    return getattr(cls, '__new__')(cls)\n"
    )
    assert constructors_outside_build(source) == [6, 8, 9, 12]


def test_package_builds_elements_through_build():
    # SymFunc._build builds every element the package makes, zero and one
    # included. The validating constructor takes a scalar operand in
    # _coerce, and the roots oracle's result, which so shares no reduction
    # with the engine output it is compared with.
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert callers(sources, "SymFunc", "cls") == [
        ("oracles.py", "frobenius_via_roots"),
        ("symfunc.py", "SymFunc._coerce"),
    ]


def test_validating_construction_is_reported():
    sources = {
        "a.py": (
            "class SymFunc:\n"
            "    @classmethod\n"
            "    def zero(cls):\n"
            "        return cls({})\n"
            "\n"
            "    @classmethod\n"
            "    def one(cls):\n"
            "        return cls._build({(): 1})\n"
            "\n"
            "    EMPTY = SymFunc()\n"
            "\n"
            "def merely_names():\n"
            "    return SymFunc\n"
        ),
        "b.py": (
            "import symfunc\n"
            "\n"
            "def nested(terms):\n"
            "    def inner():\n"
            "        return symfunc.SymFunc(terms)\n"
            "    return inner()\n"
            "\n"
            "def built(nums):\n"
            "    return SymFunc._build(nums)\n"
            "\n"
            "ONE = SymFunc({(): 1})\n"
        ),
    }
    assert callers(sources, "SymFunc", "cls") == [
        ("a.py", "SymFunc"),
        ("a.py", "SymFunc.zero"),
        ("b.py", "<module>"),
        ("b.py", "nested"),
    ]


ORACLE_LAYERS = ("symfrob.partitions", "symfrob.symfunc")


def engine_imports(source: str) -> list:
    """Lines that import from symfrob anything but the layers the roots
    oracle stands on (``partitions`` and ``symfunc``): the ``frobenius``
    module or a name from it, another module, or a name the package
    itself re-exports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("symfrob" if node.level else None, node.module)))
            targets = [module]
            if module == "symfrob":
                targets = [f"symfrob.{alias.name}" for alias in node.names]
        else:
            continue
        if any(t.split(".")[0] == "symfrob" and t not in ORACLE_LAYERS for t in targets):
            found.append(node.lineno)
    return sorted(found)


def test_oracle_imports_no_transform_engine():
    # The roots oracle checks the engine, so it may not read any of it.
    assert engine_imports((PACKAGE / "oracles.py").read_text()) == []


def test_engine_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "from fractions import Fraction\n"
        "from .partitions import divisors\n"
        "from . import symfunc\n"
        "from .frobenius import fsur\n"
        "from . import frobenius as frob\n"
        "import symfrob.frobenius\n"
        "from symfrob import fsur, symfunc\n"
        "from .cli import main\n"
        "from symfrob.symfunc import SymFunc\n"
    )
    assert engine_imports(source) == [5, 6, 7, 8, 9]


def _is_bareiss_step(node) -> bool:
    """A floor division whose dividend is a difference of two products: the
    2x2 minor of a Bareiss step divided by the previous pivot."""
    minor = getattr(node, "left", None)
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.FloorDiv)
        and isinstance(minor, ast.BinOp)
        and isinstance(minor.op, ast.Sub)
        and all(
            isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
            for side in (minor.left, minor.right)
        )
    )


def fraction_free_eliminations(sources: dict) -> list:
    """(module, definition) of each top-level function or class, or
    "<module>" for any other top-level statement, that takes a Bareiss step."""
    found = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            if any(_is_bareiss_step(node) for node in ast.walk(statement)):
                found.add((module, getattr(statement, "name", "<module>")))
    return sorted(found)


def test_one_fraction_free_elimination():
    # Every Schur evaluation is one Jacobi-Trudi determinant of a value
    # sequence; a new specialization feeds that kernel its values instead
    # of eliminating on its own.
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert fraction_free_eliminations(sources) == [("frobenius.py", "_jacobi_trudi")]


def test_fraction_free_elimination_is_reported():
    source = (
        "def det(rows, k, previous):\n"
        "    for row in rows:\n"
        "        row[1] = (row[1] * rows[k][k] - row[k] * rows[k][1]) // previous\n"
        "\n"
        "class M:\n"
        "    def step(self, a, b, c, d, p):\n"
        "        return (a * b - c * d) // p\n"
        "\n"
        "def clean(a, b, c, d):\n"
        "    return (a - b) // 2 + a * b // c + (a * b + c * d) // 2 + (a * b - c) // d\n"
        "\n"
        "X = (1 * 2 - 3 * 4) // 5\n"
    )
    assert fraction_free_eliminations({"a.py": source}) == [
        ("a.py", "<module>"),
        ("a.py", "M"),
        ("a.py", "det"),
    ]


def _raised_name(node):
    """The name a raise statement raises, called or not, bare or as an
    attribute; None for a bare ``raise``."""
    exc = getattr(node.exc, "func", node.exc)
    return getattr(exc, "id", None) or getattr(exc, "attr", None)


def precision_raisers(sources: dict) -> list:
    """(module, definition) of each top-level function or class, or
    "<module>" for any other top-level statement, that raises PrecisionError."""
    found = set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            if any(
                isinstance(node, ast.Raise) and _raised_name(node) == "PrecisionError"
                for node in ast.walk(statement)
            ):
                found.add((module, getattr(statement, "name", "<module>")))
    return sorted(found)


def cutoff_reads(source: str) -> list:
    """Lines that read a ``cutoff`` attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "cutoff"
    )


def test_series_rules_stay_in_symfunc():
    # symfunc alone decides where a truncated series may go: _check_exact
    # keeps one out of the operations that read every term, and
    # _check_reach raises the one PrecisionError of a read past a cutoff.
    # The transforms and the roots oracle take exact elements and never
    # look at a cutoff.
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert precision_raisers(sources) == [("symfunc.py", "_check_reach")]
    assert cutoff_reads(sources["frobenius.py"]) == []
    assert cutoff_reads(sources["oracles.py"]) == []


def test_series_rule_copy_is_reported():
    source = (
        "def _check_reach(cutoff, degree):\n"
        "    if cutoff is not None and degree > cutoff:\n"
        "        raise PrecisionError(degree)\n"
        "\n"
        "class SymFunc:\n"
        "    def truncate(self, n):\n"
        "        raise symfunc.PrecisionError\n"
        "\n"
        "def fsur(f, cutoff):\n"
        "    if f.cutoff is not None:\n"
        "        raise ValueError(cutoff)\n"
        "    raise\n"
        "\n"
        "if LIMIT.cutoff:\n"
        "    raise PrecisionError('module')\n"
    )
    assert precision_raisers({"a.py": source}) == [
        ("a.py", "<module>"),
        ("a.py", "SymFunc"),
        ("a.py", "_check_reach"),
    ]
    assert cutoff_reads(source) == [10, 14]


def test_cli_import_budget():
    # Each CLI command is one interpreter, so every module symfrob.cli pulls
    # in is paid on every command; dataclasses alone (with inspect, ast,
    # dis and tokenize) once cost about 17 ms. The baseline is the standard
    # library the CLI needs anyway.
    script = (
        "import sys\n"
        "import argparse, fractions, json\n"
        "before = set(sys.modules)\n"
        "import symfrob.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    extra = [
        name
        for name in proc.stdout.split()
        if name != "__future__" and name != "symfrob" and not name.startswith("symfrob.")
    ]
    assert extra == []


def missing_benchmark_names(sources: dict) -> list:
    """(file, name) of each symfrob name the benchmark binds that does not exist.

    The names are each ``(module, name)`` pair of a ``LAYERS`` dict, and
    each attribute chain read from ``S`` (the ``symfrob`` package) or
    ``cli`` (``symfrob.cli``); a chain is reported up to its first
    missing attribute. A traced run wraps the LAYERS functions by
    ``getattr``, so a deleted one breaks it, and Tier-1 never runs the
    benchmark itself.
    """
    roots = {"S": "symfrob", "cli": "symfrob.cli"}
    wanted = set()  # (file, module, label, attribute chain)
    for filename, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets
            ):
                for pairs in ast.literal_eval(node.value).values():
                    wanted.update((filename, "symfrob." + m, m, (name,)) for m, name in pairs)
            elif isinstance(node, ast.Attribute):
                chain = []
                while isinstance(node, ast.Attribute):
                    chain.append(node.attr)
                    node = node.value
                if isinstance(node, ast.Name) and node.id in roots:
                    wanted.add((filename, roots[node.id], node.id, tuple(reversed(chain))))
    missing = set()
    for filename, module, label, chain in wanted:
        value = importlib.import_module(module)
        for i, attr in enumerate(chain):
            if not hasattr(value, attr):
                missing.add((filename, ".".join((label,) + chain[: i + 1])))
                break
            value = getattr(value, attr)
    return sorted(missing)


def test_benchmark_names_exist():
    sources = {
        name: (BENCHMARKS / name).read_text()
        for name in ("layertrace.py", "workloads.py", "make_golden.py")
    }
    assert missing_benchmark_names(sources) == []


def test_missing_benchmark_name_is_reported():
    sources = {
        "layertrace.py": "LAYERS = {'L1': (('symfunc', 'from_basis'), ('symfunc', 'gone'))}\n",
        "workloads.py": (
            "def op(S):\n"
            "    return S.from_basis, S.lyndon.parse_word, S.lyndon.gone, S.absent.deeper\n"
        ),
        "make_golden.py": "from symfrob import cli\nx = cli.parse_expr\ny = cli.Sum\n",
    }
    assert missing_benchmark_names(sources) == [
        ("layertrace.py", "symfunc.gone"),
        ("make_golden.py", "cli.Sum"),
        ("workloads.py", "S.absent"),
        ("workloads.py", "S.lyndon.gone"),
    ]


def patch_anchors(source: str) -> list:
    """(file, anchor) of each ``good = "<line>"`` in a test function, file
    being the path the function patches, relative to the repository: the
    string parts of its ``<root> / "src" / ... / "<name>.py"`` chain."""
    found = []
    for function in ast.parse(source).body:
        if not isinstance(function, ast.FunctionDef):
            continue
        files, anchors = [], []
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "good" for target in node.targets
            ):
                anchors.append(ast.literal_eval(node.value))
            elif (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Div)
                and str(getattr(node.right, "value", "")).endswith(".py")
            ):
                parts = []
                while isinstance(node, ast.BinOp) and isinstance(node.right, ast.Constant):
                    parts.append(node.right.value)
                    node = node.left
                files.append("/".join(reversed(parts)))
        found.extend((file, anchor) for file in files for anchor in anchors)
    return sorted(found)


def misplaced_anchors(source: str, read) -> list:
    """(file, anchor, count) of each patch anchor that does not occur
    exactly once in ``read(file)``."""
    counts = [(file, anchor, read(file).count(anchor)) for file, anchor in patch_anchors(source)]
    return [entry for entry in counts if entry[2] != 1]


def test_benchmark_patch_anchors_occur_once():
    # The benchmark self-test corrupts a copy of the sources by replacing
    # one line, and Tier-1 never runs it: an anchor that was edited away
    # or duplicated would break it unseen.
    source = (BENCHMARKS / "test_bench.py").read_text()
    assert patch_anchors(source)
    root = BENCHMARKS.parent
    assert misplaced_anchors(source, lambda file: (root / file).read_text()) == []


def test_misplaced_anchor_is_reported():
    source = (
        "def test_once(tmp_path):\n"
        "    target = tmp_path / 'src' / 'pkg' / 'a.py'\n"
        "    good = 'return 1'\n"
        "\n"
        "def test_twice(tmp_path):\n"
        "    good = 'x = 1'\n"
        "    (tmp_path / 'src' / 'a.py').write_text('')\n"
        "\n"
        "def test_gone(tmp_path):\n"
        "    source = (tmp_path / 'src' / 'pkg' / 'b.py').read_text()\n"
        "    good = 'return 2'\n"
        "    bad = 'return 3'\n"
    )
    files = {"src/pkg/a.py": "return 1\n", "src/a.py": "x = 1\nx = 1\n", "src/pkg/b.py": ""}
    assert misplaced_anchors(source, files.__getitem__) == [
        ("src/a.py", "x = 1", 2),
        ("src/pkg/b.py", "return 2", 0),
    ]
