"""Every module-level function and class of ``bosonqec``, public or
private, is read by the library itself or traced by the benchmark; a
helper that only tests call lives in the tests (``tests/reference.py``
holds the references the fast paths are compared against), and every
definition there is read by a test or by another reference.  No module
of the package imports numpy, and every module-level import is read by
its module.  Every parameter with a default is passed another value by
some call in the package or the benchmark tracer.  No module imports
``dataclasses``, and every record class of the library rejects
attribute assignment and deletion.  The package declares no runtime
dependency, and its ``test`` extra names every third-party module the
tests import.

``bench/trace_child.py`` is loaded read-only; its ``main`` is not run.
"""

import ast
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

import bosonqec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bosonqec"
TRACE_CHILD = ROOT / "bench" / "trace_child.py"
REFERENCE = ROOT / "tests" / "reference.py"

def read_names(paths) -> set[str]:
    """Names and attributes read anywhere in the files ``paths``, a
    top-level definition's own name inside it excepted."""
    names: set[str] = set()
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    names.add(name)
    return names


def library_references() -> set[str]:
    """Names and attributes read anywhere in the package outside ``__init__``."""
    return read_names(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def traced_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tables = (module.SPANS, module.AGGREGATES)
    return {fn for table in tables for fns in table.values() for fn in fns}


def test_every_public_name_has_a_user():
    used = library_references() | traced_names()
    public = [
        name for name in bosonqec.__all__ if not inspect.ismodule(getattr(bosonqec, name))
    ]
    assert public
    assert [name for name in public if name not in used] == []


def top_level_definitions(path: Path) -> list[str]:
    """The names of the module-level functions and classes of ``path``."""
    nodes = ast.parse(path.read_text(encoding="utf-8")).body
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in nodes if isinstance(node, kinds)]


def definitions() -> list[str]:
    """``module.name`` of every module-level function and class of the
    package outside ``__init__``, whose definitions are the lazy import
    hooks that Python itself calls."""
    return [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in top_level_definitions(path)
    ]


def test_every_definition_has_a_user():
    # private helpers too: one that only a test calls belongs in the tests
    used = library_references() | traced_names()
    found = definitions()
    assert "syndrome._inverse_sqrt" in found and "fock.PureState" in found
    assert [name for name in found if name.split(".")[1] not in used] == []


def test_every_reference_has_a_user():
    # a reference that no test module and no other reference reads is
    # dead code in the tests
    tests = ROOT / "tests"
    used = read_names(sorted(tests.glob("test_*.py")) + [REFERENCE])
    found = top_level_definitions(REFERENCE)
    assert "decode_lookup" in found and "_take_branch" in found
    assert [name for name in found if name not in used] == []


def defaulted_parameters(path: Path):
    """``(callee, label, index, name, default)`` for every parameter with
    a default of every function and method in ``path``: ``callee`` is the
    name a call uses (the class name for ``__init__``), ``index`` the
    argument's position in such a call, or None for a keyword-only one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = {
        id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = methods.get(id(node))
        callee = cls if node.name == "__init__" else node.name
        label = f"{path.stem}.{cls + '.' if cls else ''}{node.name}"
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if cls else 0  # self, which the call does not pass
        for i, default in enumerate(args.defaults, len(positional) - len(args.defaults)):
            found.append((callee, label, i - skip, positional[i].arg, default))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((callee, label, None, arg.arg, default))
    return found


def passes_other_value(call: ast.Call, index, name: str, default: ast.expr) -> bool:
    """Whether ``call`` may give the parameter a value other than its
    default: by position, by keyword, or through ``*args``/``**kwargs``."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(keyword.arg is None for keyword in call.keywords):
        return True
    given = [kw.value for kw in call.keywords if kw.arg == name]
    if index is not None and index < len(call.args):
        given.append(call.args[index])
    return any(ast.unparse(value) != ast.unparse(default) for value in given)


def test_every_default_is_overridden_by_some_call():
    # a parameter that every call leaves at its default, or that only
    # tests set, is a knob that does nothing: make it a constant
    package = sorted(PACKAGE.glob("*.py"))
    calls = {}
    for path in [*package, TRACE_CHILD]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    params = [p for path in package for p in defaulted_parameters(path)]
    assert ("fock.add_states", "cb") in {(label, name) for _, label, _, name, _ in params}
    unused = [
        f"{label}({name}=)" for callee, label, index, name, default in params
        if not any(passes_other_value(call, index, name, default) for call in calls.get(callee, ()))
    ]
    assert unused == []


def absolute_imports(nodes) -> list[str]:
    """The modules the absolute imports among ``nodes`` name."""
    modules = []
    for node in nodes:
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return modules


def test_no_module_imports_numpy():
    # at module level or inside a function: numpy is the tests' reference only
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        modules = absolute_imports(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        found += [f"{path.name}: {m}" for m in modules if m.split(".")[0] == "numpy"]
    assert found == []


def test_dependencies_are_the_test_extra_alone():
    # the package runs on the standard library; the test extra names every
    # third-party top-level module the tests import
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    extra = {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
             for requirement in project["optional-dependencies"]["test"]}
    local = {path.stem for path in (ROOT / "tests").glob("*.py")} | {"bosonqec"}
    imported = set()
    for path in (ROOT / "tests").glob("*.py"):
        modules = absolute_imports(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imported |= {m.split(".")[0] for m in modules}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party == extra == {"numpy", "pytest", "hypothesis"}


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast and dis and compiles methods for each
    # class: the records are NamedTuples or classes with __slots__
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        modules = absolute_imports(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        found += [f"{path.name}: {m}" for m in modules if m == "dataclasses"]
    assert found == []


@pytest.fixture(scope="module")
def records():
    """One instance of each record and immutable class of the library, by
    class name."""
    spec = bosonqec.CodeSpec("extended_binomial", 1, 1)
    basis = bosonqec.logical_basis(spec)
    index = bosonqec.damaged.DamagedIndex(basis, 1)
    instances = [
        spec.layout,
        spec,
        basis,
        index.code,
        bosonqec.syndrome.code_channel(index, 0.01)[0],
        bosonqec.kl_matrix(basis, 0.01),
        bosonqec.kl.fit_order([0.01, 0.02], [1e-4, 4e-4]),
        bosonqec.build_logical_operator("X", 0, spec),
        bosonqec.run_encoding_protocol(1.0, 0.0, spec)[0],
        bosonqec.transpose_recovery(index, 0.01),
        basis.codewords["0"],
        bosonqec.build_logical_operator("X", 0, spec).map,
    ]
    return {type(record).__name__: record for record in instances}


RECORDS = (
    "ModeLayout", "CodeSpec", "LogicalBasis", "SparseRows", "Branches", "KLReport", "ScalingFit",
    "LogicalOperator", "ProtocolTrace", "TransposeRecovery", "PureState",
    "LinearMap",
)


@pytest.mark.parametrize("name", RECORDS)
def test_records_reject_assignment_and_deletion(records, name):
    record = records[name]
    fields = getattr(record, "_fields", None) or type(record).__slots__
    for field in (*fields, "no_such_field"):
        before = getattr(record, field, None)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field, None) is before


# Imports a module makes for another's sake: the benchmark tracer spans
# channels.cc_overlap under the name of syndrome's binding of it.
UNREAD_IMPORTS = {("syndrome.py", "cc_overlap")}


def test_every_module_level_import_is_read():
    # an unread ``from .x import y`` still executes x wherever its importer runs
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and (path.name, name) not in UNREAD_IMPORTS:
                        unread.append(f"{path.name}: {name}")
    assert unread == []


def test_the_unread_imports_are_unread():
    # an exception that became a plain read must leave the set
    for file, name in UNREAD_IMPORTS:
        tree = ast.parse((PACKAGE / file).read_text(encoding="utf-8"))
        assert name not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
