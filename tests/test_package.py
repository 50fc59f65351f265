"""Package-wide checks: no stripped correctness checks, a light top-level import,
every exported name, and the README examples."""

import ast
import io
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so every check must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "triopoly").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cache_inventory():
    # Every cache holds memory for the life of the process; a new one must be deliberate.
    def cached(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) in {
            "lru_cache", "cache", "cached_property"}

    found = sorted(
        node.name
        for path in sorted((SRC / "triopoly").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(cached, node.decorator_list))
    )
    assert found == ["_operator", "_printed_output_table", "adjugate", "psi_quad"]


def test_lazy_field_inventory():
    # A field built on first read is absent from vars() until then; a new one must be
    # deliberate. Each is a `_Lazy(at, build)` at its declaration, the one descriptor
    # class, and has no dataclass default. The inventory is every dataclass field, in
    # every module, whose class attribute is a descriptor of any kind, so a field given
    # some other descriptor shows here too. No class or module has an attribute hook: on
    # CPython 3.11 a Python __getattr__ keeps every attribute read from being
    # specialised, hits included (timeit, 2-core VM, with the hooks and without: a
    # state's `_ints` 58 -> 29 ns, `triopoly.payoff_vector` 90 -> 30 ns).
    import dataclasses
    import importlib

    import triopoly
    from triopoly.market import _Lazy

    descriptors, calls, hooks = [], 0, []
    for path in sorted((SRC / "triopoly").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(stmt, ast.FunctionDef) and stmt.name == "__get__"
                    for stmt in node.body):
                descriptors.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Lazy":
                calls += 1
            names = ([node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)])
            hooks += [f"{path.name}:{node.lineno}" for name in names
                      if name in ("__getattr__", "__getattribute__")]
    assert descriptors == ["market.py:_Lazy"]
    assert hooks == []

    lazy = {}
    for path in sorted((SRC / "triopoly").glob("*.py")):
        if path.stem == "__main__":  # runs the CLI on import, and declares no class
            continue
        module = importlib.import_module(f"triopoly.{path.stem}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls)):
                continue
            for field in dataclasses.fields(cls):
                attr = vars(cls).get(field.name)
                if hasattr(type(attr), "__get__"):
                    assert isinstance(attr, _Lazy), f"{cls.__name__}.{field.name}"
                    lazy[f"{cls.__name__}.{field.name}"] = (attr.at, attr.build.__name__)
                    assert field.default is dataclasses.MISSING
                    assert field.default_factory is dataclasses.MISSING
    assert lazy == {
        "Equilibrium.chosen": (0, "_fractions"), "Equilibrium.payoffs": (2, "payoff_vector"),
        "MarketState.x": (0, "_fractions"), "MarketState.p": (2, "_fractions"),
        "PayoffVector.pi": (0, "_fractions"), "PayoffVector.psi": (2, "_fractions")}
    assert calls == len(lazy)  # no _Lazy outside a field declaration
    with pytest.raises(TypeError):
        triopoly.MarketState()
    with pytest.raises(TypeError):
        triopoly.PayoffVector()


def test_no_module_imports_private_names_of_equilibrium():
    # The (b, assignment) operator's row layout is private to triopoly.equilibrium.
    found = [
        f"{path.name}:{node.lineno}:{alias.name}"
        for path in sorted((SRC / "triopoly").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.module == "triopoly.equilibrium"
             or (node.level == 1 and node.module == "equilibrium"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_import_does_not_load_cli(src_env):
    code = (
        "import sys, triopoly\n"
        "assert 'triopoly.cli' not in sys.modules, 'import triopoly loaded the CLI'\n"
        "assert callable(triopoly.run_cli) and callable(triopoly.main)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=src_env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_every_exported_name_resolves():
    # A name dropped from a module but left in an __all__ breaks `import *` only.
    import importlib

    missing = []
    for path in sorted((SRC / "triopoly").glob("*.py")):
        if path.stem == "__main__":  # runs the CLI on import and exports nothing
            continue
        name = "triopoly" if path.stem == "__init__" else f"triopoly.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_readme_python_examples_run():
    # README is the public-API contract; its examples run in order in one namespace.
    readme = (SRC.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert blocks
    namespace = {}
    with redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
