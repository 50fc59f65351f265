"""Package-wide checks: no stripped correctness checks, a light top-level import,
every exported name, and the README examples."""

import ast
import io
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

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
    # deliberate, and go through the one helper that builds it from the integer form.
    found, helpers = {}, []
    for path in sorted((SRC / "triopoly").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "_view":
                helpers.append(path.name)
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and method.name == "__getattr__":
                        found[node.name] = sorted(
                            call.func.id for call in ast.walk(method)
                            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name))
    assert helpers == ["market.py"]
    assert found == {name: ["_view"] for name in ("Equilibrium", "MarketState", "PayoffVector")}


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
