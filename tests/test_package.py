"""Package-wide checks: no stripped correctness checks, a light top-level import."""

import ast
import subprocess
import sys
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


def test_import_does_not_load_cli(src_env):
    code = (
        "import sys, triopoly\n"
        "assert 'triopoly.cli' not in sys.modules, 'import triopoly loaded the CLI'\n"
        "assert callable(triopoly.run_cli) and callable(triopoly.main)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=src_env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
