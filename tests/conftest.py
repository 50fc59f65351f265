import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from triopoly.cli import run_cli


@pytest.fixture
def cli():
    """Invoke the CLI in-process, capturing exit code, stdout, and stderr."""

    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)
        return code, out.getvalue(), err.getvalue()

    return invoke


@pytest.fixture
def src_env():
    """Environment for a subprocess that imports the package from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}
