import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import Phase, settings

from triopoly.cli import run_cli

# Every phase but shrinking, for runs that only need to know whether a test
# fails, such as a mutation check: HYPOTHESIS_PROFILE=noshrink python3 -m pytest
settings.register_profile("noshrink", phases=[p for p in Phase if p is not Phase.shrink])
if os.environ.get("HYPOTHESIS_PROFILE") == "noshrink":
    settings.load_profile("noshrink")


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
