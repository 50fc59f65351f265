"""Golden-output tests: CLI stdout and exit codes must match the recorded files byte for byte.

Each case's stdout lives in ``tests/golden/<name>.stdout`` and the exit codes
in ``tests/golden/exit_codes.json``. A change that alters CLI output on
purpose re-records them with ``PYTHONPATH=src python tests/test_golden.py``
and says so in its change notes.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from triopoly.cli import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

SPOT = ["--a", "10", "--b", "1/2", "--cA", "2", "--cB", "2", "--cC", "3"]
ASYM = ["--a", "50", "--b", "57/64", "--cA", "181/8", "--cB", "201/8", "--cC", "237/8"]
PRIME_B = ["--a", "10", "--b", "123457/1000003", "--cA", "2", "--cB", "2", "--cC", "3"]
MIXED = ["--a", "50", "--b", "123457/1000003", "--cA", "1/3", "--cB", "2/7", "--cC", "5/11"]
NEAR_ONE = ["--a", "50", "--b", "63/64", "--cA", "181/8", "--cB", "201/8", "--cC", "237/8"]
# A fractional intercept: theta's lcm differs from the costs' lcm.
FRAC_A = ["--a", "101/3", "--b", "5/7", "--cA", "1/4", "--cB", "1/4", "--cC", "2/9"]
# b over the Mersenne prime 2^61 - 1: the operator's integers run near 2^61 and beyond.
P61 = ["--a", "50", "--b", "1152921504606846975/2305843009213693951",
       "--cA", "1/3", "--cB", "2/7", "--cC", "5/11"]

CASES = {
    "solve_table": ["solve", *SPOT],
    "solve_csv": ["solve", *SPOT, "--format", "csv"],
    "solve_json": ["solve", *SPOT, "--format", "json"],
    "solve_float_csv": ["solve", *SPOT, "--mode", "float", "--format", "csv"],
    "solve_mixed_table": ["solve", *MIXED],
    "solve_mixed_json": ["solve", *MIXED, "--format", "json"],
    "solve_mixed_float_csv": ["solve", *MIXED, "--mode", "float", "--format", "csv"],
    "solve_frac_a_json": ["solve", *FRAC_A, "--format", "json"],
    "solve_frac_a_float_csv": ["solve", *FRAC_A, "--mode", "float", "--format", "csv"],
    "solve_mirror_qpp_json": ["solve", *FRAC_A, "--pattern", "QPP", "--format", "json"],
    "solve_mirror_pqq_csv": ["solve", *MIXED, "--pattern", "PQQ", "--format", "csv"],
    "solve_p61_json": ["solve", *P61, "--format", "json"],
    "verify_spot_table": ["verify", *SPOT, "--draws", "20"],
    "verify_spot_json": ["verify", *SPOT, "--draws", "20", "--format", "json"],
    "verify_asym_table": ["verify", *ASYM, "--draws", "20"],
    "verify_asym_json": ["verify", *ASYM, "--draws", "20", "--format", "json"],
    "verify_near_one_json": ["verify", *NEAR_ONE, "--draws", "20", "--format", "json"],
    "verify_frac_a_table": ["verify", *FRAC_A, "--draws", "20"],
    "minimax_float_table": ["minimax", *SPOT],
    "minimax_exact_json": ["minimax", *SPOT, "--mode", "exact", "--grid-points", "101",
                           "--format", "json"],
    "minimax_firm_c": ["minimax", *SPOT, "--firm", "C"],
    "minimax_firm_b_exact": ["minimax", *SPOT, "--firm", "B", "--mode", "exact"],
    "minimax_negative_lo_csv": ["minimax", *SPOT, "--grid-lo=-5", "--grid-hi", "3",
                                "--grid-points", "7", "--format", "csv"],
    "minimax_prime_b": ["minimax", *PRIME_B],
    "minimax_frac_a_table": ["minimax", *FRAC_A],
    "minimax_p61_exact": ["minimax", *P61, "--firm", "B", "--mode", "exact"],
}


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name):
    code, out = _run(CASES[name])
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[name]
    assert out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


def _record():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = _run(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(out.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(_record())
