"""CLI tests: argument handling, output formats, exit codes, determinism."""

import argparse
import csv
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triopoly.cli import _forced_digits, _rational, run_cli
from triopoly.exact import format_rational
from triopoly.verify import PropertyResult, SuiteReport

SPOT_ARGS = ["--a", "10", "--b", "1/2", "--cA", "2", "--cB", "2", "--cC", "3"]


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in data]


# --- solve ------------------------------------------------------------------------


def test_solve_csv_all_patterns(cli):
    code, out, err = cli(["solve", *SPOT_ARGS, "--pattern", "all", "--format", "csv"])
    assert code == 0
    assert err == ""
    rows = parse_csv(out)
    assert len(rows) == 6
    assert [r["pattern"] for r in rows] == ["1", "2", "3", "4", "5", "6"]
    first = rows[0]
    assert first["assignment"] == "QQQ"
    assert first["xA"] == "114/35"
    assert first["xC"] == "94/35"
    assert first["xA_f"] == "3.25714285714"
    assert first["interior"] == "true"
    assert first["soc_ok"] == "true"
    assert rows[5]["xA"] == "216/65"


def test_solve_csv_header_is_fixed(cli):
    code, out, _ = cli(["solve", *SPOT_ARGS, "--format", "csv"])
    assert code == 0
    header = out.splitlines()[0]
    assert header == (
        "pattern,assignment,xA,xB,xC,pA,pB,pC,psiA,psiB,psiC,"
        "xA_f,xB_f,xC_f,pA_f,pB_f,pC_f,psiA_f,psiB_f,psiC_f,interior,soc_ok"
    )


def test_solve_json_single_pattern(cli):
    code, out, _ = cli(["solve", *SPOT_ARGS, "--pattern", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exact"
    (entry,) = doc["equilibria"]
    assert entry["assignment"] == "QQP"
    assert entry["x"] == ["114/35", "114/35", "94/35"]
    assert entry["chosen"][2] == "142/35"
    assert entry["flags"]["soc_ok"] is True


def test_solve_table_format(cli):
    code, out, _ = cli(["solve", *SPOT_ARGS])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("pattern  assignment")
    assert len(lines) == 7
    assert "114/35" in lines[1]


def test_solve_unnumbered_assignment(cli):
    code, out, _ = cli(["solve", *SPOT_ARGS, "--pattern", "QPP", "--format", "csv"])
    assert code == 0
    (row,) = parse_csv(out)
    assert row["pattern"] == "-"
    assert row["assignment"] == "QPP"


def test_solve_float_mode_close_to_exact(cli):
    code_exact, out_exact, _ = cli(["solve", *SPOT_ARGS, "--format", "csv"])
    code_float, out_float, err = cli(
        ["solve", *SPOT_ARGS, "--format", "csv", "--mode", "float"]
    )
    assert code_exact == 0 and code_float == 0
    assert err == ""
    for exact_row, float_row in zip(parse_csv(out_exact), parse_csv(out_float)):
        for column in ("xA_f", "xC_f", "pB_f", "psiC_f"):
            assert abs(float(exact_row[column]) - float(float_row[column])) < 1e-9


def test_solve_float_json_reports_iterations(cli):
    code, out, _ = cli(
        ["solve", *SPOT_ARGS, "--pattern", "1", "--mode", "float", "--format", "json"]
    )
    assert code == 0
    (entry,) = json.loads(out)["equilibria"]
    assert entry["converged"] is True
    assert entry["iterations"] > 0


# --- error handling ---------------------------------------------------------------


def test_invalid_b_is_exit_1(cli):
    code, out, err = cli(["solve", "--a", "10", "--b", "3/2", "--cA", "2",
                          "--cB", "2", "--cC", "3"])
    assert code == 1
    assert out == ""
    assert "b must satisfy 0 < b < 1" in err


def test_a_not_above_costs_is_one_rational_line(cli):
    code, out, err = cli(["solve", "--a", "3", "--b", "1/2", "--cA", "7/2", "--cB", "0",
                          "--cC", "0"])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: a must exceed every marginal cost, got a=3 with costs (7/2, 0, 0)"
    ]
    assert "Fraction(" not in err


# Valid parameters on which the damped float iteration diverges for three patterns.
DIVERGENT_ARGS = ["--a", "50", "--b", "57/64", "--cA", "181/8", "--cB", "201/8",
                  "--cC", "237/8"]


@pytest.mark.parametrize("pattern", ["QQP", "QPQ", "PQQ"])
def test_float_divergence_is_one_line_exit_1(cli, pattern):
    code, out, err = cli(["solve", *DIVERGENT_ARGS, "--pattern", pattern, "--mode", "float"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, _ = cli(["solve", *DIVERGENT_ARGS, "--pattern", pattern, "--mode", "exact"])
    assert code == 0
    assert pattern in out


# The spot parameters with a demand intercept beyond the largest float.
HUGE_A = ["--a", "1e400", *SPOT_ARGS[2:]]


@pytest.mark.parametrize("argv", [
    ["solve", *HUGE_A],
    ["solve", *HUGE_A, "--mode", "float"],
    ["minimax", *HUGE_A],
    ["minimax", *HUGE_A, "--mode", "exact"],
    ["minimax", *SPOT_ARGS, "--grid-hi", "1e400"],
    ["minimax", *SPOT_ARGS, "--grid-hi", "1e400", "--mode", "exact"],
])
def test_value_beyond_float_range_is_one_line_exit_1(cli, argv):
    code, out, err = cli(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "float range" in err


# Values whose numerators or denominators exceed the digits Python converts to a string.
HUGE_DIGITS = {
    "exact-a": ["solve", "--a", "1e5000", *SPOT_ARGS[2:]],
    "float-b": ["solve", "--a", "10", "--b", "1e-5000", *SPOT_ARGS[4:], "--mode", "float"],
    "verify-a": ["verify", "--a", "1e5000", *SPOT_ARGS[2:], "--draws", "2"],
    "minimax-float-b": ["minimax", "--a", "10", "--b", "1e-5000", *SPOT_ARGS[4:]],
    "minimax-exact-b": ["minimax", "--a", "10", "--b", "1e-5000", *SPOT_ARGS[4:],
                        "--mode", "exact"],
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("case", sorted(HUGE_DIGITS))
def test_value_beyond_int_string_limit_is_one_line_exit_1(cli, case, fmt):
    code, out, err = cli([*HUGE_DIGITS[case], "--format", fmt])
    assert code == 1
    assert out == ""
    flag, value = ("--a", "1e5000") if "1e5000" in HUGE_DIGITS[case] else ("--b", "1e-5000")
    assert err == (f"error: argument {flag}: {value} has too many digits: a numerator or "
                   f"denominator longer than {sys.get_int_max_str_digits()} digits "
                   "cannot be printed\n")


# Inputs that print, whose derived values do not: b = 1/(10^3000 + 1), cB = 1/(10^2500 + 3).
HUGE_DERIVED = ["--a", "10", "--b", f"1/{10**3000 + 1}", "--cA", "2",
                "--cB", f"1/{10**2500 + 3}", "--cC", "3"]


@pytest.mark.parametrize("argv", [
    ["solve", *HUGE_DERIVED, "--format", "csv"],
    ["verify", *HUGE_DERIVED, "--draws", "1", "--format", "json"],
    ["minimax", *HUGE_DERIVED, "--format", "csv"],
], ids=["solve", "verify", "minimax"])
def test_derived_value_beyond_int_string_limit_is_one_line_exit_1(cli, argv):
    code, out, err = cli(argv)
    assert code == 1
    assert out == ""
    assert err == (f"error: a computed value has more than {sys.get_int_max_str_digits()} "
                   "digits and cannot be printed\n")


# Exponents whose power of 10 alone would take minutes and hundreds of MB to build.
HUGE_EXPONENTS = {
    "solve-cC": (["solve", *SPOT_ARGS[:8], "--cC", "1e-999999999"], "argument --cC: 1e-999999999"),
    "solve-a": (["solve", "--a", "1e999999999", *SPOT_ARGS[2:]], "argument --a: 1e999999999"),
    "minimax-grid-hi": (["minimax", *SPOT_ARGS, "--grid-hi", "1e999999999"],
                        "argument --grid-hi: 1e999999999"),
    "minimax-fix": (["minimax", *SPOT_ARGS, "--fix", "xB=1e-999999999"],
                    "--fix 'xB=1e-999999999': 1e-999999999"),
}


def _cli_process(src_env, argv):
    # A subprocess with a timeout, so that a value too large to build fails the test
    # instead of hanging it.
    return subprocess.run([sys.executable, "-m", "triopoly", *argv], env=src_env,
                          capture_output=True, text=True, timeout=30)


@pytest.mark.parametrize("case", sorted(HUGE_EXPONENTS))
def test_huge_exponent_is_refused_before_its_value_is_built(src_env, case):
    argv, where = HUGE_EXPONENTS[case]
    run = _cli_process(src_env, argv)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == (f"error: {where} has too many digits: a numerator or denominator "
                          f"longer than {sys.get_int_max_str_digits()} digits cannot be printed\n")


def test_zero_with_a_huge_exponent_is_zero(src_env):
    zero = _cli_process(src_env, ["solve", *SPOT_ARGS[:8], "--cC", "-0.00e-999999999"])
    assert zero.returncode == 0
    assert zero.stdout == _cli_process(src_env, ["solve", *SPOT_ARGS[:8], "--cC", "0"]).stdout


_LIMIT = sys.get_int_max_str_digits()
_mantissa_digits = st.text("0123456789_", max_size=6).filter(
    lambda t: not t.startswith("_") and not t.endswith("_") and "__" not in t)


@given(st.sampled_from(["", "-", "+"]), _mantissa_digits, st.none() | _mantissa_digits,
       st.integers(-_LIMIT - 20, _LIMIT + 20))
@example("", "1", None, _LIMIT - 1)  # 10^(limit - 1) has the limit's digits and prints
@example("", "1", None, _LIMIT)  # one digit more does not
@example("", "5", None, -_LIMIT)  # 1 / (2 10^(limit - 1)): a denominator that prints
@example("", "1", None, -_LIMIT)
@example("-", "0", "000", -_LIMIT - 20)
@settings(max_examples=300, deadline=None)
def test_exponent_check_refuses_only_what_the_built_value_would(sign, whole, frac, exp):
    text = f"{sign}{whole}{'' if frac is None else '.' + frac}e{exp}"
    try:
        value = Fraction(text)
    except ValueError:  # no digit at all
        assert _forced_digits(text) is None
        return
    try:
        format_rational(value)
    except ValueError:
        with pytest.raises(argparse.ArgumentTypeError, match="has too many digits"):
            _rational(text)
    else:
        assert _rational(text) == value
        forced = _forced_digits(text)
        assert forced == 0 if value == 0 else 0 < forced <= _LIMIT


def test_verify_renders_no_floats_for_huge_values(cli):
    code, out, err = cli(["verify", *HUGE_A, "--draws", "2"])
    assert code == 0
    assert "verification: PASS" in out
    assert err == ""


def test_invalid_rational_names_flag(cli):
    code, _, err = cli(["solve", "--a", "10", "--b", "x/y", "--cA", "2",
                        "--cB", "2", "--cC", "3"])
    assert code == 1
    assert "--b" in err
    assert "x/y" in err


@pytest.mark.parametrize("value", ["-1/2", "-1e3"])
def test_negative_rational_reaches_the_parameter_check(cli, value):
    # A separate negative value parses like the attached form, as -0.5 does.
    argv = ["solve", "--a", "10", "--b", "1/2", "--cA", value, "--cB", "2", "--cC", "3"]
    code, out, err = cli(argv)
    assert (code, out) == (1, "")
    assert err == f"error: marginal cost of firm A must be nonnegative, got {Fraction(value)}\n"
    assert cli(argv[:5] + [f"--cA={value}"] + argv[7:]) == (code, out, err)


def test_unknown_flag_is_exit_1(cli):
    code, _, err = cli(["solve", *SPOT_ARGS, "--frobnicate", "1"])
    assert code == 1
    assert "--frobnicate" in err


def test_missing_required_flag(cli):
    code, _, err = cli(["solve", "--a", "10", "--b", "1/2", "--cA", "2", "--cB", "2"])
    assert code == 1
    assert "--cC" in err


def test_invalid_pattern_value(cli):
    code, _, err = cli(["solve", *SPOT_ARGS, "--pattern", "9"])
    assert code == 1
    assert "--pattern" in err or "pattern" in err


def test_no_command_is_exit_1(cli):
    code, _, err = cli([])
    assert code == 1
    assert err != ""


# --- verify -----------------------------------------------------------------------


def test_verify_text_output(cli):
    code, out, err = cli(["verify", *SPOT_ARGS, "--draws", "20", "--seed", "42"])
    assert code == 0
    assert err == ""
    assert "equal pairs: (1,2) (4,6)" in out
    assert "pattern 1 xC: printed -94/35, corrected 94/35" in out
    assert "verification: PASS" in out
    assert "zero_sum" in out


def test_verify_is_deterministic(cli):
    args = ["verify", *SPOT_ARGS, "--draws", "20", "--seed", "7"]
    first = cli(args)
    second = cli(args)
    assert first == second


def test_verify_json(cli):
    code, out, _ = cli(["verify", *SPOT_ARGS, "--draws", "10", "--seed", "1",
                        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["equal_pairs"] == [[1, 2], [4, 6]]
    assert doc["typo_ledger"][0]["component"] == "xC"
    assert doc["suite"]["passed"] is True
    assert len(doc["equivalence_matrix"]) == 6


def test_verify_csv(cli):
    code, out, _ = cli(["verify", *SPOT_ARGS, "--draws", "5", "--seed", "1",
                        "--format", "csv"])
    assert code == 0
    rows = parse_csv(out)
    assert {"property", "status", "checked"} == set(rows[0])
    assert any(r["property"] == "zero_sum" and r["status"] == "pass" for r in rows)


def test_verify_csv_builds_only_the_suite(cli, monkeypatch):
    # CSV prints the suite alone: the equivalence matrix, its equal pairs and
    # the typo ledger are never built for it.
    import triopoly.cli as cli_module

    argv = ["verify", *SPOT_ARGS, "--draws", "5", "--seed", "1", "--format", "csv"]
    expected = cli(argv)

    def unused(*args):
        raise AssertionError("built for CSV output")

    for name in ("_matrix", "_equal_pairs", "closed_form_discrepancies"):
        monkeypatch.setattr(cli_module, name, unused)
    assert cli(argv) == expected
    for fmt in ("table", "json"):
        with pytest.raises(AssertionError, match="built for CSV"):
            cli([*argv[:-1], fmt])


def test_verify_failure_exits_2(cli, monkeypatch):
    import triopoly.cli as cli_module

    failing = SuiteReport(
        draws=1, seed=0, oracle="corrected",
        properties=(PropertyResult("zero_sum", "fail", 1, {"draw": 0}),),
    )
    monkeypatch.setattr(cli_module, "_property_suite",
                        lambda params, draws, seed, oracle, first: failing)
    code, out, _ = cli(["verify", *SPOT_ARGS])
    assert code == 2
    assert "verification: FAIL" in out
    assert "counterexample" in out


# --- minimax ----------------------------------------------------------------------


def test_minimax_default_passes(cli):
    code, out, err = cli(["minimax", *SPOT_ARGS])
    assert code == 0
    assert err == ""
    assert "result: PASS" in out
    assert "fixed xB = 114/35" in out
    assert "min_max_direct" in out and "max_min_transformed" in out


def test_minimax_json(cli):
    code, out, _ = cli(["minimax", *SPOT_ARGS, "--firm", "B", "--format", "json"])
    assert code == 0
    doc = json.loads(out)["minimax"]
    assert doc["pass"] is True
    assert doc["max_firm"] == "B"
    assert doc["fixed_firm"] == "A"
    assert doc["grid"]["points"] == 1001


def test_minimax_csv(cli):
    code, out, _ = cli(["minimax", *SPOT_ARGS, "--format", "csv"])
    assert code == 0
    (row,) = parse_csv(out)
    assert row["pass"] == "true"
    assert row["fixed_value"] == "114/35"
    assert row["grid_points"] == "1001"


def test_minimax_explicit_fix_matches_default(cli):
    default = cli(["minimax", *SPOT_ARGS, "--format", "csv"])
    pinned = cli(["minimax", *SPOT_ARGS, "--fix", "xB=114/35", "--format", "csv"])
    assert default == pinned


def test_minimax_rejects_wrong_fix_variable(cli):
    code, _, err = cli(["minimax", *SPOT_ARGS, "--fix", "pB=3"])
    assert code == 1
    assert "xB" in err


def test_minimax_rejects_malformed_fix(cli):
    code, _, err = cli(["minimax", *SPOT_ARGS, "--fix", "xB"])
    assert code == 1
    assert "--fix" in err or "xB" in err


def test_minimax_rejects_repeated_fix(cli):
    code, out, err = cli(["minimax", *SPOT_ARGS, "--fix", "xB=1", "--fix", "xB=2"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: --fix may be given once")
    assert err.count("\n") == 1


def test_minimax_grid_validation(cli):
    code, _, err = cli(["minimax", *SPOT_ARGS, "--grid-points", "2"])
    assert code == 1
    assert "at least 3" in err


@pytest.mark.parametrize("value", ["-1/2", "-1e3", "-0.5"])
def test_minimax_negative_grid_lo(cli, value):
    code, out, err = cli(["minimax", *SPOT_ARGS, "--grid-lo", value, "--format", "csv"])
    assert (code, err) == (0, "")
    assert parse_csv(out)[0]["grid_lo"] == format_rational(Fraction(value))
    attached = cli(["minimax", *SPOT_ARGS, f"--grid-lo={value}", "--format", "csv"])
    assert attached == (code, out, err)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_minimax_billion_point_grid_is_fast(cli, mode):
    start = time.perf_counter()
    code, out, _ = cli(["minimax", *SPOT_ARGS, "--grid-points", "1000000001", "--mode", mode])
    assert code == 0
    assert "with 1000000001 points" in out and "result: PASS" in out
    assert time.perf_counter() - start < 5


def test_minimax_float_refuses_a_grid_it_cannot_finish(cli):
    # About 4.4e13 indices per chain tie within rounding at 10^20 + 1 points.
    argv = ["minimax", *SPOT_ARGS, "--grid-points", str(10**20 + 1)]
    start = time.perf_counter()
    code, out, err = cli(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: float mode would evaluate ") and err.count("\n") == 1
    assert "use --mode exact" in err
    assert time.perf_counter() - start < 5
    code, out, _ = cli([*argv, "--mode", "exact"])
    assert code == 0 and "result: PASS" in out


def test_minimax_exact_mode(cli):
    code, out, _ = cli(["minimax", *SPOT_ARGS, "--mode", "exact",
                        "--grid-points", "101"])
    assert code == 0
    assert "result: PASS" in out


def test_minimax_failure_exits_2(cli, monkeypatch):
    import triopoly.cli as cli_module
    from triopoly.verify import GridSpec, MinimaxReport

    failing = MinimaxReport(
        payoff_firm="A", max_firm="A", min_firm="C", fixed_firm="B",
        fixed_value=1, base_assignment="QQQ", transform="both", mode="float",
        grid=GridSpec(0, 10, 3), quantities={"min_max_direct": 1.0},
        spread=1.0, tolerance=0.1, passed=False,
    )
    monkeypatch.setattr(cli_module, "minimax_check",
                        lambda params, slice_spec, grid, mode: failing)
    code, out, _ = cli(["minimax", *SPOT_ARGS])
    assert code == 2
    assert "result: FAIL" in out


@pytest.mark.parametrize("command", [[], ["solve"], ["verify"], ["minimax"]], ids=repr)
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_returns_0_with_the_usage_on_stdout(cli, command, flag):
    # argparse exits after printing the help; run_cli returns that exit code instead.
    code, out, err = cli([*command, flag])
    assert code == 0
    assert out.startswith("usage: triopoly")
    assert err == ""


# --- argv fuzz --------------------------------------------------------------------

# Rationals: valid ones, malformed ones, values beyond the float range and the
# int-string limit, and short junk from the characters rationals are made of.
_RATIONAL_TEXTS = st.one_of(
    st.sampled_from(["10", "1/2", "2", "0", "-1/2", "-1e3", "1/0", "x/y", "", " 3 ", "--",
                     "nan", "inf", "1e400", "1e-5000", "2.5", "0x10", "1_0", "1/-2", "63/64"]),
    st.tuples(st.integers(-1000, 1000), st.integers(-3, 1000)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.integers(4290, 4310).map(lambda n: "9" * n),
    st.integers(4290, 4310).map(lambda n: "1/" + "7" * n),
    st.text(alphabet="0123456789/.-+eE_x \n", max_size=10),
)
_JUNK = st.text(alphabet="QPqpABCxyz0123456789=/-. \n", max_size=8)
_OPTIONS = {
    "solve": {
        "--pattern": st.one_of(st.sampled_from(["all", "1", "6", "0", "7", "QPP", "qpq", "QQX",
                                                "QQQQ", "", "ALL", " 2 "]), _JUNK),
        "--mode": st.sampled_from(["exact", "float", "Float", ""]),
        "--format": st.sampled_from(["table", "json", "csv", "xml"]),
    },
    "verify": {
        "--draws": st.sampled_from(["1", "2", "0", "-1", "x", "1.5", ""]),
        "--seed": st.one_of(st.integers(-5, 10**6).map(str), _JUNK),
        "--format": st.sampled_from(["table", "json", "csv", "xml"]),
    },
    "minimax": {
        "--firm": st.sampled_from(["A", "B", "C", "D", "a"]),
        "--fix": st.one_of(st.sampled_from(["xB=1", "xB=114/35", "pB=1", "xC=1", "xA=2",
                                            "xB", "=1", "xB=", "xB=1/0", "xB=1e400",
                                            "xB==1", "xB=-1/2"]), _JUNK),
        "--grid-lo": _RATIONAL_TEXTS,
        "--grid-hi": _RATIONAL_TEXTS,
        "--grid-points": st.sampled_from(["3", "11", "101", "2", "0", "-3", "x", "1e3"]),
        "--mode": st.sampled_from(["exact", "float", ""]),
        "--format": st.sampled_from(["table", "json", "csv", "xml"]),
    },
    "frobnicate": {"--x": _JUNK},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for flag, good in zip(("--a", "--b", "--cA", "--cB", "--cC"), ("10", "1/2", "2", "2", "3")):
        kind = draw(st.sampled_from(["good", "good", "fuzzed", "missing"]))
        if kind != "missing":
            argv += [flag, good if kind == "good" else draw(_RATIONAL_TEXTS)]
    options = _OPTIONS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=3)):
        argv += [flag, draw(options[flag])]
    # A stray token, now and then, and sometimes a request for help.
    return argv + draw(st.lists(st.one_of(_JUNK, st.sampled_from(["-h", "--help"])),
                                max_size=1))


@given(_argv())
@example(["solve", *SPOT_ARGS, "x\ny"])  # argparse echoes an unknown token as given
@example(["minimax", *SPOT_ARGS, "--fix", "xB=1", "--fix", "xB=\r2"])
@settings(max_examples=300, deadline=None)
def test_fuzzed_argv_exits_0_1_or_2_with_one_error_line(argv):
    # Bad input gives exit 1, one "error: " line on stderr and no stdout, whatever
    # the argument; no input ends in a traceback or another exit code.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 1:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
