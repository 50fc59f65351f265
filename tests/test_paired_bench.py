"""The verdict rule of tools/paired_bench.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
_SPEC = importlib.util.spec_from_file_location("paired_bench", _PATH)
paired_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired_bench)
verdict = paired_bench.verdict

BASE = [25.0, 24.0, 26.0, 25.5, 24.5, 25.2, 24.8, 26.2, 23.8, 25.1]


def test_ten_of_ten_wins_beyond_the_iqr_is_a_gain():
    result = verdict(BASE, [b + 3 for b in BASE], "higher", 0.25)
    assert (result["wins"], result["pairs"], result["verdict"]) == (10, 10, "gain")
    assert result["base_quartiles"][1] == pytest.approx(25.05)
    assert result["median_change"] == pytest.approx(3 / 25.05)


def test_nine_of_ten_wins_is_enough_eight_is_not():
    nine = [b + 3 for b in BASE[:9]] + [BASE[9] - 1]
    assert verdict(BASE, nine, "higher", 0.25)["verdict"] == "gain"
    eight = [b + 3 for b in BASE[:8]] + [BASE[8], BASE[9] - 1]  # a tie counts for neither side
    result = verdict(BASE, eight, "higher", 0.25)
    assert (result["wins"], result["verdict"]) == (8, "no claim")


def test_a_median_gain_within_the_base_iqr_is_no_claim():
    result = verdict(BASE, [b + 0.2 for b in BASE], "higher", 0.25)
    assert result["wins"] == 10 and result["base_iqr"] > 0.2
    assert result["verdict"] == "no claim"


def test_lower_is_better_metrics_count_a_drop_as_a_win():
    times = [40.0, 41.0, 39.0, 40.5, 39.5, 40.2, 39.8, 41.2, 38.8, 40.1]
    assert verdict(times, [t - 5 for t in times], "lower", 0.25)["verdict"] == "gain"
    assert verdict(times, [t + 11 for t in times], "lower", 0.25)["verdict"] == "worse"
    assert verdict(times, [t + 9 for t in times], "lower", 0.25)["verdict"] == "no claim"


def test_worse_beyond_the_bound():
    assert verdict(BASE, [b * 0.7 for b in BASE], "higher", 0.25)["verdict"] == "worse"
    assert verdict([1.0] * 4, [1.0] * 4, "higher", 0.001)["verdict"] == "no claim"


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        verdict(BASE, BASE[:9], "higher", 0.25)
    with pytest.raises(ValueError):
        verdict([], [], "higher", 0.25)



# Runs that range over 40% of their median, 25, with quartiles 21.75 and 28.25.
WIDE = [20.0, 21.0, 22.0, 23.0, 24.0, 26.0, 27.0, 28.0, 29.0, 30.0]


def test_a_spread_wider_than_the_bound_is_unresolved():
    # Every pair won, but by less than the IQR, and the runs overlap.
    result = verdict(WIDE, [w + 1 for w in WIDE], "higher", 0.25)
    assert (result["wins"], result["spread"]) == (10, pytest.approx(0.4))
    assert result["verdict"] == "unresolved"
    assert verdict(WIDE, [w - 1 for w in WIDE], "lower", 0.25)["verdict"] == "unresolved"
    assert verdict(WIDE, [w + 1 for w in WIDE], "higher", 0.5)["verdict"] == "no claim"


def test_the_same_spread_with_every_change_run_better_is_resolved():
    # The base's runs spread as wide, but every change run beats every base run.
    ahead = [30.5 + 0.1 * k for k in range(10)]
    result = verdict(WIDE, ahead, "higher", 0.25)
    assert result["spread"] == pytest.approx(0.4) and result["wins"] == 10
    assert sorted(ahead)[4] - 25 < result["base_iqr"]  # and yet no gain
    assert result["verdict"] == "no claim"
    behind = [19.5 - 0.1 * k for k in range(10)]
    assert verdict(WIDE, behind, "lower", 0.25)["verdict"] == "no claim"
