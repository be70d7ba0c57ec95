"""The summary rule of tools/pair_compare.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def pair_compare():
    """tools/pair_compare.py, loaded by path: tools is not a package."""
    path = Path(__file__).resolve().parent.parent / "tools" / "pair_compare.py"
    spec = importlib.util.spec_from_file_location("pair_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_counts_wins_in_each_metrics_direction(pair_compare):
    parent = [{"t": 10.0, "rate": 4.0}, {"t": 11.0, "rate": 5.0},
              {"t": 12.0, "rate": 6.0}, {"t": 13.0, "rate": 7.0}]
    change = [{"t": 9.0, "rate": 4.0}, {"t": 11.0, "rate": 6.0},
              {"t": 10.0, "rate": 5.0}, {"t": 12.5, "rate": 8.0}]
    summary = pair_compare.summarize({"parent": parent, "change": change},
                                     {"t": "lower", "rate": "higher"})
    t = summary["t"]
    # quartiles by statistics.quantiles' default (exclusive) method
    assert t["parent"] == {"q1": 10.25, "median": 11.5, "q3": 12.75,
                           "runs": [10.0, 11.0, 12.0, 13.0]}
    assert t["change"]["median"] == 10.5
    assert t["median_gap"] == -1.0
    assert t["parent_spread"] == 2.5
    # 9 < 10, 10 < 12 and 12.5 < 13 win; the tie at 11 wins nothing
    assert t["change_better_pairs"] == 3
    # higher is better: 6 > 5 and 8 > 7 win, 5 < 6 loses, the tie at 4 wins nothing
    assert summary["rate"]["change_better_pairs"] == 2
    assert summary["rate"]["median_gap"] == 0.0

