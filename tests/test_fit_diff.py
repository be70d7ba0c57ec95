"""The comparison rule of tools/fit_diff.py, on made-up outputs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def fit_diff():
    """tools/fit_diff.py, loaded by path: tools is not a package."""
    path = Path(__file__).resolve().parent.parent / "tools" / "fit_diff.py"
    spec = importlib.util.spec_from_file_location("fit_diff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outputs(values: dict) -> dict:
    """{key: JSON text}, as the child process prints them."""
    return {key: json.dumps(value) for key, value in values.items()}


def test_identical_outputs_read_as_identical(fit_diff):
    outputs = _outputs({"fit/params": [[0.1, -2.5], 0.3],
                        "file/results.csv": [["K", "ell"], [3, 1.5]]})
    assert fit_diff.compare(outputs, dict(outputs)) == (list(outputs), {}, [])
    assert fit_diff.report(outputs, dict(outputs)) == 0


@pytest.mark.parametrize("before, after, gap", [
    (1.0, math.nextafter(1.0, 2.0), 2.0 ** -52),
    (-0.0, 0.0, 0.0),
    ({"means": [[0.5, 2.0]], "iterations": 7}, {"means": [[0.5, 2.25]], "iterations": 7}, 0.25),
])
def test_float_changes_read_as_moved(fit_diff, before, after, gap):
    parent, change = _outputs({"a/trace": before}), _outputs({"a/trace": after})
    identical, moved, mismatched = fit_diff.compare(parent, change)
    assert (identical, mismatched) == ([], [])
    assert moved["a/trace"][0] == gap
    assert fit_diff.report(parent, change) == 0


@pytest.mark.parametrize("parent, change", [
    ({"a/flags": [100, False, 0.25]}, {"a/flags": [30, False, 0.25]}),
    ({"a": [[0.5], []]}, {"a": [["raised", "EmptyBlockError", "block (0, 1)"], []]}),
    ({"a/params": [0.5], "b/params": [1.5]}, {"a/params": [0.5]}),
])
def test_other_changes_read_as_mismatches(fit_diff, parent, change):
    parent, change = _outputs(parent), _outputs(change)
    identical, moved, mismatched = fit_diff.compare(parent, change)
    assert moved == {} and len(mismatched) == 1
    assert fit_diff.report(parent, change) == 1


def test_literal_pool_changes_are_listed_per_module(fit_diff, capsys):
    parent = _outputs({"hypothesis/literals": {"otmix": [], "otmix.a": [0.5, 1, "nan"],
                                               "otmix.b": [2.0]}})
    change = _outputs({"hypothesis/literals": {"otmix": [], "otmix.a": [0.5, 1.0, "log_kernel"],
                                               "otmix.b": [2.0], "otmix.c": [3]}})
    assert fit_diff.literal_changes(parent["hypothesis/literals"],
                                    change["hypothesis/literals"]) == {
        "otmix.a": ([1.0, "log_kernel"], [1, "nan"]), "otmix.c": ([3], [])}
    assert fit_diff.report(parent, change) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["mismatch: hypothesis/literals",
                          "literals of otmix.a: added [1.0, 'log_kernel'], removed [1, 'nan']",
                          "literals of otmix.c: added [3], removed []"]
