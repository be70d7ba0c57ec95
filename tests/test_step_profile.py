"""tools/step_profile.py end to end, at a tiny size."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def step_profile():
    """tools/step_profile.py, loaded by path: tools is not a package."""
    spec = importlib.util.spec_from_file_location("step_profile", ROOT / "tools" / "step_profile.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profiles_every_piece_of_both_steps(step_profile):
    out = step_profile.run(ROOT, k=3, n=60, fits=2, repeats=2, number=2)
    assert out["cell"] == {"k": 3, "d": 2, "n": 60, "sigma2": 0.1}
    assert list(out["em"]) == ["kernel", "solve", "responsibilities", "mstep", "params", "change",
                               "step"]
    assert list(out["sem"]) == ["kernel", "solve", "responsibilities", "losses", "mstep", "params",
                                "change", "step", "solve_iterations"]
    for method in ("em", "sem"):
        for piece, times in out[method].items():
            if piece == "solve_iterations":
                assert len(times) == 2 and all(i >= 1 for i in times)
                continue
            assert len(times["fits"]) == 2 and all(math.isfinite(t) for t in times["fits"])
            # the step is a difference of two timings; every other piece is one
            assert piece == "step" or min(times["fits"]) > 0


def test_bad_usage_exits_2(step_profile, tmp_path):
    assert step_profile.main([]) == 2
    assert step_profile.main([str(tmp_path)]) == 2
