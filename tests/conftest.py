import importlib
import pkgutil

import numpy as np
import pytest

import otmix
from otmix import Dataset, MixtureParams, VarianceSpec, sample_mixture

# Hypothesis draws some examples from the literal constants of every non-test
# module in sys.modules, so a property test's draws would depend on which otmix
# modules the tests collected before it happened to import.  Importing them all
# here gives a test the same draws alone and in a full run.  The tools and
# perfbench modules that tests load by path stay out of sys.modules.
for _module in pkgutil.iter_modules(otmix.__path__):
    importlib.import_module(f"otmix.{_module.name}")


def random_params(rng, k=None, d=None, kind=None, fixed=True, spread=2.0):
    """Random mixture parameters with moderate separation and sane variances."""
    k = k or int(rng.integers(1, 11))
    d = d or int(rng.integers(1, 6))
    kind = kind or rng.choice(["shared", "spherical", "diagonal"])
    locations = rng.uniform(-spread, spread, size=(k, d))
    if kind == "shared":
        spec = VarianceSpec.shared(float(rng.uniform(0.05, 1.5)), fixed=fixed)
    elif kind == "spherical":
        spec = VarianceSpec.spherical(rng.uniform(0.05, 1.5, size=k), fixed=fixed)
    else:
        spec = VarianceSpec.diagonal(rng.uniform(0.05, 1.5, size=(k, d)), fixed=fixed)
    weights = rng.dirichlet(np.full(k, 5.0))
    weights = np.maximum(weights, 1e-6)
    weights /= weights.sum()
    return MixtureParams(locations, spec, weights)


def random_instance(rng, k=None, d=None, n=None, kind=None, fixed=True):
    """A (params, data) pair where data is drawn from a nearby mixture."""
    params = random_params(rng, k=k, d=d, kind=kind, fixed=fixed)
    n = n or int(rng.integers(20, 501))
    data = sample_mixture(params, n, rng)
    return params, data


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)
