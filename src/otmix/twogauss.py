"""Population analysis of the symmetric two-Gaussian mixture.

The data density is alpha* N(y; theta*, 1) + (1 - alpha*) N(y; -theta*, 1)
with a single unknown scalar location theta.  All expectations are computed
by Gauss-Hermite quadrature applied to each mixture component (exact change
of variables y = mean + sqrt(2) x), so quadrature error is spectrally small
in the order.  The EM and Sinkhorn-EM population iterates are

    EM:  theta <- F(theta, alpha*)        SEM:  theta <- F(theta, alpha(theta))

where F is the location-update map and alpha(theta) the tilted weight that
balances the transport marginals, found by bisection on the monotone map
G(theta, .).

Note on derivative conventions: the emitted dell/dL columns are the actual
d/dtheta of the ell/L columns, i.e. theta - F(theta, alpha*) and
theta - F(theta, alpha(theta)); they match central finite differences of the
loss columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SQRT_PI = math.sqrt(math.pi)
SQRT2 = math.sqrt(2.0)


@lru_cache(maxsize=16)
def _hermite_nodes(order: int):
    # scipy's Golub-Welsch/asymptotic rule stays stable for large orders,
    # unlike the polynomial-evaluation route
    from scipy.special import roots_hermite
    nodes, weights = roots_hermite(order)
    return nodes, weights / SQRT_PI


@dataclass(frozen=True)
class TwoGaussModel:
    """True parameters theta* > 0, alpha* in (0, 1), and the quadrature order.

    The theory uses the alpha* >= 1/2 convention; alpha* < 1/2 mirrors every
    curve through theta -> -theta and is allowed so the symmetry is testable.
    """

    theta_star: float
    alpha_star: float
    quadrature_order: int = 200

    def __post_init__(self):
        if not self.theta_star > 0:
            raise ValueError("theta_star must be positive")
        if not 0.0 < self.alpha_star < 1.0:
            raise ValueError("alpha_star must lie in (0, 1)")
        if self.quadrature_order < 40:
            raise ValueError("quadrature order must be >= 40")

    def expectation(self, fn) -> float:
        """E[fn(Y)] under the true mixture, via per-component Gauss-Hermite."""
        x, w = _hermite_nodes(self.quadrature_order)
        plus = fn(self.theta_star + SQRT2 * x)
        minus = fn(-self.theta_star + SQRT2 * x)
        return float(
            self.alpha_star * np.dot(w, plus) + (1.0 - self.alpha_star) * np.dot(w, minus)
        )


def _logit_half(alpha: float) -> float:
    return 0.5 * (math.log(alpha) - math.log1p(-alpha))


def map_F(model: TwoGaussModel, theta: float, alpha: float) -> float:
    """Location-update map F(theta, alpha) = E[Y tanh(theta Y + logit(alpha)/2)]."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    c = _logit_half(alpha)
    return model.expectation(lambda y: y * np.tanh(theta * y + c))


def map_G(model: TwoGaussModel, theta: float, alpha: float) -> float:
    """First-component responsibility mass G(theta, alpha) = E[Psi_1(Y)]."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    c = _logit_half(alpha)
    return model.expectation(lambda y: 0.5 * (1.0 + np.tanh(theta * y + c)))


def solve_tilt(model: TwoGaussModel, theta: float) -> float:
    """Tilted weight alpha(theta) solving G(theta, alpha) = alpha*, to 1e-12.

    G is strictly increasing in alpha with range (0, 1), so bisection on
    [1e-15, 1 - 1e-15] always brackets the unique root.
    """
    lo, hi = 1e-15, 1.0 - 1e-15
    target = model.alpha_star
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if map_G(model, theta, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PopulationIterates:
    """Iterate trace of a population fixed-point run plus the geometric bound."""

    theta_trace: np.ndarray
    rho_bound: float


def population_iterates(
    model: TwoGaussModel, method: str, theta0: float, steps: int
) -> PopulationIterates:
    """Run EM or SEM population iterates from theta0 for the given step count.

    rho_bound = exp(-min(theta0, theta*)^2 / 2) is the proven contraction
    factor for positive starts.
    """
    if method not in ("em", "sem"):
        raise ValueError("method must be 'em' or 'sem'")
    trace = [float(theta0)]
    theta = float(theta0)
    for _ in range(steps):
        if method == "sem":
            theta = map_F(model, theta, solve_tilt(model, theta))
        else:
            theta = map_F(model, theta, model.alpha_star)
        trace.append(theta)
    rho = math.exp(-min(theta0, model.theta_star) ** 2 / 2.0) if theta0 > 0 else float("nan")
    return PopulationIterates(theta_trace=np.asarray(trace), rho_bound=rho)


def _neg_loglik_pop(model: TwoGaussModel, theta: float, alpha: float) -> float:
    """Population NLL of the two-Gaussian family at (theta, alpha)."""

    def neg_log_q(y):
        # log q = log phi(y) - theta^2/2 + logaddexp(log a + t y, log(1-a) - t y)
        log_phi = -0.5 * y * y - 0.5 * math.log(2.0 * math.pi)
        mix = np.logaddexp(math.log(alpha) + theta * y, math.log1p(-alpha) - theta * y)
        return -(log_phi - 0.5 * theta * theta + mix)

    return model.expectation(neg_log_q)


def loss_population(model: TwoGaussModel, theta: float) -> tuple[float, float, float]:
    """(ell, L, alpha(theta)) at one theta.

    ell is the population NLL at the true weights; L subtracts the relative
    entropy between the true and tilted weights from the tilted NLL, which
    matches the semi-dual value of the entropic loss.
    """
    a_star = model.alpha_star
    ell = _neg_loglik_pop(model, theta, a_star)
    a_t = solve_tilt(model, theta)
    h = a_star * (math.log(a_star) - math.log(a_t)) + (1 - a_star) * (
        math.log1p(-a_star) - math.log1p(-a_t)
    )
    big_l = _neg_loglik_pop(model, theta, a_t) - h
    return ell, big_l, a_t


def loss_curves(model: TwoGaussModel, theta_grid) -> dict:
    """Loss and derivative curves over a grid of theta values.

    Returns columns theta, ell, L, dell, dL, alpha_tilt, with
    dell = theta - F(theta, alpha*) and dL = theta - F(theta, alpha(theta)).
    """
    grid = np.asarray(theta_grid, dtype=float)
    ell, big_l, tilt = np.array([loss_population(model, th) for th in grid]).reshape(-1, 3).T
    dell = grid - np.array([map_F(model, th, model.alpha_star) for th in grid])
    d_big_l = grid - np.array([map_F(model, th, a_t) for th, a_t in zip(grid, tilt)])
    return {"theta": grid, "ell": ell, "L": big_l, "dell": dell, "dL": d_big_l, "alpha_tilt": tilt}


def count_stationary(derivative_values) -> int:
    """Number of sign changes of a derivative column along the grid."""
    v = np.asarray(derivative_values, dtype=float)
    signs = np.sign(v)
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] * signs[:-1] < 0))


def write_curves_csv(path, curves: dict) -> None:
    """Plot-ready CSV with columns theta, ell, L, dell, dL, alpha_tilt."""
    cols = ["theta", "ell", "L", "dell", "dL", "alpha_tilt"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(len(curves["theta"])):
            fh.write(",".join(repr(float(curves[c][i])) for c in cols) + "\n")
