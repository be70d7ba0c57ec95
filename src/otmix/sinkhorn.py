"""Entropic-OT E-step: stabilised Sinkhorn between mixture atoms and data.

The transport problem couples the atomic measure on the K components
(masses alpha_k) with the uniform empirical measure on the N data points
(mass 1/N each), under the cost C_ik = -log q_{theta_k}(Y_i).  Because the
component side is atomic, a single K-vector of dual potentials omega fully
describes the optimal plan: the conditional responsibilities are vanilla
responsibilities under the tilted weights

    alpha_k(omega) = alpha_k exp(omega_k) / sum_k' alpha_k' exp(omega_k'),

and the potentials solve the column-marginal equation
mean_i Psi_ik(omega) = alpha_k by Sinkhorn scaling with the data-side potential
eliminated.  An absorption pass builds the plan P at omega0 in log space, so
cost entries beyond +-700 are harmless; later scaling steps take the column
means s (P^T 1/(P s)) / N, s = e^{omega - omega0}, until omega strays ABSORB_BOUND.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mixtures import (
    Dataset,
    MixtureParams,
    Responsibilities,
    _moments,
    _require_at_least,
    _softmax_rows,
    _weighted_sq_deviation,
    component_log_densities,
    neg_loglik,
)


# Geometric-tail extrapolation: on near-saturated plans successive updates run
# near parallel (cosine > TAIL_COSINE) and shrink by a steady ratio in
# (TAIL_RATIO_LOW, TAIL_RATIO_HIGH), so the remaining ratio / (1 - ratio)
# updates are taken in one jump of at most TAIL_MAX_JUMP.  MARGINAL_FLOOR
# keeps the log of an underflowed column marginal finite.
TAIL_COSINE = 0.999
TAIL_RATIO_LOW = 0.8
TAIL_RATIO_HIGH = 0.9999
TAIL_MAX_JUMP = 2000.0
MARGINAL_FLOOR = 1e-300
# Scaling steps reuse the plan absorbed at omega0 while |omega - omega0| <= ABSORB_BOUND:
# an entry that underflowed (below e^-708 in a row whose largest entry is >= 1/K)
# then carries relative mass below K e^{-(708 - 2 ABSORB_BOUND)}.
ABSORB_BOUND = 50.0


class SinkhornNonConvergence(UserWarning):
    """Marginal tolerance not reached within max_iterations (non-fatal)."""


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver knobs; defaults follow the experiment protocol (tol 1e-3, 1000 iters)."""

    tolerance: float = 1e-3
    max_iterations: int = 1000

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance:g}")
        _require_at_least(max_iterations=(self.max_iterations, 1))


def tilt_weights(weights: np.ndarray, potentials: np.ndarray) -> np.ndarray:
    """Tilted weights alpha_k e^{omega_k} / sum_k' alpha_k' e^{omega_k'}."""
    tilted = (np.log(weights) + potentials)[None, :]
    _, total = _softmax_rows(tilted)
    return tilted[0] / total[0]


@dataclass(frozen=True)
class SinkhornSolution:
    """Dual potentials, transport plan, and solve diagnostics, all at one point.

    Converged or not, the plan is the row softmax of log_kernel + log(weights)
    + potentials, `marginal_error` its column means' distance to the weights,
    and `log_partition` its row log normalisers log sum_k alpha_k e^{omega_k}
    K_ik.  The tilted weights are `tilt_weights(weights, potentials)`.
    """

    potentials: np.ndarray
    responsibilities: Responsibilities
    marginal_error: float
    iterations: int
    converged: bool
    log_partition: np.ndarray


def transport_responsibilities(
    log_kernel: np.ndarray,
    weights: np.ndarray,
    cfg: SinkhornConfig,
    initial_potentials: np.ndarray | None = None,
) -> SinkhornSolution:
    """Solve the semi-dual marginal equations on an arbitrary (N, K) log kernel.

    Returns the conditional plan row-normalized per data point, with column
    means matching `weights` up to cfg.tolerance in L-infinity norm.  Warns
    (never raises) on non-convergence so sweeps can proceed.
    """
    log_kernel = np.asarray(log_kernel, dtype=float)
    n, k = log_kernel.shape
    weights = np.asarray(weights, dtype=float)
    log_w = np.log(weights)
    omega = np.zeros(k) if initial_potentials is None else np.array(initial_potentials, dtype=float)
    if omega.shape != (k,):
        raise ValueError("initial potentials must be a K-vector")

    converged = False
    iterations = 0
    buf = np.empty_like(log_kernel)
    absorbed = np.full(k, np.inf)  # the potentials of the plan in buf; none yet
    prev_update = None
    prev_error = np.inf
    boosted = False
    prev_omega = omega
    for iterations in range(1, cfg.max_iterations + 1):
        plan_omega = omega  # the point of this pass's plan, and of the solution
        step = omega - absorbed
        if not np.abs(step).max() <= ABSORB_BOUND:
            # absorption pass: the normalised plan at omega, in log space
            np.add(log_kernel, (log_w + omega)[None, :], out=buf)
            row_max, row_sum = _softmax_rows(buf)
            buf /= row_sum[:, None]
            marginal = np.add.reduce(buf, axis=0) / n
            absorbed, scaling = omega, None
        else:
            # scaling step: the plan at omega is buf * scaling / row_scale
            scaling = np.exp(step)
            row_scale = buf @ scaling
            marginal = scaling * (buf.T @ (1.0 / row_scale)) / n
        error = float(np.abs(marginal - weights).max())
        if error <= cfg.tolerance:
            converged = True
            break
        if boosted and error > prev_error:
            # an extrapolation overshot: fall back to the plain iterate
            omega = prev_omega
            boosted = False
            prev_update = None
            continue
        prev_error = error
        update = log_w - np.log(np.maximum(marginal, MARGINAL_FLOOR))
        prev_omega = omega + update
        omega = prev_omega
        boosted = False
        nu = math.sqrt(update.dot(update))
        if prev_update is not None and nu > 0 and prev_norm > 0:
            # jump the geometric tail (see TAIL_COSINE)
            cos = float(np.dot(update, prev_update)) / (nu * prev_norm)
            ratio = nu / prev_norm
            if cos > TAIL_COSINE and TAIL_RATIO_LOW < ratio < TAIL_RATIO_HIGH:
                omega = omega + min(ratio / (1.0 - ratio), TAIL_MAX_JUMP) * update
                boosted = True
        prev_update, prev_norm = update, nu
        # the potentials are defined up to a constant: pin omega_K = 0
        shift = omega[-1]
        omega = omega - shift
        prev_omega = prev_omega - shift

    if scaling is not None:  # the last pass was a scaling step: build its plan
        buf *= scaling / row_scale[:, None]
        row_sum = row_sum * row_scale
        error = float(np.abs(np.add.reduce(buf, axis=0) / n - weights).max())
        converged = error <= cfg.tolerance
    if not converged:
        warnings.warn(
            f"Sinkhorn did not reach tolerance {cfg.tolerance:g} in "
            f"{cfg.max_iterations} iterations (marginal error {error:.3g})",
            SinkhornNonConvergence,
            stacklevel=2,
        )

    return SinkhornSolution(
        potentials=plan_omega,
        responsibilities=Responsibilities(buf),
        marginal_error=error,
        iterations=iterations,
        converged=converged,
        log_partition=row_max + np.log(row_sum),
    )


def sinkhorn_estep(params: MixtureParams, data: Dataset, cfg: SinkhornConfig) -> SinkhornSolution:
    """Entropic-OT E-step between the mixture atoms and the empirical measure."""
    log_kernel = component_log_densities(params, data.points)
    return transport_responsibilities(log_kernel, params.weights, cfg)


def loss_entropic(
    params: MixtureParams,
    data: Dataset,
    cfg: SinkhornConfig,
    solution: SinkhornSolution | None = None,
) -> float:
    """Sample entropic-OT loss via the tilted decomposition.

    Evaluates ell(theta, alpha(theta)) - H(alpha | alpha(theta)): the negative
    log-likelihood of the model with tilted weights, corrected by the relative
    entropy between the original and tilted weights.  Agrees with the
    semi-dual evaluation for any potentials, optimal or not.
    """
    if solution is None:
        solution = sinkhorn_estep(params, data, cfg)
    alpha = params.weights
    alpha_t = tilt_weights(alpha, solution.potentials)
    tilted = params.with_weights(alpha_t)
    h_term = float(np.sum(alpha * (np.log(alpha) - np.log(alpha_t))))
    return neg_loglik(tilted, data) - h_term


def semidual_value(log_kernel: np.ndarray, weights: np.ndarray, potentials: np.ndarray) -> float:
    """Semi-dual objective on a precomputed log kernel at given potentials.

    sum_k alpha_k omega_k - (1/N) sum_i log sum_k alpha_k e^{omega_k} K_ik.
    """
    row_max, row_sum = _softmax_rows(log_kernel + (np.log(weights) + potentials)[None, :])
    return float(np.dot(weights, potentials) - np.mean(row_max + np.log(row_sum)))


def loss_entropic_semidual(
    params: MixtureParams,
    data: Dataset,
    cfg: SinkhornConfig,
    solution: SinkhornSolution | None = None,
) -> float:
    """Sample entropic-OT loss via the semi-dual objective at the solved potentials."""
    if solution is None:
        solution = sinkhorn_estep(params, data, cfg)
    log_kernel = component_log_densities(params, data.points)
    return semidual_value(log_kernel, params.weights, solution.potentials)


@dataclass(frozen=True)
class EntropicGradient:
    """Gradient of the entropic loss; variances is None when they are fixed."""

    locations: np.ndarray
    variances: np.ndarray | None = None


def grad_loss_entropic(
    params: MixtureParams,
    data: Dataset,
    cfg: SinkhornConfig,
    solution: SinkhornSolution | None = None,
) -> EntropicGradient:
    """Analytic gradient of the entropic loss at frozen tilted weights.

    By the envelope identity, the gradient of the loss in theta equals the
    gradient of the tilted negative log-likelihood, whose responsibilities
    are exactly the transport plan.
    """
    if solution is None:
        solution = sinkhorn_estep(params, data, cfg)
    design, centre = _moments(data.points)
    stats = design @ solution.responsibilities.matrix  # (2d+1, K): [S2; S1; mass]
    mass = stats[-1]
    shift = params.locations - centre
    var = params.variance_matrix()  # (K, d)
    grad_loc = (mass[:, None] * shift - stats[data.dim:-1].T) / var / data.n

    grad_var = None
    if not params.variances.fixed:
        # d(-log q)/d v per entry: 1/(2v) - (y - theta)^2 / (2 v^2)
        wsq = _weighted_sq_deviation(stats, shift)
        g_diag = (mass[:, None] / var - wsq / (var * var)) / (2.0 * data.n)  # (K, d)
        grad_var = params.variances.pool(g_diag)
    return EntropicGradient(locations=grad_loc, variances=grad_var)

