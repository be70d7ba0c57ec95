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
eliminated.  The solver is one loop, and each iteration evaluates one trial
point omega and takes it or rejects it.  An absorption pass builds the plan P
at omega0 in log space, so cost entries beyond +-700 are harmless; a trial
within ABSORB_BOUND of omega0 takes the column means m of its plan in scaling
form, m = s (P^T 1/(P s)) / N with s = e^{omega - omega0}, and any other trial
is a new absorption pass.  The first trial is the start, and the next
SCALING_BUDGET - 1 are Sinkhorn updates omega + log alpha - log m, pinned so
omega_K = 0.  Later trials are Levenberg-Newton steps on the semi-dual, after
Brauer, Clason, Lorenz and Wirth, "A Sinkhorn-Newton method for entropic
optimal transport" (2017), with a Sinkhorn update where a Newton step would
stall.  An iteration is one trial, and `max_iterations` caps them all,
rejected trials included.  Column means are the matrix-vector product
1^T P / N, which BLAS sums faster than numpy's reduction.  The plan and its
spare buffer are column-major whatever the kernel's layout, as in
`mixtures`, so the row softmax of a pass runs along the N data points of
each column; a row-major kernel costs one transposing add per pass.
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


# A column whose mass is at most MARGINAL_FLOOR is empty: the Sinkhorn update
# then takes log m from the log plan, and no Newton step is tried.
MARGINAL_FLOOR = 1e-300
# Scaling steps reuse the plan absorbed at omega0 while |omega - omega0| <= ABSORB_BOUND:
# an entry that underflowed (below e^-708 in a row whose largest entry is >= 1/K)
# then carries relative mass below K e^{-(708 - 2 ABSORB_BOUND)}.
ABSORB_BOUND = 50.0
# Trials before a solve may take Newton steps: a solve that converges within
# them returns the Sinkhorn iterates' bits.  Warm solves mostly converge in one
# or two; a slow solve gains little from more Sinkhorn updates and much from
# reaching the Newton steps early.
SCALING_BUDGET = 5
# The Newton steps' Levenberg factor mu starts at 1 and stays within
# [LEVENBERG_MIN, LEVENBERG_MAX]; after MAX_REJECTIONS rejected trials in a row
# the next trial is a Sinkhorn update.
LEVENBERG_MIN = 1e-6
LEVENBERG_MAX = 1e6
MAX_REJECTIONS = 3


class SinkhornNonConvergence(UserWarning):
    """Marginal tolerance not reached within max_iterations (non-fatal)."""


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver knobs; defaults follow the experiment protocol (tol 1e-3, 1000 iters).

    max_iterations caps the trials of the solver loop, each one pass over the
    plan (in scaling form on the absorbed plan, or a log-space pass), rejected
    Newton trials included.
    """

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
    (never raises) on non-convergence so sweeps can proceed.  Bad input raises
    a ValueError that names its argument; a NaN plan at the (finite) start
    names `log_kernel`, so a NaN kernel fails on its first pass, and a kernel
    column that is -inf in every row fails, named, at its first Sinkhorn
    update.

    The trials after the first SCALING_BUDGET are Levenberg-Newton steps on the
    semi-dual S(omega) = alpha . omega - mean(lse) in the K - 1 free potentials
    (omega_K stays).  The gradient is g = alpha - m and the negative Hessian
    diag(m) - Psi^T Psi / N, one GEMM per taken point: Psi^T Psi =
    (c^T c) * s s^T, c = plan / r.  The step d solves it plus mu |g| I, its
    largest entry clipped to ABSORB_BOUND.  A Newton trial is taken when S
    rises (on a tie in S, when the marginal error falls) or the tolerance is
    met; mu is then quartered, and otherwise quadrupled.  Only Newton trials
    evaluate S, in scaling form alpha . omega - (sum lse0 + sum log r) / N.
    After MAX_REJECTIONS rejections in a row, or from a plan with an empty
    column (where the Hessian says nothing), the trial is a Sinkhorn update
    instead, with log m taken from the log plan column by column where a
    column is empty.  A Sinkhorn update never lowers S and is always taken.
    """
    log_kernel = np.asarray(log_kernel, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if log_kernel.ndim != 2 or not log_kernel.size:
        raise ValueError(f"log_kernel must be a non-empty (N, K) array, got {log_kernel.shape}")
    n, k = log_kernel.shape
    if weights.shape != (k,):
        raise ValueError(f"weights must have shape ({k},) to match log_kernel, got {weights.shape}")
    if not weights.min() > 0:
        raise ValueError(f"weights must be positive, got a smallest weight of {weights.min():g}")
    log_w = np.log(weights)
    trial = np.zeros(k) if initial_potentials is None else np.array(initial_potentials, dtype=float)
    if trial.shape != (k,) or not np.isfinite(trial).all():
        raise ValueError(f"initial_potentials must be a finite ({k},) vector, got {trial}")

    converged, rejected, mu = False, 0, 1.0
    plan = spare = hessian = value = None
    absorbed = np.full(k, np.inf)  # the potentials of the absorbed plan; none yet
    for iterations in range(1, cfg.max_iterations + 1):
        newton = (iterations > SCALING_BUDGET and rejected < MAX_REJECTIONS
                  and marginal.min() > MARGINAL_FLOOR)
        if newton:
            if hessian is None:  # once per taken point
                c = plan / row_scale[:, None]
                hessian = ((c.T @ c) * scaling * scaling[:, None])[:-1, :-1] / -n
                hessian.flat[::k] += marginal[:-1]
            if value is None:  # S at a point a Sinkhorn update reached
                lse0 = (row_max + np.log(row_sum)).sum()
                value = weights.dot(omega) - (lse0 + np.log(row_scale).sum()) / n
            grad = weights - marginal
            free = hessian.copy()
            free.flat[::k] += mu * math.sqrt(grad.dot(grad))
            step = np.concatenate((np.linalg.solve(free, grad[:-1]), [0.0]))
            step *= ABSORB_BOUND / np.abs(step).max(initial=ABSORB_BOUND)
            trial = omega + step
        elif iterations > 1:  # a Sinkhorn update
            if marginal.min() > MARGINAL_FLOOR:
                log_m = np.log(marginal)
            else:  # an empty column: log m from the log plan, column by column
                logits = log_kernel - (row_max + np.log(row_sum * row_scale))[:, None]
                logits += log_w + omega
                col_max = logits.max(axis=0)
                if col_max.min() == -np.inf:
                    raise ValueError(f"log_kernel column {int(col_max.argmin())} is -inf in "
                                     "every row: that component can take no mass")
                log_m = col_max + np.log(np.ones(n) @ np.exp(logits - col_max) / n)
            trial = omega + (log_w - log_m)
            trial -= trial[-1]

        t_step = trial - absorbed
        absorb = not np.abs(t_step).max() <= ABSORB_BOUND
        if absorb:  # the normalised plan at the trial, in log space, into the spare buffer
            spare = np.empty((n, k), order="F") if spare is None else spare
            t_max, t_sum, t_marginal = _log_domain_pass(log_kernel, log_w + trial, spare)
            t_scaling = t_scale = None
        else:  # the plan at the trial is plan * t_scaling / t_scale
            t_scaling, t_scale, t_marginal = _scaling_step(plan, t_step)
        t_error = float(np.abs(t_marginal - weights).max())
        if iterations == 1 and math.isnan(t_error):  # the start is finite: the kernel is not
            raise ValueError("log_kernel has a NaN or +inf entry or an all -inf row: NaN plan")
        if newton:
            t_lse = (t_max + np.log(t_sum)).sum() if absorb else lse0 + np.log(t_scale).sum()
            t_value = weights.dot(trial) - t_lse / n
            if not (t_error <= cfg.tolerance or t_value > value
                    or (t_value == value and t_error < error)):
                mu = min(mu * 4.0, LEVENBERG_MAX)
                rejected += 1
                continue
            mu = max(mu / 4.0, LEVENBERG_MIN)
            lse0, value = (t_lse if absorb else lse0), t_value
        else:
            value = None
        rejected, hessian = 0, None
        if absorb:
            plan, spare, absorbed, row_max, row_sum = spare, plan, trial, t_max, t_sum
        omega, scaling, row_scale, marginal, error = trial, t_scaling, t_scale, t_marginal, t_error
        if error <= cfg.tolerance:
            converged = True
            break
        if absorb:  # the plan at omega is the absorbed plan, for the steps that scale it
            scaling, row_scale = np.ones(k), np.ones(n)

    if omega is not absorbed:  # the taken point is a scaled one: build its plan
        plan *= scaling / row_scale[:, None]
        row_sum = row_sum * row_scale
        marginal = np.ones(n) @ plan / n
        error = float(np.abs(marginal - weights).max())
        converged = error <= cfg.tolerance
    if not converged:
        warnings.warn(
            f"Sinkhorn did not reach tolerance {cfg.tolerance:g} in "
            f"{cfg.max_iterations} iterations (marginal error {error:.3g})",
            SinkhornNonConvergence,
            stacklevel=2,
        )

    return SinkhornSolution(
        potentials=omega,
        responsibilities=Responsibilities(plan),
        marginal_error=error,
        iterations=iterations,
        converged=converged,
        log_partition=row_max + np.log(row_sum),
    )


def _log_domain_pass(log_kernel: np.ndarray, shift: np.ndarray, out: np.ndarray):
    """The plan at log weights + potentials `shift`, the row softmax of log_kernel + shift,
    into `out`; returns its row maxima, shifted row sums and column means."""
    np.add(log_kernel, shift[None, :], out=out)
    row_max, row_sum = _softmax_rows(out)
    out /= row_sum[:, None]
    return row_max, row_sum, np.ones(len(out)) @ out / len(out)


def _scaling_step(plan: np.ndarray, step: np.ndarray):
    """Scaling e^step, row scale r and column means of the absorbed `plan` moved by `step`."""
    scaling = np.exp(step)
    row_scale = plan @ scaling
    return scaling, row_scale, scaling * (plan.T @ (1.0 / row_scale)) / len(plan)


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
    shifted = np.add(log_kernel, np.log(weights) + potentials, order="F")
    row_max, row_sum = _softmax_rows(shifted)
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

