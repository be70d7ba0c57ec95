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
eliminated.  Each scaling iteration takes the column means m of the plan at
omega and updates omega <- omega + log alpha - log m, pinned so omega_K = 0.
An absorption pass builds the plan P at omega0 in log space, so cost entries
beyond +-700 are harmless; later iterations take m = s (P^T 1/(P s)) / N,
s = e^{omega - omega0}, until omega strays ABSORB_BOUND.  A solve still
unconverged after SCALING_BUDGET such iterations finishes with Levenberg-Newton
ascent on the semi-dual (`_newton_finish`), each trial step a trial in scaling
form on the absorbed plan, or a log-space pass.  An iteration is one pass over
the plan, a scaling step or a log-space pass, and `max_iterations` caps them
all.  Column means are the matrix-vector product 1^T P / N, which BLAS sums
faster than numpy's reduction.
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


# MARGINAL_FLOOR keeps the log of an underflowed column marginal finite.
MARGINAL_FLOOR = 1e-300
# Scaling steps reuse the plan absorbed at omega0 while |omega - omega0| <= ABSORB_BOUND:
# an entry that underflowed (below e^-708 in a row whose largest entry is >= 1/K)
# then carries relative mass below K e^{-(708 - 2 ABSORB_BOUND)}.
ABSORB_BOUND = 50.0
# Scaling iterations before a solve switches to the Newton finish: a solve that
# converges within them returns the scaling iterates' bits.  Warm solves mostly
# converge in one or two; a slow solve gains little from more plain steps and
# much from reaching the finish early.
SCALING_BUDGET = 5
# The Newton finish's Levenberg factor mu starts at 1 and stays within
# [LEVENBERG_MIN, LEVENBERG_MAX]; after MAX_REJECTIONS rejected trials in a row
# it takes one Sinkhorn update instead.
LEVENBERG_MIN = 1e-6
LEVENBERG_MAX = 1e6
MAX_REJECTIONS = 3


class SinkhornNonConvergence(UserWarning):
    """Marginal tolerance not reached within max_iterations (non-fatal)."""


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver knobs; defaults follow the experiment protocol (tol 1e-3, 1000 iters).

    max_iterations caps the passes over the plan: the plain scaling iterations
    and, past SCALING_BUDGET of them, every trial of the Newton finish (a trial
    in scaling form on the absorbed plan, or a log-space pass), rejected trial
    steps included.
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
    for iterations in range(1, min(cfg.max_iterations, SCALING_BUDGET) + 1):
        plan_omega = omega  # the point of this pass's plan, and of the solution
        step = omega - absorbed
        if not np.abs(step).max() <= ABSORB_BOUND:
            # absorption pass: the normalised plan at omega, in log space
            row_max, row_sum, marginal = _log_domain_pass(log_kernel, log_w + omega, buf)
            absorbed, scaling, row_scale = omega, None, None
        else:
            # scaling step: the plan at omega is buf * scaling / row_scale
            scaling, row_scale, marginal = _scaling_step(buf, step)
        error = float(np.abs(marginal - weights).max())
        if error <= cfg.tolerance:
            converged = True
            break
        omega = omega + (log_w - np.log(np.maximum(marginal, MARGINAL_FLOOR)))
        # the potentials are defined up to a constant: pin omega_K = 0
        omega = omega - omega[-1]

    if not converged and iterations < cfg.max_iterations:
        plan_omega, buf, row_max, row_sum, scaling, row_scale, passes = _newton_finish(
            log_kernel, weights, plan_omega, absorbed, buf, row_max, row_sum, scaling, row_scale,
            marginal, cfg.tolerance, cfg.max_iterations - iterations)
        iterations += passes
    if scaling is not None:  # the last point is a scaled one: build its plan
        buf *= scaling / row_scale[:, None]
        row_sum = row_sum * row_scale
        marginal = np.ones(n) @ buf / n
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
        potentials=plan_omega,
        responsibilities=Responsibilities(buf),
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


def _newton_finish(log_kernel, weights, omega, absorbed, plan, row_max, row_sum, scaling,
                   row_scale, marginal, tolerance, max_passes):
    """Levenberg-Newton ascent on the semi-dual S(omega) = alpha . omega - mean(lse), in the
    K - 1 free potentials (omega_K stays), from the plan absorbed in `plan` at `absorbed`
    and scaled to omega by `scaling` and `row_scale` (None: absorbed at omega).

    The gradient is g = alpha - m, m the plan's column means, and the negative
    Hessian diag(m) - Psi^T Psi / N, one GEMM per accepted point: Psi^T Psi =
    (c^T c) * s s^T, c = plan / r.  The step d solves it plus mu |g| I, its
    largest entry clipped to ABSORB_BOUND.  A trial within ABSORB_BOUND of
    `absorbed` is a trial in scaling form on the absorbed plan, where
    S = alpha . omega - (sum lse0 + sum log r) / N; any other is a log-space
    pass into a second buffer, swapped in on acceptance.  A trial is accepted
    when S rises (on a tie in S, when the marginal error falls) or the
    tolerance is met; mu is then quartered, and otherwise quadrupled.  After
    MAX_REJECTIONS rejections in a row, or from a plan with an empty column
    (where the Hessian says nothing), the trial is a Sinkhorn update instead,
    log alpha - log m with log m taken in log space; it never lowers S and is
    always taken.  Returns the last accepted point, whose plan is
    plan * scaling / row_scale, as (omega, plan, row_max, row_sum, scaling,
    row_scale), and the passes made, at most max_passes.
    """
    n, k = plan.shape
    log_w = np.log(weights)
    if scaling is None:
        scaling, row_scale = np.ones(k), np.ones(n)
    lse0 = (row_max + np.log(row_sum)).sum()
    value = weights.dot(omega) - (lse0 + np.log(row_scale).sum()) / n
    error = float(np.abs(marginal - weights).max())
    mu, rejected, spare, hessian = 1.0, 0, None, None
    for passes in range(1, max_passes + 1):
        sinkhorn = rejected >= MAX_REJECTIONS or not marginal.min() > MARGINAL_FLOOR
        if sinkhorn:
            # log m from the log plan log_kernel + log alpha + omega - lse, column by column
            logits = log_kernel - (row_max + np.log(row_sum * row_scale))[:, None]
            logits += log_w + omega
            col_max = logits.max(axis=0)
            step = log_w - col_max - np.log(np.ones(n) @ np.exp(logits - col_max) / n)
            step -= step[-1]
        else:
            if hessian is None:
                c = plan / row_scale[:, None]
                hessian = ((c.T @ c) * scaling * scaling[:, None])[:-1, :-1] / -n
                hessian.flat[::k] += marginal[:-1]
            grad = weights - marginal
            free = hessian.copy()
            free.flat[::k] += mu * math.sqrt(grad.dot(grad))
            step = np.concatenate((np.linalg.solve(free, grad[:-1]), [0.0]))
            step *= ABSORB_BOUND / np.abs(step).max(initial=ABSORB_BOUND)
        t_omega = omega + step
        t_step, t_plan, t_lse0 = t_omega - absorbed, None, lse0
        if np.abs(t_step).max() <= ABSORB_BOUND:
            t_scaling, t_scale, t_marginal = _scaling_step(plan, t_step)
        else:
            spare = np.empty_like(plan) if spare is None else spare
            t_max, t_sum, t_marginal = _log_domain_pass(log_kernel, log_w + t_omega, spare)
            t_plan, t_lse0 = spare, (t_max + np.log(t_sum)).sum()
            t_scaling, t_scale = np.ones(k), np.ones(n)
        t_value = weights.dot(t_omega) - (t_lse0 + np.log(t_scale).sum()) / n
        t_error = float(np.abs(t_marginal - weights).max())
        if (sinkhorn or t_error <= tolerance or t_value > value
                or (t_value == value and t_error < error)):
            if not sinkhorn:
                mu = max(mu / 4.0, LEVENBERG_MIN)
            rejected, hessian = 0, None
            if t_plan is not None:
                plan, spare = t_plan, plan
                absorbed, row_max, row_sum, lse0 = t_omega, t_max, t_sum, t_lse0
            omega, scaling, row_scale, marginal = t_omega, t_scaling, t_scale, t_marginal
            value, error = t_value, t_error
            if error <= tolerance:
                break
        else:
            mu = min(mu * 4.0, LEVENBERG_MAX)
            rejected += 1
    return omega, plan, row_max, row_sum, scaling, row_scale, passes


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

