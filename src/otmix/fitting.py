"""Iterative fitting: EM, Sinkhorn-EM, and block-coordinate weight inference.

EM and Sinkhorn-EM run the same outer loop, `_fit`.  Each pass builds the
log kernel at the current parameters, runs the E-step, appends the
(ell, L) pair to the loss trace, and then either stops or takes one Gaussian
M-step.  The stopping rule is the L1 change over all parameters below a
tolerance, or an iteration cap.  Only the E-step differs: plain Bayes
responsibilities for EM, the entropic-OT plan (warm-started from the previous
potentials) for Sinkhorn-EM.

Each E-step takes one row softmax of the kernel, and the loss pair comes from
that pass: EM's ell is the mean row log-sum-exp of its softmax, and Sinkhorn-EM
reads ell and L off the solve's plan, potentials and log partition
(`_transport_losses`).

Each fit's two model choices have one home.  The variance regime (kind, and
whether it is estimated) is the initial parameters' `VarianceSpec`, which the
M-step pools through; `FitConfig.update_variances` sets its fixed flag.
`FitConfig.update_weights` means "infer the weights": EM takes them in
closed form (the responsibility column means) in its M-step, and Sinkhorn-EM,
whose E-step pins the column means to the weights, runs block-coordinate
descent instead (`_coordinate_descent`: Sinkhorn-EM in the locations at
frozen weights, then EM's weight update at frozen locations, which is the
exact minimiser of the entropic loss in the weights).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .mixtures import (
    Dataset,
    MixtureParams,
    Responsibilities,
    VARIANCE_FLOOR,
    VarianceSpec,
    _moments,
    _posterior,
    _require_at_least,
    _weighted_sq_deviation,
    component_log_densities,
    responsibility_matrix,
)
from .sinkhorn import SinkhornConfig, SinkhornSolution, transport_responsibilities

EMPTY_COMPONENT_THRESHOLD = 1e-12


class EmptyComponentError(RuntimeError):
    """An M-step column mass fell below threshold (degenerate assignment)."""

    def __init__(self, component: int, mass: float):
        super().__init__(f"component {component} has column mass {mass:.3g}")
        self.component = component
        self.mass = mass


@dataclass(frozen=True)
class FitConfig:
    """Outer-loop knobs and update switches shared by all fitters.

    update_variances: estimate the variances (the initial VarianceSpec's
    kind says which values are tied); otherwise they stay as given.
    update_weights: infer the weights; EM in closed form, Sinkhorn-EM
    (`sem_fit`) by block-coordinate descent that alternates Sinkhorn-EM in
    the locations with EM's weight update.  Otherwise they stay as given.
    """

    max_outer_iterations: int = 100
    param_change_tolerance: float = 1e-3
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    update_variances: bool = False
    update_weights: bool = False

    def __post_init__(self):
        _require_at_least(max_outer_iterations=(self.max_outer_iterations, 1))
        if not self.param_change_tolerance > 0:
            raise ValueError(
                f"param_change_tolerance must be positive, got {self.param_change_tolerance:g}")


@dataclass(frozen=True)
class FitReport:
    """Outcome of one fit: final parameters, loss trace, and diagnostics.

    loss_trace holds one (ell, ot_loss) pair per outer iterate, evaluated at
    the pre-update parameters, plus a final pair at the returned parameters.
    ot_loss entries are None for plain EM.  iterations counts the location
    M-steps taken, for every fitter; Sinkhorn-EM with weight inference sums
    them over its rounds, and its trace also holds each round's closing pair
    (the pair before its weight phase).
    """

    final_params: MixtureParams
    loss_trace: list
    responsibilities: Responsibilities
    converged: bool
    iterations: int
    sinkhorn_converged: bool = True

    def to_json_dict(self, include_trace: bool = False) -> dict:
        d = {
            "final_params": self.final_params.to_json_dict(),
            "converged": self.converged,
            "iterations": self.iterations,
            "sinkhorn_converged": self.sinkhorn_converged,
            "final_ell": self.loss_trace[-1][0] if self.loss_trace else None,
        }
        if include_trace:
            d["loss_trace"] = [list(pair) for pair in self.loss_trace]
        return d


def mstep_gaussian(
    data: Dataset,
    resp: Responsibilities,
    spec: VarianceSpec,
    weights: np.ndarray,
) -> MixtureParams:
    """Weighted-mean location update plus per-regime variance update.

    One GEMM of the data's sufficient statistics (`_moments`) and Psi gives
    the masses m_k = sum_i Psi_ik and the moments S1, S2 = sum_i Psi_ik
    (Y_i - ybar)^{1, 2}.  Locations: theta_k = ybar + S1_k / m_k.  Variances
    are updated only when spec.fixed is False: each value is the weighted
    squared deviation (`_weighted_sq_deviation`) pooled over the entries it
    ties, divided by the mass pooled over the same entries, projected onto
    the variance floor.  Weights pass through unchanged.
    """
    design, centre = _moments(data.points)
    stats = design @ resp.matrix  # (2d+1, K): [S2; S1; m]
    col_mass = stats[-1]
    low = int(np.argmin(col_mass))
    if col_mass[low] < EMPTY_COMPONENT_THRESHOLD:
        raise EmptyComponentError(low, float(col_mass[low]))

    shift = stats[data.dim:-1].T / col_mass[:, None]  # theta - ybar, (K, d)
    if spec.fixed:
        new_spec = spec
    else:
        wsq = _weighted_sq_deviation(stats, shift)  # (K, d)
        values = spec.pool(wsq) / spec.pool(np.broadcast_to(col_mass[:, None], wsq.shape))
        new_spec = replace(spec, values=np.maximum(values, VARIANCE_FLOOR))

    return MixtureParams(centre + shift, new_spec, np.asarray(weights, dtype=float))


def _param_change(old: MixtureParams, new: MixtureParams) -> float:
    """L1 change across locations, variance entries, and weights."""
    change = float(np.abs(new.locations - old.locations).sum())
    change += float(np.abs(new.variances.values - old.variances.values).sum())
    change += float(np.abs(new.weights - old.weights).sum())
    return change


def _effective_init(init: MixtureParams, cfg: FitConfig) -> MixtureParams:
    """Align the variance spec's fixed flag with cfg.update_variances."""
    if init.variances.fixed == (not cfg.update_variances):
        return init
    return init.with_variances(replace(init.variances, fixed=not cfg.update_variances))


def _transport_losses(
    solution: SinkhornSolution, weights: np.ndarray, log_kernel: np.ndarray
) -> tuple[float, float]:
    """(ell, L) at a solve's potentials omega from its plan Psi and log partition lse:
    L = alpha . omega - mean(lse), and as Psi_ik e^{-omega_k} = alpha_k q_k(Y_i) / e^{lse_i},
    ell = -mean(lse + log(Psi e^{-omega})), one matvec (shifted by min omega).  Where that
    matvec underflows (potentials spread past ~745, a row's mass on high-omega columns),
    the row's log sum_k alpha_k q_k(Y_i) is taken from the log kernel instead."""
    omega, lse, low = solution.potentials, solution.log_partition, solution.potentials.min()
    tilted = solution.responsibilities.matrix @ np.exp(low - omega)
    lost = tilted < np.finfo(float).tiny
    tilted[lost] = 1.0
    log_lik = lse + np.log(tilted) - low
    if lost.any():
        _, log_lik[lost] = _posterior(log_kernel[lost], weights)
    return float(-np.mean(log_lik)), float(np.dot(weights, omega) - np.mean(lse))


def _fit(data: Dataset, init: MixtureParams, cfg: FitConfig, transport: bool) -> FitReport:
    """The outer loop of EM (transport=False) and Sinkhorn-EM; see the module docstring."""
    params = _effective_init(init, cfg)
    omega = None
    trace = []
    all_solves_converged = True
    change = np.inf
    for iterations in range(cfg.max_outer_iterations + 1):
        log_kernel = component_log_densities(params, data.points)
        if transport:
            solution = transport_responsibilities(log_kernel, params.weights, cfg.sinkhorn, omega)
            all_solves_converged &= solution.converged
            omega = solution.potentials
            resp = solution.responsibilities
            trace.append(_transport_losses(solution, params.weights, log_kernel))
        else:
            matrix, lse = _posterior(log_kernel, params.weights)
            resp = Responsibilities(matrix)
            trace.append((float(-np.mean(lse)), None))
        converged = change < cfg.param_change_tolerance
        if converged or iterations == cfg.max_outer_iterations:
            break
        # Sinkhorn-EM's E-step pins the weights; `_coordinate_descent` infers them
        update_weights = cfg.update_weights and not transport
        weights = resp.column_means() if update_weights else params.weights
        new_params = mstep_gaussian(data, resp, params.variances, weights)
        change = _param_change(params, new_params)
        params = new_params
    return FitReport(
        final_params=params,
        loss_trace=trace,
        responsibilities=resp,
        converged=converged,
        iterations=iterations,
        sinkhorn_converged=all_solves_converged,
    )


def em_fit(data: Dataset, init: MixtureParams, cfg: FitConfig) -> FitReport:
    """Classical EM: vanilla E-step, Gaussian M-step, closed-form weights."""
    return _fit(data, init, cfg, transport=False)


def sem_fit(data: Dataset, init: MixtureParams, cfg: FitConfig) -> FitReport:
    """Sinkhorn-EM: transport E-step at fixed weights, Gaussian M-step.

    The entropic loss trace is evaluated from each E-step's potentials, so it
    costs nothing extra; it is non-increasing up to solver slack.  Potentials
    are warm-started across outer iterations.  With cfg.update_weights the
    weights are inferred by block-coordinate descent (`_coordinate_descent`).
    """
    if cfg.update_weights:
        return _coordinate_descent(data, init, cfg)
    return _fit(data, init, cfg, transport=True)


# Cap on the iterations of one weight phase.  Over 4,240 phases (the weight
# inference fits of tools/fit_diff.py and of C11's replicates 5 and 7) the
# median was 2 and the maximum 185.
MAX_WEIGHT_ITERATIONS = 1000


def _coordinate_descent(data: Dataset, init: MixtureParams, cfg: FitConfig) -> FitReport:
    """Block-coordinate descent of the entropic loss L over locations and weights.

    Each round runs (a) Sinkhorn-EM in the locations at frozen weights, then
    (b) the exact minimiser of L in the weights at frozen locations theta.
    That minimiser is EM's: L(theta, alpha) = max_omega [alpha.omega -
    mean_i log sum_k alpha_k e^{omega_k} q_k(Y_i)] >= ell(theta, alpha)
    (take omega = 0), with equality where the vanilla column means equal
    alpha, so min_alpha L(theta, .) = min_alpha ell(theta, .), reached by
    iterating alpha <- mean_i psi_ik(theta, alpha) (Mena et al., "Sinkhorn
    EM", 2020).  Phase (b) builds one kernel and iterates that rule until its
    L1 change falls below tolerance (at most MAX_WEIGHT_ITERATIONS times); it
    makes no Sinkhorn solve, and the next phase (a) starts from omega = 0,
    which solves the marginal equation at the fixed point.  Stops when the
    L1 parameter change over a round falls below tolerance.
    """
    params = _effective_init(init, cfg)
    trace = []
    converged = False
    all_solves_converged = True
    iterations = 0
    for _ in range(cfg.max_outer_iterations):
        round_start = params

        # (a) theta phase
        report = _fit(data, params, cfg, transport=True)
        all_solves_converged &= report.sinkhorn_converged
        iterations += report.iterations
        trace.extend(report.loss_trace)
        params = report.final_params

        # (b) weight phase: EM's weight fixed point on one kernel
        log_kernel = component_log_densities(params, data.points)
        weights = params.weights
        for _ in range(MAX_WEIGHT_ITERATIONS):
            new_weights = responsibility_matrix(log_kernel, weights).mean(axis=0)
            low = int(np.argmin(new_weights))
            if new_weights[low] < EMPTY_COMPONENT_THRESHOLD:
                raise EmptyComponentError(low, float(new_weights[low]) * data.n)
            change = float(np.abs(new_weights - weights).sum())
            weights = new_weights
            if change < cfg.param_change_tolerance:
                break
        params = params.with_weights(weights)

        if _param_change(round_start, params) < cfg.param_change_tolerance:
            converged = True
            break

    # the last weight phase left theta as it is, so its kernel is current
    final_solution = transport_responsibilities(log_kernel, params.weights, cfg.sinkhorn)
    trace.append(_transport_losses(final_solution, params.weights, log_kernel))
    return FitReport(
        final_params=params,
        loss_trace=trace,
        responsibilities=final_solution.responsibilities,
        converged=converged,
        iterations=iterations,
        sinkhorn_converged=all_solves_converged and final_solution.converged,
    )
