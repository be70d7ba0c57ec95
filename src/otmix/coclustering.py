"""Latent block model with Gaussian blocks: VEM and Sinkhorn-VEM co-clustering.

Each matrix entry Y_ij is Gaussian around the mean of its (row class, column
class) block.  The variational fit alternates a row phase and a column phase;
inside each phase, soft assignments and block parameters are updated until
the phase stabilizes.  The aggregate statistics Y^w, u^w reduce a phase to a
weighted K-component Gaussian problem on the design [u^w; Y^w; 1] (the rows of
`_moments`): the kernel is the design against `_natural`, the M-step one GEMM,
the E-step `_posterior` or a transport solve, VEM's surrogate its log partition.
The column phase is the row phase on Y.T, so `_phase` names blocks (row
class, column class) of the matrix it is given; `_vem_generic` turns the
column phase's blocks back into that order.  The fit runs on Y minus its
mean, which is added back to the block means, so that a constant offset moves
the means and nothing else.

Sinkhorn-VEM replaces the soft-assignment updates with entropic-OT plans
whose column means equal the row (resp. column) class weights; when the
weights are themselves inferred, every WEIGHT_UPDATE_CADENCE-th inner update
is a plain VEM update so the weights can move.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fitting import FitConfig
from .metrics import _assignment
from .mixtures import (VARIANCE_FLOOR, _as_float_array, _floored, _make_rng, _natural,
                       _posterior, _row_stochastic, _simplex)
from .sinkhorn import transport_responsibilities

INNER_TOLERANCE = 1e-4
# Protocol value: with inferred weights, every sixth SVEM inner update is plain VEM.
WEIGHT_UPDATE_CADENCE = 6
MAX_INNER_ITERATIONS = 50
EMPTY_BLOCK_THRESHOLD = 1e-12


class EmptyBlockError(RuntimeError):
    """A block's effective mass (row mass x column mass) collapsed."""

    def __init__(self, k: int, g: int, mass: float):
        super().__init__(f"block ({k}, {g}) has effective mass {mass:.3g}")
        self.k = k
        self.g = g
        self.mass = mass


@dataclass(frozen=True)
class BlockModel:
    """Block means and variances (K x G) with row/column class weights."""

    means: np.ndarray
    variances: np.ndarray
    row_weights: np.ndarray
    col_weights: np.ndarray

    def __post_init__(self):
        means = _as_float_array(self.means, "means")
        variances = _floored(self.variances, "variances")
        if means.ndim != 2 or variances.shape != means.shape:
            raise ValueError("means and variances must be matching K x G matrices")
        pi = _simplex(self.row_weights, "row_weights", means.shape[0])
        rho = _simplex(self.col_weights, "col_weights", means.shape[1])
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        object.__setattr__(self, "row_weights", pi)
        object.__setattr__(self, "col_weights", rho)

    @property
    def n_row_classes(self) -> int:
        return self.means.shape[0]

    @property
    def n_col_classes(self) -> int:
        return self.means.shape[1]

    def to_json_dict(self) -> dict:
        return {
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
            "row_weights": self.row_weights.tolist(),
            "col_weights": self.col_weights.tolist(),
        }


@dataclass(frozen=True)
class BlockResponsibilities:
    """Row-stochastic soft assignments: z (N x K) rows, w (M x G) columns."""

    z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in ("z", "w"):
            object.__setattr__(self, name, _row_stochastic(getattr(self, name), name))

    def hard_labels(self) -> tuple[np.ndarray, np.ndarray]:
        return np.argmax(self.z, axis=1), np.argmax(self.w, axis=1)


@dataclass(frozen=True)
class CoclusterReport:
    """Fit diagnostics: convergence, iteration count, OT feasibility, surrogates."""

    converged: bool
    iterations: int
    max_marginal_error: float
    inner_surrogates: list


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    m = np.zeros((len(labels), n_classes))
    m[np.arange(len(labels)), labels] = 1.0
    return m


def sample_block_data(model: BlockModel, n: int, m: int, seed):
    """Draw an n x m matrix: hard classes from the weights, Gaussian entries.

    Returns (Y, row_labels, col_labels); deterministic per seed.
    """
    if n < model.n_row_classes or m < model.n_col_classes:
        raise ValueError("n and m must be at least K and G")
    rng = _make_rng(seed)
    rows = rng.choice(model.n_row_classes, size=n, p=model.row_weights)
    cols = rng.choice(model.n_col_classes, size=m, p=model.col_weights)
    means = model.means[rows][:, cols]
    std = np.sqrt(model.variances[rows][:, cols])
    y = means + std * rng.standard_normal((n, m))
    return y, rows, cols


def random_block_init(n: int, m: int, k: int, g: int, seed) -> BlockResponsibilities:
    """Uniform random hard assignments with every class forced non-empty."""
    if not (1 <= k <= n and 1 <= g <= m):
        raise ValueError(f"K={k} and G={g} must lie in 1..{n} and 1..{m} (rows, columns)")
    rng = _make_rng(seed)
    rows = rng.integers(k, size=n)
    cols = rng.integers(g, size=m)
    for cls in range(k):
        if not np.any(rows == cls):
            rows[rng.integers(n)] = cls
    for cls in range(g):
        if not np.any(cols == cls):
            cols[rng.integers(m)] = cls
    return BlockResponsibilities(one_hot(rows, k), one_hot(cols, g))


def aggregate_stats(y: np.ndarray, resp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class weighted first and second moments of the opposite dimension.

    For column responsibilities w (M x G): returns Y^w, u^w of shape (N, G)
    with Y^w_ig = sum_j w_jg Y_ij / sum_j w_jg.  Feeding row responsibilities
    with y transposed gives the column-phase statistics Y^z, v^z.
    """
    mass = resp.sum(axis=0)
    return (y @ resp) / mass[None, :], ((y**2) @ resp) / mass[None, :]


def _check_block_masses(row_mass: np.ndarray, col_mass: np.ndarray) -> None:
    mass = row_mass[:, None] * col_mass[None, :]
    if np.min(mass) < EMPTY_BLOCK_THRESHOLD:
        k, g = np.unravel_index(int(np.argmin(mass)), mass.shape)
        raise EmptyBlockError(int(k), int(g), float(mass[k, g]))


def _phase_design(y: np.ndarray, opposite: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[u^w; Y^w; 1] of `y` at column classes `opposite` in `_moments`' layout, and their masses."""
    opposite_mass = opposite.sum(axis=0)
    _check_block_masses(np.ones(1), opposite_mass)
    y_stat, sq_stat = aggregate_stats(y, opposite)
    return np.concatenate([sq_stat.T, y_stat.T, np.ones((1, len(y)))]), opposite_mass


def _initial_parameters(y, z, w):
    """Step-2 parameters: z's moments on the row phase's design at w, read as `_phase` reads them."""
    design, col_mass = _phase_design(y, w)
    g = len(col_mass)
    stats = design @ z  # (2G+1, K): [S2; S1; mass]
    row_mass = stats[-1]
    _check_block_masses(row_mass, col_mass)
    means = stats[g:-1].T / row_mass[:, None]
    variances = np.maximum(stats[:g].T / row_mass[:, None] - means**2, VARIANCE_FLOOR)
    return means, variances, row_mass / z.shape[0], col_mass / w.shape[0]


def _phase(y, opposite, means, variances, weights, cfg: FitConfig, use_transport: bool, omega):
    """Re-fit the classes of the rows of `y` against the fixed soft classes
    `opposite` of its columns: alternate assignments and parameter updates.

    The row phase is this call on Y with the column classes; the column phase
    is the same call on Y.T with the row classes and the block parameters
    transposed.  Parameters, results and any `EmptyBlockError` name blocks as
    (class of a row of `y`, class of a column of `y`).  `omega` warm-starts
    the transport solves (and the final value is handed back for the next
    round).  Returns (resp, means, variances, weights,
    surrogate_trace, max_marginal_error, omega); the surrogate trace is empty
    for Sinkhorn-VEM.
    """
    design, opposite_mass = _phase_design(y, opposite)
    g = len(opposite_mass)

    # -0.5 sum_g m_g (log v_kg + (S_ig - 2 mu_kg Y_ig + mu_kg^2) / v_kg), m the opposite masses
    def log_kernel_at(mu, var):
        eta = _natural(mu, opposite_mass / var)
        eta[-1] -= 0.5 * np.log(var) @ opposite_mass
        return design.T @ eta

    mu, var, wts = means, variances, weights
    surrogate = []
    max_err = 0.0
    prev_change = np.inf
    plateau = 0
    log_kernel = log_kernel_at(mu, var)
    for inner in range(1, MAX_INNER_ITERATIONS + 1):
        plain_round = (not use_transport) or (
            cfg.update_weights and inner % WEIGHT_UPDATE_CADENCE == 0
        )
        if plain_round:
            resp, lse = _posterior(log_kernel, wts)
        else:
            solution = transport_responsibilities(log_kernel, wts, cfg.sinkhorn, omega)
            omega = solution.potentials
            resp = solution.responsibilities.matrix
            max_err = max(max_err, solution.marginal_error)

        prev_wts = wts
        stats = (design if cfg.update_variances else design[g:]) @ resp  # [S2;] S1; mass
        mass = stats[-1]
        _check_block_masses(mass, opposite_mass)
        new_mu = stats[-g - 1:-1].T / mass[:, None]
        change = float(np.abs(new_mu - mu).sum())
        mu = new_mu
        if cfg.update_variances:
            new_var = np.maximum(stats[:g].T / mass[:, None] - mu**2, VARIANCE_FLOOR)
            change += float(np.abs(new_var - var).sum())
            var = new_var
        if cfg.update_weights and plain_round:
            new_wts = mass / resp.shape[0]
            change += float(np.abs(new_wts - wts).sum())
            wts = new_wts
        # the kernel of the updated parameters drives the next assignment update
        new_kernel = log_kernel_at(mu, var)
        if not use_transport:
            # VEM's objective sum q (-log kernel - log w + log q) is -sum(lse) at the
            # softmax q; the update moves it by its change in log kernel and weights
            before = -float(np.sum(lse))
            surrogate += [before, before - float(np.sum(resp * (new_kernel - log_kernel)))
                          - float(mass @ (np.log(wts) - np.log(prev_wts)))]
        log_kernel = new_kernel
        if change < INNER_TOLERANCE:
            break
        # boundary assignments can cycle under forced marginals; once the
        # parameter change stops shrinking, further rounds only re-trace the
        # cycle
        plateau = plateau + 1 if change >= 0.5 * prev_change else 0
        prev_change = change
        if plateau >= 3 and inner >= 5:
            break
    return resp, mu, var, wts, surrogate, max_err, omega


def _checked_overrides(k: int, g: int, variances, row_weights, col_weights) -> list:
    """The known-parameter overrides, checked before any fitting; None where not given."""
    if variances is not None:
        variances = _floored(variances, "variances")
        try:
            variances = np.broadcast_to(variances, (k, g)).copy()
        except ValueError:
            raise ValueError(f"variances of shape {variances.shape} must broadcast to "
                             f"({k}, {g})") from None
    checked = [variances]
    for name, wts, size in (("row_weights", row_weights, k), ("col_weights", col_weights, g)):
        checked.append(None if wts is None else _simplex(wts, name, size).copy())
    return checked


def _vem_generic(
    data: np.ndarray,
    k: int,
    g: int,
    init: BlockResponsibilities,
    cfg: FitConfig,
    use_transport: bool,
    variances=None,
    row_weights=None,
    col_weights=None,
):
    y = _as_float_array(data, "data")
    if y.ndim != 2:
        raise ValueError(f"data must be an (N, M) matrix, got shape {y.shape}")
    n, m = y.shape
    if k > n or g > m:
        raise ValueError("K and G cannot exceed the matrix dimensions")
    z, w = init.z, init.w
    if z.shape != (n, k) or w.shape != (m, g):
        raise ValueError("init responsibilities do not match the data and K, G")

    variances, row_weights, col_weights = _checked_overrides(
        k, g, variances, row_weights, col_weights
    )

    # fit the centred matrix: on entries far from 0, the second moments and
    # E[y^2] - mu^2 would cancel, so a constant offset would change the fit
    centre = float(np.mean(y))
    y = y - centre
    means, var, pi, rho = _initial_parameters(y, z, w)
    var = var if variances is None else variances
    pi = pi if row_weights is None else row_weights
    rho = rho if col_weights is None else col_weights

    converged = False
    max_err = 0.0
    surrogates = []
    outer = 0
    row_omega = col_omega = None
    for outer in range(1, cfg.max_outer_iterations + 1):
        prev = (means, var, pi, rho)
        z, means, var, pi, s_row, err_row, row_omega = _phase(
            y, w, means, var, pi, cfg, use_transport, row_omega
        )
        try:
            w, means_t, var_t, rho, s_col, err_col, col_omega = _phase(
                y.T, z, means.T, var.T, rho, cfg, use_transport, col_omega
            )
        except EmptyBlockError as exc:
            # the column phase names its blocks (column class, row class)
            raise EmptyBlockError(exc.g, exc.k, exc.mass) from None
        means, var = means_t.T, var_t.T

        max_err = max(max_err, err_row, err_col)
        if not use_transport:
            surrogates.append(s_row)
            surrogates.append(s_col)

        change = sum(
            float(np.abs(new - old).sum()) for new, old in zip((means, var, pi, rho), prev)
        )
        if change < cfg.param_change_tolerance:
            converged = True
            break

    model = BlockModel(means + centre, var, pi, rho)
    resp = BlockResponsibilities(z, w)
    report = CoclusterReport(
        converged=converged,
        iterations=outer,
        max_marginal_error=max_err,
        inner_surrogates=surrogates,
    )
    return model, resp, report


def vem_fit(
    data,
    k: int,
    g: int,
    init: BlockResponsibilities,
    cfg: FitConfig,
    variances=None,
    row_weights=None,
    col_weights=None,
):
    """Variational EM for the latent block model.

    `variances`, `row_weights`, `col_weights` override the step-2 estimates
    (useful when those parameters are known); they stay fixed unless the
    corresponding cfg.update_* flag is set.
    """
    return _vem_generic(
        data, k, g, init, cfg, False, variances, row_weights, col_weights
    )


def svem_fit(
    data,
    k: int,
    g: int,
    init: BlockResponsibilities,
    cfg: FitConfig,
    variances=None,
    row_weights=None,
    col_weights=None,
):
    """Sinkhorn-VEM: OT assignment updates with marginals pinned to the weights.

    With cfg.update_weights, every WEIGHT_UPDATE_CADENCE-th inner update is a
    plain VEM update so the weights can be re-estimated.
    """
    return _vem_generic(
        data, k, g, init, cfg, True, variances, row_weights, col_weights
    )


def block_score(fitted: BlockModel, truth: BlockModel) -> float:
    """Mean squared block-mean error under the best row x column permutation.

    The squares of both means do not depend on the permutations, so the best
    pair (pi, sigma) maximises the gain <F[pi][:, sigma], T>, and for a fixed
    row permutation the column gains T^T F[pi] give sigma by one assignment
    solve.  Exact for K <= 8 by one such solve per row permutation; larger K
    alternates the row and column assignment solves from a row matching on
    sorted block means.  The score is computed directly at the chosen pair.
    """
    if (
        fitted.n_row_classes != truth.n_row_classes
        or fitted.n_col_classes != truth.n_col_classes
    ):
        raise ValueError("fitted and true block models must share K and G")
    fit_m = fitted.means
    tru_m = truth.means
    k = tru_m.shape[0]

    if k <= 8:
        best = -np.inf
        for perm in np.array(list(itertools.permutations(range(k)))):
            gain = tru_m.T @ fit_m[perm]
            rows, cols = _assignment(-gain)
            total = gain[rows, cols].sum()
            if total > best:
                best, row_perm, col_perm = total, perm, cols
    else:
        # sorted means do not depend on the column order
        gap = np.sort(tru_m, axis=1)[:, None, :] - np.sort(fit_m, axis=1)[None, :, :]
        _, row_perm = _assignment((gap**2).sum(axis=2))
        _, col_perm = _assignment(-(tru_m.T @ fit_m[row_perm]))
        for _ in range(10):
            # re-match rows to the aligned columns, then columns to the new rows
            _, new_perm = _assignment(-(tru_m @ fit_m[:, col_perm].T))
            if np.array_equal(new_perm, row_perm):
                break
            row_perm = new_perm
            _, col_perm = _assignment(-(tru_m.T @ fit_m[row_perm]))
    return float(np.mean((fit_m[np.ix_(row_perm, col_perm)] - tru_m) ** 2))
