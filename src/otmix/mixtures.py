"""Gaussian mixture parameters, densities, sampling, and responsibilities.

Components are isotropic or axis-aligned Gaussians: each component k has a
location (mean) row, a variance given by a :class:`VarianceSpec`, and a
strictly positive weight.  Every pass over the data is one GEMM on its
sufficient statistics (`_moments`): the log kernel on the components' natural
parameters (`_natural`), the weighted moments of the M-step and the entropic
gradient, and k-means' distances.  All density work happens in log space, and
one max-shifted row normaliser, `_softmax_rows`, gives both E-steps their row
softmax and both losses their row log-sum-exp, so that far-away points and
floor-level variances never overflow.  The (N, K) arrays an E-step normalises,
the log kernel and the buffers the normaliser works in, are column-major
(Fortran-ordered): with N >> K a row max, a row broadcast or a check then runs
along the N points of each column instead of N inner loops of length K.  Every
row sum of an N-row array is one matrix-vector product, `_row_sum`; it serves
that normaliser and the one row-stochastic check, `_row_stochastic`, of
`Responsibilities` and the co-clustering assignments.  The kernel's variance
terms (1/v, the log normaliser) are derived once per (K, d) and kept on the
`VarianceSpec`, whose values are read-only.  Every container is an immutable
value; the functions here are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Lower bound enforced on every variance entry (sigma_0^2).  M-steps project
# onto [VARIANCE_FLOOR, inf).
VARIANCE_FLOOR = 1e-6

LOG_2PI = float(np.log(2.0 * np.pi))

# The variance kinds.  Each ties the entries of the (K, d) variance matrix
# along these axes (0: components, 1: coordinates) to one value, so its
# values have the (K, d) shape with the tied axes removed.
TIED_AXES = {"shared": (0, 1), "spherical": (1,), "diagonal": ()}


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _simplex(x, name: str, size: int) -> np.ndarray:
    """x as `size` positive floats that sum to 1 within 1e-12."""
    w = _as_float_array(x, name)
    if w.shape != (size,) or np.any(w <= 0.0) or abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"{name} must be {size} positive numbers summing to 1")
    return w


def _floored(x, name: str) -> np.ndarray:
    """x as variances: floats at or above VARIANCE_FLOOR (up to a 1e-12 relative slack)."""
    v = _as_float_array(x, name)
    if np.any(v < VARIANCE_FLOOR * (1.0 - 1e-12)):
        raise ValueError(f"{name} must be >= {VARIANCE_FLOOR:g}")
    return v


def _require_at_least(**bounds) -> None:
    """Reject an argument below its bound, or NaN, with a message naming it."""
    for name, (value, bound) in bounds.items():
        if not value >= bound:
            raise ValueError(f"{name} must be >= {bound:g}, got {value:g}")


@dataclass(frozen=True)
class VarianceSpec:
    """Variance regime of a mixture: the one place that knows the variance kinds.

    kind (a key of TIED_AXES):
      - "shared":    one spherical variance for all components; values is a scalar.
      - "spherical": one spherical variance per component; values has shape (K,).
      - "diagonal":  per-component axis-aligned variances; values has shape (K, d).

    fixed: whether M-steps leave the values untouched.

    Everything that depends on the kind goes through `expand` (values to the
    (K, d) matrix) and `pool` (a (K, d) array back to the shape of values,
    its adjoint); the M-step, the entropic gradient and the BIC parameter
    count are written once for all kinds in terms of these two.
    """

    kind: str
    values: np.ndarray
    fixed: bool = True

    def __post_init__(self):
        if self.kind not in TIED_AXES:
            raise ValueError(f"unknown variance kind {self.kind!r}")
        # a read-only copy: `_kernel_terms` caches what it derives from the values
        vals = _floored(self.values, "variances").copy()
        vals.flags.writeable = False
        expected_ndim = 2 - len(TIED_AXES[self.kind])
        if vals.ndim != expected_ndim:
            raise ValueError(
                f"variance kind {self.kind!r} requires a {expected_ndim}-d array, "
                f"got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def shared(cls, value: float, fixed: bool = True) -> "VarianceSpec":
        return cls("shared", np.asarray(float(value)), fixed)

    @classmethod
    def spherical(cls, values, fixed: bool = True) -> "VarianceSpec":
        return cls("spherical", values, fixed)

    @classmethod
    def diagonal(cls, values, fixed: bool = True) -> "VarianceSpec":
        return cls("diagonal", values, fixed)

    @staticmethod
    def value_shape(kind: str, n_components: int, dim: int) -> tuple:
        """Shape of the values of `kind` for K components in d dimensions."""
        tied = TIED_AXES[kind]
        return tuple(n for axis, n in enumerate((n_components, dim)) if axis not in tied)

    def _require_shape(self, n_components: int, dim: int) -> None:
        """Reject values whose shape does not fit K components in d dimensions."""
        shape = self.value_shape(self.kind, n_components, dim)
        if self.values.shape != shape:
            raise ValueError(
                f"{self.kind} variances of shape {self.values.shape} do not match "
                f"K={n_components}, d={dim}; expected shape {shape}"
            )

    def expand(self, n_components: int, dim: int) -> np.ndarray:
        """Variances as a read-only (K, d) view regardless of kind."""
        self._require_shape(n_components, dim)
        tied = TIED_AXES[self.kind]
        return np.broadcast_to(np.expand_dims(self.values, tied), (n_components, dim))

    def _kernel_terms(self, n_components: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """The log kernel's precisions 1/v, (K, d), and log normalisers
        sum_j (log 2 pi + log v_kj) / 2, (K,): computed once per spec and (K, d),
        so once per fit when the variances are fixed."""
        key, precision, log_norm = self.__dict__.get("_terms", (None, None, None))
        if key != (n_components, dim):
            var = self.expand(n_components, dim)
            precision, log_norm = 1.0 / var, 0.5 * np.sum(LOG_2PI + np.log(var), axis=1)
            object.__setattr__(self, "_terms", ((n_components, dim), precision, log_norm))
        return precision, log_norm

    def pool(self, per_entry: np.ndarray) -> np.ndarray:
        """Sum a (K, d) array over the tied axes, to the shape of values.

        The adjoint of `expand`: sum(expand(v) * a) == sum(v * pool(a)).
        """
        return np.sum(per_entry, axis=TIED_AXES[self.kind])

    def n_free_parameters(self, n_components: int, dim: int) -> int:
        """Free variance parameters counted by BIC (0 when fixed)."""
        if self.fixed:
            return 0
        return self.pool(np.ones((n_components, dim))).size

    def permuted(self, perm: np.ndarray) -> "VarianceSpec":
        if 0 in TIED_AXES[self.kind]:
            return self
        return replace(self, values=self.values[np.asarray(perm)])


@dataclass(frozen=True)
class MixtureParams:
    """Full parameter state of a GMM: locations (K, d), variances, weights (K,)."""

    locations: np.ndarray
    variances: VarianceSpec
    weights: np.ndarray

    def __post_init__(self):
        loc = _as_float_array(self.locations, "locations")
        if loc.ndim == 1:
            loc = loc[:, None]
        if loc.ndim != 2 or loc.shape[0] < 1 or loc.shape[1] < 1:
            raise ValueError("locations must be a K x d matrix with K, d >= 1")
        w = _simplex(self.weights, "weights", loc.shape[0])
        self.variances._require_shape(loc.shape[0], loc.shape[1])
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", w)

    @property
    def n_components(self) -> int:
        return self.locations.shape[0]

    @property
    def dim(self) -> int:
        return self.locations.shape[1]

    def variance_matrix(self) -> np.ndarray:
        return self.variances.expand(self.n_components, self.dim)

    def permuted(self, perm) -> "MixtureParams":
        perm = np.asarray(perm)
        return MixtureParams(
            self.locations[perm], self.variances.permuted(perm), self.weights[perm]
        )

    def with_locations(self, locations) -> "MixtureParams":
        return MixtureParams(locations, self.variances, self.weights)

    def with_weights(self, weights) -> "MixtureParams":
        return MixtureParams(self.locations, self.variances, weights)

    def with_variances(self, variances: VarianceSpec) -> "MixtureParams":
        return MixtureParams(self.locations, variances, self.weights)

    def to_json_dict(self) -> dict:
        return {
            "locations": self.locations.tolist(),
            "variances": self.variances.values.tolist(),
            "weights": self.weights.tolist(),
            "kind": self.variances.kind,
            "fixed": self.variances.fixed,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MixtureParams":
        spec = VarianceSpec(d["kind"], np.asarray(d["variances"]), d.get("fixed", True))
        return cls(np.asarray(d["locations"]), spec, np.asarray(d["weights"]))

    def save_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")

    @classmethod
    def load_json(cls, path) -> "MixtureParams":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class Dataset:
    """N points in d dimensions with optional true labels for scoring."""

    points: np.ndarray
    true_labels: np.ndarray | None = None

    def __post_init__(self):
        pts = _as_float_array(self.points, "points")
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be an N x d matrix with N >= 1")
        object.__setattr__(self, "points", pts)
        if self.true_labels is not None:
            labels = np.asarray(self.true_labels, dtype=int)
            if labels.shape != (pts.shape[0],):
                raise ValueError("true_labels must have one entry per point")
            object.__setattr__(self, "true_labels", labels)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def save_csv(self, path) -> None:
        """One row per point; d numeric columns plus an optional label column."""
        labels = self.true_labels
        header = ",".join(f"x{j}" for j in range(self.dim))
        if labels is not None:
            header += ",label"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for i, row in enumerate(self.points):
                fields = [repr(float(v)) for v in row]
                if labels is not None:
                    fields.append(str(int(labels[i])))
                fh.write(",".join(fields) + "\n")

    @classmethod
    def load_csv(cls, path) -> "Dataset":
        """Read the `save_csv` layout, header x0,...,x{d-1}[,label] first; a
        malformed line raises naming file and line."""
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [(i, line.strip().split(",")) for i, line in enumerate(fh, 2) if line.strip()]
        width = len(header)
        has_label = header[-1] == "label"
        dim = width - (1 if has_label else 0)
        if dim < 1 or header[:dim] != [f"x{j}" for j in range(dim)]:
            got = ",".join(header)
            raise ValueError(f"{path}:1: expected the header x0,...,x{{d-1}}[,label], got {got!r}")
        points, labels = [], []
        for lineno, fields in rows:
            if len(fields) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
            try:
                points.append([float(v) for v in fields[:dim]])
                if has_label:
                    labels.append(int(fields[dim]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        return cls(np.array(points), true_labels=np.array(labels) if has_label else None)


@dataclass(frozen=True)
class Responsibilities:
    """Row-stochastic N x K matrix: Bayes responsibilities or a transport plan."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _row_stochastic(self.matrix, "responsibilities"))

    def column_means(self) -> np.ndarray:
        return self.matrix.mean(axis=0)


def _moments(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The data's sufficient statistics, the (2d+1, N) rows [(y - ybar)^2; y - ybar; 1], and the
    data mean ybar.  The rows are contiguous: one allocation and two passes over the data, and a
    log kernel is then the GEMM `design.T @ eta` (`_natural`), weighted moments `design @ psi`."""
    n, d = points.shape
    centre = np.ones(n) @ points / n
    design = np.empty((2 * d + 1, n))
    np.subtract(points.T, centre[:, None], out=design[d:-1])
    np.multiply(design[d:-1], design[d:-1], out=design[:d])
    design[-1] = 1.0
    return design, centre


def _natural(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[-w/2; c w; -sum_j c^2 w / 2], (2d+1, K): -1/2 sum_j (y_j - c_kj)^2 w_kj as weights of
    `_moments`' rows, for c the (K, d) centres less ybar.  Centring cancels the terms on large
    offsets; absolute error ~ eps sum_j ((y_ij - ybar_j)^2 + c_kj^2) w_kj."""
    return np.concatenate([-0.5 * w.T, (c * w).T, -0.5 * np.sum(c * c * w, axis=1)[None]])


def component_log_densities(params: MixtureParams, points: np.ndarray) -> np.ndarray:
    """Log densities log q_{theta_k}(y_i) as an (N, K) matrix: one GEMM, `_moments` by `_natural`."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    design, centre = _moments(pts)
    precision, log_norm = params.variances._kernel_terms(params.n_components, params.dim)
    eta = _natural(params.locations - centre, precision)
    eta[-1] -= log_norm
    return (eta.T @ design).T  # column-major, as the E-step's buffers are


def _weighted_sq_deviation(stats: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_i psi_ik (y_ij - theta_kj)^2, (K, d), from the weighted moments stats = design @ psi
    of `_moments` ([S2; S1; mass]) and c = theta - ybar: S2 - 2 c S1 + c^2 mass."""
    d = c.shape[1]
    return stats[:d].T - 2.0 * c * stats[d:-1].T + c * c * stats[-1][:, None]


def neg_loglik(params: MixtureParams, data: Dataset) -> float:
    """Sample negative log-likelihood ell = -(1/N) sum_i log q_theta(Y_i)."""
    return neg_loglik_from_log_densities(
        component_log_densities(params, data.points), params.weights
    )


def _row_sum(a: np.ndarray) -> np.ndarray:
    """The row sums of an (N, K) array, as the matrix-vector product a @ 1.

    BLAS sums a short row several times faster than numpy's one inner loop
    per row, and on the column-major E-step arrays it adds whole columns; the
    bits are BLAS's, equal to numpy's up to rounding.
    """
    return a @ np.ones(a.shape[1])


def _row_stochastic(matrix, name: str) -> np.ndarray:
    """`matrix` as a float array, checked finite, 2-d, with entries in [0, 1]
    and rows summing to 1; the messages name it `name`."""
    m = np.asarray(matrix, dtype=float)
    in_range = m.min(initial=0.0) >= -1e-12 and m.max(initial=1.0) <= 1.0 + 1e-12
    if not in_range:  # a NaN or +-inf lands here: name it first
        _as_float_array(m, name)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if not in_range:
        raise ValueError(f"{name} entries must lie in [0, 1]")
    if np.max(np.abs(_row_sum(m) - 1.0)) > 1e-10:
        raise ValueError(f"{name} rows must sum to 1 within 1e-10")
    return m


def _softmax_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one row normaliser: `a` (N, K) becomes exp(a - row max) in place.

    Callers hand it column-major arrays, on which the row max and the row
    broadcast run along the columns; on a row-major (N, K) array with small K,
    numpy's row max runs one short inner loop per row, several times slower.
    Returns the row maxima and the shifted row sums: the softmax is
    `a / sum[:, None]` and the log-sum-exp `max + log(sum)`.  The shift is
    exact for same-magnitude logits, so rows normalise to machine precision
    even when the logits are ~1e11.
    """
    row_max = a.max(axis=1)
    a -= row_max[:, None]
    np.exp(a, out=a)
    return row_max, _row_sum(a)


def _posterior(log_densities: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bayes responsibilities and the row log-sum-exp log sum_k alpha_k q_k(Y_i),
    from one softmax: EM's E-step and ell in a single pass."""
    e = np.add(log_densities, np.log(weights), order="F")
    row_max, row_sum = _softmax_rows(e)
    np.divide(e, row_sum[:, None], out=e)
    return e, row_max + np.log(row_sum)


def neg_loglik_from_log_densities(log_densities: np.ndarray, weights: np.ndarray) -> float:
    """neg_loglik from a precomputed (N, K) log-density matrix."""
    return float(-np.mean(_posterior(log_densities, weights)[1]))


def responsibility_matrix(log_densities: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Bayes responsibilities alpha_k q_k(Y_i) / sum_k' alpha_k' q_k'(Y_i).

    The Sinkhorn E-step is the same softmax at tilted weights.
    """
    return _posterior(log_densities, weights)[0]


def _make_rng(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, or a ready Generator (PCG64)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_mixture(params: MixtureParams, n: int, seed) -> Dataset:
    """Draw n i.i.d. points: labels from the weights, then the Gaussians.

    Deterministic for a fixed seed; stores the labels for downstream scoring.
    """
    _require_at_least(n=(n, 1))
    rng = _make_rng(seed)
    labels = rng.choice(params.n_components, size=n, p=params.weights)
    std = np.sqrt(params.variance_matrix())  # (K, d)
    noise = rng.standard_normal((n, params.dim))
    points = params.locations[labels] + noise * std[labels]
    return Dataset(points, true_labels=labels)
