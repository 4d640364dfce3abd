"""Gaussian mixtures fit by expectation-maximization.

Everything runs in log space: per-component log densities are combined with a
max-shifted log-sum, so likelihoods and responsibilities stay finite far past
the range where raw densities underflow. A mixture is three stacked arrays
(weights, means, covariances) plus its covariance mode; mixtures are value
objects and every update builds a new one.

One density pass serves each EM iteration: the E-step derives the
responsibilities and the log-likelihood from the same (n, K) matrix of
weighted log densities, which is built for all components at once. In full
mode that is one stacked Cholesky factorization and its inverse, then one
matrix product and one einsum per block of components whose differences fill
about 16384 float64 elements (128 KiB, ``ppp.data._BLOCK_ELEMENTS``, the
budget ``sq_distances`` shares), so the pass holds its (n, K) outputs and a
few blocks, not K x n x d temporaries. Full-mode M-step covariances are one
stacked matrix product.
A spherical component (σ_k² times the identity, mclust's VII model) sees a
row only through its distance to the mean, so a spherical mixture carries
its model dimension D apart from the width of the rows it is fitted on: rows
with the same distances (``ppp.engine._frame``) fit and score it as the
D-column rows do, up to rounding. Its passes are einsum contractions over
all components, with (n, w) and (K, w) temporaries; einsum, unlike a BLAS
product, gives a row the same bits whichever rows are scored with it and
however many threads BLAS runs.

A codebook match holds row ids, not rows: :func:`init_gmm_from_codebook`
reads each unit's matched vector from the data matrix at its id. The ids
repeat, as several units often match one instance, so :func:`group_ids`
gives the distinct ids in order of first occurrence and their summed
weights. The start has one component per distinct matched instance, and
:func:`fit_em` weighs each row by its ``counts``, so EM sees each distinct
row once. Both fit the density of the repeated rows and units up to rounding.
EM has one weighted path: ``counts=None`` means unit counts, which
:func:`responsibilities` uses.

EM iterates on the three arrays, not on mixtures: :func:`fit_em` checks the
rows' width and finiteness once, loops over the array kernels
:func:`_log_prob_arrays`, :func:`_estep_arrays` and :func:`_mstep_arrays`,
and builds one ``GaussianMixture`` per fit, the one it returns. Every
density, E-step and M-step of the module runs through these three kernels.

Every log-sum over components runs through :func:`log_sum_exp`. The ridge
keeps every log density of the mixtures the program builds finite, so no
row it sums has a maximum of ±inf or NaN.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import _BLOCK_ELEMENTS, as_matrix
from .errors import ConfigError, DegenerateModel, DimensionError, SingularCovariance

log = logging.getLogger(__name__)


_LOG_2PI = float(np.log(2.0 * np.pi))

# responsibility mass below which a component is considered dead
_DROP_MASS = 1e-12

COVARIANCE_MODES = ("full", "spherical")


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """K weighted Gaussian components sharing one covariance mode, as stacked arrays.

    ``weights`` has shape (K,), ``means`` (K, w) for rows of width w, and
    ``covariances`` (K, w, w) in full mode or (K,) variances in spherical
    mode. ``dim`` is the model dimension D (default w), which full mode
    requires to equal w. Weights are positive and sum to one within 1e-12.
    ``ll_trace`` is filled by :func:`fit_em` with the per-iteration
    log-likelihood (first entry is the likelihood of the starting mixture).
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    covariance_mode: str
    reg_epsilon: float
    ll_trace: tuple[float, ...] | None = None
    dim: int | None = None

    def __post_init__(self):
        if self.covariance_mode not in COVARIANCE_MODES:
            raise ConfigError(f"covariance_mode must be one of {COVARIANCE_MODES}")
        for name in ("weights", "means", "covariances"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.weights.size == 0:
            raise DegenerateModel("mixture needs at least one component")
        if self.weights.ndim != 1 or self.means.ndim != 2 or len(self.means) != self.weights.size:
            raise ConfigError("weights must have shape (K,) and means shape (K, d)")
        k, w = self.means.shape
        object.__setattr__(self, "dim", w if self.dim is None else int(self.dim))
        if self.dim < 1 or (self.covariance_mode == "full" and self.dim != w):
            raise ConfigError(f"{self.covariance_mode} mixture of width {w} has dim {self.dim}")
        expected = (k, w, w) if self.covariance_mode == "full" else (k,)
        if self.covariances.shape != expected:
            raise ConfigError(
                f"{self.covariance_mode} covariances must have shape {expected}, "
                f"got {self.covariances.shape}"
            )
        total = sum(self.weights.tolist())
        if not abs(total - 1.0) <= 1e-12:
            raise ConfigError(f"component weights must sum to 1, got {total!r}")
        if np.any(self.weights <= 0):
            raise ConfigError("component weights must be positive")

    @property
    def n_iterations(self) -> int | None:
        return None if self.ll_trace is None else len(self.ll_trace) - 1


def log_sum_exp(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis, keeping it as length one.

    Repeats the arithmetic of ``scipy.special.logsumexp(a, axis=-1,
    keepdims=True)`` in scipy 1.17, so real inputs agree bit for bit: the
    ``m`` entries equal to the maximum are left out of
    ``s = sum(exp(a - max))``, ``s`` is divided by ``m`` (scipy leaves a zero
    ``s`` alone, which ``0 / m`` gives anyway), and the result is
    ``log1p(s) + log(m) + max``. A row of ``-inf`` gives ``-inf``, a row
    holding ``+inf`` but no NaN gives ``+inf``, and a row holding NaN gives
    NaN. Such a row (its maximum not finite) also makes numpy warn, where
    scipy's ``errstate`` guard keeps quiet.
    """
    a_max = a.max(axis=-1, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=-1, keepdims=True, dtype=float)
    shifted = a - a_max
    np.copyto(shifted, -np.inf, where=is_max)
    s = np.exp(shifted).sum(axis=-1, keepdims=True)
    return np.log1p(s / m) + np.log(m) + a_max


def _check_rows(g: GaussianMixture, X: np.ndarray) -> None:
    """Reject rows of the wrong width, and non-finite rows or means."""
    d, w = X.shape[1], g.means.shape[1]
    if d != w:
        raise DimensionError(f"data has {d} columns, mixture means have {w}")
    if not (np.isfinite(X).all() and np.isfinite(g.means).all()):
        raise ValueError("array must not contain infs or NaNs")


def _log_prob_arrays(X: np.ndarray, weights, means, covs, mode: str, dim: int) -> np.ndarray:
    """(n, K) matrix of log(weight_k) + log density_k(row), one pass over all components.

    The rows and means are already checked (:func:`_check_rows`). Full mode
    factorizes the covariances in one stacked Cholesky, inverts the factors
    in one stacked ``np.linalg.inv`` and writes the component differences into
    one C-ordered (k, n, d) buffer of ``max(1, 16384 // (n * d))`` components
    (``_BLOCK_ELEMENTS``, 128 KiB of float64, or one component's n x d when
    that alone is larger). Each block is multiplied by its transposed inverse
    factors, ``z = diff @ inv(L).T`` (one ``np.matmul``), and one einsum gives
    the Mahalanobis terms ``|z|²``.

    Spherical mode gives component k the log density
    ``-(D log 2π + D log σ_k² + |x - mean_k|² / σ_k²) / 2``. With the centre
    ``c = weights @ means``, ``x~ = x - c`` and ``m~ = mean - c``, the distance
    is ``|x~|² - 2 x~ · m~ + |m~|²``, clipped at 0; centring keeps the
    cancellation at the scale of the data's spread, and a C-ordered ``x~``
    makes einsum sum each row in one order for any layout of X.

    The result is C-contiguous: the row-wise log-sum over components adds in
    memory order, so a transposed layout would change its last bits.
    """
    n, d = X.shape
    k_total = weights.size
    if mode == "spherical":
        if not ((covs > 0).all() and np.isfinite(covs).all()):
            raise SingularCovariance("variances must be strictly positive")
        logdet = dim * np.log(covs)
        centre = np.einsum("k,kd->d", weights, means)
        xt = np.empty((n, d))  # C-ordered whatever the layout of X
        np.subtract(X, centre, out=xt)
        mt = means - centre
        maha = (np.einsum("nd,kd->nk", xt, -2.0 * mt) + np.einsum("nd,nd->n", xt, xt)[:, None]
                + np.einsum("kd,kd->k", mt, mt))
        maha = np.maximum(maha, 0.0) / covs
    else:
        try:
            chol = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance("covariance is not positive definite") from exc
        if not np.isfinite(chol).all():
            raise ValueError("array must not contain infs or NaNs")
        try:
            inv_t = np.linalg.inv(chol).transpose(0, 2, 1)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance("covariance factor is singular") from exc
        logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        maha = np.empty((k_total, n)).T  # (n, K), written a block of components at a time
        per_block = max(1, _BLOCK_ELEMENTS // max(1, n * d))
        buffer = np.empty((min(per_block, k_total), n, d))
        for start in range(0, k_total, per_block):
            stop = min(start + per_block, k_total)
            diff = buffer[:stop - start]
            np.copyto(diff, X)  # in place: faster than broadcasting X[None] - means
            np.subtract(diff, means[start:stop, None], out=diff)
            z = np.matmul(diff, inv_t[start:stop])
            np.einsum("knd,knd->kn", z, z, out=maha.T[start:stop])
    # in place, the same bits as log(w) + -0.5 * ((D log 2π + logdet) + maha)
    maha += dim * _LOG_2PI + logdet
    maha *= -0.5
    out = np.empty((n, k_total))
    np.add(np.log(weights), maha, out=out)
    return out


def _estep_arrays(X: np.ndarray, counts: np.ndarray, params: tuple, mode: str, dim: int):
    """Responsibilities and total log-likelihood of the mixture ``params``
    (weights, means, covariances) from one density pass over checked rows.

    ``counts`` (one per row) weights each row's log-likelihood, as if the row
    appeared that many times.
    """
    wlp = _log_prob_arrays(X, *params, mode, dim)
    lse = log_sum_exp(wlp)
    r = np.exp(wlp - lse)
    r /= r.sum(axis=1, keepdims=True)
    return r, float(counts @ lse[:, 0])


def _mstep_arrays(
    X: np.ndarray, r: np.ndarray, counts: np.ndarray, params: tuple, mode: str, dim: int,
    reg_epsilon: float,
) -> tuple:
    """Re-estimate the mixture ``params`` from its responsibilities ``r``,
    dropping dead components; returns the new (weights, means, covariances).

    Row i's responsibilities weigh ``counts[i]`` times. A spherical variance
    is ``(r.T @ |x~|²) / mass - |mean~|²``, clipped at 0, over D, with ``~``
    the offset from the updated centre (see :func:`_log_prob_arrays`). Every
    variance then gets ``reg_epsilon``, so none falls below the ridge.
    """
    r = r * counts[:, None]
    mass = r.sum(axis=0)
    dead = mass < _DROP_MASS
    if dead.any():
        weights, means, covs = params
        log.info(
            "dropping %d of %d components with responsibility mass below %g",
            int(dead.sum()), weights.size, _DROP_MASS,
        )
        keep = weights[~dead]
        if keep.size == 0:
            raise DegenerateModel("mixture needs at least one component")
        # Python's left-to-right sum: np.sum adds pairwise once K >= 8, which
        # moves the last bits of the renormalized weights
        params = keep / sum(keep.tolist()), means[~dead], covs[~dead]
        r = _estep_arrays(X, counts, params, mode, dim)[0] * counts[:, None]
        mass = r.sum(axis=0)

    weights = mass / mass.sum()
    means = (r.T @ X) / mass[:, None]
    if mode == "spherical":
        centre = np.einsum("k,kd->d", weights, means)
        xt = np.empty(X.shape)
        np.subtract(X, centre, out=xt)
        mt = means - centre
        covs = np.einsum("nk,n->k", r, np.einsum("nd,nd->n", xt, xt)) / mass
        covs = np.maximum(covs - np.einsum("kd,kd->k", mt, mt), 0.0) / dim + reg_epsilon
    else:
        # (K, n, d) differences and weighted differences, freed as soon as they are used
        diff = np.empty((weights.size,) + X.shape)
        np.copyto(diff, X)  # in place, as in _log_prob_arrays
        np.subtract(diff, means[:, None, :], out=diff)
        weighted = np.multiply(r.T[:, :, None], diff, out=np.empty_like(diff))
        covs = weighted.transpose(0, 2, 1) @ diff
        del diff, weighted
        covs /= mass[:, None, None]
        diag = np.arange(dim)
        covs[:, diag, diag] += reg_epsilon
    return weights, means, covs


def mixture_log_density(g: GaussianMixture, data) -> np.ndarray:
    """Per-row log density under the mixture (max-shifted log-sum over components)."""
    X = as_matrix(data)
    _check_rows(g, X)
    wlp = _log_prob_arrays(X, g.weights, g.means, g.covariances, g.covariance_mode, g.dim)
    return log_sum_exp(wlp)[:, 0]


def responsibilities(g: GaussianMixture, data) -> np.ndarray:
    """(n, K) posterior component memberships; every row sums to one."""
    X = as_matrix(data)
    _check_rows(g, X)
    params = g.weights, g.means, g.covariances
    return _estep_arrays(X, np.ones(len(X)), params, g.covariance_mode, g.dim)[0]


def fit_em(
    g: GaussianMixture,
    data,
    tol: float = 1e-6,
    max_iter: int = 100,
    counts: np.ndarray | None = None,
) -> GaussianMixture:
    """Iterate E and M steps until the log-likelihood settles.

    Each iteration makes one density pass: the E-step of the updated mixture
    gives both its log-likelihood, for the trace, and the responsibilities of
    the next M-step. Convergence is ``|ll_new - ll_old| < tol * (1 + |ll_new|)``;
    a mixture that is already at a fixed point returns after a single
    iteration, ``tol=0.0, max_iter=k`` runs exactly k iterations, and
    ``max_iter=0`` returns the start's arrays with its log-likelihood as the
    only trace entry. The returned mixture carries the full log-likelihood
    trace. An M-step drops each component whose responsibility mass falls
    below 1e-12, renormalizes the surviving weights and logs the drop.

    ``counts`` gives each row a multiplicity: EM on distinct rows with their
    counts fits, up to rounding, what EM on the rows repeated that many times
    fits, with one density pass per distinct row. Its log-likelihood is
    ``counts @ log_density`` and the M-step weighs each row's
    responsibilities by its count. ``counts=None`` counts every row once.

    The rows are checked once; the iterations run on the mixture's arrays,
    and the only ``GaussianMixture`` built is the one returned, whose
    construction checks the fitted weights.
    """
    X = as_matrix(data)
    _check_rows(g, X)
    counts = np.ones(len(X)) if counts is None else np.asarray(counts, dtype=float)
    mode, dim, params = g.covariance_mode, g.dim, (g.weights, g.means, g.covariances)
    r, ll = _estep_arrays(X, counts, params, mode, dim)
    trace = [ll]
    for _ in range(max_iter):
        params = _mstep_arrays(X, r, counts, params, mode, dim, g.reg_epsilon)
        r, ll = _estep_arrays(X, counts, params, mode, dim)
        trace.append(ll)
        if abs(ll - trace[-2]) < tol * (1.0 + abs(ll)):
            break
    return GaussianMixture(*params, mode, g.reg_epsilon, tuple(trace), dim)


def mixture_scores(g: GaussianMixture, data) -> np.ndarray:
    """Each row's density over the rows' maximum density.

    The ratio is computed in log space, so it lands in (0, 1] with its
    maximum exactly 1 even when the raw densities leave the representable
    range.
    """
    lp = mixture_log_density(g, data)
    return np.exp(lp - lp.max())


def default_covariance_mode(dim: int) -> str:
    """Spherical beyond 50 columns, full otherwise."""
    return "spherical" if dim > 50 else "full"


def group_ids(ids: np.ndarray, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``ids`` in order of first occurrence, and each one's summed weight.

    Without ``weights`` the sum is the number of times the id occurs. A sum
    starts from 0.0, so an id that occurs once keeps its weight's bits.
    """
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return ids[first[order]], np.bincount(inverse, weights=weights)[order]


def init_gmm_from_codebook(match, data, dim: int | None = None) -> GaussianMixture:
    """Seed a mixture of model dimension ``dim`` (default: the width of ``data``).

    ``match`` indexes the rows of ``data``. Units with prior zero are
    dropped. The rest give one component per distinct matched instance, in
    order of first occurrence: its mean is that instance's row of ``data``
    and its weight the summed prior of the units that matched it,
    renormalized. The covariance mode is :func:`default_covariance_mode` of
    ``dim``. With ``s`` the summed column variance of ``data`` (which rows
    with the same distances share) over ``dim``, the ridge is ``1e-6 * s``,
    or the smallest positive normal float when that is smaller, so that rows
    that are all alike still get one. Every component starts from the column
    variances plus the ridge on the diagonal in full mode, or ``s`` plus the
    ridge in spherical mode; EM adds the same ridge.

    Merging units is exact: components with one mean and one covariance stay
    proportional under EM, so the merged start fits the same density up to
    rounding. A match whose positive-prior units hold distinct instances gives
    one component per unit, with the weights of the unmerged start bit for bit.
    """
    X = as_matrix(data)
    keep = match.priors > 0
    if not keep.any():
        raise DegenerateModel("every unit has prior zero")
    dim = X.shape[1] if dim is None else dim
    covariance_mode = default_covariance_mode(dim)
    base_var = X.var(axis=0)
    scale = float(base_var.sum()) / dim
    reg_epsilon = max(1e-6 * scale, np.finfo(float).tiny)
    ids, priors = group_ids(match.matched_instance_ids[keep], match.priors[keep])
    weights = priors / priors.sum()
    if covariance_mode == "spherical":
        covs = np.full(weights.size, scale + reg_epsilon)
    else:
        covs = np.repeat(np.diag(base_var + reg_epsilon)[None], weights.size, axis=0)
    return GaussianMixture(weights, X[ids], covs, covariance_mode, float(reg_epsilon), dim=dim)
