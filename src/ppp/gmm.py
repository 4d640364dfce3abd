"""Gaussian mixtures fit by expectation-maximization.

Everything runs in log space: per-component log densities are combined with a
max-shifted log-sum, so likelihoods and responsibilities stay finite far past
the range where raw densities underflow. A mixture is three stacked arrays
(weights, means, covariances) plus its covariance mode; mixtures are value
objects and every update builds a new one.

One density pass serves each EM iteration: the E-step derives the
responsibilities and the log-likelihood from the same (n, K) matrix of
weighted log densities, which is built for all components at once (one
stacked Cholesky factorization, one block of differences and one einsum in
full mode). Full-mode M-step covariances are one stacked matrix product.
Diagonal mode expands the squares around the mixture's centre
``weights @ means``, so its density pass and M-step are each one pass of
einsum contractions over all components, with (n, d) and (K, d) temporaries
and no (K, n, d) block, and a result that rounding takes below 0 is clipped
at 0. einsum, unlike a BLAS product, gives a row the same bits whichever
rows are scored with it and however many threads BLAS runs.

A codebook match holds row ids, not rows: :func:`init_gmm_from_codebook`
reads each unit's matched vector from the data matrix at its id. The ids
repeat, as several units often match one instance. So the start has one
component per distinct matched instance, and :func:`fit_em` takes an optional
per-row ``counts`` that lets EM see each distinct row once, weighted by its
multiplicity. Both fit the density of the repeated rows and units up to
rounding. With ``counts=None`` every row counts once, with the arithmetic of
iterating :func:`em_step`, and a match with no repeated instance starts one
component per unit.

scipy is still required, for its compiled LAPACK wrapper: the triangular
solve is the ``dtrtrs`` of ``scipy/linalg/_flapack``. Importing this module
loads that one extension and none of scipy's Python packages (``scipy``,
``scipy.linalg`` and ``scipy.special`` stay out of ``sys.modules``); a later
``import scipy.linalg`` reuses the same ``dtrtrs``. The log-sum over
components is :func:`log_sum_exp`, which repeats the arithmetic of scipy
1.17's ``logsumexp`` in plain numpy, so its bits do not depend on the
installed scipy release (earlier releases summed differently).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import os
from dataclasses import dataclass, replace

import numpy as np

from .data import _BLOCK_ELEMENTS, as_matrix
from .errors import ConfigError, DegenerateModel, DimensionError, SingularCovariance

log = logging.getLogger(__name__)


def _load_dtrtrs():
    """scipy's f2py ``dtrtrs``, loaded from ``scipy/linalg/_flapack`` alone.

    ``find_spec`` of a top-level name does not run ``scipy/__init__.py``, and
    building the module from its file runs only the extension's init. CPython
    caches that init under the name ``scipy.linalg._flapack``, so a later
    ``import scipy.linalg`` gets the same ``dtrtrs`` object.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("ppp needs scipy for its LAPACK wrapper")
    base = os.path.join(scipy_spec.submodule_search_locations[0], "linalg", "_flapack")
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.exists(p)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK wrapper is missing: {paths[0]}")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    return importlib.util.module_from_spec(spec).dtrtrs


dtrtrs = _load_dtrtrs()

_LOG_2PI = float(np.log(2.0 * np.pi))

# responsibility mass below which a component is considered dead
_DROP_MASS = 1e-12

COVARIANCE_MODES = ("full", "diagonal")


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """K weighted Gaussian components sharing one covariance mode, as stacked arrays.

    ``weights`` has shape (K,), ``means`` (K, d) and ``covariances`` (K, d, d)
    in full mode or (K, d) per-coordinate variances in diagonal mode. Weights
    are positive and sum to one within 1e-12. ``ll_trace`` is filled by
    :func:`fit_em` with the per-iteration log-likelihood (first entry is the
    likelihood of the starting mixture).
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    covariance_mode: str
    reg_epsilon: float
    ll_trace: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.covariance_mode not in COVARIANCE_MODES:
            raise ConfigError(f"covariance_mode must be one of {COVARIANCE_MODES}")
        for name in ("weights", "means", "covariances"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.weights.size == 0:
            raise DegenerateModel("mixture needs at least one component")
        if self.weights.ndim != 1 or self.means.ndim != 2 or len(self.means) != self.weights.size:
            raise ConfigError("weights must have shape (K,) and means shape (K, d)")
        k, d = self.means.shape
        expected = (k, d, d) if self.covariance_mode == "full" else (k, d)
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
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_iterations(self) -> int | None:
        return None if self.ll_trace is None else len(self.ll_trace) - 1


@dataclass(frozen=True, eq=False)
class MixtureScores:
    """Per-row mixture evaluation.

    ``normalized`` is density over max density, computed in log space, so it
    always lands in (0, 1] with its maximum exactly 1.
    """

    log_density: np.ndarray
    normalized: np.ndarray


def log_sum_exp(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis, keeping it as length one.

    Repeats the arithmetic of ``scipy.special.logsumexp(a, axis=-1,
    keepdims=True)`` in scipy 1.17, so real inputs agree bit for bit: the
    ``m`` entries equal to the maximum are left out of
    ``s = sum(exp(a - max))``, ``s`` is divided by ``m``, and the result is
    ``log1p(s) + log(m) + max``. A row of ``-inf`` gives ``-inf``, a row
    holding ``+inf`` but no NaN gives ``+inf``, and a row holding NaN gives NaN.
    """
    a_max = a.max(axis=-1, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=-1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = a - a_max
        shifted[is_max] = -np.inf
        s = np.exp(shifted).sum(axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        return np.log1p(s) + np.log(m) + a_max


def _weighted_log_prob(g: GaussianMixture, X: np.ndarray) -> np.ndarray:
    """(n, K) matrix of log(weight_k) + log density_k(row), one pass over all components.

    Full mode factorizes the covariances in one stacked Cholesky and writes
    the component differences into one C-ordered (k, n, d) buffer, a block
    of about ``_BLOCK_ELEMENTS`` elements at a time. Each component's
    triangular solve is the LAPACK call ``solve_triangular(chol, diff.T,
    lower=True)`` makes, run in place on the buffer's Fortran-ordered
    transpose (a copy would leave the buffer unsolved), and one einsum per
    block gives the Mahalanobis terms.

    Diagonal mode expands the quadratic form around the mixture's centre
    ``c = weights @ means``. With ``x~ = x - c``, ``m~ = mean - c`` and
    ``p = 1 / variance``, a component's Mahalanobis term is
    ``x~² · p - 2 x~ · (m~ p) + m~² · p``: two (n, d) by (K, d) einsums plus a
    per-component constant, clipped at 0. Centring keeps the cancellation at
    the scale of the data's spread, not of its column offsets. ``x~`` is
    written C-ordered, so einsum sums each entry over the columns in one
    order for any layout of X.

    Both modes reject non-finite data or means with ``ValueError``. The result
    is C-contiguous: the row-wise log-sum over components adds in memory
    order, so a transposed layout would change its last bits.
    """
    if X.shape[1] != g.dim:
        raise DimensionError(f"data has {X.shape[1]} columns, mixture dim is {g.dim}")
    n, d = X.shape
    k_total = g.n_components
    means, covs = g.means, g.covariances
    if not (np.isfinite(X).all() and np.isfinite(means).all()):
        raise ValueError("array must not contain infs or NaNs")
    if g.covariance_mode == "diagonal":
        if not ((covs > 0).all() and np.isfinite(covs).all()):
            raise SingularCovariance("variance vector must be strictly positive")
        logdet = np.log(covs).sum(axis=1)
        centre = np.einsum("k,kd->d", g.weights, means)
        xt = np.empty((n, d))  # C-ordered whatever the layout of X
        np.subtract(X, centre, out=xt)
        precision = 1.0 / covs
        mt = means - centre
        mp = mt * precision
        maha = np.einsum("nd,kd->nk", xt * xt, precision)
        maha -= 2.0 * np.einsum("nd,kd->nk", xt, mp)
        maha += np.einsum("kd,kd->k", mt, mp)
        np.maximum(maha, 0.0, out=maha)
    else:
        try:
            chol = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance("covariance is not positive definite") from exc
        if not np.isfinite(chol).all():
            raise ValueError("array must not contain infs or NaNs")
        logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        maha = np.empty((k_total, n)).T  # (n, K), written a block of components at a time
        per_block = max(1, _BLOCK_ELEMENTS // max(1, n * d))
        buffer = np.empty((min(per_block, k_total), n, d))
        for start in range(0, k_total, per_block):
            stop = min(start + per_block, k_total)
            diff = buffer[:stop - start]
            np.copyto(diff, X)  # in place: faster than broadcasting X[None] - means
            np.subtract(diff, means[start:stop, None], out=diff)
            for j in range(stop - start):
                _, info = dtrtrs(chol[start + j].T, diff[j].T, lower=0, trans=1, overwrite_b=1)
                if info != 0:
                    raise SingularCovariance("covariance factor is singular")
            np.einsum("knd,knd->kn", diff, diff, out=maha.T[start:stop])
    out = np.empty((n, k_total))
    np.add(np.log(g.weights), -0.5 * ((d * _LOG_2PI + logdet) + maha), out=out)
    return out


def _e_step(
    g: GaussianMixture, X: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Responsibilities and total log-likelihood of ``g`` from one density pass.

    ``counts`` (one per row) weights each row's log-likelihood, as if the row
    appeared that many times.
    """
    wlp = _weighted_log_prob(g, X)
    lse = log_sum_exp(wlp)
    r = np.exp(wlp - lse)
    r /= r.sum(axis=1, keepdims=True)
    return r, float(lse.sum() if counts is None else counts @ lse[:, 0])


def _subset(g: GaussianMixture, keep: np.ndarray) -> GaussianMixture:
    weights = g.weights[keep]
    # Python's left-to-right sum: np.sum adds pairwise once K >= 8, which moves
    # the last bits of the renormalized weights
    weights = weights / sum(weights.tolist())
    return GaussianMixture(
        weights, g.means[keep], g.covariances[keep], g.covariance_mode, g.reg_epsilon
    )


def _m_step(
    g: GaussianMixture, X: np.ndarray, r: np.ndarray, counts: np.ndarray | None = None
) -> GaussianMixture:
    """Re-estimate ``g`` from its responsibilities ``r``, dropping dead components.

    With ``counts``, row i's responsibilities weigh ``counts[i]`` times.
    Diagonal variances are ``(r.T @ x~²) / mass - mean~²`` in one einsum over
    the rows, where ``~`` is the offset from the updated mixture's centre
    ``weights @ means`` (see :func:`_weighted_log_prob`); they are clipped at
    0 and then get ``reg_epsilon``, so none falls below the ridge.
    """
    if counts is not None:
        r = r * counts[:, None]
    mass = r.sum(axis=0)
    dead = mass < _DROP_MASS
    if dead.any():
        log.info(
            "dropping %d of %d components with responsibility mass below %g",
            int(dead.sum()), g.n_components, _DROP_MASS,
        )
        g = _subset(g, ~dead)
        r, _ = _e_step(g, X)
        if counts is not None:
            r *= counts[:, None]
        mass = r.sum(axis=0)

    weights = mass / mass.sum()
    means = (r.T @ X) / mass[:, None]
    if g.covariance_mode == "diagonal":
        centre = np.einsum("k,kd->d", weights, means)
        sq = np.empty(X.shape)
        np.subtract(X, centre, out=sq)
        np.square(sq, out=sq)
        covs = np.einsum("nk,nd->kd", r, sq)
        covs /= mass[:, None]
        shifted = means - centre
        covs -= np.square(shifted, out=shifted)
        np.maximum(covs, 0.0, out=covs)
        covs += g.reg_epsilon
    else:
        # (K, n, d) differences and weighted differences, freed as soon as they are used
        diff = np.empty((g.n_components,) + X.shape)
        np.copyto(diff, X)  # in place, as in _weighted_log_prob
        np.subtract(diff, means[:, None, :], out=diff)
        weighted = np.multiply(r.T[:, :, None], diff, out=np.empty_like(diff))
        covs = weighted.transpose(0, 2, 1) @ diff
        del diff, weighted
        covs /= mass[:, None, None]
        diag = np.arange(g.dim)
        covs[:, diag, diag] += g.reg_epsilon
    return GaussianMixture(weights, means, covs, g.covariance_mode, g.reg_epsilon)


def mixture_log_density(g: GaussianMixture, data) -> np.ndarray:
    """Per-row log density under the mixture (max-shifted log-sum over components)."""
    X = as_matrix(data)
    return log_sum_exp(_weighted_log_prob(g, X))[:, 0]


def log_likelihood(g: GaussianMixture, data) -> float:
    """Total log-likelihood of the data rows under the mixture."""
    return _e_step(g, as_matrix(data))[1]


def responsibilities(g: GaussianMixture, data) -> np.ndarray:
    """(n, K) posterior component memberships; every row sums to one."""
    return _e_step(g, as_matrix(data))[0]


def em_step(g: GaussianMixture, data) -> tuple[GaussianMixture, float]:
    """One E+M pass; returns the updated mixture and its log-likelihood.

    A component whose responsibility mass falls below 1e-12 is dropped, the
    surviving weights are renormalized, and the pass restarts from the trimmed
    mixture (the drop is reported through logging). Covariances get
    ``reg_epsilon`` added on the diagonal when re-estimated.
    """
    X = as_matrix(data)
    updated = _m_step(g, X, _e_step(g, X)[0])
    return updated, _e_step(updated, X)[1]


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
    the next M-step, so the trace equals the one from iterating
    :func:`em_step`. Convergence is ``|ll_new - ll_old| < tol * (1 + |ll_new|)``;
    a mixture that is already at a fixed point returns after a single
    iteration. The returned mixture carries the full log-likelihood trace.

    ``counts`` gives each row a multiplicity: EM on distinct rows with their
    counts fits, up to rounding, what EM on the rows repeated that many times
    fits, with one density pass per distinct row. Its log-likelihood is
    ``counts @ log_density`` and the M-step weighs each row's
    responsibilities by its count. With ``counts=None`` every row counts once,
    with the exact arithmetic of iterating :func:`em_step`.
    """
    X = as_matrix(data)
    if counts is not None:
        counts = np.asarray(counts, dtype=float)
    r, ll = _e_step(g, X, counts)
    trace = [ll]
    for _ in range(max_iter):
        g = _m_step(g, X, r, counts)
        r, ll = _e_step(g, X, counts)
        trace.append(ll)
        if abs(ll - trace[-2]) < tol * (1.0 + abs(ll)):
            break
    return replace(g, ll_trace=tuple(trace))


def mixture_scores(g: GaussianMixture, data) -> MixtureScores:
    """Evaluate the mixture on every row.

    The normalized score (density over max density) is computed entirely in
    log space, so it is meaningful even when the raw densities leave the
    representable range.
    """
    lp = mixture_log_density(g, data)
    return MixtureScores(lp, np.exp(lp - lp.max()))


def default_covariance_mode(dim: int) -> str:
    """Diagonal beyond 50 columns, full otherwise."""
    return "diagonal" if dim > 50 else "full"


def init_gmm_from_codebook(
    match,
    data,
    covariance_mode: str | None = None,
    reg_epsilon: float | None = None,
) -> GaussianMixture:
    """Seed a mixture from a codebook match.

    ``match`` indexes the rows of ``data``. Units with prior zero are
    dropped. The rest give one component per distinct matched instance, in
    order of first occurrence: its mean is that instance's row of ``data``
    and its weight the summed prior of the units that matched it,
    renormalized. Every component starts from the same diagonal covariance,
    the global per-column variance of ``data`` plus ``reg_epsilon`` (default
    ``1e-6 *`` mean column variance, floored at 1e-12).

    Merging units is exact: components with one mean and one covariance stay
    proportional under EM, so the merged start fits the same density up to
    rounding. A match whose positive-prior units hold distinct instances gives
    one component per unit, with the weights of the unmerged start bit for bit.
    """
    X = as_matrix(data)
    keep = match.priors > 0
    if not keep.any():
        raise DegenerateModel("every unit has prior zero")
    if covariance_mode is None:
        covariance_mode = default_covariance_mode(X.shape[1])
    base_var = X.var(axis=0)
    if reg_epsilon is None:
        reg_epsilon = max(1e-6 * float(base_var.mean()), 1e-12)
    if reg_epsilon <= 0:
        raise ConfigError("reg_epsilon must be positive")
    start_var = base_var + reg_epsilon
    # a bin's sum starts from 0.0, so an instance matched once keeps its prior's bits
    ids = match.matched_instance_ids[keep]
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    priors = np.bincount(inverse, weights=match.priors[keep])[order]
    weights = priors / priors.sum()
    start_cov = start_var if covariance_mode == "diagonal" else np.diag(start_var)
    covs = np.repeat(start_cov[None], weights.size, axis=0)
    return GaussianMixture(
        weights, X[ids[first[order]]], covs, covariance_mode, float(reg_epsilon)
    )
