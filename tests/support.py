"""Shared test fixtures: the Lloyd-restart corpus and the numeric oracles.

The density oracle ``log_gauss_one`` evaluates one component at a time: in
full mode with the kernel's arithmetic on that component alone
(``full_mahalanobis``: the differences times the transposed inverse factor,
then an einsum), in spherical mode from each row's own difference to the
mean. The batched full-mode kernel in ``ppp.gmm`` must equal it bit for bit,
and the centred spherical contraction must agree with it up to rounding.
``spherical_m_step_reference`` is the spherical M-step as a loop over
components. The single-vector helpers below them serve as test oracles only.
``weighted_log_prob`` and ``m_step`` run the mixture kernels of ``ppp.gmm``
on a ``GaussianMixture``, for the tests of those kernels.
``fit_em_reference`` is the EM loop one ``GaussianMixture`` per step, with
the row checks and the guarded log-sum-exp of every step, and
``kmeans_bisect_reference`` the Lloyd loop by squared distances, ``argmin``
and masked group means; ``fit_em`` and ``kmeans_bisect`` must equal them bit
for bit (Lloyd wherever rounding leaves no point within reach of a tie).
``train_som_reference`` is the plain online SOM loop (two difference arrays
and one ``exp`` per step) closed by a per-unit scan for the match, and
``sq_distances_reference`` the one-shot broadcast distance kernel; the fused
loop in ``ppp.som.train_som`` and the row-chunked ``ppp.data.sq_distances``
must equal them bit for bit.

The restart guarantee is corpus-scoped on purpose. With naive seeded
initialization the global bipartition optimum is not always reachable: there
are small instances (one appears at corpus index 52) where Lloyd converges to
the same inferior fixed point from every possible pair of data points, so no
number of restarts helps. The fixed 50-instance corpus below is generated by
one mechanical rule with no per-instance tuning; both the unit suite and the
acceptance run score it through the same objective function the solver
reports.
"""

import itertools
from dataclasses import replace

import numpy as np

from ppp.data import as_matrix, derive_seed
from ppp.errors import DimensionError, SingularCovariance
from ppp.gmm import (
    _DROP_MASS,
    GaussianMixture,
    _check_rows,
    _log_prob_arrays,
    _mstep_arrays,
    mixture_log_density,
)
from ppp import kmeans
from ppp.data import sq_distances
from ppp.kmeans import _init_random, kmeans_objective
from ppp.som import CodebookMatchSet, SomModel, _grid_sqdist, _neighborhood

_LOG_2PI = float(np.log(2.0 * np.pi))

LLOYD_CORPUS_SIZE = 50


def lloyd_corpus_instance(i: int) -> np.ndarray:
    """Instance ``i`` of the small-problem corpus: 3..10 points, 1..3 dims."""
    rng = np.random.default_rng(derive_seed(0, "lloyd-corpus", i))
    n = int(rng.integers(3, 11))
    dim = int(rng.integers(1, 4))
    return rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0)


def lloyd_restart_seed(i: int, j: int) -> int:
    return derive_seed(0, "lloyd-corpus", i, "restart", j)


def brute_force_bipartition_objective(points: np.ndarray) -> float:
    """Exhaustive global optimum over 2-way partitions.

    Each candidate is scored exactly the way the solver reports its result:
    centers at the two group means, then kmeans_objective. The minimum over
    all partitions equals the global minimum of the k-means objective because
    optimal centers are always the means of the partition they induce.
    """
    n = len(points)
    best = np.inf
    for bits in itertools.product([0, 1], repeat=n - 1):
        labels = np.array((0,) + bits)  # fix point 0's side; halves the scan
        if labels.max() == 0:
            continue
        centers = np.stack([
            points[labels == 0].mean(axis=0),
            points[labels == 1].mean(axis=0),
        ])
        obj = kmeans_objective(centers, points)
        if obj < best:
            best = obj
    return best


def full_mahalanobis(diff: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """``|L⁻¹ x|²`` for each row x of ``diff``, with ``chol`` the lower factor L."""
    z = diff @ np.linalg.inv(chol).T
    return np.einsum("nd,nd->n", z, z)


def log_gauss_one(
    X: np.ndarray, mean: np.ndarray, cov, mode: str, dim: int | None = None
) -> np.ndarray:
    """Log density of one Gaussian of model dimension ``dim`` (default: the
    width of X) over the rows of X; ``cov`` is a variance in spherical mode."""
    d = mean.shape[0] if dim is None else dim
    diff = X - mean
    if mode == "spherical":
        if not (cov > 0 and np.isfinite(cov)):
            raise SingularCovariance("variance must be strictly positive")
        maha = np.einsum("nd,nd->n", diff, diff) / cov
        logdet = d * float(np.log(cov))
    else:
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance("covariance is not positive definite") from exc
        maha = full_mahalanobis(diff, chol)
        logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    return -0.5 * (d * _LOG_2PI + logdet + maha)


def spherical_m_step_reference(g: GaussianMixture, X: np.ndarray, r: np.ndarray):
    """Weights, means and variances of the spherical M-step, one component at
    a time: ``sum_i r_ik |x_i - mean_k|² / (D mass_k) + reg_epsilon``."""
    mass = r.sum(axis=0)
    means = (r.T @ X) / mass[:, None]
    covs = np.empty(g.weights.size)
    for k in range(g.weights.size):
        diff = X - means[k]
        covs[k] = (r[:, k] @ np.einsum("nd,nd->n", diff, diff)) / (g.dim * mass[k])
    return mass / mass.sum(), means, covs + g.reg_epsilon


def component_logpdf(mean, covariance, x) -> float:
    """Log density at the vector ``x`` of the Gaussian with this mean and a
    (d, d) covariance matrix or a variance (times the identity)."""
    mean = np.asarray(mean, dtype=float)
    covariance = np.asarray(covariance, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape != mean.shape:
        raise DimensionError(f"x has shape {x.shape}, component dim is {mean.shape[0]}")
    mode = "spherical" if covariance.ndim == 0 else "full"
    return float(log_gauss_one(x[None, :], mean, covariance, mode)[0])


def mixture_logpdf(g: GaussianMixture, x) -> float:
    """Mixture log density at a single vector."""
    x = np.asarray(x, dtype=float)
    return float(mixture_log_density(g, x[None, :])[0])


def mixture_pdf(g: GaussianMixture, x) -> float:
    """Mixture density at a single vector, evaluated through log space."""
    return float(np.exp(mixture_logpdf(g, x)))


def sq_distances_reference(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(n, m) squared distances from one n x m x d broadcast difference array."""
    diff = X[:, None, :] - Y[None, :, :]
    return np.einsum("nmd,nmd->nm", diff, diff)


def train_som_reference(som: SomModel, data) -> SomModel:
    """The online SOM loop step by step, then the closing assignment pass.

    The match is a per-unit scan of the rows (ties to the lowest row) with
    priors ``hits / n``.
    """
    X = as_matrix(data)
    n = X.shape[0]
    config = som.config
    total = config.epochs * n
    rng = np.random.default_rng(derive_seed(config.seed, "train"))
    draws = rng.integers(0, n, size=total)
    grid_sq = _grid_sqdist(config)
    codebook = som.codebook.copy()
    for t in range(total):
        x = X[draws[t]]
        diff = codebook - x
        winner = int(np.argmin(np.einsum("kd,kd->k", diff, diff)))
        h = _neighborhood(config, grid_sq[winner], t, total)
        codebook += h[:, None] * (x - codebook)

    sq = sq_distances_reference(X, codebook)
    bmu = np.argmin(sq, axis=1)
    hits = np.bincount(bmu, minlength=config.n_units).astype(np.int64)
    # each unit scans the rows in order and keeps the first strictly nearer one
    ids = np.zeros(config.n_units, dtype=np.int64)
    for k in range(config.n_units):
        for i in range(1, n):
            if sq[i, k] < sq[ids[k], k]:
                ids[k] = i
    match = CodebookMatchSet(ids, hits / n)
    return SomModel(config, codebook, hits, float(sq[np.arange(n), bmu].mean()), match)


def lloyd_step_reference(points: np.ndarray, centers: np.ndarray):
    """One Lloyd step on the (m, dim) points by squared distances.

    ``argmin`` takes the first minimum, so an exact tie goes to label 0; a
    side left empty gets the point farthest from its own center; the new
    centers are the masked group means.
    """
    d = sq_distances(points, centers)
    labels = np.argmin(d, axis=1)
    for label in (0, 1):
        if not np.any(labels == label):
            labels[int(np.argmax(d[np.arange(len(points)), labels]))] = label
    return labels, np.stack([points[labels == 0].mean(axis=0), points[labels == 1].mean(axis=0)])


def kmeans_bisect_reference(points, seed: int):
    """``kmeans_bisect``'s loop on :func:`lloyd_step_reference`, from the same start.

    Returns the labels, centers, objective, iteration count and convergence flag.
    """
    points = np.asarray(points, dtype=float)
    centers = _init_random(points, np.random.default_rng(seed))
    labels = None
    converged = False
    for iterations in range(1, kmeans._MAX_ITER + 1):
        new_labels, centers = lloyd_step_reference(points, centers)
        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
    return labels, centers, kmeans_objective(centers, points), iterations, converged


def weighted_log_prob(g: GaussianMixture, X: np.ndarray) -> np.ndarray:
    """The (n, K) weighted log densities of ``g`` on checked rows X, from the
    kernel every density pass runs."""
    _check_rows(g, X)
    return _log_prob_arrays(X, g.weights, g.means, g.covariances, g.covariance_mode, g.dim)


def m_step(g: GaussianMixture, X: np.ndarray, r: np.ndarray, counts: np.ndarray):
    """The mixture the M-step kernel re-estimates from ``g`` on rows X."""
    params = _mstep_arrays(X, r, counts, (g.weights, g.means, g.covariances),
                           g.covariance_mode, g.dim, g.reg_epsilon)
    return GaussianMixture(*params, g.covariance_mode, g.reg_epsilon, dim=g.dim)


def log_sum_exp_reference(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis as EM ran it per step: under ``errstate``,
    with a boolean-index write and ``np.where(s == 0, s, s / m)``."""
    a_max = a.max(axis=-1, keepdims=True)
    is_max = a == a_max
    m = is_max.sum(axis=-1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = a - a_max
        shifted[is_max] = -np.inf
        s = np.exp(shifted).sum(axis=-1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        return np.log1p(s) + np.log(m) + a_max


def e_step_reference(g: GaussianMixture, X: np.ndarray, counts: np.ndarray):
    """Responsibilities and weighted log-likelihood of ``g``, checking X and
    the means on every call, as each EM step did."""
    wlp = weighted_log_prob(g, X)
    lse = log_sum_exp_reference(wlp)
    r = np.exp(wlp - lse)
    r /= r.sum(axis=1, keepdims=True)
    return r, float(counts @ lse[:, 0])


def m_step_reference(g: GaussianMixture, X: np.ndarray, r: np.ndarray, counts: np.ndarray):
    """The M-step as a new ``GaussianMixture`` per step, a trimmed one first
    when a component's mass falls below ``_DROP_MASS``."""
    r = r * counts[:, None]
    mass = r.sum(axis=0)
    dead = mass < _DROP_MASS
    if dead.any():
        keep = g.weights[~dead]
        g = replace(g, weights=keep / sum(keep.tolist()), means=g.means[~dead],
                    covariances=g.covariances[~dead])
        r = e_step_reference(g, X, counts)[0] * counts[:, None]
        mass = r.sum(axis=0)
    weights = mass / mass.sum()
    means = (r.T @ X) / mass[:, None]
    if g.covariance_mode == "spherical":
        centre = np.einsum("k,kd->d", weights, means)
        xt = np.empty(X.shape)
        np.subtract(X, centre, out=xt)
        mt = means - centre
        covs = np.einsum("nk,n->k", r, np.einsum("nd,nd->n", xt, xt)) / mass
        covs = np.maximum(covs - np.einsum("kd,kd->k", mt, mt), 0.0) / g.dim + g.reg_epsilon
    else:
        diff = np.empty((g.weights.size,) + X.shape)
        np.copyto(diff, X)
        np.subtract(diff, means[:, None, :], out=diff)
        weighted = np.multiply(r.T[:, :, None], diff, out=np.empty_like(diff))
        covs = weighted.transpose(0, 2, 1) @ diff
        covs /= mass[:, None, None]
        diag = np.arange(g.dim)
        covs[:, diag, diag] += g.reg_epsilon
    return GaussianMixture(weights, means, covs, g.covariance_mode, g.reg_epsilon, dim=g.dim)


def fit_em_reference(g: GaussianMixture, data, tol=1e-6, max_iter=100, counts=None):
    """``fit_em``'s loop over :func:`e_step_reference` and :func:`m_step_reference`."""
    X = as_matrix(data)
    counts = np.ones(len(X)) if counts is None else np.asarray(counts, dtype=float)
    r, ll = e_step_reference(g, X, counts)
    trace = [ll]
    for _ in range(max_iter):
        g = m_step_reference(g, X, r, counts)
        r, ll = e_step_reference(g, X, counts)
        trace.append(ll)
        if abs(ll - trace[-2]) < tol * (1.0 + abs(ll)):
            break
    return replace(g, ll_trace=tuple(trace))
