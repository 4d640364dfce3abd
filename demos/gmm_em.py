"""Fit a Gaussian mixture with EM and watch the log-likelihood climb."""

import numpy as np

from ppp.gmm import GaussianMixture, fit_em, mixture_scores, responsibilities


def three_blobs(rng, n_per=60):
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
    rows = [c + rng.standard_normal((n_per, 2)) for c in centers]
    return np.vstack(rows), centers


def main():
    rng = np.random.default_rng(42)
    X, true_centers = three_blobs(rng)
    print(f"{X.shape[0]} points drawn around {len(true_centers)} centers")

    # deliberately poor start: three random rows, unit covariance; a mixture
    # is stacked arrays: weights (K,), means (K, d), covariances (K, d, d)
    idx = rng.choice(len(X), size=3, replace=False)
    start = GaussianMixture(
        weights=np.full(3, 1 / 3),
        means=X[idx],
        covariances=np.repeat(np.eye(2)[None], 3, axis=0),
        covariance_mode="full",
        reg_epsilon=1e-9,
    )
    fitted = fit_em(start, X, tol=1e-8, max_iter=200)

    trace = fitted.ll_trace
    print(f"converged in {fitted.n_iterations} iterations")
    print("log-likelihood trace (every 2nd entry):")
    for t in range(0, len(trace), 2):
        print(f"  iter {t:3d}: {trace[t]:12.4f}")
    rises = all(b >= a - 1e-8 for a, b in zip(trace, trace[1:]))
    print(f"monotone non-decreasing: {rises}")

    print("\nfitted means vs true centers:")
    for mean in fitted.means:
        nearest = true_centers[np.argmin(((true_centers - mean) ** 2).sum(axis=1))]
        print(f"  fitted ({mean[0]:6.2f}, {mean[1]:6.2f})   "
              f"true ({nearest[0]:4.1f}, {nearest[1]:4.1f})")

    r = responsibilities(fitted, X)
    hard = (r.max(axis=1) > 0.9).mean()
    print(f"\nrows claimed by one component with > 0.9 responsibility: {hard:.0%}")
    print(f"every responsibility row sums to 1: "
          f"{bool(np.allclose(r.sum(axis=1), 1.0, atol=1e-12))}")

    scores = mixture_scores(fitted, X)
    print(f"normalized density: max {scores.max():.3f} "
          f"(always exactly 1), median {np.median(scores):.3f}")


if __name__ == "__main__":
    main()
