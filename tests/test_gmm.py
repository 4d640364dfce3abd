"""Mixture construction, density evaluation and the EM loop."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from scipy.linalg import solve_triangular
from hypothesis import given, settings
from hypothesis import strategies as st

from ppp.data import _BLOCK_ELEMENTS
from ppp.errors import ConfigError, DegenerateModel, DimensionError, SingularCovariance
from ppp.gmm import (
    GaussianMixture,
    default_covariance_mode,
    fit_em,
    group_ids,
    init_gmm_from_codebook,
    log_sum_exp,
    mixture_log_density,
    mixture_scores,
    responsibilities,
)
from ppp.som import CodebookMatchSet

from support import (
    component_logpdf,
    fit_em_reference,
    full_mahalanobis,
    log_gauss_one,
    log_sum_exp_reference,
    m_step,
    mixture_pdf,
    spherical_m_step_reference,
    weighted_log_prob,
)

LOG_2PI = math.log(2.0 * math.pi)


def _mixture(weights, means, covs, mode="full", dim=None):
    return GaussianMixture(
        np.asarray(weights, dtype=float),
        np.asarray(means, dtype=float),
        np.asarray(covs, dtype=float),
        mode,
        1e-9,
        dim=dim,
    )


def _random_mixture(rng, k, dim, mode="full"):
    weights = rng.dirichlet(np.ones(k))
    means = rng.standard_normal((k, dim)) * 2
    covs = []
    for _ in range(k):
        if mode == "spherical":
            covs.append(rng.uniform(0.2, 2.0))
        else:
            a = rng.standard_normal((dim, dim))
            covs.append(a @ a.T + np.eye(dim) * 0.5)
    return _mixture(weights, means, covs, mode)


class TestMixtureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            _mixture([0.5, 0.4], np.zeros((2, 2)), [np.eye(2)] * 2)

    def test_nan_weight_rejected(self):
        with pytest.raises(ConfigError):
            _mixture([np.nan, 1.0], np.zeros((2, 2)), [np.eye(2)] * 2)

    def test_weights_must_be_positive(self):
        with pytest.raises(ConfigError):
            _mixture([1.0, 0.0], np.zeros((2, 2)), [np.eye(2)] * 2)

    def test_needs_components(self):
        with pytest.raises(DegenerateModel):
            GaussianMixture(np.empty(0), np.empty((0, 2)), np.empty((0, 2, 2)), "full", 1e-9)

    @pytest.mark.parametrize(
        "mode,cov",
        [("diagonal", np.ones(3)), ("full", np.ones(3)), ("spherical", np.ones(3))],
    )
    def test_covariance_shape_must_match_mode(self, mode, cov):
        """Spherical mode takes (K,) variances, full mode (K, d, d) matrices;
        (K, d) per-column variances are refused by both, and by the retired
        diagonal mode that used to take them."""
        with pytest.raises(ConfigError):
            _mixture([0.5, 0.5], np.zeros((2, 3)), [cov] * 2, mode=mode)

    def test_means_rows_must_match_weights(self):
        with pytest.raises(ConfigError):
            _mixture([0.5, 0.5], np.zeros((3, 2)), [np.eye(2)] * 2)
        with pytest.raises(ConfigError):
            _mixture([0.5, 0.5], np.zeros(2), [np.eye(2)] * 2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            _mixture([1.0], np.zeros((1, 2)), [np.eye(2)], mode="diagonal")

    def test_default_mode_switches_on_width(self):
        assert default_covariance_mode(50) == "full"
        assert default_covariance_mode(51) == "spherical"

    def test_model_dimension(self):
        """``dim`` defaults to the means' width; a spherical mixture may model
        more columns than its rows have, a full one may not."""
        assert _mixture([1.0], np.zeros((1, 3)), [np.eye(3)]).dim == 3
        assert _mixture([1.0], np.zeros((1, 3)), [1.0], "spherical").dim == 3
        assert _mixture([1.0], np.zeros((1, 3)), [1.0], "spherical", dim=640).dim == 640
        for mode, cov, dim in [("full", np.eye(3), 4), ("spherical", 1.0, 0)]:
            with pytest.raises(ConfigError):
                _mixture([1.0], np.zeros((1, 3)), [cov], mode, dim=dim)


class TestComponentLogpdf:
    def test_standard_normal_at_mean(self):
        """At the mean with identity covariance the density is (2*pi)^(-f/2)."""
        for f in (1, 2, 5):
            assert component_logpdf(np.zeros(f), np.eye(f), np.zeros(f)) == pytest.approx(
                -(f / 2) * LOG_2PI, rel=1e-14
            )

    def test_one_dimensional_unit_point(self):
        assert component_logpdf(np.zeros(1), np.eye(1), np.ones(1)) == pytest.approx(
            -1.4189385332046727, rel=1e-14
        )

    def test_spherical_matches_full(self):
        rng = np.random.default_rng(0)
        var = rng.uniform(0.5, 2.0)
        mean = rng.standard_normal(4)
        x = rng.standard_normal(4)
        assert component_logpdf(mean, var, x) == pytest.approx(
            component_logpdf(mean, var * np.eye(4), x), rel=1e-12
        )

    def test_scaled_covariance_quadratic(self):
        """With covariance s*I the exponent is the squared distance over 2s."""
        s = 4.0
        x = np.array([2.0, 0.0])
        expected = -LOG_2PI - 0.5 * math.log(s**2) - (x @ x) / (2 * s)
        assert component_logpdf(np.zeros(2), s * np.eye(2), x) == pytest.approx(
            expected, rel=1e-14
        )

    def test_singular_covariance_rejected(self):
        with pytest.raises(SingularCovariance):
            component_logpdf(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros(2))
        with pytest.raises(SingularCovariance):
            component_logpdf(np.zeros(2), np.zeros(2), np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            component_logpdf(np.zeros(3), np.eye(3), np.zeros(2))

    def test_gradient_matches_finite_differences(self):
        """d(logpdf)/dx = -Sigma^(-1)(x - mu), checked numerically."""
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + np.eye(3)
        mean = rng.standard_normal(3)
        x = rng.standard_normal(3)
        analytic = -np.linalg.solve(cov, x - mean)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            numeric = (
                component_logpdf(mean, cov, x + e) - component_logpdf(mean, cov, x - e)
            ) / (2 * h)
            assert numeric == pytest.approx(analytic[j], rel=1e-5, abs=1e-8)


class TestMixtureDensity:
    def test_single_component_equals_logpdf(self):
        g = _mixture([1.0], [np.array([1.0, -1.0])], [np.eye(2)])
        x = np.array([0.3, 0.4])
        assert mixture_pdf(g, x) == pytest.approx(
            math.exp(component_logpdf(g.means[0], g.covariances[0], x)), rel=1e-14
        )

    def test_identical_components_collapse(self):
        mean, cov = np.zeros(2), np.eye(2)
        one = _mixture([1.0], [mean], [cov])
        two = _mixture([0.5, 0.5], [mean, mean], [cov, cov])
        x = np.array([0.7, -0.2])
        assert mixture_pdf(two, x) == pytest.approx(mixture_pdf(one, x), rel=1e-14)

    def test_matches_naive_summation(self):
        """Log-space evaluation equals the direct weighted sum of densities."""
        rng = np.random.default_rng(2)
        g = _random_mixture(rng, 3, 2)
        for _ in range(10):
            x = rng.standard_normal(2)
            naive = sum(
                w * math.exp(component_logpdf(m, c, x))
                for w, m, c in zip(g.weights, g.means, g.covariances)
            )
            assert mixture_pdf(g, x) == pytest.approx(naive, rel=1e-12)

    def test_survives_extreme_offsets(self):
        """Far from all components the log density stays finite."""
        g = _mixture([1.0], [np.zeros(2)], [np.eye(2)])
        lp = mixture_log_density(g, np.array([[1e3, 1e3]]))
        assert np.isfinite(lp[0])
        assert lp[0] < -9e5

    def test_dimension_mismatch(self):
        g = _mixture([1.0], [np.zeros(3)], [np.eye(3)])
        with pytest.raises(DimensionError):
            mixture_pdf(g, np.zeros(2))


class TestBatchedDensity:
    """The one-pass kernel against the per-component oracle: bit for bit in full
    mode, and within rounding in spherical mode, whose contraction sums in
    another order."""

    @staticmethod
    def _oracle(g, X):
        expected = np.empty((X.shape[0], g.weights.size))
        for k in range(g.weights.size):
            expected[:, k] = np.log(g.weights[k]) + log_gauss_one(
                X, g.means[k], g.covariances[k], g.covariance_mode, g.dim
            )
        return expected

    @classmethod
    def _assert_matches_oracle(cls, g, X):
        got, want = weighted_log_prob(g, X), cls._oracle(g, X)
        if g.covariance_mode == "full":
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("mode", ["full", "spherical"])
    def test_equals_per_component_oracle(self, mode):
        rng = np.random.default_rng(20)
        g = _random_mixture(rng, 7, 5, mode)
        assert len(set(g.weights)) == g.weights.size
        X = rng.standard_normal((40, 5)) * 2
        self._assert_matches_oracle(g, X)

    @pytest.mark.parametrize("mode", ["full", "spherical"])
    def test_output_is_c_contiguous(self, mode):
        """The row-wise log-sum adds in memory order, so the layout is part of the result."""
        rng = np.random.default_rng(21)
        g = _random_mixture(rng, 4, 3, mode)
        assert weighted_log_prob(g, rng.standard_normal((9, 3))).flags.c_contiguous

    def test_singular_component_after_the_first_rejected(self):
        good = np.eye(2)
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        g = _mixture([0.5, 0.3, 0.2], np.zeros((3, 2)), [good, good, singular])
        with pytest.raises(SingularCovariance):
            mixture_log_density(g, np.zeros((4, 2)))
        g = _mixture([0.5, 0.3, 0.2], np.zeros((3, 2)), [1.0, 1.0, 0.0], mode="spherical")
        with pytest.raises(SingularCovariance):
            mixture_log_density(g, np.zeros((4, 2)))

    @pytest.mark.parametrize("mode", ["full", "spherical"])
    def test_non_finite_data_rejected(self, mode):
        g = _mixture([1.0], [np.zeros(2)], [np.eye(2) if mode == "full" else 1.0], mode)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="infs or NaNs"):
                mixture_log_density(g, np.array([[0.0, bad]]))

    @pytest.mark.parametrize("mode", ["full", "spherical"])
    def test_column_sliced_input_equals_oracle(self, mode):
        """A column selection, as a child mixture sees its parent's vectors, is not C-ordered."""
        rng = np.random.default_rng(22)
        g = _random_mixture(rng, 6, 4, mode)
        wide = rng.standard_normal((30, 9)) * 2
        for X in (wide[:, [0, 3, 5, 8]], wide[:, 1::2]):
            assert not X.flags.c_contiguous
            self._assert_matches_oracle(g, X)

    def test_components_spanning_several_blocks_equal_oracle(self):
        rng = np.random.default_rng(23)
        k, n, d = 64, 200, 16
        assert k > 2 * (_BLOCK_ELEMENTS // (n * d))
        g = _random_mixture(rng, k, d)
        X = rng.standard_normal((n, d)) * 2
        assert np.array_equal(weighted_log_prob(g, X), self._oracle(g, X))

    def test_full_pass_holds_its_outputs_and_a_few_blocks(self):
        """Peak traced memory of one full-mode pass of 64 components on 200 x 16
        rows: its two (n, K) arrays plus six 128 KiB arrays (the 64 stacked 16 x
        16 factors and their inverses, a block of differences, two products, as
        the next is made before the last is freed, and one of slack), not the
        K x n x d differences (1.6 MB, about 3.9 MB at peak unblocked)."""
        rng = np.random.default_rng(24)
        k, n, d = 64, 200, 16
        g = _random_mixture(rng, k, d)
        X = rng.standard_normal((n, d)) * 2
        weighted_log_prob(g, X)  # lazy imports and caches first
        tracemalloc.start()
        try:
            out = weighted_log_prob(g, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n, k)
        assert peak < 2 * out.nbytes + 6 * 128 * 1024

    def test_spike_fits_stay_within_1e12_of_the_triangular_solve(self):
        """Fits as EM ends them (F3 in ROADMAP.md): each component's
        covariance is the scatter of one to four rows plus a ridge of 1e-6 times
        the column-variance scale, at widths 1-50. The kernel equals the
        per-component reference, whose Mahalanobis terms stay within a relative
        1e-12 of scipy's triangular solve."""
        rng = np.random.default_rng(32)
        worst = 0.0
        for _ in range(300):
            d, n, k = int(rng.integers(1, 51)), int(rng.integers(2, 13)), int(rng.integers(1, 5))
            X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10)
            ridge = 1e-6 * X.var(axis=0).sum() / d
            means, covs = np.empty((k, d)), np.empty((k, d, d))
            for j in range(k):
                m = int(rng.integers(1, min(n, 4) + 1))
                rows, r = X[rng.choice(n, m, replace=False)], rng.dirichlet(np.ones(m))
                means[j] = r @ rows
                dev = rows - means[j]
                covs[j] = (r[:, None] * dev).T @ dev + ridge * np.eye(d)
            g = _mixture(rng.dirichlet(np.ones(k)), means, covs)
            assert np.array_equal(weighted_log_prob(g, X), self._oracle(g, X))
            for mean, cov in zip(means, covs):
                chol = np.linalg.cholesky(cov)
                ours = full_mahalanobis(X - mean, chol)
                z = solve_triangular(chol, (X - mean).T, lower=True)
                theirs = np.einsum("dn,dn->n", z, z)
                assert np.array_equal(ours == 0, theirs == 0)
                nonzero = theirs > 0
                rel = np.abs(ours[nonzero] - theirs[nonzero]) / theirs[nonzero]
                worst = max(worst, rel.max(initial=0.0))
        assert 0 < worst <= 1e-12

    def test_spherical_model_dimension_sets_the_constant(self):
        """Rows of width 5 modelled as 640 columns: the oracle with D = 640,
        which differs from the width-5 density by the normalizing constant alone."""
        rng = np.random.default_rng(31)
        k, w, dim = 6, 5, 640
        g = _mixture(rng.dirichlet(np.ones(k)), rng.standard_normal((k, w)),
                     rng.uniform(0.5, 2.0, k), "spherical", dim=dim)
        X = rng.standard_normal((20, w)) * 2
        self._assert_matches_oracle(g, X)
        narrow = _mixture(g.weights, g.means, g.covariances, "spherical")
        shift = -0.5 * (dim - w) * (LOG_2PI + np.log(g.covariances))
        np.testing.assert_allclose(weighted_log_prob(g, X),
                                   weighted_log_prob(narrow, X) + shift, rtol=1e-12)

    def test_spherical_far_offset_columns_at_a_mean(self):
        """Columns near 1e6 with unit spread and variances of 1e-6: uncentred,
        |x|² / variance is about 1e19 and its rounding swamps the density; centred
        on the mixture, a row at a component's mean keeps the oracle's value."""
        rng = np.random.default_rng(24)
        k, d = 5, 8
        means = 1e6 + rng.standard_normal((k, d))
        g = _mixture(rng.dirichlet(np.ones(k)), means, np.full(k, 1e-6), "spherical")
        got = weighted_log_prob(g, means)
        want = self._oracle(g, means)
        np.testing.assert_allclose(np.diagonal(got), np.diagonal(want), rtol=0, atol=1e-6)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_spherical_row_at_a_far_mean_never_beats_the_peak(self):
        """The distance of a row at a component's mean is 0 in exact
        arithmetic, and the clip keeps its rounding from lifting the density
        above the component's peak."""
        rng = np.random.default_rng(29)
        k, d = 40, 60
        means = rng.standard_normal((k, d)) * 30
        covs = rng.uniform(0.5, 2.0, k)
        g = _mixture(np.full(k, 1 / k), means, covs, "spherical")
        peak = np.log(g.weights) - 0.5 * (d * LOG_2PI + d * np.log(covs))
        assert np.all(np.diagonal(weighted_log_prob(g, means)) <= peak)

    def test_spherical_row_alone_gets_the_same_bits(self):
        """A row's density does not depend on the rows scored with it."""
        rng = np.random.default_rng(25)
        g = _random_mixture(rng, 9, 70, "spherical")
        X = rng.standard_normal((33, 70)) * 2 + 3
        together = weighted_log_prob(g, X)
        for i in range(len(X)):
            assert np.array_equal(weighted_log_prob(g, X[i:i + 1])[0], together[i])
        assert np.array_equal(weighted_log_prob(g, X[::-1]), together[::-1])

    def test_spherical_kernels_do_not_depend_on_blas_threads(self):
        """A density pass and an M-step with 64 components at 200 x 2000, the
        shape where a BLAS matrix-product form of the diagonal kernels once
        gave other bits on two threads than on one."""
        code = (
            "import hashlib, numpy as np\n"
            "from ppp.gmm import GaussianMixture, _log_prob_arrays, _mstep_arrays\n"
            "from ppp.gmm import responsibilities\n"
            "rng = np.random.default_rng(26)\n"
            "k, n, d = 64, 200, 2000\n"
            "w = rng.dirichlet(np.ones(k)); w /= sum(w.tolist())\n"
            "X = rng.standard_normal((n, d)) + 3\n"
            "g = GaussianMixture(w, X[rng.choice(n, k, replace=False)] + 0.1,\n"
            "                    50 + rng.uniform(0, 0.01, k), 'spherical', 1e-6)\n"
            "params = g.weights, g.means, g.covariances\n"
            "h = hashlib.sha256(_log_prob_arrays(X, *params, 'spherical', d).tobytes())\n"
            "r = responsibilities(g, X)\n"
            "u = _mstep_arrays(X, r, np.ones(n), params, 'spherical', d, 1e-6)\n"
            "for a in u: h.update(a.tobytes())\n"
            "print(u[0].size, h.hexdigest())\n"
        )
        one = _fresh_python(code, OPENBLAS_NUM_THREADS="1")
        two = _fresh_python(code, OPENBLAS_NUM_THREADS="2")
        assert one.split()[0] == "64"
        assert one == two


class TestLogSumExp:
    """The numpy log-sum repeats scipy.special.logsumexp's arithmetic bit for bit."""

    @staticmethod
    def _same(a):
        ours = log_sum_exp(a)
        theirs = scipy.special.logsumexp(a, axis=1, keepdims=True)
        assert ours.shape == theirs.shape
        assert np.array_equal(ours, theirs, equal_nan=True)

    def test_random_rows(self):
        rng = np.random.default_rng(30)
        for k in (1, 2, 7, 8, 9, 64, 200):
            self._same(rng.standard_normal((50, k)) * 40)

    def test_tied_maxima(self):
        self._same(np.array([[1.5, 1.5, 0.25], [3.0, 3.0, 3.0], [-2.0, 0.1, 0.1]]))

    def test_minus_infinity_entries(self):
        inf = np.inf
        self._same(np.array([[-inf, 0.5, -1.0], [2.0, -inf, -inf], [-inf, -inf, 4.0]]))

    def test_all_minus_infinity_row_is_minus_infinity(self):
        a = np.full((2, 3), -np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._same(a)
            assert np.all(log_sum_exp(a) == -np.inf)

    def test_single_column(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            self._same(np.array([[0.3], [-np.inf], [-7.25]]))

    def test_equals_the_guarded_form(self):
        """No ``np.where``, no boolean-index write: the same bits, ±inf and NaN rows too."""
        rng = np.random.default_rng(4)
        a = rng.standard_normal((50, 6)) * 100
        a[3] = -np.inf
        a[4, 2] = np.inf
        a[5, 1] = np.nan
        a[6] = 7.0
        a[7, :3] = -np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.array_equal(log_sum_exp(a), log_sum_exp_reference(a), equal_nan=True)

    def test_vector_is_one_sum(self):
        """A 1-D input is one row: a length-one result, equal to scipy's."""
        v = np.random.default_rng(31).standard_normal(40) * 25
        v[3] = v.max()
        assert np.array_equal(log_sum_exp(v), np.atleast_1d(scipy.special.logsumexp(v)))


def _fresh_python(code: str, **env: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this checkout's ppp,
    with ``env`` added to its environment."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src), **env),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["scipy.special", "scipy.linalg", "scipy"])
def test_import_does_not_load_scipy_special(module):
    """``import ppp`` loads neither ``module`` nor any of its submodules."""
    code = (
        "import sys, ppp; "
        f"print(sorted(m for m in sys.modules if m == {module!r} or m.startswith({module + '.'!r})))"
    )
    assert _fresh_python(code) == "[]"


def test_full_mode_golden_tree_without_scipy():
    """With scipy unimportable, a full-covariance golden case keeps its tree.json bytes."""
    tests = Path(__file__).resolve().parent
    code = (
        "import sys, tempfile\n"
        "from pathlib import Path\n"
        "sys.modules['scipy'] = None\n"
        f"sys.path.insert(0, {str(tests)!r})\n"
        "import golden\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    tree = golden.grow('planted_200x16_seed1')\n"
        "    print(golden.record(tree, Path(tmp) / 'tree.json')['tree_sha256'])\n"
    )
    record = json.loads((tests / "data" / "golden.json").read_text(encoding="utf-8"))
    assert _fresh_python(code) == record["planted_200x16_seed1"]["tree_sha256"]


class TestLogLikelihood:
    def test_single_row_at_mean(self):
        f = 3
        g = _mixture([1.0], [np.zeros(f)], [np.eye(f)])
        assert fit_em(g, np.zeros((1, f)), max_iter=0).ll_trace[0] == pytest.approx(
            -(f / 2) * LOG_2PI, rel=1e-14
        )

    def test_duplicated_row_doubles(self):
        g = _mixture([0.4, 0.6], np.array([[0.0, 0.0], [2.0, 2.0]]), [np.eye(2)] * 2)
        row = np.array([[0.5, 1.0]])
        single = fit_em(g, row, max_iter=0).ll_trace[0]
        assert fit_em(g, np.vstack([row, row]), max_iter=0).ll_trace[0] == pytest.approx(
            2 * single, rel=1e-14
        )

    def test_matches_per_row_sum(self):
        rng = np.random.default_rng(3)
        g = _random_mixture(rng, 3, 2)
        X = rng.standard_normal((12, 2))
        per_row = sum(math.log(mixture_pdf(g, x)) for x in X)
        assert fit_em(g, X, max_iter=0).ll_trace[0] == pytest.approx(per_row, rel=1e-12)


class TestResponsibilities:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 4))
        mode = "spherical" if rng.random() < 0.5 else "full"
        g = _random_mixture(rng, k, dim, mode)
        X = rng.standard_normal((int(rng.integers(1, 30)), dim))
        r = responsibilities(g, X)
        np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(r >= 0)

    def test_far_clouds_are_decisive(self):
        rng = np.random.default_rng(4)
        cloud_a = rng.normal(0.0, 0.05, size=(20, 2))
        cloud_b = rng.normal(10.0, 0.05, size=(20, 2))
        g = _mixture(
            [0.5, 0.5],
            [np.zeros(2), np.full(2, 10.0)],
            [np.eye(2) * 0.05, np.eye(2) * 0.05],
        )
        r = responsibilities(g, np.vstack([cloud_a, cloud_b]))
        assert np.all(r[:20, 0] >= 0.999)
        assert np.all(r[20:, 1] >= 0.999)


class TestEmStep:
    def test_single_component_recovers_sample_moments(self):
        """With one component the update is exactly the data mean and the
        regularized data covariance."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 3)) * 1.5 + 2.0
        g = _mixture([1.0], [np.zeros(3)], [np.eye(3)])
        updated = fit_em(g, X, tol=0.0, max_iter=1)
        np.testing.assert_allclose(updated.means[0], X.mean(axis=0), rtol=1e-12)
        centered = X - X.mean(axis=0)
        expected_cov = centered.T @ centered / len(X) + g.reg_epsilon * np.eye(3)
        np.testing.assert_allclose(updated.covariances[0], expected_cov, rtol=1e-10)
        assert updated.ll_trace[1] == pytest.approx(
            fit_em(updated, X, max_iter=0).ll_trace[0], rel=1e-14
        )

    def test_spherical_single_component(self):
        """One component's variance is the summed column variance over D."""
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 4)) * np.array([1.0, 2.0, 0.5, 3.0])
        for dim in (4, 9):
            g = _mixture([1.0], [np.zeros(4)], [1.0], mode="spherical", dim=dim)
            updated = fit_em(g, X, tol=0.0, max_iter=1)
            np.testing.assert_allclose(
                updated.covariances[0], X.var(axis=0).sum() / dim + g.reg_epsilon, rtol=1e-10
            )

    def test_identical_rows_collapse(self):
        v = np.array([1.0, -2.0])
        X = np.tile(v, (10, 1))
        g = _mixture([0.5, 0.5], [np.zeros(2), np.ones(2)], [np.eye(2)] * 2)
        updated = fit_em(g, X, tol=0.0, max_iter=1)
        for mean, cov in zip(updated.means, updated.covariances):
            np.testing.assert_allclose(mean, v, atol=1e-9)
            np.testing.assert_allclose(cov, g.reg_epsilon * np.eye(2), atol=1e-12)

    def test_weights_stay_normalized(self):
        rng = np.random.default_rng(7)
        g = _random_mixture(rng, 4, 2)
        X = rng.standard_normal((25, 2))
        for _ in range(5):
            g = fit_em(g, X, tol=0.0, max_iter=1)
            assert abs(sum(g.weights) - 1.0) < 1e-12

    def test_starved_component_is_dropped(self, caplog):
        """A component placed far away with a tiny covariance receives no
        responsibility mass and is removed from the mixture."""
        rng = np.random.default_rng(8)
        X = rng.normal(0.0, 1.0, size=(30, 2))
        g = _mixture(
            [0.5, 0.5],
            [np.zeros(2), np.full(2, 1e4)],
            [np.eye(2), np.eye(2) * 1e-6],
        )
        with caplog.at_level("INFO", logger="ppp.gmm"):
            updated = fit_em(g, X, tol=0.0, max_iter=1)
        assert updated.weights.size == 1
        assert "dropping" in caplog.text
        assert updated.weights[0] == pytest.approx(1.0)

    def test_log_likelihood_never_decreases(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            g = _random_mixture(rng, 3, 2)
            X = rng.standard_normal((30, 2))
            prev = fit_em(g, X, max_iter=0).ll_trace[0]
            for _ in range(4):
                g = fit_em(g, X, tol=0.0, max_iter=1)
                ll = g.ll_trace[1]
                assert ll >= prev - 1e-8
                prev = ll


class TestFullMStep:
    """The buffered full-mode M-step equals the plain broadcast expression."""

    @staticmethod
    def _reference(g, X, r):
        mass = r.sum(axis=0)
        means = (r.T @ X) / mass[:, None]
        diff = X - means[:, None, :]
        covs = (r.T[:, :, None] * diff).transpose(0, 2, 1) @ diff
        covs /= mass[:, None, None]
        diag = np.arange(g.dim)
        covs[:, diag, diag] += g.reg_epsilon
        return mass / mass.sum(), means, covs

    @pytest.mark.parametrize("k, n, d", [(3, 30, 2), (64, 64, 16), (5, 200, 16), (2, 7, 1)])
    def test_equals_broadcast_expression(self, k, n, d):
        rng = np.random.default_rng(k * n + d)
        g = _random_mixture(rng, k, d)
        X = rng.standard_normal((n, d)) * 2
        r = responsibilities(g, X)
        updated = m_step(g, X, r, np.ones(n))
        weights, means, covs = self._reference(g, X, r)
        assert np.array_equal(updated.weights, weights)
        assert np.array_equal(updated.means, means)
        assert np.array_equal(updated.covariances, covs)

    def test_column_sliced_data(self):
        rng = np.random.default_rng(3)
        g = _random_mixture(rng, 4, 3)
        X = rng.standard_normal((40, 7))[:, ::2][:, :3]
        r = responsibilities(g, X)
        _, _, covs = self._reference(g, X, r)
        assert np.array_equal(m_step(g, X, r, np.ones(len(X))).covariances, covs)


class TestSphericalMStep:
    """The centred spherical M-step against the per-component loop reference."""

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    @pytest.mark.parametrize("counted", [False, True])
    def test_equals_loop_reference(self, offset, counted):
        rng = np.random.default_rng(27)
        k, n, d = 6, 50, 80
        X = rng.standard_normal((n, d)) * 2 + offset
        g = GaussianMixture(
            np.full(k, 1 / k), X[:k] + 0.5, rng.uniform(2.0, 8.0, k), "spherical", 1e-6, dim=200
        )
        r = responsibilities(g, X)
        counts = rng.integers(1, 5, size=n).astype(float) if counted else np.ones(n)
        updated = m_step(g, X, r, counts)
        assert updated.weights.size == k and updated.dim == 200
        weights, means, covs = spherical_m_step_reference(g, X, r * counts[:, None])
        assert np.array_equal(updated.weights, weights)
        assert np.array_equal(updated.means, means)
        assert np.all(updated.covariances >= g.reg_epsilon)
        np.testing.assert_allclose(updated.covariances, covs, rtol=1e-12, atol=1e-9)

    def test_variance_of_repeated_rows_stays_at_the_ridge(self):
        """A component whose rows are one row repeated has variance 0 in exact
        arithmetic. Far from the centre, ``|x~|²`` and ``|mean~|²`` are large
        and their rounded difference can fall below 0; the clip keeps every
        variance at ``reg_epsilon`` or above."""
        rng = np.random.default_rng(28)
        d = 40
        row = 50.0 + rng.standard_normal(d)
        X = np.vstack([row, row, row, -row, -row + 1.0, -row - 1.0])
        r = np.zeros((6, 2))
        r[:3, 0] = rng.uniform(0.1, 0.9, 3)
        r[:, 1] = 1.0 - r[:, 0]
        g = GaussianMixture(
            np.array([0.25, 0.75]), np.zeros((2, d)), np.ones(2), "spherical", 1e-14
        )
        updated = m_step(g, X, r, np.ones(6))
        assert updated.weights.size == 2
        assert np.all(updated.covariances >= 1e-14)
        np.testing.assert_allclose(updated.covariances[0], 1e-14, rtol=0, atol=1e-11)


class TestFitEm:
    def test_trace_starts_with_initial_likelihood(self):
        rng = np.random.default_rng(10)
        g = _random_mixture(rng, 2, 2)
        X = rng.standard_normal((20, 2))
        fitted = fit_em(g, X, tol=1e-6, max_iter=10)
        assert fitted.ll_trace[0] == fit_em(g, X, max_iter=0).ll_trace[0]
        assert fitted.n_iterations == len(fitted.ll_trace) - 1

    def test_fixed_point_returns_after_one_iteration(self):
        """A mixture that EM cannot improve converges on the first check."""
        rng = np.random.default_rng(11)
        X = rng.standard_normal((40, 2))
        g = _mixture([1.0], [X.mean(axis=0)], [np.cov(X.T, bias=True) + 1e-9 * np.eye(2)])
        fitted = fit_em(g, X, tol=1e-6, max_iter=50)
        assert fitted.n_iterations == 1

    def test_max_iter_one_runs_one_step(self):
        rng = np.random.default_rng(12)
        g = _random_mixture(rng, 3, 2)
        X = rng.standard_normal((25, 2))
        fitted = fit_em(g, X, tol=1e-15, max_iter=1)
        assert fitted.n_iterations == 1
        stepped = fit_em(g, X, tol=0.0, max_iter=1)
        np.testing.assert_allclose(fitted.means[0], stepped.means[0], rtol=1e-14)

    def test_trace_monotone_on_blobs(self):
        rng = np.random.default_rng(13)
        X = np.vstack([
            rng.normal(0.0, 0.5, size=(30, 2)),
            rng.normal(6.0, 0.5, size=(30, 2)),
        ])
        g = _mixture(
            [0.5, 0.5], [np.array([1.0, 1.0]), np.array([5.0, 5.0])], [np.eye(2)] * 2
        )
        fitted = fit_em(g, X, tol=1e-8, max_iter=100)
        trace = np.array(fitted.ll_trace)
        assert np.all(np.diff(trace) >= -1e-8)
        # the two far blobs must be found almost exactly
        means = sorted(float(m[0]) for m in fitted.means)
        assert means[0] == pytest.approx(0.0, abs=0.3)
        assert means[1] == pytest.approx(6.0, abs=0.3)

    @pytest.mark.parametrize("mode", ["full", "spherical"])
    def test_trace_equals_iterated_em_step(self, mode):
        rng = np.random.default_rng(22)
        g = _random_mixture(rng, 4, 3, mode)
        X = rng.standard_normal((30, 3))
        stepped, trace = g, [fit_em(g, X, max_iter=0).ll_trace[0]]
        for _ in range(6):
            stepped = fit_em(stepped, X, tol=0.0, max_iter=1)
            trace.append(stepped.ll_trace[1])
        fitted = fit_em(g, X, tol=0.0, max_iter=6)
        assert fitted.ll_trace == tuple(trace)
        assert np.array_equal(fitted.means, stepped.means)
        assert np.array_equal(fitted.covariances, stepped.covariances)

    @pytest.mark.parametrize("mode", ["full", "spherical"])
    def test_no_counts_is_unit_counts(self, mode):
        """EM has one weighted path: leaving out ``counts`` is passing ones, bit for bit."""
        rng = np.random.default_rng(29)
        g = _random_mixture(rng, 4, 3, mode)
        X = rng.standard_normal((30, 3))
        got = fit_em(g, X)
        want = fit_em(g, X, counts=np.ones(30))
        assert got.n_iterations > 1
        assert got.ll_trace == want.ll_trace
        for name in ("weights", "means", "covariances"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("mode", ["full", "spherical"])
    def test_max_iter_zero_returns_the_start(self, mode):
        rng = np.random.default_rng(30)
        g = _random_mixture(rng, 4, 3, mode)
        X = rng.standard_normal((30, 3))
        fitted = fit_em(g, X, max_iter=0)
        assert fitted.n_iterations == 0
        for name in ("weights", "means", "covariances"):
            assert np.array_equal(getattr(fitted, name), getattr(g, name))

    def test_component_starved_mid_run_is_dropped(self, caplog):
        """Two sharpening components take over every row; the broad third one
        loses mass geometrically and is dropped after several iterations."""
        X = np.array([[0, 0], [0.1, 0], [0, 0.1], [5, 5], [5.1, 5], [5, 5.1]])
        g = _mixture(
            [0.4, 0.4, 0.2],
            [np.zeros(2), np.full(2, 5.0), np.full(2, 2.5)],
            [np.eye(2), np.eye(2), 4 * np.eye(2)],
        )
        assert fit_em(g, X, tol=0.0, max_iter=1).weights.size == 3
        stepped, trace = g, [fit_em(g, X, max_iter=0).ll_trace[0]]
        for _ in range(12):
            stepped = fit_em(stepped, X, tol=0.0, max_iter=1)
            trace.append(stepped.ll_trace[1])
        with caplog.at_level("INFO", logger="ppp.gmm"):
            fitted = fit_em(g, X, tol=0.0, max_iter=12)
        assert "dropping" in caplog.text
        assert fitted.weights.size == 2
        assert fitted.ll_trace == tuple(trace)
        assert np.all(np.diff(fitted.ll_trace) >= -1e-8)


def _assert_same_fit(got, want):
    assert got.ll_trace == want.ll_trace
    assert (got.covariance_mode, got.reg_epsilon, got.dim) == (
        want.covariance_mode, want.reg_epsilon, want.dim)
    for name in ("weights", "means", "covariances"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


class TestFitEmMatchesReference:
    """fit_em on arrays equals the loop that builds one mixture per step, bit for bit."""

    @pytest.mark.parametrize("mode", ["full", "spherical"])
    @pytest.mark.parametrize("counted", [False, True])
    def test_random_fits(self, mode, counted):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n, d = int(rng.integers(3, 40)), int(rng.integers(1, 6))
            X = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
            counts = rng.integers(1, 6, size=n) if counted else None
            g = _random_mixture(rng, int(rng.integers(1, 6)), d, mode)
            if mode == "spherical":
                g = GaussianMixture(g.weights, g.means, g.covariances, mode, 1e-9, dim=d + seed)
            _assert_same_fit(fit_em(g, X, counts=counts), fit_em_reference(g, X, counts=counts))

    @pytest.mark.parametrize("mode", ["full", "spherical"])
    @pytest.mark.parametrize("counts", [None, np.array([1, 2, 1, 2, 1, 2])])
    def test_dead_component_drop(self, mode, counts, caplog):
        X = np.array([[0, 0], [0.1, 0], [0, 0.1], [5, 5], [5.1, 5], [5, 5.1]])
        covs = [np.eye(2), np.eye(2), 4 * np.eye(2)] if mode == "full" else [1.0, 1.0, 4.0]
        g = _mixture([0.4, 0.4, 0.2], [np.zeros(2), np.full(2, 5.0), np.full(2, 2.5)], covs,
                     mode)
        with caplog.at_level("INFO", logger="ppp.gmm"):
            got = fit_em(g, X, tol=0.0, max_iter=20, counts=counts)
        assert "dropping" in caplog.text and got.weights.size < 3
        _assert_same_fit(got, fit_em_reference(g, X, tol=0.0, max_iter=20, counts=counts))

    def test_a_single_row(self):
        g = _mixture([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], [1.0, 2.0], "spherical", dim=7)
        X = np.array([[0.3, -0.2]])
        _assert_same_fit(fit_em(g, X), fit_em_reference(g, X))

    @pytest.mark.parametrize("case", [
        "width", "nan_row", "inf_mean", "zero_variance", "not_positive_definite",
        "nan_covariance", "collapsed_spherical", "collapsed_full", "all_dead",
    ])
    def test_error_paths(self, case):
        X = np.random.default_rng(3).standard_normal((6, 2))
        counts = None
        mode, covs, means, reg = "full", [np.eye(2), np.eye(2)], [[0.0, 0.0], [1.0, 1.0]], 1e-9
        if case == "width":
            X = X[:, :1]
        elif case == "nan_row":
            X[2, 1] = np.nan
        elif case == "inf_mean":
            means[1][0] = np.inf
        elif case == "zero_variance":
            mode, covs = "spherical", [1.0, 0.0]
        elif case == "not_positive_definite":
            covs = [np.eye(2), -np.eye(2)]
        elif case == "nan_covariance":
            covs = [np.eye(2), np.full((2, 2), np.nan)]
        elif case in ("collapsed_spherical", "collapsed_full"):
            # identical rows and no ridge: the first M-step leaves a zero covariance
            X = np.ones((6, 2))
            reg = 0.0
            if case == "collapsed_spherical":
                mode, covs = "spherical", [1.0, 1.0]
        elif case == "all_dead":
            counts = np.full(6, 1e-14)
        g = GaussianMixture(np.array([0.5, 0.5]), np.array(means), np.array(covs), mode, reg)
        with pytest.raises(Exception) as want:
            fit_em_reference(g, X, counts=counts)
        with pytest.raises(type(want.value)) as got:
            fit_em(g, X, counts=counts)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("mode", ["full", "spherical"])
    def test_one_mixture_per_fit(self, mode, monkeypatch):
        rng = np.random.default_rng(5)
        g = _random_mixture(rng, 3, 2, mode)
        X = rng.standard_normal((20, 2))
        built = []
        real = GaussianMixture.__post_init__
        monkeypatch.setattr(GaussianMixture, "__post_init__",
                            lambda self: built.append(1) or real(self))
        fitted = fit_em(g, X, tol=0.0, max_iter=5)
        assert fitted.n_iterations == 5 and len(built) == 1


class TestCountedRows:
    """EM on distinct rows with their counts fits what EM on the repeated rows fits."""

    @pytest.mark.parametrize("mode", ["full", "spherical"])
    def test_counts_equal_repeated_rows(self, mode):
        # 40 rows in 3 dimensions for 4 full or 2 spherical components: no
        # component collapses to a spike, where the two fits' rounding would
        # part ways (3 or 4 spherical ones put one on a single row)
        rng = np.random.default_rng(23)
        distinct = rng.standard_normal((40, 3)) * 2
        counts = rng.integers(1, 5, size=40)
        repeated = np.repeat(distinct, counts, axis=0)[rng.permutation(counts.sum())]
        g = _random_mixture(rng, 4 if mode == "full" else 2, 3, mode)
        got = fit_em(g, distinct, counts=counts)
        want = fit_em(g, repeated)
        assert got.n_iterations == want.n_iterations > 1
        np.testing.assert_allclose(got.ll_trace, want.ll_trace, rtol=1e-9)
        for name in ("means", "covariances", "weights"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-9)

    def test_component_starved_mid_run_is_dropped(self, caplog):
        """As in TestFitEm, with each row given a count: the broad third component
        is still dropped, and the fit tracks the one on the repeated rows."""
        X = np.array([[0, 0], [0.1, 0], [0, 0.1], [5, 5], [5.1, 5], [5, 5.1]])
        counts = np.array([2, 1, 3, 1, 2, 1])
        g = _mixture(
            [0.4, 0.4, 0.2],
            [np.zeros(2), np.full(2, 5.0), np.full(2, 2.5)],
            [np.eye(2), np.eye(2), 4 * np.eye(2)],
        )
        want = fit_em(g, np.repeat(X, counts, axis=0), tol=0.0, max_iter=12)
        with caplog.at_level("INFO", logger="ppp.gmm"):
            got = fit_em(g, X, tol=0.0, max_iter=12, counts=counts)
        assert "dropping" in caplog.text
        assert got.weights.size == want.weights.size == 2
        np.testing.assert_allclose(got.ll_trace, want.ll_trace, rtol=1e-9)
        np.testing.assert_allclose(got.means, want.means, rtol=1e-9)


class TestMixtureScores:
    def test_single_row_normalizes_to_one(self):
        g = _mixture([1.0], [np.zeros(2)], [np.eye(2)])
        s = mixture_scores(g, np.array([[5.0, 5.0]]))
        assert s[0] == 1.0

    def test_ordering_follows_density(self):
        g = _mixture([1.0], [np.zeros(2)], [np.eye(2)])
        s = mixture_scores(g, np.array([[0.0, 0.0], [10.0, 0.0]]))
        assert s[0] > s[1]
        assert s[0] == 1.0

    def test_matches_direct_normalization(self):
        rng = np.random.default_rng(14)
        g = _random_mixture(rng, 3, 2)
        X = rng.standard_normal((15, 2))
        densities = np.array([mixture_pdf(g, x) for x in X])
        np.testing.assert_allclose(np.exp(mixture_log_density(g, X)), densities, rtol=1e-12)
        np.testing.assert_allclose(mixture_scores(g, X), densities / densities.max(), rtol=1e-12)

    def test_normalized_defined_when_densities_underflow(self):
        """Raw densities can hit zero; the normalized score must not."""
        g = _mixture([1.0], [np.zeros(2)], [np.eye(2)])
        X = np.array([[0.0, 0.0], [60.0, 0.0]])
        s = mixture_scores(g, X)
        assert np.exp(mixture_log_density(g, X)[1]) == 0.0  # underflows as a raw density
        assert 0.0 < s[1] < 1e-300 or s[1] == 0.0
        assert s[0] == 1.0


class TestGroupIds:
    def test_first_occurrence_order_and_counts(self):
        ids, counts = group_ids(np.array([7, 2, 7, 9, 2, 7]))
        assert ids.tolist() == [7, 2, 9]
        assert counts.tolist() == [3, 2, 1]

    def test_summed_weights_keep_a_single_weight_bits(self):
        weights = np.array([0.1, 0.2, 0.3, 1 / 3])
        ids, sums = group_ids(np.array([4, 1, 4, 0]), weights)
        assert ids.tolist() == [4, 1, 0]
        assert sums[0] == 0.1 + 0.3
        assert sums[1] == 0.2 and sums[2] == 1 / 3


class TestInitFromCodebook:
    def _match(self, priors, ids=None):
        """A match of ``ids`` (default: the first ``len(priors)`` rows)."""
        if ids is None:
            ids = np.arange(len(priors))
        return CodebookMatchSet(np.asarray(ids), np.asarray(priors, dtype=float))

    def test_means_are_matched_vectors(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((10, 3))
        match = self._match([0.25] * 4)
        g = init_gmm_from_codebook(match, X)
        np.testing.assert_array_equal(g.means, X[:4])
        np.testing.assert_allclose(g.weights, 0.25)

    def test_units_on_one_instance_merge(self):
        """Positive-prior units that matched one instance give one component with
        their summed prior, in order of first occurrence."""
        X = np.random.default_rng(19).standard_normal((10, 3))
        ids = [4, 2, 4, 7, 2]
        g = init_gmm_from_codebook(self._match([0.1, 0.2, 0.3, 0.25, 0.15], ids), X)
        np.testing.assert_array_equal(g.means, X[[4, 2, 7]])
        np.testing.assert_allclose(g.weights, [0.4, 0.35, 0.25], rtol=1e-12)

    def test_zero_prior_unit_on_a_shared_instance_adds_nothing(self):
        X = np.random.default_rng(20).standard_normal((10, 3))
        alone = init_gmm_from_codebook(self._match([0.4, 0.6], [4, 2]), X)
        ids = [2, 4, 2]
        g = init_gmm_from_codebook(self._match([0.0, 0.4, 0.6], ids), X)
        assert np.array_equal(g.means, alone.means)
        assert np.array_equal(g.weights, alone.weights)

    @pytest.mark.parametrize("mode", ["full", "spherical"])
    def test_merged_start_has_the_unmerged_density(self, mode):
        """Model dimension 51 makes the 3-column start spherical."""
        rng = np.random.default_rng(21)
        X = rng.standard_normal((30, 3))
        ids = rng.integers(0, 8, size=20)
        priors = rng.dirichlet(np.ones(20))
        g = init_gmm_from_codebook(self._match(priors, ids), X,
                                   dim=51 if mode == "spherical" else None)
        assert g.covariance_mode == mode
        assert g.weights.size == np.unique(ids).size < ids.size
        unmerged = GaussianMixture(
            priors, X[ids], np.repeat(g.covariances[:1], ids.size, axis=0), mode, g.reg_epsilon,
            dim=g.dim,
        )
        rows = rng.standard_normal((15, 3)) * 2
        np.testing.assert_allclose(
            mixture_log_density(g, rows), mixture_log_density(unmerged, rows), rtol=1e-12
        )

    def test_distinct_instances_give_the_unmerged_start(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((12, 3))
        ids = rng.permutation(12)[:9]
        priors = rng.dirichlet(np.ones(9))
        g = init_gmm_from_codebook(self._match(priors, ids), X)
        assert np.array_equal(g.means, X[ids])
        assert np.array_equal(g.weights, priors / priors.sum())

    def test_zero_prior_units_dropped(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((10, 3))
        match = self._match([0.5, 0.0, 0.5])
        g = init_gmm_from_codebook(match, X)
        assert g.weights.size == 2
        np.testing.assert_allclose(g.weights, 0.5)

    def test_all_zero_priors_rejected(self):
        X = np.eye(3)
        match = self._match([0.0, 0.0])
        with pytest.raises(DegenerateModel):
            init_gmm_from_codebook(match, X)

    def test_initial_covariance_is_global_diagonal(self):
        """Each full-mode component starts at the column variances plus the
        default ridge, 1e-6 of their mean."""
        rng = np.random.default_rng(17)
        X = rng.standard_normal((20, 2)) * np.array([1.0, 3.0])
        match = self._match([0.5, 0.5])
        g = init_gmm_from_codebook(match, X)
        assert g.covariance_mode == "full"
        assert g.reg_epsilon == pytest.approx(1e-6 * X.var(axis=0).sum() / 2, rel=1e-14)
        expected = np.diag(X.var(axis=0) + g.reg_epsilon)
        for cov in g.covariances:
            np.testing.assert_allclose(cov, expected, rtol=1e-12)

    def test_default_mode_follows_width(self):
        rng = np.random.default_rng(18)
        narrow = rng.standard_normal((30, 4))
        match = self._match([1 / 3] * 3)
        assert init_gmm_from_codebook(match, narrow).covariance_mode == "full"
        wide = rng.standard_normal((60, 51))
        match_w = self._match([1 / 3] * 3)
        assert init_gmm_from_codebook(match_w, wide).covariance_mode == "spherical"
        assert init_gmm_from_codebook(match_w, wide[:, :40], dim=51).covariance_mode == "spherical"

    @pytest.mark.parametrize("dim", [None, 200])
    def test_spherical_start_is_the_summed_variance_over_dim(self, dim):
        """Each component starts at (sum of column variances) / D plus the
        ridge, 1e-6 of that: the full-mode ridge rule for D columns."""
        X = np.random.default_rng(23).standard_normal((20, 60)) * 3
        g = init_gmm_from_codebook(self._match([0.5, 0.5]), X, dim=dim)
        d = X.shape[1] if dim is None else dim
        scale = X.var(axis=0).sum() / d
        assert g.covariance_mode == "spherical" and g.dim == d
        assert g.reg_epsilon == pytest.approx(1e-6 * scale, rel=1e-14)
        np.testing.assert_allclose(g.covariances, scale + g.reg_epsilon, rtol=1e-14)
