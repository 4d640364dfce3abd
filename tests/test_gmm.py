"""Mixture construction, density evaluation and the EM loop."""

import importlib.machinery
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ppp.data import _BLOCK_ELEMENTS
from ppp.errors import ConfigError, DegenerateModel, DimensionError, SingularCovariance
from ppp.gmm import (
    GaussianMixture,
    _load_dtrtrs,
    _m_step,
    _weighted_log_prob,
    default_covariance_mode,
    em_step,
    fit_em,
    init_gmm_from_codebook,
    log_likelihood,
    log_sum_exp,
    mixture_log_density,
    mixture_scores,
    responsibilities,
)
from ppp.som import CodebookMatchSet

from support import component_logpdf, log_gauss_one, mixture_pdf

LOG_2PI = math.log(2.0 * math.pi)


def _mixture(weights, means, covs, mode="full"):
    return GaussianMixture(
        np.asarray(weights, dtype=float),
        np.asarray(means, dtype=float),
        np.asarray(covs, dtype=float),
        mode,
        1e-9,
    )


def _random_mixture(rng, k, dim, mode="full"):
    weights = rng.dirichlet(np.ones(k))
    means = rng.standard_normal((k, dim)) * 2
    covs = []
    for _ in range(k):
        if mode == "diagonal":
            covs.append(rng.uniform(0.2, 2.0, size=dim))
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

    @pytest.mark.parametrize("mode,cov", [("diagonal", np.eye(3)), ("full", np.ones(3))])
    def test_covariance_shape_must_match_mode(self, mode, cov):
        """Diagonal mode takes (K, d) variances, full mode (K, d, d) matrices."""
        with pytest.raises(ConfigError):
            _mixture([0.5, 0.5], np.zeros((2, 3)), [cov] * 2, mode=mode)

    def test_means_rows_must_match_weights(self):
        with pytest.raises(ConfigError):
            _mixture([0.5, 0.5], np.zeros((3, 2)), [np.eye(2)] * 2)
        with pytest.raises(ConfigError):
            _mixture([0.5, 0.5], np.zeros(2), [np.eye(2)] * 2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            _mixture([1.0], np.zeros((1, 2)), [np.eye(2)], mode="spherical")

    def test_default_mode_switches_on_width(self):
        assert default_covariance_mode(50) == "full"
        assert default_covariance_mode(51) == "diagonal"


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

    def test_diagonal_matches_full(self):
        rng = np.random.default_rng(0)
        var = rng.uniform(0.5, 2.0, size=4)
        mean = rng.standard_normal(4)
        x = rng.standard_normal(4)
        assert component_logpdf(mean, var, x) == pytest.approx(
            component_logpdf(mean, np.diag(var), x), rel=1e-12
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
    mode, and within rounding in diagonal mode, whose contraction sums in
    another order."""

    @staticmethod
    def _oracle(g, X):
        expected = np.empty((X.shape[0], g.n_components))
        for k in range(g.n_components):
            expected[:, k] = np.log(g.weights[k]) + log_gauss_one(
                X, g.means[k], g.covariances[k], g.covariance_mode
            )
        return expected

    @classmethod
    def _assert_matches_oracle(cls, g, X):
        got, want = _weighted_log_prob(g, X), cls._oracle(g, X)
        if g.covariance_mode == "full":
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_equals_per_component_oracle(self, mode):
        rng = np.random.default_rng(20)
        g = _random_mixture(rng, 7, 5, mode)
        assert len(set(g.weights)) == g.n_components
        X = rng.standard_normal((40, 5)) * 2
        self._assert_matches_oracle(g, X)

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_output_is_c_contiguous(self, mode):
        """The row-wise log-sum adds in memory order, so the layout is part of the result."""
        rng = np.random.default_rng(21)
        g = _random_mixture(rng, 4, 3, mode)
        assert _weighted_log_prob(g, rng.standard_normal((9, 3))).flags.c_contiguous

    def test_singular_component_after_the_first_rejected(self):
        good = np.eye(2)
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        g = _mixture([0.5, 0.3, 0.2], np.zeros((3, 2)), [good, good, singular])
        with pytest.raises(SingularCovariance):
            mixture_log_density(g, np.zeros((4, 2)))
        g = _mixture([0.5, 0.3, 0.2], np.zeros((3, 2)),
                     [np.ones(2), np.ones(2), np.array([1.0, 0.0])], mode="diagonal")
        with pytest.raises(SingularCovariance):
            mixture_log_density(g, np.zeros((4, 2)))

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_non_finite_data_rejected(self, mode):
        g = _mixture([1.0], [np.zeros(2)], [np.eye(2) if mode == "full" else np.ones(2)], mode)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="infs or NaNs"):
                mixture_log_density(g, np.array([[0.0, bad]]))

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
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
        assert np.array_equal(_weighted_log_prob(g, X), self._oracle(g, X))

    def test_diagonal_far_offset_columns_at_a_mean(self):
        """Columns near 1e6 with unit spread and variances of 1e-6: uncentred,
        x² / variance is about 1e18 and its rounding swamps the density; centred
        on the mixture, a row at a component's mean keeps the oracle's value."""
        rng = np.random.default_rng(24)
        k, d = 5, 8
        means = 1e6 + rng.standard_normal((k, d))
        g = _mixture(rng.dirichlet(np.ones(k)), means, np.full((k, d), 1e-6), "diagonal")
        got = _weighted_log_prob(g, means)
        want = self._oracle(g, means)
        np.testing.assert_allclose(np.diagonal(got), np.diagonal(want), rtol=0, atol=1e-6)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_diagonal_row_at_a_far_mean_never_beats_the_peak(self):
        """The Mahalanobis term of a row at a component's mean is 0 in exact
        arithmetic, and the clip keeps its rounding from lifting the density
        above the component's peak."""
        rng = np.random.default_rng(29)
        k, d = 40, 60
        means = rng.standard_normal((k, d)) * 30
        covs = rng.uniform(0.5, 2.0, (k, d))
        g = _mixture(np.full(k, 1 / k), means, covs, "diagonal")
        peak = np.log(g.weights) - 0.5 * (d * LOG_2PI + np.log(covs).sum(axis=1))
        assert np.all(np.diagonal(_weighted_log_prob(g, means)) <= peak)

    def test_diagonal_row_alone_gets_the_same_bits(self):
        """A row's density does not depend on the rows scored with it."""
        rng = np.random.default_rng(25)
        g = _random_mixture(rng, 9, 70, "diagonal")
        X = rng.standard_normal((33, 70)) * 2 + 3
        together = _weighted_log_prob(g, X)
        for i in range(len(X)):
            assert np.array_equal(_weighted_log_prob(g, X[i:i + 1])[0], together[i])
        assert np.array_equal(_weighted_log_prob(g, X[::-1]), together[::-1])

    def test_diagonal_kernels_do_not_depend_on_blas_threads(self):
        """A density pass and an M-step with 64 components at 200 x 2000, the
        shape where a BLAS matrix-product form gave other bits on two threads
        than on one."""
        code = (
            "import hashlib, numpy as np\n"
            "from ppp.gmm import GaussianMixture, _m_step, _weighted_log_prob, responsibilities\n"
            "rng = np.random.default_rng(26)\n"
            "k, n, d = 64, 200, 2000\n"
            "w = rng.dirichlet(np.ones(k)); w /= sum(w.tolist())\n"
            "X = rng.standard_normal((n, d)) + 3\n"
            "g = GaussianMixture(w, X[rng.choice(n, k, replace=False)] + 0.1,\n"
            "                    rng.uniform(50, 60, (k, d)), 'diagonal', 1e-6)\n"
            "h = hashlib.sha256(_weighted_log_prob(g, X).tobytes())\n"
            "u = _m_step(g, X, responsibilities(g, X))\n"
            "for a in (u.weights, u.means, u.covariances): h.update(a.tobytes())\n"
            "print(u.n_components, h.hexdigest())\n"
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
        self._same(a)
        assert np.all(log_sum_exp(a) == -np.inf)

    def test_single_column(self):
        self._same(np.array([[0.3], [-np.inf], [-7.25]]))

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
    assert _fresh_python(f"import sys, ppp; print({module!r} in sys.modules)") == "False"


def test_later_scipy_import_shares_the_solve():
    """scipy.linalg, imported after ppp, re-exports the very dtrtrs ppp loaded."""
    code = "import ppp.gmm, scipy.linalg.lapack as L; print(ppp.gmm.dtrtrs is L.dtrtrs)"
    assert _fresh_python(code) == "True"


def test_missing_lapack_wrapper_names_its_path(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError, match=r"linalg[/\\]_flapack\.missing\.so"):
        _load_dtrtrs()


class TestLogLikelihood:
    def test_single_row_at_mean(self):
        f = 3
        g = _mixture([1.0], [np.zeros(f)], [np.eye(f)])
        assert log_likelihood(g, np.zeros((1, f))) == pytest.approx(
            -(f / 2) * LOG_2PI, rel=1e-14
        )

    def test_duplicated_row_doubles(self):
        g = _mixture([0.4, 0.6], np.array([[0.0, 0.0], [2.0, 2.0]]), [np.eye(2)] * 2)
        row = np.array([[0.5, 1.0]])
        single = log_likelihood(g, row)
        assert log_likelihood(g, np.vstack([row, row])) == pytest.approx(
            2 * single, rel=1e-14
        )

    def test_matches_per_row_sum(self):
        rng = np.random.default_rng(3)
        g = _random_mixture(rng, 3, 2)
        X = rng.standard_normal((12, 2))
        per_row = sum(math.log(mixture_pdf(g, x)) for x in X)
        assert log_likelihood(g, X) == pytest.approx(per_row, rel=1e-12)


class TestResponsibilities:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 4))
        mode = "diagonal" if rng.random() < 0.5 else "full"
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
        updated, ll = em_step(g, X)
        np.testing.assert_allclose(updated.means[0], X.mean(axis=0), rtol=1e-12)
        centered = X - X.mean(axis=0)
        expected_cov = centered.T @ centered / len(X) + g.reg_epsilon * np.eye(3)
        np.testing.assert_allclose(updated.covariances[0], expected_cov, rtol=1e-10)
        assert ll == pytest.approx(log_likelihood(updated, X), rel=1e-14)

    def test_diagonal_single_component(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 4)) * np.array([1.0, 2.0, 0.5, 3.0])
        g = _mixture([1.0], [np.zeros(4)], [np.ones(4)], mode="diagonal")
        updated, _ = em_step(g, X)
        np.testing.assert_allclose(
            updated.covariances[0],
            X.var(axis=0) + g.reg_epsilon,
            rtol=1e-10,
        )

    def test_identical_rows_collapse(self):
        v = np.array([1.0, -2.0])
        X = np.tile(v, (10, 1))
        g = _mixture([0.5, 0.5], [np.zeros(2), np.ones(2)], [np.eye(2)] * 2)
        updated, _ = em_step(g, X)
        for mean, cov in zip(updated.means, updated.covariances):
            np.testing.assert_allclose(mean, v, atol=1e-9)
            np.testing.assert_allclose(cov, g.reg_epsilon * np.eye(2), atol=1e-12)

    def test_weights_stay_normalized(self):
        rng = np.random.default_rng(7)
        g = _random_mixture(rng, 4, 2)
        X = rng.standard_normal((25, 2))
        for _ in range(5):
            g, _ = em_step(g, X)
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
            updated, _ = em_step(g, X)
        assert updated.n_components == 1
        assert "dropping" in caplog.text
        assert updated.weights[0] == pytest.approx(1.0)

    def test_log_likelihood_never_decreases(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            g = _random_mixture(rng, 3, 2)
            X = rng.standard_normal((30, 2))
            prev = log_likelihood(g, X)
            for _ in range(4):
                g, ll = em_step(g, X)
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
        updated = _m_step(g, X, r)
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
        assert np.array_equal(_m_step(g, X, r).covariances, covs)


class TestDiagonalMStep:
    """The centred diagonal M-step against the per-component loop it replaces."""

    @staticmethod
    def _reference(g, X, r):
        mass = r.sum(axis=0)
        means = (r.T @ X) / mass[:, None]
        covs = np.empty_like(means)
        for k in range(g.n_components):
            diff = X - means[k]
            covs[k] = (r[:, k] @ (diff * diff)) / mass[k] + g.reg_epsilon
        return mass / mass.sum(), means, covs

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    @pytest.mark.parametrize("counted", [False, True])
    def test_equals_loop_reference(self, offset, counted):
        rng = np.random.default_rng(27)
        k, n, d = 6, 50, 80
        X = rng.standard_normal((n, d)) * 2 + offset
        g = GaussianMixture(
            np.full(k, 1 / k), X[:k] + 0.5, rng.uniform(2.0, 8.0, (k, d)), "diagonal", 1e-6
        )
        r = responsibilities(g, X)
        counts = rng.integers(1, 5, size=n).astype(float) if counted else None
        updated = _m_step(g, X, r, counts)
        assert updated.n_components == k
        weights, means, covs = self._reference(g, X, r if counts is None else r * counts[:, None])
        assert np.array_equal(updated.weights, weights)
        assert np.array_equal(updated.means, means)
        assert np.all(updated.covariances >= g.reg_epsilon)
        np.testing.assert_allclose(updated.covariances, covs, rtol=1e-12, atol=1e-9)

    def test_variance_of_repeated_rows_stays_at_the_ridge(self):
        """A component whose rows are one row repeated has variance 0 in exact
        arithmetic. Far from the centre, ``x~²`` and ``mean~²`` are large and
        their rounded difference can fall below 0; the clip keeps every
        variance at ``reg_epsilon`` or above."""
        rng = np.random.default_rng(28)
        d = 40
        row = 50.0 + rng.standard_normal(d)
        X = np.vstack([row, row, row, -row, -row + 1.0, -row - 1.0])
        r = np.zeros((6, 2))
        r[:3, 0] = rng.uniform(0.1, 0.9, 3)
        r[:, 1] = 1.0 - r[:, 0]
        g = GaussianMixture(
            np.array([0.25, 0.75]), np.zeros((2, d)), np.ones((2, d)), "diagonal", 1e-14
        )
        updated = _m_step(g, X, r)
        assert updated.n_components == 2
        assert np.all(updated.covariances >= 1e-14)
        np.testing.assert_allclose(updated.covariances[0], 1e-14, rtol=0, atol=1e-11)


class TestFitEm:
    def test_trace_starts_with_initial_likelihood(self):
        rng = np.random.default_rng(10)
        g = _random_mixture(rng, 2, 2)
        X = rng.standard_normal((20, 2))
        fitted = fit_em(g, X, tol=1e-6, max_iter=10)
        assert fitted.ll_trace[0] == pytest.approx(log_likelihood(g, X), rel=1e-14)
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
        stepped, _ = em_step(g, X)
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

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_trace_equals_iterated_em_step(self, mode):
        rng = np.random.default_rng(22)
        g = _random_mixture(rng, 4, 3, mode)
        X = rng.standard_normal((30, 3))
        stepped, trace = g, [log_likelihood(g, X)]
        for _ in range(6):
            stepped, ll = em_step(stepped, X)
            trace.append(ll)
        fitted = fit_em(g, X, tol=0.0, max_iter=6)
        assert fitted.ll_trace == tuple(trace)
        assert np.array_equal(fitted.means, stepped.means)
        assert np.array_equal(fitted.covariances, stepped.covariances)

    def test_component_starved_mid_run_is_dropped(self, caplog):
        """Two sharpening components take over every row; the broad third one
        loses mass geometrically and is dropped after several iterations."""
        X = np.array([[0, 0], [0.1, 0], [0, 0.1], [5, 5], [5.1, 5], [5, 5.1]])
        g = _mixture(
            [0.4, 0.4, 0.2],
            [np.zeros(2), np.full(2, 5.0), np.full(2, 2.5)],
            [np.eye(2), np.eye(2), 4 * np.eye(2)],
        )
        assert em_step(g, X)[0].n_components == 3
        stepped, trace = g, [log_likelihood(g, X)]
        for _ in range(12):
            stepped, ll = em_step(stepped, X)
            trace.append(ll)
        with caplog.at_level("INFO", logger="ppp.gmm"):
            fitted = fit_em(g, X, tol=0.0, max_iter=12)
        assert "dropping" in caplog.text
        assert fitted.n_components == 2
        assert fitted.ll_trace == tuple(trace)
        assert np.all(np.diff(fitted.ll_trace) >= -1e-8)


class TestCountedRows:
    """EM on distinct rows with their counts fits what EM on the repeated rows fits."""

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_counts_equal_repeated_rows(self, mode):
        # 40 rows for 4 components in 3 dimensions: no component collapses to a
        # spike, where the two fits' rounding would part ways
        rng = np.random.default_rng(23)
        distinct = rng.standard_normal((40, 3)) * 2
        counts = rng.integers(1, 5, size=40)
        repeated = np.repeat(distinct, counts, axis=0)[rng.permutation(counts.sum())]
        g = _random_mixture(rng, 4, 3, mode)
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
        assert got.n_components == want.n_components == 2
        np.testing.assert_allclose(got.ll_trace, want.ll_trace, rtol=1e-9)
        np.testing.assert_allclose(got.means, want.means, rtol=1e-9)


class TestMixtureScores:
    def test_single_row_normalizes_to_one(self):
        g = _mixture([1.0], [np.zeros(2)], [np.eye(2)])
        s = mixture_scores(g, np.array([[5.0, 5.0]]))
        assert s.normalized[0] == 1.0

    def test_ordering_follows_density(self):
        g = _mixture([1.0], [np.zeros(2)], [np.eye(2)])
        s = mixture_scores(g, np.array([[0.0, 0.0], [10.0, 0.0]]))
        assert s.normalized[0] > s.normalized[1]
        assert s.normalized[0] == 1.0

    def test_matches_direct_normalization(self):
        rng = np.random.default_rng(14)
        g = _random_mixture(rng, 3, 2)
        X = rng.standard_normal((15, 2))
        s = mixture_scores(g, X)
        densities = np.array([mixture_pdf(g, x) for x in X])
        np.testing.assert_allclose(np.exp(s.log_density), densities, rtol=1e-12)
        np.testing.assert_allclose(s.normalized, densities / densities.max(), rtol=1e-12)

    def test_normalized_defined_when_densities_underflow(self):
        """Raw densities can hit zero; the normalized score must not."""
        g = _mixture([1.0], [np.zeros(2)], [np.eye(2)])
        X = np.array([[0.0, 0.0], [60.0, 0.0]])
        s = mixture_scores(g, X)
        assert np.exp(s.log_density[1]) == 0.0  # underflows as a raw density
        assert 0.0 < s.normalized[1] < 1e-300 or s.normalized[1] == 0.0
        assert s.normalized[0] == 1.0


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

    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_merged_start_has_the_unmerged_density(self, mode):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((30, 3))
        ids = rng.integers(0, 8, size=20)
        priors = rng.dirichlet(np.ones(20))
        g = init_gmm_from_codebook(self._match(priors, ids), X, covariance_mode=mode)
        assert g.n_components == np.unique(ids).size < ids.size
        unmerged = GaussianMixture(
            priors, X[ids], np.repeat(g.covariances[:1], ids.size, axis=0), mode, g.reg_epsilon
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
        assert g.n_components == 2
        np.testing.assert_allclose(g.weights, 0.5)

    def test_all_zero_priors_rejected(self):
        X = np.eye(3)
        match = self._match([0.0, 0.0])
        with pytest.raises(DegenerateModel):
            init_gmm_from_codebook(match, X)

    def test_unknown_mode_rejected(self):
        """The mixture the start would build rejects the mode, as every mixture does."""
        X = np.eye(3)
        with pytest.raises(ConfigError, match="covariance_mode must be one of"):
            init_gmm_from_codebook(self._match([0.5, 0.5]), X, covariance_mode="diag")

    def test_initial_covariance_is_global_diagonal(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((20, 2)) * np.array([1.0, 3.0])
        match = self._match([0.5, 0.5])
        g = init_gmm_from_codebook(match, X, covariance_mode="full", reg_epsilon=1e-8)
        expected = np.diag(X.var(axis=0) + 1e-8)
        for cov in g.covariances:
            np.testing.assert_allclose(cov, expected, rtol=1e-12)

    def test_default_mode_follows_width(self):
        rng = np.random.default_rng(18)
        narrow = rng.standard_normal((30, 4))
        match = self._match([1 / 3] * 3)
        assert init_gmm_from_codebook(match, narrow).covariance_mode == "full"
        wide = rng.standard_normal((60, 51))
        match_w = self._match([1 / 3] * 3)
        assert init_gmm_from_codebook(match_w, wide).covariance_mode == "diagonal"

    def test_nonpositive_reg_rejected(self):
        X = np.eye(3)
        match = self._match([0.5, 0.5])
        with pytest.raises(ConfigError):
            init_gmm_from_codebook(match, X, reg_epsilon=0.0)
