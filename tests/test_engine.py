"""Split evaluation, tree growth, and the overlap objective."""

import tracemalloc

import numpy as np
import pytest

import ppp.engine as engine_mod
from ppp.data import DesignMatrix, IndexSet, derive_seed
from ppp.engine import (
    PppConfig,
    PppNode,
    PppTree,
    SplitEvaluation,
    accepted_posterior_by_depth,
    build_tree,
    child_posteriors,
    cluster_labels,
    cut_tree,
    evaluate_split,
    evaluate_splits,
    gamma_set,
    grow_node,
    overlap_fraction,
    split_objective,
)
from ppp.errors import (
    ConfigError,
    DegenerateModel,
    DimensionError,
    SingularCovariance,
    ValidationError,
)
from ppp.gmm import (
    GaussianMixture,
    default_covariance_mode,
    fit_em,
    init_gmm_from_codebook,
    mixture_log_density,
    mixture_scores,
)
from ppp.som import CodebookMatchSet, default_grid, default_som_config, init_som, train_soms
from ppp.synth import PlantedSpec, adjusted_rand_index, generate_planted
import golden
from support import mixture_pdf


def _blocks(node):
    return frozenset(
        frozenset(child.feature_set.indices.tolist()) for child in node.children
    )


class TestGammaSet:
    def test_strictly_above_threshold(self):
        got = gamma_set([0.9, 0.4, 0.6], 0.5)
        assert got.indices.tolist() == [0, 2]
        assert got.universe_size == 3

    def test_exact_threshold_excluded(self):
        assert gamma_set([0.5, 0.7], 0.5).indices.tolist() == [1]

    def test_none_qualify(self):
        assert len(gamma_set([0.1, 0.2], 0.5)) == 0


class TestOverlapFraction:
    def test_three_of_four(self):
        child = IndexSet(np.array([0, 1, 2, 3]), 10)
        core = IndexSet(np.array([0, 1, 2, 7]), 10)
        assert overlap_fraction(child, core) == pytest.approx(75.0)

    def test_contained(self):
        child = IndexSet(np.array([2, 4]), 10)
        core = IndexSet(np.array([0, 2, 4, 6]), 10)
        assert overlap_fraction(child, core) == 100.0

    def test_disjoint(self):
        child = IndexSet(np.array([0, 1]), 10)
        core = IndexSet(np.array([8, 9]), 10)
        assert overlap_fraction(child, core) == 0.0

    def test_empty_child_is_zero(self):
        child = IndexSet(np.array([], dtype=np.int64), 10)
        core = IndexSet(np.array([0, 1]), 10)
        assert overlap_fraction(child, core) == 0.0


class TestSplitObjective:
    def test_perfect_overlap_peaks_at_fifty(self):
        assert split_objective(100.0, 100.0) == pytest.approx(50.0)

    def test_double_zero_is_undefined(self):
        assert split_objective(0.0, 0.0) is None

    def test_one_sided_zero_is_present_zero(self):
        assert split_objective(0.0, 50.0) == 0.0

    def test_formula(self):
        assert split_objective(100.0, 50.0) == pytest.approx(100 * 50 / 150, rel=1e-12)

    def test_bounded_by_fifty_with_unique_peak(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(0, 100, size=2)
            score = split_objective(a, b)
            assert score is not None
            assert score <= 50.0
            if score == pytest.approx(50.0, abs=1e-9):
                assert a == pytest.approx(100.0, abs=1e-6)
                assert b == pytest.approx(100.0, abs=1e-6)


def _match_set(priors):
    """A match of the first ``len(priors)`` rows, one per unit."""
    return CodebookMatchSet(np.arange(len(priors)), np.asarray(priors, dtype=float))


def _isotropic(means, weight=None):
    means = np.asarray(means, dtype=float)
    k = len(means)
    w = 1.0 / k if weight is None else weight
    covs = np.repeat(np.eye(means.shape[1])[None], k, axis=0)
    return GaussianMixture(np.full(k, w), means, covs, "full", 1e-9)


class TestChildPosteriors:
    def test_identical_children_halve(self):
        vectors = np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
        g = _isotropic([[0.0, 0.0], [1.0, 1.0]])
        post_a, post_b = child_posteriors(_match_set([0.3, 0.3, 0.4]), g, g, vectors, vectors)
        np.testing.assert_allclose(post_a, 0.5, rtol=1e-12)
        np.testing.assert_allclose(post_b, 0.5, rtol=1e-12)

    def test_zero_prior_unit_gets_zero(self):
        vectors = np.zeros((3, 2))
        g = _isotropic([[0.0, 0.0]])
        post_a, post_b = child_posteriors(_match_set([0.5, 0.0, 0.5]), g, g, vectors, vectors)
        assert post_a[1] == 0.0 and post_b[1] == 0.0
        assert post_a[0] == 0.5

    def test_competitive_pair_sums_to_one(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((8, 3))
        ga = _isotropic(rng.standard_normal((2, 3)))
        gb = _isotropic(rng.standard_normal((3, 3)))
        priors = rng.dirichlet(np.ones(8))
        post_a, post_b = child_posteriors(_match_set(priors), ga, gb, vectors, vectors)
        np.testing.assert_allclose(post_a + post_b, 1.0, atol=1e-12)

    def test_competitive_favors_the_nearer_mixture(self):
        vectors = np.array([[0.0, 0.0], [10.0, 10.0]])
        ga = _isotropic([[0.0, 0.0]])
        gb = _isotropic([[10.0, 10.0]])
        post_a, _ = child_posteriors(_match_set([0.5, 0.5]), ga, gb, vectors, vectors)
        assert post_a[0] > 0.999
        assert post_a[1] < 0.001

    def test_column_restriction(self):
        """Each child mixture sees only its own rows, here its feature columns."""
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((5, 4))
        ga = _isotropic(rng.standard_normal((2, 2)))
        gb = _isotropic(rng.standard_normal((2, 2)))
        priors = np.full(5, 0.2)
        post_a, post_b = child_posteriors(
            _match_set(priors), ga, gb, vectors[:, [0, 2]], vectors[:, [1, 3]]
        )
        dens_a = np.array([mixture_pdf(ga, v) for v in vectors[:, [0, 2]]])
        dens_b = np.array([mixture_pdf(gb, v) for v in vectors[:, [1, 3]]])
        np.testing.assert_allclose(post_a, dens_a / (dens_a + dens_b), rtol=1e-12)
        np.testing.assert_allclose(post_b, dens_b / (dens_a + dens_b), rtol=1e-12)

    def test_rows_at_the_match_ids(self):
        """Each mixture scores its rows at the parent match's ids, unit by unit."""
        rng = np.random.default_rng(4)
        rows_a, rows_b = rng.standard_normal((6, 2)), rng.standard_normal((6, 3))
        ga, gb = _isotropic(rng.standard_normal((2, 2))), _isotropic(rng.standard_normal((1, 3)))
        match = CodebookMatchSet(np.array([4, 1, 4]), np.array([0.5, 0.25, 0.25]))
        post_a, _ = child_posteriors(match, ga, gb, rows_a, rows_b)
        dens_a = np.array([mixture_pdf(ga, rows_a[i]) for i in (4, 1, 4)])
        dens_b = np.array([mixture_pdf(gb, rows_b[i]) for i in (4, 1, 4)])
        np.testing.assert_allclose(post_a, dens_a / (dens_a + dens_b), rtol=1e-12)


class TestUnitsToInstances:
    """The node rows of the units whose posterior clears the threshold: the
    sorted distinct rows they matched, as np.unique gives them, in the node's
    universe."""

    @staticmethod
    def _both(ids, posterior, members):
        ids, posterior = np.asarray(ids), np.asarray(posterior, dtype=float)
        match = CodebookMatchSet(ids, np.full(ids.size, 1.0 / ids.size))
        got = engine_mod._units_to_instances(posterior, 0.5, match, members)
        assert got.universe_size == members.universe_size and got.indices.dtype == np.int64
        return got.indices, members.indices[np.unique(ids[posterior > 0.5])]

    @pytest.mark.parametrize("ids, posterior", [
        ([0, 1, 2, 3], [0.1, 0.2, 0.0, 0.5]),  # no unit clears the threshold
        ([4, 4, 1, 4, 1], [0.9, 0.8, 0.7, 0.2, 0.6]),  # rows matched by several units
        ([5, 0, 3, 2, 0, 5], [0.6, 0.9, 0.4, 0.55, 0.7, 0.8]),  # ids out of order
    ])
    def test_equals_np_unique_form(self, ids, posterior):
        got, want = self._both(ids, posterior, IndexSet(np.array([1, 4, 5, 8, 9, 12]), 15))
        assert np.array_equal(got, want)

    def test_equals_np_unique_form_on_random_matches(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            members = IndexSet(np.sort(rng.choice(40, n, replace=False)), 40)
            k = int(rng.integers(1, 20))
            got, want = self._both(rng.integers(0, n, k), rng.random(k), members)
            assert np.array_equal(got, want)


def _trained_shapes(monkeypatch):
    """Record the matrix shapes of every ``train_soms`` call an attempt makes."""
    calls = []
    real = engine_mod.train_soms

    def train(soms, data):
        calls.append([np.shape(m) for m in data])
        return real(soms, data)

    monkeypatch.setattr(engine_mod, "train_soms", train)
    return calls


class TestQuantize:
    """A node with more columns than rows trains its maps in its rows' own span."""

    @pytest.mark.parametrize("shape", [(48, 640), (10, 320), (3, 4)])
    @pytest.mark.parametrize("shared", [True, False])
    def test_wide_matches_equal_training_on_the_matrix(self, shape, shared):
        rng = np.random.default_rng(list(shape))
        matrices = [rng.standard_normal(shape)] * 3 if shared else [
            rng.standard_normal(shape) for _ in range(3)
        ]
        frames = [engine_mod._frame(X) for X in matrices]
        assert all(Y.shape == (shape[0], shape[0]) for Y in frames)
        seeds = [7, 8, 9]
        got = engine_mod._quantize(frames, seeds)
        soms = [init_som(default_som_config(shape[0], s), X) for X, s in zip(matrices, seeds)]
        for X, match, som in zip(matrices, got, train_soms(soms, matrices)):
            ids = match.matched_instance_ids
            assert np.array_equal(ids, som.match.matched_instance_ids)
            assert np.array_equal(X[ids], X[som.match.matched_instance_ids])
            assert np.array_equal(match.priors, som.match.priors)

    def test_frames_of_two_shapes_interleaved(self, monkeypatch):
        """Each shape's maps train in one lockstep call, and each match is,
        bit for bit, what its map gives trained alone, in the frames' order."""
        rng = np.random.default_rng(8)
        frames = [rng.standard_normal(shape) for shape in
                  [(30, 5), (30, 7), (30, 5), (30, 7), (30, 7)]]
        seeds = [3, 4, 5, 6, 7]
        calls = _trained_shapes(monkeypatch)
        got = engine_mod._quantize(frames, seeds)
        assert calls == [[(30, 5)] * 2, [(30, 7)] * 3]
        assert len(got) == len(frames)
        for Y, seed, match in zip(frames, seeds, got):
            som = train_soms([init_som(default_som_config(30, seed), Y)], [Y])[0]
            assert np.array_equal(match.matched_instance_ids, som.match.matched_instance_ids)
            assert np.array_equal(match.priors, som.match.priors)

    @pytest.mark.parametrize("shape", [(48, 640), (10, 320), (3, 4)])
    def test_duplicate_or_zero_row_trains_on_the_matrix(self, shape):
        # with this seed LAPACK factors each duplicate's Gram matrix without
        # error, leaving a pivot near 1e-8 of the row norm
        X = np.random.default_rng(5).standard_normal(shape)
        duplicate = X.copy()
        duplicate[-1] = X[0]
        zero = X.copy()
        zero[1] = 0.0
        for M in (duplicate, zero):
            assert engine_mod._frame(M) is M

    def test_narrow_matrix_is_its_own_frame(self):
        X = np.random.default_rng(3).standard_normal((20, 20))
        assert engine_mod._frame(X) is X

    @staticmethod
    def _starts(monkeypatch, X):
        """The (match, rows, start) of each mixture start of one attempt on X."""
        starts = []
        real = engine_mod.init_gmm_from_codebook

        def init(match, data, **kwargs):
            start = real(match, data, **kwargs)
            starts.append((match, data, start))
            return start

        monkeypatch.setattr(engine_mod, "init_gmm_from_codebook", init)
        node = PppNode(IndexSet.full(X.shape[1]), IndexSet.full(len(X)))
        evaluate_split(node, DesignMatrix.ingest(X), PppConfig(), 1)
        assert len(starts) == 3
        for match, data, start in starts:
            ids = match.matched_instance_ids[match.priors > 0]
            _, first = np.unique(ids, return_index=True)
            assert start.means.shape == (first.size, data.shape[1])
            assert np.array_equal(start.means, data[ids[np.sort(first)]])
        return starts

    def test_mixtures_start_from_the_matrix_rows(self, monkeypatch):
        """Maps train on 12 x 12 frames; full mixtures (at most 50 columns)
        start from their matrix's rows at the matched ids, the parent's with
        40 columns, a child's with its side's."""
        X = np.random.default_rng(4).standard_normal((12, 40))
        starts = self._starts(monkeypatch, X)
        assert np.array_equal(starts[0][1], X)
        assert sum(data.shape[1] for _, data, _ in starts[1:]) == 40
        assert all(start.covariance_mode == "full" for _, _, start in starts)

    def test_spherical_mixtures_start_from_the_frame_rows(self, monkeypatch):
        """Over 50 columns each mixture starts from its matrix's frame, 12 x 12,
        and models the matrix's column count: 200 for the parent, a side's
        for a child."""
        X = np.random.default_rng(4).standard_normal((12, 200))
        starts = self._starts(monkeypatch, X)
        assert np.array_equal(starts[0][1], engine_mod._frame(X))
        assert starts[0][2].dim == 200 and sum(start.dim for _, _, start in starts[1:]) == 200
        assert all(data.shape == (12, 12) for _, data, _ in starts)
        assert all(start.covariance_mode == "spherical" for _, _, start in starts)

    @staticmethod
    def _one_attempt(monkeypatch, shape):
        calls = _trained_shapes(monkeypatch)
        data = DesignMatrix.ingest(np.random.default_rng(5).standard_normal(shape))
        node = PppNode(IndexSet.full(shape[1]), IndexSet.full(shape[0]))
        evaluate_splits(node, data, PppConfig(), [21])
        return calls

    def test_wide_node_maps_train_on_its_row_count(self, monkeypatch):
        # both child sides have more columns than 48 rows, so they share one call
        assert self._one_attempt(monkeypatch, (48, 640)) == [[(48, 48)], [(48, 48)] * 2]

    def test_narrow_node_maps_train_on_its_columns(self, monkeypatch):
        calls = self._one_attempt(monkeypatch, (200, 16))
        assert calls[0] == [(200, 16)]
        children = [s for call in calls[1:] for s in call]  # each side's own columns
        assert [r for r, _ in children] == [200, 200] and sum(c for _, c in children) == 16


class TestFit:
    def test_distinct_rows_score_like_every_unit(self, planted120):
        """A node whose map matches instances to several units: the fit on the
        distinct matched rows scores the node rows as a fit of one component per
        positive-prior unit on every unit's matched vector does."""
        X = planted120.matrix.values
        match = engine_mod._quantize([X], [11])[0]
        ids = match.matched_instance_ids
        assert np.unique(ids).size < match.priors.size
        got = engine_mod._fit(match, X, X.shape[1])
        keep = match.priors > 0
        start = init_gmm_from_codebook(match, X)
        unmerged = GaussianMixture(
            match.priors[keep] / match.priors[keep].sum(), X[ids][keep],
            np.repeat(start.covariances[:1], keep.sum(), axis=0), start.covariance_mode,
            start.reg_epsilon,
        )
        want = fit_em(unmerged, X[ids])
        assert got.n_iterations == want.n_iterations
        np.testing.assert_allclose(mixture_log_density(got, X), mixture_log_density(want, X),
                                   rtol=1e-8)
        np.testing.assert_allclose(mixture_scores(got, X), mixture_scores(want, X), atol=1e-12)

    def test_distinct_matched_rows_fit_every_unit(self, planted120, monkeypatch):
        """A match with no repeated instance hands EM every matched vector, each counted once."""
        X = planted120.matrix.values
        ids = np.arange(0, 120, 3)
        seen = []
        monkeypatch.setattr(engine_mod, "fit_em", lambda g, data, **kw: seen.append((data, kw)))
        engine_mod._fit(CodebookMatchSet(ids, np.full(ids.size, 1 / ids.size)), X, X.shape[1])
        (data, kw), = seen
        assert np.array_equal(data, X[ids])
        assert list(kw) == ["counts"] and np.array_equal(kw["counts"], np.ones(ids.size))

    def test_start_and_em_rows_group_the_units_apart(self, planted120, monkeypatch):
        """A zero-prior unit matches instance 5 before its first positive-prior
        unit, with instance 3 in between. The start, taken through this module's
        names as the benchmark tracer wraps them, orders its components by first
        positive-prior occurrence (3, 5, 2); EM gets the rows in first occurrence
        over all units (5, 3, 2), each with its unit count. One grouping for both
        would put instance 5 first in the start."""
        X = planted120.matrix.values
        match = CodebookMatchSet(np.array([5, 3, 5, 2, 3, 5]),
                                 np.array([0.0, 0.25, 0.35, 0.15, 0.25, 0.0]))
        starts, seen = [], []
        real_init = engine_mod.init_gmm_from_codebook

        def init(*args, **kwargs):
            starts.append(real_init(*args, **kwargs))
            return starts[-1]

        monkeypatch.setattr(engine_mod, "init_gmm_from_codebook", init)
        monkeypatch.setattr(engine_mod, "fit_em", lambda g, data, **kw: seen.append((g, data, kw)))
        engine_mod._fit(match, X, X.shape[1])
        (start,), ((g, data, kw),) = starts, seen
        assert g is start
        assert np.array_equal(start.means, X[[3, 5, 2]])
        np.testing.assert_allclose(start.weights, [0.5, 0.35, 0.15], rtol=1e-15)
        assert np.array_equal(data, X[[5, 3, 2]])
        assert list(kw) == ["counts"] and kw["counts"].tolist() == [3, 2, 1]

    @pytest.mark.parametrize("shape", [(48, 640), (10, 320), "duplicate"])
    def test_spherical_fit_on_the_frame_equals_the_fit_on_the_matrix(self, shape):
        """A spherical mixture sees rows only through their distances, which
        the frame keeps: its fit and log densities on the frame equal those on
        the matrix. A matrix with a duplicate row is its own frame."""
        rng = np.random.default_rng(9)
        if shape == "duplicate":
            X = rng.standard_normal((48, 640))
            X[-1] = X[0]
        else:
            X = rng.standard_normal(shape) + rng.integers(0, 2, shape[0])[:, None] * 2.0
        frame = engine_mod._frame(X)
        assert (frame is X) == (shape == "duplicate")
        match = engine_mod._quantize([frame], [5])[0]
        on_frame = engine_mod._fit(match, frame, X.shape[1])
        on_matrix = engine_mod._fit(match, X, X.shape[1])
        assert on_frame.covariance_mode == "spherical" and on_frame.dim == X.shape[1]
        assert on_frame.n_iterations == on_matrix.n_iterations
        assert on_frame.weights.size == on_matrix.weights.size
        np.testing.assert_allclose(on_frame.weights, on_matrix.weights, rtol=1e-9)
        np.testing.assert_allclose(on_frame.covariances, on_matrix.covariances, rtol=1e-9)
        np.testing.assert_allclose(mixture_log_density(on_frame, frame),
                                   mixture_log_density(on_matrix, X), rtol=1e-9)


class TestEvaluateSplit:
    def test_planted_feature_split_recovered(self, planted120):
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        ev = evaluate_split(node, planted120.matrix, PppConfig(master_seed=3),
                            derive_seed(3, "", 0))
        got = frozenset(
            frozenset(side.indices.tolist()) for side in ev.feature_split
        )
        assert got == frozenset({frozenset(range(4)), frozenset(range(4, 8))})

    def test_pure_function_of_seed(self, planted120):
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        cfg = PppConfig(master_seed=3)
        seed = derive_seed(3, "", 0)
        ev1 = evaluate_split(node, planted120.matrix, cfg, seed)
        ev2 = evaluate_split(node, planted120.matrix, cfg, seed)
        assert ev1.score == ev2.score
        assert ev1.overlaps == ev2.overlaps
        np.testing.assert_array_equal(
            ev1.feature_split[0].indices, ev2.feature_split[0].indices
        )
        np.testing.assert_array_equal(ev1.core_set.indices, ev2.core_set.indices)

    def test_degenerate_matrix_yields_no_split(self):
        const = DesignMatrix.ingest(np.full((10, 4), 2.0))
        node = PppNode(IndexSet.full(4), IndexSet.full(10))
        ev = evaluate_split(node, const, PppConfig(), 17)
        assert ev.feature_split is None
        assert ev.score is None
        assert ev.overlaps == (0.0, 0.0)
        assert len(ev.child_sets[0]) == 0 and len(ev.child_sets[1]) == 0

    def test_split_partitions_node_features(self, planted120):
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        ev = evaluate_split(node, planted120.matrix, PppConfig(master_seed=9), 404)
        ids = np.concatenate([side.indices for side in ev.feature_split])
        assert sorted(ids.tolist()) == list(range(8))


def _same_evaluation(a, b):
    assert a.attempt_seed == b.attempt_seed
    assert a.score == b.score and a.overlaps == b.overlaps
    assert a.outcome == b.outcome
    assert np.array_equal(a.core_set.indices, b.core_set.indices)
    for x, y in zip(a.child_sets, b.child_sets):
        assert np.array_equal(x.indices, y.indices)
    for x, y in zip(a.posteriors, b.posteriors):
        assert np.array_equal(x, y)
    if a.feature_split is None:
        assert b.feature_split is None
    else:
        for x, y in zip(a.feature_split, b.feature_split):
            assert np.array_equal(x.indices, y.indices)


class TestEvaluateSplits:
    """A batch of attempts gives each attempt's result bit for bit."""

    def test_batch_equals_one_attempt_at_a_time(self, planted120):
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        config = PppConfig(master_seed=3)
        seeds = [derive_seed(3, "", a) for a in range(6)]
        batch = evaluate_splits(node, planted120.matrix, config, seeds)
        assert len(batch) == len(seeds)
        for seed, got in zip(seeds, batch):
            _same_evaluation(got, evaluate_split(node, planted120.matrix, config, seed))

    def test_wide_batch_equals_one_attempt_at_a_time(self, monkeypatch):
        """At 24 x 301, child sides of 151 and 150 columns both train on 24
        columns, so all child maps of a batch share one lockstep call."""
        rng = np.random.default_rng(6)
        rows, cols = np.arange(24) % 2, np.arange(301) >= 151
        X = 4.0 * (rows[:, None] == cols[None, :]) + rng.standard_normal((24, 301))
        data = DesignMatrix.ingest(X)
        node = PppNode(IndexSet.full(301), IndexSet.full(24))
        config = PppConfig(master_seed=5)
        seeds = [derive_seed(5, "", a) for a in range(3)]
        calls = _trained_shapes(monkeypatch)
        batch = evaluate_splits(node, data, config, seeds)
        assert calls == [[(24, 24)] * 3, [(24, 24)] * 6]
        assert any(len(r.feature_split[0]) != len(r.feature_split[1]) for r in batch)
        for seed, got in zip(seeds, batch):
            _same_evaluation(got, evaluate_split(node, data, config, seed))

    @staticmethod
    def _genes_node():
        """A planted 48 x 640 root: instance parity against the column halves."""
        rng = np.random.default_rng(3)
        rows, cols = np.arange(48) % 2, np.arange(640) >= 320
        X = 4.0 * (rows[:, None] == cols[None, :]) + rng.standard_normal((48, 640))
        return PppNode(IndexSet.full(640), IndexSet.full(48)), DesignMatrix.ingest(X)

    def test_genes_shape_batch_equals_one_attempt_at_a_time(self, monkeypatch):
        """The 48 x 640 root's first patience + 1 attempts: the 6 parent maps
        train in one lockstep call and the 12 child maps in another."""
        node, data = self._genes_node()
        config = PppConfig(master_seed=1)
        seeds = [derive_seed(1, "", a) for a in range(6)]
        calls = _trained_shapes(monkeypatch)
        batch = evaluate_splits(node, data, config, seeds)
        assert calls == [[(48, 48)] * 6, [(48, 48)] * 12]
        for seed, got in zip(seeds, batch):
            _same_evaluation(got, evaluate_split(node, data, config, seed))

    @pytest.mark.parametrize("threshold", [0.5, 0.05])
    def test_batch_memory_is_not_per_attempt_node_copies(self, threshold):
        """A suspended attempt holds no array with the node's 640 columns, so
        six attempts peak less than two copies of the 48 x 640 node matrix
        above one: five attempts that each kept such a copy would add 2.5 of
        them. At threshold 0.05 the cores hold several rows, so an attempt
        that kept its core rows across its child maps would fail this."""
        node, data = self._genes_node()
        config = PppConfig(master_seed=1, score_threshold=threshold)
        evaluate_splits(node, data, config, [1])  # caches and lazy imports first

        def peak(count):
            tracemalloc.start()
            try:
                evaluate_splits(node, data, config, [derive_seed(1, "", a) for a in range(count)])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        node_copy = len(node.instance_set) * len(node.feature_set) * 8
        assert peak(6) - peak(1) < 2 * node_copy

    def test_batch_on_an_inner_node(self, planted120):
        node = PppNode(IndexSet(np.array([0, 1, 2, 5, 6]), 8), IndexSet(np.arange(0, 120, 3), 120))
        config = PppConfig(master_seed=4)
        seeds = [11, 12, 13]
        for seed, got in zip(seeds, evaluate_splits(node, planted120.matrix, config, seeds)):
            _same_evaluation(got, evaluate_split(node, planted120.matrix, config, seed))

    def test_bisection_gets_the_core_rows_or_all_node_rows(self, planted120, monkeypatch):
        """The k-means points are the core rows when the core holds at least
        two, else every node row; the high threshold yields both kinds of core."""
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        real_bisect = engine_mod.kmeans_bisect
        handed = []

        def kmeans_bisect(points, seed):
            handed.append(np.shape(points)[1])  # one column per row handed over
            return real_bisect(points, seed)

        monkeypatch.setattr(engine_mod, "kmeans_bisect", kmeans_bisect)
        seeds = [derive_seed(3, "", a) for a in range(6)]
        results = evaluate_splits(node, planted120.matrix, PppConfig(score_threshold=0.9), seeds)
        cores = [len(r.core_set) for r in results]
        assert min(cores) < 2 <= max(cores)
        assert handed == [c if c >= 2 else 120 for c in cores]

    def test_degenerate_attempts_in_a_batch(self, monkeypatch):
        """Attempts that end at their bisection train their parent maps and no child maps."""
        const = DesignMatrix.ingest(np.full((10, 4), 2.0))
        node = PppNode(IndexSet.full(4), IndexSet.full(10))
        calls = _trained_shapes(monkeypatch)
        results = evaluate_splits(node, const, PppConfig(), [1, 2, 3])
        assert [r.outcome for r in results] == ["degenerate_split"] * 3
        assert calls == [[(10, 4)] * 3]

    @staticmethod
    def _fail_second_parent_and_first_child_fit(monkeypatch):
        """Make the second parent fit and the first child fit of the 8-feature
        root raise; returns the per-kind call counts."""
        real_fit = engine_mod.fit_em
        calls = {"parent": 0, "child": 0}

        def fit(g, data, **kwargs):
            # parent fits run first, in seed order; then each attempt's two child fits
            kind = "parent" if np.shape(data)[1] == 8 else "child"
            calls[kind] += 1
            if (kind, calls[kind]) in {("parent", 2), ("child", 1)}:
                raise (SingularCovariance if kind == "parent" else DegenerateModel)("stub")
            return real_fit(g, data, **kwargs)

        monkeypatch.setattr(engine_mod, "fit_em", fit)
        return calls

    def test_fit_failures_are_caught_per_attempt(self, planted120, monkeypatch):
        """In a real batch, a parent fit that raises fails only its own attempt,
        and so does a child fit; the other attempts keep their results."""
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        config = PppConfig(master_seed=3)
        seeds = [derive_seed(3, "", a) for a in range(4)]
        clean = evaluate_splits(node, planted120.matrix, config, seeds)
        calls = self._fail_second_parent_and_first_child_fit(monkeypatch)
        trained = _trained_shapes(monkeypatch)
        got = evaluate_splits(node, planted120.matrix, config, seeds)
        # four parent maps; attempt 1 ends at its parent fit, so 3 attempts train child maps
        assert trained[0] == [(120, 8)] * 4
        assert sum(map(len, trained[1:])) == 6
        assert got[1].outcome == "singular_cov"
        assert got[0].outcome == "degenerate_model"  # the first child fit is attempt 0's side 0
        for failed in got[:2]:
            assert failed.feature_split is None and failed.score is None
            assert failed.overlaps == (0.0, 0.0)
        for i in (2, 3):
            _same_evaluation(got[i], clean[i])
        calls.update(parent=0, child=0)  # alone, attempt 1 fails at its side-0 child fit
        alone = evaluate_split(node, planted120.matrix, config, seeds[1])
        assert (alone.attempt_seed, alone.outcome) == (seeds[1], "degenerate_model")

    def test_result_i_carries_seed_i(self, planted120, monkeypatch):
        """Whatever the outcome, result ``i`` is attempt ``seeds[i]``'s: the seed
        column of diagnostics.csv reads ``attempt_seed``."""
        seeds = [derive_seed(3, "", a) for a in range(4)]
        const = DesignMatrix.ingest(np.full((10, 4), 2.0))
        degenerate = evaluate_splits(
            PppNode(IndexSet.full(4), IndexSet.full(10)), const, PppConfig(), seeds
        )
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        clean = evaluate_splits(node, planted120.matrix, PppConfig(master_seed=3), seeds)
        self._fail_second_parent_and_first_child_fit(monkeypatch)
        failed = evaluate_splits(node, planted120.matrix, PppConfig(master_seed=3), seeds)
        outcomes = {r.outcome for r in degenerate + clean + failed}
        assert {"ok", "degenerate_split", "singular_cov", "degenerate_model"} <= outcomes
        for results in (degenerate, clean, failed):
            assert [r.attempt_seed for r in results] == seeds


def _stub_eval(score, seed=0, n_features=4, n_instances=6):
    empty = IndexSet(np.array([], dtype=np.int64), n_instances)
    if score is None:
        return SplitEvaluation(seed, None, empty, (empty, empty),
                               (np.array([]), np.array([])), (0.0, 0.0), None,
                               "degenerate_split")
    split = (IndexSet(np.array([0, 1]), n_features),
             IndexSet(np.array([2, 3]), n_features))
    children = (IndexSet(np.array([0, 1, 2]), n_instances),
                IndexSet(np.array([3, 4]), n_instances))
    post = (np.array([0.9, 0.8]), np.array([0.7, 0.6]))
    return SplitEvaluation(seed, split, children, children, post,
                           (float(score), float(score)), float(score))


def _stub_batches(score):
    """A batch entry point that gives every requested attempt the same score."""
    return lambda node, data, config, seeds: [_stub_eval(score, s) for s in seeds]


class TestGrowNodeControlFlow:
    """Attempt budgeting and patience, with the split attempt stubbed out."""

    @pytest.fixture
    def tiny(self):
        rng = np.random.default_rng(0)
        return DesignMatrix.ingest(rng.standard_normal((6, 4)))

    def _node(self):
        return PppNode(IndexSet.full(4), IndexSet.full(6))

    def test_one_feature_is_terminal_without_attempts(self, tiny):
        node = PppNode(IndexSet(np.array([2]), 4), IndexSet.full(6))
        grow_node(node, tiny, PppConfig())
        assert node.status == "leaf_terminal"
        assert node.reason == "too_few_features"
        assert node.attempts == []

    def test_one_instance_is_terminal(self, tiny):
        node = PppNode(IndexSet.full(4), IndexSet(np.array([3]), 6))
        grow_node(node, tiny, PppConfig())
        assert node.status == "leaf_terminal"
        assert node.reason == "too_few_rows"
        assert node.attempts == []

    def test_too_few_features_is_the_reason_before_too_few_rows(self, tiny):
        node = PppNode(IndexSet(np.array([2]), 4), IndexSet(np.array([3]), 6))
        grow_node(node, tiny, PppConfig())
        assert (node.status, node.reason) == ("leaf_terminal", "too_few_features")

    def test_no_score_runs_all_attempts(self, tiny, monkeypatch):
        monkeypatch.setattr(engine_mod, "evaluate_splits", _stub_batches(None))
        node = self._node()
        grow_node(node, tiny, PppConfig())
        assert node.status == "leaf_unsplittable"
        assert node.reason == "no_defined_score"
        assert node.best_eval is None
        assert len(node.attempts) == 20
        assert node.score_trace == [None] * 20

    def test_attempt_cap_respected(self, tiny, monkeypatch):
        monkeypatch.setattr(engine_mod, "evaluate_splits", _stub_batches(None))
        node = self._node()
        grow_node(node, tiny, PppConfig(max_split_attempts=3))
        assert len(node.attempts) == 3

    def test_patience_arms_after_first_score(self, tiny, monkeypatch):
        scores = iter([5.0] + [None] * 30)
        monkeypatch.setattr(engine_mod, "evaluate_splits",
                            lambda node, data, config, seeds: [_stub_eval(next(scores))
                                                               for _ in seeds])
        node = self._node()
        grow_node(node, tiny, PppConfig(patience=5))
        assert len(node.attempts) == 6  # 1 hit + 5 stale
        assert node.status == "internal"
        assert node.best_eval.score == 5.0

    def test_improvement_resets_patience(self, tiny, monkeypatch):
        scores = iter([1.0, 2.0, 3.0] + [3.0] * 30)
        monkeypatch.setattr(engine_mod, "evaluate_splits",
                            lambda node, data, config, seeds: [_stub_eval(next(scores))
                                                               for _ in seeds])
        node = self._node()
        grow_node(node, tiny, PppConfig(patience=5))
        assert len(node.attempts) == 8  # 3 improvements + 5 ties
        assert node.best_eval.score == 3.0
        assert node.best_eval is node.attempts[2]  # the first of the equal best scores

    def test_zero_best_score_stays_leaf(self, tiny, monkeypatch):
        monkeypatch.setattr(engine_mod, "evaluate_splits", _stub_batches(0.0))
        node = self._node()
        grow_node(node, tiny, PppConfig(patience=4))
        assert node.status == "leaf_unsplittable"
        assert node.reason == "score_not_positive"
        assert node.best_eval is node.attempts[0]
        assert len(node.attempts) == 5  # armed by the present zero score

    def test_attempts_are_the_returned_evaluations(self, tiny, monkeypatch):
        scores = iter([2.0, None] + [1.0] * 30)
        returned = []

        def stub(node, data, config, seeds):
            batch = [_stub_eval(next(scores), seed) for seed in seeds]
            returned.extend(batch)
            return batch

        monkeypatch.setattr(engine_mod, "evaluate_splits", stub)
        node = self._node()
        grow_node(node, tiny, PppConfig(patience=5))
        assert len(node.attempts) == len(returned) == 6  # 1 hit + 5 stale, one of them ended
        assert all(a is r for a, r in zip(node.attempts, returned))
        assert node.attempts[1].outcome == "degenerate_split"

    def test_accepted_split_builds_children(self, tiny, monkeypatch):
        monkeypatch.setattr(engine_mod, "evaluate_splits", _stub_batches(12.0))
        node = self._node()
        grow_node(node, tiny, PppConfig())
        assert (node.status, node.reason) == ("internal", "best_score")
        a, b = node.children
        assert (a.path, b.path) == ("0", "1")
        assert a.feature_set.indices.tolist() == [0, 1]
        assert b.feature_set.indices.tolist() == [2, 3]
        assert a.instance_set.indices.tolist() == [0, 1, 2]
        assert b.instance_set.indices.tolist() == [3, 4]
        assert a.status == "open" and a.is_leaf


def _one_at_a_time(scores, config):
    """Attempt count of the sequential patience rule on a score sequence."""
    best, stale = None, 0
    for attempt, score in enumerate(scores[:config.max_split_attempts], start=1):
        if score is not None and (best is None or score > best):
            best, stale = score, 0
        elif best is not None:
            stale += 1
            if stale >= config.patience:
                return attempt
    return min(len(scores), config.max_split_attempts)


class TestGrowNodeBatching:
    """Batches ask for exactly the attempts the one-at-a-time loop runs."""

    SEQUENCES = {
        "never": [None] * 20,
        "late_first": [None, None, None, 4.0] + [1.0] * 16,
        "improving": [1.0, None, 2.0, 2.0, 3.0, None, 5.0] + [None] * 13,
        "zero_then_up": [0.0, None, None, 7.0, 6.0, 8.0] + [8.0] * 14,
        "first_only": [9.0] + [None] * 19,
        "slow_climb": [None, 1.0, None, None, 1.5, None, None, None, 2.0] + [None] * 11,
    }

    @pytest.mark.parametrize("patience", [1, 5])
    @pytest.mark.parametrize("max_attempts", [1, 3, 20])
    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_requested_seeds_are_the_recorded_seeds(self, name, max_attempts, patience,
                                                    monkeypatch):
        scores = self.SEQUENCES[name]
        requested = []

        def stub(node, data, config, seeds):
            start = len(requested)
            requested.extend(seeds)
            return [_stub_eval(s, seed) for s, seed in zip(scores[start:], seeds)]

        monkeypatch.setattr(engine_mod, "evaluate_splits", stub)
        rng = np.random.default_rng(0)
        data = DesignMatrix.ingest(rng.standard_normal((6, 4)))
        config = PppConfig(master_seed=2, max_split_attempts=max_attempts, patience=patience)
        node = grow_node(PppNode(IndexSet.full(4), IndexSet.full(6), "01"), data, config)
        recorded = [a.attempt_seed for a in node.attempts]
        assert requested == recorded
        assert recorded == [derive_seed(2, "01", a) for a in range(len(recorded))]
        assert len(recorded) == _one_at_a_time(scores, config)
        assert node.score_trace == scores[:len(recorded)]

    def test_wide_node_runs_its_attempts_in_one_batch(self, monkeypatch):
        """A 48 x 700 node's maps and frames are K x 48, so its 3 attempts share a batch."""
        sizes = []
        real = engine_mod.evaluate_splits

        def record(node, data, config, seeds):
            sizes.append(len(seeds))
            return real(node, data, config, seeds)

        monkeypatch.setattr(engine_mod, "evaluate_splits", record)
        rng = np.random.default_rng(1)
        wide = DesignMatrix.ingest(rng.standard_normal((48, 700)))
        grow_node(PppNode(IndexSet.full(700), IndexSet.full(48)), wide,
                  PppConfig(max_split_attempts=3))
        assert sizes == [3]

    @pytest.mark.parametrize("shape, sizes", [
        ((48, 640), [6, 6, 6, 2]),  # K * min(n, d) = 48 * 48: patience + 1 bounds a batch
        ((300, 300), [1] * 20),  # K * min(n, d) = 64 * 300 fills the block alone
        ((200, 2000), [2] * 10),  # 64 * 200: two attempts to a block
    ])
    def test_batch_width_shrinks_with_the_map_size(self, shape, sizes, monkeypatch):
        got = []

        def stub(node, data, config, seeds):
            got.append(len(seeds))
            return [_stub_eval(None, s) for s in seeds]

        monkeypatch.setattr(engine_mod, "evaluate_splits", stub)
        n, d = shape
        grow_node(PppNode(IndexSet.full(d), IndexSet.full(n)), None, PppConfig())
        assert got == sizes


class TestGrowNodeOnData:
    def test_planted_root_split(self, planted120):
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        grow_node(node, planted120.matrix, PppConfig(master_seed=3))
        assert node.status == "internal"
        assert _blocks(node) == frozenset(
            {frozenset(range(4)), frozenset(range(4, 8))}
        )
        for child in node.children:
            got = set(child.instance_set.indices.tolist())
            assert got <= set(range(120))
            assert len(got) >= 1

    @pytest.mark.parametrize("seed", [1, 2])
    def test_root_does_not_depend_on_the_data_scale(self, seed):
        """Scaling by a power of two is exact, and the mixture ridge follows
        the data's variance, so tiny scales split the root as scale 1 does.
        Only the root is compared: deeper nodes still vary with rounding."""
        X = generate_planted(PlantedSpec.even(200, 16, (2, 2), seed=seed)).matrix.values

        def root(scale):
            node = PppNode(IndexSet.full(16), IndexSet.full(200))
            grow_node(node, DesignMatrix.ingest(X * scale), PppConfig(master_seed=1))
            best = node.best_eval
            if best is None:
                return node.status, None, None
            return node.status, [s.indices.tolist() for s in best.feature_split], best.score

        want = root(1.0)
        assert want[0] == "internal"
        for exponent in (-30, -60):
            assert root(2.0 ** exponent) == want

    def test_children_carry_gamma_sets(self, planted120):
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        grow_node(node, planted120.matrix, PppConfig(master_seed=3))
        for child, gamma in zip(node.children, node.best_eval.child_sets):
            np.testing.assert_array_equal(child.instance_set.indices, gamma.indices)


def _attempt_row(a):
    """(seed, overlaps, score, outcome, core and child set sizes) of one attempt."""
    return (a.attempt_seed, *a.overlaps, a.score, a.outcome,
            len(a.core_set), *map(len, a.child_sets))


class TestGrowNodeFaultIsolation:
    """A model that cannot be fit fails one attempt, not the whole node."""

    def _failing_fit(self, monkeypatch, failing_seed, error):
        """Make ``fit_em`` raise ``error`` inside the attempt ``failing_seed``."""
        current = {}
        real_evaluate, real_fit = engine_mod.evaluate_splits, engine_mod.fit_em

        def evaluate(node, data, config, seeds):  # one attempt at a time, to know whose fit runs
            results = []
            for seed in seeds:
                current["seed"] = seed
                results += real_evaluate(node, data, config, [seed])
            return results

        def fit(*args, **kwargs):
            if current["seed"] == failing_seed:
                raise error
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "evaluate_splits", evaluate)
        monkeypatch.setattr(engine_mod, "fit_em", fit)

    def test_failed_attempt_is_undefined_and_the_node_resolves(self, planted120, monkeypatch):
        config = PppConfig(master_seed=3, max_split_attempts=6)
        clean = PppNode(IndexSet.full(8), IndexSet.full(120))
        grow_node(clean, planted120.matrix, config)
        failing_seed = derive_seed(3, "", 0)
        self._failing_fit(
            monkeypatch, failing_seed, SingularCovariance("covariance is not positive definite")
        )
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        grow_node(node, planted120.matrix, config)
        rows = [_attempt_row(a) for a in node.attempts]
        assert rows[0] == (failing_seed, 0.0, 0.0, None, "singular_cov", 0, 0, 0)
        assert rows[1:] == [_attempt_row(a) for a in clean.attempts[1:len(rows)]]
        assert node.status == "internal"
        assert node.best_eval.attempt_seed != failing_seed
        assert _blocks(node) == frozenset({frozenset(range(4)), frozenset(range(4, 8))})

    def test_other_errors_propagate(self, planted120, monkeypatch):
        self._failing_fit(monkeypatch, derive_seed(3, "", 0), DimensionError("bad shape"))
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        with pytest.raises(DimensionError):
            grow_node(node, planted120.matrix, PppConfig(master_seed=3))


class TestBuildTree:
    def test_constant_matrix_is_single_leaf(self):
        const = DesignMatrix.ingest(np.full((12, 6), 3.0))
        tree = build_tree(const, PppConfig(master_seed=0))
        assert tree.root.status == "leaf_unsplittable"
        assert max(n.depth for n in tree.nodes()) == 0
        assert len(tree.root.attempts) == 20  # no score ever arms patience

    def test_identical_rows_stay_unsplit(self):
        data = DesignMatrix.ingest(np.tile(np.arange(6.0), (12, 1)))
        tree = build_tree(data, PppConfig(master_seed=0))
        assert tree.root.is_leaf
        assert tree.root.status == "leaf_unsplittable"

    def test_each_fit_picks_its_covariance_shape_from_its_columns(self, monkeypatch):
        """Spherical over more than 50 columns, on rows no wider than the
        node's row count, and full otherwise, on the node's columns, per fit:
        a 48 x 120 planted tree fits mixtures on both sides of that line."""
        seen = []
        real = engine_mod.fit_em

        def fit(g, data, **kwargs):
            seen.append((g.covariance_mode, g.dim, data.shape[1]))
            return real(g, data, **kwargs)

        monkeypatch.setattr(engine_mod, "fit_em", fit)
        spec = PlantedSpec.even(48, 120, (2, 2), gap=4.0, noise_sigma=1.0, seed=1)
        build_tree(generate_planted(spec).matrix, PppConfig(master_seed=0))
        assert {d > 50 for _, d, _ in seen} == {True, False}
        assert all(mode == default_covariance_mode(d) for mode, d, _ in seen)
        assert all(w <= 48 if d > 50 else w == d for _, d, w in seen)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_wide_planted_depth_one_cut_recovers_the_blocks(self, seed, golden_tree):
        """The genes-as-features shape, 48 x 640, whose nodes fit spherical
        mixtures on their frames: the depth-1 cut is the planted feature blocks.
        Seeds 1 and 2 are golden cases, whose trees are grown once."""
        planted = generate_planted(PlantedSpec.even(48, 640, (2, 2), seed=seed))
        case = f"wide_48x640_seed{seed}"
        if case in golden.CASES:
            tree = golden_tree(case)
        else:
            tree = build_tree(planted.matrix, PppConfig(master_seed=seed))
        labels = cluster_labels(cut_tree(tree, 1), 640)
        assert adjusted_rand_index(labels, planted.feature_labels) == 1.0

    def test_planted_root_recovered(self, planted120_tree):
        assert _blocks(planted120_tree.root) == frozenset(
            {frozenset(range(4)), frozenset(range(4, 8))}
        )

    def _snapshot(self, tree):
        return [
            (n.path, n.status, tuple(n.feature_set.indices.tolist()),
             tuple(n.instance_set.indices.tolist()),
             None if n.best_eval is None else n.best_eval.score)
            for n in tree.nodes()
        ]

    def test_deterministic_per_seed(self, planted120, planted120_tree):
        again = build_tree(planted120.matrix, PppConfig(master_seed=3))
        assert self._snapshot(again) == self._snapshot(planted120_tree)

    def test_numpy_integer_seed_grows_the_same_tree(self, planted120, planted120_tree):
        """`PppConfig(master_seed=s) for s in np.arange(n)` reproduces `--seed s`."""
        config = PppConfig(master_seed=np.int64(3))
        assert type(config.master_seed) is int
        a, b = build_tree(planted120.matrix, config), planted120_tree
        seeds = [[e.attempt_seed for n in t.nodes() for e in n.attempts] for t in (a, b)]
        assert seeds[0] == seeds[1]
        assert self._snapshot(a) == self._snapshot(b)

    def test_thread_count_does_not_change_result(self, planted120, planted120_tree):
        assert self._snapshot(planted120_tree) == self._snapshot(
            build_tree(planted120.matrix, PppConfig(master_seed=3), threads=2)
        )

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_rejected(self, planted120, threads):
        with pytest.raises(ConfigError):
            build_tree(planted120.matrix, PppConfig(), threads=threads)

    @pytest.mark.parametrize("n, d", [(200, 16), (48, 640)])
    def test_entries_whose_squares_overflow_are_rejected(self, n, d):
        """At 1e160 sums of squares overflow (at 48 x 640 the run used to end
        with one cluster); at 1e150 the planted blocks are still found."""
        planted = generate_planted(PlantedSpec.even(n, d, (2, 2), seed=1))
        config = PppConfig(master_seed=1)
        with pytest.raises(ValidationError, match="exceeds"):
            build_tree(DesignMatrix.ingest(planted.matrix.values * 1e160), config)
        tree = build_tree(DesignMatrix.ingest(planted.matrix.values * 1e150), config)
        labels = cluster_labels(cut_tree(tree, 1), d)
        assert adjusted_rand_index(labels, planted.feature_labels) == 1.0

    def test_hierarchical_coarse_split_first(self):
        """Two-level planted structure: the root must take the large-gap
        bipartition, not a fine one."""
        ib = tuple(tuple(range(16 * i, 16 * (i + 1))) for i in range(4))
        fb = ((0, 1), (2, 3), (4, 5), (6, 7))
        means = np.array([
            [9.0, 6.0, 0.0, 0.0],
            [6.0, 9.0, 0.0, 0.0],
            [0.0, 0.0, 9.0, 6.0],
            [0.0, 0.0, 6.0, 9.0],
        ])
        data = generate_planted(PlantedSpec(64, 8, ib, fb, means, 0.5, seed=0))
        tree = build_tree(data.matrix, PppConfig(master_seed=1))
        assert _blocks(tree.root) == frozenset(
            {frozenset(range(4)), frozenset(range(4, 8))}
        )
        by_depth = accepted_posterior_by_depth(tree)
        assert 0 in by_depth
        assert 0.5 < by_depth[0] <= 1.0


class TestCutTree:
    def test_negative_depth_rejected(self, planted120_tree):
        with pytest.raises(ConfigError):
            cut_tree(planted120_tree, -1)

    def test_depth_zero_is_everything(self, planted120_tree):
        clusters = cut_tree(planted120_tree, 0)
        assert len(clusters) == 1
        assert clusters[0].indices.tolist() == list(range(8))

    def test_depth_one_matches_root_children(self, planted120_tree):
        got = frozenset(frozenset(c.indices.tolist()) for c in cut_tree(planted120_tree, 1))
        assert got == _blocks(planted120_tree.root)

    def test_none_returns_leaves(self, planted120_tree):
        got = [c.indices.tolist() for c in cut_tree(planted120_tree)]
        leaves = [n.feature_set.indices.tolist() for n in planted120_tree.nodes() if n.is_leaf]
        assert got == leaves

    def test_depth_beyond_tree_equals_leaves(self, planted120_tree):
        deep = cut_tree(planted120_tree, max(n.depth for n in planted120_tree.nodes()) + 5)
        assert [c.indices.tolist() for c in deep] == [
            c.indices.tolist() for c in cut_tree(planted120_tree)
        ]

    def test_every_cut_partitions_features(self, planted120_tree):
        for depth in [None] + list(range(max(n.depth for n in planted120_tree.nodes()) + 2)):
            clusters = cut_tree(planted120_tree, depth)
            labels = cluster_labels(clusters, 8)
            assert np.all(labels >= 0)
            assert sum(len(c) for c in clusters) == 8

    def test_single_leaf_tree(self):
        const = DesignMatrix.ingest(np.full((8, 4), 1.0))
        tree = build_tree(const, PppConfig())
        clusters = cut_tree(tree)
        assert len(clusters) == 1
        assert clusters[0].indices.tolist() == [0, 1, 2, 3]


class TestClusterLabels:
    def test_assigns_cluster_index(self):
        clusters = [IndexSet(np.array([0, 2]), 4), IndexSet(np.array([1, 3]), 4)]
        np.testing.assert_array_equal(cluster_labels(clusters, 4), [0, 1, 0, 1])


class TestAcceptedPosteriorByDepth:
    def _internal(self, path, post_a, post_b, feature_ids, n_feat, n_inst):
        empty = IndexSet(np.array([], dtype=np.int64), n_inst)
        half = len(feature_ids) // 2
        split = (IndexSet(np.array(feature_ids[:half]), n_feat),
                 IndexSet(np.array(feature_ids[half:]), n_feat))
        ev = SplitEvaluation(0, split, empty, (empty, empty),
                             (np.asarray(post_a), np.asarray(post_b)),
                             (50.0, 50.0), 25.0)
        node = PppNode(IndexSet(np.array(feature_ids), n_feat),
                       IndexSet.full(n_inst), path, "internal", ev)
        return node

    def test_manual_tree(self):
        root = self._internal("", [0.9, 0.2, 0.55], [0.8, 0.1, 0.3],
                              [0, 1, 2, 3], 4, 6)
        child = self._internal("0", [0.6], [0.7], [0, 1], 4, 6)
        leaf = lambda path, ids: PppNode(
            IndexSet(np.array(ids), 4), IndexSet.full(6), path, "leaf_terminal"
        )
        child.children = (leaf("00", [0]), leaf("01", [1]))
        root.children = (child, leaf("1", [2, 3]))
        tree = PppTree(root, 6, 4, None)
        got = accepted_posterior_by_depth(tree)
        assert got[0] == pytest.approx((0.9 + 0.55 + 0.8) / 3)
        assert got[1] == pytest.approx((0.6 + 0.7) / 2)

    def test_leaf_only_tree_is_empty(self):
        root = PppNode(IndexSet.full(3), IndexSet.full(5), "", "leaf_unsplittable")
        assert accepted_posterior_by_depth(PppTree(root, 5, 3, None)) == {}


class TestPppConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_split_attempts": 0},
        {"patience": 0},
        {"score_threshold": 0.0},
        {"score_threshold": 1.0},
        {"max_split_attempts": -1},
        {"patience": -1},
        {"score_threshold": -0.5},
        {"score_threshold": float("nan")},
        {"score_threshold": float("inf")},
        {"max_split_attempts": 2.5},
        {"max_split_attempts": 3.0},
        {"max_split_attempts": "3"},
        {"patience": True},
        {"patience": np.float64(2.0)},
        {"master_seed": True},
        {"master_seed": 3.0},
        {"master_seed": "3"},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            PppConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        config = PppConfig(max_split_attempts=np.int64(3), patience=np.int32(2))
        assert (config.max_split_attempts, config.patience) == (3, 2)

    @staticmethod
    def _parent_som_config(monkeypatch, config, n_instances, seed):
        """The SOM config a split attempt gives its parent map."""
        seen = []
        real_init_som = engine_mod.init_som

        def init_som(som_config, X):
            seen.append(som_config)
            return real_init_som(som_config, X)

        monkeypatch.setattr(engine_mod, "init_som", init_som)
        X = np.random.default_rng(0).standard_normal((n_instances, 4))
        node = PppNode(IndexSet.full(4), IndexSet.full(n_instances))
        evaluate_splits(node, DesignMatrix.ingest(X), config, [seed])
        return seen[0]

    def test_som_config_targets_node_size(self, monkeypatch):
        som_cfg = self._parent_som_config(monkeypatch, PppConfig(), 100, 42)
        assert som_cfg.epochs == 5
        assert som_cfg.seed == derive_seed(42, "parent")
        assert (som_cfg.grid_rows, som_cfg.grid_cols) == default_grid(100)
        assert som_cfg.sigma_start == max(
            1.0, max(som_cfg.grid_rows, som_cfg.grid_cols) / 2.0
        )
        assert som_cfg.sigma_end == 0.5
