"""Map training, winner search, matching and priors."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppp.som as som_mod
from ppp.data import sq_distances
from ppp.errors import ConfigError, DimensionError
from ppp.som import (
    CodebookMatchSet,
    SomConfig,
    SomModel,
    _assign,
    _grid_sqdist,
    _neighborhood,
    _schedule,
    codebook_match,
    default_grid,
    default_som_config,
    init_som,
    quantization_error,
    train_som,
    train_soms,
)
from support import train_som_reference


def _config(**kw):
    base = dict(grid_rows=2, grid_cols=2, epochs=3, seed=0)
    base.update(kw)
    return SomConfig(**base)


class TestSomConfig:
    def test_single_unit_rejected(self):
        with pytest.raises(ConfigError):
            _config(grid_rows=1, grid_cols=1)

    def test_nonpositive_side_rejected(self):
        with pytest.raises(ConfigError):
            _config(grid_rows=0)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            _config(epochs=0)

    def test_n_units(self):
        assert _config(grid_rows=3, grid_cols=5).n_units == 15


class TestDefaultGrid:
    def test_caps_at_64_units(self):
        assert default_grid(64) == (8, 8)
        assert default_grid(1000) == (8, 8)

    def test_small_data_bounded_by_rows(self):
        for n in range(2, 64):
            rows, cols = default_grid(n)
            assert 2 <= rows * cols <= n

    def test_two_rows(self):
        rows, cols = default_grid(2)
        assert rows * cols == 2


class TestInitSom:
    def test_codebook_rows_come_from_data(self):
        """Every initial codebook vector is one of the data rows."""
        rng = np.random.default_rng(3)
        X = rng.standard_normal((100, 4))
        som = init_som(SomConfig(2, 2, seed=5), X)
        for vec in som.codebook:
            assert any(np.array_equal(vec, row) for row in X)

    def test_sampling_without_replacement(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((16, 3))
        som = init_som(SomConfig(4, 4, seed=1), X)
        as_rows = {tuple(v) for v in som.codebook}
        assert len(as_rows) == 16

    def test_two_rows_give_a_permutation(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        som = init_som(SomConfig(1, 2, seed=9), X)
        assert {tuple(v) for v in som.codebook} == {(0.0, 0.0), (1.0, 1.0)}

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 3))
        a = init_som(SomConfig(3, 3, seed=2), X)
        b = init_som(SomConfig(3, 3, seed=2), X)
        np.testing.assert_array_equal(a.codebook, b.codebook)

    def test_more_units_than_rows_rejected(self):
        with pytest.raises(ConfigError, match="6 units for only 3 rows"):
            init_som(SomConfig(2, 3, seed=0), np.eye(3))

    def test_hit_counts_start_at_zero(self):
        som = init_som(SomConfig(2, 2, seed=0), np.eye(4))
        assert som.hit_counts.sum() == 0
        assert som.final_qe is None


class TestFindBmu:
    """The closing pass of every map, ``_assign``, on one row: its hit counts
    mark the row's BMU and its error is the squared distance to it."""

    def test_exact_match_has_zero_distance(self):
        X = np.arange(12.0).reshape(4, 3)
        hits, d2, _ = _assign(X, X[3:])
        assert hits.tolist() == [0, 0, 0, 1] and d2 == 0.0

    def test_forced_nearest(self):
        codebook = np.array([[0.0, 0.0], [10.0, 10.0]])
        hits, d2, _ = _assign(codebook, np.array([[1.0, 1.0]]))
        assert hits.tolist() == [1, 0]
        assert d2 == pytest.approx(2.0)

    def test_tie_goes_to_lowest_unit(self):
        codebook = np.array([[1.0, 0.0], [-1.0, 0.0]])
        hits, _, _ = _assign(codebook, np.array([[0.0, 0.0]]))
        assert hits.tolist() == [1, 0]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        codebook = rng.standard_normal((16, 3))
        x = rng.standard_normal(3)
        hits, d2, _ = _assign(codebook, x[None])
        dists = [float(((x - v) ** 2).sum()) for v in codebook]
        assert np.flatnonzero(hits).tolist() == [int(np.argmin(dists))]
        assert d2 == pytest.approx(min(dists), rel=1e-12)


class TestSchedule:
    def test_endpoints(self):
        cfg = SomConfig(4, 4)
        assert _schedule(cfg, 0, 100) == (0.5, 2.0)
        alpha, sigma = _schedule(cfg, 99, 100)
        assert alpha == pytest.approx(0.05, rel=1e-12)
        assert sigma == pytest.approx(0.5, rel=1e-12)

    def test_monotone_decrease(self):
        cfg = SomConfig(2, 2)
        values = [_schedule(cfg, t, 50) for t in range(50)]
        alphas = [v[0] for v in values]
        sigmas = [v[1] for v in values]
        assert all(a1 >= a2 for a1, a2 in zip(alphas, alphas[1:]))
        assert all(s1 >= s2 for s1, s2 in zip(sigmas, sigmas[1:]))

    def test_single_step_budget(self):
        cfg = SomConfig(2, 2)
        assert _schedule(cfg, 0, 1) == (cfg.alpha_start, cfg.sigma_start)


class TestNeighborhoodWeight:
    """The lateral weight ``_neighborhood`` gives unit i when c wins at step t."""

    @staticmethod
    def _weight(config, c, i, t, total_steps):
        return float(_neighborhood(config, _grid_sqdist(config)[c, i], t, total_steps))

    def test_winner_gets_full_rate(self):
        cfg = _config()
        for t in (0, 4, 9):
            assert self._weight(cfg, 2, 2, t, 10) == _schedule(cfg, t, 10)[0]

    def test_unit_grid_distance(self):
        """Distance 1 at the first step of a 2x2 map (sigma 1, rate 0.5): the
        frozen kernel value."""
        # units 0 and 1 are horizontal neighbors on the 2x2 grid
        w = self._weight(_config(), 0, 1, 0, 10)
        assert w == pytest.approx(0.3032653298563167, rel=1e-15)

    def test_far_units_effectively_zero(self):
        """Ten grid steps apart at the last step, where the radius is 0.5."""
        w = self._weight(SomConfig(1, 11), 0, 10, 9, 10)
        assert 0.0 <= w < 1e-80

    def test_bounded_by_current_rate(self):
        cfg = _config()
        for i in range(4):
            w = self._weight(cfg, 0, i, 0, 6)
            assert 0.0 < w <= _schedule(cfg, 0, 6)[0]


class TestTrainSom:
    def test_one_step_moves_each_unit_by_its_neighborhood_weight(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 3))
        codebook = rng.standard_normal((6, 3))
        som = SomModel(SomConfig(2, 3, epochs=1), codebook, np.zeros(6, dtype=np.int64))
        trained = train_som(som, x)  # one row for one epoch: a single step at t = 0
        winner = int(sq_distances(x, codebook).argmin())
        weights = _neighborhood(som.config, _grid_sqdist(som.config)[winner], 0, 1)
        assert len(set(weights)) > 1
        np.testing.assert_allclose(
            trained.codebook, codebook + weights[:, None] * (x[0] - codebook), rtol=1e-12
        )

    def test_identical_rows_collapse_codebook(self):
        v = np.array([2.0, -1.0, 0.5])
        X = np.tile(v, (20, 1))
        som = train_som(init_som(SomConfig(2, 2, epochs=50, seed=0), X), X)
        assert som.final_qe == pytest.approx(0.0, abs=1e-6)
        for vec in som.codebook:
            np.testing.assert_allclose(vec, v, atol=1e-3)

    def test_two_blobs_covered(self):
        """Each blob gets a trained vector inside it, and every unit that wins a
        row sits inside a blob. The radius ends at 0.5, where units two grid
        steps apart barely couple (weight exp(-8)), so a 1x4 map has room to
        leave the units between the blobs without hits."""
        rng = np.random.default_rng(0)
        blob_a = rng.normal(0.0, 0.1, size=(40, 2))
        blob_b = rng.normal(8.0, 0.1, size=(40, 2))
        X = np.vstack([blob_a, blob_b])
        centers = np.array([blob_a.mean(axis=0), blob_b.mean(axis=0)])
        for seed in (0, 1, 3):
            som = train_som(init_som(SomConfig(1, 4, epochs=30, seed=seed), X), X)
            d = ((som.codebook[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            assert np.all(d.min(axis=0) < 0.25)
            assert np.all(d.min(axis=1)[som.hit_counts > 0] < 0.25)

    def test_hit_counts_sum_to_rows(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 3))
        som = train_som(init_som(SomConfig(3, 3, seed=1), X), X)
        assert som.hit_counts.sum() == 50

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 4))
        a = train_som(init_som(SomConfig(2, 3, seed=7), X), X)
        b = train_som(init_som(SomConfig(2, 3, seed=7), X), X)
        np.testing.assert_array_equal(a.codebook, b.codebook)
        np.testing.assert_array_equal(a.hit_counts, b.hit_counts)
        assert a.final_qe == b.final_qe

    def test_final_qe_matches_direct_evaluation(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((25, 3))
        som = train_som(init_som(SomConfig(2, 2, seed=4), X), X)
        assert som.final_qe == pytest.approx(quantization_error(som, X), rel=1e-12)

    def test_dimension_mismatch(self):
        som = init_som(SomConfig(1, 2, seed=0), np.eye(3))
        with pytest.raises(DimensionError):
            train_som(som, np.zeros((4, 2)))


def _chunk_steps(monkeypatch, steps, n_maps, dim, grid):
    """Shrink the element budget so that lockstep training of ``n_maps`` maps
    of ``dim`` columns on ``grid`` runs ``steps`` steps per chunk."""
    levels, _ = som_mod._grid_levels(*grid)
    monkeypatch.setattr(som_mod, "_ROW_ELEMENTS", steps * (n_maps * dim + len(levels)))


def _structured_rows(seed, n, d):
    """Gaussian rows around three offsets, so the map has clusters to find."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) + 3.0 * rng.integers(0, 3, size=(n, 1))


class TestTrainSomMatchesReference:
    """The fused loop equals the plain step-by-step loop bit for bit."""

    @pytest.mark.parametrize(
        "n, d, grid, kw",
        [
            (200, 16, (8, 8), {}),
            (48, 640, (6, 8), {}),
            (2, 4, (1, 2), {"epochs": 1}),
            (60, 5, (2, 7), {}),  # radius 3.5 -> 0.5
            (70, 6, (2, 2), {}),  # radius at its floor, 1.0 -> 0.5
        ],
    )
    def test_equal_to_reference(self, n, d, grid, kw):
        X = _structured_rows(n + d, n, d)
        self._assert_same_training(init_som(SomConfig(*grid, seed=n, **kw), X), X)

    def test_kernel_table_blocks_split_mid_epoch(self, monkeypatch):
        """7-step chunks split the 30-step epochs; each chunk's kernel rows
        must follow the schedule at its steps' numbers within the run."""
        _chunk_steps(monkeypatch, 7, 1, 4, (3, 4))
        X = _structured_rows(3, 30, 4)
        self._assert_same_training(init_som(SomConfig(3, 4, seed=3), X), X)

    @staticmethod
    def _assert_same_training(som, X):
        got = train_som(som, X)
        want = train_som_reference(som, X)
        assert np.array_equal(got.codebook, want.codebook)
        assert np.array_equal(got.hit_counts, want.hit_counts)
        assert got.final_qe == want.final_qe
        assert np.array_equal(got.match.matched_instance_ids, want.match.matched_instance_ids)
        assert np.array_equal(got.match.priors, want.match.priors)

    @pytest.mark.parametrize(
        "grid, sigma",
        [((8, 8), (4.0, 0.5)), ((6, 8), (4.0, 0.5)), ((2, 2), (1.0, 0.5)),
         ((1, 11), (5.5, 0.5)), ((10, 12), (6.0, 0.5))],
    )
    def test_kernel_table_equals_per_step_rows(self, grid, sigma):
        """Gathering from the (step, distance level) table gives each step's
        ``_neighborhood`` row over the winner's grid distances exactly."""
        config = SomConfig(*grid)
        assert (config.sigma_start, config.sigma_end) == sigma
        grid_sq = _grid_sqdist(config)
        levels, level_of = np.unique(grid_sq, return_inverse=True)
        level_of = level_of.reshape(grid_sq.shape)
        total = 37
        steps = np.arange(total)
        table = _neighborhood(config, levels[None, :], steps[:, None], total)
        for t in range(total):
            for winner in range(config.n_units):
                want = _neighborhood(config, grid_sq[winner], t, total)
                assert np.array_equal(table[t][level_of[winner]], want)


class TestTrainSoms:
    """Maps trained in lockstep end exactly as each map trained alone."""

    CASES = [
        # (n, d, grid, config keywords)
        (60, 5, (3, 4), {}),
        (40, 1, (2, 3), {}),
        (50, 4, (2, 2), {"epochs": 2}),  # radius at its floor, 1.0 -> 0.5
        (5, 3, (1, 5), {}),  # as many units as rows
    ]

    @staticmethod
    def _maps(n, d, grid, kw, n_maps, shared):
        """``n_maps`` freshly initialized maps, on one matrix or on one each."""
        n_data = 1 if shared else n_maps
        data = [_structured_rows(100 * n + d + j, n, d) for j in range(n_data)]
        data = data * n_maps if shared else data
        soms = [init_som(SomConfig(*grid, seed=j, **kw), X) for j, X in enumerate(data)]
        return soms, data

    @pytest.mark.parametrize("n_maps", [1, 2, 5])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "distinct"])
    @pytest.mark.parametrize("n, d, grid, kw", CASES)
    def test_each_map_equals_training_alone(
        self, n, d, grid, kw, n_maps, shared, monkeypatch
    ):
        soms, data = self._maps(n, d, grid, kw, n_maps, shared)
        references = [train_som_reference(som, X) for som, X in zip(soms, data)]
        for steps in (None, 3):  # the default budget, then chunks of 3 steps
            if steps is not None:
                _chunk_steps(monkeypatch, steps, n_maps, d, grid)
            together = train_soms(soms, data)
            assert len(together) == n_maps
            for som, X, got, reference in zip(soms, data, together, references):
                for want in (train_som(som, X), reference):
                    assert np.array_equal(got.codebook, want.codebook)
                    assert np.array_equal(got.hit_counts, want.hit_counts)
                    assert got.final_qe == want.final_qe
                assert got.config == som.config

    def test_match_is_the_codebook_match_of_the_training_rows(self):
        """Each unit's matched row is the reference scan's nearest row, and
        the priors are the hit shares: proportional to the hits, summing to one."""
        soms, data = self._maps(60, 5, (3, 4), {}, 3, shared=False)
        for som, got, X in zip(soms, train_soms(soms, data), data):
            want = train_som_reference(som, X).match
            assert np.array_equal(got.match.matched_instance_ids, want.matched_instance_ids)
            assert np.array_equal(got.match.priors, want.priors)
            assert np.array_equal(got.match.priors, got.hit_counts / 60)
            assert np.all(got.match.priors >= 0)
            assert abs(got.match.priors.sum() - 1.0) < 1e-12

    def test_untrained_map_has_no_match(self):
        X = _structured_rows(1, 10, 2)
        assert init_som(SomConfig(2, 2), X).match is None

    def test_accepts_a_generator_of_maps(self):
        soms, data = self._maps(30, 3, (2, 2), {}, 3, shared=True)
        lazily = train_soms((som for som in soms), data)
        for got, want in zip(lazily, train_soms(soms, data)):
            assert np.array_equal(got.codebook, want.codebook)

    def test_empty_batch(self):
        assert train_soms([], []) == []

    @pytest.mark.parametrize("other", [
        SomConfig(2, 3, seed=1),  # another grid
        SomConfig(2, 2, epochs=4, seed=1),
        SomConfig(1, 4, seed=1),  # as many units on another grid
        SomConfig(4, 1, seed=1),
        SomConfig(2, 2, epochs=6, seed=1),
    ])
    def test_configs_must_differ_only_in_seed(self, other):
        X = _structured_rows(2, 20, 3)
        soms = [init_som(SomConfig(2, 2, seed=0), X), init_som(other, X)]
        with pytest.raises(ConfigError):
            train_soms(soms, [X, X])

    def test_matrices_must_share_a_shape(self):
        X = _structured_rows(3, 20, 3)
        Y = _structured_rows(4, 21, 3)
        soms = [init_som(SomConfig(2, 2, seed=0), X), init_som(SomConfig(2, 2, seed=1), Y)]
        with pytest.raises(ConfigError):
            train_soms(soms, [X, Y])

    @pytest.mark.parametrize("n_maps, n_data", [(2, 1), (1, 2)])
    def test_one_matrix_per_map(self, n_maps, n_data):
        X = _structured_rows(5, 20, 3)
        soms = [init_som(SomConfig(2, 2, seed=j), X) for j in range(n_maps)]
        with pytest.raises(ConfigError):
            train_soms(soms, [X] * n_data)

    def test_dimension_mismatch(self):
        X = _structured_rows(6, 20, 3)
        soms = [init_som(SomConfig(2, 2, seed=j), X) for j in range(2)]
        with pytest.raises(DimensionError):
            train_soms(soms, [X[:, :2], X[:, :2]])

    def test_shared_matrix_is_not_copied(self):
        """Four maps on one 100 x 2000 matrix (1.6 MB) never hold a copy of it."""
        X = _structured_rows(7, 100, 2000)
        soms = [init_som(SomConfig(2, 2, epochs=1, seed=j), X) for j in range(4)]
        tracemalloc.start()
        try:
            train_soms(soms, [X] * 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes


class TestQuantizationError:
    def test_zero_when_codebook_is_data(self):
        X = np.arange(8.0).reshape(4, 2)
        som = SomModel(SomConfig(2, 2), X.copy(), np.zeros(4, dtype=np.int64))
        assert quantization_error(som, X) == 0.0

    def test_centroid_codebook_gives_mean_squared_deviation(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 3))
        centroid = X.mean(axis=0)
        som = SomModel(
            SomConfig(1, 2), np.stack([centroid, centroid]), np.zeros(2, dtype=np.int64)
        )
        expected = float(((X - centroid) ** 2).sum(axis=1).mean())
        assert quantization_error(som, X) == pytest.approx(expected, rel=1e-12)

    def test_matches_per_row_bmu_distances(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((20, 3))
        som = SomModel(SomConfig(2, 2), rng.standard_normal((4, 3)), np.zeros(4, dtype=np.int64))
        per_row = sq_distances(X, som.codebook).min(axis=1)
        assert quantization_error(som, X) == pytest.approx(np.mean(per_row), rel=1e-12)


class TestCodebookMatch:
    def test_identity_when_codebook_is_data(self):
        X = np.arange(8.0).reshape(4, 2)
        som = SomModel(SomConfig(2, 2), X.copy(), np.ones(4, dtype=np.int64))
        match = codebook_match(som, X)
        np.testing.assert_array_equal(match.matched_instance_ids, [0, 1, 2, 3])
        np.testing.assert_array_equal(X[match.matched_instance_ids], X)

    def test_far_unit_still_matched(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        codebook = np.array([[0.1, 0.0], [100.0, 100.0]])
        som = SomModel(SomConfig(1, 2), codebook, np.array([3, 0], dtype=np.int64))
        match = codebook_match(som, X)
        assert match.matched_instance_ids[1] == 1  # nearest row to the far unit

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 3))
        som = train_som(init_som(SomConfig(3, 3, seed=3), X), X)
        match = codebook_match(som, X)
        for k, vec in enumerate(som.codebook):
            dists = ((X - vec) ** 2).sum(axis=1)
            assert match.matched_instance_ids[k] == int(np.argmin(dists))

    def test_untrained_map_gets_the_rows_hit_shares(self):
        """Priors come from the matched rows, not from the map's recorded hits."""
        X = np.array([[0.0, 0.0], [0.2, 0.0], [5.0, 5.0], [0.1, 0.1]])
        som = SomModel(SomConfig(1, 2), np.array([[0.0, 0.0], [5.0, 5.0]]),
                       np.zeros(2, dtype=np.int64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            match = codebook_match(som, X)
        np.testing.assert_array_equal(match.priors, [0.75, 0.25])
        np.testing.assert_array_equal(match.matched_instance_ids, [0, 2])

    def test_tie_goes_to_lowest_row(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
        codebook = np.array([[0.0, 0.0], [5.0, 5.0]])
        som = SomModel(SomConfig(1, 2), codebook, np.array([2, 1], dtype=np.int64))
        match = codebook_match(som, X)
        assert match.matched_instance_ids[0] == 0

    def test_rows_of_another_width_are_rejected(self):
        """Both functions that take a trained map's rows check their width."""
        som = SomModel(SomConfig(1, 2), np.zeros((2, 3)), np.zeros(2, dtype=np.int64))
        for func in (codebook_match, quantization_error):
            for rows in (np.zeros((5, 4)), np.zeros(3)):
                with pytest.raises(DimensionError):
                    func(som, rows)


class TestCodebookMatchSet:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            CodebookMatchSet(np.array([0, 1]), [0.4, 0.5])

    def test_nan_prior_rejected(self):
        with pytest.raises(ConfigError):
            CodebookMatchSet(np.array([0, 1]), [np.nan, 0.5])


class TestDefaultSomConfig:
    def test_uses_size_based_grid(self):
        cfg = default_som_config(100, seed=3)
        assert (cfg.grid_rows, cfg.grid_cols) == (8, 8)
        assert cfg.seed == 3

    def test_radius_scales_with_grid(self):
        cfg = default_som_config(100)
        assert cfg.sigma_start == pytest.approx(4.0)

    @pytest.mark.parametrize("grid", [(8, 8), (3, 3), (1, 2), (2, 7), (6, 8), (4, 1)])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_one_config_per_grid(self, grid, seed):
        """Every grid trains on the one fixed schedule, its radius set by the longer side."""
        cfg = SomConfig(*grid, seed=seed)
        assert (cfg.epochs, cfg.seed) == (5, seed)
        assert cfg.sigma_start == max(1.0, max(grid) / 2.0)
        assert (cfg.alpha_start, cfg.alpha_end, cfg.sigma_end) == (0.5, 0.05, 0.5)

    def test_schedule_is_not_a_setting(self):
        assert [f.name for f in dataclasses.fields(SomConfig)] == [
            "grid_rows", "grid_cols", "epochs", "seed"
        ]
        with pytest.raises(TypeError):
            SomConfig(2, 2, alpha_start=0.9)
