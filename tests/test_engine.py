"""Split evaluation, tree growth, and the overlap objective."""

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
from ppp.errors import ConfigError, DegenerateModel, DimensionError, SingularCovariance
from ppp.gmm import GaussianMixture
from ppp.som import CodebookMatchSet
from ppp.synth import PlantedSpec, generate_planted
from support import mixture_pdf


@pytest.fixture(scope="module")
def planted():
    """120 x 8 two-block matrix, features 0-3 vs 4-7, noisy enough that the
    density threshold keeps a usable core set."""
    spec = PlantedSpec.even(120, 8, (2, 2), gap=4.0, noise_sigma=1.0, seed=5)
    return generate_planted(spec)


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


def _match_set(vectors, priors):
    vectors = np.asarray(vectors, dtype=float)
    return CodebookMatchSet(
        np.arange(len(vectors)), vectors, np.asarray(priors, dtype=float)
    )


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
        post_a, post_b = child_posteriors(_match_set(vectors, [0.3, 0.3, 0.4]), g, g)
        np.testing.assert_allclose(post_a, 0.5, rtol=1e-12)
        np.testing.assert_allclose(post_b, 0.5, rtol=1e-12)

    def test_zero_prior_unit_gets_zero(self):
        vectors = np.zeros((3, 2))
        g = _isotropic([[0.0, 0.0]])
        post_a, post_b = child_posteriors(_match_set(vectors, [0.5, 0.0, 0.5]), g, g)
        assert post_a[1] == 0.0 and post_b[1] == 0.0
        assert post_a[0] == 0.5

    def test_competitive_pair_sums_to_one(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((8, 3))
        ga = _isotropic(rng.standard_normal((2, 3)))
        gb = _isotropic(rng.standard_normal((3, 3)))
        priors = rng.dirichlet(np.ones(8))
        post_a, post_b = child_posteriors(_match_set(vectors, priors), ga, gb)
        np.testing.assert_allclose(post_a + post_b, 1.0, atol=1e-12)

    def test_competitive_favors_the_nearer_mixture(self):
        vectors = np.array([[0.0, 0.0], [10.0, 10.0]])
        ga = _isotropic([[0.0, 0.0]])
        gb = _isotropic([[10.0, 10.0]])
        post_a, _ = child_posteriors(_match_set(vectors, [0.5, 0.5]), ga, gb)
        assert post_a[0] > 0.999
        assert post_a[1] < 0.001

    def test_paper_mode_matches_direct_formula(self):
        """Each side normalizes density * prior by its own density total."""
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((6, 2))
        ga = _isotropic(rng.standard_normal((2, 2)))
        gb = _isotropic(rng.standard_normal((2, 2)))
        priors = rng.dirichlet(np.ones(6))
        post_a, post_b = child_posteriors(
            _match_set(vectors, priors), ga, gb, mode="paper"
        )
        dens_a = np.array([mixture_pdf(ga, v) for v in vectors])
        dens_b = np.array([mixture_pdf(gb, v) for v in vectors])
        np.testing.assert_allclose(post_a, dens_a * priors / dens_a.sum(), rtol=1e-12)
        np.testing.assert_allclose(post_b, dens_b * priors / dens_b.sum(), rtol=1e-12)

    def test_paper_mode_zero_prior(self):
        vectors = np.zeros((2, 2))
        g = _isotropic([[0.0, 0.0]])
        post_a, _ = child_posteriors(_match_set(vectors, [1.0, 0.0]), g, g, mode="paper")
        assert post_a[1] == 0.0

    def test_column_restriction(self):
        """Each child mixture sees only its own feature columns."""
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((5, 4))
        ga = _isotropic(rng.standard_normal((2, 2)))
        gb = _isotropic(rng.standard_normal((2, 2)))
        priors = np.full(5, 0.2)
        post_a, post_b = child_posteriors(
            _match_set(vectors, priors), ga, gb, [0, 2], [1, 3]
        )
        dens_a = np.array([mixture_pdf(ga, v) for v in vectors[:, [0, 2]]])
        dens_b = np.array([mixture_pdf(gb, v) for v in vectors[:, [1, 3]]])
        np.testing.assert_allclose(post_a, dens_a / (dens_a + dens_b), rtol=1e-12)
        np.testing.assert_allclose(post_b, dens_b / (dens_a + dens_b), rtol=1e-12)

    def test_unknown_mode_rejected(self):
        vectors = np.zeros((1, 2))
        g = _isotropic([[0.0, 0.0]])
        with pytest.raises(ConfigError):
            child_posteriors(_match_set(vectors, [1.0]), g, g, mode="softmax")


class TestEvaluateSplit:
    def test_planted_feature_split_recovered(self, planted):
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        ev = evaluate_split(node, planted.matrix, PppConfig(master_seed=3),
                            derive_seed(3, "", 0))
        got = frozenset(
            frozenset(side.indices.tolist()) for side in ev.feature_split
        )
        assert got == frozenset({frozenset(range(4)), frozenset(range(4, 8))})

    def test_pure_function_of_seed(self, planted):
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        cfg = PppConfig(master_seed=3)
        seed = derive_seed(3, "", 0)
        ev1 = evaluate_split(node, planted.matrix, cfg, seed)
        ev2 = evaluate_split(node, planted.matrix, cfg, seed)
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

    def test_split_partitions_node_features(self, planted):
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        ev = evaluate_split(node, planted.matrix, PppConfig(master_seed=9), 404)
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

    def test_batch_equals_one_attempt_at_a_time(self, planted):
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        config = PppConfig(master_seed=3)
        seeds = [derive_seed(3, "", a) for a in range(6)]
        batch = evaluate_splits(node, planted.matrix, config, seeds)
        assert len(batch) == len(seeds)
        for seed, got in zip(seeds, batch):
            _same_evaluation(got, evaluate_split(node, planted.matrix, config, seed))

    def test_batch_on_an_inner_node(self, planted):
        node = PppNode(IndexSet(np.array([0, 1, 2, 5, 6]), 8), IndexSet(np.arange(0, 120, 3), 120))
        config = PppConfig(master_seed=4, gamma_rows="all")
        seeds = [11, 12, 13]
        for seed, got in zip(seeds, evaluate_splits(node, planted.matrix, config, seeds)):
            _same_evaluation(got, evaluate_split(node, planted.matrix, config, seed))

    def test_degenerate_attempts_in_a_batch(self):
        const = DesignMatrix.ingest(np.full((10, 4), 2.0))
        node = PppNode(IndexSet.full(4), IndexSet.full(10))
        results = evaluate_splits(node, const, PppConfig(), [1, 2, 3])
        assert [r.outcome for r in results] == ["degenerate_split"] * 3

    def test_fit_failures_are_caught_per_attempt(self, planted, monkeypatch):
        """In a real batch, a parent fit that raises fails only its own attempt,
        and so does a child fit; the other attempts keep their results."""
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        config = PppConfig(master_seed=3)
        seeds = [derive_seed(3, "", a) for a in range(4)]
        clean = evaluate_splits(node, planted.matrix, config, seeds)
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
        got = evaluate_splits(node, planted.matrix, config, seeds)
        assert isinstance(got[1], SingularCovariance)
        assert isinstance(got[0], DegenerateModel)  # the first child fit is attempt 0's side 0
        for i in (2, 3):
            _same_evaluation(got[i], clean[i])
        calls.update(parent=0, child=0)  # alone, attempt 1 fails at its side-0 child fit
        with pytest.raises(DegenerateModel):
            evaluate_split(node, planted.matrix, config, seeds[1])


def _stub_eval(score, n_features=4, n_instances=6):
    empty = IndexSet(np.array([], dtype=np.int64), n_instances)
    if score is None:
        return SplitEvaluation(0, None, empty, (empty, empty),
                               (np.array([]), np.array([])), (0.0, 0.0), None)
    split = (IndexSet(np.array([0, 1]), n_features),
             IndexSet(np.array([2, 3]), n_features))
    children = (IndexSet(np.array([0, 1, 2]), n_instances),
                IndexSet(np.array([3, 4]), n_instances))
    post = (np.array([0.9, 0.8]), np.array([0.7, 0.6]))
    return SplitEvaluation(0, split, children, children, post,
                           (float(score), float(score)), float(score))


def _stub_batches(score):
    """A batch entry point that gives every requested attempt the same score."""
    return lambda node, data, config, seeds: [_stub_eval(score) for _ in seeds]


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
        assert node.attempt_stats == []

    def test_one_instance_is_terminal(self, tiny):
        node = PppNode(IndexSet.full(4), IndexSet(np.array([3]), 6))
        grow_node(node, tiny, PppConfig())
        assert node.status == "leaf_terminal"

    def test_no_score_runs_all_attempts(self, tiny, monkeypatch):
        monkeypatch.setattr(engine_mod, "evaluate_splits", _stub_batches(None))
        node = self._node()
        grow_node(node, tiny, PppConfig())
        assert node.status == "leaf_unsplittable"
        assert len(node.attempt_stats) == 20
        assert node.score_trace == [None] * 20

    def test_attempt_cap_respected(self, tiny, monkeypatch):
        monkeypatch.setattr(engine_mod, "evaluate_splits", _stub_batches(None))
        node = self._node()
        grow_node(node, tiny, PppConfig(max_split_attempts=3))
        assert len(node.attempt_stats) == 3

    def test_patience_arms_after_first_score(self, tiny, monkeypatch):
        scores = iter([5.0] + [None] * 30)
        monkeypatch.setattr(engine_mod, "evaluate_splits",
                            lambda node, data, config, seeds: [_stub_eval(next(scores))
                                                               for _ in seeds])
        node = self._node()
        grow_node(node, tiny, PppConfig(patience=5))
        assert len(node.attempt_stats) == 6  # 1 hit + 5 stale
        assert node.status == "internal"
        assert node.best_eval.score == 5.0

    def test_improvement_resets_patience(self, tiny, monkeypatch):
        scores = iter([1.0, 2.0, 3.0] + [3.0] * 30)
        monkeypatch.setattr(engine_mod, "evaluate_splits",
                            lambda node, data, config, seeds: [_stub_eval(next(scores))
                                                               for _ in seeds])
        node = self._node()
        grow_node(node, tiny, PppConfig(patience=5))
        assert len(node.attempt_stats) == 8  # 3 improvements + 5 ties
        assert node.best_eval.score == 3.0

    def test_zero_best_score_stays_leaf(self, tiny, monkeypatch):
        monkeypatch.setattr(engine_mod, "evaluate_splits", _stub_batches(0.0))
        node = self._node()
        grow_node(node, tiny, PppConfig(patience=4))
        assert node.status == "leaf_unsplittable"
        assert len(node.attempt_stats) == 5  # armed by the present zero score

    def test_accepted_split_builds_children(self, tiny, monkeypatch):
        monkeypatch.setattr(engine_mod, "evaluate_splits", _stub_batches(12.0))
        node = self._node()
        grow_node(node, tiny, PppConfig())
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
            return [_stub_eval(s) for s in scores[start:start + len(seeds)]]

        monkeypatch.setattr(engine_mod, "evaluate_splits", stub)
        rng = np.random.default_rng(0)
        data = DesignMatrix.ingest(rng.standard_normal((6, 4)))
        config = PppConfig(master_seed=2, max_split_attempts=max_attempts, patience=patience)
        node = grow_node(PppNode(IndexSet.full(4), IndexSet.full(6), "01"), data, config)
        recorded = [row[0] for row in node.attempt_stats]
        assert requested == recorded
        assert recorded == [derive_seed(2, "01", a) for a in range(len(recorded))]
        assert len(recorded) == _one_at_a_time(scores, config)
        assert node.score_trace == scores[:len(recorded)]

    def test_wide_nodes_get_narrow_batches(self, monkeypatch):
        """The batch width shrinks with the map size K * d of the node."""
        sizes = []
        real = engine_mod.evaluate_splits

        def record(node, data, config, seeds):
            sizes.append(len(seeds))
            return real(node, data, config, seeds)

        monkeypatch.setattr(engine_mod, "evaluate_splits", record)
        rng = np.random.default_rng(1)
        wide = DesignMatrix.ingest(rng.standard_normal((48, 700)))  # K * d = 48 * 700
        grow_node(PppNode(IndexSet.full(700), IndexSet.full(48)), wide,
                  PppConfig(max_split_attempts=3))
        assert sizes == [1, 1, 1]


class TestGrowNodeOnData:
    def test_planted_root_split(self, planted):
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        grow_node(node, planted.matrix, PppConfig(master_seed=3))
        assert node.status == "internal"
        assert _blocks(node) == frozenset(
            {frozenset(range(4)), frozenset(range(4, 8))}
        )
        for child in node.children:
            got = set(child.instance_set.indices.tolist())
            assert got <= set(range(120))
            assert len(got) >= 1

    def test_children_carry_gamma_sets(self, planted):
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        grow_node(node, planted.matrix, PppConfig(master_seed=3))
        for child, gamma in zip(node.children, node.best_eval.child_sets):
            np.testing.assert_array_equal(child.instance_set.indices, gamma.indices)


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

    def test_failed_attempt_is_undefined_and_the_node_resolves(self, planted, monkeypatch):
        config = PppConfig(master_seed=3, max_split_attempts=6)
        clean = PppNode(IndexSet.full(8), IndexSet.full(120))
        grow_node(clean, planted.matrix, config)
        failing_seed = derive_seed(3, "", 0)
        self._failing_fit(
            monkeypatch, failing_seed, SingularCovariance("covariance is not positive definite")
        )
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        grow_node(node, planted.matrix, config)
        assert node.attempt_stats[0] == (failing_seed, 0.0, 0.0, None, "singular_cov")
        assert node.attempt_stats[1:] == clean.attempt_stats[1:len(node.attempt_stats)]
        assert node.status == "internal"
        assert node.best_eval.attempt_seed != failing_seed
        assert _blocks(node) == frozenset({frozenset(range(4)), frozenset(range(4, 8))})

    def test_other_errors_propagate(self, planted, monkeypatch):
        self._failing_fit(monkeypatch, derive_seed(3, "", 0), DimensionError("bad shape"))
        node = PppNode(IndexSet.full(8), IndexSet.full(120))
        with pytest.raises(DimensionError):
            grow_node(node, planted.matrix, PppConfig(master_seed=3))


class TestBuildTree:
    def test_constant_matrix_is_single_leaf(self):
        const = DesignMatrix.ingest(np.full((12, 6), 3.0))
        tree = build_tree(const, PppConfig(master_seed=0))
        assert tree.root.status == "leaf_unsplittable"
        assert tree.depth() == 0
        assert len(tree.root.attempt_stats) == 20  # no score ever arms patience

    def test_identical_rows_stay_unsplit(self):
        data = DesignMatrix.ingest(np.tile(np.arange(6.0), (12, 1)))
        tree = build_tree(data, PppConfig(master_seed=0))
        assert tree.root.is_leaf
        assert tree.root.status == "leaf_unsplittable"

    def test_planted_root_recovered(self, planted):
        tree = build_tree(planted.matrix, PppConfig(master_seed=3))
        assert _blocks(tree.root) == frozenset(
            {frozenset(range(4)), frozenset(range(4, 8))}
        )

    def _snapshot(self, tree):
        return [
            (n.path, n.status, tuple(n.feature_set.indices.tolist()),
             tuple(n.instance_set.indices.tolist()),
             None if n.best_eval is None else n.best_eval.score)
            for n in tree.nodes()
        ]

    def test_deterministic_per_seed(self, planted):
        cfg = PppConfig(master_seed=3)
        t1 = build_tree(planted.matrix, cfg)
        t2 = build_tree(planted.matrix, cfg)
        assert self._snapshot(t1) == self._snapshot(t2)

    def test_thread_count_does_not_change_result(self, planted):
        cfg = PppConfig(master_seed=3)
        assert self._snapshot(build_tree(planted.matrix, cfg)) == self._snapshot(
            build_tree(planted.matrix, cfg, threads=2)
        )

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


@pytest.fixture(scope="module")
def tree(planted):
    return build_tree(planted.matrix, PppConfig(master_seed=3))


class TestCutTree:
    def test_negative_depth_rejected(self, tree):
        with pytest.raises(ConfigError):
            cut_tree(tree, -1)

    def test_depth_zero_is_everything(self, tree):
        clusters = cut_tree(tree, 0)
        assert len(clusters) == 1
        assert clusters[0].indices.tolist() == list(range(8))

    def test_depth_one_matches_root_children(self, tree):
        got = frozenset(frozenset(c.indices.tolist()) for c in cut_tree(tree, 1))
        assert got == _blocks(tree.root)

    def test_none_returns_leaves(self, tree):
        got = [c.indices.tolist() for c in cut_tree(tree)]
        leaves = [n.feature_set.indices.tolist() for n in tree.leaves()]
        assert got == leaves

    def test_depth_beyond_tree_equals_leaves(self, tree):
        deep = cut_tree(tree, tree.depth() + 5)
        assert [c.indices.tolist() for c in deep] == [
            c.indices.tolist() for c in cut_tree(tree)
        ]

    def test_every_cut_partitions_features(self, tree):
        for depth in [None] + list(range(tree.depth() + 2)):
            clusters = cut_tree(tree, depth)
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
        {"min_features_to_split": 1},
        {"posterior_mode": "bayes"},
        {"gamma_rows": "some"},
        {"score_source": "densities"},
        {"kmeans_init": "farthest"},
        {"em_max_iter": 0},
        {"kmeans_max_iter": 0},
        {"em_tol": 0.0},
        {"em_tol": float("nan")},
        {"em_tol": float("inf")},
        {"em_tol": -1e-6},
        {"reg_epsilon": float("nan")},
        {"reg_epsilon": float("inf")},
        {"reg_epsilon": 0.0},
        {"reg_epsilon": -1e-9},
        {"som_epochs": 0},
        {"som_grid": (0, 2)},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            PppConfig(**kwargs)

    def test_reg_epsilon_defaults_to_none(self):
        assert PppConfig().reg_epsilon is None
        assert PppConfig(reg_epsilon=1e-9).reg_epsilon == 1e-9

    def test_raw_score_threshold_unconstrained(self):
        cfg = PppConfig(score_threshold=1.5, score_source="raw")
        assert cfg.score_threshold == 1.5

    def test_som_config_targets_node_size(self):
        cfg = PppConfig(som_epochs=7, som_alpha=(0.4, 0.01), hit_quantile=0.9)
        som_cfg = cfg.som_config_for(100, seed=42)
        assert som_cfg.epochs == 7
        assert som_cfg.alpha_start == 0.4 and som_cfg.alpha_end == 0.01
        assert som_cfg.hit_quantile == 0.9
        assert som_cfg.seed == 42
        assert som_cfg.sigma_start == max(
            1.0, max(som_cfg.grid_rows, som_cfg.grid_cols) / 2.0
        )
        assert som_cfg.sigma_end == 0.5

    def test_grid_override(self):
        som_cfg = PppConfig(som_grid=(3, 5)).som_config_for(1000, seed=0)
        assert (som_cfg.grid_rows, som_cfg.grid_cols) == (3, 5)

    def test_sigma_override(self):
        som_cfg = PppConfig(som_sigma=(4.0, 0.2)).som_config_for(50, seed=0)
        assert (som_cfg.sigma_start, som_cfg.sigma_end) == (4.0, 0.2)
