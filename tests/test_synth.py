"""Planted matrices, the agreement index, and the stability harness."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppp.data import IndexSet
from ppp.engine import PppConfig, PppNode, PppTree
from ppp.errors import ConfigError, ValidationError
from ppp.synth import (
    PlantedData,
    PlantedSpec,
    StabilityReport,
    adjusted_rand_index,
    canonical_split,
    generate_planted,
    repeatability_trial,
)


class TestPlantedSpec:
    def test_blocks_must_partition(self):
        with pytest.raises(ConfigError):
            PlantedSpec(4, 2, ((0, 1), (1, 2, 3)), ((0,), (1,)),
                        np.zeros((2, 2)), 1.0)

    def test_blocks_must_cover(self):
        with pytest.raises(ConfigError):
            PlantedSpec(4, 2, ((0, 1),), ((0,), (1,)), np.zeros((1, 2)), 1.0)

    def test_empty_block_rejected(self):
        with pytest.raises(ConfigError):
            PlantedSpec(2, 2, ((0, 1), ()), ((0,), (1,)), np.zeros((2, 2)), 1.0)

    def test_means_shape_must_match_blocks(self):
        with pytest.raises(ConfigError):
            PlantedSpec(4, 4, ((0, 1), (2, 3)), ((0, 1), (2, 3)),
                        np.zeros((2, 3)), 1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            PlantedSpec.even(4, 4, (2, 2), noise_sigma=-0.5)

    def test_even_blocks_are_contiguous_and_equal(self):
        spec = PlantedSpec.even(8, 6, (2, 3))
        assert spec.instance_blocks == ((0, 1, 2, 3), (4, 5, 6, 7))
        assert spec.feature_blocks == ((0, 1), (2, 3), (4, 5))

    def test_even_checkerboard_means(self):
        spec = PlantedSpec.even(4, 4, (2, 2), gap=3.0)
        np.testing.assert_array_equal(spec.block_means,
                                      [[0.0, 3.0], [3.0, 0.0]])

    def test_even_rejects_more_blocks_than_items(self):
        with pytest.raises(ConfigError):
            PlantedSpec.even(2, 4, (3, 2))


class TestGeneratePlanted:
    def test_zero_noise_is_piecewise_constant(self):
        spec = PlantedSpec.even(6, 4, (2, 2), gap=5.0, noise_sigma=0.0)
        data = generate_planted(spec)
        values = data.matrix.values
        np.testing.assert_array_equal(values[:3, :2], 0.0)
        np.testing.assert_array_equal(values[:3, 2:], 5.0)
        np.testing.assert_array_equal(values[3:, :2], 5.0)
        np.testing.assert_array_equal(values[3:, 2:], 0.0)

    def test_labels_follow_blocks(self):
        spec = PlantedSpec.even(6, 4, (3, 2), noise_sigma=0.0)
        data = generate_planted(spec)
        assert data.instance_labels.tolist() == [0, 0, 1, 1, 2, 2]
        assert data.feature_labels.tolist() == [0, 0, 1, 1]

    def test_deterministic_per_seed(self):
        spec = PlantedSpec.even(10, 6, (2, 2), seed=9)
        a = generate_planted(spec)
        b = generate_planted(spec)
        np.testing.assert_array_equal(a.matrix.values, b.matrix.values)

    def test_seed_changes_noise(self):
        a = generate_planted(PlantedSpec.even(10, 6, (2, 2), seed=1))
        b = generate_planted(PlantedSpec.even(10, 6, (2, 2), seed=2))
        assert not np.array_equal(a.matrix.values, b.matrix.values)

    def test_block_means_recovered_from_noise(self):
        """Empirical block means land within 4 standard errors of the plan."""
        spec = PlantedSpec.even(200, 40, (2, 2), gap=4.0, noise_sigma=1.0, seed=3)
        data = generate_planted(spec)
        values = data.matrix.values
        for bi, rows in enumerate(spec.instance_blocks):
            for bj, cols in enumerate(spec.feature_blocks):
                cell = values[np.ix_(list(rows), list(cols))]
                se = 1.0 / np.sqrt(cell.size)
                assert abs(cell.mean() - spec.block_means[bi, bj]) < 4 * se


class TestAdjustedRandIndex:
    def test_identical_labelings(self):
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_renamed_labels_are_identical(self):
        assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0

    def test_uninformative_labeling_scores_zero(self):
        assert adjusted_rand_index([0, 0, 0, 0], [0, 0, 1, 1]) == pytest.approx(0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3, size=30)
        b = rng.integers(0, 4, size=30)
        assert adjusted_rand_index(a, b) == pytest.approx(
            adjusted_rand_index(b, a), rel=1e-12
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 3, size=25)
        b = rng.integers(0, 3, size=25)
        perm = rng.permutation(25)
        assert adjusted_rand_index(a[perm], b[perm]) == pytest.approx(
            adjusted_rand_index(a, b), rel=1e-12
        )

    def test_matches_pair_counting_oracle(self):
        """Direct all-pairs agreement bookkeeping, no contingency table."""
        rng = np.random.default_rng(2)
        a = rng.integers(0, 3, size=16)
        b = rng.integers(0, 3, size=16)
        n11 = n00 = n10 = n01 = 0
        for i, j in itertools.combinations(range(16), 2):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            n11 += same_a and same_b
            n00 += (not same_a) and (not same_b)
            n10 += same_a and not same_b
            n01 += (not same_a) and same_b
        total = n11 + n00 + n10 + n01
        index = n11
        expected = (n11 + n10) * (n11 + n01) / total
        max_index = ((n11 + n10) + (n11 + n01)) / 2
        oracle = (index - expected) / (max_index - expected)
        assert adjusted_rand_index(a, b) == pytest.approx(oracle, rel=1e-12)

    def test_both_all_singletons(self):
        assert adjusted_rand_index([0, 1, 2], [2, 0, 1]) == 1.0

    def test_single_item_is_identical(self):
        """Two one-item partitions are the same partition, with no 0/0."""
        assert adjusted_rand_index([0], [0]) == 1.0
        assert adjusted_rand_index([3], [7]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            adjusted_rand_index([0, 1], [0, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            adjusted_rand_index([], [])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bounded_above_by_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        a = rng.integers(0, 5, size=n)
        b = rng.integers(0, 5, size=n)
        assert adjusted_rand_index(a, b) <= 1.0 + 1e-12


def _leaf(feature_ids, n_feat, n_inst, path="", status="leaf_unsplittable"):
    return PppNode(IndexSet(np.array(feature_ids), n_feat),
                   IndexSet.full(n_inst), path, status)


class TestCanonicalSplit:
    def test_unsplit_root_is_none(self):
        tree = PppTree(_leaf([0, 1, 2], 3, 4), 4, 3, None)
        assert canonical_split(tree) is None

    def test_pair_order_normalized(self):
        from ppp.engine import SplitEvaluation

        empty = IndexSet(np.array([], dtype=np.int64), 4)
        # the side holding feature 0 comes second here; canonical form flips it
        split = (IndexSet(np.array([1, 3]), 4), IndexSet(np.array([0, 2]), 4))
        ev = SplitEvaluation(0, split, empty, (empty, empty),
                             (np.array([]), np.array([])), (50.0, 50.0), 25.0)
        root = PppNode(IndexSet.full(4), IndexSet.full(4), "", "internal", ev)
        tree = PppTree(root, 4, 4, None)
        assert canonical_split(tree) == ((0, 2), (1, 3))


@pytest.fixture(scope="module")
def planted120():
    spec = PlantedSpec.even(120, 8, (2, 2), gap=4.0, noise_sigma=1.0, seed=5)
    return generate_planted(spec)


@pytest.fixture(scope="module")
def report012(planted120):
    return repeatability_trial(planted120.matrix, PppConfig(), [0, 1, 2])


class TestRepeatabilityTrial:
    def test_no_seeds_rejected(self, planted120):
        with pytest.raises(ConfigError):
            repeatability_trial(planted120.matrix, PppConfig(), [])

    @pytest.mark.parametrize("threads", [0, -3])
    def test_thread_count_below_one_rejected(self, planted120, threads):
        with pytest.raises(ConfigError):
            repeatability_trial(planted120.matrix, PppConfig(), [0], threads=threads)

    def test_repeated_seed_agrees_with_itself(self, planted120):
        report = repeatability_trial(planted120.matrix, PppConfig(), [5, 5])
        assert report.modal_frequency == 1.0
        assert report.root_splits[0] == report.root_splits[1]
        np.testing.assert_allclose(report.pairwise_ari, 1.0)

    def test_planted_structure_is_stable(self, report012):
        expected = (tuple(range(4)), tuple(range(4, 8)))
        assert report012.root_splits == (expected,) * 3
        assert report012.modal_frequency == 1.0
        assert report012.score_min is not None and report012.score_min > 0
        assert report012.score_min <= report012.score_mean <= report012.score_max
        assert report012.split_frequencies[0] == (expected, 1.0)

    def test_split_labels_binary_view(self, report012):
        assert report012.split_labels(0).tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_split_labels_raises_without_split(self):
        from ppp.data import DesignMatrix

        const = DesignMatrix.ingest(np.full((10, 4), 2.0))
        report = repeatability_trial(const, PppConfig(), [0])
        assert report.root_splits == (None,)
        assert report.score_mean is None
        with pytest.raises(ValidationError):
            report.split_labels(0)

    def test_frequencies_sum_to_one(self, report012):
        assert sum(f for _, f in report012.split_frequencies) == pytest.approx(1.0)
