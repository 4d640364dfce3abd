"""Two-way k-means: assignment, Lloyd updates, restarts."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ppp.kmeans as kmeans
import support
from ppp.errors import DegenerateSplit
from ppp.kmeans import kmeans_bisect, kmeans_objective


def _brute_force_best(points):
    """Exhaustively score every 2-way partition through the same objective the
    solver reports: centers at the group means, then summed nearest-center
    squared distance."""
    n = len(points)
    best = np.inf
    best_labels = None
    for bits in itertools.product([0, 1], repeat=n):
        labels = np.array(bits)
        if labels.min() == labels.max():
            continue
        centers = np.stack([
            points[labels == 0].mean(axis=0),
            points[labels == 1].mean(axis=0),
        ])
        obj = kmeans_objective(centers, points)
        if obj < best:
            best = obj
            best_labels = labels
    return best, best_labels


class TestObjective:
    def test_zero_when_points_sit_on_centers(self):
        centers = np.array([[0.0, 0.0], [5.0, 5.0]])
        points = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 0.0]])
        assert kmeans_objective(centers, points) == 0.0

    def test_single_point_pays_squared_gap_to_nearest(self):
        centers = np.array([[0.0, 0.0], [10.0, 0.0]])
        assert kmeans_objective(centers, np.array([[3.0, 4.0]])) == pytest.approx(25.0)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((12, 3))
        centers = rng.standard_normal((2, 3))
        total = 0.0
        for row in points:
            total += min(float(np.sum((row - c) ** 2)) for c in centers)
        assert kmeans_objective(centers, points) == pytest.approx(total, rel=1e-12)


class TestLloydIterate:
    def test_fixed_point_at_blob_means(self):
        rng = np.random.default_rng(1)
        blob_a = rng.normal(0.0, 0.3, size=(10, 2))
        blob_b = rng.normal(8.0, 0.3, size=(10, 2))
        points = np.vstack([blob_a, blob_b])
        centers = np.vstack([blob_a.mean(axis=0), blob_b.mean(axis=0)])
        labels, new_centers = kmeans._lloyd_step(np.ascontiguousarray(points.T), centers)
        np.testing.assert_array_equal(labels[:10], False)
        np.testing.assert_array_equal(labels[10:], True)
        np.testing.assert_allclose(new_centers, centers, rtol=1e-12)
        np.testing.assert_allclose(kmeans._group_means(points, labels), centers, rtol=1e-12)

    def test_ties_break_to_first_center(self):
        points = np.array([[0.0, 0.0], [3.0, 0.0], [-3.0, 0.0]])
        centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels, _ = kmeans._lloyd_step(np.ascontiguousarray(points.T), centers)
        # the origin is equidistant from both centers; the others anchor a side
        np.testing.assert_array_equal(labels, [False, False, True])

    def test_equal_centers_repair_keeps_two_groups(self):
        """Coincident centers would empty one side; the farthest point is
        split off instead."""
        points = np.array([[0.0, 0.0], [0.1, 0.0], [9.0, 9.0]])
        centers = np.zeros((2, 2))
        labels, _ = kmeans._lloyd_step(np.ascontiguousarray(points.T), centers)
        assert sorted([np.count_nonzero(~labels), np.count_nonzero(labels)]) == [1, 2]

    def test_repair_reuses_the_step_distances(self, monkeypatch):
        """A step that repairs an empty side computes its distances once."""
        calls = []
        real = kmeans.sq_distances
        monkeypatch.setattr(kmeans, "sq_distances", lambda X, Y: calls.append(1) or real(X, Y))
        points = np.array([[0.0], [1.0], [2.0]])
        labels, _ = kmeans._lloyd_step(np.ascontiguousarray(points.T), np.array([[0.0], [100.0]]))
        # side 1 was empty; it gets the farthest point
        assert labels.tolist() == [False, False, True]
        assert len(calls) == 1

    def test_objective_never_increases(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            points = rng.standard_normal((20, 3))
            idx = rng.choice(20, size=2, replace=False)
            columns = np.ascontiguousarray(points.T)
            _, centers = kmeans._lloyd_step(columns, points[idx])
            obj = kmeans_objective(centers, points)
            for _ in range(6):
                _, centers = kmeans._lloyd_step(columns, centers)
                new_obj = kmeans_objective(centers, points)
                assert new_obj <= obj * (1 + 1e-12) + 1e-12
                obj = new_obj


class TestKmeansBisect:
    def test_four_point_rectangle(self):
        """Frozen case: {(0,0),(0,1)} vs {(10,10),(10,11)} with objective 1."""
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        result = kmeans_bisect(points, seed=0)
        groups = frozenset(
            frozenset(np.flatnonzero(result.assignment == g).tolist()) for g in (0, 1)
        )
        assert groups == frozenset({frozenset({0, 1}), frozenset({2, 3})})
        assert result.objective == pytest.approx(1.0, rel=1e-12)
        assert result.converged

    def test_two_points_split_perfectly(self):
        points = np.array([[0.0], [5.0]])
        result = kmeans_bisect(points, seed=3)
        assert result.objective == 0.0
        assert set(result.assignment.tolist()) == {0, 1}

    def test_identical_points_rejected(self):
        with pytest.raises(DegenerateSplit):
            kmeans_bisect(np.ones((5, 2)), seed=0)

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateSplit):
            kmeans_bisect(np.array([[1.0, 2.0]]), seed=0)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((30, 4))
        a = kmeans_bisect(points, seed=77)
        b = kmeans_bisect(points, seed=77)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.objective == b.objective
        assert a.iterations == b.iterations

    def test_both_labels_always_occupied(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            points = rng.standard_normal((int(rng.integers(2, 15)), 2))
            result = kmeans_bisect(points, seed=trial)
            counts = np.bincount(result.assignment, minlength=2)
            assert counts[0] >= 1 and counts[1] >= 1

    def test_objective_consistent_with_assignment(self):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((25, 3))
        result = kmeans_bisect(points, seed=9)
        assert result.objective == pytest.approx(
            kmeans_objective(result.centers, points), rel=1e-9
        )
        per_assignment = sum(
            float(np.sum((row - result.centers[g]) ** 2))
            for row, g in zip(points, result.assignment)
        )
        assert result.objective == pytest.approx(per_assignment, rel=1e-9)

    def test_one_iteration_returns_an_assignment(self, monkeypatch):
        monkeypatch.setattr(kmeans, "_MAX_ITER", 1)
        result = kmeans_bisect(np.array([[0.0], [1.0], [5.0]]), seed=0)
        assert result.iterations == 1 and not result.converged
        assert sorted(set(result.assignment.tolist())) == [0, 1]

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_restarts_never_beat_exhaustive_optimum(self, seed):
        """The exhaustive optimum is a true lower bound for any restart."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        points = rng.standard_normal((n, 2)) * rng.uniform(0.5, 3.0)
        best, _ = _brute_force_best(points)
        found = min(kmeans_bisect(points, seed=s).objective for s in range(5))
        assert found >= best - 1e-9

    def test_corpus_instances_reach_global_optimum(self):
        """Best-of-10 equals the exhaustive optimum on every corpus instance.

        Scoped to the fixed corpus: with naive init the optimum is not always
        reachable at all (see tests/support.py), so the universal claim would
        be false.
        """
        for i in range(support.LLOYD_CORPUS_SIZE):
            points = support.lloyd_corpus_instance(i)
            best = support.brute_force_bipartition_objective(points)
            found = min(
                kmeans_bisect(points, seed=support.lloyd_restart_seed(i, j)).objective
                for j in range(10)
            )
            assert found == pytest.approx(best, rel=1e-9, abs=1e-12), f"instance {i}"

    def test_separated_blobs_always_recovered(self):
        """With genuine cluster structure every restart finds the same
        optimal split, so best-of-10 is trivially exact."""
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            n_a = int(rng.integers(2, 5))
            n_b = int(rng.integers(2, 5))
            points = np.vstack([
                rng.normal(0.0, 0.3, size=(n_a, 2)),
                rng.normal(10.0, 0.3, size=(n_b, 2)),
            ])
            best = support.brute_force_bipartition_objective(points)
            for s in range(10):
                result = kmeans_bisect(points, seed=s)
                assert result.objective == pytest.approx(best, rel=1e-9)
                assert result.assignment[:n_a].min() == result.assignment[:n_a].max()


def _within_rounding_of_a_tie(point, centers) -> bool:
    """|p - c0|² - |p - c1|², in exact arithmetic on the float inputs, is
    within the rounding of either step's arithmetic."""
    p = [Fraction(x) for x in point]
    d0, d1 = (sum((a - Fraction(b)) ** 2 for a, b in zip(p, c)) for c in centers)
    scale = float(point @ point + centers[0] @ centers[0] + centers[1] @ centers[1])
    return abs(d0 - d1) <= 8 * (len(point) + 2) * np.finfo(float).eps * scale


def _first_parting(points, seed):
    """Run ``kmeans_bisect``'s steps and the reference's side by side from the
    same start, each on its own centers. Return the first step at which their
    labels differ, the points they differ on and each loop's centers going
    into that step, or None if the loops converge together."""
    columns = np.ascontiguousarray(points.T)
    ours = theirs = kmeans._init_random(points, np.random.default_rng(seed))
    labels = None
    for step in range(1, kmeans._MAX_ITER + 1):
        new_labels, next_ours = kmeans._lloyd_step(columns, ours)
        want, next_theirs = support.lloyd_step_reference(points, theirs)
        parted = np.flatnonzero(new_labels != want)
        if parted.size:
            return step, parted.tolist(), ours, theirs
        if labels is not None and np.array_equal(want, labels):
            return None
        labels, ours, theirs = want, next_ours, next_theirs
    return None


def _assert_matches_reference(points, seed):
    """``kmeans_bisect`` gives the reference's labels, iteration count, centers
    and objective, unless the two loops part ways; they may do so only at
    points within rounding of equidistant from both loops' centers. Returns
    where they parted, or None."""
    points = np.asarray(points, dtype=float)
    parting = _first_parting(points, seed)
    if parting is not None:
        _, parted, ours, theirs = parting
        for i in parted:
            assert _within_rounding_of_a_tie(points[i], ours)
            assert _within_rounding_of_a_tie(points[i], theirs)
        return parting
    result = kmeans_bisect(points, seed)
    labels, centers, objective, iterations, converged = support.kmeans_bisect_reference(
        points, seed)
    assert np.array_equal(result.assignment, labels)
    assert (result.iterations, result.converged) == (iterations, converged)
    assert np.array_equal(result.centers, centers)
    assert result.objective == objective
    return None


class TestMatchesReference:
    """The projection step gives the labels of the squared-distance step,
    except at points within rounding of a tie."""

    @given(st.integers(1, 12), st.integers(2, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gaussian_columns(self, dim, m, seed):
        rng = np.random.default_rng(seed)
        # the engine's layout: points are the columns of a C-ordered (dim, m) block
        core = rng.standard_normal((dim, m)) * rng.uniform(0.1, 10.0) + rng.normal(0, 5, (dim, 1))
        _assert_matches_reference(core.T, seed)
        _assert_matches_reference(np.ascontiguousarray(core.T), seed)

    @given(st.integers(1, 4), st.integers(2, 30), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_integer_points_from_integer_centers(self, dim, m, high, seed):
        """From two integer points every term of both steps is exact, so the
        many exact ties of small integers go to label 0 in both."""
        rng = np.random.default_rng(seed)
        points = rng.integers(-high, high + 1, size=(m, dim)).astype(float)
        centers = points[rng.choice(m, size=2, replace=False)]
        labels, new_centers = kmeans._lloyd_step(np.ascontiguousarray(points.T), centers)
        want_labels, want_centers = support.lloyd_step_reference(points, centers)
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(new_centers, want_centers)
        assert np.array_equal(kmeans._group_means(points, labels), want_centers)

    @given(st.integers(1, 4), st.integers(2, 40), st.integers(1, 5), st.integers(0, 999))
    @settings(max_examples=300, deadline=None)
    def test_integer_bisections(self, dim, m, high, seed):
        """Whole bisections of small integers, whose later centers are group
        means of any size: many points lie within rounding of a tie."""
        points = np.random.default_rng(seed).integers(-high, high + 1, size=(m, dim)).astype(float)
        assume(len(np.unique(points, axis=0)) > 1)
        _assert_matches_reference(points, seed)

    # Three of the 7 bisections in which the loops parted ways, out of about
    # 30000 random small-integer ones. In each, the parted point is equidistant
    # in exact arithmetic from two group means whose sizes are not powers of
    # two, and the rounded centers leave it about 1e-16 nearer one of them.
    @pytest.mark.parametrize("points, seed, step, point", [
        ([[0, 0], [-3, -1], [-3, 0], [-3, 1], [1, -2], [-3, -3]], 397, 2, 1),
        ([[-4], [-2], [-2], [-1], [3], [0], [-4], [1], [3], [-3], [-4], [1]], 183, 3, 3),
        ([[0, 1, -1, -1], [1, 1, -1, 0], [0, 0, -1, 0], [1, 1, 0, 0], [0, 0, -1, 0],
          [-1, 0, 0, 1], [0, 1, 0, -1], [-1, 1, 1, 1], [0, 0, -1, 1], [-1, 0, 0, -1],
          [-1, -1, -1, 0], [-1, -1, 0, -1]], 571, 3, 9),
    ])
    def test_integer_bisections_that_part_at_a_near_tie(self, points, seed, step, point):
        """The loops part at one point within rounding of a tie and end at
        different splits, one with the other's labels but for that point's
        side, or further moves after it."""
        points = np.array(points, dtype=float)
        parted_step, parted, _, _ = _assert_matches_reference(points, seed)
        assert (parted_step, parted) == (step, [point])
        want_labels = support.kmeans_bisect_reference(points, seed)[0]
        assert not np.array_equal(kmeans_bisect(points, seed).assignment, want_labels)

    def test_integer_ties_in_a_bisection(self):
        """Points on a line at unit steps: the midpoint of the start is an
        exact tie, and every group mean stays a dyadic rational."""
        points = np.arange(8.0)[:, None]
        for seed in range(20):
            assert _assert_matches_reference(points, seed) is None

    @pytest.mark.parametrize("centers", [[[0.0, 0.0], [50.0, 50.0]], [[50.0, 50.0], [0.0, 0.0]],
                                         [[1.0, 1.0], [1.0, 1.0]]])
    def test_repair_path(self, centers):
        """Both sides empty in turn, and coincident centers, which tie every point."""
        rng = np.random.default_rng(7)
        points = rng.standard_normal((9, 2))
        labels, _ = kmeans._lloyd_step(np.ascontiguousarray(points.T), np.array(centers))
        want_labels, want_centers = support.lloyd_step_reference(points, np.array(centers))
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(kmeans._group_means(points, labels), want_centers)
