"""Containers and seed derivation: matrices, index sets, restriction, distances."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppp.data as data_mod
from ppp.data import (
    DesignMatrix,
    IndexSet,
    as_matrix,
    derive_seed,
    sq_distances,
    submatrix,
)
from ppp.errors import (
    DegenerateSelection,
    DimensionError,
    IndexOutOfBounds,
    ValidationError,
)
from support import sq_distances_reference


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "node", 3) == derive_seed(7, "node", 3)

    def test_sensitive_to_every_part(self):
        base = derive_seed(7, "node", 3)
        assert derive_seed(8, "node", 3) != base
        assert derive_seed(7, "edon", 3) != base
        assert derive_seed(7, "node", 4) != base

    def test_numpy_integer_hashes_as_python_int(self):
        assert derive_seed(np.int64(3), "node", np.int32(2)) == derive_seed(3, "node", 2)

    def test_part_types_not_conflated(self):
        """The string "10" and the int 10 must produce different streams."""
        assert derive_seed(0, "10") != derive_seed(0, 10)

    def test_order_matters(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")

    def test_64_bit_range(self):
        for parts in [(0,), (1, 2, 3), ("x",) * 5]:
            s = derive_seed(*parts)
            assert 0 <= s < 2**64

    def test_no_cheap_collisions(self):
        seeds = {derive_seed(0, "n", i) for i in range(1000)}
        assert len(seeds) == 1000


class TestDesignMatrix:
    def test_values_coerced_to_float(self):
        m = DesignMatrix(np.arange(6).reshape(2, 3))
        assert m.values.dtype == float
        assert m.n_instances == 2 and m.n_features == 3

    def test_rejects_non_2d(self):
        with pytest.raises(ValidationError):
            DesignMatrix(np.arange(4.0))

    def test_rejects_non_finite(self):
        bad = np.ones((2, 2))
        bad[1, 0] = np.nan
        with pytest.raises(ValidationError):
            DesignMatrix(bad)
        bad[1, 0] = np.inf
        with pytest.raises(ValidationError):
            DesignMatrix(bad)

    def test_first_bad_entry_is_named(self):
        bad = np.ones((3, 2))
        bad[2, 0] = np.nan
        with pytest.raises(ValidationError, match=r"^non-finite value at row 2, col 0$"):
            DesignMatrix(bad)
        bad[1, 1] = -np.inf
        with pytest.raises(ValidationError, match=r"^non-finite value at row 1, col 1$"):
            DesignMatrix(bad)
        bad[0, 1] = 1e200
        with pytest.raises(ValidationError, match=r"^entry \(0, 1\) = 1e\+200 exceeds"):
            DesignMatrix(bad)

    @pytest.mark.parametrize("n, d", [(200, 16), (48, 640)])
    def test_entries_whose_squares_overflow_are_rejected(self, n, d):
        x = np.random.default_rng(1).standard_normal((n, d))
        bound = np.sqrt(np.finfo(float).max / (4 * max(n, d)))
        row, col = divmod(int(np.argmax(np.abs(x) * 1e160 > bound)), d)
        with pytest.raises(ValidationError) as exc:
            DesignMatrix.ingest(x * 1e160)
        assert str(exc.value) == (
            f"entry ({row}, {col}) = {x[row, col] * 1e160:.6g} exceeds {bound:.3g} in magnitude, "
            f"the most a {n}x{d} matrix takes before its sums of squares overflow"
        )
        assert DesignMatrix.ingest(x * 1e150).values.shape == (n, d)

    def test_check_makes_no_matrix_sized_temporary(self):
        values = np.random.default_rng(2).standard_normal((2000, 500))
        tracemalloc.start()
        try:
            DesignMatrix(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an n x d boolean temporary alone is values.nbytes / 8
        assert peak < values.nbytes / 16

    def test_label_length_checked(self):
        with pytest.raises(ValidationError):
            DesignMatrix(np.ones((2, 2)), instance_ids=("a",))
        with pytest.raises(ValidationError):
            DesignMatrix(np.ones((2, 2)), feature_ids=("f0", "f1", "f2"))

    def test_label_uniqueness_checked(self):
        with pytest.raises(ValidationError):
            DesignMatrix(np.ones((2, 2)), feature_ids=("f", "f"))

    def test_ingest_requires_2x2(self):
        with pytest.raises(ValidationError):
            DesignMatrix.ingest(np.ones((1, 5)))
        with pytest.raises(ValidationError):
            DesignMatrix.ingest(np.ones((5, 1)))
        m = DesignMatrix.ingest(np.ones((2, 2)))
        assert m.values.shape == (2, 2)

    def test_thin_derived_matrices_allowed(self):
        """Restrictions of a valid matrix may drop below 2x2."""
        assert DesignMatrix(np.ones((1, 3))).n_instances == 1
        assert DesignMatrix(np.ones((3, 1))).n_features == 1


class TestIndexSet:
    def test_requires_strictly_increasing(self):
        with pytest.raises(ValidationError):
            IndexSet(np.array([0, 0, 1]), 3)
        with pytest.raises(ValidationError):
            IndexSet(np.array([2, 1]), 3)

    def test_bounds_checked(self):
        with pytest.raises(IndexOutOfBounds):
            IndexSet(np.array([0, 3]), 3)
        with pytest.raises(IndexOutOfBounds):
            IndexSet(np.array([-1, 0]), 3)

    def test_non_integer_indices_rejected(self):
        """A cast would truncate 0.5 and 1.7 to 0 and 1 without a word."""
        for indices in (np.array([0.5, 1.7]), np.array([0.0, 2.0]), np.array([True, False])):
            with pytest.raises(ValidationError, match="integers"):
                IndexSet(indices, 3)
        assert len(IndexSet([], 3)) == 0  # an empty list's dtype is float
        assert IndexSet(np.array([0, 2], dtype=np.uint8), 3).indices.tolist() == [0, 2]

    def test_from_iterable_sorts_and_dedups(self):
        s = IndexSet.from_iterable([4, 1, 4, 2], 5)
        assert s.indices.tolist() == [1, 2, 4]

    @pytest.mark.parametrize("indices", [
        [], [3], [2, 2, 2], [4, 1, 4, 2], [9, 0, 5, 0, 9, 3], range(5), np.array([[3, 1], [1, 0]]),
    ])
    def test_from_iterable_equals_np_unique(self, indices):
        """Sorting and dropping adjacent repeats gives what plain np.unique gave."""
        got = IndexSet.from_iterable(indices, 10).indices
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(np.asarray(list(indices))))

    @given(st.lists(st.integers(0, 30), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_from_iterable_equals_np_unique_on_any_list(self, indices):
        assert IndexSet.from_iterable(indices, 31).indices.tolist() == np.unique(
            np.asarray(indices, dtype=np.int64)).tolist()

    def test_from_iterable_rejects_what_a_cast_would_change(self):
        """Floats would truncate and ints past int64 would overflow; both are
        refused with the constructor's error, not cast."""
        for indices in ([0.5, 1.7], [2**70], [1, 2**70]):
            with pytest.raises(ValidationError, match="integers"):
                IndexSet.from_iterable(indices, 3)
        assert len(IndexSet.from_iterable([], 3)) == 0
        assert IndexSet.from_iterable(np.array([2, 0]), 3).indices.tolist() == [0, 2]

    def test_full(self):
        s = IndexSet.full(4)
        assert s.indices.tolist() == [0, 1, 2, 3]
        assert len(s) == 4

    def test_intersection(self):
        a = IndexSet.from_iterable([0, 1, 3], 5)
        b = IndexSet.from_iterable([1, 2, 3], 5)
        assert a.intersection(b).indices.tolist() == [1, 3]

    def test_intersection_universe_mismatch(self):
        with pytest.raises(DimensionError):
            IndexSet.full(3).intersection(IndexSet.full(4))

    def test_select_composes_positions(self):
        base = IndexSet.from_iterable([2, 5, 7, 9], 10)
        picked = base.select(IndexSet.from_iterable([0, 2], 4))
        assert picked.indices.tolist() == [2, 7]
        assert picked.universe_size == 10

    def test_select_checks_position_universe(self):
        base = IndexSet.from_iterable([2, 5], 10)
        with pytest.raises(DimensionError):
            base.select(IndexSet.from_iterable([0], 3))


class TestSubmatrix:
    def test_identity_restriction(self):
        m = DesignMatrix(np.arange(12.0).reshape(3, 4))
        out = submatrix(m, IndexSet.full(3), IndexSet.full(4))
        np.testing.assert_array_equal(out.values, m.values)

    def test_forced_selection(self):
        m = DesignMatrix(np.arange(9.0).reshape(3, 3))
        out = submatrix(m, IndexSet.from_iterable([0, 2], 3), IndexSet.from_iterable([1], 3))
        np.testing.assert_array_equal(out.values, [[1.0], [7.0]])

    def test_matches_double_loop_copy(self):
        """Random restriction equals an element-by-element copy."""
        rng = np.random.default_rng(42)
        m = DesignMatrix(rng.standard_normal((10, 6)))
        rows = IndexSet.from_iterable(rng.choice(10, size=4, replace=False), 10)
        cols = IndexSet.from_iterable(rng.choice(6, size=3, replace=False), 6)
        out = submatrix(m, rows, cols)
        expected = np.empty((len(rows), len(cols)))
        for a, i in enumerate(rows.indices.tolist()):
            for b, j in enumerate(cols.indices.tolist()):
                expected[a, b] = m.values[i, j]
        np.testing.assert_array_equal(out.values, expected)

    def test_carries_labels(self):
        m = DesignMatrix(
            np.zeros((3, 3)),
            instance_ids=("r0", "r1", "r2"),
            feature_ids=("c0", "c1", "c2"),
        )
        out = submatrix(m, IndexSet.from_iterable([2, 0], 3), IndexSet.from_iterable([1], 3))
        assert out.instance_ids == ("r0", "r2")
        assert out.feature_ids == ("c1",)

    def test_empty_selection_rejected(self):
        m = DesignMatrix(np.zeros((3, 3)))
        empty = IndexSet(np.array([], dtype=np.int64), 3)
        with pytest.raises(DegenerateSelection):
            submatrix(m, empty, IndexSet.full(3))

    def test_universe_mismatch_rejected(self):
        m = DesignMatrix(np.zeros((3, 3)))
        with pytest.raises(IndexOutOfBounds):
            submatrix(m, IndexSet.full(4), IndexSet.full(3))

    def test_returns_fresh_copy(self):
        m = DesignMatrix(np.zeros((3, 3)))
        out = submatrix(m, IndexSet.full(3), IndexSet.full(3))
        assert not np.shares_memory(out.values, m.values)
        out.values[0, 0] = 99.0
        assert m.values[0, 0] == 0.0
        part = submatrix(m, IndexSet.from_iterable([1, 2], 3), IndexSet.from_iterable([0, 2], 3))
        assert not np.shares_memory(part.values, m.values)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_restriction_composes(self, data):
        """Restricting twice equals one restriction by composed index sets."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = DesignMatrix(rng.standard_normal((8, 7)))
        r1 = IndexSet.from_iterable(
            data.draw(st.sets(st.integers(0, 7), min_size=2, max_size=8)), 8
        )
        c1 = IndexSet.from_iterable(
            data.draw(st.sets(st.integers(0, 6), min_size=2, max_size=7)), 7
        )
        first = submatrix(m, r1, c1)
        r2 = IndexSet.from_iterable(
            data.draw(st.sets(st.integers(0, len(r1) - 1), min_size=1, max_size=len(r1))),
            len(r1),
        )
        c2 = IndexSet.from_iterable(
            data.draw(st.sets(st.integers(0, len(c1) - 1), min_size=1, max_size=len(c1))),
            len(c1),
        )
        twice = submatrix(first, r2, c2)
        once = submatrix(m, r1.select(r2), c1.select(c2))
        np.testing.assert_array_equal(twice.values, once.values)


class TestAsMatrix:
    def test_passes_through_design_matrix(self):
        m = DesignMatrix(np.ones((2, 2)))
        assert as_matrix(m) is m.values

    def test_wraps_array_like(self):
        out = as_matrix([[1, 2], [3, 4]])
        assert out.dtype == float and out.shape == (2, 2)

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            as_matrix([1.0, 2.0])


class TestSqDistances:
    def test_block_boundary_mid_matrix(self):
        m, d = 5, 3
        rows_per_block = data_mod._BLOCK_ELEMENTS // (m * d)
        n = 2 * rows_per_block + 3  # two full blocks and a short one
        rng = np.random.default_rng(9)
        X, Y = rng.standard_normal((n, d)), rng.standard_normal((m, d))
        assert np.array_equal(sq_distances(X, Y), sq_distances_reference(X, Y))

    def test_one_row_larger_than_the_block(self):
        m = 4
        d = data_mod._BLOCK_ELEMENTS // m + 1  # one row's m * d alone exceeds the budget
        rng = np.random.default_rng(10)
        X, Y = rng.standard_normal((3, d)), rng.standard_normal((m, d))
        assert np.array_equal(sq_distances(X, Y), sq_distances_reference(X, Y))

    def test_wide_input_stays_within_its_memory_bound(self):
        """Peak traced memory is the (n, m) output plus a bounded temporary,
        not the n x m x d difference array (about 205 MB here)."""
        rng = np.random.default_rng(11)
        X, Y = rng.standard_normal((200, 2000)), rng.standard_normal((64, 2000))
        tracemalloc.start()
        try:
            out = sq_distances(X, Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (200, 64)
        assert peak < out.nbytes + 2 * 2**20
