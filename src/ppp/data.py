"""Core data containers: labelled matrices, index sets, seed derivation."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSelection,
    DimensionError,
    IndexOutOfBounds,
    ValidationError,
)


def derive_seed(*parts) -> int:
    """Derive a stable 64-bit sub-seed from a tuple of ints and strings.

    Built on SHA-256 so the derived streams are identical across processes and
    platforms; the builtin ``hash`` is salted per interpreter and would not be.
    """
    payload = "\x1f".join(repr(int(p) if isinstance(p, np.integer) else p) for p in parts)
    return int.from_bytes(hashlib.sha256(payload.encode()).digest()[:8], "big")


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """A dense instances-by-features matrix with optional string labels.

    ``values`` is an (n_instances, n_features) float array of finite entries
    at most ``sqrt(max float / (4 max(n, d)))`` in magnitude (2.7e152 at
    48x640), so that no sum of squares over a row, a column or a difference of
    rows overflows; no other module checks this rule. ``instance_ids`` and
    ``feature_ids``, when given, are unique label tuples matching the
    corresponding axis length. Fresh inputs are expected to be at least 2x2
    (use :meth:`ingest`); derived restrictions may be thinner.
    """

    values: np.ndarray
    instance_ids: tuple[str, ...] | None = None
    feature_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValidationError(f"matrix must be 2-D, got ndim={values.ndim}")
        n, d = values.shape
        if n < 1 or d < 1:
            raise ValidationError(f"matrix must be non-empty, got shape {values.shape}")
        bound = float(np.sqrt(np.finfo(float).max / (4 * max(n, d))))
        # NaN fails the comparison; an n x d temporary is made only to name the entry
        if not max(values.max(), -values.min()) <= bound:
            row, col = np.unravel_index(np.argmin(np.abs(values) <= bound), values.shape)
            if not np.isfinite(values[row, col]):
                raise ValidationError(f"non-finite value at row {row}, col {col}")
            raise ValidationError(
                f"entry ({row}, {col}) = {values[row, col]:.6g} exceeds {bound:.3g} in magnitude, "
                f"the most a {n}x{d} matrix takes before its sums of squares overflow"
            )
        object.__setattr__(self, "values", values)
        for name, labels, length in (
            ("instance_ids", self.instance_ids, values.shape[0]),
            ("feature_ids", self.feature_ids, values.shape[1]),
        ):
            if labels is None:
                continue
            labels = tuple(str(x) for x in labels)
            if len(labels) != length:
                raise ValidationError(f"{name} has {len(labels)} entries for axis of {length}")
            if len(set(labels)) != len(labels):
                raise ValidationError(f"{name} contains duplicates")
            object.__setattr__(self, name, labels)

    @classmethod
    def ingest(cls, values, instance_ids=None, feature_ids=None) -> "DesignMatrix":
        """Build a matrix from fresh input, requiring at least 2 rows and 2 columns."""
        m = cls(values, instance_ids, feature_ids)
        if m.n_instances < 2 or m.n_features < 2:
            raise ValidationError(
                f"need at least 2 instances and 2 features, got {m.values.shape}"
            )
        return m

    @property
    def n_instances(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class IndexSet:
    """Sorted duplicate-free indices drawn from ``0 .. universe_size - 1``."""

    indices: np.ndarray
    universe_size: int

    def __post_init__(self):
        indices = np.asarray(self.indices)
        # a cast would truncate 1.7 to 1; an empty list's float dtype is harmless
        if indices.size and not np.issubdtype(indices.dtype, np.integer):
            raise ValidationError(f"indices must be integers, got dtype {indices.dtype}")
        indices = indices.astype(np.int64, copy=False).ravel()
        if self.universe_size < 0:
            raise ValidationError("universe_size must be nonnegative")
        if indices.size:
            if np.any(np.diff(indices) <= 0):
                raise ValidationError("indices must be strictly increasing")
            if indices[0] < 0 or indices[-1] >= self.universe_size:
                raise IndexOutOfBounds(
                    f"indices must lie in [0, {self.universe_size}), "
                    f"got range [{indices[0]}, {indices[-1]}]"
                )
        object.__setattr__(self, "indices", indices)

    @classmethod
    def from_iterable(cls, indices, universe_size: int) -> "IndexSet":
        """Sort, deduplicate and wrap an arbitrary index collection.

        No cast: floats, and ints past int64 (object dtype), fail the integer
        check. A sort and a drop of adjacent repeats, not ``np.unique``, whose
        plain form imports ``numpy.ma`` (about 1 MiB).
        """
        values = np.sort(np.asarray(list(indices)), axis=None)
        return cls(np.concatenate((values[:1], values[1:][values[1:] != values[:-1]])),
                   universe_size)

    @classmethod
    def full(cls, universe_size: int) -> "IndexSet":
        return cls(np.arange(universe_size, dtype=np.int64), universe_size)

    def __len__(self) -> int:
        return int(self.indices.size)

    def intersection(self, other: "IndexSet") -> "IndexSet":
        if self.universe_size != other.universe_size:
            raise DimensionError("index sets live in different universes")
        common = np.intersect1d(self.indices, other.indices, assume_unique=True)
        return IndexSet(common, self.universe_size)

    def select(self, positions: "IndexSet") -> "IndexSet":
        """Map positions within this set to the universe it indexes.

        ``positions`` is an index set over ``len(self)``; the result contains
        ``self.indices[positions]`` and keeps this set's universe.
        """
        if positions.universe_size != len(self):
            raise DimensionError(
                f"positions universe {positions.universe_size} != set size {len(self)}"
            )
        return IndexSet(self.indices[positions.indices], self.universe_size)


def as_matrix(data) -> np.ndarray:
    """Accept a DesignMatrix or any 2-D array-like and return the float array."""
    values = data.values if isinstance(data, DesignMatrix) else np.asarray(data, dtype=float)
    if values.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got ndim={values.ndim}")
    return values


# elements of one transient block (128 KiB of float64): the row blocks of
# sq_distances and the component blocks of the full-mode density pass
_BLOCK_ELEMENTS = 16384


def sq_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(n, m) exact squared Euclidean distances from each row of X to each row of Y.

    The output is filled in row blocks of ``max(1, 16384 // (m * d))`` rows,
    so the difference temporary holds about 16k elements (one row's m x d when
    that alone is larger) instead of n x m x d. Each block runs the same
    ``einsum`` over the same differences, so the result equals the
    one-shot broadcast kernel bit for bit.
    """
    n, m, d = X.shape[0], Y.shape[0], X.shape[1]
    dtype = np.result_type(X, Y)
    out = np.empty((n, m), dtype=dtype)
    rows = max(1, _BLOCK_ELEMENTS // max(1, m * d))
    buffer = np.empty((min(rows, n), m, d), dtype=dtype)
    for start in range(0, n, rows):
        block = X[start:start + rows]
        diff = np.subtract(block[:, None, :], Y[None, :, :], out=buffer[:len(block)])
        np.einsum("nmd,nmd->nm", diff, diff, out=out[start:start + rows])
    return out


def submatrix(m: DesignMatrix, rows: IndexSet, cols: IndexSet) -> DesignMatrix:
    """Restrict a matrix to the given rows and columns.

    Order follows the index sets, labels are carried along, and the result owns
    a fresh copy of the selected values.
    """
    if len(rows) == 0 or len(cols) == 0:
        raise DegenerateSelection("row and column selections must be non-empty")
    if rows.universe_size != m.n_instances or cols.universe_size != m.n_features:
        raise IndexOutOfBounds(
            f"selection built for {rows.universe_size}x{cols.universe_size}, "
            f"matrix is {m.n_instances}x{m.n_features}"
        )
    # fancy indexing already returns a fresh array
    values = m.values[np.ix_(rows.indices, cols.indices)]
    instance_ids = None
    if m.instance_ids is not None:
        instance_ids = tuple(m.instance_ids[i] for i in rows.indices)
    feature_ids = None
    if m.feature_ids is not None:
        feature_ids = tuple(m.feature_ids[j] for j in cols.indices)
    return DesignMatrix(values, instance_ids, feature_ids)
