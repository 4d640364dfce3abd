"""Two-cluster k-means (Lloyd's algorithm) used to bisect feature columns.

Initialization is deliberately plain: two distinct points drawn at seeded
random.

A Lloyd step reads the points as a C-contiguous (dim, m) array, one column
per point (the engine's core rows, with no copy), and assigns them all with
one projection: point p takes label 1 when ``(c0 - c1) · p < (|c0|² -
|c1|²) / 2``, that is when it is strictly nearer c1, else 0, so a tie goes
to label 0. The projection, the center norms and the two cluster sums are
einsum contractions, not BLAS products, so their bits do not depend on how
many threads BLAS runs. Only a step that empties one side computes the
squared distances to both centers, to hand that side the point farthest from
its own center. The returned centers are the group means of the final
labels and the objective is :func:`kmeans_objective` of them.

The projection rounds differently from the nearest-center ``argmin`` of
squared distances. The two agree on every point whose distances to the two
centers differ by more than rounding, and on exact ties wherever the
arithmetic is exact (integer points and centers, or dyadic means). A point
within rounding of equidistant, such as an integer point equidistant from
two group means of thirds, can take either label under either rule, so on
such inputs a bisection can end at another split than the ``argmin`` loop's
(7 of about 30000 random small-integer bisections did).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import sq_distances
from .errors import DegenerateSplit

_MAX_ITER = 300


@dataclass(frozen=True, eq=False)
class KmeansResult:
    assignment: np.ndarray  # (n,) of {0, 1}, both labels occupied
    centers: np.ndarray  # (2, dim)
    objective: float  # sum of squared distances to the nearest center
    iterations: int
    converged: bool


def kmeans_objective(centers, points) -> float:
    """Sum over points of the squared distance to the nearest center."""
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    return float(sq_distances(points, centers).min(axis=1).sum())


def _lloyd_step(columns: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels of the (dim, m) points ``columns`` and the centers they update to.

    The labels are bools, True for label 1. A side left empty gets the point
    farthest from its own center. The new centers are each side's einsum sum
    over its size. They can differ from the group means in the last bits, but
    masked means would double the cost of a step, and only the final centers,
    which :func:`kmeans_bisect` recomputes as group means, are returned.
    """
    sq = np.einsum("kd,kd->k", centers, centers)
    labels = np.einsum("d,dm->m", centers[0] - centers[1], columns) < (sq[0] - sq[1]) / 2
    ones = np.count_nonzero(labels)
    if ones in (0, labels.size):
        full = ones > 0  # the label every point holds
        d = sq_distances(columns.T, centers)
        labels[int(np.argmax(d[:, int(full)]))] = not full
        ones += -1 if full else 1
    sums = np.stack([np.einsum("dm,m->d", columns, ~labels),
                     np.einsum("dm,m->d", columns, labels)])
    return labels, sums / np.array([[labels.size - ones], [ones]])


def _group_means(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return np.stack([points[~labels].mean(axis=0), points[labels].mean(axis=0)])


def _init_random(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    order = rng.permutation(len(points))
    first = points[order[0]]
    for j in order[1:]:
        if not np.array_equal(points[j], first):
            return np.stack([first, points[j]])
    raise DegenerateSplit("all points are identical; a two-way split is undefined")


def kmeans_bisect(points, seed: int) -> KmeansResult:
    """Split points into two clusters with Lloyd's algorithm.

    Runs until the assignment reaches a fixed point or ``_MAX_ITER`` passes.
    Raises DegenerateSplit when fewer than two distinct points exist.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) < 2:
        raise DegenerateSplit("need at least two points to bisect")
    columns = np.ascontiguousarray(points.T)  # a view when points is a transposed C array
    centers = _init_random(points, np.random.default_rng(seed))

    labels = None
    converged = False
    for iterations in range(1, _MAX_ITER + 1):
        new_labels, centers = _lloyd_step(columns, centers)
        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
    centers = _group_means(points, labels)
    return KmeansResult(labels.astype(np.int64), centers, kmeans_objective(centers, points),
                        iterations, converged)
