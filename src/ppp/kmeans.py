"""Two-cluster k-means (Lloyd's algorithm) used to bisect feature columns.

Initialization is deliberately plain: two distinct points drawn at seeded
random. A distance-weighted picker is available behind ``init="plusplus"``
for comparison, but the baseline behavior is the naive one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import sq_distances
from .errors import ConfigError, DegenerateSplit


@dataclass(frozen=True, eq=False)
class KmeansResult:
    assignment: np.ndarray  # (n,) of {0, 1}, both labels occupied
    centers: np.ndarray  # (2, dim)
    objective: float  # sum of squared distances to the nearest center
    iterations: int
    converged: bool
    seed: int


def kmeans_objective(centers, points) -> float:
    """Sum over points of the squared distance to the nearest center."""
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    return float(sq_distances(points, centers).min(axis=1).sum())


def _assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # argmin takes the first minimum, so exact ties fall to label 0
    return np.argmin(sq_distances(points, centers), axis=1)


def _repair_empty(points: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    for label in (0, 1):
        if not np.any(labels == label):
            dist_to_own = sq_distances(points, centers)[np.arange(len(points)), labels]
            labels = labels.copy()
            labels[int(np.argmax(dist_to_own))] = label
    return labels


def _lloyd_step(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    labels = _repair_empty(points, centers, _assign(points, centers))
    return labels, np.stack([points[labels == 0].mean(axis=0), points[labels == 1].mean(axis=0)])


def lloyd_iterate(centers, points) -> tuple[np.ndarray, np.ndarray, float]:
    """One assignment pass plus one center update.

    An empty cluster is repaired by handing it the point farthest from its
    current center. The returned objective is evaluated after the update.
    """
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    labels, new_centers = _lloyd_step(points, centers)
    return labels, new_centers, kmeans_objective(new_centers, points)


def _init_random(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    order = rng.permutation(len(points))
    first = points[order[0]]
    for j in order[1:]:
        if not np.array_equal(points[j], first):
            return np.stack([first, points[j]])
    raise DegenerateSplit("all points are identical; a two-way split is undefined")


def _init_plusplus(points: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    first = points[rng.integers(len(points))]
    d2 = sq_distances(points, first[None, :])[:, 0]
    total = d2.sum()
    if total == 0.0:
        raise DegenerateSplit("all points are identical; a two-way split is undefined")
    second = points[rng.choice(len(points), p=d2 / total)]
    return np.stack([first, second])


def kmeans_bisect(points, seed: int, max_iter: int = 300, init: str = "random") -> KmeansResult:
    """Split points into two clusters with Lloyd's algorithm.

    Runs until the assignment reaches a fixed point or ``max_iter`` passes.
    Raises DegenerateSplit when fewer than two distinct points exist.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or len(points) < 2:
        raise DegenerateSplit("need at least two points to bisect")
    rng = np.random.default_rng(seed)
    if init == "plusplus":
        centers = _init_plusplus(points, rng)
    elif init == "random":
        centers = _init_random(points, rng)
    else:
        raise ConfigError(f"unknown init {init!r}")

    labels = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_labels, centers = _lloyd_step(points, centers)
        if labels is not None and np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
    return KmeansResult(
        labels, centers, kmeans_objective(centers, points), iterations, converged, seed
    )
