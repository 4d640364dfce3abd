"""Planted block matrices and repeatability benchmarking."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .data import DesignMatrix
from .engine import PppConfig, PppTree, build_tree, cluster_labels, cut_tree
from .errors import ConfigError, ValidationError


@dataclass(frozen=True, eq=False)
class PlantedSpec:
    """Recipe for a block matrix: partitions of both axes plus per-block means.

    ``instance_blocks`` and ``feature_blocks`` partition their axis exactly;
    ``block_means[i][j]`` is the mean of the cell where instance block i meets
    feature block j. Every entry gets independent N(0, noise_sigma^2) noise.
    """

    n_instances: int
    n_features: int
    instance_blocks: tuple[tuple[int, ...], ...]
    feature_blocks: tuple[tuple[int, ...], ...]
    block_means: np.ndarray
    noise_sigma: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "block_means", np.asarray(self.block_means, dtype=float))
        for name, blocks, n in (
            ("instance_blocks", self.instance_blocks, self.n_instances),
            ("feature_blocks", self.feature_blocks, self.n_features),
        ):
            flat = [i for block in blocks for i in block]
            if sorted(flat) != list(range(n)):
                raise ConfigError(f"{name} must partition range({n}) exactly")
            if any(len(block) == 0 for block in blocks):
                raise ConfigError(f"{name} contains an empty block")
        expected = (len(self.instance_blocks), len(self.feature_blocks))
        if self.block_means.shape != expected:
            raise ConfigError(
                f"block_means has shape {self.block_means.shape}, expected {expected}"
            )
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be nonnegative")

    @classmethod
    def even(
        cls,
        n_instances: int,
        n_features: int,
        shape: tuple[int, int] = (2, 2),
        gap: float = 4.0,
        noise_sigma: float = 1.0,
        seed: int = 0,
    ) -> "PlantedSpec":
        """Contiguous equal-size blocks with a checkerboard mean pattern.

        Cell (i, j) gets mean ``gap * ((i + j) % 2)``, so adjacent blocks sit
        ``gap`` apart.
        """
        rows_blocks, cols_blocks = shape
        means = gap * ((np.add.outer(np.arange(rows_blocks), np.arange(cols_blocks)) % 2))
        return cls(
            n_instances,
            n_features,
            _even_partition(n_instances, rows_blocks),
            _even_partition(n_features, cols_blocks),
            means.astype(float),
            noise_sigma,
            seed,
        )


def _even_partition(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    if k < 1 or k > n:
        raise ConfigError(f"cannot cut {n} items into {k} blocks")
    bounds = np.linspace(0, n, k + 1).astype(int)
    return tuple(tuple(range(bounds[i], bounds[i + 1])) for i in range(k))


@dataclass(frozen=True, eq=False)
class PlantedData:
    matrix: DesignMatrix
    instance_labels: np.ndarray  # block index per instance
    feature_labels: np.ndarray  # block index per feature


def generate_planted(spec: PlantedSpec) -> PlantedData:
    """Draw one matrix from a planted spec; same spec and seed, same matrix."""
    instance_labels = np.empty(spec.n_instances, dtype=np.int64)
    for bi, block in enumerate(spec.instance_blocks):
        instance_labels[list(block)] = bi
    feature_labels = np.empty(spec.n_features, dtype=np.int64)
    for bj, block in enumerate(spec.feature_blocks):
        feature_labels[list(block)] = bj
    means = spec.block_means[np.ix_(instance_labels, feature_labels)]
    rng = np.random.default_rng(spec.seed)
    values = means + rng.normal(0.0, spec.noise_sigma, size=means.shape)
    return PlantedData(DesignMatrix.ingest(values), instance_labels, feature_labels)


def _comb2(x: np.ndarray) -> np.ndarray:
    return x * (x - 1) / 2.0


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Adjusted Rand index between two flat label arrays (chance-corrected, <= 1)."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.size != b.size:
        raise ValidationError("label arrays must have equal length")
    if a.size == 0:
        raise ValidationError("label arrays must be non-empty")
    if a.size == 1:
        return 1.0  # one item has a single partition, so the two are identical
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    contingency = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(contingency, (ai, bi), 1.0)
    sum_cells = _comb2(contingency).sum()
    sum_rows = _comb2(contingency.sum(axis=1)).sum()
    sum_cols = _comb2(contingency.sum(axis=0)).sum()
    total = _comb2(np.array(float(a.size)))
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        # both partitions are all-singletons or both one cluster: identical
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def canonical_split(tree: PppTree):
    """The root's feature bipartition in seed-independent form, or None.

    Sides are sorted tuples of feature ids, and the pair itself is sorted, so
    label swaps between runs compare equal.
    """
    root = tree.root
    if root.status != "internal" or root.best_eval is None:
        return None
    sides = [tuple(int(i) for i in s.indices) for s in root.best_eval.feature_split]
    return tuple(sorted(sides))


@dataclass(eq=False)
class StabilityReport:
    """Cross-seed agreement summary for one dataset and config."""

    seeds: tuple[int, ...]
    root_splits: tuple  # canonical root bipartition (or None) per seed
    split_frequencies: list  # (canonical split or None, frequency), most common first
    modal_frequency: float
    leaf_labels: np.ndarray  # (n_seeds, n_features) leaf cluster index per feature
    pairwise_ari: np.ndarray  # (n_seeds, n_seeds), diagonal 1
    root_scores: tuple  # best root split score (or None) per seed
    score_mean: float | None
    score_min: float | None
    score_max: float | None

    def split_labels(self, seed_pos: int) -> np.ndarray:
        """Root bipartition as 0/1 labels per feature for one seed (or raise)."""
        split = self.root_splits[seed_pos]
        if split is None:
            raise ValidationError(f"seed at position {seed_pos} produced no root split")
        labels = np.zeros(self.leaf_labels.shape[1], dtype=np.int64)
        labels[list(split[1])] = 1
        return labels


def repeatability_trial(data: DesignMatrix, config: PppConfig, seeds) -> StabilityReport:
    """Build one tree per master seed and summarize cross-seed agreement."""
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ConfigError("need at least one seed")
    trees = [build_tree(data, replace(config, master_seed=s)) for s in seeds]

    root_splits = tuple(canonical_split(t) for t in trees)
    counts = Counter(root_splits)
    n = len(seeds)
    frequencies = [(split, count / n) for split, count in counts.most_common()]
    modal_frequency = frequencies[0][1]

    leaf_labels = np.stack(
        [cluster_labels(cut_tree(t), data.n_features) for t in trees]
    )
    pairwise = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            pairwise[i, j] = pairwise[j, i] = adjusted_rand_index(
                leaf_labels[i], leaf_labels[j]
            )

    root_scores = tuple(
        (t.root.best_eval.score if t.root.best_eval is not None else None) for t in trees
    )
    defined = [s for s in root_scores if s is not None]
    return StabilityReport(
        seeds=seeds,
        root_splits=root_splits,
        split_frequencies=frequencies,
        modal_frequency=modal_frequency,
        leaf_labels=leaf_labels,
        pairwise_ari=pairwise,
        root_scores=root_scores,
        score_mean=float(np.mean(defined)) if defined else None,
        score_min=float(np.min(defined)) if defined else None,
        score_max=float(np.max(defined)) if defined else None,
    )
