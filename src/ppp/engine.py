"""Recursive feature bisection validated by posterior overlap.

Each node holds a feature set and an instance set. One split attempt works on
the node's submatrix: quantize the rows, fit a parent mixture on the matched
vectors, collect the core instances the mixture rates above the threshold,
bisect the feature columns with k-means, fit one mixture per candidate feature
group the same way, and ask how the matched vectors split between the two
child mixtures. A child set is the instances matched to units whose posterior
clears the threshold; each child's overlap with the core set (a percentage)
feeds the split score. Attempts are re-seeded and the best positive score
wins; a node where no attempt produces a defined score is left unsplit.
"""

from __future__ import annotations

import math
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .data import _BLOCK_ELEMENTS, DesignMatrix, IndexSet, derive_seed, submatrix
from .errors import ConfigError, DegenerateModel, DegenerateSplit, PppError, SingularCovariance
from .gmm import (
    GaussianMixture,
    fit_em,
    init_gmm_from_codebook,
    log_sum_exp,
    mixture_log_density,
    mixture_scores,
)
from .kmeans import kmeans_bisect
from .som import CodebookMatchSet, SomConfig, default_som_config, init_som, train_soms
# The split attempts call neither name; they stay importable from this module
# because perfbench/tracer.py wraps them here by name.
from .som import codebook_match, train_som  # noqa: F401

POSTERIOR_MODES = ("competitive", "paper")
GAMMA_ROW_MODES = ("gamma0", "all")
SCORE_SOURCES = ("normalized", "raw")
KMEANS_INITS = ("random", "plusplus")

NODE_STATUSES = ("open", "internal", "leaf_terminal", "leaf_unsplittable")

# model-fit failures that end one split attempt, not the whole run
_FIT_ERRORS = (SingularCovariance, DegenerateModel)


@dataclass(frozen=True)
class PppConfig:
    """Tunables for one clustering run.

    ``som_grid`` None lets each node pick a grid from its own row count. The
    ``posterior_mode`` names how the two child densities are normalized:
    "competitive" pits them against each other per matched vector (the pair
    sums to one wherever the prior is positive), "paper" divides each child's
    prior-weighted densities by that child's density total instead.
    ``gamma_rows`` picks the rows handed to the feature bisection: the core
    set when it holds at least two rows ("gamma0") or always all node rows
    ("all"). ``score_source`` thresholds the normalized score by default; "raw"
    thresholds the unnormalized density.
    """

    master_seed: int = 0
    som_grid: tuple[int, int] | None = None
    som_epochs: int = 5
    som_alpha: tuple[float, float] = (0.5, 0.05)
    som_sigma: tuple[float, float] | None = None
    hit_quantile: float = 1.0
    em_tol: float = 1e-6
    em_max_iter: int = 100
    reg_epsilon: float | None = None
    covariance_mode: str | None = None
    kmeans_max_iter: int = 300
    kmeans_init: str = "random"
    max_split_attempts: int = 20
    patience: int = 5
    score_threshold: float = 0.5
    min_features_to_split: int = 2
    posterior_mode: str = "competitive"
    gamma_rows: str = "gamma0"
    score_source: str = "normalized"

    def __post_init__(self):
        if self.max_split_attempts < 1:
            raise ConfigError("max_split_attempts must be at least 1")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if not (0.0 < self.score_threshold < 1.0) and self.score_source == "normalized":
            raise ConfigError("score_threshold must lie in (0, 1) for normalized scores")
        if self.min_features_to_split < 2:
            raise ConfigError("min_features_to_split must be at least 2")
        if self.posterior_mode not in POSTERIOR_MODES:
            raise ConfigError(f"posterior_mode must be one of {POSTERIOR_MODES}")
        if self.gamma_rows not in GAMMA_ROW_MODES:
            raise ConfigError(f"gamma_rows must be one of {GAMMA_ROW_MODES}")
        if self.score_source not in SCORE_SOURCES:
            raise ConfigError(f"score_source must be one of {SCORE_SOURCES}")
        if self.kmeans_init not in KMEANS_INITS:
            raise ConfigError(f"kmeans_init must be one of {KMEANS_INITS}")
        if self.em_max_iter < 1 or self.kmeans_max_iter < 1:
            raise ConfigError("iteration limits must be at least 1")
        if not (0.0 < self.em_tol < math.inf):
            raise ConfigError(f"em_tol must be positive and finite, got {self.em_tol!r}")
        if self.reg_epsilon is not None and not (0.0 < self.reg_epsilon < math.inf):
            raise ConfigError(f"reg_epsilon must be positive and finite, got {self.reg_epsilon!r}")
        if self.som_epochs < 1:
            raise ConfigError("som_epochs must be at least 1")
        if self.som_grid is not None and (self.som_grid[0] < 1 or self.som_grid[1] < 1):
            raise ConfigError("som_grid sides must be positive")

    def som_config_for(self, n_instances: int, seed: int) -> SomConfig:
        """Concrete SOM settings for a node with ``n_instances`` rows."""
        return default_som_config(
            n_instances, seed, self.som_grid, self.som_epochs, self.som_alpha,
            self.som_sigma, self.hit_quantile,
        )


@dataclass(frozen=True, eq=False)
class SplitEvaluation:
    """Outcome of one seeded split attempt.

    ``feature_split`` is None when the feature columns could not be bisected
    (all columns identical). ``core_set`` and the two child sets are instance
    index sets over the full data universe; posteriors are per matched unit.
    ``score`` combines the two overlap percentages and is None exactly when
    both are zero.
    """

    attempt_seed: int
    feature_split: tuple[IndexSet, IndexSet] | None
    core_set: IndexSet
    child_sets: tuple[IndexSet, IndexSet]
    posteriors: tuple[np.ndarray, np.ndarray]
    overlaps: tuple[float, float]
    score: float | None

    @property
    def outcome(self) -> str:
        """``ok``, ``no_overlap`` (both child sets miss the core) or ``degenerate_split``."""
        if self.score is not None:
            return "ok"
        return "degenerate_split" if self.feature_split is None else "no_overlap"


@dataclass(eq=False)
class PppNode:
    """One tree node; mutated in place while the tree grows."""

    feature_set: IndexSet
    instance_set: IndexSet
    path: str = ""
    status: str = "open"
    best_eval: SplitEvaluation | None = None
    children: tuple["PppNode", "PppNode"] | None = None
    # one (attempt seed, overlap a, overlap b, score, outcome) row per split attempt
    attempt_stats: list[tuple[int, float, float, float | None, str]] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.path)

    @property
    def score_trace(self) -> list[float | None]:
        """Per-attempt split score (None where the score was undefined)."""
        return [s[3] for s in self.attempt_stats]

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass(eq=False)
class PppTree:
    root: PppNode
    n_instances: int
    n_features: int
    config: PppConfig | None = None

    def nodes(self) -> Iterator[PppNode]:
        """Depth-first preorder walk, left child first."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.children is not None:
                stack.append(node.children[1])
                stack.append(node.children[0])

    def leaves(self) -> list[PppNode]:
        return [n for n in self.nodes() if n.is_leaf]

    def depth(self) -> int:
        return max(n.depth for n in self.nodes())


def gamma_set(values, threshold: float) -> IndexSet:
    """Indices whose value strictly exceeds the threshold."""
    values = np.asarray(values, dtype=float)
    return IndexSet(np.flatnonzero(values > threshold), values.size)


def overlap_fraction(child_set: IndexSet, core_set: IndexSet) -> float:
    """Percentage of ``child_set`` members that lie in ``core_set``; empty -> 0."""
    if len(child_set) == 0:
        return 0.0
    return 100.0 * len(child_set.intersection(core_set)) / len(child_set)


def split_objective(overlap_a: float, overlap_b: float) -> float | None:
    """Combine two overlap percentages into one score.

    ``a * b / (a + b)``, half the harmonic mean, peaking at 50 when both
    overlaps are complete. None when both are zero (the 0/0 case), which is
    the signal that an attempt found nothing.
    """
    total = overlap_a + overlap_b
    if total == 0.0:
        return None
    return (overlap_a * overlap_b) / total


def child_posteriors(
    parent_match: CodebookMatchSet,
    mixture_a: GaussianMixture,
    mixture_b: GaussianMixture,
    columns_a=None,
    columns_b=None,
    mode: str = "competitive",
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior that each parent matched vector belongs to child a vs child b.

    Each child mixture sees the matched vectors restricted to its own columns
    (pass None to use the vectors as-is). In "competitive" mode the two
    prior-weighted densities are normalized against each other per vector, so
    the pair sums to one wherever the unit prior is positive and is zero where
    it is not. In "paper" mode each child is normalized on its own: density
    times prior over the sum of that child's densities. Both run in log space.
    """
    if mode not in POSTERIOR_MODES:
        raise ConfigError(f"mode must be one of {POSTERIOR_MODES}")
    vectors = parent_match.matched_vectors
    va = vectors if columns_a is None else vectors[:, np.asarray(columns_a, dtype=np.int64)]
    vb = vectors if columns_b is None else vectors[:, np.asarray(columns_b, dtype=np.int64)]
    log_a = mixture_log_density(mixture_a, va)
    log_b = mixture_log_density(mixture_b, vb)
    priors = parent_match.priors
    positive = priors > 0

    if mode == "competitive":
        shift = np.maximum(log_a, log_b)
        ea = np.exp(log_a - shift)
        eb = np.exp(log_b - shift)
        post_a = np.where(positive, ea / (ea + eb), 0.0)
        post_b = np.where(positive, eb / (ea + eb), 0.0)
        return post_a, post_b

    with np.errstate(divide="ignore"):
        log_priors = np.where(positive, np.log(np.where(positive, priors, 1.0)), -np.inf)
    post_a = np.exp(log_a + log_priors - log_sum_exp(log_a))
    post_b = np.exp(log_b + log_priors - log_sum_exp(log_b))
    return post_a, post_b


def _units_to_instances(
    posterior: np.ndarray, threshold: float, match: CodebookMatchSet, members: IndexSet
) -> IndexSet:
    units = np.flatnonzero(posterior > threshold)
    local_rows = np.unique(match.matched_instance_ids[units])
    return members.select(IndexSet(local_rows, len(members)))


def _quantize(
    config: PppConfig, matrices: list[np.ndarray], seeds: list[int]
) -> list[CodebookMatchSet]:
    """Codebook match of one SOM per matrix, the maps trained in lockstep.

    The matrices share one shape; each map's config comes from its seed.
    """
    n = matrices[0].shape[0]
    soms = (init_som(config.som_config_for(n, seed), X) for X, seed in zip(matrices, seeds))
    return [som.match for som in train_soms(soms, matrices)]


def _fit(match: CodebookMatchSet, X: np.ndarray, config: PppConfig) -> GaussianMixture:
    """The matched-vector mixture of one quantized matrix."""
    g = init_gmm_from_codebook(match, X, config.covariance_mode, config.reg_epsilon)
    return fit_em(g, match.matched_vectors, tol=config.em_tol, max_iter=config.em_max_iter)


def evaluate_splits(
    node: PppNode, data: DesignMatrix, config: PppConfig, seeds: list[int]
) -> list[SplitEvaluation | PppError]:
    """Run several seeded split attempts on a node, their SOMs trained in lockstep.

    Result ``i`` is what attempt ``seeds[i]`` gives alone: its
    ``SplitEvaluation``, or the ``SingularCovariance`` or ``DegenerateModel``
    its model fits raised (the parent fit's first, then child side 0's, then
    side 1's). Other errors propagate. The work runs in four phases:

    1. the parent maps of every attempt, trained in lockstep on the node's
       submatrix;
    2. per attempt, the parent mixture, its core set and the k-means bisection
       of the feature columns;
    3. the child maps of every attempt that got this far, trained in lockstep
       in groups of equal column count;
    4. per attempt, the child mixtures, posteriors and overlaps.

    Every attempt's randomness (three quantizations, the k-means init) is
    derived from its seed, so each result is a pure function of
    (node, data, config, seed), whichever attempts share the batch.
    """
    X = submatrix(data, node.instance_set, node.feature_set).values
    n = X.shape[0]
    results: list[SplitEvaluation | PppError | None] = [None] * len(seeds)
    matches = _quantize(config, [X] * len(seeds), [derive_seed(s, "parent") for s in seeds])

    empty = IndexSet(np.array([], dtype=np.int64), data.n_instances)
    bisected = []  # (attempt, parent match, core set, column pair) per bisected attempt
    for i, (seed, match0) in enumerate(zip(seeds, matches)):
        try:
            scores0 = mixture_scores(_fit(match0, X, config), X)
        except _FIT_ERRORS as exc:
            results[i] = exc
            continue
        core_values = scores0.normalized if config.score_source == "normalized" else scores0.density
        core_local = gamma_set(core_values, config.score_threshold)
        core_set = node.instance_set.select(core_local)

        if config.gamma_rows == "gamma0" and len(core_local) >= 2:
            point_rows = core_local.indices
        else:
            point_rows = np.arange(n)
        try:
            km = kmeans_bisect(
                X[point_rows].T,  # one point per feature column
                derive_seed(seed, "bisect"),
                max_iter=config.kmeans_max_iter,
                init=config.kmeans_init,
            )
        except DegenerateSplit:
            results[i] = SplitEvaluation(
                seed, None, core_set, (empty, empty),
                (np.array([]), np.array([])), (0.0, 0.0), None,
            )
            continue
        columns = (np.flatnonzero(km.assignment == 0), np.flatnonzero(km.assignment == 1))
        bisected.append((i, match0, core_set, columns))

    by_columns = defaultdict(list)  # column count -> (attempt, side, columns)
    for i, _, _, columns in bisected:
        for side, cols in enumerate(columns):
            by_columns[cols.size].append((i, side, cols))
    children = {}  # (attempt, side) -> (child match, child matrix)
    for group in by_columns.values():
        matrices = [X[:, cols] for _, _, cols in group]
        child_seeds = [derive_seed(seeds[i], "child", side) for i, side, _ in group]
        found = _quantize(config, matrices, child_seeds)
        for (i, side, _), Xc, match in zip(group, matrices, found):
            children[i, side] = (match, Xc)

    n_cols = len(node.feature_set)
    for i, match0, core_set, columns in bisected:
        try:
            mixtures = [_fit(*children.pop((i, side)), config) for side in (0, 1)]
            post_a, post_b = child_posteriors(
                match0, mixtures[0], mixtures[1], columns[0], columns[1], config.posterior_mode
            )
        except _FIT_ERRORS as exc:
            results[i] = exc
            continue
        set_a = _units_to_instances(post_a, config.score_threshold, match0, node.instance_set)
        set_b = _units_to_instances(post_b, config.score_threshold, match0, node.instance_set)
        overlap_a = overlap_fraction(set_a, core_set)
        overlap_b = overlap_fraction(set_b, core_set)
        feature_split = tuple(node.feature_set.select(IndexSet(c, n_cols)) for c in columns)
        results[i] = SplitEvaluation(
            seeds[i],
            feature_split,
            core_set,
            (set_a, set_b),
            (post_a, post_b),
            (overlap_a, overlap_b),
            split_objective(overlap_a, overlap_b),
        )
    return results


def evaluate_split(
    node: PppNode, data: DesignMatrix, config: PppConfig, attempt_seed: int
) -> SplitEvaluation:
    """Run one seeded end-to-end split attempt on a node.

    This is :func:`evaluate_splits` for one seed, except that a
    ``SingularCovariance`` or ``DegenerateModel`` from a model fit is raised.
    """
    (result,) = evaluate_splits(node, data, config, [attempt_seed])
    if isinstance(result, PppError):
        raise result
    return result


def grow_node(node: PppNode, data: DesignMatrix, config: PppConfig) -> PppNode:
    """Resolve one node's status by running seeded split attempts.

    A node with too few features or instances is a terminal leaf outright.
    Otherwise up to ``max_split_attempts`` attempts run, each with a seed
    derived from (master seed, node path, attempt). The best defined score is
    kept; once some attempt has produced a defined score, ``patience``
    consecutive attempts without improvement stop the search early. Each
    attempt is recorded with its outcome (see ``SplitEvaluation.outcome``).
    An attempt whose model cannot be fit is recorded as ``(seed, 0.0, 0.0,
    None, "singular_cov")`` or ``"degenerate_model"``, an undefined score,
    and the search goes on; other errors propagate. With no
    defined score anywhere, or nothing better than zero, the node stays
    unsplit; otherwise the winning feature split and child sets become the
    two children.

    Attempts run in batches through :func:`evaluate_splits`. A batch holds
    only attempts that the patience rule runs whatever their scores: before
    any defined score, ``patience + 1``; after, the ``patience - stale``
    attempts left before a stop. The results are consumed in seed order, so
    the outcome is the one-at-a-time outcome.
    """
    if len(node.feature_set) < config.min_features_to_split or len(node.instance_set) < 2:
        node.status = "leaf_terminal"
        return node

    # A batch keeps every attempt's matches and child matrices alive at once,
    # so its stacked codebooks and step differences, 2 * width * K * d
    # elements, are held to one block: a 48 x 640 node runs one attempt at a time.
    n_units = config.som_config_for(len(node.instance_set), 0).n_units
    width = max(1, _BLOCK_ELEMENTS // (2 * n_units * len(node.feature_set)))
    best: SplitEvaluation | None = None
    stale = 0
    attempt = 0
    while attempt < config.max_split_attempts and stale < config.patience:
        certain = config.patience + 1 if best is None else config.patience - stale
        size = min(config.max_split_attempts - attempt, certain, width)
        seeds = [derive_seed(config.master_seed, node.path, a)
                 for a in range(attempt, attempt + size)]
        attempt += size
        for seed, result in zip(seeds, evaluate_splits(node, data, config, seeds)):
            if isinstance(result, SplitEvaluation):
                node.attempt_stats.append((seed, *result.overlaps, result.score, result.outcome))
                score = result.score
            else:
                failure = ("singular_cov" if isinstance(result, SingularCovariance)
                           else "degenerate_model")
                node.attempt_stats.append((seed, 0.0, 0.0, None, failure))
                score = None
            if score is not None and (best is None or score > best.score):
                best = result
                stale = 0
            elif best is not None:
                stale += 1

    node.best_eval = best
    if best is None or best.score <= 0.0 or best.feature_split is None:
        node.status = "leaf_unsplittable"
        return node

    node.status = "internal"
    node.children = (
        PppNode(best.feature_split[0], best.child_sets[0], node.path + "0"),
        PppNode(best.feature_split[1], best.child_sets[1], node.path + "1"),
    )
    return node


def build_tree(data: DesignMatrix, config: PppConfig, threads: int = 1) -> PppTree:
    """Grow the full tree from a root holding every feature and instance.

    ``threads`` > 1 grows the open nodes of each level concurrently; node
    seeds depend only on (master seed, path, attempt), so the result is
    identical for every thread count.
    """
    root = PppNode(IndexSet.full(data.n_features), IndexSet.full(data.n_instances))
    if threads <= 1:
        stack = [root]
        while stack:
            node = stack.pop()
            grow_node(node, data, config)
            if node.children is not None:
                stack.append(node.children[1])
                stack.append(node.children[0])
    else:
        frontier = [root]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            while frontier:
                list(pool.map(lambda nd: grow_node(nd, data, config), frontier))
                frontier = [c for nd in frontier if nd.children is not None for c in nd.children]
    return PppTree(root, data.n_instances, data.n_features, config)


def cut_tree(tree: PppTree, depth: int | None = None) -> list[IndexSet]:
    """Read a flat feature clustering off the tree.

    ``depth=None`` returns the leaf feature sets. An integer depth treats
    every node at that depth as part of the cut frontier, together with the
    leaves that sit above it. Either way the result partitions the feature
    universe. Negative depths are rejected.
    """
    if depth is not None and depth < 0:
        raise ConfigError("cut depth must be nonnegative")
    clusters: list[IndexSet] = []

    def visit(node: PppNode) -> None:
        at_frontier = node.is_leaf or (depth is not None and node.depth == depth)
        if at_frontier:
            clusters.append(node.feature_set)
            return
        for child in node.children:
            visit(child)

    visit(tree.root)
    return clusters


def cluster_labels(clusters: list[IndexSet], n_features: int) -> np.ndarray:
    """Cluster index per feature id for a disjoint cluster list."""
    labels = np.full(n_features, -1, dtype=np.int64)
    for ci, cluster in enumerate(clusters):
        labels[cluster.indices] = ci
    return labels


def accepted_posterior_by_depth(tree: PppTree) -> dict[int, float]:
    """Mean accepted-split posterior per depth.

    For each split that was accepted, take the mean posterior over the entries
    that cleared the threshold (the members of the two child sets); average
    those values over the accepted splits at each depth.
    """
    threshold = tree.config.score_threshold if tree.config is not None else 0.5
    per_depth: dict[int, list[float]] = defaultdict(list)
    for node in tree.nodes():
        if node.status != "internal" or node.best_eval is None:
            continue
        post_a, post_b = node.best_eval.posteriors
        cleared = np.concatenate([post_a[post_a > threshold], post_b[post_b > threshold]])
        if cleared.size:
            per_depth[node.depth].append(float(cleared.mean()))
    return {d: float(np.mean(v)) for d, v in sorted(per_depth.items())}
