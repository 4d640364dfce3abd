"""Recursive feature bisection validated by posterior overlap.

Each node holds a feature set and an instance set. One split attempt works on
the node's submatrix: quantize the rows, fit a parent mixture on the matched
vectors, collect the core instances the mixture rates above the threshold,
bisect the feature columns with k-means, fit one mixture per candidate feature
group the same way, and ask how the matched vectors split between the two
child mixtures. A child set is the instances matched to units whose posterior
clears the threshold; each child's overlap with the core set (a percentage)
feeds the split score. Attempts are re-seeded, and the node's verdict says
whether it splits and why: the best positive score wins, and a node too small
to split, or whose attempts give no positive score, is left a leaf.
"""

from __future__ import annotations

from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import DesignMatrix, IndexSet, derive_seed, submatrix
from .errors import (
    ConfigError,
    DegenerateModel,
    DegenerateSplit,
    SingularCovariance,
)
from .gmm import (
    GaussianMixture,
    default_covariance_mode,
    fit_em,
    group_ids,
    init_gmm_from_codebook,
    mixture_log_density,
    mixture_scores,
)
from .kmeans import kmeans_bisect
from .som import CodebookMatchSet, default_som_config, init_som, train_soms
# The split attempts call neither name; they stay importable from this module
# because perfbench/tracer.py wraps them here by name.
from .som import codebook_match, train_som  # noqa: F401

# the status of every node of a grown tree; a node is "open" only while it grows
RESOLVED_STATUSES = ("internal", "leaf_terminal", "leaf_unsplittable")

# model-fit failures that end one split attempt, not the whole run, by outcome
_FIT_FAILURES = {SingularCovariance: "singular_cov", DegenerateModel: "degenerate_model"}
_FIT_ERRORS = tuple(_FIT_FAILURES)

# map elements one batch of split attempts may hold (see _run_attempts)
_BATCH_ELEMENTS = 65536


@dataclass(frozen=True)
class PppConfig:
    """Tunables for one clustering run.

    Each node sizes its map grid from its own row count (``default_grid``)
    and picks full or spherical covariance from its own column count
    (``default_covariance_mode``). Maps train for 5 epochs and EM runs with
    ``fit_em``'s tolerance, iteration cap and ``init_gmm_from_codebook``'s
    variance-scaled ridge.
    """

    master_seed: int = 0
    max_split_attempts: int = 20
    patience: int = 5
    score_threshold: float = 0.5

    def __post_init__(self):
        for name in ("master_seed", "max_split_attempts", "patience"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if name != "master_seed" and value < 1:
                raise ConfigError(f"{name} must be at least 1")
            # a Python int, so np.int64(3) seeds the tree that 3 seeds
            object.__setattr__(self, name, int(value))
        if not (0.0 < self.score_threshold < 1.0):
            raise ConfigError("score_threshold must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class SplitEvaluation:
    """Outcome of one seeded split attempt.

    ``core_set`` and the two child sets are instance index sets over the full
    data universe; posteriors are per matched unit. ``score`` combines the two
    overlap percentages. ``outcome`` is ``ok`` exactly when the score is
    defined; otherwise it is ``no_overlap`` (both child sets miss the core) or
    the reason the attempt ended before its child sets: ``degenerate_split``
    (all feature columns identical), ``singular_cov`` or ``degenerate_model``
    (a model fit failed). Such an attempt has no ``feature_split``, empty
    child sets and zero overlaps.
    """

    attempt_seed: int
    feature_split: tuple[IndexSet, IndexSet] | None
    core_set: IndexSet
    child_sets: tuple[IndexSet, IndexSet]
    posteriors: tuple[np.ndarray, np.ndarray]
    overlaps: tuple[float, float]
    score: float | None
    outcome: str = "ok"


@dataclass(eq=False)
class PppNode:
    """One tree node; mutated in place while the tree grows.

    ``attempts`` holds every split attempt's ``SplitEvaluation``, in seed
    order; they are the rows of ``diagnostics.csv``. ``reason`` is its
    :class:`Verdict`'s, empty while the node is open or when read from JSON.
    """

    feature_set: IndexSet
    instance_set: IndexSet
    path: str = ""
    status: str = "open"
    best_eval: SplitEvaluation | None = None
    children: tuple["PppNode", "PppNode"] | None = None
    attempts: list[SplitEvaluation] = field(default_factory=list)
    reason: str = ""

    @property
    def depth(self) -> int:
        return len(self.path)

    @property
    def score_trace(self) -> list[float | None]:
        """Per-attempt split score (None where the score was undefined)."""
        return [a.score for a in self.attempts]

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass(frozen=True, eq=False)
class Verdict:
    """What a node's attempts make of it, and why (:func:`_verdict`).

    A ``too_few_*`` reason makes a terminal leaf; any other reason makes an
    unsplittable leaf without ``feature_split`` and ``child_sets`` (the
    children's features and instances), and an internal node with them.
    ``best`` is the attempt with the best defined score, split or not.
    """

    reason: str
    best: SplitEvaluation | None = None
    feature_split: tuple[IndexSet, IndexSet] | None = None
    child_sets: tuple[IndexSet, IndexSet] | None = None

    @property
    def status(self) -> str:
        if self.reason.startswith("too_few_"):
            return "leaf_terminal"
        return "leaf_unsplittable" if self.feature_split is None else "internal"


@dataclass(eq=False)
class PppTree:
    root: PppNode
    n_instances: int
    n_features: int
    config: PppConfig | None = None

    def nodes(self) -> list[PppNode]:
        """Every node, in depth-first preorder, left child first."""
        order, stack = [], [self.root]
        while stack:
            order.append(stack.pop())
            stack.extend(reversed(order[-1].children or ()))
        return order


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
    parent_match: CodebookMatchSet, mixture_a: GaussianMixture, mixture_b: GaussianMixture,
    rows_a: np.ndarray, rows_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior that each parent matched vector belongs to child a vs child b.

    Each child mixture scores its own rows (see :func:`_frame_and_rows`) at the
    match's ids. The two densities are normalized against each other per
    vector in log space, so the pair sums to one wherever the unit prior is
    positive and is zero where it is not.
    """
    ids = parent_match.matched_instance_ids
    log_a = mixture_log_density(mixture_a, rows_a[ids])
    log_b = mixture_log_density(mixture_b, rows_b[ids])
    positive = parent_match.priors > 0
    shift = np.maximum(log_a, log_b)
    ea = np.exp(log_a - shift)
    eb = np.exp(log_b - shift)
    post_a = np.where(positive, ea / (ea + eb), 0.0)
    post_b = np.where(positive, eb / (ea + eb), 0.0)
    return post_a, post_b


def _units_to_instances(
    posterior: np.ndarray, threshold: float, match: CodebookMatchSet, members: IndexSet
) -> IndexSet:
    units = np.flatnonzero(posterior > threshold)
    # the sorted distinct rows those units matched; plain np.unique imports numpy.ma
    hits = np.bincount(match.matched_instance_ids[units], minlength=len(members))
    return members.select(IndexSet(np.flatnonzero(hits), len(members)))


def _frame(X: np.ndarray) -> np.ndarray:
    """What maps of X's rows train on: X, or its rows' coordinates in their own span.

    A map started from data rows never leaves their span. So when X has more
    columns than rows, its maps train on the n x n ``cholesky(X @ X.T)``, whose
    rows have X's inner products and hence X's distances up to rounding. X
    comes back when the factor is not finite or a row lies under 1e-4 of its
    norm from the span of the rows before it (a zero or duplicate row).
    """
    if X.shape[1] <= X.shape[0]:
        return X
    gram = X @ X.T
    try:
        Y = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return X
    # the pivot Y[j, j] is row j's distance from the span of rows 0..j-1
    spanned = np.diagonal(Y) ** 2 > 1e-8 * np.diagonal(gram)
    return Y if spanned.all() and np.isfinite(Y).all() else X


def _quantize(frames: list[np.ndarray], seeds: list[int]) -> list[CodebookMatchSet]:
    """The codebook match of one SOM per frame, in the order of the frames.

    Map i trains on ``frames[i]``, the :func:`_frame` of some matrix, seeded by
    ``seeds[i]``; the maps of frames of one shape train in one lockstep call.
    A frame keeps its matrix's row order and distances, so a match's ids index
    the matrix's rows. A node with more columns than rows thus trains its maps
    on its rows' coordinates in their own span; exact distance ties, as in
    integer-valued data, can break differently there than on the matrix itself.
    """
    by_shape = defaultdict(list)  # training shape -> indices of its frames
    for i, Y in enumerate(frames):
        by_shape[Y.shape].append(i)
    matches = [None] * len(frames)
    for (n, _), group in by_shape.items():
        soms = (init_som(default_som_config(n, seeds[i]), frames[i]) for i in group)
        for i, som in zip(group, train_soms(soms, [frames[i] for i in group])):
            matches[i] = som.match
    return matches


def _frame_and_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X's :func:`_frame`, and the rows mixtures of X's rows fit and score:
    the frame when X's width makes them spherical, whose densities see rows
    only through distances, which the frame keeps; else X itself."""
    frame = _frame(X)
    return frame, frame if default_covariance_mode(X.shape[1]) == "spherical" else X


def _fit(match: CodebookMatchSet, rows: np.ndarray, dim: int) -> GaussianMixture:
    """The ``dim``-column mixture of the rows at the match's ids, from its unit priors.

    EM sees every unit's matched vector, prior zero or not. Units that matched
    one instance share one row, so EM runs on the distinct matched rows, in
    order of first occurrence, each counted once per unit that matched it.
    The start groups the positive-prior units apart: one grouping of all
    units would order the start's components by all units' first occurrence.
    """
    start = init_gmm_from_codebook(match, rows, dim=dim)
    ids, counts = group_ids(match.matched_instance_ids)
    return fit_em(start, rows[ids], counts=counts)


def _ended(seed: int, core_set: IndexSet, outcome: str) -> SplitEvaluation:
    """An attempt that ended before its child sets, for ``outcome``."""
    empty = IndexSet(np.array([], dtype=np.int64), core_set.universe_size)
    return SplitEvaluation(
        seed, None, core_set, (empty, empty), (np.array([]), np.array([])), (0.0, 0.0), None,
        outcome,
    )


def _core_and_split(node: PppNode, X: np.ndarray, rows, parent: CodebookMatchSet,
                    config: PppConfig, seed: int) -> tuple | SplitEvaluation:
    """Round 1 of an attempt: ``(core set, each side's columns of X)``, or its ended result.

    The parent mixture fits ``rows`` from the ``parent`` match's units; its
    core is the node rows it rates above the threshold.
    """
    try:
        scores = mixture_scores(_fit(parent, rows, X.shape[1]), rows)
    except _FIT_ERRORS as exc:
        empty = IndexSet(np.array([], dtype=np.int64), node.instance_set.universe_size)
        return _ended(seed, empty, _FIT_FAILURES[type(exc)])
    core_local = gamma_set(scores, config.score_threshold)
    core_set = node.instance_set.select(core_local)
    # the bisection sees the core rows, or all node rows when the core is too small
    core_rows = X[core_local.indices] if len(core_local) >= 2 else X
    try:
        km = kmeans_bisect(core_rows.T, derive_seed(seed, "bisect"))  # a point per feature column
    except DegenerateSplit:
        return _ended(seed, core_set, "degenerate_split")
    return core_set, (np.flatnonzero(km.assignment == 0), np.flatnonzero(km.assignment == 1))


def _children(node: PppNode, parent: CodebookMatchSet, core_set: IndexSet, columns, matches,
              side_rows, config: PppConfig, seed: int) -> SplitEvaluation:
    """Round 2 of an attempt: side i's mixture fits ``side_rows[i]`` from
    ``matches[i]``, and the posteriors give child sets, overlaps and score."""
    try:
        mixtures = [_fit(m, r, len(cols)) for m, r, cols in zip(matches, side_rows, columns)]
        posteriors = child_posteriors(parent, *mixtures, *side_rows)
    except _FIT_ERRORS as exc:
        return _ended(seed, core_set, _FIT_FAILURES[type(exc)])
    child_sets = tuple(_units_to_instances(p, config.score_threshold, parent, node.instance_set)
                       for p in posteriors)
    overlaps = tuple(overlap_fraction(c, core_set) for c in child_sets)
    feature_split = tuple(node.feature_set.select(IndexSet(c, len(node.feature_set)))
                          for c in columns)
    score = split_objective(*overlaps)
    return SplitEvaluation(seed, feature_split, core_set, child_sets, posteriors, overlaps, score,
                           "ok" if score is not None else "no_overlap")


def evaluate_splits(
    node: PppNode, data: DesignMatrix, config: PppConfig, seeds: list[int]
) -> list[SplitEvaluation]:
    """One seeded split attempt per seed on a node, in two rounds of lockstep maps.

    Result ``i`` is what attempt ``seeds[i]`` gives alone. The node matrix X,
    its frame and its mixture rows (:func:`_frame_and_rows`) are made once
    and shared. Each round trains its maps in one :func:`_quantize` call:

    1. every attempt's parent map, on the node frame; then, per attempt in
       seed order, the parent mixture, its core set and the k-means
       bisection of the feature columns (:func:`_core_and_split`);
    2. the two child maps of every attempt still running, each on the frame
       of one side's columns of X; then, per attempt, the child mixtures on
       each side's mixture rows, posteriors and overlaps (:func:`_children`).

    A failed model fit (``SingularCovariance``, ``DegenerateModel``) or
    bisection (``DegenerateSplit``) ends the attempt with its outcome, at the
    first of: parent fit, bisection, child side 0, side 1; an ended attempt
    trains no child maps. Other errors propagate. Between the rounds an
    attempt keeps only its parent match (matched row ids and unit priors),
    its core set and its column split: no array with the node's d columns.
    All randomness (three maps, the k-means init) derives from the seed.
    """
    X = submatrix(data, node.instance_set, node.feature_set).values
    frame, rows = _frame_and_rows(X)
    parents = _quantize([frame] * len(seeds), [derive_seed(s, "parent") for s in seeds])
    results = [_core_and_split(node, X, rows, p, config, s) for p, s in zip(parents, seeds)]
    running = [i for i, r in enumerate(results) if not isinstance(r, SplitEvaluation)]
    # each side's columns are sliced from X only to make its frame and mixture rows
    sides = {i: [_frame_and_rows(X[:, cols]) for cols in results[i][1]] for i in running}
    child_seeds = [derive_seed(seeds[i], "child", side) for i in running for side in (0, 1)]
    matches = iter(_quantize([f for i in running for f, _ in sides[i]], child_seeds))
    for i in running:
        side_rows = [r for _, r in sides.pop(i)]
        results[i] = _children(node, parents[i], *results[i], [next(matches), next(matches)],
                               side_rows, config, seeds[i])
    return results


def evaluate_split(
    node: PppNode, data: DesignMatrix, config: PppConfig, attempt_seed: int
) -> SplitEvaluation:
    """Run one seeded end-to-end split attempt on a node: :func:`evaluate_splits` for one seed."""
    return evaluate_splits(node, data, config, [attempt_seed])[0]


def _too_few(node: PppNode) -> str | None:
    """The reason a node is too small to split, or None: features first, then rows."""
    if len(node.feature_set) < 2:
        return "too_few_features"
    if len(node.instance_set) < 2:
        return "too_few_rows"
    return None


def _run_attempts(node: PppNode, data: DesignMatrix, config: PppConfig) -> list[SplitEvaluation]:
    """The node's seeded split attempts, in seed order; none if it is too small to split.

    Up to ``max_split_attempts`` attempts run, each with a seed derived from
    (master seed, node path, attempt). Once some attempt has produced a
    defined score, ``patience`` consecutive attempts without improving the
    best score stop the search early. An attempt whose model cannot be fit
    has an undefined score, and the search goes on.

    Attempts run in batches through :func:`evaluate_splits`. A batch holds
    only attempts that the patience rule runs whatever their scores: before
    any defined score, ``patience + 1``; after, the ``patience - stale``
    attempts left before a stop. The results are consumed in seed order, so
    the outcome is the one-at-a-time outcome.
    """
    if _too_few(node) is not None:
        return []
    # A batch holds, per attempt, maps of K x min(n, d) elements, frames of at
    # most n x min(n, d) and full-mode rows of at most n x 50, never a copy with
    # the node's d columns (see evaluate_splits); 2 * width * K * min(n, d)
    # elements fill _BATCH_ELEMENTS. So a 48 x 640 node (K = 48) runs up to 14
    # attempts at a time, a 300 x 300 node (K = 64) one. This bounds the maps
    # the batch keeps, not a transient block (data._BLOCK_ELEMENTS).
    n, d = len(node.instance_set), len(node.feature_set)
    n_units = default_som_config(n).n_units
    width = max(1, _BATCH_ELEMENTS // (2 * n_units * min(n, d)))
    attempts: list[SplitEvaluation] = []
    best: float | None = None
    stale = 0
    while len(attempts) < config.max_split_attempts and stale < config.patience:
        certain = config.patience + 1 if best is None else config.patience - stale
        size = min(config.max_split_attempts - len(attempts), certain, width)
        seeds = [derive_seed(config.master_seed, node.path, a)
                 for a in range(len(attempts), len(attempts) + size)]
        for r in evaluate_splits(node, data, config, seeds):
            attempts.append(r)
            if r.score is not None and (best is None or r.score > best):
                best = r.score
                stale = 0
            elif best is not None:
                stale += 1
    return attempts


def _verdict(node: PppNode, attempts: list[SplitEvaluation]) -> Verdict:
    """Whether and how a node splits, from the node and its attempts alone.

    Too few features, then too few rows, make a terminal leaf. Otherwise the
    best attempt is the first with the highest defined score; the node stays
    unsplit when no attempt has a defined score or the best is not positive,
    and else splits into the best attempt's feature split and child sets.
    """
    reason = _too_few(node)
    if reason is not None:
        return Verdict(reason)
    scored = [a for a in attempts if a.score is not None]
    if not scored:
        return Verdict("no_defined_score")
    best = max(scored, key=lambda a: a.score)  # max keeps the first of equal scores
    if best.score <= 0.0:
        return Verdict("score_not_positive", best)
    return Verdict("best_score", best, best.feature_split, best.child_sets)


def grow_node(node: PppNode, data: DesignMatrix, config: PppConfig) -> PppNode:
    """Resolve one node: run its attempts, take their verdict and build its children.

    ``node.attempts`` holds what :func:`_run_attempts` ran, and ``node.reason``,
    ``node.status`` and ``node.best_eval`` come from :func:`_verdict`.
    """
    node.attempts = _run_attempts(node, data, config)
    verdict = _verdict(node, node.attempts)
    node.reason, node.status, node.best_eval = verdict.reason, verdict.status, verdict.best
    if verdict.feature_split is not None:
        node.children = tuple(PppNode(features, rows, node.path + side) for side, features, rows
                              in zip("01", verdict.feature_split, verdict.child_sets))
    return node


def build_tree(data: DesignMatrix, config: PppConfig, threads: int = 1) -> PppTree:
    """Grow the full tree from a root holding every feature and instance.

    The open nodes of each level grow on ``threads`` workers (at least 1, else
    ``ConfigError``); node seeds depend only on (master seed, path, attempt),
    so the result is identical for every thread count. ``DesignMatrix``
    has already checked that no sum of squares over the entries overflows.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    root = PppNode(IndexSet.full(data.n_features), IndexSet.full(data.n_instances))
    frontier = [root]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # a pool thread gets a malloc arena of its own (about 1 MiB more peak
        # memory), so a single worker is this thread; the pool then starts none
        grow_all = pool.map if threads > 1 else map
        while frontier:
            list(grow_all(lambda nd: grow_node(nd, data, config), frontier))
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
    return [
        n.feature_set for n in tree.nodes()
        if (n.is_leaf and (depth is None or n.depth <= depth)) or n.depth == depth
    ]


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
