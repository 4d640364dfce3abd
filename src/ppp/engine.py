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

from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .data import _BLOCK_ELEMENTS, DesignMatrix, IndexSet, derive_seed, submatrix
from .errors import (
    ConfigError,
    DegenerateModel,
    DegenerateSplit,
    SingularCovariance,
    ValidationError,
)
from .gmm import (
    GaussianMixture,
    fit_em,
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


@dataclass(frozen=True)
class PppConfig:
    """Tunables for one clustering run.

    Each node sizes its map grid from its own row count (``default_grid``)
    and picks full or diagonal covariance from its own column count
    (``default_covariance_mode``). Maps train for 5 epochs and EM runs with
    ``fit_em``'s tolerance, iteration cap and ``init_gmm_from_codebook``'s
    variance-scaled ridge.
    """

    master_seed: int = 0
    max_split_attempts: int = 20
    patience: int = 5
    score_threshold: float = 0.5

    def __post_init__(self):
        if self.max_split_attempts < 1:
            raise ConfigError("max_split_attempts must be at least 1")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
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
    order; they are the rows of ``diagnostics.csv``.
    """

    feature_set: IndexSet
    instance_set: IndexSet
    path: str = ""
    status: str = "open"
    best_eval: SplitEvaluation | None = None
    children: tuple["PppNode", "PppNode"] | None = None
    attempts: list[SplitEvaluation] = field(default_factory=list)

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
    X: np.ndarray,
    mixture_a: GaussianMixture,
    mixture_b: GaussianMixture,
    columns_a,
    columns_b,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior that each parent matched vector belongs to child a vs child b.

    The matched vectors are the rows of X at the match's ids. Each child
    mixture sees them restricted to its own columns. The two densities are
    normalized against each other per vector in log space, so the pair sums to
    one wherever the unit prior is positive and is zero where it is not.
    """
    vectors = X[parent_match.matched_instance_ids]
    log_a = mixture_log_density(mixture_a, vectors[:, columns_a])
    log_b = mixture_log_density(mixture_b, vectors[:, columns_b])
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
    local_rows = np.unique(match.matched_instance_ids[units])
    return members.select(IndexSet(local_rows, len(members)))


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


def _fit(match: CodebookMatchSet, X: np.ndarray) -> GaussianMixture:
    """The mixture of X's rows at the match's ids, started from its unit priors.

    EM sees every unit's matched vector, prior zero or not. Units that matched
    one instance share one row, so EM runs on the distinct matched rows, in
    order of first occurrence, each counted once per unit that matched it.
    """
    start = init_gmm_from_codebook(match, X)
    ids = match.matched_instance_ids
    _, first, counts = np.unique(ids, return_index=True, return_counts=True)
    order = np.argsort(first)
    return fit_em(start, X[ids[first[order]]], counts=counts[order])


def _ended(seed: int, core_set: IndexSet, outcome: str) -> SplitEvaluation:
    """An attempt that ended before its child sets, for ``outcome``."""
    empty = IndexSet(np.array([], dtype=np.int64), core_set.universe_size)
    return SplitEvaluation(
        seed, None, core_set, (empty, empty), (np.array([]), np.array([])), (0.0, 0.0), None,
        outcome,
    )


def _attempt(node: PppNode, X: np.ndarray, frame: np.ndarray, config: PppConfig, seed: int):
    """One seeded split attempt on the node matrix X, as a generator.

    It yields its map requests, a list of ``(frame, map seed)`` pairs, is sent
    their codebook matches in order, and returns its :class:`SplitEvaluation`:

    1. its parent map, on ``frame``, the :func:`_frame` of X;
    2. the parent mixture, its core set and the k-means bisection of the
       feature columns;
    3. its two child maps, each on the frame of one side's columns of X;
    4. the child mixtures, posteriors and overlaps.

    A failed model fit (``SingularCovariance``, ``DegenerateModel``) or
    bisection (``DegenerateSplit``) ends the attempt with its outcome, at the
    first of: parent fit, bisection, child side 0, side 1. Other errors
    propagate.

    Suspended at step 3, an attempt holds only its parent match (matched row
    ids and unit priors), its core set and its column split, besides the X
    and ``frame`` that all attempts on the node share. No array with the
    node's d columns outlives the one step it is sliced for. All randomness
    (three maps, the k-means init) derives from ``seed``.
    """
    (parent,) = yield [(frame, derive_seed(seed, "parent"))]
    try:
        scores = mixture_scores(_fit(parent, X), X)
    except _FIT_ERRORS as exc:
        empty = IndexSet(np.array([], dtype=np.int64), node.instance_set.universe_size)
        return _ended(seed, empty, _FIT_FAILURES[type(exc)])
    core_local = gamma_set(scores.normalized, config.score_threshold)
    core_set = node.instance_set.select(core_local)
    # the bisection sees the core rows, or all node rows when the core is too small
    rows = X[core_local.indices] if len(core_local) >= 2 else X
    try:
        km = kmeans_bisect(rows.T, derive_seed(seed, "bisect"))  # a point per feature column
    except DegenerateSplit:
        return _ended(seed, core_set, "degenerate_split")
    columns = (np.flatnonzero(km.assignment == 0), np.flatnonzero(km.assignment == 1))
    del scores, core_local, rows, km  # the core rows must not wait out the child maps

    # each side's columns are sliced from X only to make its frame
    sides = yield [(_frame(X[:, cols]), derive_seed(seed, "child", side))
                   for side, cols in enumerate(columns)]
    try:
        mixtures = [_fit(m, X[:, cols]) for m, cols in zip(sides, columns)]
        posteriors = child_posteriors(parent, X, *mixtures, *columns)
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
    """Run one :func:`_attempt` per seed on a node, their maps trained in lockstep.

    Result ``i`` is what attempt ``seeds[i]`` gives alone. The node matrix and
    its frame are made once and shared. Each round gathers the map requests
    of every running attempt in seed order, trains them in one
    :func:`_quantize` call, drops the frames and sends each attempt its
    matches, until every attempt has returned.
    """
    X = submatrix(data, node.instance_set, node.feature_set).values
    frame = _frame(X)
    attempts = [_attempt(node, X, frame, config, seed) for seed in seeds]
    results: list[SplitEvaluation | None] = [None] * len(seeds)
    asked = {i: next(a) for i, a in enumerate(attempts)}  # attempt -> its map requests
    while asked:
        frames, map_seeds = zip(*(r for rs in asked.values() for r in rs))
        matches = iter(_quantize(list(frames), list(map_seeds)))
        sizes = {i: len(rs) for i, rs in asked.items()}
        del frames, asked  # the frames go before any attempt resumes
        asked = {}
        for i, size in sizes.items():
            try:
                asked[i] = attempts[i].send([next(matches) for _ in range(size)])
            except StopIteration as done:
                results[i] = done.value
    return results


def evaluate_split(
    node: PppNode, data: DesignMatrix, config: PppConfig, attempt_seed: int
) -> SplitEvaluation:
    """Run one seeded end-to-end split attempt on a node: :func:`evaluate_splits` for one seed."""
    return evaluate_splits(node, data, config, [attempt_seed])[0]


def grow_node(node: PppNode, data: DesignMatrix, config: PppConfig) -> PppNode:
    """Resolve one node's status by running seeded split attempts.

    A node with fewer than two features or instances is a terminal leaf outright.
    Otherwise up to ``max_split_attempts`` attempts run, each with a seed
    derived from (master seed, node path, attempt). The best defined score is
    kept; once some attempt has produced a defined score, ``patience``
    consecutive attempts without improvement stop the search early. Each
    attempt's ``SplitEvaluation`` is kept in ``node.attempts``; an attempt
    whose model cannot be fit is one with an undefined score, and the search
    goes on. With no defined score anywhere, or nothing better than zero, the node stays
    unsplit; otherwise the winning feature split and child sets become the
    two children.

    Attempts run in batches through :func:`evaluate_splits`. A batch holds
    only attempts that the patience rule runs whatever their scores: before
    any defined score, ``patience + 1``; after, the ``patience - stale``
    attempts left before a stop. The results are consumed in seed order, so
    the outcome is the one-at-a-time outcome.
    """
    if len(node.feature_set) < 2 or len(node.instance_set) < 2:
        node.status = "leaf_terminal"
        return node

    # A batch holds, per attempt, maps of K x min(n, d) elements and frames of
    # at most n x min(n, d), never a copy with the node's d columns (see
    # _attempt); 2 * width * K * min(n, d) elements fill one block. So a
    # 48 x 640 node (K = 48) runs up to 14 attempts at a time, a 300 x 300 node
    # (K = 64) one.
    n, d = len(node.instance_set), len(node.feature_set)
    n_units = default_som_config(n).n_units
    width = max(1, _BLOCK_ELEMENTS // (2 * n_units * min(n, d)))
    best: SplitEvaluation | None = None
    stale = 0
    attempt = 0
    while attempt < config.max_split_attempts and stale < config.patience:
        certain = config.patience + 1 if best is None else config.patience - stale
        size = min(config.max_split_attempts - attempt, certain, width)
        seeds = [derive_seed(config.master_seed, node.path, a)
                 for a in range(attempt, attempt + size)]
        attempt += size
        for r in evaluate_splits(node, data, config, seeds):
            node.attempts.append(r)
            if r.score is not None and (best is None or r.score > best.score):
                best = r
                stale = 0
            elif best is not None:
                stale += 1

    node.best_eval = best
    if best is None or best.score <= 0.0:
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

    The open nodes of each level grow on ``threads`` workers (at least 1, else
    ``ConfigError``); node seeds depend only on (master seed, path, attempt),
    so the result is identical for every thread count.

    Entries must stay within ``sqrt(max float / (4 max(n, d)))`` in
    magnitude (4.7e152 at 200x16, 2.7e152 at 48x640), so that no sum
    of squares over a row, a column or a difference of rows overflows; larger
    entries raise ``ValidationError``.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    X = data.values
    bound = float(np.sqrt(np.finfo(float).max / (4 * max(X.shape))))
    row, col = np.unravel_index(np.argmax(np.abs(X)), X.shape)
    if abs(X[row, col]) > bound:
        raise ValidationError(
            f"entry ({row}, {col}) = {X[row, col]:.6g} exceeds {bound:.3g} in magnitude, the "
            f"most a {X.shape[0]}x{X.shape[1]} matrix takes before its sums of squares overflow"
        )
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
