"""Self-organizing map vector quantization.

A small rectangular grid of codebook vectors is trained online on the rows of a
matrix. The trained map then summarizes the data three ways: a hit count per
unit, the index of the data row nearest to each unit (its matched instance),
and a prior over units built from the hit counts. A unit's matched vector is
the data row at its matched id, read from the matrix by whoever needs it;
downstream mixture models are seeded from those rows and the priors.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .data import as_matrix, derive_seed, sq_distances
from .errors import ConfigError, DimensionError

# elements per chunk of training steps, its drawn rows plus their kernel rows
# (64 KB of float64), small enough to stay in cache next to the codebooks
_ROW_ELEMENTS = 8192


@dataclass(frozen=True)
class SomConfig:
    """Grid shape, step budget and seeding for one training run.

    The schedule is fixed: over the whole step budget (``epochs * n_rows``
    steps) the learning rate falls linearly from 0.5 to 0.05 and the
    neighborhood radius from half the longer grid side (at least 1) to 0.5.
    """

    alpha_start: ClassVar[float] = 0.5
    alpha_end: ClassVar[float] = 0.05
    sigma_end: ClassVar[float] = 0.5

    grid_rows: int
    grid_cols: int
    epochs: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ConfigError("grid sides must be positive")
        if self.grid_rows * self.grid_cols < 2:
            raise ConfigError("grid must contain at least two units")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")

    @property
    def n_units(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def sigma_start(self) -> float:
        return max(1.0, max(self.grid_rows, self.grid_cols) / 2.0)


@dataclass(frozen=True, eq=False)
class SomModel:
    """Codebook plus bookkeeping.

    ``final_qe`` and ``match`` are None until trained; ``match`` is then the
    :func:`codebook_match` of the training rows, read off the closing pass.
    """

    config: SomConfig
    codebook: np.ndarray  # (n_units, dim)
    hit_counts: np.ndarray  # (n_units,) int
    final_qe: float | None = None
    match: CodebookMatchSet | None = None


@dataclass(frozen=True, eq=False)
class CodebookMatchSet:
    """One data row index per unit, with a prior over units.

    ``matched_instance_ids[k]`` is the index of the row nearest to unit k's
    codebook vector; unit k's matched vector is ``X[matched_instance_ids[k]]``
    of the matrix X the map was matched against, which the match does not
    copy. ``priors`` is nonnegative and sums to one (an all-zero vector is
    representable so that degenerate inputs can be rejected downstream).
    """

    matched_instance_ids: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=float)
        if np.any(priors < 0):
            raise ConfigError("priors must be nonnegative")
        total = priors.sum()
        if total != 0.0 and not abs(total - 1.0) <= 1e-12:
            raise ConfigError(f"priors must sum to 1, got {total!r}")
        object.__setattr__(self, "priors", priors)


def default_grid(n_instances: int) -> tuple[int, int]:
    """Pick a grid for ``n_instances`` rows.

    8x8 once the data reaches 64 rows, otherwise a near-square grid with at
    most one unit per row (and never fewer than two units).
    """
    target = max(2, min(64, int(n_instances)))
    rows = max(1, math.isqrt(target))
    cols = max(2 if rows == 1 else 1, target // rows)
    return rows, cols


def default_som_config(n_instances: int, seed: int = 0) -> SomConfig:
    """A ready-to-use config on the size-based default grid."""
    return SomConfig(*default_grid(n_instances), seed=seed)


def _grid_sqdist(config: SomConfig) -> np.ndarray:
    """(K, K) squared Euclidean distances between unit grid positions (row-major)."""
    k = np.arange(config.n_units)
    coords = np.stack([k // config.grid_cols, k % config.grid_cols], axis=1).astype(float)
    return sq_distances(coords, coords)


@lru_cache(maxsize=64)
def _grid_levels(grid_rows: int, grid_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct squared grid distances, and per (winner, unit) the index of theirs.

    The index array has shape (K, K, 1), so a gather over winners broadcasts
    against (A, K, d) codebooks as it is. Both arrays are cached per grid
    shape and read-only.
    """
    config = SomConfig(grid_rows, grid_cols)
    levels, level_of = np.unique(_grid_sqdist(config), return_inverse=True)
    level_of = level_of.reshape(config.n_units, config.n_units, 1)
    levels.setflags(write=False)
    level_of.setflags(write=False)
    return levels, level_of


def _schedule(config: SomConfig, t, total_steps: int):
    """Linearly interpolated (alpha, sigma) at step t of total_steps.

    ``t`` is a step number or an integer array of them; the result has its shape.
    """
    frac = 0.0 if total_steps <= 1 else t / (total_steps - 1)
    alpha = config.alpha_start + (config.alpha_end - config.alpha_start) * frac
    sigma = config.sigma_start + (config.sigma_end - config.sigma_start) * frac
    return alpha, sigma


def _neighborhood(config: SomConfig, grid_sq, t, total_steps: int):
    """Step-t lateral weights ``alpha(t) * exp(-grid_sq / (2 sigma(t)^2))``.

    ``grid_sq`` and ``t`` broadcast against each other, so a column of steps
    against a row of grid distances gives one kernel row per step.
    """
    alpha, sigma = _schedule(config, t, total_steps)
    return alpha * np.exp(grid_sq * (-0.5 / (sigma * sigma)))


def init_som(config: SomConfig, data) -> SomModel:
    """Seeded codebook initialization from the data rows themselves.

    Rows are sampled uniformly without replacement, so a grid with more units
    than rows is a ``ConfigError``; :func:`default_grid` never makes one.
    """
    X = as_matrix(data)
    n = X.shape[0]
    k = config.n_units
    if k > n:
        raise ConfigError(f"grid has {k} units for only {n} rows")
    idx = np.random.default_rng(derive_seed(config.seed, "init")).choice(n, size=k, replace=False)
    # fancy indexing of the float matrix is already a fresh float64 copy
    return SomModel(config, X[idx], np.zeros(k, dtype=np.int64), None)


def train_som(som: SomModel, data) -> SomModel:
    """Run the online training loop, then one closing assignment pass.

    The loop makes ``epochs * n`` steps. Each step draws a seeded random data
    row, finds its BMU (ties to the lowest unit), and moves every unit toward
    the row by the current neighborhood weight of that unit against the winner.

    The closing pass fills the hit counts (each row counted at its BMU),
    records the final mean squared BMU distance and, from the same distances,
    the codebook match of the training rows. This is :func:`train_soms` for
    one map.
    """
    return train_soms([som], [data])[0]


def train_soms(soms: Iterable[SomModel], data: Sequence) -> list[SomModel]:
    """Train several maps in lockstep; each ends as :func:`train_som` leaves it.

    ``data`` holds one matrix per map. The maps must share one config apart
    from the seed and the matrices one shape, else ``ConfigError``. A matrix
    shared by several maps is read in place, not copied. ``soms`` is consumed
    one map at a time: each codebook is copied into the stack as it comes,
    so a generator of freshly initialized maps never holds more than one
    of their codebooks beside the stack.

    The codebooks are stacked into one (A, K, d) array, so one step of every
    map costs the same few numpy calls. A step is fused and allocation-free:
    the differences ``codebook - x`` go into a reused buffer, their row norms
    (one in-place einsum) pick each map's winner, and the same buffer, scaled
    by the kernel rows, is subtracted from the codebooks. Negation is exact,
    so this equals ``codebook += h * (x - codebook)`` bit for bit, and the
    einsum adds each norm as the single-map ``"kd,kd->k"`` does. The grid
    distances take only a few distinct values, so the kernel rows come from a
    table of ``_neighborhood`` over (step, distance level), shared by the
    maps. The steps run in chunks of about ``_ROW_ELEMENTS`` elements, each
    gathering its drawn data rows and building its own table rows.
    """
    matrices = [as_matrix(x) for x in data]
    configs = []
    codebooks = None
    soms = iter(soms)
    for a, (X, som) in enumerate(zip(matrices, soms)):
        if codebooks is None:
            n, dim = X.shape
            config = som.config
            codebooks = np.empty((len(matrices),) + som.codebook.shape, dtype=som.codebook.dtype)
        elif replace(som.config, seed=config.seed) != config:
            raise ConfigError("maps trained in lockstep must share one config apart from the seed")
        elif X.shape != (n, dim):
            raise ConfigError(f"matrices of shapes {(n, dim)} and {X.shape} cannot share a step")
        if som.codebook.shape[1] != dim:
            raise DimensionError(
                f"data has {dim} columns, codebook was built for {som.codebook.shape[1]}"
            )
        codebooks[a] = som.codebook
        configs.append(som.config)
    if len(configs) != len(matrices) or next(soms, None) is not None:
        raise ConfigError("train_soms needs one matrix per map")
    if not configs:
        return []
    total = config.epochs * n
    draws = np.stack([
        np.random.default_rng(derive_seed(c.seed, "train")).integers(0, n, size=total)
        for c in configs
    ])
    levels, level_of = _grid_levels(config.grid_rows, config.grid_cols)
    diff = np.empty_like(codebooks)
    d2 = np.empty(codebooks.shape[:2], dtype=codebooks.dtype)
    chunk = max(1, _ROW_ELEMENTS // (len(configs) * dim + len(levels)))
    rows = np.empty((min(chunk, total), len(configs), 1, dim), dtype=matrices[0].dtype)
    subtract, einsum, winners, levels_of = np.subtract, np.einsum, d2.argmin, level_of.take
    for start in range(0, total, chunk):
        steps = np.arange(start, min(start + chunk, total))
        for a, X in enumerate(matrices):
            rows[:len(steps), a, 0] = X[draws[a, steps]]
        for row, x in zip(_neighborhood(config, levels[None, :], steps[:, None], total), rows):
            subtract(codebooks, x, out=diff)
            einsum("akd,akd->ak", diff, diff, out=d2)
            diff *= row.take(levels_of(winners(1), 0))
            codebooks -= diff
    del diff, rows  # the closing pass needs their memory for its own distances
    return [SomModel(c, cb, *_assign(cb, X)) for c, X, cb in zip(configs, matrices, codebooks)]


def _assign(codebook: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, float, CodebookMatchSet]:
    """Hit counts, mean squared BMU distance and match of the rows of X.

    One distance pass: each row is counted at its BMU (ties to the lowest
    unit), and each unit is matched to its nearest row (ties to the lowest
    row), with the hit shares as priors.
    """
    sq = sq_distances(X, codebook)
    bmu = np.argmin(sq, axis=1)
    hits = np.bincount(bmu, minlength=codebook.shape[0]).astype(np.int64)
    qe = float(sq[np.arange(X.shape[0]), bmu].mean())
    return hits, qe, CodebookMatchSet(np.argmin(sq, axis=0).astype(np.int64), hits / X.shape[0])


def _rows_for(som: SomModel, data) -> np.ndarray:
    X = as_matrix(data)
    if X.shape[1] != som.codebook.shape[1]:
        raise DimensionError("data and codebook dimensions differ")
    return X


def quantization_error(som: SomModel, data) -> float:
    """Mean squared distance from each row to its BMU under this codebook."""
    return _assign(som.codebook, _rows_for(som, data))[1]


def codebook_match(som: SomModel, data) -> CodebookMatchSet:
    """Nearest data row per unit (ties to the lowest row index), with the
    rows' hit shares as priors."""
    return _assign(som.codebook, _rows_for(som, data))[2]
