"""Benchmark workloads: the seeded input generator and one tree per call.

Inputs come from this file's own generator, so a change to ``ppp.synth``
cannot change them. The recipe is the checkerboard of ``PlantedSpec.even``:
2x2 equal contiguous blocks, cell (i, j) has mean ``4 * ((i + j) % 2)``, and
every entry gets N(0, 1) noise. Tree k of a run is built with master seed k
on its own matrix, drawn from ``numpy.random.default_rng([seed, k])``, so a
run averages over matrices as well as over master seeds. The number of trees
is fixed by the run's length (see ``Workload.trees``), not by how fast they
are built, so every commit builds the same trees. The program receives only
the matrix (or, for the CLI workload, the CSV).
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import ppp.cli
import ppp.engine
import ppp.fileio
from ppp import DesignMatrix, PppConfig

BLOCKS = (2, 2)
GAP = 4.0
NOISE = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    n_instances: int
    n_features: int
    via_cli: bool  # True: `ppp cluster` on a CSV; False: build_tree on the matrix
    tree_s: float  # mean seconds per tree of the reference build (see NOTES.md)

    def trees(self, seconds: float) -> int:
        """Trees in a run of about ``seconds`` at the reference speed."""
        return max(1, round(seconds / self.tree_s))


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("planted_small_full", 200, 16, via_cli=False, tree_s=3.4),
        Workload("wide_genes_cli", 48, 640, via_cli=True, tree_s=2.2),
    )
}


def _even_labels(n: int, k: int) -> np.ndarray:
    bounds = np.linspace(0, n, k + 1).astype(int)
    return np.repeat(np.arange(k), np.diff(bounds))


def planted(n_instances: int, n_features: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, feature block labels) for the checkerboard recipe."""
    rows = _even_labels(n_instances, BLOCKS[0])
    cols = _even_labels(n_features, BLOCKS[1])
    means = GAP * ((rows[:, None] + cols[None, :]) % 2)
    rng = np.random.default_rng(seed)
    return means + rng.normal(0.0, NOISE, size=means.shape), cols


def write_csv(values: np.ndarray, path: Path) -> None:
    """Headerless CSV with shortest round-trip floats (what ``load_csv`` reads)."""
    with open(path, "w") as fh:
        for row in values.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


class Session:
    """One workload on one data seed; tree k gets matrix k and master seed k.

    ``prepare(k)`` makes tree k's input, untimed by ``build``. After each
    ``build`` the directory holds ``tree.json`` and ``assignment.csv``: the CLI
    workload gets them from ``ppp cluster``, the planted workloads write them
    with the same ``ppp.fileio`` exporters after the timed region.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.csv_path = workdir / "input.csv"
        self.tree_path = workdir / "tree.json"
        self.assignment_path = workdir / "assignment.csv"
        self.matrix = None
        self.feature_labels = None

    def prepare(self, k: int) -> float:
        """Generate tree k's input (and write its CSV); returns the seconds taken."""
        start = perf_counter()
        values, self.feature_labels = planted(
            self.workload.n_instances, self.workload.n_features, [self.seed, k]
        )
        if self.workload.via_cli:
            write_csv(values, self.csv_path)
        else:
            self.matrix = DesignMatrix.ingest(values)
        return perf_counter() - start

    def build(self, master_seed: int, tracer=None) -> float:
        """Build one tree on the prepared input; returns the program call's wall seconds.

        With a tracer, the call is wrapped in a ``tree`` span.
        """
        if self.workload.via_cli:
            argv = ["cluster", "--input", str(self.csv_path), "--out", str(self.workdir),
                    "--seed", str(master_seed), "--threads", "1"]
            with contextlib.redirect_stdout(io.StringIO()):
                code, seconds = _timed(tracer, ppp.cli.main, argv)
            if code != 0:
                raise RuntimeError(f"ppp cluster exited with code {code}")
            return seconds
        config = PppConfig(master_seed=master_seed)
        tree, seconds = _timed(tracer, ppp.engine.build_tree, self.matrix, config, threads=1)
        ppp.fileio.export_tree_json(tree, self.tree_path)
        ppp.fileio.export_assignment_csv(tree, self.assignment_path)
        return seconds


def _timed(tracer, fn, *args, **kwargs):
    """(result, wall seconds) of one program call, inside a ``tree`` span if traced."""
    start = perf_counter()
    span = tracer.open("tree") if tracer is not None else None
    try:
        result = fn(*args, **kwargs)
    finally:
        if span is not None:
            tracer.close(span)
    return result, perf_counter() - start
