"""Span tracer for the traced benchmark run.

The tracer replaces the public names that ``ppp.engine`` and ``ppp.cli`` call
with wrappers that record one span per call, and puts the originals back on
``restore``. The benchmark's own file reads and writes (``checks.py``, the
exports of the in-process workload) are not wrapped, so ``fileio`` figures
are the program's alone. Spans are (name, start, end, parent, tree) rows kept
in memory and written out once at the end of the run; each wrapper also
times its call with a clock read outside the span, for
``self_time_problems``. Counts that make ratios meaningful (SOM steps, EM
iterations, k-means iterations, split attempts, bytes copied) are recorded
by the same wrappers, from the arguments and results of each call.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

import ppp.cli
import ppp.engine
from ppp.errors import DegenerateSplit

LAYERS = ("som", "gmm", "kmeans", "engine", "data", "fileio")
ENGINE_SPANS = ("engine.build_tree", "engine.grow_node", "engine.evaluate_split",
                "engine.child_posteriors")
EXPORT_SPANS = ("fileio.export_tree_json", "fileio.export_assignment_csv",
                "fileio.export_diagnostics_csv", "fileio.write_manifest")

_MB = 1e6
_F64 = 8


def _rows(data) -> int:
    return int(np.shape(getattr(data, "values", data))[0])


def _dist_tmp_mb(som, data) -> float:
    """Size of the n x K x d difference array a full codebook distance builds."""
    n_units, dim = som.codebook.shape
    return _rows(data) * n_units * dim * _F64 / _MB


def _on_train_som(tr, args, result):
    som, data = args[0], args[1]
    tr.count("som.steps", som.config.epochs * _rows(data))
    tr.peak("som.dist_tmp_mb", _dist_tmp_mb(som, data))


def _on_codebook_match(tr, args, result):
    tr.peak("som.dist_tmp_mb", _dist_tmp_mb(args[0], args[1]))


def _on_fit_em(tr, args, result):
    tr.count("gmm.em_iters", result.n_iterations)


def _on_kmeans(tr, args, result):
    tr.count("kmeans.iters", result.iterations)


def _on_evaluate_split(tr, args, result):
    tr.count("engine.attempts", 1)
    tr.count("engine.undefined_scores", result.score is None)


def _on_grow_node(tr, args, result):
    tr.count("engine.nodes", 1)
    tr.count("engine.internal", result.status == "internal")


def _on_submatrix(tr, args, result):
    tr.count("data.submatrix.mb", result.values.size * _F64 / _MB)


def _on_load_csv(tr, args, result):
    tr.count("fileio.load_csv.mb", os.path.getsize(args[0]) / _MB)


# (module, attribute, span name, hook run on the call's arguments and result)
TARGETS = (
    (ppp.engine, "build_tree", "engine.build_tree", None),
    (ppp.engine, "grow_node", "engine.grow_node", _on_grow_node),
    (ppp.engine, "evaluate_split", "engine.evaluate_split", _on_evaluate_split),
    (ppp.engine, "child_posteriors", "engine.child_posteriors", None),
    (ppp.engine, "submatrix", "data.submatrix", _on_submatrix),
    (ppp.engine, "init_som", "som.init_som", None),
    (ppp.engine, "train_som", "som.train_som", _on_train_som),
    (ppp.engine, "codebook_match", "som.codebook_match", _on_codebook_match),
    (ppp.engine, "init_gmm_from_codebook", "gmm.init_gmm_from_codebook", None),
    (ppp.engine, "fit_em", "gmm.fit_em", _on_fit_em),
    (ppp.engine, "mixture_scores", "gmm.mixture_scores", None),
    (ppp.engine, "mixture_log_density", "gmm.mixture_log_density", None),
    (ppp.engine, "kmeans_bisect", "kmeans.kmeans_bisect", _on_kmeans),
    (ppp.cli, "build_tree", "engine.build_tree", None),
    (ppp.cli, "load_csv", "fileio.load_csv", _on_load_csv),
    (ppp.cli, "export_tree_json", "fileio.export_tree_json", None),
    (ppp.cli, "export_assignment_csv", "fileio.export_assignment_csv", None),
    (ppp.cli, "export_diagnostics_csv", "fileio.export_diagnostics_csv", None),
    (ppp.cli, "write_manifest", "fileio.write_manifest", None),
)


class Tracer:
    """In-memory spans and per-tree counters; one tree is traced at a time."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.trees: list[int] = []
        self.outer: list[float] = []  # each wrapped call's seconds, read outside its span
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.tree = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.trees.append(self.tree)
        self.ends.append(float("nan"))
        self.outer.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def count(self, key: str, amount) -> None:
        self.counters[self.tree][key] += float(amount)

    def peak(self, key: str, value: float) -> None:
        bucket = self.counters[self.tree]
        bucket[key] = max(bucket[key], float(value))

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            outer = perf_counter()
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except DegenerateSplit:
                if name == "kmeans.kmeans_bisect":
                    self.count("kmeans.degenerate", 1)
                raise
            finally:
                self.close(idx)
                self.outer[idx] = perf_counter() - outer
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, name, hook in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the part its child spans cover."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        own = dur.copy()
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.subtract.at(own, parents[has_parent], dur[has_parent])
        return own

    def nesting_problems(self, since: int = 0) -> list[str]:
        """Spans from ``since`` on must have finite ends and lie inside their parent."""
        problems = []
        for i in range(since, len(self.names)):
            if not np.isfinite(self.ends[i] - self.starts[i]):
                problems.append(f"span {i} ({self.names[i]}) was never closed")
                continue
            p = self.parents[i]
            if p >= 0 and not (self.starts[p] <= self.starts[i] <= self.ends[i] <= self.ends[p]):
                problems.append(f"span {i} ({self.names[i]}) escapes its parent {p}")
        return problems

    def self_time_problems(self, since: int = 0) -> list[str]:
        """Self times under ``engine.evaluate_split`` must add up to its outer clock.

        Over the spans from ``since`` on, every span below an
        ``engine.evaluate_split`` span is attributed to its nearest such
        ancestor, and their self times are summed. The sum must not exceed
        the ``evaluate_split`` calls' own seconds, read by the wrapper outside
        the span, and may fall short of it only by the tracer's bookkeeping
        (a tenth of a millisecond per call, plus 0.1%).
        """
        own = self.self_times()
        owner = [-1] * len(self.names)
        total_self = 0.0
        total_outer = 0.0
        calls = 0
        for i in range(since, len(self.names)):
            p = self.parents[i]
            if self.names[i] == "engine.evaluate_split":
                owner[i] = i
                total_outer += self.outer[i]
                calls += 1
            elif p >= 0:
                owner[i] = owner[p]
            if owner[i] >= 0:
                total_self += float(own[i])
        gap = total_outer - total_self
        if not 0.0 <= gap <= 1e-4 * calls + 1e-3 * total_outer:
            return [f"self times under evaluate_split add to {total_self!r} s, "
                    f"its {calls} calls took {total_outer!r} s"]
        return []

    def layer_metrics(self, tree_ids: list[int]) -> dict[str, float]:
        """Per-tree means over ``tree_ids`` of every per-layer metric."""
        n_trees = len(tree_ids)
        wanted = set(tree_ids)
        names = np.asarray(self.names)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        own = self.self_times()
        in_run = np.array([t in wanted for t in self.trees], dtype=bool)

        def total(name: str) -> float:
            return float(dur[in_run & (names == name)].sum())

        def calls(name: str) -> float:
            return float((in_run & (names == name)).sum())

        counts = defaultdict(float)
        for t in tree_ids:
            for key, value in self.counters[t].items():
                if key == "som.dist_tmp_mb":
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value

        # layer shares: self time under the tree spans, over the tree time
        under_tree = np.zeros(len(names), dtype=bool)
        for i in range(len(names)):
            p = self.parents[i]
            under_tree[i] = names[i] == "tree" or (p >= 0 and under_tree[p])
        tree_total = total("tree")
        layer_of = np.array([n.split(".", 1)[0] for n in names])

        evals = dur[in_run & (names == "engine.evaluate_split")]
        totals = {
            "gmm.fit_em.s": total("gmm.fit_em"),
            "gmm.fit_em.calls": calls("gmm.fit_em"),
            "gmm.em_iters": counts["gmm.em_iters"],
            "gmm.mixture_scores.s": total("gmm.mixture_scores"),
            "gmm.mixture_log_density.s": total("gmm.mixture_log_density"),
            "gmm.init_gmm_from_codebook.s": total("gmm.init_gmm_from_codebook"),
            "som.train_som.s": total("som.train_som"),
            "som.train_som.calls": calls("som.train_som"),
            "som.steps": counts["som.steps"],
            "som.init_som.s": total("som.init_som"),
            "som.codebook_match.s": total("som.codebook_match"),
            "kmeans.kmeans_bisect.s": total("kmeans.kmeans_bisect"),
            "kmeans.iters": counts["kmeans.iters"],
            "kmeans.degenerate": counts["kmeans.degenerate"],
            "engine.evaluate_split.s": float(evals.sum()),
            "engine.child_posteriors.s": total("engine.child_posteriors"),
            "engine.self_s": float(own[in_run & np.isin(names, ENGINE_SPANS)].sum()),
            "engine.attempts": counts["engine.attempts"],
            "engine.nodes": counts["engine.nodes"],
            "engine.undefined_scores": counts["engine.undefined_scores"],
            "data.submatrix.s": total("data.submatrix"),
            "data.submatrix.mb": counts["data.submatrix.mb"],
            "fileio.load_csv.s": total("fileio.load_csv"),
            "fileio.load_csv.mb": counts["fileio.load_csv.mb"],
            "fileio.export.s": float(dur[in_run & np.isin(names, EXPORT_SPANS)].sum()),
        }
        m = {key: value / n_trees for key, value in totals.items()}
        m["gmm.em_iter_ms"] = 1e3 * totals["gmm.fit_em.s"] / max(totals["gmm.em_iters"], 1.0)
        m["som.step_us"] = 1e6 * totals["som.train_som.s"] / max(totals["som.steps"], 1.0)
        m["som.dist_tmp_mb"] = counts["som.dist_tmp_mb"]
        m["engine.evaluate_split.p50_s"] = float(np.quantile(evals, 0.5)) if evals.size else 0.0
        m["engine.evaluate_split.p90_s"] = float(np.quantile(evals, 0.9)) if evals.size else 0.0
        m["engine.accept_ratio"] = counts["engine.internal"] / max(totals["engine.attempts"], 1.0)
        for layer in LAYERS:
            mask = in_run & under_tree & (layer_of == layer)
            m[f"{layer}.share"] = float(own[mask].sum()) / tree_total if tree_total else 0.0
        return m

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans were opened."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "tree": self.trees[i],
                }) + "\n")
