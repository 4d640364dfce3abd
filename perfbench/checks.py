"""Correctness checks and quality figures for one finished tree.

Everything is read back from the artifacts on disk: ``tree.json`` is parsed
with ``json`` and cut here, independently of ``ppp.engine.cut_tree``, and
``assignment.csv`` is read with ``ppp.fileio.load_csv``. The digest is the
SHA-256 of the ``tree.json`` bytes, so reruns can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ppp.fileio


@dataclass
class TreeCheck:
    digest: str
    attempts: int  # one per entry of each node's phi_trace (its attempt_stats)
    leaves: int
    ari_leaves: float
    ari_depth1: float
    problems: list[str] = field(default_factory=list)


def _frontier(node: dict, depth: int | None) -> list[list[int]]:
    """Feature id lists of the cut: the leaves, or the nodes at ``depth`` plus leaves above it."""
    if node["children"] is None or (depth is not None and len(node["path"]) == depth):
        return [node["feature_ids"]]
    return [ids for child in node["children"] for ids in _frontier(child, depth)]


def _nodes(node: dict):
    yield node
    for child in node["children"] or ():
        yield from _nodes(child)


def _labels(clusters: list[list[int]], n_features: int, what: str, problems: list[str]):
    """Cluster index per feature; records a problem unless the cut partitions the features."""
    labels = np.full(n_features, -1, dtype=np.int64)
    seen = 0
    for ci, ids in enumerate(clusters):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= n_features):
            problems.append(f"{what}: feature id out of range")
            return labels
        labels[ids] = ci
        seen += ids.size
    if seen != n_features or np.any(labels < 0):
        problems.append(f"{what}: clusters do not partition the {n_features} features")
    return labels


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """True when the two labelings group the items identically (names aside)."""
    n_pairs = len(set(zip(a.tolist(), b.tolist())))
    return n_pairs == len(set(a.tolist())) == len(set(b.tolist()))


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected agreement of two flat labelings (1 for identical partitions)."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)

    def pairs(x):
        return float((x * (x - 1) / 2.0).sum())

    cells = pairs(table)
    rows = pairs(table.sum(axis=1))
    cols = pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([float(len(a))]))
    top = (rows + cols) / 2.0
    if top == expected:
        return 1.0
    return (cells - expected) / (top - expected)


def inspect(tree_path: Path, assignment_path: Path, planted_labels: np.ndarray) -> TreeCheck:
    raw = tree_path.read_bytes()
    doc = json.loads(raw)
    n_features = int(doc["n_features"])
    problems: list[str] = []
    if n_features != planted_labels.size:
        problems.append(f"tree has {n_features} features, input has {planted_labels.size}")

    leaves = _frontier(doc["root"], None)
    leaf_labels = _labels(leaves, n_features, "leaf cut", problems)
    depth1_labels = _labels(_frontier(doc["root"], 1), n_features, "depth-1 cut", problems)

    table = ppp.fileio.load_csv(assignment_path, has_header=True).values
    features = table[:, 0].astype(np.int64)
    clusters = table[:, 1].astype(np.int64)
    if sorted(features.tolist()) != list(range(n_features)):
        problems.append("assignment.csv does not list every feature exactly once")
    elif not _same_partition(clusters[np.argsort(features)], leaf_labels):
        problems.append("assignment.csv disagrees with the leaf cut of tree.json")

    return TreeCheck(
        digest=hashlib.sha256(raw).hexdigest(),
        attempts=sum(len(node["phi_trace"]) for node in _nodes(doc["root"])),
        leaves=len(leaves),
        ari_leaves=adjusted_rand_index(leaf_labels, planted_labels),
        ari_depth1=adjusted_rand_index(depth1_labels, planted_labels),
        problems=problems,
    )
