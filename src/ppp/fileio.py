"""File formats: CSV ingestion, JSON and CSV exports, run manifests.

Every writer emits deterministic bytes for identical inputs: keys are sorted,
floats use their shortest round-trip repr, and nothing except the manifest
embeds wall-clock state.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ._version import __version__
from .data import DesignMatrix, IndexSet
from .engine import RESOLVED_STATUSES, PppNode, PppTree, cluster_labels, cut_tree
from .errors import FormatError, IndexOutOfBounds, ParseError, ValidationError


def load_csv(
    path, has_header: bool = False, id_column: bool = False, delimiter: str = ","
) -> DesignMatrix:
    """Read a numeric CSV into a DesignMatrix.

    ``has_header`` consumes the first line as feature names; ``id_column``
    consumes the first column as instance ids. Cells must parse as finite
    floats. Errors carry zero-based (row, col) positions in data coordinates,
    counted after the header and id column are stripped.
    """
    if len(delimiter) != 1:
        raise FormatError(f"delimiter must be one character, got {delimiter!r}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    if not rows:
        raise FormatError(f"{path} is empty")

    feature_ids = None
    if has_header:
        header = rows[0]
        rows = rows[1:]
        if not rows:
            raise FormatError(f"{path} has a header but no data rows")
        feature_ids = tuple(header[1:] if id_column else header)

    width = len(rows[0])
    instance_ids = [] if id_column else None
    values = np.empty((len(rows), width - (1 if id_column else 0)))
    for r, row in enumerate(rows):
        if len(row) != width:
            raise FormatError(
                f"{path}: row {r} has {len(row)} fields, expected {width}"
            )
        cells = row
        if id_column:
            instance_ids.append(cells[0])
            cells = cells[1:]
        try:
            values[r] = list(map(float, cells))
        except ValueError:
            # parse cell by cell to name the first one that fails
            for c, cell in enumerate(cells):
                try:
                    float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: cell {cell!r} at row {r}, col {c} is not a number",
                        row=r,
                        col=c,
                    ) from None
    if not np.all(np.isfinite(values)):
        r, c = np.argwhere(~np.isfinite(values))[0]
        raise ValidationError(
            f"{path}: non-finite value at row {int(r)}, col {int(c)}"
        )
    if feature_ids is not None and len(feature_ids) != values.shape[1]:
        raise FormatError(
            f"{path}: header names {len(feature_ids)} columns, data has {values.shape[1]}"
        )
    return DesignMatrix.ingest(
        values,
        tuple(instance_ids) if instance_ids is not None else None,
        feature_ids,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def export_matrix_csv(m: DesignMatrix, path) -> None:
    """Write a matrix so that load_csv round-trips it exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        has_ids = m.instance_ids is not None
        if m.feature_ids is not None:
            header = (["id"] if has_ids else []) + list(m.feature_ids)
            writer.writerow(header)
        for i in range(m.n_instances):
            row = [m.instance_ids[i]] if has_ids else []
            writer.writerow(row + [_fmt(v) for v in m.values[i]])


def _node_dict(node: PppNode) -> dict:
    ev = node.best_eval
    doc = {
        "path": node.path,
        "status": node.status,
        "feature_ids": [int(i) for i in node.feature_set.indices],
        "instance_count": len(node.instance_set),
        "gamma0_size": len(ev.core_set) if ev is not None else None,
        "gamma1_size": len(ev.child_sets[0]) if ev is not None else None,
        "gamma2_size": len(ev.child_sets[1]) if ev is not None else None,
        "phi1": ev.overlaps[0] if ev is not None else None,
        "phi2": ev.overlaps[1] if ev is not None else None,
        "phi": ev.score if ev is not None else None,
        "phi_trace": node.score_trace,
        "children": None,
    }
    if node.children is not None:
        doc["children"] = [_node_dict(c) for c in node.children]
    return doc


def tree_to_dict(tree: PppTree, feature_ids=None) -> dict:
    """JSON-ready view of a tree.

    Nodes carry integer feature ids; ``feature_ids``, when given, is stored
    once as a top-level name table.
    """
    return {
        "n_instances": tree.n_instances,
        "n_features": tree.n_features,
        "feature_names": list(feature_ids) if feature_ids is not None else None,
        "root": _node_dict(tree.root),
    }


def export_tree_json(tree: PppTree, path, feature_ids=None) -> None:
    _write_json(tree_to_dict(tree, feature_ids), path)


def _json_int(value, what: str) -> int:
    """``value`` if JSON read it as an integer, else ``ValueError`` (bools included)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def load_tree_json(path) -> tuple[PppTree, list | None]:
    """Rebuild the tree skeleton (paths, feature sets, statuses) from JSON.

    Attempt details and instance memberships are not reconstructed; the result
    carries what cutting needs, plus the stored feature name table (or None).
    Each node names its features once and has a resolved status; an internal
    node has two children and a leaf none. The root's path is empty and child
    i's path is its parent's plus ``str(i)``. The root must hold every feature
    and each internal node's children must partition its features, so every
    cut covers each feature once. A name table has one distinct string per
    feature. Feature ids and the two counts must be JSON integers. A tree
    nested past Python's recursion limit is refused like any other.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
        n_features = _json_int(doc["n_features"], "n_features")
        n_instances = _json_int(doc["n_instances"], "n_instances")

        def build(node_doc, at: str) -> PppNode:
            if node_doc["path"] != at:
                raise ValueError(f"node {at!r} is stored with path {node_doc['path']!r}")
            ids = [_json_int(i, "a feature id") for i in node_doc["feature_ids"]]
            node = PppNode(
                IndexSet.from_iterable(ids, n_features),
                IndexSet(np.array([], dtype=np.int64), n_instances),
                path=at,
                status=str(node_doc["status"]),
            )
            if len(node.feature_set) != len(ids):
                raise ValueError(f"node {node.path!r} repeats a feature id")
            if node.status not in RESOLVED_STATUSES:
                raise ValueError(f"node {node.path!r} has unknown status {node.status!r}")
            children = node_doc.get("children") or []
            expected = 2 if node.status == "internal" else 0
            if len(children) != expected:
                raise ValueError(
                    f"{node.status} node {node.path!r} has {len(children)} children, "
                    f"expected {expected}"
                )
            if children:
                node.children = tuple(build(c, at + str(i)) for i, c in enumerate(children))
                sides = [c.feature_set.indices for c in node.children]
                if not np.array_equal(np.sort(np.concatenate(sides)), node.feature_set.indices):
                    raise ValueError(
                        f"the children of node {node.path!r} do not partition its features"
                    )
            return node

        root = build(doc["root"], "")
        if len(root.feature_set) != n_features:
            raise ValueError(f"the root holds {len(root.feature_set)} of {n_features} features")
        names = doc.get("feature_names")
        if names is not None and not (
            isinstance(names, list) and all(isinstance(name, str) for name in names)
            and len(set(names)) == len(names) == n_features
        ):
            raise ValueError(f"feature_names must be null or {n_features} distinct strings")
        return PppTree(root, n_instances, n_features), names
    except (KeyError, TypeError, ValueError, IndexOutOfBounds, ValidationError,
            RecursionError) as exc:
        raise FormatError(f"{path} is not a tree export: {exc}") from None


def export_assignment_csv(
    tree: PppTree, path, depth: int | None = None, feature_ids=None
) -> list[IndexSet]:
    """Write ``cut_tree(tree, depth)`` as feature_id,cluster_id rows and return it."""
    clusters = cut_tree(tree, depth)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature_id", "cluster_id"])
        for i, ci in enumerate(cluster_labels(clusters, tree.n_features).tolist()):
            writer.writerow([i if feature_ids is None else feature_ids[i], ci])
    return clusters


def export_diagnostics_csv(tree: PppTree, path) -> None:
    """One row per entry of ``node.attempts``, nodes in preorder.

    Columns: node_path,attempt,seed,phi1,phi2,phi,outcome,core,child_a,child_b,
    the last three the instance counts of the attempt's core and child sets.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_path", "attempt", "seed", "phi1", "phi2", "phi", "outcome",
                         "core", "child_a", "child_b"])
        for node in tree.nodes():
            for i, a in enumerate(node.attempts):
                phi = "" if a.score is None else _fmt(a.score)
                writer.writerow([node.path, i, a.attempt_seed, *map(_fmt, a.overlaps), phi,
                                 a.outcome, len(a.core_set), *map(len, a.child_sets)])


def report_to_dict(report) -> dict:
    """JSON-ready view of a stability report."""
    return {
        "seeds": list(report.seeds),
        "modal_frequency": report.modal_frequency,
        "split_frequencies": [
            {
                "split": None if split is None else [list(side) for side in split],
                "frequency": freq,
            }
            for split, freq in report.split_frequencies
        ],
        "root_scores": list(report.root_scores),
        "score_mean": report.score_mean,
        "score_min": report.score_min,
        "score_max": report.score_max,
        "pairwise_ari": [[float(v) for v in row] for row in report.pairwise_ari],
    }


def export_report(report, json_path, csv_path) -> None:
    """Stability report as a JSON summary plus a per-seed CSV."""
    _write_json(report_to_dict(report), json_path)
    modal_split = report.split_frequencies[0][0]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "root_split_sizes", "root_score", "n_leaf_clusters", "matches_modal"])
        for pos, seed in enumerate(report.seeds):
            split = report.root_splits[pos]
            sizes = "" if split is None else "+".join(str(len(side)) for side in split)
            score = report.root_scores[pos]
            n_clusters = int(report.leaf_labels[pos].max()) + 1
            writer.writerow(
                [seed, sizes, "" if score is None else _fmt(score), n_clusters, split == modal_split]
            )


def write_manifest(path, command, outputs: dict, master_seed: int, config: dict,
                   input_path=None) -> None:
    """Write everything needed to reproduce a run next to its outputs.

    The manifest records the input file's SHA-256 (null without an input), the
    tool version and the UTC time. The write is atomic: the manifest appears
    complete or not at all.
    """
    _write_json({
        "command": command,
        "input_path": input_path,
        "output_paths": {k: str(v) for k, v in outputs.items()},
        "master_seed": master_seed,
        "config": config,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "input_sha256": None if input_path is None
        else hashlib.sha256(Path(input_path).read_bytes()).hexdigest(),
    }, path)


def _write_json(doc, path) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)

