"""File formats: CSV ingestion, JSON and CSV exports, run manifests.

Every writer emits deterministic bytes for identical inputs: keys are sorted,
floats use their shortest round-trip repr, and nothing except the manifest
embeds wall-clock state. Files are read and written as UTF-8 whatever the
locale, and every artifact goes through ``_write``, so it appears complete or
not at all.
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
from .errors import FormatError, IndexOutOfBounds, ParseError, PppError, ValidationError


def load_csv(
    path, has_header: bool = False, id_column: bool = False, delimiter: str = ","
) -> DesignMatrix:
    """Read a numeric CSV into a DesignMatrix.

    ``has_header`` consumes the first line as feature names; ``id_column``
    consumes the first column as instance ids. The file is UTF-8, with or
    without a byte order mark, and blank lines are skipped. Cells must parse
    as floats that ``DesignMatrix`` accepts. Errors name the file and carry
    zero-based (row, col) data positions, counted after blank lines, the
    header and the id column are stripped; the first fault in file order wins.

    Rows are parsed as they are read into a float64 buffer that doubles when
    full and is trimmed at the end, so the text of only one row is held at a
    time, never the whole file.
    """
    if len(delimiter) != 1:
        raise FormatError(f"delimiter must be one character, got {delimiter!r}")
    feature_ids = None
    instance_ids = [] if id_column else None
    values = None
    n = 0
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            try:
                for row in reader:
                    if not row:
                        continue
                    if has_header and feature_ids is None:
                        feature_ids = tuple(row[1:] if id_column else row)
                        continue
                    if values is None:
                        width = len(row)
                        values = np.empty((16, width - (1 if id_column else 0)))
                    elif len(row) != width:
                        raise FormatError(
                            f"{path}: row {n} has {len(row)} fields, expected {width}"
                        )
                    elif n == len(values):
                        # in place where the allocator can; the new rows are zeroed
                        values.resize((2 * n, values.shape[1]), refcheck=False)
                    cells = row
                    if id_column:
                        instance_ids.append(cells[0])
                        cells = cells[1:]
                    try:
                        values[n] = list(map(float, cells))
                    except ValueError:
                        # parse cell by cell to name the first one that fails
                        for c, cell in enumerate(cells):
                            try:
                                float(cell)
                            except ValueError:
                                raise ParseError(
                                    f"{path}: cell {cell!r} at row {n}, col {c} is not a number",
                                    row=n,
                                    col=c,
                                ) from None
                    n += 1
            except csv.Error as exc:
                raise FormatError(
                    f"{path}: malformed CSV at line {reader.line_num}: {exc}"
                ) from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text ({exc.reason})") from None
    if values is None:
        if feature_ids is None:
            raise FormatError(f"{path} is empty")
        raise FormatError(f"{path} has a header but no data rows")
    values.resize((n, values.shape[1]), refcheck=False)
    ids = None if instance_ids is None else tuple(instance_ids)
    try:
        return DesignMatrix.ingest(values, ids, feature_ids)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _fmt(value: float) -> str:
    return repr(float(value))


def export_matrix_csv(m: DesignMatrix, path) -> None:
    """Write a matrix so that load_csv round-trips it exactly."""
    has_ids = m.instance_ids is not None

    def rows():
        if m.feature_ids is not None:
            yield (["id"] if has_ids else []) + list(m.feature_ids)
        for i in range(m.n_instances):
            yield ([m.instance_ids[i]] if has_ids else []) + [_fmt(v) for v in m.values[i]]

    _write_csv(path, rows())


def export_labels_csv(instance_labels, feature_labels, path) -> None:
    """Planted block labels as axis,index,block rows, the instances first."""
    _write_csv(path, [
        ("axis", "index", "block"),
        *(("instance", i, int(block)) for i, block in enumerate(instance_labels)),
        *(("feature", j, int(block)) for j, block in enumerate(feature_labels)),
    ])


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
    """Write :func:`tree_to_dict` as JSON; a tree too deep for Python's recursion
    limit (about 490 levels) raises ``PppError`` naming its depth and writes nothing."""
    try:
        _write_json(tree_to_dict(tree, feature_ids), path)
    except RecursionError:
        depth = max(node.depth for node in tree.nodes())
        raise PppError(f"a tree of depth {depth} is too deep to write as JSON") from None


def _json_int(value, what: str) -> int:
    """``value`` if JSON read it as an integer, else ``ValueError`` (bools included)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def load_tree_json(path) -> tuple[PppTree, list | None]:
    """Rebuild the tree skeleton (paths, feature sets, statuses) from JSON.

    Attempt details and instance memberships are not reconstructed; the result
    carries what cutting needs, plus the stored feature name table (or None).
    Each node names at least one feature, each once, and has a resolved
    status; an internal node has two children and a leaf none. The root's
    path is empty and child i's path is its parent's plus ``str(i)``. The
    root must hold every feature and each internal node's children must
    partition its features, so every cut covers each feature once and yields
    no empty cluster. A name table has one distinct string per feature.
    Feature ids and the two counts must be JSON integers. A tree nested past
    Python's recursion limit is refused like any other.
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
            if not ids:
                raise ValueError(f"node {at!r} holds no features")
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
    names = range(tree.n_features) if feature_ids is None else feature_ids
    labels = cluster_labels(clusters, tree.n_features).tolist()
    _write_csv(path, [("feature_id", "cluster_id"), *zip(names, labels)])
    return clusters


def export_diagnostics_csv(tree: PppTree, path) -> None:
    """One row per entry of ``node.attempts``, nodes in preorder.

    Columns: node_path,attempt,seed,phi1,phi2,phi,outcome,core,child_a,child_b,
    the last three the instance counts of the attempt's core and child sets.
    """
    def rows():
        yield ["node_path", "attempt", "seed", "phi1", "phi2", "phi", "outcome",
               "core", "child_a", "child_b"]
        for node in tree.nodes():
            for i, a in enumerate(node.attempts):
                phi = "" if a.score is None else _fmt(a.score)
                yield [node.path, i, a.attempt_seed, *map(_fmt, a.overlaps), phi,
                       a.outcome, len(a.core_set), *map(len, a.child_sets)]

    _write_csv(path, rows())


def export_nodes_csv(tree: PppTree, path) -> None:
    """One row per node, in preorder: node_path,status,reason,instances,features,attempts,
    the last three the node's instance, feature and attempt counts."""
    _write_csv(path, [
        ("node_path", "status", "reason", "instances", "features", "attempts"),
        *((n.path, n.status, n.reason, len(n.instance_set), len(n.feature_set), len(n.attempts))
          for n in tree.nodes()),
    ])


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

    def rows():
        yield ["seed", "root_split_sizes", "root_score", "n_leaf_clusters", "matches_modal"]
        for pos, seed in enumerate(report.seeds):
            split = report.root_splits[pos]
            sizes = "" if split is None else "+".join(str(len(side)) for side in split)
            score = report.root_scores[pos]
            n_clusters = int(report.leaf_labels[pos].max()) + 1
            yield [seed, sizes, "" if score is None else _fmt(score), n_clusters,
                   split == modal_split]

    _write_csv(csv_path, rows())


def write_manifest(path, command, outputs: dict, master_seed: int, config: dict,
                   input_path=None) -> None:
    """Write everything needed to reproduce a run next to its outputs.

    The manifest records the input file's SHA-256 (null without an input),
    hashed in 64 KiB chunks, the tool version and the UTC time.
    """
    sha = None
    if input_path is not None:
        sha, chunk = hashlib.sha256(), memoryview(bytearray(1 << 16))
        with open(input_path, "rb") as fh:
            while size := fh.readinto(chunk):
                sha.update(chunk[:size])
    _write_json({
        "command": command,
        "input_path": input_path,
        "output_paths": {k: str(v) for k, v in outputs.items()},
        "master_seed": master_seed,
        "config": config,
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "input_sha256": None if sha is None else sha.hexdigest(),
    }, path)


def _write(path, fill) -> None:
    """Write a UTF-8 text file whole or not at all.

    ``fill(fh)`` writes into ``path.tmp``, which then replaces ``path``; if
    ``fill`` fails, the partial file is removed. Line ends are written as
    given, whatever the platform.
    """
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fill(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path, rows) -> None:
    """CSV records ended by CRLF, streamed from ``rows`` (the header first)."""
    _write(path, lambda fh: csv.writer(fh).writerows(rows))


def _write_json(doc, path) -> None:
    _write(path, lambda fh: fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n"))

