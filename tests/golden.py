"""Golden trees: six fixed inputs whose grown trees tier-1 compares to a record.

Run ``python tests/golden.py`` (with ``src`` on ``PYTHONPATH``) to rebuild
every case and rewrite ``tests/data/golden.json``. For each case the record
holds the SHA-256 of the tree's ``tree.json`` bytes, the leaf partition (each
leaf's feature ids, leaves in preorder) and, per node in preorder, its path,
status and attempt count. A change that moves trees on purpose reruns this
script and lists the old and new leaf partitions in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from ppp.data import DesignMatrix
from ppp.engine import PppConfig, PppTree, build_tree
from ppp.fileio import export_tree_json
from ppp.synth import PlantedSpec, generate_planted

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"


def _planted(n: int, d: int, seed: int) -> DesignMatrix:
    return generate_planted(PlantedSpec.even(n, d, seed=seed)).matrix


def _null(seed: int) -> DesignMatrix:
    return DesignMatrix.ingest(np.random.default_rng(seed).standard_normal((200, 16)))


def _hierarchy() -> DesignMatrix:
    """The 400 x 32 two-level matrix of ``demos/full_pipeline.py``."""
    spec = importlib.util.spec_from_file_location("full_pipeline", ROOT / "demos" / "full_pipeline.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo.hierarchical_matrix().matrix


# case name -> (input matrix maker, master seed)
CASES = {
    "planted_200x16_seed1": (lambda: _planted(200, 16, 1), 1),
    "planted_200x16_seed2": (lambda: _planted(200, 16, 2), 2),
    "wide_48x640_seed1": (lambda: _planted(48, 640, 1), 1),
    "wide_48x640_seed2": (lambda: _planted(48, 640, 2), 2),
    "null_200x16_seed1": (lambda: _null(1), 1),
    "hierarchy_400x32_master4": (_hierarchy, 4),
}


def grow(name: str) -> PppTree:
    make, master_seed = CASES[name]
    return build_tree(make(), PppConfig(master_seed=master_seed))


def record(tree: PppTree, tree_json: Path) -> dict:
    """The golden record of a tree, whose ``tree.json`` is written to ``tree_json``."""
    export_tree_json(tree, tree_json)
    return {
        "tree_sha256": hashlib.sha256(tree_json.read_bytes()).hexdigest(),
        "leaves": [n.feature_set.indices.tolist() for n in tree.nodes() if n.is_leaf],
        "nodes": [{"path": n.path, "status": n.status, "attempts": len(n.attempts)}
                  for n in tree.nodes()],
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        doc = {name: record(grow(name), Path(tmp) / f"{name}.json") for name in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(doc)} cases, numpy {np.__version__})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
