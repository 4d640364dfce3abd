"""Grown trees against the golden record, and what nodes.csv says of their leaves.

``tests/data/golden.json`` is written by ``tests/golden.py``; a change that
moves a tree on purpose reruns that script. Each case's tree is grown once
per session (``golden_tree`` in ``conftest.py``) and shared by the tests below.
"""

import csv
import json

import golden
import numpy as np
import pytest

import ppp.engine as engine_mod
from ppp.cli import main
from ppp.fileio import export_matrix_csv, export_nodes_csv
from ppp.synth import PlantedSpec, generate_planted

RECORD = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
REASONS = {"too_few_features", "too_few_rows", "no_defined_score", "score_not_positive",
           "best_score"}


def _read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module", params=sorted(golden.CASES))
def case(request, tmp_path_factory, golden_tree):
    """(name, tree, golden record of the tree, its nodes.csv rows)."""
    out = tmp_path_factory.mktemp(request.param)
    tree = golden_tree(request.param)
    export_nodes_csv(tree, out / "nodes.csv")
    return request.param, tree, golden.record(tree, out / "tree.json"), _read_csv(out / "nodes.csv")


def test_record_covers_every_case():
    assert sorted(RECORD) == sorted(golden.CASES)


def test_tree_matches_the_golden_tree(case):
    name, _, got, _ = case
    want = RECORD[name]
    for g, w in zip(got["nodes"], want["nodes"]):  # preorder: the first difference is named
        assert g == w, f"{name}: node {w['path']!r} is {g}, golden {w}"
    extra = got["nodes"][len(want["nodes"]):] or want["nodes"][len(got["nodes"]):]
    assert not extra, f"{name}: node {extra[0]['path']!r} is in one tree only"
    assert got["leaves"] == want["leaves"], name
    assert got["tree_sha256"] == want["tree_sha256"], (
        f"{name}: tree.json bytes differ from the golden tree's under numpy {np.__version__}"
    )


def test_nodes_csv_says_why_each_leaf_is_one(case):
    """Every leaf is a node that ran out of rows (F25 in ROADMAP.md): either too
    few features or rows to try, or attempts on a handful of rows that all
    scored zero; no leaf is one whose attempts all failed."""
    _, tree, _, rows = case
    assert [r["node_path"] for r in rows] == [n.path for n in tree.nodes()]
    for r in rows:
        assert r["reason"] in REASONS, r
        assert (r["status"] == "internal") == (r["reason"] == "best_score"), r
        assert (r["status"] == "leaf_terminal") == r["reason"].startswith("too_few_"), r
        assert r["reason"] != "no_defined_score", r
        if r["reason"] == "score_not_positive":
            assert int(r["instances"]) <= 13, r
        if r["status"] == "leaf_terminal":
            assert r["attempts"] == "0", r


def test_a_refusing_verdict_leaves_the_attempts_alone(tmp_path, monkeypatch):
    """A verdict that never splits, in place of today's, keeps the tree at its
    root and the root's attempts as they were: a new verdict needs no edit to
    the attempt loop."""
    data = tmp_path / "planted.csv"
    export_matrix_csv(generate_planted(PlantedSpec.even(200, 16, seed=1)).matrix, data)
    argv = ["cluster", "--input", str(data), "--seed", "1", "--out"]
    assert main(argv + [str(tmp_path / "plain")]) == 0
    monkeypatch.setattr(engine_mod, "_verdict",
                        lambda node, attempts: engine_mod.Verdict("refused"))
    assert main(argv + [str(tmp_path / "refused")]) == 0

    plain, refused = tmp_path / "plain", tmp_path / "refused"
    assert json.loads((refused / "tree.json").read_text())["root"]["children"] is None
    root = _read_csv(plain / "nodes.csv")[0]
    assert root["status"] == "internal"
    assert _read_csv(refused / "nodes.csv") == [
        dict(root, status="leaf_unsplittable", reason="refused")
    ]
    plain_root = [r for r in _read_csv(plain / "diagnostics.csv") if r["node_path"] == ""]
    assert _read_csv(refused / "diagnostics.csv") == plain_root
