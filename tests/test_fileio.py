"""CSV ingestion and the export formats."""

import hashlib
import json
from dataclasses import asdict
from datetime import datetime

import numpy as np
import pytest

from ppp.data import DesignMatrix, IndexSet, derive_seed
from ppp.engine import PppConfig, PppNode, PppTree, build_tree, cut_tree
from ppp.errors import FormatError, ParseError, ValidationError
from ppp.fileio import (
    export_assignment_csv,
    export_diagnostics_csv,
    export_matrix_csv,
    export_report,
    export_tree_json,
    load_csv,
    load_tree_json,
    report_to_dict,
    tree_to_dict,
    write_manifest,
)
from ppp.synth import PlantedSpec, generate_planted, repeatability_trial


def _write(path, text):
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_plain_numbers(self, tmp_path):
        p = _write(tmp_path / "m.csv", "1,2\n3,4\n")
        m = load_csv(p)
        np.testing.assert_array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])
        assert m.feature_ids is None
        assert m.instance_ids is None

    def test_header_becomes_feature_ids(self, tmp_path):
        p = _write(tmp_path / "m.csv", "alpha,beta\n1,2\n3,4\n")
        m = load_csv(p, has_header=True)
        assert m.feature_ids == ("alpha", "beta")

    def test_id_column(self, tmp_path):
        p = _write(tmp_path / "m.csv", "id,f0,f1\nr1,1,2\nr2,3,4\n")
        m = load_csv(p, has_header=True, id_column=True)
        assert m.instance_ids == ("r1", "r2")
        assert m.feature_ids == ("f0", "f1")
        np.testing.assert_array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_alternate_delimiter(self, tmp_path):
        p = _write(tmp_path / "m.tsv", "1\t2\n3\t4\n")
        m = load_csv(p, delimiter="\t")
        assert m.values.shape == (2, 2)

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        p = _write(tmp_path / "m.csv", "1;;2\n3;;4\n")
        with pytest.raises(FormatError, match="one character"):
            load_csv(p, delimiter=delimiter)

    def test_parse_error_carries_data_coordinates(self, tmp_path):
        p = _write(tmp_path / "m.csv", "h0,h1\nid0,1,2\nid1,1,2\nid2,3,abc\n")
        # header and id column are stripped before counting (row 2, col 1)
        with pytest.raises(ParseError) as exc:
            load_csv(p, has_header=True, id_column=True)
        assert exc.value.row == 2
        assert exc.value.col == 1
        assert "'abc'" in str(exc.value)

    def test_parse_error_deep_in_a_wide_row(self, tmp_path):
        rng = np.random.default_rng(2)
        cells = [list(map(repr, row)) for row in rng.standard_normal((48, 640)).tolist()]
        cells[30][517] = "1.5e"
        lines = [f"r{i}," + ",".join(row) for i, row in enumerate(cells)]
        p = _write(tmp_path / "m.csv", "\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p, id_column=True)
        assert (exc.value.row, exc.value.col) == (30, 517)
        assert str(exc.value) == f"{p}: cell '1.5e' at row 30, col 517 is not a number"

    def test_wide_file_equals_float_per_cell(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((48, 640)) * 10.0 ** rng.integers(-300, 300, (48, 640))
        cells = [list(map(repr, row)) for row in values.tolist()]
        cells[0][:6] = ["-0.0", " 7", "1_000", "1E5", "+.5", "0"]
        p = _write(tmp_path / "m.csv", "\n".join(",".join(row) for row in cells) + "\n")
        want = np.array([[float(c) for c in row] for row in cells])
        assert load_csv(p).values.tobytes() == want.tobytes()

    def test_ragged_rows_rejected(self, tmp_path):
        p = _write(tmp_path / "m.csv", "1,2\n3,4,5\n")
        with pytest.raises(FormatError, match="row 1 has 3 fields"):
            load_csv(p)

    def test_non_finite_rejected(self, tmp_path):
        p = _write(tmp_path / "m.csv", "1,2\nnan,4\n")
        with pytest.raises(ValidationError, match="non-finite"):
            load_csv(p)

    def test_infinity_rejected(self, tmp_path):
        p = _write(tmp_path / "m.csv", "1,inf\n3,4\n")
        with pytest.raises(ValidationError):
            load_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = _write(tmp_path / "m.csv", "")
        with pytest.raises(FormatError, match="empty"):
            load_csv(p)

    def test_header_only_rejected(self, tmp_path):
        p = _write(tmp_path / "m.csv", "a,b\n")
        with pytest.raises(FormatError, match="no data rows"):
            load_csv(p, has_header=True)

    def test_header_width_mismatch_rejected(self, tmp_path):
        p = _write(tmp_path / "m.csv", "a,b,c\n1,2\n")
        with pytest.raises(FormatError, match="header names 3"):
            load_csv(p, has_header=True)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")


class TestMatrixRoundTrip:
    def test_values_survive_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        m = DesignMatrix.ingest(rng.standard_normal((7, 4)) * 1e3)
        p = tmp_path / "m.csv"
        export_matrix_csv(m, p)
        back = load_csv(p)
        np.testing.assert_array_equal(back.values, m.values)

    def test_named_matrix_round_trips_names(self, tmp_path):
        m = DesignMatrix.ingest(
            np.array([[1.5, 2.5], [3.5, 4.5]]),
            instance_ids=("r0", "r1"),
            feature_ids=("f0", "f1"),
        )
        p = tmp_path / "m.csv"
        export_matrix_csv(m, p)
        back = load_csv(p, has_header=True, id_column=True)
        assert back.instance_ids == ("r0", "r1")
        assert back.feature_ids == ("f0", "f1")
        np.testing.assert_array_equal(back.values, m.values)

    def test_awkward_floats_survive(self, tmp_path):
        m = DesignMatrix.ingest(np.array([[0.1, 1 / 3], [1e-17, 123456.789012345]]))
        p = tmp_path / "m.csv"
        export_matrix_csv(m, p)
        np.testing.assert_array_equal(load_csv(p).values, m.values)


@pytest.fixture(scope="module")
def small_tree():
    data = generate_planted(
        PlantedSpec.even(120, 8, (2, 2), gap=4.0, noise_sigma=1.0, seed=5)
    )
    return build_tree(data.matrix, PppConfig(master_seed=3))


class TestTreeJson:
    def test_dict_shape(self, small_tree):
        doc = tree_to_dict(small_tree)
        assert doc["n_features"] == 8
        assert doc["n_instances"] == 120
        assert doc["feature_names"] is None
        root = doc["root"]
        assert root["path"] == ""
        assert root["status"] == "internal"
        assert sorted(root["feature_ids"]) == list(range(8))
        assert root["phi"] > 0
        assert len(root["children"]) == 2
        assert root["gamma1_size"] >= 1 and root["gamma2_size"] >= 1
        assert len(root["phi_trace"]) == len(small_tree.root.attempts)

    def test_round_trip_preserves_skeleton(self, small_tree, tmp_path):
        p = tmp_path / "tree.json"
        export_tree_json(small_tree, p, feature_ids=[f"g{i}" for i in range(8)])
        back, names = load_tree_json(p)
        assert names == [f"g{i}" for i in range(8)]
        assert back.n_features == 8
        orig = [(n.path, n.status, tuple(n.feature_set.indices.tolist()))
                for n in small_tree.nodes()]
        loaded = [(n.path, n.status, tuple(n.feature_set.indices.tolist()))
                  for n in back.nodes()]
        assert orig == loaded

    def test_loaded_tree_cuts_identically(self, small_tree, tmp_path):
        p = tmp_path / "tree.json"
        export_tree_json(small_tree, p)
        back, _ = load_tree_json(p)
        for depth in (None, 0, 1, 2):
            a = [c.indices.tolist() for c in cut_tree(small_tree, depth)]
            b = [c.indices.tolist() for c in cut_tree(back, depth)]
            assert a == b

    def test_garbage_json_rejected(self, tmp_path):
        def node(path, ids, children=None):
            return {"path": path, "status": "internal" if children else "leaf_terminal",
                    "feature_ids": ids, "children": children}

        def tree(root, **names):
            return json.dumps({"n_instances": 4, "n_features": 2, "root": root, **names})

        cases = [
            '{"whatever": 3}',
            "this is not json",
            tree(node("", [0, 7])),  # feature id out of range
            tree(node("", [0, 1], [node("0", [0, 1]), node("1", [1])])),  # overlapping children
            tree(node("", [0, 1], [node("0", [0]), node("1", [])])),  # children miss feature 1
            tree(node("", [1])),  # the root misses feature 0
            tree(node("", [0, 1, 1])),  # feature 1 named twice
            tree({**node("", [0, 1]), "status": "open"}),  # not a status of a grown tree
            tree({**node("", [0, 1]), "status": "internal"}),  # internal without children
            tree({**node("", [0, 1], [node("0", [0])]), "status": "internal"}),  # one child
            tree({**node("", [0, 1], [node("0", [0]), node("1", [1])]),
                  "status": "leaf_unsplittable"}),  # a leaf with children
            tree(node("", [0, 1]), feature_names=["a"]),  # fewer names than features
            tree(node("", [0, 1]), feature_names="ab"),  # a string, not a list of names
            tree(node("", [0, 1]), feature_names=["a", "a"]),  # one name twice
            tree(node("", [0, 1]), feature_names=["a", 2]),  # a name that is not a string
            tree(node("0", [0, 1])),  # a root path that is not empty
            tree(node("", [0, 1], [node("00", [0]), node("1", [1])])),  # "00" at depth 1
            tree(node("", [0, 1], [node("1", [0]), node("0", [1])])),  # children swapped
        ]
        p = tmp_path / "bad.json"
        for text in cases:
            p.write_text(text)
            with pytest.raises(FormatError, match="not a tree export"):
                load_tree_json(p)
        p.write_text(tree(node("", [0, 1], [node("0", [1]), node("1", [0])])))
        assert [c.indices.tolist() for c in cut_tree(load_tree_json(p)[0], 1)] == [[1], [0]]
        p.write_text(tree(node("", [0, 1]), feature_names=["b", "a"]))
        assert load_tree_json(p)[1] == ["b", "a"]

    @pytest.mark.parametrize("spelling", [0.9, "0", True], ids=["float", "string", "bool"])
    def test_non_integer_ids_rejected(self, spelling, tmp_path):
        """A feature id or count that JSON does not read as an integer is
        refused, not truncated or coerced into an id the file does not state."""
        def doc(ids=(0, 1), **counts):
            root = {"path": "", "status": "leaf_terminal", "feature_ids": list(ids),
                    "children": None}
            return {"n_instances": 4, "n_features": 2, **counts, "root": root}

        p = tmp_path / "bad.json"
        ids = [0, spelling] if spelling is True else [spelling, 1]
        for bad in (doc(ids=ids), doc(n_features=spelling), doc(n_instances=spelling)):
            p.write_text(json.dumps(bad))
            with pytest.raises(FormatError, match="must be an integer"):
                load_tree_json(p)

    def test_export_is_deterministic(self, small_tree, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export_tree_json(small_tree, p1)
        export_tree_json(small_tree, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestAssignmentCsv:
    def test_rows_sorted_by_feature(self, small_tree, tmp_path):
        p = tmp_path / "assign.csv"
        export_assignment_csv(small_tree, p, depth=1)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "feature_id,cluster_id"
        ids = [int(line.split(",")[0]) for line in lines[1:]]
        assert ids == list(range(8))
        clusters = {int(line.split(",")[1]) for line in lines[1:]}
        assert clusters == {0, 1}

    def test_feature_names_used_when_given(self, small_tree, tmp_path):
        p = tmp_path / "assign.csv"
        names = [f"gene{i}" for i in range(8)]
        export_assignment_csv(small_tree, p, depth=1, feature_ids=names)
        first = p.read_text().strip().split("\n")[1]
        assert first.split(",")[0] == "gene0"

    def test_interleaved_clusters_sorted_by_feature(self, tmp_path):
        def node(path, ids, status="leaf_terminal"):
            return PppNode(IndexSet(np.array(ids), 4), IndexSet.full(2), path, status)

        root = node("", [0, 1, 2, 3], "internal")
        root.children = (node("0", [1, 3]), node("1", [0, 2]))
        p = tmp_path / "assign.csv"
        export_assignment_csv(PppTree(root, 2, 4), p)
        rows = [line.split(",") for line in p.read_text().strip().split("\n")[1:]]
        assert rows == [["0", "1"], ["1", "0"], ["2", "1"], ["3", "0"]]


class TestDiagnosticsCsv:
    def test_per_attempt_rows(self, small_tree, tmp_path):
        p = tmp_path / "diag.csv"
        export_diagnostics_csv(small_tree, p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "node_path,attempt,seed,phi1,phi2,phi,outcome,core,child_a,child_b"
        expected = sum(len(n.attempts) for n in small_tree.nodes())
        assert len(lines) == 1 + expected

    def test_seed_column_is_the_derived_attempt_seed(self, small_tree, tmp_path):
        p = tmp_path / "diag.csv"
        export_diagnostics_csv(small_tree, p)
        rows = [line.split(",") for line in p.read_text().strip().split("\n")[1:]]
        expected = [
            [node.path, str(attempt), str(derive_seed(3, node.path, attempt))]
            for node in small_tree.nodes()
            for attempt in range(len(node.attempts))
        ]
        assert [row[:3] for row in rows] == expected

    def test_undefined_score_is_empty_cell(self, tmp_path):
        data = DesignMatrix.ingest(np.full((10, 4), 2.0))
        tree = build_tree(data, PppConfig(max_split_attempts=2))
        p = tmp_path / "diag.csv"
        export_diagnostics_csv(tree, p)
        lines = p.read_text().strip().split("\n")[1:]
        assert len(lines) == 2
        assert lines[0].split(",")[3:6] == ["0.0", "0.0", ""]  # no value for None
        # identical columns: the bisection fails after the core set, which holds every row
        assert all(line.split(",")[6:] == ["degenerate_split", "10", "0", "0"] for line in lines)


@pytest.fixture(scope="module")
def report():
    data = generate_planted(
        PlantedSpec.even(120, 8, (2, 2), gap=4.0, noise_sigma=1.0, seed=5)
    )
    return repeatability_trial(data.matrix, PppConfig(), [0, 1])


class TestReportExport:
    def test_json_fields(self, report, tmp_path):
        jp, cp = tmp_path / "report.json", tmp_path / "report.csv"
        export_report(report, jp, cp)
        doc = json.loads(jp.read_text())
        assert doc["seeds"] == [0, 1]
        assert doc["modal_frequency"] == report.modal_frequency
        assert len(doc["pairwise_ari"]) == 2
        assert doc["split_frequencies"][0]["frequency"] == report.split_frequencies[0][1]
        assert doc["score_min"] <= doc["score_mean"] <= doc["score_max"]

    def test_csv_per_seed(self, report, tmp_path):
        jp, cp = tmp_path / "report.json", tmp_path / "report.csv"
        export_report(report, jp, cp)
        lines = cp.read_text().strip().split("\n")
        assert lines[0] == "seed,root_split_sizes,root_score,n_leaf_clusters,matches_modal"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "4+4"
        assert first[4] == "True"

    def test_dict_round_trips_through_json(self, report):
        doc = report_to_dict(report)
        assert json.loads(json.dumps(doc)) == doc


class TestManifest:
    def test_written_fields(self, tmp_path):
        data = _write(tmp_path / "in.csv", "1,2\n3,4\n")
        p = tmp_path / "manifest.json"
        config = asdict(PppConfig(master_seed=7, score_threshold=0.25))
        write_manifest(p, "cluster", {"tree": tmp_path / "tree.json"}, 7, config, str(data))
        doc = json.loads(p.read_text())
        assert sorted(doc) == ["command", "config", "created_utc", "input_path",
                               "input_sha256", "master_seed", "output_paths", "tool_version"]
        assert doc["command"] == "cluster"
        assert doc["input_path"] == str(data)
        assert doc["input_sha256"] == hashlib.sha256(b"1,2\n3,4\n").hexdigest()
        assert doc["output_paths"] == {"tree": str(tmp_path / "tree.json")}
        assert doc["master_seed"] == 7
        assert doc["config"] == {"master_seed": 7, "max_split_attempts": 20, "patience": 5,
                                 "score_threshold": 0.25}
        assert doc["tool_version"]
        assert datetime.fromisoformat(doc["created_utc"]).tzinfo is not None
        assert not (tmp_path / "manifest.json.tmp").exists()
