"""The ppp command line tool, driven through main(argv)."""

import hashlib
import json

import numpy as np
import pytest

from ppp.cli import _load_config_file, _parse_grid, _parse_seed_list, build_parser, main
from ppp.errors import ConfigError
from ppp.fileio import load_csv


def _make_planted(tmp_path, **overrides):
    """Small planted matrix on disk; returns the csv path."""
    out = tmp_path / "synthdata"
    args = {"instances": 120, "features": 8, "blocks": "2x2",
            "gap": 4.0, "noise": 1.0, "seed": 5}
    args.update(overrides)
    rc = main([
        "synth", "--out", str(out),
        "--instances", str(args["instances"]),
        "--features", str(args["features"]),
        "--blocks", args["blocks"],
        "--gap", str(args["gap"]),
        "--noise", str(args["noise"]),
        "--seed", str(args["seed"]),
    ])
    assert rc == 0
    return out / "planted.csv"


class TestParsers:
    def test_grid(self):
        assert _parse_grid("3x5") == (3, 5)
        assert _parse_grid("8X8") == (8, 8)

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            _parse_grid("3by5")

    def test_seed_range(self):
        assert _parse_seed_list("0..3") == [0, 1, 2, 3]

    def test_seed_commas(self):
        assert _parse_seed_list("1,5,7") == [1, 5, 7]
        assert _parse_seed_list("4") == [4]

    @pytest.mark.parametrize("text", ["x..y", "1..", "0..3..5", "1,b"])
    def test_bad_seed_list(self, text):
        with pytest.raises(ConfigError):
            _parse_seed_list(text)


class TestSynth:
    def test_writes_data_labels_manifest(self, tmp_path):
        p = _make_planted(tmp_path)
        assert p.exists()
        m = load_csv(p)
        assert m.values.shape == (120, 8)
        labels = (p.parent / "labels.csv").read_text().strip().split("\n")
        assert labels[0] == "axis,index,block"
        assert len(labels) == 1 + 120 + 8
        manifest = json.loads((p.parent / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["blocks"] == "2x2"

    def test_deterministic(self, tmp_path):
        a = _make_planted(tmp_path / "a")
        b = _make_planted(tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_blocks_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "o"), "--blocks", "nope"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_config_flag_is_gone(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("seed = 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cluster")
    data = _make_planted(tmp_path)
    out = tmp_path / "result"
    rc = main(["cluster", "--input", str(data), "--out", str(out), "--seed", "3"])
    return rc, out


class TestCluster:
    def test_exit_zero_and_files(self, run):
        rc, out = run
        assert rc == 0
        for name in ("tree.json", "assignment.csv", "diagnostics.csv", "manifest.json"):
            assert (out / name).exists(), name

    def test_tree_has_root_split(self, run):
        _, out = run
        doc = json.loads((out / "tree.json").read_text())
        assert doc["root"]["status"] == "internal"
        sides = [sorted(c["feature_ids"]) for c in doc["root"]["children"]]
        assert sorted(sides) == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_assignment_covers_every_feature(self, run):
        _, out = run
        lines = (out / "assignment.csv").read_text().strip().split("\n")[1:]
        assert [int(l.split(",")[0]) for l in lines] == list(range(8))

    def test_manifest_names_config(self, run):
        _, out = run
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["master_seed"] == 3
        assert doc["config"]["master_seed"] == 3
        assert doc["command"] == "cluster"

    def test_manifest_has_input_digest(self, run):
        _, out = run
        doc = json.loads((out / "manifest.json").read_text())
        with open(doc["input_path"], "rb") as fh:
            assert doc["input_sha256"] == hashlib.sha256(fh.read()).hexdigest()

    def test_failed_model_fits_do_not_abort_the_run(self, tmp_path):
        """Rounded data with a vanishing ridge makes covariances singular;
        the failing attempts are recorded and the run still writes its tree."""
        src = _make_planted(tmp_path, instances=200, features=16)
        rounded = tmp_path / "rounded.csv"
        np.savetxt(rounded, np.round(np.loadtxt(src, delimiter=",")), fmt="%d", delimiter=",")
        out = tmp_path / "res"
        rc = main(["cluster", "--input", str(rounded), "--out", str(out),
                   "--cov-mode", "full", "--reg-eps", "1e-300"])
        assert rc == 0
        assert json.loads((out / "tree.json").read_text())["root"]["status"]
        rows = (out / "diagnostics.csv").read_text().strip().split("\n")[1:]
        assert any(r.endswith(",0.0,0.0,,singular_cov") for r in rows)

    def test_diagnostics_outcome_column(self, run):
        rc, out = run
        rows = [r.split(",") for r in (out / "diagnostics.csv").read_text().strip().split("\n")]
        assert rows[0][-1] == "outcome"
        outcomes = [r[6] for r in rows[1:]]
        assert "ok" in outcomes
        assert set(outcomes) <= {"ok", "no_overlap", "degenerate_split"}
        for r in rows[1:]:
            assert (r[5] != "") == (r[6] == "ok")

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        rc = main(["cluster", "--input", str(tmp_path / "ghost.csv"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_input_flag_required(self, tmp_path, capsys):
        rc = main(["cluster", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--input" in capsys.readouterr().err

    def test_cut_depth_flag(self, tmp_path):
        data = _make_planted(tmp_path)
        out = tmp_path / "depth1"
        rc = main(["cluster", "--input", str(data), "--out", str(out),
                   "--seed", "3", "--cut-depth", "1"])
        assert rc == 0
        lines = (out / "assignment.csv").read_text().strip().split("\n")[1:]
        assert {int(l.split(",")[1]) for l in lines} == {0, 1}

    def test_negative_cut_depth_rejected_before_work(self, tmp_path):
        data = _make_planted(tmp_path)
        out = tmp_path / "neg"
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--input", str(data), "--out", str(out), "--cut-depth", "-1"])
        assert exc.value.code == 2
        assert not (out / "tree.json").exists()

    def test_multi_character_delimiter_is_usage_error(self, tmp_path, capsys):
        data = _make_planted(tmp_path)
        rc = main(["cluster", "--input", str(data), "--out", str(tmp_path / "o"),
                   "--delimiter", ";;"])
        assert rc == 2
        assert "one character" in capsys.readouterr().err

    def test_paper_posterior_mode_runs(self, tmp_path):
        data = _make_planted(tmp_path)
        out = tmp_path / "paper"
        rc = main(["cluster", "--input", str(data), "--out", str(out),
                   "--seed", "3", "--posterior-mode", "paper",
                   "--max-split-attempts", "3"])
        assert rc == 0

    def test_unreadable_cell_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,x\n")
        rc = main(["cluster", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--em-tol", "nan"), ("--em-tol", "inf"), ("--reg-eps", "nan"), ("--reg-eps", "0"),
    ])
    def test_non_finite_or_non_positive_tolerance_is_usage_error(self, tmp_path, capsys,
                                                                flag, value):
        data = _make_planted(tmp_path)
        out = tmp_path / "o"
        rc = main(["cluster", "--input", str(data), "--out", str(out), flag, value])
        assert rc == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not (out / "tree.json").exists()

    def test_single_feature_is_usage_error(self, tmp_path, capsys):
        thin = tmp_path / "thin.csv"
        thin.write_text("1\n2\n3\n")
        rc = main(["cluster", "--input", str(thin), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        data = _make_planted(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["cluster", "--input", str(data), "--out", str(out),
                         "--seed", "7"]) == 0
            outs.append(out)
        for artifact in ("tree.json", "assignment.csv", "diagnostics.csv"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_threads_do_not_change_artifacts(self, tmp_path):
        data = _make_planted(tmp_path)
        single = tmp_path / "t1"
        double = tmp_path / "t2"
        assert main(["cluster", "--input", str(data), "--out", str(single),
                     "--seed", "7"]) == 0
        assert main(["cluster", "--input", str(data), "--out", str(double),
                     "--seed", "7", "--threads", "2"]) == 0
        for artifact in ("tree.json", "assignment.csv", "diagnostics.csv"):
            assert (single / artifact).read_bytes() == (double / artifact).read_bytes()


# one valid value per config-file key; "true" marks a store_true flag
FILE_SETTINGS = [
    ("has-header", "true"), ("id-column", "true"), ("delimiter", ";"),
    ("seed", "7"), ("som-grid", "3x4"), ("som-epochs", "2"), ("em-tol", "1e-4"),
    ("em-max-iter", "50"), ("cov-mode", "diag"), ("reg-eps", "1e-6"),
    ("max-split-attempts", "4"), ("patience", "2"), ("threshold", "0.4"),
    ("posterior-mode", "paper"), ("gamma-rows", "all"), ("score-source", "raw"),
    ("kmeans-init", "plusplus"), ("threads", "2"), ("cut-depth", "1"),
]


class TestConfigFile:
    def test_keys_are_the_cluster_flags_without_paths(self):
        subcommands = next(a for a in build_parser()._actions if a.dest == "subcommand")
        flags = {
            s[2:] for a in subcommands.choices["cluster"]._actions for s in a.option_strings
            if s.startswith("--")
        }
        assert flags - {"input", "out", "config", "help"} == {k for k, _ in FILE_SETTINGS}

    @pytest.mark.parametrize("key,text", FILE_SETTINGS)
    def test_key_parses_like_its_flag(self, tmp_path, key, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        flag = [f"--{key}"] if text == "true" else [f"--{key}", text]
        dest = key.replace("-", "_")
        expected = getattr(build_parser().parse_args(["cluster", "--out", "o", *flag]), dest)
        from_file = _load_config_file(str(cfg))
        assert from_file == {dest: expected}
        assert type(from_file[dest]) is type(expected)

    @pytest.mark.parametrize("key,text", [
        ("cov-mode", "diagonal"), ("seed", "seven"), ("cut-depth", "-1"), ("threshold", "x"),
        ("som-grid", "3by4"),
    ])
    def test_bad_value_fails_in_file_and_flag(self, tmp_path, capsys, key, text):
        data = _make_planted(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# bad\n{key} = {text}\n")
        out = tmp_path / "o"
        rc = main(["cluster", "--input", str(data), "--out", str(out), "--config", str(cfg)])
        assert rc == 2
        assert f"{cfg}:2: {key}" in capsys.readouterr().err
        assert not (out / "tree.json").exists()
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--input", str(data), "--out", str(out), f"--{key}", text])
        assert exc.value.code == 2

    def test_bad_boolean_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("has-header = maybe\n")
        rc = main(["cluster", "--input", str(tmp_path / "x.csv"), "--out", str(tmp_path / "o"),
                   "--config", str(cfg)])
        assert rc == 2
        assert "expects a boolean" in capsys.readouterr().err

    def test_file_value_applies(self, tmp_path):
        data = _make_planted(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 11\nmax-split-attempts = 4  # keep it quick\n")
        out = tmp_path / "cfgrun"
        rc = main(["cluster", "--input", str(data), "--out", str(out),
                   "--config", str(cfg)])
        assert rc == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["master_seed"] == 11
        assert doc["config"]["max_split_attempts"] == 4

    def test_flag_overrides_file(self, tmp_path):
        data = _make_planted(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 11\n")
        out = tmp_path / "flagwin"
        rc = main(["cluster", "--input", str(data), "--out", str(out),
                   "--config", str(cfg), "--seed", "3",
                   "--max-split-attempts", "4"])
        assert rc == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["master_seed"] == 3

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        data = _make_planted(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("speling = 3\n")
        rc = main(["cluster", "--input", str(data),
                   "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 2
        assert "speling" in capsys.readouterr().err

    def test_malformed_line_is_usage_error(self, tmp_path, capsys):
        data = _make_planted(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        rc = main(["cluster", "--input", str(data),
                   "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 2
        assert "key = value" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        data = _make_planted(tmp_path)
        rc = main(["cluster", "--input", str(data),
                   "--out", str(tmp_path / "o"),
                   "--config", str(tmp_path / "ghost.cfg")])
        assert rc == 2


class TestBench:
    def test_small_bench(self, tmp_path, capsys):
        data = _make_planted(tmp_path)
        out = tmp_path / "bench"
        rc = main(["bench", "--input", str(data), "--out", str(out),
                   "--seeds", "0..2"])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["seeds"] == [0, 1, 2]
        assert doc["modal_frequency"] == 1.0
        lines = (out / "report.csv").read_text().strip().split("\n")
        assert len(lines) == 4
        assert "modal root split frequency 1.00" in capsys.readouterr().out

    def test_empty_seed_list_is_usage_error(self, tmp_path, capsys):
        data = _make_planted(tmp_path)
        rc = main(["bench", "--input", str(data),
                   "--out", str(tmp_path / "o"), "--seeds", ","])
        assert rc == 2

    def test_malformed_seed_list_is_usage_error(self, tmp_path, capsys):
        data = _make_planted(tmp_path)
        out = tmp_path / "o"
        rc = main(["bench", "--input", str(data), "--out", str(out), "--seeds", "x..y"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seeds") and "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_threads_reach_build_tree(self, tmp_path, monkeypatch, source):
        import ppp.synth as synth_mod

        seen = []
        real_build_tree = synth_mod.build_tree

        def build_tree(data, config, threads=1):
            seen.append(threads)
            return real_build_tree(data, config, threads=threads)

        monkeypatch.setattr(synth_mod, "build_tree", build_tree)
        data = _make_planted(tmp_path)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("threads = 2\n")
        extra = ["--threads", "2"] if source == "flag" else ["--config", str(cfg)]
        rc = main(["bench", "--input", str(data), "--out", str(tmp_path / "o"),
                   "--seeds", "0,1", "--max-split-attempts", "2", *extra])
        assert rc == 0
        assert seen == [2, 2]

    def test_cluster_only_key_is_usage_error(self, tmp_path, capsys):
        data = _make_planted(tmp_path)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("seed = 1\ncut-depth = 3\n")
        out = tmp_path / "o"
        rc = main(["bench", "--input", str(data), "--out", str(out), "--config", str(cfg)])
        assert rc == 2
        assert f"{cfg}:2: 'cut-depth'" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestCut:
    def test_recut_saved_tree(self, tmp_path):
        data = _make_planted(tmp_path)
        run_out = tmp_path / "run"
        assert main(["cluster", "--input", str(data), "--out", str(run_out),
                     "--seed", "3"]) == 0
        cut_csv = tmp_path / "recut.csv"
        rc = main(["cut", "--tree", str(run_out / "tree.json"),
                   "--cut-depth", "1", "--out", str(cut_csv)])
        assert rc == 0
        lines = cut_csv.read_text().strip().split("\n")[1:]
        assert len(lines) == 8
        assert {int(l.split(",")[1]) for l in lines} == {0, 1}

    def test_out_directory_gets_default_name(self, tmp_path):
        data = _make_planted(tmp_path)
        run_out = tmp_path / "run"
        assert main(["cluster", "--input", str(data), "--out", str(run_out),
                     "--seed", "3"]) == 0
        cut_dir = tmp_path / "cutdir"
        rc = main(["cut", "--tree", str(run_out / "tree.json"),
                   "--out", str(cut_dir)])
        assert rc == 0
        assert (cut_dir / "assignment.csv").exists()

    def test_negative_cut_depth_rejected(self, tmp_path):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["cut", "--tree", str(tmp_path / "tree.json"), "--cut-depth", "-1",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_missing_tree_is_usage_error(self, tmp_path, capsys):
        rc = main(["cut", "--tree", str(tmp_path / "ghost.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
