"""The ppp command line tool, driven through main(argv)."""

import argparse
import functools
import hashlib
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ppp.cli as cli_mod
import ppp.engine as engine_mod
import ppp.fileio as fileio_mod
from ppp.cli import (
    _add_common_config_flags,
    _grid,
    _load_config_file,
    _seeds,
    build_parser,
    main,
)
from ppp.engine import PppConfig
from ppp.fileio import load_csv

README = Path(__file__).resolve().parent.parent / "README.md"


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


def _chain_tree_json(depth: int) -> str:
    """A valid tree.json whose internal nodes split one leaf feature off, ``depth`` levels deep.

    Built as text: ``json.dumps`` itself recurses once per nesting level.
    """
    node = json.dumps({"path": "1" * depth, "status": "leaf_terminal", "feature_ids": [depth]})
    for k in reversed(range(depth)):
        leaf = json.dumps({"path": "1" * k + "0", "status": "leaf_terminal", "feature_ids": [k]})
        node = (f'{{"path": "{"1" * k}", "status": "internal", '
                f'"feature_ids": {list(range(k, depth + 1))}, "children": [{leaf}, {node}]}}')
    return f'{{"n_instances": 1, "n_features": {depth + 1}, "root": {node}}}'


def _cluster_actions():
    subcommands = next(a for a in build_parser()._actions if a.dest == "subcommand")
    return subcommands.choices["cluster"]._actions


class TestParsers:
    def test_grid(self):
        assert _grid("3x5") == (3, 5)
        assert _grid("8X8") == (8, 8)

    def test_bad_grid(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _grid("3by5")

    def test_seed_range(self):
        assert _seeds("0..3") == [0, 1, 2, 3]

    def test_seed_commas(self):
        assert _seeds("1,5,7") == [1, 5, 7]
        assert _seeds("4") == [4]

    @pytest.mark.parametrize("text", ["x..y", "1..", "0..3..5", "1,b"])
    def test_bad_seed_list(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _seeds(text)

    def test_values_arrive_parsed(self):
        """Every value is in its final form once argparse is done."""
        parser = build_parser()
        args = parser.parse_args(["cluster", "--out", "o", "--threshold", "0.4",
                                  "--threads", "2", "--cut-depth", "0"])
        assert (args.score_threshold, args.threads, args.cut_depth) == (0.4, 2, 0)
        assert parser.parse_args(["synth", "--out", "o"]).blocks == (2, 2)
        assert parser.parse_args(["bench", "--out", "o"]).seeds == list(range(10))


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
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "o"), "--blocks", "nope"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert exc.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_failed_model_fits_do_not_abort_the_run(self, tmp_path, monkeypatch):
        """Rounded data with a vanishing ridge makes covariances singular;
        the failing attempts are recorded and the run still writes its tree."""
        vanishing_ridge = functools.partial(engine_mod.init_gmm_from_codebook, reg_epsilon=1e-300)
        monkeypatch.setattr(engine_mod, "init_gmm_from_codebook", vanishing_ridge)
        src = _make_planted(tmp_path, instances=200, features=16)
        rounded = tmp_path / "rounded.csv"
        np.savetxt(rounded, np.round(np.loadtxt(src, delimiter=",")), fmt="%d", delimiter=",")
        out = tmp_path / "res"
        rc = main(["cluster", "--input", str(rounded), "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "tree.json").read_text())["root"]["status"]
        rows = (out / "diagnostics.csv").read_text().strip().split("\n")[1:]
        assert any(r.endswith(",0.0,0.0,,singular_cov,0,0,0") for r in rows)

    def test_diagnostics_outcome_column(self, run):
        rc, out = run
        rows = [r.split(",") for r in (out / "diagnostics.csv").read_text().strip().split("\n")]
        assert rows[0][6] == "outcome"
        outcomes = [r[6] for r in rows[1:]]
        assert "ok" in outcomes
        assert set(outcomes) <= {"ok", "no_overlap", "degenerate_split"}
        for r in rows[1:]:
            assert (r[5] != "") == (r[6] == "ok")

    def test_diagnostics_set_sizes(self, run):
        """core,child_a,child_b count instances; an ok attempt has a nonempty child set."""
        _, out = run
        rows = [r.split(",") for r in (out / "diagnostics.csv").read_text().strip().split("\n")]
        assert rows[0][7:] == ["core", "child_a", "child_b"]
        n_instances = json.loads((out / "tree.json").read_text())["n_instances"]
        for r in rows[1:]:
            core, child_a, child_b = map(int, r[7:])
            assert max(core, child_a, child_b) <= n_instances
            if r[6] == "ok":
                assert core > 0 and child_a + child_b > 0
            elif r[6] != "no_overlap":
                assert child_a == child_b == 0

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        ghost = tmp_path / "ghost.csv"
        for make in (False, True):  # a missing file, then a directory
            if make:
                ghost.mkdir()
            rc = main(["cluster", "--input", str(ghost), "--out", str(tmp_path / "o")])
            assert rc == 2
            err = capsys.readouterr().err
            assert "ghost.csv" in err and "run failed" not in err

    @pytest.mark.parametrize("subcommand", ["cluster", "bench"])
    def test_out_file_fails_before_any_tree(self, tmp_path, capsys, monkeypatch, subcommand):
        import ppp.synth as synth_mod

        built = []
        for module in (cli_mod, synth_mod):
            monkeypatch.setattr(module, "build_tree", lambda *a, **kw: built.append(a))
        data = _make_planted(tmp_path)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        rc = main([subcommand, "--input", str(data), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "taken" in err and "run failed" not in err
        assert built == []

    @pytest.mark.parametrize("subcommand", ["cluster", "bench"])
    def test_bad_setting_fails_before_the_input_is_read(self, tmp_path, capsys, subcommand):
        out = tmp_path / "o"
        rc = main([subcommand, "--threshold", "2", "--input", str(tmp_path / "missing.csv"),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "score_threshold" in err and "missing.csv" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--threads", "--cut-depth"])
    def test_non_integer_count_is_usage_error(self, tmp_path, capsys, flag):
        data = _make_planted(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--input", str(data), "--out", str(out), flag, "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expects an integer, got 'abc'" in err
        assert "invalid" not in err  # argparse's "invalid <type> value" names the function
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = abc\n")
        assert main(["cluster", "--input", str(data), "--out", str(out),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:1: {flag[2:]}: expects an integer, got 'abc'" in err
        assert "invalid" not in err
        assert not out.exists()

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

    def test_unreadable_cell_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,x\n")
        rc = main(["cluster", "--input", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "'x'" in capsys.readouterr().err

    def test_single_feature_is_usage_error(self, tmp_path, capsys):
        thin = tmp_path / "thin.csv"
        thin.write_text("1\n2\n3\n")
        rc = main(["cluster", "--input", str(thin), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("subcommand, instances, features",
                             [("cluster", 200, 16), ("cluster", 48, 640), ("bench", 200, 16)])
    def test_entries_too_large_to_square_are_usage_errors(
        self, tmp_path, capsys, subcommand, instances, features
    ):
        data = _make_planted(tmp_path, instances=instances, features=features, seed=1)
        big = tmp_path / "big.csv"
        np.savetxt(big, load_csv(data).values * 1e160, delimiter=",", fmt="%.17g")
        out = tmp_path / "o"
        rc = main([subcommand, "--input", str(big), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "exceeds" in err and "run failed" not in err
        assert list(out.iterdir()) == []  # nothing written, no tree.json or report.json


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
    ("seed", "7"), ("max-split-attempts", "4"), ("patience", "2"), ("threshold", "0.4"),
    ("threads", "2"), ("cut-depth", "1"),
]


class TestConfigFile:
    def test_keys_are_the_cluster_flags_without_paths(self):
        flags = {
            s[2:] for a in _cluster_actions() for s in a.option_strings if s.startswith("--")
        }
        assert flags - {"input", "out", "config", "help"} == {k for k, _ in FILE_SETTINGS}

    def test_config_flags_are_the_config_fields(self):
        """Every tree setting flag lands in a PppConfig field and every field has a flag."""
        parser = argparse.ArgumentParser(add_help=False)
        _add_common_config_flags(parser)
        dests = {a.dest for a in parser._actions} - {"config", "threads"}
        assert dests == {f.name for f in fields(PppConfig)}

    def test_readme_example_lists_every_setting(self, tmp_path):
        """README's ini block loads as a config file and names every tree setting,
        plus threads and cut-depth."""
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.DOTALL).group(1)
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(block)
        loaded = _load_config_file(str(cfg))
        assert {f.name for f in fields(PppConfig)} | {"threads", "cut_depth"} <= set(loaded)

    @pytest.mark.parametrize("key,text", FILE_SETTINGS)
    def test_key_parses_like_its_flag(self, tmp_path, key, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        flag = [f"--{key}"] if text == "true" else [f"--{key}", text]
        dest = next(a.dest for a in _cluster_actions() if f"--{key}" in a.option_strings)
        expected = getattr(build_parser().parse_args(["cluster", "--out", "o", *flag]), dest)
        from_file = _load_config_file(str(cfg))
        assert from_file == {dest: expected}
        assert type(from_file[dest]) is type(expected)

    @pytest.mark.parametrize("key,text", [
        ("seed", "seven"), ("cut-depth", "-1"), ("threshold", "x"), ("threads", "0"),
        ("threads", "-3"),
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

    @pytest.mark.parametrize("key,text", [
        ("som-epochs", "5"), ("em-tol", "1e-4"), ("em-max-iter", "100"), ("reg-eps", "1e-6"),
        ("som-grid", "8x8"), ("cov-mode", "full"),
    ])
    def test_fixed_tree_constants_are_not_settings(self, tmp_path, capsys, key, text):
        """Map epochs, EM tolerance, EM iteration cap and ridge are constants; each
        node sizes its map grid from its rows and picks its covariance shape from
        its columns."""
        data = _make_planted(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--input", str(data), "--out", str(out), f"--{key}", text])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{key}" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        rc = main(["cluster", "--input", str(data), "--out", str(out), "--config", str(cfg)])
        assert rc == 2
        assert f"{cfg}:1: unknown config key {key!r}" in capsys.readouterr().err
        assert not (out / "tree.json").exists()

    def test_tab_delimiter_from_file(self, tmp_path):
        """A config file names a tab as \\t; its values are stripped, so a literal
        tab would read as an empty delimiter."""
        X = np.loadtxt(_make_planted(tmp_path), delimiter=",")
        tsv = tmp_path / "genes.tsv"
        names = [f"g{j}" for j in range(X.shape[1])]
        np.savetxt(tsv, X, delimiter="\t", header="\t".join(names), comments="")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delimiter = \\t\nhas-header = true\n")
        out = tmp_path / "o"
        rc = main(["cluster", "--input", str(tsv), "--out", str(out), "--config", str(cfg)])
        assert rc == 0
        rows = (out / "assignment.csv").read_text().strip().split("\n")
        assert [r.split(",")[0] for r in rows[1:]] == names

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
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--input", str(data), "--out", str(tmp_path / "o"), "--seeds", ","])
        assert exc.value.code == 2
        assert "argument --seeds: must name at least one seed" in capsys.readouterr().err

    def test_malformed_seed_list_is_usage_error(self, tmp_path, capsys):
        data = _make_planted(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--input", str(data), "--out", str(out), "--seeds", "x..y"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seeds: must look like" in err and "Traceback" not in err
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


class TestManifest:
    @pytest.mark.parametrize("subcommand", ["cluster", "bench", "synth"])
    def test_eight_keys(self, tmp_path, subcommand):
        """Each subcommand's manifest records its seed, and the digest of its
        input bytes (null for synth, which reads none)."""
        data = _make_planted(tmp_path)
        out = tmp_path / "o"
        if subcommand == "synth":
            argv = ["synth", "--out", str(out), "--instances", "30", "--features", "4"]
        else:
            argv = [subcommand, "--input", str(data), "--out", str(out)]
        argv += ["--seed", "9"] + (["--seeds", "0,1"] if subcommand == "bench" else [])
        assert main(argv) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert sorted(doc) == ["command", "config", "created_utc", "input_path",
                               "input_sha256", "master_seed", "output_paths", "tool_version"]
        assert doc["command"] == subcommand
        assert doc["master_seed"] == 9
        assert doc["output_paths"]["manifest"] == str(out / "manifest.json")
        if subcommand == "synth":
            assert doc["input_path"] is None and doc["input_sha256"] is None
            assert doc["config"]["seed"] == 9
        else:
            assert doc["input_sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()
            assert doc["config"]["master_seed"] == 9


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

    def test_each_subcommand_cuts_once(self, tmp_path, monkeypatch, capsys):
        """The printed cluster count is that of the written cut, not of a second walk."""
        data = _make_planted(tmp_path)
        calls = []
        real = engine_mod.cut_tree

        def cut_tree(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (engine_mod, fileio_mod, cli_mod):
            monkeypatch.setattr(module, "cut_tree", cut_tree, raising=False)
        run_out = tmp_path / "run"
        assert main(["cluster", "--input", str(data), "--out", str(run_out), "--seed", "3"]) == 0
        assert len(calls) == 1
        cut_csv = tmp_path / "recut.csv"
        assert main(["cut", "--tree", str(run_out / "tree.json"), "--cut-depth", "1",
                     "--out", str(cut_csv)]) == 0
        assert len(calls) == 2
        ids = {line.split(",")[1] for line in cut_csv.read_text().strip().split("\n")[1:]}
        assert f"clusters: {len(ids)};" in capsys.readouterr().out

    def test_negative_cut_depth_rejected(self, tmp_path):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["cut", "--tree", str(tmp_path / "tree.json"), "--cut-depth", "-1",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        "not json",
        {"n_instances": 1, "n_features": 2,
         "root": {"path": "", "status": "leaf_terminal", "feature_ids": [0, 7]}},
        {"n_instances": 1, "n_features": 2,
         "root": {"path": "", "status": "internal", "feature_ids": [0, 1], "children": [
             {"path": "0", "status": "leaf_terminal", "feature_ids": [0, 1]},
             {"path": "1", "status": "leaf_terminal", "feature_ids": [1]},
         ]}},
        {"n_instances": 1, "n_features": 2,
         "root": {"path": "", "status": "leaf_terminal", "feature_ids": [0, 1, 1]}},
        {"n_instances": 1, "n_features": 2,
         "root": {"path": "", "status": "leaf", "feature_ids": [0, 1]}},
        {"n_instances": 1, "n_features": 2,
         "root": {"path": "", "status": "internal", "feature_ids": [0, 1]}},
        {"n_instances": 1, "n_features": 2,
         "root": {"path": "", "status": "leaf_unsplittable", "feature_ids": [0, 1],
                  "children": [
                      {"path": "0", "status": "leaf_terminal", "feature_ids": [0]},
                      {"path": "1", "status": "leaf_terminal", "feature_ids": [1]},
                  ]}},
        *({"n_instances": 1, "n_features": 2, "feature_names": names,
           "root": {"path": "", "status": "leaf_terminal", "feature_ids": [0, 1]}}
          for names in (["a"], "ab", ["a", "a"])),
        {"n_instances": 1, "n_features": 2,
         "root": {"path": "", "status": "leaf_terminal", "feature_ids": [0, 2**70]}},
        {"n_instances": 1, "n_features": 2,
         "root": {"path": "", "status": "internal", "feature_ids": [0, 1], "children": [
             {"path": "00", "status": "leaf_terminal", "feature_ids": [0]},
             {"path": "1", "status": "leaf_terminal", "feature_ids": [1]},
         ]}},
        _chain_tree_json(600),
    ], ids=["not-json", "out-of-range-id", "overlapping-children", "repeated-id",
            "unknown-status", "childless-internal", "leaf-with-children",
            "short-name-table", "string-name-table", "repeated-name", "huge-id",
            "path-off-shape", "too-deep"])
    def test_malformed_tree_is_usage_error(self, tmp_path, capsys, doc):
        tree = tmp_path / "tree.json"
        tree.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        out = tmp_path / "o"
        rc = main(["cut", "--tree", str(tree), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "is not a tree export" in err and "run failed" not in err
        assert not (out / "assignment.csv").exists()

    def test_missing_tree_is_usage_error(self, tmp_path, capsys):
        ghost = tmp_path / "ghost.json"
        for make in (False, True):  # a missing file, then a directory
            if make:
                ghost.mkdir()
            rc = main(["cut", "--tree", str(ghost), "--out", str(tmp_path / "o")])
            assert rc == 2
            err = capsys.readouterr().err
            assert "ghost.json" in err and "run failed" not in err
