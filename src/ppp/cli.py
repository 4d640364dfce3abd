"""Command line interface: cluster, synth, bench and cut subcommands.

Cluster and bench settings resolve in three layers: package defaults, then a
key=value config file (``--config``), then explicit command line flags. Exit
codes: 0 success, 1 a run failed partway, 2 bad usage or bad input.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from ._version import __version__
from .engine import PppConfig, accepted_posterior_by_depth, build_tree
from .errors import ConfigError, FormatError, ParseError, PppError, ValidationError
from .fileio import (
    export_assignment_csv,
    export_diagnostics_csv,
    export_matrix_csv,
    export_report,
    export_tree_json,
    load_csv,
    load_tree_json,
    write_manifest,
)
from .synth import PlantedSpec, generate_planted, repeatability_trial

log = logging.getLogger(__name__)

_USAGE_ERRORS = (ConfigError, ParseError, FormatError, ValidationError)


def _grid(text: str) -> tuple[int, int]:
    """``RxC`` type of ``synth --blocks``."""
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like RxC, got {text!r}") from None


def _seeds(text: str) -> list[int]:
    """``bench --seeds`` type: a "0..9" range (inclusive) or a comma list like "1,5,7"."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f'must look like "0..9" or "1,5,7", got {text!r}') from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"must name at least one seed, got {text!r}")
    return seeds


def _at_least(low: int):
    """Type of an integer flag whose values start at ``low``."""
    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _delimiter(text: str) -> str:
    """``--delimiter`` type: the two characters ``\\t`` name a tab, which a
    config file cannot hold (its values are stripped); ``load_csv`` checks
    that a delimiter is one character."""
    return "\t" if text == "\\t" else text


_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _file_value(action: argparse.Action, text: str):
    """Parse a config-file value the way its flag parses an argument."""
    if action.nargs == 0:  # a store_true flag takes a boolean
        if text.lower() not in _BOOLEANS:
            raise ValueError(f"expects a boolean, got {text!r}")
        return _BOOLEANS[text.lower()]
    return text if action.type is None else action.type(text)


def _load_config_file(path: str, settable=None) -> dict:
    """Flat key = value lines; '#' starts a comment.

    The keys are the ``cluster`` flags apart from the paths, spelled without
    the leading dashes; a key whose destination is not in ``settable`` (the
    running subcommand's settings, when given) is an error too. Returns the
    parsed values by flag destination.
    """
    schema = argparse.ArgumentParser(add_help=False)
    _add_cluster_flags(schema)
    actions = {
        a.option_strings[0][2:]: a for a in schema._actions
        if a.dest not in ("input", "out", "config")
    }
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                if "=" not in line:
                    raise ConfigError(f"{where}: expected key = value, got {raw!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in actions:
                    raise ConfigError(f"{where}: unknown config key {key!r}")
                if settable is not None and actions[key].dest not in settable:
                    raise ConfigError(f"{where}: {key!r} is not a setting of this subcommand")
                try:
                    values[actions[key].dest] = _file_value(actions[key], value)
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise ConfigError(f"{where}: {key}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return values


def _apply_config_file(args) -> None:
    """Fill each setting not given as a flag from the ``--config`` file, if any."""
    if args.config:
        for dest, value in _load_config_file(args.config, vars(args)).items():
            if getattr(args, dest, None) is None:
                setattr(args, dest, value)


def _build_config(args) -> PppConfig:
    """A PppConfig from the settings that are set; the others keep their defaults."""
    settings = vars(args)
    return PppConfig(**{
        f.name: settings[f.name] for f in fields(PppConfig) if settings.get(f.name) is not None
    })


def _load_input(args):
    path = args.input
    if path is None:
        raise ConfigError("--input is required")
    try:
        return load_csv(path, has_header=bool(args.has_header), id_column=bool(args.id_column),
                        delimiter="," if args.delimiter is None else args.delimiter)
    except OSError as exc:
        raise ConfigError(f"cannot read input file {path}: {exc}") from None


def _out_dir(path) -> Path:
    """The output directory at ``path``, made if missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc}") from None
    return Path(path)


def run_cluster(args) -> int:
    _apply_config_file(args)
    config = _build_config(args)
    matrix = _load_input(args)
    out = _out_dir(args.out)
    cut_depth = args.cut_depth

    tree = build_tree(matrix, config, threads=args.threads or 1)

    paths = {
        "tree": out / "tree.json",
        "assignment": out / "assignment.csv",
        "diagnostics": out / "diagnostics.csv",
        "manifest": out / "manifest.json",
    }
    export_tree_json(tree, paths["tree"], feature_ids=matrix.feature_ids)
    clusters = export_assignment_csv(
        tree, paths["assignment"], depth=cut_depth, feature_ids=matrix.feature_ids
    )
    export_diagnostics_csv(tree, paths["diagnostics"])
    write_manifest(paths["manifest"], "cluster", paths, config.master_seed, asdict(config),
                   args.input)

    print(f"clusters: {len(clusters)} ({'leaves' if cut_depth is None else f'depth {cut_depth}'})")
    by_depth = accepted_posterior_by_depth(tree)
    for depth in sorted({n.depth for n in tree.nodes() if n.status == "internal"}):
        scores = [
            n.best_eval.score for n in tree.nodes()
            if n.depth == depth and n.status == "internal"
        ]
        posterior = by_depth.get(depth)
        posterior_text = "" if posterior is None else f", mean accepted posterior {posterior:.3f}"
        print(
            f"depth {depth}: {len(scores)} splits, mean score {np.mean(scores):.2f}{posterior_text}"
        )
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    return 0


def run_synth(args) -> int:
    seed = args.seed or 0
    spec = PlantedSpec.even(
        n_instances=args.instances,
        n_features=args.features,
        shape=args.blocks,
        gap=args.gap,
        noise_sigma=args.noise,
        seed=seed,
    )
    planted = generate_planted(spec)

    out = _out_dir(args.out)
    paths = {"data": out / "planted.csv", "labels": out / "labels.csv", "manifest": out / "manifest.json"}
    export_matrix_csv(planted.matrix, paths["data"])
    with open(paths["labels"], "w", newline="") as fh:
        fh.write("axis,index,block\n")
        for i, label in enumerate(planted.instance_labels):
            fh.write(f"instance,{i},{int(label)}\n")
        for j, label in enumerate(planted.feature_labels):
            fh.write(f"feature,{j},{int(label)}\n")
    settings = {"instances": args.instances, "features": args.features,
                "blocks": "{}x{}".format(*args.blocks), "gap": args.gap, "noise": args.noise,
                "seed": seed}
    write_manifest(paths["manifest"], "synth", paths, seed, settings)
    print(f"wrote {paths['data']} ({args.instances}x{args.features}) and {paths['labels']}")
    return 0


def run_bench(args) -> int:
    _apply_config_file(args)
    config = _build_config(args)
    matrix = _load_input(args)
    out = _out_dir(args.out)

    report = repeatability_trial(matrix, config, args.seeds, threads=args.threads or 1)

    paths = {"report": out / "report.json", "per_seed": out / "report.csv", "manifest": out / "manifest.json"}
    export_report(report, paths["report"], paths["per_seed"])
    write_manifest(paths["manifest"], "bench", paths, config.master_seed, asdict(config),
                   args.input)

    off_diagonal = report.pairwise_ari[~np.eye(len(args.seeds), dtype=bool)]
    mean_ari = float(off_diagonal.mean()) if off_diagonal.size else 1.0
    print(f"seeds: {len(args.seeds)}, modal root split frequency {report.modal_frequency:.2f}, "
          f"mean pairwise leaf ARI {mean_ari:.3f}")
    print(f"wrote {paths['report']} and {paths['per_seed']}")
    return 0


def run_cut(args) -> int:
    try:
        tree, feature_names = load_tree_json(args.tree)
    except OSError as exc:
        raise ConfigError(f"cannot read tree file {args.tree}: {exc}") from None
    out = Path(args.out)
    target = out if out.suffix else out / "assignment.csv"
    _out_dir(target.parent)
    clusters = export_assignment_csv(tree, target, depth=args.cut_depth, feature_ids=feature_names)
    print(f"clusters: {len(clusters)}; wrote {target}")
    return 0


def _add_common_input_flags(sub) -> None:
    sub.add_argument("--input", help="numeric CSV to cluster")
    sub.add_argument("--has-header", action="store_true", default=None,
                     help="first line is feature names")
    sub.add_argument("--id-column", action="store_true", default=None,
                     help="first column is instance ids")
    sub.add_argument("--delimiter", type=_delimiter, default=None,
                     help=r"field delimiter, \t for a tab (default ,)")


def _add_common_config_flags(sub) -> None:
    sub.add_argument("--config", help="key = value settings file (flags win)")
    sub.add_argument("--seed", dest="master_seed", type=int, default=None,
                     help="master random seed")
    sub.add_argument("--max-split-attempts", type=int, default=None,
                     help="seeded attempts per node (default 20)")
    sub.add_argument("--patience", type=int, default=None,
                     help="non-improving attempts before giving up (default 5)")
    sub.add_argument("--threshold", dest="score_threshold", type=float, default=None,
                     help="score threshold for core and child sets (default 0.5)")
    sub.add_argument("--threads", type=_at_least(1), default=None,
                     help="worker threads for tree growth (default 1)")


def _add_cluster_flags(sub) -> None:
    _add_common_input_flags(sub)
    _add_common_config_flags(sub)
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--cut-depth", type=_at_least(0), default=None,
                     help="flatten the tree at this depth (default: leaves)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppp",
        description="Feature clustering by recursive bisection with posterior validation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    cluster = subs.add_parser("cluster", help="cluster the features of a CSV matrix")
    _add_cluster_flags(cluster)
    cluster.set_defaults(func=run_cluster)

    synth = subs.add_parser("synth", help="generate a planted block matrix")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--instances", type=int, default=200, help="rows (default 200)")
    synth.add_argument("--features", type=int, default=20, help="columns (default 20)")
    synth.add_argument("--blocks", type=_grid, default="2x2", metavar="RxC",
                       help="instance x feature block counts (default 2x2)")
    synth.add_argument("--gap", type=float, default=4.0, help="block mean separation")
    synth.add_argument("--noise", type=float, default=1.0, help="noise sigma")
    synth.add_argument("--seed", type=_at_least(0), default=None, help="generator seed")
    synth.set_defaults(func=run_synth)

    bench = subs.add_parser("bench", help="measure run-to-run stability")
    _add_common_input_flags(bench)
    _add_common_config_flags(bench)
    bench.add_argument("--out", required=True, help="output directory")
    bench.add_argument("--seeds", type=_seeds, default="0..9",
                       help='master seeds, "0..9" or "1,5,7" (default 0..9)')
    bench.set_defaults(func=run_bench)

    cut = subs.add_parser("cut", help="re-cut a saved tree into flat clusters")
    cut.add_argument("--tree", required=True, help="tree.json from a cluster run")
    cut.add_argument("--cut-depth", type=_at_least(0), default=None,
                     help="frontier depth (default: leaves)")
    cut.add_argument("--out", required=True, help="output CSV path or directory")
    cut.set_defaults(func=run_cut)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("PPP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PppError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last resort
        log.exception("unexpected failure")
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
