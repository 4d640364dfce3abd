"""ppp-cluster benchmark: one workload on one data seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload planted_small_full --seed 1 --seconds 48 --trace 0

The process pins BLAS to one thread and builds trees one at a time
(``threads=1``, a closed loop). The tree count is fixed per workload so that
a run lasts about ``--seconds`` at the reference speed (``Workload.trees``);
tree k uses master seed k on its own input drawn from (``--seed``, k), so
every commit builds the same trees. Each tree is checked (see ``checks.py``).
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` a fixed number of trees is built twice each, once untraced and
once under the span tracer, and the last line holds the per-layer metrics.
Earlier stdout lines carry the environment and the tree digests; the full
record goes to ``perfbench/results/``.
"""

import os

# Pin BLAS before numpy is imported anywhere in this process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from math import exp, log  # noqa: E402
from statistics import fmean, median  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"  # metric names and units
RESULTS = HERE / "results"
TRACE_TREES = 5  # trees a traced run builds, each once untraced and once traced
IMPORT_TRIES = 8  # fresh ``import ppp`` timings in a plain run, spread over its trees
IMPORT_PROBE = "import time; t = time.perf_counter(); import ppp; print(time.perf_counter() - t)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ppp-cluster benchmark, one workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="data seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def import_seconds() -> float:
    """Time ``import ppp`` in a fresh interpreter (numpy and scipy included)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def run_tree(session, k: int, tracer=None) -> dict:
    """Build and check tree k; a raised error or failed check marks it failed."""
    import checks

    record = {"tree": k, "traced": tracer is not None, "problems": []}
    for stale in (session.tree_path, session.assignment_path):
        stale.unlink(missing_ok=True)
    try:
        record["input_s"] = session.prepare(k)
        record["seconds"] = session.build(k, tracer)
        record.update(asdict(checks.inspect(
            session.tree_path, session.assignment_path, session.feature_labels
        )))
    except Exception as exc:  # a failed tree is counted, and the run goes on
        record["problems"].append(f"{type(exc).__name__}: {exc}")
    for problem in record["problems"]:
        print(f"tree {k}: {problem}", file=sys.stderr)
    return record


def plain_run(session, n_trees: int) -> list[dict]:
    """Trees 0 .. n_trees - 1, with ``IMPORT_TRIES`` set-up tries spread among them.

    A try is one timed ``import ppp`` in a fresh interpreter, just before a
    tree. Spread over the run, the tries meet the host in its fast and its
    slow moments, and ``end_to_end`` keeps their minimum. One untimed import
    comes first, to warm the file cache.
    """
    import_seconds()
    tries_before = {i * n_trees // IMPORT_TRIES for i in range(IMPORT_TRIES)}
    trees = []
    for k in range(n_trees):
        tried = {"import_s": import_seconds()} if k in tries_before else {}
        trees.append(dict(run_tree(session, k), **tried))
    return trees


def traced_run(session, n_trees: int, tracer) -> list[dict]:
    """Each tree untraced, then traced; the traced tree must not change."""
    trees: list[dict] = []
    for k in range(n_trees):
        plain = run_tree(session, k)
        first_span = len(tracer.names)
        tracer.tree = k
        tracer.install()
        try:
            traced = run_tree(session, k, tracer)
        finally:
            tracer.restore()
        spans = tracer.nesting_problems(first_span) + tracer.self_time_problems(first_span)
        if not plain["problems"] and not traced["problems"] and plain["digest"] != traced["digest"]:
            spans.append("tracing changed the tree")
        for problem in spans:
            print(f"tree {k} (traced): {problem}", file=sys.stderr)
        traced["problems"] += spans
        trees += [plain, traced]
    return trees


def end_to_end(trees: list[dict]) -> dict:
    ok = [t for t in trees if not t["problems"]]
    times = [t["seconds"] for t in ok]
    setup_s = min(t["import_s"] for t in trees if "import_s" in t) + min(
        t["input_s"] for t in trees if "input_s" in t
    )

    def mean_of(key):
        return fmean(t[key] for t in ok) if ok else 0.0

    return {
        "tree_s.gmean": exp(fmean(map(log, times))) if times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "ari_depth1": mean_of("ari_depth1"),
        "ari_leaves": mean_of("ari_leaves"),
        "leaves": mean_of("leaves"),
        "ok_frac": len(ok) / len(trees),
    }


def per_layer(trees: list[dict], tracer, n_blocks: int) -> dict:
    traced = [t for t in trees if t["traced"] and not t["problems"]]
    plain = [t for t in trees if not t["traced"] and not t["problems"]]
    if not traced or not plain:
        return {}
    values = tracer.layer_metrics([t["tree"] for t in traced])
    traced_p50 = median(t["seconds"] for t in traced)
    values["trace.tree_s.p50"] = traced_p50
    values["trace.overhead_frac"] = traced_p50 / median(t["seconds"] for t in plain) - 1.0
    values["quality.leaf_excess"] = fmean(t["leaves"] for t in traced) - n_blocks
    values["engine.attempts_per_s"] = (
        sum(t["attempts"] for t in plain) / sum(t["seconds"] for t in plain)
    )
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ppp" / "__init__.py").is_file():
        print(f"run.py: no ppp sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ppp  # the first import compiles the sources; set-up timing starts after it

    if Path(ppp.__file__).resolve().parent != (SRC / "ppp").resolve():
        print(f"run.py: imported ppp from {ppp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import BLOCKS, WORKLOADS, Session

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer() if args.trace else None
    try:
        session = Session(workload, args.seed, workdir)
        if tracer is None:
            trees = plain_run(session, workload.trees(args.seconds))
            metrics = end_to_end(trees)
        else:
            trees = traced_run(session, TRACE_TREES, tracer)
            metrics = per_layer(trees, tracer, BLOCKS[1])
            tracer.write(RESULTS / f"{stem}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    failed = sum(1 for t in trees if t["problems"])
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(trees),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        } if metrics else {},
    }
    env = environment()
    digests = {str(t["tree"]): t["digest"] for t in trees if "digest" in t}
    times = [t["seconds"] for t in trees if not t["problems"]]
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "tree_s.p50": median(times) if times else None,
              "trees": trees, "result": result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps({"digests": {"workload": workload.name, "seed": args.seed,
                                  "trees": digests}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
