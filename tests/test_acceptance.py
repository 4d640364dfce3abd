"""End-to-end acceptance experiments.

Each test prints one verdict line (emitted outside the captured stream so
the summary is always visible in the run log) and then asserts the same
condition. Numbering follows the project's acceptance checklist.
"""

import time

import numpy as np
import pytest

import support
from ppp.cli import main
from ppp.data import DesignMatrix, sq_distances
from ppp.engine import (
    PppConfig,
    accepted_posterior_by_depth,
    build_tree,
    cut_tree,
    split_objective,
)
from ppp.gmm import GaussianMixture, fit_em, responsibilities
from ppp.kmeans import _lloyd_step, kmeans_bisect, kmeans_objective
from ppp.som import SomConfig, _assign, init_som, quantization_error, train_som
from ppp.synth import PlantedSpec, adjusted_rand_index, generate_planted, repeatability_trial


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_verdicts(capsys):
    """Let verdict lines reach the terminal even under captured output."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    if _CAPSYS is None:
        print(line, flush=True)
    else:
        with _CAPSYS.disabled():
            print(line, flush=True)
    return ok


def _data_mixture(X, k, rng):
    """Uniform mixture seeded at k distinct-ish data rows, identity covariance."""
    idx = rng.choice(len(X), size=k, replace=False)
    covs = np.repeat(np.eye(X.shape[1])[None], k, axis=0)
    return GaussianMixture(np.full(k, 1.0 / k), X[idx], covs, "full", 1e-9)


class TestCriterion01EmMonotonicity:
    def test_em_never_decreases_log_likelihood(self):
        start = time.perf_counter()
        worst = 0.0
        for case in range(100):
            rng = np.random.default_rng(1000 + case)
            n = int(rng.integers(20, 201))
            dim = int(rng.integers(1, 6))
            k = int(rng.integers(1, 9))
            X = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0)
            g = _data_mixture(X, min(k, n), rng)
            # tol=0.0 runs all five iterations, the loop every tree's fits run
            trace = fit_em(g, X, tol=0.0, max_iter=5).ll_trace
            worst = max([worst] + [ll - new_ll for ll, new_ll in zip(trace, trace[1:])])
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-8 and elapsed < 60.0
        assert _verdict(1, "EM monotone", ok,
                        f"worst drop {worst:.2e}, {elapsed:.1f}s"), (worst, elapsed)


class TestCriterion02ResponsibilityRows:
    def test_rows_sum_to_one(self):
        worst = 0.0
        for case in range(1000):
            rng = np.random.default_rng(2000 + case)
            n = int(rng.integers(1, 16))
            dim = int(rng.integers(1, 5))
            k = int(rng.integers(1, 7))
            X = rng.standard_normal((n, dim)) * rng.uniform(0.3, 3.0)
            g = _data_mixture(np.vstack([X, rng.standard_normal((k, dim))]), k, rng)
            r = responsibilities(g, X)
            worst = max(worst, float(np.abs(r.sum(axis=1) - 1.0).max()))
        ok = worst <= 1e-12
        assert _verdict(2, "E-step rows normalized", ok,
                        f"worst |sum-1| {worst:.2e} over 1000 cases"), worst


class TestCriterion03Lloyd:
    def test_monotone_and_corpus_optimal(self):
        worst_rise = 0.0
        for trial in range(30):
            rng = np.random.default_rng(3000 + trial)
            points = rng.standard_normal((int(rng.integers(4, 40)), int(rng.integers(1, 4))))
            idx = rng.choice(len(points), size=2, replace=False)
            if np.array_equal(points[idx[0]], points[idx[1]]):
                continue
            # the step kmeans_bisect loops, fed back its own centers
            columns = np.ascontiguousarray(points.T)
            _, centers = _lloyd_step(columns, points[idx])
            obj = kmeans_objective(centers, points)
            for _ in range(8):
                _, centers = _lloyd_step(columns, centers)
                new_obj = kmeans_objective(centers, points)
                worst_rise = max(worst_rise, (new_obj - obj) / max(obj, 1e-300))
                obj = new_obj
        monotone_ok = worst_rise <= 1e-12

        misses = 0
        for i in range(support.LLOYD_CORPUS_SIZE):
            points = support.lloyd_corpus_instance(i)
            best = support.brute_force_bipartition_objective(points)
            found = min(
                kmeans_bisect(points, seed=support.lloyd_restart_seed(i, j)).objective
                for j in range(10)
            )
            if found != best:  # identically-computed objectives, exact compare
                misses += 1
        corpus_ok = misses == 0

        ok = monotone_ok and corpus_ok
        assert _verdict(3, "Lloyd monotone + corpus optimum", ok,
                        f"worst rise {worst_rise:.2e}, corpus misses {misses}/50"), \
            (worst_rise, misses)


@pytest.fixture(scope="module")
def planted_bench():
    """10-seed stability run on the 400 x 40 planted matrix; timed."""
    data = generate_planted(
        PlantedSpec.even(400, 40, (2, 2), gap=4.0, noise_sigma=1.0, seed=11)
    )
    start = time.perf_counter()
    report = repeatability_trial(data.matrix, PppConfig(), range(10))
    elapsed = time.perf_counter() - start
    return data, report, elapsed


class TestCriterion04PlantedRecovery:
    def test_root_split_matches_planted_blocks(self, planted_bench):
        data, report, elapsed = planted_bench
        aris = []
        for pos in range(10):
            if report.root_splits[pos] is None:
                aris.append(0.0)
            else:
                aris.append(adjusted_rand_index(
                    report.split_labels(pos), data.feature_labels
                ))
        hits = sum(a >= 0.95 for a in aris)
        ok = hits >= 9 and elapsed < 300.0
        assert _verdict(4, "planted recovery", ok,
                        f"{hits}/10 seeds ARI>=0.95, min ARI {min(aris):.2f}, "
                        f"{elapsed:.0f}s"), (aris, elapsed)


class TestCriterion05SeedInsensitivity:
    def test_modal_split_frequency(self, planted_bench):
        _, report, _ = planted_bench
        ok = report.modal_frequency >= 0.9
        assert _verdict(5, "initialization insensitivity", ok,
                        f"modal frequency {report.modal_frequency:.2f}"), \
            report.modal_frequency


class TestCriterion06ScoreAlgebra:
    def test_exhaustive_percentage_grid(self):
        ok = True
        for a in range(101):
            for b in range(101):
                score = split_objective(float(a), float(b))
                if a + b == 0:
                    ok &= score is None
                    continue
                ok &= score is not None
                ok &= abs(score * (a + b) - a * b) <= 1e-12 * max(a * b, 1.0)
                if (a, b) == (100, 100):
                    ok &= score == 50.0
                else:
                    ok &= score < 50.0
                if not ok:
                    break
            if not ok:
                break
        assert _verdict(6, "overlap score algebra", ok,
                        "grid 101x101 exhaustive"), (a, b)


class TestCriterion07TerminationBound:
    def test_noise_attempts_bounded(self):
        X = np.random.default_rng(0).standard_normal((200, 20))
        data = DesignMatrix.ingest(X)

        tree = build_tree(data, PppConfig(master_seed=0))
        counts = [len(n.attempts) for n in tree.nodes()]
        statuses = {n.status for n in tree.nodes()}
        bound_ok = max(counts) <= 20 and "open" not in statuses

        # where no attempt ever produces a defined score, the full attempt
        # budget runs and the node stays unsplit: with every feature column
        # equal, no attempt can bisect the columns
        same_columns = DesignMatrix.ingest(np.tile(X[:, :1], (1, 20)))
        root = build_tree(same_columns, PppConfig(master_seed=0)).root
        no_score_ok = (
            len(root.attempts) == 20
            and all(s is None for s in root.score_trace)
            and root.status == "leaf_unsplittable"
        )

        ok = bound_ok and no_score_ok
        assert _verdict(7, "attempt budget respected", ok,
                        f"max attempts {max(counts)}/20, "
                        f"exhausted-budget root: {len(root.attempts)} attempts"), \
            (counts, root.status)


class TestCriterion08CutPartition:
    def test_random_cut_configurations(self):
        rng = np.random.default_rng(8)
        datasets = [
            DesignMatrix.ingest(rng.standard_normal((30, 6))),
            DesignMatrix.ingest(rng.standard_normal((24, 5))),
            generate_planted(PlantedSpec.even(40, 8, (2, 2), 4.0, 1.0, seed=2)).matrix,
            generate_planted(PlantedSpec.even(36, 7, (2, 2), 3.0, 0.8, seed=3)).matrix,
        ]
        configs = [
            PppConfig(master_seed=0, max_split_attempts=4),
            PppConfig(master_seed=1, max_split_attempts=4, patience=2),
            PppConfig(master_seed=2, max_split_attempts=4, patience=1),
            PppConfig(master_seed=3, max_split_attempts=4, score_threshold=0.3),
            PppConfig(master_seed=4, max_split_attempts=4, score_threshold=0.7),
        ]
        trees = [build_tree(d, c) for d in datasets for c in configs]

        checks = 0
        ok = True
        while checks < 200:
            tree = trees[int(rng.integers(len(trees)))]
            depth = None if rng.random() < 0.25 else int(rng.integers(0, 6))
            clusters = cut_tree(tree, depth)
            seen = np.sort(np.concatenate([c.indices for c in clusters]))
            ok &= seen.tolist() == list(range(tree.n_features))
            checks += 1
            if not ok:
                break
        assert _verdict(8, "cuts partition the features", ok,
                        f"{checks} random (tree, depth) cuts over {len(trees)} trees"), \
            checks


class TestCriterion09SomSanity:
    def test_error_drop_and_bmu_oracle(self):
        # sizes start at 150: the codebook is initialized from data rows, so
        # on tiny datasets a large fraction of rows begins at distance zero
        # and the untrained error is biased low
        improved = 0
        for i in range(20):
            rng = np.random.default_rng(9000 + i)
            X = rng.standard_normal((int(rng.integers(150, 401)), int(rng.integers(2, 7))))
            cfg = SomConfig(3, 3, seed=int(rng.integers(1 << 16)))
            model = init_som(cfg, X)
            before = quantization_error(model, X)
            after = train_som(model, X).final_qe
            improved += after <= before
        drop_ok = improved >= 19

        rng = np.random.default_rng(99)
        X = rng.standard_normal((80, 4))
        som = train_som(init_som(SomConfig(3, 4, seed=5), X), X)
        queries = rng.standard_normal((10_000, 4)) * 2.0
        d2 = ((queries[:, None, :] - som.codebook[None, :, :]) ** 2).sum(axis=2)
        expected_unit = d2.argmin(axis=1)  # argmin takes the lowest tied index
        expected_row = d2[np.arange(10_000), expected_unit]
        # the distances every closing pass of the map takes its BMUs from; the
        # scan accumulates in a different order, so the distance is compared
        # to float precision while the unit must match exactly
        sq = sq_distances(queries, som.codebook)
        bmu_ok = (np.array_equal(sq.argmin(axis=1), expected_unit)
                  and bool(np.all(np.abs(sq.min(axis=1) - expected_row) <= 1e-12 * expected_row)))
        hits = _assign(som.codebook, queries)[0]
        bmu_ok &= np.array_equal(hits, np.bincount(expected_unit, minlength=len(som.codebook)))

        ok = drop_ok and bmu_ok
        assert _verdict(9, "SOM quantization sanity", ok,
                        f"{improved}/20 runs improved, 10^4 BMU queries vs scan"), \
            (improved, bmu_ok)


class TestCriterion10Determinism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        synth_dir = tmp_path / "data"
        assert main(["synth", "--out", str(synth_dir), "--instances", "120",
                     "--features", "8", "--seed", "5"]) == 0
        csv_path = synth_dir / "planted.csv"
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(["cluster", "--input", str(csv_path),
                         "--out", str(out), "--seed", "7"]) == 0
            outs.append(out)
        same_tree = (outs[0] / "tree.json").read_bytes() == (outs[1] / "tree.json").read_bytes()
        same_assign = (
            (outs[0] / "assignment.csv").read_bytes()
            == (outs[1] / "assignment.csv").read_bytes()
        )
        ok = same_tree and same_assign
        assert _verdict(10, "byte-identical reruns", ok,
                        f"tree.json {same_tree}, assignment.csv {same_assign}"), ok


class TestCriterion11PosteriorDecay:
    def test_deeper_splits_do_not_gain_posterior(self):
        ib = tuple(tuple(range(100 * i, 100 * (i + 1))) for i in range(4))
        fb = tuple(tuple(range(8 * j, 8 * (j + 1))) for j in range(4))
        means = np.array([
            [9.0, 6.0, 0.0, 0.0],
            [6.0, 9.0, 0.0, 0.0],
            [0.0, 0.0, 9.0, 6.0],
            [0.0, 0.0, 6.0, 9.0],
        ])
        data = generate_planted(PlantedSpec(400, 32, ib, fb, means, 0.5, seed=0))

        first, second = [], []
        for seed in (0, 1, 2):
            by_depth = accepted_posterior_by_depth(
                build_tree(data.matrix, PppConfig(master_seed=seed))
            )
            if 0 in by_depth and 1 in by_depth:
                first.append(by_depth[0])
                second.append(by_depth[1])
        ok = bool(first)
        per_seed_ok = all(s <= f + 0.05 for f, s in zip(first, second))
        mean_ok = bool(first) and np.mean(second) <= np.mean(first) + 0.05
        ok = ok and per_seed_ok and mean_ok
        assert _verdict(
            11, "posterior decay with depth", ok,
            f"mean level-1 {np.mean(first):.3f} vs level-2 {np.mean(second):.3f} "
            f"over {len(first)} seeds"
        ), (first, second)
