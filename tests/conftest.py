"""Session fixtures: the shared planted input, its tree and report, and the golden trees.

Each fixture makes what it hands out once per session, and the tests treat
it as read-only. A snapshot taken when it is made is compared at session
end, so a test that changes a shared input, tree or report errors at
teardown instead of silently changing what later tests see. A test that must
mutate a tree grows its own.
"""

import golden
import pytest

from ppp.engine import PppConfig, build_tree
from ppp.synth import PlantedSpec, generate_planted, repeatability_trial


def _planted_snapshot(planted):
    return (planted.matrix.values.tobytes(), planted.instance_labels.tobytes(),
            planted.feature_labels.tobytes())


def _tree_snapshot(tree):
    """Per node: path, status, feature ids and attempt scores."""
    return [(n.path, n.status, tuple(n.feature_set.indices.tolist()),
             tuple(a.score for a in n.attempts))
            for n in tree.nodes()]


def _report_snapshot(report):
    return report.seeds, report.root_splits, report.leaf_labels.tolist()


def _guard(request, name, value, snapshot):
    """Hand out ``value``, checking at session end that ``snapshot(value)`` held."""
    before = snapshot(value)

    def unchanged():
        assert snapshot(value) == before, f"a test changed the shared {name}"

    request.addfinalizer(unchanged)
    return value


@pytest.fixture(scope="session")
def planted120(request):
    """120 x 8 two-block matrix, features 0-3 vs 4-7, noisy enough that the
    density threshold keeps a usable core set."""
    planted = generate_planted(PlantedSpec.even(120, 8, (2, 2), gap=4.0, noise_sigma=1.0, seed=5))
    return _guard(request, "planted120 input", planted, _planted_snapshot)


@pytest.fixture(scope="session")
def planted120_tree(request, planted120):
    """The master-seed-3 tree of ``planted120``."""
    tree = build_tree(planted120.matrix, PppConfig(master_seed=3))
    return _guard(request, "planted120 tree", tree, _tree_snapshot)


@pytest.fixture(scope="session")
def planted120_report(request, planted120):
    """``repeatability_trial`` of ``planted120`` over master seeds 0-2."""
    report = repeatability_trial(planted120.matrix, PppConfig(), [0, 1, 2])
    return _guard(request, "planted120 report", report, _report_snapshot)


@pytest.fixture(scope="session")
def golden_tree(request):
    """``golden_tree(name)`` is the tree of golden case ``name``, grown on first use."""
    trees = {}

    def get(name):
        if name not in trees:
            trees[name] = _guard(request, f"golden tree {name}", golden.grow(name),
                                 _tree_snapshot)
        return trees[name]

    return get
