"""Grow a full split tree on a two-level planted matrix and read it back.

The matrix hides a hierarchy: 32 features fall into two coarse halves, and
each half into two fine blocks of 8. A correct tree splits coarse first,
fine second, and the cuts at successive depths should track both levels.
"""

import numpy as np

from ppp.engine import (
    PppConfig,
    accepted_posterior_by_depth,
    build_tree,
    cluster_labels,
    cut_tree,
)
from ppp.synth import PlantedSpec, adjusted_rand_index, generate_planted


def hierarchical_matrix(seed=0):
    instance_blocks = tuple(tuple(range(100 * i, 100 * (i + 1))) for i in range(4))
    feature_blocks = tuple(tuple(range(8 * j, 8 * (j + 1))) for j in range(4))
    # feature blocks 0,1 light up on instance blocks 0,1 and blocks 2,3 on the
    # rest, so the coarse structure is halves and the fine structure quarters
    means = np.array([
        [9.0, 6.0, 0.0, 0.0],
        [6.0, 9.0, 0.0, 0.0],
        [0.0, 0.0, 9.0, 6.0],
        [0.0, 0.0, 6.0, 9.0],
    ])
    return generate_planted(
        PlantedSpec(400, 32, instance_blocks, feature_blocks, means, 0.5, seed=seed)
    )


def main():
    data = hierarchical_matrix()
    fine = data.feature_labels
    coarse = fine // 2
    print("400 x 32 matrix, two coarse feature halves, four fine blocks")

    tree = build_tree(data.matrix, PppConfig(master_seed=4))

    print("\nnode    status             features  attempts  score")
    for node in tree.nodes():
        path = node.path or "root"
        score = node.best_eval.score if node.best_eval is not None else None
        score_s = f"{score:7.3f}" if score is not None else "      -"
        print(f"{path:7s} {node.status:18s} {len(node.feature_set):8d} "
              f"{len(node.attempts):9d} {score_s}")

    for depth, truth, label in [(1, coarse, "coarse halves"),
                                (None, fine, "fine blocks")]:
        clusters = cut_tree(tree, depth)
        ari = adjusted_rand_index(cluster_labels(clusters, tree.n_features), truth)
        shown = "leaves" if depth is None else f"depth {depth}"
        print(f"\ncut at {shown}: {len(clusters)} clusters, "
              f"ARI vs planted {label}: {ari:.3f}")
        for k, cluster in enumerate(clusters):
            ids = cluster.indices
            print(f"  cluster {k}: features {ids.min()}..{ids.max()} "
                  f"({len(ids)} of them)")

    by_depth = accepted_posterior_by_depth(tree)
    print("\nmean accepted-split posterior by level:")
    for depth in sorted(by_depth):
        print(f"  level {depth + 1}: {by_depth[depth]:.4f}")
    print("the first split is the easy one; deeper splits work with less signal")
    print("\nnot every master seed resolves both halves down to the fine blocks;"
          "\nsee stability_bench.py for how that is measured across seeds")


if __name__ == "__main__":
    main()
