"""Is the root split an artifact of the random seed?

The whole point of scoring splits through quantization and mixture overlap
is that the accepted partition should not depend on where k-means happened
to start. This runs the same data through ten master seeds and tallies how
often the root bipartition agrees. The CLI form of the same experiment is
`ppp bench --input data.csv --seeds 0..9`.
"""

from ppp.engine import PppConfig
from ppp.synth import PlantedSpec, adjusted_rand_index, generate_planted, repeatability_trial


def main():
    data = generate_planted(
        PlantedSpec.even(200, 16, (2, 2), gap=4.0, noise_sigma=1.0, seed=1)
    )
    seeds = range(10)
    report = repeatability_trial(data.matrix, PppConfig(), seeds)

    print(f"matrix 200 x 16, planted feature halves, {len(report.root_splits)} seeds")
    print(f"modal root split frequency: {report.modal_frequency:.2f}")
    print("\nroot bipartitions seen:")
    for split, freq in report.split_frequencies:
        if split is None:
            print(f"  {freq:.2f}  (no accepted split)")
        else:
            left, right = split
            print(f"  {freq:.2f}  {{{', '.join(map(str, left))}}} | "
                  f"{{{', '.join(map(str, right))}}}")

    aris = []
    for pos in range(len(report.root_splits)):
        if report.root_splits[pos] is not None:
            aris.append(adjusted_rand_index(
                report.split_labels(pos), data.feature_labels))
    print(f"\nARI vs the planted halves, per seed: "
          + ", ".join(f"{a:.2f}" for a in aris))

    scores = [s for s in report.root_scores if s is not None]
    print(f"root split score across seeds: min {min(scores):.3f}, "
          f"max {max(scores):.3f}")


if __name__ == "__main__":
    main()
