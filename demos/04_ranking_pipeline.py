"""End-to-end ranking pipeline: synthesize, aggregate, embed, plot.

A full ranking of m items is a permutation once an item order is fixed, so
a preference dataset becomes a weighted set of points in S_m. This script
builds a synthetic election-sized dataset over 5 items, embeds the
observed permutations in 3 coordinates of the dominant spectral block, and
writes a deterministic SVG scatter (area = frequency, color = third
coordinate).

Writes ranking_demo.{txt,csv,svg} into the working directory.
"""

from pathlib import Path

from groupmds import embedding_to_csv
from groupmds.plotting import scatter_svg
from groupmds.rankings import (
    aggregate,
    dataset_to_text,
    embed_dataset,
    parse_rankings,
    synthesize_rankings,
)

dataset = synthesize_rankings(n_items=5, n_rows=5738, seed=7)
Path("ranking_demo.txt").write_text(dataset_to_text(dataset))
print(f"synthesized {dataset.total_count} rankings of {dataset.n_items} items")

parsed = parse_rankings(Path("ranking_demo.txt").read_text())
samples = aggregate(parsed)
print(f"aggregated to {len(samples)} distinct permutations "
      f"(weights sum to {sum(s.weight for s in samples)})")
heaviest = max(samples, key=lambda s: s.weight)
print(f"most frequent permutation: {heaviest.permutation} seen {heaviest.weight} times")

emb = embed_dataset(samples, n=5, dims=3)
print(f"embedded into {emb.coordinates.shape[1]} coordinates, "
      f"column eigenvalues {tuple(round(v, 6) for v in emb.eigenvalues)}")
Path("ranking_demo.csv").write_text(embedding_to_csv(emb))

points = [
    (emb.coordinates[i, 0], emb.coordinates[i, 1], emb.weights[i], emb.coordinates[i, 2])
    for i in range(len(samples))
]
Path("ranking_demo.svg").write_text(scatter_svg(points))
print("wrote ranking_demo.txt, ranking_demo.csv, ranking_demo.svg")
print("(rerunning this script reproduces all three byte-for-byte)")
