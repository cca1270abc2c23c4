"""Predicting a complete MDS spectrum without building the distance matrix.

For a bi-invariant metric on a finite group, the centered MDS kernel is a
convolution operator, so its eigenvalues can be read off the expansion of
mu(g) = -d(g, e)^2 / 2 into irreducible characters: each contributing
irreducible gives eigenvalue |G| * sigma / dim with multiplicity dim^2.
This script predicts the spectrum for all three shipped settings and then
checks the prediction against brute-force MDS on the full matrix.
"""

import numpy as np

from groupmds import (
    cyclic,
    elementary_abelian_2,
    eigendecompose,
    double_center,
    build_distance_matrix,
    spectrum_via_characters,
    symmetric,
)
from groupmds.metrics import default_metric
from groupmds.verify import spectrum_match_deviation

for spec in (symmetric(5), elementary_abelian_2(6), cyclic(12)):
    metric = default_metric(spec)
    print(f"=== {spec.text}, {metric.kind} (order {spec.order}) ===")

    summary = spectrum_via_characters(spec, metric)
    print("predicted spectrum (exact):")
    for entry in summary.entries:
        labels = ", ".join(str(sorted(l)) if isinstance(l, frozenset) else str(l)
                           for l in entry.labels)
        print(f"  lambda = {entry.eigenvalue!s:>24}   "
              f"multiplicity {entry.multiplicity:>4}   from {labels}")
    print(f"  (+ the trivial direction, removed by centering)")

    # Brute force: full distance matrix -> double centering -> eigh.
    dm = build_distance_matrix(spec, metric)
    dec = eigendecompose(double_center(dm))
    values, counts = np.unique(np.round(dec.eigenvalues, 6) + 0.0, return_counts=True)  # no -0
    print("dense oracle eigenvalues (value, count):")
    print("  " + ", ".join(f"({v:.6g}, {c})" for v, c in zip(values[::-1], counts[::-1])))

    # Predicted values expanded by multiplicity, compared one by one.
    worst, ok = spectrum_match_deviation(summary, dec)
    print(f"max |predicted - observed| over all {dec.size} eigenvalues = {worst:.3e}"
          f" ({'match' if ok else 'MISMATCH'})")
    print()

print("The exact trace identity: sum(lambda * mult) = (1/(2|G|)) * sum d^2")
spec = symmetric(5)
metric = default_metric(spec)
summary = spectrum_via_characters(spec, metric)
dm = build_distance_matrix(spec, metric)
lhs = summary.trace()
rhs = int(np.sum(dm.values.astype(np.int64) ** 2))
print(f"  S_5: {lhs} == {rhs}/(2*120) = {rhs / 240}")
