"""Cross-checks between the character-predicted spectrum and the dense
MDS pipeline, packaged so the CLI and the test suite run the same checks.

For a (group, metric) pair within the byte bound on the distance matrix
and the work bound on each m^3 decomposition and product, checked before
anything dense is built, this builds the full distance matrix and centers
it (the CLI's ``--cap`` on the order is checked before these calls).
``spectrum --verify`` then needs only the kernel's eigenvalues
(``dense.kernel_eigenvalues``); the full report eigendecomposes the
kernel and verifies:

* the predicted eigenvalues, expanded by multiplicity and sorted, match
  the sorted dense spectrum one by one;
* the exact trace identity sum(lambda * mult) = (1/(2|G|)) sum d^2;
* full-rank pseudo-Euclidean reconstruction of the squared distances;
* the isotypic projectors (idempotent, complete, and eigen-consistent
  with the centered kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np

from . import dense, groups, metrics, spectral
from .exact import normalize_scalar
from .groups import GroupSpec


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: Optional[float]
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    group: GroupSpec
    metric_kind: str
    checks: tuple
    distances: metrics.DistanceMatrix  # the matrix the dense checks ran on

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> List[str]:
        out = [f"verify {self.group.text} / {self.metric_kind}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            dev = "" if c.deviation is None else f" deviation={c.deviation:.3e}"
            out.append(f"  {c.name}: {status}{dev} ({c.detail})")
        out.append("result: " + ("pass" if self.passed else "FAIL"))
        return out


def dense_oracle(spec: GroupSpec, metric):
    """(distance matrix, centered kernel) of the dense MDS pipeline on
    ``spec``; each caller decomposes the kernel as far as it reads it.

    Raises :class:`TooLargeError` before building anything when the
    distance matrix or one m^3 decomposition of the kernel passes a bound."""
    m = spec.order
    groups.admit(f"the distance matrix of {spec.text} and its eigenvalues", nbytes=m * m * 8,
                 work=m ** 3 // groups.FLOPS_PER_STEP)
    dm = metrics.build_distance_matrix(spec, metric)
    return dm, dense.double_center(dm)


def spectrum_match_deviation(summary, dec, rel_tol: float = 1e-8):
    """Compare the predicted spectrum with the dense one, eigenvalue by
    eigenvalue.

    ``dec`` is a decomposition or the descending eigenvalues themselves.
    The predicted entries are expanded by multiplicity, with one extra zero
    for the trivial direction that centering removes, and sorted descending
    like them. By Weyl's inequality each sorted dense eigenvalue then lies
    within the kernel's rounding error of its predicted counterpart,
    however close distinct eigenvalues are, so no clustering is needed.
    Returns (max absolute deviation, ok); a length mismatch gives
    (inf, False).
    """
    eigenvalues = getattr(dec, "eigenvalues", dec)
    counts = [e.multiplicity for e in summary.entries]
    if sum(counts) + 1 != len(eigenvalues):
        return float("inf"), False
    values = [float(e.eigenvalue) for e in summary.entries]
    predicted = np.sort(np.append(np.repeat(values, counts), 0.0))[::-1]
    max_dev = float(np.max(np.abs(predicted - eigenvalues)))
    scale = max(1.0, float(np.max(np.abs(predicted))))
    return max_dev, max_dev <= rel_tol * scale


def exact_trace_identity(spec: GroupSpec, metric, summary) -> bool:
    """sum(lambda * mult) == (1/(2|G|)) sum_{g,h} d(g,h)^2, both exact."""
    return _trace_identity_holds(metrics.build_distance_matrix(spec, metric), summary)


def _trace_identity_holds(dm, summary) -> bool:
    total_sq = int(np.sum(dm.values.astype(np.int64) ** 2))
    rhs = Fraction(total_sq, 2 * dm.spec.order)
    lhs = normalize_scalar(summary.trace())
    return lhs == rhs


def _reconstruction_deviation(dec, dm) -> float:
    """max |full-rank pseudo-distances - squared input distances|, the
    difference taken in the reconstruction's array."""
    dev = dense.pseudo_distance_sq_matrix(dense.full_rank_pseudo_embedding(dec))
    dev -= np.square(dm.values, dtype=float)
    return float(np.abs(dev, out=dev).max())


def oracle_equivalence_report(spec: GroupSpec, metric) -> VerificationReport:
    m = spec.order
    labels = spectral.projector_labels(spec)
    # Projector assembly is O(|G|^2) per label; past 128 labels check a
    # deterministic sample and skip the completeness sum.
    full_family = len(labels) <= 128
    if not full_family:
        labels = labels[::max(1, len(labels) // 16)]
    groups.admit(f"the distance matrix of {spec.text} and its checks", nbytes=m * m * 8,
                 work=(dense.EIGENVECTOR_COST + 2 * len(labels)) * m ** 3 // groups.FLOPS_PER_STEP)
    summary = spectral.spectrum_via_characters(spec, metric)
    dm, kernel = dense_oracle(spec, metric)
    dec = dense.eigendecompose(kernel)
    checks = []

    dev, ok = spectrum_match_deviation(summary, dec)
    checks.append(
        CheckResult(
            "spectrum-match",
            ok,
            dev,
            f"{len(summary.nonzero_entries())} distinct nonzero eigenvalues",
        )
    )

    trace_ok = _trace_identity_holds(dm, summary)
    checks.append(
        CheckResult("trace-identity", trace_ok, None, "exact rational equality")
    )

    rec_dev = _reconstruction_deviation(dec, dm) if dec.nonzero_count() else 0.0
    checks.append(
        CheckResult(
            "reconstruction",
            rec_dev <= 1e-8 * max(1.0, float(np.max(dm.values)) ** 2),
            rec_dev,
            "full-rank pseudo-distances vs squared input distances",
        )
    )

    # Every label but the trivial one (centered to zero) is listed in
    # the summary; a cyclic projector label j carries its pair's value.
    eigenvalues = {label: e.eigenvalue for e in summary.entries for label in e.labels}
    total = np.zeros((spec.order, spec.order))
    proj_dev = 0.0
    eig_dev = 0.0
    for label in labels:
        proj = spectral.isotypic_projector(spec, label)
        p = proj.matrix
        total += p
        lam = float(eigenvalues.get(label, 0))
        # |P P - P| and |P M - lambda P|, each in its product's array.
        dev = p @ p
        dev -= p
        proj_dev = max(proj_dev, float(np.abs(dev, out=dev).max()))
        np.matmul(p, kernel.matrix, out=dev)
        dev -= lam * p
        eig_dev = max(eig_dev, float(np.abs(dev, out=dev).max()))
    scale = max(1.0, float(np.max(np.abs(dec.eigenvalues))) if dec.size else 1.0)
    family = "all labels" if full_family else f"{len(labels)} sampled labels"
    checks.append(
        CheckResult(
            "projector-idempotence", proj_dev <= 1e-8, proj_dev, f"max |P^2 - P|, {family}"
        )
    )
    checks.append(
        CheckResult(
            "projector-eigenrelation",
            eig_dev <= 1e-8 * scale,
            eig_dev,
            f"max |P M - lambda P|, {family}",
        )
    )
    if full_family:
        total.flat[::spec.order + 1] -= 1.0  # total - I, in place
        complete_dev = float(np.abs(total, out=total).max())
        checks.append(
            CheckResult(
                "projector-completeness",
                complete_dev <= 1e-8,
                complete_dev,
                "max |sum P - I|",
            )
        )

    return VerificationReport(
        group=spec, metric_kind=summary.metric_kind, checks=tuple(checks), distances=dm
    )
