"""Cross-checks between the character-predicted spectrum and the dense
MDS pipeline, packaged so the CLI and the test suite run the same checks.

For a (group, metric) pair of manageable order this builds the full
distance matrix, centers and eigendecomposes it, and then verifies:

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

from . import dense, metrics, spectral
from .errors import TooLargeError
from .exact import normalize_scalar, scalar_float
from .groups import GroupSpec

DEFAULT_VERIFY_CAP = 720


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


def dense_oracle(spec: GroupSpec, metric, cap: int):
    """(distance matrix, centered kernel, eigendecomposition) of the dense
    MDS pipeline on ``spec``.

    Raises :class:`TooLargeError` before building anything when the group
    order exceeds ``cap``.
    """
    if spec.order > cap:
        raise TooLargeError(
            f"{spec.text} has order {spec.order}, above the verification cap {cap}", cap=cap
        )
    dm = metrics.build_distance_matrix(spec, metric)
    kernel = dense.double_center(dm)
    return dm, kernel, dense.eigendecompose(kernel)


def spectrum_match_deviation(summary, dec, rel_tol: float = 1e-8):
    """Compare the predicted spectrum with the dense one, eigenvalue by
    eigenvalue.

    The predicted entries are expanded by multiplicity, with one extra zero
    for the trivial direction that centering removes, and sorted descending
    like ``dec.eigenvalues``. By Weyl's inequality each sorted dense
    eigenvalue then lies within the kernel's rounding error of its
    predicted counterpart, however close distinct eigenvalues are, so no
    clustering is needed. Returns (max absolute deviation, ok); a length
    mismatch gives (inf, False).
    """
    counts = [e.multiplicity for e in summary.entries]
    if sum(counts) + 1 != len(dec.eigenvalues):
        return float("inf"), False
    values = [scalar_float(e.eigenvalue) for e in summary.entries]
    predicted = np.sort(np.append(np.repeat(values, counts), 0.0))[::-1]
    max_dev = float(np.max(np.abs(predicted - dec.eigenvalues)))
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


def oracle_equivalence_report(
    spec: GroupSpec, metric, cap: int = DEFAULT_VERIFY_CAP
) -> VerificationReport:
    dm, kernel, dec = dense_oracle(spec, metric, cap)
    summary = spectral.spectrum_via_characters(spec, metric)
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

    if dec.nonzero_count():
        emb = dense.full_rank_pseudo_embedding(dec)
        recon = dense.pseudo_distance_sq_matrix(emb)
        target = dm.values.astype(float) ** 2
        rec_dev = float(np.max(np.abs(recon - target)))
    else:
        rec_dev = 0.0
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
    labels = spectral.projector_labels(spec)
    # Projector assembly is O(|G|^2) per label; past 128 labels check a
    # deterministic sample and skip the completeness sum.
    full_family = len(labels) <= 128
    if not full_family:
        step = max(1, len(labels) // 16)
        labels = labels[::step]
    total = np.zeros((spec.order, spec.order))
    proj_dev = 0.0
    eig_dev = 0.0
    for label in labels:
        proj = spectral.isotypic_projector(spec, label)
        p = proj.matrix
        total += p
        proj_dev = max(proj_dev, float(np.max(np.abs(p @ p - p))))
        lam = scalar_float(eigenvalues.get(label, 0))
        eig_dev = max(eig_dev, float(np.max(np.abs(p @ kernel.matrix - lam * p))))
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
        complete_dev = float(np.max(np.abs(total - np.eye(spec.order))))
        checks.append(
            CheckResult(
                "projector-completeness",
                complete_dev <= 1e-8,
                complete_dev,
                "max |sum P - I|",
            )
        )

    return VerificationReport(group=spec, metric_kind=summary.metric_kind, checks=tuple(checks))
