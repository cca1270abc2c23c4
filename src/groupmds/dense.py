"""Classical multidimensional scaling on arbitrary finite metric spaces.

This is the brute-force pipeline every character-predicted spectrum is
checked against: square the distances entrywise and double-center, then
either take the eigenvalues alone (``kernel_eigenvalues``, all the
spectrum check reads) or the full eigendecomposition (``eigendecompose``)
and read embeddings off the eigenpairs. Both eigensolvers read the
kernel's lower triangle as given: its symmetry is checked, never
rewritten, and eigenvalues come in ``eigh``'s order, reversed. Both the
Euclidean (positive eigenvalues only) and the pseudo-Euclidean embedding
(positive block plus negative block, squared distances subtract) are
provided.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import groups

ZERO_EIGENVALUE_REL_TOL = 1e-9
SYMMETRY_REL_TOL = 1e-8
# A symmetric eigendecomposition of side m is priced at m^3 flops for the
# eigenvalues alone and at EIGENVECTOR_COST * m^3 with the eigenvectors:
# on two cores eigh took 2.2 times as long as eigvalsh at m = 2048.
EIGENVECTOR_COST = 3


@dataclass(frozen=True, eq=False)
class MdsKernel:
    """A double-centered symmetric kernel matrix."""

    matrix: np.ndarray

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _as_matrix(distance_matrix) -> np.ndarray:
    values = getattr(distance_matrix, "values", distance_matrix)
    d = np.asarray(values)
    if d.dtype.kind not in "iuf":  # integers and floats are cast by the square
        d = d.astype(float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    return d


def double_center(distance_matrix) -> MdsKernel:
    """-(1/2) H (D o D) H with H the centering projection; the entrywise
    square is applied before centering. The input is never written to:
    the square is the one fresh array, and it is centered in place."""
    sq = np.square(_as_matrix(distance_matrix), dtype=float)
    row_mean = sq.mean(axis=1, keepdims=True)
    col_mean = sq.mean(axis=0, keepdims=True)
    grand_mean = sq.mean()
    sq -= row_mean
    sq -= col_mean
    sq += grand_mean
    sq *= -0.5
    return MdsKernel(matrix=sq)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Full eigensystem of a symmetric kernel, eigenvalues descending.

    ``zero_threshold`` is the magnitude below which an eigenvalue is
    treated as zero (relative to the spectral radius).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns aligned with eigenvalues
    zero_threshold: float

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    def positive_indices(self) -> np.ndarray:
        return np.where(self.eigenvalues > self.zero_threshold)[0]

    def nonzero_count(self) -> int:
        return int(np.sum(np.abs(self.eigenvalues) > self.zero_threshold))


# Side of the square tiles _checked_symmetric reads a matrix and its
# transpose in, so that both stay in cache.
_TILE = 64


def _checked_symmetric(kernel) -> np.ndarray:
    """The kernel's own matrix, never written to or copied; a ValueError
    when it is not symmetric within :data:`SYMMETRY_REL_TOL` of its largest
    entry. The eigensolvers read only its lower triangle.

    One pass over the tiles on and above the diagonal, each against its
    mirror, takes the largest deviation."""
    m = kernel.matrix if isinstance(kernel, MdsKernel) else np.asarray(kernel, dtype=float)
    tile = np.empty((_TILE, _TILE))
    deviation = 0.0
    for i in range(0, len(m), _TILE):
        for j in range(i, len(m), _TILE):
            a = m[i:i + _TILE, j:j + _TILE]
            d = np.subtract(a, m[j:j + _TILE, i:i + _TILE].T, out=tile[:a.shape[0], :a.shape[1]])
            deviation = max(deviation, float(np.abs(d, out=d).max()))
    scale = max(float(m.max()), -float(m.min())) if m.size else 0.0
    if scale and deviation > SYMMETRY_REL_TOL * scale:
        raise ValueError("kernel is not symmetric within tolerance")
    return m


def kernel_eigenvalues(kernel) -> np.ndarray:
    """Eigenvalues of a symmetric kernel in descending order, without
    eigenvectors: all that a spectrum comparison reads."""
    return np.linalg.eigvalsh(_checked_symmetric(kernel))[::-1]


def eigendecompose(kernel) -> SpectralDecomposition:
    """Eigendecompose a symmetric kernel.

    Eigenvalues come back in descending order: ``eigh``'s ascending order,
    reversed, ties included. Each eigenvector is sign-fixed so its lowest-index
    entry within 1e-12 of its largest magnitude is positive, so rounding breaks no tie.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(_checked_symmetric(kernel))
    eigenvalues, eigenvectors = eigenvalues[::-1], eigenvectors[:, ::-1]
    for col in range(eigenvectors.shape[1]):
        v = eigenvectors[:, col]
        pivot = int(np.argmax(np.abs(v) >= np.abs(v).max() - 1e-12))  # the lowest near-largest entry
        if v[pivot] < 0:
            eigenvectors[:, col] = -v
    spectral_radius = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        zero_threshold=ZERO_EIGENVALUE_REL_TOL * spectral_radius,
    )


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    """Coordinates with signature (p, q): the first p columns carry positive
    eigenvalues, the next q negative ones, each block ordered by descending
    |eigenvalue|; any column past p + q carries none (eigenvalue 0, zeros)."""

    coordinates: np.ndarray  # (n, p + q)
    eigenvalues: Tuple[float, ...]  # per coordinate column
    signature: Tuple[int, int]
    truncated: bool = False
    row_labels: Optional[Tuple[str, ...]] = None
    weights: Optional[Tuple[int, ...]] = None

    @property
    def k(self) -> int:
        return self.coordinates.shape[1]


def classical_embedding(dec: SpectralDecomposition, k: int) -> EmbeddingResult:
    """Euclidean embedding from the top-k positive eigenpairs.

    If fewer than k positive eigenvalues exist, k is truncated to the
    available count and the result is flagged ``truncated``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pos = dec.positive_indices()
    kept = pos[: min(k, len(pos))]
    coords = dec.eigenvectors[:, kept] * np.sqrt(dec.eigenvalues[kept])
    return EmbeddingResult(
        coordinates=coords,
        eigenvalues=tuple(float(v) for v in dec.eigenvalues[kept]),
        signature=(len(kept), 0),
        truncated=len(kept) < k,
    )


def full_rank_pseudo_embedding(dec: SpectralDecomposition) -> EmbeddingResult:
    """Pseudo-Euclidean embedding on every nonzero direction, positive
    block first, each block by descending |eigenvalue|."""
    nonzero = np.where(np.abs(dec.eigenvalues) > dec.zero_threshold)[0]
    kept = nonzero[np.argsort(-np.abs(dec.eigenvalues[nonzero]), kind="stable")]
    kept_vals = dec.eigenvalues[kept]
    pos_kept = kept[kept_vals > 0]
    neg_kept = kept[kept_vals < 0]
    ordered = np.concatenate([pos_kept, neg_kept]).astype(int)
    coords = dec.eigenvectors[:, ordered] * np.sqrt(np.abs(dec.eigenvalues[ordered]))
    return EmbeddingResult(
        coordinates=coords,
        eigenvalues=tuple(float(v) for v in dec.eigenvalues[ordered]),
        signature=(len(pos_kept), len(neg_kept)),
    )


def pseudo_distance_sq_matrix(emb: EmbeddingResult) -> np.ndarray:
    p, _ = emb.signature
    signs = np.ones(emb.k)
    signs[p:] = -1.0
    x = emb.coordinates
    sq_norms = (x * x * signs).sum(axis=1)
    gram = (x * signs) @ x.T
    return sq_norms[:, None] + sq_norms[None, :] - 2.0 * gram


def strain(dec: SpectralDecomposition, k: int) -> float:
    """Sum of squared discarded eigenvalues when the top k (descending
    eigenvalue order) are retained."""
    if not 0 <= k <= dec.size:
        raise ValueError("k must be between 0 and n")
    tail = dec.eigenvalues[k:]
    return float(np.sum(tail * tail))


# Rows formatted per chunk of the CSV writer.
_CSV_CHUNK_ROWS = 1 << 13
_CSV_QUOTES_CR = sys.version_info >= (3, 13)  # csv.writer quotes "\r" from Python 3.13 on


def _csv_field(text: str) -> str:
    """csv.writer's minimal quoting, with lineterminator "\\n": a field that
    holds the delimiter, the quote character or a newline is quoted, its
    quotes doubled."""
    if "," in text or '"' in text or "\n" in text or ("\r" in text and _CSV_QUOTES_CR):
        return '"%s"' % text.replace('"', '""')
    return text


def embedding_to_csv(emb: EmbeddingResult) -> str:
    """CSV form: id, label, weight, then one column per coordinate, the header
    marking each column's eigenvalue sign (x1:+, x2:-, ...) or, past p + q, 0.

    The bytes are those of ``csv.writer`` on rows of the id, the label, the
    weight and each coordinate's ``repr``; rows are formatted a chunk at a
    time, a coordinate column through one ``repr`` map and every row through
    one template."""
    n, k = emb.coordinates.shape
    p, q = emb.signature
    labels = emb.row_labels if emb.row_labels is not None else tuple(map(str, range(n)))
    weights = emb.weights if emb.weights is not None else (1,) * n
    # Text: per row up to 32 characters of id, weight and separators, 25 per
    # coordinate and the label's; bytes: the pieces and their join, and one
    # chunk's strs. Work: 0.8 us a row, 1.2 us a coordinate's repr and 1 ns
    # a label character, a step being 2 us.
    label_chars = sum(map(len, labels))
    groups.admit(f"the CSV text of {n} embedded rows",
                 nbytes=2 * (n * (32 + 25 * k) + label_chars) + _CSV_CHUNK_ROWS * (128 + 120 * k),
                 work=n * (2 + 3 * k) // 5 + label_chars // 2000)
    marks = "+" * p + "-" * q + "0" * (k - p - q)
    header = ["id", "label", "weight"] + [f"x{c}:{mark}" for c, mark in enumerate(marks, 1)]
    template = "%d,%s,%s" + ",%s" * k + "\n"
    pieces = [",".join(map(_csv_field, header)) + "\n"]
    for start in range(0, n, _CSV_CHUNK_ROWS):
        stop = min(start + _CSV_CHUNK_ROWS, n)
        columns = [list(map(repr, col)) for col in emb.coordinates[start:stop].T.tolist()]
        pieces.append("".join(map(template.__mod__, zip(
            range(start, stop), map(_csv_field, labels[start:stop]), weights[start:stop],
            *columns))))
    return "".join(pieces)
