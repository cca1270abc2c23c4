"""Classical multidimensional scaling on arbitrary finite metric spaces.

This is the brute-force pipeline every character-predicted spectrum is
checked against: square the distances entrywise, a block of rows at a
time where the caller drops them, and double-center in place; then take
the eigenvalues alone (``kernel_eigenvalues``, all the spectrum check
reads) or the full eigendecomposition (``eigendecompose``) and read
embeddings off the eigenpairs. A kernel of low numerical rank gets its
eigenvalues from a randomized range finder, with a certified error bound;
any other from ``eigvalsh``. Both eigensolvers read the kernel's lower
triangle as given: its symmetry is checked, never rewritten, and
eigenvalues come in ``eigh``'s order, reversed. Both the Euclidean
(positive eigenvalues only) and the pseudo-Euclidean embedding (positive
block plus negative block, squared distances subtract) are provided.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import groups
from .metrics import CHUNK_ENTRIES

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


def double_center(distance_matrix) -> MdsKernel:
    """-(1/2) H (D o D) H with H the centering projection; the entrywise
    square is applied before centering. The input is never written to:
    the square is the one fresh array, and it is centered in place."""
    d = np.asarray(getattr(distance_matrix, "values", distance_matrix))
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    return double_center_rows(len(d), [(0, d if d.dtype.kind in "iuf" else d.astype(float))])


def double_center_rows(side: int, blocks) -> MdsKernel:
    """:func:`double_center` of the side x side matrix whose rows come as
    (start, block) pairs, each block squared into the kernel and dropped."""
    sq = np.empty((side, side))
    for start, block in blocks:
        np.square(block, out=sq[start:start + len(block)], dtype=float)
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

    def leading_pairs(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of the first min(k, size) pairs, the
        axes an embedding keeps: a pair not above ``zero_threshold`` spans
        rounding noise or negative directions, and comes back as eigenvalue
        0 and a zero vector."""
        positive = self.eigenvalues[:k] > self.zero_threshold
        return (np.where(positive, self.eigenvalues[:k], 0.0),
                np.where(positive, self.eigenvectors[:, :k], 0.0))

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


class KernelSpectrum(NamedTuple):
    """A kernel's m eigenvalues, descending. By Weyl's inequality each lies
    within ``error_bound`` of the one a full ``eigvalsh`` puts at its place
    (0 when ``eigvalsh`` ran); ``rank`` is the side of the matrix solved."""

    eigenvalues: np.ndarray
    error_bound: float
    rank: int


# The range finder (Halko, Martinsson and Tropp, SIAM Review 53, 2011)
# sketches the kernel times a fixed-seed block of random bytes, 64 columns
# wide (half the side if that is less, but at least 32), then twice as wide,
# while the width is at most half the side and at most an eighth of it (the
# first sketch always runs). A sketch whose singular values fall below
# _RANK_REL_TOL of its largest has found the range. A sketch whose Gram's
# smallest eigenvalue is above _GRAM_SCREEN of its largest is full rank with
# room to spare, and skips the SVD. On a full-rank kernel the sketches cost
# 3-10% of eigvalsh at m = 720 and m = 2000 on a 2-vCPU VM.
_SKETCH_MIN = 32
_SKETCH_WIDTH = 64
_SKETCH_CAP_DIV = 8
_SKETCH_SEED = 0
_RANK_REL_TOL = 1e-10
_GRAM_SCREEN = 1e-12
# The range is kept only if the residual outside it is within this of the
# kernel's Frobenius norm: a property of the kernel alone.
_RESIDUAL_REL_TOL = 1e-12


def kernel_eigenvalues(kernel) -> KernelSpectrum:
    """Eigenvalues of a symmetric kernel in descending order, without
    eigenvectors: all that a spectrum comparison reads.

    A kernel of low numerical rank r is solved on its range: r eigenvalues
    of an r x r matrix and m - r zeros, with a certified bound. Any other
    kernel takes ``eigvalsh``, with bound 0."""
    m = _checked_symmetric(kernel)
    return _range_eigenvalues(m) or KernelSpectrum(np.linalg.eigvalsh(m)[::-1], 0.0, len(m))


def _range_eigenvalues(m: np.ndarray) -> Optional[KernelSpectrum]:
    side = len(m)
    rng = random.Random(_SKETCH_SEED)
    sketch = np.empty((side, 0))
    width = min(_SKETCH_WIDTH, side // 2)
    while _SKETCH_MIN <= width <= max(_SKETCH_WIDTH, side // _SKETCH_CAP_DIV) and 2 * width <= side:
        test = np.frombuffer(rng.randbytes(side * (width - sketch.shape[1])), dtype=np.int8)
        sketch = np.hstack([sketch, m @ test.reshape(side, -1).astype(float)])
        gram = np.linalg.eigvalsh(sketch.T @ sketch)
        if gram[0] <= _GRAM_SCREEN * gram[-1]:
            basis, singular, _ = np.linalg.svd(sketch, full_matrices=False)
            rank = int(np.count_nonzero(singular > _RANK_REL_TOL * singular[0]))
            if rank < width:
                return _certified(m, basis[:, :rank])
        width *= 2
    return None


def _certified(m: np.ndarray, q: np.ndarray) -> Optional[KernelSpectrum]:
    """The eigenvalues of Q^T M Q and zeros, M the symmetric matrix of m's
    lower triangle, when M lies within the residual tolerance of the range of
    the orthonormal Q. With P = QQ^T, |M - PMP|_2 <= sqrt(2) |(I - P)M|_F, the
    bound returned; the residual is summed a strip of CHUNK_ENTRIES at a time."""
    side, rank = q.shape
    mq = np.empty((side, rank))
    norm_sq = residual_sq = 0.0
    strip = max(1, CHUNK_ENTRIES // side)
    for start in range(0, side, strip):
        stop = min(start + strip, side)
        rows = m[start:stop].copy()  # rows of M: the lower triangle, mirrored
        rows[:, stop:] = m[stop:, start:stop].T
        square = m[start:stop, start:stop]
        rows[:, start:stop] = np.tril(square) + np.tril(square, -1).T
        norm_sq += float(np.vdot(rows, rows))
        np.matmul(rows, q, out=mq[start:stop])
        rows -= mq[start:stop] @ q.T
        residual_sq += float(np.vdot(rows, rows))
    if residual_sq > _RESIDUAL_REL_TOL ** 2 * norm_sq:
        return None
    values = np.append(np.linalg.eigvalsh(q.T @ mq), np.zeros(side - rank))
    return KernelSpectrum(np.sort(values)[::-1], float(np.sqrt(2.0 * residual_sq)), rank)


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
    row_labels: Optional[Tuple[str, ...]] = None
    weights: Optional[Tuple[int, ...]] = None

    @property
    def k(self) -> int:
        return self.coordinates.shape[1]


def classical_embedding(dec: SpectralDecomposition, k: int) -> EmbeddingResult:
    """Euclidean embedding on the first k eigenpairs, capped at the
    decomposition's size; a column past the positive ones holds zeros."""
    if k < 1:
        raise ValueError("k must be >= 1")
    eigenvalues, axes = dec.leading_pairs(k)
    return EmbeddingResult(
        coordinates=axes * np.sqrt(eigenvalues),
        eigenvalues=tuple(eigenvalues.tolist()),
        signature=(int(np.count_nonzero(eigenvalues)), 0),
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
