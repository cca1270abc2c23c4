"""Full-ranking datasets: parsing, conversion to permutations, frequency
aggregation, and embedding of the observed permutations.

File format (UTF-8 text): the first line holds comma-separated item
labels; each following non-empty line holds comma-separated 1-based item
indices in rank order, with an optional ``;count`` suffix for
pre-aggregated rows; ``#`` starts a comment line.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import dense, groups, metrics
from .dense import EmbeddingResult
from .errors import RankingParseError, TooLargeError

DENSE_MODE_MAX_ITEMS = 7


@dataclass(frozen=True)
class RankingRecord:
    ranking: Tuple[int, ...]  # item indices, one per rank position
    count: int = 1


@dataclass(frozen=True)
class RankingDataset:
    items: Tuple[str, ...]
    records: Tuple[RankingRecord, ...]

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def total_count(self) -> int:
        return sum(r.count for r in self.records)


@dataclass(frozen=True)
class PermutationSample:
    permutation: Tuple[int, ...]
    weight: int


def parse_rankings(text: str) -> RankingDataset:
    """Parse the documented ranking format; errors carry 1-based line numbers."""
    items: Optional[Tuple[str, ...]] = None
    records = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if items is None:
            labels = tuple(part.strip() for part in line.split(","))
            if any(not lab for lab in labels):
                raise RankingParseError(
                    f"line {line_no}: empty item label in header", line_number=line_no
                )
            items = labels
            continue
        count = 1
        body = line
        if ";" in line:
            body, _, suffix = line.partition(";")
            try:
                count = int(suffix.strip())
            except ValueError:
                raise RankingParseError(
                    f"line {line_no}: bad count suffix {suffix.strip()!r}", line_number=line_no
                )
            if count < 1:
                raise RankingParseError(
                    f"line {line_no}: count must be positive", line_number=line_no
                )
        try:
            ranking = tuple(int(part) for part in body.split(","))
        except ValueError:
            raise RankingParseError(
                f"line {line_no}: non-integer entry", line_number=line_no
            )
        if len(ranking) != len(items):
            raise RankingParseError(
                f"line {line_no}: expected {len(items)} entries, got {len(ranking)}",
                line_number=line_no,
            )
        if sorted(ranking) != list(range(1, len(items) + 1)):
            raise RankingParseError(
                f"line {line_no}: not a full ranking of 1..{len(items)}",
                line_number=line_no,
            )
        records.append(RankingRecord(ranking=ranking, count=count))
    if items is None:
        raise RankingParseError("empty input: no item header line", line_number=1)
    return RankingDataset(items=items, records=tuple(records))


def ranking_to_permutation(ranking: Sequence[int]) -> Tuple[int, ...]:
    """The permutation taking item order to the ranked order: g(i) = rank
    position of item i."""
    rank_of = {item: pos for pos, item in enumerate(ranking, start=1)}
    return tuple(rank_of[item] for item in range(1, len(ranking) + 1))


def aggregate(dataset: RankingDataset) -> Tuple[PermutationSample, ...]:
    """Distinct permutations with summed counts, lexicographic order."""
    weights: Counter = Counter()
    for record in dataset.records:
        weights[ranking_to_permutation(record.ranking)] += record.count
    return tuple(
        PermutationSample(permutation=perm, weight=weights[perm])
        for perm in sorted(weights)
    )


def _standard_block_embedding(samples: Sequence[PermutationSample], n: int, dims: int):
    from .spectral import standard_rep_coordinates

    x = np.stack([standard_rep_coordinates(s.permutation, n) for s in samples])
    w = np.array([s.weight for s in samples], dtype=float)
    mean = (w[:, None] * x).sum(axis=0) / w.sum()
    centered = x - mean
    cov = (centered.T * w) @ centered / w.sum()
    dec = dense.eigendecompose(cov)
    dims = min(dims, x.shape[1])
    coordinates = centered @ dec.eigenvectors[:, :dims]
    eigenvalues = dec.eigenvalues[:dims].copy()
    # Axes past the positive ones span rounding noise: they carry zeros.
    positive = len(dec.positive_indices())
    coordinates[:, positive:] = 0.0
    eigenvalues[positive:] = 0.0
    return coordinates, eigenvalues, False


def embed_dataset(
    samples: Sequence[PermutationSample], n: int, dims: int, mode: str = "dense"
) -> EmbeddingResult:
    """Embed the observed permutations.

    ``dense`` (n <= 7) runs full MDS on all of S_n and selects the
    observed rows. ``standard`` (n >= 4) computes direct coordinates in
    the dominant representation block per permutation and reduces to
    ``dims`` coordinates along the weighted principal axes of the observed
    cloud, never enumerating the group; axes beyond the cloud's positive
    variance hold zeros.
    """
    if dims < 1:
        raise ValueError("dims must be >= 1")
    if mode not in ("dense", "standard"):
        raise ValueError(f"mode must be dense or standard, not {mode!r}")
    if not samples:
        raise ValueError("no samples to embed")
    if mode == "dense":
        if n > DENSE_MODE_MAX_ITEMS:
            raise TooLargeError(
                f"dense mode embeds all n! permutations and supports n <= "
                f"{DENSE_MODE_MAX_ITEMS}; use standard mode for n = {n}",
                cap=DENSE_MODE_MAX_ITEMS,
            )
        spec = groups.symmetric(n)
        dm = metrics.build_distance_matrix(spec, metrics.hamming_metric(spec))
        full = dense.classical_embedding(dense.eigendecompose(dense.double_center(dm)), dims)
        index = {g: i for i, g in enumerate(dm.labels)}
        coordinates = full.coordinates[[index[s.permutation] for s in samples]]
        eigenvalues, truncated = full.eigenvalues, full.truncated
    elif n < 4:
        raise ValueError("standard mode requires n >= 4")
    else:
        coordinates, eigenvalues, truncated = _standard_block_embedding(samples, n, dims)
    return EmbeddingResult(
        coordinates=coordinates,
        eigenvalues=tuple(float(v) for v in eigenvalues),
        signature=(coordinates.shape[1], 0),
        truncated=truncated,
        row_labels=tuple(",".join(str(i) for i in s.permutation) for s in samples),
        weights=tuple(s.weight for s in samples),
    )


def synthesize_rankings(n_items: int, n_rows: int, seed: int) -> RankingDataset:
    """Deterministic pseudo-random full rankings (same seed, same dataset);
    stands in for preference datasets that are not redistributed."""
    if n_items < 2:
        raise ValueError("need at least 2 items")
    rng = random.Random(seed)
    items = tuple(f"item{i}" for i in range(1, n_items + 1))
    records = []
    ranking = list(range(1, n_items + 1))
    for _ in range(n_rows):
        rng.shuffle(ranking)
        records.append(RankingRecord(ranking=tuple(ranking), count=1))
    return RankingDataset(items=items, records=tuple(records))


def dataset_to_text(dataset: RankingDataset) -> str:
    lines = [",".join(dataset.items)]
    for record in dataset.records:
        row = ",".join(str(i) for i in record.ranking)
        if record.count != 1:
            row += f";{record.count}"
        lines.append(row)
    return "\n".join(lines) + "\n"
