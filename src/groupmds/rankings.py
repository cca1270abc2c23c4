"""Full-ranking datasets: parsing, conversion to permutations, frequency
aggregation, and embedding of the observed permutations.

File format (UTF-8 text): the first line holds comma-separated item
labels; each following non-empty line holds comma-separated 1-based item
indices in rank order, with an optional ``;count`` suffix for
pre-aggregated rows; ``#`` starts a comment line.

A dataset is held as arrays: one ``(rows × n)`` int64 array of rankings
and one vector of counts. Every stage works on whole arrays; standard mode
embeds from the permutations' marginal counts, never their k × n² block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Iterator, Optional, Tuple

import numpy as np

from . import dense, groups, metrics, spectral
from .dense import EmbeddingResult
from .errors import RankingParseError


@dataclass(frozen=True)
class RankingRecord:
    ranking: Tuple[int, ...]  # item indices, one per rank position
    count: int = 1


def _count_array(counts) -> np.ndarray:
    """Counts as int64, or as Python ints when their sum would pass int64,
    so that summed weights stay exact."""
    fits = sum(counts) <= np.iinfo(np.int64).max
    return np.array(counts, dtype=np.int64 if fits else object)


@dataclass(frozen=True, eq=False)
class RankingDataset:
    """``rankings`` holds one row of item indices per ranking, in rank
    order; ``counts`` holds each row's count."""

    items: Tuple[str, ...]
    rankings: np.ndarray  # (rows, n) int64
    counts: np.ndarray  # (rows,)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def total_count(self) -> int:
        return int(self.counts.sum())

    @property
    def records(self) -> Tuple[RankingRecord, ...]:
        return tuple(
            RankingRecord(ranking=tuple(row), count=count)
            for row, count in zip(self.rankings.tolist(), self.counts.tolist())
        )


@dataclass(frozen=True)
class PermutationSample:
    permutation: Tuple[int, ...]
    weight: int


@dataclass(frozen=True, eq=False)
class AggregatedSamples:
    """Distinct permutations, one row each in lexicographic order, with
    their summed weights: what :func:`aggregate` returns and
    :func:`embed_dataset` takes. Its length is the number of rows, and
    iterating it yields one :class:`PermutationSample` per row."""

    permutations: np.ndarray  # (k, n) int64
    weights: np.ndarray  # (k,)

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self) -> Iterator[PermutationSample]:
        for perm, weight in zip(self.permutations.tolist(), self.weights.tolist()):
            yield PermutationSample(tuple(perm), weight)


# Entries converted or formatted per chunk of lines: bounds the token and
# int lists a chunk holds, about _CHUNK_BYTES.
_CHUNK_ENTRIES = 1 << 14
_CHUNK_BYTES = 128 * _CHUNK_ENTRIES


def _line_fault(line: str, n: int) -> Optional[str]:
    """The per-line rules on one stripped data line, in their order: its
    count, its entries, its width, then whether it is a full ranking of 1..n.
    The message of the first rule broken, or None."""
    body, semi, suffix = line.partition(";")
    if semi:
        try:
            count = int(suffix.strip())
        except ValueError:
            return f"bad count suffix {suffix.strip()!r}"
        if count < 1:
            return "count must be positive"
    try:
        ranking = list(map(int, body.split(",")))
    except ValueError:
        return "non-integer entry"
    if len(ranking) != n:
        return f"expected {n} entries, got {len(ranking)}"
    if sorted(ranking) != list(range(1, n + 1)):
        return f"not a full ranking of 1..{n}"
    return None


def _entry_value(token: str, n: int) -> int:
    """A token that is not a canonical 1..n spelling, by ``int()``'s rules:
    its value when in 1..n, else 0."""
    try:
        value = int(token)
    except ValueError:
        return 0
    return value if 1 <= value <= n else 0


def _count_value(suffix: str) -> int:
    """A count suffix by ``int()``'s rules, 0 when it is not an integer."""
    try:
        return int(suffix.strip())
    except ValueError:
        return 0


def _entries(bodies: list, n: int) -> Tuple[np.ndarray, int]:
    """(rows, first): the bodies, each of n comma-separated entries, as a
    (rows × n) int64 array, and the index of the first row that is not a
    full ranking of 1..n (len(bodies) when all are). Entries are converted
    a chunk of lines at a time."""
    lookup = {str(v): v for v in range(1, n + 1)}
    rows = np.empty((len(bodies), n), dtype=np.int64)
    step = max(1, _CHUNK_ENTRIES // n)
    for start in range(0, len(bodies), step):
        tokens = ",".join(bodies[start:start + step]).split(",")
        values = np.fromiter(map(lookup.get, tokens, repeat(0)), dtype=np.int64, count=len(tokens))
        for i in np.flatnonzero(values == 0).tolist():
            values[i] = _entry_value(tokens[i], n)
        rows[start:start + step] = values.reshape(-1, n)
    return rows, groups.first_non_permutation(rows, n)


def parse_rankings(text: str) -> RankingDataset:
    """Parse the documented ranking format; errors carry 1-based line numbers.

    Every stage works on all lines at once: their classification, the
    counts, the widths (one comma count per line) and the entries, which
    are converted a chunk of lines at a time. The first faulty line is
    found from these arrays and worded by the per-line rules alone, so a
    line that is not a full ranking is reported before a later fault of
    any kind. Raises :class:`TooLargeError` before splitting a text past
    the byte or work bound.
    """
    # Bytes: per character the text's share of the lines, tokens and arrays,
    # per line its str, list slots and row, and per ";count" line its parts.
    # Work: 50 ns a character, 0.8 us a line and 0.8 us more a counted line,
    # a step being 2 us; lines are counted at "\n", counted lines at ";".
    newlines, semicolons = text.count("\n"), text.count(";")
    groups.admit(f"parsing {len(text)} characters of rankings",
                 nbytes=5 * len(text) + 100 * newlines + 400 * semicolons + _CHUNK_BYTES,
                 work=len(text) // 40 + (2 * newlines + 2 * semicolons) // 5)
    stripped = list(map(str.strip, text.splitlines()))
    kept = np.fromiter(map(len, stripped), dtype=bool, count=len(stripped))
    if "#" in text:
        kept &= ~np.fromiter(map(str.startswith, stripped, repeat("#")), dtype=bool,
                             count=len(stripped))
    line_nos = np.flatnonzero(kept) + 1
    lines = list(compress(stripped, kept))
    del stripped
    if not lines:
        raise RankingParseError("empty input: no item header line", line_number=1)
    items = tuple(part.strip() for part in lines[0].split(","))
    if not all(items):
        raise RankingParseError(f"line {line_nos[0]}: empty item label in header",
                                line_number=int(line_nos[0]))
    n = len(items)
    lines, line_nos = lines[1:], line_nos[1:]
    counted = np.zeros(len(lines), dtype=bool)
    if semicolons:
        counted[:] = np.fromiter(map(str.__contains__, lines, repeat(";")), dtype=bool,
                                 count=len(lines))
    parts = list(map(str.partition, compress(lines, counted), repeat(";")))
    bodies = np.array(lines, dtype=object)
    bodies[counted] = [body for body, _, _ in parts]
    bodies = bodies.tolist()
    suffix_counts = [_count_value(suffix) for _, _, suffix in parts]
    counts = np.ones(len(lines), dtype=object)
    counts[counted] = suffix_counts
    # Faults that stop the entries from lining up: a bad count, a wrong width.
    misfit = (np.fromiter(map(str.count, bodies, repeat(",")), dtype=np.int64, count=len(bodies))
              != n - 1)
    misfit[counted] |= np.array([c < 1 for c in suffix_counts], dtype=bool)
    limit = int(np.argmax(misfit)) if misfit.any() else len(lines)
    rankings, first = _entries(bodies[:limit], n)
    if first < len(lines):
        line_no = int(line_nos[first])
        raise RankingParseError(f"line {line_no}: {_line_fault(lines[first], n)}",
                                line_number=line_no)
    return RankingDataset(items=items, rankings=rankings, counts=_count_array(counts))


def ranking_to_permutation(ranking):
    """The permutation taking item order to the ranked order: g(i) = rank
    position of item i. One ranking gives a tuple; a (k × n) array of
    rankings gives the (k × n) int64 array of their permutations. A row
    that is not a full ranking of 1..n raises ValueError."""
    given = np.asarray(ranking, dtype=np.int64)
    rows = np.atleast_2d(given)
    k, n = rows.shape
    if groups.first_non_permutation(rows, n) < k:
        raise ValueError(f"not a full ranking of 1..{n}")
    perm = np.empty_like(rows)
    perm[np.arange(k)[:, None], rows - 1] = np.arange(1, n + 1)
    return perm if given.ndim == 2 else tuple(perm[0].tolist())


def aggregate(dataset: RankingDataset) -> AggregatedSamples:
    """Distinct permutations with summed counts, lexicographic order."""
    perms = ranking_to_permutation(dataset.rankings)
    keys = groups.permutation_keys(perms - 1)
    # Equal keys are equal permutations, so the order among them is free.
    order = np.argsort(keys[:, 0]) if keys.shape[1] == 1 else np.lexsort(keys.T[::-1])
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, axis=0, prepend=-1).any(axis=1))  # where a run begins
    return AggregatedSamples(
        permutations=perms[order[starts]],
        weights=np.add.reduceat(dataset.counts[order], starts),
    )


def _standard_block_embedding(samples: AggregatedSamples, n: int, dims: int):
    # Row g's block vector is scale (vec P_g - 1/n), ones at cells (g(j) - 1) n + j, scale^2 being
    # mu's coefficient on [n-1,1]. The moments are taken about the heaviest row r, so no term
    # outgrows the weight off r: m and S, the weighted sums of P_g - P_r and its outer square, are
    # the counts of rows g != r under D_j = I - e_r(j) 1^T.
    # Bytes: the covariance, eigh's 4 more; per row ranks, weight, slab index, 3 coordinate rows,
    # label. Work: a row in a slab or a gathered value, 4-12 ns: 200 flops.
    k, dims = len(samples), min(dims, n * n)
    groups.admit(f"the standard-block embedding of {k} permutations of {n} items",
                 nbytes=8 * (k * (2 * n + 3 * dims + 16) + 5 * n ** 4),
                 work=(100 * k * n * (n + 1 + 2 * dims) + dense.EIGENVECTOR_COST * n ** 6)
                 // groups.FLOPS_PER_STEP)
    ref = int(np.argmax(samples.weights))  # weights scaled by a power of two: exact; W^2 < 2^1024
    w = np.ldexp(samples.weights.astype(float), -np.frexp(float(samples.weights[ref]))[1])
    scale2 = float(spectral.standard_coefficient(n))
    total, w[ref] = w.sum(), 0.0  # then counts skip row r
    ranks = np.subtract(samples.permutations.T, 1, order="C")  # ranks[j] = g(j) - 1
    c1 = np.stack([np.bincount(r, w, minlength=n) for r in ranks], axis=1)  # rows with g(j) = a + 1
    m = c1 - w.sum() * (np.arange(n)[:, None] == ranks[:, ref])  # c1 less W - w_r at each r(j)
    cov = np.empty((n, n, n, n))  # cov[a, j, b, l]: cells a n + j and b n + l
    for j, l in zip(*np.triu_indices(n)):
        s = np.bincount(ranks[j] * n + ranks[l], w, minlength=n * n).reshape(n, n)  # C2, then S
        s[ranks[j, ref]] -= c1[:, l]  # D_j C2_jl: C2_jl's column sums are c1[:, l]
        s[:, ranks[l, ref]] -= m[:, j]  # D_j C2_jl D_l^T: the row sums of D_j C2_jl are m[:, j]
        cov[:, j, :, l] = (total * s - np.outer(m[:, j], m[:, l])) / total ** 2 * scale2
        cov[:, l, :, j] = cov[:, j, :, l].T
    eigenvalues, axes = dense.eigendecompose(cov.reshape(n * n, n * n)).leading_pairs(dims)
    gathered = sum(axes.reshape(n, n, dims)[r, j] for j, r in enumerate(ranks))  # sum_j V[cell(g, j)]
    coordinates = (gathered - gathered[ref] - (m.reshape(n * n) / total) @ axes) * np.sqrt(scale2)
    return coordinates, eigenvalues


def _permutation_labels(perms: np.ndarray) -> Tuple[str, ...]:
    """Each row g of a (k × n) permutation array as the label
    "g(1),...,g(n)", formatted a chunk of rows at a time from its columns."""
    # Bytes: each label's str and two slots, and one chunk's ints. Work:
    # 0.3 us a label and 0.11 us an entry, a step being 2 us.
    k, n = perms.shape
    template = ",".join(["%d"] * n)
    width = len(template % tuple(range(1, n + 1)))  # every label's length
    groups.admit(f"the labels of {k} permutations of {n} items",
                 nbytes=k * (width + 80) + _CHUNK_BYTES, work=k * (n + 3) // 18)
    step = max(1, _CHUNK_ENTRIES // n)
    labels = []
    for start in range(0, k, step):
        labels.extend(map(template.__mod__, zip(*perms[start:start + step].T.tolist())))
    return tuple(labels)


def embed_dataset(samples: AggregatedSamples, n: int, dims: int,
                  mode: str = "standard") -> EmbeddingResult:
    """Embed the observed permutations of n >= 2 items: ``samples`` is the
    :class:`AggregatedSamples` that :func:`aggregate` returns, or one built
    by hand, each of whose rows must be a permutation of 1..n.

    ``standard``, the default, projects the cloud in the one positive block
    [n-1,1] onto its ``dims`` weighted principal axes, from marginal counts;
    ``dense``, the oracle, runs MDS on all n! points. Both keep axes by
    ``leading_pairs`` and raise :class:`TooLargeError` past a byte or work bound.
    """
    if not isinstance(samples, AggregatedSamples):
        raise TypeError(f"samples must be the AggregatedSamples that aggregate returns, "
                        f"not {type(samples).__name__}")
    if dims < 1:
        raise ValueError("dims must be >= 1")
    if mode not in ("dense", "standard"):
        raise ValueError(f"mode must be dense or standard, not {mode!r}")
    if n < 2:
        raise ValueError(f"an embedding needs at least 2 items, not {n}")
    if not samples:
        raise ValueError("no samples to embed")
    # Checked once for both modes, before either allocates.
    if groups.first_non_permutation(samples.permutations, n) < len(samples):
        raise ValueError(f"a sample is not a permutation of 1..{n}")
    if mode == "dense":
        spec = groups.symmetric(n)
        groups.admit(f"the dense embedding of {spec.text}",
                     work=dense.EIGENVECTOR_COST * spec.order ** 3 // groups.FLOPS_PER_STEP)
        dm = metrics.build_distance_matrix(spec, metrics.hamming_metric(spec))
        full = dense.classical_embedding(dense.eigendecompose(dense.double_center(dm)), dims)
        # The enumeration's keys ascend, one each (n! is under the enumeration cap).
        listed = groups.permutation_keys(groups.array_forms(spec, dm.labels))[:, 0]
        rows = np.searchsorted(listed, groups.permutation_keys(samples.permutations - 1)[:, 0])
        coordinates, eigenvalues = full.coordinates[rows], full.eigenvalues
    else:
        coordinates, eigenvalues = _standard_block_embedding(samples, n, dims)
    return EmbeddingResult(
        coordinates=coordinates,
        eigenvalues=tuple(float(v) for v in eigenvalues),
        signature=(int(np.count_nonzero(np.greater(eigenvalues, 0))), 0),
        row_labels=_permutation_labels(samples.permutations),
        weights=tuple(samples.weights.tolist()),
    )


def synthesize_rankings(n_items: int, n_rows: int, seed: int) -> RankingDataset:
    """Deterministic pseudo-random full rankings (same seed, same dataset);
    stands in for preference datasets that are not redistributed.

    Raises :class:`TooLargeError` before drawing a row past the work or
    byte bound of the rows and their text: a row costs 2 us and 200 bytes,
    an entry up to 1 us and 64 (array cell, list slot, int and text)."""
    if n_items < 2:
        raise ValueError("need at least 2 items")
    groups.admit(f"synthesizing {n_rows} rankings of {n_items} items",
                 nbytes=n_rows * (64 * n_items + 200), work=n_rows * (n_items + 2) // 2)
    rng = random.Random(seed)
    items = tuple(f"item{i}" for i in range(1, n_items + 1))
    entries = []
    ranking = list(range(1, n_items + 1))
    for _ in range(n_rows):
        rng.shuffle(ranking)
        entries.extend(ranking)
    return RankingDataset(
        items=items,
        rankings=np.array(entries, dtype=np.int64).reshape(n_rows, n_items),
        counts=np.ones(n_rows, dtype=np.int64),
    )


def dataset_to_text(dataset: RankingDataset) -> str:
    """The documented format, a ``;count`` suffix on rows whose count is
    not 1; rows are formatted a chunk at a time through one template."""
    line = ",".join(["%d"] * dataset.n_items)
    plain, counted = line + "\n", line + ";%d\n"
    step = max(1, _CHUNK_ENTRIES // dataset.n_items)
    pieces = [",".join(dataset.items) + "\n"]
    for start in range(0, len(dataset.counts), step):
        rows = dataset.rankings[start:start + step].tolist()
        counts = dataset.counts[start:start + step].tolist()
        pieces.append("".join(plain % tuple(row) if count == 1 else counted % (*row, count)
                              for row, count in zip(rows, counts)))
    return "".join(pieces)
