import random
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupmds import dense
from groupmds.errors import RankingParseError, TooLargeError
from groupmds.groups import symmetric
from groupmds.metrics import build_distance_matrix, hamming_metric
from groupmds.rankings import (
    PermutationSample,
    aggregate,
    dataset_to_text,
    embed_dataset,
    parse_rankings,
    ranking_to_permutation,
    synthesize_rankings,
)
from groupmds.spectral import standard_rep_coordinates


def test_parse_basic():
    ds = parse_rankings("A,B,C\n3,1,2\n3,1,2\n1,2,3")
    assert ds.items == ("A", "B", "C")
    assert len(ds.records) == 3
    assert ds.records[0].ranking == (3, 1, 2)


def test_parse_comments_counts_and_blanks():
    text = "# preference data\nA,B\n\n1,2;10\n# middle comment\n2,1;5\n"
    ds = parse_rankings(text)
    assert ds.total_count == 15


def test_parse_rejects_repeated_item():
    with pytest.raises(RankingParseError) as excinfo:
        parse_rankings("A,B,C\n1,1,3")
    assert excinfo.value.line_number == 2


def test_parse_rejects_ragged_row():
    with pytest.raises(RankingParseError) as excinfo:
        parse_rankings("A,B,C\n1,2,3\n1,2")
    assert excinfo.value.line_number == 3


def test_parse_rejects_empty_header_label():
    with pytest.raises(RankingParseError):
        parse_rankings("A,,C\n1,2,3")


def test_parse_rejects_empty_input():
    with pytest.raises(RankingParseError):
        parse_rankings("# nothing here\n")


def test_ranking_to_permutation_examples():
    assert ranking_to_permutation((3, 1, 2)) == (2, 3, 1)
    assert ranking_to_permutation((1, 2, 3, 4)) == (1, 2, 3, 4)
    assert ranking_to_permutation((3, 2, 1)) == (3, 2, 1)


def test_aggregate_merges_duplicates():
    ds = parse_rankings("A,B,C\n3,1,2\n3,1,2\n1,2,3")
    samples = aggregate(ds)
    assert len(samples) == 2
    weights = {s.permutation: s.weight for s in samples}
    assert weights[(2, 3, 1)] == 2
    assert weights[(1, 2, 3)] == 1
    assert [s.permutation for s in samples] == sorted(s.permutation for s in samples)


def test_aggregate_synthetic_scale():
    ds = synthesize_rankings(5, 5738, seed=7)
    samples = aggregate(ds)
    assert len(samples) <= 120
    assert sum(s.weight for s in samples) == 5738


@given(st.integers(0, 2 ** 30), st.integers(0, 2 ** 30))
def test_hamming_matches_rank_position_mismatch_count(seed_a, seed_b):
    rng = random.Random(seed_a * 2 ** 31 + seed_b)
    r1 = list(range(1, 6))
    r2 = list(range(1, 6))
    rng.shuffle(r1)
    rng.shuffle(r2)
    g1 = ranking_to_permutation(tuple(r1))
    g2 = ranking_to_permutation(tuple(r2))
    metric = hamming_metric(symmetric(5))
    mismatches = sum(1 for a, b in zip(r1, r2) if a != b)
    assert metric.distance(g1, g2) == mismatches


def test_embed_dense_draws_from_dominant_block():
    ds = synthesize_rankings(5, 500, seed=2)
    samples = aggregate(ds)
    emb = embed_dataset(samples, 5, 3, mode="dense")
    assert emb.coordinates.shape == (len(samples), 3)
    assert all(abs(v - 105.0) < 1e-8 for v in emb.eigenvalues)
    assert emb.weights is not None and sum(emb.weights) == 500


def test_embed_dense_mode_guard():
    samples = [PermutationSample(tuple(range(1, 11)), 1)]
    with pytest.raises(TooLargeError):
        embed_dataset(samples, 10, 3, mode="dense")


def test_embed_standard_runs_at_sushi_scale():
    ds = synthesize_rankings(10, 5000, seed=1)
    samples = aggregate(ds)
    start = time.monotonic()
    emb = embed_dataset(samples, 10, 3, mode="standard")
    elapsed = time.monotonic() - start
    assert emb.coordinates.shape == (len(samples), 3)
    assert np.all(np.isfinite(emb.coordinates))
    assert elapsed < 10.0


def test_embed_standard_single_point_is_origin():
    emb = embed_dataset([PermutationSample((1, 2, 3, 4, 5), 9)], 5, 3, mode="standard")
    assert np.max(np.abs(emb.coordinates)) == 0.0


def test_embed_standard_axes_past_the_positive_variance_are_exact_zeros():
    # At n = 4 the block has rank (n-1)^2 = 9 of the 16 columns; eigh fills
    # the other 7 with rounding noise, which must not reach the output.
    samples = aggregate(synthesize_rankings(4, 500, seed=3))
    emb = embed_dataset(samples, 4, 16, mode="standard")
    assert emb.coordinates.shape == (len(samples), 16)
    assert np.all(np.abs(emb.coordinates[:, :9]).max(axis=0) > 0.1)
    assert np.all(emb.coordinates[:, 9:] == 0.0)
    assert emb.eigenvalues[9:] == (0.0,) * 7


def test_embed_standard_axes_have_a_positive_largest_entry():
    # The axis signs must come from the data, not from the LAPACK build.
    # Axis j is proportional to centered^T (w * coords[:, j]) with a positive
    # factor (the total weight times its eigenvalue), so its sign is checkable.
    samples = aggregate(synthesize_rankings(10, 5000, seed=1))
    emb = embed_dataset(samples, 10, 3, mode="standard")
    x = np.stack([standard_rep_coordinates(s.permutation, 10) for s in samples])
    w = np.array([s.weight for s in samples], dtype=float)
    centered = x - (w[:, None] * x).sum(axis=0) / w.sum()
    for j in range(emb.coordinates.shape[1]):
        axis = centered.T @ (w * emb.coordinates[:, j])
        assert axis[np.argmax(np.abs(axis))] > 0


def test_embed_argument_validation():
    samples = [PermutationSample((1, 2, 3, 4), 1)]
    with pytest.raises(ValueError):
        embed_dataset(samples, 4, 0, mode="dense")
    with pytest.raises(ValueError):
        embed_dataset(samples, 4, 2, mode="fancy")
    with pytest.raises(ValueError):
        embed_dataset([PermutationSample((1, 2, 3), 1)], 3, 2, mode="standard")


def test_dense_and_standard_positive_blocks_agree_at_n5():
    ds = synthesize_rankings(5, 300, seed=9)
    samples = aggregate(ds)
    full = embed_dataset(samples, 5, 25, mode="standard")  # keep every axis

    dm = build_distance_matrix(symmetric(5), hamming_metric(symmetric(5)))
    dec = dense.eigendecompose(dense.double_center(dm))
    emb = dense.full_rank_pseudo_embedding(dec)
    p, _ = emb.signature
    index = {g: i for i, g in enumerate(dm.labels)}
    rows = [index[s.permutation] for s in samples]
    for a in range(len(samples)):
        for b in range(len(samples)):
            diff = emb.coordinates[rows[a], :p] - emb.coordinates[rows[b], :p]
            dense_sq = float(np.sum(diff ** 2))
            cloud_sq = float(np.sum((full.coordinates[a] - full.coordinates[b]) ** 2))
            assert abs(dense_sq - cloud_sq) <= 1e-8


def test_synthesize_deterministic():
    a = dataset_to_text(synthesize_rankings(5, 5738, seed=7))
    b = dataset_to_text(synthesize_rankings(5, 5738, seed=7))
    assert a == b
    assert a != dataset_to_text(synthesize_rankings(5, 5738, seed=8))


def test_synthesize_two_items():
    ds = synthesize_rankings(2, 10, seed=123)
    assert {r.ranking for r in ds.records} <= {(1, 2), (2, 1)}


def test_synthesize_roundtrip():
    ds = synthesize_rankings(10, 5000, seed=1)
    parsed = parse_rankings(dataset_to_text(ds))
    assert parsed.items == ds.items
    assert parsed.records == ds.records
