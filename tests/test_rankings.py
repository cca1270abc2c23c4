import csv
import io
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmds import dense, groups, rankings
from groupmds.errors import RankingParseError, TooLargeError
from groupmds.groups import symmetric
from groupmds.metrics import build_distance_matrix, hamming_metric
from groupmds.rankings import (
    AggregatedSamples,
    PermutationSample,
    RankingDataset,
    RankingRecord,
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


@pytest.mark.parametrize("ranking", [(0, 1, 2), (1, 1, 3), (1, 2, 4), [[1, 2, 3], [2, 2, 1]]])
def test_ranking_to_permutation_refuses_what_is_not_a_full_ranking(ranking):
    with pytest.raises(ValueError, match="not a full ranking of 1..3"):
        ranking_to_permutation(ranking)


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


def samples_of(*rows):
    """Hand-built samples: the rows as given, weighted 1, 2, ..."""
    return AggregatedSamples(np.array(rows, dtype=np.int64), np.arange(1, len(rows) + 1))


def test_embed_dense_mode_guard():
    with pytest.raises(TooLargeError):
        embed_dataset(samples_of(tuple(range(1, 11))), 10, 3, mode="dense")


@pytest.mark.parametrize("perm", [(1, 1, 3), (0, 1, 2), (3, 3, 3)])
def test_embed_dense_refuses_a_sample_that_is_no_permutation(perm):
    with pytest.raises(ValueError, match="not a permutation of 1..3"):
        embed_dataset(samples_of((1, 2, 3), perm), 3, 2, mode="dense")


@pytest.mark.parametrize("mode", ["standard", "dense"])
def test_embed_refuses_malformed_samples_alike_in_both_modes(mode):
    message = "a sample is not a permutation of 1..3"
    for perm in [(1, 1, 3), (0, 1, 2), (3, 3, 3), (1, 2, 4)]:
        with pytest.raises(ValueError, match=message):
            embed_dataset(samples_of((1, 2, 3), perm), 3, 2, mode=mode)
    for perm in [(1, 2), (1, 2, 3, 4)]:
        with pytest.raises(ValueError, match=message):
            embed_dataset(samples_of(perm), 3, 2, mode=mode)
    # aggregate's rows are permutations, of the file's width: a wrong n is refused.
    with pytest.raises(ValueError, match=message):
        embed_dataset(aggregate(synthesize_rankings(4, 20, seed=1)), 3, 2, mode=mode)


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
    emb = embed_dataset(AggregatedSamples(np.array([[1, 2, 3, 4, 5]]), np.array([9])), 5, 3,
                        mode="standard")
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
    assert emb.signature == (9, 0)
    header = dense.embedding_to_csv(emb).split("\n", 1)[0]
    assert header.endswith(",x9:+,x10:0," + ",".join(f"x{c}:0" for c in range(11, 17)))


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
    samples = samples_of((1, 2, 3, 4))
    with pytest.raises(ValueError):
        embed_dataset(samples, 4, 0, mode="dense")
    with pytest.raises(ValueError):
        embed_dataset(samples, 4, 2, mode="fancy")
    for mode in ("dense", "standard"):
        with pytest.raises(ValueError, match="at least 2 items"):
            embed_dataset(samples_of((1,)), 1, 2, mode=mode)


def test_embed_takes_only_aggregated_samples():
    samples = aggregate(synthesize_rankings(4, 50, seed=6))
    for other in (list(samples), [PermutationSample((1, 2, 3, 4), 1)], samples.permutations,
                  synthesize_rankings(4, 50, seed=6)):
        for mode in ("standard", "dense"):
            with pytest.raises(TypeError, match="AggregatedSamples that aggregate returns"):
                embed_dataset(other, 4, 3, mode=mode)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_dense_and_standard_positive_blocks_agree(n):
    ds = synthesize_rankings(n, 300, seed=9)
    samples = aggregate(ds)
    full = embed_dataset(samples, n, n * n, mode="standard")  # keep every axis

    dm = build_distance_matrix(symmetric(n), hamming_metric(symmetric(n)))
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


# --- per-row references ------------------------------------------------------
#
# The per-line parser, the Counter aggregation, the per-row block coordinates
# and the per-row CSV writer that the array pipeline replaced, kept verbatim
# in substance so that the array code is checked against them.


def reference_parse(text):
    """(items, records) by the per-line parser."""
    items = None
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
            raise RankingParseError(f"line {line_no}: non-integer entry", line_number=line_no)
        if len(ranking) != len(items):
            raise RankingParseError(
                f"line {line_no}: expected {len(items)} entries, got {len(ranking)}",
                line_number=line_no,
            )
        if sorted(ranking) != list(range(1, len(items) + 1)):
            raise RankingParseError(
                f"line {line_no}: not a full ranking of 1..{len(items)}", line_number=line_no
            )
        records.append(RankingRecord(ranking=ranking, count=count))
    if items is None:
        raise RankingParseError("empty input: no item header line", line_number=1)
    return items, tuple(records)


def reference_permutation(ranking):
    rank_of = {item: pos for pos, item in enumerate(ranking, start=1)}
    return tuple(rank_of[item] for item in range(1, len(ranking) + 1))


def reference_aggregate(records):
    weights = Counter()
    for record in records:
        weights[reference_permutation(record.ranking)] += record.count
    return [PermutationSample(permutation=perm, weight=weights[perm]) for perm in sorted(weights)]


def reference_embedding_csv(text, dims, mode):
    items, records = reference_parse(text)
    n = len(items)
    samples = reference_aggregate(records)
    if mode == "standard":
        x = np.stack([standard_rep_coordinates(s.permutation, n) for s in samples])
        w = np.array([s.weight for s in samples], dtype=float)
        mean = (w[:, None] * x).sum(axis=0) / w.sum()
        centered = x - mean
        cov = (centered.T * w) @ centered / w.sum()
        cov = (cov + cov.T) / 2.0
        dec = dense.eigendecompose(cov)
        coordinates = centered @ dec.eigenvectors[:, :min(dims, x.shape[1])]
        p = int(np.count_nonzero(dec.eigenvalues[:coordinates.shape[1]] > dec.zero_threshold))
        coordinates[:, p:] = 0.0
    else:
        spec = symmetric(n)
        dm = build_distance_matrix(spec, hamming_metric(spec))
        full = dense.classical_embedding(dense.eigendecompose(dense.double_center(dm)), dims)
        index = {g: i for i, g in enumerate(dm.labels)}
        coordinates = full.coordinates[[index[s.permutation] for s in samples]]
        p = full.signature[0]
    return reference_csv(samples, coordinates, p)


def reference_csv(samples, coordinates, p):
    """The per-row CSV writer: csv.writer on each row's id, label, weight
    and coordinate reprs, the columns past the first p headed as zero."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "label", "weight"]
                    + [f"x{c + 1}:{'+' if c < p else '0'}" for c in range(coordinates.shape[1])])
    for i, s in enumerate(samples):
        row = [i, ",".join(str(v) for v in s.permutation), s.weight]
        row.extend(repr(float(v)) for v in coordinates[i])
        writer.writerow(row)
    return buf.getvalue()


def mallows_text(n, rows, theta, seed):
    """A repeated-insertion Mallows sample around the identity ranking,
    every seventh row carrying a count suffix."""
    rng = random.Random(seed)
    lines = [",".join(f"item{i}" for i in range(1, n + 1))]
    for r in range(rows):
        ranking = []
        for i in range(1, n + 1):
            weights = [math.exp(-theta * (i - 1 - j)) for j in range(i)]
            ranking.insert(rng.choices(range(i), weights)[0], i)
        line = ",".join(map(str, ranking))
        lines.append(line if r % 7 else f"{line};{r % 5 + 1}")
    return "\n".join(lines) + "\n"


def parse_outcome(parse, text):
    try:
        result = parse(text)
    except RankingParseError as exc:
        return ("error", str(exc), exc.line_number)
    return ("ok", result)


FAULTS = ("bad count", "zero count", "non-integer", "out of range", "wrong width",
          "repeated item")


@st.composite
def ranking_files(draw):
    """(text, faults): a ranking file with comments, blank lines, spaces and
    count suffixes, and 0-3 injected faults; an entry of 2^66 does not fit
    in int64."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.permutations(range(1, n + 1)), max_size=25))
    counts = draw(st.lists(
        st.one_of(st.none(), st.integers(1, 40), st.integers(2 ** 62, 2 ** 64)),
        min_size=len(rows), max_size=len(rows)))
    bodies = [[str(v) for v in row] for row in rows]
    suffixes = [None if c is None else str(c) for c in counts]
    faults = draw(st.lists(
        st.tuples(st.sampled_from(FAULTS), st.integers(0, 10 ** 6)),
        max_size=3 if rows else 0))
    for fault, at in faults:
        i = at % len(rows)
        if fault == "bad count":
            suffixes[i] = draw(st.sampled_from(["x", "", "1.5", "2 3"]))
        elif fault == "zero count":
            suffixes[i] = draw(st.sampled_from(["0", "-3", " -1 "]))
        elif fault == "non-integer":
            bodies[i] = bodies[i] or [""]
            bodies[i][at % len(bodies[i])] = draw(st.sampled_from(["a", "", "1.0", "2x"]))
        elif fault == "out of range" and bodies[i]:
            bodies[i][at % len(bodies[i])] = draw(st.sampled_from(
                ["0", "-1", str(n + 1), str(2 ** 66)]))
        elif fault == "wrong width":
            bodies[i] = bodies[i][:-1] if at % 2 else bodies[i] + [str(at % (n + 2))]
        elif len(bodies[i]) >= 2:
            bodies[i][1] = bodies[i][0]
    lines = [draw(st.sampled_from(["", "# a comment", "   "])) for _ in range(draw(st.integers(0, 2)))]
    lines.append(",".join(f"i{j}" for j in range(n)))
    for body, suffix in zip(bodies, suffixes):
        for _ in range(draw(st.integers(0, 1))):
            lines.append(draw(st.sampled_from(["", "# between", "  # indented"])))
        line = draw(st.sampled_from([",", ", ", " ,"])).join(body)
        lines.append(line if suffix is None else f"{line};{suffix}")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), faults


@settings(max_examples=300, deadline=None)
@given(ranking_files())
def test_parse_and_aggregate_match_the_per_line_references(case):
    assert_parses_like_the_reference(case[0])


def assert_parses_like_the_reference(text):
    expected = parse_outcome(reference_parse, text)
    got = parse_outcome(parse_rankings, text)
    if expected[0] == "error":
        assert got == expected
        return
    items, records = expected[1]
    ds = got[1]
    assert (ds.items, ds.records) == (items, records)
    assert ds.total_count == sum(r.count for r in records)
    assert list(aggregate(ds)) == reference_aggregate(records)


@pytest.mark.parametrize("token", [" 3", "+3", "03", "\u0663", "1_0", "0", str(2 ** 70), "1.0",
                                   "3 ", "-3", "", "x", "10", "11"])
@pytest.mark.parametrize("n", [3, 10])
def test_entries_off_the_canonical_spellings_follow_int(n, token):
    # An entry that is not "1".."n" is read by int(): spaces, a sign, a
    # leading zero, another script's digit and underscores are accepted; a
    # value outside 1..n, a float or a non-number is not.
    row = [str(v) for v in range(1, n + 1)]
    row[2] = token
    assert_parses_like_the_reference(",".join(f"i{j}" for j in range(n)) + "\n" + ",".join(row) + ";2\n")


@pytest.mark.parametrize("fault", ["1,2,4", "1,2,x", "1,2", "1,2,3;0", "1,2,3;y", "1,1,3"])
@pytest.mark.parametrize("line", [2, 5, 6, 9, 13])
def test_a_fault_on_a_chunk_edge_is_found(monkeypatch, fault, line):
    # Four lines a chunk: data lines 2-5, 6-9 and 10-13, so the fault sits
    # on the first or the last line of one.
    monkeypatch.setattr(rankings, "_CHUNK_ENTRIES", 12)
    lines = ["A,B,C"] + ["2,3,1;2" if i % 3 else "1,2,3" for i in range(14)]
    lines[line - 1] = fault
    text = "\n".join(lines) + "\n"
    want = parse_outcome(reference_parse, text)
    assert want[0] == "error" and want[2] == line
    assert parse_outcome(parse_rankings, text) == want


def test_a_row_out_of_range_wins_over_a_later_bad_count():
    with pytest.raises(RankingParseError) as excinfo:
        parse_rankings("A,B,C\n1,2,3\n1,2,4\n3,2,1;x\n1,2\n")
    assert (str(excinfo.value), excinfo.value.line_number) == (
        "line 3: not a full ranking of 1..3", 3)


def test_chunks_of_lines_parse_as_one(monkeypatch):
    text = mallows_text(5, 200, 0.5, 9)
    whole = parse_rankings(text)
    monkeypatch.setattr(rankings, "_CHUNK_ENTRIES", 7)  # one line a chunk
    chunked = parse_rankings(text)
    assert np.array_equal(whole.rankings, chunked.rankings)
    assert np.array_equal(whole.counts, chunked.counts)


def test_the_first_offending_line_wins_over_a_later_fault():
    # Line 3 repeats an item; line 4 has the wrong width, found first in the pass.
    with pytest.raises(RankingParseError) as excinfo:
        parse_rankings("A,B,C\n1,2,3\n2,2,1\n1,2\n")
    assert (str(excinfo.value), excinfo.value.line_number) == (
        "line 3: not a full ranking of 1..3", 3)


def test_counts_past_int64_stay_exact():
    big = 2 ** 63
    ds = parse_rankings(f"A,B\n1,2;{big}\n2,1;3\n1,2;{big}\n")
    assert ds.total_count == 2 * big + 3
    assert [(s.permutation, s.weight) for s in aggregate(ds)] == [((1, 2), 2 * big), ((2, 1), 3)]


def shared_prefix_text(n, seed):
    """Rankings of n items whose permutations repeat or differ only in their
    last few images, so that past 16 items distinct rows can tie on the first key."""
    rng = random.Random(seed)
    heads = [rng.sample(range(1, n + 1), n) for _ in range(3)]
    lines = [",".join(f"i{j}" for j in range(1, n + 1))]
    for r in range(300):
        perm = list(rng.choice(heads))
        tail = perm[n - rng.randrange(0, 4):]
        rng.shuffle(tail)
        perm[n - len(tail):] = tail
        ranking = [0] * n
        for item, position in enumerate(perm, start=1):
            ranking[position - 1] = item
        lines.append(",".join(map(str, ranking)) + (f";{r % 5 + 1}" if r % 3 else ""))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n,keys", [(15, 1), (16, 2), (17, 2), (31, 3)])
def test_aggregate_on_several_keys_matches_the_reference(n, keys):
    text = shared_prefix_text(n, n)
    ds = parse_rankings(text)
    assert groups.permutation_keys(ranking_to_permutation(ds.rankings) - 1).shape[1] == keys
    assert list(aggregate(ds)) == reference_aggregate(reference_parse(text)[1])


# --- array kernels -------------------------------------------------------------


def test_standard_rep_coordinates_of_an_array_stack_the_per_row_calls():
    rows = np.array([ranking_to_permutation(tuple(r)) for r in
                     synthesize_rankings(7, 200, seed=4).rankings.tolist()])
    block = standard_rep_coordinates(rows, 7)
    assert block.shape == (200, 49)
    assert np.array_equal(block, np.stack([standard_rep_coordinates(tuple(g), 7) for g in rows]))


def test_ranking_to_permutation_of_an_array_matches_the_per_row_results():
    rankings = synthesize_rankings(6, 300, seed=5).rankings
    perms = ranking_to_permutation(rankings)
    assert perms.shape == (300, 6)
    assert perms.tolist() == [list(reference_permutation(r)) for r in rankings.tolist()]
    assert [ranking_to_permutation(tuple(r)) for r in rankings.tolist()] == [
        tuple(p) for p in perms.tolist()]


@pytest.mark.parametrize("n,seed,mode", [(4, 1, "dense"), (5, 2, "dense"), (6, 3, "dense"),
                                         (10, 4, "standard"), (14, 5, "standard")])
def test_embedding_csv_is_byte_identical_to_the_per_row_reference(monkeypatch, n, seed, mode):
    text = mallows_text(n, 300, 0.7, seed)
    ds = parse_rankings(text)
    emb = embed_dataset(aggregate(ds), n, 3, mode=mode)
    if mode == "dense":
        want = reference_embedding_csv(text, 3, mode)
    else:
        # The block path sums in another order than the reference embedding
        # (see below), so labels, weights and the writer are checked on its
        # own coordinates.
        want = reference_csv(reference_aggregate(reference_parse(text)[1]), emb.coordinates,
                             emb.signature[0])
    assert dense.embedding_to_csv(emb) == want
    monkeypatch.setattr(dense, "_CSV_CHUNK_ROWS", 7)  # rows cross chunk edges
    assert dense.embedding_to_csv(emb) == want


@pytest.mark.parametrize("label", ["plain", "a,b", 'say "hi"', '"', "two\nlines", "cr\rhere",
                                   "", " lead", "semi;colon", "tab\there"])
def test_embedding_csv_quotes_labels_as_csv_writer_does(label):
    emb = dense.EmbeddingResult(coordinates=np.array([[0.5, -0.0], [1e-300, 3.0]]),
                                eigenvalues=(2.0, 1.0), signature=(1, 1),
                                row_labels=(label, label + "x"), weights=(3, 2 ** 70))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "label", "weight", "x1:+", "x2:-"])
    writer.writerows([[0, label, 3, "0.5", "-0.0"], [1, label + "x", 2 ** 70, "1e-300", "3.0"]])
    assert dense.embedding_to_csv(emb) == buf.getvalue()


@pytest.mark.parametrize("n,seed", [(6, 3), (7, 4)])
def test_default_embedding_csv_does_not_depend_on_the_blas_thread_count(tmp_path, n, seed):
    # The dense oracle picks its own axes inside the (n-1)^2-fold top
    # eigenspace on each thread count; the default embeds the cloud, whose
    # covariance has distinct top eigenvalues here, so the bytes agree.
    ranking_file = tmp_path / "rankings.txt"
    ranking_file.write_text(mallows_text(n, 300, 0.7, seed))
    src = os.path.dirname(os.path.dirname(dense.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-m", "groupmds.cli", "embed", "--input", str(ranking_file)],
            capture_output=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def big_count_text(n, rows, seed):
    """Mallows rows whose counts each pass 10^19, so their sum passes int64."""
    lines = mallows_text(n, rows, 0.5, seed).splitlines()
    return "\n".join(lines[:1] + [f"{line.partition(';')[0]};{10 ** 19 + 977 * r}"
                                  for r, line in enumerate(lines[1:])]) + "\n"


def skewed_text(n, counts, seed):
    """Distinct Mallows rankings carrying ``counts`` in turn."""
    lines = mallows_text(n, 400, 0.5, seed).splitlines()
    rankings = list(dict.fromkeys(line.partition(";")[0] for line in lines[1:]))
    assert len(rankings) >= len(counts)
    return "\n".join(lines[:1] + [f"{r};{c}" for r, c in zip(rankings, counts)]) + "\n"


# Nearly all the weight on one ranking: the moments of the few rows off it
# must survive beside the mode's weight, squared.
SKEWED_COUNTS = {
    "skewed past int64": [3, 1, 2 ** 63 - 1, 12],
    "skewed 10^12": [10 ** 12] + [r % 5 + 1 for r in range(1, 20)],
}


def assert_standard_csv_matches_the_per_row_reference(text, n):
    # The marginal counts sum in another order than the reference's block
    # and weighted gemm, so only the last bits of the coordinates may move.
    # A sparse cloud's axes can have two largest entries of equal size and
    # opposite sign; the sign rule reads them as a tie, so the last bits
    # never pick an axis's sign.
    emb = embed_dataset(aggregate(parse_rankings(text)), n, 3, mode="standard")
    got = list(csv.reader(io.StringIO(dense.embedding_to_csv(emb))))
    want = list(csv.reader(io.StringIO(reference_embedding_csv(text, 3, "standard"))))
    assert got[0] == want[0]
    assert [row[:3] for row in got] == [row[:3] for row in want]
    x = np.array([row[3:] for row in got[1:]], dtype=float)
    y = np.array([row[3:] for row in want[1:]], dtype=float)
    assert np.abs(x - y).max() <= 1e-11 * np.abs(y).max()


@pytest.mark.parametrize("n,seed", [(2, 4), (3, 5), (4, 1), (5, 2), (6, 3)])
def test_standard_embedding_csv_matches_the_per_row_reference(n, seed):
    assert_standard_csv_matches_the_per_row_reference(mallows_text(n, 300, 0.7, seed), n)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("counts", list(SKEWED_COUNTS))
def test_standard_embedding_csv_of_skewed_counts_matches_the_per_row_reference(n, counts):
    text = skewed_text(n, SKEWED_COUNTS[counts], n)
    assert_standard_csv_matches_the_per_row_reference(text, n)


def exact_block_covariance(samples, n):
    """The weighted covariance of the rows' block vectors, from its
    definition on exact integers: with v_g the 0/1 vector of P_g and
    u_g = W v_g - c1 (centred and scaled by W), it is
    (2n - 3)/2 * sum_g w_g u_g u_g^T / W^3."""
    total = sum(s.weight for s in samples)
    v = np.zeros((len(samples), n * n), dtype=object)
    for i, s in enumerate(samples):
        for j, image in enumerate(s.permutation):
            v[i, (image - 1) * n + j] = 1
    w = np.array([s.weight for s in samples], dtype=object)
    u = total * v - (w[:, None] * v).sum(axis=0)
    second = (u.T * w) @ u
    return [[Fraction(2 * n - 3, 2) * Fraction(second[a, b], total ** 3)
             for b in range(n * n)] for a in range(n * n)]


def standard_covariance(monkeypatch, samples, n):
    """The matrix the standard embedding hands to its eigensolver."""
    seen = []
    real = dense.eigendecompose
    monkeypatch.setattr(dense, "eigendecompose", lambda kernel: seen.append(kernel) or real(kernel))
    embed_dataset(samples, n, 3, mode="standard")
    return seen[-1]


def scaled_counts(text, factor):
    """The file with every count multiplied by ``factor``, written and read back."""
    ds = parse_rankings(text)
    counts = np.array(ds.counts.tolist(), dtype=object) * factor
    return parse_rankings(dataset_to_text(RankingDataset(ds.items, ds.rankings, counts)))


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("counts", ["small", "past int64"] + list(SKEWED_COUNTS))
def test_standard_covariance_matches_exact_arithmetic(monkeypatch, n, counts):
    if counts in SKEWED_COUNTS:
        text = skewed_text(n, SKEWED_COUNTS[counts], n)
    else:
        text = mallows_text(n, 40, 0.5, n) if counts == "small" else big_count_text(n, 40, n)
    samples = aggregate(parse_rankings(text))
    assert samples.weights.dtype == (object if "int64" in counts else np.int64)
    cov = standard_covariance(monkeypatch, samples, n)
    assert np.array_equal(cov, cov.T)
    exact = exact_block_covariance(samples, n)
    largest = max(abs(e) for row in exact for e in row)
    error = max(abs(Fraction(float(x)) - e) for got, want in zip(cov.tolist(), exact)
                for x, e in zip(got, want))
    assert error <= Fraction(1, 10 ** 15) * largest


@pytest.mark.parametrize("n", [4, 5, 6])
def test_standard_coordinates_ignore_a_common_count_factor(n):
    # Every scaling keeps each count and product exact in float64 (2^62 and
    # 2^600 are powers of two), and division rounds correctly, so the bits
    # cannot move. Past int64 the weights are objects; 2^600 squared would
    # overflow a float.
    text = mallows_text(n, 300, 0.7, n)
    base = embed_dataset(aggregate(parse_rankings(text)), n, 3, mode="standard")
    for factor in (3, 2 ** 62, 2 ** 600):
        samples = aggregate(scaled_counts(text, factor))
        assert samples.weights.dtype == (np.int64 if factor == 3 else object)
        emb = embed_dataset(samples, n, 3, mode="standard")
        assert np.array_equal(emb.coordinates, base.coordinates)
        assert emb.eigenvalues == base.eigenvalues


def test_aggregated_samples_iterate_as_permutation_samples():
    samples = aggregate(parse_rankings("A,B,C\n3,1,2\n3,1,2;4\n1,2,3\n"))
    assert len(samples) == 2
    assert list(samples) == [PermutationSample((1, 2, 3), 1), PermutationSample((2, 3, 1), 5)]


def test_the_quantities_the_benchmark_hooks_read_keep_their_meaning():
    text = "A,B,C\n# c\n3,1,2\n3,1,2;4\n\n1,2,3;2\n"
    ds = parse_rankings(text)
    assert len(ds.records) == 3  # rows read
    assert len(aggregate(ds)) == 2  # distinct permutations
    assert ds.total_count == 7  # count sum


# --- standard-mode byte guard --------------------------------------------------


def test_standard_mode_refuses_a_block_over_the_byte_bound_before_allocating():
    # 2000 distinct rankings of 200 items: a 2000 x 40000 block and a
    # 40000^2 covariance, tens of gigabytes.
    samples = aggregate(synthesize_rankings(200, 2000, seed=8))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(TooLargeError) as excinfo:
            embed_dataset(samples, 200, 3, mode="standard")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20
    assert excinfo.value.cap == groups.TABLE_MAX_BYTES
    assert "the standard-block embedding of 2000 permutations of 200 items" in str(excinfo.value)


@pytest.mark.parametrize("n,rows,peak_bound", [(14, 25_000, 12 << 20), (60, 50, None)])
def test_standard_mode_admits_at_least_its_traced_peak(monkeypatch, n, rows, peak_bound):
    # 14 items, 25,000 distinct rows: the benchmark's uniform file, whose
    # k x n^2 block alone was 37.4 MiB. 60 items: the largest admitted, where
    # the n^4 covariance and its eigendecomposition dominate.
    samples = aggregate(synthesize_rankings(n, rows, seed=11))
    assert len(samples) == rows
    admitted = []
    real = groups.admit
    monkeypatch.setattr(groups, "admit", lambda what, **size: admitted.append(size) or real(what, **size))
    tracemalloc.start()
    try:
        embed_dataset(samples, n, 3, mode="standard")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_bound is None or peak < peak_bound
    # The block embedding's bytes count its labels too; the labels' own
    # admission, second, is checked against their peak below.
    assert len(admitted) == 2
    assert admitted[0]["nbytes"] >= peak


@pytest.mark.parametrize("n,rows", [(10, 50_000), (14, 25_000)])
def test_standard_mode_admits_files_the_size_of_the_benchmark_inputs(n, rows):
    # Uniform rows are (almost) all distinct, so these bound the benchmark's
    # Mallows n = 10 file and its uniform n = 14 file from above.
    samples = aggregate(synthesize_rankings(n, rows, seed=11))
    emb = embed_dataset(samples, n, 3, mode="standard")
    assert emb.coordinates.shape == (len(samples), 3)


# --- text admissions -------------------------------------------------------------


def traced(monkeypatch, call, *args):
    """(result, traced peak, the sizes admitted) of one call."""
    admitted = []
    real = groups.admit
    monkeypatch.setattr(groups, "admit", lambda what, **size: admitted.append(size) or real(what, **size))
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, admitted


def counted_text(n, rows, seed):
    ds = synthesize_rankings(n, rows, seed=seed)
    return dataset_to_text(RankingDataset(ds.items, ds.rankings, np.arange(2, rows + 2)))


@pytest.mark.parametrize("text", [
    pytest.param(lambda: dataset_to_text(synthesize_rankings(10, 50_000, seed=11)), id="10x50000"),
    pytest.param(lambda: dataset_to_text(synthesize_rankings(14, 25_000, seed=12)), id="14x25000"),
    pytest.param(lambda: dataset_to_text(synthesize_rankings(2, 100_000, seed=13)), id="2x100000"),
    pytest.param(lambda: dataset_to_text(synthesize_rankings(400, 300, seed=14)), id="400x300"),
    pytest.param(lambda: counted_text(10, 30_000, 15), id="counted"),
    pytest.param(lambda: "# c\n\nA,B,C\n" + "  3,1,2 ;7\n# x\n\n" * 20_000, id="comments"),
])
def test_parse_admits_at_least_its_traced_peak(monkeypatch, text):
    text = text()
    dataset, peak, admitted = traced(monkeypatch, parse_rankings, text)
    assert len(admitted) == 1 and admitted[0]["nbytes"] >= peak
    # The benchmark's files hold at most 50,000 rows: well inside both bounds.
    assert admitted[0]["nbytes"] < groups.TABLE_MAX_BYTES // 10
    assert admitted[0]["work"] < groups.WORK_MAX // 10
    assert len(dataset.rankings) > 0


def test_parse_refuses_past_the_byte_bound_before_splitting(monkeypatch):
    text = dataset_to_text(synthesize_rankings(10, 20_000, seed=3))
    monkeypatch.setattr(groups, "TABLE_MAX_BYTES", len(text))
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError) as excinfo:
            parse_rankings(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(text) // 10  # no list of lines was made
    assert excinfo.value.cap == len(text)
    assert str(excinfo.value).startswith(f"parsing {len(text)} characters of rankings needs ")


@pytest.mark.parametrize("n,rows", [(10, 50_000), (14, 25_000), (200, 500)])
def test_row_labels_admit_at_least_their_traced_peak(monkeypatch, n, rows):
    perms = aggregate(synthesize_rankings(n, rows, seed=6)).permutations
    labels, peak, admitted = traced(monkeypatch, rankings._permutation_labels, perms)
    assert len(admitted) == 1 and admitted[0]["nbytes"] >= peak
    assert admitted[0]["work"] < groups.WORK_MAX // 10
    assert labels == tuple(",".join(map(str, p)) for p in perms.tolist())


@pytest.mark.parametrize("items,rows,counts", [(5, 300, None), (12, 7000, "mixed"), (3000, 30, "big")])
def test_dataset_text_matches_the_per_row_writer(monkeypatch, items, rows, counts):
    ds = synthesize_rankings(items, rows, seed=2)
    if counts == "mixed":
        ds = RankingDataset(ds.items, ds.rankings, np.arange(rows) % 3 + 1)
    elif counts == "big":
        ds = RankingDataset(ds.items, ds.rankings, np.array([2 ** 70 + i for i in range(rows)], dtype=object))
    lines = [",".join(ds.items)]
    for row, count in zip(ds.rankings.tolist(), ds.counts.tolist()):
        line = ",".join(map(str, row))
        lines.append(line if count == 1 else f"{line};{count}")
    want = "\n".join(lines) + "\n"
    assert dataset_to_text(ds) == want
    monkeypatch.setattr(rankings, "_CHUNK_ENTRIES", 7 * items)  # seven rows a chunk
    assert dataset_to_text(ds) == want
