import random
import tracemalloc

import numpy as np
import pytest

from groupmds import dense, metrics, verify
from groupmds.dense import (
    SpectralDecomposition,
    classical_embedding,
    double_center,
    eigendecompose,
    embedding_to_csv,
    full_rank_pseudo_embedding,
    kernel_eigenvalues,
    strain,
)
from groupmds.groups import cyclic, elementary_abelian_2, symmetric
from groupmds.metrics import build_distance_matrix, hamming_metric


def centering_matrix(n):
    return np.eye(n) - np.ones((n, n)) / n


def kernel_of(spec):
    dm = build_distance_matrix(spec, metrics.default_metric(spec))
    return double_center(dm)


# A path is a tree; its metric is realized on a line, hence Euclidean.
PATH_POSITIONS = np.array([0.0, 1.0, 3.0, 3.5, 7.0])
PATH_D = np.abs(PATH_POSITIONS[:, None] - PATH_POSITIONS[None, :])


# --- double centering ---------------------------------------------------------


def test_double_center_two_points():
    kernel = double_center(np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert np.allclose(kernel.matrix, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)


def test_double_center_zero_matrix():
    kernel = double_center(np.zeros((4, 4)))
    assert np.all(kernel.matrix == 0)


def test_double_center_matches_projection_matrices():
    rng = np.random.default_rng(5)
    d = np.abs(rng.normal(size=(7, 7)))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    h = centering_matrix(7)
    expected = -0.5 * h @ (d * d) @ h
    assert np.allclose(double_center(d).matrix, expected, atol=1e-12)


@pytest.mark.parametrize("spec", [symmetric(5), elementary_abelian_2(6), cyclic(61)],
                         ids=lambda spec: spec.text)
def test_double_center_in_place_equals_the_formula(spec):
    d = build_distance_matrix(spec, metrics.default_metric(spec)).values.astype(float)
    before = d.copy()
    sq = d * d
    row = sq.mean(axis=1, keepdims=True)
    col = sq.mean(axis=0, keepdims=True)
    expected = -0.5 * (sq - row - col + sq.mean())
    assert np.array_equal(double_center(d).matrix, expected)
    assert np.array_equal(d, before)  # the float input is not written to


STREAMED_SPECS = ([symmetric(n) for n in range(1, 7)]
                  + [elementary_abelian_2(k) for k in range(1, 11)]
                  + [cyclic(n) for n in (1, 2, 7, 60, 720)])


@pytest.mark.parametrize("spec", STREAMED_SPECS, ids=lambda spec: spec.text)
def test_the_kernel_squared_from_distance_blocks_is_the_centered_matrix(spec):
    metric = metrics.default_metric(spec)
    streamed = dense.double_center_rows(spec.order, metrics.distance_blocks(spec, metric))
    assert streamed.matrix.tobytes() == kernel_of(spec).matrix.tobytes()


def test_the_dense_spectrum_check_holds_one_kernel():
    # The int64 distances held beside the kernel would make 16 m^2 bytes.
    # Above the kernel sit at most a distance block while it fills, then the
    # sketch, its basis, and a residual strip with its product: a strip is
    # CHUNK_ENTRIES float64 entries.
    spec = elementary_abelian_2(10)
    metric = metrics.default_metric(spec)
    side, strip = spec.order, metrics.CHUNK_ENTRIES * 8
    tracemalloc.start()
    try:
        found = kernel_eigenvalues(verify.dense_oracle(spec, metric))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found.rank < side
    assert peak < 8 * side * side + 4 * strip


def test_c22_kernel_trace():
    kernel = kernel_of(elementary_abelian_2(2))
    assert kernel.matrix.trace() == pytest.approx(3.0, abs=1e-12)


def test_centered_kernel_row_sums_vanish():
    kernel = kernel_of(symmetric(4))
    bound = 1e-10 * kernel.size * np.max(np.abs(kernel.matrix))
    assert np.max(np.abs(kernel.matrix.sum(axis=0))) <= bound
    assert np.max(np.abs(kernel.matrix.sum(axis=1))) <= bound


def test_centering_is_idempotent_on_kernels():
    kernel = kernel_of(elementary_abelian_2(3))
    h = centering_matrix(kernel.size)
    recentered = h @ kernel.matrix @ h
    assert np.max(np.abs(recentered - kernel.matrix)) <= 1e-12


# --- eigendecomposition -------------------------------------------------------


def test_eigendecompose_two_point_kernel():
    dec = eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(dec.eigenvalues, [2.0, 0.0], atol=1e-12)


def test_eigendecompose_identity():
    dec = eigendecompose(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])


def test_c22_hamming_spectrum():
    # Eigenvalue multiset {2, 2, -1, 0}; stored descending, so the zero
    # precedes the negative value.
    dec = eigendecompose(kernel_of(elementary_abelian_2(2)))
    assert np.allclose(dec.eigenvalues, [2.0, 2.0, 0.0, -1.0], atol=1e-10)


def test_eigendecompose_reconstruction_and_orthonormality():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(30, 30))
    m = (m + m.T) / 2
    dec = eigendecompose(m)
    rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
    assert np.max(np.abs(m - rebuilt)) <= 1e-8 * np.max(np.abs(dec.eigenvalues))
    gram = dec.eigenvectors.T @ dec.eigenvectors
    assert np.max(np.abs(gram - np.eye(30))) <= 1e-10
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12)  # descending


def test_eigendecompose_rejects_asymmetric():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        eigendecompose(bad)


@pytest.mark.parametrize("kernel", [
    pytest.param(lambda: kernel_of(symmetric(4)), id="S4"),
    pytest.param(lambda: kernel_of(symmetric(5)), id="S5"),
    pytest.param(lambda: kernel_of(elementary_abelian_2(6)), id="C2^6"),
    pytest.param(lambda: kernel_of(cyclic(12)), id="C12"),
    pytest.param(lambda: double_center(PATH_D), id="path"),
])
def test_kernel_eigenvalues_match_the_full_decomposition(kernel):
    kernel = kernel()
    values = kernel_eigenvalues(kernel).eigenvalues
    expected = eigendecompose(kernel).eigenvalues
    radius = float(np.max(np.abs(expected)))
    assert values.shape == expected.shape
    assert np.max(np.abs(values - expected)) <= 1e-10 * radius


def points_kernel(count, dims, seed):
    """The classical-MDS kernel of random points in R^dims, of rank dims,
    with its nonzero eigenvalues from the points' own SVD."""
    x = np.random.default_rng(seed).normal(size=(count, dims))
    diff = x[:, None, :] - x[None, :, :]
    kernel = double_center(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))
    singular = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
    return kernel, np.append(singular ** 2, np.zeros(count - dims))


@pytest.mark.parametrize("k", [6, 9, 10])
def test_a_low_rank_kernel_is_solved_on_its_range_within_its_bound(k):
    kernel = kernel_of(elementary_abelian_2(k))
    found = kernel_eigenvalues(kernel)
    full = np.linalg.eigvalsh(kernel.matrix)[::-1]
    assert found.rank == k + k * (k - 1) // 2
    assert 0.0 < found.error_bound < 1e-12 * 2 ** k * k
    assert np.count_nonzero(found.eigenvalues) == found.rank
    # Weyl: both lie within their own errors of the exact spectrum.
    exact = np.sort(np.repeat([2.0 ** (k - 2) * k, -2.0 ** (k - 2), 0.0],
                              [k, k * (k - 1) // 2, 2 ** k - found.rank]))[::-1]
    full_dev = np.max(np.abs(full - exact))
    assert np.max(np.abs(found.eigenvalues - exact)) + found.error_bound >= full_dev
    assert np.max(np.abs(found.eigenvalues - full)) <= found.error_bound + full_dev


def test_a_low_rank_kernel_without_a_group_is_solved_on_its_range():
    kernel, exact = points_kernel(400, 5, seed=3)
    found = kernel_eigenvalues(kernel)
    full = np.linalg.eigvalsh(kernel.matrix)[::-1]
    assert found.rank == 5
    assert 0.0 < found.error_bound < 1e-12 * exact[0]
    full_dev = np.max(np.abs(full - exact))
    assert np.max(np.abs(found.eigenvalues - exact)) + found.error_bound >= full_dev
    assert np.max(np.abs(found.eigenvalues - full)) <= found.error_bound + full_dev


@pytest.mark.parametrize("spec", [cyclic(12), cyclic(720), symmetric(5)], ids=lambda s: s.text)
def test_a_full_rank_kernel_falls_back_to_eigvalsh_bytes(spec):
    kernel = kernel_of(spec)
    found = kernel_eigenvalues(kernel)
    assert found.eigenvalues.tobytes() == np.linalg.eigvalsh(kernel.matrix)[::-1].tobytes()
    assert (found.error_bound, found.rank) == (0.0, spec.order)


def test_a_kernel_off_its_sketched_range_falls_back(monkeypatch):
    # Rank 5 plus a component at 3e-11 of the norm: the sketch sees rank 5, but
    # the residual is far above the tolerance, so eigvalsh decides.
    kernel, _ = points_kernel(400, 5, seed=3)
    noise = np.random.default_rng(4).normal(size=(400, 400))
    m = kernel.matrix + 3e-11 * np.linalg.norm(kernel.matrix) * (noise + noise.T) / 800
    certified, real = [], dense._certified
    monkeypatch.setattr(dense, "_certified", lambda m, q: certified.append(q.shape[1]) or real(m, q))
    found = kernel_eigenvalues(m)
    assert certified == [5]
    assert found.eigenvalues.tobytes() == np.linalg.eigvalsh(m)[::-1].tobytes()
    assert (found.error_bound, found.rank) == (0.0, 400)


def test_kernel_eigenvalues_repeat_to_the_byte():
    kernel = kernel_of(elementary_abelian_2(9))
    first, second = kernel_eigenvalues(kernel), kernel_eigenvalues(kernel)
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert (first.error_bound, first.rank) == (second.error_bound, second.rank)


def test_kernel_eigenvalues_rejects_asymmetric():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        kernel_eigenvalues(bad)


def test_sign_convention_deterministic():
    m = kernel_of(symmetric(4)).matrix
    d1 = eigendecompose(m)
    d2 = eigendecompose(m.copy())
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
    for col in range(d1.size):
        v = d1.eigenvectors[:, col]
        assert v[int(np.argmax(np.abs(v)))] >= 0


# --- positive semidefiniteness witnesses ---------------------------------------


def test_euclidean_cases_have_no_negative_eigenvalues():
    for d in (np.array([[0.0, 2.0], [2.0, 0.0]]), PATH_D):
        dec = eigendecompose(double_center(d))
        assert dec.eigenvalues.min() >= -1e-10


def test_s4_hamming_is_markedly_non_euclidean():
    dec = eigendecompose(kernel_of(symmetric(4)))
    assert dec.eigenvalues.min() <= -4 + 1e-8


# --- embeddings ---------------------------------------------------------------


def test_classical_embedding_two_points():
    dec = eigendecompose(double_center(np.array([[0.0, 2.0], [2.0, 0.0]])))
    emb = classical_embedding(dec, 1)
    coords = emb.coordinates[:, 0]
    assert sorted(np.round(coords, 10)) == [-1.0, 1.0]
    assert emb.signature == (1, 0)


def test_classical_embedding_fills_columns_past_the_positive_rank_with_zeros():
    # (C_2)^2 Hamming: eigenvalues 2, 2, -2 and 0 (the trivial); two positive.
    dec = eigendecompose(kernel_of(elementary_abelian_2(2)))
    emb = classical_embedding(dec, 3)
    assert emb.coordinates.shape == (4, 3)
    assert emb.signature == (2, 0)
    assert np.all(np.abs(emb.coordinates[:, :2]).max(axis=0) > 0.1)
    assert np.all(emb.coordinates[:, 2] == 0.0) and emb.eigenvalues[2] == 0.0
    assert classical_embedding(dec, 9).coordinates.shape == (4, 4)  # capped at the size
    assert dense.embedding_to_csv(emb).split("\n", 1)[0].endswith("x1:+,x2:+,x3:0")
    with pytest.raises(ValueError):
        classical_embedding(dec, 0)


def test_classical_embedding_distances_match_euclidean_input():
    dec = eigendecompose(double_center(PATH_D))
    emb = classical_embedding(dec, dec.size)
    x = emb.coordinates
    gram = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
    assert np.allclose(np.sqrt(np.maximum(gram, 0)), PATH_D, atol=1e-8)


def test_pseudo_embedding_signatures():
    dec = eigendecompose(kernel_of(elementary_abelian_2(2)))
    emb = full_rank_pseudo_embedding(dec)
    assert emb.signature == (2, 1)

    dec4 = eigendecompose(kernel_of(symmetric(4)))
    emb4 = full_rank_pseudo_embedding(dec4)
    assert emb4.signature == (9, 13)
    # positive block first, then negatives by descending magnitude
    assert np.allclose(emb4.eigenvalues[:9], 20.0, atol=1e-8)
    assert np.allclose(emb4.eigenvalues[9:13], -6.0, atol=1e-8)
    assert np.allclose(emb4.eigenvalues[13:], -4.0, atol=1e-8)


def test_pseudo_embedding_equals_classical_when_all_positive():
    dec = eigendecompose(double_center(PATH_D))
    classical = classical_embedding(dec, dec.size)
    pseudo = full_rank_pseudo_embedding(dec)
    p = classical.signature[0]
    assert pseudo.signature == (p, 0)
    assert np.allclose(pseudo.coordinates, classical.coordinates[:, :p], atol=1e-12)
    assert np.all(classical.coordinates[:, p:] == 0.0)


def pseudo_distance_sq(emb, i, j):
    """Positive-block squared distance minus negative-block squared distance."""
    p, _ = emb.signature
    diff = emb.coordinates[i] - emb.coordinates[j]
    return float(np.sum(diff[:p] ** 2) - np.sum(diff[p:] ** 2))


def test_pseudo_distance_sq_examples():
    c22 = elementary_abelian_2(2)
    dm = build_distance_matrix(c22, hamming_metric(c22))
    emb = full_rank_pseudo_embedding(eigendecompose(double_center(dm)))
    i = dm.labels.index((0, 0))
    j = dm.labels.index((1, 1))
    assert pseudo_distance_sq(emb, i, j) == pytest.approx(4.0, abs=1e-10)
    assert pseudo_distance_sq(emb, i, i) == 0.0

    s4 = symmetric(4)
    dm4 = build_distance_matrix(s4, hamming_metric(s4))
    emb4 = full_rank_pseudo_embedding(eigendecompose(double_center(dm4)))
    e = dm4.labels.index((1, 2, 3, 4))
    t = dm4.labels.index((2, 1, 3, 4))
    assert pseudo_distance_sq(emb4, e, t) == pytest.approx(4.0, abs=1e-10)


def test_pseudo_distance_matrix_matches_pairwise_calls():
    dm = build_distance_matrix(symmetric(3), hamming_metric(symmetric(3)))
    emb = full_rank_pseudo_embedding(eigendecompose(double_center(dm)))
    mat = dense.pseudo_distance_sq_matrix(emb)
    for i in range(6):
        for j in range(6):
            assert mat[i, j] == pytest.approx(pseudo_distance_sq(emb, i, j), abs=1e-10)


# --- strain --------------------------------------------------------------------


def test_strain_small_example():
    dec = SpectralDecomposition(
        eigenvalues=np.array([3.0, 1.0, -2.0]),
        eigenvectors=np.eye(3),
        zero_threshold=0.0,
    )
    assert strain(dec, 1) == pytest.approx(5.0)
    assert strain(dec, 3) == 0.0


def test_strain_full_rank_is_zero():
    dec = eigendecompose(kernel_of(symmetric(4)))
    assert strain(dec, dec.size) == 0.0


def test_strain_c23_keep_three():
    dec = eigendecompose(kernel_of(elementary_abelian_2(3)))
    assert strain(dec, 3) == pytest.approx(12.0, abs=1e-8)


def test_strain_equals_frobenius_error_of_truncation():
    dec = eigendecompose(kernel_of(symmetric(4)))
    m = kernel_of(symmetric(4)).matrix
    rng = random.Random(6)
    for k in sorted(rng.sample(range(0, 25), 5)):
        f = dec.eigenvectors[:, :k]
        rebuilt = f @ np.diag(dec.eigenvalues[:k]) @ f.T
        frob = float(np.sum((m - rebuilt) ** 2))
        assert abs(strain(dec, k) - frob) <= 1e-8


# --- serialization --------------------------------------------------------------


def test_embedding_csv_layout():
    dec = eigendecompose(kernel_of(elementary_abelian_2(2)))
    emb = full_rank_pseudo_embedding(dec)
    lines = embedding_to_csv(emb).splitlines()
    assert lines[0] == "id,label,weight,x1:+,x2:+,x3:-"
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "1"
    assert len(first) == 6
    float(first[3])  # coordinates round-trip through float()


def random_embedding(rows, labels=True, k=3):
    rng = np.random.default_rng(rows)
    return dense.EmbeddingResult(
        coordinates=rng.normal(size=(rows, k)), eigenvalues=(1.0,) * k, signature=(k, 0),
        row_labels=tuple(f"{i},{i + 1},label" for i in range(rows)) if labels else None,
        weights=tuple(range(1, rows + 1)) if labels else None)


@pytest.mark.parametrize("rows,labels", [(50_000, True), (20_000, False), (3, True)])
def test_the_csv_writer_admits_at_least_its_traced_peak(monkeypatch, rows, labels):
    emb = random_embedding(rows, labels)
    admitted = []
    real = dense.groups.admit
    monkeypatch.setattr(dense.groups, "admit",
                        lambda what, **size: admitted.append(size) or real(what, **size))
    tracemalloc.start()
    try:
        text = embedding_to_csv(emb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(admitted) == 1 and admitted[0]["nbytes"] >= peak
    # The benchmark's files write at most 50,000 rows: well inside both bounds.
    assert admitted[0]["nbytes"] < dense.groups.TABLE_MAX_BYTES // 10
    assert admitted[0]["work"] < dense.groups.WORK_MAX // 10
    assert text.count("\n") == rows + 1


def test_the_csv_writer_refuses_past_the_work_bound_before_writing(monkeypatch):
    monkeypatch.setattr(dense.groups, "WORK_MAX", 1000)
    with pytest.raises(dense.groups.TooLargeError) as excinfo:
        embedding_to_csv(random_embedding(5000))
    assert str(excinfo.value).startswith("the CSV text of 5000 embedded rows needs ")


@pytest.mark.parametrize("size", [1, 2, 63, 64, 65, 128, 200])
def test_the_eigensolvers_read_the_kernel_without_writing_it(size):
    # Tiles are 64 wide: sizes on, below and past a multiple of the tile.
    rng = random.Random(size)
    m = np.array([[rng.uniform(-1, 1) for _ in range(size)] for _ in range(size)])
    m = m + m.T
    m[size // 2, size - 1] *= 1 + 1e-12  # asymmetric below the tolerance
    before = m.tobytes()
    assert dense._checked_symmetric(m) is m
    assert dense._checked_symmetric(dense.MdsKernel(m)) is m
    for kernel in (m, dense.MdsKernel(m)):
        kernel_eigenvalues(kernel)
        eigendecompose(kernel)
    assert m.tobytes() == before


def test_eigendecompose_allocates_only_its_eigenvectors():
    kernel = kernel_of(elementary_abelian_2(9))
    side = kernel.size
    tracemalloc.start()
    try:
        eigendecompose(kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert side == 512
    assert peak < 1.5 * side * side * 8


@pytest.mark.parametrize("size", [2, 65, 130])
def test_symmetrization_refuses_an_asymmetric_kernel(size):
    m = np.ones((size, size))
    m[size - 1, 0] = 2.0  # in a tile below the diagonal
    before = m.copy()
    with pytest.raises(ValueError, match="not symmetric"):
        dense._checked_symmetric(m)
    with pytest.raises(ValueError, match="not symmetric"):
        dense.kernel_eigenvalues(m.T)
    assert np.array_equal(m, before)
