import random
from functools import partial
from itertools import product

import numpy as np
import pytest

from groupmds import dense, groups, metrics
from groupmds.errors import InvalidElementError, TooLargeError
from groupmds.groups import cyclic, elementary_abelian_2, enumerate_elements, symmetric
from groupmds.metrics import (
    Metric,
    build_distance_matrix,
    check_invariance,
    circular_arc_metric,
    hamming_metric,
)
from test_groups import brute_force_inverse
from test_spectral import LengthMetric, make_left_invariant_only_metric

ALL_METRIC_CASES = [
    (symmetric(4), hamming_metric(symmetric(4))),
    (elementary_abelian_2(3), hamming_metric(elementary_abelian_2(3))),
    (cyclic(6), circular_arc_metric(cyclic(6))),
]


class CorruptedMetric:
    """Wrap a metric and perturb one unordered pair; breaks invariance."""

    def __init__(self, base, a, b, delta=1):
        self.base = base
        self.group = base.group
        self.kind = "corrupted-" + base.kind
        self.pair = frozenset((a, b))
        self.delta = delta

    def distance(self, g, h):
        d = self.base.distance(g, h)
        if frozenset((g, h)) == self.pair:
            return d + self.delta
        return d


def test_distance_bitvector_example():
    c22 = elementary_abelian_2(2)
    assert hamming_metric(c22).distance((0, 0), (1, 1)) == 2


def test_distance_permutation_example():
    # (1 2) and (1 2 3) in one-line notation; they agree only at position 1.
    s3 = symmetric(3)
    assert hamming_metric(s3).distance((2, 1, 3), (2, 3, 1)) == 2


@pytest.mark.parametrize("spec,metric", ALL_METRIC_CASES)
def test_distance_of_element_to_itself(spec, metric):
    rng = random.Random(3)
    for _ in range(20):
        g = groups.random_element(spec, rng)
        assert metric.distance(g, g) == 0


def test_distance_to_identity_examples():
    s4 = symmetric(4)
    assert hamming_metric(s4).distance((2, 1, 4, 3), s4.identity()) == 4
    c24 = elementary_abelian_2(4)
    assert hamming_metric(c24).distance((0, 1, 1, 0), c24.identity()) == 2
    assert hamming_metric(s4).distance(s4.identity(), s4.identity()) == 0


def test_circular_arc_distance():
    c6 = circular_arc_metric(cyclic(6))
    assert c6.distance(0, 3) == 3
    assert c6.distance(1, 5) == 2
    assert c6.distance(5, 0) == 1


def test_metric_group_compatibility():
    with pytest.raises(InvalidElementError):
        Metric(metrics.HAMMING_PERMUTATION, cyclic(4))
    with pytest.raises(InvalidElementError):
        circular_arc_metric(symmetric(3))
    with pytest.raises(InvalidElementError):
        hamming_metric(cyclic(3))


def test_distance_matrix_c21():
    dm = build_distance_matrix(elementary_abelian_2(1), hamming_metric(elementary_abelian_2(1)))
    assert dm.values.tolist() == [[0, 1], [1, 0]]


def test_distance_matrix_c22_first_row():
    c22 = elementary_abelian_2(2)
    dm = build_distance_matrix(c22, hamming_metric(c22))
    assert dm.labels[0] == (0, 0)
    assert dm.values[0].tolist() == [0, 1, 1, 2]


def test_distance_matrix_s3_three_cycle_entry():
    s3 = symmetric(3)
    dm = build_distance_matrix(s3, hamming_metric(s3))
    assert dm.values.shape == (6, 6)
    i = dm.labels.index((1, 2, 3))
    j = dm.labels.index((2, 3, 1))
    assert dm.values[i, j] == 3


@pytest.mark.parametrize("spec,metric", ALL_METRIC_CASES)
def test_distance_matrix_invariants(spec, metric):
    dm = build_distance_matrix(spec, metric)
    assert np.array_equal(dm.values, dm.values.T)
    assert np.all(np.diag(dm.values) == 0)
    assert np.all(dm.values >= 0)
    rng = random.Random(17)
    m = dm.size
    for _ in range(1000):
        i, j, k = rng.randrange(m), rng.randrange(m), rng.randrange(m)
        assert dm.values[i, j] <= dm.values[i, k] + dm.values[k, j]


@pytest.mark.parametrize("n", [1, 2, 7, 60, 61, 2000])
def test_circular_arc_matrix_matches_the_arc_formula(n):
    spec = cyclic(n)
    values = build_distance_matrix(spec, circular_arc_metric(spec)).values
    delta = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    expected = np.minimum(delta, n - delta).astype(np.int64)
    assert values.dtype == np.int64 and values.flags.c_contiguous
    assert values.tobytes() == expected.tobytes()


def test_circular_arc_matrix_is_built_in_place():
    import tracemalloc

    spec = cyclic(2000)
    metric = circular_arc_metric(spec)
    enumerate_elements(spec)
    tracemalloc.start()
    try:
        values = build_distance_matrix(spec, metric).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * values.nbytes


def test_distance_matrix_csv_header():
    c22 = elementary_abelian_2(2)
    dm = build_distance_matrix(c22, hamming_metric(c22))
    lines = dm.to_csv().splitlines()
    assert lines[0] == "00,01,10,11"
    assert lines[1] == "0,1,1,2"


# --- invariance --------------------------------------------------------------


def test_hamming_s4_bi_invariant_exhaustive():
    s4 = symmetric(4)
    report = check_invariance(s4, hamming_metric(s4), mode="bi")
    assert report.passed and report.exhaustive


def test_hamming_c23_bi_invariant_exhaustive():
    c23 = elementary_abelian_2(3)
    report = check_invariance(c23, hamming_metric(c23), mode="bi")
    assert report.passed and report.exhaustive


def test_all_shipped_metrics_bi_invariant_on_reference_groups():
    for spec, metric in [
        (symmetric(4), hamming_metric(symmetric(4))),
        (elementary_abelian_2(3), hamming_metric(elementary_abelian_2(3))),
        (cyclic(6), circular_arc_metric(cyclic(6))),
    ]:
        assert check_invariance(spec, metric, mode="bi").passed


def corrupted_hamming(spec, a, b):
    return lambda: (spec, CorruptedMetric(hamming_metric(spec), a, b))


def asymmetric_length_metric():
    # Left-invariant; d(e, g) != d(g, e) on the 3-cycles, so row and
    # column 0 of its distance matrix differ.
    s3 = symmetric(3)
    lengths = dict(zip(enumerate_elements(s3), (0, 1, 1, 1, 2, 1)))
    return s3, LengthMetric(s3, lengths)


@pytest.mark.parametrize(
    "make_case,side",
    [
        (corrupted_hamming(elementary_abelian_2(2), (0, 0), (1, 1)), "left"),
        # The first failing (g, h) is witnessed by g^-1 but not by h^-1.
        (corrupted_hamming(symmetric(3), (1, 2, 3), (2, 3, 1)), "left"),
        (make_left_invariant_only_metric, "right"),
        (asymmetric_length_metric, "right"),
    ],
    ids=["c22-corrupted", "s3-corrupted", "s3-left-invariant-only", "s3-asymmetric-length"],
)
def test_corrupted_metric_fails_with_counterexample(make_case, side):
    spec, bad = make_case()
    report = check_invariance(spec, bad, mode="bi")
    assert not report.passed and report.exhaustive
    assert report.checked == spec.order ** 3
    assert report.counterexample[0] == side
    _, f, g, h = report.counterexample
    if side == "left":
        lhs = bad.distance(groups.multiply(spec, f, g), groups.multiply(spec, f, h))
    else:
        lhs = bad.distance(groups.multiply(spec, g, f), groups.multiply(spec, h, f))
    assert lhs != bad.distance(g, h)


@pytest.mark.parametrize("mode", ["left", "right", "bi"])
@pytest.mark.parametrize(
    "make_case",
    [
        lambda: (symmetric(3), hamming_metric(symmetric(3))),
        corrupted_hamming(symmetric(3), (1, 2, 3), (2, 3, 1)),
        make_left_invariant_only_metric,
        asymmetric_length_metric,
    ],
    ids=["s3-hamming", "s3-corrupted", "s3-left-invariant-only", "s3-asymmetric-length"],
)
def test_exhaustive_check_matches_loop_over_all_triples(make_case, mode):
    spec, metric = make_case()
    mul, d = partial(groups.multiply, spec), metric.distance
    expected = all(
        (mode == "right" or d(mul(f, g), mul(f, h)) == d(g, h))
        and (mode == "left" or d(mul(g, f), mul(h, f)) == d(g, h))
        for f, g, h in product(enumerate_elements(spec), repeat=3)
    )
    assert check_invariance(spec, metric, mode=mode).passed == expected


def test_sampled_invariance_above_threshold():
    s6 = symmetric(6)
    report = check_invariance(s6, hamming_metric(s6), mode="bi")
    assert report.passed and not report.exhaustive and report.checked == 1000


def test_invariance_mode_validation():
    s3 = symmetric(3)
    with pytest.raises(ValueError):
        check_invariance(s3, hamming_metric(s3), mode="both")


@pytest.mark.parametrize(
    "spec,metric",
    [
        (symmetric(5), hamming_metric(symmetric(5))),
        (elementary_abelian_2(6), hamming_metric(elementary_abelian_2(6))),
        (cyclic(17), circular_arc_metric(cyclic(17))),
    ],
)
def test_distance_reduces_to_identity_distance(spec, metric):
    # d(g, h) = d(g h^-1, e): the reduction the spectral shortcut rests on.
    rng = random.Random(23)
    e = spec.identity()
    for _ in range(1000):
        g = groups.random_element(spec, rng)
        h = groups.random_element(spec, rng)
        gh_inv = groups.multiply(spec, g, brute_force_inverse(spec, h))
        assert metric.distance(g, h) == metric.distance(gh_inv, e)


@pytest.mark.parametrize("k", range(1, 11))
def test_c2k_popcount_matrix_equals_the_per_coordinate_hamming_matrix(k):
    spec = elementary_abelian_2(k)
    bits = np.array(enumerate_elements(spec), dtype=np.int64).reshape(-1, k)
    expected = sum(np.not_equal.outer(col, col).astype(np.int64) for col in bits.T)
    values = metrics.build_distance_matrix(spec, hamming_metric(spec)).values
    assert values.dtype == np.int64
    assert np.array_equal(values, expected)


class CountingMetric:
    """A duck-typed arc metric that counts its calls."""

    def __init__(self, spec):
        self.group, self.calls = spec, 0
        self.base = circular_arc_metric(spec)

    def distance(self, g, h):
        self.calls += 1
        return self.base.distance(g, h)


def test_lifting_is_priced_before_the_first_call():
    # C_3000's 9e6 pairs fit the byte bound but pass the work bound at one
    # step per lifted pair; C_60's 3600 pairs are admitted, one call each.
    spec = cyclic(3000)
    counting = CountingMetric(spec)
    with pytest.raises(TooLargeError) as excinfo:
        build_distance_matrix(spec, counting)
    assert excinfo.value.cap == groups.WORK_MAX
    assert counting.calls == 0

    spec = cyclic(60)
    counting = CountingMetric(spec)
    lifted = build_distance_matrix(spec, counting).values
    assert counting.calls == 60 * 60
    assert np.array_equal(lifted, build_distance_matrix(spec, counting.base).values)


def test_a_lifted_metric_is_priced_before_its_kernel_is_streamed():
    spec = cyclic(3000)
    counting = CountingMetric(spec)
    with pytest.raises(TooLargeError) as excinfo:
        metrics.distance_blocks(spec, counting)
    assert excinfo.value.cap == groups.WORK_MAX
    assert counting.calls == 0

    spec = cyclic(60)
    counting = CountingMetric(spec)
    streamed = dense.double_center_rows(spec.order, metrics.distance_blocks(spec, counting))
    assert counting.calls == 60 * 60
    expected = dense.double_center(build_distance_matrix(spec, counting.base))
    assert streamed.matrix.tobytes() == expected.matrix.tobytes()


class HalfArc:
    """A duck-typed metric with non-integer distances."""

    def __init__(self, spec):
        self.group, self.base = spec, circular_arc_metric(spec)

    def distance(self, g, h):
        return self.base.distance(g, h) / 2


def test_lifted_distances_must_be_integers():
    from groupmds.spectral import mu_from_metric

    spec = cyclic(6)
    for consumer in (build_distance_matrix, mu_from_metric):
        with pytest.raises(TypeError):
            consumer(spec, HalfArc(spec))
