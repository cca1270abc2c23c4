import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmds import characters, dense, groups, metrics, verify
from groupmds.errors import InvalidElementError, NotBiInvariantError, UnsupportedClosedFormError
from groupmds.groups import Partition, cyclic, elementary_abelian_2, symmetric
from groupmds.metrics import (
    build_distance_matrix,
    circular_arc_metric,
    default_metric,
    hamming_metric,
)
from groupmds.spectral import (
    SpectralEntry,
    SpectralSummary,
    closed_form_c2k,
    closed_form_sn,
    convolution_matrix,
    isotypic_projector,
    mu_from_metric,
    projector_labels,
    spectrum_via_characters,
    standard_coefficient,
    standard_rep_coordinates,
)
from test_groups import brute_force_inverse, class_label_of


def entry_map(summary):
    return {e.eigenvalue: e for e in summary.entries}


# --- mu ------------------------------------------------------------------------


def test_mu_values_s4():
    s4 = symmetric(4)
    mu = mu_from_metric(s4, hamming_metric(s4))
    assert mu.values[Partition((2, 1, 1))] == Fraction(-2)
    assert mu.values[Partition((1, 1, 1, 1))] == 0
    assert mu.values[Partition((4,))] == Fraction(-8)  # 4-cycles move all points


def test_mu_values_c23():
    c23 = elementary_abelian_2(3)
    mu = mu_from_metric(c23, hamming_metric(c23))
    assert mu.values[(1, 1, 1)] == Fraction(-9, 2)
    assert mu.values[(0, 0, 0)] == 0


class LengthMetric:
    """d(g, h) = length(g^-1 h): left-invariant by construction, and
    right-invariant only when the length table is a class function."""

    kind = "left-invariant-length"

    def __init__(self, spec, lengths):
        self.group = spec
        self.lengths = lengths

    def distance(self, g, h):
        spec = self.group
        return self.lengths[groups.multiply(spec, brute_force_inverse(spec, g), h)]


def make_left_invariant_only_metric():
    s3 = symmetric(3)
    lengths = {
        (1, 2, 3): 0,
        (2, 1, 3): 1,  # the transposition class gets unequal lengths
        (3, 2, 1): 1,
        (1, 3, 2): 3,
        (2, 3, 1): 2,
        (3, 1, 2): 2,
    }
    return s3, LengthMetric(s3, lengths)


def test_mu_rejects_left_invariant_only_metric():
    s3, metric = make_left_invariant_only_metric()
    report = metrics.check_invariance(s3, metric, mode="left")
    assert report.passed
    with pytest.raises(NotBiInvariantError) as excinfo:
        mu_from_metric(s3, metric)
    assert excinfo.value.counterexample is not None


def test_mu_rejects_corrupted_metric_with_counterexample():
    from test_metrics import CorruptedMetric

    c22 = elementary_abelian_2(2)
    bad = CorruptedMetric(hamming_metric(c22), (0, 1), (1, 0))
    with pytest.raises(NotBiInvariantError) as excinfo:
        mu_from_metric(c22, bad)
    side, f, g, h = excinfo.value.counterexample
    assert side in ("left", "right")


class PerElement:
    """A shipped metric seen only through ``distance``, so the checks lift
    it pair by pair."""

    def __init__(self, metric):
        self.group, self.kind, self.distance = metric.group, metric.kind, metric.distance


@pytest.mark.parametrize(
    "spec",
    [symmetric(n) for n in range(1, 9)]
    + [elementary_abelian_2(k) for k in range(1, 11)]
    + [cyclic(n) for n in range(1, 61)],
    ids=lambda spec: spec.text,
)
def test_array_mu_equals_the_per_element_loop(spec):
    metric = default_metric(spec)
    on_arrays = mu_from_metric(spec, metric).values
    per_element = mu_from_metric(spec, PerElement(metric)).values
    assert list(on_arrays.items()) == list(per_element.items())


@pytest.mark.parametrize("spec, other", [(symmetric(6), symmetric(7)), (symmetric(5), symmetric(4))],
                         ids=["sampled", "exhaustive"])
def test_metric_bound_to_another_group_is_refused(spec, other):
    # It is lifted pair by pair, and its distance refuses the elements.
    with pytest.raises(InvalidElementError):
        mu_from_metric(spec, hamming_metric(other))


class MarkedLength(LengthMetric):
    """d(g, h) = L(g^-1 h) with L Hamming to the identity plus 5 on one
    3-cycle of S_6: left-invariant, and right-invariant except where the
    mark moves under conjugation."""

    def __init__(self):
        s6 = symmetric(6)
        marked = (2, 3, 1, 4, 5, 6)
        super().__init__(s6, {g: sum(a != b for a, b in zip(g, range(1, 7))) + 5 * (g == marked)
                              for g in groups.enumerate_elements(s6)})


def corrupted_transposition():
    from test_metrics import CorruptedMetric

    s6 = symmetric(6)
    return CorruptedMetric(hamming_metric(s6), (2, 1, 3, 4, 5, 6), s6.identity(), delta=10)


def conjugate(spec, g, h):
    """h g h^-1."""
    return groups.multiply(spec, groups.multiply(spec, h, g), brute_force_inverse(spec, h))


@pytest.mark.parametrize("make_metric, counterexample", [
    # Sampled bi-invariance check, first failing triple at trial 100.
    (MarkedLength, ("right", (1, 3, 2, 4, 6, 5), (6, 2, 5, 1, 4, 3), (5, 6, 2, 1, 4, 3))),
    # Passes the sampled check; the class re-check finds the corrupted pair.
    (corrupted_transposition,
     ("class", (3, 6, 4, 2, 5, 1), (2, 1, 3, 4, 5, 6), (1, 2, 6, 4, 5, 3))),
], ids=["sampled-right", "class"])
def test_lifted_broken_metric_reports_a_true_counterexample(make_metric, counterexample):
    # The lift runs the same array checks and random streams as a shipped
    # Metric, so the counterexample is pinned to the one they find.
    s6, metric = symmetric(6), make_metric()
    with pytest.raises(NotBiInvariantError) as excinfo:
        mu_from_metric(s6, metric)
    assert excinfo.value.counterexample == counterexample
    side, f, g, h = counterexample
    if side == "right":
        moved = groups.multiply(s6, g, f), groups.multiply(s6, h, f)
        assert metric.distance(*moved) != metric.distance(g, h)
    else:  # ("class", conjugator, representative, conjugate)
        assert h == conjugate(s6, g, f)
        e = s6.identity()
        assert metric.distance(h, e) != metric.distance(g, e)


class MarkedTransposition(metrics.Metric):
    """Hamming on S_6 plus 10 between e and (1 2), in both array and
    element forms: bi-invariant on almost every triple, yet not constant
    on the class of (1 2)."""

    MARK = (2, 1, 3, 4, 5, 6)

    def distance(self, g, h):
        marked = {g, h} == {self.MARK, self.group.identity()}
        return super().distance(g, h) + 10 * marked

    def distances(self, g, h):
        mark, e = np.array(self.MARK) - 1, np.arange(6)
        g_mark, g_e = (g == mark).all(axis=-1), (g == e).all(axis=-1)
        h_mark, h_e = (h == mark).all(axis=-1), (h == e).all(axis=-1)
        return super().distances(g, h) + 10 * (g_mark & h_e | g_e & h_mark)


class ShiftedPoint(metrics.Metric):
    """Hamming on S_n plus |g(1) - h(1)|, in both forms: not invariant on
    either side."""

    def distance(self, g, h):
        return super().distance(g, h) + abs(g[0] - h[0])

    def distances(self, g, h):
        return super().distances(g, h) + np.abs(g[..., 0] - h[..., 0])


class MarkedZero(metrics.Metric):
    """The arc distance plus 1 between 0 and any other residue, in both
    forms: translations move the mark."""

    def distance(self, g, h):
        return super().distance(g, h) + ((g == 0) != (h == 0))

    def distances(self, g, h):
        return super().distances(g, h) + ((g == 0) != (h == 0))


BROKEN_SUBCLASSES = [
    (symmetric(6), ShiftedPoint(metrics.HAMMING_PERMUTATION, symmetric(6))),  # sampled
    (symmetric(4), ShiftedPoint(metrics.HAMMING_PERMUTATION, symmetric(4))),  # exhaustive
    (cyclic(5), MarkedZero(metrics.CIRCULAR_ARC, cyclic(5))),  # exhaustive
]


def test_array_checks_report_a_broken_metric_with_a_true_counterexample():
    for spec, broken in BROKEN_SUBCLASSES:
        report = metrics.check_invariance(spec, broken, mode="bi")
        assert not report.passed and report.exhaustive == (spec.order <= 120)
        side, f, g, h = report.counterexample
        pairs = ((f, g), (f, h)) if side == "left" else ((g, f), (h, f))
        moved = [groups.multiply(spec, a, b) for a, b in pairs]
        assert broken.distance(*moved) != broken.distance(g, h)
        with pytest.raises(NotBiInvariantError):
            spectrum_via_characters(spec, broken)

    s6 = symmetric(6)
    marked = MarkedTransposition(metrics.HAMMING_PERMUTATION, s6)
    assert metrics.check_invariance(s6, marked, mode="bi").passed
    with pytest.raises(NotBiInvariantError) as excinfo:
        mu_from_metric(s6, marked)
    kind, h, rep, conj = excinfo.value.counterexample
    assert kind == "class" and rep == MarkedTransposition.MARK
    assert conj == conjugate(s6, rep, h)
    e = s6.identity()
    assert marked.distance(conj, e) != marked.distance(rep, e)


@pytest.mark.parametrize("spec, broken", BROKEN_SUBCLASSES[1:], ids=["s4-shifted", "c5-marked"])
def test_distance_matrix_of_a_metric_subclass_is_its_pairwise_distance(spec, broken):
    dm = build_distance_matrix(spec, broken)
    elements = groups.enumerate_elements(spec)
    assert dm.values.tolist() == [[broken.distance(g, h) for h in elements] for g in elements]


# --- spectrum via characters ----------------------------------------------------


def test_spectrum_c23():
    c23 = elementary_abelian_2(3)
    summary = spectrum_via_characters(c23, hamming_metric(c23))
    entries = entry_map(summary)
    assert entries[Fraction(6)].multiplicity == 3
    assert set(entries[Fraction(6)].labels) == {frozenset({1}), frozenset({2}), frozenset({3})}
    assert entries[Fraction(-2)].multiplicity == 3
    assert set(entries[Fraction(-2)].labels) == {
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    }
    assert entries[Fraction(0)].multiplicity == 1
    assert summary.accounted_dimension == 8


def test_spectrum_s4():
    s4 = symmetric(4)
    summary = spectrum_via_characters(s4, hamming_metric(s4))
    entries = entry_map(summary)
    assert entries[Fraction(20)].multiplicity == 9
    assert entries[Fraction(20)].labels == (Partition((3, 1)),)
    assert entries[Fraction(-4)].multiplicity == 9
    assert entries[Fraction(-4)].labels == (Partition((2, 1, 1)),)
    assert entries[Fraction(-6)].multiplicity == 4
    assert entries[Fraction(-6)].labels == (Partition((2, 2)),)
    assert summary.accounted_dimension == 24


def test_spectrum_c4_against_dft_oracle():
    c4 = cyclic(4)
    summary = spectrum_via_characters(c4, circular_arc_metric(c4))
    entries = entry_map(summary)
    assert entries[Fraction(2)].multiplicity == 2
    assert entries[Fraction(2)].labels == (1, 3)
    assert entries[Fraction(-1)].multiplicity == 1
    assert entries[Fraction(-1)].labels == (2,)

    mu_vec = np.array([0.0, -0.5, -2.0, -0.5])
    dft = np.fft.fft(mu_vec)  # lambda_j = sum_a mu(a) exp(-2 pi i j a / n)
    assert np.max(np.abs(dft.imag)) < 1e-12
    predicted = sorted(
        float(e.eigenvalue) for e in summary.entries for _ in e.labels
    )
    assert np.allclose(sorted(dft.real[1:]), predicted, atol=1e-10)


def test_spectrum_multiplicity_is_squared_dimension_s5():
    s5 = symmetric(5)
    summary = spectrum_via_characters(s5, hamming_metric(s5))
    for e in summary.nonzero_entries():
        assert e.multiplicity == sum(
            characters.dimension(s5, lab) ** 2 for lab in e.labels
        )


@pytest.mark.parametrize(
    "spec",
    [symmetric(n) for n in range(2, 7)]
    + [elementary_abelian_2(k) for k in range(1, 10)]
    + [cyclic(n) for n in (2, 3, 5, 12, 31, 45, 60)],
)
def test_spectrum_census(spec):
    summary = spectrum_via_characters(spec, default_metric(spec))
    assert summary.accounted_dimension == spec.order


# --- closed forms ----------------------------------------------------------------


def test_closed_form_c2k_k2():
    summary = closed_form_c2k(2)
    assert [(e.eigenvalue, e.multiplicity) for e in summary.entries] == [
        (Fraction(2), 2),
        (Fraction(-1), 1),
    ]
    assert summary.zero_multiplicity == 0


def test_closed_form_c2k_k10():
    summary = closed_form_c2k(10)
    entries = entry_map(summary)
    assert entries[Fraction(2560)].multiplicity == 10
    assert entries[Fraction(-256)].multiplicity == 45
    assert summary.zero_multiplicity == 2 ** 10 - 56


def test_closed_form_c2k_k1():
    # sigma on the alternating character is 1/4, so lambda = 2 * (1/4) = 1/2,
    # matching 2^(k-2) * k at k = 1; there is no pair-subset entry.
    summary = closed_form_c2k(1)
    assert [(e.eigenvalue, e.multiplicity) for e in summary.entries] == [(Fraction(1, 2), 1)]
    dm = build_distance_matrix(elementary_abelian_2(1), hamming_metric(elementary_abelian_2(1)))
    dec = dense.eigendecompose(dense.double_center(dm))
    assert dec.eigenvalues[0] == pytest.approx(0.5, abs=1e-12)


def test_closed_form_c2k_guard():
    with pytest.raises(UnsupportedClosedFormError):
        closed_form_c2k(0)


@pytest.mark.parametrize("k", range(1, 14))  # k = 14: test_fwht_path_at_k14
def test_closed_form_c2k_equals_character_path(k):
    spec = elementary_abelian_2(k)
    assert closed_form_c2k(k) == spectrum_via_characters(spec, hamming_metric(spec))


def test_closed_form_sn_values():
    assert [(e.eigenvalue, e.multiplicity) for e in closed_form_sn(4).entries[:3]] == [
        (Fraction(20), 9),
        (Fraction(-4), 9),
        (Fraction(-6), 4),
    ]
    assert [(e.eigenvalue, e.multiplicity) for e in closed_form_sn(5).entries[:3]] == [
        (Fraction(105), 16),
        (Fraction(-10), 36),
        (Fraction(-12), 25),
    ]


def test_closed_form_sn_guard():
    with pytest.raises(UnsupportedClosedFormError):
        closed_form_sn(3)


@pytest.mark.parametrize("n", range(4, 13))
def test_closed_form_sn_equals_character_path(n):
    spec = symmetric(n)
    assert closed_form_sn(n) == spectrum_via_characters(spec, hamming_metric(spec))


def test_closed_form_c2k_forms_each_eigenvalue_once_per_block(monkeypatch):
    # Two blocks, the 200 singletons and the 19,900 pairs, so two eigenvalues
    # are hashed to merge them; one hash a label would be 20,100.
    hashed = []
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    summary = closed_form_c2k(200)
    assert len(hashed) <= 2
    assert [e.multiplicity for e in summary.nonzero_entries()] == [200, 200 * 199 // 2]


def test_character_path_works_far_beyond_the_enumeration_cap():
    # S_10 has 3,628,800 elements; the prediction only touches its 42 classes.
    s10 = symmetric(10)
    summary = spectrum_via_characters(s10, hamming_metric(s10))
    assert summary == closed_form_sn(10)
    assert [(e.eigenvalue, e.multiplicity) for e in summary.nonzero_entries()] == [
        (Fraction(3427200), 81),
        (Fraction(-50400), 1296),
        (Fraction(-51840), 1225),
    ]


def test_fwht_path_at_k14():
    # 16384 class values go through the fast transform, not pairwise products.
    spec = elementary_abelian_2(14)
    assert spectrum_via_characters(spec, hamming_metric(spec)) == closed_form_c2k(14)


@pytest.mark.parametrize(
    "closed_form, size, order, zero_mult, n_zero_labels",
    [
        # 2^15 - 1 - 15 - 105 zero labels, listed: 32768 irreducibles fit the cap.
        (closed_form_c2k, 15, 2 ** 15, 32647, 32647),
        (closed_form_c2k, 16, 2 ** 16, 2 ** 16 - 1 - 16 - 120, 0),
        (closed_form_c2k, 20, 2 ** 20, 2 ** 20 - 1 - 20 - 190, 0),
        # p(41) = 44583 irreducibles fit the cap; p(42) = 53174 do not.
        (closed_form_sn, 41, math.factorial(41),
         math.factorial(41) - 1 - 40 ** 2 - (41 * 38 // 2) ** 2 - (40 * 39 // 2) ** 2, 44579),
        (closed_form_sn, 42, math.factorial(42),
         math.factorial(42) - 1 - 41 ** 2 - (42 * 39 // 2) ** 2 - (41 * 40 // 2) ** 2, 0),
    ],
    ids=["c2k-15", "c2k-16", "c2k-20", "sn-41", "sn-42"],
)
def test_closed_form_elides_zero_labels_past_listing_limit(
    closed_form, size, order, zero_mult, n_zero_labels
):
    summary = closed_form(size)
    zero_entry = [e for e in summary.entries if e.sign == "zero"][0]
    assert zero_entry.multiplicity == zero_mult
    assert len(zero_entry.labels) == n_zero_labels
    assert summary.accounted_dimension == order


def test_closed_forms_at_the_edge_of_the_float64_range():
    # 170! is about 7.3e306 and k 2^(k-2) is 1016 * 2^1014 < 2^1024: both
    # sort and print as finite floats.
    sn = closed_form_sn(170)
    assert sn.entries[0].eigenvalue == Fraction(337 * math.factorial(170), 338)
    assert all(math.isfinite(e["eigenvalue_float"]) for e in sn.to_json_dict()["entries"])
    c2k = closed_form_c2k(1016)
    assert [(e.eigenvalue, e.multiplicity) for e in c2k.nonzero_entries()] == [
        (1016 * 2 ** 1014, 1016), (-(2 ** 1014), 1016 * 1015 // 2)]
    assert all(math.isfinite(float(e.eigenvalue)) for e in c2k.entries)


@pytest.mark.parametrize("closed_form, size", [
    (closed_form_sn, 171), (closed_form_sn, 10 ** 6), (closed_form_c2k, 1017),
], ids=["sn-171", "sn-1e6", "c2k-1017"])
def test_closed_forms_past_the_float64_range_are_refused_before_any_work(closed_form, size):
    start = time.perf_counter()
    with pytest.raises(UnsupportedClosedFormError, match="is past the float64 range"):
        closed_form(size)
    assert time.perf_counter() - start < 0.1


# --- convolution matrix -----------------------------------------------------------


def test_convolution_matrix_c22_entry():
    c22 = elementary_abelian_2(2)
    mu = mu_from_metric(c22, hamming_metric(c22))
    conv = convolution_matrix(c22, mu)
    # elements of C2^2 enumerate as 00, 01, 10, 11: entry (01, 11) is mu(10)
    assert conv[1, 3] == -0.5
    assert np.all(np.diag(conv) == 0.0)


@pytest.mark.parametrize(
    "spec", [symmetric(3), elementary_abelian_2(3), cyclic(9)]
)
def test_convolution_matrix_equals_noncentered_kernel_exactly(spec):
    metric = default_metric(spec)
    mu = mu_from_metric(spec, metric)
    conv = convolution_matrix(spec, mu)
    dm = build_distance_matrix(spec, metric)
    assert np.array_equal(conv, -0.5 * dm.values * dm.values)


# --- isotypic projectors -----------------------------------------------------------


def test_projector_s4_standard_block():
    s4 = symmetric(4)
    proj = isotypic_projector(s4, Partition((3, 1)))
    assert proj.rank == 9
    assert proj.matrix.trace() == pytest.approx(9.0, abs=1e-6)
    assert np.max(np.abs(proj.matrix @ proj.matrix - proj.matrix)) <= 1e-8
    assert np.max(np.abs(proj.matrix - proj.matrix.T)) <= 1e-12


@pytest.mark.parametrize("spec", [symmetric(4), elementary_abelian_2(3), cyclic(12)])
def test_projector_family_completeness_and_orthogonality(spec):
    projectors = [isotypic_projector(spec, lab) for lab in projector_labels(spec)]
    total = sum(p.matrix for p in projectors)
    assert np.max(np.abs(total - np.eye(spec.order))) <= 1e-8
    assert sum(p.rank for p in projectors) == spec.order
    assert abs(sum(p.matrix.trace() for p in projectors) - spec.order) <= 1e-6
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            assert np.max(np.abs(projectors[i].matrix @ projectors[j].matrix)) <= 1e-8


@pytest.mark.parametrize("n", [12, 60, 97])
def test_cyclic_projectors_equal_their_transpose_bitwise(n):
    # Frequencies e and n - e must round to one float.
    spec = cyclic(n)
    for label in projector_labels(spec):
        matrix = isotypic_projector(spec, label).matrix
        assert np.array_equal(matrix, matrix.T), label


def test_projector_eigen_relation_c23():
    c23 = elementary_abelian_2(3)
    dm = build_distance_matrix(c23, hamming_metric(c23))
    kernel = dense.double_center(dm)
    proj = isotypic_projector(c23, frozenset({1, 2}))
    assert np.max(np.abs(proj.matrix @ kernel.matrix - (-2.0) * proj.matrix)) <= 1e-8


def test_projector_eigen_relation_all_labels_s4():
    s4 = symmetric(4)
    metric = hamming_metric(s4)
    dm = build_distance_matrix(s4, metric)
    kernel = dense.double_center(dm)
    mu = mu_from_metric(s4, metric)
    decomp = characters.decompose_class_function(mu)
    for label in projector_labels(s4):
        proj = isotypic_projector(s4, label)
        if label == characters.trivial_label(s4):
            lam = 0.0  # centering wipes the trivial block
        else:
            dim = characters.dimension(s4, label)
            lam = float(decomp.coefficients[label]) * s4.order / dim
        assert np.max(np.abs(proj.matrix @ kernel.matrix - lam * proj.matrix)) <= 1e-8


# --- direct standard-block coordinates ----------------------------------------------


def test_standard_coordinates_zero_for_equal_permutations():
    g = (3, 1, 4, 2, 5)
    c = standard_rep_coordinates(g, 5)
    assert np.allclose(c - standard_rep_coordinates(g, 5), 0.0)


def test_standard_coordinates_scale_s5():
    g = (1, 2, 3, 4, 5)
    h = (2, 1, 3, 4, 5)  # hamming distance 2
    d2 = float(np.sum((standard_rep_coordinates(g, 5) - standard_rep_coordinates(h, 5)) ** 2))
    assert d2 == pytest.approx(14.0, abs=1e-10)


def test_standard_coordinates_scale_s10():
    g = tuple(range(1, 11))
    h = (2, 1) + tuple(range(3, 11))
    d2 = float(np.sum((standard_rep_coordinates(g, 10) - standard_rep_coordinates(h, 10)) ** 2))
    assert d2 == pytest.approx(34.0, abs=1e-10)


@pytest.mark.parametrize("g", [(0, 1, 2), (1, 1, 3), (1, 2, 4), (1, 2), (1, 2, 3, 4),
                               [[1, 2, 3], [3, 1, 2], [2, 2, 1]]])
def test_standard_coordinates_refuse_what_is_not_a_permutation(g):
    # (0, 1, 2) would wrap its 0 onto the last row; (1, 2, 4) would index past it.
    with pytest.raises(ValueError, match="not a permutation of 1..3"):
        standard_rep_coordinates(g, 3)


def squared_distances(x):
    return ((x[:, None] - x[None]) ** 2).sum(axis=-1)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_standard_coordinates_match_dense_positive_block_spotcheck(n):
    # [n-1,1] carries all of the positive spectrum; at n = 2 it is the sign.
    spec = symmetric(n)
    dm = build_distance_matrix(spec, hamming_metric(spec))
    emb = dense.full_rank_pseudo_embedding(dense.eigendecompose(dense.double_center(dm)))
    p, _ = emb.signature
    direct = squared_distances(standard_rep_coordinates(np.array(dm.labels), n))
    assert np.allclose(direct, squared_distances(emb.coordinates[:, :p]), rtol=0, atol=1e-8)
    assert np.allclose(direct, dm.values ** 2 if n == 2 else (2 * n - 3) * dm.values,
                       rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", range(2, 8))
def test_standard_coefficient_is_mus_coefficient_on_the_standard_block(n):
    spec = symmetric(n)
    sigma = characters.decompose_class_function(mu_from_metric(spec, hamming_metric(spec)))
    assert standard_coefficient(n) == sigma.coefficients[Partition((n - 1, 1))]


# --- oracle equivalence and trace identity -------------------------------------------


ORACLE_SPECS = (
    [symmetric(n) for n in range(2, 7)]
    + [elementary_abelian_2(k) for k in range(1, 9)]
    + [cyclic(n) for n in (2, 3, 5, 8, 12, 16, 24, 31, 32, 45, 60)]
)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.text)
def test_oracle_equivalence(spec):
    report = verify.oracle_equivalence_report(spec, default_metric(spec))
    assert report.passed, "\n".join(report.lines())


@pytest.mark.parametrize("n", [90, 500, 797])
def test_cyclic_arc_spectra_under_the_coefficient_bound_match_the_dft(n):
    # The byte guard on the exact coefficients admits these sizes, and the
    # exact spectrum still equals the DFT of mu. At the prime 797 the
    # smallest eigenvalue is below 1 while its coefficients sum past 10^7.
    spec = cyclic(n)
    summary = spectrum_via_characters(spec, circular_arc_metric(spec))
    a = np.arange(n)
    lam = np.fft.fft(-np.minimum(a, n - a) ** 2 / 2.0).real
    dense_values = np.sort(np.append(lam[1:], 0.0))[::-1]
    deviation, ok = verify.spectrum_match_deviation(summary, dense_values)
    assert ok, deviation


def test_spectrum_match_separates_close_cyclic_eigenvalues():
    # Distinct arc eigenvalues of C_720 lie 1.45e-9 of the spectral radius
    # apart, below rel_tol; a match over clusters merged them.
    n = 720
    spec = cyclic(n)
    a = np.arange(n)
    lam = np.fft.fft(-np.minimum(a, n - a) ** 2 / 2.0).real
    entries = [
        SpectralEntry(
            eigenvalue=Fraction(float(lam[j])),
            multiplicity=1 if 2 * j == n else 2,
            labels=(j,) if 2 * j == n else (j, n - j),
            sign="positive" if lam[j] > 0 else "negative",
        )
        for j in sorted(range(1, n // 2 + 1), key=lambda j: -lam[j])
    ]
    summary = SpectralSummary(spec, metrics.CIRCULAR_ARC, tuple(entries))
    dm = build_distance_matrix(spec, circular_arc_metric(spec))
    dec = dense.eigendecompose(dense.double_center(dm))
    deviation, ok = verify.spectrum_match_deviation(summary, dec)
    assert ok, deviation
    assert deviation <= 1e-8 * float(np.max(np.abs(lam)))


def test_spectrum_match_rejects_a_moved_eigenvalue():
    s4 = symmetric(4)
    summary = spectrum_via_characters(s4, hamming_metric(s4))
    dec = dense.eigendecompose(dense.double_center(build_distance_matrix(s4, hamming_metric(s4))))
    assert verify.spectrum_match_deviation(summary, dec)[1]
    top = summary.entries[0]
    moved = dataclasses.replace(top, eigenvalue=top.eigenvalue + Fraction(1, 1000))
    bad = dataclasses.replace(summary, entries=(moved,) + summary.entries[1:])
    deviation, ok = verify.spectrum_match_deviation(bad, dec)
    assert not ok and deviation == pytest.approx(1e-3)
    short = dataclasses.replace(summary, entries=summary.entries[1:])
    assert verify.spectrum_match_deviation(short, dec) == (float("inf"), False)


class ClassDissimilarity:
    """d(g, h) = phi(class of g h^-1): bi-invariant for any phi that is zero
    at the identity and takes equal values on a class and its inverse."""

    kind = "class-dissimilarity"

    def __init__(self, spec, phi):
        self.group = spec
        self.phi = phi

    def distance(self, g, h):
        spec = self.group
        quotient = groups.multiply(spec, g, brute_force_inverse(spec, h))
        return self.phi[class_label_of(spec, quotient)]


@st.composite
def class_dissimilarities(draw):
    kind = draw(st.sampled_from([groups.SYMMETRIC, groups.ELEMENTARY_ABELIAN_2, groups.CYCLIC]))
    value = st.integers(0, 9)
    if kind == groups.SYMMETRIC:
        spec = symmetric(draw(st.integers(1, 5)))
        phi = {c.label: draw(value) for c in groups.conjugacy_classes(spec)}
    elif kind == groups.ELEMENTARY_ABELIAN_2:
        spec = elementary_abelian_2(draw(st.integers(1, 6)))
        phi = {g: draw(value) for g in groups.enumerate_elements(spec)}
    else:
        spec = cyclic(draw(st.integers(1, 120)))
        half = [draw(value) for _ in range(spec.size // 2 + 1)]
        phi = {a: half[min(a, spec.size - a)] for a in range(spec.size)}
    phi[class_label_of(spec, spec.identity())] = 0
    return ClassDissimilarity(spec, phi)


@settings(max_examples=10, deadline=None)
@given(class_dissimilarities())
def test_predicted_spectrum_of_any_class_dissimilarity_matches_dense(metric):
    spec = metric.group
    summary = spectrum_via_characters(spec, metric)
    dec = dense.eigendecompose(dense.double_center(build_distance_matrix(spec, metric)))
    deviation, ok = verify.spectrum_match_deviation(summary, dec)
    assert ok, (spec.text, metric.phi, deviation)


def test_trace_identity_spot_values():
    s4 = symmetric(4)
    assert spectrum_via_characters(s4, hamming_metric(s4)).trace() == 120
    c22 = elementary_abelian_2(2)
    assert spectrum_via_characters(c22, hamming_metric(c22)).trace() == 3


def zero_entry_by_coefficients(spec, metric):
    """(multiplicity, labels) of the zero entry, read off mu's coefficients:
    dim^2 summed over the nontrivial labels whose coefficient is zero,
    listed in irreducible order."""
    sigma = characters.decompose_class_function(mu_from_metric(spec, metric)).coefficients
    trivial = characters.trivial_label(spec)
    labels = tuple(lab for lab in characters.irreducible_labels(spec)
                   if lab != trivial and sigma[lab] == 0)
    return sum(characters.dimension(spec, lab) ** 2 for lab in labels), labels


ZERO_ENTRY_CASES = {
    "hamming-sn6": (symmetric(6), hamming_metric(symmetric(6))),
    "hamming-c2k6": (elementary_abelian_2(6), hamming_metric(elementary_abelian_2(6))),
    "hamming-c2k1": (elementary_abelian_2(1), hamming_metric(elementary_abelian_2(1))),
    "arc-cyclic12": (cyclic(12), circular_arc_metric(cyclic(12))),
    "arc-cyclic30": (cyclic(30), circular_arc_metric(cyclic(30))),
    # mu sits on the identity and the transpositions, so every label whose
    # character vanishes on a transposition ([3,1,1] on S_5) gets zero.
    "custom-sn5": (symmetric(5), ClassDissimilarity(symmetric(5), {
        c.label: int(c.label == Partition((2, 1, 1, 1))) for c in groups.conjugacy_classes(symmetric(5))})),
}


@pytest.mark.parametrize("spec, metric", ZERO_ENTRY_CASES.values(), ids=ZERO_ENTRY_CASES.keys())
def test_zero_entry_is_the_sum_over_zero_coefficients(spec, metric):
    multiplicity, labels = zero_entry_by_coefficients(spec, metric)
    zero = [(e.eigenvalue, e.multiplicity, e.labels)
            for e in spectrum_via_characters(spec, metric).entries if e.sign == "zero"]
    assert zero == ([(0, multiplicity, labels)] if multiplicity else [])


# --- serialization --------------------------------------------------------------------


def test_summary_json_schema():
    s4 = symmetric(4)
    doc = spectrum_via_characters(s4, hamming_metric(s4)).to_json_dict()
    assert doc["group"] == "symmetric(4)"
    assert doc["metric"] == "hamming-permutation"
    assert doc["trivial_discarded"] is True
    first = doc["entries"][0]
    assert set(first) == {"eigenvalue", "eigenvalue_float", "multiplicity", "labels", "sign"}
    assert Fraction(first["eigenvalue"]) == 20
    assert first["labels"] == ["[3,1]"]


def test_summary_json_irrational_eigenvalues_stay_exact():
    c12 = cyclic(12)
    doc = spectrum_via_characters(c12, circular_arc_metric(c12)).to_json_dict()
    top = doc["entries"][0]
    assert "z12" in top["eigenvalue"]
    assert top["eigenvalue_float"] == pytest.approx(24 + 12 * math.sqrt(3), abs=1e-9)
    assert top["labels"] == ["1", "11"]
