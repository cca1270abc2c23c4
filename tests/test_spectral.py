import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmds import characters, dense, groups, metrics, verify
from groupmds.errors import NotBiInvariantError, UnsupportedClosedFormError
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
    standard_rep_coordinates,
)


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
        return self.lengths[groups.multiply(spec, groups.inverse(spec, g), h)]


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


@pytest.mark.parametrize("k", range(1, 9))
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


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_closed_form_sn_equals_character_path(n):
    spec = symmetric(n)
    assert closed_form_sn(n) == spectrum_via_characters(spec, hamming_metric(spec))


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


def test_standard_coordinates_match_dense_positive_block_spotcheck():
    s5 = symmetric(5)
    dm = build_distance_matrix(s5, hamming_metric(s5))
    emb = dense.full_rank_pseudo_embedding(dense.eigendecompose(dense.double_center(dm)))
    p, _ = emb.signature
    coords = {g: standard_rep_coordinates(g, 5) for g in dm.labels[:25]}
    for i, g in enumerate(dm.labels[:25]):
        for j, h in enumerate(dm.labels[:25]):
            diff = emb.coordinates[i, :p] - emb.coordinates[j, :p]
            dense_sq = float(np.sum(diff ** 2))
            direct_sq = float(np.sum((coords[g] - coords[h]) ** 2))
            assert abs(dense_sq - direct_sq) <= 1e-8


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
        quotient = groups.multiply(spec, g, groups.inverse(spec, h))
        return self.phi[groups.class_label_of(spec, quotient)]


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
    phi[groups.class_label_of(spec, spec.identity())] = 0
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
