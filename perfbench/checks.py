"""Output checkers for the benchmark.

Every reference here is computed from first principles (closed forms,
numpy FFTs, the benchmark's own copy of the input rankings); nothing is
taken from ``groupmds``. Each checker returns ``None`` when the output is
correct and a one-line reason when it is not.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import re
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction

import numpy as np

SVG_NS = "{http://www.w3.org/2000/svg}"
CYCLIC_REL_TOL = 1e-9
CHARTABLE_TOL = 1e-9
EMBED_REL_TOL = 1e-9


# ---------------------------------------------------------------- references


def sn_hamming_spectrum(n: int) -> dict:
    """Exact {eigenvalue: multiplicity} of the centred Hamming MDS kernel on
    S_n, n >= 4, trivial direction excluded.

    d(g, e) = n - F(g) with F the fixed-point count, F = chi_triv +
    chi_[n-1,1] and F^2 = 2 chi_triv + 3 chi_[n-1,1] + chi_[n-2,2] +
    chi_[n-2,1,1]. So mu = -d^2/2 has coefficient (2n-3)/2 on [n-1,1] and
    -1/2 on [n-2,2] and [n-2,1,1]; block lambda has eigenvalue
    n! c_lambda / dim_lambda with multiplicity dim_lambda^2.
    """
    if n < 4:
        raise ValueError("closed form needs n >= 4")
    order = math.factorial(n)
    blocks = [
        (Fraction(2 * n - 3, 2), n - 1),
        (Fraction(-1, 2), n * (n - 3) // 2),
        (Fraction(-1, 2), (n - 1) * (n - 2) // 2),
    ]
    spectrum = {}
    for coeff, dim in blocks:
        lam = coeff * order / dim
        spectrum[lam] = spectrum.get(lam, 0) + dim * dim
    zeros = order - 1 - sum(dim * dim for _, dim in blocks)
    if zeros:
        spectrum[Fraction(0)] = zeros
    return spectrum


def c2k_hamming_spectrum(k: int) -> dict:
    """Exact {eigenvalue: multiplicity} for Hamming weight on (C_2)^k, k >= 2.

    w = k/2 - (1/2) sum_i chi_{i}, so mu = -w^2/2 has coefficient k/4 on
    each singleton character and -1/4 on each pair character.
    """
    if k < 2:
        raise ValueError("closed form needs k >= 2")
    order = 2 ** k
    pairs = k * (k - 1) // 2
    spectrum = {Fraction(k * order, 4): k, Fraction(-order, 4): pairs}
    zeros = order - 1 - k - pairs
    if zeros:
        spectrum[Fraction(0)] = zeros
    return spectrum


def cyclic_arc_eigenvalues(n: int) -> np.ndarray:
    """Sorted eigenvalues of the centred arc-length MDS kernel on C_n: the
    DFT of mu(g) = -min(g, n-g)^2 / 2 at every non-zero frequency."""
    g = np.arange(n)
    d = np.minimum(g, n - g).astype(float)
    return np.sort(np.fft.fft(-0.5 * d * d).real[1:])


def ranking_permutation(ranking) -> tuple:
    """g(i) = 1-based position of item i in the ranking."""
    position = {item: pos for pos, item in enumerate(ranking, start=1)}
    return tuple(position[i] for i in range(1, len(ranking) + 1))


def expected_embedding_rows(rankings) -> Counter:
    """Label text -> weight for the distinct permutations of the rankings."""
    return Counter(",".join(map(str, ranking_permutation(r))) for r in rankings)


# ------------------------------------------------------------------ checkers


def group_order(kind: str, size: int) -> int:
    return math.factorial(size) if kind == "sn" else 2 ** size if kind == "c2k" else size


def _exact_spectrum(doc: dict, order: int, reference: dict):
    """Entries must equal the reference exactly, value and multiplicity."""
    if doc.get("group_order") != order:
        return f"group_order {doc.get('group_order')} != {order}"
    got = {}
    for entry in doc["entries"]:
        try:
            lam = Fraction(entry["eigenvalue"])
        except ValueError:
            return f"eigenvalue {entry['eigenvalue']!r} is not rational"
        if lam in got:
            return f"eigenvalue {lam} listed twice"
        got[lam] = entry["multiplicity"]
    if got != reference:
        wrong = sorted(set(got.items()) ^ set(reference.items()))
        return f"spectrum differs from closed form at {wrong[:4]}"
    return None


def _cyclic_spectrum(doc: dict, n: int):
    """eigenvalue_float, expanded by multiplicity, must match the FFT within
    CYCLIC_REL_TOL relative to the spectral radius."""
    values = []
    for entry in doc["entries"]:
        values.extend([entry["eigenvalue_float"]] * entry["multiplicity"])
    ref = cyclic_arc_eigenvalues(n)
    if len(values) != len(ref):
        return f"{len(values)} eigenvalues listed, expected {len(ref)}"
    got = np.sort(np.array(values, dtype=float))
    scale = max(float(np.abs(ref).max()), 1.0)
    dev = float(np.abs(got - ref).max()) / scale
    if not dev <= CYCLIC_REL_TOL:
        return f"cyclic spectrum deviates from FFT by {dev:.3e} (relative)"
    return None


def check_spectrum(text: str, kind: str, size: int, dense_match: bool = False):
    """A `spectrum` output: Hamming on sn/c2k exactly, arc on cyclic against
    the FFT; with ``dense_match`` (from --verify) the dense oracle must agree."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"spectrum output is not JSON: {exc}"
    if kind == "sn":
        err = _exact_spectrum(doc, group_order(kind, size), sn_hamming_spectrum(size))
    elif kind == "c2k":
        err = _exact_spectrum(doc, group_order(kind, size), c2k_hamming_spectrum(size))
    else:
        err = _cyclic_spectrum(doc, size)
    if err is None and dense_match and doc.get("dense_match") is not True:
        err = "dense_match is not true"
    return err


_TERM = re.compile(r"^(?:(?P<coeff>-?[0-9/]+)\*)?(?P<neg>-)?z(?P<n>[0-9]+)(?:\^(?P<e>[0-9]+))?$")


def parse_scalar(text: str) -> complex:
    """Value of an exact scalar as printed: "p", "p/q", or a sum of terms
    "c*zN^e" / "zN" / "-zN^e" / rational constants joined by " + " / " - "."""
    total = 0j
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.strip()
        match = _TERM.match(term)
        if match is None:
            total += float(Fraction(term))
            continue
        coeff = Fraction(match["coeff"]) if match["coeff"] else Fraction(1)
        if match["neg"]:
            coeff = -coeff
        n = int(match["n"])
        e = int(match["e"] or 1)
        total += float(coeff) * cmath.exp(2j * math.pi * e / n)
    return total


def check_chartable(text: str, order: int):
    """A square table whose class sizes sum to |G|, whose dimensions
    satisfy sum dim^2 = |G| exactly, and whose rows are orthonormal under
    the class-weighted inner product (1/|G|) sum_c |c| chi_i(c) conj chi_j(c)."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 3 or rows[1][:1] != ["class_size"]:
        return "chartable CSV lacks header and class_size rows"
    header = rows[0][1:]
    sizes = [int(s) for s in rows[1][1:]]
    body = [r for r in rows[2:] if r]
    if len(body) != len(header):
        return f"{len(body)} irreducibles for {len(header)} classes"
    if sum(sizes) != order:
        return f"class sizes sum to {sum(sizes)}, not {order}"
    ident = [j for j, name in enumerate(header) if name == "e" or re.fullmatch(r"0+", name)]
    if len(ident) != 1 or sizes[ident[0]] != 1:
        return "no unique identity class"
    try:
        dims = [int(r[1 + ident[0]]) for r in body]
    except ValueError:
        return "a dimension is not an integer"
    if sum(d * d for d in dims) != order:
        return f"sum of dim^2 is {sum(d * d for d in dims)}, not {order}"
    x = np.array([[parse_scalar(v) for v in r[1:]] for r in body], dtype=complex)
    gram = (x * np.array(sizes, dtype=float)) @ x.conj().T / order
    dev = float(np.abs(gram - np.eye(len(body))).max())
    if not dev <= CHARTABLE_TOL:
        return f"rows not orthonormal: deviation {dev:.3e}"
    return None


def check_verify(text: str):
    """The oracle report has no FAIL line and ends in a passing result line
    (the runner separately requires exit code 0)."""
    lines = text.strip().splitlines()
    if not lines or lines[-1].strip().lower() != "result: pass":
        return "verify report does not end in 'result: pass'"
    if any("FAIL" in line for line in lines):
        return "verify report has a FAIL line"
    return None


def parse_embedding_csv(text: str):
    """(labels, weights, coordinates) of an embedding CSV."""
    rows = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows or rows[0][:3] != ["id", "label", "weight"]:
        raise ValueError("embedding CSV header is not id,label,weight,...")
    labels = [r[1] for r in rows[1:]]
    weights = [int(r[2]) for r in rows[1:]]
    coords = np.array([[float(v) for v in r[3:]] for r in rows[1:]], dtype=float)
    return rows[0], labels, weights, coords


def check_embedding(text: str, expected_rows: Counter, dims: int, standard: bool):
    """One row per distinct input permutation with its count as weight;
    finite coordinates; in standard mode, weighted-centred columns with
    non-increasing weighted variance."""
    try:
        header, labels, weights, coords = parse_embedding_csv(text)
    except (ValueError, IndexError) as exc:
        return f"unreadable embedding CSV: {exc}"
    if len(header) != 3 + dims:
        return f"{len(header) - 3} coordinate columns, expected {dims}"
    if len(labels) != len(expected_rows):
        return f"{len(labels)} rows, expected {len(expected_rows)} distinct permutations"
    if dict(zip(labels, weights)) != dict(expected_rows):
        return "row labels or weights differ from the input's permutation counts"
    if sum(weights) != sum(expected_rows.values()):
        return "weights do not sum to the input row count"
    if coords.shape != (len(labels), dims) or not np.isfinite(coords).all():
        return "coordinates are missing or not finite"
    if standard:
        w = np.array(weights, dtype=float)
        scale = max(float(np.abs(coords).max()), 1.0)
        mean = (w[:, None] * coords).sum(axis=0) / w.sum()
        if float(np.abs(mean).max()) > EMBED_REL_TOL * scale:
            return f"standard coordinates are not weighted-centred (mean {mean})"
        var = (w[:, None] * coords ** 2).sum(axis=0) / w.sum()
        if np.any(np.diff(var) > EMBED_REL_TOL * scale * scale):
            return f"column variances are not descending ({var})"
    return None


def check_svg(text: str, n_points: int):
    """The SVG parses and holds one circle per embedding row."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    marks = len(root.findall(f"{SVG_NS}circle"))
    if marks != n_points:
        return f"SVG has {marks} marks for {n_points} rows"
    return None
