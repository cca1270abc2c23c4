"""Tests for the benchmark's own code: the references are right, every
checker rejects a corrupted output, and the span wrappers add up.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import traced_cli
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _dense_spectrum(elements, dist):
    """Sorted non-trivial eigenvalues of -1/2 J D^2 J, brute force."""
    d = np.array([[dist(g, h) for h in elements] for g in elements], dtype=float)
    m = len(elements)
    j = np.eye(m) - 1.0 / m
    values = np.linalg.eigvalsh(-0.5 * j @ (d * d) @ j)
    # Drop the zero that centring adds (the trivial direction).
    return np.delete(values, np.argmin(np.abs(values)))


def _expand(spectrum: dict) -> np.ndarray:
    return np.sort([float(v) for v, mult in spectrum.items() for _ in range(mult)])


# ------------------------------------------------------------- references


@pytest.mark.parametrize("n", [4, 5])
def test_sn_closed_form_matches_brute_force(n):
    perms = list(itertools.permutations(range(n)))
    dense = _dense_spectrum(perms, lambda g, h: sum(a != b for a, b in zip(g, h)))
    assert np.allclose(np.sort(dense), _expand(checks.sn_hamming_spectrum(n)), atol=1e-8)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_c2k_closed_form_matches_brute_force(k):
    cube = list(itertools.product((0, 1), repeat=k))
    dense = _dense_spectrum(cube, lambda g, h: sum(a != b for a, b in zip(g, h)))
    assert np.allclose(np.sort(dense), _expand(checks.c2k_hamming_spectrum(k)), atol=1e-8)


@pytest.mark.parametrize("n", [5, 8, 13])
def test_cyclic_fft_matches_brute_force(n):
    dense = _dense_spectrum(list(range(n)), lambda g, h: min(abs(g - h), n - abs(g - h)))
    assert np.allclose(np.sort(dense), checks.cyclic_arc_eigenvalues(n), atol=1e-8)


def test_parse_scalar():
    z6 = complex(0.5, math.sqrt(3) / 2)
    assert checks.parse_scalar("-3/2") == -1.5
    assert abs(checks.parse_scalar("1 - z6") - (1 - z6)) < 1e-12
    assert abs(checks.parse_scalar("-1 + z6^2") - (-1 + z6 ** 2)) < 1e-12
    assert abs(checks.parse_scalar("2*z6^3 - z6") - (-2 - z6)) < 1e-12


# --------------------------------------------- spectrum checkers reject corruption


def _spectrum_text(spectrum: dict, order: int) -> str:
    entries = [
        {"eigenvalue": str(v), "eigenvalue_float": float(v), "multiplicity": m}
        for v, m in sorted(spectrum.items(), reverse=True)
    ]
    return json.dumps({"group_order": order, "entries": entries})


def test_exact_spectrum_checker():
    ref = checks.sn_hamming_spectrum(6)
    assert checks.check_spectrum(_spectrum_text(ref, 720), "sn", 6) is None
    top = max(ref)
    changed = dict(ref)
    changed[top + Fraction(1, 3)] = changed.pop(top)
    assert checks.check_spectrum(_spectrum_text(changed, 720), "sn", 6)
    off_by_one = dict(ref)
    off_by_one[top] += 1
    assert checks.check_spectrum(_spectrum_text(off_by_one, 720), "sn", 6)
    assert checks.check_spectrum(_spectrum_text(ref, 719), "sn", 6)
    assert checks.check_spectrum("not json", "sn", 6)


def _cyclic_text(values) -> str:
    counts = Counter(round(float(v), 9) for v in values)
    entries = [{"eigenvalue": "?", "eigenvalue_float": v, "multiplicity": m}
               for v, m in counts.items()]
    return json.dumps({"group_order": len(values) + 1, "entries": entries})


def test_cyclic_spectrum_checker():
    ref = checks.cyclic_arc_eigenvalues(30)
    assert checks.check_spectrum(_cyclic_text(ref), "cyclic", 30) is None
    nudged = ref.copy()
    nudged[-1] *= 1 + 1e-7
    assert checks.check_spectrum(_cyclic_text(nudged), "cyclic", 30)
    doc = json.loads(_cyclic_text(ref))
    doc["entries"][0]["multiplicity"] += 1
    assert checks.check_spectrum(json.dumps(doc), "cyclic", 30)


def test_spectrum_checker_dispatch_and_dense_match():
    ref = checks.c2k_hamming_spectrum(4)
    doc = json.loads(_spectrum_text(ref, 16))
    assert checks.check_spectrum(json.dumps(doc), "c2k", 4) is None
    assert checks.check_spectrum(json.dumps(doc), "c2k", 4, dense_match=True)
    doc["dense_match"] = True
    assert checks.check_spectrum(json.dumps(doc), "c2k", 4, dense_match=True) is None
    assert checks.check_spectrum(json.dumps(doc), "sn", 4)
    assert checks.check_spectrum(_cyclic_text(checks.cyclic_arc_eigenvalues(9)), "cyclic", 9) is None


# ------------------------------------------------------- character tables

S3_TABLE = """irreducible,(1 2 3),(1 2),e
class_size,2,3,1
[3],1,1,1
"[2,1]",-1,0,2
"[1,1,1]",1,-1,1
"""

C4_TABLE = """irreducible,0,1,2,3
class_size,1,1,1,1
0,1,1,1,1
1,1,z4,-1,-z4
2,1,-1,1,-1
3,1,-z4,-1,z4
"""


def test_chartable_checker_accepts_correct_tables():
    assert checks.check_chartable(S3_TABLE, 6) is None
    assert checks.check_chartable(C4_TABLE, 4) is None


@pytest.mark.parametrize("table,order,old,new", [
    (S3_TABLE, 6, '"[2,1]",-1,0,2', '"[2,1]",-1,0,3'),      # a dimension off by one
    (S3_TABLE, 6, '"[1,1,1]",1,-1,1', '"[1,1,1]",1,1,1'),   # rows no longer orthogonal
    (S3_TABLE, 6, "class_size,2,3,1", "class_size,2,2,1"),  # class sizes do not sum to |G|
    (C4_TABLE, 4, "3,1,-z4,-1,z4", "3,1,z4,-1,-z4"),        # a repeated row
    (C4_TABLE, 4, "2,1,-1,1,-1\n", ""),                    # a dropped row
])
def test_chartable_checker_rejects_corruption(table, order, old, new):
    assert old in table
    assert checks.check_chartable(table.replace(old, new), order)


def test_chartable_dimension_check_is_exact(monkeypatch):
    # With the float orthonormality test switched off, the exact sum of
    # squared dimensions alone still catches a dimension off by one.
    monkeypatch.setattr(checks, "CHARTABLE_TOL", 10.0)
    assert checks.check_chartable(S3_TABLE, 6) is None
    assert checks.check_chartable(S3_TABLE.replace('"[2,1]",-1,0,2', '"[2,1]",-1,0,3'), 6)


# ------------------------------------------------------------------ verify

GOOD_REPORT = """verify S_4 / hamming
  spectrum-match: pass deviation=1.0e-14 (3 distinct nonzero eigenvalues)
  trace-identity: pass (exact rational equality)
result: pass
"""


def test_verify_checker():
    assert checks.check_verify(GOOD_REPORT) is None
    failing = GOOD_REPORT.replace("trace-identity: pass", "trace-identity: FAIL")
    assert checks.check_verify(failing.replace("result: pass", "result: FAIL"))
    assert checks.check_verify(failing)
    assert checks.check_verify(GOOD_REPORT.replace("result: pass\n", ""))


# --------------------------------------------------------------- embeddings


def _csv(labels, weights, coords) -> str:
    header = "id,label,weight," + ",".join(f"x{i + 1}:+" for i in range(coords.shape[1]))
    rows = [f'{i},"{lab}",{w},' + ",".join(repr(float(v)) for v in row)
            for i, (lab, w, row) in enumerate(zip(labels, weights, coords))]
    return header + "\n" + "\n".join(rows) + "\n"


def _standard_embedding(expected: Counter, dims: int = 3):
    """Rows shaped like standard mode: weighted-centred, descending variances."""
    rng = np.random.default_rng(0)
    labels = sorted(expected)
    weights = [expected[lab] for lab in labels]
    w = np.array(weights, dtype=float)
    x = rng.normal(size=(len(labels), dims)) * np.array([4.0, 2.0, 1.0][:dims])
    x -= (w[:, None] * x).sum(axis=0) / w.sum()
    vals, vecs = np.linalg.eigh((x.T * w) @ x / w.sum())
    return labels, weights, x @ vecs[:, np.argsort(vals)[::-1]]


@pytest.fixture
def expected():
    rankings = workloads.mallows_rankings(5, 400, 0.5, random.Random(3))
    return checks.expected_embedding_rows(rankings)


def test_embedding_checker_accepts(expected):
    text = _csv(*_standard_embedding(expected))
    assert checks.check_embedding(text, expected, 3, standard=True) is None


def test_embedding_checker_rejects_corruption(expected):
    labels, weights, x = _standard_embedding(expected)
    check = checks.check_embedding
    assert check(_csv(labels[1:], weights[1:], x[1:]), expected, 3, standard=False)
    assert check(_csv(labels, [weights[0] + 1] + weights[1:], x), expected, 3, standard=False)
    assert check(_csv(["9,9,9,9,9"] + labels[1:], weights, x), expected, 3, standard=False)
    nan = x.copy()
    nan[0, 2] = np.nan
    assert check(_csv(labels, weights, nan), expected, 3, standard=False)
    assert check(_csv(labels, weights, x + 1.0), expected, 3, standard=True)
    assert check(_csv(labels, weights, x[:, ::-1]), expected, 3, standard=True)
    assert check(_csv(labels, weights, x[:, ::-1]), expected, 3, standard=False) is None
    assert check(_csv(labels, weights, x), expected, 2, standard=True)


def test_svg_checker():
    svg = ('<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10">'
           + '<circle cx="1" cy="1" r="1"/>' * 3 + "</svg>")
    assert checks.check_svg(svg, 3) is None
    assert checks.check_svg(svg, 4)
    assert checks.check_svg(svg.replace("</svg>", ""), 3)


# ---------------------------------------------------------- input generator


def test_mallows_generator_is_seeded_and_valid():
    a = workloads.mallows_rankings(7, 300, 0.8, random.Random(11))
    assert a == workloads.mallows_rankings(7, 300, 0.8, random.Random(11))
    assert a != workloads.mallows_rankings(7, 300, 0.8, random.Random(12))
    assert all(sorted(r) == list(range(1, 8)) for r in a)


def test_mallows_concentration_orders_distinct_share():
    rng = random.Random(5)
    uniform = workloads.mallows_rankings(6, 2000, 0.0, rng)
    peaked = workloads.mallows_rankings(6, 2000, 1.5, rng)
    assert len(set(peaked)) < len(set(uniform))
    top = Counter(peaked).most_common(1)[0][0]
    assert top == tuple(range(1, 7))


# ---------------------------------------------------------------- tracing


def test_tracer_self_times_add_up():
    import time

    tracer = traced_cli.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    wrapped_inner = tracer.wrap("m.inner", inner)
    wrapped_outer = tracer.wrap("m.outer", outer)
    start = time.perf_counter()
    wrapped_outer()
    total = time.perf_counter() - start
    stats = tracer.stats
    assert stats["m.inner"]["calls"] == 2 and stats["m.outer"]["calls"] == 1
    assert stats["m.inner"]["self_s"] >= 0.04
    assert 0.01 <= stats["m.outer"]["self_s"] < 0.03
    assert abs(stats["m.inner"]["self_s"] + stats["m.outer"]["self_s"] - total) < 0.005


# ------------------------------------ the checkers accept the real program


def _cli(*args) -> tuple:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "groupmds.cli", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.stdout, proc.returncode


@pytest.mark.skipif(not (ROOT / "src" / "groupmds").is_dir(), reason="needs the groupmds sources")
def test_checkers_accept_program_output(tmp_path):
    for kind, size in [("sn", 7), ("c2k", 6), ("cyclic", 24)]:
        out, _ = _cli("spectrum", "--group", kind, "--k" if kind == "c2k" else "--n", str(size))
        assert checks.check_spectrum(out, kind, size) is None
    out, _ = _cli("spectrum", "--group", "sn", "--n", "5", "--verify")
    assert checks.check_spectrum(out, "sn", 5, dense_match=True) is None
    out, _ = _cli("chartable", "--group", "cyclic", "--n", "12", "--format", "csv")
    assert checks.check_chartable(out, 12) is None
    out, _ = _cli("chartable", "--group", "sn", "--n", "7", "--format", "csv")
    assert checks.check_chartable(out, 5040) is None
    out, code = _cli("verify", "--group", "sn", "--n", "4")
    assert code == 0 and checks.check_verify(out) is None
    rf = workloads.write_ranking_file(tmp_path / "r.txt", 6, 500, 0.5, 1)
    expected = checks.expected_embedding_rows(rf.rankings)
    for mode in ("standard", "dense"):
        csv_path = tmp_path / f"{mode}.csv"
        _cli("embed", "--input", str(rf.path), "--mode", mode, "--out", str(csv_path))
        text = csv_path.read_text()
        assert checks.check_embedding(text, expected, 3, mode == "standard") is None
    out, _ = _cli("plot", "--input", str(tmp_path / "standard.csv"))
    assert checks.check_svg(out, len(expected)) is None


# ----------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_matches_the_harness():
    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
