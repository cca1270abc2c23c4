import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from groupmds import cli, dense, groups, metrics, rankings, spectral


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env(**overrides):
    """This process's environment with src on PYTHONPATH, minus
    OPENBLAS_THREAD_TIMEOUT, plus the overrides."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(env, **overrides)


def entries_by_value(doc):
    return {Fraction(e["eigenvalue"]): e for e in doc["entries"]}


def test_spectrum_s4(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--group", "sn", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    entries = entries_by_value(doc)
    assert entries[Fraction(20)]["multiplicity"] == 9
    assert entries[Fraction(-4)]["multiplicity"] == 9
    assert entries[Fraction(-6)]["multiplicity"] == 4


def test_spectrum_closed_form_k10(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--group", "c2k", "--k", "10")
    assert code == 0
    entries = entries_by_value(json.loads(out))
    assert entries[Fraction(2560)]["multiplicity"] == 10
    assert entries[Fraction(-256)]["multiplicity"] == 45


def test_spectrum_closed_form_elides_zero_labels_past_the_cap(capsys):
    # 2^16 irreducibles lie above the enumeration cap: the zero entry keeps
    # its multiplicity and lists no labels, as at k = 17.
    code, out, _ = run_cli(capsys, "spectrum", "--group", "c2k", "--k", "16")
    assert code == 0
    zero = entries_by_value(json.loads(out))[Fraction(0)]
    assert zero["multiplicity"] == 2 ** 16 - 1 - 16 - 120
    assert zero["labels"] == []


def test_spectrum_with_dense_verification(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--group", "sn", "--n", "5", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["dense_match"] is True
    assert doc["dense_max_deviation"] < 1e-8
    assert doc["dense_rank"] == 120  # full rank: eigvalsh ran


def test_spectrum_verify_reports_the_rank_the_range_path_solved(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--group", "c2k", "--k", "7", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert list(doc)[-3:] == ["dense_max_deviation", "dense_match", "dense_rank"]
    assert doc["dense_match"] is True
    assert doc["dense_rank"] == 7 + 21
    assert 0 < doc["dense_max_deviation"] < 1e-8


def test_spectrum_verify_reads_eigenvalues_only(capsys, monkeypatch):
    def no_eigenvectors(kernel):
        raise AssertionError("spectrum --verify must not compute eigenvectors")

    monkeypatch.setattr(dense, "eigendecompose", no_eigenvectors)
    code, out, _ = run_cli(capsys, "spectrum", "--group", "c2k", "--k", "5", "--verify")
    assert code == 0
    assert json.loads(out)["dense_match"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--group", "cyclic", "--n", "6", "--metric", "hamming"],
        ["spectrum", "--group", "sn", "--n", "0"],
        ["chartable", "--group", "c2k", "--k", "-1"],
        ["verify", "--group", "cyclic", "--n", "0"],
    ],
    ids=["unrecognized-metric-flag", "sn-n0", "c2k-k-1", "cyclic-n0"],
)
def test_spectrum_invalid_combination_is_usage_error(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 2


def test_spectrum_verify_cap(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--group", "sn", "--n", "7", "--verify")
    assert code == 3
    assert "720" in err


@pytest.mark.parametrize("group, cap_message", [
    ("--group c2k --k 1016", "elementary-abelian-2(1016) has order 2^1016"),
    ("--group sn --n 500", "symmetric(500) has order 500!"),
    ("--group cyclic --n 5000", "cyclic(5000) has order 5000"),
])
def test_spectrum_verify_refuses_past_the_cap_before_the_spectrum(capsys, monkeypatch, group,
                                                                 cap_message):
    def no_spectrum(*args):
        raise AssertionError("spectrum computed")

    monkeypatch.setattr(cli, "_exact_spectrum", no_spectrum)
    code, out, err = run_cli(capsys, "spectrum", *group.split(), "--verify")
    assert (code, out) == (3, "")
    assert err == f"error: {cap_message}, above the verification cap 720\n"


def test_chartable_c22_csv(capsys):
    code, out, _ = run_cli(capsys, "chartable", "--group", "c2k", "--k", "2",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "irreducible,00,01,10,11"
    assert lines[1] == "class_size,1,1,1,1"
    assert lines[2] == "{},1,1,1,1"
    assert lines[3] == "{2},1,-1,1,-1"
    assert lines[4] == "{1},1,1,-1,-1"
    assert lines[5] == '"{1,2}",1,-1,-1,1'  # label holds a comma, so csv quotes it


def test_chartable_s3_text(capsys):
    code, out, _ = run_cli(capsys, "chartable", "--group", "sn", "--n", "3")
    assert code == 0
    assert "(1 2 3)" in out and "(1 2)" in out
    assert "[2,1]" in out


def test_chartable_takes_no_metric(capsys):
    code, out, err = run_cli(capsys, "chartable", "--group", "sn", "--n", "4", "--metric", "arc")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --metric arc" in err


# Each group carries one bi-invariant metric, so no command takes --metric,
# not even with the value the group would use.
@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("group, metric", [
    ("--group sn --n 4", "hamming"),
    ("--group c2k --k 3", "hamming"),
    ("--group cyclic --n 6", "arc"),
    ("--group cyclic --n 6", "hamming"),
], ids=["sn-hamming", "c2k-hamming", "cyclic-arc", "cyclic-hamming"])
def test_group_commands_take_no_metric(capsys, command, group, metric):
    code, out, err = run_cli(capsys, command, *group.split(), "--metric", metric)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: --metric {metric}" in err


@pytest.mark.parametrize("group, spec", [
    ("--group sn --n 5", groups.symmetric(5)),
    ("--group c2k --k 4", groups.elementary_abelian_2(4)),
    ("--group cyclic --n 12", groups.cyclic(12)),
], ids=["sn5", "c2k4", "cyclic12"])
def test_spectrum_and_verify_use_the_group_s_metric(capsys, group, spec):
    from groupmds import verify

    metric = metrics.default_metric(spec)
    summary = cli._exact_spectrum(spec, metric)
    assert run_cli(capsys, "spectrum", *group.split()) == (
        0, json.dumps(summary.to_json_dict(), indent=2) + "\n", "")
    report = verify.oracle_equivalence_report(spec, metric)
    assert run_cli(capsys, "verify", *group.split()) == (0, "\n".join(report.lines()) + "\n", "")


P500 = 2300165032574323995027
HUGE_SYMMETRIC = {
    "spectrum-sn500": ("spectrum --group sn --n 500",
                       f"symmetric(500) has {P500} irreducibles, above the enumeration cap 50000"),
    "chartable-sn500": ("chartable --group sn --n 500",
                        f"symmetric(500) has {P500} conjugacy classes, above the guard 200"),
    "spectrum-sn1e6": ("spectrum --group sn --n 1000000", "the partition count p(1000000) needs "
                       "1732000000 steps, above the work bound 5000000 steps"),
    "chartable-sn1e6": ("chartable --group sn --n 1000000", "the partition count p(1000000) needs "
                        "1732000000 steps, above the work bound 5000000 steps"),
}


@pytest.mark.parametrize("argv, message", HUGE_SYMMETRIC.values(), ids=HUGE_SYMMETRIC.keys())
def test_huge_symmetric_requests_are_refused_in_one_line(argv, message):
    # A fresh process, so no partition count is cached from earlier tests.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "groupmds.cli", *argv.split()],
                            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert time.perf_counter() - start < 5.0
    assert (result.returncode, result.stdout, result.stderr) == (3, "", f"error: {message}\n")


HUGE_COUNTS = {
    "spectrum-c2k14285": ("spectrum --group c2k --k 14285", "elementary-abelian-2(14285) has "
                          "2^14285 irreducibles, above the enumeration cap 50000"),
    "chartable-c2k14285": ("chartable --group c2k --k 14285", "elementary-abelian-2(14285) has "
                           "2^14285 conjugacy classes, above the guard 200"),
    "verify-sn1559": ("verify --group sn --n 1559",
                      "symmetric(1559) has order 1559!, above the verification cap 720"),
    "verify-sn1e6": ("verify --group sn --n 1000000",
                     "symmetric(1000000) has order 1000000!, above the verification cap 720"),
    "synthesize-1e8": ("synthesize --items 10 --rows 100000000", "synthesizing 100000000 "
                       "rankings of 10 items needs 84000000000 bytes, above the table bound "
                       "1073741824 bytes"),
}


@pytest.mark.parametrize("argv, message", HUGE_COUNTS.values(), ids=HUGE_COUNTS.keys())
def test_counts_past_the_int_text_limit_are_refused_in_one_line(capsys, argv, message):
    # Each refusal comes before the work: no count past 4300 digits is written
    # in full, 10^6! is never computed and no ranking is drawn.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.split())
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, code, message", [
    ("--group sn --n 170", 0, ""),
    ("--group sn --n 171", 3,
     "symmetric(171) has 301384802048 irreducibles, above the enumeration cap 50000"),
    ("--group c2k --k 1017", 3,
     "elementary-abelian-2(1017) has 2^1017 irreducibles, above the enumeration cap 50000"),
], ids=["sn-170", "sn-171", "c2k-1017"])
def test_closed_form_edge_of_the_float64_range(capsys, argv, code, message):
    # Past its float64 range a closed form declines, and the character path's
    # guards refuse the request.
    code_, out, err = run_cli(capsys, "spectrum", *argv.split())
    assert code_ == code
    if code:
        assert (out, err) == ("", f"error: {message}\n")
    else:
        assert all(math.isfinite(e["eigenvalue_float"]) for e in json.loads(out)["entries"])


SPECTRUM_GROUPS = ([("sn", "--n", n) for n in range(2, 13)]
                   + [("c2k", "--k", k) for k in range(1, 13)])


@pytest.mark.parametrize("group, flag, size", SPECTRUM_GROUPS,
                         ids=[f"{g}{size}" for g, _, size in SPECTRUM_GROUPS])
def test_spectrum_prints_the_character_path_bytes(capsys, group, flag, size):
    # The closed form answers from S_4 and (C_2)^1 on; S_2 and S_3 fall
    # through to the character path. Either way the bytes are its.
    spec = groups.symmetric(size) if group == "sn" else groups.elementary_abelian_2(size)
    summary = spectral.spectrum_via_characters(spec, metrics.hamming_metric(spec))
    code, out, err = run_cli(capsys, "spectrum", "--group", group, flag, str(size))
    assert (code, err) == (0, "")
    assert out == json.dumps(summary.to_json_dict(), indent=2) + "\n"


def test_spectrum_has_no_closed_form_option(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--group", "sn", "--n", "5", "--closed-form")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --closed-form" in err


@pytest.mark.parametrize("n, cap, refused", [
    (1, 0, True), (1, 1, False), (5, 119, True), (5, 120, False), (7, 5039, True),
    (7, 5040, False), (20, 720, True), (20, 2 ** 62, False), (21, 2 ** 62, True),
])
def test_verify_cap_compares_the_order_exactly(capsys, n, cap, refused):
    # At (20, 720) the comparison stops at 11!, and the message still gives 20!.
    # Past the cap S_7 and S_20 are refused by the work bound.
    code, _, err = run_cli(capsys, "verify", "--group", "sn", "--n", str(n), "--cap", str(cap),
                           "--out", os.devnull)
    message = (f"error: symmetric({n}) has order {math.factorial(n)}, "
               f"above the verification cap {cap}\n")
    assert (err == message) == refused
    assert code == (3 if refused or n > 6 else 0)


def test_chartable_class_guard(capsys):
    code, _, err = run_cli(capsys, "chartable", "--group", "sn", "--n", "30")
    assert code == 3
    assert err == "error: symmetric(30) has 5604 conjugacy classes, above the guard 200\n"
    code, out, _ = run_cli(capsys, "chartable", "--group", "sn", "--n", "9")
    assert code == 0


def test_spectrum_refuses_cyclic_coefficients_over_the_byte_bound_quickly(capsys):
    # The guard counts 4391 x phi(4391) reduced integers at 56 bytes, just
    # over 2^30, and trips before the kernel allocates anything.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "spectrum", "--group", "cyclic", "--n", "4391")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert "the exact coefficients of cyclic(4391) needs 1079483440 bytes" in err


REFUSED_FOR_WORK = {
    "chartable-sn30": "chartable --max-classes 50000 --group sn --n 30",
    "chartable-c2k13": "chartable --max-classes 50000 --group c2k --k 13",
    "chartable-cyclic2000": "chartable --max-classes 50000 --group cyclic --n 2000",
    "spectrum-cyclic3001": "spectrum --group cyclic --n 3001",
    "verify-cyclic3000": "verify --group cyclic --n 3000 --cap 5000",
    # 16 bytes an entry is exactly 2^30 at 8192: the m^3 eigenvalue solve refuses it.
    "spectrum-verify-c2k13": "spectrum --group c2k --k 13 --verify --cap 10000",
    # A 5040 x 5040 eigh with eigenvectors, 17 to 22 s when admitted.
    "embed-dense-n7": "embed --input {rankings} --mode dense",
}


@pytest.mark.parametrize("argv", REFUSED_FOR_WORK.values(), ids=REFUSED_FOR_WORK.keys())
def test_requests_over_the_work_bound_are_refused_quickly(capsys, tmp_path, argv):
    # Each is within the items and byte bounds and would run for a minute or more.
    rankings = tmp_path / "rankings.txt"
    rankings.write_text("a,b,c,d,e,f,g\n1,2,3,4,5,6,7\n7,6,5,4,3,2,1\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv.format(rankings=rankings).split())
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert err.endswith(f"above the work bound {groups.WORK_MAX} steps\n")


def test_embed_defaults_to_the_block_path_past_the_dense_work_bound(capsys, tmp_path):
    # The file that embed --mode dense refuses above: the default never lists S_7.
    rankings = tmp_path / "rankings.txt"
    rankings.write_text("a,b,c,d,e,f,g\n1,2,3,4,5,6,7\n7,6,5,4,3,2,1\n")
    code, out, err = run_cli(capsys, "embed", "--input", str(rankings))
    assert (code, err) == (0, "")
    # Two rankings span one axis: the other two carry no variance.
    assert out.splitlines()[0] == "id,label,weight,x1:+,x2:0,x3:0"
    assert [line.split(",")[-2:] for line in out.splitlines()[1:]] == [["0.0", "0.0"]] * 2
    embedding = tmp_path / "embedding.csv"
    embedding.write_text(out)
    code, svg, err = run_cli(capsys, "plot", "--input", str(embedding))
    assert (code, err) == (0, "")
    assert len([el for el in ET.fromstring(svg).iter() if el.tag.endswith("circle")]) == 2


@pytest.mark.parametrize("items,dims,headers", [
    # Past the positive rank both modes hold zeros; the dense mode caps at
    # m! columns, the block at m^2.
    (2, 3, {"dense": "x1:+,x2:0", "standard": "x1:+,x2:0,x3:0"}),
    (3, 5, {"dense": "x1:+,x2:+,x3:+,x4:+,x5:0", "standard": "x1:+,x2:+,x3:+,x4:+,x5:0"}),
])
def test_embed_modes_keep_axes_by_one_rule(capsys, tmp_path, items, dims, headers):
    rankings = tmp_path / "rankings.txt"
    run_cli(capsys, "synthesize", "--items", str(items), "--rows", "40", "--out", str(rankings))
    for mode, header in headers.items():
        code, out, err = run_cli(capsys, "embed", "--input", str(rankings), "--dims", str(dims),
                                 "--mode", mode)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "id,label,weight," + header
        assert {line.rsplit(",", 1)[1] for line in out.splitlines()[1:]} == {"0.0"}


@pytest.mark.parametrize("mode", ["dense", "standard"])
def test_embed_refuses_a_one_item_file(capsys, tmp_path, mode):
    rankings = tmp_path / "one.txt"
    rankings.write_text("a\n1\n1\n")
    code, out, err = run_cli(capsys, "embed", "--input", str(rankings), "--mode", mode)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("error: an embedding needs at least 2 items, not 1")
    assert "nan" not in err


def test_embed_reports_a_library_refusal_with_the_embed_usage(capsys, tmp_path):
    rankings = tmp_path / "one.txt"
    rankings.write_text("a\n1\n")
    code, out, err = run_cli(capsys, "embed", "--input", str(rankings))
    assert (code, out) == (2, "")
    assert err.startswith("usage: groupmds embed ")
    assert err.splitlines()[-1] == "groupmds embed: error: an embedding needs at least 2 items, not 1"


@pytest.mark.parametrize("argv", [
    "spectrum --group sn --n 4 --out {missing}",
    "synthesize --items 3 --rows 2 --out {missing}",
    "verify --group sn --n 3 --dump-distances {missing}",
])
def test_an_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv):
    missing = tmp_path / "no-such-directory" / "out.txt"
    code, out, err = run_cli(capsys, *argv.format(missing=missing).split())
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"error: cannot write {missing}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["embed", "plot"])
def test_an_unreadable_input_path_is_a_usage_error(capsys, tmp_path, command):
    missing = tmp_path / "no-such-file.txt"
    code, out, err = run_cli(capsys, command, "--input", str(missing))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot read {missing}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["embed", "plot"])
def test_an_input_that_is_not_utf8_is_a_usage_error_naming_its_path(capsys, tmp_path, command):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"id,x1,x2\n\xff\xfe,1,2\n")
    code, out, err = run_cli(capsys, command, "--input", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")


def test_an_empty_plot_input_is_a_usage_error(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, out, err = run_cli(capsys, "plot", "--input", str(empty))
    assert (code, out, err) == (2, "", "error: empty embedding file\n")


def test_verify_refuses_before_building_the_oracle(capsys, monkeypatch):
    def no_matrix(spec, metric):
        raise AssertionError("verify built a distance matrix before its guards")

    monkeypatch.setattr(metrics, "build_distance_matrix", no_matrix)
    code, out, _ = run_cli(capsys, "verify", "--group", "cyclic", "--n", "3000",
                           "--cap", "5000")
    assert (code, out) == (3, "")


def test_embed_and_plot_pipeline(tmp_path, capsys):
    ranking_file = tmp_path / "rankings.txt"
    embed_file = tmp_path / "embedding.csv"
    svg_file = tmp_path / "plot.svg"

    code, _, err = run_cli(capsys, "synthesize", "--items", "5", "--rows", "400",
                           "--seed", "11", "--out", str(ranking_file))
    assert code == 0
    assert "seed: 11" in err

    code, _, _ = run_cli(capsys, "embed", "--input", str(ranking_file),
                         "--dims", "3", "--mode", "dense", "--out", str(embed_file))
    assert code == 0
    lines = embed_file.read_text().splitlines()
    assert lines[0].startswith("id,label,weight,x1:+")
    assert 1 < len(lines) <= 121

    code, _, _ = run_cli(capsys, "plot", "--input", str(embed_file),
                         "--out", str(svg_file))
    assert code == 0
    root = ET.fromstring(svg_file.read_text())
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == len(lines) - 1


def test_embed_standard_sushi_scale(tmp_path, capsys):
    ranking_file = tmp_path / "sushi.txt"
    run_cli(capsys, "synthesize", "--items", "10", "--rows", "5000",
            "--seed", "1", "--out", str(ranking_file))
    code, out, _ = run_cli(capsys, "embed", "--input", str(ranking_file),
                           "--dims", "3", "--mode", "standard")
    assert code == 0
    import csv as csv_mod
    import io

    rows = list(csv_mod.reader(io.StringIO(out)))[1:]
    # 5000 draws from the 3,628,800 permutations of 10 items collide a few times
    assert 4950 <= len(rows) <= 5000
    assert sum(int(r[2]) for r in rows) == 5000


def test_embed_standard_refuses_a_block_over_the_byte_bound_quickly(tmp_path, capsys):
    # 2000 distinct rankings of 200 items: the 2000 x 40000 block alone is
    # 640 MB per copy, and the 40000^2 covariance 12.8 GB.
    ranking_file = tmp_path / "wide.txt"
    run_cli(capsys, "synthesize", "--items", "200", "--rows", "2000",
            "--seed", "3", "--out", str(ranking_file))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "embed", "--input", str(ranking_file),
                             "--mode", "standard")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: the standard-block embedding of 2000 permutations of 200 items")


def test_embed_dims_zero_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "embed", "--input", "whatever.txt", "--dims", "0")
    assert code == 2


def test_embed_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("A,B,C\n1,1,3\n")
    code, _, err = run_cli(capsys, "embed", "--input", str(bad))
    assert code == 2
    assert "line 2" in err


def test_embed_dense_size_guard(tmp_path, capsys):
    ranking_file = tmp_path / "big.txt"
    run_cli(capsys, "synthesize", "--items", "8", "--rows", "5",
            "--seed", "4", "--out", str(ranking_file))
    code, _, _ = run_cli(capsys, "embed", "--input", str(ranking_file),
                         "--dims", "2", "--mode", "dense")
    assert code == 3


TOY_CSV = (
    "id,label,weight,x1:+,x2:+,x3:+\n"
    "0,a,{},0.0,0.0,1.0\n"
    "1,b,{},1.0,1.0,2.0\n"
    "2,c,{},2.0,0.5,3.0\n"
)


def test_plot_toy_csv(tmp_path, capsys):
    csv_file = tmp_path / "toy.csv"
    csv_file.write_text(TOY_CSV.format(4, 4, 4))
    code, out, _ = run_cli(capsys, "plot", "--input", str(csv_file))
    assert code == 0
    root = ET.fromstring(out)
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 3
    radii = {c.attrib["r"] for c in circles}
    assert len(radii) == 1  # equal weights give equal radii
    fills = [c.attrib["fill"] for c in circles]
    assert len(set(fills)) == 3  # color ramp follows coordinate 3


@pytest.mark.parametrize("column", [0, 1, 2], ids=["x", "y", "color"])
def test_plot_spans_past_the_float64_maximum(tmp_path, capsys, column):
    high, low = ["0", "0", "1"], ["1", "1", "0"]
    high[column], low[column] = "1e308", "-1e308"
    csv_file = tmp_path / "huge.csv"
    csv_file.write_text(f"x1,x2,x3\n{','.join(high)}\n{','.join(low)}\n")
    code, out, _ = run_cli(capsys, "plot", "--input", str(csv_file))
    assert code == 0
    assert "nan" not in out and "inf" not in out
    cells = [dict(re.findall(r'(\w+)="([^"]*)"', line)) for line in out.splitlines()
             if line.startswith("<circle")]
    margins = {"48.000", "672.000"}
    assert {cells[0]["cx"], cells[1]["cx"]} == {cells[0]["cy"], cells[1]["cy"]} == margins
    assert (cells[0]["fill"], cells[1]["fill"]) == ("#b2182b", "#2166ac")


def test_plot_spans_below_the_smallest_finite_scale(tmp_path, capsys):
    # Halved spans of 2.5e-311 would make the pixel scale overflow to inf.
    csv_file = tmp_path / "tiny.csv"
    csv_file.write_text("x1,x2\n1e-310,2e-310\n1.5e-310,2.5e-310\n")
    code, out, _ = run_cli(capsys, "plot", "--input", str(csv_file))
    assert code == 0
    assert "nan" not in out and "inf" not in out
    cells = [dict(re.findall(r'(\w+)="([^"]*)"', line)) for line in out.splitlines()
             if line.startswith("<circle")]
    assert [(c["cx"], c["cy"]) for c in cells] == [("48.000", "672.000"), ("672.000", "48.000")]


PLOT_EDGE_ROWS = 1_335_498  # "1,1" rows: 804 bytes each, the table bound's 2**30 bytes


def _ones_csv(rows: int) -> str:
    return "x1,x2\n" + "1,1\n" * rows


@pytest.mark.parametrize("rows, refused", [(PLOT_EDGE_ROWS, False), (PLOT_EDGE_ROWS + 1, True)])
def test_plot_prices_its_text_before_splitting_it(tmp_path, capsys, monkeypatch, rows, refused):
    def no_splitting(lines):
        raise AssertionError("split")

    big = tmp_path / "ones.csv"
    big.write_text(_ones_csv(rows), encoding="utf-8")
    monkeypatch.setattr(cli.csv, "reader", no_splitting)
    if not refused:
        with pytest.raises(AssertionError, match="split"):
            cli.main(["plot", "--input", str(big)])
        return
    code, out, err = run_cli(capsys, "plot", "--input", str(big))
    assert (code, out) == (3, "")
    assert err == ("error: plotting 5342002 characters of embedding needs 1073742051 bytes, "
                   f"above the table bound {groups.TABLE_MAX_BYTES} bytes\n")


def test_plot_refuses_a_stream_past_its_edge(tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = subprocess.Popen([sys.executable, "-c", "import sys; open(sys.argv[1], 'w').write("
                               f"'x1,x2\\n' + '1,1\\n' * {PLOT_EDGE_ROWS + 1})", str(fifo)])
    try:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "plot", "--input", str(fifo))
        assert time.perf_counter() - start < 5.0
    finally:
        writer.kill()
        writer.wait()
    assert (code, out) == (3, "")
    assert err == ("error: plotting 5342002 characters of embedding needs 1073742051 bytes, "
                   f"above the table bound {groups.TABLE_MAX_BYTES} bytes\n")


@pytest.mark.parametrize("size, err", [
    (1039, "need at least 2 coordinate columns"),  # the limit, read whole and admitted
    (1040, "plotting 1040 characters of embedding needs 26 steps"),  # read to the limit + 1
    (4 * 1039, "plotting 1040 characters of embedding needs 26 steps"),
    (4 * 1039 + 1, "plotting at least 1040 characters of embedding needs 26 steps"),  # size alone
], ids=["limit", "limit-plus-one", "four-bytes-a-character", "size-alone"])
def test_plot_reads_at_most_one_character_past_its_limit(tmp_path, capsys, monkeypatch, size,
                                                         err):
    monkeypatch.setattr(groups, "WORK_MAX", 25)  # a step per 40 characters: 1039 at most
    path = tmp_path / "long.csv"
    path.write_text("1" * size, encoding="utf-8")
    code, out, got = run_cli(capsys, "plot", "--input", str(path))
    refused = size > 1039
    assert (code, out) == ((3, "") if refused else (2, ""))
    assert got == f"error: {err}" + (", above the work bound 25 steps\n" if refused else "\n")


def _embedding_rows(rows: int) -> str:
    return "id,label,weight,x1:+,x2:+,x3:+\n" + "".join(
        f'{i},"1,2,3,4,5,6,7,8,9,10",{i % 3 + 1},{math.sin(i)!r},{math.cos(i)!r},'
        f"{math.sin(2 * i)!r}\n" for i in range(rows))


def test_plot_prices_lines_and_commas_not_bytes(tmp_path, capsys, monkeypatch):
    # Two texts of one size: "1,1" rows are priced at 2.2 steps a line, 0.54
    # a character; an embedding's 90-character rows at 5 steps, 0.06 a character.
    monkeypatch.setattr(groups, "WORK_MAX", 1000)
    embedding = _embedding_rows(40)
    size = len(embedding)
    ones = _ones_csv((size - 10) // 4) + "1," + "1" * ((size - 10) % 4 + 1) + "\n"
    assert len(ones) == size
    paths = [tmp_path / "ones.csv", tmp_path / "embedding.csv"]
    for path, text in zip(paths, [ones, embedding]):
        path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "plot", "--input", str(paths[0]))
    assert (code, out) == (3, "")
    assert err == (f"error: plotting {size} characters of embedding needs 1865 steps, above the "
                   "work bound 1000 steps\n")
    code, out, err = run_cli(capsys, "plot", "--input", str(paths[1]))
    assert (code, err) == (0, "")
    assert out.count("<circle") == 40


@pytest.mark.parametrize("faults, named", [(("1,nan", "1"), "1,nan"), (("1", "1,nan"), "1")])
def test_plot_names_the_first_faulty_row_past_its_first_chunk(tmp_path, capsys, faults, named):
    # Rows of 6-character lines are split 10,923 (2**16 // 6 + 1) at a time:
    # both faults sit in the second chunk, and the first one is named.
    rows = ["1,1"] * 20000
    rows[15000:15002] = faults
    path = tmp_path / "late.csv"
    path.write_text("x1,x2\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "plot", "--input", str(path))
    assert (code, out, err) == (2, "", f"error: malformed embedding row: {named!r}\n")


def test_plot_holds_only_the_floats_of_its_needed_columns():
    # Twenty distinct two-digit fields a row, two of them coordinates: split
    # whole, the rows' strs alone would take about 1.5 kB a row.
    text = ",".join(f"a{j}" for j in range(20)) + ",x1,x2\n" + "".join(
        ",".join(str(10 + (7 * i + j) % 90) for j in range(22)) + "\n" for i in range(20000))
    tracemalloc.start()
    try:
        columns, weights = cli._parse_embedding_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(column) for column in columns] == [20000, 20000] and len(weights) == 20000
    assert peak < 20000 * 400


@pytest.mark.parametrize("bound, refused", [(213_616, False), (213_615, True)])
def test_plot_prices_the_widest_line_s_row(tmp_path, capsys, monkeypatch, bound, refused):
    # 4007 characters, 2 lines and 2001 commas are priced at 85,616 bytes;
    # the 4000-character row, split whole, adds 32 bytes a character.
    monkeypatch.setattr(groups, "TABLE_MAX_BYTES", bound)
    path = tmp_path / "wide.csv"
    path.write_text("x1,x2\n" + "1,2," * 1000 + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "plot", "--input", str(path))
    if not refused:
        assert (code, err, out.count("<circle")) == (0, "", 1)
        return
    assert (code, out) == (3, "")
    assert err == ("error: plotting 4007 characters of embedding needs 213616 bytes, above the "
                   "table bound 213615 bytes\n")


def test_embed_then_plot_admits_an_embedding_past_a_per_byte_price(tmp_path, capsys,
                                                                     monkeypatch):
    # At 0.75 steps a byte, the price of "1,1" rows, this embedding would be
    # refused; priced by its lines and commas it is plotted.
    monkeypatch.setattr(groups, "WORK_MAX", 3000)
    ranking_file, csv_file = tmp_path / "rankings.txt", tmp_path / "embedding.csv"
    assert run_cli(capsys, "synthesize", "--items", "5", "--rows", "300", "--seed", "3",
                   "--out", str(ranking_file))[0] == 0
    assert run_cli(capsys, "embed", "--input", str(ranking_file), "--out", str(csv_file))[0] == 0
    rows = len(csv_file.read_text(encoding="utf-8").splitlines()) - 1
    assert csv_file.stat().st_size * 3 // 4 > groups.WORK_MAX
    code, out, err = run_cli(capsys, "plot", "--input", str(csv_file))
    assert (code, err) == (0, "")
    assert out.count("<circle") == rows


def test_embed_refuses_a_file_past_the_parser_s_limit_from_its_size(tmp_path, capsys):
    big = tmp_path / "big.txt"
    with open(big, "wb") as fh:
        fh.truncate(8 * 10 ** 9)  # sparse: reading it would take far longer than the bound
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "embed", "--input", str(big))
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert err == ("error: parsing at least 2000000000 characters of rankings needs 50000000 "
                   f"steps, above the work bound {groups.WORK_MAX} steps\n")


@pytest.fixture
def small_text_limit(monkeypatch):
    """A work bound of 25 steps, so that the ranking parser's limit is 1039 characters."""
    monkeypatch.setattr(groups, "WORK_MAX", 25)
    monkeypatch.setattr(rankings, "MAX_TEXT", 40 * 25 + 39)


def test_read_text_reads_a_file_past_the_limit_in_bytes_whole(tmp_path, small_text_limit):
    # 817 characters in 1617 bytes: read to one character past the limit, so whole.
    text = "\u00e9" * 400 + "," + "\u00fc" * 400 + ",c\n1,2,3\n3,2,1\n"
    path = tmp_path / "wide.txt"
    path.write_text(text, encoding="utf-8")
    assert len(text) <= rankings.MAX_TEXT < path.stat().st_size
    assert cli._read_text(path, rankings.MAX_TEXT, "parsing {} characters of rankings") == text


@pytest.mark.parametrize("size, message", [
    (1100, "parsing 1040 characters of rankings needs 26 steps"),  # read to the limit + 1
    (4 * 1039, "parsing 1040 characters of rankings needs 26 steps"),
    (4 * 1039 + 1, "parsing at least 1040 characters of rankings needs 26 steps"),  # size alone
], ids=["limit-plus-one", "four-bytes-a-character", "size-alone"])
def test_embed_refuses_a_file_past_the_limit_in_characters(tmp_path, capsys, small_text_limit,
                                                           size, message):
    path = tmp_path / "long.txt"
    path.write_text("a,b\n" + "1" * (size - 4), encoding="utf-8")
    code, out, err = run_cli(capsys, "embed", "--input", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: {message}, above the work bound 25 steps\n"


def test_embed_reads_a_pipe_to_one_character_past_the_limit(tmp_path, capsys, small_text_limit):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = subprocess.Popen([sys.executable, "-c", "import sys; open(sys.argv[1], 'w').write("
                               "'a,b\\n' + '1,2\\n' * 100000)", str(fifo)])
    try:
        code, out, err = run_cli(capsys, "embed", "--input", str(fifo))
    finally:
        writer.kill()
        writer.wait()
    assert (code, out) == (3, "")
    assert err == ("error: parsing 1040 characters of rankings needs 130 steps, above the work "
                   "bound 25 steps\n")


def test_embed_refuses_a_pipe_by_the_bytes_its_pieces_and_their_join_hold(
        tmp_path, capsys, monkeypatch, small_text_limit):
    # 256 four-byte characters a piece: three pieces and a join of 768 such
    # characters pass 6000 bytes, well inside the parser's 1039 characters.
    monkeypatch.setattr(cli, "_READ_PIECE", 256)
    monkeypatch.setattr(groups, "TABLE_MAX_BYTES", 6000)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = subprocess.Popen([sys.executable, "-c", "import sys; open(sys.argv[1], 'w', "
                               "encoding='utf-8').write('\\U0001F600' * 100000)", str(fifo)])
    try:
        code, out, err = run_cli(capsys, "embed", "--input", str(fifo))
    finally:
        writer.kill()
        writer.wait()
    held = 3 * sys.getsizeof("\U0001F600" * 256) + 4 * 768
    assert (code, out) == (3, "")
    assert err == (f"error: parsing at least 768 characters of rankings needs {held} bytes, "
                   "above the table bound 6000 bytes\n")


def test_plot_missing_coordinates_is_usage_error(tmp_path, capsys):
    csv_file = tmp_path / "thin.csv"
    csv_file.write_text("id,label,weight,x1:+\n0,a,1,0.5\n")
    code, out, err = run_cli(capsys, "plot", "--input", str(csv_file))
    assert (code, out, err) == (2, "", "error: need at least 2 coordinate columns\n")


@pytest.mark.parametrize("color_col", ["0", "-1"])
def test_plot_color_col_below_one_is_usage_error(tmp_path, capsys, color_col):
    csv_file = tmp_path / "toy.csv"
    csv_file.write_text(TOY_CSV.format(4, 4, 4))
    code, out, err = run_cli(capsys, "plot", "--input", str(csv_file),
                             "--color-col", color_col)
    assert code == 2
    assert out == ""
    assert "--color-col must be >= 1" in err


@pytest.mark.parametrize("weights", [(4, -4, 4), (0, 0, 0)], ids=["negative", "all-zero"])
def test_plot_non_positive_weight_is_usage_error(tmp_path, capsys, weights):
    csv_file = tmp_path / "toy.csv"
    csv_file.write_text(TOY_CSV.format(*weights))
    code, out, err = run_cli(capsys, "plot", "--input", str(csv_file))
    assert code == 2
    assert out == ""
    assert err == "error: weights must be positive\n"


@pytest.mark.parametrize("row", ["0,a,inf,0.0,0.0,1.0", "0,a,4,nan,0.0,1.0",
                                 "0,a,4,0.0,-inf,1.0"],
                         ids=["inf-weight", "nan-coordinate", "minus-inf-coordinate"])
def test_plot_non_finite_value_is_usage_error(tmp_path, capsys, row):
    csv_file = tmp_path / "toy.csv"
    csv_file.write_text(TOY_CSV.format(4, 4, 4) + row + "\n")
    code, out, err = run_cli(capsys, "plot", "--input", str(csv_file))
    assert code == 2
    assert out == ""
    assert err == f"error: malformed embedding row: {row!r}\n"


def test_plot_byte_deterministic(tmp_path, capsys):
    ranking_file = tmp_path / "r.txt"
    embed_file = tmp_path / "e.csv"
    run_cli(capsys, "synthesize", "--items", "5", "--rows", "100",
            "--seed", "5", "--out", str(ranking_file))
    run_cli(capsys, "embed", "--input", str(ranking_file), "--dims", "3",
            "--mode", "dense", "--out", str(embed_file))
    outputs = []
    for target in ("a.svg", "b.svg"):
        path = tmp_path / target
        run_cli(capsys, "plot", "--input", str(embed_file), "--out", str(path))
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--group", "sn", "--n", "4"],
        ["verify", "--group", "c2k", "--k", "5"],
        ["verify", "--group", "cyclic", "--n", "12"],
    ],
)
def test_verify_passes(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "result: pass" in out


def test_verify_cap(capsys):
    code, _, err = run_cli(capsys, "verify", "--group", "sn", "--n", "7")
    assert code == 3
    assert "720" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--group", "sn", "--n", "8", "--cap", "40320"],
        ["spectrum", "--group", "c2k", "--k", "15", "--verify", "--cap", "40000"],
        # Priced by the arrays it holds at once: 48 bytes an entry.
        ["verify", "--group", "c2k", "--k", "13", "--cap", "10000"],
    ],
    ids=["verify-sn8", "spectrum-verify-c2k15", "verify-c2k13"],
)
def test_dense_request_over_the_byte_bound_is_refused(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert out == ""
    assert err.startswith("error: the distance matrix of ")
    assert err.endswith(f"bytes, above the table bound {groups.TABLE_MAX_BYTES} bytes\n")


def test_verify_dump_distances(tmp_path, capsys):
    target = tmp_path / "d.csv"
    code, _, _ = run_cli(capsys, "verify", "--group", "c2k", "--k", "2",
                         "--dump-distances", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "00,01,10,11"
    assert lines[1] == "0,1,1,2"


def test_verify_dump_distances_reuses_the_report_matrix(tmp_path, capsys, monkeypatch):
    built = []
    build = metrics.build_distance_matrix

    def counting_build(spec, metric):
        built.append(spec.text)
        return build(spec, metric)

    monkeypatch.setattr(metrics, "build_distance_matrix", counting_build)
    target = tmp_path / "d.csv"
    code, _, _ = run_cli(capsys, "verify", "--group", "sn", "--n", "5",
                         "--dump-distances", str(target))
    assert code == 0
    # One for the dense oracle, one inside the exhaustive invariance check.
    assert len(built) == 2
    spec = groups.symmetric(5)
    assert target.read_text() == build(spec, metrics.hamming_metric(spec)).to_csv()


def test_verify_cap_trips_before_dumping_distances(tmp_path, capsys):
    target = tmp_path / "d.csv"
    code, _, err = run_cli(capsys, "verify", "--group", "sn", "--n", "7",
                           "--dump-distances", str(target))
    assert code == 3
    assert "720" in err
    assert not target.exists()


def test_spectrum_output_deterministic(capsys):
    argv = ["spectrum", "--group", "sn", "--n", "5"]
    first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_synthesize_deterministic_bytes(tmp_path, capsys):
    outputs = []
    for target in ("one.txt", "two.txt"):
        path = tmp_path / target
        run_cli(capsys, "synthesize", "--items", "5", "--rows", "50",
                "--seed", "7", "--out", str(path))
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def readme_block(heading, fence):
    """The first code block under a README heading."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(heading, 1)[1].split(fence, 1)[1].split("```", 1)[0]


def readme_commands():
    """The lines of README's command-line block, each without "groupmds"."""
    block = readme_block("## Command line", "```sh\n")
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def test_readme_command_block_runs(tmp_path, monkeypatch, capsys):
    # In order: synthesize writes the r.txt that embed reads, and so on.
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["spectrum", "spectrum", "spectrum", "chartable",
                                              "verify", "synthesize", "embed", "plot"]
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
    assert (tmp_path / "scatter.svg").exists()


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    # The comment lines under the loop are its output, "(...)" eliding labels
    # and "<-" opening a note; the last print's output follows "agrees: ".
    block = readme_block("## Quick start", "```python\n")
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    expected = [line[2:].split("   <-")[0] for line in block.splitlines() if line.startswith("# ")]
    expected.append(block.split("agrees: ", 1)[1].split("\n", 1)[0])
    assert len(printed) == len(expected) == 5
    for line, want in zip(printed, expected):
        head, elided, tail = want.partition("...")
        assert line.startswith(head) and line.endswith(tail) if elided else line == want


def test_console_script_entry_point(tmp_path):
    # The `groupmds` script pyproject.toml declares, called as the generated
    # wrapper calls it; the child imports the package this test process imported.
    pyproject = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, function = re.search(r'^\[project\.scripts\]\ngroupmds = "([\w.]+):(\w+)"$',
                                 pyproject, re.MULTILINE).groups()
    wrapper = f"import sys\nfrom {module} import {function}\nsys.exit({function}())\n"
    env = _child_env()

    def script(*argv):
        return subprocess.run([sys.executable, "-c", wrapper, *argv], capture_output=True,
                              text=True, env=env)

    result = script("spectrum", "--group", "c2k", "--k", "3")
    assert result.returncode == 0
    assert json.loads(result.stdout)["group"] == "elementary-abelian-2(3)"
    missing = tmp_path / "no-such-file.txt"
    result = script("embed", "--input", str(missing))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith(f"error: cannot read {missing}: ")
    result = script("spectrum", "--group", "sn", "--n", "171")
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr.startswith("error: ")


_CLI = {"groupmds", "groupmds.cli", "groupmds.errors"}
_EXACT = {"groupmds.groups", "groupmds.characters", "groupmds.exact"}
_SPECTRUM = _EXACT | {"groupmds.metrics", "groupmds.spectral"}
_ORACLE = _SPECTRUM | {"groupmds.dense", "groupmds.verify"}
_EMBED = {"groupmds.groups", "groupmds.metrics", "groupmds.dense", "groupmds.rankings"}


@pytest.mark.parametrize("argv, status, modules, numpy_loaded", [
    pytest.param("--help", 0, _CLI, False, id="help"),
    pytest.param("spectrum --n 5", 2, _CLI, False, id="usage-error"),
    pytest.param("plot --input {embedding}", 0, _CLI | {"groupmds.groups", "groupmds.plotting"},
                 False, id="plot"),
    pytest.param("chartable --group sn --n 5", 0, _CLI | _EXACT, False, id="chartable"),
    pytest.param("chartable --group cyclic --n 5", 0, _CLI | _EXACT, True,
                 id="chartable-cyclic"),
    pytest.param("chartable --group c2k --k 3", 0, _CLI | _EXACT, True, id="chartable-c2k"),
    pytest.param("spectrum --group sn --n 8", 0, _CLI | _SPECTRUM, False, id="spectrum"),
    pytest.param("spectrum --group c2k --k 9", 0, _CLI | _SPECTRUM, False, id="spectrum-c2k"),
    pytest.param("spectrum --group cyclic --n 12", 0, _CLI | _SPECTRUM, True,
                 id="spectrum-cyclic"),
    pytest.param("embed --input {rankings}", 0, _CLI | _EMBED, True, id="embed"),
    pytest.param("spectrum --group c2k --k 9 --verify", 0, _CLI | _ORACLE, True,
                 id="spectrum-verify"),
    pytest.param("verify --group sn --n 6", 0, _CLI | _ORACLE, True, id="verify"),
])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, status, modules, numpy_loaded):
    # Each subcommand imports what it runs: --help and argparse errors load
    # no numpy, and no subcommand loads numpy.random, which costs several MiB
    # of resident memory (the checks draw from the standard library instead).
    # numpy loads on the first array operation: the S_n and (C_2)^k closed
    # forms, the S_n table and plot run none.
    rankings = tmp_path / "rankings.txt"
    rankings.write_text("a,b,c,d\n1,2,3,4\n2,1,4,3;3\n4,3,1,2\n", encoding="utf-8")
    embedding = tmp_path / "embedding.csv"
    embedding.write_text("label,weight,x1,x2,x3\na,1,0.5,-1,2\nb,2,-0.5,1,0\n", encoding="utf-8")
    code = (
        "import sys\n"
        "from groupmds import cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'groupmds')\n"
        "print(code, *loaded, 'numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    args = argv.format(rankings=rankings, embedding=embedding).split()
    if args[0] != "--help":
        args += ["--out", os.devnull]
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                            env=_child_env())
    exit_code, *loaded, has_numpy, has_random = result.stdout.splitlines()[-1].split()
    assert exit_code == str(status), result.stderr
    assert set(loaded) == modules
    assert (has_numpy, has_random) == (str(numpy_loaded), "False")


def test_numpy_loads_on_the_first_array_operation():
    # The S_n and (C_2)^k closed forms, the S_n table and the SVG run on
    # Python numbers. The first array operation loads numpy and binds it as np
    # in every module that took the stand-in, so no attribute read goes
    # through the stand-in after that.
    code = (
        "import sys\n"
        "from groupmds import characters, exact, groups, metrics, plotting, spectral\n"
        "spectral.closed_form_sn(30)\n"
        "spectral.closed_form_c2k(40)\n"
        "characters.character_table(groups.symmetric(12))\n"
        "plotting.scatter_svg([(0.0, 1.0, 2.0, 0.5), (1.0, 0.0, 1.0, -0.5)])\n"
        "print('numpy' in sys.modules)\n"
        "groups.array_forms(groups.symmetric(3), [(1, 2, 3)])\n"
        "import numpy\n"
        "print(*(m.np is numpy for m in (groups, metrics, characters, exact, spectral)))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=_child_env())
    assert result.stdout.splitlines() == ["False", "True True True True True"], result.stderr


# Every name the package exported when it imported all its modules at once.
_PUBLIC = {
    "dense": ["EmbeddingResult", "MdsKernel", "SpectralDecomposition", "classical_embedding",
              "double_center", "eigendecompose", "embedding_to_csv",
              "full_rank_pseudo_embedding", "strain"],
    "errors": ["GroupMdsError", "InvalidElementError", "NotBiInvariantError", "RankingParseError",
               "TooLargeError", "UnsupportedClosedFormError"],
    "groups": ["GroupSpec", "Partition", "conjugacy_classes", "cycle_type", "cyclic",
               "elementary_abelian_2", "enumerate_elements", "multiply", "partitions_of",
               "symmetric"],
    "metrics": ["DistanceMatrix", "Metric", "build_distance_matrix", "check_invariance",
                "circular_arc_metric", "hamming_metric"],
    "characters": ["CharacterTable", "ClassFunction", "DecompositionResult", "character_table",
                   "decompose_class_function", "dimension", "inner_product",
                   "tensor_square_decomposition"],
    "spectral": ["IsotypicProjector", "SpectralEntry", "SpectralSummary", "closed_form_c2k",
                 "closed_form_sn", "convolution_matrix", "isotypic_projector", "mu_from_metric",
                 "spectrum_via_characters", "standard_rep_coordinates"],
    "rankings": ["PermutationSample", "RankingDataset", "aggregate", "embed_dataset",
                 "parse_rankings", "ranking_to_permutation", "synthesize_rankings"],
    "verify": ["oracle_equivalence_report"],
}


def test_the_lazy_namespace_exports_every_public_name():
    import importlib

    import groupmds

    names = [name for names in _PUBLIC.values() for name in names]
    assert len(names) == 57
    for module, module_names in _PUBLIC.items():
        home = importlib.import_module(f"groupmds.{module}")
        for name in module_names:
            namespace = {}
            exec(f"from groupmds import {name}", namespace)
            assert namespace[name] is getattr(home, name), name
    assert groupmds.__version__ == "0.1.0"
    assert set(names) | {"__version__"} <= set(dir(groupmds))
    with pytest.raises(AttributeError, match="no attribute 'character_value'"):
        groupmds.character_value
    code = "import sys, groupmds\nprint('numpy' in sys.modules)\n"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=_child_env())
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


@pytest.mark.parametrize("preset, expected", [(None, "20"), ("28", "28")])
def test_import_sets_the_openblas_thread_timeout_only_as_a_default(preset, expected):
    # Importing any submodule first runs the package's __init__, so numpy
    # never loads before the default is set.
    env = _child_env(**({} if preset is None else {"OPENBLAS_THREAD_TIMEOUT": preset}))
    for first in ("groupmds", "groupmds.dense"):
        code = f"import os, {first}\nprint(os.environ['OPENBLAS_THREAD_TIMEOUT'])\n"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env)
        assert (result.returncode, result.stdout) == (0, expected + "\n"), (first, result.stderr)


def test_output_bytes_do_not_depend_on_the_openblas_thread_timeout(tmp_path, capsys):
    # 28 is OpenBLAS's own default: the worker thread's idle spin changes no result.
    rankings_file = tmp_path / "five.txt"
    code, _, _ = run_cli(capsys, "synthesize", "--items", "5", "--rows", "60", "--seed", "3",
                         "--out", str(rankings_file))
    assert code == 0
    requests = [
        "spectrum --group c2k --k 8 --verify --cap 256",
        "verify --group sn --n 5",
        f"embed --mode dense --input {rankings_file}",
    ]
    for argv in requests:
        outputs = [subprocess.run([sys.executable, "-m", "groupmds.cli", *argv.split()],
                                  capture_output=True, env=_child_env(**timeout))
                   for timeout in ({}, {"OPENBLAS_THREAD_TIMEOUT": "28"})]
        assert [(r.returncode, r.stderr) for r in outputs] == [(0, b"")] * 2, argv
        assert outputs[0].stdout == outputs[1].stdout, argv
