import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from groupmds import cli, dense, groups, metrics


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def entries_by_value(doc):
    return {Fraction(e["eigenvalue"]): e for e in doc["entries"]}


def test_spectrum_s4(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--group", "sn", "--n", "4",
                           "--metric", "hamming")
    assert code == 0
    doc = json.loads(out)
    entries = entries_by_value(doc)
    assert entries[Fraction(20)]["multiplicity"] == 9
    assert entries[Fraction(-4)]["multiplicity"] == 9
    assert entries[Fraction(-6)]["multiplicity"] == 4


def test_spectrum_closed_form_k10(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--group", "c2k", "--k", "10",
                           "--metric", "hamming", "--closed-form")
    assert code == 0
    entries = entries_by_value(json.loads(out))
    assert entries[Fraction(2560)]["multiplicity"] == 10
    assert entries[Fraction(-256)]["multiplicity"] == 45


def test_spectrum_closed_form_elides_zero_labels_past_the_cap(capsys):
    # 2^16 irreducibles lie above the enumeration cap: the zero entry keeps
    # its multiplicity and lists no labels, as at k = 17.
    code, out, _ = run_cli(capsys, "spectrum", "--group", "c2k", "--k", "16",
                           "--closed-form")
    assert code == 0
    zero = entries_by_value(json.loads(out))[Fraction(0)]
    assert zero["multiplicity"] == 2 ** 16 - 1 - 16 - 120
    assert zero["labels"] == []


def test_spectrum_with_dense_verification(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--group", "sn", "--n", "5",
                           "--metric", "hamming", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["dense_match"] is True
    assert doc["dense_max_deviation"] < 1e-8


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
    ids=["hamming-on-cyclic", "sn-n0", "c2k-k-1", "cyclic-n0"],
)
def test_spectrum_invalid_combination_is_usage_error(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 2


def test_spectrum_verify_cap(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--group", "sn", "--n", "7",
                           "--metric", "hamming", "--verify")
    assert code == 3
    assert "720" in err


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


@pytest.mark.parametrize("argv, code", [
    ("--group sn --n 170", 0), ("--group sn --n 171", 2), ("--group c2k --k 1017", 2),
], ids=["sn-170", "sn-171", "c2k-1017"])
def test_closed_form_edge_of_the_float64_range(capsys, argv, code):
    code_, out, err = run_cli(capsys, "spectrum", "--closed-form", *argv.split())
    assert code_ == code
    if code:
        assert "is past the float64 range" in err
    else:
        assert all(math.isfinite(e["eigenvalue_float"]) for e in json.loads(out)["entries"])


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
    "spectrum-sn41": "spectrum --group sn --n 41",
    "spectrum-verify-c2k13": "spectrum --group c2k --k 13 --verify --cap 10000",
    "verify-c2k13": "verify --group c2k --k 13 --cap 10000",
    "verify-cyclic3000": "verify --group cyclic --n 3000 --cap 5000",
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


def test_plot_missing_coordinates_is_usage_error(tmp_path, capsys):
    csv_file = tmp_path / "thin.csv"
    csv_file.write_text("id,label,weight,x1:+\n0,a,1,0.5\n")
    code, _, _ = run_cli(capsys, "plot", "--input", str(csv_file))
    assert code == 2


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
        ["verify", "--group", "sn", "--n", "4", "--metric", "hamming"],
        ["verify", "--group", "c2k", "--k", "5", "--metric", "hamming"],
        ["verify", "--group", "cyclic", "--n", "12", "--metric", "arc"],
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
    ],
    ids=["verify-sn8", "spectrum-verify-c2k15"],
)
def test_dense_request_over_the_byte_bound_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: the distance matrix of ")


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
    argv = ["spectrum", "--group", "sn", "--n", "5", "--metric", "hamming"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_synthesize_deterministic_bytes(tmp_path, capsys):
    outputs = []
    for target in ("one.txt", "two.txt"):
        path = tmp_path / target
        run_cli(capsys, "synthesize", "--items", "5", "--rows", "50",
                "--seed", "7", "--out", str(path))
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


def readme_commands():
    """The lines of README's command-line block, each without "groupmds"."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
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


def test_console_script_entry_point():
    # The child imports the package this test process imported.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-m", "groupmds.cli", "spectrum", "--group", "c2k",
         "--k", "3", "--metric", "hamming"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["group"] == "elementary-abelian-2(3)"


def test_spectrum_and_verify_never_import_numpy_random():
    # numpy.random costs several MiB of resident memory; the checks draw
    # their random elements from the standard library instead.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys\n"
        "from groupmds import cli\n"
        "for argv in (['spectrum', '--group', 'sn', '--n', '8'],\n"
        "             ['spectrum', '--group', 'c2k', '--k', '9', '--verify'],\n"
        "             ['verify', '--group', 'sn', '--n', '6']):\n"
        "    assert cli.main(argv + ['--out', sys.argv[1]]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code, os.devnull], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=path))
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr
