"""Command-line interface.

Subcommands: spectrum, chartable, embed, plot, verify, synthesize.
Exit codes: 0 success, 2 usage or parse error, 3 resource guard tripped.
Every subcommand is deterministic given its flags, input files, and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from functools import partial
from operator import itemgetter

import numpy as np

from . import characters, dense, groups, metrics, rankings, spectral, verify
from .errors import (
    InvalidElementError,
    RankingParseError,
    TooLargeError,
    UnsupportedClosedFormError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3

DEFAULT_SEED = 7
DEFAULT_VERIFY_CAP = 720


def _emit(text: str, out_path):
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _group_from_args(parser, args) -> groups.GroupSpec:
    flag = "k" if args.group == "c2k" else "n"
    size = getattr(args, flag)
    if size is None:
        parser.error(f"--group {args.group} requires --{flag}")
    build = {"sn": groups.symmetric, "c2k": groups.elementary_abelian_2, "cyclic": groups.cyclic}
    try:
        return build[args.group](size)
    except ValueError as exc:
        parser.error(f"--{flag} {size}: {exc}")


def _metric_from_args(parser, spec, args):
    if args.metric is None:
        return metrics.default_metric(spec)
    build = metrics.hamming_metric if args.metric == "hamming" else metrics.circular_arc_metric
    try:
        return build(spec)
    except InvalidElementError:
        parser.error(f"metric {args.metric!r} is not defined on {spec.text}")


def _check_cap(spec, cap: int) -> None:
    """``--cap``, the user's bound on the order of the group the dense oracle
    builds; n! passes it within cap.bit_length() + 1 factors, so no more are
    multiplied."""
    order = (math.factorial(min(spec.size, cap.bit_length() + 1))
             if spec.kind == groups.SYMMETRIC else spec.order)
    if order > cap:
        raise TooLargeError(f"{spec.text} has order {spec.order_text}, above the verification cap "
                            f"{cap}", cap=cap)


def _add_group_flags(sub, metric: bool = True):
    sub.add_argument("--group", required=True, choices=["sn", "c2k", "cyclic"])
    sub.add_argument("--n", type=int, help="n for sn/cyclic groups")
    sub.add_argument("--k", type=int, help="k for c2k groups")
    if metric:
        sub.add_argument("--metric", default=None, choices=["hamming", "arc"],
                         help="defaults to hamming on sn/c2k and arc on cyclic")


def cmd_spectrum(parser, args) -> int:
    spec = _group_from_args(parser, args)
    metric = _metric_from_args(parser, spec, args)
    try:
        if args.closed_form:
            if spec.kind == groups.SYMMETRIC:
                summary = spectral.closed_form_sn(spec.size)
            elif spec.kind == groups.ELEMENTARY_ABELIAN_2:
                summary = spectral.closed_form_c2k(spec.size)
            else:
                parser.error("--closed-form covers only sn and c2k groups")
        else:
            summary = spectral.spectrum_via_characters(spec, metric)
        doc = summary.to_json_dict()
        if args.verify:
            _check_cap(spec, args.cap)
            kernel = verify.dense_oracle(spec, metric)[1]  # distances not kept
            deviation, ok = verify.spectrum_match_deviation(
                summary, dense.kernel_eigenvalues(kernel)
            )
            doc["dense_max_deviation"] = deviation
            doc["dense_match"] = ok
    except UnsupportedClosedFormError as exc:
        parser.error(str(exc))
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_chartable(parser, args) -> int:
    spec = _group_from_args(parser, args)
    n_classes = groups.conjugacy_class_count(spec)
    if n_classes > args.max_classes:
        raise TooLargeError(
            f"{spec.text} has {groups.count_text(n_classes)} conjugacy classes, above the guard "
            f"{args.max_classes}",
            cap=args.max_classes,
        )
    table = characters.character_table(spec)
    text = table.to_csv() if args.format == "csv" else table.to_text()
    _emit(text, args.out)
    return EXIT_OK


def cmd_embed(parser, args) -> int:
    if args.dims < 1:
        parser.error("--dims must be >= 1")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            dataset = rankings.parse_rankings(fh.read())
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RankingParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    samples = rankings.aggregate(dataset)
    try:
        emb = rankings.embed_dataset(samples, dataset.n_items, args.dims, mode=args.mode)
    except ValueError as exc:
        parser.error(str(exc))
    _emit(dense.embedding_to_csv(emb), args.out)
    return EXIT_OK


def _floats(texts: list) -> np.ndarray:
    """Each text by ``float()``'s rules; nan (not finite) where it refuses."""
    try:
        return np.fromiter(map(float, texts), dtype=float, count=len(texts))
    except ValueError:
        return np.array([_float_or_nan(text) for text in texts])


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _read_embedding_csv(path):
    """(coordinates, weights): the x columns as a (rows × c) array and the
    weight column (1.0 without one), each read as a whole column. A
    ValueError names the first row that misses a needed field or holds one
    that is not a finite number."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty embedding file")
    header, rows = rows[0], list(filter(None, rows[1:]))
    coord_cols = [i for i, name in enumerate(header) if name.startswith("x")]
    weight_col = header.index("weight") if "weight" in header else None
    needed = coord_cols + ([] if weight_col is None else [weight_col])
    short = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) <= max(needed, default=-1)
    whole = rows[:int(np.argmax(short))] if short.any() else rows
    table = np.ones((len(whole), len(coord_cols) + 1))  # the last column holds the weights
    for j, col in enumerate(needed):
        table[:, j] = _floats(list(map(itemgetter(col), whole)))
    bad = ~np.isfinite(table).all(axis=1)
    first = int(np.argmax(bad)) if bad.any() else len(whole)
    if first < len(rows):
        raise ValueError(f"malformed embedding row: {','.join(rows[first])!r}")
    return table[:, :-1], table[:, -1]


def cmd_plot(parser, args) -> int:
    from . import plotting

    if args.color_col < 1:
        parser.error("--color-col must be >= 1")
    try:
        coords, weights = _read_embedding_csv(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows, columns = coords.shape
    if not rows or columns < 2:
        print("error: need at least 2 coordinate columns", file=sys.stderr)
        return EXIT_USAGE
    color_index = args.color_col - 1
    colors = coords[:, color_index].tolist() if color_index < columns else [None] * rows
    try:
        svg = plotting.scatter_svg(list(zip(coords[:, 0].tolist(), coords[:, 1].tolist(),
                                            weights.tolist(), colors)))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(svg, args.out)
    return EXIT_OK


def cmd_verify(parser, args) -> int:
    spec = _group_from_args(parser, args)
    metric = _metric_from_args(parser, spec, args)
    _check_cap(spec, args.cap)
    report = verify.oracle_equivalence_report(spec, metric)
    if args.dump_distances:
        with open(args.dump_distances, "w", encoding="utf-8") as fh:
            fh.write(report.distances.to_csv())
    _emit("\n".join(report.lines()) + "\n", args.out)
    return EXIT_OK if report.passed else 1


def cmd_synthesize(parser, args) -> int:
    if args.items < 2 or args.rows < 1:
        parser.error("--items must be >= 2 and --rows >= 1")
    dataset = rankings.synthesize_rankings(args.items, args.rows, args.seed)
    print(f"seed: {args.seed}", file=sys.stderr)
    _emit(rankings.dataset_to_text(dataset), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupmds",
        description=(
            "Multidimensional scaling on finite groups: character-predicted "
            "spectra, character tables, ranking embeddings, and scatter plots."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="predicted MDS spectrum as JSON")
    _add_group_flags(p_spec)
    p_spec.add_argument("--closed-form", action="store_true", dest="closed_form")
    p_spec.add_argument("--verify", action="store_true", help="append dense-oracle deviation")
    p_spec.add_argument("--cap", type=int, default=DEFAULT_VERIFY_CAP)
    p_spec.add_argument("--out", default=None)
    p_spec.set_defaults(handler=partial(cmd_spectrum, p_spec))

    p_chart = sub.add_parser("chartable", help="exact character table")
    _add_group_flags(p_chart, metric=False)
    p_chart.add_argument("--format", default="text", choices=["text", "csv"])
    p_chart.add_argument("--max-classes", type=int, default=200)
    p_chart.add_argument("--out", default=None)
    p_chart.set_defaults(handler=partial(cmd_chartable, p_chart))

    p_embed = sub.add_parser("embed", help="embed a ranking file to CSV coordinates")
    p_embed.add_argument("--input", required=True)
    p_embed.add_argument("--dims", type=int, default=3)
    p_embed.add_argument("--mode", default="standard", choices=["dense", "standard"],
                         help="standard (default): the [n-1,1] block; dense: the n!-point oracle")
    p_embed.add_argument("--out", default=None)
    p_embed.set_defaults(handler=partial(cmd_embed, p_embed))

    p_plot = sub.add_parser(
        "plot",
        help="scatter SVG of an embedding CSV",
        description=(
            "Draws coordinates 1-2, point area proportional to weight, fill "
            "color from a linear blue-to-red ramp over the --color-col "
            "coordinate (midpoint color when that column is absent). Axes are "
            "unit-normalized to the data bounding box, larger y upward."
        ),
    )
    p_plot.add_argument("--input", required=True)
    p_plot.add_argument("--color-col", type=int, default=3, dest="color_col")
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(handler=partial(cmd_plot, p_plot))

    p_verify = sub.add_parser("verify", help="run the dense-oracle equivalence suite")
    _add_group_flags(p_verify)
    p_verify.add_argument("--cap", type=int, default=DEFAULT_VERIFY_CAP)
    p_verify.add_argument(
        "--dump-distances",
        default=None,
        dest="dump_distances",
        help="also write the distance matrix as CSV to this path (debugging)",
    )
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(handler=partial(cmd_verify, p_verify))

    p_synth = sub.add_parser("synthesize", help="write a deterministic synthetic ranking file")
    p_synth.add_argument("--items", type=int, required=True)
    p_synth.add_argument("--rows", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_synth.add_argument("--out", default=None)
    p_synth.set_defaults(handler=partial(cmd_synthesize, p_synth))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
