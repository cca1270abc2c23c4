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


def _emit(text: str, out_path):
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _group_from_args(parser, args) -> groups.GroupSpec:
    if args.group == "sn":
        if args.n is None:
            parser.error("--group sn requires --n")
        return groups.symmetric(args.n)
    if args.group == "c2k":
        if args.k is None:
            parser.error("--group c2k requires --k")
        return groups.elementary_abelian_2(args.k)
    if args.n is None:
        parser.error("--group cyclic requires --n")
    return groups.cyclic(args.n)


def _metric_from_args(parser, spec, args):
    if args.metric is None:
        return metrics.default_metric(spec)
    build = metrics.hamming_metric if args.metric == "hamming" else metrics.circular_arc_metric
    try:
        return build(spec)
    except InvalidElementError:
        parser.error(f"metric {args.metric!r} is not defined on {spec.text}")


def _add_group_flags(sub):
    sub.add_argument("--group", required=True, choices=["sn", "c2k", "cyclic"])
    sub.add_argument("--n", type=int, help="n for sn/cyclic groups")
    sub.add_argument("--k", type=int, help="k for c2k groups")
    sub.add_argument(
        "--metric",
        default=None,
        choices=["hamming", "arc"],
        help="defaults to hamming on sn/c2k and arc on cyclic",
    )


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
            _, _, dec = verify.dense_oracle(spec, metric, args.cap)
            deviation, ok = verify.spectrum_match_deviation(summary, dec)
            doc["dense_max_deviation"] = deviation
            doc["dense_match"] = ok
    except UnsupportedClosedFormError as exc:
        parser.error(str(exc))
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_chartable(parser, args) -> int:
    spec = _group_from_args(parser, args)
    n_classes = groups.conjugacy_class_count(spec)
    if n_classes > args.max_classes:
        print(
            f"error: {spec.text} has {n_classes} conjugacy classes, above the "
            f"guard {args.max_classes}",
            file=sys.stderr,
        )
        return EXIT_GUARD
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
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        parser.error(str(exc))
    _emit(dense.embedding_to_csv(emb), args.out)
    return EXIT_OK


def _read_embedding_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError("empty embedding file")
    header = rows[0]
    coord_cols = [i for i, name in enumerate(header) if name.startswith("x")]
    weight_col = header.index("weight") if "weight" in header else None
    points = []
    for row in rows[1:]:
        if not row:
            continue
        try:
            coords = [float(row[i]) for i in coord_cols]
            weight = float(row[weight_col]) if weight_col is not None else 1.0
            if not all(map(math.isfinite, [*coords, weight])):
                raise ValueError("non-finite value")
        except (ValueError, IndexError):
            raise ValueError(f"malformed embedding row: {','.join(row)!r}")
        points.append((coords, weight))
    return points


def cmd_plot(parser, args) -> int:
    from . import plotting

    if args.color_col < 1:
        parser.error("--color-col must be >= 1")
    try:
        points = _read_embedding_csv(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not points or len(points[0][0]) < 2:
        print("error: need at least 2 coordinate columns", file=sys.stderr)
        return EXIT_USAGE
    color_index = args.color_col - 1
    svg_points = []
    for coords, weight in points:
        color = coords[color_index] if color_index < len(coords) else None
        svg_points.append((coords[0], coords[1], weight, color))
    try:
        svg = plotting.scatter_svg(svg_points)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(svg, args.out)
    return EXIT_OK


def cmd_verify(parser, args) -> int:
    spec = _group_from_args(parser, args)
    metric = _metric_from_args(parser, spec, args)
    try:
        report = verify.oracle_equivalence_report(spec, metric, cap=args.cap)
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    if args.dump_distances:
        dm = metrics.build_distance_matrix(spec, metric)
        with open(args.dump_distances, "w", encoding="utf-8") as fh:
            fh.write(dm.to_csv())
    _emit("\n".join(report.lines()) + "\n", args.out)
    return EXIT_OK if report.passed else 1


def cmd_synthesize(parser, args) -> int:
    if args.items < 2 or args.rows < 1:
        parser.error("--items must be >= 2 and --rows >= 1")
    print(f"seed: {args.seed}", file=sys.stderr)
    dataset = rankings.synthesize_rankings(args.items, args.rows, args.seed)
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
    p_spec.add_argument("--cap", type=int, default=verify.DEFAULT_VERIFY_CAP)
    p_spec.add_argument("--out", default=None)
    p_spec.set_defaults(handler=cmd_spectrum)

    p_chart = sub.add_parser("chartable", help="exact character table")
    _add_group_flags(p_chart)
    p_chart.add_argument("--format", default="text", choices=["text", "csv"])
    p_chart.add_argument("--max-classes", type=int, default=200)
    p_chart.add_argument("--out", default=None)
    p_chart.set_defaults(handler=cmd_chartable)

    p_embed = sub.add_parser("embed", help="embed a ranking file to CSV coordinates")
    p_embed.add_argument("--input", required=True)
    p_embed.add_argument("--dims", type=int, default=3)
    p_embed.add_argument("--mode", default="dense", choices=["dense", "standard"])
    p_embed.add_argument("--out", default=None)
    p_embed.set_defaults(handler=cmd_embed)

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
    p_plot.set_defaults(handler=cmd_plot)

    p_verify = sub.add_parser("verify", help="run the dense-oracle equivalence suite")
    _add_group_flags(p_verify)
    p_verify.add_argument("--cap", type=int, default=verify.DEFAULT_VERIFY_CAP)
    p_verify.add_argument(
        "--dump-distances",
        default=None,
        dest="dump_distances",
        help="also write the distance matrix as CSV to this path (debugging)",
    )
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(handler=cmd_verify)

    p_synth = sub.add_parser("synthesize", help="write a deterministic synthetic ranking file")
    p_synth.add_argument("--items", type=int, required=True)
    p_synth.add_argument("--rows", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_synth.add_argument("--out", default=None)
    p_synth.set_defaults(handler=cmd_synthesize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(parser, args)


if __name__ == "__main__":
    sys.exit(main())
