"""Command-line interface.

Subcommands: spectrum, chartable, embed, plot, verify, synthesize.
Exit codes: 0 success, 1 a failed verify check, 2 usage or parse error (an
``--input`` that cannot be read or is not UTF-8, ``error: cannot read PATH:
...``, and an unwritable ``--out``, ``error: cannot write PATH: ...``,
included), 3 resource guard tripped.
Every subcommand is deterministic given its flags, input files, and seed,
and imports only the modules it runs: ``--help`` and usage errors load no
numpy.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from contextlib import suppress
from functools import partial
from itertools import takewhile
from operator import itemgetter

from .errors import RankingParseError, TooLargeError, UnsupportedClosedFormError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3

DEFAULT_SEED = 7
DEFAULT_VERIFY_CAP = 720


class _UsageError(Exception):
    """An input that cannot be read or is refused, or an output that cannot be written."""


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out_path):
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        _write(out_path, text)


def _group_from_args(parser, args) -> groups.GroupSpec:
    flag = "k" if args.group == "c2k" else "n"
    size = getattr(args, flag)
    if size is None:
        parser.error(f"--group {args.group} requires --{flag}")
    from . import groups

    build = {"sn": groups.symmetric, "c2k": groups.elementary_abelian_2, "cyclic": groups.cyclic}
    try:
        return build[args.group](size)
    except ValueError as exc:
        parser.error(f"--{flag} {size}: {exc}")


def _check_cap(spec, cap: int) -> None:
    """``--cap``, the user's bound on the order of the group the dense oracle
    builds; n! passes it within cap.bit_length() + 1 factors, so no more are
    multiplied."""
    from . import groups

    order = (math.factorial(min(spec.size, cap.bit_length() + 1))
             if spec.kind == groups.SYMMETRIC else spec.order)
    if order > cap:
        raise TooLargeError(f"{spec.text} has order {spec.order_text}, above the verification cap "
                            f"{cap}", cap=cap)


def _add_group_flags(sub):
    sub.add_argument("--group", required=True, choices=["sn", "c2k", "cyclic"])
    sub.add_argument("--n", type=int, help="n for sn/cyclic groups")
    sub.add_argument("--k", type=int, help="k for c2k groups")


def _exact_spectrum(spec, metric):
    """The metric kind's closed form where it covers the size (it refuses any
    other before any work), else the character path, whose guards decide."""
    from . import metrics, spectral

    closed_forms = {metrics.HAMMING_PERMUTATION: spectral.closed_form_sn,
                    metrics.HAMMING_BITVECTOR: spectral.closed_form_c2k}
    if metric.kind in closed_forms:
        with suppress(UnsupportedClosedFormError):
            return closed_forms[metric.kind](spec.size)
    return spectral.spectrum_via_characters(spec, metric)


def cmd_spectrum(parser, args) -> int:
    import json

    from . import metrics

    spec = _group_from_args(parser, args)
    metric = metrics.default_metric(spec)
    if args.verify:
        _check_cap(spec, args.cap)
    summary = _exact_spectrum(spec, metric)
    doc = summary.to_json_dict()
    if args.verify:
        from . import dense, verify

        kernel = verify.dense_oracle(spec, metric)[1]  # distances not kept
        doc["dense_max_deviation"], doc["dense_match"] = verify.spectrum_match_deviation(
            summary, dense.kernel_eigenvalues(kernel))
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_chartable(parser, args) -> int:
    from . import characters, groups

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
    from . import dense, rankings

    if args.dims < 1:
        parser.error("--dims must be >= 1")
    try:
        dataset = rankings.read_rankings(args.input)
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {args.input}: {exc}") from exc
    samples = rankings.aggregate(dataset)
    try:
        emb = rankings.embed_dataset(samples, dataset.n_items, args.dims, mode=args.mode)
    except ValueError as exc:
        parser.error(str(exc))
    _emit(dense.embedding_to_csv(emb), args.out)
    return EXIT_OK


def _floats(texts: list) -> list:
    """Each text by ``float()``'s rules; nan (not finite) where it refuses."""
    try:
        return list(map(float, texts))
    except ValueError:
        return list(map(_float_or_nan, texts))


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _read_embedding_csv(path):
    """(columns, weights): each x column as a list of floats, and the weight
    column (1.0 without one), each read as a whole column. A ValueError
    names the first row that misses a needed field or holds one that is not
    a finite number. A file refused by its size is not read."""
    from . import groups

    with open(path, "r", encoding="utf-8", newline="") as fh:
        # Each byte is priced as in the costliest file, two-column rows "1,1":
        # 145 bytes held and 1.44 us of plotting, 0.75 steps.
        size = os.fstat(fh.fileno()).st_size
        groups.admit(f"plotting {size} bytes of embedding", nbytes=150 * size,
                     work=size * 3 // 4)
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty embedding file")
    header, rows = rows[0], list(filter(None, rows[1:]))
    coord_cols = [i for i, name in enumerate(header) if name.startswith("x")]
    weight_col = header.index("weight") if "weight" in header else None
    needed = coord_cols + ([] if weight_col is None else [weight_col])
    width = max(needed, default=-1) + 1
    whole = list(takewhile(lambda row: len(row) >= width, rows))
    columns = [_floats(list(map(itemgetter(col), whole))) for col in needed]
    if weight_col is None:
        columns.append([1.0] * len(whole))
    finite = [list(map(math.isfinite, col)) for col in columns]
    first = min((flags.index(False) for flags in finite if False in flags), default=len(whole))
    if first < len(rows):
        raise ValueError(f"malformed embedding row: {','.join(rows[first])!r}")
    return columns[:-1], columns[-1]


def cmd_plot(parser, args) -> int:
    from . import plotting

    if args.color_col < 1:
        parser.error("--color-col must be >= 1")
    try:
        columns, weights = _read_embedding_csv(args.input)
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {args.input}: {exc}") from exc
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if not weights or len(columns) < 2:
        raise _UsageError("need at least 2 coordinate columns")
    color_index = args.color_col - 1
    colors = columns[color_index] if color_index < len(columns) else [None] * len(weights)
    try:
        svg = plotting.scatter_svg(list(zip(columns[0], columns[1], weights, colors)))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _emit(svg, args.out)
    return EXIT_OK


def cmd_verify(parser, args) -> int:
    from . import metrics, verify

    spec = _group_from_args(parser, args)
    _check_cap(spec, args.cap)
    report = verify.oracle_equivalence_report(spec, metrics.default_metric(spec))
    if args.dump_distances:
        _write(args.dump_distances, report.distances.to_csv())
    _emit("\n".join(report.lines()) + "\n", args.out)
    return EXIT_OK if report.passed else 1


def cmd_synthesize(parser, args) -> int:
    from . import rankings

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
    p_spec.add_argument("--verify", action="store_true", help="append dense-oracle deviation")
    p_spec.add_argument("--cap", type=int, default=DEFAULT_VERIFY_CAP)
    p_spec.add_argument("--out", default=None)
    p_spec.set_defaults(handler=partial(cmd_spectrum, p_spec))

    p_chart = sub.add_parser("chartable", help="exact character table")
    _add_group_flags(p_chart)
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
    except (TooLargeError, _UsageError, RankingParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD if isinstance(exc, TooLargeError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
