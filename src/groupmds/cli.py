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
import re
import sys
from contextlib import suppress
from functools import partial
from itertools import chain, islice
from operator import itemgetter

from .errors import RankingParseError, TooLargeError, UnsupportedClosedFormError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3

DEFAULT_SEED = 7
DEFAULT_VERIFY_CAP = 720
# plot's price of a character, a step (2 us) per 40 of them, sets the most
# characters it can admit, as rankings.MAX_TEXT is set for the ranking parser.
_PLOT_CHARS_PER_STEP = 40
_READ_PIECE = 2 ** 20  # characters read from a pipe at a time
_WIDE_HEADER = sys.getsizeof("\xe9") - 2  # a str's size less its characters (less if ASCII)


class _UsageError(Exception):
    """An input that cannot be read or is refused, or an output that cannot be written."""


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _read_text(path, limit: int, what: str, newline=None) -> str:
    """The UTF-8 text of ``path`` for a parser whose price of a character alone
    refuses more than ``limit``; ``what`` words a refusal from the size alone,
    past 4 bytes a character. A regular file within ``limit`` bytes is read
    whole, anything else in pieces to one character past the limit while the
    pieces and their join fit the byte bound."""
    from . import groups

    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            size = os.fstat(fh.fileno()).st_size
            if size > 4 * limit:
                chars = -(-size // 4)
                groups.admit(what.format(f"at least {chars}"),
                             work=chars * (groups.WORK_MAX + 1) // (limit + 1))
            if 0 < size <= limit:
                return fh.read()
            pieces, chars, held, width = [], 0, 0, 1
            while piece := fh.read(min(_READ_PIECE, limit + 1 - chars)):
                pieces.append(piece)
                chars += len(piece)
                held += sys.getsizeof(piece)
                width = max(width, (sys.getsizeof(piece) - _WIDE_HEADER) // (len(piece) + 1))
                groups.admit(what.format(f"at least {chars}"), nbytes=held + width * chars)
            return "".join(pieces)
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


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

        found = dense.kernel_eigenvalues(verify.dense_oracle(spec, metric))
        doc["dense_max_deviation"], doc["dense_match"] = verify.spectrum_match_deviation(
            summary, found, error_bound=found.error_bound)
        doc["dense_rank"] = found.rank
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
    dataset = rankings.parse_rankings(
        _read_text(args.input, rankings.MAX_TEXT, "parsing {} characters of rankings"))
    samples = rankings.aggregate(dataset)
    try:
        emb = rankings.embed_dataset(samples, dataset.n_items, args.dims, mode=args.mode)
    except ValueError as exc:
        parser.error(str(exc))
    _emit(dense.embedding_to_csv(emb), args.out)
    return EXIT_OK


def _is_whole(row: list, needed: list) -> bool:
    """Whether ``row`` holds each needed field, and each is a finite number."""
    try:
        return all(math.isfinite(float(row[col])) for col in needed)
    except (IndexError, ValueError):
        return False


def _parse_embedding_csv(text: str):
    """(columns, weights): each x column as a list of floats, and the weight
    column (1.0 without one). A ValueError names the first row that misses a
    needed field or holds one that is not a finite number."""
    from . import groups

    # Bytes: the text; per line its row, floats and circle; per comma a float
    # and its slots. Work: 50 ns a character, 4 us a line, 0.125 us a comma.
    what = f"plotting {len(text)} characters of embedding"
    ends = text.count("\n") + text.count("\r") - text.count("\r\n")
    commas = text.count(",")
    nbytes = sys.getsizeof(text) + 760 * ends + 40 * commas
    groups.admit(what, nbytes=nbytes,
                 work=len(text) // _PLOT_CHARS_PER_STEP + 2 * ends + commas // 16)
    # The widest line's row is split whole, 32 bytes a character; the first
    # price covers the line strs that find it.
    widest = max(map(len, text.split("\n")))
    groups.admit(what, nbytes=nbytes + 32 * widest)
    # Lines as a file opened with newline="" yields them, one at a time: a
    # StringIO would hold 4 bytes a character.
    rows = csv.reader(map(re.Match.group, re.finditer(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+", text)))
    header = next(rows, None)
    if header is None:
        raise ValueError("empty embedding file")
    coord_cols = [i for i, name in enumerate(header) if name.startswith("x")]
    needed = coord_cols + ([header.index("weight")] if "weight" in header else [])
    columns = [[] for _ in needed]
    rows = filter(None, rows)
    # Rows of at most 2**16 characters at a time, so that only the floats of
    # their needed fields outlive them.
    for chunk in iter(lambda: list(islice(rows, 1 + 2 ** 16 // (widest + 1))), []):
        try:
            parsed = [list(map(float, map(itemgetter(col), chunk))) for col in needed]
            whole = all(map(math.isfinite, chain.from_iterable(parsed)))
        except (IndexError, ValueError):
            whole = False
        if not whole:
            row = next(row for row in chunk if not _is_whole(row, needed))
            raise ValueError(f"malformed embedding row: {','.join(row)!r}")
        for column, values in zip(columns, parsed):
            column += values
    if "weight" not in header:
        columns.append([1.0] * len(columns[0] if columns else ()))
    return columns[:-1], columns[-1]


def cmd_plot(parser, args) -> int:
    from . import groups, plotting

    if args.color_col < 1:
        parser.error("--color-col must be >= 1")
    limit = _PLOT_CHARS_PER_STEP * (groups.WORK_MAX + 1) - 1
    try:
        columns, weights = _parse_embedding_csv(
            _read_text(args.input, limit, "plotting {} characters of embedding", newline=""))
        if not weights or len(columns) < 2:
            raise _UsageError("need at least 2 coordinate columns")
        color_index = args.color_col - 1
        colors = columns[color_index] if color_index < len(columns) else [None] * len(weights)
        svg = plotting.scatter_svg(list(zip(columns[0], columns[1], weights, colors)))
    except (ValueError, csv.Error) as exc:
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
