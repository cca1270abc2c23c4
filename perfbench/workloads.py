"""Workload definitions: the seeded ranking-file generator and the fixed
request list of each workload, with the checker that judges each output.

A request is one ``python -m groupmds.cli`` invocation. Ranking inputs are
written here from the seed before anything is timed; the program only
ever receives the files.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import checks

WORKLOADS = {
    "spectrum": "exact per-class path, no group enumeration: class lists, MN recursion, "
                "FWHT and cyclotomic arithmetic dominate",
    "oracle": "small groups enumerated: multiplication tables, exhaustive invariance, "
              "distance matrices, projectors and small eigh calls dominate",
    "rankings": "standard-mode embeddings of a shared-work (Mallows) and an all-distinct "
                "(uniform) ranking file, then an SVG: parsing and aggregation dominate",
    "dense-eigh": "dense MDS layers at scale: a 2048 x 2048 eigh from spectrum --verify on "
                  "(C_2)^11, plus a dense n=6 embedding; BLAS dominates",
}


@dataclass
class Request:
    """One CLI call; ``check(output_text)`` returns None or a reason."""

    name: str
    argv: List[str]
    out: Path
    check: Callable[[str], Optional[str]]


@dataclass
class RankingFile:
    path: Path
    n_items: int
    rows: int
    theta: float
    rankings: list = field(repr=False)

    @property
    def distinct(self) -> int:
        return len(set(self.rankings))

    def stats(self) -> dict:
        return {
            "file": self.path.name,
            "n_items": self.n_items,
            "rows": self.rows,
            "theta": self.theta,
            "distinct": self.distinct,
            "distinct_frac": self.distinct / self.rows,
        }


def mallows_rankings(n: int, rows: int, theta: float, rng: random.Random) -> list:
    """Repeated-insertion Mallows sample around the identity ranking.

    Item i (1-based) is inserted at 0-based position j of the i-1 items
    already placed with probability proportional to exp(-theta * (i-1-j)),
    so theta = 0 is the uniform distribution and larger theta concentrates
    rows near 1,2,...,n.
    """
    cumulative = []
    for i in range(1, n + 1):
        weights = [math.exp(-theta * (i - 1 - j)) for j in range(i)]
        acc, total = [], 0.0
        for w in weights:
            total += w
            acc.append(total)
        cumulative.append(acc)
    out = []
    for _ in range(rows):
        ranking: list = []
        for i in range(1, n + 1):
            acc = cumulative[i - 1]
            j = bisect.bisect_right(acc, rng.random() * acc[-1])
            ranking.insert(min(j, i - 1), i)
        out.append(tuple(ranking))
    return out


def write_ranking_file(path: Path, n: int, rows: int, theta: float, seed: int) -> RankingFile:
    rankings = mallows_rankings(n, rows, theta, random.Random(seed))
    lines = [",".join(f"item{i}" for i in range(1, n + 1))]
    lines.extend(",".join(map(str, r)) for r in rankings)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return RankingFile(path=path, n_items=n, rows=rows, theta=theta, rankings=rankings)


def _group(kind: str, size: int) -> List[str]:
    return ["--group", kind, "--k" if kind == "c2k" else "--n", str(size)]


def _spectrum(work: Path, kind: str, size: int, verify: bool = False) -> Request:
    name = f"spectrum-{kind}{size}" + ("-verify" if verify else "")
    argv = ["spectrum", *_group(kind, size)]
    if verify:
        argv += ["--verify", "--cap", str(checks.group_order(kind, size))]
    return Request(name, argv, work / f"{name}.json",
                   lambda text: checks.check_spectrum(text, kind, size, dense_match=verify))


def _chartable(work: Path, kind: str, size: int) -> Request:
    # S_16 has 231 classes, above the CLI's default guard of 200.
    name = f"chartable-{kind}{size}"
    argv = ["chartable", *_group(kind, size), "--format", "csv", "--max-classes", "400"]
    order = checks.group_order(kind, size)
    return Request(name, argv, work / f"{name}.csv",
                   lambda text: checks.check_chartable(text, order))


def _verify(work: Path, kind: str, size: int) -> Request:
    name = f"verify-{kind}{size}"
    return Request(name, ["verify", *_group(kind, size)], work / f"{name}.txt", checks.check_verify)


def _embed(work: Path, rf: RankingFile, mode: str, dims: int = 3) -> Request:
    name = f"embed-{mode}-{rf.path.stem}"
    expected = checks.expected_embedding_rows(rf.rankings)
    argv = ["embed", "--input", str(rf.path), "--mode", mode, "--dims", str(dims)]
    return Request(name, argv, work / f"{name}.csv",
                   lambda text: checks.check_embedding(text, expected, dims, mode == "standard"))


def _plot(work: Path, source: Request, n_points: int) -> Request:
    name = f"plot-{source.name}"
    return Request(name, ["plot", "--input", str(source.out)], work / f"{name}.svg",
                   lambda text: checks.check_svg(text, n_points))


def build(workload: str, seed: int, work: Path):
    """(requests, ranking files) for a workload; writes its input files."""
    files: List[RankingFile] = []
    if workload == "spectrum":
        requests = [
            _spectrum(work, "sn", 15),
            _spectrum(work, "c2k", 14),
            _spectrum(work, "cyclic", 90),
            _chartable(work, "sn", 16),
            _chartable(work, "cyclic", 40),
        ]
    elif workload == "oracle":
        files = [
            write_ranking_file(work / "rank-n5.txt", 5, 5738, 0.5, seed),
            write_ranking_file(work / "rank-n6.txt", 6, 5000, 0.5, seed + 1),
        ]
        requests = [
            _verify(work, "sn", 6),
            _verify(work, "sn", 5),
            _verify(work, "c2k", 8),
            _verify(work, "cyclic", 60),
            _spectrum(work, "sn", 6, verify=True),
            _embed(work, files[0], "dense"),
            _embed(work, files[1], "dense"),
        ]
    elif workload == "rankings":
        files = [
            write_ranking_file(work / "rank-n10-mallows.txt", 10, 50_000, 0.9, seed),
            write_ranking_file(work / "rank-n14-uniform.txt", 14, 25_000, 0.0, seed + 1),
        ]
        first = _embed(work, files[0], "standard")
        requests = [
            first,
            _embed(work, files[1], "standard"),
            _plot(work, first, files[0].distinct),
        ]
    elif workload == "dense-eigh":
        files = [write_ranking_file(work / "rank-n6-uniform.txt", 6, 20_000, 0.0, seed)]
        requests = [
            _spectrum(work, "c2k", 11, verify=True),
            _embed(work, files[0], "dense"),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return requests, files
