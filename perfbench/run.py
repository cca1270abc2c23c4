"""Benchmark for the groupmds CLI.

Closed loop, one client: every request is a fresh ``python -m
groupmds.cli ...`` child process, run one after another, with ``src`` on
PYTHONPATH. Per-request CPU time and peak RSS come from ``os.wait4``
rusage. Every output is checked against references the benchmark
computes itself (see checks.py).

One run:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

  1. writes the workload's seeded ranking files;
  2. repeats passes over the workload's request list until S seconds have
     gone (at least one pass), and reports medians over passes;
  3. times no-op CLI processes (``--help``): one discarded launch,
     SETUP_REPEATS before the first pass and SETUP_PER_PASS after each
     pass; setup_s is their median.
With --trace 1 each untraced pass is followed by a pass through
traced_cli.py, and the per-layer metrics come from the traced passes.

All workloads in one go, printing every metric by name and unit:
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

The last line of a single run is the JSON result
{"correct", "attempted", "failed", "metrics"}; the full record, with the
environment and every pass, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import traced_cli
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5  # no-op CLI launches before the first pass
SETUP_PER_PASS = 3  # and after every pass, so setup_s samples the whole run
RUN_LIMIT_S = 170.0  # a run must end within 180 s; requests are killed at this mark

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def per_layer_units() -> dict:
    """Per-layer metric name -> unit, in SPANS order."""
    units = {}
    for module, names in traced_cli.SPANS.items():
        for name in names:
            units[f"{module}.{name}.self_s"] = "s"
            units[f"{module}.{name}.calls"] = "count"
    units["metrics.build_distance_matrix.bytes"] = "B"
    units["dense.eigendecompose.max_side"] = "count"
    units["rankings.parse_rankings.rows"] = "count"
    units["rankings.aggregate.distinct_frac"] = "ratio"
    units["trace_overhead_frac"] = "ratio"
    units["trace_unaccounted_frac"] = "ratio"
    return units


# ------------------------------------------------------------- environment


def _blas_threads():
    """Threads OpenBLAS will use, read from the loaded library if possible."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "groupmds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    return {
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------- children


class Runner:
    """Launches CLI children for one benchmark run and checks their outputs."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, argv):
        """(wall_s, cpu_s, max_rss_mib, exit_code) of one child process."""
        errors = self.work / "stderr.txt"
        with open(errors, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode

    def stderr_tail(self) -> str:
        text = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return text.strip().splitlines()[-1] if text.strip() else ""

    def request(self, req: workloads.Request, traced: bool) -> dict:
        req.out.unlink(missing_ok=True)
        cli_args = [*req.argv, "--out", str(req.out)]
        stats_path = self.work / "spans.json"
        if traced:
            stats_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(stats_path), *cli_args]
        else:
            argv = [sys.executable, "-m", "groupmds.cli", *cli_args]
        wall, cpu, rss, code = self.spawn(argv)
        record = {"name": req.name, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss,
                  "exit": code, "error": None}
        try:
            text = req.out.read_text(encoding="utf-8")
        except OSError:
            text = None
        if text is None:
            record["error"] = f"no output (exit {code}): {self.stderr_tail()}"
        elif code != 0:
            record["error"] = f"exit {code}: {self.stderr_tail()}"
        else:
            try:
                record["error"] = req.check(text)
            except Exception as exc:  # a checker crash is a failed output, not a benchmark crash
                record["error"] = f"checker raised {type(exc).__name__}: {exc}"
        if traced:
            try:
                record["spans"] = json.loads(stats_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                record["spans"] = {}
        return record

    def run_pass(self, requests, traced: bool) -> dict:
        records = [self.request(r, traced) for r in requests]
        return {
            "traced": traced,
            "wall_s": sum(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "peak_rss_mb": max(r["rss_mb"] for r in records),
            "requests": records,
        }

    def setup_times(self, repeats: int):
        help_argv = [sys.executable, "-m", "groupmds.cli", "--help"]
        times = []
        for _ in range(repeats):
            wall, _, _, code = self.spawn(help_argv)
            if code != 0:
                raise RuntimeError(f"`groupmds.cli --help` exited {code}: {self.stderr_tail()}")
            times.append(wall)
        return times


# ------------------------------------------------------------------ metrics


def layer_metrics(traced_passes, untraced_passes, setup_s: float) -> dict:
    """Per-layer values from traced passes; medians over passes.

    Within a pass, self times, calls and row counts add up over requests;
    sizes in traced_cli.MAX_STATS take their largest value.
    """
    per_pass = []
    unaccounted = []
    for p in traced_passes:
        values = dict.fromkeys(per_layer_units(), 0.0)
        for r in p["requests"]:
            for span, stats in r["spans"].items():
                for key, v in stats.items():
                    name = f"{span}.{key}"
                    merge = max if key in traced_cli.MAX_STATS else float.__add__
                    values[name] = merge(float(values.get(name, 0.0)), float(v))
            self_total = sum(s["self_s"] for s in r["spans"].values())
            r["unaccounted_frac"] = (r["wall_s"] - setup_s - self_total) / r["wall_s"]
            unaccounted.append(r["unaccounted_frac"])
        weight = values.pop("rankings.aggregate.weight", 0.0)
        distinct = values.pop("rankings.aggregate.distinct", 0.0)
        values["rankings.aggregate.distinct_frac"] = distinct / weight if weight else 0.0
        per_pass.append(values)
    out = {name: statistics.median(v[name] for v in per_pass) for name in per_layer_units()}
    traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
    plain_wall = statistics.median(p["wall_s"] for p in untraced_passes)
    out["trace_overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    out["trace_unaccounted_frac"] = statistics.median(unaccounted)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "groupmds" / "cli.py").is_file():
        raise FileNotFoundError(f"no groupmds sources under {ROOT / 'src'}")
    started = time.monotonic()
    work = BENCH_DIR / "work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        requests, files = workloads.build(workload, seed, work)
        runner = Runner(work, started + RUN_LIMIT_S)
        runner.setup_times(1)  # discarded: fills the bytecode and page caches
        setup = runner.setup_times(SETUP_REPEATS)
        untraced, traced = [], []
        t0 = time.monotonic()
        while True:
            untraced.append(runner.run_pass(requests, traced=False))
            if trace:
                traced.append(runner.run_pass(requests, traced=True))
            setup += runner.setup_times(SETUP_PER_PASS)
            now = time.monotonic()
            pass_time = (now - t0) / len(untraced)
            if now - t0 >= seconds or now + pass_time > started + RUN_LIMIT_S - 5:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = statistics.median(setup)
    passes = untraced + traced
    records = [r for p in passes for r in p["requests"]]
    failed = sum(1 for r in records if r["error"] is not None)
    if trace:
        metrics = layer_metrics(traced, untraced, setup_s)
        units = per_layer_units()
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "setup_s": setup_s,
        }
        units = END_TO_END
    return {
        "workload": workload,
        "why": workloads.WORKLOADS[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "inputs": [f.stats() for f in files],
        "setup_samples_s": setup,
        "passes": len(untraced),
        "attempted": len(records),
        "failed": failed,
        "fail_frac": failed / len(records),
        "failures": sorted({f"{r['name']}: {r['error']}" for r in records if r["error"]}),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "pass_records": passes,
    }


def save(result: dict) -> Path:
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / (f"BENCH_{result['workload']}_seed{result['seed']}"
                      f"_trace{int(result['trace'])}.json")
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path


def summary_line(result: dict) -> str:
    # Layers a workload never calls read 0; the JSON line still lists them.
    parts = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()
             if m["value"]]
    return (f"{result['workload']} ({result['passes']} passes): "
            f"fail_frac={result['fail_frac']:.6g} ratio ({result['failed']}/{result['attempted']}); "
            + ", ".join(parts))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload and print every metric")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    names = list(workloads.WORKLOADS) if args.all else [args.workload]
    # --all --trace 1 runs each workload twice: end-to-end, then per-layer.
    traces = [False, True] if args.all and args.trace else [bool(args.trace)]
    try:
        results = [run_workload(w, args.seed, args.seconds, t) for w in names for t in traces]
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        path = save(result)
        print("environment: " + json.dumps(result["environment"], sort_keys=True))
        for stats in result["inputs"]:
            print("input: " + json.dumps(stats, sort_keys=True))
        for failure in result["failures"]:
            print("FAILED " + failure)
        print(summary_line(result))
        print(f"record: {path.relative_to(ROOT)}")
    if not args.all:
        r = results[0]
        print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": r["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
