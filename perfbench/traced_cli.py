"""Run one ``groupmds`` CLI command with timing wrappers around each
layer's public functions, then write per-span statistics as JSON.

Usage: python traced_cli.py STATS.json <groupmds cli arguments...>

The wrappers live here, not in ``groupmds``: each named function is
replaced, in every ``groupmds`` module namespace that binds it, by a
wrapper that records calls and self time (span time minus the time of
wrapped calls made inside it). Size hooks add counts such as matrix bytes
or rows parsed. The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import json
import sys
import time

SPANS = {
    "groups": ["conjugacy_classes", "multiplication_table"],
    "metrics": ["check_invariance", "build_distance_matrix"],
    "characters": ["character_value", "inner_product", "decompose_class_function", "character_table"],
    "exact": ["Cyclotomic.canonical"],
    "spectral": ["mu_from_metric", "spectrum_via_characters", "isotypic_projector",
                 "standard_rep_coordinates"],
    "dense": ["double_center", "eigendecompose", "embedding_to_csv"],
    "verify": ["oracle_equivalence_report"],
    "rankings": ["parse_rankings", "aggregate", "embed_dataset"],
    "plotting": ["scatter_svg"],
    "cli": ["main"],
}


def _bytes(stats, args, result):
    m = len(result.labels)
    stats["bytes"] = max(stats.get("bytes", 0), m * m * 8)


def _max_side(stats, args, result):
    stats["max_side"] = max(stats.get("max_side", 0), args[0].size)


def _rows(stats, args, result):
    stats["rows"] = stats.get("rows", 0) + len(result.records)


def _distinct(stats, args, result):
    stats["distinct"] = stats.get("distinct", 0) + len(result)
    stats["weight"] = stats.get("weight", 0) + args[0].total_count


# Size statistics that keep their largest value when requests are combined;
# the others (calls, self_s, rows, distinct, weight) are summed.
MAX_STATS = {"bytes", "max_side"}

SIZE_HOOKS = {
    "metrics.build_distance_matrix": _bytes,
    "dense.eigendecompose": _max_side,
    "rankings.parse_rankings": _rows,
    "rankings.aggregate": _distinct,
}


class Tracer:
    """Per-span call counts and self times for one process."""

    def __init__(self):
        self.stats = {}
        self._stack = []

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        stack = self._stack
        hook = SIZE_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats["calls"] += 1
                stats["self_s"] += elapsed - child[0]
            if hook is not None:
                hook(stats, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every function in SPANS wherever a groupmds module binds it."""
        import importlib

        modules = {m: importlib.import_module(f"groupmds.{m}") for m in SPANS}
        namespaces = [*modules.values(), sys.modules["groupmds"]]
        for module_name, names in SPANS.items():
            module = modules[module_name]
            for name in names:
                span = f"{module_name}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, attr, self.wrap(span, getattr(cls, attr)))
                    continue
                original = getattr(module, name)
                wrapper = self.wrap(span, original)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapper)


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from groupmds import cli

    code = 1
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
