"""Multidimensional scaling on finite groups.

The dense module runs classical MDS on any finite metric space; the
spectral module predicts the full eigendecomposition of any bi-invariant
metric on the supported groups straight from character theory, without
forming the distance matrix. The two agree, and the verify module checks
that they do. A public name's module is imported when the name is first
used, so ``import groupmds`` loads no numpy.
"""

import os

# OpenBLAS reads this once, when numpy loads it, so it is set before any
# submodule can import numpy. OpenBLAS's own value, 28, keeps an idle worker
# thread spinning for 2^28 cycles (about 0.1 s) after every BLAS call: on two
# vCPUs the benchmark's oracle requests spent 3.8 s of CPU for 2.3 s of wall
# time. 2^20 cycles (about 0.4 ms) cut that CPU by 32% at the same wall time,
# kept the two-thread speed of the full-rank 2000 x 2000 eigvalsh of
# `spectrum --group cyclic --n 2000 --verify`, and measured no different from
# 16 there. A value the user sets still wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

import sys
from importlib import import_module


class _LazyNumpy:
    """numpy, imported on the first attribute read. That read binds numpy
    itself as ``np`` in each submodule that took this stand-in, so from then
    on ``np`` is numpy and no attribute passes through here."""

    def __getattr__(self, name):
        import numpy

        globals()["_np"] = numpy
        for key, module in list(sys.modules.items()):
            if key.startswith(f"{__name__}.") and vars(module).get("np") is self:
                module.np = numpy
        return getattr(numpy, name)


_np = _LazyNumpy()

_HOMES = {
    "dense": ("EmbeddingResult", "MdsKernel", "SpectralDecomposition", "classical_embedding",
              "double_center", "eigendecompose", "embedding_to_csv",
              "full_rank_pseudo_embedding", "strain"),
    "errors": ("GroupMdsError", "InvalidElementError", "NotBiInvariantError",
               "RankingParseError", "TooLargeError", "UnsupportedClosedFormError"),
    "groups": ("GroupSpec", "Partition", "conjugacy_classes", "cycle_type", "cyclic",
               "elementary_abelian_2", "enumerate_elements", "multiply", "partitions_of",
               "symmetric"),
    "metrics": ("DistanceMatrix", "Metric", "build_distance_matrix", "check_invariance",
                "circular_arc_metric", "hamming_metric"),
    "characters": ("CharacterTable", "ClassFunction", "DecompositionResult", "character_table",
                   "decompose_class_function", "dimension", "inner_product",
                   "tensor_square_decomposition"),
    "spectral": ("IsotypicProjector", "SpectralEntry", "SpectralSummary", "closed_form_c2k",
                 "closed_form_sn", "convolution_matrix", "isotypic_projector",
                 "mu_from_metric", "spectrum_via_characters", "standard_rep_coordinates"),
    "rankings": ("PermutationSample", "RankingDataset", "aggregate", "embed_dataset",
                 "parse_rankings", "ranking_to_permutation", "synthesize_rankings"),
    "verify": ("oracle_equivalence_report",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, imported from its home module on first use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
