"""Multidimensional scaling on finite groups.

The dense module runs classical MDS on any finite metric space; the
spectral module predicts the full eigendecomposition of any bi-invariant
metric on the supported groups straight from character theory, without
forming the distance matrix. The two agree, and the verify module checks
that they do.
"""

from .dense import (
    EmbeddingResult,
    MdsKernel,
    SpectralDecomposition,
    classical_embedding,
    double_center,
    eigendecompose,
    embedding_to_csv,
    full_rank_pseudo_embedding,
    strain,
)
from .errors import (
    GroupMdsError,
    InvalidElementError,
    NotBiInvariantError,
    RankingParseError,
    TooLargeError,
    UnsupportedClosedFormError,
)
from .groups import (
    GroupSpec,
    Partition,
    conjugacy_classes,
    cycle_type,
    cyclic,
    elementary_abelian_2,
    enumerate_elements,
    multiply,
    partitions_of,
    symmetric,
)
from .metrics import (
    DistanceMatrix,
    Metric,
    build_distance_matrix,
    check_invariance,
    circular_arc_metric,
    hamming_metric,
)
from .characters import (
    CharacterTable,
    ClassFunction,
    DecompositionResult,
    character_table,
    character_value,
    decompose_class_function,
    dimension,
    inner_product,
    tensor_square_decomposition,
)
from .spectral import (
    IsotypicProjector,
    SpectralEntry,
    SpectralSummary,
    closed_form_c2k,
    closed_form_sn,
    convolution_matrix,
    isotypic_projector,
    mu_from_metric,
    spectrum_via_characters,
    standard_rep_coordinates,
)
from .rankings import (
    PermutationSample,
    RankingDataset,
    aggregate,
    embed_dataset,
    parse_rankings,
    ranking_to_permutation,
    synthesize_rankings,
)
from .verify import oracle_equivalence_report

__version__ = "0.1.0"
