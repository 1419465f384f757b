"""Entropy inequalities for linear mixtures of independent sources.

The package analyzes which source components a mixing matrix can recover,
bounds the entropy of a mixture below by its Gaussian-surrogate entropy,
verifies that bound numerically, and uses the matching contrast function to
blindly extract sources from observed mixtures.

Modules
-------
matrix_analysis     recoverability, canonical form, log-det concavity
complex_embedding   the field rule, complex-to-real embedding, 2x2 block polar form
distributions       source models, sampling, entropy, transport maps
entropy             spacing and nearest-neighbor entropy estimators
epi_lab             Monte Carlo verification harness for the bound
bse                 blind source extraction by contrast minimization
formats             deterministic JSON and CSV serialization
cli                 the ``mixent`` command line tool

Every scipy submodule is imported inside the function that calls it, not at
module level: importing the package loads no scipy, so a ``mixent`` verb run
as a process pays only for the scipy it uses.
"""

from .bse import (
    ContrastDecomposition,
    ExtractionResult,
    Observation,
    SeparationQuality,
    contrast,
    minimize_contrast,
    oracle_decompose,
    sample_covariance,
    separation_quality,
    whiten,
)
from .complex_embedding import (
    BlockPolar,
    block_polar,
    embed_samples,
    hat_embed,
    unhat,
)
from .distributions import (
    DiagonalScaling,
    RadialTransportMap2D,
    SourceModel,
    TransportMap1D,
    circular_gaussian,
    exact_entropy,
    exponential,
    gaussian,
    gaussian_mixture,
    laplace,
    match_entropy,
    normalize_entropies,
    quantile_transport,
    radial_transport,
    sample,
    sample_sources,
    scale_model,
    transport_log_derivative_expectation,
    uniform,
    uniform_disk,
    unit_variance_uniform,
)
from .entropy import (
    EntropyEstimate,
    GaussianSurrogate,
    gaussian_mix_entropy,
    knn_entropy,
    spacing_entropy,
    surrogate_sigma,
)
from .epi_lab import (
    EpiExperimentConfig,
    EpiReport,
    EqualityCaseResult,
    EqualitySuiteReport,
    LemmaSweepReport,
    expectation_inequality_check,
    run_epi_trial,
    run_equality_suite,
    run_lemma2_sweep,
)
from .errors import (
    AlreadySquare,
    BadBlockStructure,
    DegenerateData,
    DuplicatePoints,
    MixentError,
    NonPositiveLambda,
    NotCircular,
    NotOrthonormal,
    NotSpd,
    RankDeficient,
    SingularCovariance,
    TooFewSamples,
    UnsupportedFamily,
    UsageError,
    ZeroColumn,
)
from .matrix_analysis import (
    CanonicalDecomposition,
    ComponentClassification,
    MixingMatrix,
    OrthonormalReduction,
    canonical_form,
    classify_components,
    gram_schmidt_rows,
    log_concavity_gap,
    log_concavity_gap_blocks,
    orthogonal_complement,
    rank_of,
    recoverability_tolerance,
)

__version__ = "0.1.0"
