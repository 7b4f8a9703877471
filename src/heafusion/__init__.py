"""Evidential substitutability fusion for high-entropy-alloy phase prediction.

The pipeline learns which element combinations substitute for one another
from labeled alloy datasets and structured expert answers, fuses the
evidence under Dempster-Shafer theory with per-source reliability
discounting, and predicts the phase class of candidate alloys by analogy.
"""

__version__ = "0.1.0"

from .alloys import (
    ELEMENT_SYMBOLS,
    UNIVERSES,
    Alloy,
    Dataset,
    LabeledAlloy,
    enumerate_combinations,
    parse_dataset,
    serialize_dataset,
)
from .analysis import (
    Dendrogram,
    element_distance_matrix,
    hac_complete,
    hybrid_distance_matrix,
    write_matrix_csv,
)
from .belief import (
    BinaryMass,
    combine,
    combine_all,
    conflict,
    discount,
    from_weights,
    pignistic,
    vacuous,
)
from .errors import HeafusionError
from .evaluation import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_FRACTIONS,
    MetricsReport,
    SourcesConfig,
    SplitSpec,
    accuracy,
    grid_search_alpha,
    kfold_splits,
    macro_f1,
    make_split,
    roc_auc,
    run_cv_experiment,
    run_extrapolation_experiment,
    summarize_reports,
)
from .fusion import SourceReliability, estimate_reliability, fuse, read_gammas, write_gammas
from .inference import Prediction, classify, predict, predict_batch
from .llm_evidence import (
    DEFAULT_DOMAINS,
    LlmConfig,
    LlmResponse,
    build_store,
    default_beta,
    generate_prompts,
    mass_from_response,
    parse_responses,
    write_prompts,
)
from .md_evidence import (
    CombinationPair,
    ExtractionConfig,
    SimilarityStore,
    extract_all,
    extract_counts,
    mass_from_counts,
    read_store,
    write_store,
)
