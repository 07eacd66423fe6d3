"""poollab: corpus filtering, junk injection, and compute-scaling analysis.

The package is organized around the lifecycle of a data-curation
experiment: build pools (:mod:`poollab.corpus`), filter them
(:mod:`poollab.filters`) or pollute them (:mod:`poollab.injection`),
ingest training-run logs (:mod:`poollab.runlog`), and analyze where
unfiltered data starts to win (:mod:`poollab.scaling`).  Two supporting
modules check the closed-form results numerically
(:mod:`poollab.theory`) and classify corpus factuality with an external
judge (:mod:`poollab.factuality`).
"""

__version__ = "0.1.0"

from .corpus import (
    Document,
    DocumentSource,
    Pool,
    make_document,
    read_documents,
    read_pool,
    sample_pool,
    write_documents,
    write_pool,
)
from .errors import (
    ConfigError,
    FitError,
    JudgeError,
    PoolLabError,
    StreamExhaustedError,
    ValidationError,
)
from .filters import (
    DocumentScorer,
    FilterConfig,
    FilterOutcome,
    FilterStats,
    PipelineResult,
    PipelineStage,
    builtin_english_scorer,
    build_stages,
    english_filter,
    exact_dedup,
    profile,
    quality_filter,
    repetition_filter,
    repetition_fractions,
    run_pipeline,
    stopword_filter,
)
from .injection import (
    InjectionSpec,
    JunkKind,
    JunkVocab,
    build_vocab,
    gen_random_document,
    inject,
    random_junk_stream,
    shuffle_document,
    shuffled_junk_stream,
)
from .runlog import (
    EvalPoint,
    EvalSlice,
    ModelConfig,
    RunRecord,
    best_achievable,
    best_eval,
    bundled_model_configs,
    compute_flops,
    epochs,
    load_run_log,
    non_embedding_params,
    parse_run_log,
    slice_loss,
    write_run_log,
)
from .scaling import (
    CrossingPoint,
    FrontierPoint,
    PowerLawFit,
    QuadFit,
    ThresholdLaw,
    crossing_point,
    extrapolate_compute,
    fit_crossing_quadratic,
    fit_power_law,
    fit_threshold_epoch_constraint,
    fit_threshold_tokens_per_param,
    pareto_frontier,
)
from .theory import (
    FilterFn,
    SimilarityDataset,
    TaskSpec,
    analytic_min_loss,
    empirical_min_loss,
    kl_improvement_bruteforce,
    kl_improvement_closed_form,
    predict_conditional,
    random_orthogonal_spec,
)
from .factuality import (
    JudgeClient,
    Judgement,
    QAItem,
    Verdict,
    aggregate_judgements,
    judge_documents,
    keyword_match,
    mock_judge_client,
)
