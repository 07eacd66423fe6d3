"""poollab: corpus filtering, junk injection, and compute-scaling analysis.

The package is organized around the lifecycle of a data-curation
experiment: build pools (:mod:`poollab.corpus`), filter them
(:mod:`poollab.filters`) or pollute them (:mod:`poollab.injection`),
ingest training-run logs (:mod:`poollab.runlog`), and analyze where
unfiltered data starts to win (:mod:`poollab.scaling`).  Two supporting
modules check the closed-form results numerically
(:mod:`poollab.theory`) and classify corpus factuality with an external
judge (:mod:`poollab.factuality`).

Every name in ``__all__`` is imported from its submodule on first
access (PEP 562), so ``import poollab`` loads none of them.
"""

import sys

__version__ = "0.1.0"

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys((
        "Document", "DocumentSource", "Pool", "read_documents", "read_pool", "sample_pool",
        "write_documents", "write_pool",
    ), "corpus"),
    **dict.fromkeys((
        "FitError", "JudgeError", "PoolLabError", "StreamExhaustedError", "ValidationError",
    ), "errors"),
    **dict.fromkeys((
        "DocumentScorer", "FilterConfig", "FilterStats", "PipelineResult", "PipelineStage",
        "STATS_COLUMNS", "builtin_english_scorer", "build_stages", "english_filter",
        "exact_dedup", "profile", "quality_filter", "repetition_filter", "repetition_fractions",
        "run_pipeline", "stopword_filter",
    ), "filters"),
    **dict.fromkeys((
        "InjectionSpec", "JunkKind", "JunkVocab", "build_vocab", "gen_random_document",
        "inject", "random_junk_stream", "shuffle_document", "shuffled_junk_stream",
    ), "injection"),
    **dict.fromkeys((
        "EvalPoint", "EvalSlice", "ModelConfig", "RunRecord", "best_achievable", "best_eval",
        "bundled_model_configs", "compute_flops", "epochs", "load_run_log",
        "non_embedding_params", "parse_run_log", "read_model_configs", "slice_loss",
        "write_run_log",
    ), "runlog"),
    **dict.fromkeys((
        "CrossingPoint", "FrontierPoint", "PendingCrossing", "PowerLawFit", "QuadFit",
        "ThresholdLaw", "ThresholdPoint", "crossing_point", "extrapolate_compute", "fit_crossing",
        "fit_crossing_quadratic", "fit_power_law", "fit_threshold_epoch_constraint",
        "fit_threshold_tokens_per_param", "pareto_frontier", "reduce_crossings",
    ), "scaling"),
    **dict.fromkeys((
        "FilterFn", "SimilarityDataset", "TaskSpec", "analytic_min_loss", "empirical_min_loss",
        "kl_improvement_bruteforce", "kl_improvement_closed_form", "predict_conditional",
        "random_orthogonal_spec", "run_filter_fact_trial", "run_rank_necessity_trial",
    ), "theory"),
    **dict.fromkeys((
        "JudgeClient", "JudgeRun", "Judgement", "QAItem", "VERDICT_COLUMNS", "Verdict",
        "aggregate_judgements", "judge_documents", "keyword_match", "mock_judge_client",
        "read_qa_items", "write_judgements",
    ), "factuality"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    qualified = f"{__name__}.{module}"
    __import__(qualified)  # not importlib.import_module: -X importtime reports this path
    value = getattr(sys.modules[qualified], name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
