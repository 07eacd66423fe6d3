"""Single command-line entry point orchestrating the experiment recipes.

Subcommands chain into pipelines without manual edits: ``sample`` makes
a pool, ``filter`` and ``inject`` transform it, ``ingest`` loads run
logs, and ``pareto`` / ``crossing`` / ``scaling-law`` / ``extrapolate``
analyze them.  :func:`dispatch` writes a ``<output>.manifest.json``
sidecar for every run given ``--output``; identical command + inputs +
seed give byte-identical outputs (manifests carry the only timestamp).

Exit codes: 0 success, 1 domain error (single "error: ..." line on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Sequence

from . import _EXPORTS, __version__
from .errors import ConfigError, FitError, PoolLabError, ValidationError
from .io import (
    csv_cell, field_names, read_json, read_rows, sha256_file, write_json, write_lines, write_rows,
)

#: The library modules each subcommand's handler uses.  :func:`dispatch`
#: imports only these, so a child running one subcommand compiles no other,
#: and binds the names ``poollab._EXPORTS`` maps to them; a handler called
#: other than through :func:`dispatch` needs them bound first.
COMMAND_MODULES = {
    "sample": ("corpus",),
    "filter": ("corpus", "filters"),
    "inject": ("corpus", "injection"),
    "ingest": ("runlog",),
    "report": ("runlog",),
    "pareto": ("runlog", "scaling"),
    "crossing": ("runlog", "scaling"),
    "scaling-law": ("runlog", "scaling"),
    "extrapolate": ("scaling",),
    "slice-loss": ("runlog",),
    "verify-theory": ("theory",),
    "judge": ("corpus", "factuality"),
}

#: ``--profile`` and ``--kind`` choices: ``sorted(filters.PROFILES)`` and the
#: ``injection.JunkKind`` values, spelled out so that building the parser
#: imports neither module.
PROFILE_CHOICES = ("gopher", "permissive")
KIND_CHOICES = ("random_strings", "shuffled_docs")


def _bind_module(module: str) -> None:
    """Import ``poollab.<module>`` and bind here each name ``_EXPORTS`` maps to it.

    A name already bound is left alone, so a replacement installed with
    ``setattr(poollab.cli, name, ...)`` stays the object the handlers call.
    """
    qualified = f"{__package__}.{module}"
    __import__(qualified)  # not importlib.import_module: -X importtime reports this path
    source = sys.modules[qualified]
    namespace = globals()
    for name, home in _EXPORTS.items():
        if home == module and name not in namespace:
            namespace[name] = getattr(source, name)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_module(_EXPORTS[name])
    return globals()[name]


EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_USAGE = 2

REFERENCE_POOL_TOKENS = 240e12  # full-corpus scale used in summaries

#: Report CSV columns: one row per run.
REPORT_COLUMNS = (
    "record_ref", "dataset_label", "model_name", "model_params", "pool_tokens", "train_tokens",
    "epochs", "flops", "best_eval",
)

#: Crossings CSV columns: the CrossingPoint fields plus its derived epoch properties.
CROSSING_COLUMNS = (
    "model_params",
    "pool_tokens",
    "crossing_tokens",
    "epochs_at_cross",
    "observed",
    "extreme_epochs",
)


class UsageError(Exception):
    """Flag combination errors that should exit with the usage code."""


# ---------------------------------------------------------------------------
# Small helpers: config merging, value parsing, manifests.
# ---------------------------------------------------------------------------


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return obj


def parse_value(name: str, value: object, kind: Callable):
    """``kind(value)``, with a failed conversion reported as a domain error."""
    try:
        return kind(value)
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name}: invalid value {value!r} ({exc})") from exc


#: The JSON types a ``--config`` value may take for each plain ``opt`` kind.
#: A JSON ``true`` is a Python int, so bools are rejected for other kinds.
_CONFIG_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def opt(args: argparse.Namespace, config: dict, key: str, default, kind: Callable | None = None):
    """Flag value if given, else config-file value, else default; ``kind`` converts it.

    A config value for a ``bool``, ``int``, ``float`` or ``str`` key must
    already have that JSON type: it is checked, not coerced.  The value
    returned is also stored on ``args``, so the manifest records the
    setting the run used.
    """
    value = getattr(args, key, None)
    if value is None and key in config:
        value = config[key]
        if kind in _CONFIG_TYPES:
            types, expected = _CONFIG_TYPES[kind]
            if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
                raise ValidationError(f"{key}: config value {value!r} is not {expected}")
    elif value is None:
        value = default
    value = value if kind is None else parse_value(key, value, kind)
    setattr(args, key, value)
    return value


def _comma_list(value: str) -> list[str]:
    return [item for item in value.split(",") if item]


def _token_count(value: object) -> int:
    return int(float(value))  # accepts "2000" and "1e6"


def _number_map(value: dict) -> dict[str, float]:
    """A JSON object of numbers, as floats; ``true`` is not a number."""
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value.values()):
        raise ValueError("expected an object of numbers")
    return {k: float(v) for k, v in value.items()}


#: The flags that name files a run reads, and those that name files it writes.
INPUT_FLAGS = (
    "input", "pool", "runs", "junk_source", "qa", "crossings", "law", "slice", "config", "configs",
)
OUTPUT_FLAGS = ("output", "stats", "aggregate", "points_csv")

#: The files a named path stands for: itself, a pool's header and an artifact's manifest.
PATH_SUFFIXES = ("", ".header.json", ".manifest.json")


def _named_files(args: argparse.Namespace, flags: Sequence[str]) -> list[tuple[str, str]]:
    """``(flag, path)`` for each of ``flags`` that ``args`` sets."""
    return [(flag, getattr(args, flag)) for flag in flags if getattr(args, flag, None)]


def write_manifest(args: argparse.Namespace) -> None:
    """Write ``<output>.manifest.json`` for the run that ``args`` describes.

    Inputs and outputs are the paths named by :data:`INPUT_FLAGS` and
    :data:`OUTPUT_FLAGS`, each input with the sha256 of its bytes.
    ``config_digest`` hashes the effective settings: each flag, with the
    value :func:`opt` took from ``--config`` or its default in its place.
    """
    settings = {
        k: v for k, v in vars(args).items() if k not in ("func", "config") and v is not None
    }
    digest = hashlib.sha256(
        json.dumps(settings, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()
    inputs = sorted(path for _, path in _named_files(args, INPUT_FLAGS))
    manifest = {
        "command_line": " ".join(sys.argv),
        "config_digest": digest,
        "seeds": {"seed": args.seed} if "seed" in vars(args) else {},
        "inputs": inputs,
        "input_sha256": {path: sha256_file(path) for path in inputs},
        "outputs": sorted(path for _, path in _named_files(args, OUTPUT_FLAGS)),
        "tool_version": __version__,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    write_json(args.output + ".manifest.json", manifest)


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def cmd_sample(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    seed = opt(args, config, "seed", 0, int)
    target = parse_value("--target-tokens", args.target_tokens, _token_count)
    label = opt(args, config, "label", Path(args.output).stem, str)
    pool = sample_pool(read_documents(args.input), target, seed, label=label)
    write_pool(args.output, pool)
    print(f"sampled {len(pool)} docs, {pool.total_tokens} tokens -> {args.output}")
    return EXIT_OK


def cmd_filter(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    base = profile(opt(args, config, "profile", "gopher", str))
    kinds = {"english_threshold": float, "quality_keep_fraction": float,
             "stopword_min_count": int, "stopword_distinct": bool}
    thresholds = opt(args, config, "repetition_thresholds", {}, _number_map)
    cfg = replace(  # a new config, so FilterConfig.__post_init__ checks the merged values
        base, repetition_thresholds={**base.repetition_thresholds, **thresholds},
        **{key: opt(args, config, key, getattr(base, key), kind) for key, kind in kinds.items()},
    )

    stage_names = opt(args, config, "stages", "english,repetition,stopword", _comma_list)
    threads = opt(args, config, "threads", 1, int)  # checked; every stage runs on one thread
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    result = run_pipeline(read_pool(args.pool), build_stages(stage_names, cfg), threads)
    write_pool(args.output, result.pool)
    if args.stats:
        write_rows(args.stats, STATS_COLUMNS, result.stats_rows())
    print(
        f"filtered {result.cumulative.docs_in} -> {result.cumulative.docs_kept} docs "
        f"(token retention {result.cumulative.retention_tokens:.4f}) via {stage_names}"
    )
    return EXIT_OK


def cmd_inject(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    seed = opt(args, config, "seed", 0, int)
    kind = opt(args, config, "kind", JunkKind.RANDOM_STRINGS.value, JunkKind)
    if (kind is JunkKind.SHUFFLED_DOCS) != bool(args.junk_source):
        raise UsageError("--junk-source is read by --kind shuffled_docs only, which needs it")
    spec = InjectionSpec(kind=kind, ratio=args.ratio, seed=seed)
    pool = read_pool(args.pool)
    if kind is JunkKind.SHUFFLED_DOCS:
        source = shuffled_junk_stream(read_documents(args.junk_source), seed)
    else:
        vocab_seed = opt(args, config, "vocab_seed", seed, int)
        source = random_junk_stream(pool, build_vocab(vocab_seed), seed)
    injected = inject(pool, spec, source)
    write_pool(args.output, injected)
    print(
        f"injected to {injected.total_tokens} tokens "
        f"({len(injected)} docs), label {injected.label!r}"
    )
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.validate_only == bool(args.output):
        raise UsageError("give exactly one of --output and --validate-only")
    records, errors = parse_run_log(args.runs)
    for err in errors:
        print(f"{args.runs}: line {err.lineno}: {err.message}", file=sys.stderr)
    if errors:
        raise ValidationError(f"{len(errors)} malformed line(s) in {args.runs}")
    if args.validate_only:
        print(f"validated {len(records)} records from {args.runs}")
        return EXIT_OK
    write_run_log(args.output, records)
    print(f"ingested {len(records)} records -> {args.output}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    rows = [
        dict(zip(REPORT_COLUMNS, (
            f"{r.dataset_label}#{i}", r.dataset_label, r.model.name, r.model.total_params,
            r.pool_tokens, r.train_tokens, epochs(r), compute_flops(r), best_eval(r),
        )))
        for i, r in enumerate(load_run_log(args.runs))
    ]
    rows.sort(key=lambda row: (row["dataset_label"], row["model_params"], row["train_tokens"]))
    write_rows(args.output, REPORT_COLUMNS, rows)
    print(f"reported {len(rows)} runs -> {args.output}")
    return EXIT_OK


def cmd_pareto(args: argparse.Namespace) -> int:
    records = load_run_log(args.runs)
    points = [
        FrontierPoint(
            compute=compute_flops(record),
            loss=best_eval(record),
            dataset_label=record.dataset_label,
            record_ref=f"{record.dataset_label}#{i}",
        )
        for i, record in enumerate(records)
    ]
    frontier = pareto_frontier(points)
    write_rows(args.output, field_names(FrontierPoint), frontier)
    print(f"frontier has {len(frontier)} of {len(points)} points -> {args.output}")
    return EXIT_OK


def cmd_crossing(args: argparse.Namespace) -> int:
    eval_sets = args.eval_sets.split(",") if args.eval_sets else None
    # No name here holds the log, so it is freed before numpy loads for the fits.
    cells = reduce_crossings(load_run_log(args.runs), args.pool_label, args.filtered_label,
                             eval_sets)
    crossings = [fit_crossing(cell) for cell in cells]
    write_rows(args.output, CROSSING_COLUMNS, crossings)
    print(f"computed {len(crossings)} crossing cells -> {args.output}")
    return EXIT_OK


def _warn_in_one_line(fit: Callable, *fit_args):
    """``fit(*fit_args)``, printing each warning it raises as one ``warning: ...`` line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return fit(*fit_args)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def cmd_scaling_law(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    method = opt(args, config, "method", "tpp", str)
    if method not in ("tpp", "epoch"):
        raise UsageError(f"--method must be tpp or epoch, got {method!r}")
    if method == "epoch" and args.configs:
        raise UsageError("--configs is read only by --method tpp")
    by_model: dict[int, list[CrossingPoint]] = {}
    # a repeated cell is an error: weighting or dropping either row would hide a corrupt file
    for cp in read_rows(args.crossings, CrossingPoint, unique=("model_params", "pool_tokens")):
        by_model.setdefault(cp.model_params, []).append(cp)
    quads = {}
    for model_params, cell in sorted(by_model.items()):
        try:
            quads[model_params] = fit_crossing_quadratic(cell)
        except FitError as exc:  # the model is left out of the law
            print(f"warning: model {model_params}: {exc}", file=sys.stderr)

    if method == "tpp":
        ratio = opt(args, config, "ratio", 600.0, float)
        configs = read_model_configs(args.configs) if args.configs else bundled_model_configs()
        law = _warn_in_one_line(fit_threshold_tokens_per_param, quads, configs, ratio)
    else:
        n_epochs = opt(args, config, "epochs", 4.0, float)
        law = _warn_in_one_line(fit_threshold_epoch_constraint, quads, n_epochs)

    compute = extrapolate_compute(law, REFERENCE_POOL_TOKENS)
    law_json = {
        **asdict(law),
        "quadratics": {str(m): list(q.coeffs) for m, q in sorted(quads.items())},
        "extrapolation": {"pool_tokens": REFERENCE_POOL_TOKENS, "compute": compute},
    }
    write_json(args.output, law_json)
    if args.points_csv:
        write_rows(args.points_csv, field_names(ThresholdPoint), law.points)
    print(
        f"{law.method}: compute = {law.alpha:.6g} * pool^{law.beta:.6g} "
        f"(r2={law.r2:.6f}), 240T-token compute {compute:.6g}"
    )
    return EXIT_OK


def cmd_extrapolate(args: argparse.Namespace) -> int:
    obj = read_json(args.law)
    try:
        law = ThresholdLaw.from_dict(obj)
    except ValidationError as exc:
        raise ValidationError(f"{args.law}: {exc}") from exc
    pool_tokens = parse_value("--pool-tokens", args.pool_tokens, float)
    compute = extrapolate_compute(law, pool_tokens)
    print(repr(compute))
    if args.output:
        write_json(args.output, {"pool_tokens": pool_tokens, "compute": compute})
    return EXIT_OK


def cmd_slice_loss(args: argparse.Namespace) -> int:
    obj = read_json(args.slice)
    try:
        losses = tuple(float(v) for v in obj["position_losses"])
        slc = EvalSlice(losses, int(obj.get("context_length", len(losses))))
    except KeyError as exc:
        raise ValidationError(f"{args.slice}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{args.slice}: malformed slice: {exc}") from exc
    ts = parse_value("--t", args.t, lambda v: [int(t) for t in v.split(",")])
    columns = ("t", "mean_loss")
    rows = [dict(zip(columns, (t, slice_loss(slc, t)))) for t in ts]
    if args.output:
        write_rows(args.output, columns, rows)
    else:
        for row in rows:
            print(",".join(csv_cell(v) for v in row.values()))
    return EXIT_OK


def cmd_verify_theory(args: argparse.Namespace) -> int:
    if not args.prop1 and not args.filter_fact:
        raise UsageError("choose at least one of --prop1 / --filter-fact")
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    seed = args.seed
    verdicts = []
    if args.prop1:
        for i in range(args.trials):
            verdicts.append({"check": "rank_necessity", **run_rank_necessity_trial(seed + i)})
    if args.filter_fact:
        for i in range(args.trials):
            verdicts.append({"check": "filter_improvement", **run_filter_fact_trial(seed + i)})
    all_pass = all(v["pass"] for v in verdicts)
    passed = sum(v["pass"] for v in verdicts)
    summary = {"trials": len(verdicts), "passed": passed, "pass": all_pass}
    lines = [json.dumps(v, sort_keys=True) for v in [*verdicts, summary]]
    if args.output:
        write_lines(args.output, lines)
    print("\n".join(lines))
    return EXIT_OK if all_pass else EXIT_DOMAIN_ERROR


def _heuristic_mock_classifier() -> Callable[[str, str, str], Verdict]:
    """The ``judge --mock`` classifier, with substring tests on lowercased text.

    Support if the document contains every answer word longer than 2
    characters, else Related if it contains any question word longer
    than 3, else Unrelated.  Each question and answer is split once per
    classifier; documents are lowercased per call, which costs less than
    holding a lowercased copy of each.
    """
    qa_words: dict[tuple[str, str], tuple[list[str], list[str]]] = {}

    def classify(doc_text: str, question: str, answer: str) -> Verdict:
        text = doc_text.lower()
        words = qa_words.get((question, answer))
        if words is None:
            words = qa_words[question, answer] = (
                [w for w in answer.lower().split() if len(w) > 2],
                [w for w in question.lower().split() if len(w) > 3],
            )
        answer_words, question_words = words
        if answer_words and all(w in text for w in answer_words):
            return Verdict.SUPPORT
        if any(w in text for w in question_words):
            return Verdict.RELATED
        return Verdict.UNRELATED

    return classify


def cmd_judge(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if not args.mock and not args.endpoint:
        raise UsageError("choose --mock or --endpoint <url>")
    if args.mock:
        client = mock_judge_client(_heuristic_mock_classifier())
    else:
        client = JudgeClient(
            endpoint=args.endpoint,
            model_name=opt(args, config, "model_name", "judge", str),
            timeout=opt(args, config, "timeout", 30.0, float),
            max_concurrency=opt(args, config, "max_concurrency", 4, int),
        )
    qa_items = read_qa_items(args.qa)
    pool = read_pool(args.pool)
    combined = JudgeRun(judgements=[], failures=[])
    for qa in qa_items:
        run = judge_documents(keyword_match(pool, qa), qa, client)
        combined.judgements.extend(run.judgements)
        combined.failures.extend(run.failures)
    write_judgements(args.output, combined)
    if args.aggregate:
        rows = aggregate_judgements(combined.judgements, qa_items)
        write_rows(args.aggregate, ["subject"] + VERDICT_COLUMNS, rows)
    print(
        f"judged {len(combined.judgements)} documents "
        f"({len(combined.failures)} failures) across {len(qa_items)} QA items"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poollab",
        description="Data-curation experiment toolkit: pools, filters, junk, scaling laws.",
    )
    parser.add_argument("--version", action="version", version=f"poollab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="<command>")

    def with_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config merged with flags (flags win)")

    p = sub.add_parser("sample", help="sample a token-budgeted pool from a document stream")
    p.add_argument("--input", required=True, help="input documents JSONL")
    p.add_argument("--target-tokens", dest="target_tokens", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--label")
    p.add_argument("--output", required=True)
    with_config(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("filter", help="run a filter pipeline over a pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--profile", choices=PROFILE_CHOICES)
    p.add_argument("--stages", help="comma list: english,repetition,stopword,dedup,quality")
    p.add_argument("--english-threshold", dest="english_threshold", type=float)
    p.add_argument("--quality-keep-fraction", dest="quality_keep_fraction", type=float)
    p.add_argument("--stopword-min-count", dest="stopword_min_count", type=int)
    p.add_argument(
        "--stopword-distinct", dest="stopword_distinct", action="store_const", const=True
    )
    p.add_argument("--output", required=True)
    p.add_argument("--stats", help="per-stage retention CSV")
    p.add_argument("--threads", type=int, help="must be >= 1; every stage runs on one thread")
    with_config(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("inject", help="mix junk documents into a pool at a token ratio")
    p.add_argument("--pool", required=True)
    p.add_argument("--kind", choices=KIND_CHOICES)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--vocab-seed", dest="vocab_seed", type=int)
    p.add_argument("--junk-source", dest="junk_source", help="JSONL docs to shuffle")
    p.add_argument("--output", required=True)
    with_config(p)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("ingest", help="validate and persist a training-run log")
    p.add_argument("--runs", required=True)
    p.add_argument("--output")
    p.add_argument("--validate-only", dest="validate_only", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("report", help="per-run summary CSV (epochs, compute, best loss)")
    p.add_argument("--runs", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pareto", help="compute-versus-loss Pareto frontier")
    p.add_argument("--runs", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("crossing", help="pool-vs-filtered crossing points per cell")
    p.add_argument("--runs", required=True)
    p.add_argument("--pool-label", dest="pool_label", required=True)
    p.add_argument("--filtered-label", dest="filtered_label", required=True)
    p.add_argument("--eval-sets", dest="eval_sets", help="comma list; default: all present")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_crossing)

    p = sub.add_parser("scaling-law", help="fit a compute threshold law from crossings")
    p.add_argument("--crossings", required=True, help="CSV from the crossing command")
    p.add_argument("--method", choices=["tpp", "epoch"])
    p.add_argument("--ratio", type=float, help="tokens per non-embedding parameter (tpp)")
    p.add_argument("--epochs", type=float, help="epoch count (epoch method)")
    p.add_argument("--configs", help="model configs JSON; default: bundled reference")
    p.add_argument("--output", required=True, help="law summary JSON")
    p.add_argument("--points-csv", dest="points_csv", help="threshold points CSV")
    with_config(p)
    p.set_defaults(func=cmd_scaling_law)

    p = sub.add_parser("extrapolate", help="evaluate a fitted law at a pool size")
    p.add_argument("--law", required=True, help="JSON from scaling-law")
    p.add_argument("--pool-tokens", dest="pool_tokens", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_extrapolate)

    p = sub.add_parser("slice-loss", help="mean loss over initial context positions")
    p.add_argument("--slice", required=True, help="JSON with position_losses")
    p.add_argument("--t", required=True, help="position count(s), comma list")
    p.add_argument("--output")
    p.set_defaults(func=cmd_slice_loss)

    p = sub.add_parser("verify-theory", help="numeric checks of the closed-form results")
    p.add_argument("--prop1", action="store_true", help="rank-necessity check")
    p.add_argument("--filter-fact", dest="filter_fact", action="store_true")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify_theory)

    p = sub.add_parser("judge", help="keyword-match documents and classify with a judge")
    p.add_argument("--qa", required=True, help="QA items JSONL")
    p.add_argument("--pool", required=True)
    p.add_argument("--mock", action="store_true")
    p.add_argument("--endpoint")
    p.add_argument("--model-name", dest="model_name")
    p.add_argument("--timeout", type=float)
    p.add_argument("--max-concurrency", dest="max_concurrency", type=int)
    p.add_argument("--output", required=True, help="judgements JSONL")
    p.add_argument("--aggregate", help="per-subject verdict-count CSV")
    with_config(p)
    p.set_defaults(func=cmd_judge)

    return parser


def _check_outputs_are_not_inputs(args: argparse.Namespace) -> None:
    """Raise UsageError if an output would replace another file the run names.

    Each path stands for itself and its sidecars, and each output is
    compared with every input and every other output.
    """
    # realpath, not Path.resolve: a symlink loop must reach the handler's open() as an OSError
    named = _named_files(args, INPUT_FLAGS + OUTPUT_FLAGS)
    files = {
        flag: {os.path.realpath(path + suffix) for suffix in PATH_SUFFIXES}
        for flag, path in named
    }
    for flag, path in _named_files(args, OUTPUT_FLAGS):
        for other, _ in named:
            for suffix in PATH_SUFFIXES:
                if other != flag and os.path.realpath(path + suffix) in files[other]:
                    names = " and ".join("--" + f.replace("_", "-") for f in (flag, other))
                    raise UsageError(f"{names} name the same file {path + suffix}")


def dispatch(argv: Sequence[str]) -> int:
    """Run one subcommand; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    for module in COMMAND_MODULES[args.command]:
        _bind_module(module)
    try:
        _check_outputs_are_not_inputs(args)
        code = args.func(args)
        if args.output:
            write_manifest(args)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PoolLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
