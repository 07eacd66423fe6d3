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
import errno
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
from .errors import FitError, PoolLabError, ValidationError
from .io import (
    csv_cell, field_kinds, field_names, json_object, natural, number, number_text, numbers,
    one_of, positive, read_json, read_rows, sha256_file, string, whole, whole_text, write_json,
    write_lines, write_rows,
)

#: ``--profile``, ``--kind`` and ``--method`` choices: ``sorted(filters.PROFILES)``,
#: the ``injection.JunkKind`` values and the ``scaling`` threshold methods, spelled
#: out so that building the parser imports none of those modules.
PROFILE_CHOICES = ("gopher", "permissive")
KIND_CHOICES = ("random_strings", "shuffled_docs")
METHOD_CHOICES = ("tpp", "epoch")

#: This module.  The handlers read every library name as ``lib.<name>``,
#: so a child running one subcommand imports only the modules whose names
#: its handler touches, and a name replaced with ``setattr(poollab.cli,
#: name, ...)`` is the object the handlers call.
lib = sys.modules[__name__]


def __getattr__(name: str):
    """An exported name, imported from its module on first use and bound here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


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
CROSSING_COLUMNS = ("model_params", "pool_tokens", "crossing_tokens", "epochs_at_cross",
                    "observed", "extreme_epochs")


class UsageError(Exception):
    """Flag combination errors that should exit with the usage code."""


# ---------------------------------------------------------------------------
# Small helpers: config merging, value parsing, manifests.
# ---------------------------------------------------------------------------


def _load_config(path: str | None, kinds: dict[str, Callable],
                 build: Callable[[dict], object] = dict) -> dict:
    """The ``--config`` object of the settings in ``kinds``; ``{}`` without one.  Each key
    is read by its kind, then ``build`` (default: no check) makes what the settings make,
    once, so that the library checks them; a rejected value reads ``<path>: <reason>``."""
    def settings(obj: object) -> dict:
        for key in json_object(obj):
            if key not in kinds:
                raise ValidationError(
                    f"unknown setting {key!r} (settings: {', '.join(sorted(kinds))})")
        values = {key: kinds[key](key, value) for key, value in obj.items()}
        build(values)
        return values
    return read_json(path, settings) if path else {}


def opt(args: argparse.Namespace, config: dict, key: str, default):
    """Flag value if given, else ``config`` value, else default.  The value is also
    stored on ``args``, so the manifest records the setting the run used."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    setattr(args, key, value)
    return value


def _comma_list(value: str) -> list[str]:
    return [item for item in value.split(",") if item]


def _reject_unread(args: argparse.Namespace, flags: Sequence[str], setting: str) -> None:
    """Raise UsageError if ``args`` sets one of ``flags``; a run with ``setting`` reads none."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise UsageError(f"--{flag.replace('_', '-')} is not read with {setting}")


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
    config = _load_config(args.config, {"seed": natural, "label": string})
    seed = opt(args, config, "seed", 0)
    target = whole_text("--target-tokens", args.target_tokens)
    label = opt(args, config, "label", Path(args.output).stem)
    pool = lib.sample_pool(lib.read_documents(args.input), target, seed, label=label)
    lib.write_pool(args.output, pool)
    print(f"sampled {len(pool)} docs, {pool.total_tokens} tokens -> {args.output}")
    return EXIT_OK


#: ``filter``'s settings that are not ``FilterConfig`` fields, with their defaults;
#: a ``FilterConfig`` field defaults to the profile's value.
FILTER_DEFAULTS = {"profile": "gopher", "stages": "english,repetition,stopword",
                   "repetition_thresholds": {}}


def _filter_stages(values: dict) -> list:
    """The stages that the filter settings ``values`` select, each setting they leave out
    at its default; ``profile``, ``FilterConfig`` and ``build_stages`` check them."""
    values = {**FILTER_DEFAULTS, **values}
    base = lib.profile(values["profile"])
    cfg = replace(  # a new config, so FilterConfig.__post_init__ checks the merged values
        base,
        repetition_thresholds={**base.repetition_thresholds, **values["repetition_thresholds"]},
        **{key: values[key] for key in field_kinds(lib.FilterConfig) if key in values},
    )
    return lib.build_stages(_comma_list(values["stages"]), cfg)


def _threads(name: str, value: object) -> int:
    """A ``--threads`` count: a whole number >= 1; every stage runs on one thread."""
    value = whole(name, value)
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")
    return value


def cmd_filter(args: argparse.Namespace) -> int:
    filter_fields = field_kinds(lib.FilterConfig)  # all but repetition_thresholds, a mapping
    config = _load_config(args.config, {
        **filter_fields, "repetition_thresholds": numbers, "profile": one_of(PROFILE_CHOICES),
        "stages": string, "threads": _threads}, _filter_stages)
    values = {key: opt(args, config, key, default) for key, default in FILTER_DEFAULTS.items()}
    base = lib.profile(values["profile"])
    stages = _filter_stages(
        {**values, **{key: opt(args, config, key, getattr(base, key)) for key in filter_fields}})
    threads = _threads("--threads", opt(args, config, "threads", 1))
    result = lib.run_pipeline(lib.read_pool(args.pool), stages, threads)
    lib.write_pool(args.output, result.pool)
    if args.stats:
        write_rows(args.stats, lib.STATS_COLUMNS, result.stats_rows())
    print(
        f"filtered {result.cumulative.docs_in} -> {result.cumulative.docs_kept} docs "
        f"(token retention {result.cumulative.retention_tokens:.4f}) via {result.stage_order}"
    )
    return EXIT_OK


def cmd_inject(args: argparse.Namespace) -> int:
    config = _load_config(args.config, {"seed": natural, "kind": one_of(lib.JunkKind),
                                        "vocab_seed": natural})
    seed = opt(args, config, "seed", 0)
    kind = lib.JunkKind(opt(args, config, "kind", KIND_CHOICES[0]))
    if (kind is lib.JunkKind.SHUFFLED_DOCS) != bool(args.junk_source):
        raise UsageError("--junk-source is read by --kind shuffled_docs only, which needs it")
    if kind is lib.JunkKind.SHUFFLED_DOCS:
        _reject_unread(args, ("vocab_seed",), f"--kind {kind.value}")
    spec = lib.InjectionSpec(kind=kind, ratio=args.ratio, seed=seed)
    pool = lib.read_pool(args.pool)
    if kind is lib.JunkKind.SHUFFLED_DOCS:
        source = lib.shuffled_junk_stream(lib.read_documents(args.junk_source), seed)
    else:
        vocab_seed = opt(args, config, "vocab_seed", seed)
        source = lib.random_junk_stream(pool, lib.build_vocab(vocab_seed), seed)
    injected = lib.inject(pool, spec, source)
    lib.write_pool(args.output, injected)
    print(
        f"injected to {injected.total_tokens} tokens "
        f"({len(injected)} docs), label {injected.label!r}"
    )
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.validate_only == bool(args.output):
        raise UsageError("give exactly one of --output and --validate-only")
    records, errors = lib.parse_run_log(args.runs)
    for err in errors:
        print(f"{args.runs}: line {err.lineno}: {err.message}", file=sys.stderr)
    if errors:
        raise ValidationError(f"{len(errors)} malformed line(s) in {args.runs}")
    if args.validate_only:
        print(f"validated {len(records)} records from {args.runs}")
        return EXIT_OK
    lib.write_run_log(args.output, records)
    print(f"ingested {len(records)} records -> {args.output}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    rows = [
        dict(zip(REPORT_COLUMNS, (
            f"{r.dataset_label}#{i}", r.dataset_label, r.model.name, r.model.total_params,
            r.pool_tokens, r.train_tokens, lib.epochs(r), lib.compute_flops(r), lib.best_eval(r),
        )))
        for i, r in enumerate(lib.load_run_log(args.runs))
    ]
    rows.sort(key=lambda row: (row["dataset_label"], row["model_params"], row["train_tokens"]))
    write_rows(args.output, REPORT_COLUMNS, rows)
    print(f"reported {len(rows)} runs -> {args.output}")
    return EXIT_OK


def cmd_pareto(args: argparse.Namespace) -> int:
    records = lib.load_run_log(args.runs)
    points = [
        lib.FrontierPoint(
            compute=lib.compute_flops(record),
            loss=lib.best_eval(record),
            dataset_label=record.dataset_label,
            record_ref=f"{record.dataset_label}#{i}",
        )
        for i, record in enumerate(records)
    ]
    frontier = lib.pareto_frontier(points)
    write_rows(args.output, field_names(lib.FrontierPoint), frontier)
    print(f"frontier has {len(frontier)} of {len(points)} points -> {args.output}")
    return EXIT_OK


def cmd_crossing(args: argparse.Namespace) -> int:
    # No name here holds the log, so it is freed before numpy loads for the fits.
    cells = lib.reduce_crossings(lib.load_run_log(args.runs), args.pool_label,
                                 args.filtered_label, _comma_list(args.eval_sets or ""))
    crossings = [lib.fit_crossing(cell) for cell in cells]
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
    config = _load_config(args.config, {"method": one_of(METHOD_CHOICES), "ratio": positive,
                                        "epochs": positive})
    method = opt(args, config, "method", "tpp")
    _reject_unread(args, ("epochs",) if method == "tpp" else ("ratio", "configs"),
                   f"--method {method}")
    by_model: dict[int, list[lib.CrossingPoint]] = {}
    # a repeated cell is an error: weighting or dropping either row would hide a corrupt file
    for cp in read_rows(args.crossings, lib.CrossingPoint, key=lambda c: (
            f"model_params={c.model_params}, pool_tokens={c.pool_tokens}")):
        by_model.setdefault(cp.model_params, []).append(cp)
    quads = {}
    for model_params, cell in sorted(by_model.items()):
        try:
            quads[model_params] = lib.fit_crossing_quadratic(cell)
        except FitError as exc:  # the model is left out of the law
            print(f"warning: model {model_params}: {exc}", file=sys.stderr)

    if method == "tpp":
        ratio = opt(args, config, "ratio", 600.0)
        configs = (lib.read_model_configs(args.configs) if args.configs
                   else lib.bundled_model_configs())
        law = _warn_in_one_line(lib.fit_threshold_tokens_per_param, quads, configs, ratio)
    else:
        n_epochs = opt(args, config, "epochs", 4.0)
        law = _warn_in_one_line(lib.fit_threshold_epoch_constraint, quads, n_epochs)

    compute = lib.extrapolate_compute(law, REFERENCE_POOL_TOKENS)
    law_json = {
        **asdict(law),
        "quadratics": {str(m): list(q.coeffs) for m, q in sorted(quads.items())},
        "extrapolation": {"pool_tokens": REFERENCE_POOL_TOKENS, "compute": compute},
    }
    write_json(args.output, law_json)
    if args.points_csv:
        write_rows(args.points_csv, field_names(lib.ThresholdPoint), law.points)
    print(
        f"{law.method}: compute = {law.alpha:.6g} * pool^{law.beta:.6g} "
        f"(r2={law.r2:.6f}), 240T-token compute {compute:.6g}"
    )
    return EXIT_OK


def cmd_extrapolate(args: argparse.Namespace) -> int:
    law = read_json(args.law, lib.ThresholdLaw.from_dict)
    pool_tokens = number_text("--pool-tokens", args.pool_tokens)
    compute = lib.extrapolate_compute(law, pool_tokens)
    print(repr(compute))
    if args.output:
        write_json(args.output, {"pool_tokens": pool_tokens, "compute": compute})
    return EXIT_OK


def cmd_slice_loss(args: argparse.Namespace) -> int:
    slc = read_json(args.slice, lib.EvalSlice.from_dict)
    ts = [whole_text("--t", t) for t in args.t.split(",")]
    columns = ("t", "mean_loss")
    rows = [dict(zip(columns, (t, lib.slice_loss(slc, t)))) for t in ts]
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
            verdicts.append({"check": "rank_necessity", **lib.run_rank_necessity_trial(seed + i)})
    if args.filter_fact:
        for i in range(args.trials):
            verdicts.append({"check": "filter_improvement", **lib.run_filter_fact_trial(seed + i)})
    all_pass = all(v["pass"] for v in verdicts)
    passed = sum(v["pass"] for v in verdicts)
    summary = {"trials": len(verdicts), "passed": passed, "pass": all_pass}
    lines = [json.dumps(v, sort_keys=True) for v in [*verdicts, summary]]
    if args.output:
        write_lines(args.output, lines)
    print("\n".join(lines))
    return EXIT_OK if all_pass else EXIT_DOMAIN_ERROR


def _heuristic_mock_classifier() -> Callable[[str, str, str], lib.Verdict]:
    """The ``judge --mock`` classifier, with substring tests on lowercased text.

    Support if the document contains every answer word longer than 2
    characters, else Related if it contains any question word longer
    than 3, else Unrelated.  Each question and answer is split once per
    classifier; documents are lowercased per call, which costs less than
    holding a lowercased copy of each.
    """
    qa_words: dict[tuple[str, str], tuple[list[str], list[str]]] = {}
    support, related, unrelated = lib.Verdict.SUPPORT, lib.Verdict.RELATED, lib.Verdict.UNRELATED

    def classify(doc_text: str, question: str, answer: str) -> lib.Verdict:
        text = doc_text.lower()
        words = qa_words.get((question, answer))
        if words is None:
            words = qa_words[question, answer] = (
                [w for w in answer.lower().split() if len(w) > 2],
                [w for w in question.lower().split() if len(w) > 3],
            )
        answer_words, question_words = words
        if answer_words:
            for w in answer_words:
                if w not in text:
                    break
            else:
                return support
        for w in question_words:
            if w in text:
                return related
        return unrelated

    return classify


def cmd_judge(args: argparse.Namespace) -> int:
    settings = {"model_name": string, "timeout": number, "max_concurrency": whole}  # HTTP only
    config = _load_config(args.config, settings, lambda values: lib.JudgeClient(
        classify=_heuristic_mock_classifier(), **values))  # JudgeClient checks them
    if not args.mock and not args.endpoint:
        raise UsageError("choose --mock or --endpoint <url>")
    if args.mock:
        _reject_unread(args, ("endpoint", *settings), "--mock")
        client = lib.mock_judge_client(_heuristic_mock_classifier())
    else:
        client = lib.JudgeClient(endpoint=args.endpoint, **{
            key: opt(args, config, key, getattr(lib.JudgeClient, key)) for key in settings
        })
    qa_items = lib.read_qa_items(args.qa)
    pool = lib.read_pool(args.pool)
    combined = lib.JudgeRun(judgements=[], failures=[])
    for qa in qa_items:
        run = lib.judge_documents(lib.keyword_match(pool, qa), qa, client)
        combined.judgements.extend(run.judgements)
        combined.failures.extend(run.failures)
    lib.write_judgements(args.output, combined)
    if args.aggregate:
        rows = lib.aggregate_judgements(combined.judgements, qa_items)
        write_rows(args.aggregate, ["subject"] + lib.VERDICT_COLUMNS, rows)
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
    p.add_argument("--method", choices=METHOD_CHOICES)
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


def _check_output_dirs(args: argparse.Namespace) -> None:
    """Raise the OSError that writing would, before any work, if an output's directory
    is missing or is not a directory, or if the output or one of its sidecars
    (:data:`PATH_SUFFIXES`) is a directory, so that a failed run writes no file at all."""
    for _, path in _named_files(args, OUTPUT_FLAGS):
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)
        for named in (path + suffix for suffix in PATH_SUFFIXES):
            if os.path.isdir(named):
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), named)


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
    try:
        _check_outputs_are_not_inputs(args)
        _check_output_dirs(args)
        code = args.func(args)
        if args.output:
            write_manifest(args)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PoolLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
