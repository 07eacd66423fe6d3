"""Traced in-process replay of one workload, run as a child of run.py.

The replay imports ``poollab.cli`` under a span, then runs each of the
workload's CLI steps through ``poollab.cli.dispatch``.  Spans come from
wrappers installed around the public library calls the handlers make
(``read_pool``, ``build_stages`` stages, ``inject``, ``parse_run_log``,
``crossing_point``, ``keyword_match``, ...), so the library code runs
unmodified.  A wrapped generator gets one span per item it yields.
Calls made on worker threads (the judge's classify, the filters'
scorer) are counted under a lock instead of spanned.

The replay repeats until ``--seconds`` have passed.  Then the wrappers
come off and the replay runs once more untraced, which prices the
tracing itself.  Last, a workload with pool-chain runs its probes: each per-document
filter stage again at one thread, and ``repetition_fractions`` timed on
every document the repetition stage saw.  Spans are written to ``--out``
when everything has finished.

Usage: python3 perfbench/replay.py --context ctx.json --out spans.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class LockedCount:
    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def add(self) -> None:
        with self._lock:
            self.value += 1


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the library calls the CLI handlers make with spans; returns
    what was replaced, for :func:`restore`."""
    import poollab.cli as cli
    import poollab.runlog as runlog
    import poollab.scaling as scaling
    import poollab.theory as theory
    from poollab.filters import DocumentScorer, PipelineStage, builtin_english_scorer

    def timed(name, fn, count=None):
        def wrapper(*args, **kwargs):
            with tracer.span(name) as counts:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts.update(count(result, *args, **kwargs))
                return result

        return wrapper

    def timed_iter(name, fn):
        def wrapper(*args, **kwargs):
            items = iter(fn(*args, **kwargs))

            def traced():
                while True:
                    with tracer.span(name) as counts:
                        try:
                            item = next(items)
                        except StopIteration:
                            return
                        counts["docs"] = 1
                    yield item

            return traced()

        return wrapper

    originals = []

    def put(module, name, value):
        originals.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def patch(module, name, wrapper):
        put(module, name, wrapper(getattr(module, name)))

    def crossing_counts(cp, *args, **kwargs):
        return {
            "cells": 1,
            "observed": int(cp.observed),
            "extrapolated": int(not cp.observed and not cp.never),
            "never": int(cp.never),
        }

    def written_bytes(result, path, *args, **kwargs):
        return {"bytes": os.path.getsize(path) + os.path.getsize(str(path) + ".header.json")}

    spanned = {
        "read_pool": ("corpus.read_pool", lambda pool, *a, **k: {"docs": len(pool)}),
        "write_pool": ("corpus.write_pool", written_bytes),
        "sample_pool": ("corpus.sample_pool", lambda pool, *a, **k: {"docs": len(pool)}),
        "run_pipeline": ("filters.run_pipeline", None),
        "build_vocab": ("injection.build_vocab", None),
        "inject": (
            "injection.inject",
            lambda out, pool, *a, **k: {"junk_tokens": out.total_tokens - pool.total_tokens},
        ),
        "load_run_log": ("runlog.load_run_log", None),
        "write_run_log": ("runlog.write_run_log", None),
        "crossing_point": ("scaling.crossing_point", crossing_counts),
        "fit_crossing_quadratic": ("scaling.fit_crossing_quadratic", None),
        "fit_threshold_tokens_per_param": ("scaling.fit_threshold_tokens_per_param", None),
        "fit_threshold_epoch_constraint": ("scaling.fit_threshold_epoch_constraint", None),
        "pareto_frontier": ("scaling.pareto_frontier", None),
        "run_rank_necessity_trial": ("theory.run_rank_necessity_trial", None),
        "run_filter_fact_trial": ("theory.run_filter_fact_trial", None),
        "read_qa_items": ("factuality.read_qa_items", None),
        "keyword_match": (
            "factuality.keyword_match",
            lambda docs, pool, qa: {"pairs": len(pool.documents), "matched": len(docs)},
        ),
        "aggregate_judgements": ("factuality.aggregate_judgements", None),
        "write_judgements": ("factuality.write_judgements", None),
    }
    for attr, (name, count) in spanned.items():
        patch(cli, attr, lambda fn, name=name, count=count: timed(name, fn, count))
    for attr, name in (
        ("read_documents", "corpus.read_documents"),
        ("random_junk_stream", "injection.random_junk_stream"),
        ("shuffled_junk_stream", "injection.shuffled_junk_stream"),
    ):
        patch(cli, attr, lambda fn, name=name: timed_iter(name, fn))

    # parse_run_log is called by the ingest handler and, through
    # load_run_log, by every other run-log handler.
    parse = timed(
        "runlog.parse_run_log",
        runlog.parse_run_log,
        lambda out, *a, **k: {"records": len(out[0]), "line_errors": len(out[1])},
    )
    put(cli, "parse_run_log", parse)
    put(runlog, "parse_run_log", parse)
    patch(scaling, "fit_power_law", lambda fn: timed("scaling.fit_power_law", fn))
    patch(theory, "analytic_min_loss", lambda fn: timed("theory.analytic_min_loss", fn))
    patch(theory, "empirical_min_loss", lambda fn: timed("theory.empirical_min_loss", fn))

    scorer_calls = LockedCount()

    def counting_scorer(scorer):
        def score(text):
            scorer_calls.add()
            return scorer.score(text)

        return DocumentScorer(name=scorer.name, score=score)

    def traced_stage(stage):
        def apply(pool, threads):
            before = scorer_calls.value
            with tracer.span(f"filters.{stage.name}") as counts:
                out = stage.apply(pool, threads)
                counts.update(docs_in=len(pool), docs_kept=len(out))
            counts["scorer_calls"] = scorer_calls.value - before
            return out

        return PipelineStage(name=stage.name, apply=apply)

    build_stages = cli.build_stages

    def traced_build_stages(names, cfg, scorer=None):
        scorer = counting_scorer(scorer or builtin_english_scorer())
        return [traced_stage(s) for s in build_stages(names, cfg, scorer)]

    put(cli, "build_stages", traced_build_stages)

    attempts, failures = LockedCount(), LockedCount()
    mock_judge_client = cli.mock_judge_client
    judge_documents = cli.judge_documents

    def counting_mock_client(classify, *args, **kwargs):
        def counted(doc_text, question, answer):
            attempts.add()
            try:
                return classify(doc_text, question, answer)
            except Exception:
                failures.add()
                raise

        return mock_judge_client(counted, *args, **kwargs)

    put(cli, "mock_judge_client", counting_mock_client)

    def traced_judge_documents(docs, qa, client):
        tried, failed = attempts.value, failures.value
        with tracer.span("factuality.judge_documents") as counts:
            run = judge_documents(docs, qa, client)
        counts.update(attempts=attempts.value - tried, failures=failures.value - failed)
        return run

    put(cli, "judge_documents", traced_judge_documents)
    return originals


def restore(originals: list[tuple[object, str, object]]) -> None:
    for module, name, value in reversed(originals):
        setattr(module, name, value)


def pool_chain_probes(tracer: Tracer, run_dir: Path) -> None:
    """Per-document filter stages at one thread, and per-document
    repetition_fractions, on the pools both filter steps read."""
    from poollab import build_stages, profile, read_pool, repetition_fractions

    for pool_file in ("sampled.jsonl", "polluted.jsonl"):
        pool = read_pool(run_dir / pool_file)
        for stage in build_stages(["english", "repetition", "stopword"], profile("gopher")):
            if stage.name == "repetition":
                for doc in pool.documents:
                    with tracer.span("filters.repetition_fractions"):
                        repetition_fractions(doc)
            with tracer.span(f"filters.{stage.name}.threads1"):
                pool = stage.apply(pool, 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--context", required=True, help="JSON written by run.py")
    parser.add_argument("--out", required=True, help="spans JSON to write")
    args = parser.parse_args()
    ctx = json.loads(Path(args.context).read_text("utf-8"))
    root = Path(ctx["root"])
    trace_dir = Path(ctx["trace_dir"])
    workload = WORKLOADS[ctx["workload"]]
    step_ctx = SimpleNamespace(root=root, inputs=Path(ctx["inputs"]), desc=ctx["desc"])
    sys.path.insert(0, str(root / "src"))

    tracer = Tracer()
    tracer.run = "import"
    with tracer.span("cli.import"):
        import poollab.cli as cli
    originals = install(tracer)

    def replay(out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        for command, argv in workload.steps(step_ctx, out):
            with tracer.span(f"cli.{command}"):
                exit_codes.append(cli.dispatch(argv))

    runs, exit_codes = [], []
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < ctx["seconds"]:
        tracer.run = len(runs) + 1
        with tracer.span("replay"):
            replay(trace_dir / f"run{tracer.run}")
        runs.append(tracer.run)
        if tracer.run > 1:
            shutil.rmtree(trace_dir / f"run{tracer.run}")

    # The same replay without wrappers or spans, for the tracing overhead.
    restore(originals)
    out = trace_dir / "untraced"
    out.mkdir(parents=True, exist_ok=True)
    begin = time.perf_counter()
    for _, argv in workload.steps(step_ctx, out):
        exit_codes.append(cli.dispatch(argv))
    untraced = time.perf_counter() - begin

    if any(part.name == "pool-chain" for part in workload.parts):
        tracer.run = "probe"
        pool_chain_probes(tracer, trace_dir / "run1")

    Path(args.out).write_text(json.dumps({
        "runs": runs,
        "exit_codes": exit_codes,
        "untraced_replay_s": untraced,
        "spans": tracer.spans,
    }), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
