"""The benchmark's workloads, built from four chains of CLI steps.

Each chain (pool-chain, runlog-chain, theory-verify, judge-mock) knows
its steps, its hot step and its correctness checks.  A workload runs
chains back to back: ``curation`` is pool-chain then judge-mock, and
``analysis`` is runlog-chain then theory-verify, so each layer is
exercised by one workload and bypassed by the other.  Two long
workloads fit the benchmark's time budget with longer measuring windows
than four short ones would, which is what keeps their medians steady on
a machine whose speed drifts from minute to minute.

Every step is one ``poollab`` subcommand with its flags at their
defaults, except the inputs and outputs each step needs.  A check
returns ``(name, ok, detail)`` and reads only files; it never runs inside
a timed region.
"""

from __future__ import annotations

import csv
import json
import string
import sys
from pathlib import Path
from types import SimpleNamespace

FILTER_STAGES = "english,repetition,stopword,dedup,quality"
REFERENCE_POOL_TOKENS = "240e12"
FINITE_CROSSING_RTOL = 1e-6
BETA_TOL = 1e-2
EXTRAPOLATE_RTOL = 1e-12


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _args(*parts) -> list[str]:
    return [str(p) for p in parts]


def _filter_step(pool: Path, out: Path, name: str, *extra: str) -> list[str]:
    return _args(
        "filter", "--pool", pool, "--stages", FILTER_STAGES,
        "--output", out / f"{name}.jsonl", "--stats", out / f"{name}.stats.csv", *extra,
    )


class PoolChain:
    """sample -> filter -> inject shuffled docs -> inject random strings -> filter."""

    name = "pool-chain"
    hot_step, rate_label = "filter", "filter_tokens_per_s"
    pools = ("sampled", "filtered", "shuffled", "polluted", "refiltered")

    def steps(self, ctx, out: Path) -> list[tuple[str, list[str]]]:
        inputs = ctx.inputs
        return [
            ("sample", _args(
                "sample", "--input", inputs / "corpus.jsonl",
                "--target-tokens", ctx.desc["target_tokens"], "--output", out / "sampled.jsonl",
            )),
            ("filter", _filter_step(out / "sampled.jsonl", out, "filtered")),
            ("inject", _args(
                "inject", "--pool", out / "filtered.jsonl", "--kind", "shuffled_docs",
                "--ratio", "1", "--junk-source", inputs / "junk_source.jsonl",
                "--output", out / "shuffled.jsonl",
            )),
            ("inject", _args(
                "inject", "--pool", out / "shuffled.jsonl", "--kind", "random_strings",
                "--ratio", "1", "--output", out / "polluted.jsonl",
            )),
            ("filter", _filter_step(out / "polluted.jsonl", out, "refiltered")),
        ]

    def hot_units(self, ctx, out: Path) -> int:
        """Tokens entering the two filter steps."""
        return sum(
            int(read_csv(out / f"{name}.stats.csv")[0]["tokens_in"])
            for name in ("filtered", "refiltered")
        )

    def check(self, ctx, out: Path, rerun) -> list[tuple[str, bool, str]]:
        checks = []
        threads1 = out / "threads1"
        threads1.mkdir(exist_ok=True)
        for pool, name in (("sampled", "filtered"), ("polluted", "refiltered")):
            result = rerun(_filter_step(out / f"{pool}.jsonl", threads1, name, "--threads", "1"))
            files = (f"{name}.jsonl", f"{name}.jsonl.header.json", f"{name}.stats.csv")
            differ = [f for f in files if not result.ok or _read(out / f) != _read(threads1 / f)]
            checks.append((f"{name}: output identical under --threads 1", not differ, " ".join(differ)))

        for name in ("filtered", "refiltered"):
            rows = read_csv(out / f"{name}.stats.csv")
            stages, total = rows[:-1], rows[-1]
            broken = [
                f"{a['stage']}->{b['stage']}"
                for a, b in zip(stages, stages[1:])
                if (a["docs_kept"], a["tokens_kept"]) != (b["docs_in"], b["tokens_in"])
            ]
            if (total["docs_in"], total["tokens_in"]) != (stages[0]["docs_in"], stages[0]["tokens_in"]) or (
                total["docs_kept"], total["tokens_kept"]
            ) != (stages[-1]["docs_kept"], stages[-1]["tokens_kept"]):
                broken.append("cumulative")
            checks.append((f"{name}: stage rows chain", not broken, " ".join(broken)))

        tokens = {}
        for name in self.pools:
            docs = read_jsonl(out / f"{name}.jsonl")
            header = json.loads((out / f"{name}.jsonl.header.json").read_text("utf-8"))
            tokens[name] = sum(len(d["text"].split()) for d in docs)
            checks.append((
                f"{name}: header total_tokens matches a recount",
                header["total_tokens"] == tokens[name],
                f"header {header['total_tokens']} recount {tokens[name]}",
            ))

        for before, after in (("filtered", "shuffled"), ("shuffled", "polluted")):
            kept = {d["id"] for d in read_jsonl(out / f"{before}.jsonl")}
            ids = {d["id"] for d in read_jsonl(out / f"{after}.jsonl")}
            checks.append((
                f"{after}: pool kept and junk tokens reach ratio 1",
                kept <= ids and tokens[after] - tokens[before] >= tokens[before],
                f"{tokens[before]} -> {tokens[after]} tokens",
            ))

        checks.append(self._oracle_check(ctx, out))
        return checks

    def _oracle_check(self, ctx, out: Path) -> tuple[str, bool, str]:
        sys.path.insert(0, str(ctx.root / "src"))
        sys.path.insert(0, str(ctx.root / "tests"))
        import oracle_recount

        docs = [(d["id"], d["text"]) for d in read_jsonl(out / "sampled.jsonl")]
        expected = oracle_recount.recount(docs)["pipeline"]
        wrong = []
        for row in read_csv(out / "filtered.stats.csv"):
            want = expected[row["stage"]]
            for key in ("docs_in", "docs_kept", "tokens_in", "tokens_kept"):
                if int(row[key]) != want[key]:
                    wrong.append(f"{row['stage']}.{key}")
            for key in ("retention_docs", "retention_tokens"):
                if float(row[key]) != want[key]:
                    wrong.append(f"{row['stage']}.{key}")
        return ("filtered: retention matches tests/oracle_recount.recount", not wrong, " ".join(wrong))


class RunlogChain:
    """ingest -> report -> pareto -> crossing -> scaling-law tpp/epoch -> extrapolate."""

    name = "runlog-chain"
    hot_step, rate_label = "crossing", "crossing_cells_per_s"

    def steps(self, ctx, out: Path) -> list[tuple[str, list[str]]]:
        runs = out / "runs.jsonl"
        return [
            ("ingest", _args("ingest", "--runs", ctx.inputs / "runs.jsonl", "--output", runs)),
            ("report", _args("report", "--runs", runs, "--output", out / "report.csv")),
            ("pareto", _args("pareto", "--runs", runs, "--output", out / "pareto.csv")),
            ("crossing", _args(
                "crossing", "--runs", runs, "--pool-label", "pool",
                "--filtered-label", "filtered", "--output", out / "crossings.csv",
            )),
            ("scaling-law", _args(
                "scaling-law", "--crossings", out / "crossings.csv", "--method", "tpp",
                "--output", out / "law_tpp.json", "--points-csv", out / "points.csv",
            )),
            ("scaling-law", _args(
                "scaling-law", "--crossings", out / "crossings.csv", "--method", "epoch",
                "--output", out / "law_epoch.json",
            )),
            ("extrapolate", _args(
                "extrapolate", "--law", out / "law_tpp.json",
                "--pool-tokens", REFERENCE_POOL_TOKENS, "--output", out / "extrapolated.json",
            )),
        ]

    def hot_units(self, ctx, out: Path) -> int:
        return len(ctx.desc["cells"])

    def check(self, ctx, out: Path, rerun) -> list[tuple[str, bool, str]]:
        desc = ctx.desc
        checks = []
        ingested = len(read_jsonl(out / "runs.jsonl"))
        checks.append((
            "ingest keeps every record",
            ingested == desc["sizes"]["records"],
            f"{ingested} of {desc['sizes']['records']}",
        ))

        planted = {(c["model_params"], c["pool_tokens"]): c for c in desc["cells"]}
        rows = {(int(r["model_params"]), int(r["pool_tokens"])): r for r in read_csv(out / "crossings.csv")}
        checks.append(("crossing reports every planted cell", rows.keys() == planted.keys(), ""))
        never = {key for key, row in rows.items() if row["crossing_tokens"] == "NEVER"}
        planted_never = {key for key, cell in planted.items() if cell["kind"] == "never"}
        checks.append((
            "NEVER cells exactly where planted",
            never == planted_never,
            f"{len(never)} reported, {len(planted_never)} planted",
        ))
        flags = [key for key, row in rows.items()
                 if key in planted and (row["observed"] == "True") != (planted[key]["kind"] == "observed")]
        checks.append(("observed flag matches the planted cell", not flags, f"{len(flags)} wrong"))
        worst = max(
            (abs(float(rows[key]["crossing_tokens"]) / cell["crossing_tokens"] - 1.0)
             for key, cell in planted.items()
             if cell["crossing_tokens"] is not None and key in rows and key not in never),
            default=0.0,
        )
        checks.append((
            f"finite crossings within {FINITE_CROSSING_RTOL:g} of planted",
            worst <= FINITE_CROSSING_RTOL,
            f"worst relative error {worst:.3g}",
        ))

        for method in ("tpp", "epoch"):
            law = json.loads((out / f"law_{method}.json").read_text("utf-8"))
            checks.append((
                f"{method} law recovers the planted beta within {BETA_TOL:g}",
                abs(law["beta"] - desc["beta"]) <= BETA_TOL,
                f"beta {law['beta']:.6f} planted {desc['beta']:.6f}",
            ))

        law = json.loads((out / "law_tpp.json").read_text("utf-8"))
        got = json.loads((out / "extrapolated.json").read_text("utf-8"))
        want = law["alpha"] * float(REFERENCE_POOL_TOKENS) ** law["beta"]
        checks.append((
            "extrapolate equals the law's prediction",
            abs(got["compute"] / want - 1.0) <= EXTRAPOLATE_RTOL,
            f"{got['compute']!r} vs {want!r}",
        ))
        return checks


class TheoryVerify:
    """verify-theory --prop1 --filter-fact over a fixed trial window."""

    name = "theory-verify"
    hot_step, rate_label = "verify-theory", "theory_trials_per_s"

    def steps(self, ctx, out: Path) -> list[tuple[str, list[str]]]:
        return [("verify-theory", _args(
            "verify-theory", "--prop1", "--filter-fact", "--trials", ctx.desc["trials"],
            "--seed", ctx.desc["trial_seed"], "--output", out / "verify.jsonl",
        ))]

    def hot_units(self, ctx, out: Path) -> int:
        """Trials of both checks."""
        return 2 * ctx.desc["trials"]

    def check(self, ctx, out: Path, rerun) -> list[tuple[str, bool, str]]:
        summary = json.loads((out / "verify.jsonl").read_text("utf-8").splitlines()[-1])
        return [(
            'verify-theory reports "pass": true for every trial',
            summary["pass"] is True and summary["trials"] == 2 * ctx.desc["trials"],
            json.dumps(summary, sort_keys=True),
        )]


_PUNCTUATION_TO_SPACE = str.maketrans(string.punctuation, " " * len(string.punctuation))


class JudgeMock:
    """judge --mock --aggregate over a Zipf pool."""

    name = "judge-mock"
    hot_step, rate_label = "judge", "judge_pairs_per_s"

    def steps(self, ctx, out: Path) -> list[tuple[str, list[str]]]:
        return [("judge", _args(
            "judge", "--qa", ctx.inputs / "qa.jsonl", "--pool", ctx.inputs / "judge_pool.jsonl",
            "--mock", "--output", out / "judgements.jsonl", "--aggregate", out / "aggregate.csv",
        ))]

    def hot_units(self, ctx, out: Path) -> int:
        """QA-item x document pairs keyword_match scans."""
        sizes = ctx.desc["sizes"]
        return sizes["qa_items"] * sizes["docs"]

    def check(self, ctx, out: Path, rerun) -> list[tuple[str, bool, str]]:
        qa_items = read_jsonl(ctx.inputs / "qa.jsonl")
        word_sets = [
            set(d["text"].lower().translate(_PUNCTUATION_TO_SPACE).split())
            for d in read_jsonl(ctx.inputs / "judge_pool.jsonl")
        ]
        expected = sum(
            all(k in words for k in qa["keywords"]) for qa in qa_items for words in word_sets
        )
        judged = read_jsonl(out / "judgements.jsonl")
        subjects = {qa["subject"] for qa in qa_items}
        aggregate = read_csv(out / "aggregate.csv")
        return [
            (
                "judged + failures equal a whole-word recount of the matches",
                len(judged) == expected,
                f"{len(judged)} judged or failed, {expected} matches",
            ),
            (
                "aggregate has one row per subject",
                sorted(r["subject"] for r in aggregate) == sorted(subjects),
                f"{len(aggregate)} rows",
            ),
        ]


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


class Workload:
    """Chains run back to back into one output directory."""

    def __init__(self, name: str, *parts) -> None:
        self.name = name
        self.parts = parts

    @staticmethod
    def part_ctx(ctx, part):
        """``ctx`` with ``desc`` narrowed to ``part``'s own inputs."""
        return SimpleNamespace(root=ctx.root, inputs=ctx.inputs, desc=ctx.desc[part.name])

    def steps(self, ctx, out: Path) -> list[tuple[str, list[str]]]:
        return [step for part in self.parts for step in part.steps(self.part_ctx(ctx, part), out)]

    def check(self, ctx, out: Path, rerun) -> list[tuple[str, bool, str]]:
        return [c for part in self.parts for c in part.check(self.part_ctx(ctx, part), out, rerun)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("curation", PoolChain(), JudgeMock()),
        Workload("analysis", RunlogChain(), TheoryVerify()),
    )
}
