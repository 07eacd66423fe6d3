"""Seeded inputs for the benchmark's four chains.

Every file written here is a pure function of (chain, seed, size):
the same arguments always give byte-identical files.  Nothing imports
poollab, ``tests/worldgen.py`` or ``tools/gen_fixture.py``, so edits to the
package's tests or tools cannot change what the benchmark feeds the
program.  ``words.txt`` is a frozen copy of the package's English word
list, which makes the generated prose pass the English filter.

Each generator returns a description of what it wrote: the sizes that go
into the provenance record and the planted answers the correctness gate
compares the program's outputs against.  The program itself only ever
sees the files.
"""

from __future__ import annotations

import json
import math
import random
import string
from pathlib import Path

HERE = Path(__file__).resolve().parent

SIZES = {
    "full": {
        "pool_target_tokens": 60_000,
        "runlog_cells_per_model": 120,
        "runlog_pool_grid": 40,
        "runlog_filtered_grid": 30,
        "judge_docs": 1_500,
        "judge_qa_items": 100,
        "theory_trials": 1,
    },
    # The self-test size: every code path, a fraction of a second per step.
    "tiny": {
        "pool_target_tokens": 6_000,
        "runlog_cells_per_model": 6,
        "runlog_pool_grid": 8,
        "runlog_filtered_grid": 6,
        "judge_docs": 120,
        "judge_qa_items": 12,
        "theory_trials": 1,
    },
}

# verify-theory trial seeds are not drawn from the workload seed: one
# rank-necessity trial costs 0.004 s to 5 s depending on its seed, so a
# seed-varied window would swamp every timing with input variance.
THEORY_TRIAL_SEED = 0

FUNCTION_WORDS = ("the", "be", "to", "of", "and", "that", "have", "with", "a", "in")
STOPWORDS = FUNCTION_WORDS[:8]

#: Copy of the package's bundled reference model configurations.  The
#: run logs embed them, and ``scaling-law --method tpp`` looks the same
#: sizes up in its own bundled copy, so a drift between the two shows as
#: a failed run, not as silently different inputs.
MODEL_CONFIGS = (
    {"name": "15M", "hidden_dim": 128, "layers": 8, "heads": 8, "head_dim": 16,
     "ffn_dim": 512, "vocab_size": 50432, "total_params": 15009920,
     "non_embedding_params": 2099328},
    {"name": "80M", "hidden_dim": 512, "layers": 8, "heads": 8, "head_dim": 64,
     "ffn_dim": 1536, "vocab_size": 50432, "total_params": 78914048,
     "non_embedding_params": 27271680},
    {"name": "330M", "hidden_dim": 1024, "layers": 18, "heads": 16, "head_dim": 64,
     "ffn_dim": 2816, "vocab_size": 50432, "total_params": 334533632,
     "non_embedding_params": 231248896},
    {"name": "1B", "hidden_dim": 2048, "layers": 17, "heads": 16, "head_dim": 128,
     "ffn_dim": 5632, "vocab_size": 50432, "total_params": 1080104960,
     "non_embedding_params": 873535488},
    {"name": "7B", "hidden_dim": 4096, "layers": 32, "heads": 32, "head_dim": 128,
     "ffn_dim": 11008, "vocab_size": 50432, "total_params": 6889410560,
     "non_embedding_params": 6476271616},
)
TPP_RATIO = 600.0  # scaling-law's default --ratio
EPOCHS = 4.0  # scaling-law's default --epochs
EVAL_SET = "val"


def load_words() -> list[str]:
    return (HERE / "words.txt").read_text("utf-8").split()


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _geomspace(lo: float, hi: float, n: int) -> list[int]:
    """``n`` integers spaced geometrically from ``lo`` to ``hi``, deduplicated."""
    return sorted({int(round(lo * (hi / lo) ** (i / (n - 1)))) for i in range(n)})


# ---------------------------------------------------------------------------
# pool-chain: the fixture's document mix, scaled to a token budget.
# ---------------------------------------------------------------------------


class _DocMix:
    """Clean prose, random junk, repetitive, low stop-word, duplicate and
    mixed documents in the proportions of the package's 1k fixture."""

    KINDS = ("clean", "junk", "repetitive", "low_stopword", "duplicate", "mixed")
    WEIGHTS = (48, 15, 12, 12, 8, 5)

    def __init__(self, rng: random.Random, words: list[str]):
        self.rng = rng
        self.words = words
        self.content_words = [w for w in words if w not in STOPWORDS]
        self.clean_texts: list[str] = []

    def _sentence(self, n: int) -> str:
        rng = self.rng
        out = [
            rng.choice(FUNCTION_WORDS) if rng.random() < 0.35 else rng.choice(self.words)
            for _ in range(n)
        ]
        if n > 4 and rng.random() < 0.3:
            out[rng.randrange(1, n - 1)] += ","
        return " ".join(out) + "."

    def _gibberish(self) -> str:
        return "".join(self.rng.choice(string.ascii_lowercase) for _ in range(self.rng.randint(3, 8)))

    def clean(self) -> str:
        rng = self.rng
        text = "\n\n".join(
            "\n".join(self._sentence(rng.randint(8, 14)) for _ in range(rng.randint(2, 5)))
            for _ in range(rng.randint(1, 4))
        )
        self.clean_texts.append(text)
        return text

    def junk(self) -> str:
        return " ".join(self._gibberish() for _ in range(self.rng.randint(30, 120)))

    def repetitive(self) -> str:
        rng = self.rng
        flavor = rng.randrange(3)
        if flavor == 0:  # one line repeated
            lines = [self._sentence(rng.randint(6, 10))] * rng.randint(4, 8)
            lines.append(self._sentence(rng.randint(6, 10)))
            rng.shuffle(lines)
            return "\n".join(lines)
        if flavor == 1:  # one paragraph repeated
            para = "\n".join(self._sentence(rng.randint(6, 10)) for _ in range(2))
            return "\n\n".join([para] * rng.randint(3, 5))
        phrase = " ".join(rng.choice(self.words) for _ in range(6))
        return " ".join([phrase] * rng.randint(6, 12))

    def low_stopword(self) -> str:
        return " ".join(self.rng.choice(self.content_words) for _ in range(self.rng.randint(25, 80)))

    def duplicate(self) -> str:
        # exact or trailing-whitespace copy of an earlier clean document
        if not self.clean_texts:
            return self.clean()
        text = self.rng.choice(self.clean_texts)
        return text + ("\n" if self.rng.random() < 0.5 else "")

    def mixed(self) -> str:
        rng = self.rng
        share = rng.choice((0.35, 0.45, 0.55, 0.65))
        return " ".join(
            rng.choice(self.words) if rng.random() < share else self._gibberish()
            for _ in range(rng.randint(30, 90))
        )

    def documents(self, prefix: str, min_tokens: int) -> tuple[list[dict], int]:
        docs, tokens = [], 0
        while tokens < min_tokens:
            kind = self.rng.choices(self.KINDS, weights=self.WEIGHTS)[0]
            text = getattr(self, kind)()
            docs.append({"id": f"{prefix}-{len(docs):06d}", "text": text, "source": "pool"})
            tokens += len(text.split())
        return docs, tokens


def pool_chain_inputs(seed: int, size: str, out: Path) -> dict:
    rng = random.Random(f"pool-chain:{seed}")
    target = SIZES[size]["pool_target_tokens"]
    mix = _DocMix(rng, load_words())
    corpus, corpus_tokens = mix.documents("src", int(1.25 * target))
    # The shuffled-docs injection needs as many tokens as the filtered pool
    # holds; the quality cut keeps at most a sixth of the sample.
    junk, junk_tokens = mix.documents("jnk", int(0.3 * target))
    _write_jsonl(out / "corpus.jsonl", corpus)
    _write_jsonl(out / "junk_source.jsonl", junk)
    return {
        "target_tokens": target,
        "sizes": {
            "docs": len(corpus) + len(junk),
            "tokens": corpus_tokens + junk_tokens,
            "sample_target_tokens": target,
        },
    }


# ---------------------------------------------------------------------------
# runlog-chain: run logs generated from a planted threshold law.
# ---------------------------------------------------------------------------


def _quadratic_through(p1, p2, curvature: float) -> tuple[float, float, float]:
    (x1, y1), (x2, y2) = p1, p2
    c1 = (y2 - y1) / (x2 - x1) - curvature * (x1 + x2)
    return curvature, c1, y1 - curvature * x1 * x1 - c1 * x1


def _model_quadratic(rng, cfg: dict, log_alpha: float, beta: float):
    """This model's log10-log10 crossing quadratic, through the pool sizes
    where the planted law meets the fixed-epoch and the fixed
    tokens-per-parameter constraints, with its own curvature."""
    m = cfg["total_params"]
    x_e = (math.log10(6.0 * EPOCHS * m) - log_alpha) / (beta - 1.0)
    y_e = x_e + math.log10(EPOCHS)
    crossing_t = TPP_RATIO * cfg["non_embedding_params"]
    y_t = math.log10(crossing_t)
    x_t = (math.log10(6.0 * crossing_t * m) - log_alpha) / beta
    for _ in range(100):
        c2, c1, c0 = _quadratic_through((x_e, y_e), (x_t, y_t), rng.uniform(-0.30, -0.12))
        # both constraint points on the branch the smaller-root solves pick
        if x_t < -c1 / (2 * c2) and x_e < -(c1 - 1.0) / (2 * c2):
            return (c2, c1, c0), min(x_e, x_t) - 0.4, max(x_e, x_t) + 0.3
    raise RuntimeError(f"no consistent quadratic for model {cfg['name']}")


def _record(label: str, cfg: dict, pool_tokens: int, curve: list[tuple[int, float]]) -> dict:
    return {
        "dataset_label": label,
        "model": cfg,
        "train_tokens": curve[-1][0],
        "pool_tokens": pool_tokens,
        "eval_points": [{"tokens_seen": n, "losses": {EVAL_SET: loss}} for n, loss in curve],
    }


def _cell_records(rng, cfg: dict, pool_tokens: int, crossing: float, kind: str, grid_n: int, filtered_n: int):
    """Two pool runs and two filtered runs whose crossing is planted.

    The pool follows ``c + a * N**-b``.  An observed cell puts an eval point
    exactly on the crossing; an extrapolated cell stops the pool runs at a
    third of it, so the crossing comes from the power-law fit; a never
    cell puts the filtered target under the pool's asymptote.
    """
    c, b, gap = rng.uniform(1.8, 2.6), rng.uniform(0.25, 0.45), rng.uniform(0.3, 1.2)
    if kind == "observed":
        crossing = float(round(crossing))
        grid = sorted(set(_geomspace(crossing / 50, crossing * 4, grid_n)) | {int(crossing)})
    elif kind == "extrapolated":
        grid = _geomspace(crossing / 300, crossing / 3, grid_n)
    else:
        grid = _geomspace(crossing / 300, crossing * 3, grid_n)
    a = gap * crossing**b

    def pool_loss(n: float) -> float:
        return c + a * n ** (-b)

    if kind == "observed":
        at = grid.index(int(crossing))
        target = (pool_loss(grid[at]) + pool_loss(grid[at - 1])) / 2
        if not pool_loss(grid[at]) < target < pool_loss(grid[at - 1]):
            raise RuntimeError("observed crossing is not separable on the eval grid")
    elif kind == "extrapolated":
        target = pool_loss(crossing)
    else:
        target = c - rng.uniform(0.05, 0.3)

    filtered_grid = _geomspace(crossing / 60, crossing, filtered_n)
    end, b_f = filtered_grid[-1], rng.uniform(0.2, 0.5)
    a_f = rng.uniform(0.3, 1.0) * end**b_f
    # the last eval point is exactly the target: a_f * 0.0 adds nothing
    filtered = [(n, target + a_f * (n ** (-b_f) - end ** (-b_f))) for n in filtered_grid]
    pool = [(n, pool_loss(n)) for n in grid]
    return [
        _record("pool", cfg, pool_tokens, pool[: len(pool) // 2]),
        _record("pool", cfg, pool_tokens, pool),
        _record("filtered", cfg, pool_tokens, filtered[: len(filtered) // 2]),
        _record("filtered", cfg, pool_tokens, filtered),
    ], (None if kind == "never" else crossing)


def runlog_chain_inputs(seed: int, size: str, out: Path) -> dict:
    rng = random.Random(f"runlog-chain:{seed}")
    sizes = SIZES[size]
    alpha, beta = rng.uniform(2.0, 5.0), rng.uniform(1.95, 2.15)
    n_cells = sizes["runlog_cells_per_model"]
    records, cells = [], []
    for cfg in MODEL_CONFIGS:
        coeffs, lo, hi = _model_quadratic(rng, cfg, math.log10(alpha), beta)
        kinds = ["observed", "extrapolated", "never"] + [
            rng.choices(("observed", "extrapolated", "never"), weights=(45, 43, 12))[0]
            for _ in range(n_cells - 3)
        ]
        rng.shuffle(kinds)
        for j, kind in enumerate(kinds):
            pool_tokens = int(round(10 ** (lo + (hi - lo) * (j + rng.uniform(0.2, 0.8)) / n_cells)))
            x = math.log10(pool_tokens)
            planted = 10 ** (coeffs[0] * x * x + coeffs[1] * x + coeffs[2])
            cell_records, crossing = _cell_records(
                rng, cfg, pool_tokens, planted, kind,
                sizes["runlog_pool_grid"], sizes["runlog_filtered_grid"],
            )
            records += cell_records
            cells.append({
                "model_params": cfg["total_params"],
                "pool_tokens": pool_tokens,
                "kind": kind,
                "crossing_tokens": crossing,
            })
    rng.shuffle(records)
    _write_jsonl(out / "runs.jsonl", records)
    return {
        "alpha": alpha,
        "beta": beta,
        "cells": cells,
        "models": len(MODEL_CONFIGS),
        "sizes": {"records": len(records), "cells": len(cells)},
    }


# ---------------------------------------------------------------------------
# judge-mock: a Zipf-distributed pool and QA items from rare to common words.
# ---------------------------------------------------------------------------

LOG_MIN_RANK = math.log(5)
SUBJECTS = ("astronomy", "biology", "chemistry", "geography", "history", "music")


def judge_mock_inputs(seed: int, size: str, out: Path) -> dict:
    rng = random.Random(f"judge-mock:{seed}")
    sizes = SIZES[size]
    vocab = load_words()
    rng.shuffle(vocab)  # position in the shuffled list is the word's frequency rank
    cum_weights, total = [], 0.0
    for rank in range(len(vocab)):
        total += 1.0 / (rank + 1)
        cum_weights.append(total)

    def draw(k: int) -> list[str]:
        return rng.choices(vocab, cum_weights=cum_weights, k=k)

    docs, tokens = [], 0
    for i in range(sizes["judge_docs"]):
        sentences = []
        for _ in range(rng.randint(3, 12)):
            words = draw(rng.randint(8, 14))
            sentences.append(" ".join([words[0].capitalize()] + words[1:]) + ".")
        text = " ".join(sentences)
        tokens += len(text.split())
        docs.append({"id": f"jdg-{i:06d}", "text": text, "source": "pool"})

    qa_items = []
    log_v = math.log(len(vocab))
    for i in range(sizes["judge_qa_items"]):
        keywords: list[str] = []
        for _ in range(rng.choice((1, 2, 2))):
            # log-uniform rank past the few words nearly every document has
            word = vocab[min(len(vocab) - 1, int(math.exp(rng.uniform(LOG_MIN_RANK, log_v))))]
            if word not in keywords:
                keywords.append(word)
        qa_items.append({
            "subject": rng.choice(SUBJECTS),
            "question": f"question {i}: what links {' and '.join(keywords)} to {draw(1)[0]}?",
            "answer": " ".join(draw(rng.randint(1, 2))),
            "keywords": keywords,
        })
    _write_jsonl(out / "judge_pool.jsonl", docs)
    _write_jsonl(out / "qa.jsonl", qa_items)
    return {"sizes": {"docs": len(docs), "tokens": tokens, "qa_items": len(qa_items)}}


def theory_verify_inputs(seed: int, size: str, out: Path) -> dict:
    trials = SIZES[size]["theory_trials"]
    return {
        "trials": trials,
        "trial_seed": THEORY_TRIAL_SEED,
        "sizes": {"prop1_trials": trials, "filter_fact_trials": trials},
    }


GENERATORS = {
    "pool-chain": pool_chain_inputs,
    "runlog-chain": runlog_chain_inputs,
    "theory-verify": theory_verify_inputs,
    "judge-mock": judge_mock_inputs,
}


def make_inputs(chain: str, seed: int, size: str, out: Path) -> dict:
    """Write ``chain``'s inputs for ``seed`` into ``out``; describe them."""
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[chain](seed, size, out)
