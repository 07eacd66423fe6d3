#!/usr/bin/env python3
"""Walkthrough: build a corpus, sample a token-budgeted pool, filter it.

Five filter families are applied both in isolation and as a pipeline,
with per-stage retention accounting, mirroring how heuristic cleaning
plus dedup plus a quality cut whittles a web crawl down to a few
percent of its documents.
"""

import random

from poollab import (
    Document,
    FilterConfig,
    Pool,
    build_stages,
    builtin_english_scorer,
    profile,
    run_pipeline,
    sample_pool,
)

#: Stage lineups of the two composite filters: heuristic cleaning, and that
#: plus exact dedup and a quality-classifier cut.
REFINEDWEB_STAGES = ("english", "repetition", "stopword")
DCLM_STAGES = REFINEDWEB_STAGES + ("dedup", "quality")

FUNCTION_WORDS = ["the", "be", "to", "of", "and", "that", "have", "with", "a", "in"]
CONTENT_WORDS = [
    "model", "data", "market", "river", "music", "garden", "science", "history",
    "window", "mountain", "evening", "question", "teacher", "machine", "engine",
]
ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def english_text(rng, n_words):
    words = []
    for _ in range(n_words):
        pool = FUNCTION_WORDS if rng.random() < 0.4 else CONTENT_WORDS
        words.append(rng.choice(pool))
    return " ".join(words)


def gibberish_text(rng, n_words):
    return " ".join(
        "".join(rng.choice(ALPHABET) for _ in range(rng.randint(3, 8)))
        for _ in range(n_words)
    )


def main():
    rng = random.Random(0)

    # a mixed corpus: clean English, gibberish, spammy repetition, duplicates
    docs = []
    for i in range(300):
        docs.append(Document(f"clean-{i}", english_text(rng, rng.randint(30, 80))))
    for i in range(80):
        docs.append(Document(f"junk-{i}", gibberish_text(rng, rng.randint(30, 80))))
    for i in range(40):
        line = english_text(rng, 8)
        docs.append(Document(f"spam-{i}", "\n".join([line] * 6)))
    for i in range(30):
        docs.append(Document(f"dupe-{i}", docs[i].text))

    print(f"corpus: {len(docs)} documents, {sum(d.token_count for d in docs)} tokens")

    pool = sample_pool(docs, target_tokens=15_000, seed=42, label="demo-pool")
    print(f"pool:   {len(pool)} documents, {pool.total_tokens} tokens (seed 42)\n")

    cfg = profile("gopher")  # named threshold profile; every number overridable
    print(f"profile 'gopher': english >= {cfg.english_threshold}, "
          f"stopwords >= {cfg.stopword_min_count}, quality keep {cfg.quality_keep_fraction}")

    # each filter alone
    print("\nsingle-stage retention on the pool:")
    for name in DCLM_STAGES:
        result = run_pipeline(pool, build_stages([name], cfg))
        stats = result.per_stage[0][1]
        print(f"  {name:10s} keeps {stats.docs_kept:4d}/{stats.docs_in} docs "
              f"({stats.retention_tokens:6.1%} of tokens)")

    # the composed pipelines
    for label, stages in [("refinedweb-like", REFINEDWEB_STAGES), ("dclm-like", DCLM_STAGES)]:
        result = run_pipeline(pool, build_stages(stages, cfg))
        print(f"\n{label} pipeline ({' -> '.join(result.stage_order)}):")
        for name, stats in result.per_stage:
            print(f"  after {name:10s}: {stats.docs_kept:4d} docs "
                  f"({stats.retention_tokens:6.1%} of stage input tokens)")
        print(f"  cumulative token retention: {result.cumulative.retention_tokens:.1%}")

    # scorers are pluggable; the built-in is a wordlist hit rate
    scorer = builtin_english_scorer()
    for text in ["the market price of the garden", "zzkw qpl vnrtx"]:
        print(f"\nenglish score {scorer.score(text):.2f}  <-  {text!r}")


if __name__ == "__main__":
    main()
