#!/usr/bin/env python3
"""Walkthrough: generate junk data and mix it into a pool at token ratios.

Two junk families: random-string documents built from a synthetic
10,000-word vocabulary, and real documents with shuffled word order.
Shuffling destroys word order but preserves each document's word
frequencies exactly, which is why shuffled data still carries signal.
"""

import random
from collections import Counter

from poollab import (
    Document,
    InjectionSpec,
    JunkKind,
    Pool,
    build_vocab,
    gen_random_document,
    inject,
    random_junk_stream,
    shuffle_document,
    shuffled_junk_stream,
)


def main():
    rng = random.Random(1)
    vocab = build_vocab(seed=7)
    print(f"vocabulary: {len(vocab.words)} distinct words, e.g. {vocab.words[:6]}")

    sample = gen_random_document(vocab, n_words=12, seed=3)
    print(f"random-string doc: {sample.text!r}\n")

    doc = Document("d0", "the capital of france is paris and the river is the seine")
    shuffled = shuffle_document(doc, seed=9)
    print(f"original: {doc.text}")
    print(f"shuffled: {shuffled.text}")
    print(f"word frequencies preserved: "
          f"{Counter(doc.text.split()) == Counter(shuffled.text.split())}\n")

    # a 5,000-token pool and three injection ratios
    pool_docs = [
        Document(f"cc-{i}", " ".join(f"tok{rng.randint(0, 200)}" for _ in range(25)))
        for i in range(200)
    ]
    pool = Pool(documents=pool_docs, seed=0, label="cc")
    extra_docs = [
        Document(f"extra-{i}", " ".join(f"tok{rng.randint(0, 200)}" for _ in range(25)))
        for i in range(5000)
    ]

    print(f"pool: {len(pool)} docs, {pool.total_tokens} tokens")
    for ratio in (0.2, 2.0, 8.0):
        spec = InjectionSpec(kind=JunkKind.SHUFFLED_DOCS, ratio=ratio, seed=11)
        mixed = inject(pool, spec, shuffled_junk_stream(extra_docs, seed=11))
        share = pool.total_tokens / mixed.total_tokens
        print(f"  {mixed.label:18s}: {mixed.total_tokens:6d} tokens, "
              f"original share {share:.1%}")

    spec = InjectionSpec(kind=JunkKind.RANDOM_STRINGS, ratio=2.0, seed=13)
    mixed = inject(pool, spec, random_junk_stream(pool, vocab, seed=13))
    print(f"  {mixed.label:18s}: {mixed.total_tokens:6d} tokens "
          f"(lengths matched to the pool's distribution)")


if __name__ == "__main__":
    main()
