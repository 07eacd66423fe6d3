"""Junk-data generators and token-ratio injection into pools.

Two junk families: documents of random words drawn from a synthetic
10,000-word vocabulary, and real documents with their word order
shuffled.  Shuffling preserves each document's word multiset exactly,
so only the order (not the unigram distribution) is destroyed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .corpus import Document, DocumentSource, Pool
from .errors import StreamExhaustedError, ValidationError
from .io import natural


def derive_seed(base_seed: int, *tags: object) -> int:
    """Stable per-item seed from a base seed and identifying tags.

    Uses sha256 rather than hash() so streams are reproducible across
    processes regardless of PYTHONHASHSEED.
    """
    material = repr((base_seed,) + tags).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")

VOCAB_SIZE = 10_000
WORD_LENGTH_RANGE = (3, 8)
ALPHABET = "abcdefghijklmnopqrstuvwxyz"

#: The largest junk-to-pool token ratio.  The injected pool is held in
#: memory, so an unbounded ratio builds junk until the process is killed.
MAX_INJECTION_RATIO = 100


class JunkKind(str, Enum):
    RANDOM_STRINGS = "random_strings"
    SHUFFLED_DOCS = "shuffled_docs"


@dataclass(frozen=True)
class JunkVocab:
    """Exactly 10,000 distinct lowercase words of length 3..8."""

    words: tuple[str, ...]
    seed: int

    def __post_init__(self) -> None:
        if len(self.words) != VOCAB_SIZE or len(set(self.words)) != VOCAB_SIZE:
            raise ValidationError(f"vocabulary must hold {VOCAB_SIZE} distinct words")


@dataclass(frozen=True)
class InjectionSpec:
    kind: JunkKind
    ratio: float  # junk tokens / pool tokens
    seed: int

    def __post_init__(self) -> None:
        natural("seed", self.seed)
        if not 0 < self.ratio <= MAX_INJECTION_RATIO:  # NaN fails too: a target it can never meet
            raise ValidationError(
                f"injection ratio must be finite, > 0 and <= {MAX_INJECTION_RATIO}, "
                f"got {self.ratio}"
            )


def build_vocab(seed: int) -> JunkVocab:
    """Sample 10,000 distinct words: length uniform in 3..8, chars uniform a-z.

    Collisions are resampled until the vocabulary is distinct, so the
    result is a deterministic function of ``seed``.
    """
    rng = random.Random(natural("vocab seed", seed))
    lo, hi = WORD_LENGTH_RANGE
    words: set[str] = set()
    ordered: list[str] = []
    while len(ordered) < VOCAB_SIZE:
        length = rng.randint(lo, hi)
        word = "".join(rng.choice(ALPHABET) for _ in range(length))
        if word not in words:
            words.add(word)
            ordered.append(word)
    return JunkVocab(words=tuple(ordered), seed=seed)


def gen_random_document(
    vocab: JunkVocab, n_words: int, seed: int, doc_id: str | None = None
) -> Document:
    """A document of ``n_words`` uniform vocabulary draws joined by single spaces."""
    if n_words <= 0:
        raise ValidationError(f"n_words must be positive, got {n_words}")
    rng = random.Random(seed)
    text = " ".join(rng.choice(vocab.words) for _ in range(n_words))
    return Document(doc_id if doc_id is not None else f"random-{seed:x}-{n_words}", text,
                    DocumentSource.RANDOM_JUNK)


def shuffle_document(doc: Document, seed: int) -> Document:
    """Seeded uniform permutation of the document's whitespace-split words.

    Punctuation travels with its word; the word multiset is preserved
    exactly, so per-document word frequencies are unchanged.
    """
    words = doc.text.split()
    rng = random.Random(seed)
    rng.shuffle(words)
    return Document(doc.id, " ".join(words), DocumentSource.SHUFFLED_JUNK)


def random_junk_stream(pool: Pool, vocab: JunkVocab, seed: int) -> Iterator[Document]:
    """Endless random-word documents length-matched to ``pool``.

    Document lengths (in words) are drawn from the pool's empirical
    length distribution so that injection changes content, not shape.
    Per-document RNG streams are keyed by (seed, index).
    """
    lengths = [max(1, d.token_count) for d in pool.documents]
    if not lengths:
        raise ValidationError("cannot length-match junk to an empty pool")
    length_rng = random.Random(derive_seed(seed, "lengths"))
    index = 0
    while True:
        n_words = length_rng.choice(lengths)
        yield gen_random_document(
            vocab, n_words, seed=derive_seed(seed, "random-doc", index),
            doc_id=f"random-{seed}-{index}",
        )
        index += 1


def shuffled_junk_stream(documents: Iterable[Document], seed: int) -> Iterator[Document]:
    """Shuffle each incoming document under a per-document RNG stream."""
    for doc in documents:
        yield shuffle_document(doc, seed=derive_seed(seed, "shuffle-doc", doc.id))


def inject(pool: Pool, spec: InjectionSpec, junk_source: Iterable[Document]) -> Pool:
    """Mix junk into ``pool`` until junk tokens >= ratio * pool tokens.

    Junk documents are appended whole in source order, then the combined
    pool is reshuffled under ``spec.seed``.  Original documents are never
    modified; the label records the injection, e.g. ``"cc+200% shuffled"``.

    Raises:
        ValidationError: a junk document id collides with the pool.
        StreamExhaustedError: the junk source ran out before the ratio
            was met; the error message carries the achieved ratio.
    """
    pool_ids = {d.id for d in pool.documents}
    needed = spec.ratio * pool.total_tokens
    junk_docs: list[Document] = []
    junk_tokens = 0
    for doc in junk_source:
        if junk_tokens >= needed:
            break
        if doc.id in pool_ids:
            raise ValidationError(f"junk document id {doc.id!r} collides with the pool")
        junk_docs.append(doc)
        junk_tokens += doc.token_count
    if junk_tokens < needed:
        achieved = junk_tokens / pool.total_tokens if pool.total_tokens else 0.0
        raise StreamExhaustedError(
            f"junk source exhausted at ratio {achieved:.4f} before target {spec.ratio}",
            achieved_tokens=junk_tokens,
        )

    combined = list(pool.documents) + junk_docs
    rng = random.Random(spec.seed)
    rng.shuffle(combined)
    kind_word = "random" if spec.kind is JunkKind.RANDOM_STRINGS else "shuffled"
    label = f"{pool.label}+{spec.ratio * 100:g}% {kind_word}"
    return Pool(documents=combined, seed=spec.seed, label=label)
