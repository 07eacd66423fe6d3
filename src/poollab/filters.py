"""Composable per-document corpus filters with retention accounting.

Five filter families are provided: an English-score threshold, a
repetition filter over lines/paragraphs/n-grams, a stop-word floor,
exact deduplication, and a score-ranked quality cut.  Every stage runs
on the calling thread: the per-document filters are pure Python and
hold the interpreter lock, so worker threads cannot speed them up.

A :class:`FilterConfig` is checked when built and cannot change after.
A per-document filter returns the rules a document failed; none: kept.

Boundary convention: a fraction exactly equal to its threshold is kept.
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, lru_cache
from importlib import resources
from operator import sub
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .corpus import WORD_RE, Document, Pool
from .errors import ValidationError

#: The stop words of the Gopher recipe (Rae et al. 2021, App. A).
DEFAULT_STOPWORDS = frozenset(("the", "be", "to", "of", "and", "that", "have", "with"))

#: Line/paragraph/n-gram thresholds from the Gopher curation recipe; the
#: granularities are fixed but every number is configurable.
GOPHER_REPETITION_THRESHOLDS = {
    "duplicate_line": 0.30,
    "duplicate_paragraph": 0.30,
    "top_2gram": 0.20,
    "top_3gram": 0.18,
    "top_4gram": 0.16,
    "dup_5gram": 0.15,
    "dup_6gram": 0.14,
    "dup_7gram": 0.13,
    "dup_8gram": 0.12,
    "dup_9gram": 0.11,
    "dup_10gram": 0.10,
}

REPETITION_GRANULARITIES = tuple(GOPHER_REPETITION_THRESHOLDS)

_NONSPACE_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class DocumentScorer:
    """Named deterministic text -> score-in-[0,1] function."""

    name: str
    score: Callable[[str], float]


@dataclass(frozen=True)
class FilterConfig:
    """Filter thresholds; all 11 repetition ones, as a read-only copy."""

    english_threshold: float = 0.5
    stopword_min_count: int = 2
    # Count the total across the list by default; set True to require
    # `stopword_min_count` *distinct* stop words instead.
    stopword_distinct: bool = False
    repetition_thresholds: Mapping[str, float] = field(
        default_factory=lambda: GOPHER_REPETITION_THRESHOLDS
    )
    quality_keep_fraction: float = 0.16

    def __post_init__(self) -> None:
        if not 0.0 <= self.english_threshold <= 1.0:
            raise ValidationError(
                f"english_threshold must be in [0,1], got {self.english_threshold}"
            )
        if self.stopword_min_count < 0:
            raise ValidationError("stopword_min_count must be >= 0")
        thresholds = MappingProxyType(dict(self.repetition_thresholds))
        for name, thr in thresholds.items():
            if name not in REPETITION_GRANULARITIES:
                raise ValidationError(f"unknown repetition threshold {name!r}")
            if not 0.0 <= thr <= 1.0:
                raise ValidationError(f"repetition threshold {name} must be in [0,1], got {thr}")
        missing = [name for name in REPETITION_GRANULARITIES if name not in thresholds]
        if missing:
            raise ValidationError(f"repetition_thresholds missing granularities: {missing}")
        if not 0.0 < self.quality_keep_fraction <= 1.0:
            raise ValidationError(
                f"quality_keep_fraction must be in (0,1], got {self.quality_keep_fraction}"
            )
        object.__setattr__(self, "repetition_thresholds", thresholds)


#: Named threshold profiles selectable via the CLI --profile flag.
PROFILES: dict[str, FilterConfig] = {
    "gopher": FilterConfig(),
    "permissive": FilterConfig(
        english_threshold=0.0,
        repetition_thresholds={name: 1.0 for name in REPETITION_GRANULARITIES},
        quality_keep_fraction=1.0,
    ),
}


def profile(name: str) -> FilterConfig:
    if name not in PROFILES:
        raise ValidationError(f"unknown profile {name!r}; available: {sorted(PROFILES)}")
    return PROFILES[name]


@dataclass(frozen=True)
class FilterStats:
    docs_in: int
    docs_kept: int
    tokens_in: int
    tokens_kept: int

    @property
    def retention_docs(self) -> float:
        return self.docs_kept / self.docs_in if self.docs_in > 0 else 1.0

    @property
    def retention_tokens(self) -> float:
        return self.tokens_kept / self.tokens_in if self.tokens_in > 0 else 1.0

    @classmethod
    def from_pools(cls, before: Pool, after: Pool) -> "FilterStats":
        return cls(
            docs_in=len(before),
            docs_kept=len(after),
            tokens_in=before.total_tokens,
            tokens_kept=after.total_tokens,
        )


# ---------------------------------------------------------------------------
# Built-in English scorer: fraction of words found in a bundled wordlist.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _english_words() -> frozenset[str]:
    data = resources.files("poollab.data").joinpath("english_wordlist.txt").read_text("utf-8")
    return frozenset(w for w in data.split() if w)


def _wordlist_score(text: str) -> float:
    words = text.split()
    if not words:
        return 0.0
    vocab = _english_words()
    hits = sum(1 for w in words if w.lower().strip(string.punctuation) in vocab)
    return hits / len(words)


def builtin_english_scorer() -> DocumentScorer:
    """Wordlist-hit-rate scorer; a stand-in for a trained classifier."""
    return DocumentScorer(name="wordlist-english", score=_wordlist_score)


# ---------------------------------------------------------------------------
# Per-document filters.
# ---------------------------------------------------------------------------

def stopword_filter(doc: Document, cfg: FilterConfig) -> tuple[str, ...]:
    """Keep documents with enough whole-word stop-word occurrences.

    Matching is case-insensitive on ``\\w+`` tokens; by default the count
    is the total across the list, not per-word.
    """
    tokens = WORD_RE.findall(doc.text.lower())
    if cfg.stopword_distinct:
        count = len(DEFAULT_STOPWORDS.intersection(tokens))
    else:
        count = sum(1 for t in tokens if t in DEFAULT_STOPWORDS)
    return () if count >= cfg.stopword_min_count else ("stopword",)


def _dedup_fraction(items: list[str]) -> float:
    if not items:
        return 0.0
    return (len(items) - len(set(items))) / len(items)


def _covered_fraction(spans: list[tuple[int, int]], text_len: int) -> float:
    # Length of the union of character spans, so overlapping occurrences
    # never push the fraction above 1.
    if not spans or text_len == 0:
        return 0.0
    covered = reach = 0
    for start, end in sorted(spans):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered / text_len


def repetition_fractions(doc: Document) -> dict[str, float]:
    """Duplicate-content fractions at every repetition granularity.

    Returns a value in [0, 1] for each key in
    :data:`REPETITION_GRANULARITIES`:

    - ``duplicate_line`` / ``duplicate_paragraph``: (segments - distinct
      segments) / segments, over newline-split lines and blank-line-split
      paragraphs (whitespace-only segments dropped).
    - ``top_{n}gram`` for n in 2..4: characters covered by occurrences of
      the most frequent word n-gram, divided by total characters.  Ties
      on frequency resolve to the n-gram covering the most characters.
    - ``dup_{n}gram`` for n in 5..10: characters covered by any word
      n-gram occurring at least twice, divided by total characters.

    Word spans include the whitespace between the words of an n-gram; an
    empty document yields all zeros.

    The n-grams are counted in one pass that grows n from 2 to 10.  Words
    are interned to integer ids, and the id of the n-gram at a position
    is looked up from the pair (id of the (n-1)-gram there, id of the
    n-th word).  Only positions whose (n-1)-gram occurs at least twice
    are extended, since an n-gram can repeat only if its prefix does.
    When no n-gram repeats, the top n-gram fraction is the longest single
    n-word span.  Coverage is the length of the union of character spans,
    so every fraction equals the brute-force count exactly.
    """
    text = doc.text
    out: dict[str, float] = {}

    lines = [ln for ln in text.split("\n") if ln.strip()]
    out["duplicate_line"] = _dedup_fraction(lines)
    paragraphs = [p for p in re.split(r"\n\s*\n", text) if p.strip()]
    out["duplicate_paragraph"] = _dedup_fraction(paragraphs)

    text_len = len(text)
    starts: list[int] = []
    ends: list[int] = []
    word_ids: list[int] = []
    vocab: dict[str, int] = {}
    for m in _NONSPACE_RE.finditer(text):
        starts.append(m.start())
        ends.append(m.end())
        word_ids.append(vocab.setdefault(m.group(), len(vocab)))
    n_words = len(word_ids)

    # Positions whose current (n-1)-gram occurs at least twice, with its id.
    counts = Counter(word_ids)
    positions = [i for i, w in enumerate(word_ids) if counts[w] > 1]
    gram_ids = [word_ids[i] for i in positions]
    for n in range(2, 11):
        last = n - 1
        pair_ids: dict[tuple[int, int], int] = {}
        # Positions ascend, so those too near the end for n words are a
        # suffix, and zip below pairs the rest with their ids.
        positions = [i for i in positions if i + last < n_words]
        gram_ids = [
            pair_ids.setdefault((g, word_ids[i + last]), len(pair_ids))
            for i, g in zip(positions, gram_ids)
        ]
        counts = Counter(gram_ids)
        repeated = [(i, g) for i, g in zip(positions, gram_ids) if counts[g] > 1]
        if n <= 4:
            out[f"top_{n}gram"] = _top_fraction(repeated, counts, starts, ends, last, text_len)
        else:
            spans = [(starts[i], ends[i + last]) for i, _ in repeated]
            out[f"dup_{n}gram"] = _covered_fraction(spans, text_len)
        positions = [i for i, _ in repeated]
        gram_ids = [g for _, g in repeated]
    return out


def _top_fraction(
    repeated: list[tuple[int, int]],
    counts: Counter[int],
    starts: list[int],
    ends: list[int],
    last: int,
    text_len: int,
) -> float:
    # ``repeated`` holds every (position, n-gram id) whose n-gram occurs at
    # least twice; n-grams absent from it occur once.
    if len(ends) <= last:
        return 0.0
    if not repeated:
        return max(map(sub, ends[last:], starts)) / text_len
    top_count = max(counts.values())
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for i, g in repeated:
        if counts[g] == top_count:
            occurrences.setdefault(g, []).append((starts[i], ends[i + last]))
    return max(_covered_fraction(spans, text_len) for spans in occurrences.values())


def repetition_filter(doc: Document, cfg: FilterConfig) -> tuple[str, ...]:
    """Keep documents whose repetition fractions all stay at or below threshold."""
    thresholds = cfg.repetition_thresholds
    fractions = repetition_fractions(doc)
    return tuple(name for name, frac in fractions.items() if frac > thresholds[name])


def english_filter(doc: Document, scorer: DocumentScorer, cfg: FilterConfig) -> tuple[str, ...]:
    """Keep documents whose score reaches ``cfg.english_threshold``."""
    return () if scorer.score(doc.text) >= cfg.english_threshold else ("english",)


# ---------------------------------------------------------------------------
# Pool-level filters (single sequential pass).
# ---------------------------------------------------------------------------


def exact_dedup(pool: Pool) -> Pool:
    """Keep the first occurrence of each distinct outer-whitespace-trimmed text."""
    seen: set[str] = set()
    kept: list[Document] = []
    for doc in pool.documents:
        key = doc.text.strip()
        if key not in seen:
            seen.add(key)
            kept.append(doc)
    return pool.replace_documents(kept)


def quality_filter(pool: Pool, scorer: DocumentScorer, cfg: FilterConfig) -> Pool:
    """Keep the ceil(cfg.quality_keep_fraction * docs) highest-scoring documents.

    Score ties at the cut are broken by ascending doc id; survivors keep
    their original pool order.
    """
    if not pool.documents:
        return pool.replace_documents([])
    n_keep = math.ceil(cfg.quality_keep_fraction * len(pool.documents))
    ranked = sorted(
        pool.documents, key=lambda d: (-scorer.score(d.text), d.id)
    )
    keep_ids = {d.id for d in ranked[:n_keep]}
    return pool.replace_documents([d for d in pool.documents if d.id in keep_ids])


# ---------------------------------------------------------------------------
# Pipeline: an ordered list of named stages, each Pool -> Pool.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineStage:
    """A named ``apply(pool, threads) -> pool`` step; built-in stages ignore ``threads``."""

    name: str
    apply: Callable[[Pool, int], Pool]


def build_stages(
    names: Sequence[str],
    cfg: FilterConfig,
    scorer: DocumentScorer | None = None,
) -> list[PipelineStage]:
    """Instantiate stages by name using ``cfg`` thresholds and ``scorer``.

    The ``english`` and ``quality`` stages share one scorer that scores
    each distinct text once for the lifetime of the returned stages, so
    ``quality`` does not rescore what ``english`` already scored.  A name
    listed twice is a :class:`ValidationError`.
    """
    scorer = scorer or builtin_english_scorer()
    scorer = DocumentScorer(name=scorer.name, score=cache(scorer.score))

    def per_document(failed: Callable[[Document], tuple[str, ...]]) -> Callable[[Pool, int], Pool]:
        def apply(pool: Pool, threads: int) -> Pool:
            return pool.replace_documents([doc for doc in pool.documents if not failed(doc)])

        return apply

    applies: dict[str, Callable[[Pool, int], Pool]] = {
        "english": per_document(lambda d: english_filter(d, scorer, cfg)),
        "repetition": per_document(lambda d: repetition_filter(d, cfg)),
        "stopword": per_document(lambda d: stopword_filter(d, cfg)),
        "dedup": lambda pool, _: exact_dedup(pool),
        "quality": lambda pool, _: quality_filter(pool, scorer, cfg),
    }
    stages: list[PipelineStage] = []
    for name in names:
        if name not in applies:
            raise ValidationError(f"unknown stage {name!r}; available: {sorted(applies)}")
        if any(stage.name == name for stage in stages):
            raise ValidationError(f"stage {name!r} is listed twice")
        stages.append(PipelineStage(name, applies[name]))
    return stages


#: Stats CSV columns: the stage name, then :class:`FilterStats` attributes.
STATS_COLUMNS = (
    "stage",
    "docs_in",
    "docs_kept",
    "tokens_in",
    "tokens_kept",
    "retention_docs",
    "retention_tokens",
)


@dataclass
class PipelineResult:
    pool: Pool
    per_stage: list[tuple[str, FilterStats]]
    cumulative: FilterStats

    @property
    def stage_order(self) -> list[str]:
        return [name for name, _ in self.per_stage]

    def stats_rows(self) -> list[dict[str, object]]:
        """Rows for the stats CSV, one per stage plus a cumulative row."""
        return [
            {"stage": name, **{column: getattr(stats, column) for column in STATS_COLUMNS[1:]}}
            for name, stats in self.per_stage + [("cumulative", self.cumulative)]
        ]


def run_pipeline(pool: Pool, stages: Sequence[PipelineStage], threads: int = 1) -> PipelineResult:
    """Apply ``stages`` in order, recording per-stage and cumulative stats.

    ``threads`` goes to each ``apply``; the built-in stages run on one thread.
    """
    if not stages:
        raise ValidationError("pipeline requires at least one stage")
    current = pool
    per_stage: list[tuple[str, FilterStats]] = []
    for stage in stages:
        next_pool = stage.apply(current, threads)
        per_stage.append((stage.name, FilterStats.from_pools(current, next_pool)))
        current = next_pool
    return PipelineResult(
        pool=current,
        per_stage=per_stage,
        cumulative=FilterStats.from_pools(pool, current),
    )
