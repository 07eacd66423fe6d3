"""Document model, token counting, and seeded pool sampling.

A corpus is a stream of whole documents; a pool is a token-budgeted,
uniformly shuffled subset of that stream.  Documents are never split:
sampling appends whole documents until the token target is met, so a
pool can overshoot its target by at most one document.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import asdict, dataclass, field
from enum import Enum
from functools import cached_property, partial
from pathlib import Path
from typing import Iterable, Iterator

from .errors import StreamExhaustedError, ValidationError
from .io import natural, one_of, read_json, read_jsonl, read_record, write_json, write_lines

#: A word, as the stop-word filter and the keyword matcher count them.
WORD_RE = re.compile(r"\w+")


class DocumentSource(str, Enum):
    POOL = "pool"
    RANDOM_JUNK = "random_junk"
    SHUFFLED_JUNK = "shuffled_junk"


@dataclass(frozen=True)
class Document:
    """A unit of corpus text; ``token_count`` is its number of whitespace runs,
    counted from ``text`` when the document is built and never passed in."""

    id: str
    text: str
    source: DocumentSource = DocumentSource.POOL
    token_count: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "token_count", len(self.text.split()))


#: How poollab counts tokens: maximal runs of non-whitespace characters
#: (``str.split``).  It stands in for a subword tokenizer; retention
#: *ratios* stay comparable.  Pool headers record this name for it.
COUNTER_NAME = "whitespace"



@dataclass(frozen=True)
class PoolHeader:
    """A pool's ``<path>.header.json``; each field may be absent."""

    label: str | None = None  # None: the pool file's stem
    seed: int = 0
    total_tokens: int | None = None  # None: the recount of the documents
    counter_name: str = COUNTER_NAME

    def __post_init__(self) -> None:
        if self.counter_name != COUNTER_NAME:
            raise ValidationError(f"pool was counted under counter {self.counter_name!r}; "
                                  f"poollab counts {COUNTER_NAME!r} runs only")


@dataclass(frozen=True)
class Pool:
    """An ordered collection of documents with a recorded sampling seed.

    A pool is immutable: ``documents`` is stored as a tuple, whatever
    sequence it was built from, and ``__post_init__`` sums it into
    ``total_tokens``, which is not a constructor argument; use
    ``replace_documents`` to get a new pool.
    """

    documents: tuple[Document, ...] = ()
    total_tokens: int = field(init=False)
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "documents", tuple(self.documents))
        object.__setattr__(self, "total_tokens", sum(d.token_count for d in self.documents))
        ids = [d.id for d in self.documents]
        if len(set(ids)) != len(ids):
            seen: set[str] = set()
            repeat = next(i for i in ids if i in seen or seen.add(i))  # add() returns None
            raise ValidationError(f"pool {self.label!r} repeats document id {repeat!r}")

    def __len__(self) -> int:
        return len(self.documents)

    @cached_property
    def word_index(self) -> dict[str, list[int]]:
        """Each ``\\w+`` word of the lowercased texts -> ascending positions of its documents.

        Built on first use.  Not a dataclass field, so equality, ``repr``
        and the written pool ignore it.
        """
        index: dict[str, list[int]] = {}
        for position, doc in enumerate(self.documents):
            for word in set(WORD_RE.findall(doc.text.lower())):
                postings = index.get(word)
                if postings is None:
                    index[word] = [position]
                else:
                    postings.append(position)
        return index

    def replace_documents(self, documents: list[Document]) -> "Pool":
        """New pool with the same seed and label but different membership."""
        return Pool(documents=tuple(documents), seed=self.seed, label=self.label)


def sample_pool(
    stream: Iterable[Document],
    target_tokens: int,
    seed: int,
    label: str = "pool",
) -> Pool:
    """Draw whole documents in seeded shuffled order until ``target_tokens`` is met.

    The stream is materialized and Fisher-Yates shuffled under ``seed``;
    documents are appended until the running token total reaches the
    target, so ``total_tokens - last_doc.token_count < target_tokens``.

    Raises:
        ValidationError: ``target_tokens`` is not positive, or ``seed`` is negative.
        StreamExhaustedError: the stream ran out first; the error carries
            the token count actually achieved.
    """
    if target_tokens <= 0:
        raise ValidationError(f"target_tokens must be positive, got {target_tokens}")
    natural("seed", seed)
    docs = list(stream)
    rng = random.Random(seed)
    rng.shuffle(docs)

    chosen: list[Document] = []
    total = 0
    for doc in docs:
        chosen.append(doc)
        total += doc.token_count
        if total >= target_tokens:
            break
    else:
        raise StreamExhaustedError(
            f"stream exhausted at {total} tokens before reaching target {target_tokens}",
            achieved_tokens=total,
        )
    return Pool(documents=chosen, seed=seed, label=label)


# ---------------------------------------------------------------------------
# JSONL serialization: one {"id", "text", "source"} object per line; pools
# get a sidecar JSON header with label/seed/total_tokens/counter_name.
# ---------------------------------------------------------------------------


def read_documents(path: str | Path) -> Iterator[Document]:
    """Stream documents from a JSONL file, recounting their tokens; a line that repeats
    an earlier line's id is rejected when it is reached."""
    return read_jsonl(path, partial(read_record, Document, source=one_of(DocumentSource)),
                      key=lambda d: f"id={d.id!r}")


def write_documents(path: str | Path, documents: Iterable[Document]) -> None:
    write_lines(path, (json.dumps({"id": d.id, "text": d.text, "source": d.source.value},
                                  ensure_ascii=False) for d in documents))


def header_path(pool_path: str | Path) -> Path:
    return Path(str(pool_path) + ".header.json")


def write_pool(path: str | Path, pool: Pool) -> None:
    """Write pool documents as JSONL plus a ``<path>.header.json`` sidecar."""
    write_documents(path, pool.documents)
    write_json(header_path(path), asdict(PoolHeader(pool.label, pool.seed, pool.total_tokens)))


def read_pool(path: str | Path) -> Pool:
    """Read a pool written by :func:`write_pool`; the header is optional, and a
    ``total_tokens`` it gives must equal the recount of the documents."""
    docs = list(read_documents(path))
    hp = header_path(path)
    header = read_json(hp, partial(read_record, PoolHeader)) if hp.exists() else PoolHeader()
    pool = Pool(docs, seed=header.seed,
                label=Path(path).stem if header.label is None else header.label)
    if header.total_tokens not in (None, pool.total_tokens):
        raise ValidationError(
            f"{hp}: header total_tokens {header.total_tokens} != recount {pool.total_tokens}"
        )
    return pool
