"""Keyword-matching of corpus documents to QA items plus judge classification.

Documents matched to a question/answer pair are sent to a judge backend
that labels each one Support, Refute, Related, or Unrelated.  The judge
is any JSON-over-HTTP chat-completion endpoint (credentials via the
JUDGE_API_KEY environment variable) or an in-process mock; responses
that do not parse to exactly one label are recorded as failures, never
coerced, and never stop the rest of the batch.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Sequence

from .corpus import WORD_RE, Document, Pool
from .errors import JudgeError, ValidationError
from .io import items, read_jsonl, read_record, write_lines


class Verdict(str, Enum):
    SUPPORT = "Support"
    REFUTE = "Refute"
    RELATED = "Related"
    UNRELATED = "Unrelated"


VERDICT_COLUMNS = [v.value for v in Verdict]

#: Tries per document before :func:`judge_documents` records it as a failure.
MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class QAItem:
    subject: str
    question: str
    answer: str
    keywords: tuple[str, ...]

    def __post_init__(self) -> None:
        for name in ("subject", "question", "answer"):
            if not isinstance(getattr(self, name), str):
                raise ValidationError(f"QA item {name} must be a string")
        if not self.keywords:
            raise ValidationError("QA item needs at least one keyword")
        for kw in self.keywords:  # "" or " " would match every document, as r"\b\b" does
            if not isinstance(kw, str) or kw != kw.lower() or not kw.strip():
                raise ValidationError(f"keywords must be non-blank lowercase strings, got {kw!r}")

    @property
    def qa_id(self) -> str:
        digest = hashlib.sha256(self.question.encode("utf-8")).hexdigest()[:8]
        return f"{self.subject}:{digest}"


@dataclass(frozen=True, slots=True)
class Judgement:
    doc_id: str
    qa_id: str
    verdict: Verdict
    raw_response: str


@dataclass(frozen=True, slots=True)
class JudgeFailure:
    doc_id: str
    qa_id: str
    error: str


@dataclass
class JudgeRun:
    """Per-document results: every input doc lands in exactly one list."""

    judgements: list[Judgement]
    failures: list[JudgeFailure]


PROMPT_TEMPLATE = """\
You are given a document, a question, and its reference answer.
Classify whether the document supports, refutes, is related to, or is
unrelated to the question and answer.

Document:
{document}

Question: {question}
Answer: {answer}

Reply with exactly one word: Support, Refute, Related, or Unrelated."""


def render_prompt(doc_text: str, question: str, answer: str) -> str:
    return PROMPT_TEMPLATE.format(document=doc_text, question=question, answer=answer)


def parse_verdict(response: str) -> Verdict:
    """Exact label match after trimming; anything else is an error."""
    cleaned = response.strip().rstrip(".")
    for verdict in Verdict:
        if cleaned == verdict.value:
            return verdict
    raise JudgeError(f"unparseable judge response: {response!r}")


def keyword_match(pool: Pool, qa: QAItem) -> list[Document]:
    """Documents containing every keyword as a case-insensitive whole word.

    Whole-word means regex word boundaries, so "pulsar" does not match
    inside "pulsars".  Pool order is preserved.

    Candidates come from ``pool.word_index``: wherever ``\\b<kw>\\b``
    matches the lowercased text, every ``\\w+`` run inside ``kw`` is a
    whole ``\\w+`` run of the text, so intersecting those words' postings
    drops no match.  A keyword that is a single ``\\w+`` run is decided
    by the index alone; any other keyword ("x-ray", "new york", ".net")
    is regex-checked on the candidates.
    """
    words = {word for kw in qa.keywords for word in WORD_RE.findall(kw)}
    if words:
        index = pool.word_index
        postings = sorted((index.get(word, []) for word in words), key=len)
        positions = sorted(set(postings[0]).intersection(*postings[1:]))
    else:
        positions = range(len(pool.documents))
    candidates = [pool.documents[i] for i in positions]
    patterns = [
        re.compile(rf"\b{re.escape(kw)}\b") for kw in qa.keywords if not WORD_RE.fullmatch(kw)
    ]
    if not patterns:  # the index decided every keyword
        return candidates
    return [doc for doc in candidates if all(p.search(doc.text.lower()) for p in patterns)]


@dataclass
class JudgeClient:
    """Judge backend reachable over HTTP(S), or any classify callable."""

    endpoint: str = ""
    model_name: str = "judge"
    timeout: float = 30.0
    max_concurrency: int = 4
    backoff_base: float = 1.0
    classify: Callable[[str, str, str], Verdict] | None = None

    def __post_init__(self) -> None:
        if not 0 < self.timeout < math.inf:
            raise ValidationError(f"judge timeout must be a positive number, got {self.timeout}")
        if not 0 <= self.backoff_base < math.inf:
            raise ValidationError(f"judge backoff_base must be >= 0, got {self.backoff_base}")
        if self.max_concurrency < 1:
            raise ValidationError(
                f"judge max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.classify is None:
            if not self.endpoint:
                raise ValidationError("JudgeClient needs an endpoint or a classify callable")
            from urllib.parse import urlsplit  # only an HTTP judge parses a URL

            try:
                scheme = urlsplit(self.endpoint).scheme
            except ValueError as exc:  # e.g. "Invalid IPv6 URL"
                raise ValidationError(f"judge endpoint {self.endpoint!r}: {exc}") from exc
            if scheme not in ("http", "https"):
                raise ValidationError(
                    f"judge endpoint must be an http(s) URL, got {self.endpoint!r}"
                )
            self.classify = self._classify_http

    def _classify_http(self, doc_text: str, question: str, answer: str) -> Verdict:
        from urllib.request import Request, urlopen  # here, not at the top: ~25 ms of start-up

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get("JUDGE_API_KEY")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.model_name,
            "messages": [{"role": "user", "content": render_prompt(doc_text, question, answer)}],
        }
        request = Request(
            self.endpoint, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
        )
        with urlopen(request, timeout=self.timeout) as response:  # raises HTTPError on 4xx/5xx
            body = json.load(response)
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise JudgeError(f"malformed judge payload: {body!r}") from exc
        return parse_verdict(content)


def mock_judge_client(classify: Callable[[str, str, str], Verdict] | None = None) -> JudgeClient:
    """In-process judge for tests and offline runs; sequential, since threads only help HTTP.

    Without ``classify`` every document is judged ``Verdict.UNRELATED``.
    """
    fn = classify if classify is not None else (lambda doc, q, a: Verdict.UNRELATED)
    return JudgeClient(endpoint="mock://", model_name="mock", max_concurrency=1, backoff_base=0.0,
                       classify=fn)


def judge_documents(docs: Sequence[Document], qa: QAItem, client: JudgeClient) -> JudgeRun:
    """Judge every document, bounding concurrency and isolating failures.

    Each document gets up to ``MAX_ATTEMPTS`` tries with
    exponential backoff; a document whose attempts are exhausted becomes
    a failure entry while the rest of the batch proceeds.
    """

    qa_id = qa.qa_id  # a sha256 of the question; hashed once per call, not per document
    classify, question, answer = client.classify, qa.question, qa.answer

    def judge_one(doc: Document) -> Judgement | JudgeFailure:
        last_error = "no attempts made"
        for attempt in range(MAX_ATTEMPTS):
            try:
                verdict = classify(doc.text, question, answer)
                if not isinstance(verdict, Verdict):
                    verdict = parse_verdict(str(verdict))
                return Judgement(doc.id, qa_id, verdict, verdict.value)
            except Exception as exc:  # transport or parse failure; retry
                last_error = f"{type(exc).__name__}: {exc}"
                if attempt + 1 < MAX_ATTEMPTS and client.backoff_base > 0:
                    time.sleep(client.backoff_base * 2**attempt)
        return JudgeFailure(doc.id, qa_id, last_error)

    if client.max_concurrency > 1:
        from concurrent.futures import ThreadPoolExecutor  # only this path starts threads

        with ThreadPoolExecutor(max_workers=client.max_concurrency) as executor:
            results = list(executor.map(judge_one, docs))
    else:
        results = [judge_one(doc) for doc in docs]
    return JudgeRun(judgements=[r for r in results if type(r) is Judgement],
                    failures=[r for r in results if type(r) is JudgeFailure])


def aggregate_judgements(
    judgements: Sequence[Judgement], qa_items: Sequence[QAItem]
) -> list[dict[str, object]]:
    """Per-subject mean verdict counts over that subject's QA items.

    Returns CSV-ready rows with columns subject, Support, Refute,
    Related, Unrelated; subjects with no judgements get all-zero rows.
    """
    counts = Counter((j.qa_id, j.verdict) for j in judgements)
    subjects: dict[str, list[QAItem]] = {}
    for item in qa_items:
        subjects.setdefault(item.subject, []).append(item)
    return [{"subject": subject, **{v.value: sum(counts[qa.qa_id, v] for qa in group) / len(group)
                                    for v in Verdict}}
            for subject, group in sorted(subjects.items())]


# ---------------------------------------------------------------------------
# JSONL I/O.
# ---------------------------------------------------------------------------


def _keywords(name: str, value: object) -> tuple[str, ...]:
    return tuple(items(name, value))  # not tuple(value): a string would split into letters


def read_qa_items(path: str | Path) -> list[QAItem]:
    """The QA items of a JSONL file.  Two items with one ``qa_id`` (subject
    and question) are rejected, naming both lines: the judgements could
    not tell them apart, and each would be credited with both's."""
    return list(read_jsonl(path, lambda obj: read_record(QAItem, obj, keywords=_keywords),
                           key=lambda qa: f"qa_id={qa.qa_id}"))


#: A judgements line, as ``json.dumps`` writes the fields in declaration order.
_JUDGEMENT_LINE = '{"doc_id": %s, "qa_id": %s, "verdict": %s, "raw_response": %s}'
_FAILURE_LINE = '{"doc_id": %s, "qa_id": %s, "error": %s}'


def write_judgements(path: str | Path, run: JudgeRun) -> None:
    """One JSON object of fields per line: judgements, then failures.

    Each field is quoted by ``encode_basestring_ascii``, the escaper
    ``json.dumps`` calls on a string, so a line has the bytes of
    ``json.dumps`` of the fields; a field that is not a string raises
    ``TypeError``.  Lines are streamed, not listed.
    """
    quote = encode_basestring_ascii
    write_lines(path, chain(
        (_JUDGEMENT_LINE % (quote(j.doc_id), quote(j.qa_id), quote(j.verdict),
                            quote(j.raw_response)) for j in run.judgements),
        (_FAILURE_LINE % (quote(f.doc_id), quote(f.qa_id), quote(f.error))
         for f in run.failures),
    ))
