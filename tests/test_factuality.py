import dataclasses
import json
import pickle
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from poollab import (
    Document,
    JudgeClient,
    Pool,
    QAItem,
    ValidationError,
    Verdict,
    aggregate_judgements,
    judge_documents,
    keyword_match,
    mock_judge_client,
)
from poollab.corpus import DocumentSource
from poollab.errors import JudgeError
from poollab.factuality import (
    MAX_ATTEMPTS, JudgeFailure, Judgement, JudgeRun, parse_verdict, read_qa_items,
    render_prompt, write_judgements,
)


def pool_of(*texts):
    return Pool(documents=[Document(f"d{i}", t) for i, t in enumerate(texts)])


QA = QAItem(
    subject="astronomy",
    question="What is a pulsar?",
    answer="A rotating neutron star",
    keywords=("pulsar",),
)


def reference_keyword_match(pool, qa):
    """Regex scan of every document, as keyword_match did before the word index."""
    patterns = [re.compile(rf"\b{re.escape(kw)}\b") for kw in qa.keywords]
    matched = []
    for doc in pool.documents:
        lowered = doc.text.lower()
        if all(p.search(lowered) for p in patterns):
            matched.append(doc)
    return matched


# Word pieces, separators and a non-ASCII letter; joining them gives texts
# and keywords with whole words, partial words, "x-ray", "a b" and ".net".
PIECES = ["pulsar", "PULSAR", "x", "ray", "net", "_", "7", "é", "É", "-", ".", " ", "\n", ","]
texts = st.lists(st.sampled_from(PIECES), max_size=20).map("".join)
keywords = st.one_of(
    st.sampled_from(["pulsar", "x-ray", "x ray", "new york", ".net", "-", "é", "_7"]),
    st.lists(st.sampled_from(PIECES), max_size=4).map(lambda parts: "".join(parts).lower()),
).filter(str.strip)  # QAItem rejects a blank keyword, which would match every document


class TestKeywordMatch:
    @given(st.lists(texts, max_size=8), st.lists(keywords, min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_index_matches_reference_scan(self, docs, kws):
        pool = pool_of(*docs)
        qa = QAItem(subject="s", question="q", answer="a", keywords=tuple(kws))
        assert keyword_match(pool, qa) == reference_keyword_match(pool, qa)

    def test_whole_word_hit(self):
        matched = keyword_match(pool_of("The pulsar spins."), QA)
        assert [d.id for d in matched] == ["d0"]

    def test_plural_is_not_a_match(self):
        assert keyword_match(pool_of("pulsars everywhere"), QA) == []

    def test_empty_pool(self):
        assert keyword_match(Pool(documents=[]), QA) == []

    def test_all_keywords_required(self):
        qa = QAItem(
            subject="astronomy",
            question="q",
            answer="a",
            keywords=("pulsar", "neutron"),
        )
        pool = pool_of("a pulsar", "a neutron pulsar", "a neutron")
        assert [d.id for d in keyword_match(pool, qa)] == ["d1"]

    def test_case_insensitive(self):
        assert len(keyword_match(pool_of("PULSAR timing array"), QA)) == 1

    def test_adding_keyword_never_enlarges(self):
        pool = pool_of("pulsar neutron star", "pulsar alone", "nothing here")
        base = {d.id for d in keyword_match(pool, QA)}
        narrowed = QAItem(
            subject=QA.subject, question=QA.question, answer=QA.answer,
            keywords=("pulsar", "neutron"),
        )
        assert {d.id for d in keyword_match(pool, narrowed)} <= base

    def test_keywords_must_be_lowercase(self):
        with pytest.raises(ValidationError):
            QAItem(subject="s", question="q", answer="a", keywords=("Pulsar",))

    @pytest.mark.parametrize("blank", ["", " ", "\n"])
    def test_blank_keyword_is_rejected(self, blank):
        with pytest.raises(ValidationError, match=f"^keywords must be non-blank lowercase "
                                                  f"strings, got {re.escape(repr(blank))}$"):
            QAItem(subject="s", question="q", answer="a", keywords=("pulsar", blank))


class TestParseVerdict:
    @pytest.mark.parametrize("raw,expected", [
        ("Support", Verdict.SUPPORT),
        (" Refute \n", Verdict.REFUTE),
        ("Related.", Verdict.RELATED),
        ("Unrelated", Verdict.UNRELATED),
    ])
    def test_accepts_exact_labels(self, raw, expected):
        assert parse_verdict(raw) == expected

    @pytest.mark.parametrize("raw", ["supports", "REFUTE!", "maybe related", ""])
    def test_rejects_everything_else(self, raw):
        with pytest.raises(JudgeError):
            parse_verdict(raw)

    def test_prompt_has_slots_and_labels(self):
        prompt = render_prompt("doc text", "the question", "the answer")
        assert "doc text" in prompt and "the question" in prompt
        for verdict in Verdict:
            assert verdict.value in prompt


class TestJudgeDocuments:
    def test_constant_mock(self):
        docs = pool_of("pulsar one", "pulsar two").documents
        run = judge_documents(docs, QA, mock_judge_client())
        assert [j.verdict for j in run.judgements] == [Verdict.UNRELATED] * 2
        assert run.failures == []

    def test_zero_documents(self):
        run = judge_documents([], QA, mock_judge_client())
        assert run.judgements == [] and run.failures == []

    def test_fault_isolation(self):
        def flaky(doc, question, answer):
            if "poison" in doc:
                raise ConnectionError("socket closed")
            return Verdict.SUPPORT

        docs = pool_of("fine pulsar", "poison pulsar", "fine pulsar again").documents
        run = judge_documents(docs, QA, mock_judge_client(flaky))
        assert {j.doc_id for j in run.judgements} == {"d0", "d2"}
        assert [f.doc_id for f in run.failures] == ["d1"]
        assert "socket closed" in run.failures[0].error

    def test_no_document_lost(self):
        def flaky(doc, question, answer):
            if len(doc) % 2 == 0:
                raise TimeoutError("slow judge")
            return Verdict.RELATED

        docs = pool_of(*[f"pulsar doc {i} {'x' * i}" for i in range(20)]).documents
        client = JudgeClient(classify=flaky, max_concurrency=8, backoff_base=0.0)
        run = judge_documents(docs, QA, client)
        seen = {j.doc_id for j in run.judgements} | {f.doc_id for f in run.failures}
        assert seen == {d.id for d in docs}

    def test_retry_then_success(self):
        calls = {}

        def eventually(doc, question, answer):
            calls[doc] = calls.get(doc, 0) + 1
            if calls[doc] < 3:
                raise ConnectionError("transient")
            return Verdict.REFUTE

        docs = pool_of("pulsar claim").documents
        run = judge_documents(docs, QA, mock_judge_client(eventually))
        assert [j.verdict for j in run.judgements] == [Verdict.REFUTE]
        assert calls["pulsar claim"] == 3

    def test_malformed_response_never_coerced(self):
        def garbage(doc, question, answer):
            return "definitely supports"  # not a valid label

        docs = pool_of("pulsar").documents
        run = judge_documents(docs, QA, mock_judge_client(garbage))
        assert run.judgements == []
        assert len(run.failures) == 1 and "unparseable" in run.failures[0].error


class JudgeHandler(BaseHTTPRequestHandler):
    """Loopback judge: records each request, replies with the server's canned response."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append((dict(self.headers), json.loads(body)))
        status, payload = self.server.reply
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def judge_server(monkeypatch):
    for var in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY", "all_proxy",
                "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)  # loopback requests must not go to a proxy
    server = HTTPServer(("127.0.0.1", 0), JudgeHandler)
    server.requests = []
    server.reply = (200, {"choices": [{"message": {"content": "Support"}}]})
    server.url = f"http://127.0.0.1:{server.server_port}/v1/chat"
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestHttpClient:
    def test_chat_shape_parsed(self, judge_server, monkeypatch):
        monkeypatch.setenv("JUDGE_API_KEY", "sekrit")
        client = JudgeClient(endpoint=judge_server.url, model_name="j1", backoff_base=0.0)
        run = judge_documents(pool_of("pulsar fact").documents, QA, client)
        assert [j.verdict for j in run.judgements] == [Verdict.SUPPORT]
        [(headers, body)] = judge_server.requests
        assert headers["Content-Type"] == "application/json"
        assert body == {
            "model": "j1",
            "messages": [
                {"role": "user", "content": render_prompt("pulsar fact", QA.question, QA.answer)}
            ],
        }

    def test_api_key_header(self, judge_server, monkeypatch):
        monkeypatch.setenv("JUDGE_API_KEY", "sekrit")
        client = JudgeClient(endpoint=judge_server.url, backoff_base=0.0)
        judge_documents(pool_of("pulsar").documents, QA, client)
        [(headers, _)] = judge_server.requests
        assert headers["Authorization"] == "Bearer sekrit"

    def test_no_api_key_no_header(self, judge_server, monkeypatch):
        monkeypatch.delenv("JUDGE_API_KEY", raising=False)
        client = JudgeClient(endpoint=judge_server.url, backoff_base=0.0)
        judge_documents(pool_of("pulsar").documents, QA, client)
        [(headers, _)] = judge_server.requests
        assert "Authorization" not in headers

    def test_malformed_payload_is_failure(self, judge_server):
        judge_server.reply = (200, {"unexpected": True})
        client = JudgeClient(endpoint=judge_server.url, backoff_base=0.0)
        run = judge_documents(pool_of("pulsar").documents, QA, client)
        assert run.judgements == [] and len(run.failures) == 1
        assert len(judge_server.requests) == 3

    @pytest.mark.parametrize("reply", [
        (500, {"error": "overloaded"}),
        (200, b"not json"),
    ])
    def test_bad_reply_is_one_failure_after_all_attempts(self, judge_server, reply):
        judge_server.reply = reply
        client = JudgeClient(endpoint=judge_server.url, backoff_base=0.0)
        run = judge_documents(pool_of("pulsar").documents, QA, client)
        assert run.judgements == [] and len(run.failures) == 1
        assert len(judge_server.requests) == 3

    @pytest.mark.parametrize(
        "name, value",
        [
            ("timeout", 0.0),
            ("timeout", -1.0),
            ("timeout", float("nan")),
            ("timeout", float("inf")),
            ("backoff_base", -0.5),
            ("max_concurrency", 0),
        ],
    )
    def test_nonsense_retry_settings_rejected(self, name, value):
        with pytest.raises(ValidationError, match=name):
            JudgeClient(endpoint="http://127.0.0.1:9/", **{name: value})

    def test_attempts_are_a_constant_not_a_setting(self):
        assert MAX_ATTEMPTS == 3
        with pytest.raises(TypeError, match="max_attempts"):
            JudgeClient(endpoint="http://127.0.0.1:9/", max_attempts=3)

    @pytest.mark.parametrize("endpoint", ["file:///dev/null", "ftp://judge.invalid/", "judge"])
    def test_non_http_endpoint_rejected(self, endpoint):
        with pytest.raises(ValidationError, match="http"):
            JudgeClient(endpoint=endpoint)


class TestAggregation:
    def j(self, qa, verdict, doc_id="d0"):
        return Judgement(doc_id=doc_id, qa_id=qa.qa_id, verdict=verdict, raw_response=verdict.value)

    def test_counting_example(self):
        judgements = [
            self.j(QA, Verdict.SUPPORT, "d0"),
            self.j(QA, Verdict.SUPPORT, "d1"),
            self.j(QA, Verdict.REFUTE, "d2"),
        ]
        rows = aggregate_judgements(judgements, [QA])
        assert rows == [
            {
                "subject": "astronomy",
                "Support": 2.0,
                "Refute": 1.0,
                "Related": 0.0,
                "Unrelated": 0.0,
            }
        ]

    def test_no_judgements_all_zero(self):
        rows = aggregate_judgements([], [QA])
        assert rows[0]["Support"] == 0.0 and rows[0]["Unrelated"] == 0.0

    def test_mean_over_subject_items(self):
        qa2 = QAItem(subject="astronomy", question="Another?", answer="a", keywords=("star",))
        judgements = [
            self.j(QA, Verdict.SUPPORT, "d0"),
            self.j(QA, Verdict.SUPPORT, "d1"),
            self.j(qa2, Verdict.SUPPORT, "d2"),
        ]
        rows = aggregate_judgements(judgements, [QA, qa2])
        assert rows[0]["Support"] == 1.5  # (2 + 1) / 2 items

    def test_counts_partition_successes(self):
        judgements = [
            self.j(QA, v, f"d{i}")
            for i, v in enumerate(
                [Verdict.SUPPORT, Verdict.RELATED, Verdict.RELATED, Verdict.UNRELATED]
            )
        ]
        rows = aggregate_judgements(judgements, [QA])
        total = sum(rows[0][v.value] for v in Verdict)
        assert total == len(judgements)

    def test_column_schema_matches_reference_table(self):
        rows = aggregate_judgements([], [QA])
        assert list(rows[0]) == ["subject", "Support", "Refute", "Related", "Unrelated"]


class TestQaIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(
            json.dumps(
                {
                    "subject": "astronomy",
                    "question": "What is a pulsar?",
                    "answer": "A rotating neutron star",
                    "keywords": ["pulsar"],
                }
            )
            + "\n",
            encoding="utf-8",
        )
        items = read_qa_items(path)
        assert items == [QA]

    def test_bad_line_reports_lineno(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"subject": "s"}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1"):
            read_qa_items(path)

    def test_repeated_qa_id_rejected_naming_both_lines(self, tmp_path):
        # one qa_id for both: aggregate_judgements would credit each item with both's judgements
        item = {"subject": "s", "question": "q", "answer": "a", "keywords": ["pulsar"]}
        path = tmp_path / "qa.jsonl"
        lines = [item, {**item, "subject": "t"}, {**item, "question": "r"}, {**item, "answer": "b"}]
        rows = [json.dumps(line) for line in lines]
        rows.insert(3, "")  # line 4 is blank
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        qa_id = QAItem("s", "q", "a", ("pulsar",)).qa_id
        message = f"{path}: line 5: repeats qa_id={qa_id} of line 1"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            read_qa_items(path)

    @pytest.mark.parametrize("field,value", [
        ("keywords", "pulsar"),  # a string, not a list of keywords
        ("keywords", [1]),
        ("question", 5),
    ])
    def test_wrong_field_type_rejected(self, tmp_path, field, value):
        item = {"subject": "s", "question": "q", "answer": "a", "keywords": ["pulsar"]}
        path = tmp_path / "qa.jsonl"
        path.write_text("\n" + json.dumps({**item, field: value}) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: line 2: ") + f".*{field}"):
            read_qa_items(path)


# Quotes, backslashes, control characters, DEL, non-ASCII, line separators,
# astral characters and lone surrogates: everything the escaper treats specially.
SPECIAL_CHARS = ['"', "\\", "/", "\x00", "\x08", "\x1f", "\x7f", "\t", "\n", "\r", "é",
                 "\u2028", "\U0001f600", "\ud800", "\udfff"]
fields_text = st.text(
    alphabet=st.one_of(st.sampled_from(SPECIAL_CHARS), st.characters(exclude_categories=())),
    max_size=12,
)
judgement_records = st.builds(Judgement, fields_text, fields_text, st.sampled_from(Verdict),
                              fields_text)
failure_records = st.builds(JudgeFailure, fields_text, fields_text, fields_text)


def dumps_of_fields(entry):
    """``json.dumps`` of ``entry``'s fields in declaration order, as the writer once wrote it."""
    return json.dumps({f.name: getattr(entry, f.name) for f in dataclasses.fields(entry)})


class TestWriteJudgements:
    @given(st.lists(judgement_records, max_size=6), st.lists(failure_records, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_each_line_is_json_dumps_of_the_fields(self, tmp_path_factory, judgements, failures):
        path = tmp_path_factory.mktemp("judged") / "j.jsonl"
        write_judgements(path, JudgeRun(judgements=judgements, failures=failures))
        expected = "".join(dumps_of_fields(e) + "\n" for e in [*judgements, *failures])
        assert path.read_bytes() == expected.encode("ascii")

    def test_every_verdict_written_by_value(self, tmp_path):
        judgements = [Judgement("d", "q", v, v.value) for v in Verdict]
        path = tmp_path / "j.jsonl"
        write_judgements(path, JudgeRun(judgements=judgements, failures=[]))
        assert [json.loads(line)["verdict"] for line in path.read_text().splitlines()] == [
            v.value for v in Verdict]

    @pytest.mark.parametrize("value", [5, 1.5, None, True, ["d"], b"d", DocumentSource.POOL])
    @pytest.mark.parametrize("make", [
        lambda v: Judgement(v, "q", Verdict.SUPPORT, "Support"),
        lambda v: Judgement("d", v, Verdict.SUPPORT, "Support"),
        lambda v: Judgement("d", "q", v, "Support"),
        lambda v: Judgement("d", "q", Verdict.SUPPORT, v),
        lambda v: JudgeFailure(v, "q", "boom"),
        lambda v: JudgeFailure("d", "q", v),
    ])
    def test_non_string_field_raises_or_matches_json_dumps(self, tmp_path, make, value):
        entry = make(value)
        run = (JudgeRun([entry], []) if isinstance(entry, Judgement) else JudgeRun([], [entry]))
        path = tmp_path / "j.jsonl"
        try:
            write_judgements(path, run)
        except TypeError:
            assert list(tmp_path.iterdir()) == []  # no partial file, no temporary left
        else:
            assert path.read_text(encoding="utf-8") == dumps_of_fields(entry) + "\n"


@pytest.mark.parametrize("entry", [
    Judgement(doc_id="d1", qa_id="s:0a1b2c3d", verdict=Verdict.RELATED, raw_response="Related"),
    JudgeFailure(doc_id="d1", qa_id="s:0a1b2c3d", error="JudgeError: no"),
], ids=["Judgement", "JudgeFailure"])
class TestJudgementContract:
    """``Judgement`` and ``JudgeFailure`` are slotted; all but ``vars()`` behaves as before."""

    def test_pickle_round_trip(self, entry):
        assert pickle.loads(pickle.dumps(entry)) == entry

    def test_dataclass_functions(self, entry):
        values = dataclasses.asdict(entry)
        assert list(values) == [f.name for f in dataclasses.fields(entry)]
        assert values["doc_id"] == "d1" and values["qa_id"] == "s:0a1b2c3d"
        moved = dataclasses.replace(entry, doc_id="d2")
        assert moved == type(entry)(**{**values, "doc_id": "d2"}) and moved != entry

    def test_frozen(self, entry):
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.doc_id = "d2"

    def test_equality_and_repr(self, entry):
        twin = type(entry)(**dataclasses.asdict(entry))
        assert twin == entry and twin is not entry
        shown = ", ".join(f"{name}={value!r}" for name, value in dataclasses.asdict(entry).items())
        assert repr(twin) == f"{type(entry).__name__}({shown})"

    def test_no_instance_dict(self, entry):
        with pytest.raises(TypeError):
            vars(entry)
