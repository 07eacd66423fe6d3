import json
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from poollab import (
    Document,
    DocumentSource,
    InjectionSpec,
    JunkKind,
    Pool,
    StreamExhaustedError,
    ValidationError,
    build_vocab,
    inject,
    random_junk_stream,
    read_documents,
    read_pool,
    sample_pool,
    write_documents,
    write_pool,
)
from poollab.corpus import WORD_RE, PoolHeader


def token_count(text):
    return Document("d", text).token_count


class TestCountTokens:
    def test_empty(self):
        assert token_count("") == 0

    def test_hand_count(self):
        assert token_count("the cat sat") == 3

    def test_runs_not_separators(self):
        # two spaces still separate exactly two runs
        assert token_count("a  b") == 2

    def test_mixed_whitespace(self):
        assert token_count(" a\tb\nc ") == 3


class TestDerivedCounts:
    """A token count is derived from the text it counts, so it cannot go stale."""

    def test_document_counts_its_own_text(self):
        assert Document("b", "x y z").token_count == 3

    def test_replaced_text_is_recounted(self):
        assert replace(Document("b", "x y z"), text="one").token_count == 1

    def test_count_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            Document("b", "x y z", token_count=5)

    def test_count_in_a_file_is_ignored(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "text": "x y z", "token_count": 5}\n', encoding="utf-8")
        assert [d.token_count for d in read_documents(path)] == [3]

    @pytest.mark.parametrize("name", [f.name for f in fields(Pool)])
    def test_no_pool_field_can_be_assigned(self, small_pool, name):
        with pytest.raises(FrozenInstanceError):
            setattr(small_pool, name, getattr(small_pool, name))

    def test_pool_survives_file_and_pickle_round_trips(self, tmp_path, small_pool):
        assert small_pool.word_index  # a built index is no part of the pool's value
        write_pool(tmp_path / "p.jsonl", small_pool)
        for back in (read_pool(tmp_path / "p.jsonl"), pickle.loads(pickle.dumps(small_pool))):
            assert back == small_pool and back.total_tokens == small_pool.total_tokens == 200
            with pytest.raises(FrozenInstanceError):
                back.label = "other"


class TestSamplePool:
    def test_single_doc_covers_target(self):
        doc = Document("d0", " ".join(["w"] * 10))
        pool = sample_pool([doc], target_tokens=5, seed=1)
        assert [d.id for d in pool.documents] == ["d0"]
        assert pool.total_tokens == 10

    def test_cumulative_sum_oracle(self, ten_token_docs):
        # 100 docs x 10 tokens, target 250: every order needs exactly
        # ceil(250 / 10) = 25 documents.
        pool = sample_pool(ten_token_docs, target_tokens=250, seed=42)
        assert len(pool) == 25
        assert pool.total_tokens == 250

    def test_deterministic_under_seed(self, ten_token_docs):
        a = sample_pool(ten_token_docs, 250, seed=9)
        b = sample_pool(ten_token_docs, 250, seed=9)
        assert [d.id for d in a.documents] == [d.id for d in b.documents]

    def test_different_seed_reorders(self, ten_token_docs):
        a = sample_pool(ten_token_docs, 990, seed=1)
        b = sample_pool(ten_token_docs, 990, seed=2)
        assert [d.id for d in a.documents] != [d.id for d in b.documents]

    def test_exhaustion_reports_achieved(self, ten_token_docs):
        with pytest.raises(StreamExhaustedError) as err:
            sample_pool(ten_token_docs[:3], target_tokens=31, seed=0)
        assert err.value.achieved_tokens == 30

    def test_rejects_nonpositive_target(self, ten_token_docs):
        with pytest.raises(ValidationError):
            sample_pool(ten_token_docs, 0, seed=0)

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=40),
        target=st.integers(min_value=1, max_value=400),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_overshoot_bound(self, sizes, target, seed):
        docs = [
            Document(f"d{i}", " ".join(["w"] * size)) for i, size in enumerate(sizes)
        ]
        if sum(sizes) < target:
            with pytest.raises(StreamExhaustedError):
                sample_pool(docs, target, seed)
            return
        pool = sample_pool(docs, target, seed)
        assert pool.total_tokens >= target
        assert pool.total_tokens - pool.documents[-1].token_count < target
        assert pool.total_tokens - target < max(sizes)
        ids = [d.id for d in pool.documents]
        assert len(set(ids)) == len(ids)


class TestPoolInvariants:
    def test_documents_stored_as_tuple(self, ten_token_docs):
        docs = ten_token_docs[:3]
        from_list = Pool(documents=docs, seed=2, label="p")
        from_tuple = Pool(documents=tuple(docs), seed=2, label="p")
        assert from_list == from_tuple
        assert type(from_list.documents) is tuple and from_list.documents == tuple(docs)
        docs.append(ten_token_docs[3])  # the caller's list is not the pool's
        assert len(from_list) == 3
        assert type(from_list.replace_documents(docs).documents) is tuple

    def test_write_pool_bytes(self, tmp_path):
        pool = Pool(documents=[Document("a", "one two"),
                               Document("b", "drei", DocumentSource.RANDOM_JUNK)],
                    seed=5, label="demo")
        write_pool(tmp_path / "p.jsonl", pool)
        assert (tmp_path / "p.jsonl").read_bytes() == (
            b'{"id": "a", "text": "one two", "source": "pool"}\n'
            b'{"id": "b", "text": "drei", "source": "random_junk"}\n'
        )
        assert json.loads((tmp_path / "p.jsonl.header.json").read_text()) == {
            "label": "demo", "seed": 5, "total_tokens": 3, "counter_name": "whitespace",
        }
        assert read_pool(tmp_path / "p.jsonl") == pool

    def test_total_is_derived_from_members(self, tmp_path, ten_token_docs):
        def members_total(pool):
            return sum(d.token_count for d in pool.documents)

        pool = sample_pool(ten_token_docs, 95, seed=3, label="p")
        write_pool(tmp_path / "p.jsonl", pool)
        injected = inject(pool, InjectionSpec(JunkKind.RANDOM_STRINGS, 0.5, seed=1),
                          random_junk_stream(pool, build_vocab(0), seed=1))
        for derived in (pool, read_pool(tmp_path / "p.jsonl"),
                        pool.replace_documents(list(pool.documents[:3])), injected):
            assert derived.total_tokens == members_total(derived) > 0
        with pytest.raises(TypeError):
            Pool(documents=ten_token_docs[:2], total_tokens=20)

    def test_duplicate_ids_rejected(self, ten_token_docs):
        with pytest.raises(ValidationError):
            Pool(documents=[ten_token_docs[0], ten_token_docs[0]])
        docs = [Document(i, "x") for i in ("d0", "d1", "d1", "d0")]  # the first repeat is named
        with pytest.raises(ValidationError, match=r"^pool 'x' repeats document id 'd1'$"):
            Pool(documents=docs, label="x")


class TestJsonl:
    def test_document_round_trip(self, tmp_path):
        docs = [
            Document("a", "hello world", DocumentSource.POOL),
            Document("b", "x y z", DocumentSource.RANDOM_JUNK),
        ]
        path = tmp_path / "docs.jsonl"
        write_documents(path, docs)
        back = list(read_documents(path))
        assert back == docs

    def test_pool_round_trip_with_header(self, tmp_path, ten_token_docs):
        pool = sample_pool(ten_token_docs, 100, seed=11, label="demo")
        path = tmp_path / "pool.jsonl"
        write_pool(path, pool)
        header = json.loads((tmp_path / "pool.jsonl.header.json").read_text())
        assert header == {
            "label": "demo",
            "seed": 11,
            "total_tokens": pool.total_tokens,
            "counter_name": "whitespace",
        }
        back = read_pool(path)
        assert back.label == "demo"
        assert back.seed == 11
        assert back.documents == pool.documents

    def test_word_index_changes_no_equality_repr_or_bytes(self, tmp_path, ten_token_docs):
        pool = sample_pool(ten_token_docs, 100, seed=11, label="demo")
        other = sample_pool(ten_token_docs, 100, seed=11, label="demo")
        text, before = repr(pool), tmp_path / "before.jsonl"
        write_pool(before, pool)
        assert pool.word_index[pool.documents[3].text.split()[0]] == [3]
        after = tmp_path / "after.jsonl"
        write_pool(after, pool)
        assert pool == other and repr(pool) == text
        assert after.read_bytes() == before.read_bytes()
        assert (tmp_path / "after.jsonl.header.json").read_bytes() == (
            tmp_path / "before.jsonl.header.json"
        ).read_bytes()

    @given(st.lists(st.text(alphabet="aAbB é_7-\n", max_size=30), max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_word_index_equals_setdefault_construction(self, texts):
        pool = Pool(documents=[Document(f"d{i}", t) for i, t in enumerate(texts)])
        reference: dict[str, list[int]] = {}
        for position, doc in enumerate(pool.documents):
            for word in set(WORD_RE.findall(doc.text.lower())):
                reference.setdefault(word, []).append(position)
        assert pool.word_index == reference

    def test_malformed_line_names_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            list(read_documents(path))

    def test_counter_mismatch_rejected(self, tmp_path, ten_token_docs):
        pool = sample_pool(ten_token_docs, 100, seed=11, label="demo")
        path = tmp_path / "pool.jsonl"
        write_pool(path, pool)
        header_file = tmp_path / "pool.jsonl.header.json"
        header = json.loads(header_file.read_text())
        header["counter_name"] = "chars"
        header_file.write_text(json.dumps(header), encoding="utf-8")
        with pytest.raises(ValidationError, match="counter 'chars'"):
            read_pool(path)

    def test_tampered_header_total_rejected(self, tmp_path, ten_token_docs):
        pool = sample_pool(ten_token_docs, 100, seed=11, label="demo")
        path = tmp_path / "pool.jsonl"
        write_pool(path, pool)
        header_file = tmp_path / "pool.jsonl.header.json"
        header = json.loads(header_file.read_text())
        header["total_tokens"] = 1
        header_file.write_text(json.dumps(header), encoding="utf-8")
        with pytest.raises(ValidationError, match="total_tokens 1 != recount"):
            read_pool(path)

    def test_negative_header_seed_rejected(self, tmp_path, ten_token_docs):
        # random.Random seeds -3 as it seeds 3, so a negative seed would alias a positive one
        with pytest.raises(ValidationError, match="^seed must be >= 0, got -3$"):
            PoolHeader(seed=-3)
        path = tmp_path / "pool.jsonl"
        write_pool(path, sample_pool(ten_token_docs, 100, seed=11))
        header_file = tmp_path / "pool.jsonl.header.json"
        header_file.write_text(json.dumps({**json.loads(header_file.read_text()), "seed": -3}),
                               encoding="utf-8")
        with pytest.raises(ValidationError, match=f"^{header_file}: seed must be >= 0, got -3$"):
            read_pool(path)

    def test_pool_with_negative_seed_is_not_written(self, tmp_path, ten_token_docs):
        with pytest.raises(ValidationError, match="^seed must be >= 0, got -1$"):
            write_pool(tmp_path / "pool.jsonl", Pool(ten_token_docs, seed=-1))
        assert list(tmp_path.iterdir()) == []

    def test_header_must_be_object(self, tmp_path, ten_token_docs):
        path = tmp_path / "pool.jsonl"
        write_pool(path, sample_pool(ten_token_docs, 100, seed=11))
        (tmp_path / "pool.jsonl.header.json").write_text("[]", encoding="utf-8")
        with pytest.raises(ValidationError, match="JSON object"):
            read_pool(path)
