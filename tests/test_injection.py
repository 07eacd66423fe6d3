import random
from collections import Counter

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
    gen_random_document,
    inject,
    random_junk_stream,
    shuffle_document,
    shuffled_junk_stream,
)
from poollab.injection import ALPHABET, VOCAB_SIZE, WORD_LENGTH_RANGE


def ten_token_pool(n_docs=100, label="cc"):
    docs = [
        Document(f"pool-{i:03d}", " ".join(f"w{i}x{j}" for j in range(10)))
        for i in range(n_docs)
    ]
    return Pool(documents=docs, seed=0, label=label)


def junk_docs(n, tokens_each=10):
    return [
        Document(
            f"junk-{i:04d}",
            " ".join(f"j{i}y{k}" for k in range(tokens_each)),
            DocumentSource.RANDOM_JUNK,
        )
        for i in range(n)
    ]


class TestBuildVocab:
    def test_size_exactly_10000_distinct(self):
        vocab = build_vocab(123)
        assert len(vocab.words) == VOCAB_SIZE
        assert len(set(vocab.words)) == VOCAB_SIZE

    def test_lengths_and_charset(self):
        vocab = build_vocab(5)
        lo, hi = WORD_LENGTH_RANGE
        assert all(lo <= len(w) <= hi for w in vocab.words)
        assert all(set(w) <= set(ALPHABET) for w in vocab.words)

    def test_deterministic_under_seed(self):
        assert build_vocab(9).words == build_vocab(9).words

    def test_different_seeds_differ(self):
        assert build_vocab(1).words != build_vocab(2).words


class TestGenRandomDocument:
    def test_singleton_has_no_space(self):
        vocab = build_vocab(0)
        d = gen_random_document(vocab, 1, seed=4)
        assert " " not in d.text
        assert d.source is DocumentSource.RANDOM_JUNK

    def test_join_arithmetic(self):
        d = gen_random_document(build_vocab(0), 5, seed=4)
        assert d.text.count(" ") == 4
        assert d.token_count == 5

    def test_membership_oracle(self):
        vocab = build_vocab(0)
        members = set(vocab.words)
        d = gen_random_document(vocab, 200, seed=11)
        assert all(w in members for w in d.text.split())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            gen_random_document(build_vocab(0), 0, seed=1)


class TestShuffleDocument:
    def test_single_word_fixed_point(self):
        d = Document("a", "hello")
        assert shuffle_document(d, seed=3).text == "hello"

    def test_multiset_preserved_small(self):
        d = Document("a", "a b c")
        out = shuffle_document(d, seed=1)
        assert sorted(out.text.split()) == ["a", "b", "c"]
        assert out.source is DocumentSource.SHUFFLED_JUNK

    def test_frequency_map_oracle_large(self):
        rng = random.Random(7)
        words = [rng.choice(["alpha", "beta", "gamma", "delta"]) for _ in range(1000)]
        d = Document("big", " ".join(words))
        out = shuffle_document(d, seed=2)
        shuffled_words = out.text.split()
        assert len(shuffled_words) == 1000
        assert Counter(shuffled_words) == Counter(words)

    def test_deterministic(self):
        d = Document("a", "one two three four five six")
        assert shuffle_document(d, 5).text == shuffle_document(d, 5).text

    @given(st.lists(st.sampled_from("aa bb cc dd ee".split()), min_size=1, max_size=50),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=80, deadline=None)
    def test_multiset_property(self, words, seed):
        d = Document("p", " ".join(words))
        out = shuffle_document(d, seed)
        assert Counter(out.text.split()) == Counter(words)


class TestInject:
    def test_cumulative_sum_oracle(self):
        # ratio 0.2 of a 1000-token pool with 10-token junk: exactly 20 docs
        pool = ten_token_pool()
        spec = InjectionSpec(kind=JunkKind.RANDOM_STRINGS, ratio=0.2, seed=1)
        out = inject(pool, spec, junk_docs(100))
        added = [d for d in out.documents if d.id.startswith("junk-")]
        assert len(added) == 20
        assert out.total_tokens == 1200

    def test_minimal_overshoot_single_doc(self):
        pool = ten_token_pool()
        spec = InjectionSpec(kind=JunkKind.RANDOM_STRINGS, ratio=1e-4, seed=1)
        out = inject(pool, spec, junk_docs(10))
        assert sum(1 for d in out.documents if d.id.startswith("junk-")) == 1

    def test_heavy_injection_ratio(self):
        pool = ten_token_pool(n_docs=50)  # 500 tokens
        spec = InjectionSpec(kind=JunkKind.SHUFFLED_DOCS, ratio=8.0, seed=3)
        out = inject(pool, spec, junk_docs(1000))
        junk_tokens = out.total_tokens - pool.total_tokens
        assert junk_tokens >= 8 * pool.total_tokens
        original_share = pool.total_tokens / out.total_tokens
        assert original_share == pytest.approx(1 / 9, rel=0.01)

    def test_label_records_kind_and_ratio(self):
        pool = ten_token_pool(label="cc")
        out = inject(
            pool, InjectionSpec(kind=JunkKind.SHUFFLED_DOCS, ratio=2.0, seed=1), junk_docs(500)
        )
        assert out.label == "cc+200% shuffled"

    def test_originals_unmodified_and_present(self):
        pool = ten_token_pool()
        out = inject(
            pool, InjectionSpec(kind=JunkKind.RANDOM_STRINGS, ratio=0.5, seed=9), junk_docs(100)
        )
        by_id = {d.id: d for d in out.documents}
        for original in pool.documents:
            assert by_id[original.id] == original

    def test_id_collision_rejected(self):
        pool = ten_token_pool()
        colliding = [Document("pool-000", "x y z", DocumentSource.RANDOM_JUNK)]
        with pytest.raises(ValidationError, match="collides"):
            inject(pool, InjectionSpec(kind=JunkKind.RANDOM_STRINGS, ratio=0.01, seed=1), colliding)

    def test_exhaustion_reports_achieved_ratio(self):
        pool = ten_token_pool()
        with pytest.raises(StreamExhaustedError, match="ratio 0.05"):
            inject(pool, InjectionSpec(kind=JunkKind.RANDOM_STRINGS, ratio=1.0, seed=1),
                   junk_docs(5))

    def test_deterministic_under_seed(self):
        pool = ten_token_pool()
        spec = InjectionSpec(kind=JunkKind.RANDOM_STRINGS, ratio=0.3, seed=77)
        a = inject(pool, spec, junk_docs(100))
        b = inject(pool, spec, junk_docs(100))
        assert [d.id for d in a.documents] == [d.id for d in b.documents]

    def test_ratio_must_be_positive(self):
        with pytest.raises(ValidationError):
            InjectionSpec(kind=JunkKind.RANDOM_STRINGS, ratio=0.0, seed=1)

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf")])
    def test_ratio_must_be_finite(self, ratio):
        # a target of nan or inf junk tokens is never met, so inject would never stop
        with pytest.raises(ValidationError, match="finite"):
            InjectionSpec(kind=JunkKind.RANDOM_STRINGS, ratio=ratio, seed=1)


class TestJunkStreams:
    def test_random_stream_charset_and_length_matching(self):
        pool = ten_token_pool()
        vocab = build_vocab(3)
        stream = random_junk_stream(pool, vocab, seed=5)
        docs = [next(stream) for _ in range(50)]
        allowed = set(ALPHABET) | {" "}
        for d in docs:
            assert set(d.text) <= allowed
            # lengths are drawn from the pool's (all-10-word) distribution
            assert len(d.text.split()) == 10

    def test_random_stream_deterministic(self):
        pool = ten_token_pool()
        vocab = build_vocab(3)
        a = [next(random_junk_stream(pool, vocab, seed=5)).text for _ in range(1)]
        b = [next(random_junk_stream(pool, vocab, seed=5)).text for _ in range(1)]
        assert a == b

    def test_shuffled_stream_preserves_ids_and_multisets(self):
        originals = junk_docs(20)
        shuffled = list(shuffled_junk_stream(originals, seed=2))
        assert [d.id for d in shuffled] == [d.id for d in originals]
        for before, after in zip(originals, shuffled):
            assert Counter(after.text.split()) == Counter(before.text.split())
            assert after.source is DocumentSource.SHUFFLED_JUNK
