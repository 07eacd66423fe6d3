import dataclasses
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from poollab import (
    Document,
    DocumentScorer,
    FilterConfig,
    FilterStats,
    PipelineStage,
    Pool,
    ValidationError,
    builtin_english_scorer,
    build_stages,
    english_filter,
    exact_dedup,
    profile,
    quality_filter,
    repetition_filter,
    repetition_fractions,
    run_pipeline,
    stopword_filter,
)
from poollab.filters import (
    PROFILES,
    REPETITION_GRANULARITIES,
)

import oracle_recount

DATA_DIR = Path(__file__).parent / "data"
#: Every stage, in the order of a full pipeline.
ALL_STAGES = ("english", "repetition", "stopword", "dedup", "quality")


def doc(text, doc_id="d0"):
    return Document(doc_id, text)


# ---------------------------------------------------------------------------
# Brute-force oracle for the n-gram coverage fractions: enumerate every
# occurrence and mark individual character positions in a set.
# ---------------------------------------------------------------------------


def oracle_ngram_fractions(text: str, n: int) -> tuple[float, float]:
    """(top fraction, duplicated fraction) for word n-grams of size n."""
    spans = [(m.start(), m.end()) for m in re.finditer(r"\S+", text)]
    words = [text[s:e] for s, e in spans]
    if len(words) < n or not text:
        return 0.0, 0.0
    occurrences = {}
    for i in range(len(words) - n + 1):
        gram = tuple(words[i : i + n])
        occurrences.setdefault(gram, []).append(range(spans[i][0], spans[i + n - 1][1]))

    def coverage(ranges) -> float:
        positions = set()
        for r in ranges:
            positions.update(r)
        return len(positions) / len(text)

    top_count = max(len(v) for v in occurrences.values())
    top = max(coverage(v) for v in occurrences.values() if len(v) == top_count)
    duplicated = coverage(
        [r for v in occurrences.values() if len(v) >= 2 for r in v]
    )
    return top, duplicated


class TestStopwordFilter:
    def test_hand_count_kept(self):
        # the x2 + and x1 = 3 >= 2, kept at the boundary count 3 and dropped above it
        text = doc("the cat and the hat")
        assert stopword_filter(text, FilterConfig()) == ()
        assert stopword_filter(text, FilterConfig(stopword_min_count=3)) == ()
        assert stopword_filter(text, FilterConfig(stopword_min_count=4)) == ("stopword",)

    def test_empty_dropped(self):
        assert stopword_filter(doc(""), FilterConfig()) == ("stopword",)

    def test_no_list_words_dropped(self):
        assert stopword_filter(doc("zebra quantum flux"), FilterConfig())

    def test_case_insensitive_whole_word(self):
        assert not stopword_filter(doc("The THE"), FilterConfig())
        # "them"/"theory" must not count as "the"
        assert stopword_filter(doc("them theory others"), FilterConfig())

    def test_total_versus_distinct_switch(self):
        repeated = doc("the the the")
        assert not stopword_filter(repeated, FilterConfig())
        assert stopword_filter(repeated, FilterConfig(stopword_distinct=True))


class TestVerdicts:
    @given(st.text(alphabet="the cat a xqzv\n", max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_verdict_is_the_failed_rules(self, text):
        # each filter names only its own rules, and a stage keeps a
        # document exactly when it names none
        d, cfg = doc(text), FilterConfig()
        verdicts = {
            "stopword": (stopword_filter(d, cfg), {"stopword"}),
            "repetition": (repetition_filter(d, cfg), set(REPETITION_GRANULARITIES)),
            "english": (english_filter(d, builtin_english_scorer(), cfg), {"english"}),
        }
        for name, (failed, rules) in verdicts.items():
            assert type(failed) is tuple and set(failed) <= rules
            kept = run_pipeline(Pool(documents=[d]), build_stages([name], cfg)).pool
            assert len(kept) == (not failed)


class TestRepetitionFractions:
    def test_identical_lines(self):
        fractions = repetition_fractions(doc("a\na\na"))
        assert fractions["duplicate_line"] == pytest.approx(2 / 3)

    def test_distinct_lines(self):
        assert repetition_fractions(doc("a\nb\nc"))["duplicate_line"] == 0.0

    def test_duplicate_paragraphs(self):
        fractions = repetition_fractions(doc("para one\n\npara one\n\npara two"))
        assert fractions["duplicate_paragraph"] == pytest.approx(1 / 3)

    def test_top_2gram_hand_example(self):
        # "a b a b": the top 2-gram "a b" covers chars 0..2 and 4..6 of 7.
        fractions = repetition_fractions(doc("a b a b"))
        top, dup = oracle_ngram_fractions("a b a b", 2)
        assert fractions["top_2gram"] == pytest.approx(top)
        assert fractions["top_2gram"] == pytest.approx(6 / 7)
        assert fractions["dup_5gram"] == 0.0
        assert dup == pytest.approx(6 / 7)

    def test_empty_doc_all_zero(self):
        fractions = repetition_fractions(doc(""))
        assert set(fractions) == set(REPETITION_GRANULARITIES)
        assert all(v == 0.0 for v in fractions.values())

    def test_matches_bruteforce_oracle_on_varied_texts(self):
        texts = [
            "one two three one two three one two",
            "spam spam spam spam spam spam spam spam spam",
            "the quick brown fox jumps over the lazy dog again and again and again",
            "x " * 30,
            "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3,
        ]
        for text in texts:
            fractions = repetition_fractions(doc(text))
            for n in range(2, 5):
                top, _ = oracle_ngram_fractions(text, n)
                assert fractions[f"top_{n}gram"] == pytest.approx(top), (text, n)
            for n in range(5, 11):
                _, dup = oracle_ngram_fractions(text, n)
                assert fractions[f"dup_{n}gram"] == pytest.approx(dup), (text, n)

    @given(
        st.lists(
            st.sampled_from(["a", "b", "ab", "c", " ", "  ", "\n", "\n\n"]), max_size=80
        ).map("".join)
    )
    # Duplicated 5-grams found in an order that is not text order: "b b b b b"
    # lies between the two "a a a a a" runs but is found after both.
    @example("a a a a a c c c c c b b b b b a a a a a ab ab ab ab ab b b b b b")
    @settings(max_examples=200, deadline=None)
    def test_equals_oracle_recount_exactly(self, text):
        # A few short words, so n-grams repeat, overlap and tie on count.
        assert repetition_fractions(doc(text)) == oracle_recount.repetition_fractions(text)

    @pytest.mark.parametrize("text", [
        # occurrences of different repeated n-grams interleave, so no
        # n-gram's occurrences form one run in text order
        "a a a a a b b b b b a a a a a b b b b b",
        "q r s t u v w x y z k q r s t u v w x y z m k",
        "c d e f g h c d e f g h x a b a b c d e f g h",
        # duplicated 10-grams that overlap themselves
        "t " * 25,
        "one two three four five six one two three four five six seven one two three four five six",
    ])
    def test_duplicates_out_of_text_order(self, text):
        assert repetition_fractions(doc(text)) == oracle_recount.repetition_fractions(text)

    def test_top_count_one_above_repeated_2grams(self):
        # "x yy" occurs twice; no 3-gram or 4-gram repeats, so those top
        # fractions are the longest single span: "x yy zzzz", "yy x yy zzzz"
        text = "x yy x yy zzzz"
        fractions = repetition_fractions(doc(text))
        assert fractions == oracle_recount.repetition_fractions(text)
        assert fractions["top_2gram"] == 8 / 14
        assert fractions["top_3gram"] == 9 / 14
        assert fractions["top_4gram"] == 12 / 14
        assert fractions["dup_5gram"] == 0.0

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("repeat", [False, True])
    def test_texts_around_n_words(self, n, repeat):
        for count in (0, 1, n - 1, n):
            words = ["w"] * count if repeat else [f"w{i}" * (1 + i % 3) for i in range(count)]
            text = "  ".join(words) + "\n"
            assert repetition_fractions(doc(text)) == oracle_recount.repetition_fractions(text)

    @given(
        st.integers(min_value=2, max_value=30).flatmap(
            lambda k: st.lists(
                st.tuples(
                    st.sampled_from([f"w{i}" * (1 + i % 3) for i in range(k)]),
                    st.sampled_from([" ", " ", " ", "  ", "\t", "\n", "\n\n"]),
                ),
                max_size=90,
            )
        ).map(lambda pairs: "".join(w + sep for w, sep in pairs))
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_oracle_recount_on_small_vocabularies(self, text):
        # 2 to 30 distinct words: long repeated runs beside n-grams that
        # occur once, so the prefix pruning and count ties are exercised
        assert repetition_fractions(doc(text)) == oracle_recount.repetition_fractions(text)

    @given(st.text(alphabet="ab \n", max_size=120))
    @settings(max_examples=120, deadline=None)
    def test_fractions_bounded(self, text):
        fractions = repetition_fractions(doc(text))
        assert set(fractions) == set(REPETITION_GRANULARITIES)
        for value in fractions.values():
            assert 0.0 <= value <= 1.0


def with_threshold(cfg, name, value):
    """``cfg`` with repetition threshold ``name`` set to ``value``."""
    return dataclasses.replace(cfg, repetition_thresholds={**cfg.repetition_thresholds, name: value})


class TestRepetitionFilter:
    def test_zero_fractions_kept(self):
        # a single word has no n-grams and no duplicate segments
        assert all(v == 0.0 for v in repetition_fractions(doc("hello")).values())
        # so even all-zero thresholds keep it
        zero = FilterConfig(repetition_thresholds=dict.fromkeys(REPETITION_GRANULARITIES, 0.0))
        assert repetition_filter(doc("hello"), zero) == ()

    def test_varied_text_passes_default_thresholds(self):
        words = [f"unique{i:02d}" for i in range(60)]
        assert repetition_filter(doc(" ".join(words)), FilterConfig()) == ()

    def test_duplicate_lines_dropped_and_named(self):
        assert "duplicate_line" in repetition_filter(doc("a\na\na"), FilterConfig())

    def test_boundary_equal_is_kept(self):
        # isolate duplicate_line: every other rule is vacuous at 1.0
        permissive = profile("permissive")
        assert repetition_fractions(doc("same\nsame"))["duplicate_line"] == 0.5
        cfg = with_threshold(permissive, "duplicate_line", 0.5)
        assert repetition_filter(doc("same\nsame"), cfg) == ()
        cfg = with_threshold(permissive, "duplicate_line", 0.49)
        assert repetition_filter(doc("same\nsame"), cfg) == ("duplicate_line",)

    def test_missing_threshold_is_config_error(self):
        # a partial map is rejected when the config is built, not when a
        # document first reaches the repetition stage
        partial = dict(FilterConfig().repetition_thresholds)
        del partial["dup_7gram"]
        with pytest.raises(ValidationError, match=r"missing granularities: \['dup_7gram'\]"):
            FilterConfig(repetition_thresholds=partial)
        with pytest.raises(ValidationError, match="dup_7gram"):
            dataclasses.replace(FilterConfig(), repetition_thresholds=partial)


def english(threshold):
    return FilterConfig(english_threshold=threshold)


class TestEnglishFilter:
    def test_all_stopwords_scores_high(self):
        text = doc("the of and that have")
        assert builtin_english_scorer().score(text.text) >= 0.9
        assert english_filter(text, builtin_english_scorer(), english(0.5)) == ()

    def test_gibberish_scores_zero(self):
        text = doc("xqzv bnlp wrtk")
        assert builtin_english_scorer().score(text.text) == 0.0
        assert english_filter(text, builtin_english_scorer(), english(0.1)) == ("english",)

    def test_zero_threshold_keeps_everything(self):
        assert english_filter(doc("xqzv"), builtin_english_scorer(), english(0.0)) == ()
        assert english_filter(doc(""), builtin_english_scorer(), english(0.0)) == ()

    def test_punctuation_stripped_for_lookup(self):
        text = doc("The cat, quite often, sat.")
        assert builtin_english_scorer().score(text.text) == 1.0
        # a score equal to the threshold is kept
        assert english_filter(text, builtin_english_scorer(), english(1.0)) == ()

    @given(st.lists(st.sampled_from("the of and xqzv bnlp wrtk".split()), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_threshold_monotonicity(self, words):
        d = doc(" ".join(words))
        scorer = builtin_english_scorer()
        kept = [not english_filter(d, scorer, english(t)) for t in (0.0, 0.3, 0.6, 0.9)]
        # once dropped at some threshold, stays dropped at higher ones
        assert kept == sorted(kept, reverse=True)


def quality(keep_fraction):
    return FilterConfig(quality_keep_fraction=keep_fraction)


class TestDedupAndQuality:
    def test_exact_duplicates_collapse(self):
        pool = Pool(documents=[doc("same text", "a"), doc("same text", "b")])
        assert [d.id for d in exact_dedup(pool).documents] == ["a"]

    def test_distinct_pool_unchanged(self):
        pool = Pool(documents=[doc("one", "a"), doc("two", "b")])
        assert exact_dedup(pool).documents == pool.documents

    def test_outer_whitespace_normalized(self):
        pool = Pool(documents=[doc("text\n", "a"), doc("text", "b")])
        assert [d.id for d in exact_dedup(pool).documents] == ["a"]

    def test_quality_identity_at_one(self, small_pool):
        out = quality_filter(small_pool, builtin_english_scorer(), quality(1.0))
        assert out.documents == small_pool.documents

    def test_quality_top_k_by_score(self):
        scores = {f"d{i}": i / 10 for i in range(10)}
        scorer = DocumentScorer("table", lambda text: scores[text])
        pool = Pool(documents=[doc(f"d{i}", doc_id=f"d{i}") for i in range(10)])
        out = quality_filter(pool, scorer, quality(0.2))
        assert sorted(d.id for d in out.documents) == ["d8", "d9"]

    def test_quality_tie_break_lower_id(self):
        scorer = DocumentScorer("const", lambda text: 0.5)
        pool = Pool(documents=[doc("t", "b"), doc("t2", "a"), doc("t3", "c")])
        out = quality_filter(pool, scorer, quality(1 / 3))
        assert [d.id for d in out.documents] == ["a"]

    def test_quality_size_is_ceil(self, small_pool):
        out = quality_filter(small_pool, builtin_english_scorer(), quality(0.26))
        assert len(out) == math.ceil(0.26 * len(small_pool))

    def test_quality_preserves_order(self):
        scores = {"x1": 0.9, "x2": 0.1, "x3": 0.8}
        scorer = DocumentScorer("table", lambda text: scores[text])
        pool = Pool(documents=[doc("x1", "x1"), doc("x2", "x2"), doc("x3", "x3")])
        out = quality_filter(pool, scorer, quality(2 / 3))
        assert [d.id for d in out.documents] == ["x1", "x3"]

    def test_quality_empty_pool(self):
        out = quality_filter(Pool(documents=[]), builtin_english_scorer(), quality(0.5))
        assert len(out) == 0


class TestPipeline:
    def test_all_pass_stopword_stage(self):
        docs = [doc(f"the cat and the hat {i}", f"d{i}") for i in range(5)]
        pool = Pool(documents=docs)
        result = run_pipeline(pool, build_stages(["stopword"], FilterConfig()))
        assert result.cumulative.retention_docs == 1.0

    def test_vacuous_stages_are_identity(self, small_pool):
        cfg = profile("permissive")
        result = run_pipeline(small_pool, build_stages(["english", "repetition"], cfg))
        assert result.pool.documents == small_pool.documents
        assert result.cumulative.retention_tokens == 1.0

    def test_composition_prefix_bound(self):
        texts = [
            "the cat and the hat sat",
            "xqzv bnlp",
            "spam spam spam spam spam spam",
            "a fine day to walk in the park",
            "b\nb\nb\nb",
        ]
        pool = Pool(documents=[doc(t, f"d{i}") for i, t in enumerate(texts)])
        stages = build_stages(["english", "repetition", "stopword"], FilterConfig())
        result = run_pipeline(pool, stages)
        kept_so_far = pool.total_tokens
        for _, stats in result.per_stage:
            assert stats.tokens_kept <= kept_so_far
            kept_so_far = stats.tokens_kept

    def test_stage_order_recorded(self, small_pool):
        stages = build_stages(["stopword", "english"], profile("permissive"))
        result = run_pipeline(small_pool, stages)
        assert result.stage_order == ["stopword", "english"]

    def test_each_text_scored_once(self):
        base = oracle_recount.load_fixture(DATA_DIR / "corpus_1k.jsonl")[:120]
        # every third text three times in a row under new ids, so english
        # meets repeated texts and quality reranks what english scored
        docs = [doc(t, f"{i}-{k}") for n, (i, t) in enumerate(base)
                for k in range(1 if n % 3 else 3)]
        pool = Pool(documents=docs)
        scored = []

        def count(text):
            scored.append(text)
            return builtin_english_scorer().score(text)

        cfg = FilterConfig(quality_keep_fraction=0.5)
        stages = build_stages(ALL_STAGES, cfg, DocumentScorer("counting", count))
        cached = run_pipeline(pool, stages)
        assert sorted(scored) == sorted({d.text for d in docs})

        plain = builtin_english_scorer()

        def kept_by(failed):
            return lambda pool, _: pool.replace_documents(
                [d for d in pool.documents if not failed(d)])

        uncached = run_pipeline(pool, [
            PipelineStage("english", kept_by(lambda d: english_filter(d, plain, cfg))),
            PipelineStage("repetition", kept_by(lambda d: repetition_filter(d, cfg))),
            PipelineStage("stopword", kept_by(lambda d: stopword_filter(d, cfg))),
            PipelineStage("dedup", lambda pool, _: exact_dedup(pool)),
            PipelineStage("quality", lambda pool, _: quality_filter(pool, plain, cfg)),
        ])
        assert cached.stats_rows() == uncached.stats_rows()
        assert cached.pool.documents == uncached.pool.documents
        assert 0 < len(cached.pool) < len(pool)

    def test_empty_stage_list_rejected(self, small_pool):
        with pytest.raises(ValidationError):
            run_pipeline(small_pool, [])

    @pytest.mark.parametrize("names", [
        ["english", "english"],
        ["stopword", "dedup", "stopword"],
        list(ALL_STAGES) + ["quality"],
    ])
    def test_duplicate_stage_rejected(self, names):
        # a repeated stage would write a second stats row under the same name
        with pytest.raises(ValidationError, match=f"stage {names[-1]!r} is listed twice"):
            build_stages(names, FilterConfig())

    def test_stats_rows_schema(self, small_pool):
        result = run_pipeline(small_pool, build_stages(["stopword"], FilterConfig()))
        rows = result.stats_rows()
        assert [r["stage"] for r in rows] == ["stopword", "cumulative"]
        assert set(rows[0]) == {
            "stage",
            "docs_in",
            "docs_kept",
            "tokens_in",
            "tokens_kept",
            "retention_docs",
            "retention_tokens",
        }


class TestConfig:
    def test_profiles_cover_all_granularities(self):
        for name in ("gopher", "permissive"):
            cfg = profile(name)
            assert set(cfg.repetition_thresholds) == set(REPETITION_GRANULARITIES)

    def test_profiles_are_shared_and_read_only(self):
        # profile() hands out the one PROFILES entry, which no caller can change
        cfg = profile("gopher")
        assert cfg is PROFILES["gopher"] and cfg == FilterConfig()
        with pytest.raises(TypeError):
            cfg.repetition_thresholds["duplicate_line"] = 0.0
        assert profile("gopher") == FilterConfig()

    def test_config_cannot_be_changed(self):
        # no field or threshold can be set after the checks have passed
        cfg = FilterConfig()
        for f in dataclasses.fields(cfg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))
        with pytest.raises(TypeError):
            cfg.repetition_thresholds["duplicate_line"] = -1.0
        with pytest.raises(TypeError):
            del cfg.repetition_thresholds["dup_7gram"]
        assert cfg == FilterConfig()

    def test_thresholds_are_copied_when_built(self):
        thresholds = dict(FilterConfig().repetition_thresholds)
        cfg = FilterConfig(repetition_thresholds=thresholds)
        thresholds["duplicate_line"] = -1.0  # the caller's dict, not the config's
        assert cfg.repetition_thresholds["duplicate_line"] == 0.30

    def test_unknown_profile(self):
        with pytest.raises(ValidationError):
            profile("nope")

    def test_unknown_repetition_threshold_rejected(self):
        with pytest.raises(ValidationError, match="top_2grams"):
            FilterConfig(repetition_thresholds={"top_2grams": 0.0})

    def test_threshold_bounds_checked(self):
        with pytest.raises(ValidationError):
            FilterConfig(english_threshold=1.5)
        with pytest.raises(ValidationError):
            FilterConfig(quality_keep_fraction=0.0)
        with pytest.raises(ValidationError):
            FilterConfig(stopword_min_count=-3)
        with pytest.raises(ValidationError, match="duplicate_line"):
            with_threshold(FilterConfig(), "duplicate_line", -1.0)

    def test_stats_retention_math(self):
        stats = FilterStats(docs_in=4, docs_kept=1, tokens_in=40, tokens_kept=9)
        assert stats.retention_docs == 0.25
        assert stats.retention_tokens == pytest.approx(0.225)
