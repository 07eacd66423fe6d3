"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion.  Every tolerance is pinned here, not configurable.
"""

import json
import math
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np

from poollab import (
    Document,
    EvalPoint,
    ModelConfig,
    Pool,
    RunRecord,
    Verdict,
    analytic_min_loss,
    best_achievable,
    build_stages,
    build_vocab,
    bundled_model_configs,
    compute_flops,
    crossing_point,
    empirical_min_loss,
    epochs,
    extrapolate_compute,
    fit_crossing_quadratic,
    fit_power_law,
    fit_threshold_epoch_constraint,
    fit_threshold_tokens_per_param,
    judge_documents,
    JudgeClient,
    keyword_match,
    kl_improvement_bruteforce,
    kl_improvement_closed_form,
    non_embedding_params,
    predict_conditional,
    random_orthogonal_spec,
    shuffle_document,
    aggregate_judgements,
    QAItem,
)
from poollab.cli import dispatch
from poollab.filters import FilterConfig, run_pipeline
from poollab.scaling import CrossingPoint
from poollab.theory import FilterFn, random_similarity_dataset, weighted_pass_rates

import oracle_recount
from worldgen import curve_run, planted_threshold_world

DATA_DIR = Path(__file__).parent / "data"

TINY = ModelConfig(
    name="tiny", hidden_dim=16, layers=1, heads=1, head_dim=16, ffn_dim=64,
    vocab_size=100, total_params=1_000_000, non_embedding_params=500_000,
)


def test_c01_rank_necessity_verification():
    start = time.perf_counter()
    worst_gap = 0.0
    worst_oracle_gap = 0.0
    n_specs = 20
    for seed in range(n_specs):
        spec = random_orthogonal_spec(seed=seed)
        assert spec.k <= 4 and spec.d <= 16 and spec.m_out <= 8

        # independent SVD-truncation oracle for ranks below the positive
        # singular-value count
        a = spec.m_star @ spec.sigma_sqrt()
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        rho = int(np.sum(s > 1e-12 * max(s[0], 1.0)))
        for r in range(rho):
            a_r = (u[:, :r] * s[:r]) @ vt[:r]
            oracle = float(np.sum((a - a_r) ** 2)) + spec.noise_power
            gap = abs(analytic_min_loss(spec, r) - oracle)
            worst_oracle_gap = max(worst_oracle_gap, gap)
            assert gap <= 1e-10

        for r in range(spec.k, min(spec.d, spec.m_out) + 1):
            analytic = analytic_min_loss(spec, r)
            empirical = empirical_min_loss(spec, r, steps=8000, restarts=3, seed=100 + seed)
            gap = abs(analytic - empirical)
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-4, (seed, r, analytic, empirical)

    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    print(
        f"\nPASS criterion 1 (rank necessity): {n_specs} specs, "
        f"max |empirical-analytic| {worst_gap:.2e}, max oracle gap "
        f"{worst_oracle_gap:.2e}, {elapsed:.1f}s"
    )


def test_c02_filter_improvement_identity():
    rng = random.Random(17)
    checked = 0
    worst = 0.0
    while checked < 100:
        data = random_similarity_dataset(rng.randint(0, 2**31))
        labels = sorted({y for _, y in data.examples})
        y_star = rng.choice(labels)
        decisions = {(x, y): rng.random() < 0.6 for x, y in data.examples}
        phi = FilterFn(lambda x, y: int(decisions.get((x, y), 0)))
        try:
            tpr, fpr = weighted_pass_rates(data, phi, y_star)
            if tpr <= 0.0:
                continue
            brute = kl_improvement_bruteforce(data, phi, y_star)
        except Exception:
            continue
        closed = kl_improvement_closed_form(predict_conditional(data)[y_star], fpr / tpr)
        gap = abs(brute - closed)
        worst = max(worst, gap)
        assert gap <= 1e-12

        identity = kl_improvement_bruteforce(data, FilterFn(lambda x, y: 1), y_star)
        assert identity == 0.0
        checked += 1
    print(
        f"\nPASS criterion 2 (filter improvement): {checked} random datasets, "
        f"max |bruteforce-closed| {worst:.2e}, identity filter exactly 0"
    )


def test_c03_shuffle_word_frequency_invariance():
    rng = random.Random(31337)
    vocab = [f"word{i}" for i in range(50)] + ["it,", "go.", "x-y", "a'b"]
    mismatches = 0
    n_docs = 10_000
    for i in range(n_docs):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 60))]
        doc = Document(f"d{i}", " ".join(words))
        shuffled = shuffle_document(doc, seed=i)
        if Counter(shuffled.text.split()) != Counter(words):
            mismatches += 1
    assert mismatches == 0
    print(
        f"\nPASS criterion 3 (shuffle invariance): {n_docs} documents, "
        f"{mismatches} frequency-map mismatches"
    )


def test_c04_junk_vocabulary():
    first = build_vocab(2024)
    second = build_vocab(2024)
    assert len(first.words) == 10_000
    assert len(set(first.words)) == 10_000
    assert all(3 <= len(w) <= 8 for w in first.words)
    assert all(set(w) <= set("abcdefghijklmnopqrstuvwxyz") for w in first.words)
    assert first.words == second.words
    print(
        "\nPASS criterion 4 (junk vocabulary): 10,000 distinct words, lengths 3..8, "
        "charset a-z, rebuild byte-identical"
    )


def test_c05_power_law_fitter():
    start = time.perf_counter()
    rng = random.Random(5150)
    n = np.logspace(2, 5, 10)
    trials = 50
    worst = 0.0
    for _ in range(trials):
        a = rng.uniform(0.5, 10.0)
        b = rng.uniform(0.1, 1.0)
        c = rng.uniform(0.0, 4.0)
        fit = fit_power_law([(x, c + a * x**-b) for x in n])
        rel = max(
            abs(fit.a - a) / a,
            abs(fit.b - b) / b,
            abs(fit.c - c) / max(c, 1e-3),
        )
        worst = max(worst, rel)
        assert rel <= 0.01, (a, b, c, fit)
        assert fit.r2 >= 0.999
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    print(
        f"\nPASS criterion 5 (power-law fitter): {trials} planted curves, "
        f"worst relative error {worst:.2e}, {elapsed:.2f}s"
    )


def _filtered_runs_with_exact_best(best: float, grid: list[int]) -> list[RunRecord]:
    losses = [best + 0.3, best + 0.1, best]
    points = tuple(
        EvalPoint(tokens_seen=n, losses={"avg": l}) for n, l in zip(grid[:3], losses)
    )
    return [
        RunRecord(
            dataset_label="rw", model=TINY, train_tokens=max(grid),
            pool_tokens=1000, eval_points=points,
        )
    ]


def test_c06_crossing_estimator():
    grid = [2, 4, 8, 16, 32, 64]
    target = 3.5
    filtered = _filtered_runs_with_exact_best(target, grid)
    assert best_achievable(filtered) == target

    # planted finite crossing: analytic inversion of the pool curve
    pool = [curve_run("cc", TINY, 1000, 2.0, 0.3, 3.0, tokens_grid=grid)]
    cp = crossing_point(pool, filtered, TINY.total_params, 1000)
    analytic = (2.0 / (target - 3.0)) ** (1.0 / 0.3)
    assert not cp.never and not cp.observed
    assert abs(cp.crossing_tokens - analytic) <= 0.05 * analytic

    refit = fit_power_law([(x, 3.0 + 2.0 * x**-0.3) for x in grid])
    residual = abs(refit.predict(cp.crossing_tokens) - target) / target
    assert residual <= 1e-9

    # NEVER exactly when the pool asymptote is at or above the target;
    # planted asymptotes are recovered to ~1e-9, far inside the margins
    for asymptote in (3.3, 3.49, 3.55, 3.7):
        pool_c = [curve_run("cc", TINY, 1000, 2.0, 0.3, asymptote, tokens_grid=grid)]
        result = crossing_point(pool_c, filtered, TINY.total_params, 1000)
        assert result.never == (asymptote >= target), asymptote

    # exact boundary, probed against the fitted asymptote itself: a target
    # equal to it is never reached, one just above is
    pool_b = [curve_run("cc", TINY, 1000, 2.0, 0.3, 3.5, tokens_grid=grid)]
    fitted_c = fit_power_law([(x, 3.5 + 2.0 * x**-0.3) for x in grid]).c
    at_boundary = crossing_point(
        pool_b, _filtered_runs_with_exact_best(fitted_c, grid), TINY.total_params, 1000
    )
    assert at_boundary.never
    above_boundary = crossing_point(
        pool_b, _filtered_runs_with_exact_best(fitted_c + 1e-6, grid),
        TINY.total_params, 1000,
    )
    assert not above_boundary.never

    print(
        f"\nPASS criterion 6 (crossing estimator): planted crossing error "
        f"{abs(cp.crossing_tokens - analytic) / analytic:.2e}, law residual "
        f"{residual:.2e}, NEVER boundary exact"
    )


def test_c07_scaling_law_pipeline():
    world = planted_threshold_world()
    quads = {m: fit_crossing_quadratic(c) for m, c in world.crossings_by_model.items()}
    tpp = fit_threshold_tokens_per_param(quads, world.configs, world.ratio)
    epoch = fit_threshold_epoch_constraint(quads, world.epochs)

    assert abs(tpp.beta - world.beta) <= 1e-2
    assert abs(epoch.beta - world.beta) <= 1e-2
    assert tpp.r2 > 0.99 and epoch.r2 > 0.99

    c_tpp = extrapolate_compute(tpp, 240e12)
    c_epoch = extrapolate_compute(epoch, 240e12)
    agreement = abs(math.log10(c_tpp) - math.log10(c_epoch))
    assert agreement <= 0.5
    print(
        f"\nPASS criterion 7 (scaling-law pipeline): beta errors "
        f"{abs(tpp.beta - world.beta):.2e}/{abs(epoch.beta - world.beta):.2e}, "
        f"r2 {tpp.r2:.4f}/{epoch.r2:.4f}, 240T agreement {agreement:.3f} OOM "
        f"({c_tpp:.2e} vs {c_epoch:.2e} FLOPs)"
    )


def test_c08_reference_point_smoke():
    anchors = [(670e6, 1.0), (2e9, 3.0), (10e9, 10.0)]  # (pool tokens, epochs)
    crossings = [
        CrossingPoint(
            model_params=1_080_104_960,
            pool_tokens=int(m),
            crossing_tokens=m * ep,
            observed=True,
        )
        for m, ep in anchors
    ]
    quad = fit_crossing_quadratic(crossings)
    worst = 0.0
    for cp in crossings:
        predicted = quad.predict(cp.pool_tokens)
        rel = abs(predicted - cp.crossing_tokens) / cp.crossing_tokens
        worst = max(worst, rel)
        assert rel <= 0.01

    grid = np.logspace(math.log10(670e6), 10.0, 300)
    values = [quad.predict(m) for m in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    print(
        f"\nPASS criterion 8 (reference-point smoke): 3-point interpolation "
        f"max error {worst:.2e}, crossing tokens strictly increasing in pool size"
    )


def _stats_to_dict(stats) -> dict:
    return {
        "docs_in": stats.docs_in,
        "docs_kept": stats.docs_kept,
        "tokens_in": stats.tokens_in,
        "tokens_kept": stats.tokens_kept,
        "retention_docs": stats.retention_docs,
        "retention_tokens": stats.retention_tokens,
    }


def test_c09_filter_determinism_and_oracle_recount(tmp_path):
    fixture = DATA_DIR / "corpus_1k.jsonl"
    docs = oracle_recount.load_fixture(fixture)
    live_oracle = oracle_recount.recount(docs)
    frozen = json.loads((DATA_DIR / "corpus_1k_oracle.json").read_text())
    assert live_oracle == frozen

    pool = Pool(documents=[Document(i, t) for i, t in docs])
    cfg = FilterConfig()
    stage_names = ["english", "repetition", "stopword", "dedup", "quality"]

    for name in stage_names:
        result = run_pipeline(pool, build_stages([name], cfg))
        assert _stats_to_dict(result.per_stage[0][1]) == live_oracle["single_stage"][name], name

    result = run_pipeline(pool, build_stages(stage_names, cfg))
    for (name, stats) in result.per_stage:
        assert _stats_to_dict(stats) == live_oracle["pipeline"][name], name
    assert _stats_to_dict(result.cumulative) == live_oracle["pipeline"]["cumulative"]

    # identical stats CSV under --threads 1 and --threads 4, a budget the stages ignore
    outputs = {}
    for tag, extra in {"seq": ["--threads", "1"], "par": ["--threads", "4"]}.items():
        out = tmp_path / f"out_{tag}.jsonl"
        stats_path = tmp_path / f"stats_{tag}.csv"
        code = dispatch([
            "filter", "--pool", str(fixture), "--stages", ",".join(stage_names),
            "--output", str(out), "--stats", str(stats_path),
        ] + extra)
        assert code == 0
        outputs[tag] = stats_path.read_bytes()
    assert outputs["seq"] == outputs["par"]
    retention = live_oracle["pipeline"]["cumulative"]["retention_docs"]
    print(
        f"\nPASS criterion 9 (filter oracle recount): live recount == frozen oracle, "
        f"library == oracle on all 5 filters (pipeline retention {retention:.4f}), "
        f"stats identical under --threads 1 vs --threads 4"
    )


def test_c10_formula_exactness():
    rng = random.Random(8)
    for _ in range(1000):
        n = rng.randint(1, 10**12)
        m = rng.randint(1, 10**10)
        pool = rng.randint(1, 10**12)
        model = ModelConfig(
            name="r", hidden_dim=16, layers=1, heads=1, head_dim=16, ffn_dim=64,
            vocab_size=100, total_params=m, non_embedding_params=min(m, 1),
        )
        record = RunRecord(
            dataset_label="x", model=model, train_tokens=n, pool_tokens=pool,
            eval_points=(EvalPoint(tokens_seen=n, losses={"avg": 1.0}),),
        )
        assert compute_flops(record) == float(6 * n * m)
        assert epochs(record) == n / pool

    for cfg in bundled_model_configs():
        per_layer_attention = 4 * cfg.hidden_dim * cfg.hidden_dim
        per_layer_ffn = 3 * cfg.hidden_dim * cfg.ffn_dim
        norms = (2 * cfg.layers + 1) * cfg.hidden_dim
        by_hand = sum(per_layer_attention + per_layer_ffn for _ in range(cfg.layers)) + norms
        assert non_embedding_params(cfg) == by_hand == cfg.non_embedding_params
    print(
        "\nPASS criterion 10 (formula exactness): 6NM and N/m exact on 1000 random "
        "records; non-embedding counts match hand evaluation on all 5 bundled configs"
    )


def test_c11_factuality_pipeline_under_mocks():
    rng = random.Random(12)
    vocab = ["pulsar", "pulsars", "neutron", "star", "galaxy", "the", "spins"]
    docs = [
        Document(f"d{i}", " ".join(rng.choice(vocab) for _ in range(rng.randint(3, 15))))
        for i in range(300)
    ]
    pool = Pool(documents=docs)
    qa = QAItem(
        subject="astronomy", question="What is a pulsar?",
        answer="a rotating neutron star", keywords=("pulsar", "neutron"),
    )

    matched = keyword_match(pool, qa)
    # brute-force scan: whole-word membership over \w+ tokens
    import re

    brute = [
        d for d in docs
        if all(kw in re.findall(r"\w+", d.text.lower()) for kw in qa.keywords)
    ]
    assert [d.id for d in matched] == [d.id for d in brute]
    assert len(matched) > 0

    def faulty(doc_text, question, answer):
        if doc_text.split()[0] == "galaxy":
            raise ConnectionError("injected fault")
        return Verdict.RELATED

    run = judge_documents(
        matched, qa, JudgeClient(classify=faulty, max_concurrency=6, backoff_base=0.0)
    )
    judged_ids = {j.doc_id for j in run.judgements}
    failed_ids = {f.doc_id for f in run.failures}
    assert judged_ids | failed_ids == {d.id for d in matched}
    assert judged_ids.isdisjoint(failed_ids)

    rows = aggregate_judgements(run.judgements, [qa])
    assert list(rows[0].keys()) == ["subject", "Support", "Refute", "Related", "Unrelated"]
    print(
        f"\nPASS criterion 11 (factuality under mocks): keyword match == brute force "
        f"({len(matched)} docs), {len(failed_ids)} injected failures isolated, "
        f"aggregate schema has the four verdict columns"
    )
