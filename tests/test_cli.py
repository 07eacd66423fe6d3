import argparse
import builtins
import contextlib
import csv
import dis
import functools
import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import textwrap
import types
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import poollab
import poollab.cli as cli
from poollab import (
    bundled_model_configs,
    crossing_point,
    load_run_log,
    make_document,
    write_documents,
    write_run_log,
)
from poollab.cli import CROSSING_COLUMNS, dispatch
from poollab.io import write_rows
from poollab.runlog import record_to_dict

from worldgen import curve_run, planted_threshold_world

CONFIG_15M = next(c for c in bundled_model_configs() if c.name == "15M")
CONFIG_80M = next(c for c in bundled_model_configs() if c.name == "80M")


@pytest.fixture
def docs_file(tmp_path):
    rng = random.Random(3)
    wordish = ["the", "cat", "and", "dog", "sat", "with", "that", "have", "of", "to"]
    docs = []
    for i in range(200):
        n = rng.randint(10, 40)
        docs.append(make_document(f"doc-{i:03d}", " ".join(rng.choice(wordish) for _ in range(n))))
    path = tmp_path / "docs.jsonl"
    write_documents(path, docs)
    return path


@pytest.fixture
def extra_docs_file(tmp_path):
    rng = random.Random(4)
    docs = [
        make_document(f"extra-{i:03d}", " ".join(f"w{rng.randint(0, 50)}" for _ in range(20)))
        for i in range(400)
    ]
    path = tmp_path / "extra.jsonl"
    write_documents(path, docs)
    return path


@pytest.fixture
def runs_file(tmp_path):
    # pool curve 3 + 2*N^-0.3 stays above the filtered best (3.5) on this
    # grid, so the crossing at ~101.6 tokens must come from extrapolation
    grid = [2, 4, 8, 16, 32, 64]
    pool_tokens = 1_000
    records = [
        curve_run("cc", CONFIG_15M, pool_tokens, 2.0, 0.3, 3.0, tokens_grid=grid),
        curve_run("rw", CONFIG_15M, pool_tokens, 1e-9, 0.5, 3.5, tokens_grid=grid),
    ]
    path = tmp_path / "runs.jsonl"
    write_run_log(path, records)
    return path


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestBasics:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "sample" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        for name in ["sample", "filter", "inject", "ingest", "pareto", "crossing",
                     "scaling-law", "extrapolate", "slice-loss", "verify-theory",
                     "judge", "report"]:
            assert dispatch([name, "--help"]) == 0

    def test_unknown_subcommand_exits_two(self):
        assert dispatch(["frobnicate"]) == 2

    def test_missing_required_flags_exit_two(self):
        assert dispatch(["crossing"]) == 2

    def test_no_command_exits_two(self):
        assert dispatch([]) == 2

    def test_threads_only_on_filter(self, tmp_path, runs_file):
        assert dispatch(["report", "--runs", str(runs_file), "--threads", "2",
                         "--output", str(tmp_path / "r.csv")]) == 2

    def test_config_only_where_read(self, tmp_path, runs_file):
        assert dispatch(["report", "--runs", str(runs_file), "--config", "c.json",
                         "--output", str(tmp_path / "r.csv")]) == 2


class TestPoolPipeline:
    def test_sample_filter_inject_chain(self, tmp_path, docs_file, extra_docs_file):
        pool = tmp_path / "pool.jsonl"
        assert dispatch([
            "sample", "--input", str(docs_file), "--target-tokens", "2000",
            "--seed", "7", "--label", "cc", "--output", str(pool),
        ]) == 0
        assert pool.exists() and (tmp_path / "pool.jsonl.manifest.json").exists()
        header = json.loads((tmp_path / "pool.jsonl.header.json").read_text())
        assert header["label"] == "cc" and header["total_tokens"] >= 2000

        filtered = tmp_path / "filtered.jsonl"
        stats = tmp_path / "stats.csv"
        assert dispatch([
            "filter", "--pool", str(pool), "--stages", "english,repetition,stopword",
            "--output", str(filtered), "--stats", str(stats), "--threads", "1",
        ]) == 0
        rows = read_csv_rows(stats)
        assert [r["stage"] for r in rows] == ["english", "repetition", "stopword", "cumulative"]

        injected = tmp_path / "random.jsonl"
        assert dispatch([
            "inject", "--pool", str(pool), "--kind", "random_strings",
            "--ratio", "0.5", "--seed", "3", "--output", str(injected),
        ]) == 0
        header = json.loads((tmp_path / "random.jsonl.header.json").read_text())
        assert "+50% random" in header["label"]

        shuffled = tmp_path / "shuffled.jsonl"
        assert dispatch([
            "inject", "--pool", str(pool), "--kind", "shuffled_docs", "--ratio", "2.0",
            "--seed", "3", "--junk-source", str(extra_docs_file), "--output", str(shuffled),
        ]) == 0
        header = json.loads((tmp_path / "shuffled.jsonl.header.json").read_text())
        assert "+200% shuffled" in header["label"]

    def test_shuffled_requires_junk_source(self, tmp_path, docs_file):
        pool = tmp_path / "pool.jsonl"
        dispatch(["sample", "--input", str(docs_file), "--target-tokens", "500",
                  "--seed", "1", "--output", str(pool)])
        code = dispatch(["inject", "--pool", str(pool), "--kind", "shuffled_docs",
                         "--ratio", "1.0", "--seed", "1",
                         "--output", str(tmp_path / "x.jsonl")])
        assert code == 2

    def test_sample_reruns_byte_identical(self, tmp_path, docs_file):
        out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        for out in (out1, out2):
            assert dispatch(["sample", "--input", str(docs_file), "--target-tokens",
                             "1500", "--seed", "11", "--label", "cc",
                             "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_filter_threads_do_not_change_stats(self, tmp_path, docs_file):
        pool = tmp_path / "pool.jsonl"
        dispatch(["sample", "--input", str(docs_file), "--target-tokens", "2000",
                  "--seed", "7", "--output", str(pool)])
        stats = {}
        for tag, extra in {"seq": ["--threads", "1"], "par": ["--threads", "4"]}.items():
            out = tmp_path / f"f_{tag}.jsonl"
            stat = tmp_path / f"s_{tag}.csv"
            assert dispatch(["filter", "--pool", str(pool), "--output", str(out),
                             "--stats", str(stat)] + extra) == 0
            stats[tag] = stat.read_bytes()
        assert stats["seq"] == stats["par"]

    @pytest.mark.parametrize("output", ["pool.jsonl", "./sub/../pool.jsonl", "POOL"])
    def test_output_naming_an_input_exits_two(self, tmp_path, capsys, monkeypatch, output):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        pool = tmp_path / "pool.jsonl"
        write_documents(pool, [make_document("d0", "the cat and the dog")])
        before = pool.read_bytes()
        output = str(pool) if output == "POOL" else output
        assert dispatch(["filter", "--pool", "pool.jsonl", "--output", output]) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: --output and --pool name the same file {output}\n"
        assert pool.read_bytes() == before
        assert not (tmp_path / "pool.jsonl.header.json").exists()

    @pytest.mark.parametrize("argv,flags", [
        (["judge", "--mock", "--qa", "a.jsonl", "--pool", "b.jsonl", "--output", "o.jsonl",
          "--aggregate", "a.jsonl"], "--aggregate and --qa"),
        (["scaling-law", "--crossings", "x.csv", "--output", "law.json",
          "--points-csv", "x.csv"], "--points-csv and --crossings"),
        (["inject", "--pool", "p.jsonl", "--ratio", "1", "--kind", "shuffled_docs",
          "--junk-source", "j.jsonl", "--output", "j.jsonl"], "--output and --junk-source"),
        (["filter", "--pool", "p.jsonl", "--output", "o.jsonl", "--stats", "c.json",
          "--config", "c.json"], "--stats and --config"),
        (["ingest", "--runs", "r.jsonl", "--output", "r.jsonl"], "--output and --runs"),
        (["filter", "--pool", "p.jsonl", "--stages", "stopword", "--output", "o.jsonl",
          "--stats", "o.jsonl"], "--output and --stats"),
        (["filter", "--pool", "p.jsonl", "--output", "o3.jsonl",
          "--stats", "p.jsonl.header.json"], "--stats and --pool"),
        # file flags a run would otherwise ignore, and so list as files it used
        (["ingest", "--runs", "r.jsonl", "--validate-only", "--output", "o.jsonl"], None),
        (["inject", "--pool", "q.jsonl", "--ratio", "1", "--junk-source", "j.jsonl",
          "--output", "o.jsonl"], None),
        (["scaling-law", "--crossings", "x.csv", "--method", "epoch", "--configs", "m.json",
          "--output", "o.json"], None),
    ])
    def test_every_output_flag_is_checked_before_reading(self, tmp_path, capsys, monkeypatch,
                                                         argv, flags):
        # only p.jsonl and its header exist, so a command that read a file would exit 1
        monkeypatch.chdir(tmp_path)
        write_documents(tmp_path / "p.jsonl", [make_document("d0", "the cat and the dog")])
        (tmp_path / "p.jsonl.header.json").write_text('{"label": "p"}', encoding="utf-8")
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        if flags:
            assert err.startswith(f"usage error: {flags} name the same file ")
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_config_file_merging_flags_win(self, tmp_path, docs_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "target_tokens": 800}), encoding="utf-8")
        out = tmp_path / "pool.jsonl"
        assert dispatch(["sample", "--input", str(docs_file), "--target-tokens", "600",
                         "--config", str(cfg), "--output", str(out)]) == 0
        header = json.loads((tmp_path / "pool.jsonl.header.json").read_text())
        assert header["seed"] == 5  # from config
        assert 600 <= header["total_tokens"] < 700  # flag won over config

    STOPWORD_DOC = "the cat and the dog of that cat"  # 5 stop words, 4 distinct

    def filter_with_config(self, tmp_path, config):
        pool = tmp_path / "pool.jsonl"
        write_documents(pool, [make_document("d0", self.STOPWORD_DOC)])
        cfg = write_text(tmp_path, "c.json", json.dumps(config))
        out = tmp_path / "f.jsonl"
        code = dispatch(["filter", "--pool", str(pool), "--stages", "stopword",
                         "--config", cfg, "--output", str(out)])
        return code, out

    @pytest.mark.parametrize("key,value", [
        ("stopword_distinct", "false"),  # bool("false") would be True
        ("stopword_distinct", 0),
        ("stopword_min_count", True),  # a JSON true is not an integer
        ("stopword_min_count", 5.0),
        ("stopword_min_count", "5"),
        ("english_threshold", "0.5"),
        ("english_threshold", False),
        ("profile", 1),
        ("repetition_thresholds", {"duplicate_line": True}),
        ("repetition_thresholds", {"duplicate_line": "0.3"}),
        ("repetition_thresholds", [0.3]),
    ])
    def test_config_value_of_wrong_json_type_exits_one(self, tmp_path, capsys, key, value):
        code, out = self.filter_with_config(tmp_path, {key: value})
        assert code == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith(f"error: {key}: ")

    def test_config_label_must_be_a_string(self, tmp_path, docs_file, capsys):
        # a label of 5 would be written to a pool header that no command can read
        out = tmp_path / "pool.jsonl"
        assert dispatch(["sample", "--input", str(docs_file), "--target-tokens", "100",
                         "--config", write_text(tmp_path, "c.json", '{"label": 5}'),
                         "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: label: config value 5 is not a string\n"
        assert not out.exists()

    def test_config_values_of_matching_json_type_apply(self, tmp_path):
        kept = {}
        for distinct in (False, True):
            code, out = self.filter_with_config(tmp_path, {
                "stopword_min_count": 5, "stopword_distinct": distinct,
                "english_threshold": 0,  # an int for a float key
                "quality_keep_fraction": 1.0, "profile": "gopher",
            })
            assert code == 0
            kept[distinct] = len(out.read_text().splitlines())
        assert kept == {False: 1, True: 0}

    def test_manifest_digest_hashes_config_contents(self, tmp_path, docs_file):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "pool.jsonl"
        digests = []
        for seed in (1, 2, 1):
            cfg.write_text(json.dumps({"seed": seed}), encoding="utf-8")
            assert dispatch(["sample", "--input", str(docs_file), "--target-tokens", "600",
                             "--config", str(cfg), "--output", str(out)]) == 0
            manifest = json.loads((tmp_path / "pool.jsonl.manifest.json").read_text())
            digests.append(manifest["config_digest"])
        # same path, different contents: different digests; same contents: same digest
        assert digests[0] != digests[1] and digests[0] == digests[2]

    def test_manifest_digest_hashes_effective_settings(self, tmp_path, docs_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}), encoding="utf-8")
        out = tmp_path / "pool.jsonl"
        digests = []
        for extra in (["--seed", "5"], ["--config", str(cfg)], ["--seed", "6"]):
            assert dispatch(["sample", "--input", str(docs_file), "--target-tokens", "600",
                             "--output", str(out)] + extra) == 0
            manifest = json.loads((tmp_path / "pool.jsonl.manifest.json").read_text())
            digests.append(manifest["config_digest"])
        # a seed from --config is the same setting as that seed given as a flag
        assert digests[0] == digests[1] != digests[2]


class TestRunAnalysis:
    def test_ingest_validate_report_pareto(self, tmp_path, runs_file):
        assert dispatch(["ingest", "--runs", str(runs_file), "--validate-only"]) == 0
        store = tmp_path / "store.jsonl"
        assert dispatch(["ingest", "--runs", str(runs_file), "--output", str(store)]) == 0

        report = tmp_path / "report.csv"
        assert dispatch(["report", "--runs", str(store), "--output", str(report)]) == 0
        rows = read_csv_rows(report)
        assert {r["dataset_label"] for r in rows} == {"cc", "rw"}
        cc = next(r for r in rows if r["dataset_label"] == "cc")
        assert float(cc["flops"]) == 6.0 * 64 * CONFIG_15M.total_params
        assert float(cc["epochs"]) == 64 / 1000

        frontier = tmp_path / "frontier.csv"
        assert dispatch(["pareto", "--runs", str(store), "--output", str(frontier)]) == 0
        frontier_rows = read_csv_rows(frontier)
        losses = [float(r["loss"]) for r in frontier_rows]
        assert losses == sorted(losses, reverse=True)

    def test_ingest_malformed_exits_one(self, tmp_path, runs_file, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(runs_file.read_text() + "{broken\n", encoding="utf-8")
        assert dispatch(["ingest", "--runs", str(bad), "--validate-only"]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err and err.rstrip().splitlines()[-1].startswith("error: ")

    def test_empty_run_log_writes_header_only(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        expected = {
            "report": b"record_ref,dataset_label,model_name,model_params,pool_tokens,"
                      b"train_tokens,epochs,flops,best_eval\r\n",
            "pareto": b"compute,loss,dataset_label,record_ref\r\n",
        }
        for command, header in expected.items():
            out = tmp_path / f"{command}.csv"
            assert dispatch([command, "--runs", str(empty), "--output", str(out)]) == 0
            assert out.read_bytes() == header

    def test_crossing_csv(self, tmp_path, runs_file):
        out = tmp_path / "crossings.csv"
        assert dispatch(["crossing", "--runs", str(runs_file), "--pool-label", "cc",
                         "--filtered-label", "rw", "--output", str(out)]) == 0
        rows = read_csv_rows(out)
        assert len(rows) == 1
        expected = (2.0 / 0.5) ** (1.0 / 0.3)
        assert float(rows[0]["crossing_tokens"]) == pytest.approx(expected, rel=1e-5)
        assert rows[0]["observed"] == "False"

    def test_crossing_csv_groups_interleaved_cells(self, tmp_path):
        # each cc cell is split over two records; records of all cells and of
        # both labels are shuffled together, and two cells have only one label
        grids = ([2, 4, 8], [16, 32, 64])
        cc_curves = {  # (a, b, c) against the rw best of 3.5
            (CONFIG_15M, 1_000): (2.0, 0.3, 3.0),  # extrapolated
            (CONFIG_15M, 3_000): (2.0, 0.3, 1.0),  # observed
            (CONFIG_80M, 1_000): (2.0, 0.3, 3.6),  # never
            (CONFIG_80M, 3_000): (1.5, 0.4, 3.1),  # extrapolated
            (CONFIG_80M, 5_000): (2.0, 0.3, 3.0),  # no rw runs
        }
        records = [curve_run("cc", cfg, pool, *abc, tokens_grid=grid)
                   for (cfg, pool), abc in cc_curves.items() for grid in grids]
        records += [curve_run("rw", cfg, pool, 1e-9, 0.5, 3.5, tokens_grid=grids[1])
                    for cfg, pool in [*list(cc_curves)[:4], (CONFIG_15M, 5_000)]]
        random.Random(0).shuffle(records)
        # a cell's eval sets come from its first record in log order; give the
        # later of one cell's cc records an extra set, so a reordered cell fails
        last = max(i for i, r in enumerate(records)
                   if r.dataset_label == "cc" and (r.model, r.pool_tokens) == (CONFIG_80M, 3_000))
        records[last] = replace(records[last], eval_points=tuple(
            replace(p, losses={**p.losses, "other": 9.0}) for p in records[last].eval_points))
        runs = tmp_path / "runs.jsonl"
        write_run_log(runs, records)

        out = tmp_path / "crossings.csv"
        assert dispatch(["crossing", "--runs", str(runs), "--pool-label", "cc",
                         "--filtered-label", "rw", "--output", str(out)]) == 0

        logged = load_run_log(runs)

        def runs_of(label, cell):
            return [r for r in logged
                    if r.dataset_label == label and (r.model.total_params, r.pool_tokens) == cell]

        cells = sorted((cfg.total_params, pool) for cfg, pool in list(cc_curves)[:4])
        expected = [crossing_point(runs_of("cc", c), runs_of("rw", c), *c) for c in cells]
        assert {(cp.observed, cp.never) for cp in expected} == {
            (True, False), (False, False), (False, True)
        }
        reference = tmp_path / "reference.csv"
        write_rows(reference, CROSSING_COLUMNS, expected)
        assert out.read_bytes() == reference.read_bytes()

    @staticmethod
    def rewrite_cc_record(runs_file, tmp_path, edit):
        objs = [json.loads(line) for line in runs_file.read_text(encoding="utf-8").splitlines()]
        edit(next(o for o in objs if o["dataset_label"] == "cc"))
        path = tmp_path / "edited.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", ["ingest", "report", "crossing"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_loss_exits_one(self, tmp_path, runs_file, capfd, command, bad):
        def edit(obj):
            obj["eval_points"][2]["losses"]["avg"] = bad  # written as NaN / Infinity

        runs = self.rewrite_cc_record(runs_file, tmp_path, edit)
        out = str(tmp_path / "out.csv")
        argv = {
            "ingest": ["ingest", "--runs", runs, "--validate-only"],
            "report": ["report", "--runs", runs, "--output", out],
            "crossing": ["crossing", "--runs", runs, "--pool-label", "cc",
                         "--filtered-label", "rw", "--output", out],
        }[command]
        assert dispatch(argv) == 1
        err = capfd.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            err.rstrip().splitlines()[-1]
        ]
        assert "non-finite loss at tokens_seen=8" in err and "Traceback" not in err

    def test_tokens_seen_zero_in_extrapolated_cell_exits_one(self, tmp_path, runs_file, capfd):
        def edit(obj):
            obj["eval_points"].insert(0, {"tokens_seen": 0, "losses": {"avg": 9.0}})

        runs = self.rewrite_cc_record(runs_file, tmp_path, edit)
        assert dispatch(["ingest", "--runs", runs, "--validate-only"]) == 0
        capfd.readouterr()
        assert dispatch(["crossing", "--runs", runs, "--pool-label", "cc", "--filtered-label",
                         "rw", "--output", str(tmp_path / "out.csv")]) == 1
        # captured at the file descriptor, so LAPACK's own stderr lines would show here
        assert capfd.readouterr().err == (
            "error: crossing fit for cell (model_params=15009920, pool_tokens=1000): "
            "token counts must be finite and positive\n"
        )

    @pytest.mark.parametrize("last_loss,error", [
        (1.0, "crossing for cell (model_params=15009920, pool_tokens=1000): "
              "the first winning tokens_seen is beyond the float range"),
        (3.5, "crossing fit for cell (model_params=15009920, pool_tokens=1000): "
              "token counts must be finite and positive"),
    ], ids=["observed", "extrapolated"])
    def test_tokens_seen_beyond_float_range_exits_one(self, tmp_path, capfd, last_loss, error):
        assert dispatch(crossing_with_tokens_beyond_float(tmp_path, last_loss)) == 1
        assert capfd.readouterr().err == f"error: {error}\n"

    def test_every_cell_is_checked_before_any_fit(self, tmp_path, capsys):
        # the first cell's pool curve rises, so its fit fails; the second
        # cell's filtered run lacks the pool's eval set, which its checks find
        grid = [2, 4, 8, 16]
        records = [
            curve_run("cc", CONFIG_15M, 1_000, -1.0, 0.5, 3.0, tokens_grid=grid),
            curve_run("rw", CONFIG_15M, 1_000, 1e-9, 0.5, 2.0, tokens_grid=grid),
            curve_run("cc", CONFIG_15M, 2_000, 2.0, 0.3, 3.0, tokens_grid=grid),
            curve_run("rw", CONFIG_15M, 2_000, 1e-9, 0.5, 3.5, tokens_grid=grid),
        ]
        argv = ["crossing", "--runs", str(tmp_path / "runs.jsonl"), "--pool-label", "cc",
                "--filtered-label", "rw", "--output", str(tmp_path / "x.csv")]
        write_run_log(tmp_path / "runs.jsonl", records)
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == (
            "error: crossing fit for cell (model_params=15009920, pool_tokens=1000): "
            "losses are not decaying; cannot fit a decreasing power law\n"
        )
        records[3] = curve_run("rw", CONFIG_15M, 2_000, 1e-9, 0.5, 3.5, tokens_grid=grid,
                               eval_set="other")
        write_run_log(tmp_path / "runs.jsonl", records)
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == (
            "error: eval point at tokens_seen=2 missing sets ['avg']\n"
        )

    def test_fits_run_after_the_run_log_is_freed(self, tmp_path):
        # a probe on the fit phase's fit_power_law counts, at each fit, the
        # run records and eval points still alive in a fresh interpreter, and
        # notes whether numpy is loaded yet
        grid = [2, 4, 8, 16, 32, 64]
        cc_curves = {  # (a, b, c) against the rw best of 3.5
            (CONFIG_15M, 1_000): (2.0, 0.3, 3.0),  # extrapolated
            (CONFIG_15M, 3_000): (2.0, 0.3, 1.0),  # observed
            (CONFIG_80M, 1_000): (2.0, 0.3, 3.6),  # never
        }
        records = [curve_run("cc", cfg, pool, *abc, tokens_grid=grid)
                   for (cfg, pool), abc in cc_curves.items()]
        records += [curve_run("rw", cfg, pool, 1e-9, 0.5, 3.5, tokens_grid=grid)
                    for cfg, pool in cc_curves]
        runs, out = tmp_path / "runs.jsonl", tmp_path / "x.csv"
        write_run_log(runs, records)
        code = textwrap.dedent(f"""\
            import gc, sys
            import poollab.cli as cli, poollab.scaling as scaling
            from poollab.runlog import EvalPoint, RunRecord
            fit_power_law, alive = scaling.fit_power_law, []
            def probe(points):
                gc.collect()
                records = sum(isinstance(o, (RunRecord, EvalPoint)) for o in gc.get_objects())
                alive.append((records, "numpy" in sys.modules))
                return fit_power_law(points)
            scaling.fit_power_law = probe
            code = cli.dispatch(["crossing", "--runs", {str(runs)!r}, "--pool-label", "cc",
                                 "--filtered-label", "rw", "--output", {str(out)!r}])
            print(code, alive)
        """)
        assert run_python(code).splitlines()[-1] == "0 [(0, False), (0, True)]"
        rows = read_csv_rows(out)
        assert sorted((row["observed"], row["crossing_tokens"] == "NEVER") for row in rows) == [
            ("False", False), ("False", True), ("True", False)
        ]


def write_crossings_csv(path, world):
    fields = ["model_params", "pool_tokens", "crossing_tokens", "epochs_at_cross",
              "observed", "extreme_epochs"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for model, crossings in sorted(world.crossings_by_model.items()):
            for cp in crossings:
                writer.writerow([
                    cp.model_params, cp.pool_tokens, repr(cp.crossing_tokens),
                    repr(cp.epochs_at_cross), cp.observed, cp.extreme_epochs,
                ])


class TestScalingLawCli:
    def test_both_methods_and_extrapolate(self, tmp_path, capsys):
        world = planted_threshold_world()
        crossings = tmp_path / "crossings.csv"
        write_crossings_csv(crossings, world)

        laws = {}
        for method, flag in [("tpp", ["--ratio", "600"]), ("epoch", ["--epochs", "4"])]:
            out = tmp_path / f"law_{method}.json"
            points = tmp_path / f"points_{method}.csv"
            assert dispatch(["scaling-law", "--crossings", str(crossings), "--method",
                             method, "--output", str(out), "--points-csv", str(points)]
                            + flag) == 0
            law = json.loads(out.read_text())
            assert abs(law["beta"] - world.beta) < 1e-3
            assert law["r2"] > 0.99
            assert len(read_csv_rows(points)) == 3
            laws[method] = law

        gap = abs(
            math.log10(laws["tpp"]["extrapolation"]["compute"])
            - math.log10(laws["epoch"]["extrapolation"]["compute"])
        )
        assert gap <= 0.5

        capsys.readouterr()
        extrap_json = tmp_path / "extrap.json"
        assert dispatch(["extrapolate", "--law", str(tmp_path / "law_tpp.json"),
                         "--pool-tokens", "240e12", "--output", str(extrap_json)]) == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(laws["tpp"]["extrapolation"]["compute"])
        assert 1e29 <= printed <= 1e31
        saved = json.loads(extrap_json.read_text())
        assert saved == {"pool_tokens": 240e12, "compute": printed}

    def test_model_with_too_few_finite_crossings_is_skipped(self, tmp_path, capsys):
        world = planted_threshold_world()
        crossings = tmp_path / "crossings.csv"
        write_crossings_csv(crossings, world)
        argv = ["scaling-law", "--crossings", str(crossings), "--output"]
        assert dispatch(argv + [str(tmp_path / "law.json")]) == 0
        with open(crossings, "a", encoding="utf-8") as fh:  # one finite crossing of three
            fh.write("12345,1000,NEVER,NEVER,False,False\n"
                     "12345,2000,NEVER,NEVER,False,False\n"
                     "12345,4000,8000.0,2.0,False,False\n")
        capsys.readouterr()
        assert dispatch(argv + [str(tmp_path / "skipped.json")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: model 12345: need >= 3 finite crossings, got 1 "
            "(never at pool sizes: [1000, 2000])"
        ]
        law = json.loads((tmp_path / "law.json").read_text(encoding="utf-8"))
        assert json.loads((tmp_path / "skipped.json").read_text(encoding="utf-8")) == law

    def test_repeated_cell_exits_one_naming_both_lines(self, tmp_path, capsys):
        argv = crossings_with_repeated_cell(tmp_path)
        lines = (tmp_path / "x.csv").read_text(encoding="utf-8").splitlines()
        model_params, pool_tokens = lines[2].split(",")[:2]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'x.csv'}: line {len(lines)} repeats "
            f"model_params={model_params}, pool_tokens={pool_tokens} of line 3\n"
        )
        assert not (tmp_path / "e.json").exists()

    def test_manifest_lists_config_files(self, tmp_path):
        world = planted_threshold_world()
        crossings = tmp_path / "crossings.csv"
        write_crossings_csv(crossings, world)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"method": "tpp"}), encoding="utf-8")
        configs = tmp_path / "models.json"
        configs.write_text(json.dumps([asdict(c) for c in world.configs]), encoding="utf-8")
        out = tmp_path / "law.json"
        assert dispatch(["scaling-law", "--crossings", str(crossings), "--config", str(config),
                         "--configs", str(configs), "--output", str(out)]) == 0
        manifest = json.loads((tmp_path / "law.json.manifest.json").read_text())
        assert manifest["inputs"] == sorted([str(crossings), str(config), str(configs)])

    def test_scaling_law_rejects_bad_method(self, tmp_path):
        world = planted_threshold_world()
        crossings = tmp_path / "crossings.csv"
        write_crossings_csv(crossings, world)
        assert dispatch(["scaling-law", "--crossings", str(crossings), "--method",
                         "nope", "--output", str(tmp_path / "law.json")]) == 2


class TestSliceLossCli:
    def test_prefix_means(self, tmp_path, capsys):
        slc = tmp_path / "slice.json"
        slc.write_text(json.dumps({"position_losses": [4.0, 2.0, 3.0],
                                   "context_length": 3}), encoding="utf-8")
        assert dispatch(["slice-loss", "--slice", str(slc), "--t", "1,2,3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "1,4.0"
        assert lines[1] == "2,3.0"

        out = tmp_path / "slice.csv"
        assert dispatch(["slice-loss", "--slice", str(slc), "--t", "2",
                         "--output", str(out)]) == 0
        assert read_csv_rows(out) == [{"t": "2", "mean_loss": "3.0"}]

    def test_out_of_range_exits_one(self, tmp_path):
        slc = tmp_path / "slice.json"
        slc.write_text(json.dumps({"position_losses": [1.0], "context_length": 1}),
                       encoding="utf-8")
        assert dispatch(["slice-loss", "--slice", str(slc), "--t", "5"]) == 1


class TestVerifyTheoryCli:
    def test_filter_fact_trials(self, tmp_path, capsys):
        out = tmp_path / "verdicts.jsonl"
        assert dispatch(["verify-theory", "--filter-fact", "--trials", "5",
                         "--seed", "3", "--output", str(out)]) == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[-1]["pass"] is True and lines[-1]["trials"] == 5
        assert all(v["pass"] for v in lines[:-1])

    def test_prop1_single_trial(self, capsys):
        assert dispatch(["verify-theory", "--prop1", "--trials", "1", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        verdict = json.loads(lines[0])
        assert verdict["check"] == "rank_necessity" and verdict["pass"]

    def test_filter_fact_accepts_negative_seed(self):
        assert dispatch(["verify-theory", "--filter-fact", "--trials", "2", "--seed", "-1"]) == 0

    def test_requires_a_check(self):
        assert dispatch(["verify-theory", "--trials", "2"]) == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_is_usage_error(self, tmp_path, trials):
        out = tmp_path / "v.jsonl"
        assert dispatch(["verify-theory", "--filter-fact", "--trials", trials,
                         "--output", str(out)]) == 2
        assert not out.exists()


class TestJudgeCli:
    def test_mock_judge_end_to_end(self, tmp_path):
        pool = tmp_path / "pool.jsonl"
        docs = [
            make_document("d0", "the pulsar is a rotating neutron star indeed"),
            make_document("d1", "a pulsar timing array measures pulsar signals"),
            make_document("d2", "nothing relevant here"),
        ]
        write_documents(pool, docs)
        qa = tmp_path / "qa.jsonl"
        qa.write_text(json.dumps({
            "subject": "astronomy",
            "question": "What is a pulsar?",
            "answer": "rotating neutron star",
            "keywords": ["pulsar"],
        }) + "\n", encoding="utf-8")

        out = tmp_path / "judgements.jsonl"
        table = tmp_path / "table.csv"
        assert dispatch(["judge", "--qa", str(qa), "--pool", str(pool), "--mock",
                         "--output", str(out), "--aggregate", str(table)]) == 0
        judged = [json.loads(l) for l in out.read_text().splitlines()]
        assert {j["doc_id"] for j in judged} == {"d0", "d1"}  # keyword-matched only
        rows = read_csv_rows(table)
        assert list(rows[0]) == ["subject", "Support", "Refute", "Related", "Unrelated"]
        assert float(rows[0]["Support"]) >= 1.0

    def test_mock_classifier_follows_the_per_pair_rule(self):
        Verdict = cli.Verdict  # also binds the factuality names the classifier reads

        def per_pair_verdict(doc_text, question, answer):  # the rule, with nothing shared
            text = doc_text.lower()
            answer_words = [w for w in answer.lower().split() if len(w) > 2]
            if answer_words and all(w in text for w in answer_words):
                return Verdict.SUPPORT
            if any(w in text for w in question.lower().split() if len(w) > 3):
                return Verdict.RELATED
            return Verdict.UNRELATED

        texts = ["The Pulsar ROTATES", "a neutron star spins", "nothing"]
        qa_items = [("What is a pulsar?", "rotates"), ("Why does it spin?", "neutron STAR"),
                    ("Whom?", "it"), ("Which pulsar spins?", "no")]
        classify = cli._heuristic_mock_classifier()
        verdicts = set()
        for question, answer in qa_items:
            for text in texts:
                verdict = classify(text, question, answer)
                assert verdict is per_pair_verdict(text, question, answer)
                verdicts.add(verdict)
        assert verdicts == set(Verdict) - {Verdict.REFUTE}

    def test_non_http_endpoint_exits_one(self, tmp_path, capsys):
        qa = tmp_path / "qa.jsonl"
        qa.write_text(json.dumps({"subject": "s", "question": "q", "answer": "a",
                                  "keywords": ["k"]}) + "\n", encoding="utf-8")
        pool = tmp_path / "pool.jsonl"
        write_documents(pool, [make_document("d0", "k")])
        out = tmp_path / "o.jsonl"
        assert dispatch(["judge", "--qa", str(qa), "--pool", str(pool),
                         "--endpoint", f"file://{qa}", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith("error: ")
        assert "http(s)" in err and not out.exists()

    @pytest.mark.parametrize("timeout", ["-1", "0"])
    def test_non_positive_timeout_exits_one_before_reading(self, tmp_path, capsys, timeout):
        out = tmp_path / "o.jsonl"
        assert dispatch(["judge", "--qa", str(tmp_path / "missing-qa.jsonl"),
                         "--pool", str(tmp_path / "missing-pool.jsonl"),
                         "--endpoint", "http://127.0.0.1:9", "--timeout", timeout,
                         "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith("error: ")
        assert "timeout" in err and not out.exists()

    def test_requires_mock_or_endpoint(self, tmp_path):
        qa = tmp_path / "qa.jsonl"
        qa.write_text(json.dumps({"subject": "s", "question": "q", "answer": "a",
                                  "keywords": ["k"]}) + "\n", encoding="utf-8")
        pool = tmp_path / "pool.jsonl"
        write_documents(pool, [make_document("d0", "k")])
        assert dispatch(["judge", "--qa", str(qa), "--pool", str(pool),
                         "--output", str(tmp_path / "o.jsonl")]) == 2


CROSSINGS_HEADER = "model_params,pool_tokens,crossing_tokens,epochs_at_cross,observed,extreme_epochs\n"
LAW = {"method": "tokens_per_param", "parameter": 600.0, "points": [],
       "alpha": 2.0, "beta": 1.5, "r2": 1.0}


def write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


#: A good document line, then a line holding the byte 0xe9, which is not UTF-8.
NOT_UTF8 = b'{"id": "a", "text": "one two"}\n{"id": "b", "text": "caf\xe9"}\n'
QA_LINE = json.dumps({"subject": "s", "question": "q", "answer": "a", "keywords": ["the"]})


def write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def shared_quadratic_crossings():
    """Three model sizes whose crossings lie on one quadratic (-0.05, 2.0, -3.0)."""
    rows = []
    for model in (10**8, 10**9, 10**10):
        for x in (4, 5, 6):
            crossing = 10 ** (-0.05 * x * x + 2.0 * x - 3.0)
            rows.append(f"{model},{10**x},{crossing!r},{crossing / 10**x!r},False,False\n")
    return CROSSINGS_HEADER + "".join(rows)


def pool_with_header(tmp_path, **fields):
    """A two-token pool whose header has ``fields`` in place of valid values."""
    path = write_text(tmp_path, "pool.jsonl", '{"id": "a", "text": "one two"}\n')
    header = {"label": "p", "seed": 0, "total_tokens": 2, "counter_name": "whitespace"}
    write_text(tmp_path, "pool.jsonl.header.json", json.dumps({**header, **fields}))
    return path


def symlink_loop(tmp_path):
    """A path that is a symlink to a symlink back to it."""
    (tmp_path / "loop-b").symlink_to(tmp_path / "loop-a")
    (tmp_path / "loop-a").symlink_to(tmp_path / "loop-b")
    return str(tmp_path / "loop-a")


def filter_pool_with_header(tmp_path, **fields):
    return ["filter", "--pool", pool_with_header(tmp_path, **fields),
            "--output", str(tmp_path / "f.jsonl")]


def run_log_line_with(name, raw, at_first_point=False):
    """One JSON run record whose ``name`` value, or that of its first eval
    point, is the JSON text ``raw``."""
    obj = record_to_dict(curve_run("cc", CONFIG_15M, 1_000, 2.0, 0.3, 3.0, tokens_grid=[2, 4]))
    (obj["eval_points"][0] if at_first_point else obj)[name] = None
    return json.dumps(obj).replace(f'"{name}": null', f'"{name}": {raw}') + "\n"


def run_log_with_tokens_seen(tmp_path, raw):
    """A one-record run log whose first eval point's ``tokens_seen`` is the JSON text ``raw``."""
    return write_text(tmp_path, "r.jsonl", run_log_line_with("tokens_seen", raw, True))


def crossing_with_huge_first_loss(tmp_path, grid, target):
    """crossing on a log whose first cc loss is 1e308; the other cc losses,
    3 + 2*N**-0.3, stay above the rw best ``target``, so the cell is extrapolated."""
    cc = record_to_dict(curve_run("cc", CONFIG_15M, 10**6, 2.0, 0.3, 3.0, tokens_grid=grid))
    cc["eval_points"][0]["losses"]["avg"] = 1e308
    rw = record_to_dict(curve_run("rw", CONFIG_15M, 10**6, 1e-9, 0.5, target, tokens_grid=grid))
    runs = write_text(tmp_path, "r.jsonl", "".join(json.dumps(r) + "\n" for r in (cc, rw)))
    return ["crossing", "--runs", runs, "--pool-label", "cc", "--filtered-label", "rw",
            "--output", str(tmp_path / "x.csv")]


def crossing_with_tokens_beyond_float(tmp_path, last_loss):
    """crossing on a log whose cc losses 5.0, 4.0 and ``last_loss`` are at
    tokens_seen 10, 20 and 10**400, against an rw best of 3.0."""
    cc = record_to_dict(curve_run("cc", CONFIG_15M, 1_000, 2.0, 0.3, 3.0, tokens_grid=[10, 20]))
    cc["eval_points"] = [{"tokens_seen": n, "losses": {"avg": loss}}
                         for n, loss in [(10, 5.0), (20, 4.0), (10**400, last_loss)]]
    cc["train_tokens"] = 10**400
    rw = record_to_dict(curve_run("rw", CONFIG_15M, 1_000, 1e-9, 0.5, 3.0, tokens_grid=[10, 20]))
    runs = write_text(tmp_path, "r.jsonl", "".join(json.dumps(r) + "\n" for r in (cc, rw)))
    return ["crossing", "--runs", runs, "--pool-label", "cc", "--filtered-label", "rw",
            "--output", str(tmp_path / "x.csv")]


def crossing_beyond_float_range(tmp_path):
    """crossing on a log whose nearly flat cc curve 3 + 2*N**-0.005 is fitted
    with an asymptote just below the rw best of 3.0001, so that the fitted
    curve reaches it only beyond the float range."""
    grid = [2, 4, 8, 16, 32, 64]
    records = [curve_run("cc", CONFIG_15M, 1_000, 2.0, 0.005, 3.0, tokens_grid=grid),
               curve_run("rw", CONFIG_15M, 1_000, 1e-9, 0.5, 3.0001, tokens_grid=grid)]
    write_run_log(tmp_path / "r.jsonl", records)
    return ["crossing", "--runs", str(tmp_path / "r.jsonl"), "--pool-label", "cc",
            "--filtered-label", "rw", "--output", str(tmp_path / "x.csv")]


def crossing_with_pool_tokens(tmp_path, pool_tokens):
    """crossing on a log whose one cell has ``pool_tokens``."""
    grid = [2, 4, 8, 16, 32, 64]
    records = [curve_run("cc", CONFIG_15M, pool_tokens, 2.0, 0.3, 1.0, tokens_grid=grid),
               curve_run("rw", CONFIG_15M, pool_tokens, 1e-9, 0.5, 3.5, tokens_grid=grid)]
    write_run_log(tmp_path / "r.jsonl", records)
    return ["crossing", "--runs", str(tmp_path / "r.jsonl"), "--pool-label", "cc",
            "--filtered-label", "rw", "--output", str(tmp_path / "x.csv")]


def crossings_with_repeated_cell(tmp_path):
    """scaling-law on the planted world's crossings with the second data row
    repeated as the last line."""
    write_crossings_csv(tmp_path / "x.csv", planted_threshold_world())
    lines = (tmp_path / "x.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    write_text(tmp_path, "x.csv", "".join(lines + [lines[2]]))
    return ["scaling-law", "--crossings", str(tmp_path / "x.csv"), "--method", "epoch",
            "--output", str(tmp_path / "e.json")]


def scaling_law_with(tmp_path, *flags):
    """scaling-law on crossings that fit a law, with ``flags`` added."""
    write_crossings_csv(tmp_path / "x.csv", planted_threshold_world())
    return ["scaling-law", "--crossings", str(tmp_path / "x.csv"), *flags,
            "--output", str(tmp_path / "e.json")]


# Each builder gets (tmp_path, docs_file) and returns argv for one malformed input.
MALFORMED_INPUTS = {
    "config-invalid-json": lambda t, docs: [
        "sample", "--input", docs, "--target-tokens", "100",
        "--config", write_text(t, "c.json", "{oops"), "--output", str(t / "p.jsonl")],
    "law-invalid-json": lambda t, docs: [
        "extrapolate", "--law", write_text(t, "law.json", "{oops"), "--pool-tokens", "1e12"],
    "slice-invalid-json": lambda t, docs: [
        "slice-loss", "--slice", write_text(t, "s.json", "[1,"), "--t", "1"],
    "law-without-method": lambda t, docs: [
        "extrapolate", "--law",
        write_text(t, "law.json", json.dumps({k: v for k, v in LAW.items() if k != "method"})),
        "--pool-tokens", "1e12"],
    "slice-without-position-losses": lambda t, docs: [
        "slice-loss", "--slice", write_text(t, "s.json", '{"context_length": 1}'), "--t", "1"],
    "target-tokens-abc": lambda t, docs: [
        "sample", "--input", docs, "--target-tokens", "abc", "--output", str(t / "p.jsonl")],
    "target-tokens-inf": lambda t, docs: [
        "sample", "--input", docs, "--target-tokens", "inf", "--output", str(t / "p.jsonl")],
    "target-tokens-nan": lambda t, docs: [
        "sample", "--input", docs, "--target-tokens", "nan", "--output", str(t / "p.jsonl")],
    "pool-tokens-abc": lambda t, docs: [
        "extrapolate", "--law", write_text(t, "law.json", json.dumps(LAW)),
        "--pool-tokens", "abc"],
    "slice-t-not-integer": lambda t, docs: [
        "slice-loss", "--slice",
        write_text(t, "s.json", '{"position_losses": [1.0], "context_length": 1}'), "--t", "a"],
    "config-stages-list": lambda t, docs: [
        "filter", "--pool", docs, "--config",
        write_text(t, "c.json", '{"stages": ["english"]}'), "--output", str(t / "f.jsonl")],
    "crossing-tokens-abc": lambda t, docs: [
        "scaling-law", "--crossings",
        write_text(t, "x.csv", CROSSINGS_HEADER + "1000,100,abc,NEVER,False,False\n"),
        "--output", str(t / "law.json")],
    "crossing-tokens-column-missing": lambda t, docs: [
        "scaling-law", "--crossings",
        write_text(t, "x.csv", "model_params,pool_tokens,observed\n1000,100,False\n"),
        "--output", str(t / "law.json")],
    "shared-quadratic-epoch-law": lambda t, docs: [
        "scaling-law", "--crossings", write_text(t, "x.csv", shared_quadratic_crossings()),
        "--method", "epoch", "--output", str(t / "law.json")],
    "document-not-an-object": lambda t, docs: [
        "sample", "--input", write_text(t, "d.jsonl", '{"id": "a", "text": "ok"}\n[1]\n'),
        "--target-tokens", "1", "--output", str(t / "p.jsonl")],
    "document-text-not-a-string": lambda t, docs: [
        "sample", "--input", write_text(t, "d.jsonl", '{"id": "a", "text": 5}\n'),
        "--target-tokens", "1", "--output", str(t / "p.jsonl")],
    "qa-keywords-a-string": lambda t, docs: [
        "judge", "--mock", "--pool", docs, "--output", str(t / "j.jsonl"), "--qa",
        write_text(t, "qa.jsonl", json.dumps(
            {"subject": "s", "question": "q", "answer": "a", "keywords": "the"}))],
    "pool-tokens-nan": lambda t, docs: [
        "extrapolate", "--law", write_text(t, "law.json", json.dumps(LAW)),
        "--pool-tokens", "nan", "--output", str(t / "e.json")],
    "pool-header-label-null": lambda t, docs: [
        "inject", "--pool", pool_with_header(t, label=None), "--kind", "random_strings",
        "--ratio", "1", "--seed", "1", "--output", str(t / "i.jsonl")],
    "pool-header-seed-a-string": lambda t, docs: filter_pool_with_header(t, seed="abc"),
    "pool-header-seed-a-bool": lambda t, docs: filter_pool_with_header(t, seed=True),
    "pool-header-total-tokens-a-string": lambda t, docs: filter_pool_with_header(
        t, total_tokens="2"),
    "pool-header-counter-name-not-a-string": lambda t, docs: filter_pool_with_header(
        t, counter_name=5),
    "verify-theory-prop1-negative-seed": lambda t, docs: [
        "verify-theory", "--prop1", "--trials", "1", "--seed", "-1"],
    "document-not-utf8": lambda t, docs: [
        "sample", "--input", write_bytes(t, "d.jsonl", NOT_UTF8),
        "--target-tokens", "1", "--output", str(t / "p.jsonl")],
    "pool-not-utf8": lambda t, docs: [
        "filter", "--pool", write_bytes(t, "d.jsonl", NOT_UTF8), "--output", str(t / "f.jsonl")],
    "run-log-not-utf8": lambda t, docs: [
        "ingest", "--runs", write_bytes(t, "d.jsonl", NOT_UTF8), "--validate-only"],
    "qa-not-utf8": lambda t, docs: [
        "judge", "--mock", "--pool", docs, "--output", str(t / "j.jsonl"),
        "--qa", write_bytes(t, "d.jsonl", QA_LINE.encode() + b"\n" + NOT_UTF8.splitlines()[1])],
    "crossings-not-utf8": lambda t, docs: [
        "scaling-law", "--crossings", write_bytes(t, "x.csv", CROSSINGS_HEADER.encode() + b"\xe9"),
        "--output", str(t / "law.json")],
    "qa-without-keywords": lambda t, docs: [
        "judge", "--mock", "--pool", docs, "--output", str(t / "j.jsonl"), "--qa",
        write_text(t, "d.jsonl", json.dumps({"subject": "s", "question": "q", "answer": "a"}))],
    "document-without-id": lambda t, docs: [
        "sample", "--input", write_text(t, "d.jsonl", '{"text": "one two"}\n'),
        "--target-tokens", "1", "--output", str(t / "p.jsonl")],
    "inject-ratio-nan": lambda t, docs: [
        "inject", "--pool", docs, "--kind", "random_strings", "--ratio", "nan",
        "--output", str(t / "i.jsonl")],
    "inject-ratio-inf": lambda t, docs: [
        "inject", "--pool", docs, "--kind", "random_strings", "--ratio", "inf",
        "--output", str(t / "i.jsonl")],
    "filter-stopword-min-count-negative": lambda t, docs: [
        "filter", "--pool", docs, "--stopword-min-count", "-1", "--output", str(t / "f.jsonl")],
    "filter-repetition-threshold-misspelled": lambda t, docs: [
        "filter", "--pool", docs, "--output", str(t / "f.jsonl"), "--config",
        write_text(t, "c.json", '{"repetition_thresholds": {"top_2grams": 0.0}}')],
    "filter-threads-zero": lambda t, docs: [
        "filter", "--pool", docs, "--threads", "0", "--output", str(t / "f.jsonl")],
    "filter-threads-negative": lambda t, docs: [
        "filter", "--pool", docs, "--threads", "-3", "--output", str(t / "f.jsonl")],
    "filter-config-threads-a-string": lambda t, docs: [
        "filter", "--pool", docs, "--output", str(t / "f.jsonl"), "--config",
        write_text(t, "c.json", '{"threads": "2"}')],
    "filter-stages-duplicate": lambda t, docs: [
        "filter", "--pool", docs, "--stages", "english,repetition,english",
        "--output", str(t / "f.jsonl")],
    "filter-pool-symlink-loop": lambda t, docs: [
        "filter", "--pool", symlink_loop(t), "--output", str(t / "f.jsonl")],
    "judge-endpoint-invalid-ipv6": lambda t, docs: [
        "judge", "--qa", write_text(t, "qa.jsonl", QA_LINE), "--pool", docs,
        "--endpoint", "http://[::1", "--output", str(t / "j.jsonl")],
    "scaling-law-ratio-zero": lambda t, docs: scaling_law_with(t, "--ratio", "0"),
    "scaling-law-ratio-negative": lambda t, docs: scaling_law_with(t, "--ratio", "-5"),
    "scaling-law-ratio-nan": lambda t, docs: scaling_law_with(t, "--ratio", "nan"),
    "scaling-law-epochs-nan": lambda t, docs: scaling_law_with(
        t, "--method", "epoch", "--epochs", "nan"),
    "scaling-law-epochs-underflow": lambda t, docs: scaling_law_with(  # compute is 0.0
        t, "--method", "epoch", "--epochs", "1e-300"),
    "inject-ratio-above-bound": lambda t, docs: [
        "inject", "--pool", docs, "--kind", "random_strings", "--ratio", "1e9",
        "--output", str(t / "i.jsonl")],
    "run-log-train-tokens-overflow": lambda t, docs: [
        "ingest", "--runs", write_text(t, "r.jsonl", run_log_line_with("train_tokens", "1e400")),
        "--validate-only"],
    "law-alpha-overflow": lambda t, docs: [
        "extrapolate", "--law",
        write_text(t, "law.json", json.dumps({**LAW, "alpha": 10**400})),
        "--pool-tokens", "1e12"],
    "slice-context-length-overflow": lambda t, docs: [
        "slice-loss", "--slice",
        write_text(t, "s.json", '{"position_losses": [1.0], "context_length": 1e400}'),
        "--t", "1"],
    "filter-repetition-threshold-above-one": lambda t, docs: [
        "filter", "--pool", docs, "--output", str(t / "f.jsonl"), "--config",
        write_text(t, "c.json", '{"repetition_thresholds": {"dup_5gram": 7.5}}')],
    "run-log-label-an-int": lambda t, docs: [
        "ingest", "--runs", write_text(t, "r.jsonl", run_log_line_with("dataset_label", '"a"')
                                       + run_log_line_with("dataset_label", "5")),
        "--validate-only"],
    "report-run-log-label-a-list": lambda t, docs: [
        "report", "--runs", write_text(t, "r.jsonl", run_log_line_with("dataset_label", '"a"')
                                       + run_log_line_with("dataset_label", "[1]")),
        "--output", str(t / "r.csv")],
    "slice-position-loss-nan": lambda t, docs: [
        "slice-loss", "--slice", write_text(t, "s.json", '{"position_losses": [NaN, 1.0]}'),
        "--t", "1"],
    "slice-position-loss-infinity": lambda t, docs: [
        "slice-loss", "--slice", write_text(t, "s.json", '{"position_losses": [1.0, Infinity]}'),
        "--t", "2"],
    "report-train-tokens-beyond-float": lambda t, docs: [
        "report", "--runs", write_text(t, "r.jsonl", run_log_line_with("train_tokens", "9" * 400)),
        "--output", str(t / "r.csv")],
    "pareto-train-tokens-beyond-float": lambda t, docs: [
        "pareto", "--runs", write_text(t, "r.jsonl", run_log_line_with("train_tokens", "9" * 400)),
        "--output", str(t / "r.csv")],
    "law-alpha-nan": lambda t, docs: [
        "extrapolate", "--law", write_text(t, "law.json", json.dumps({**LAW, "alpha": math.nan})),
        "--pool-tokens", "1e12"],
    "law-compute-overflows": lambda t, docs: [  # 1e300 * 1e12**1.5 is inf
        "extrapolate", "--law", write_text(t, "law.json", json.dumps({**LAW, "alpha": 1e300})),
        "--pool-tokens", "1e12", "--output", str(t / "e.json")],
    "crossing-fit-scale-overflows": lambda t, docs: crossing_with_huge_first_loss(
        t, [1000, 2000, 4000, 8000], 3.1),
    "report-tokens-seen-nan": lambda t, docs: [
        "report", "--runs", run_log_with_tokens_seen(t, "NaN"), "--output", str(t / "r.csv")],
    "report-tokens-seen-a-bool": lambda t, docs: [
        "report", "--runs", run_log_with_tokens_seen(t, "true"), "--output", str(t / "r.csv")],
    "pareto-tokens-seen-nan": lambda t, docs: [
        "pareto", "--runs", run_log_with_tokens_seen(t, "NaN"), "--output", str(t / "r.csv")],
    "pareto-tokens-seen-a-bool": lambda t, docs: [
        "pareto", "--runs", run_log_with_tokens_seen(t, "true"), "--output", str(t / "r.csv")],
    "scaling-law-configs-not-a-list": lambda t, docs: scaling_law_with(
        t, "--configs", write_text(t, "models.json", json.dumps(asdict(CONFIG_15M)))),
    "scaling-law-configs-bad-shape": lambda t, docs: scaling_law_with(
        t, "--configs", write_text(t, "models.json", json.dumps([
            {**asdict(CONFIG_15M), "heads": 3}]))),
    "scaling-law-configs-missing-field": lambda t, docs: scaling_law_with(
        t, "--configs", write_text(t, "models.json", json.dumps([{"name": "15M"}]))),
    "crossing-observed-tokens-beyond-float": lambda t, docs: crossing_with_tokens_beyond_float(
        t, 1.0),
    "crossing-extrapolated-tokens-beyond-float": lambda t, docs: (
        crossing_with_tokens_beyond_float(t, 3.5)),
    "crossings-repeated-cell": lambda t, docs: crossings_with_repeated_cell(t),
    "crossing-beyond-float-range": lambda t, docs: crossing_beyond_float_range(t),
    "crossing-pool-tokens-zero": lambda t, docs: crossing_with_pool_tokens(t, 0),
    "crossing-pool-tokens-beyond-float": lambda t, docs: crossing_with_pool_tokens(t, 10**400),
    "crossings-pool-tokens-zero": lambda t, docs: [
        "scaling-law", "--crossings", write_text(t, "x.csv", CROSSINGS_HEADER + "".join(
            f"1000,{pool},{crossing},1.0,True,False\n"
            for pool, crossing in [(0, 5.0), (10, 50.0), (100, 900.0)])),
        "--method", "epoch", "--output", str(t / "e.json")],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_one_without_traceback(tmp_path, docs_file, capsys, case):
    argv = MALFORMED_INPUTS[case](tmp_path, str(docs_file))
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.rstrip().splitlines()[-1].startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "e.json").exists()


@pytest.mark.parametrize("case,lineno", [
    ("document-not-an-object", 2),
    ("document-text-not-a-string", 1),
    ("document-not-utf8", 2),
    ("pool-not-utf8", 2),
    ("qa-not-utf8", 2),
])
def test_malformed_document_error_names_path_and_line(tmp_path, docs_file, capsys, case, lineno):
    assert dispatch(MALFORMED_INPUTS[case](tmp_path, str(docs_file))) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'd.jsonl'}: line {lineno}: ")


@pytest.mark.parametrize("case,reason", [
    ("qa-without-keywords", "missing key 'keywords'"),
    ("document-without-id", "missing key 'id'"),
])
def test_missing_key_is_named(tmp_path, docs_file, capsys, case, reason):
    assert dispatch(MALFORMED_INPUTS[case](tmp_path, str(docs_file))) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'd.jsonl'}: line 1: {reason}\n"


def test_undecodable_bytes_reported_by_path(tmp_path, docs_file, capsys):
    assert dispatch(MALFORMED_INPUTS["run-log-not-utf8"](tmp_path, str(docs_file))) == 1
    assert f"{tmp_path / 'd.jsonl'}: line 2: 'utf-8' codec can't decode" in capsys.readouterr().err
    assert dispatch(MALFORMED_INPUTS["crossings-not-utf8"](tmp_path, str(docs_file))) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'x.csv'}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "case", [c for c in sorted(MALFORMED_INPUTS) if c.startswith("pool-header")]
)
def test_malformed_pool_header_error_names_header(tmp_path, docs_file, capsys, case):
    assert dispatch(MALFORMED_INPUTS[case](tmp_path, str(docs_file))) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'pool.jsonl.header.json'}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("case,name", [
    ("law-invalid-json", "law.json"),
    ("law-without-method", "law.json"),
    ("law-alpha-nan", "law.json"),
    ("law-alpha-overflow", "law.json"),
    ("scaling-law-configs-not-a-list", "models.json"),
    ("scaling-law-configs-bad-shape", "models.json"),
    ("scaling-law-configs-missing-field", "models.json"),
])
def test_malformed_file_error_names_path(tmp_path, docs_file, capsys, case, name):
    assert dispatch(MALFORMED_INPUTS[case](tmp_path, str(docs_file))) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: ")
    assert err.count("\n") == 1


def write_manifest_inputs(tmp_path, docs_file, runs_file):
    """Every input file a MANIFEST_CASES command line names, in ``tmp_path``."""
    world = planted_threshold_world()
    write_crossings_csv(tmp_path / "crossings.csv", world)
    files = {
        "docs.jsonl": docs_file.read_text(encoding="utf-8"),
        "junk.jsonl": docs_file.read_text(encoding="utf-8").replace('"doc-', '"junk-'),
        "runs.jsonl": runs_file.read_text(encoding="utf-8"),
        "law.json": json.dumps(LAW),
        "slice.json": '{"position_losses": [1.0, 2.0], "context_length": 2}',
        "qa.jsonl": QA_LINE + "\n",
        "seed4.json": '{"seed": 4}',
        "seed5.json": '{"seed": 5}',
        "tpp.json": '{"method": "tpp"}',
        "models.json": json.dumps([asdict(c) for c in world.configs]),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")


SAMPLE = ["sample", "--input", "docs.jsonl", "--target-tokens", "300", "--output", "out.jsonl"]
INJECT = ["inject", "--pool", "docs.jsonl", "--ratio", "0.5", "--output", "out.jsonl"]
SCALING_LAW = ["scaling-law", "--crossings", "crossings.csv", "--output", "out.json"]
JUDGE = ["judge", "--mock", "--qa", "qa.jsonl", "--pool", "docs.jsonl", "--output", "out.jsonl"]

# argv (run in the directory of write_manifest_inputs), then the manifest's
# expected inputs, outputs and seeds.
MANIFEST_CASES = {
    "sample": (SAMPLE + ["--seed", "3"], ["docs.jsonl"], ["out.jsonl"], {"seed": 3}),
    "sample-config-seed": (
        SAMPLE + ["--config", "seed5.json"], ["docs.jsonl", "seed5.json"], ["out.jsonl"],
        {"seed": 5}),
    "filter": (["filter", "--pool", "docs.jsonl", "--output", "out.jsonl"],
               ["docs.jsonl"], ["out.jsonl"], {}),
    "filter-stats": (
        ["filter", "--pool", "docs.jsonl", "--output", "out.jsonl", "--stats", "stats.csv"],
        ["docs.jsonl"], ["out.jsonl", "stats.csv"], {}),
    "inject": (INJECT + ["--seed", "2"], ["docs.jsonl"], ["out.jsonl"], {"seed": 2}),
    "inject-shuffled": (
        INJECT + ["--kind", "shuffled_docs", "--junk-source", "junk.jsonl", "--seed", "2"],
        ["docs.jsonl", "junk.jsonl"], ["out.jsonl"], {"seed": 2}),
    "inject-config-seed": (
        INJECT + ["--config", "seed4.json"], ["docs.jsonl", "seed4.json"], ["out.jsonl"],
        {"seed": 4}),
    "ingest": (["ingest", "--runs", "runs.jsonl", "--output", "out.jsonl"],
               ["runs.jsonl"], ["out.jsonl"], {}),
    "report": (["report", "--runs", "runs.jsonl", "--output", "out.csv"],
               ["runs.jsonl"], ["out.csv"], {}),
    "pareto": (["pareto", "--runs", "runs.jsonl", "--output", "out.csv"],
               ["runs.jsonl"], ["out.csv"], {}),
    "crossing": (
        ["crossing", "--runs", "runs.jsonl", "--pool-label", "cc", "--filtered-label", "rw",
         "--output", "out.csv"], ["runs.jsonl"], ["out.csv"], {}),
    "scaling-law": (SCALING_LAW, ["crossings.csv"], ["out.json"], {}),
    "scaling-law-points-configs-config": (
        SCALING_LAW + ["--points-csv", "points.csv", "--configs", "models.json",
                       "--config", "tpp.json"],
        ["crossings.csv", "models.json", "tpp.json"], ["out.json", "points.csv"], {}),
    "extrapolate": (["extrapolate", "--law", "law.json", "--pool-tokens", "1e12",
                     "--output", "out.json"], ["law.json"], ["out.json"], {}),
    "slice-loss": (["slice-loss", "--slice", "slice.json", "--t", "1", "--output", "out.csv"],
                   ["slice.json"], ["out.csv"], {}),
    "verify-theory": (["verify-theory", "--filter-fact", "--trials", "1", "--seed", "4",
                       "--output", "out.jsonl"], [], ["out.jsonl"], {"seed": 4}),
    "judge": (JUDGE, ["docs.jsonl", "qa.jsonl"], ["out.jsonl"], {}),
    "judge-aggregate": (JUDGE + ["--aggregate", "agg.csv"], ["docs.jsonl", "qa.jsonl"],
                        ["agg.csv", "out.jsonl"], {}),
}


def run_manifest_case(tmp_path, docs_file, runs_file, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    write_manifest_inputs(tmp_path, docs_file, runs_file)
    argv = MANIFEST_CASES[case][0]
    assert dispatch(argv) == 0
    return json.loads(Path(argv[argv.index("--output") + 1] + ".manifest.json").read_text())


@pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
def test_manifest_lists_files_and_seeds(tmp_path, docs_file, runs_file, monkeypatch, case):
    _, inputs, outputs, seeds = MANIFEST_CASES[case]
    manifest = run_manifest_case(tmp_path, docs_file, runs_file, monkeypatch, case)
    assert manifest["inputs"] == inputs
    assert manifest["outputs"] == outputs
    assert manifest["seeds"] == seeds
    assert manifest["tool_version"] == poollab.__version__


def test_failed_verification_still_writes_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_filter_fact_trial", lambda seed: {"pass": False})
    out = tmp_path / "v.jsonl"
    assert dispatch(["verify-theory", "--filter-fact", "--trials", "1", "--seed", "3",
                     "--output", str(out)]) == 1
    manifest = json.loads((tmp_path / "v.jsonl.manifest.json").read_text())
    assert manifest["outputs"] == [str(out)] and manifest["seeds"] == {"seed": 3}


@pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
def test_manifest_hashes_each_input(tmp_path, docs_file, runs_file, monkeypatch, case):
    manifest = run_manifest_case(tmp_path, docs_file, runs_file, monkeypatch, case)
    assert manifest["input_sha256"] == {
        path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for path in MANIFEST_CASES[case][1]
    }


# ---------------------------------------------------------------------------
# Fuzz: random flags and files through dispatch, in-process.
# ---------------------------------------------------------------------------

#: Values for flags that take no file: edge numbers, wrong types, lists and choices.
FUZZ_VALUES = ("0", "-1", "1", "2", "0.5", "1e400", "-1e400", "nan", "inf", "1e-300", "abc", "",
               "english,dedup,quality", "english,english", "quality,bogus", "tpp", "epoch",
               "random_strings", "shuffled_docs", "gopher", "cc", "rw", "1,2", "val")
#: ``--endpoint`` values that fail before any connection is attempted.
FUZZ_ENDPOINTS = ("http://[::1", "ftp://judge", "not a url", "")
#: Keys the fuzzer's JSON objects use: those the readers look up, and one they do not.
FUZZ_KEYS = ("id", "text", "source", "dataset_label", "model", "eval_points", "tokens_seen",
             "losses", "benchmarks", "train_tokens", "pool_tokens", "position_losses",
             "context_length", "method", "parameter", "points", "alpha", "beta", "r2",
             "subject", "question", "answer", "keywords", "stages", "seed", "label",
             "total_tokens", "counter_name", "repetition_thresholds", "other")
FUZZ_NUMBERS = st.sampled_from(
    [0, -1, 0.5, 2**63, 10**400, -(10**400), 1e308, 5e-324, math.nan, math.inf, -math.inf])
FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 100) | FUZZ_NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(FUZZ_KEYS), inner, max_size=3),
    max_leaves=6,
)
#: The flags that name a file, as they are spelled on the command line.
PATH_FLAGS = {"--" + flag.replace("_", "-") for flag in cli.INPUT_FLAGS + cli.OUTPUT_FLAGS}


@functools.cache
def fuzz_files():
    """The files the MANIFEST_CASES command lines read, by name, with a pool header."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        docs = [make_document(f"doc-{i}", f"the cat and dog {i} sat with the hat")
                for i in range(40)]
        write_documents(tmp_path / "docs.jsonl", docs)
        # no total_tokens, so a changed text reaches the filters
        (tmp_path / "docs.jsonl.header.json").write_text(
            '{"label": "docs", "seed": 0, "counter_name": "whitespace"}', encoding="utf-8")
        runs = [curve_run("cc", CONFIG_15M, 1_000, 2.0, 0.3, 3.0, tokens_grid=[2, 4, 8]),
                curve_run("rw", CONFIG_15M, 1_000, 1e-9, 0.5, 3.5, tokens_grid=[2, 4, 8])]
        write_run_log(tmp_path / "runs.jsonl", runs)
        write_manifest_inputs(tmp_path, tmp_path / "docs.jsonl", tmp_path / "runs.jsonl")
        return {path.name: path.read_text(encoding="utf-8") for path in tmp_path.iterdir()}


@st.composite
def mutated_json(draw, value):
    """``value`` with one nested value, or the whole, replaced: a number most
    often by an edge number, anything by a random JSON value."""
    if isinstance(value, (dict, list)) and value and draw(st.sampled_from([True] * 3 + [False])):
        keys = list(value) if isinstance(value, dict) else list(range(len(value)))
        key = draw(st.sampled_from(keys))
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = draw(mutated_json(value[key]))
        return copy
    if type(value) in (int, float) and draw(st.booleans()):
        return draw(FUZZ_NUMBERS)
    return draw(FUZZ_JSON)


@st.composite
def fuzz_inputs(draw, targets):
    """The valid files with one line of one of ``targets`` changed (or, in a
    CSV, a row repeated or a row copied at another row's pool size), and a
    copy of one file cut short."""
    files = dict(fuzz_files())
    name = draw(st.sampled_from(targets))
    lines = files[name].splitlines()
    index = draw(st.integers(0, len(lines) - 1))
    if name.endswith(".csv"):
        cells = lines[index].split(",")
        edit = draw(st.sampled_from(["cell", "row", "pool"])) if index else "cell"
        if edit == "row":  # a repeated (model_params, pool_tokens) cell
            lines.append(lines[index])
        elif edit == "pool":  # another row moved to this row's pool size
            other = lines[draw(st.integers(1, len(lines) - 1))].split(",")
            other[1] = cells[1]
            lines.append(",".join(other))
        else:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(FUZZ_VALUES))
            lines[index] = ",".join(cells)
    elif name.endswith(".jsonl"):
        lines[index] = json.dumps(draw(mutated_json(json.loads(lines[index]))))
    else:
        lines = [json.dumps(draw(mutated_json(json.loads(files[name]))))]
    files[name] = "\n".join(lines) + "\n"
    cut = draw(st.sampled_from(sorted(files)))
    files["cut-" + cut] = files[cut][:draw(st.integers(0, len(files[cut])))]
    return files


def subcommand_actions():
    """Each subcommand's optional actions, by subcommand name."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in sub._actions if a.option_strings and a.dest != "help"]
            for name, sub in subparsers.choices.items()}


FUZZ_ACTIONS = subcommand_actions()


@st.composite
def random_argv(draw, names):
    """A subcommand with a random subset of its flags, each with a random value."""
    command = draw(st.sampled_from(sorted(FUZZ_ACTIONS)))
    argv = [command]
    for action in FUZZ_ACTIONS[command]:
        if not draw(st.sampled_from([True] * 3 + [False] if action.required else [True, False])):
            continue
        argv.append(action.option_strings[-1])
        if action.nargs == 0:
            continue
        if action.dest in cli.INPUT_FLAGS + cli.OUTPUT_FLAGS:
            argv.append(draw(st.sampled_from(names)))
        elif action.dest == "endpoint":
            argv.append(draw(st.sampled_from(FUZZ_ENDPOINTS)))
        elif action.type is None:
            argv.append(draw(st.sampled_from(FUZZ_VALUES) | st.text(max_size=4)))
        else:  # a typed flag, such as --trials, gets no number larger than 2
            argv.append(draw(st.sampled_from(FUZZ_VALUES)))
    return argv


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_command_lines_exit_cleanly(data):
    # Each command line is a MANIFEST_CASES one with one of its inputs
    # changed, a MALFORMED_INPUTS one, or random flags; either of the first
    # two may have one argument replaced.  No stderr line may come from a
    # warning's source location.
    kind = data.draw(st.sampled_from(["valid", "malformed", "random"]))
    targets = sorted(fuzz_files())
    if kind == "valid":
        argv, inputs, _, _ = MANIFEST_CASES[data.draw(st.sampled_from(sorted(MANIFEST_CASES)))]
        targets = [n for n in targets if n.removesuffix(".header.json") in inputs] or targets
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        files = data.draw(fuzz_inputs(targets))
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        names = (*(str(tmp_path / n) for n in [*files, "missing.jsonl"]), tmp)
        if kind == "valid":
            argv = [str(tmp_path / a) if flag in PATH_FLAGS else a
                    for flag, a in zip([""] + argv, argv)]
        elif kind == "malformed":
            case = data.draw(st.sampled_from(sorted(MALFORMED_INPUTS)))
            argv = MALFORMED_INPUTS[case](tmp_path, str(tmp_path / "docs.jsonl"))
        else:
            argv = data.draw(random_argv(names))
        if kind != "random" and data.draw(st.sampled_from([True] + [False] * 3)):
            argv[data.draw(st.integers(0, len(argv) - 1))] = data.draw(
                st.sampled_from(FUZZ_VALUES + names))
        # a rank-necessity trial takes over a second; c01 runs it
        argv = ["--filter-fact" if arg == "--prop1" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # a relative output, such as a replaced "--output 1,2", lands here
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert not any(".py:" in line for line in err.getvalue().splitlines()), err.getvalue()


def run_python(code):
    """Run ``code`` in a fresh interpreter on this checkout's sources; return its stdout."""
    src = str(Path(poollab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60).stdout


def test_cli_import_loads_no_numpy():
    # only crossing, scaling-law and verify-theory compute with numpy
    code = "import sys, poollab, poollab.cli; print('numpy' in sys.modules)"
    assert run_python(code).strip() == "False"


def test_package_exports_resolve():
    exports = poollab._EXPORTS
    assert sorted(poollab.__all__) == sorted(exports)
    for name, module in exports.items():
        source = getattr(importlib.import_module(f"poollab.{module}"), name)
        assert getattr(poollab, name) is source, f"poollab.{name}"
        assert getattr(cli, name) is source, f"poollab.cli.{name}"
    assert set(exports) <= set(dir(poollab))


def handler_globals(handler):
    """Global names read by ``handler``, by code nested in it (comprehensions,
    closures), and by the ``poollab.cli`` functions it calls, transitively."""
    names, codes = set(), [handler.__code__]
    while codes:
        code = codes.pop()
        codes += [const for const in code.co_consts if isinstance(const, types.CodeType)]
        for ins in dis.get_instructions(code):
            if ins.opname == "LOAD_GLOBAL" and ins.argval not in names:
                names.add(ins.argval)
                helper = vars(cli).get(ins.argval)
                if isinstance(helper, types.FunctionType) and helper.__module__ == cli.__name__:
                    codes.append(helper.__code__)
    return names


def test_handlers_read_only_names_of_their_commands_modules():
    # a handler runs in a fresh child with only COMMAND_MODULES[command]
    # bound, so a name from any other module would be a NameError there
    at_import = set(run_python("import poollab.cli as cli; print(*vars(cli))").split())
    table = {name: module for name, module in poollab._EXPORTS.items() if name not in at_import}
    handlers = {
        name.removeprefix("cmd_").replace("_", "-"): fn
        for name, fn in vars(cli).items() if name.startswith("cmd_")
    }
    assert handlers.keys() == cli.COMMAND_MODULES.keys()
    for command, handler in handlers.items():
        names = handler_globals(handler)
        unresolved = names - table.keys() - vars(builtins).keys() - at_import
        assert not unresolved, f"{command}: {sorted(unresolved)}"
        modules = {table[n] for n in names if n in table}
        assert modules <= set(cli.COMMAND_MODULES[command]), command


def test_dispatch_keeps_a_replaced_name(monkeypatch, tmp_path, docs_file):
    # the traced benchmark replay wraps library calls this way
    written, write_pool = [], cli.write_pool

    def recording_write_pool(path, pool):
        written.append(path)
        write_pool(path, pool)

    monkeypatch.setattr(cli, "write_pool", recording_write_pool)
    out = str(tmp_path / "pool.jsonl")
    assert dispatch(["sample", "--input", str(docs_file), "--target-tokens", "100",
                     "--output", out]) == 0
    assert written == [out]


def test_parser_choices_match_the_library():
    from poollab.filters import PROFILES
    assert cli.PROFILE_CHOICES == tuple(sorted(PROFILES))
    assert cli.KIND_CHOICES == tuple(k.value for k in poollab.JunkKind)


def loaded_poollab_modules(code):
    return run_python(
        f"import sys; {code}; print(sorted(m for m in sys.modules if m.startswith('poollab')))"
    ).strip()


def test_cli_import_loads_only_cli_errors_io():
    expected = "['poollab', 'poollab.cli', 'poollab.errors', 'poollab.io']"
    assert loaded_poollab_modules("import poollab.cli") == expected
    assert loaded_poollab_modules("import poollab") == "['poollab']"


def test_library_import_loads_no_thread_pool():
    # only an HTTP judge with max_concurrency > 1 starts threads; filter
    # stages run on the calling thread whatever thread count they are given
    code = textwrap.dedent("""\
        import sys, poollab.factuality
        from poollab import FilterConfig, Pool, build_stages, make_document, run_pipeline
        from poollab.filters import DCLM_STAGES
        texts = ["the cat and the dog", "zzz qqq", "a\\na\\na", "the cat and the dog "]
        pool = Pool(documents=[make_document(f"d{i}", t) for i, t in enumerate(texts)])
        stages = build_stages(DCLM_STAGES, FilterConfig())
        result = run_pipeline(pool, stages, threads=4)
        print(len(result.per_stage), "concurrent.futures" in sys.modules)
    """)
    assert run_python(code).strip() == "5 False"


def run_cli_child(*argv, options=()):
    """``python [options] -m poollab.cli argv`` in a fresh interpreter on this checkout."""
    src = str(Path(poollab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    return subprocess.run([sys.executable, *options, "-m", "poollab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_extrapolate_child_loads_only_scaling_and_runlog(tmp_path):
    law = write_text(tmp_path, "law.json", json.dumps(LAW))
    proc = run_cli_child("extrapolate", "--law", law, "--pool-tokens", "1e12",
                         options=["-X", "importtime"])
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"poollab.scaling", "poollab.runlog"} <= loaded
    unused = {f"poollab.{m}" for m in ("corpus", "filters", "injection", "theory", "factuality")}
    assert not unused & loaded


def test_crossing_child_loads_no_numpy_ma(runs_file, tmp_path):
    proc = run_cli_child("crossing", "--runs", str(runs_file), "--pool-label", "cc",
                         "--filtered-label", "rw", "--output", str(tmp_path / "x.csv"),
                         options=["-X", "importtime"])
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "numpy" in loaded and "numpy.ma" not in loaded


@pytest.mark.parametrize("flags", [
    ["--method", "tpp", "--ratio", "1e30"],
    ["--method", "epoch", "--epochs", "1e30"],
])
def test_threshold_law_warnings_are_one_line_each(tmp_path, flags):
    # every model is excluded from the law, so three warnings precede the error
    proc = run_cli_child(*scaling_law_with(tmp_path, *flags))
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert [line.split(":")[0] for line in lines] == ["warning"] * 3 + ["error"]
    assert all(line.startswith("warning: model ") for line in lines[:3])
    assert not any(".py:" in line for line in lines)


@pytest.mark.parametrize("grid,target,code", [
    ([2, 4, 8, 16, 32, 64], 3.5, 0),  # the three-point asymptote overflows: a NEVER cell
    ([1000, 2000, 4000, 8000], 3.1, 1),  # the fitted scale overflows too
])
def test_crossing_near_float_max_prints_no_numpy_warning(tmp_path, grid, target, code):
    proc = run_cli_child(*crossing_with_huge_first_loss(tmp_path, grid, target))
    assert proc.returncode == code, proc.stderr
    assert not any(".py:" in line for line in proc.stderr.splitlines()), proc.stderr
    assert proc.stderr.count("\n") == code


@pytest.mark.parametrize("argv", [
    ["filter", "--pool", "p.jsonl", "--output", "o.jsonl", "--profile", "bogus"],
    ["inject", "--pool", "p.jsonl", "--ratio", "1", "--output", "o.jsonl", "--kind", "bogus"],
])
def test_bogus_choice_exits_two_in_fresh_child(argv):
    proc = run_cli_child(*argv)
    assert proc.returncode == 2
    assert "invalid choice: 'bogus'" in proc.stderr


HELP_COMMANDS = ["", "sample", "filter", "inject", "ingest", "report", "pareto", "crossing",
                 "scaling-law", "extrapolate", "slice-loss", "verify-theory", "judge"]


def test_help_text_unchanged():
    # tests/data/cli_help.txt holds the --help output (80 columns) of the
    # CLI as it was when every subcommand's modules were imported up front
    texts = []
    for command in HELP_COMMANDS:
        proc = run_cli_child(*command.split(), "--help")
        assert proc.returncode == 0, proc.stderr
        texts.append(f"$ poollab {command} --help".replace("  ", " ") + "\n" + proc.stdout)
    expected = (Path(__file__).parent / "data" / "cli_help.txt").read_text(encoding="utf-8")
    assert "".join(texts) == expected


def test_cli_import_loads_no_http_client_library():
    code = "import sys, poollab.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    assert run_python(code).strip() == "[]"
