import argparse
import ast
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
import re
import subprocess
import sys
import tempfile
import textwrap
import types
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import poollab
import poollab.cli as cli
from poollab import (
    EvalSlice,
    ModelConfig,
    QAItem,
    RunRecord,
    ThresholdLaw,
    ThresholdPoint,
    bundled_model_configs,
    crossing_point,
    load_run_log,
    write_documents,
    write_run_log,
)
from poollab.cli import CROSSING_COLUMNS, dispatch
from poollab.corpus import Document, PoolHeader
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
        docs.append(Document(f"doc-{i:03d}", " ".join(rng.choice(wordish) for _ in range(n))))
    path = tmp_path / "docs.jsonl"
    write_documents(path, docs)
    return path


@pytest.fixture
def extra_docs_file(tmp_path):
    rng = random.Random(4)
    docs = [
        Document(f"extra-{i:03d}", " ".join(f"w{rng.randint(0, 50)}" for _ in range(20)))
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

    def test_vocab_seed_with_shuffled_docs_exits_two_before_reading(
            self, tmp_path, docs_file, extra_docs_file, capsys, monkeypatch):
        # as scaling-law's --method and judge's --mock reject a flag their mode ignores
        read = []
        for name in ("read_pool", "read_documents"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: read.append(name))
        argv = ["inject", "--pool", str(docs_file), "--ratio", "0.5", "--kind", "shuffled_docs",
                "--junk-source", str(extra_docs_file), "--output", str(tmp_path / "s.jsonl")]
        assert dispatch(argv + ["--vocab-seed", "-3"]) == 2
        assert capsys.readouterr().err == (
            "usage error: --vocab-seed is not read with --kind shuffled_docs\n")
        assert read == [] and not (tmp_path / "s.jsonl").exists()
        monkeypatch.undo()
        config = write_text(tmp_path, "c.json", '{"vocab_seed": 3}')
        assert dispatch(argv + ["--config", config]) == 0  # a config may hold the other kind's

    def test_sample_reruns_byte_identical(self, tmp_path, docs_file):
        out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        for out in (out1, out2):
            assert dispatch(["sample", "--input", str(docs_file), "--target-tokens",
                             "1500", "--seed", "11", "--label", "cc",
                             "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_whole_target_in_exponent_form_accepted(self, tmp_path, docs_file):
        pools = []
        for spelling in ("1500", "1.5e3", "1500.0"):
            out = tmp_path / spelling / "p.jsonl"
            out.parent.mkdir()
            assert dispatch(["sample", "--input", str(docs_file), "--target-tokens", spelling,
                             "--seed", "11", "--output", str(out)]) == 0
            pools.append(out.read_bytes())
        assert pools[0] == pools[1] == pools[2]

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
        write_documents(pool, [Document("d0", "the cat and the dog")])
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
        # value flags the resolved method or judge mode would ignore
        (["scaling-law", "--crossings", "x.csv", "--method", "epoch", "--ratio", "5",
          "--output", "o.json"], None),
        (["scaling-law", "--crossings", "x.csv", "--epochs", "4", "--output", "o.json"], None),
        *[(["judge", "--mock", flag, value, "--qa", "q.jsonl", "--pool", "p.jsonl",
            "--output", "o.jsonl"], None)
          for flag, value in [("--endpoint", "http://127.0.0.1:9"), ("--model-name", "m"),
                              ("--timeout", "5"), ("--max-concurrency", "2")]],
    ])
    def test_every_output_flag_is_checked_before_reading(self, tmp_path, capsys, monkeypatch,
                                                         argv, flags):
        # only p.jsonl and its header exist, so a command that read a file would exit 1
        monkeypatch.chdir(tmp_path)
        write_documents(tmp_path / "p.jsonl", [Document("d0", "the cat and the dog")])
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
        cfg.write_text(json.dumps({"seed": 5, "label": "cfg"}), encoding="utf-8")
        out = tmp_path / "pool.jsonl"
        assert dispatch(["sample", "--input", str(docs_file), "--target-tokens", "600",
                         "--config", str(cfg), "--label", "flag", "--output", str(out)]) == 0
        header = json.loads((tmp_path / "pool.jsonl.header.json").read_text())
        assert header["seed"] == 5  # from config
        assert header["label"] == "flag"  # flag won over config

    STOPWORD_DOC = "the cat and the dog of that cat"  # 5 stop words, 4 distinct

    def filter_with_config(self, tmp_path, config):
        pool = tmp_path / "pool.jsonl"
        write_documents(pool, [Document("d0", self.STOPWORD_DOC)])
        cfg = write_text(tmp_path, "c.json", json.dumps(config))
        out = tmp_path / "f.jsonl"
        code = dispatch(["filter", "--pool", str(pool), "--stages", "stopword",
                         "--config", cfg, "--output", str(out)])
        return code, out

    @pytest.mark.parametrize("key,value", [
        ("stopword_distinct", "false"),  # bool("false") would be True
        ("stopword_distinct", 0),
        ("stopword_min_count", True),  # a JSON true is not an integer
        ("stopword_min_count", 5.5),
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
        assert err.splitlines() == [err.strip()]
        path = re.escape(str(tmp_path / "c.json"))
        assert re.match(rf"error: {path}: {key}(\['\w+'\])? must be .*, got ", err), err

    def test_config_label_must_be_a_string(self, tmp_path, docs_file, capsys):
        # a label of 5 would be written to a pool header that no command can read
        out = tmp_path / "pool.jsonl"
        config = write_text(tmp_path, "c.json", '{"label": 5}')
        assert dispatch(["sample", "--input", str(docs_file), "--target-tokens", "100",
                         "--config", config, "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {config}: label must be a string, got 5\n"
        assert not out.exists()

    def test_config_values_of_matching_json_type_apply(self, tmp_path):
        kept = {}
        for distinct in (False, True):
            code, out = self.filter_with_config(tmp_path, {
                "stopword_min_count": 5.0,  # an integral float for an int key
                "stopword_distinct": distinct,
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

    def test_eval_sets_flag_skips_empty_names(self, tmp_path, runs_file):
        outputs = set()
        for i, sets in enumerate(["avg", "avg,", ",avg,"]):
            out = tmp_path / f"x{i}.csv"
            assert dispatch(["crossing", "--runs", str(runs_file), "--pool-label", "cc",
                             "--filtered-label", "rw", "--eval-sets", sets,
                             "--output", str(out)]) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

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

    def test_equal_labels_exit_one_without_output(self, tmp_path, capsys):
        # a dataset against itself used to give a crossing cell of every (model, pool) pair
        argv = MALFORMED_INPUTS["crossing-labels-equal"](tmp_path, None)
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == (
            "error: the pool and filtered labels must differ, both are 'cc'\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("last_loss", [1.0, 3.5], ids=["observed", "extrapolated"])
    def test_tokens_seen_beyond_float_range_exits_one(self, tmp_path, capfd, last_loss):
        # the record is rejected as the log is read, whether its cell would be observed or fitted
        argv = crossing_with_tokens_beyond_float(tmp_path, last_loss)
        assert dispatch(argv) == 1
        assert capfd.readouterr().err == (
            f"error: {argv[2]}: 1 malformed line(s): line 1: "
            "cc: train_tokens is beyond the float range\n"
        )

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

    @pytest.mark.parametrize("prepend", [False, True])
    def test_configs_sharing_total_params_exit_one_naming_both(self, tmp_path, capsys, prepend):
        # either config would set the 15M line: the last one used to win without a word
        alt = replace(CONFIG_15M, name="15M-alt", non_embedding_params=1_000_000)
        configs = [alt, *bundled_model_configs()] if prepend else [*bundled_model_configs(), alt]
        assert dispatch(scaling_law_with_configs(tmp_path, configs)) == 1
        first, second = ("15M-alt", "15M") if prepend else ("15M", "15M-alt")
        assert capsys.readouterr().err == (f"error: model configs {first!r} and {second!r} "
                                           f"share total_params={CONFIG_15M.total_params}\n")
        assert not (tmp_path / "e.json").exists()

    def test_repeated_cell_exits_one_naming_both_lines(self, tmp_path, capsys):
        argv = crossings_with_repeated_cell(tmp_path)
        lines = (tmp_path / "x.csv").read_text(encoding="utf-8").splitlines()
        model_params, pool_tokens = lines[2].split(",")[:2]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'x.csv'}: line {len(lines)}: repeats "
            f"model_params={model_params}, pool_tokens={pool_tokens} of line 3\n"
        )
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("flags,flag,method", [
        (["--method", "epoch", "--ratio", "5"], "--ratio", "epoch"),
        (["--method", "epoch", "--configs", "models.json"], "--configs", "epoch"),
        (["--epochs", "4"], "--epochs", "tpp"),
    ])
    def test_flag_the_method_ignores_exits_two(self, tmp_path, capsys, flags, flag, method):
        assert dispatch(scaling_law_with(tmp_path, *flags)) == 2
        err = capsys.readouterr().err
        assert err == f"usage error: {flag} is not read with --method {method}\n"
        assert not (tmp_path / "e.json").exists()

    def test_config_keys_of_either_method_are_allowed(self, tmp_path):
        # a shared config file may hold both methods' settings
        config = write_text(tmp_path, "c.json", json.dumps({"ratio": 5.0, "epochs": 4.0}))
        assert dispatch(scaling_law_with(tmp_path, "--method", "epoch", "--config", config)) == 0
        assert dispatch(scaling_law_with(tmp_path, "--config", config)) == 0

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

    def test_filter_fact_rejects_negative_seed(self, capsys):
        # every seed is >= 0, as for --prop1, sample and inject
        assert dispatch(["verify-theory", "--filter-fact", "--trials", "2", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

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
            Document("d0", "the pulsar is a rotating neutron star indeed"),
            Document("d1", "a pulsar timing array measures pulsar signals"),
            Document("d2", "nothing relevant here"),
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
        Verdict = poollab.Verdict

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
        write_documents(pool, [Document("d0", "k")])
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

    @pytest.mark.parametrize("flag,value", [
        ("--endpoint", "http://127.0.0.1:9"), ("--model-name", "m"), ("--timeout", "5"),
        ("--max-concurrency", "2"),
    ])
    def test_http_judge_flag_with_mock_exits_two(self, tmp_path, capsys, flag, value):
        config = write_text(tmp_path, "c.json", json.dumps({"timeout": 5.0, "model_name": "m"}))
        qa = write_text(tmp_path, "qa.jsonl", QA_LINE + "\n")
        pool = tmp_path / "pool.jsonl"
        write_documents(pool, [Document("d0", "the")])
        argv = ["judge", "--mock", "--qa", qa, "--pool", str(pool), "--config", config,
                "--output", str(tmp_path / "o.jsonl")]
        assert dispatch(argv + [flag, value]) == 2
        assert capsys.readouterr().err == f"usage error: {flag} is not read with --mock\n"
        assert dispatch(argv) == 0  # the same keys in a config file are allowed

    def test_requires_mock_or_endpoint(self, tmp_path):
        qa = tmp_path / "qa.jsonl"
        qa.write_text(json.dumps({"subject": "s", "question": "q", "answer": "a",
                                  "keywords": ["k"]}) + "\n", encoding="utf-8")
        pool = tmp_path / "pool.jsonl"
        write_documents(pool, [Document("d0", "k")])
        assert dispatch(["judge", "--qa", str(qa), "--pool", str(pool),
                         "--output", str(tmp_path / "o.jsonl")]) == 2


CROSSINGS_HEADER = "model_params,pool_tokens,crossing_tokens,epochs_at_cross,observed,extreme_epochs\n"
LAW = {"method": "tokens_per_param", "parameter": 600.0, "alpha": 2.0, "beta": 1.5, "r2": 1.0,
       "points": [{"model_params": 10**i, "pool_tokens": 10.0**(i + 2),
                   "crossing_tokens": 10.0**(i + 3), "compute": 6 * 10.0**(2 * i + 3)}
                  for i in (7, 8, 9)]}


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


def crossings_with_alpha_beyond_float():
    """Models 1000, 10**150 and 10**300, each crossing at pools 1e6, 1e7 and 1e8 with
    k * 0.01 * pool**1.5 tokens: the epoch law's compute grows as 10**300 over one pool
    decade, so the fitted intercept is far past the float range."""
    rows = [f"{model},{pool},{k * 0.01 * pool**1.5!r},1.0,True,False\n"
            for model, k in [(1000, 1.0), (10**150, 1 + 1e-9), (10**300, 1 + 2e-9)]
            for pool in (10**6, 10**7, 10**8)]
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


def ingest_record_with(tmp_path, edit):
    """ingest --validate-only of a one-record run log changed by ``edit``."""
    obj = record_to_dict(curve_run("cc", CONFIG_15M, 1_000, 2.0, 0.3, 3.0, tokens_grid=[2, 4]))
    edit(obj)
    return ["ingest", "--runs", write_text(tmp_path, "r.jsonl", json.dumps(obj) + "\n"),
            "--validate-only"]


def extrapolate_of(tmp_path, obj):
    """extrapolate of the threshold law JSON value ``obj``."""
    return ["extrapolate", "--law", write_text(tmp_path, "law.json", json.dumps(obj)),
            "--pool-tokens", "1e12"]


def extrapolate_law_with(tmp_path, **fields):
    """extrapolate of LAW with ``fields`` replaced."""
    return extrapolate_of(tmp_path, {**LAW, **fields})


def filter_documents(tmp_path, text, header=None):
    """filter of a pool ``d.jsonl`` whose lines are ``text``, with the JSON value
    ``header``, if given, as its header."""
    if header is not None:
        write_text(tmp_path, "d.jsonl.header.json", json.dumps(header))
    return ["filter", "--pool", write_text(tmp_path, "d.jsonl", text + "\n"),
            "--output", str(tmp_path / "f.jsonl")]


def slice_loss_of(tmp_path, text):
    """slice-loss at t=1 of the slice JSON ``text``."""
    return ["slice-loss", "--slice", write_text(tmp_path, "s.json", text), "--t", "1"]


def judge_keywords(tmp_path, docs, keywords):
    """judge --mock of the pool ``docs`` with one QA item of ``keywords``."""
    line = json.dumps({"subject": "s", "question": "q?", "answer": "a", "keywords": keywords})
    return ["judge", "--mock", "--pool", docs, "--output", str(tmp_path / "j.jsonl"),
            "--qa", write_text(tmp_path, "qa.jsonl", line + "\n")]


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


def observed_cell_log(tmp_path, edit=lambda cc: None, pool_tokens=1_000):
    """A run log of one cell whose cc curve 1 + 2*N**-0.3 beats the rw best
    of 3.5 at its first point, written as JSON objects after ``edit`` changes
    the cc one, so that it can hold values a RunRecord rejects."""
    grid = [2, 4, 8, 16, 32, 64]
    cc, rw = (
        {**record_to_dict(curve_run(label, CONFIG_15M, 1_000, *curve, tokens_grid=grid)),
         "pool_tokens": pool_tokens}
        for label, curve in [("cc", (2.0, 0.3, 1.0)), ("rw", (1e-9, 0.5, 3.5))]
    )
    edit(cc)
    return write_text(tmp_path, "r.jsonl", "".join(json.dumps(r) + "\n" for r in (cc, rw)))


def crossing_with_pool_tokens(tmp_path, pool_tokens):
    """crossing on a log whose one cell has ``pool_tokens``."""
    return ["crossing", "--runs", observed_cell_log(tmp_path, pool_tokens=pool_tokens),
            "--pool-label", "cc", "--filtered-label", "rw", "--output", str(tmp_path / "x.csv")]


def crossings_with_repeated_cell(tmp_path):
    """scaling-law on the planted world's crossings with the second data row
    repeated as the last line."""
    write_crossings_csv(tmp_path / "x.csv", planted_threshold_world())
    lines = (tmp_path / "x.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    write_text(tmp_path, "x.csv", "".join(lines + [lines[2]]))
    return ["scaling-law", "--crossings", str(tmp_path / "x.csv"), "--method", "epoch",
            "--output", str(tmp_path / "e.json")]


#: A nesting depth past the JSON parser's recursion limit (1,000 by default), and a
#: cell length past the csv module's field limit (131,072).
DEEP, LONG = 2_000, 200_000
DEEP_JSON = "[" * DEEP + "]" * DEEP
LONG_CELL_CROSSINGS = CROSSINGS_HEADER + "1000,100," + "1" * LONG + ",1.0,False,False\n"


def crossing_without_first_eval_sets(tmp_path):
    """crossing on a log whose cc record has no losses at its first eval point."""
    grid = [2, 4, 8]
    cc = record_to_dict(curve_run("cc", CONFIG_15M, 1_000, 2.0, 0.3, 3.0, tokens_grid=grid))
    cc["eval_points"][0]["losses"] = {}
    rw = record_to_dict(curve_run("rw", CONFIG_15M, 1_000, 1e-9, 0.5, 3.5, tokens_grid=grid))
    runs = write_text(tmp_path, "r.jsonl", "".join(json.dumps(r) + "\n" for r in (cc, rw)))
    return ["crossing", "--runs", runs, "--pool-label", "cc", "--filtered-label", "rw",
            "--output", str(tmp_path / "x.csv")]


def extrapolate_with_first_point(tmp_path, **fields):
    """extrapolate on LAW with ``fields`` in its first point."""
    points = [{**LAW["points"][0], **fields}, *LAW["points"][1:]]
    return ["extrapolate", "--law", write_text(tmp_path, "law.json", json.dumps(
        {**LAW, "points": points})), "--pool-tokens", "1e12", "--output", str(tmp_path / "e.json")]


def scaling_law_on_row(tmp_path, row):
    """scaling-law on a crossings CSV whose first row is ``row``, given as its
    ``model_params, pool_tokens, crossing_tokens, observed``, before two valid rows."""
    rows = [row.split(","), ["1000", "200", "90.0", "True"], ["1000", "400", "160.0", "True"]]
    text = CROSSINGS_HEADER + "".join(f"{m},{p},{c},1.0,{o},False\n" for m, p, c, o in rows)
    return ["scaling-law", "--crossings", write_text(tmp_path, "x.csv", text),
            "--method", "epoch", "--output", str(tmp_path / "e.json")]


def scaling_law_with(tmp_path, *flags):
    """scaling-law on crossings that fit a law, with ``flags`` added."""
    write_crossings_csv(tmp_path / "x.csv", planted_threshold_world())
    return ["scaling-law", "--crossings", str(tmp_path / "x.csv"), *flags,
            "--output", str(tmp_path / "e.json")]


def scaling_law_with_configs(tmp_path, configs):
    """scaling-law --method tpp of crossings that fit a law, with ``configs`` as its --configs."""
    return scaling_law_with(tmp_path, "--configs", write_text(
        tmp_path, "models.json", json.dumps([asdict(c) for c in configs])))


#: A field of another JSON kind than its format's, or out of its range: argv (built
#: as for MALFORMED_INPUTS, which holds these too) and the error naming the field.
MISTYPED_FIELDS = {
    "run-log-weight-decay-a-string": (
        lambda t, docs: ingest_record_with(t, lambda r: r.update(weight_decay="nan")),
        "r.jsonl: line 1: weight_decay must be a number, got 'nan'"),
    "run-log-learning-rate-a-bool": (
        lambda t, docs: ingest_record_with(t, lambda r: r.update(learning_rate=True)),
        "r.jsonl: line 1: learning_rate must be a number, got True"),
    "run-log-model-layers-a-bool": (
        lambda t, docs: ingest_record_with(t, lambda r: r["model"].update(layers=True)),
        "r.jsonl: line 1: layers must be a whole number, got True"),
    "run-log-model-vocab-size-a-string": (
        lambda t, docs: ingest_record_with(t, lambda r: r["model"].update(vocab_size="50432")),
        "r.jsonl: line 1: vocab_size must be a whole number, got '50432'"),
    "run-log-model-name-an-int": (
        lambda t, docs: ingest_record_with(t, lambda r: r["model"].update(name=15)),
        "r.jsonl: line 1: name must be a string, got 15"),
    "run-log-loss-a-string": (
        lambda t, docs: ingest_record_with(t, lambda r: r["eval_points"][0].update(
            losses={"avg": "6.3"})),
        "r.jsonl: line 1: losses['avg'] must be a number, got '6.3'"),
    "run-log-loss-a-bool": (
        lambda t, docs: ingest_record_with(t, lambda r: r["eval_points"][1].update(
            losses={"avg": True})),
        "r.jsonl: line 1: losses['avg'] must be a number, got True"),
    "run-log-benchmark-null": (
        lambda t, docs: ingest_record_with(t, lambda r: r["eval_points"][0].update(
            benchmarks={"arc": None})),
        "r.jsonl: line 1: benchmarks['arc'] must be a number, got None"),
    "scaling-law-configs-name-an-int": (
        lambda t, docs: scaling_law_with(t, "--configs", write_text(t, "models.json", json.dumps(
            [{**asdict(CONFIG_15M), "name": 5}]))),
        "models.json: name must be a string, got 5"),
    "scaling-law-configs-heads-fractional": (
        lambda t, docs: scaling_law_with(t, "--configs", write_text(t, "models.json", json.dumps(
            [{**asdict(CONFIG_15M), "heads": 6.5}]))),
        "models.json: heads must be a whole number, got 6.5"),
    "crossings-model-params-fractional": (
        lambda t, docs: ["scaling-law", "--output", str(t / "law.json"), "--crossings",
                         write_text(t, "x.csv", CROSSINGS_HEADER
                                    + "15009920.9,1000000,NEVER,NEVER,False,False\n")],
        "x.csv: line 2: model_params must be a whole number, got '15009920.9'"),
    "law-parameter-a-string": (lambda t, docs: extrapolate_law_with(t, parameter="20"),
                               "law.json: parameter must be a number, got '20'"),
    "law-alpha-a-string": (lambda t, docs: extrapolate_law_with(t, alpha="1e3"),
                           "law.json: alpha must be a number, got '1e3'"),
    "law-beta-a-bool": (lambda t, docs: extrapolate_law_with(t, beta=True),
                        "law.json: beta must be a number, got True"),
    "law-r2-a-string": (lambda t, docs: extrapolate_law_with(t, r2="nan"),
                        "law.json: r2 must be a number, got 'nan'"),
    "law-method-an-int": (lambda t, docs: extrapolate_law_with(t, method=5),
                          "law.json: method must be a string, got 5"),
    "law-points-empty": (lambda t, docs: extrapolate_law_with(t, points=[]),
                         "law.json: threshold law needs >= 3 points, got 0"),
    "law-point-compute-null": (
        lambda t, docs: extrapolate_law_with(t, points=[{**LAW["points"][0], "compute": None}]),
        "law.json: compute must be a number, got None"),
    "slice-context-length-a-string": (
        lambda t, docs: slice_loss_of(t, '{"position_losses": [1.0], "context_length": "1"}'),
        "s.json: context_length must be a whole number, got '1'"),
    "slice-context-length-fractional": (
        lambda t, docs: slice_loss_of(t, '{"position_losses": [1.0], "context_length": 1.9}'),
        "s.json: context_length must be a whole number, got 1.9"),
    "slice-position-loss-a-string": (
        lambda t, docs: slice_loss_of(t, '{"position_losses": [1.0, "3.0", true, 1.9]}'),
        "s.json: position_losses[1] must be a number, got '3.0'"),
    "slice-position-loss-a-bool": (
        lambda t, docs: slice_loss_of(t, '{"position_losses": [true]}'),
        "s.json: position_losses[0] must be a number, got True"),
    "qa-keyword-empty": (lambda t, docs: judge_keywords(t, docs, ["pulsar", ""]),
                         "qa.jsonl: line 1: keywords must be non-blank lowercase strings, got ''"),
    "qa-keyword-blank": (lambda t, docs: judge_keywords(t, docs, [" "]),
                         "qa.jsonl: line 1: keywords must be non-blank lowercase strings, got ' '"),
    "inject-config-kind-unknown": (
        lambda t, docs: ["inject", "--pool", docs, "--ratio", "0.5", "--output", str(t / "i.jsonl"),
                         "--config", write_text(t, "c.json", '{"kind": "zzz"}')],
        "c.json: kind must be one of random_strings, shuffled_docs, got 'zzz'"),
    "document-source-unknown": (
        lambda t, docs: filter_documents(t, '{"id": "a", "text": "the pulsar", "source": "x"}'),
        "d.jsonl: line 1: source must be one of pool, random_junk, shuffled_junk, got 'x'"),
    "document-source-an-int": (
        lambda t, docs: filter_documents(t, '{"id": "a", "text": "the pulsar", "source": 5}'),
        "d.jsonl: line 1: source must be one of pool, random_junk, shuffled_junk, got 5"),
    "document-id-an-int": (
        lambda t, docs: filter_documents(t, '{"id": 5, "text": "the pulsar"}'),
        "d.jsonl: line 1: id must be a string, got 5"),
    "run-log-weight-decay-nan": (
        lambda t, docs: ingest_record_with(t, lambda r: r.update(weight_decay=math.nan)),
        "r.jsonl: line 1: cc: weight_decay must be finite and non-negative, got nan"),
    "run-log-learning-rate-minus-infinity": (
        lambda t, docs: ingest_record_with(t, lambda r: r.update(learning_rate=-math.inf)),
        "r.jsonl: line 1: cc: learning_rate must be finite and non-negative, got -inf"),
    "run-log-model-layers-negative": (
        lambda t, docs: ingest_record_with(t, lambda r: r["model"].update(layers=-3, ffn_dim=0)),
        "r.jsonl: line 1: 15M: layers must be positive, got -3"),
    "scaling-law-configs-ffn-dim-zero": (
        lambda t, docs: scaling_law_with(t, "--configs", write_text(t, "models.json", json.dumps(
            [{**asdict(CONFIG_15M), "ffn_dim": 0}]))),
        "models.json: 15M: ffn_dim must be positive, got 0"),
    "run-log-eval-points-an-int": (
        lambda t, docs: ingest_record_with(t, lambda r: r.update(eval_points=5)),
        "r.jsonl: line 1: eval_points must be a list, got 5"),
    "run-log-eval-point-an-int": (
        lambda t, docs: ingest_record_with(t, lambda r: r.update(eval_points=[1])),
        "r.jsonl: line 1: eval_points must be a list of objects, got [1]"),
    "run-log-losses-a-list": (
        lambda t, docs: ingest_record_with(t, lambda r: r["eval_points"][0].update(losses=[3.0])),
        "r.jsonl: line 1: losses must be an object of numbers, got [3.0]"),
    "law-points-an-int": (lambda t, docs: extrapolate_law_with(t, points=5),
                          "law.json: points must be a list, got 5"),
    "law-method-unknown": (
        lambda t, docs: extrapolate_law_with(t, method="bogus"),
        "law.json: threshold law method must be one of tokens_per_param, epoch_constraint, "
        "got 'bogus'"),
    "law-parameter-negative": (
        lambda t, docs: extrapolate_law_with(t, parameter=-7.0),
        "law.json: threshold law parameter must be finite and > 0, got -7.0"),
    "pool-header-seed-negative": (lambda t, docs: filter_pool_with_header(t, seed=-3),
                                  "pool.jsonl.header.json: seed must be >= 0, got -3"),
    "crossings-row-too-long": (
        lambda t, docs: ["scaling-law", "--output", str(t / "e.json"), "--crossings", write_text(
            t, "x.csv", CROSSINGS_HEADER + "1000,100,50.0,1.0,True,False,7.0\n")],
        "x.csv: line 2: row has 7 cells, the header 6"),
    "crossings-header-repeats-column": (
        lambda t, docs: ["scaling-law", "--output", str(t / "e.json"), "--crossings", write_text(
            t, "x.csv", "model_params,pool_tokens,crossing_tokens,crossing_tokens,epochs_at_cross,"
            "observed,extreme_epochs\n1000,100,5000000.0,NEVER,1.0,True,False\n")],
        "x.csv: header repeats column(s) ['crossing_tokens']"),
    "slice-position-losses-an-int": (lambda t, docs: slice_loss_of(t, '{"position_losses": 5}'),
                                     "s.json: position_losses must be a list, got 5"),
}


@pytest.mark.parametrize("case, message", [
    ("pool-tokens-abc", "--pool-tokens must be a number, got 'abc'"),
    ("slice-t-not-integer", "--t must be a whole number, got 'a'"),
    ("slice-t-empty-item", "--t must be a whole number, got ''"),
])
def test_text_value_error_names_setting_and_kind(tmp_path, docs_file, capsys, case, message):
    assert dispatch(MALFORMED_INPUTS[case](tmp_path, str(docs_file))) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("case", sorted(MISTYPED_FIELDS))
def test_mistyped_field_error_names_path_and_field(tmp_path, docs_file, capsys, case):
    builder, message = MISTYPED_FIELDS[case]
    assert dispatch(builder(tmp_path, str(docs_file))) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error: ")] == [
        err.splitlines()[-1]]
    assert f"{tmp_path}/{message}\n" in err, err


#: Documents whose third line repeats the first line's id.
REPEATED_ID_DOCS = "".join(json.dumps({"id": i, "text": "w " * 99}) + "\n" for i in "aba")


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
    "target-tokens-fractional": lambda t, docs: [
        "sample", "--input", docs, "--target-tokens", "2000.7", "--output", str(t / "p.jsonl")],
    "pool-tokens-abc": lambda t, docs: [
        "extrapolate", "--law", write_text(t, "law.json", json.dumps(LAW)),
        "--pool-tokens", "abc"],
    "slice-t-not-integer": lambda t, docs: [
        "slice-loss", "--slice",
        write_text(t, "s.json", '{"position_losses": [1.0], "context_length": 1}'), "--t", "a"],
    "slice-t-empty-item": lambda t, docs: [
        "slice-loss", "--slice", write_text(t, "s.json", '{"position_losses": [1.0]}'), "--t", "1,"],
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
    "epoch-law-alpha-beyond-float": lambda t, docs: [
        "scaling-law", "--crossings", write_text(t, "x.csv", crossings_with_alpha_beyond_float()),
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
    "verify-theory-filter-fact-negative-seed": lambda t, docs: [
        "verify-theory", "--filter-fact", "--trials", "1", "--seed", "-3",
        "--output", str(t / "v.jsonl")],
    "document-not-utf8": lambda t, docs: [
        "sample", "--input", write_bytes(t, "d.jsonl", NOT_UTF8),
        "--target-tokens", "1", "--output", str(t / "p.jsonl")],
    "pool-not-utf8": lambda t, docs: [
        "filter", "--pool", write_bytes(t, "d.jsonl", NOT_UTF8), "--output", str(t / "f.jsonl")],
    "run-log-not-utf8": lambda t, docs: [
        "ingest", "--runs", write_bytes(t, "d.jsonl", NOT_UTF8), "--validate-only"],
    "qa-repeated-question": lambda t, docs: [
        "judge", "--mock", "--pool", docs, "--output", str(t / "j.jsonl"), "--qa",
        write_text(t, "qa.jsonl", QA_LINE + "\n" + QA_LINE.replace('"a"', '"b"') + "\n")],
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
    "filter-config-profile-unknown": lambda t, docs: [
        "filter", "--pool", docs, "--output", str(t / "f.jsonl"), "--config",
        write_text(t, "c.json", '{"profile": "bad"}')],
    "scaling-law-config-method-unknown": lambda t, docs: scaling_law_with(
        t, "--config", write_text(t, "c.json", '{"method": "bad"}')),
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
    "run-log-train-tokens-a-string": lambda t, docs: [
        "ingest", "--runs",
        write_text(t, "r.jsonl", run_log_line_with("train_tokens", '"17131332"')),
        "--validate-only"],
    "run-log-pool-tokens-a-bool": lambda t, docs: [
        "ingest", "--runs", write_text(t, "r.jsonl", run_log_line_with("pool_tokens", "true")),
        "--validate-only"],
    "run-log-batch-tokens-a-string": lambda t, docs: [
        "ingest", "--runs", write_text(t, "r.jsonl", run_log_line_with("batch_tokens", '"7"')),
        "--validate-only"],
    "run-log-pool-tokens-fractional": lambda t, docs: [
        "ingest", "--runs", write_text(t, "r.jsonl", run_log_line_with("pool_tokens", "1.9")),
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
    "report-compute-overflows": lambda t, docs: [  # 6 * 1e305 * 15,009,920 is inf
        "report", "--runs", write_text(t, "r.jsonl", run_log_line_with("train_tokens", 10**305)),
        "--output", str(t / "r.csv")],
    "pareto-compute-overflows": lambda t, docs: [
        "pareto", "--runs", write_text(t, "r.jsonl", run_log_line_with("train_tokens", 10**305)),
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
    "crossing-observed-tokens-seen-zero": lambda t, docs: [
        "crossing", "--runs", observed_cell_log(
            t, lambda cc: cc["eval_points"][0].update(tokens_seen=0)),
        "--pool-label", "cc", "--filtered-label", "rw", "--output", str(t / "x.csv")],
    "run-log-nested-too-deep": lambda t, docs: [
        "ingest", "--runs", write_text(t, "d.jsonl", run_log_line_with("dataset_label", '"a"')
                                       + DEEP_JSON + "\n"), "--validate-only"],
    "document-nested-too-deep": lambda t, docs: [
        "sample", "--input", write_text(t, "d.jsonl", '{"id": "a", "text": "ok"}\n' + DEEP_JSON),
        "--target-tokens", "1", "--output", str(t / "p.jsonl")],
    "config-nested-too-deep": lambda t, docs: [
        "sample", "--input", docs, "--target-tokens", "100",
        "--config", write_text(t, "c.json", DEEP_JSON), "--output", str(t / "p.jsonl")],
    "law-nested-too-deep": lambda t, docs: [
        "extrapolate", "--law", write_text(t, "law.json", DEEP_JSON), "--pool-tokens", "1e12"],
    "crossings-cell-too-long": lambda t, docs: [
        "scaling-law", "--crossings", write_text(t, "x.csv", LONG_CELL_CROSSINGS),
        "--output", str(t / "law.json")],
    "crossing-eval-set-repeated": lambda t, docs: [
        *crossing_with_pool_tokens(t, 1_000), "--eval-sets", "avg,avg"],
    "crossing-pool-record-without-eval-sets": lambda t, docs: crossing_without_first_eval_sets(t),
    "crossings-pool-tokens-zero": lambda t, docs: [
        "scaling-law", "--crossings", write_text(t, "x.csv", CROSSINGS_HEADER + "".join(
            f"1000,{pool},{crossing},1.0,True,False\n"
            for pool, crossing in [(0, 5.0), (10, 50.0), (100, 900.0)])),
        "--method", "epoch", "--output", str(t / "e.json")],
    "sample-seed-negative": lambda t, docs: [
        "sample", "--input", docs, "--target-tokens", "100", "--seed", "-7",
        "--output", str(t / "p.jsonl")],
    "sample-config-seed-negative": lambda t, docs: [
        "sample", "--input", docs, "--target-tokens", "100",
        "--config", write_text(t, "c.json", '{"seed": -7}'), "--output", str(t / "p.jsonl")],
    "inject-seed-negative": lambda t, docs: [
        "inject", "--pool", docs, "--ratio", "0.5", "--seed", "-7", "--output", str(t / "i.jsonl")],
    "inject-vocab-seed-negative": lambda t, docs: [
        "inject", "--pool", docs, "--ratio", "0.5", "--vocab-seed", "-7",
        "--output", str(t / "i.jsonl")],
    "inject-config-seed-negative": lambda t, docs: [
        "inject", "--pool", docs, "--ratio", "0.5",
        "--config", write_text(t, "c.json", '{"seed": -7}'), "--output", str(t / "i.jsonl")],
    "inject-config-vocab-seed-negative": lambda t, docs: [
        "inject", "--pool", docs, "--ratio", "0.5",
        "--config", write_text(t, "c.json", '{"vocab_seed": -7}'), "--output", str(t / "i.jsonl")],
    "filter-config-threads-zero": lambda t, docs: [
        "filter", "--pool", docs, "--output", str(t / "f.jsonl"), "--config",
        write_text(t, "c.json", '{"threads": 0}')],
    "filter-config-stage-unknown": lambda t, docs: [
        "filter", "--pool", docs, "--output", str(t / "f.jsonl"), "--config",
        write_text(t, "c.json", '{"stages": "english,bogus"}')],
    "filter-config-english-threshold-above-one": lambda t, docs: [
        "filter", "--pool", docs, "--output", str(t / "f.jsonl"), "--config",
        write_text(t, "c.json", '{"english_threshold": 1.5}')],
    "filter-config-stopword-min-count-negative": lambda t, docs: [
        "filter", "--pool", docs, "--output", str(t / "f.jsonl"), "--config",
        write_text(t, "c.json", '{"stopword_min_count": -2}')],
    "scaling-law-config-ratio-negative": lambda t, docs: scaling_law_with(
        t, "--config", write_text(t, "c.json", '{"ratio": -1}')),
    "scaling-law-config-epochs-zero": lambda t, docs: scaling_law_with(
        t, "--config", write_text(t, "c.json", '{"method": "epoch", "epochs": 0}')),
    "sample-document-id-repeated": lambda t, docs: [
        "sample", "--input", write_text(t, "d.jsonl", REPEATED_ID_DOCS),
        "--target-tokens", "1", "--output", str(t / "p.jsonl")],
    "filter-pool-document-id-repeated": lambda t, docs: [
        "filter", "--pool", write_text(t, "d.jsonl", REPEATED_ID_DOCS),
        "--output", str(t / "f.jsonl")],
    "inject-junk-document-id-repeated": lambda t, docs: [
        "inject", "--pool", docs, "--ratio", "1", "--kind", "shuffled_docs",
        "--junk-source", write_text(t, "d.jsonl", REPEATED_ID_DOCS),
        "--output", str(t / "i.jsonl")],
    "law-alpha-negative": lambda t, docs: [
        "extrapolate", "--law", write_text(t, "law.json", json.dumps({**LAW, "alpha": -2.0})),
        "--pool-tokens", "1e12", "--output", str(t / "e.json")],
    "law-point-compute-negative": lambda t, docs: extrapolate_with_first_point(
        t, compute=-3e18),
    "law-point-model-params-negative": lambda t, docs: extrapolate_with_first_point(
        t, model_params=-7),
    "extrapolate-compute-underflows": lambda t, docs: [  # 2 * (1e-300)**1.5 is 0.0
        "extrapolate", "--law", write_text(t, "law.json", json.dumps(LAW)),
        "--pool-tokens", "1e-300", "--output", str(t / "e.json")],
    "crossings-model-params-negative": lambda t, docs: scaling_law_on_row(t, "-7,100,50.0,True"),
    "crossings-crossing-tokens-negative": lambda t, docs: scaling_law_on_row(
        t, "1000,100,-5.0,False"),
    "crossings-observed-never": lambda t, docs: scaling_law_on_row(t, "1000,100,NEVER,True"),
    "judge-config-timeout-negative": lambda t, docs: [
        "judge", "--qa", write_text(t, "qa.jsonl", QA_LINE), "--pool", docs,
        "--endpoint", "http://x", "--config", write_text(t, "c.json", '{"timeout": -1}'),
        "--output", str(t / "j.jsonl")],
    "scaling-law-configs-total-params-repeated": lambda t, docs: scaling_law_with_configs(
        t, [*bundled_model_configs(), replace(CONFIG_15M, name="15M-alt")]),
    "crossing-labels-equal": lambda t, docs: [
        "crossing", "--runs", observed_cell_log(t), "--pool-label", "cc",
        "--filtered-label", "cc", "--output", str(t / "x.csv")],
    **{case: builder for case, (builder, _) in MISTYPED_FIELDS.items()},
}


@pytest.mark.parametrize("seed", range(6))
def test_repeated_document_id_fails_at_every_seed(tmp_path, capsys, seed):
    # a pool that happened to draw only one of the two lines used to be written
    lines = [json.dumps({"id": f"d{i}", "text": "w " * 10}) for i in range(20)]
    path = write_text(tmp_path, "d.jsonl", "\n".join([*lines, lines[0]]) + "\n")
    assert dispatch(["sample", "--input", path, "--target-tokens", "120", "--seed", str(seed),
                     "--output", str(tmp_path / "p.jsonl")]) == 1
    assert capsys.readouterr().err == f"error: {path}: line 21: repeats id='d0' of line 1\n"
    assert not (tmp_path / "p.jsonl").exists()


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


@pytest.mark.parametrize("case,where", [
    ("run-log-nested-too-deep", "d.jsonl: line 2"),
    ("document-nested-too-deep", "d.jsonl: line 2"),
    ("config-nested-too-deep", "c.json"),
    ("law-nested-too-deep", "law.json"),
])
def test_deeply_nested_json_is_invalid_json(tmp_path, docs_file, capsys, case, where):
    assert dispatch(MALFORMED_INPUTS[case](tmp_path, str(docs_file))) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / where}: invalid JSON: maximum recursion depth exceeded" in err
    assert err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("case,error", [
    ("crossings-cell-too-long", "{tmp}/x.csv: line 2: field larger than field limit (131072)"),
    ("qa-repeated-question", "{tmp}/qa.jsonl: line 2: repeats qa_id=s:8e35c2cd of line 1"),
    ("target-tokens-fractional", "--target-tokens must be a whole number, got '2000.7'"),
    ("crossing-eval-set-repeated", "eval sets ['avg', 'avg'] name a set more than once"),
    # an observed crossing at tokens_seen 0 is named with its cell, as a failed fit is
    ("crossing-observed-tokens-seen-zero", "crossing for cell (model_params=15009920, "
     "pool_tokens=1000): crossing_tokens must be finite and > 0, got 0.0"),
    # an eval point without losses is a malformed line of the log, named with its record
    ("crossing-pool-record-without-eval-sets",
     "{tmp}/r.jsonl: 1 malformed line(s): line 1: cc: eval point at tokens_seen=2 has no losses"),
    ("report-compute-overflows", "cc: training compute must be positive and finite, got inf"),
    # 10.0**intercept raises OverflowError; fit_power_law's exp(intercept) is checked alike
    ("epoch-law-alpha-beyond-float", "fitted scale alpha = 10**889743812727.1813 is not finite"),
    ("pareto-compute-overflows", "cc: training compute must be positive and finite, got inf"),
    ("scaling-law-config-method-unknown",
     "{tmp}/c.json: method must be one of tpp, epoch, got 'bad'"),
    ("filter-config-profile-unknown",
     "{tmp}/c.json: profile must be one of gopher, permissive, got 'bad'"),
    # a negative seed would alias its positive one: random.Random seeds -n as it seeds n
    ("sample-seed-negative", "seed must be >= 0, got -7"),
    ("verify-theory-filter-fact-negative-seed", "seed must be >= 0, got -3"),
    ("sample-config-seed-negative", "{tmp}/c.json: seed must be >= 0, got -7"),
    ("inject-seed-negative", "seed must be >= 0, got -7"),
    ("inject-vocab-seed-negative", "vocab seed must be >= 0, got -7"),
    ("inject-config-seed-negative", "{tmp}/c.json: seed must be >= 0, got -7"),
    ("inject-config-vocab-seed-negative", "{tmp}/c.json: vocab_seed must be >= 0, got -7"),
    # a --config value the library rejects names the file; the same value as a flag does not
    ("filter-config-threads-zero", "{tmp}/c.json: threads must be >= 1, got 0"),
    ("filter-threads-zero", "--threads must be >= 1, got 0"),
    ("filter-config-stage-unknown", "{tmp}/c.json: unknown stage 'bogus'; "
     "available: ['dedup', 'english', 'quality', 'repetition', 'stopword']"),
    ("filter-config-english-threshold-above-one",
     "{tmp}/c.json: english_threshold must be in [0,1], got 1.5"),
    ("filter-config-stopword-min-count-negative", "{tmp}/c.json: stopword_min_count must be >= 0"),
    ("filter-stopword-min-count-negative", "stopword_min_count must be >= 0"),
    ("filter-repetition-threshold-above-one",
     "{tmp}/c.json: repetition threshold dup_5gram must be in [0,1], got 7.5"),
    ("scaling-law-config-ratio-negative", "{tmp}/c.json: ratio must be finite and > 0, got -1.0"),
    ("scaling-law-ratio-negative", "tokens-per-param ratio must be finite and > 0, got -5.0"),
    ("scaling-law-config-epochs-zero", "{tmp}/c.json: epochs must be finite and > 0, got 0.0"),
    ("judge-config-timeout-negative",
     "{tmp}/c.json: judge timeout must be a positive number, got -1.0"),
    # a record checks its own domain, read from a file or built in memory
    ("law-alpha-negative", "{tmp}/law.json: threshold law alpha must be > 0, got -2.0"),
    ("law-point-compute-negative",
     "{tmp}/law.json: model 10000000: compute must be finite and > 0, got -3e+18"),
    ("law-point-model-params-negative",
     "{tmp}/law.json: model -7: model_params must be finite and > 0, got -7.0"),
    ("extrapolate-compute-underflows", "compute at pool_tokens 1e-300 underflows to 0.0"),
    ("crossings-model-params-negative",
     "{tmp}/x.csv: line 2: model_params must be > 0 and within the float range, got -7"),
    ("crossings-crossing-tokens-negative",
     "{tmp}/x.csv: line 2: crossing_tokens must be finite and > 0, got -5.0"),
    ("crossings-observed-never",
     "{tmp}/x.csv: line 2: an observed crossing needs crossing_tokens, got NEVER"),
    # a repeated id is named with its lines, whichever documents a seed would draw
    ("sample-document-id-repeated", "{tmp}/d.jsonl: line 3: repeats id='a' of line 1"),
    ("filter-pool-document-id-repeated", "{tmp}/d.jsonl: line 3: repeats id='a' of line 1"),
    ("inject-junk-document-id-repeated", "{tmp}/d.jsonl: line 3: repeats id='a' of line 1"),
])
def test_malformed_input_error_line(tmp_path, docs_file, capsys, case, error):
    argv = MALFORMED_INPUTS[case](tmp_path, str(docs_file))
    inputs = set(tmp_path.iterdir())
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: {error.format(tmp=tmp_path)}\n"
    assert set(tmp_path.iterdir()) == inputs


#: Edits that break the run-log rule in the cc record, with the message naming each.
BAD_RECORDS = {
    "pool-tokens-zero": (lambda cc: cc.update(pool_tokens=0),
                         "cc: pool_tokens must be positive and within the float range"),
    "tokens-seen-negative": (lambda cc: cc["eval_points"][0].update(tokens_seen=-5),
                             "cc: tokens_seen must be non-negative"),
    "train-tokens-beyond-float": (lambda cc: cc.update(train_tokens=10**400),
                                  "cc: train_tokens is beyond the float range"),
    "total-params-beyond-float": (lambda cc: cc["model"].update(total_params=10**400),
                                  "15M: total_params is beyond the float range"),
}

#: Each command that reads a run log, on the log at ``runs``.
RUN_LOG_READERS = {
    "ingest": lambda runs, out: ["ingest", "--runs", runs, "--validate-only"],
    "report": lambda runs, out: ["report", "--runs", runs, "--output", out],
    "pareto": lambda runs, out: ["pareto", "--runs", runs, "--output", out],
    "crossing": lambda runs, out: ["crossing", "--runs", runs, "--pool-label", "cc",
                                   "--filtered-label", "rw", "--output", out],
}


@pytest.mark.parametrize("reader", sorted(RUN_LOG_READERS))
@pytest.mark.parametrize("bad", sorted(BAD_RECORDS))
def test_every_reader_rejects_a_bad_record_alike(tmp_path, capsys, bad, reader):
    edit, message = BAD_RECORDS[bad]
    out = str(tmp_path / "out.csv")
    assert dispatch(RUN_LOG_READERS[reader](observed_cell_log(tmp_path, edit), out)) == 1
    err = capsys.readouterr().err
    assert f"line 1: {message}\n" in err and "Traceback" not in err
    assert err.splitlines()[-1].startswith("error: ") and not Path(out).exists()


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


@pytest.mark.parametrize("header", [{}, {"label": "p"}, {"label": "p", "extra": 1}])
def test_pool_header_needs_no_field_and_ignores_other_keys(tmp_path, header):
    assert dispatch(filter_documents(tmp_path, '{"id": "a", "text": "one two"}', header)) == 0
    written = json.loads((tmp_path / "f.jsonl.header.json").read_text())
    assert (written["label"], written["seed"]) == (header.get("label", "d"), 0)


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


#: Each whole-file JSON input: the file's name, and argv of a command that reads it
#: from ``t`` (a pool header is read beside its pool).
WHOLE_FILE_READERS = {
    "config": ("c.json", lambda t, docs: [
        "sample", "--input", docs, "--target-tokens", "100", "--config", str(t / "c.json"),
        "--output", str(t / "p.jsonl")]),
    "law": ("law.json", lambda t, docs: [
        "extrapolate", "--law", str(t / "law.json"), "--pool-tokens", "1e12"]),
    "slice": ("s.json", lambda t, docs: ["slice-loss", "--slice", str(t / "s.json"), "--t", "1"]),
    "pool-header": ("pool.jsonl.header.json", lambda t, docs: filter_pool_with_header(t)),
    "configs": ("models.json", lambda t, docs: scaling_law_with(
        t, "--configs", str(t / "models.json"))),
}

#: (reader, what is wrong, file text, the reason the error gives).  A config and a
#: pool header have no missing-key case: each of their keys is optional.
BAD_WHOLE_FILES = [
    *[(reader, "not-json", "{oops", "invalid JSON: Expecting property name enclosed in "
                                    "double quotes: line 1 column 2 (char 1)")
      for reader in WHOLE_FILE_READERS],
    *[(reader, "not-an-object", "[1]", "expected a JSON object, got [1]")
      for reader in ("config", "law", "slice", "pool-header")],
    ("configs", "not-a-list", '{"name": "15M"}',
     "model configs must be a list, got {'name': '15M'}"),
    ("law", "missing-key", json.dumps({k: v for k, v in LAW.items() if k != "alpha"}),
     "missing key 'alpha'"),
    ("slice", "missing-key", '{"context_length": 1}', "missing key 'position_losses'"),
    ("configs", "missing-key", '[{"name": "15M"}]', "missing key 'hidden_dim'"),
    ("config", "mistyped", '{"seed": "1"}', "seed must be a whole number, got '1'"),
    ("law", "mistyped", json.dumps({**LAW, "alpha": "1e3"}), "alpha must be a number, got '1e3'"),
    ("slice", "mistyped", '{"position_losses": [1.0], "context_length": "1"}',
     "context_length must be a whole number, got '1'"),
    ("pool-header", "mistyped", '{"seed": "0"}', "seed must be a whole number, got '0'"),
    ("configs", "mistyped", json.dumps([{**asdict(CONFIG_15M), "heads": 6.5}]),
     "heads must be a whole number, got 6.5"),
]


@pytest.mark.parametrize("reader, wrong, text, reason", BAD_WHOLE_FILES,
                         ids=[f"{reader}-{wrong}" for reader, wrong, *_ in BAD_WHOLE_FILES])
def test_whole_file_error_is_path_then_reason(tmp_path, docs_file, capsys, reader, wrong, text,
                                              reason):
    name, builder = WHOLE_FILE_READERS[reader]
    argv = builder(tmp_path, str(docs_file))
    write_text(tmp_path, name, text)
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: {reason}") and err.count("\n") == 1, err


def report_of(tmp_path, obj):
    """report of a run log whose one line is the JSON value ``obj``."""
    return ["report", "--runs", write_text(tmp_path, "r.jsonl", json.dumps(obj) + "\n"),
            "--output", str(tmp_path / "report.csv")]


RUN_RECORD = record_to_dict(curve_run("cc", CONFIG_15M, 1_000, 2.0, 0.3, 3.0, tokens_grid=[2, 4]))

#: Each JSON record a command reads: its dataclass, a valid object of it, and argv of a
#: command that reads the JSON value ``obj`` in the object's place (from ``t``, with the
#: documents ``docs`` as a pool).
RECORD_READERS = {
    "model-config-in-configs": (ModelConfig, asdict(CONFIG_15M), lambda t, docs, obj: (
        scaling_law_with(t, "--configs", write_text(t, "models.json", json.dumps(
            [obj, *(asdict(c) for c in bundled_model_configs() if c != CONFIG_15M)]))))),
    "model-config-in-run-log": (ModelConfig, asdict(CONFIG_15M), lambda t, docs, obj: (
        report_of(t, {**RUN_RECORD, "model": obj}))),
    "run-record": (RunRecord, RUN_RECORD, lambda t, docs, obj: report_of(t, obj)),
    "threshold-law": (ThresholdLaw, LAW, lambda t, docs, obj: extrapolate_of(t, obj)),
    "threshold-point": (ThresholdPoint, LAW["points"][0], lambda t, docs, obj: (
        extrapolate_of(t, {**LAW, "points": [obj, *LAW["points"][1:]]}))),
    "qa-item": (QAItem, json.loads(QA_LINE), lambda t, docs, obj: [
        "judge", "--mock", "--pool", docs, "--output", str(t / "j.jsonl"),
        "--qa", write_text(t, "qa.jsonl", json.dumps(obj) + "\n")]),
    "eval-slice": (EvalSlice, {"position_losses": [1.0], "context_length": 1},
                   lambda t, docs, obj: slice_loss_of(t, json.dumps(obj))),
    "pool-header": (PoolHeader, asdict(PoolHeader("d", 0, 2)), lambda t, docs, obj: (
        filter_documents(t, '{"id": "a", "text": "one two"}', header=obj))),
    "document": (Document, {"id": "a", "text": "one two", "source": "pool"},
                 lambda t, docs, obj: filter_documents(t, json.dumps(obj))),
}

#: (reader, field) for each field without a default of each reader's dataclass; a field
#: it derives (``init=False``, such as a document's token count) is never read.
REQUIRED_FIELDS = [(reader, f.name) for reader, (cls, _, _) in RECORD_READERS.items()
                   for f in fields(cls)
                   if f.init and f.default is MISSING and f.default_factory is MISSING]


@pytest.mark.parametrize("reader, field", REQUIRED_FIELDS,
                         ids=[f"{reader}-{field}" for reader, field in REQUIRED_FIELDS])
def test_record_without_a_required_field_names_it(tmp_path, docs_file, capsys, reader, field):
    _, valid, builder = RECORD_READERS[reader]
    assert dispatch(builder(tmp_path, str(docs_file),
                            {k: v for k, v in valid.items() if k != field})) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"missing key '{field}'\n"), err
    assert err.count("\n") == 1, err


#: (reader, field) for each field with a default that each reader's valid object holds.
OPTIONAL_FIELDS = [(reader, f.name) for reader, (cls, valid, _) in RECORD_READERS.items()
                   for f in fields(cls)
                   if (reader, f.name) not in REQUIRED_FIELDS and f.name in valid]


@pytest.mark.parametrize("reader, field", OPTIONAL_FIELDS,
                         ids=[f"{reader}-{field}" for reader, field in OPTIONAL_FIELDS])
def test_record_without_an_optional_field_is_read(tmp_path, docs_file, reader, field):
    _, valid, builder = RECORD_READERS[reader]
    assert dispatch(builder(tmp_path, str(docs_file),
                            {k: v for k, v in valid.items() if k != field})) == 0


@pytest.mark.parametrize("reader", sorted(RECORD_READERS))
def test_record_that_is_not_an_object_is_rejected(tmp_path, docs_file, capsys, reader):
    _, valid, builder = RECORD_READERS[reader]
    assert dispatch(builder(tmp_path, str(docs_file), valid)) == 0
    capsys.readouterr()
    assert dispatch(builder(tmp_path, str(docs_file), [1, 2])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("expected a JSON object, got [1, 2]\n"), err
    assert err.count("\n") == 1, err


def test_write_error_names_the_output_not_its_temporary(tmp_path, docs_file, capsys):
    stats = tmp_path / "nodir" / "s.csv"
    assert dispatch(["filter", "--pool", str(docs_file), "--output", str(tmp_path / "f.jsonl"),
                     "--stats", str(stats)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{stats}'\n"
    assert ".tmp" not in err


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


#: (case, flag) for each output flag of each MANIFEST_CASES command line.
OUTPUT_CASES = [(case, arg) for case, (argv, *_) in sorted(MANIFEST_CASES.items())
                for arg in argv if arg.lstrip("-").replace("-", "_") in cli.OUTPUT_FLAGS]


@pytest.mark.parametrize("case, flag", OUTPUT_CASES, ids=[f"{c}{f}" for c, f in OUTPUT_CASES])
def test_output_in_a_missing_directory_fails_before_any_work(tmp_path, docs_file, runs_file,
                                                             monkeypatch, capsys, case, flag):
    monkeypatch.chdir(tmp_path)
    write_manifest_inputs(tmp_path, docs_file, runs_file)
    argv = list(MANIFEST_CASES[case][0])
    argv[argv.index(flag) + 1] = missing = os.path.join("nodir", argv[argv.index(flag) + 1])
    files = sorted(tmp_path.rglob("*"))
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("suffix", cli.PATH_SUFFIXES)
@pytest.mark.parametrize("case, flag", OUTPUT_CASES, ids=[f"{c}{f}" for c, f in OUTPUT_CASES])
def test_output_that_is_a_directory_fails_before_any_work(tmp_path, docs_file, runs_file,
                                                          monkeypatch, capsys, case, flag, suffix):
    # such as `filter --stats statsdir`, or `sample --output m.jsonl` with a directory
    # m.jsonl.manifest.json: found before any work, so no other output of the run is written
    monkeypatch.chdir(tmp_path)
    write_manifest_inputs(tmp_path, docs_file, runs_file)
    argv = MANIFEST_CASES[case][0]
    directory = argv[argv.index(flag) + 1] + suffix
    os.mkdir(directory)
    files = sorted(tmp_path.rglob("*"))
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{directory}'\n"
    assert sorted(tmp_path.rglob("*")) == files


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


#: A command line of each way a handler reads ``--config`` settings (run in the
#: directory of write_manifest_inputs), and its exit code; the endpoint fails to
#: parse before any connection, after the judge has read its settings.
CONFIG_READERS = {
    "sample": (SAMPLE, 0),
    "filter": (["filter", "--pool", "docs.jsonl", "--output", "out.jsonl"], 0),
    "inject-random-strings": (INJECT, 0),
    "inject-shuffled-docs": (INJECT + ["--kind", "shuffled_docs", "--junk-source", "junk.jsonl"],
                             0),
    "scaling-law-tpp": (SCALING_LAW, 0),
    "scaling-law-epoch": (SCALING_LAW + ["--method", "epoch"], 0),
    "judge-mock": (JUDGE, 0),
    "judge-endpoint": ([*JUDGE[:1], *JUDGE[2:], "--endpoint", "http://[::1"], 1),
}


@pytest.mark.parametrize("case", sorted(CONFIG_READERS))
def test_each_setting_a_handler_reads_is_in_its_config_table(tmp_path, docs_file, runs_file,
                                                             monkeypatch, case):
    # a config holds only the keys of the table its handler gives _load_config,
    # so a key that opt reads and that table lacks could never be set
    monkeypatch.chdir(tmp_path)
    write_manifest_inputs(tmp_path, docs_file, runs_file)
    tables, read = [], []
    load_config, opt = cli._load_config, cli.opt
    monkeypatch.setattr(cli, "_load_config",
                        lambda path, kinds, *build: tables.append(kinds) or load_config(
                            path, kinds, *build))
    monkeypatch.setattr(cli, "opt",
                        lambda args, config, key, default: read.append(key) or opt(
                            args, config, key, default))
    argv, code = CONFIG_READERS[case]
    assert dispatch(argv) == code
    assert len(tables) == 1 and set(read) <= set(tables[0]), (read, tables)


@pytest.mark.parametrize("case", sorted(CONFIG_READERS))
def test_config_key_no_setting_reads_exits_one_and_writes_nothing(tmp_path, docs_file, runs_file,
                                                                  monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    write_manifest_inputs(tmp_path, docs_file, runs_file)
    (tmp_path / "c.json").write_text('{"sedd": 3}', encoding="utf-8")
    before = set(tmp_path.iterdir())
    assert dispatch(CONFIG_READERS[case][0] + ["--config", "c.json"]) == 1
    assert set(tmp_path.iterdir()) == before
    err = capsys.readouterr().err
    assert err.startswith("error: c.json: unknown setting 'sedd' (settings: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, config, settings", [
    (SAMPLE, {"sedd": 3}, "label, seed"),
    (["filter", "--pool", "docs.jsonl", "--output", "out.jsonl"], {"english_treshold": 0.99},
     "english_threshold, profile, quality_keep_fraction, repetition_thresholds, stages, "
     "stopword_distinct, stopword_min_count, threads"),
    (INJECT, {"ratio": 3}, "kind, seed, vocab_seed"),  # --ratio is a flag only
    (JUDGE, {"endpoint": "http://127.0.0.1:9"}, "max_concurrency, model_name, timeout"),
], ids=["sample", "filter", "inject", "judge"])
def test_unknown_setting_error_lists_the_settings(tmp_path, docs_file, runs_file, monkeypatch,
                                                  capsys, argv, config, settings):
    monkeypatch.chdir(tmp_path)
    write_manifest_inputs(tmp_path, docs_file, runs_file)
    (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
    assert dispatch(argv + ["--config", "c.json"]) == 1
    assert capsys.readouterr().err == (
        f"error: c.json: unknown setting {next(iter(config))!r} (settings: {settings})\n")


@pytest.mark.parametrize("argv, config", [
    (SCALING_LAW, {"method": "tpp", "ratio": 600, "epochs": 4}),
    (SCALING_LAW, {"method": "epoch", "ratio": 600, "epochs": 4}),
    (JUDGE, {"model_name": "m", "timeout": 5, "max_concurrency": 2}),
], ids=["scaling-law-tpp", "scaling-law-epoch", "judge-mock"])
def test_config_may_hold_the_other_methods_settings(tmp_path, docs_file, runs_file, monkeypatch,
                                                    argv, config):
    monkeypatch.chdir(tmp_path)
    write_manifest_inputs(tmp_path, docs_file, runs_file)
    (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
    assert dispatch(argv + ["--config", "c.json"]) == 0


def test_manifest_digest_is_the_same_for_a_kind_from_flag_or_config(tmp_path, docs_file,
                                                                    runs_file, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_manifest_inputs(tmp_path, docs_file, runs_file)
    (tmp_path / "c.json").write_text('{"kind": "random_strings"}', encoding="utf-8")
    digests = []
    for extra in (["--kind", "random_strings"], ["--config", "c.json"]):
        assert dispatch(INJECT + extra) == 0
        digests.append(json.loads(Path("out.jsonl.manifest.json").read_text())["config_digest"])
    assert digests[0] == digests[1]


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
             "losses", "benchmarks", "train_tokens", "pool_tokens", "batch_tokens",
             "weight_decay", "learning_rate", "name", "hidden_dim", "layers", "heads",
             "head_dim", "ffn_dim", "vocab_size", "total_params", "non_embedding_params",
             "position_losses", "context_length", "method", "parameter", "points", "alpha",
             "beta", "r2", "model_params", "crossing_tokens", "compute", "subject", "question",
             "answer", "keywords", "stages", "seed", "label", "total_tokens", "counter_name",
             "repetition_thresholds", "other")
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
#: The files that MANIFEST_CASES command lines read as ``--config``.
CONFIG_FILES = {argv[argv.index("--config") + 1] for argv, *_ in MANIFEST_CASES.values()
                if "--config" in argv}


def in_dir(path, argv):
    """``argv`` with the value of each flag that names a file taken as relative to ``path``."""
    return [str(path / a) if flag in PATH_FLAGS else a for flag, a in zip([""] + argv, argv)]


@functools.cache
def fuzz_files():
    """The files the MANIFEST_CASES command lines read, by name, with a pool header."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        docs = [Document(f"doc-{i}", f"the cat and dog {i} sat with the hat")
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


def other_kinds(number):
    """A JSON number's string form, ``true`` and ``null``: values of other kinds."""
    return st.sampled_from([str(number), True, None])


@st.composite
def mutated_json(draw, value):
    """``value`` with one nested value, or the whole, replaced: a number most
    often by an edge number or a value of another kind, anything by a random
    JSON value."""
    if isinstance(value, (dict, list)) and value and draw(st.sampled_from([True] * 3 + [False])):
        keys = list(value) if isinstance(value, dict) else list(range(len(value)))
        key = draw(st.sampled_from(keys))
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[key] = draw(mutated_json(value[key]))
        return copy
    if type(value) in (int, float) and draw(st.booleans()):
        return draw(FUZZ_NUMBERS | other_kinds(value))
    return draw(FUZZ_JSON)


def number_paths(value, path=()):
    """The key path of each number (not a bool) in the JSON value ``value``."""
    if type(value) in (int, float):
        return [path]
    if not isinstance(value, (dict, list)):
        return []
    items = value.items() if isinstance(value, dict) else enumerate(value)
    return [p for key, item in items for p in number_paths(item, (*path, key))]


def replaced_at(value, path, new):
    """``value`` with the value at the key path ``path`` replaced by ``new``."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced_at(value[path[0]], path[1:], new)
    return copy


def read_json_files(argv, inputs):
    """The JSON files a MANIFEST_CASES command reads: its inputs, and the
    header of the file it reads as a pool."""
    names = [*inputs, *([argv[argv.index("--pool") + 1] + ".header.json"]
                        if "--pool" in argv else [])]
    return [name for name in names if name.endswith((".json", ".jsonl"))]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_json_number_of_another_kind_exits_one(data):
    # Every JSON number a command reads has a kind; its string form, true or
    # null in its place is a line or file error: exit 1, one error: line.
    files = dict(fuzz_files())
    targets = [(case, name, index)
               for case, (argv, inputs, _, _) in sorted(MANIFEST_CASES.items())
               for name in read_json_files(argv, inputs)
               for index, line in enumerate(files[name].splitlines())
               if number_paths(json.loads(line))]
    case, name, index = data.draw(st.sampled_from(targets))
    lines = files[name].splitlines()
    value = json.loads(lines[index])
    path = data.draw(st.sampled_from(number_paths(value)))
    number = functools.reduce(lambda v, key: v[key], path, value)
    lines[index] = json.dumps(replaced_at(value, path, data.draw(other_kinds(number))))
    files[name] = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, text in files.items():
            (Path(tmp) / file_name).write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = dispatch(in_dir(Path(tmp), MANIFEST_CASES[case][0]))
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
    assert code == 1 and len(errors) == 1, (case, name, lines[index], err.getvalue())
    assert "Traceback" not in err.getvalue()


@st.composite
def fuzz_inputs(draw, targets):
    """The valid files with one line of one of ``targets``, if any, changed
    (in JSON, now and then nested too deep to parse; in a config, now and then
    given a key that no command reads; in a CSV, a cell made too long, a row
    repeated or a row copied at another row's pool size), and a copy of one
    file cut short."""
    files = dict(fuzz_files())
    if targets:
        name = draw(st.sampled_from(targets))
        files[name] = draw(mutated_file(name, files[name]))
    cut = draw(st.sampled_from(sorted(files)))
    files["cut-" + cut] = files[cut][:draw(st.integers(0, len(files[cut])))]
    return files


@st.composite
def mutated_file(draw, name, text):
    """``text``, the file ``name``, with one line changed as :func:`fuzz_inputs` says."""
    lines = text.splitlines()
    index = draw(st.integers(0, len(lines) - 1))
    if name.endswith(".csv"):
        cells = lines[index].split(",")
        edit = draw(st.sampled_from(["cell", "long", "row", "pool"][:4 if index else 2]))
        if edit == "long":
            cells[draw(st.integers(0, len(cells) - 1))] = "1" * LONG
            lines[index] = ",".join(cells)
        elif edit == "row":  # a repeated (model_params, pool_tokens) cell
            lines.append(lines[index])
        elif edit == "pool":  # another row moved to this row's pool size
            other = lines[draw(st.integers(1, len(lines) - 1))].split(",")
            other[1] = cells[1]
            lines.append(",".join(other))
        else:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(FUZZ_VALUES))
            lines[index] = ",".join(cells)
    else:  # a .jsonl line, or a whole .json file
        if not name.endswith(".jsonl"):
            lines, index = [text], 0
        value = json.loads(lines[index])
        if name in CONFIG_FILES and draw(st.booleans()):
            value = {**value, "other": draw(FUZZ_JSON)}
        else:
            value = draw(mutated_json(value))
        value = json.dumps(value)
        depth = draw(st.sampled_from([0] * 3 + [DEEP]))
        lines[index] = "[" * depth + value + "]" * depth
    return "\n".join(lines) + "\n"


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


#: Pieces of the text Python gives a TypeError, AttributeError or an enum's ValueError,
#: such as ``ModelConfig.__init__() missing 8 required positional arguments``.
PYTHON_TYPE_ERRORS = ("__init__()", "object is not", "object has no attribute", "indices must be",
                      "is not a valid")


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_command_lines_exit_cleanly(data):
    # Each command line is a MANIFEST_CASES one with one of its inputs
    # changed, a MALFORMED_INPUTS one, or random flags; either of the first
    # two may have one argument replaced.  No stderr line may come from a
    # warning's source location, or hold Python's own text about a wrong type
    # or a missing argument where a reader's reason belongs.
    kind = data.draw(st.sampled_from(["valid", "malformed", "random"]))
    targets = sorted(fuzz_files())
    if kind == "valid":
        argv, inputs, _, _ = MANIFEST_CASES[data.draw(st.sampled_from(sorted(MANIFEST_CASES)))]
        targets = [n for n in targets if n.removesuffix(".header.json") in inputs]
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        files = data.draw(fuzz_inputs(targets))
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        names = (*(str(tmp_path / n) for n in [*files, "missing.jsonl"]), tmp)
        if kind == "valid":
            argv = in_dir(tmp_path, argv)
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
        assert not any(".py:" in line or any(text in line for text in PYTHON_TYPE_ERRORS)
                       for line in err.getvalue().splitlines()), err.getvalue()


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


def test_handlers_read_library_names_through_lib():
    # a fresh child binds in cli only what importing it binds, so a handler
    # that read an exported name as a bare global would raise NameError there
    at_import = set(run_python("import poollab.cli as cli; print(*vars(cli))").split())
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        unresolved = handler_globals(sub.get_default("func")) - vars(builtins).keys() - at_import
        assert not unresolved, f"{command}: {sorted(unresolved)}"
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "lib"}
    assert read and not read - poollab._EXPORTS.keys(), sorted(read - poollab._EXPORTS.keys())


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
    # each flag and its --config setting accept the same names
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command, flag, choices in [("filter", "profile", cli.PROFILE_CHOICES),
                                   ("inject", "kind", cli.KIND_CHOICES),
                                   ("scaling-law", "method", cli.METHOD_CHOICES)]:
        action = next(a for a in subparsers.choices[command]._actions if a.dest == flag)
        assert action.choices is choices, command


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
        from poollab import Document, FilterConfig, Pool, build_stages, run_pipeline
        texts = ["the cat and the dog", "zzz qqq", "a\\na\\na", "the cat and the dog "]
        pool = Pool(documents=[Document(f"d{i}", t) for i, t in enumerate(texts)])
        stages = build_stages(["english", "repetition", "stopword", "dedup", "quality"],
                              FilterConfig())
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


def readme_command_modules():
    """README's table of the library modules each subcommand loads, by subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| subcommand | modules |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    modules = {}
    for row in table.splitlines():
        commands, names = row.strip("|").split("|")
        for command in re.findall(r"`([^`]+)`", commands):
            modules[command] = set(re.findall(r"`([^`]+)`", names))
    return modules


#: The only subcommands that may load numpy, as README says.
NUMPY_COMMANDS = {"crossing", "scaling-law", "verify-theory"}


@pytest.mark.parametrize("command", sorted(FUZZ_ACTIONS))
def test_child_loads_only_the_modules_readme_lists(tmp_path, docs_file, runs_file, command):
    write_manifest_inputs(tmp_path, docs_file, runs_file)
    proc = run_cli_child(*in_dir(tmp_path, MANIFEST_CASES[command][0]),
                         options=["-X", "importtime"])
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    expected = {"errors", "io", *readme_command_modules()[command]}
    assert {m for m in loaded if m.startswith("poollab")} == {
        "poollab", *(f"poollab.{m}" for m in expected)}
    assert "numpy" not in loaded or command in NUMPY_COMMANDS


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
