import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import poollab
from poollab import (
    EvalPoint,
    EvalSlice,
    ModelConfig,
    RunRecord,
    ValidationError,
    best_achievable,
    best_eval,
    bundled_model_configs,
    compute_flops,
    epochs,
    load_run_log,
    non_embedding_params,
    parse_run_log,
    slice_loss,
    write_run_log,
)
from poollab.cli import dispatch
from poollab.io import LineError
from poollab.runlog import eval_set_names, point_loss, record_to_dict

TINY = ModelConfig(
    name="tiny",
    hidden_dim=128,
    layers=8,
    heads=8,
    head_dim=16,
    ffn_dim=512,
    vocab_size=1000,
    total_params=1_000_000_000,
    non_embedding_params=2_099_328,
)


def record(train_tokens=1_000_000_000, pool_tokens=670_000_000, losses=(3.5,),
           label="cc", model=TINY, eval_sets=("c4",)):
    points = tuple(
        EvalPoint(
            tokens_seen=(i + 1) * train_tokens // len(losses),
            losses={s: value for s in eval_sets},
        )
        for i, value in enumerate(losses)
    )
    return RunRecord(
        dataset_label=label,
        model=model,
        train_tokens=train_tokens,
        pool_tokens=pool_tokens,
        eval_points=points,
    )


class TestComputeFlops:
    def test_direct_product(self):
        assert compute_flops(record(train_tokens=10**9)) == 6e18

    def test_hundred_billion_tokens(self):
        assert compute_flops(record(train_tokens=10**11)) == 6e20

    def test_zero_tokens_rejected(self):
        bad = RunRecord(
            dataset_label="cc",
            model=TINY,
            train_tokens=0,
            pool_tokens=1,
            eval_points=(EvalPoint(tokens_seen=0, losses={"c4": 3.0}),),
        )
        with pytest.raises(ValidationError):
            compute_flops(bad)

    def test_count_beyond_float_range_rejected(self):
        # each count is checked when the record is built, before any product is taken
        with pytest.raises(ValidationError, match="^cc: train_tokens is beyond the float range$"):
            record(train_tokens=10**400)
        with pytest.raises(ValidationError,
                           match="^tiny: total_params is beyond the float range$"):
            dataclasses.replace(TINY, total_params=10**400)

    def test_product_beyond_float_range_rejected(self):
        # both counts are floats, but 6 * 1e305 * 1e9 is not
        with pytest.raises(ValidationError, match=(
                r"^cc: training compute must be positive and finite, got inf$")):
            compute_flops(record(train_tokens=10**305))


class TestEpochs:
    def test_single_epoch(self):
        assert epochs(record(train_tokens=670_000_000)) == 1.0

    def test_ten_epochs(self):
        assert epochs(record(train_tokens=6_700_000_000)) == 10.0

    def test_extreme_epoch_scale(self):
        assert epochs(record(train_tokens=81_500_000_000)) == pytest.approx(121.6, abs=0.05)

    def test_zero_pool_rejected(self):
        with pytest.raises(ValidationError, match=(
                "^cc: pool_tokens must be positive and within the float range$")):
            record(pool_tokens=0)

    def test_count_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError, match="^cc: train_tokens is beyond the float range$"):
            record(train_tokens=10**400, pool_tokens=1)
        with pytest.raises(ValidationError, match=(
                "^cc: pool_tokens must be positive and within the float range$")):
            record(pool_tokens=10**400)

    def test_largest_counts_in_float_range_accepted(self):
        largest = int(sys.float_info.max)
        assert epochs(record(train_tokens=largest, pool_tokens=1)) == sys.float_info.max
        assert epochs(record(train_tokens=largest, pool_tokens=largest)) == 1.0


class TestBestEval:
    def test_single_point(self):
        assert best_eval(record(losses=(3.4,))) == 3.4

    def test_monotone_decreasing_takes_last(self):
        assert best_eval(record(losses=(3.8, 3.6, 3.5))) == 3.5

    def test_min_over_list(self):
        assert best_eval(record(losses=(3.5, 3.3, 3.4))) == 3.3

    def test_mean_across_sets(self):
        r = RunRecord(
            dataset_label="cc",
            model=TINY,
            train_tokens=100,
            pool_tokens=100,
            eval_points=(EvalPoint(tokens_seen=100, losses={"a": 3.0, "b": 4.0}),),
        )
        assert best_eval(r) == 3.5
        assert best_eval(r, ["a"]) == 3.0

    def test_missing_set_is_error(self):
        with pytest.raises(ValidationError) as exc:
            best_eval(record(eval_sets=("c4",)), ["c4", "fineweb"])
        assert str(exc.value) == "eval point at tokens_seen=1000000000 missing sets ['fineweb']"

    def test_repeated_set_is_error(self):
        r = RunRecord(dataset_label="cc", model=TINY, train_tokens=100, pool_tokens=100,
                      eval_points=(EvalPoint(tokens_seen=100, losses={"a": 3.0, "b": 6.0}),))
        assert best_eval(r, ["a", "b"]) == 4.5
        with pytest.raises(ValidationError) as exc:
            best_eval(r, ["a", "a", "b"])  # a mean that counted "a" twice would be 4.0
        assert str(exc.value) == "eval sets ['a', 'a', 'b'] name a set more than once"

    def test_no_set_at_the_first_point_is_error(self):
        # a point without losses is rejected when the record is built, naming the point
        with pytest.raises(ValidationError,
                           match="^cc: eval point at tokens_seen=50 has no losses$"):
            RunRecord(dataset_label="cc", model=TINY, train_tokens=100, pool_tokens=100,
                      eval_points=(EvalPoint(tokens_seen=50, losses={}),
                                   EvalPoint(tokens_seen=100, losses={"a": 2.0})))

    def test_eval_set_names(self):
        r = record(eval_sets=("c4", "avg"))
        assert eval_set_names(r) == ["avg", "c4"]  # every set at the first point, sorted
        assert eval_set_names(r, ["c4"]) == ["c4"]
        assert eval_set_names(r, []) == ["avg", "c4"]

    def test_missing_set_at_a_later_point_names_that_point(self):
        r = RunRecord(
            dataset_label="cc", model=TINY, train_tokens=100, pool_tokens=100,
            eval_points=(EvalPoint(tokens_seen=50, losses={"a": 3.0, "b": 4.0}),
                         EvalPoint(tokens_seen=100, losses={"a": 2.0})),
        )
        with pytest.raises(ValidationError) as exc:
            best_eval(r)
        assert str(exc.value) == "eval point at tokens_seen=100 missing sets ['b']"

    @given(st.lists(st.lists(st.floats(1e-6, 1e6), min_size=3, max_size=3), min_size=1,
                    max_size=8),
           st.sampled_from([None, ["a"], ["c", "a"], ["b", "c", "a"]]))
    @settings(max_examples=100, deadline=None)
    def test_equals_min_of_point_losses_exactly(self, rows, sets):
        points = tuple(EvalPoint(tokens_seen=i, losses=dict(zip("abc", row)))
                       for i, row in enumerate(rows))
        r = RunRecord(dataset_label="cc", model=TINY, train_tokens=len(rows), pool_tokens=1,
                      eval_points=points)
        expected = min(point_loss(p, sets or ["a", "b", "c"]) for p in points)
        assert best_eval(r, sets) == expected


class TestBestAchievable:
    def test_single_record(self):
        assert best_achievable([record(losses=(3.37,))]) == 3.37

    def test_min_across_records(self):
        rs = [record(losses=(3.37,)), record(losses=(3.50,))]
        assert best_achievable(rs) == 3.37

    def test_duplicate_record_idempotent(self):
        r = record(losses=(3.4,))
        assert best_achievable([r, r]) == best_achievable([r])

    def test_union_equals_min_of_parts(self):
        part_a = [record(losses=(3.8,)), record(losses=(3.5,))]
        part_b = [record(losses=(3.6,))]
        assert best_achievable(part_a + part_b) == min(
            best_achievable(part_a), best_achievable(part_b)
        )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            best_achievable([])

    def test_mixed_labels_rejected(self):
        with pytest.raises(ValidationError):
            best_achievable([record(label="cc"), record(label="refinedweb")])


class TestNonEmbeddingParams:
    def test_hand_evaluation(self):
        # 8*(4*128^2 + 3*128*512) + 17*128
        assert non_embedding_params(TINY) == 2_099_328

    def test_monotone_in_ffn(self):
        wider = ModelConfig(
            name="wide", hidden_dim=128, layers=8, heads=8, head_dim=16,
            ffn_dim=1024, vocab_size=1000, total_params=10**9,
            non_embedding_params=1,
        )
        assert non_embedding_params(wider) > non_embedding_params(TINY)

    @pytest.mark.parametrize("dim", ["hidden_dim", "layers", "heads", "head_dim", "ffn_dim",
                                     "vocab_size"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_dim_rejected_when_built(self, dim, value):
        with pytest.raises(ValidationError, match=f"^tiny: {dim} must be positive, got {value}$"):
            dataclasses.replace(TINY, **{dim: value})

    def test_bundled_configs_consistent(self):
        configs = bundled_model_configs()
        assert [c.name for c in configs] == ["15M", "80M", "330M", "1B", "7B"]
        for cfg in configs:
            assert non_embedding_params(cfg) == cfg.non_embedding_params
            embedding = 2 * cfg.vocab_size * cfg.hidden_dim
            assert cfg.total_params == cfg.non_embedding_params + embedding


class TestEvalSlice:
    def test_context_length_defaults_to_the_number_of_losses(self):
        assert EvalSlice((1.0,)) == EvalSlice((1.0,), context_length=1)
        assert EvalSlice.from_dict({"position_losses": [1.0, 2.0]}).context_length == 2

    def test_first_token(self):
        slc = EvalSlice(position_losses=(4.0, 2.0, 3.0), context_length=3)
        assert slice_loss(slc, 1) == 4.0

    def test_full_average(self):
        slc = EvalSlice(position_losses=(4.0, 2.0, 3.0), context_length=3)
        assert slice_loss(slc, 3) == pytest.approx(3.0)

    def test_prefix_mean(self):
        slc = EvalSlice(position_losses=(4.0, 2.0, 3.0), context_length=3)
        assert slice_loss(slc, 2) == 3.0

    def test_range_checked(self):
        slc = EvalSlice(position_losses=(1.0, 1.0), context_length=2)
        with pytest.raises(ValidationError):
            slice_loss(slc, 0)
        with pytest.raises(ValidationError):
            slice_loss(slc, 3)

    def test_length_invariant(self):
        with pytest.raises(ValidationError):
            EvalSlice(position_losses=(1.0,), context_length=2)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_losses_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            EvalSlice(position_losses=(1.0, bad), context_length=2)


class TestValidation:
    @pytest.mark.parametrize("label", [5, None, ["a"]])
    def test_label_must_be_a_string(self, label):
        with pytest.raises(ValidationError, match="dataset_label must be a string"):
            record(label=label)

    def test_unsorted_eval_points(self):
        with pytest.raises(ValidationError, match="sorted"):
            RunRecord(
                dataset_label="cc", model=TINY, train_tokens=100, pool_tokens=10,
                eval_points=(
                    EvalPoint(tokens_seen=50, losses={"c4": 3.0}),
                    EvalPoint(tokens_seen=20, losses={"c4": 2.9}),
                ),
            )

    def test_nonpositive_loss(self):
        with pytest.raises(ValidationError, match="non-positive"):
            RunRecord(
                dataset_label="cc", model=TINY, train_tokens=100, pool_tokens=10,
                eval_points=(EvalPoint(tokens_seen=50, losses={"c4": 0.0}),),
            )

    @pytest.mark.parametrize("bad,kind", [
        (0.0, "non-positive"), (-1.0, "non-positive"), (-math.inf, "non-positive"),
        (math.inf, "non-finite"), (math.nan, "non-finite"),
    ])
    def test_bad_loss_message_names_first_bad_point(self, bad, kind):
        with pytest.raises(ValidationError) as exc:
            RunRecord(
                dataset_label="cc", model=TINY, train_tokens=100, pool_tokens=10,
                eval_points=(EvalPoint(tokens_seen=20, losses={"c4": 3.0, "fw": 2.0}),
                             EvalPoint(tokens_seen=50, losses={"c4": 2.9, "fw": bad}),
                             EvalPoint(tokens_seen=80, losses={"c4": -1.0, "fw": 1.0})),
            )
        assert str(exc.value) == f"cc: {kind} loss at tokens_seen=50"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False, "20"])
    def test_tokens_seen_must_be_a_finite_number(self, bad):
        # NaN and bools pass the sortedness and train_tokens checks
        with pytest.raises(ValidationError) as exc:
            RunRecord(
                dataset_label="cc", model=TINY, train_tokens=100, pool_tokens=10,
                eval_points=(EvalPoint(tokens_seen=bad, losses={"c4": 3.0}),
                             EvalPoint(tokens_seen=80, losses={"c4": 2.9})),
            )
        assert str(exc.value) == f"cc: tokens_seen must be a finite number, got {bad!r}"

    def test_float_tokens_seen_still_accepted(self):
        points = (EvalPoint(tokens_seen=20.0, losses={"c4": 3.0}),
                  EvalPoint(tokens_seen=80, losses={"c4": 2.9}))
        rec = RunRecord(dataset_label="cc", model=TINY, train_tokens=100, pool_tokens=10,
                        eval_points=points)
        assert rec.eval_points == points

    @pytest.mark.parametrize("first", [-5, -0.5, -(10**400)])
    def test_tokens_seen_must_be_non_negative(self, first):
        # the points are sorted, so the first one bounds them all
        with pytest.raises(ValidationError) as exc:
            RunRecord(
                dataset_label="cc", model=TINY, train_tokens=100, pool_tokens=10,
                eval_points=(EvalPoint(tokens_seen=first, losses={"c4": 3.0}),
                             EvalPoint(tokens_seen=80, losses={"c4": 2.9})),
            )
        assert str(exc.value) == "cc: tokens_seen must be non-negative"

    def test_train_tokens_below_last_eval(self):
        with pytest.raises(ValidationError, match="train_tokens"):
            RunRecord(
                dataset_label="cc", model=TINY, train_tokens=10, pool_tokens=10,
                eval_points=(EvalPoint(tokens_seen=50, losses={"c4": 3.0}),),
            )

    @pytest.mark.parametrize("name", ["weight_decay", "learning_rate"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
    def test_hyperparameter_must_be_finite_and_non_negative(self, name, bad):
        # NaN and the infinities would be written back as the non-JSON tokens NaN and Infinity
        with pytest.raises(ValidationError) as exc:
            dataclasses.replace(record(), **{name: bad})
        assert str(exc.value) == f"cc: {name} must be finite and non-negative, got {bad!r}"
        assert getattr(dataclasses.replace(record(), **{name: 0.0}), name) == 0.0

    def test_model_shape_invariant(self):
        with pytest.raises(ValidationError, match="hidden_dim"):
            ModelConfig(
                name="bad", hidden_dim=100, layers=2, heads=8, head_dim=16,
                ffn_dim=256, vocab_size=10, total_params=10, non_embedding_params=5,
            )


def write_log_of_models(tmp_path, *models):
    """A run log with one record per model-config dict; returns (path, its text)."""
    text = "".join(json.dumps({**record_to_dict(record(label=f"r{i}")), "model": m},
                              sort_keys=True) + "\n" for i, m in enumerate(models))
    path = tmp_path / "runs.jsonl"
    path.write_text(text, encoding="utf-8")
    return path, text


class TestSerialization:
    def test_round_trip_field_exact(self, tmp_path):
        records = [
            record(losses=(3.5, 3.3, 3.4)),
            RunRecord(
                dataset_label="refinedweb",
                model=TINY,
                train_tokens=2**20,
                pool_tokens=87_000_000,
                eval_points=(
                    EvalPoint(
                        tokens_seen=2**19,
                        losses={"c4": 3.123456789012345, "fw": 2.5},
                        benchmarks={"arc_easy": 0.4031},
                    ),
                    EvalPoint(tokens_seen=2**20, losses={"c4": 3.0, "fw": 2.25}),
                ),
                batch_tokens=2**19,
                weight_decay=0.3,
                learning_rate=5e-3,
            ),
        ]
        path = tmp_path / "runs.jsonl"
        write_run_log(path, records)
        assert load_run_log(path) == records

    def test_record_to_dict_is_asdict_without_empty_benchmarks(self):
        with_benchmarks = EvalPoint(tokens_seen=10, losses={"c4": 3.0}, benchmarks={"arc": 0.4})
        rec = RunRecord(
            dataset_label="cc", model=TINY, train_tokens=20, pool_tokens=10,
            eval_points=(with_benchmarks, EvalPoint(tokens_seen=20, losses={"c4": 2.0})),
        )
        expected = asdict(rec)
        del expected["eval_points"][1]["benchmarks"]
        assert json.dumps(record_to_dict(rec)) == json.dumps(expected)

    def test_default_batch_tokens(self):
        assert record().batch_tokens == 2**19

    def test_parse_reports_line_numbers(self, tmp_path):
        good = json.dumps(
            {
                "dataset_label": "cc",
                "model": {
                    "name": "tiny", "hidden_dim": 128, "layers": 8, "heads": 8,
                    "head_dim": 16, "ffn_dim": 512, "vocab_size": 1000,
                    "total_params": 10**9, "non_embedding_params": 2099328,
                },
                "train_tokens": 100,
                "pool_tokens": 10,
                "eval_points": [{"tokens_seen": 100, "losses": {"c4": 3.0}}],
            }
        )
        bad_json = "{broken"
        bad_schema = good.replace('"losses": {"c4": 3.0}', '"losses": {"c4": -1.0}')
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join([good, bad_json, bad_schema]) + "\n", encoding="utf-8")
        records, errors = parse_run_log(path)
        assert len(records) == 1
        assert [e.lineno for e in errors] == [2, 3]
        with pytest.raises(ValidationError, match="line 2"):
            load_run_log(path)

    def test_int_and_string_losses_equal_float_twins(self, tmp_path):
        def line(losses, benchmarks):
            obj = {
                "dataset_label": "cc", "model": asdict(TINY), "train_tokens": 100,
                "pool_tokens": 10,
                "eval_points": [{"tokens_seen": 50, "losses": {"c4": 4.0, "fw": 5.0}},
                                {"tokens_seen": 100, "losses": losses,
                                 "benchmarks": benchmarks}],
            }
            return json.dumps(obj)

        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join([
            line({"c4": 3.0, "fw": 2.0}, {"arc": 1.0}),
            line({"c4": 3, "fw": 2}, {"arc": 1}),
            line({"c4": "3", "fw": "2.0"}, {"arc": "1"}),  # a string is not a number
            line({"c4": 3.0, "fw": 2}, {"arc": 1.0}),
        ]) + "\n", encoding="utf-8")
        (twin, *others), errors = parse_run_log(path)
        assert errors == [LineError(3, "losses['c4'] must be a number, got '3'")]
        assert others == [twin, twin]
        for rec in others:
            for point in rec.eval_points:
                assert all(type(v) is float for v in point.losses.values())
                assert all(type(v) is float for v in (point.benchmarks or {}).values())

    @pytest.mark.parametrize("field,message", [
        ("losses", "losses must be an object of numbers, got [3.0]"),
        ("benchmarks", "benchmarks must be an object of numbers, got [3.0]"),
    ])
    def test_parse_rejects_non_object_losses(self, tmp_path, field, message):
        point = {"tokens_seen": 100, "losses": {"c4": 3.0}, field: [3.0]}
        obj = {"dataset_label": "cc", "model": asdict(TINY), "train_tokens": 100,
               "pool_tokens": 10, "eval_points": [point]}
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        records, errors = parse_run_log(path)
        assert records == [] and errors == [LineError(1, message)]

    def test_parse_names_a_missing_key(self, tmp_path):
        obj = {"dataset_label": "cc", "model": asdict(TINY), "train_tokens": 100,
               "pool_tokens": 10, "eval_points": [{"losses": {"c4": 3.0}}]}
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        records, errors = parse_run_log(path)
        assert records == [] and errors == [LineError(1, "missing key 'tokens_seen'")]

    @pytest.mark.parametrize("text", ["NaN", "Infinity"])
    def test_parse_rejects_non_finite_loss(self, tmp_path, text):
        obj = {"dataset_label": "cc", "model": asdict(TINY), "train_tokens": 100,
               "pool_tokens": 10, "eval_points": [{"tokens_seen": 100, "losses": {"c4": 3.0}}]}
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps(obj).replace("3.0", text) + "\n", encoding="utf-8")
        records, errors = parse_run_log(path)
        assert records == []
        assert [e.message for e in errors] == ["cc: non-finite loss at tokens_seen=100"]

    def test_write_run_log_bytes(self, tmp_path):
        records = [
            RunRecord(
                dataset_label="rw", model=TINY, train_tokens=2**20, pool_tokens=87_000_000,
                eval_points=(
                    EvalPoint(tokens_seen=2**19, losses={"fw": 2.5, "c4": 3.123456789012345},
                              benchmarks={"arc_easy": 0.4031}),
                    EvalPoint(tokens_seen=2**20, losses={"c4": 3.0, "fw": 2.25}, benchmarks={}),
                ),
                weight_decay=0.3,
            ),
            RunRecord(dataset_label="cc", model=TINY, train_tokens=100, pool_tokens=10,
                      eval_points=(EvalPoint(tokens_seen=100, losses={"c4": 3.5}),)),
        ]
        model = (
            '"model": {"ffn_dim": 512, "head_dim": 16, "heads": 8, "hidden_dim": 128, '
            '"layers": 8, "name": "tiny", "non_embedding_params": 2099328, '
            '"total_params": 1000000000, "vocab_size": 1000}'
        )
        expected = (
            '{"batch_tokens": 524288, "dataset_label": "rw", "eval_points": ['
            '{"benchmarks": {"arc_easy": 0.4031}, "losses": {"c4": 3.123456789012345, '
            '"fw": 2.5}, "tokens_seen": 524288}, {"losses": {"c4": 3.0, "fw": 2.25}, '
            '"tokens_seen": 1048576}], "learning_rate": 0.005, ' + model + ', '
            '"pool_tokens": 87000000, "train_tokens": 1048576, "weight_decay": 0.3}\n'
            '{"batch_tokens": 524288, "dataset_label": "cc", "eval_points": ['
            '{"losses": {"c4": 3.5}, "tokens_seen": 100}], "learning_rate": 0.005, '
            + model + ', "pool_tokens": 10, "train_tokens": 100, "weight_decay": 0.1}\n'
        )
        path = tmp_path / "runs.jsonl"
        write_run_log(path, records)
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("field", ["train_tokens", "pool_tokens", "batch_tokens"])
    def test_integer_overflow_is_a_line_error(self, tmp_path, field):
        path, text = write_log_of_models(tmp_path, asdict(TINY))
        value = getattr(record(), field)
        path.write_text(text.replace(f'"{field}": {value}', f'"{field}": 1e400'),
                        encoding="utf-8")
        records, errors = parse_run_log(path)
        assert records == [] and [e.lineno for e in errors] == [1]
        assert errors[0].message == f"{field} must be a whole number, got inf"

    @pytest.mark.parametrize("field", ["train_tokens", "pool_tokens", "batch_tokens"])
    def test_fractional_count_is_a_line_error(self, tmp_path, field):
        # int() would truncate 1.9 to 1 and describe a run that is not the logged one
        path, text = write_log_of_models(tmp_path, asdict(TINY))
        value = getattr(record(), field)
        path.write_text(text.replace(f'"{field}": {value}', f'"{field}": {value}.5'),
                        encoding="utf-8")
        records, errors = parse_run_log(path)
        assert records == [] and errors == [
            LineError(1, f"{field} must be a whole number, got {value}.5")]

    @pytest.mark.parametrize("field,raw,shown", [
        ("train_tokens", '"1048576"', "'1048576'"),
        ("pool_tokens", "true", "True"),
        ("batch_tokens", '"524288"', "'524288'"),
        ("pool_tokens", "null", "None"),
    ])
    def test_count_that_is_not_a_number_is_a_line_error(self, tmp_path, field, raw, shown):
        # int() would read the string "1048576" as 1048576 and true as 1
        path, text = write_log_of_models(tmp_path, asdict(TINY))
        value = getattr(record(), field)
        path.write_text(text.replace(f'"{field}": {value}', f'"{field}": {raw}'),
                        encoding="utf-8")
        records, errors = parse_run_log(path)
        assert records == [] and errors == [
            LineError(1, f"{field} must be a whole number, got {shown}")]

    @pytest.mark.parametrize("field", ["train_tokens", "pool_tokens", "batch_tokens"])
    @pytest.mark.parametrize("spelling", ["{:.1f}", "{:.5e}"])
    def test_integral_float_count_is_stored_as_an_int(self, tmp_path, field, spelling):
        path, text = write_log_of_models(tmp_path, asdict(TINY))
        value = getattr(record(), field)
        written = spelling.format(value)
        assert float(written) == value
        path.write_text(text.replace(f'"{field}": {value}', f'"{field}": {written}'),
                        encoding="utf-8")
        (rec,) = load_run_log(path)
        assert type(getattr(rec, field)) is int and rec == record(label="r0")


#: Stands for an eval point's absent ``benchmarks`` key, which in memory is ``None``.
ABSENT = object()
#: One fault an eval point can hold in each of its values.
BAD_TOKENS_SEEN = [math.nan, math.inf, -math.inf, True, "20", None, -5]
BAD_LOSSES = [[1.0], "x", 3.0, None, False, {}]
BAD_LOSS = [True, "3", None, 0.0, -1.0, -math.inf, math.inf, math.nan, 10**400]
BAD_BENCHMARKS = [False, 0, "", [], [1], "x"]
BAD_BENCHMARK = [True, "x", None, 10**400]


@st.composite
def eval_point_lists(draw):
    """``[tokens_seen, losses, benchmarks]`` lists that are valid eval points, int losses and
    empty benchmarks included, but for at most one fault."""
    names = st.sampled_from(["c4", "fw", "v"])
    seen = sorted(draw(st.lists(st.integers(0, 10**6) | st.floats(0, 1e6), min_size=1,
                                max_size=4)))
    points = [[s, draw(st.dictionaries(names, st.floats(1e-3, 1e3) | st.integers(1, 9),
                                       min_size=1, max_size=2)),
               draw(st.sampled_from([ABSENT, None, {}])
                    | st.dictionaries(names, st.floats(-9, 9) | st.integers(-9, 9), max_size=2))]
              for s in seen]
    point = draw(st.sampled_from(points))
    fault = draw(st.sampled_from(["none", "tokens_seen", "order", "losses", "loss",
                                  "benchmarks", "benchmark"]))
    if fault == "tokens_seen":
        point[0] = draw(st.sampled_from(BAD_TOKENS_SEEN))
    elif fault == "order" and len(points) > 1:
        points[0][0], points[-1][0] = points[-1][0] + 1, points[0][0]
    elif fault == "losses":
        point[1] = draw(st.sampled_from(BAD_LOSSES))
    elif fault == "loss":
        point[1] = {**point[1], draw(names): draw(st.sampled_from(BAD_LOSS))}
    elif fault == "benchmarks":
        point[2] = draw(st.sampled_from(BAD_BENCHMARKS))
    elif fault == "benchmark":
        point[2] = {"arc": draw(st.sampled_from(BAD_BENCHMARK))}
    return points


@given(points=eval_point_lists())
@settings(max_examples=300, deadline=None)
def test_parsed_and_built_points_pass_one_rule(tmp_path_factory, points):
    # the parser builds points as given and RunRecord checks them, so a point of the log and
    # one built in memory give equal records or the same message
    line = {"dataset_label": "cc", "model": asdict(TINY), "train_tokens": 10**7,
            "pool_tokens": 10, "eval_points": [
                {"tokens_seen": s, "losses": losses,
                 **({} if benchmarks is ABSENT else {"benchmarks": benchmarks})}
                for s, losses, benchmarks in points]}
    path = tmp_path_factory.getbasetemp() / "points.jsonl"
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    records, errors = parse_run_log(path)
    try:
        built = RunRecord(dataset_label="cc", model=TINY, train_tokens=10**7, pool_tokens=10,
                          eval_points=tuple(
                              EvalPoint(s, losses, None if benchmarks is ABSENT else benchmarks)
                              for s, losses, benchmarks in points))
    except ValidationError as exc:
        assert (records, errors) == ([], [LineError(1, str(exc))])
    else:
        assert (records, errors) == ([built], [])
        for point in (*built.eval_points, *records[0].eval_points):
            assert all(type(v) is float for v in point.losses.values())
            assert point.benchmarks is None or (
                point.benchmarks and all(type(v) is float for v in point.benchmarks.values()))


def log_of_one_point(tmp_path, point):
    """A run log of one cc record whose only eval point is the object ``point``."""
    obj = {"dataset_label": "cc", "model": asdict(TINY), "train_tokens": 10, "pool_tokens": 10,
           "eval_points": [point]}
    path = tmp_path / "runs.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return path


class TestPointsBuiltInMemory:
    """A record built in memory checks its points by the parser's rule, in its words."""

    @pytest.mark.parametrize("losses,benchmarks,message", [
        ([1.0], None, "losses must be an object of numbers, got [1.0]"),
        ({"v": "x"}, None, "losses['v'] must be a number, got 'x'"),
        ({"v": True}, None, "losses['v'] must be a number, got True"),
        ({}, None, "cc: eval point at tokens_seen=10 has no losses"),
        *(({"v": 1.0}, bad, f"benchmarks must be an object of numbers, got {bad!r}")
          for bad in BAD_BENCHMARKS),
    ])
    def test_bad_value_is_the_parsers_error(self, tmp_path, losses, benchmarks, message):
        point = EvalPoint(10, losses, benchmarks)
        with pytest.raises(ValidationError) as exc:
            RunRecord(dataset_label="cc", model=TINY, train_tokens=10, pool_tokens=10,
                      eval_points=(point,))
        assert str(exc.value) == message
        path = log_of_one_point(tmp_path, {"tokens_seen": 10, "losses": losses,
                                           "benchmarks": benchmarks})
        assert parse_run_log(path) == ([], [LineError(1, message)])

    def test_values_are_read_as_floats_and_empty_benchmarks_as_none(self):
        rec = RunRecord(dataset_label="cc", model=TINY, train_tokens=30, pool_tokens=10,
                        eval_points=(EvalPoint(10, {"c4": 3}, {"arc": 1}),
                                     EvalPoint(20, {"c4": 2.5}, {}),
                                     EvalPoint(30, {"c4": 2.0})))
        assert rec.eval_points == (EvalPoint(10, {"c4": 3.0}, {"arc": 1.0}),
                                   EvalPoint(20, {"c4": 2.5}), EvalPoint(30, {"c4": 2.0}))
        assert [type(p.losses["c4"]) for p in rec.eval_points] == [float] * 3
        assert type(rec.eval_points[0].benchmarks["arc"]) is float

    @pytest.mark.parametrize("benchmarks", ["absent", None, {}])
    def test_no_benchmarks_is_none_when_parsed(self, tmp_path, benchmarks):
        point = {"tokens_seen": 10, "losses": {"c4": 3.0}}
        (rec,) = load_run_log(log_of_one_point(
            tmp_path, point if benchmarks == "absent" else {**point, "benchmarks": benchmarks}))
        assert rec.eval_points == (EvalPoint(10, {"c4": 3.0}, None),)


class TestEvalPointContract:
    """``EvalPoint`` is slotted; everything but ``vars()`` behaves as before."""

    POINT = EvalPoint(tokens_seen=10, losses={"c4": 3.0}, benchmarks={"arc": 0.4})

    def test_pickle_round_trip(self):
        assert pickle.loads(pickle.dumps(self.POINT)) == self.POINT

    def test_dataclass_functions(self):
        assert [f.name for f in dataclasses.fields(EvalPoint)] == [
            "tokens_seen", "losses", "benchmarks"]
        assert asdict(self.POINT) == {
            "tokens_seen": 10, "losses": {"c4": 3.0}, "benchmarks": {"arc": 0.4}}
        moved = dataclasses.replace(self.POINT, tokens_seen=20)
        assert moved == EvalPoint(20, {"c4": 3.0}, {"arc": 0.4}) and moved != self.POINT

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.POINT.tokens_seen = 20

    def test_equality_and_repr(self):
        twin = EvalPoint(tokens_seen=10, losses={"c4": 3.0}, benchmarks={"arc": 0.4})
        assert twin == self.POINT and twin is not self.POINT
        assert repr(twin) == (
            "EvalPoint(tokens_seen=10, losses={'c4': 3.0}, benchmarks={'arc': 0.4})")

    def test_no_instance_dict(self):
        with pytest.raises(TypeError):
            vars(self.POINT)


class TestModelConfigSharing:
    def test_equal_configs_are_one_object(self, tmp_path):
        path, _ = write_log_of_models(tmp_path, asdict(TINY), asdict(TINY),
                                      dict(reversed(asdict(TINY).items())))
        a, b, c = load_run_log(path)
        assert a.model == TINY and a.model is b.model is c.model

    def test_configs_differing_in_an_ignored_key_are_shared(self, tmp_path):
        # the cache is keyed on the fields read, so an unread key, even unhashable, splits none
        path, text = write_log_of_models(tmp_path, asdict(TINY), {**asdict(TINY), "notes": "a"},
                                         {**asdict(TINY), "notes": [1.5]},
                                         {**asdict(TINY), "vocab_size": 1000.0, "notes": 2})
        a, b, c, d = load_run_log(path)
        assert a.model == TINY and a.model is b.model is c.model is d.model
        out = tmp_path / "out.jsonl"
        assert dispatch(["ingest", "--runs", str(path), "--output", str(out)]) == 0
        assert '"notes"' not in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("field,value,twin", [
        ("vocab_size", 1000, 1000.0),
        ("total_params", 1_000_000_000, 1e9),
    ])
    def test_configs_equal_as_whole_numbers_are_shared(self, tmp_path, field, value, twin):
        path, text = write_log_of_models(tmp_path, {**asdict(TINY), field: value},
                                         {**asdict(TINY), field: twin})
        a, b = load_run_log(path)
        assert a.model is b.model and type(getattr(b.model, field)) is int
        out = tmp_path / "out.jsonl"
        assert dispatch(["ingest", "--runs", str(path), "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == text.replace(json.dumps(twin), str(value))

    @pytest.mark.parametrize("field,value,message", [
        ("layers", True, "layers must be a whole number, got True"),
        ("vocab_size", "1000", "vocab_size must be a whole number, got '1000'"),
        ("name", ["tiny"], "name must be a string, got ['tiny']"),
        ("name", 5, "name must be a string, got 5"),
    ])
    def test_mistyped_config_value_is_a_line_error(self, tmp_path, field, value, message):
        # line 1 puts a config with layers 1 in the cache; true == 1, but is not looked up as it
        first = {**asdict(TINY), "layers": 1}
        path, _ = write_log_of_models(tmp_path, first, {**first, field: value})
        records, errors = parse_run_log(path)
        assert [r.model for r in records] == [ModelConfig(**first)]
        assert errors == [LineError(2, message)]

    def test_freed_log_keeps_no_memory(self, tmp_path):
        # crossing frees the log before numpy loads, so that numpy reuses its memory; an
        # object kept from each record, even on a free list, would pin that memory instead.
        # 21 points a record: a freed tuple of up to 20 items is kept on a free list.
        write_run_log(tmp_path / "small.jsonl", [record()])
        write_run_log(tmp_path / "runs.jsonl",
                      [record(label=f"r{i}", losses=(3.0,) * 21) for i in range(2_000)])
        code = (
            "import sys, tracemalloc; from poollab.runlog import load_run_log\n"
            "load_run_log(sys.argv[1])\n"  # first use: lazy imports and caches
            "tracemalloc.start(); records = load_run_log(sys.argv[2]); del records\n"
            "print(tracemalloc.get_traced_memory()[0])\n"
        )
        src = str(Path(poollab.__file__).resolve().parents[1])
        left = subprocess.run(
            [sys.executable, "-c", code, *(str(tmp_path / n) for n in ("small.jsonl", "runs.jsonl"))],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
            timeout=60).stdout
        # about 17 kB of free-listed floats and dicts; 66 kB when a model key tuple
        # was kept on a free list from about one record in five
        assert int(left) < 32_768

    def test_invalid_config_rejected_on_every_line(self, tmp_path):
        bad = {**asdict(TINY), "hidden_dim": 100}
        path, _ = write_log_of_models(tmp_path, bad, asdict(TINY), bad)
        records, errors = parse_run_log(path)
        assert [r.model for r in records] == [TINY]
        assert [e.lineno for e in errors] == [1, 3]
        assert errors[0].message == errors[1].message
        assert "hidden_dim 100 != heads*head_dim 128" in errors[0].message
