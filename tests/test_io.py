import ast
import math
import re
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import poollab
from poollab import (
    CrossingPoint, Document, DocumentSource, EvalPoint, EvalSlice, ModelConfig, Pool, RunRecord,
    ThresholdLaw, ThresholdPoint, ValidationError, bundled_model_configs, load_run_log,
    read_model_configs, read_pool, write_pool, write_run_log,
)
from poollab.cli import CROSSING_COLUMNS
from poollab.corpus import PoolHeader
from poollab.io import (
    LineError, csv_cell, field_kinds, field_names, flag, number, numbers, one_of, read_json,
    read_jsonl, read_record, read_rows, string, whole, whole_text, write_json, write_lines,
    write_rows,
)

CROSSINGS = [
    CrossingPoint(model_params=10**9, pool_tokens=10**10, crossing_tokens=None, observed=False),
    CrossingPoint(model_params=10**9, pool_tokens=10**11, crossing_tokens=0.1 + 0.2, observed=True),
]


def test_cells():
    assert [csv_cell(v) for v in (None, True, 0.1 + 0.2, 7, "x")] == [
        "NEVER", "True", "0.30000000000000004", "7", "x",
    ]


def test_rows_round_trip_through_attributes_and_keys(tmp_path):
    by_attr, by_key = tmp_path / "attr.csv", tmp_path / "key.csv"
    columns = field_names(CrossingPoint) + ["epochs_at_cross"]
    write_rows(by_attr, columns, CROSSINGS)
    write_rows(by_key, columns, [{c: getattr(cp, c) for c in columns} for cp in CROSSINGS])
    assert by_attr.read_bytes() == by_key.read_bytes()
    assert read_rows(by_attr, CrossingPoint) == CROSSINGS


@pytest.mark.parametrize(
    "header, row, match",
    [
        ("model_params,pool_tokens,observed", "1,2,True", "missing column"),
        ("model_params,pool_tokens,crossing_tokens,observed", "1,2,abc,True", "line 2"),
        ("model_params,pool_tokens,crossing_tokens,observed", "1,2,inf,True", "finite"),
        ("model_params,pool_tokens,crossing_tokens,observed", "1,2,3.0,yes", "True or False"),
    ],
)
def test_malformed_rows_rejected(tmp_path, header, row, match):
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n{row}\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=match):
        read_rows(path, CrossingPoint)


def test_row_longer_than_header_rejected(tmp_path):
    # csv.DictReader would drop the cells past the header's last column
    path = tmp_path / "rows.csv"
    path.write_text("model_params,pool_tokens,crossing_tokens,observed\n"
                    "1,2,NEVER,False\n1,3,5.0,True,7.0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{path}: line 3: row has 5 cells, the header 4$"):
        read_rows(path, CrossingPoint)


def test_short_row_reads_its_missing_cells_as_empty(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("model_params,pool_tokens,crossing_tokens,observed\n1,2,5.0\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{path}: line 2: observed must be True or False, "
                                              f"got ''$"):
        read_rows(path, CrossingPoint)


def test_header_repeating_a_column_rejected(tmp_path):
    # csv.DictReader would keep the last of the repeated columns: here NEVER
    path = tmp_path / "rows.csv"
    path.write_text("model_params,pool_tokens,crossing_tokens,crossing_tokens,observed\n"
                    "1,2,5000000.0,NEVER,True\n", encoding="utf-8")
    message = f"{path}: header repeats column(s) ['crossing_tokens']"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        read_rows(path, CrossingPoint)


def test_repeated_unique_fields_name_both_lines(tmp_path):
    path = tmp_path / "rows.csv"
    # a quoted cell spans lines 3 and 4, so line 2's key is repeated on line 6
    path.write_text("model_params,pool_tokens,crossing_tokens,observed\n"
                    "1,2,NEVER,False\n1,\"3\n\",NEVER,False\n2,2,5.0,True\n1,2.0,NEVER,False\n",
                    encoding="utf-8")
    assert len(read_rows(path, CrossingPoint)) == 4
    with pytest.raises(ValidationError, match=(
        f"^{path}: line 6: repeats model_params=1, pool_tokens=2 of line 2$"
    )):
        read_rows(path, CrossingPoint,
                  key=lambda c: f"model_params={c.model_params}, pool_tokens={c.pool_tokens}")


def test_invalid_utf8_rows_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"model_params,pool_tokens,crossing_tokens,observed\n1,2,\xe9,True\n")
    with pytest.raises(ValidationError, match=f"^{path}: 'utf-8' codec can't decode"):
        read_rows(path, CrossingPoint)


def square(value):
    """The square of an int, or of the int under key "n" of an object."""
    if isinstance(value, dict):
        value = value["n"]
    if not isinstance(value, int):
        raise TypeError(f"expected an int, got {value!r}")
    return value * value


def test_jsonl_skips_blank_lines_and_parses_each_value(tmp_path):
    path = tmp_path / "n.jsonl"
    path.write_text('2\n\n  \n{"n": 3}\r\n', encoding="utf-8")
    assert list(read_jsonl(path, square)) == [4, 9]


@pytest.mark.parametrize("data, reason", [
    (b"{oops", "invalid JSON: "),
    (b'{"m": 1}', "missing key 'n'"),
    (b'"\xe9"', "'utf-8' codec can't decode byte 0xe9"),
    (b'"x"', "expected an int, got 'x'"),
])
def test_jsonl_bad_line_names_path_line_and_reason(tmp_path, data, reason):
    path = tmp_path / "n.jsonl"
    path.write_bytes(b"1\n\n" + data + b"\n")
    with pytest.raises(ValidationError) as caught:
        list(read_jsonl(path, square))
    assert str(caught.value).startswith(f"{path}: line 3: {reason}")


@pytest.mark.parametrize("data, reason", [
    (b"{oops", "invalid JSON: "),
    (b'{"m": 1}', "missing key 'n'"),
    (b'"\xe9"', "invalid JSON: 'utf-8' codec can't decode byte 0xe9"),
    (b'"x"', "expected an int, got 'x'"),
    (b"[" * 2_000 + b"]" * 2_000, "invalid JSON: maximum recursion depth exceeded"),
])
def test_json_bad_file_names_path_and_reason(tmp_path, data, reason):
    # a JSONL line's reasons, without its line number; bytes that are not UTF-8 are invalid JSON
    path = tmp_path / "n.json"
    path.write_bytes(data)
    with pytest.raises(ValidationError) as caught:
        read_json(path, square)
    assert str(caught.value).startswith(f"{path}: {reason}")


def test_jsonl_collects_every_bad_line_when_given_a_list(tmp_path):
    path = tmp_path / "n.jsonl"
    path.write_bytes(b'1\n"a"\n2\n\xe9\n')
    errors = []
    assert list(read_jsonl(path, square, errors)) == [1, 4]
    assert [e.lineno for e in errors] == [2, 4]
    assert errors[0] == LineError(2, "expected an int, got 'a'")


def test_jsonl_is_read_lazily(tmp_path):
    path = tmp_path / "n.jsonl"
    path.write_text("1\n{oops\n", encoding="utf-8")
    assert next(read_jsonl(path, square)) == 1


def test_write_lines(tmp_path):
    path = tmp_path / "out.txt"
    write_lines(path, ["a", "é"])
    assert path.read_bytes() == "a\né\n".encode("utf-8")


class Boom(Exception):
    pass


@pytest.mark.parametrize("error", [Boom, KeyboardInterrupt])
def test_failed_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path, error):
    path = tmp_path / "rows.csv"
    write_rows(path, ["x"], [{"x": 1}])
    before = path.read_bytes()

    def rows():
        yield {"x": 2}
        raise error("partway")

    with pytest.raises(error):
        write_rows(path, ["x"], rows())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]


@pytest.mark.parametrize("target", ["nodir/out.json", "adir"])
def test_write_error_names_the_path_not_its_temporary(tmp_path, target):
    # a missing directory fails to open the temporary; a directory fails to be replaced
    (tmp_path / "adir").mkdir()
    path = tmp_path / target
    with pytest.raises(OSError) as caught:
        write_json(path, {})
    assert caught.value.filename == str(path) and ".tmp" not in str(caught.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]


def _writes_a_file(call: ast.Call) -> bool:
    """``open``/``.open`` in a write, append or create mode; ``.write_text``; ``.write_bytes``."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        positional = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        positional = call.args[:1]
    else:
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    mode = mode or (positional[0] if positional else ast.Constant("r"))
    return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")


def test_only_io_module_writes_files():
    package = Path(poollab.__file__).parent
    writers = [
        f"{module.name}:{node.lineno}"
        for module in sorted(package.glob("*.py"))
        if module.name != "io.py"
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _writes_a_file(node)
    ]
    assert writers == []


def test_write_check_sees_each_way_of_writing():
    calls = [
        'open(p, "w")', 'open(p, mode="a")', 'open(p, "rb+")', "open(p, m)",
        'p.open("x")', 'p.write_text("t")', 'p.write_bytes(b"")',
    ]
    reads = ['open(p)', 'open(p, "rb")', 'p.open(encoding="utf-8")', 'p.read_text()']
    parsed = lambda src: ast.parse(src, mode="eval").body  # noqa: E731
    assert all(_writes_a_file(parsed(src)) for src in calls)
    assert not any(_writes_a_file(parsed(src)) for src in reads)


def _reads_a_file(call: ast.Call) -> bool:
    """``open`` or ``.open`` in any mode, ``json.load`` or ``json.loads``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    return isinstance(func, ast.Attribute) and (
        func.attr == "open" or func.attr in ("load", "loads") and ast.unparse(func.value) == "json")


#: Reads outside io.py that are not of a file: factuality parses an HTTP response body.
NOT_FILE_READS = {("factuality.py", "json.load(response)")}


def test_only_io_module_reads_files():
    package = Path(poollab.__file__).parent
    calls = [
        (module.name, node)
        for module in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    ]
    readers = [
        f"{name}:{node.lineno}: {ast.unparse(node)}" for name, node in calls
        if name != "io.py" and _reads_a_file(node)
        and (name, ast.unparse(node)) not in NOT_FILE_READS
    ]
    assert readers == []
    # every JSON object is read by io.read_record or by a reader that lists its keys
    assert not hasattr(poollab.io, "read_fields")
    # and so is every CSV row: io has no second record rule, and the one call that builds a
    # dataclass from read values (a call of a parameter annotated ``type[...]``) is read_record's
    assert not hasattr(poollab.io, "_PARSERS")
    builds = [
        (function.name, ast.unparse(call))
        for function in ast.walk(ast.parse(Path(poollab.io.__file__).read_text(encoding="utf-8")))
        if isinstance(function, ast.FunctionDef)
        for classes in [{arg.arg for arg in function.args.args
                         if arg.annotation is not None
                         and ast.unparse(arg.annotation).startswith("type[")}]
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id in classes
    ]
    assert builds == [("read_record", "cls(**values)")]


def test_read_check_sees_each_way_of_reading():
    calls = ["open(p)", 'open(p, "w")', 'p.open(encoding="utf-8")', "json.load(fh)",
             "json.loads(line)"]
    others = ["urlopen(request)", "pickle.load(fh)", "loads(s)", "p.load()", "p.read_text()"]
    parsed = lambda src: ast.parse(src, mode="eval").body  # noqa: E731
    assert all(_reads_a_file(parsed(src)) for src in calls)
    assert not any(_reads_a_file(parsed(src)) for src in others)


# ---------------------------------------------------------------------------
# The type rule.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value, as_number, as_whole", [
    (1e6, 1e6, 1_000_000),
    (1.9, 1.9, "a whole number, got 1.9"),
    (7, 7.0, 7),
    (-0.0, -0.0, 0),
    (True, "a number, got True", "a whole number, got True"),
    ("1", "a number, got '1'", "a whole number, got '1'"),
    (None, "a number, got None", "a whole number, got None"),
    (2**63, 9.223372036854776e18, 2**63),
    (10**400, f"a number, got {10**400}", 10**400),
    (math.inf, math.inf, "a whole number, got inf"),
])
def test_number_and_whole_number(value, as_number, as_whole):
    for read, expected in ((number, as_number), (whole, as_whole)):
        if isinstance(expected, str):
            with pytest.raises(ValidationError, match=rf"^x must be {re.escape(expected)}$"):
                read("x", value)
        else:
            got = read("x", value)
            assert got == expected and type(got) is type(expected)


def test_nan_is_a_number_but_not_a_whole_number():
    # a format's range decides about NaN, as RunRecord does for losses
    assert math.isnan(number("x", math.nan))
    with pytest.raises(ValidationError, match="^x must be a whole number, got nan$"):
        whole("x", math.nan)


@pytest.mark.parametrize("read, good, bad, kind", [
    (string, "s", 5, "a string"),
    (flag, False, 0, "true or false"),
])
def test_string_and_flag(read, good, bad, kind):
    assert read("x", good) is good
    with pytest.raises(ValidationError, match=f"^x must be {kind}, got {bad!r}$"):
        read("x", bad)


@pytest.mark.parametrize("text, count", [
    ("2000", 2000), ("1e6", 10**6), ("2.0", 2), (str(2**53 + 1), 2**53 + 1),
    ("2000.7", None), ("abc", None), ("inf", None), ("nan", None), ("", None),
])
def test_whole_text(text, count):
    if count is None:
        with pytest.raises(ValidationError, match=f"^n must be a whole number, got {text!r}$"):
            whole_text("n", text)
    else:
        assert whole_text("n", text) == count


def test_numbers_name_the_key():
    scores = {"a": 1.5, "b": 2}
    assert numbers("losses", scores) == {"a": 1.5, "b": 2.0}
    floats = {"a": 1.5}
    assert numbers("losses", floats) is floats
    with pytest.raises(ValidationError, match=r"^losses\['b'\] must be a number, got '2'$"):
        numbers("losses", {"a": 1.5, "b": "2"})
    with pytest.raises(ValidationError, match=r"^losses must be an object of numbers, got \[\]$"):
        numbers("losses", [])


def test_field_kinds_read_by_annotation_and_ignore_other_keys():
    kinds = field_kinds(ThresholdPoint)
    assert {k: v.__name__ for k, v in kinds.items()} == {
        "model_params": "whole", "pool_tokens": "number", "crossing_tokens": "number",
        "compute": "number"}
    # an optional field is read by the kind of its annotation without None
    assert {k: v.__name__ for k, v in field_kinds(PoolHeader).items()} == {
        "label": "string", "seed": "whole", "total_tokens": "whole", "counter_name": "string"}
    assert {k: v.__name__ for k, v in field_kinds(EvalSlice).items()} == {
        "context_length": "whole"}
    obj = {"model_params": 1e3, "pool_tokens": 2, "crossing_tokens": 3, "compute": 4,
           "other": [1]}
    assert read_record(ThresholdPoint, obj) == ThresholdPoint(1000, 2.0, 3.0, 4.0)
    with pytest.raises(ValidationError, match="^compute must be a number, got 'x'$"):
        read_record(ThresholdPoint, {**obj, "compute": "x"})
    with pytest.raises(ValidationError, match=r"^expected a JSON object, got \[1\]$"):
        read_record(ThresholdPoint, [1])
    with pytest.raises(ValidationError, match="^label must be a string, got None$"):
        read_record(PoolHeader, {"label": None})  # optional means absent, not null


@pytest.mark.parametrize("value", ["x", "POOL", 5, None, True, [1], {"pool": 1}])
def test_one_of_reads_an_enum_by_its_values(value):
    source = one_of(DocumentSource)
    assert source("source", "random_junk") is DocumentSource.RANDOM_JUNK
    message = f"source must be one of pool, random_junk, shuffled_junk, got {value!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        source("source", value)


@pytest.mark.parametrize("cell, message", [
    ("15009920.9", "model_params must be a whole number, got '15009920.9'"),
    ("true", "model_params must be a whole number, got 'true'"),
])
def test_csv_int_cell_is_a_whole_number(tmp_path, cell, message):
    path = tmp_path / "x.csv"
    path.write_text(f"model_params,pool_tokens,crossing_tokens,observed\n{cell},2,NEVER,False\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError) as caught:
        read_rows(path, CrossingPoint)
    assert str(caught.value) == f"{path}: line 2: {message}"


# ---------------------------------------------------------------------------
# Every format: write -> read -> write is byte-identical.
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
non_negative = st.floats(min_value=0, allow_infinity=False)
positive = st.floats(min_value=1e-300, max_value=1e300)
above_zero = st.floats(min_value=0, exclude_min=True, allow_infinity=False)
counts = st.integers(1, 2**70)
names = st.text(max_size=6)


@st.composite
def run_records(draw):
    model = draw(st.sampled_from(bundled_model_configs()))
    seen = sorted(draw(st.lists(st.integers(0, 2**60) | st.floats(0, 1e18), min_size=1,
                                max_size=4)))
    points = tuple(
        EvalPoint(tokens_seen, draw(st.dictionaries(names, positive, min_size=1, max_size=2)),
                  draw(st.none() | st.dictionaries(names, finite, max_size=2)))
        for tokens_seen in seen
    )
    return RunRecord(dataset_label=draw(names), model=model,
                     train_tokens=draw(st.integers(math.ceil(seen[-1]), 2**62)),
                     pool_tokens=draw(counts), eval_points=points,
                     batch_tokens=draw(counts), weight_decay=draw(non_negative),
                     learning_rate=draw(non_negative))


threshold_laws = st.builds(
    ThresholdLaw, method=st.sampled_from(["tokens_per_param", "epoch_constraint"]),
    parameter=above_zero, alpha=above_zero, beta=finite,
    r2=st.floats(allow_infinity=False),
    points=st.lists(st.builds(ThresholdPoint, model_params=counts, pool_tokens=above_zero,
                              crossing_tokens=above_zero, compute=above_zero),
                    min_size=3, max_size=4).map(tuple))
# a crossing that is NEVER is not observed
crossings = (st.none() | above_zero).flatmap(lambda tokens: st.builds(
    CrossingPoint, model_params=counts, pool_tokens=counts, crossing_tokens=st.just(tokens),
    observed=st.just(False) if tokens is None else st.booleans()))
documents = st.builds(Document, st.uuids().map(str), st.text(max_size=30),
                      st.sampled_from(list(DocumentSource)))


def rewritten(path, write, read):
    """The bytes of ``path`` after ``write`` of what ``read`` gives back."""
    before = path.read_bytes()
    write(path, read(path))
    return before, path.read_bytes()


@given(records=st.lists(run_records(), max_size=3), laws=threshold_laws,
       cells=st.lists(crossings, max_size=4), docs=st.lists(documents, max_size=4),
       seed=st.integers(0, 2**63), label=names)
@settings(max_examples=60, deadline=None)
def test_each_format_round_trips_byte_identically(tmp_path_factory, records, laws, cells, docs,
                                                  seed, label):
    tmp = tmp_path_factory.mktemp("round-trip")
    configs = tmp / "models.json"
    write_json(configs, [asdict(c) for c in bundled_model_configs()])
    write_run_log(tmp / "runs.jsonl", records)
    write_json(tmp / "law.json", asdict(laws))
    write_rows(tmp / "x.csv", CROSSING_COLUMNS, cells)
    write_pool(tmp / "pool.jsonl", Pool(docs, seed=seed, label=label))
    for path, write, read in [
        (tmp / "runs.jsonl", write_run_log, load_run_log),
        (configs, lambda p, cs: write_json(p, [asdict(c) for c in cs]), read_model_configs),
        (tmp / "law.json", lambda p, law: write_json(p, asdict(law)),
         lambda p: read_json(p, ThresholdLaw.from_dict)),
        (tmp / "x.csv", lambda p, rows: write_rows(p, CROSSING_COLUMNS, rows),
         lambda p: read_rows(p, CrossingPoint)),
    ]:
        before, after = rewritten(path, write, read)
        assert after == before, path.name
    header = tmp / "pool.jsonl.header.json"
    pool_bytes, header_bytes = (tmp / "pool.jsonl").read_bytes(), header.read_bytes()
    write_pool(tmp / "pool.jsonl", read_pool(tmp / "pool.jsonl"))
    assert (tmp / "pool.jsonl").read_bytes() == pool_bytes and header.read_bytes() == header_bytes
