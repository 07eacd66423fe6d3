import ast
from pathlib import Path

import pytest

import poollab
from poollab import CrossingPoint, ValidationError
from poollab.io import (
    LineError, csv_cell, field_names, read_json, read_jsonl, read_rows, write_lines, write_rows
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


def test_repeated_unique_fields_name_both_lines(tmp_path):
    path = tmp_path / "rows.csv"
    # a quoted cell spans lines 3 and 4, so line 2's key is repeated on line 6
    path.write_text("model_params,pool_tokens,crossing_tokens,observed\n"
                    "1,2,NEVER,False\n1,\"3\n\",NEVER,False\n2,2,5.0,True\n1,2.0,NEVER,False\n",
                    encoding="utf-8")
    assert len(read_rows(path, CrossingPoint)) == 4
    with pytest.raises(ValidationError, match=(
        f"^{path}: line 6 repeats model_params=1, pool_tokens=2 of line 2$"
    )):
        read_rows(path, CrossingPoint, unique=("model_params", "pool_tokens"))


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    with pytest.raises(ValidationError, match="invalid JSON"):
        read_json(path)


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
