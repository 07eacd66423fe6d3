import pytest

from poollab import CrossingPoint, ValidationError
from poollab.io import csv_cell, field_names, read_json, read_rows, write_rows

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


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    with pytest.raises(ValidationError, match="invalid JSON"):
        read_json(path)
