"""The text formats poollab's artifacts share, and the one way files are written.

JSONL: UTF-8, one JSON value per line, blank lines skipped.

CSV cells: ``None`` is written as ``NEVER``, floats with ``repr`` (the
shortest representation that round-trips exactly), bools with ``str``.
Rows are written from objects or mappings, one column per attribute or
key, and read back into dataclasses by their field types.

Pretty JSON: indent 2, sorted keys, trailing newline.

Each file is written to a sibling ``<path>.<pid>.tmp`` that replaces
``path`` only once it is complete.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import ValidationError

NEVER = "NEVER"

T = TypeVar("T")


@contextmanager
def _replacing(path: str | Path, newline: str | None = None) -> Iterator[IO[str]]:
    """A UTF-8 text file that replaces ``path`` when the block ends without an exception."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:  # KeyboardInterrupt too: never leave a partial artifact
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Each line followed by a newline."""
    with _replacing(path) as fh:
        fh.writelines(line + "\n" for line in lines)


@dataclass
class LineError:
    lineno: int
    message: str


def read_jsonl(
    path: str | Path, parse: Callable[[Any], T], errors: list[LineError] | None = None
) -> Iterator[T]:
    """``parse`` of each non-blank line's JSON value, lazily.

    A line that is not UTF-8 JSON, or that ``parse`` rejects, raises
    ``ValidationError("<path>: line <n>: <reason>")``, or is appended to
    ``errors`` and skipped when that list is given.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                item = parse(json.loads(line))
            except json.JSONDecodeError as exc:
                reason = f"invalid JSON: {exc}"
            except KeyError as exc:
                reason = f"missing key {exc}"
            except (TypeError, ValueError, ValidationError) as exc:
                reason = str(exc)
            else:
                yield item
                continue
            if errors is None:
                raise ValidationError(f"{path}: line {lineno}: {reason}")
            errors.append(LineError(lineno, reason))


def csv_cell(value: object) -> str:
    if value is None:
        return NEVER
    if isinstance(value, float):
        return repr(value)
    return str(value)


def field_names(cls: type) -> list[str]:
    """CSV columns for a dataclass: its fields, in declaration order."""
    return [f.name for f in fields(cls)]


def write_rows(path: str | Path, columns: Sequence[str], rows: Iterable[object]) -> None:
    """CSV with a header row; each column is read as a key of a mapping row or an attribute."""
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            if isinstance(row, Mapping):
                writer.writerow([csv_cell(row[name]) for name in columns])
            else:
                writer.writerow([csv_cell(getattr(row, name)) for name in columns])


def _parse_float(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {cell!r}")
    return value


def _parse_bool(cell: str) -> bool:
    if cell not in ("True", "False"):
        raise ValueError(f"expected True or False, got {cell!r}")
    return cell == "True"


# Keyed by the field annotation strings of the dataclasses read back from CSV.
_PARSERS = {
    "int": lambda cell: int(float(cell)),
    "float | None": lambda cell: None if cell == NEVER else _parse_float(cell),
    "bool": _parse_bool,
}


def read_rows(path: str | Path, cls: type[T], unique: Sequence[str] = ()) -> list[T]:
    """Read a :func:`write_rows` CSV into ``cls`` instances; other columns are ignored.

    A row whose values of the ``unique`` fields equal an earlier row's
    raises ValidationError naming both lines.
    """
    parsers = [(f.name, _PARSERS[f.type]) for f in fields(cls)]
    out = []
    first_line: dict[tuple, int] = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [name for name, _ in parsers if name not in (reader.fieldnames or ())]
            if missing:
                raise ValidationError(f"{path}: missing column(s) {missing}")
            for row in reader:
                values = {}
                for name, parse in parsers:
                    try:
                        values[name] = parse(row[name])
                    except (TypeError, ValueError, OverflowError) as exc:
                        raise ValidationError(
                            f"{path}: line {reader.line_num}: column {name!r}: {exc}"
                        ) from exc
                if unique:
                    key = tuple(values[name] for name in unique)
                    if key in first_line:
                        shown = ", ".join(f"{name}={v}" for name, v in zip(unique, key))
                        raise ValidationError(f"{path}: line {reader.line_num} repeats {shown} "
                                              f"of line {first_line[key]}")
                    first_line[key] = reader.line_num
                out.append(cls(**values))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return out


def write_json(path: str | Path, obj: object) -> None:
    with _replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_file(path: str | Path) -> str:
    """Hex sha256 of a file's bytes, read in 64 KiB chunks so memory does not grow with it."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_json(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or undecodable bytes
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
