"""The text formats poollab's artifacts share, and the one way files are written.

JSONL: UTF-8, one JSON value per line, blank lines skipped.  Its reader and
the whole-file JSON reader report a rejection as ``<path>[: line <n>]: <reason>``.

CSV cells: ``None`` is written as ``NEVER``, floats with ``repr`` (the
shortest representation that round-trips exactly), bools with ``str``.
Rows are written from objects or mappings, one column per attribute or
key, and each row is read back by :func:`read_record`, as a JSON object
is, with each cell read as text by its field's kind; a rejected row reads
``<path>: line <n>: <reason>``.

JSON values are read by one type rule, one function per kind (:func:`string`,
:func:`flag`, :func:`number`, :func:`whole`, :func:`items`, and :func:`one_of`
for an enum's values or a tuple of names), each raising
``"<field> must be <kind>, got <value!r>"``.  Two kinds also bound their value,
:func:`natural` (a seed) and :func:`positive`; the library checks its arguments
by them too.  A JSON object fills a dataclass by
:func:`read_record`: fields without a default are required, and each field's
kind is its annotation (:func:`field_kinds`) unless the reader names another; a
field the dataclass derives (``init=False``) is not read.

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
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cache
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, NoReturn, Sequence, TypeVar

from .errors import ValidationError

NEVER = "NEVER"

T = TypeVar("T")
E = TypeVar("E", bound=Enum)


@contextmanager
def _replacing(path: str | Path, newline: str | None = None) -> Iterator[IO[str]]:
    """A UTF-8 text file that replaces ``path`` when the block ends without an exception."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:  # KeyboardInterrupt too: never leave a partial artifact
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the user's file instead
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Each line followed by a newline."""
    with _replacing(path) as fh:
        fh.writelines(line + "\n" for line in lines)


#: What decoding or parsing a bad JSON value raises: :func:`_reason` says why.
_REJECTIONS = (KeyError, TypeError, ValueError, ValidationError, RecursionError)


def _reason(exc: BaseException) -> str:
    """Why a JSON value was rejected, for a reader to put after its path (and line)."""
    if isinstance(exc, (json.JSONDecodeError, RecursionError)):  # or nested past the limit
        return f"invalid JSON: {exc}"
    if isinstance(exc, KeyError):
        return f"missing key {exc}"
    return str(exc)


@dataclass(frozen=True)
class LineError:
    lineno: int
    message: str


def read_jsonl(
    path: str | Path,
    parse: Callable[[Any], T],
    errors: list[LineError] | None = None,
    key: Callable[[T], str] | None = None,
) -> Iterator[T]:
    """``parse`` of each non-blank line's JSON value, lazily.

    A line that is not UTF-8 JSON, that ``parse`` rejects, or whose
    item's ``key`` equals an earlier item's, raises
    ``ValidationError("<path>: line <n>: <reason>")``, or is appended to
    ``errors`` and skipped when that list is given.
    """
    first_line: dict[str, int] = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                item = parse(json.loads(line))
                if key is not None:
                    _check_repeat(first_line, key(item), lineno)
            except _REJECTIONS as exc:
                if errors is None:
                    raise ValidationError(f"{path}: line {lineno}: {_reason(exc)}") from exc
                errors.append(LineError(lineno, _reason(exc)))
            else:
                yield item


def _check_repeat(first_line: dict[str, int], key: str, lineno: int) -> None:
    """Note that ``key`` is on line ``lineno``; ValidationError if an earlier line has it."""
    first = first_line.setdefault(key, lineno)
    if first != lineno:
        raise ValidationError(f"repeats {key} of line {first}")


def _reject(name: str, kind: str, value: object) -> NoReturn:
    raise ValidationError(f"{name} must be {kind}, got {value!r}")


def string(name: str, value: object) -> str:
    """A JSON string."""
    return value if type(value) is str else _reject(name, "a string", value)


def flag(name: str, value: object) -> bool:
    """``true`` or ``false``."""
    return value if type(value) is bool else _reject(name, "true or false", value)


def number(name: str, value: object) -> float:
    """A JSON int or float, as a float; a bool is not a number, nor is an int too
    large for a float.  NaN and the infinities are numbers; a format's checks decide."""
    if type(value) is float or type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    _reject(name, "a number", value)


def whole(name: str, value: object) -> int:
    """A JSON int, or a float with an integral value (``1e6`` is, ``1.9`` is not), as an int."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    _reject(name, "a whole number", value)


def natural(name: str, value: object) -> int:
    """A :func:`whole` number >= 0, such as a seed: ``random.Random`` seeds ``-n`` as it
    seeds ``n``, so a negative seed would alias a positive one."""
    value = whole(name, value)
    return value if value >= 0 else _reject(name, ">= 0", value)


def positive(name: str, value: object) -> float:
    """A :func:`number` that is finite and > 0."""
    value = number(name, value)
    return value if 0 < value < math.inf else _reject(name, "finite and > 0", value)


def items(name: str, value: object) -> list:
    """A JSON array."""
    return value if type(value) is list else _reject(name, "a list", value)


def json_object(value: object) -> dict:
    """A JSON object."""
    if type(value) is not dict:
        raise ValidationError(f"expected a JSON object, got {value!r}")
    return value


def one_of(choices: type[E] | Iterable[T]) -> Callable[[str, object], E | T]:
    """The kind of a member of the enum ``choices``, written as its value, or of
    one of the names ``choices``."""
    members = {getattr(choice, "value", choice): choice for choice in choices}

    def member(name: str, value: object) -> E | T:
        try:
            return members[value]
        except (KeyError, TypeError):  # TypeError: a list or an object cannot be a key
            _reject(name, f"one of {', '.join(members)}", value)
    return member


def number_text(name: str, text: str, kind: str = "a number") -> float:
    """:func:`number` of a number written as text, such as ``"1e12"``; else not ``kind``."""
    try:
        return float(text)
    except ValueError:
        _reject(name, kind, text)


def whole_text(name: str, text: str) -> int:
    """:func:`whole` of a number written as text: ``"2000"`` and ``"1e6"`` are
    whole, ``"2000.7"`` is not.  Digits are read by ``int``, so they stay exact."""
    try:
        return int(text)
    except ValueError:
        value = number_text(name, text, "a whole number")
    return int(value) if value.is_integer() else _reject(name, "a whole number", text)


def numbers(name: str, value: object) -> dict[str, float]:
    """A JSON object of :func:`number` values, each named ``<name>[<key>!r]``;
    ``value`` itself if every value is already a float."""
    if type(value) is not dict:
        _reject(name, "an object of numbers", value)
    if all(type(v) is float for v in value.values()):
        return value
    return {key: number(f"{name}[{key!r}]", v) for key, v in value.items()}


#: The kind of a JSON value by the annotation string of the dataclass field it fills;
#: a field annotated ``X | None`` is read by the kind of ``X`` when it is present.
_KINDS = {"str": string, "bool": flag, "int": whole, "float": number}


def field_kinds(cls: type) -> dict[str, Callable[[str, Any], Any]]:
    """The kind of each field of the dataclass ``cls`` annotated ``str``, ``bool``,
    ``int`` or ``float``, or one of those ``| None``; other fields are left out."""
    return {name: kind for name, kind, _ in _record_fields(cls) if kind}


@cache
def _record_fields(cls: type) -> tuple[tuple[str, Callable | None, bool], ...]:
    """``(name, kind by annotation or None, required)`` of each field of ``cls`` that its
    constructor takes; a field it derives (``init=False``) is never read."""
    return tuple((f.name, _KINDS.get(f.type.removesuffix(" | None")),
                  f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls) if f.init)


def read_record(cls: type[T], obj: object, **kinds: Callable[[str, Any], Any]) -> T:
    """The dataclass ``cls`` of the JSON object ``obj``, each field read by its kind in
    ``kinds`` or else by its annotation; fields without a default are required, and
    keys that are not fields are ignored."""
    json_object(obj)
    values = {}
    for name, kind, required in _record_fields(cls):
        if name in obj:
            values[name] = (kinds.get(name) or kind)(name, obj[name])
        elif required:
            raise ValidationError(f"missing key {name!r}")
    return cls(**values)


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


def _number_or_never(name: str, text: str) -> float | None:
    """None written as ``NEVER``, else :func:`number_text`; the record checks the range."""
    return None if text == NEVER else number_text(name, text, f"a finite number or {NEVER}")


def _true_or_false(name: str, text: str) -> bool:
    return text == "True" if text in ("True", "False") else _reject(name, "True or False", text)


#: The kind of a CSV cell by the JSON kind of the field it fills (:func:`field_kinds`).
_CELL_KINDS = {whole: whole_text, number: _number_or_never, flag: _true_or_false}


def read_rows(path: str | Path, cls: type[T], key: Callable[[T], str] | None = None) -> list[T]:
    """:func:`read_record` of each row of a :func:`write_rows` CSV, its cells read by
    :data:`_CELL_KINDS`; other columns are ignored.

    A header that names a column twice raises ``ValidationError("<path>: <reason>")``.
    A row that is rejected, that has more cells than the header, or whose ``key``
    equals an earlier row's, raises ``ValidationError("<path>: line <n>: <reason>")``,
    as :func:`read_jsonl` does; a row's missing cells are empty.
    """
    kinds = {name: _CELL_KINDS[kind] for name, kind in field_kinds(cls).items()}
    out: list[T] = []
    first_line: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh, restval="")  # a short row's missing cells are empty
            header = reader.fieldnames or []
            missing = [name for name in kinds if name not in header]
            if missing:
                raise ValidationError(f"{path}: missing column(s) {missing}")
            repeated = sorted({name for name in header if header.count(name) > 1})
            if repeated:  # the last of the repeated columns would win
                raise ValidationError(f"{path}: header repeats column(s) {repeated}")
            for row in reader:
                try:
                    if None in row:  # DictReader's key for the cells past the header's
                        raise ValidationError(f"row has {len(header) + len(row[None])} cells, "
                                              f"the header {len(header)}")
                    out.append(read_record(cls, row, **kinds))
                    if key is not None:
                        _check_repeat(first_line, key(out[-1]), reader.line_num)
                except ValidationError as exc:
                    raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except csv.Error as exc:  # such as a cell longer than the csv module's field limit
        # the DictReader's line_num is not updated by a row that fails; its reader's is
        raise ValidationError(f"{path}: line {reader.reader.line_num}: {exc}") from exc
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


def read_json(path: str | Path, parse: Callable[[Any], T]) -> T:
    """``parse`` of the file's JSON value; a file that is not UTF-8 JSON, or that ``parse``
    rejects, raises ``ValidationError("<path>: <reason>")`` with :func:`read_jsonl`'s reasons."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or bytes, or nested too deep
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return parse(value)
    except _REJECTIONS as exc:
        raise ValidationError(f"{path}: {_reason(exc)}") from exc
