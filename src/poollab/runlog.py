"""Training-run records: ingestion, validation, and derived quantities.

Runs are consumed as JSONL, one record per line.  This package never
trains anything; it computes compute (6 * tokens * params), epochs
(train tokens / pool tokens), best-checkpoint losses, and positional
loss slices from externally produced logs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ValidationError
from .io import (LineError, field_names, items, number, numbers, read_json, read_jsonl,
                 read_record, write_lines)

DEFAULT_BATCH_TOKENS = 2**19


@dataclass(frozen=True)
class ModelConfig:
    name: str
    hidden_dim: int
    layers: int
    heads: int
    head_dim: int
    ffn_dim: int
    vocab_size: int
    total_params: int
    non_embedding_params: int

    def __post_init__(self) -> None:
        for name in ("hidden_dim", "layers", "heads", "head_dim", "ffn_dim", "vocab_size",
                     "total_params", "non_embedding_params"):
            value = getattr(self, name)
            if not value > 0:
                raise ValidationError(f"{self.name}: {name} must be positive, got {value!r}")
        if self.hidden_dim != self.heads * self.head_dim:
            raise ValidationError(
                f"{self.name}: hidden_dim {self.hidden_dim} != heads*head_dim "
                f"{self.heads * self.head_dim}"
            )
        if not self.total_params <= sys.float_info.max:  # so 6 * tokens * params is a float
            raise ValidationError(f"{self.name}: total_params is beyond the float range")
        if self.non_embedding_params > self.total_params:
            raise ValidationError(f"{self.name}: non_embedding_params exceeds total_params")


def non_embedding_params(cfg: ModelConfig) -> int:
    """Parameter count excluding the embedding/unembedding tables.

    Accounting: per layer 4*hidden^2 attention (QKVO) plus 3*hidden*ffn
    gated feed-forward, plus (2*layers + 1)*hidden normalization weights.
    """
    per_layer = 4 * cfg.hidden_dim**2 + 3 * cfg.hidden_dim * cfg.ffn_dim
    return cfg.layers * per_layer + (2 * cfg.layers + 1) * cfg.hidden_dim


@dataclass(frozen=True, slots=True)
class EvalPoint:
    """One checkpoint's losses.  Slotted, since a run log holds tens of
    thousands; ``vars()`` of a point therefore raises ``TypeError``."""

    tokens_seen: int
    losses: dict[str, float]
    benchmarks: dict[str, float] | None = None


@dataclass(frozen=True)
class RunRecord:
    dataset_label: str
    model: ModelConfig
    train_tokens: int
    pool_tokens: int
    eval_points: tuple[EvalPoint, ...]
    batch_tokens: int = DEFAULT_BATCH_TOKENS
    weight_decay: float = 0.1
    learning_rate: float = 5e-3

    def __post_init__(self) -> None:
        label = self.dataset_label
        if not isinstance(label, str):  # report sorts on it
            raise ValidationError(f"dataset_label must be a string, got {label!r}")
        if not self.eval_points:
            raise ValidationError(f"{label}: record has no eval points")
        rebuilt = None  # the points, once one is rebuilt with float values
        last = 0  # the first point bounds the rest
        for i, p in enumerate(self.eval_points):  # one walk: tokens_seen, losses, benchmarks
            seen, losses = p.tokens_seen, p.losses
            if type(seen) is not int and not (type(seen) is float and math.isfinite(seen)):
                raise ValidationError(  # a NaN or a bool would pass the order check
                    f"{label}: tokens_seen must be a finite number, got {seen!r}")
            if seen < last:
                raise ValidationError(f"{label}: eval_points not sorted by tokens_seen" if i
                                      else f"{label}: tokens_seen must be non-negative")
            last = seen
            if type(losses) is dict and losses and p.benchmarks is None:
                for v in losses.values():
                    if type(v) is not float or not 0 < v < math.inf:
                        break
                else:
                    continue  # float losses in range and no benchmarks: the common point
            losses = numbers("losses", losses)
            if not losses:
                raise ValidationError(f"{label}: eval point at tokens_seen={seen} has no losses")
            for v in losses.values():
                if not 0 < v < math.inf:
                    raise ValidationError(f"{label}: {'non-positive' if v <= 0 else 'non-finite'}"
                                          f" loss at tokens_seen={seen}")
            benchmarks = p.benchmarks
            if benchmarks is not None:  # only an absent, null or empty object means none
                benchmarks = numbers("benchmarks", benchmarks) or None
            if losses is not p.losses or benchmarks is not p.benchmarks:
                rebuilt = rebuilt or list(self.eval_points)
                rebuilt[i] = EvalPoint(seen, losses, benchmarks)
        if rebuilt:
            object.__setattr__(self, "eval_points", tuple(rebuilt))
        if self.train_tokens < last:
            raise ValidationError(
                f"{label}: train_tokens {self.train_tokens} < last eval tokens_seen {last}")
        # Bounding train_tokens bounds every tokens_seen, so each count converts to a float.
        if not self.train_tokens <= sys.float_info.max:
            raise ValidationError(f"{label}: train_tokens is beyond the float range")
        if not 0 < self.pool_tokens <= sys.float_info.max:
            raise ValidationError(
                f"{label}: pool_tokens must be positive and within the float range")
        for name in ("weight_decay", "learning_rate"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails too: it would be written as non-JSON
                raise ValidationError(
                    f"{label}: {name} must be finite and non-negative, got {value!r}")


def compute_flops(record: RunRecord) -> float:
    """Training compute under the 6 * tokens * params approximation."""
    flops = 6.0 * record.train_tokens * record.model.total_params
    if not 0 < flops < math.inf:
        raise ValidationError(f"{record.dataset_label}: training compute must be positive "
                              f"and finite, got {flops}")
    return flops


def epochs(record: RunRecord) -> float:
    """Passes over the pool: train_tokens / pool_tokens."""
    return record.train_tokens / record.pool_tokens


def point_loss(point: EvalPoint, eval_sets: Sequence[str]) -> float:
    missing = [s for s in eval_sets if s not in point.losses]
    if missing:
        raise ValidationError(
            f"eval point at tokens_seen={point.tokens_seen} missing sets {missing}")
    return sum(point.losses[s] for s in eval_sets) / len(eval_sets)


def point_losses(points: Sequence[EvalPoint], eval_sets: Sequence[str]) -> list[float]:
    """:func:`point_loss` of each point, without its per-point check for
    missing sets: the first point missing a set is named only on failure."""
    n_sets = len(eval_sets)
    try:
        return [sum(map(p.losses.__getitem__, eval_sets)) / n_sets for p in points]
    except KeyError:
        for point in points:
            point_loss(point, eval_sets)  # raises, naming the point and its missing sets
        raise


def eval_set_names(record: RunRecord, eval_sets: Sequence[str] | None = None) -> list[str]:
    """The sets a loss is the mean over: ``eval_sets``, or by default every
    set present at ``record``'s first eval point.  Each set is named once."""
    sets = list(eval_sets) if eval_sets else sorted(record.eval_points[0].losses)
    if len(set(sets)) < len(sets):
        raise ValidationError(f"eval sets {sets} name a set more than once")
    return sets


def best_eval(record: RunRecord, eval_sets: Sequence[str] | None = None) -> float:
    """Best-checkpoint loss: min over eval points of the mean across
    :func:`eval_set_names`; each point must carry all of them."""
    return min(point_losses(record.eval_points, eval_set_names(record, eval_sets)))


def best_achievable(records: Sequence[RunRecord], eval_sets: Sequence[str] | None = None) -> float:
    """Best loss over a dataset's (model size, step count) sweep."""
    if not records:
        raise ValidationError("best_achievable requires at least one record")
    labels = {r.dataset_label for r in records}
    if len(labels) > 1:
        raise ValidationError(f"records span multiple dataset labels: {sorted(labels)}")
    return min(best_eval(r, eval_sets) for r in records)


@dataclass(frozen=True)
class EvalSlice:
    """Mean loss at each context position for one evaluation; ``context_length``
    defaults to the number of losses."""

    position_losses: tuple[float, ...]
    context_length: int | None = None

    def __post_init__(self) -> None:
        if self.context_length is None:
            object.__setattr__(self, "context_length", len(self.position_losses))
        if len(self.position_losses) != self.context_length:
            raise ValidationError(
                f"position_losses length {len(self.position_losses)} != "
                f"context_length {self.context_length}")
        if not all(0 <= v < math.inf for v in self.position_losses):  # NaN fails too
            raise ValidationError("position losses must be finite and non-negative")

    @classmethod
    def from_dict(cls, obj: object) -> "EvalSlice":
        """The slice of a JSON object."""
        return read_record(cls, obj, position_losses=lambda name, value: tuple(
            number(f"{name}[{i}]", v) for i, v in enumerate(items(name, value))))


def slice_loss(slc: EvalSlice, t: int) -> float:
    """Mean loss over the first ``t`` context positions (1 <= t <= length)."""
    if not 1 <= t <= slc.context_length:
        raise ValidationError(f"t must be in [1, {slc.context_length}], got {t}")
    return sum(slc.position_losses[:t]) / t


# ---------------------------------------------------------------------------
# JSONL serialization.
# ---------------------------------------------------------------------------


def record_to_dict(record: RunRecord) -> dict:
    """The record's fields as JSON data, without empty ``benchmarks``.

    Equal to ``dataclasses.asdict`` minus those keys; ``vars`` avoids its
    per-value deep copies, which made ``ingest`` measurably slower.
    """
    return {
        **vars(record),
        "model": dict(vars(record.model)),
        "eval_points": [
            {"tokens_seen": p.tokens_seen, "losses": p.losses, "benchmarks": p.benchmarks}
            if p.benchmarks else {"tokens_seen": p.tokens_seen, "losses": p.losses}
            for p in record.eval_points
        ],
    }


#: The fields a model config is read from, in declaration order.
_MODEL_FIELDS = tuple(field_names(ModelConfig))


def _model_config(obj: object, models: dict[tuple, ModelConfig]) -> ModelConfig:
    """The config of the JSON object ``obj``, or the one already in ``models`` for equal fields;
    other keys are not read, so they do not split configs.

    A config of exact ``int`` and ``str`` values (neither equals the other or a ``bool``) is
    looked up as it is and read only if new; any other is read first, so ``1000.0`` is ``1000``.
    """
    # a list, not a map: tuple() of an iterator of unknown length is resized, and each such
    # tuple freed joins a free list nothing draws from, pinning memory the freed log gives back
    key = tuple([obj.get(name) for name in _MODEL_FIELDS]) if type(obj) is dict else ()
    if all(type(v) is int or type(v) is str for v in key) and key in models:
        return models[key]
    model = read_record(ModelConfig, obj)
    return models.setdefault(tuple(vars(model).values()), model)


def parse_run_log(path: str | Path) -> tuple[list[RunRecord], list[LineError]]:
    """Parse a JSONL run log, collecting malformed lines with line numbers.

    Records with equal model configs share one :class:`ModelConfig`.
    """
    errors: list[LineError] = []
    models: dict[tuple, ModelConfig] = {}

    def eval_points(name: str, points: object) -> tuple[EvalPoint, ...]:
        if not {dict}.issuperset(map(type, items(name, points))):
            raise ValidationError(f"{name} must be a list of objects, got {points!r}")
        return tuple([EvalPoint(p["tokens_seen"], p["losses"], p.get("benchmarks"))
                      for p in points])  # each checked by RunRecord, as in memory

    kinds = {"model": lambda _, obj: _model_config(obj, models), "eval_points": eval_points}
    records = list(read_jsonl(path, lambda obj: read_record(RunRecord, obj, **kinds), errors))
    return records, errors


def load_run_log(path: str | Path) -> list[RunRecord]:
    """Parse a run log, raising if any line is malformed."""
    records, errors = parse_run_log(path)
    if errors:
        detail = "; ".join(f"line {e.lineno}: {e.message}" for e in errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        raise ValidationError(f"{path}: {len(errors)} malformed line(s): {detail}{more}")
    return records


def write_run_log(path: str | Path, records: Iterable[RunRecord]) -> None:
    encode = json.JSONEncoder(sort_keys=True).encode  # what json.dumps builds per call
    write_lines(path, (encode(record_to_dict(r)) for r in records))


def read_model_configs(path: str | Path) -> list[ModelConfig]:
    """The model configurations of a JSON list of objects holding :class:`ModelConfig`'s fields."""
    return read_json(path, lambda data: [read_record(ModelConfig, obj)
                                         for obj in items("model configs", data)])


def bundled_model_configs() -> list[ModelConfig]:
    """The five reference model configurations shipped with the package."""
    return read_model_configs(resources.files("poollab.data") / "model_configs.json")
