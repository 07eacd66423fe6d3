"""Compute-versus-loss analysis: frontiers, crossings, and threshold laws.

The central object is the crossing point: for one model size and pool
size, the minimal training-token count at which the unfiltered pool's
loss beats the best loss achieved by the filtered dataset.  Crossings
observed on the eval grid are returned directly; otherwise the pool's
loss curve is extrapolated with a saturating power law
``L(N) = c + a * N**(-b)`` and the crossing is solved in closed form
(or declared to never happen when the asymptote is too high).

Crossings as a function of pool size are summarized by a quadratic in
log10-log10 space, and two constructions turn those quadratics into a
compute threshold law ``compute = alpha * pool_tokens**beta``: fixing a
tokens-per-parameter ratio, or fixing an epoch count.

All fits are deterministic: identical inputs give identical coefficients.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .errors import FitError, NoRootError, ValidationError
from .io import items, positive, read_record
from .runlog import ModelConfig, RunRecord, best_achievable, eval_set_names, point_losses

if TYPE_CHECKING:
    from array import array

    import numpy as np

#: Crossings needing more epochs than this are flagged as unreliable
#: extrapolations (validation loss can turn non-monotone at extreme
#: epoch counts); they are flagged but still fit.
EXTREME_EPOCHS_FLAG = 121.6


# ---------------------------------------------------------------------------
# Pareto frontier.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrontierPoint:
    compute: float
    loss: float
    dataset_label: str
    record_ref: str

    def __post_init__(self) -> None:
        if not (0 < self.compute < math.inf and 0 < self.loss < math.inf):  # NaN fails too
            raise ValidationError("frontier points need finite, positive compute and loss")


def pareto_frontier(points: Sequence[FrontierPoint]) -> list[FrontierPoint]:
    """Non-dominated subset, sorted by compute ascending.

    A point is dominated when another point has no larger compute and no
    larger loss, with at least one strict.  Exact (compute, loss)
    duplicates keep the lexicographically smallest record_ref.  The
    result's losses are strictly decreasing.
    """
    ordered = sorted(points, key=lambda p: (p.compute, p.loss, p.record_ref))
    frontier: list[FrontierPoint] = []
    best_loss = math.inf
    for point in ordered:
        if point.loss < best_loss:
            frontier.append(point)
            best_loss = point.loss
    return frontier


# ---------------------------------------------------------------------------
# Saturating power-law fit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerLawFit:
    """Model ``L(N) = c + a * N**(-b)`` with a >= 0 asymptote c."""

    a: float
    b: float
    c: float
    r2: float
    n_points: int

    def predict(self, n: float) -> float:
        return self.c + self.a * n ** (-self.b)

    def solve_for(self, target: float) -> float:
        """Tokens where the fitted curve reaches ``target`` (requires target > c).

        Raises FitError if it never does, or only beyond the float range.
        """
        if target <= self.c:
            raise FitError(
                f"target {target} is at or below the fitted asymptote {self.c}; never reached"
            )
        try:
            return (self.a / (target - self.c)) ** (1.0 / self.b)
        except OverflowError:
            raise FitError(
                f"the fitted curve reaches target {target} only beyond the float range"
            ) from None


def _loglog_regression(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares line y = intercept + slope*x; returns sse and sst too."""
    import numpy as np

    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    sse = float(np.sum((y - fitted) ** 2))
    sst = float(np.sum((y - np.mean(y)) ** 2))
    return float(coef[0]), float(coef[1]), sse, sst


#: Points of the linear part of the asymptote grid over [0, min(L)).
LINEAR_GRID_SIZE = 33


def _golden_section_min(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section minimizer over [lo, hi] to interval width ``tol``."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _asymptote_grid(loss_min: float, c_hi: float, losses: np.ndarray) -> np.ndarray:
    """Candidate asymptotes in [0, c_hi].

    The squared-residual landscape in c has a well at the true asymptote
    whose width scales with the gap ``min(L) - c``, so a uniform grid
    alone can step right over it.  Combine a linear grid with a
    log-spaced sweep of the gap down to the allowed floor, plus the
    closed-form three-point solve (exact for geometrically spaced N).
    """
    import numpy as np

    parts = [np.linspace(0.0, c_hi, LINEAR_GRID_SIZE)]
    gap_floor = loss_min - c_hi
    # ~24 points per decade keeps the nearest candidate within ~5% of
    # the true gap, close enough that the well beats rival local minima.
    decades = math.log10(loss_min / gap_floor)
    n_log = min(600, max(2, int(decades * 24)))
    parts.append(loss_min - np.geomspace(loss_min, gap_floor, n_log))

    # Python floats: the same IEEE results as numpy scalars, but an overflow
    # gives inf or nan silently, which the isfinite check below drops.
    first, middle, last = float(losses[0]), float(losses[len(losses) // 2]), float(losses[-1])
    denom = 2.0 * middle - first - last
    if denom != 0.0:
        three_point = (middle * middle - first * last) / denom
        if math.isfinite(three_point) and 0.0 <= three_point <= c_hi:
            parts.append(np.array([three_point]))

    return np.clip(_sorted_unique(np.concatenate(parts)), 0.0, c_hi)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D float array without NaN, sorting ``values`` in place.

    This is ``np.unique``'s own algorithm for such arrays (an in-place
    sort, then each value unequal to its predecessor), so the result is
    the same bit for bit, ±0.0 included; calling it would import
    ``numpy.ma`` for its masked-array check.
    """
    import numpy as np

    values.sort()
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _grid_sse(grid: np.ndarray, losses: np.ndarray, design: np.ndarray, solve: np.ndarray,
              sse_at) -> np.ndarray:
    """``sse_at`` at every grid candidate, from one (grid x points) array operation.

    The batched products sum in another order than ``sse_at``'s, so a
    value can differ from it in the last bits.  A sum of m products, in
    any order, is within about m*eps/2 of exact relative to the sum of
    the products' magnitudes.  Those magnitudes are at most ``|y|``
    plus the fitted values' terms, so each batched residual is within
    ``resid_err`` of ``sse_at``'s, and each SSE within ``tol``.  Every
    value whose comparison with a neighbour, or with the smallest
    value, could flip within ``tol`` is recomputed by ``sse_at``.  The
    grid-local minima and the first argmin are then exactly those of
    ``sse_at``; usually only the argmin is recomputed.  The arrays are
    reused in place to keep the peak memory at two of them.
    """
    import numpy as np

    ys = losses - grid[:, None]
    np.log(ys, out=ys)
    resid = (ys @ solve.T) @ design.T
    np.subtract(ys, resid, out=resid)
    sses = np.einsum("ij,ij->i", resid, resid)
    m = len(losses)
    eps = np.finfo(float).eps
    abs_ys = np.abs(ys, out=ys)
    term_mag = (abs_ys @ np.abs(solve).T) @ np.abs(design).max(axis=0)
    resid_err = 8 * m * eps * (abs_ys.max(axis=1) + term_mag)
    abs_resid_sum = np.abs(resid, out=resid).sum(axis=1)
    tol = resid_err * (2.0 * abs_resid_sum + m * resid_err) + 4 * m * eps * sses
    redo = sses - tol <= np.min(sses + tol)
    unsure = np.abs(np.diff(sses)) <= tol[:-1] + tol[1:]
    redo[:-1] |= unsure
    redo[1:] |= unsure
    for i in np.flatnonzero(redo):
        sses[i] = sse_at(float(grid[i]))
    return sses


def fit_power_law(points: Sequence[tuple[float, float]]) -> PowerLawFit:
    """Fit ``L(N) = c + a * N**(-b)`` to (N, loss) samples.

    The asymptote c is located by a grid over [0, min(L)) (see
    :func:`_asymptote_grid`) followed by golden-section refinement of
    every grid-local minimum (tolerance 1e-10 in c); at each c the
    remaining parameters come from linear least squares of log(L - c)
    against log N.  r2 is reported on those log residuals.

    Raises:
        FitError: fewer than 3 points, an N that is not finite and
            positive, N not strictly increasing, non-positive or
            non-finite losses, a non-decaying loss sequence, or a fitted
            scale ``a`` beyond the float range.
    """
    import numpy as np

    if len(points) < 3:
        raise FitError(f"power-law fit needs >= 3 points, got {len(points)}")
    try:
        n = np.array([p[0] for p in points], dtype=float)
    except OverflowError as exc:  # an int beyond the float range
        raise FitError("token counts must be finite and positive") from exc
    losses = np.array([p[1] for p in points], dtype=float)
    if not np.all(np.isfinite(n) & (n > 0)):
        raise FitError("token counts must be finite and positive")
    if np.any(np.diff(n) <= 0):
        raise FitError("token counts must be strictly increasing")
    if np.any(losses <= 0):
        raise FitError("losses must be positive")
    if not np.all(np.isfinite(losses)):
        raise FitError("losses must be finite")
    if np.all(np.diff(losses) >= 0):
        raise FitError("losses are not decaying; cannot fit a decreasing power law")

    log_n = np.log(n)
    design = np.column_stack([np.ones_like(log_n), log_n])
    solve = np.linalg.pinv(design)  # fixed across c; avoids per-candidate lstsq

    def sse_at(c: float) -> float:
        y = np.log(losses - c)
        coef = solve @ y
        resid = y - design @ coef
        return float(resid @ resid)

    loss_min = float(losses.min())
    # c strictly below min(L); the epsilon keeps log(L - c) finite.
    c_hi = loss_min - 1e-9 * max(1.0, abs(loss_min))
    if c_hi <= 0.0:
        best_c = 0.0
    else:
        grid = _asymptote_grid(loss_min, c_hi, losses)
        sses = _grid_sse(grid, losses, design, solve, sse_at)
        candidates = [float(grid[int(np.argmin(sses))])]
        padded = np.concatenate(([math.inf], sses, [math.inf]))
        local_min = (sses <= padded[:-2]) & (sses <= padded[2:])
        for i in np.flatnonzero(local_min):
            lo = float(grid[max(i - 1, 0)])
            hi = float(grid[min(i + 1, len(grid) - 1)])
            candidates.append(_golden_section_min(sse_at, lo, hi, tol=1e-10))
        best_c = min(candidates, key=sse_at)

    y = np.log(losses - best_c)
    intercept, slope, sse, sst = _loglog_regression(log_n, y)
    b = -slope
    if b <= 0:
        raise FitError("fitted exponent is not positive; losses are not decaying")
    r2 = 1.0 - sse / sst if sst > 0 else 1.0
    with np.errstate(over="ignore"):  # not math.exp, which can differ in the last bit
        a = float(np.exp(intercept))
    if not math.isfinite(a):
        raise FitError(f"fitted scale a = exp({intercept!r}) is not finite")
    return PowerLawFit(a=a, b=b, c=best_c, r2=r2, n_points=len(points))


# ---------------------------------------------------------------------------
# Crossing points.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossingPoint:
    """Minimal training tokens where the pool beats the filtered target.

    ``crossing_tokens`` is None when no crossing is observed and the
    fitted pool asymptote never reaches the target ("never" case).
    """

    model_params: int
    pool_tokens: int
    crossing_tokens: float | None
    observed: bool

    def __post_init__(self) -> None:
        for name in ("model_params", "pool_tokens"):  # fitted in log space or as a float
            value = getattr(self, name)
            if not 0 < value <= sys.float_info.max:
                raise ValidationError(f"{name} must be > 0 and within the float range, "
                                      f"got {value!r}")
        if self.crossing_tokens is not None:
            positive("crossing_tokens", self.crossing_tokens)
        elif self.observed:
            raise ValidationError("an observed crossing needs crossing_tokens, got NEVER")

    @property
    def never(self) -> bool:
        return self.crossing_tokens is None

    @property
    def epochs_at_cross(self) -> float | None:
        if self.crossing_tokens is None:
            return None
        return self.crossing_tokens / self.pool_tokens

    @property
    def extreme_epochs(self) -> bool:
        ep = self.epochs_at_cross
        return ep is not None and ep > EXTREME_EPOCHS_FLAG


def _loss_curve(
    runs: Sequence[RunRecord], eval_sets: Sequence[str]
) -> list[tuple[float, float]]:
    """(tokens_seen, mean loss) over all eval points; duplicates take the min."""
    by_tokens: dict[int, float] = {}
    for record in runs:
        for point, loss in zip(record.eval_points, point_losses(record.eval_points, eval_sets)):
            prev = by_tokens.get(point.tokens_seen)
            by_tokens[point.tokens_seen] = loss if prev is None else min(prev, loss)
    return sorted(by_tokens.items())


@dataclass(frozen=True, slots=True)
class PendingCrossing:
    """A cell whose crossing must be extrapolated, detached from its run records.

    ``tokens`` and ``losses`` are the pool's loss curve as flat float buffers.
    """

    model_params: int
    pool_tokens: int
    target: float
    tokens: array
    losses: array


def _reduce_cell(
    pool_runs: Sequence[RunRecord],
    filtered_runs: Sequence[RunRecord],
    model_params: int,
    pool_tokens: int,
    eval_sets: Sequence[str] | None = None,
) -> CrossingPoint | PendingCrossing:
    """The reduce phase of :func:`crossing_point`, in pure Python.

    Makes every check on the cell's records, then computes the filtered
    target and the pool curve.  An observed cell comes back as its final
    :class:`CrossingPoint`, any other as a :class:`PendingCrossing`.
    Nothing returned refers to the records or to an object the JSON
    parser made: each such object that survives keeps its memory arena
    from being reused once the records are freed.
    """
    from array import array  # imported here, so that pareto and scaling-law do not load it

    if not pool_runs or not filtered_runs:
        raise ValidationError("crossing_point requires non-empty pool and filtered runs")
    for record in list(pool_runs) + list(filtered_runs):
        if record.model.total_params != model_params:
            raise ValidationError(
                f"record {record.dataset_label!r} has model size "
                f"{record.model.total_params}, expected {model_params}"
            )
        if record.pool_tokens != pool_tokens:
            raise ValidationError(
                f"record {record.dataset_label!r} has pool_tokens "
                f"{record.pool_tokens}, expected {pool_tokens}"
            )
    sets = eval_set_names(pool_runs[0], eval_sets)
    target = best_achievable(filtered_runs, sets)
    curve = _loss_curve(pool_runs, sets)
    tokens, losses = array("d", [n for n, _ in curve]), array("d", [loss for _, loss in curve])
    model_params, pool_tokens = model_params + 0, pool_tokens + 0  # not the parser's ints

    for n, loss in zip(tokens, losses):
        if loss < target:  # the curve is sorted, so n is the smallest winning tokens_seen
            try:
                return CrossingPoint(model_params, pool_tokens, n, observed=True)
            except ValidationError as exc:
                raise ValidationError(f"crossing for cell (model_params={model_params}, "
                                      f"pool_tokens={pool_tokens}): {exc}") from exc
    return PendingCrossing(model_params, pool_tokens, target, tokens, losses)


def _group_by_cell(records: Sequence[RunRecord]) -> dict[tuple[int, int], list[RunRecord]]:
    """Records keyed by (model total params, pool tokens), in log order within each cell."""
    cells: dict[tuple[int, int], list[RunRecord]] = {}
    for record in records:
        cells.setdefault((record.model.total_params, record.pool_tokens), []).append(record)
    return cells


def reduce_crossings(
    records: Sequence[RunRecord],
    pool_label: str,
    filtered_label: str,
    eval_sets: Sequence[str] | None = None,
) -> list[CrossingPoint | PendingCrossing]:
    """The reduce phase of every cell that has runs of both labels, in sorted cell order.

    Each cell is checked and reduced as :func:`crossing_point` would,
    without numpy, so a check failing in any cell is raised before any
    fit runs.  The result holds nothing of ``records``: given a log that
    no caller keeps, as in ``reduce_crossings(load_run_log(path), ...)``,
    the log is freed when this returns, and numpy and the fits of
    :func:`fit_crossing` reuse its memory.
    """
    pool_runs = [r for r in records if r.dataset_label == pool_label]
    filtered_runs = [r for r in records if r.dataset_label == filtered_label]
    if not pool_runs or not filtered_runs:
        raise ValidationError(f"need runs for both labels {pool_label!r} and {filtered_label!r}")
    pool_cells, filtered_cells = _group_by_cell(pool_runs), _group_by_cell(filtered_runs)
    cells = sorted(pool_cells.keys() & filtered_cells.keys())
    if not cells:
        raise ValidationError("no (model size, pool size) cell is present for both labels")
    return [
        _reduce_cell(pool_cells[cell], filtered_cells[cell], *cell, eval_sets) for cell in cells
    ]


def fit_crossing(cell: CrossingPoint | PendingCrossing) -> CrossingPoint:
    """The fit phase of :func:`crossing_point`; a CrossingPoint is returned as it is.

    A pending cell's pool curve is extrapolated with :func:`fit_power_law`:
    a finite answer comes from inverting the fitted law, and an asymptote
    at or above the target means the crossing never happens.
    """
    if isinstance(cell, CrossingPoint):
        return cell
    try:
        fit = fit_power_law(list(zip(cell.tokens, cell.losses)))
        crossing_tokens = fit.solve_for(cell.target) if fit.c < cell.target else None
    except FitError as exc:
        raise FitError(
            f"crossing fit for cell (model_params={cell.model_params}, "
            f"pool_tokens={cell.pool_tokens}): {exc}"
        ) from exc
    return CrossingPoint(cell.model_params, cell.pool_tokens, crossing_tokens, observed=False)


def crossing_point(
    pool_runs: Sequence[RunRecord],
    filtered_runs: Sequence[RunRecord],
    model_params: int,
    pool_tokens: int,
    eval_sets: Sequence[str] | None = None,
) -> CrossingPoint:
    """Estimate the minimal winning token count for one (model, pool) cell.

    The filtered target is the best loss over ``filtered_runs``.  If any
    pool eval point already beats it, the smallest such tokens_seen is
    returned as an observed crossing.  Otherwise the pool curve is
    extrapolated with :func:`fit_power_law`.  This is :func:`fit_crossing`
    of the cell's reduce phase; :func:`reduce_crossings` runs that phase on
    every cell of a log, so that the log can be freed before any fit.
    """
    return fit_crossing(_reduce_cell(pool_runs, filtered_runs, model_params, pool_tokens,
                                     eval_sets))


# ---------------------------------------------------------------------------
# Quadratic crossing fits in log10-log10 space.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadFit:
    """Degree-2 fit of log10(crossing tokens) against log10(pool tokens)."""

    model_params: int
    coeffs: tuple[float, float, float]  # highest degree first
    residuals: tuple[float, ...]
    points: tuple[tuple[float, float], ...]  # (pool_tokens, crossing_tokens)

    def predict_log10(self, log10_pool: float) -> float:
        c2, c1, c0 = self.coeffs
        return c2 * log10_pool**2 + c1 * log10_pool + c0

    def predict(self, pool_tokens: float) -> float:
        return 10.0 ** self.predict_log10(math.log10(pool_tokens))

    def invert_smaller_root(self, level: float, slope: float = 0.0) -> float:
        """Smaller pool size at which the fit meets the line ``level * pool**slope``.

        Slope 0 fixes the crossing tokens at ``level``; slope 1 fixes the epochs
        at ``level``.  The smaller pool reaches a given crossing first.  Raises
        FitError if the fit coincides with the line, NoRootError if it never meets it.
        """
        c2, c1, c0 = self.coeffs
        a1, a0 = c1 - slope, c0 - math.log10(level)
        line = f"the line {level:g} * pool^{slope:g}"
        flat = abs(c2) < 1e-12
        if flat and abs(a1) >= 1e-12:
            return 10.0 ** (-a0 / a1)
        if flat and abs(a0) < 1e-12:
            raise FitError(f"model {self.model_params}: quadratic coincides with {line}; "
                           "intersection is not unique")
        disc = a1 * a1 - 4.0 * c2 * a0
        if flat or disc < 0:
            raise NoRootError(f"model {self.model_params}: quadratic never meets {line}")
        root = math.sqrt(disc)
        return 10.0 ** min((-a1 - root) / (2 * c2), (-a1 + root) / (2 * c2))


def fit_crossing_quadratic(crossings: Sequence[CrossingPoint]) -> QuadFit:
    """Least-squares quadratic through one model size's finite crossings.

    Raises FitError unless the finite crossings lie at 3 or more distinct pool sizes.
    """
    import numpy as np

    finite = [c for c in crossings if not c.never]
    if len(finite) < 3:
        never_pools = [c.pool_tokens for c in crossings if c.never]
        raise FitError(
            f"need >= 3 finite crossings, got {len(finite)} "
            f"(never at pool sizes: {never_pools})"
        )
    sizes = {c.model_params for c in finite}
    if len(sizes) > 1:
        raise ValidationError(f"crossings span multiple model sizes: {sorted(sizes)}")
    pools = sorted({c.pool_tokens for c in finite})
    if len(pools) < 3:  # a quadratic through fewer distinct x values is not determined
        raise FitError(f"need finite crossings at >= 3 distinct pool sizes, got {pools}")
    x = np.log10([float(c.pool_tokens) for c in finite])  # an int past int64 has no log10
    y = np.log10([c.crossing_tokens for c in finite])
    coeffs = np.polyfit(x, y, 2)
    residuals = y - np.polyval(coeffs, x)
    return QuadFit(
        model_params=finite[0].model_params,
        coeffs=(float(coeffs[0]), float(coeffs[1]), float(coeffs[2])),
        residuals=tuple(float(r) for r in residuals),
        points=tuple((float(c.pool_tokens), float(c.crossing_tokens)) for c in finite),
    )


# ---------------------------------------------------------------------------
# Compute threshold laws.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdPoint:
    model_params: int
    pool_tokens: float
    crossing_tokens: float
    compute: float

    def __post_init__(self) -> None:
        for name in ("model_params", "pool_tokens", "crossing_tokens", "compute"):  # log space
            positive(f"model {self.model_params}: {name}", getattr(self, name))


@dataclass(frozen=True)
class ThresholdLaw:
    """Power law ``compute = alpha * pool_tokens**beta`` through threshold points."""

    method: str  # "tokens_per_param" | "epoch_constraint"
    parameter: float
    points: tuple[ThresholdPoint, ...]
    alpha: float
    beta: float
    r2: float

    def __post_init__(self) -> None:
        # at least 3 points, as every fitted law has; a NaN fails each range test
        if len(self.points) < 3:
            raise ValidationError(f"threshold law needs >= 3 points, got {len(self.points)}")
        if not (-math.inf < self.alpha < math.inf and -math.inf < self.beta < math.inf):
            raise ValidationError(f"threshold law alpha and beta must be finite, got "
                                  f"{self.alpha!r} and {self.beta!r}")
        if not self.alpha > 0:  # so that every compute it predicts is > 0
            raise ValidationError(f"threshold law alpha must be > 0, got {self.alpha!r}")

    def predict_compute(self, pool_tokens: float) -> float:
        return self.alpha * pool_tokens**self.beta

    @classmethod
    def from_dict(cls, obj: object) -> "ThresholdLaw":
        """Inverse of ``dataclasses.asdict``; keys other than the fields are ignored."""
        return read_record(cls, obj, points=lambda name, value: tuple(
            read_record(ThresholdPoint, p) for p in items(name, value)))


def extrapolate_compute(law: ThresholdLaw, pool_tokens: float) -> float:
    """Compute needed for the unfiltered pool to win at ``pool_tokens``."""
    if not (math.isfinite(pool_tokens) and pool_tokens > 0):
        raise ValidationError(f"pool_tokens must be positive and finite, got {pool_tokens!r}")
    try:
        compute = law.predict_compute(pool_tokens)
    except OverflowError:  # from pool_tokens**beta; alpha * a finite power overflows to inf
        compute = math.inf
    if not 0 < compute < math.inf:  # alpha > 0, so compute is 0.0 only by underflow
        raise ValidationError(f"compute at pool_tokens {pool_tokens!r} "
                              f"{'overflows' if compute else 'underflows to 0.0'}")
    return compute


def _threshold_law(
    method: str,
    parameter: float,
    quads: Mapping[int, QuadFit],
    line: Callable[[int], tuple[float, float]],
) -> ThresholdLaw:
    """Law through the smaller pool at which each model's quadratic meets its line
    ``crossing_tokens = level * pool**slope``, with ``(level, slope) = line(model_params)``."""
    import numpy as np

    points: list[ThresholdPoint] = []
    for model_params in sorted(quads):
        level, slope = line(model_params)
        try:
            pool_tokens = quads[model_params].invert_smaller_root(level, slope)
        except NoRootError as exc:  # stacklevel 3: the caller of the public law function
            warnings.warn(f"{exc}; excluded from the {method} law", RuntimeWarning, stacklevel=3)
            continue
        crossing_tokens = level * pool_tokens**slope
        points.append(ThresholdPoint(model_params, pool_tokens, crossing_tokens,
                                     6.0 * crossing_tokens * model_params))
    if len(points) < 3:
        raise FitError(f"threshold law needs >= 3 model sizes, got {len(points)}")
    if len({p.pool_tokens for p in points}) < 2:
        raise FitError("threshold points share one pool size; the law's slope is undetermined")
    x = np.log10([p.pool_tokens for p in points])
    y = np.log10([p.compute for p in points])
    intercept, beta, sse, sst = _loglog_regression(x, y)
    r2 = 1.0 - sse / sst if sst > 0 else 1.0
    try:
        alpha = 10.0**intercept
    except OverflowError:
        raise FitError(f"fitted scale alpha = 10**{intercept!r} is not finite") from None
    return ThresholdLaw(method, parameter, tuple(points), alpha, beta, r2)


def fit_threshold_tokens_per_param(
    quads: Mapping[int, QuadFit],
    configs: Sequence[ModelConfig],
    ratio: float,
) -> ThresholdLaw:
    """Threshold law from a fixed training-tokens-per-non-embedding-parameter ratio.

    Each model's line is flat at ``ratio * non_embedding_params`` crossing
    tokens, and the compute is ``6 * crossing_tokens * total_params``.  A
    model missing from ``configs`` is a ValidationError.  A model whose
    quadratic never meets its line is left out of the law with one
    RuntimeWarning; a quadratic that coincides with its line is a FitError.
    """
    positive("tokens-per-param ratio", ratio)
    by_total = {cfg.total_params: cfg for cfg in configs}

    def line(model_params: int) -> tuple[float, float]:
        cfg = by_total.get(model_params)
        if cfg is None:
            raise ValidationError(f"no ModelConfig with total_params={model_params}")
        return ratio * cfg.non_embedding_params, 0.0

    return _threshold_law("tokens_per_param", ratio, quads, line)


def fit_threshold_epoch_constraint(
    quads: Mapping[int, QuadFit],
    epochs: float,
) -> ThresholdLaw:
    """Threshold law from a fixed epoch count.

    Each model's line is ``crossing_tokens = epochs * pool``, and the
    compute is ``6 * crossing_tokens * model_params``.  Models are left
    out, or raise, as in :func:`fit_threshold_tokens_per_param`.
    """
    positive("epochs", epochs)
    return _threshold_law("epoch_constraint", epochs, quads, lambda model_params: (epochs, 1.0))
