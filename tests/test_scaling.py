import math
import sys
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poollab import (
    CrossingPoint,
    FitError,
    FrontierPoint,
    ModelConfig,
    PendingCrossing,
    ValidationError,
    crossing_point,
    extrapolate_compute,
    fit_crossing,
    fit_crossing_quadratic,
    fit_power_law,
    fit_threshold_epoch_constraint,
    fit_threshold_tokens_per_param,
    pareto_frontier,
    reduce_crossings,
)
from poollab.errors import NoRootError
from poollab.io import (
    field_names, positive, read_json, read_record, read_rows, write_json, write_rows,
)
from poollab.runlog import EvalPoint, RunRecord, best_achievable, point_loss
from poollab.scaling import (
    PowerLawFit,
    QuadFit,
    ThresholdLaw,
    ThresholdPoint,
    _asymptote_grid,
    _golden_section_min,
    _loss_curve,
    _loglog_regression,
    _reduce_cell,
    _sorted_unique,
)

from worldgen import bisect_root, curve_run, planted_threshold_world, qeval

TINY = ModelConfig(
    name="tiny", hidden_dim=16, layers=1, heads=1, head_dim=16, ffn_dim=64,
    vocab_size=100, total_params=1_000_000, non_embedding_params=500_000,
)


def fp(compute, loss, ref="r0", label="cc"):
    return FrontierPoint(compute=compute, loss=loss, dataset_label=label, record_ref=ref)


class TestParetoFrontier:
    def test_single_point(self):
        p = fp(1e18, 3.5)
        assert pareto_frontier([p]) == [p]

    def test_dominated_point_removed(self):
        pts = [fp(1e18, 3.5, "a"), fp(2e18, 3.4, "b"), fp(3e18, 3.45, "c")]
        assert [p.record_ref for p in pareto_frontier(pts)] == ["a", "b"]

    def test_duplicates_keep_lower_ref(self):
        pts = [fp(1e18, 3.5, "b"), fp(1e18, 3.5, "a")]
        assert [p.record_ref for p in pareto_frontier(pts)] == ["a"]

    def test_equal_compute_keeps_best_loss(self):
        pts = [fp(1e18, 3.5, "a"), fp(1e18, 3.2, "b")]
        assert [p.record_ref for p in pareto_frontier(pts)] == ["b"]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=30),
                st.integers(min_value=1, max_value=30),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_frontier_properties(self, raw):
        pts = [fp(float(c), float(l), f"r{i}") for i, (c, l) in enumerate(raw)]
        frontier = pareto_frontier(pts)
        computes = [p.compute for p in frontier]
        losses = [p.loss for p in frontier]
        assert computes == sorted(computes)
        assert all(b < a for a, b in zip(losses, losses[1:]))
        frontier_keys = {(p.compute, p.loss) for p in frontier}
        for p in pts:
            dominated_or_member = (p.compute, p.loss) in frontier_keys or any(
                q.compute <= p.compute
                and q.loss <= p.loss
                and (q.compute < p.compute or q.loss < p.loss)
                for q in frontier
            )
            assert dominated_or_member


def reference_fit_power_law(points):
    """The fit as first written: the scalar ``sse_at`` at every grid candidate, one by one."""
    if len(points) < 3:
        raise FitError(f"power-law fit needs >= 3 points, got {len(points)}")
    n = np.array([p[0] for p in points], dtype=float)
    losses = np.array([p[1] for p in points], dtype=float)
    if np.any(np.diff(n) <= 0):
        raise FitError("token counts must be strictly increasing")
    if np.any(losses <= 0):
        raise FitError("losses must be positive")
    if np.all(np.diff(losses) >= 0):
        raise FitError("losses are not decaying; cannot fit a decreasing power law")

    log_n = np.log(n)
    design = np.column_stack([np.ones_like(log_n), log_n])
    solve = np.linalg.pinv(design)

    def sse_at(c):
        y = np.log(losses - c)
        coef = solve @ y
        resid = y - design @ coef
        return float(resid @ resid)

    loss_min = float(losses.min())
    c_hi = loss_min - 1e-9 * max(1.0, abs(loss_min))
    if c_hi <= 0.0:
        best_c = 0.0
    else:
        grid = _asymptote_grid(loss_min, c_hi, losses)
        sses = np.array([sse_at(float(c)) for c in grid])
        candidates = [float(grid[int(np.argmin(sses))])]
        for i in range(len(grid)):
            left = sses[i - 1] if i > 0 else math.inf
            right = sses[i + 1] if i + 1 < len(grid) else math.inf
            if sses[i] <= left and sses[i] <= right:
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
    return PowerLawFit(a=float(np.exp(intercept)), b=b, c=best_c, r2=r2, n_points=len(points))


def fit_outcome(fit, points):
    """The fit, or the type and message of the FitError it raised."""
    try:
        return fit(points)
    except FitError as exc:
        return type(exc), str(exc)


@st.composite
def power_law_points(draw):
    """(N, loss) samples that stress the asymptote search.

    Curves ``c + a*N^-b`` with relative noise, near-zero and tiny
    asymptotes (down to the ``c_hi <= 0`` branch), plateaus where the
    loss repeats, near-constant curves whose grid SSEs differ only in
    the last bits, and raw positive values that may not decay at all.
    """
    size = draw(st.integers(min_value=3, max_value=12))
    exps = sorted(draw(st.lists(st.floats(0.0, 12.0), min_size=size, max_size=size, unique=True)))
    tokens = sorted({float(round(10.0 ** e)) for e in exps})
    kind = draw(st.sampled_from(["curve", "zero_asymptote", "tiny", "plateau", "flat", "raw"]))
    if kind == "raw":
        floats = st.floats(1e-3, 10.0, allow_nan=False)
        losses = draw(st.lists(floats, min_size=len(tokens), max_size=len(tokens)))
    else:
        a = draw(st.floats(1e-3, 50.0))
        b = draw(st.floats(0.05, 1.5))
        c = 0.0 if kind == "zero_asymptote" else draw(st.floats(0.0, 5.0))
        scale = 1e-12 if kind == "tiny" else 1.0
        noise = draw(st.lists(st.floats(-0.02, 0.02), min_size=len(tokens),
                              max_size=len(tokens)))
        if kind == "zero_asymptote":
            noise = [0.0] * len(tokens)
        losses = [scale * (c + a * x**-b) * (1.0 + e) for x, e in zip(tokens, noise)]
        if kind == "flat":  # 1 + a tiny decay: SSE differences near rounding
            tiny = 10.0 ** draw(st.floats(-16.0, -9.0))
            losses = [1.0 + c + tiny * (loss - c) for loss in losses]
        if kind == "plateau":  # repeat stretches of the curve exactly
            step = draw(st.integers(min_value=2, max_value=4))
            losses = [losses[i - i % step] for i in range(len(losses))]
    return list(zip(tokens, losses))


class TestSortedUnique:
    # few distinct values, ±0.0 among them, so that most values repeat
    repeating = st.lists(st.floats(allow_nan=False), min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from([*pool, 0.0, -0.0]), max_size=800))

    @given(st.one_of(st.lists(st.floats(allow_nan=False), max_size=60), repeating))
    @settings(max_examples=300, deadline=None)
    def test_equals_np_unique_bit_for_bit(self, values):
        array = np.array(values, dtype=float)
        expected = np.unique(array)
        assert _sorted_unique(array).tobytes() == expected.tobytes()


class TestFitPowerLaw:
    @given(power_law_points())
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_reference_exactly(self, points):
        # the batched grid SSE must pick exactly the candidates, and so the
        # fit, of the scalar loop; errors must be the same FitError
        assert fit_outcome(fit_power_law, points) == fit_outcome(reference_fit_power_law, points)

    def test_equals_scalar_reference_on_flat_and_tiny_curves(self):
        n = [10.0**e for e in range(1, 9)]
        cases = [
            [(x, 3.0 * x**-1.0) for x in n],  # exact power law: SSE is rounding noise near c=0
            [(x, 1e-10 * (1.0 + x**-0.5)) for x in n],  # c_hi <= 0
            [(x, 2.0 + 1e-14 * x**-0.5) for x in n],  # grid SSEs differ in the last bits
            [(x, loss) for x, loss in zip(n, [4.0, 4.0, 3.0, 3.0, 3.0, 2.5, 2.5, 2.5])],
        ]
        for points in cases:
            assert fit_outcome(fit_power_law, points) == fit_outcome(
                reference_fit_power_law, points
            )

    @pytest.mark.parametrize("tokens", [
        [0.0, 10.0, 100.0, 1000.0],
        [-10.0, 10.0, 100.0, 1000.0],
        [10.0, 100.0, 1000.0, math.inf],
        [math.nan, 10.0, 100.0, 1000.0],
        [10, 100, 1000, 10**400],  # an int beyond the float range
    ])
    def test_tokens_must_be_finite_and_positive(self, tokens):
        points = [(x, loss) for x, loss in zip(tokens, [4.0, 3.0, 2.5, 2.2])]
        with pytest.raises(FitError, match="token counts must be finite and positive"):
            fit_power_law(points)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_losses_must_be_finite(self, bad):
        with pytest.raises(FitError, match="losses must be finite"):
            fit_power_law([(10.0, bad), (100.0, 3.0), (1000.0, 2.5), (10000.0, 2.2)])

    def test_scale_beyond_float_range_raises_without_numpy_warnings(self):
        # log(L - c) at the first point is about 709, so exp(intercept) overflows
        tokens = [1000.0, 2000.0, 4000.0, 8000.0]
        points = [(tokens[0], 1e308)] + [(x, 3.0 + 2.0 * x**-0.3) for x in tokens[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match=r"fitted scale a = exp\(.*\) is not finite"):
                fit_power_law(points)

    def test_recovers_saturating_curve(self):
        n = np.logspace(2, 6, 12)
        fit = fit_power_law([(x, 2.0 + 5.0 * x**-0.5) for x in n])
        assert fit.a == pytest.approx(5.0, rel=1e-3)
        assert fit.b == pytest.approx(0.5, rel=1e-3)
        assert fit.c == pytest.approx(2.0, rel=1e-3)
        assert fit.r2 >= 0.999

    def test_pure_power_law_exponent(self):
        n = np.logspace(1, 5, 9)
        fit = fit_power_law([(x, 3.0 * x**-1.0) for x in n])
        assert fit.b == pytest.approx(1.0, rel=1e-6)
        assert fit.c <= 1e-8

    def test_constant_losses_error(self):
        with pytest.raises(FitError, match="not decaying"):
            fit_power_law([(10, 2.0), (100, 2.0), (1000, 2.0)])

    def test_increasing_losses_error(self):
        with pytest.raises(FitError, match="not decaying"):
            fit_power_law([(10, 2.0), (100, 2.1), (1000, 2.2)])

    def test_needs_three_points(self):
        with pytest.raises(FitError):
            fit_power_law([(10, 2.0), (100, 1.0)])

    def test_unsorted_tokens_error(self):
        with pytest.raises(FitError):
            fit_power_law([(100, 2.0), (10, 3.0), (1000, 1.0)])

    def test_noiseless_recovery_within_one_percent(self):
        import random

        rng = random.Random(1234)
        n = np.logspace(2, 5, 10)
        for _ in range(25):
            a = rng.uniform(0.5, 10.0)
            b = rng.uniform(0.1, 1.0)
            c = rng.uniform(0.0, 4.0)
            fit = fit_power_law([(x, c + a * x**-b) for x in n])
            assert abs(fit.a - a) <= 0.01 * a
            assert abs(fit.b - b) <= 0.01 * b
            assert abs(fit.c - c) <= 0.01 * max(c, 1e-3)
            assert fit.r2 >= 0.999

    def test_deterministic(self):
        pts = [(10.0, 3.0), (100.0, 2.0), (1000.0, 1.8), (10000.0, 1.7)]
        f1, f2 = fit_power_law(pts), fit_power_law(pts)
        assert (f1.a, f1.b, f1.c, f1.r2) == (f2.a, f2.b, f2.c, f2.r2)


class TestCrossingPoint:
    def pool_filtered(self, pool_curve, filtered_best, grid):
        pool = [curve_run("cc", TINY, 1000, *pool_curve, tokens_grid=grid)]
        filtered = [
            curve_run("rw", TINY, 1000, 0.0, 1.0, filtered_best, tokens_grid=grid[:3])
        ]
        # constant-at-target filtered curve: c + 0*... decays from tiny a
        return pool, filtered

    def test_closed_form_inversion_matches_bisection(self):
        # pool curve 3 + 2*N^-0.3, filtered target 3.5: crossing at
        # (2 / 0.5)^(1/0.3) ~ 101.6 -- beyond the observed grid.
        grid = [2, 4, 8, 16, 32, 64]
        pool = [curve_run("cc", TINY, 1000, 2.0, 0.3, 3.0, tokens_grid=grid)]
        filtered = [curve_run("rw", TINY, 1000, 1e-9, 0.5, 3.5, tokens_grid=grid)]
        cp = crossing_point(pool, filtered, TINY.total_params, 1000)
        expected = (2.0 / 0.5) ** (1.0 / 0.3)
        assert not cp.observed and not cp.never
        assert cp.crossing_tokens == pytest.approx(expected, rel=1e-6)
        target = min(3.5 + 1e-9 * n**-0.5 for n in grid)  # filtered best_achievable
        oracle = bisect_root(
            lambda n: (3.0 + 2.0 * n**-0.3) - target, lo=1.0, hi=1e6, tol=1e-9
        )
        assert cp.crossing_tokens == pytest.approx(oracle, rel=1e-5)
        assert cp.epochs_at_cross == pytest.approx(cp.crossing_tokens / 1000)

    def test_never_when_asymptote_dominates(self):
        grid = [2, 4, 8, 16, 32, 64]
        pool = [curve_run("cc", TINY, 1000, 2.0, 0.3, 3.6, tokens_grid=grid)]
        filtered = [curve_run("rw", TINY, 1000, 1e-9, 0.5, 3.5, tokens_grid=grid)]
        cp = crossing_point(pool, filtered, TINY.total_params, 1000)
        assert cp.never
        assert cp.crossing_tokens is None and cp.epochs_at_cross is None

    def test_observed_immediate_win(self):
        grid = [2, 4, 8, 16]
        pool = [curve_run("cc", TINY, 1000, 1.0, 0.5, 2.0, tokens_grid=grid)]
        filtered = [curve_run("rw", TINY, 1000, 1e-9, 0.5, 4.0, tokens_grid=grid)]
        cp = crossing_point(pool, filtered, TINY.total_params, 1000)
        assert cp.observed
        assert cp.crossing_tokens == 2.0

    def test_observed_minimal_winning_point(self):
        grid = [10, 100, 1000, 10000]
        pool = [curve_run("cc", TINY, 1000, 2.0, 0.4, 3.0, tokens_grid=grid)]
        filtered = [curve_run("rw", TINY, 1000, 1e-9, 0.5, 3.3, tokens_grid=grid)]
        cp = crossing_point(pool, filtered, TINY.total_params, 1000)
        assert cp.observed
        losses = {n: 3.0 + 2.0 * n**-0.4 for n in grid}
        expected = min(n for n, loss in losses.items() if loss < 3.3)
        assert cp.crossing_tokens == expected

    def test_extrapolated_satisfies_fitted_law(self):
        grid = [2, 4, 8, 16, 32, 64]
        pool_runs = [curve_run("cc", TINY, 1000, 2.0, 0.3, 3.0, tokens_grid=grid)]
        filtered = [curve_run("rw", TINY, 1000, 1e-9, 0.5, 3.5, tokens_grid=grid)]
        cp = crossing_point(pool_runs, filtered, TINY.total_params, 1000)
        refit = fit_power_law([(n, 3.0 + 2.0 * n**-0.3) for n in grid])
        target = min(3.5 + 1e-9 * n**-0.5 for n in grid)
        assert refit.predict(cp.crossing_tokens) == pytest.approx(target, rel=1e-9)

    def test_mismatched_cell_rejected(self):
        grid = [2, 4, 8]
        pool = [curve_run("cc", TINY, 1000, 1.0, 0.5, 2.0, tokens_grid=grid)]
        filtered = [curve_run("rw", TINY, 2000, 1e-9, 0.5, 4.0, tokens_grid=grid)]
        with pytest.raises(ValidationError):
            crossing_point(pool, filtered, TINY.total_params, 1000)

    def test_failed_fit_names_the_cell(self):
        grid = [2, 4, 8, 16]
        pool = [curve_run("cc", TINY, 1000, -1.0, 0.5, 3.0, tokens_grid=grid)]  # rising
        filtered = [curve_run("rw", TINY, 1000, 1e-9, 0.5, 2.0, tokens_grid=grid)]
        with pytest.raises(FitError, match=r"^crossing fit for cell \(model_params=1000000, "
                                           r"pool_tokens=1000\): losses are not decaying"):
            crossing_point(pool, filtered, TINY.total_params, 1000)

    def test_crossing_beyond_float_range_names_the_cell(self):
        # a nearly flat pool curve whose asymptote sits just below the target
        grid = [2, 4, 8, 16, 32, 64]
        pool = [curve_run("cc", TINY, 1000, 2.0, 0.005, 3.0, tokens_grid=grid)]
        filtered = [curve_run("rw", TINY, 1000, 1e-9, 0.5, 3.0001, tokens_grid=grid)]
        with pytest.raises(FitError, match=r"^crossing fit for cell \(model_params=1000000, "
                                           r"pool_tokens=1000\): the fitted curve reaches "
                                           r"target .* only beyond the float range$"):
            crossing_point(pool, filtered, TINY.total_params, 1000)

    def test_extreme_epoch_flag(self):
        cp = CrossingPoint(
            model_params=1, pool_tokens=1000, crossing_tokens=130_000.0, observed=False
        )
        assert cp.extreme_epochs
        cp2 = CrossingPoint(
            model_params=1, pool_tokens=1000, crossing_tokens=121_600.0, observed=False
        )
        assert not cp2.extreme_epochs


@st.composite
def eval_runs(draw):
    """Runs over three eval sets whose tokens_seen collide within and across runs."""
    losses = st.floats(min_value=1e-3, max_value=20.0)
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        seen = sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=8)))
        points = tuple(
            EvalPoint(tokens_seen=n, losses={s: draw(losses) for s in "abc"}) for n in seen
        )
        runs.append(RunRecord(dataset_label="cc", model=TINY, train_tokens=seen[-1],
                              pool_tokens=1000, eval_points=points))
    return runs, draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))


class TestLossCurve:
    @given(eval_runs())
    @settings(max_examples=150, deadline=None)
    def test_equals_per_point_reference(self, case):
        runs, sets = case
        by_tokens = {}
        for record in runs:
            for point in record.eval_points:
                loss = point_loss(point, sets)
                by_tokens[point.tokens_seen] = min(by_tokens.get(point.tokens_seen, loss), loss)
        assert _loss_curve(runs, sets) == sorted(by_tokens.items())

    def test_missing_set_names_the_point(self):
        points = (EvalPoint(1, {"a": 2.0, "b": 2.0}), EvalPoint(3, {"a": 1.0}))
        run = RunRecord(dataset_label="cc", model=TINY, train_tokens=3, pool_tokens=1000,
                        eval_points=points)
        with pytest.raises(ValidationError, match=r"tokens_seen=3 missing sets \['b'\]"):
            _loss_curve([run], ["a", "b"])


def reference_crossing_point(pool_runs, filtered_runs, model_params, pool_tokens, eval_sets=None):
    """``crossing_point`` as one function, as it was before it was split into
    a reduce and a fit phase, but naming the cell of a bad observed crossing."""
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
    sets = list(eval_sets) if eval_sets else sorted(pool_runs[0].eval_points[0].losses)
    target = best_achievable(filtered_runs, sets)
    curve = _loss_curve(pool_runs, sets)
    winning = [tokens for tokens, loss in curve if loss < target]
    if winning:
        try:
            return CrossingPoint(model_params, pool_tokens, float(min(winning)), observed=True)
        except ValidationError as exc:
            raise ValidationError(f"crossing for cell (model_params={model_params}, "
                                  f"pool_tokens={pool_tokens}): {exc}") from exc
    try:
        fit = fit_power_law(curve)
    except FitError as exc:
        raise FitError(
            f"crossing fit for cell (model_params={model_params}, "
            f"pool_tokens={pool_tokens}): {exc}"
        ) from exc
    if fit.c < target:  # PowerLawFit.solve_for as it was, letting an OverflowError escape
        crossing = (fit.a / (target - fit.c)) ** (1.0 / fit.b)
        return CrossingPoint(model_params, pool_tokens, crossing, observed=False)
    return CrossingPoint(model_params, pool_tokens, None, observed=False)


@st.composite
def crossing_cells(draw):
    """One cell's pool and filtered runs: decaying, flat or rising curves over
    colliding token grids that may start at 0, some points without set "b",
    and now and then a record of another pool size."""
    def runs(label, count):
        out = []
        for _ in range(count):
            seen = sorted(draw(st.lists(st.integers(0, 64), min_size=1, max_size=7)))
            a, b, c = (draw(st.floats(-0.4, 3.0)), draw(st.floats(0.05, 1.5)),
                       draw(st.floats(0.5, 4.0)))
            with_b = draw(st.sampled_from([True] * 7 + [False]))
            points = tuple(
                EvalPoint(n, {"a": c + a * (n + 1) ** -b + draw(st.floats(0.0, 0.05)),
                              **({"b": draw(st.floats(0.5, 9.0))} if with_b else {})})
                for n in seen
            )
            pool = draw(st.sampled_from([1000] * 15 + [2000]))
            out.append(RunRecord(dataset_label=label, model=TINY, train_tokens=seen[-1],
                                 pool_tokens=pool, eval_points=points))
        return out

    eval_sets = draw(st.sampled_from([None, ["a"], ["a", "b"]]))
    return runs("cc", draw(st.integers(1, 3))), runs("rw", draw(st.integers(1, 2))), eval_sets


class TestCrossingPhases:
    @given(crossing_cells())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_unsplit_function(self, case):
        pool, filtered, eval_sets = case
        args = (pool, filtered, TINY.total_params, 1000, eval_sets)
        try:
            expected = reference_crossing_point(*args)
        except OverflowError:  # a crossing beyond the float range escaped the unsplit function
            with pytest.raises(FitError, match=r"^crossing fit for cell .* beyond the float range"):
                fit_crossing(_reduce_cell(*args))
        except (FitError, ValidationError) as exc:
            with pytest.raises(type(exc)) as raised:
                fit_crossing(_reduce_cell(*args))
            assert str(raised.value) == str(exc)
        else:
            assert fit_crossing(_reduce_cell(*args)) == expected
            assert crossing_point(*args) == expected

    def test_reduced_cell_holds_no_record_object(self):
        # large cell ints, so that equal values are not the interpreter's cached small ints
        model_params, pool_tokens = 10**12, 10**15
        grid = [2, 4, 8, 16, 32, 64]
        model = replace(TINY, total_params=model_params)
        pool = [curve_run("cc", model, pool_tokens, 2.0, 0.3, 3.0, tokens_grid=grid)]
        filtered = [curve_run("rw", model, pool_tokens, 1e-9, 0.5, 3.5, tokens_grid=grid)]
        pending = _reduce_cell(pool, filtered, model.total_params, pool[0].pool_tokens)
        assert isinstance(pending, PendingCrossing)
        assert pending.model_params == model_params and pending.pool_tokens == pool_tokens
        assert pending.model_params is not model.total_params
        assert pending.pool_tokens is not pool[0].pool_tokens
        assert list(pending.tokens) == grid and pending.target == best_achievable(filtered)
        assert fit_crossing(pending) == crossing_point(pool, filtered, model_params, pool_tokens)

    def test_reduce_crossings_takes_each_cell_of_both_labels_in_order(self):
        grid = [2, 4, 8, 16, 32, 64]
        cc_curves = {(10**6, 3000): (2.0, 0.3, 1.0), (10**6, 1000): (2.0, 0.3, 3.0),
                     (10**7, 1000): (2.0, 0.3, 3.6), (10**7, 2000): (2.0, 0.3, 3.0)}
        models = {n: replace(TINY, total_params=n) for n in (10**6, 10**7)}
        runs = {(label, cell): curve_run(label, models[cell[0]], cell[1], *curve, tokens_grid=grid)
                for cell, abc in cc_curves.items()
                for label, curve in [("cc", abc), ("rw", (1e-9, 0.5, 3.5))]}
        del runs["rw", (10**7, 2000)]  # a cell without filtered runs is left out
        reduced = reduce_crossings(list(runs.values())[::-1], "cc", "rw")
        cells = sorted(cc_curves)[:-1]
        assert [fit_crossing(cell) for cell in reduced] == [
            crossing_point([runs["cc", cell]], [runs["rw", cell]], *cell) for cell in cells
        ]
        with pytest.raises(ValidationError, match="need runs for both labels 'cc' and 'web'"):
            reduce_crossings(list(runs.values()), "cc", "web")
        # a dataset against itself would give a crossing in every cell it has
        with pytest.raises(ValidationError,
                           match="^the pool and filtered labels must differ, both are 'cc'$"):
            reduce_crossings(list(runs.values()), "cc", "cc")

    def test_observed_cell_is_final(self):
        grid = [2, 4, 8, 16]
        pool = [curve_run("cc", TINY, 1000, 1.0, 0.5, 2.0, tokens_grid=grid)]
        filtered = [curve_run("rw", TINY, 1000, 1e-9, 0.5, 4.0, tokens_grid=grid)]
        cp = _reduce_cell(pool, filtered, TINY.total_params, 1000)
        assert cp == CrossingPoint(TINY.total_params, 1000, 2.0, observed=True)
        assert fit_crossing(cp) is cp

    @pytest.mark.parametrize("eval_sets,message", [
        # the pool record's first point has none, which the record rejects when built
        (None, "cc: eval point at tokens_seen=2 has no losses"),
        (["avg", "avg"], r"eval sets \['avg', 'avg'\] name a set more than once"),
    ])
    def test_eval_sets_follow_the_runlog_rule(self, eval_sets, message):
        grid = [2, 4, 8, 16]
        pool = curve_run("cc", TINY, 1000, 2.0, 0.3, 3.0, tokens_grid=grid)
        filtered = [curve_run("rw", TINY, 1000, 1e-9, 0.5, 3.5, tokens_grid=grid)]
        with pytest.raises(ValidationError, match=f"^{message}$"):
            if eval_sets is None:
                first, *rest = pool.eval_points
                pool = replace(pool, eval_points=(replace(first, losses={}), *rest))
            _reduce_cell([pool], filtered, TINY.total_params, 1000, eval_sets)

    def last_tokens_cell(self, last_tokens, last_loss):
        """A cell whose pool losses 5.0, 4.0 and ``last_loss`` are at
        tokens_seen 10, 20 and ``last_tokens``, against a filtered best of 3.0."""
        points = tuple(EvalPoint(n, {"avg": loss})
                       for n, loss in [(10, 5.0), (20, 4.0), (last_tokens, last_loss)])
        pool = [RunRecord(dataset_label="cc", model=TINY, train_tokens=last_tokens,
                          pool_tokens=1000, eval_points=points)]
        filtered = [curve_run("rw", TINY, 1000, 1e-9, 0.5, 3.0, tokens_grid=[10, 20])]
        return pool, filtered

    def test_observed_tokens_beyond_float_range_name_the_cell(self):
        # the record rejects the count, so no cell holds it
        with pytest.raises(ValidationError, match="^cc: train_tokens is beyond the float range$"):
            self.last_tokens_cell(10**400, 1.0)
        largest = int(sys.float_info.max)
        cp = _reduce_cell(*self.last_tokens_cell(largest, 1.0), TINY.total_params, 1000)
        assert cp == CrossingPoint(TINY.total_params, 1000, sys.float_info.max, observed=True)

    def test_extrapolated_tokens_beyond_float_range_fail_the_fit(self):
        with pytest.raises(ValidationError, match="^cc: train_tokens is beyond the float range$"):
            self.last_tokens_cell(10**400, 3.5)
        args = (*self.last_tokens_cell(40, 3.5), TINY.total_params, 1000)
        assert fit_crossing(_reduce_cell(*args)) == reference_crossing_point(*args)


class TestCrossingQuadratic:
    def reference_crossings(self):
        # quoted 1B-model anchors: epochs 1, 3, 10 at pools 670M/2B/10B
        data = [(670e6, 1.0), (2e9, 3.0), (10e9, 10.0)]
        return [
            CrossingPoint(
                model_params=10**9,
                pool_tokens=int(m),
                crossing_tokens=m * ep,
                observed=True,
            )
            for m, ep in data
        ]

    def test_three_point_interpolation(self):
        crossings = self.reference_crossings()
        quad = fit_crossing_quadratic(crossings)
        for cp in crossings:
            assert quad.predict(cp.pool_tokens) == pytest.approx(
                cp.crossing_tokens, rel=1e-6
            )

    def test_reference_fit_is_concave_and_increasing(self):
        quad = fit_crossing_quadratic(self.reference_crossings())
        assert quad.coeffs[0] < 0
        grid = np.logspace(math.log10(670e6), 10, 200)
        values = [quad.predict(m) for m in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_collinear_gives_zero_curvature(self):
        crossings = [
            CrossingPoint(model_params=1, pool_tokens=10**k,
                          crossing_tokens=10.0 ** (2 * k), observed=True)
            for k in range(6, 10)
        ]
        quad = fit_crossing_quadratic(crossings)
        assert abs(quad.coeffs[0]) < 1e-9
        assert quad.coeffs[1] == pytest.approx(2.0)

    def test_residuals_self_consistent(self):
        crossings = self.reference_crossings() + [
            CrossingPoint(model_params=10**9, pool_tokens=5 * 10**9,
                          crossing_tokens=4e10, observed=True)
        ]
        quad = fit_crossing_quadratic(crossings)
        for (pool, crossing), resid in zip(quad.points, quad.residuals):
            recomputed = math.log10(crossing) - quad.predict_log10(math.log10(pool))
            assert resid == pytest.approx(recomputed, abs=1e-12)

    def test_never_entries_listed_in_error(self):
        crossings = self.reference_crossings()[:2] + [
            CrossingPoint(model_params=10**9, pool_tokens=10**10,
                          crossing_tokens=None, observed=False)
        ]
        with pytest.raises(FitError, match="10000000000"):
            fit_crossing_quadratic(crossings)

    def test_needs_three_distinct_pool_sizes(self):
        # two crossings at one pool size leave the quadratic undetermined
        crossings = [CrossingPoint(model_params=10**9, pool_tokens=pool,
                                   crossing_tokens=crossing, observed=False)
                     for pool, crossing in [(1000, 4000.0), (1000, 5000.0), (2000, 9000.0)]]
        with pytest.raises(FitError, match=r"^need finite crossings at >= 3 distinct pool "
                                           r"sizes, got \[1000, 2000\]$"):
            fit_crossing_quadratic(crossings)

    def test_pool_sizes_past_int64_are_fitted(self):
        crossings = [CrossingPoint(model_params=10**9, pool_tokens=10**k,
                                   crossing_tokens=10.0 ** (2 * k), observed=True)
                     for k in (19, 20, 21)]
        assert fit_crossing_quadratic(crossings).coeffs[1] == pytest.approx(2.0)

    @pytest.mark.parametrize("pool,crossing,message", [
        (0, 5.0, "pool_tokens must be > 0 and within the float range, got 0"),
        (-10, 5.0, "pool_tokens must be > 0 and within the float range, got -10"),
        (10**400, 5.0, f"pool_tokens must be > 0 and within the float range, got {10**400}"),
        (10, 0.0, "crossing_tokens must be finite and > 0, got 0.0"),
        (10, math.inf, "crossing_tokens must be finite and > 0, got inf"),
    ])
    def test_non_positive_or_overflowing_tokens_rejected(self, pool, crossing, message):
        # such a crossing cannot be fitted in log space, so it is rejected when it is built
        with pytest.raises(ValidationError) as exc:
            CrossingPoint(model_params=10**9, pool_tokens=pool, crossing_tokens=crossing,
                          observed=True)
        assert str(exc.value) == message

    def test_mixed_model_sizes_rejected(self):
        crossings = self.reference_crossings()
        crossings[0] = CrossingPoint(
            model_params=2, pool_tokens=670_000_000, crossing_tokens=670e6, observed=True
        )
        with pytest.raises(ValidationError):
            fit_crossing_quadratic(crossings)

    def test_invert_smaller_root(self):
        quad = QuadFit(
            model_params=1, coeffs=(-0.2, 6.0, -26.0), residuals=(), points=()
        )
        y = qeval((-0.2, 6.0, -26.0), 9.0)
        x = math.log10(quad.invert_smaller_root(10.0**y))
        assert x == pytest.approx(9.0, abs=1e-9)

    def test_invert_no_real_root(self):
        quad = QuadFit(model_params=1, coeffs=(-0.2, 6.0, -26.0), residuals=(), points=())
        vertex_value = qeval((-0.2, 6.0, -26.0), 15.0)  # vertex at x=15
        with pytest.raises(NoRootError, match=r"^model 1: quadratic never meets the line "
                                              r"1e\+20 \* pool\^0$"):
            quad.invert_smaller_root(10.0 ** (vertex_value + 1.0))
        flat = QuadFit(model_params=1, coeffs=(0.0, 0.0, 3.0), residuals=(), points=())
        with pytest.raises(NoRootError, match=r"^model 1: quadratic never meets the line "
                                              r"100 \* pool\^0$"):  # one wording for both
            flat.invert_smaller_root(100.0)


def reference_fit_threshold_points(method, parameter, points):
    """``scaling._fit_threshold_points`` as it was before both laws were built by one loop."""
    if len(points) < 3:
        raise FitError(f"threshold law needs >= 3 model sizes, got {len(points)}")
    if len({p.pool_tokens for p in points}) < 2:
        raise FitError("threshold points share one pool size; the law's slope is undetermined")
    x = np.log10([p.pool_tokens for p in points])
    y = np.log10([p.compute for p in points])
    intercept, slope, sse, sst = _loglog_regression(x, y)
    r2 = 1.0 - sse / sst if sst > 0 else 1.0
    try:
        alpha = 10.0**intercept
    except OverflowError:
        raise FitError(f"fitted scale alpha = 10**{intercept!r} is not finite") from None
    return ThresholdLaw(method=method, parameter=parameter, points=tuple(points),
                        alpha=alpha, beta=slope, r2=r2)


def reference_fit_threshold_tokens_per_param(quads, configs, ratio):
    """``fit_threshold_tokens_per_param`` as its own loop, which left out a model
    whose quadratic coincides with its line instead of raising."""
    positive("tokens-per-param ratio", ratio)
    by_total = {cfg.total_params: cfg for cfg in configs}
    points = []
    for model_params in sorted(quads):
        cfg = by_total.get(model_params)
        if cfg is None:
            raise ValidationError(f"no ModelConfig with total_params={model_params}")
        crossing_tokens = ratio * cfg.non_embedding_params
        compute = 6.0 * crossing_tokens * cfg.total_params
        try:
            pool_tokens = quads[model_params].invert_smaller_root(crossing_tokens)
        except FitError as exc:
            warnings.warn(f"model {model_params}: excluded from tokens-per-param law ({exc})",
                          RuntimeWarning, stacklevel=2)
            continue
        points.append(ThresholdPoint(model_params, pool_tokens, crossing_tokens, compute))
    return reference_fit_threshold_points("tokens_per_param", ratio, points)


def reference_fit_threshold_epoch_constraint(quads, epochs):
    """``fit_threshold_epoch_constraint`` as its own loop."""
    positive("epochs", epochs)
    points = []
    for model_params in sorted(quads):
        try:
            pool_tokens = quads[model_params].invert_smaller_root(epochs, slope=1.0)
        except NoRootError:
            warnings.warn(f"model {model_params}: no intersection with the {epochs:g}-epoch line",
                          RuntimeWarning, stacklevel=2)
            continue
        crossing_tokens = epochs * pool_tokens
        compute = 6.0 * crossing_tokens * model_params
        points.append(ThresholdPoint(model_params, pool_tokens, crossing_tokens, compute))
    return reference_fit_threshold_points("epoch_constraint", epochs, points)


def law_outcome(fit, *args):
    """The law ``fit(*args)`` returns, or the type of the error it raises, and
    the messages of the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = fit(*args)
        except (FitError, ValidationError, OverflowError) as exc:
            outcome = type(exc)
    return outcome, [str(w.message) for w in caught]


def excluded_models(messages):
    """The models that threshold-law warnings name, each as ``model <params>: ...``."""
    return {int(m.split(":")[0].removeprefix("model ")) for m in messages}


#: Quadratics that may never meet a line: a parabola far below every line of the
#: planted worlds, and a flat one, which meets a flat line only at its own level.
NEVER_MEETING = [(-1.0, 1.0, -100.0), (0.0, 0.0, 0.0)]


@st.composite
def threshold_cases(draw):
    """Quadratics of a planted world, some swapped for random or never-meeting
    ones and some added under a model size no config names, with the world's
    configs and its ratio and epoch count or others."""
    names = draw(st.lists(st.sampled_from(["15M", "80M", "330M", "1B", "7B"]),
                          min_size=1, max_size=5, unique=True))
    world = planted_threshold_world(config_names=tuple(names),
                                    curvature=draw(st.sampled_from([-0.4, -0.22, -0.1])))
    coeffs = st.sampled_from(NEVER_MEETING) | st.tuples(
        st.sampled_from([0.0]) | st.floats(-1.5, 0.5), st.floats(-5.0, 25.0),
        st.floats(-120.0, 30.0))
    quads = {}
    for model_params, crossings in world.crossings_by_model.items():
        if draw(st.booleans()):
            quads[model_params] = fit_crossing_quadratic(crossings)
        else:
            quads[model_params] = QuadFit(model_params, draw(coeffs), (), ())
    for model_params in draw(st.lists(st.integers(1, 10**12), max_size=2)):
        quads[model_params] = QuadFit(model_params, draw(coeffs), (), ())
    ratio = draw(st.sampled_from([world.ratio]) | st.floats(1e-3, 1e6))
    epochs = draw(st.sampled_from([world.epochs]) | st.floats(1e-2, 1e4))
    return quads, world.configs, ratio, epochs


class TestThresholdLawsFoldedIntoOneLoop:
    @given(threshold_cases())
    @settings(max_examples=300, deadline=None)
    def test_equal_to_the_two_loops(self, case):
        quads, configs, ratio, epochs = case
        for fit, reference, args in [
            (fit_threshold_tokens_per_param, reference_fit_threshold_tokens_per_param,
             (quads, configs, ratio)),
            (fit_threshold_epoch_constraint, reference_fit_threshold_epoch_constraint,
             (quads, epochs)),
        ]:
            expected, expected_warnings = law_outcome(reference, *args)
            if any("coincides" in message for message in expected_warnings):
                with pytest.raises(FitError, match="coincides"):  # no longer left out
                    fit(*args)
                continue
            outcome, messages = law_outcome(fit, *args)
            assert outcome == expected
            assert excluded_models(messages) == excluded_models(expected_warnings)


class TestThresholdLaws:
    def test_planted_world_recovery(self):
        world = planted_threshold_world()
        quads = {m: fit_crossing_quadratic(c) for m, c in world.crossings_by_model.items()}
        tpp = fit_threshold_tokens_per_param(quads, world.configs, world.ratio)
        epoch = fit_threshold_epoch_constraint(quads, world.epochs)

        assert abs(tpp.beta - world.beta) <= 1e-3
        assert abs(epoch.beta - world.beta) <= 1e-3
        assert tpp.r2 > 0.99 and epoch.r2 > 0.99

        c_tpp = extrapolate_compute(tpp, 240e12)
        c_epoch = extrapolate_compute(epoch, 240e12)
        assert abs(math.log10(c_tpp) - math.log10(c_epoch)) <= 0.5
        # the planted alpha/beta put the 240T threshold at ~1e30 FLOPs
        assert 1e29 <= c_tpp <= 1e31

    def test_threshold_points_match_planted_geometry(self):
        world = planted_threshold_world()
        quads = {m: fit_crossing_quadratic(c) for m, c in world.crossings_by_model.items()}
        tpp = fit_threshold_tokens_per_param(quads, world.configs, world.ratio)
        for point in tpp.points:
            x_t, y_t = world.tpp_points[point.model_params]
            assert math.log10(point.pool_tokens) == pytest.approx(x_t, abs=1e-6)
            assert math.log10(point.crossing_tokens) == pytest.approx(y_t, abs=1e-9)

    def test_epoch_intersection_matches_bisection_oracle(self):
        world = planted_threshold_world()
        epoch = fit_threshold_epoch_constraint(
            {m: fit_crossing_quadratic(c) for m, c in world.crossings_by_model.items()},
            world.epochs,
        )
        log_e = math.log10(world.epochs)
        for point in epoch.points:
            coeffs = world.coeffs_by_model[point.model_params]
            line_vertex = -(coeffs[1] - 1.0) / (2 * coeffs[0])
            oracle_x = bisect_root(
                lambda x: qeval(coeffs, x) - x - log_e,
                lo=line_vertex - 8.0,
                hi=line_vertex,
                tol=1e-12,
            )
            assert math.log10(point.pool_tokens) == pytest.approx(oracle_x, abs=1e-6)

    def test_single_model_size_rejected(self):
        world = planted_threshold_world(config_names=("1B",))
        quads = {m: fit_crossing_quadratic(c) for m, c in world.crossings_by_model.items()}
        with pytest.raises(FitError, match=">= 3"):
            fit_threshold_tokens_per_param(quads, world.configs, world.ratio)

    def test_coincident_epoch_line_is_error(self):
        quads = {
            10**9: QuadFit(
                model_params=10**9,
                coeffs=(0.0, 1.0, 1.0),  # exactly the 10-epoch line
                residuals=(),
                points=(),
            )
        }
        with pytest.raises(FitError, match="coincides"):
            fit_threshold_epoch_constraint(quads, epochs=10.0)

    def test_coincident_tpp_line_is_error(self):
        world = planted_threshold_world()
        quads = {m: fit_crossing_quadratic(c) for m, c in world.crossings_by_model.items()}
        cfg = world.configs[0]
        level = world.ratio * cfg.non_embedding_params
        quads[cfg.total_params] = QuadFit(cfg.total_params, (0.0, 0.0, math.log10(level)), (), ())
        with pytest.raises(FitError, match="coincides"):  # not left out, as it once was
            fit_threshold_tokens_per_param(quads, world.configs, world.ratio)

    def test_no_intersection_excluded_with_warning(self):
        world = planted_threshold_world()
        quads = {m: fit_crossing_quadratic(c) for m, c in world.crossings_by_model.items()}
        # a parabola entirely below the epoch line never intersects it
        quads[42] = QuadFit(
            model_params=42, coeffs=(-1.0, 1.0, -100.0), residuals=(), points=()
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            law = fit_threshold_epoch_constraint(quads, world.epochs)
        [warning] = caught
        assert str(warning.message) == ("model 42: quadratic never meets the line 4 * pool^1; "
                                        "excluded from the epoch_constraint law")
        assert warning.category is RuntimeWarning and warning.filename == __file__
        assert {p.model_params for p in law.points} == set(world.crossings_by_model)

    def test_missing_config_rejected(self):
        world = planted_threshold_world()
        quads = {m: fit_crossing_quadratic(c) for m, c in world.crossings_by_model.items()}
        with pytest.raises(ValidationError, match="ModelConfig"):
            fit_threshold_tokens_per_param(quads, world.configs[:1], world.ratio)

    def test_tpp_unreachable_crossing_excluded_with_warning(self):
        world = planted_threshold_world()
        quads = {m: fit_crossing_quadratic(c) for m, c in world.crossings_by_model.items()}
        # a concave quadratic capped far below 600 * non_embedding tokens
        stunted = ModelConfig(
            name="stunted", hidden_dim=16, layers=1, heads=1, head_dim=16,
            ffn_dim=64, vocab_size=100, total_params=42, non_embedding_params=42,
        )
        quads[42] = QuadFit(
            model_params=42, coeffs=(-1.0, 18.0, -80.0), residuals=(), points=()
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            law = fit_threshold_tokens_per_param(
                quads, list(world.configs) + [stunted], world.ratio
            )
        [warning] = caught
        assert str(warning.message).startswith("model 42: quadratic never meets the line ")
        assert str(warning.message).endswith(" * pool^0; excluded from the tokens_per_param law")
        assert warning.filename == __file__
        assert {p.model_params for p in law.points} == set(world.crossings_by_model)

    def test_extrapolate_validates_input(self):
        world = planted_threshold_world()
        quads = {m: fit_crossing_quadratic(c) for m, c in world.crossings_by_model.items()}
        law = fit_threshold_epoch_constraint(quads, world.epochs)
        with pytest.raises(ValidationError):
            extrapolate_compute(law, 0.0)
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="positive and finite"):
                extrapolate_compute(law, bad)
        assert law.beta > 1.0
        with pytest.raises(ValidationError, match="overflows"):
            extrapolate_compute(law, 1e300)
        with pytest.raises(ValidationError, match="overflows"):  # alpha * pool**beta is inf
            extrapolate_compute(replace(law, alpha=1e300), 1e12)

    def test_shared_quadratic_is_degenerate(self):
        # every model at the same pool size leaves the law's slope undetermined
        quads = {
            m: QuadFit(model_params=m, coeffs=(-0.05, 2.0, -3.0), residuals=(), points=())
            for m in (10**8, 10**9, 10**10)
        }
        with pytest.raises(FitError, match="one pool size"):
            fit_threshold_epoch_constraint(quads, epochs=4.0)

    def test_law_json_round_trip(self, tmp_path):
        world = planted_threshold_world()
        quads = {m: fit_crossing_quadratic(c) for m, c in world.crossings_by_model.items()}
        for law in (
            fit_threshold_tokens_per_param(quads, world.configs, world.ratio),
            fit_threshold_epoch_constraint(quads, world.epochs),
        ):
            path = tmp_path / f"{law.method}.json"
            write_json(path, asdict(law))
            assert read_json(path, ThresholdLaw.from_dict) == law

    def test_law_checks_itself_when_built(self):
        # a law built in memory is checked as one read from JSON is
        world = planted_threshold_world()
        quads = {m: fit_crossing_quadratic(c) for m, c in world.crossings_by_model.items()}
        law = fit_threshold_epoch_constraint(quads, world.epochs)
        for alpha, beta in [(math.nan, law.beta), (law.alpha, math.inf), (-math.inf, law.beta)]:
            with pytest.raises(ValidationError) as exc:
                replace(law, alpha=alpha, beta=beta)
            assert str(exc.value) == (
                f"threshold law alpha and beta must be finite, got {alpha!r} and {beta!r}")
        with pytest.raises(ValidationError, match="^threshold law needs >= 3 points, got 2$"):
            replace(law, points=law.points[:2])
        with pytest.raises(ValidationError, match="^threshold law method must be one of "
                                                  "tokens_per_param, epoch_constraint, got 'bogus'$"):
            replace(law, method="bogus")
        for parameter in (-7.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValidationError) as exc:
                replace(law, parameter=parameter)
            assert str(exc.value) == (
                f"threshold law parameter must be finite and > 0, got {parameter!r}")

    @pytest.mark.parametrize("prepend", [False, True])
    def test_configs_sharing_total_params_rejected(self, prepend):
        # the last of the two would set the model's line without a word
        world = planted_threshold_world()
        quads = {m: fit_crossing_quadratic(c) for m, c in world.crossings_by_model.items()}
        first = world.configs[0]
        alt = replace(first, name=f"{first.name}-alt", non_embedding_params=1_000_000)
        configs = [alt, *world.configs] if prepend else [*world.configs, alt]
        names = (alt.name, first.name) if prepend else (first.name, alt.name)
        with pytest.raises(ValidationError) as exc:
            fit_threshold_tokens_per_param(quads, configs, world.ratio)
        assert str(exc.value) == (f"model configs {names[0]!r} and {names[1]!r} share "
                                  f"total_params={first.total_params}")

    def test_law_from_dict_rejects_malformed(self):
        with pytest.raises(ValidationError, match="^missing key 'method'$"):
            ThresholdLaw.from_dict({"parameter": 1.0})
        with pytest.raises(ValidationError, match="^missing key 'model_params'$"):
            ThresholdLaw.from_dict(
                {"method": "m", "parameter": 1.0, "points": [{"x": 1}],
                 "alpha": 1.0, "beta": 1.0, "r2": 1.0}
            )
        points = [{"model_params": 10**i, "pool_tokens": 1e9, "crossing_tokens": 1e10,
                   "compute": 6e19} for i in (7, 8, 9)]
        for alpha, beta in [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 1.0)]:
            with pytest.raises(ValidationError, match="alpha and beta must be finite"):
                ThresholdLaw.from_dict({"method": "m", "parameter": 1.0, "points": points,
                                        "alpha": alpha, "beta": beta, "r2": 1.0})


# ---------------------------------------------------------------------------
# One domain rule for analysis records read from a file and built in memory.
# ---------------------------------------------------------------------------

#: Counts of every sign, past the float range too; floats of every kind, NaN and inf too.
any_counts = st.integers() | st.sampled_from([0, 10**400, -(10**400)])
any_floats = st.floats()


def built_or_message(build):
    """``build()``, or the message of the ValidationError it raises."""
    try:
        return build()
    except ValidationError as exc:
        return str(exc)


def assert_read_as_built(read, built, where):
    """``read`` is ``built``, or ``built``'s message after ``where``; compared by ``repr``,
    which tells 0.0 from -0.0, an int from a float, and shows a NaN field as equal."""
    assert repr(read) == repr(built if not isinstance(built, str) else f"{where}: {built}")


@given(values=st.fixed_dictionaries({
    "model_params": any_counts, "pool_tokens": any_counts,
    "crossing_tokens": st.none() | any_floats, "observed": st.booleans()}))
@settings(max_examples=300, deadline=None)
def test_read_and_built_crossings_pass_one_rule(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "crossings.csv"
    write_rows(path, field_names(CrossingPoint), [values])
    built = built_or_message(lambda: [CrossingPoint(**values)])
    assert_read_as_built(built_or_message(lambda: read_rows(path, CrossingPoint)), built,
                         f"{path}: line 2")


@given(values=st.fixed_dictionaries({
    "model_params": any_counts, "pool_tokens": any_floats, "crossing_tokens": any_floats,
    "compute": any_floats}))
@settings(max_examples=300, deadline=None)
def test_read_and_built_threshold_points_pass_one_rule(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "point.json"
    write_json(path, values)
    built = built_or_message(lambda: ThresholdPoint(**values))
    read = built_or_message(lambda: read_json(path, lambda obj: read_record(ThresholdPoint, obj)))
    assert_read_as_built(read, built, path)


valid_points = st.builds(
    ThresholdPoint, model_params=st.integers(1, 10**12),
    **{name: st.floats(min_value=0, exclude_min=True, allow_infinity=False)
       for name in ("pool_tokens", "crossing_tokens", "compute")})


@given(values=st.fixed_dictionaries({
    "method": st.sampled_from(["tokens_per_param", "epoch_constraint"]) | st.text(max_size=5),
    "parameter": any_floats,
    "points": st.lists(valid_points, max_size=4).map(tuple), "alpha": any_floats,
    "beta": any_floats, "r2": any_floats}))
@settings(max_examples=300, deadline=None)
def test_read_and_built_threshold_laws_pass_one_rule(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "law.json"
    write_json(path, {**values, "points": [asdict(p) for p in values["points"]]})
    built = built_or_message(lambda: ThresholdLaw(**values))
    assert_read_as_built(built_or_message(lambda: read_json(path, ThresholdLaw.from_dict)),
                         built, path)
