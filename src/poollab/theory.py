"""Numerical checks of two closed-form results behind the experiments.

1. Rank necessity: for a mixture of tasks with mutually orthogonal
   input second moments, the best rank-r linear predictor's population
   loss equals the sum of trailing squared singular values of
   ``M_star @ sqrt(Sigma)`` plus the noise power.  We verify the
   closed form against gradient descent on the factored objective.

2. Filter improvement: for a similarity-weighted label predictor, the
   KL improvement from filtering the training set with any 0/1 filter
   is ``-log(P + (1 - P) * fpr/tpr)`` where P is the weighted prevalence
   of the target label and fpr/tpr are the filter's weighted pass rates
   off/on that label.  We verify the identity against a brute-force
   computation of both KL divergences.

Every randomized trial is deterministic under its seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable

from .errors import FitError, ValidationError
from .io import natural

if TYPE_CHECKING:
    import numpy as np

ORTHOGONALITY_TOL = 1e-12
RANGE_TOL = 1e-10
#: Largest |analytic - empirical| loss gap a rank-necessity trial passes with.
RANK_GAP_TOL = 1e-4
#: Largest |brute force - closed form| KL gap a filter-improvement trial passes with.
KL_GAP_TOL = 1e-12
#: Scale of the random rank-r factors gradient descent starts from.
INIT_SCALE = 0.1
#: Upper bounds of a random TaskSpec's task count, input and output dimensions.
MAX_TASKS, MAX_D, MAX_M_OUT = 4, 16, 8
#: Upper bounds of a random SimilarityDataset's example and label counts.
MAX_EXAMPLES, MAX_LABELS = 50, 5


# ---------------------------------------------------------------------------
# Multi-task linear generation with orthogonal inputs.
# ---------------------------------------------------------------------------


@dataclass
class TaskSpec:
    """k linear tasks with pairwise trace-orthogonal input second moments.

    Task i fires with probability ``p[i]`` and generates
    ``y = u[i] @ v[i].T @ x + noise`` where x has second moment
    ``sigmas[i]``.  Orthogonality (``tr(sigmas[i] @ sigmas[j]) == 0``)
    means the tasks can be separated exactly by input subspace.
    """

    k: int
    d: int
    m_out: int
    p: np.ndarray
    u_list: list[np.ndarray]
    v_list: list[np.ndarray]
    sigma_list: list[np.ndarray]
    noise_power: float = 0.0

    def validate(self) -> None:
        import numpy as np

        if self.k < 1:
            raise ValidationError("need at least one task")
        if len(self.p) != self.k or not abs(float(np.sum(self.p)) - 1.0) <= 1e-9:  # NaN fails
            raise ValidationError("p must be a length-k probability vector")
        if np.any(self.p <= 0):
            raise ValidationError("all task probabilities must be positive")
        if not 0 <= self.noise_power < math.inf:
            raise ValidationError(f"noise_power must be finite and non-negative, "
                                  f"got {self.noise_power!r}")
        for name in ("u_list", "v_list", "sigma_list"):  # zip would cut a longer one short
            if len(getattr(self, name)) != self.k:
                raise ValidationError(f"{name} must hold k={self.k} entries, "
                                      f"got {len(getattr(self, name))}")
        for i in range(self.k):
            if self.u_list[i].shape != (self.m_out,) or self.v_list[i].shape != (self.d,):
                raise ValidationError(f"task {i}: direction vector shape mismatch")
            if self.sigma_list[i].shape != (self.d, self.d):
                raise ValidationError(f"task {i}: second-moment shape mismatch")
        for i in range(self.k):
            for j in range(i + 1, self.k):
                cross = float(np.trace(self.sigma_list[i] @ self.sigma_list[j]))
                if abs(cross) > ORTHOGONALITY_TOL:
                    raise ValidationError(
                        f"tasks {i},{j}: tr(sigma_i sigma_j) = {cross:.3e} not 0"
                    )
        for i, (v, sigma) in enumerate(zip(self.v_list, self.sigma_list)):
            projected = sigma @ np.linalg.pinv(sigma) @ v
            if float(np.linalg.norm(v - projected)) > RANGE_TOL:
                raise ValidationError(f"task {i}: v lies outside range(sigma)")

    @property
    def m_star(self) -> np.ndarray:
        import numpy as np

        return sum(np.outer(u, v) for u, v in zip(self.u_list, self.v_list))

    @property
    def sigma(self) -> np.ndarray:
        return sum(p_i * s for p_i, s in zip(self.p, self.sigma_list))

    def sigma_sqrt(self) -> np.ndarray:
        import numpy as np

        eigvals, eigvecs = np.linalg.eigh(self.sigma)
        eigvals = np.clip(eigvals, 0.0, None)
        return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


def analytic_min_loss(spec: TaskSpec, r: int) -> float:
    """Closed-form minimum population loss of a rank-r linear predictor.

    Equals the sum of squared singular values of ``M_star @ sqrt(Sigma)``
    beyond the r-th, plus the noise power; zero trailing sum once r
    reaches the number of positive singular values.
    """
    import numpy as np

    spec.validate()
    if not 0 <= r <= min(spec.d, spec.m_out):
        raise ValidationError(f"r must be in [0, {min(spec.d, spec.m_out)}], got {r}")
    singular_values = np.linalg.svd(spec.m_star @ spec.sigma_sqrt(), compute_uv=False)
    return float(np.sum(singular_values[r:] ** 2)) + spec.noise_power


def empirical_min_loss(
    spec: TaskSpec,
    r: int,
    steps: int = 2000,
    lr: float | None = None,
    restarts: int = 3,
    seed: int = 0,
) -> float:
    """Minimize the population loss over rank-r factors by gradient descent.

    Full-batch gradients on ``(U, V)`` from small random inits; the best
    of ``restarts`` runs is returned.  The default step size is
    0.1 / ||Sigma||_2.  Iteration stops early once the loss stops
    improving at machine precision.

    Raises:
        FitError: the iterate diverged (loss exceeded 1e6 x initial);
            retry with a smaller ``lr``.
    """
    import numpy as np

    spec.validate()
    if r < 1:
        raise ValidationError("empirical_min_loss needs r >= 1; use the analytic value for r=0")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    # both are sums of outer products: build them once, not once per step
    sigma = spec.sigma
    m_star = spec.m_star
    if lr is None:
        lr = 0.1 / float(np.linalg.norm(sigma, 2))

    best = math.inf
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        u = INIT_SCALE * rng.standard_normal((spec.m_out, r))
        v = INIT_SCALE * rng.standard_normal((spec.d, r))
        # the loss tr(err Sigma err^T) + noise is even in err, so U V^T - M_star serves
        err = u @ v.T - m_star
        err_sigma = err @ sigma
        initial = loss = float((err_sigma @ err.T).trace()) + spec.noise_power
        for _ in range(steps):
            grad = 2.0 * err_sigma  # d loss / d err
            grad_u = grad @ v
            grad_v = grad.T @ u
            u = u - lr * grad_u
            v = v - lr * grad_v
            err = u @ v.T - m_star
            err_sigma = err @ sigma
            new_loss = float((err_sigma @ err.T).trace()) + spec.noise_power
            if not math.isfinite(new_loss) or new_loss > 1e6 * max(initial, 1e-12):
                raise FitError("gradient descent diverged; try a lower lr")
            if abs(loss - new_loss) <= 1e-15 * max(1.0, loss):
                loss = new_loss
                break
            loss = new_loss
        best = min(best, loss)
    return best


def random_orthogonal_spec(seed: int, noise_power: float | None = None) -> TaskSpec:
    """Random TaskSpec with exactly orthogonal inputs.

    Coordinates are partitioned into k blocks; task i's second moment is
    a random PSD matrix supported on block i, which makes the pairwise
    trace products exactly zero.  Each ``v`` is drawn inside its block
    (hence inside range(sigma)); each ``u`` is a random unit vector.
    ``k <= d`` and ``k <= m_out``, so the tasks are independent.
    """
    import numpy as np

    rng = np.random.default_rng(natural("seed", seed))
    k = int(rng.integers(1, MAX_TASKS + 1))
    d = int(rng.integers(k, MAX_D + 1))
    m_out = int(rng.integers(k, MAX_M_OUT + 1))

    # Random block boundaries giving every task at least one coordinate.
    cuts = sorted(rng.choice(np.arange(1, d), size=k - 1, replace=False).tolist()) if k > 1 else []
    bounds = [0] + cuts + [d]

    p = rng.uniform(0.2, 1.0, size=k)
    p /= p.sum()

    u_list, v_list, sigma_list = [], [], []
    for i in range(k):
        lo, hi = bounds[i], bounds[i + 1]
        width = hi - lo
        # random PSD block with a bounded spectrum; unbounded condition
        # numbers would make the gradient-descent check needlessly slow
        q, _ = np.linalg.qr(rng.standard_normal((width, width)))
        block = (q * rng.uniform(0.3, 1.5, size=width)) @ q.T
        sigma = np.zeros((d, d))
        sigma[lo:hi, lo:hi] = block
        sigma_list.append(sigma)

        w = rng.standard_normal(d)
        v = sigma @ w
        v /= np.linalg.norm(v)
        v_list.append(v)

        u = rng.standard_normal(m_out)
        u /= np.linalg.norm(u)
        u_list.append(u)

    return TaskSpec(
        k=k,
        d=d,
        m_out=m_out,
        p=p,
        u_list=u_list,
        v_list=v_list,
        sigma_list=sigma_list,
        noise_power=float(rng.uniform(0.0, 0.5)) if noise_power is None else noise_power,
    )


# ---------------------------------------------------------------------------
# Similarity-weighted label predictor and filter improvement.
# ---------------------------------------------------------------------------


@dataclass
class SimilarityDataset:
    """Labeled examples with fixed similarity weights to one test input."""

    examples: list[tuple[Hashable, Hashable]]  # (x_id, y_label)
    weights: dict[Hashable, float] = field(default_factory=dict)

    def validate(self) -> None:
        if not self.examples:
            raise ValidationError("dataset must contain at least one example")
        total = 0.0  # summed as predict_conditional sums it
        for x_id, _ in self.examples:
            weight = self.weights.get(x_id, 0.0)
            if not 0.0 <= weight < math.inf:  # NaN fails too
                raise ValidationError(f"weight for {x_id!r} must be finite and non-negative, "
                                      f"got {weight}")
            total += weight
        if total == 0.0:
            raise ValidationError("at least one example needs positive weight")
        if total == math.inf:
            raise ValidationError("the weights sum to inf, beyond the float range")


@dataclass(frozen=True)
class FilterFn:
    """0/1 keep decision over (x_id, y_label) pairs."""

    phi: Callable[[Hashable, Hashable], int]

    def __call__(self, x_id: Hashable, y_label: Hashable) -> int:
        return 1 if self.phi(x_id, y_label) else 0


def predict_conditional(data: SimilarityDataset) -> dict[Hashable, float]:
    """Similarity-weighted label distribution: P(y) = sum of weights with
    label y over the total weight."""
    data.validate()
    total = 0.0
    by_label: dict[Hashable, float] = {}
    for x_id, y_label in data.examples:
        w = data.weights.get(x_id, 0.0)
        total += w
        by_label[y_label] = by_label.get(y_label, 0.0) + w
    return {y: w / total for y, w in by_label.items()}


def apply_filter(data: SimilarityDataset, phi: FilterFn) -> SimilarityDataset:
    kept = [(x, y) for x, y in data.examples if phi(x, y)]
    return SimilarityDataset(examples=kept, weights=data.weights)


def kl_improvement_closed_form(p_star: float, fpr_over_tpr: float) -> float:
    """KL improvement of the filtered predictor: -log(P + (1-P) * ratio).

    ``p_star`` is the unfiltered weighted prevalence of the target label
    and ``fpr_over_tpr`` the filter's weighted off-target/on-target pass
    ratio.  Positive means filtering helps; ratio 1 gives exactly 0.
    """
    if not 0.0 < p_star <= 1.0:
        raise ValidationError(f"p_star must be in (0,1], got {p_star}")
    if fpr_over_tpr < 0.0:
        raise ValidationError(f"fpr_over_tpr must be >= 0, got {fpr_over_tpr}")
    arg = p_star + (1.0 - p_star) * fpr_over_tpr
    if arg <= 0.0:
        raise ValidationError("filtered predictor is degenerate (log argument <= 0)")
    return -math.log(arg)


def weighted_pass_rates(
    data: SimilarityDataset, phi: FilterFn, y_star: Hashable
) -> tuple[float, float]:
    """(tpr, fpr): weighted filter pass rates on and off the target label."""
    on_total = on_pass = off_total = off_pass = 0.0
    for x_id, y_label in data.examples:
        w = data.weights.get(x_id, 0.0)
        keep = phi(x_id, y_label)
        if y_label == y_star:
            on_total += w
            on_pass += w * keep
        else:
            off_total += w
            off_pass += w * keep
    if on_total <= 0.0:
        raise ValidationError(f"target label {y_star!r} has no weighted mass")
    tpr = on_pass / on_total
    fpr = off_pass / off_total if off_total > 0.0 else 0.0
    return tpr, fpr


def kl_improvement_bruteforce(
    data: SimilarityDataset, phi: FilterFn, y_star: Hashable
) -> float:
    """KL(target || unfiltered) - KL(target || filtered), computed directly.

    The target distribution is a point mass on ``y_star``, so each KL
    term reduces to -log of the predictor's mass there; the difference
    is computed from the two conditional distributions with no use of
    the closed form.
    """
    p_unfiltered = predict_conditional(data)
    if y_star not in p_unfiltered or p_unfiltered[y_star] <= 0.0:
        raise ValidationError(f"target label {y_star!r} absent; improvement unbounded")
    filtered = apply_filter(data, phi)
    if not filtered.examples:
        raise ValidationError("filter removed all examples")
    p_filtered = predict_conditional(filtered)
    if p_filtered.get(y_star, 0.0) <= 0.0:
        raise ValidationError("filter removed all support for the target label")
    kl_unfiltered = -math.log(p_unfiltered[y_star])
    kl_filtered = -math.log(p_filtered[y_star])
    return kl_unfiltered - kl_filtered


def random_similarity_dataset(seed: int) -> SimilarityDataset:
    rng = random.Random(seed)
    n = rng.randint(2, MAX_EXAMPLES)
    n_labels = rng.randint(2, MAX_LABELS)
    labels = [f"label{i}" for i in range(n_labels)]
    examples = [(f"x{i}", rng.choice(labels)) for i in range(n)]
    weights = {f"x{i}": rng.uniform(0.05, 2.0) for i in range(n)}
    return SimilarityDataset(examples=examples, weights=weights)


# ---------------------------------------------------------------------------
# Trial runners used by the CLI verification command.
# ---------------------------------------------------------------------------


def run_rank_necessity_trial(seed: int) -> dict:
    """One randomized check that gradient descent matches the closed form."""
    spec = random_orthogonal_spec(seed)
    results = []
    ok = True
    for r in range(spec.k, min(spec.d, spec.m_out) + 1):
        analytic = analytic_min_loss(spec, r)
        # badly conditioned second moments need the longer step budget
        empirical = empirical_min_loss(spec, r, steps=8000, restarts=3, seed=seed + r)
        gap = abs(analytic - empirical)
        ok = ok and gap <= RANK_GAP_TOL
        results.append({"r": r, "analytic": analytic, "empirical": empirical, "gap": gap})
    return {
        "seed": seed,
        "k": spec.k,
        "d": spec.d,
        "m_out": spec.m_out,
        "noise_power": spec.noise_power,
        "ranks": results,
        "pass": ok,
    }


def run_filter_fact_trial(seed: int) -> dict:
    """One randomized check that brute-force KL matches the closed form."""
    rng = random.Random(natural("seed", seed) * 7919 + 13)
    for _ in range(100):
        data = random_similarity_dataset(rng.randint(0, 2**31))
        labels = sorted({y for _, y in data.examples})
        y_star = rng.choice(labels)
        decisions = {(x, y): rng.random() < 0.6 for x, y in data.examples}
        phi = FilterFn(lambda x, y: int(decisions.get((x, y), 0)))
        try:
            brute = kl_improvement_bruteforce(data, phi, y_star)
            tpr, fpr = weighted_pass_rates(data, phi, y_star)
            if tpr <= 0.0:
                continue
            p_star = predict_conditional(data)[y_star]
            closed = kl_improvement_closed_form(p_star, fpr / tpr)
        except ValidationError:
            continue  # ill-posed draw (e.g. filter removed the target label)
        gap = abs(brute - closed)
        return {
            "seed": seed,
            "examples": len(data.examples),
            "y_star": y_star,
            "bruteforce": brute,
            "closed_form": closed,
            "gap": gap,
            "pass": gap <= KL_GAP_TOL,
        }
    raise FitError("could not draw a well-posed filter trial in 100 attempts")
