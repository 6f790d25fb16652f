"""Consistency, rank distance, power trajectories, and disagreement rates.

The trajectory tool follows the normalized principal eigenvector of the
Hadamard powers X^(k) across a k-grid, which interpolates between the
small-k regime and the tropical limit.  The Monte Carlo study estimates how
often the three methods disagree on noisy comparison matrices under seeded,
trial-indexed randomness, so results are reproducible and identical whether
trials run serially or in a process pool.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ComparisonMatrix,
    Ranking,
    Scale,
    ScoreVector,
    rank_of,
    strongly_transitive_from_scores,
    to_additive,
    to_multiplicative,
)
from .errors import InvalidMatrix, NoConvergence, TieDetected
from .geometry import threecycle_basis
from .methods import (
    _log_power_iteration,
    hodge_scores,
    principal_scores,
    tropical_eigenvalue,
    tropical_solve,
)

__all__ = [
    "consistency_index",
    "kendall_tau",
    "TrajectoryPoint",
    "default_k_grid",
    "hadamard_trajectory",
    "GaussianUpperTriangle",
    "UniformSTperp",
    "SimulationConfig",
    "DisagreementReport",
    "METHOD_PAIRS",
    "monte_carlo_disagreement",
]

METHOD_PAIRS = ("hodge-tropical", "hodge-principal", "tropical-principal")


def consistency_index(x: ComparisonMatrix) -> float:
    """Normalized excess of the Perron eigenvalue over n: (lambda - n)/(n - 1).

    Zero exactly on strongly transitive matrices, positive otherwise.
    """
    if x.scale is not Scale.MULTIPLICATIVE:
        raise InvalidMatrix("the consistency index is defined for multiplicative matrices")
    lam = principal_scores(x).eigenvalue
    return (lam - x.n) / (x.n - 1)


def kendall_tau(r1: Ranking, r2: Ranking) -> int:
    """Number of item pairs the two rankings order oppositely."""
    if r1.n != r2.n:
        raise ValueError(f"rankings order {r1.n} and {r2.n} items")
    pos1 = {item: p for p, item in enumerate(r1.order)}
    pos2 = {item: p for p, item in enumerate(r2.order)}
    return sum(
        1
        for a, b in itertools.combinations(range(1, r1.n + 1), 2)
        if (pos1[a] - pos1[b]) * (pos2[a] - pos2[b]) < 0
    )


# -- Hadamard power trajectories ----------------------------------------------


@dataclass(frozen=True)
class TrajectoryPoint:
    """Principal eigenvector snapshot of X^(k) at one grid value.

    v_normalized has first component 1; log_v is its elementwise log (exact
    even when the linear values would leave float range); v_root is
    (v)^(1/k), the quantity that approaches the multiplicative tropical
    eigenvector as k grows.  ranking is None when two components tie within
    tolerance or when the eigensolver failed (converged False).
    """

    k: float
    v_normalized: np.ndarray | None
    log_v: np.ndarray | None
    v_root: np.ndarray | None
    ranking: Ranking | None
    converged: bool


def default_k_grid(count: int = 60, lo: float = 0.05, hi: float = 60.0) -> np.ndarray:
    return np.geomspace(lo, hi, count)


def hadamard_trajectory(x: ComparisonMatrix, k_grid=None,
                        tol: float = 1e-12) -> list[TrajectoryPoint]:
    """Normalized principal eigenvectors of X^(k) along an increasing k-grid.

    All work happens in the log domain with the largest log entry shifted to
    zero, plus a diagonal boost near the dominant eigenvalue so that the
    nearly cyclic structure of large powers cannot stall the iteration.
    A point where the solver still fails to converge is reported with
    converged=False and the trajectory continues.
    """
    if x.scale is not Scale.MULTIPLICATIVE:
        raise InvalidMatrix("trajectories are defined for multiplicative matrices")
    grid = default_k_grid() if k_grid is None else np.asarray(list(k_grid), dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("k_grid must be positive and strictly increasing")

    log_x = np.log(x.entries)
    lam_add = tropical_eigenvalue(to_additive(x))
    points = []
    for k in grid:
        log_k = k * log_x
        shift = log_k.max()
        try:
            _, u, _ = _log_power_iteration(log_k - shift, tol=tol,
                                           log_diag_shift=k * lam_add - shift)
        except NoConvergence:
            points.append(TrajectoryPoint(float(k), None, None, None, None, False))
            continue
        log_v = u - u[0]
        try:
            ranking = rank_of(ScoreVector(log_v, Scale.ADDITIVE))
        except TieDetected:
            ranking = None
        with np.errstate(over="ignore"):
            v = np.exp(log_v)
        points.append(TrajectoryPoint(
            float(k), v, log_v, np.exp(log_v / k), ranking, True))
    return points


# -- noise models and the Monte Carlo disagreement study ----------------------


@dataclass(frozen=True)
class GaussianUpperTriangle:
    """I.i.d. Gaussian noise on the upper triangle, mirrored skew-symmetrically."""

    sd: float

    def __post_init__(self) -> None:
        if self.sd <= 0:
            raise ValueError("sd must be positive")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        g = np.triu(rng.normal(0.0, self.sd, size=(n, n)), 1)
        return g - g.T


@dataclass(frozen=True)
class UniformSTperp:
    """Uniform coefficients on a three-cycle basis of the cyclic subspace."""

    halfwidth: float

    def __post_init__(self) -> None:
        if self.halfwidth <= 0:
            raise ValueError("halfwidth must be positive")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        basis = threecycle_basis(n)
        coeffs = rng.uniform(-self.halfwidth, self.halfwidth, size=len(basis))
        coords = sum(c * b.coords.coords for c, b in zip(coeffs, basis))
        out = np.zeros((n, n))
        iu, ju = np.triu_indices(n, 1)
        out[iu, ju] = coords
        return out - out.T


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    trials: int
    noise: GaussianUpperTriangle | UniformSTperp
    true_scores: ScoreVector | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("simulation needs at least three items")
        if self.trials < 1:
            raise ValueError("trials must be at least one")
        if self.true_scores is not None and self.true_scores.n != self.n:
            raise ValueError("true_scores length must match n")


@dataclass(frozen=True)
class DisagreementReport:
    """Aggregated outcome of a disagreement simulation.

    counts[pair] is the number of effective trials where the two methods
    ranked differently; rates divide by the effective trial count (trials
    minus degenerate ties and solver failures); mean_kendall averages the
    pairwise Kendall tau over effective trials.
    """

    n: int
    trials: int
    seed: int
    noise: str
    degenerate: int
    failures: int
    counts: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)
    mean_kendall: dict = field(default_factory=dict)

    @property
    def effective(self) -> int:
        return self.trials - self.degenerate - self.failures


def _signal_matrix(cfg: SimulationConfig) -> np.ndarray:
    if cfg.true_scores is None:
        return np.zeros((cfg.n, cfg.n))
    return strongly_transitive_from_scores(cfg.true_scores.as_additive()).entries


def _simulate_range(cfg: SimulationConfig, start: int, stop: int) -> dict:
    """Trials start..stop-1; returns integer tallies, merge-order independent."""
    signal = _signal_matrix(cfg)
    disagree = dict.fromkeys(METHOD_PAIRS, 0)
    tau_sum = dict.fromkeys(METHOD_PAIRS, 0)
    degenerate = failures = 0
    for t in range(start, stop):
        rng = np.random.default_rng((cfg.seed, t))
        a = ComparisonMatrix(signal + cfg.noise.draw(rng, cfg.n), Scale.ADDITIVE)
        try:
            rankings = {
                "hodge": rank_of(hodge_scores(a)),
                "tropical": rank_of(tropical_solve(a).eigenvector),
                "principal": rank_of(principal_scores(to_multiplicative(a)).eigenvector),
            }
        except TieDetected:
            degenerate += 1
            continue
        except (NoConvergence, InvalidMatrix):
            failures += 1
            continue
        for pair in METHOD_PAIRS:
            first, second = pair.split("-")
            tau = kendall_tau(rankings[first], rankings[second])
            tau_sum[pair] += tau
            if tau:
                disagree[pair] += 1
    return {"disagree": disagree, "tau_sum": tau_sum,
            "degenerate": degenerate, "failures": failures}


def monte_carlo_disagreement(cfg: SimulationConfig, jobs: int = 1) -> DisagreementReport:
    """Estimate pairwise ranking-disagreement rates on noisy matrices.

    Each trial draws noise from a generator keyed by (seed, trial index),
    adds it to the strongly transitive signal built from cfg.true_scores,
    and compares the three rankings.  Trials where any method ties are
    tallied as degenerate, and trials where a solver fails or the matrix
    leaves float range are tallied as failures; both are excluded from the
    rate denominators.  The keyed streams make the report identical for any
    jobs value.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least one")
    if jobs == 1 or cfg.trials < 64:
        parts = [_simulate_range(cfg, 0, cfg.trials)]
    else:
        bounds = np.linspace(0, cfg.trials, 4 * jobs + 1).astype(int)
        spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_simulate_range, itertools.repeat(cfg),
                                  [a for a, _ in spans], [b for _, b in spans]))

    disagree = dict.fromkeys(METHOD_PAIRS, 0)
    tau_sum = dict.fromkeys(METHOD_PAIRS, 0)
    degenerate = failures = 0
    for p in parts:
        for pair in METHOD_PAIRS:
            disagree[pair] += p["disagree"][pair]
            tau_sum[pair] += p["tau_sum"][pair]
        degenerate += p["degenerate"]
        failures += p["failures"]

    effective = cfg.trials - degenerate - failures
    rates = {pair: (disagree[pair] / effective if effective else math.nan)
             for pair in METHOD_PAIRS}
    means = {pair: (tau_sum[pair] / effective if effective else math.nan)
             for pair in METHOD_PAIRS}
    return DisagreementReport(
        n=cfg.n, trials=cfg.trials, seed=cfg.seed, noise=repr(cfg.noise),
        degenerate=degenerate, failures=failures,
        counts=disagree, rates=rates, mean_kendall=means)
