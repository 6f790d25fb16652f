"""Consistency, rank distance, power trajectories, and disagreement rates.

The trajectory tool follows the normalized principal eigenvector of the
Hadamard powers X^(k) across a k-grid, which interpolates between the
small-k regime and the tropical limit.  The Monte Carlo study estimates how
often the three methods disagree on noisy comparison matrices under seeded,
trial-indexed randomness, so results are reproducible and identical whether
trials run serially or in a process pool.  It solves its trials in stacked
chunks: each method, and the exponentiation the Perron method needs, runs
once per stack through the batch kernels that the scalar entry points
(hodge_scores, tropical_solve, to_multiplicative, principal_scores, rank_of,
kendall_tau) call as batches of one, so every trial gets the scalar path's
exact bits.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    ComparisonMatrix,
    Ranking,
    Scale,
    ScoreVector,
    _check_number,
    _exp_stack,
    _rank_rows,
    _skew,
    _triu,
    strongly_transitive_from_scores,
    to_additive,
)
from .errors import InvalidMatrix
from .geometry import threecycle_basis
from .methods import (
    _hodge_rows,
    _log_perron_batch,
    _perron_batch,
    _tropical_kernel,
    principal_scores,
    tropical_eigenvalue,
    tropical_solve,  # noqa: F401  (bench/test_bench.py traces this module attribute)
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
    return _consistency(principal_scores(x).eigenvalue, x.n)


def _consistency(lam: float, n: int) -> float:
    """The consistency index of an n-item matrix with Perron eigenvalue lam."""
    return (lam - n) / (n - 1)


def _kendall_rows(orders) -> np.ndarray:
    """Kendall distance between matching best-first orders in orders[0] and orders[1].

    Each of the two is one order or a stack of them; items may be labelled
    0..n-1 or 1..n, as long as both agree. Counts the item pairs whose
    relative order differs.
    """
    pos = np.argsort(orders, axis=-1)   # each item's place in its order
    d = pos[..., :, None] - pos[..., None, :]
    return np.add.reduce(d[0] * d[1] < 0, (-2, -1)) // 2


def kendall_tau(r1: Ranking, r2: Ranking) -> int:
    """Number of item pairs the two rankings order oppositely.

    A batch of one for the distance the Monte Carlo study takes row-wise.
    """
    if r1.n != r2.n:
        raise ValueError(f"rankings order {r1.n} and {r2.n} items")
    return int(_kendall_rows((r1.order, r2.order)))


# -- Hadamard power trajectories ----------------------------------------------


# Matrix entries per stack, for both stacked solves (trajectory grid points
# and Monte Carlo trials): 128 kB for each stacked (stack, n, n) float array,
# which is 64 members at n = 16, 4 at n = 64 and 1,024 at n = 4.
_STACK_ENTRIES = 64 * 16 * 16


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


def default_k_grid() -> np.ndarray:
    """60 geometrically spaced powers from 0.05 to 60."""
    return np.geomspace(0.05, 60.0, 60)


def hadamard_trajectory(x: ComparisonMatrix, k_grid=None) -> list[TrajectoryPoint]:
    """Normalized principal eigenvectors of X^(k) along an increasing k-grid.

    All work happens in the log domain with the largest log entry shifted to
    zero, plus a diagonal boost near the dominant eigenvalue so that the
    nearly cyclic structure of large powers cannot stall the iteration.
    The grid points are solved as stacks of at most _STACK_ENTRIES // n**2
    by one batched iteration, each point stopping where it would alone.
    A point where the solver still fails to converge is reported with
    converged=False and the trajectory continues.
    """
    if x.scale is not Scale.MULTIPLICATIVE:
        raise InvalidMatrix("trajectories are defined for multiplicative matrices")
    grid = default_k_grid() if k_grid is None else np.asarray(list(k_grid), dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)) \
            or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise ValueError("k_grid must be finite, positive and strictly increasing")
    log_x = np.log(x.entries)
    if not math.isfinite(2.0 * float(grid[-1]) * float(np.abs(log_x).max())):   # shifted span
        raise ValueError("k_grid reaches log powers that leave float range; lower the largest k")
    lam_add = tropical_eigenvalue(to_additive(x))
    points = []
    per_stack = max(1, _STACK_ENTRIES // x.n ** 2)
    for lo in range(0, grid.size, per_stack):
        ks = grid[lo:lo + per_stack]
        log_k = ks[:, None, None] * log_x
        shift = np.maximum.reduce(log_k, (1, 2))
        log_k -= shift[:, None, None]
        u, converged = _log_perron_batch(log_k, ks * lam_add - shift)
        log_v = u[converged] - u[converged, :1]
        order, _, _, tied = _rank_rows(log_v)
        with np.errstate(over="ignore"):
            v = np.exp(log_v)
        solved = zip(v, log_v, np.exp(log_v / ks[converged, None]), order + 1, tied)
        for k, ok in zip(ks.tolist(), converged.tolist()):
            if not ok:
                points.append(TrajectoryPoint(k, None, None, None, None, False))
                continue
            v_k, log_v_k, root, items, tie = next(solved)
            ranking = None if tie else Ranking(tuple(items.tolist()))
            points.append(TrajectoryPoint(k, v_k, log_v_k, root, ranking, True))
    return points


# -- noise models and the Monte Carlo disagreement study ----------------------


@dataclass(frozen=True)
class GaussianUpperTriangle:
    """I.i.d. Gaussian noise on the upper triangle, mirrored skew-symmetrically."""

    sd: float

    def __post_init__(self) -> None:
        _check_number("sd", self.sd, 0.0, strict=True)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        variates, shape = self._sampler(n)
        return shape(variates(rng)[None])[0]

    def _sampler(self, n: int):
        """(variates, shape): one trial's random numbers from its generator,
        and the noise matrices of a stack of those."""
        iu, ju = _triu(n)
        return ((lambda rng: rng.normal(0.0, self.sd, size=(n, n))),
                (lambda z: _skew(z[:, iu, ju], n)))


@dataclass(frozen=True)
class UniformSTperp:
    """Uniform coefficients on a three-cycle basis of the cyclic subspace."""

    halfwidth: float

    def __post_init__(self) -> None:
        _check_number("halfwidth", self.halfwidth, 0.0, strict=True)
        if math.isinf(2.0 * self.halfwidth):   # the width of the uniform draw
            raise ValueError(f"halfwidth must be at most {np.finfo(float).max / 2:g}, so that "
                             f"the draw's width is finite; got {self.halfwidth:g}")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        variates, shape = self._sampler(n)
        return shape(variates(rng)[None])[0]

    def _sampler(self, n: int):
        """(variates, shape) as for GaussianUpperTriangle; the basis is built once."""
        basis = [b.coords.coords for b in threecycle_basis(n)]

        def shape(coeffs: np.ndarray) -> np.ndarray:
            # summed term by term in basis order, as for a single trial
            return _skew(sum(c[:, None] * b for c, b in zip(coeffs.T, basis)), n)

        return (lambda rng: rng.uniform(-self.halfwidth, self.halfwidth, size=len(basis))), shape


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
    degenerate: int
    failures: int
    counts: dict
    rates: dict
    mean_kendall: dict

    @property
    def effective(self) -> int:
        return self.trials - self.degenerate - self.failures


def _signal_matrix(cfg: SimulationConfig) -> np.ndarray:
    if cfg.true_scores is None:
        return np.zeros((cfg.n, cfg.n))
    return strongly_transitive_from_scores(cfg.true_scores.as_additive()).entries


def _simulate_range(cfg: SimulationConfig, start: int, stop: int) -> Counter:
    """Trials start..stop-1; returns integer tallies, merge-order independent, keyed
    "degenerate", "failures", ("disagree", pair) and ("tau_sum", pair).

    Each trial is drawn from its own generator keyed by (seed, trial index)
    and the trials are solved as stacks of at most _STACK_ENTRIES // n**2.
    A draw that leaves float range is a failure, as ComparisonMatrix rejects it.
    """
    signal = _signal_matrix(cfg)
    variates, shape = cfg.noise._sampler(cfg.n)
    tally = Counter()
    chunk = max(1, _STACK_ENTRIES // cfg.n ** 2)
    for lo in range(start, stop, chunk):
        with np.errstate(over="ignore", invalid="ignore"):
            a = signal + shape(np.stack([variates(np.random.default_rng((cfg.seed, t)))
                                         for t in range(lo, min(lo + chunk, stop))]))
        finite = np.isfinite(a).all(axis=(1, 2))
        tally["failures"] += int(finite.size - np.count_nonzero(finite))
        _tally_stack(a[finite], tally)
    return tally


def _tally_stack(a: np.ndarray, tally: Counter) -> None:
    """Solve a stack of additive trial matrices and add their outcomes to tally.

    The first of these to happen decides a trial, in the order the scalar
    path (hodge, then tropical, then exponentiation and Perron) raises:
    a hodge vector ScoreVector rejects (failure), a hodge tie (degenerate),
    no critical edge or a rejected tropical vector (failure), a tropical tie
    (degenerate), overflow on exponentiation (failure), a Perron solve that
    _perron_batch does not certify (failure), a Perron tie (degenerate).
    """
    # entries near the float maximum overflow here; those trials fail below
    with np.errstate(over="ignore", invalid="ignore"):
        hodge = _hodge_rows(a)
        order_h, _, _, tie_h = _rank_rows(hodge)
        _, trop, _, crit = _tropical_kernel(a)
        order_t, _, _, tie_t = _rank_rows(trop)

    live = np.ones(a.shape[0], dtype=bool)
    for hit, outcome in ((~np.isfinite(hodge).all(axis=1), "failures"),
                         (tie_h, "degenerate"),
                         (~crit.any(axis=(1, 2)) | ~np.isfinite(trop).all(axis=1), "failures"),
                         (tie_t, "degenerate")):
        tally[outcome] += int(np.count_nonzero(live & hit))
        live &= ~hit
    live = np.flatnonzero(live)

    def keep(mask, outcome):
        nonlocal live
        tally[outcome] += int(mask.size - np.count_nonzero(mask))
        live = live[mask]

    # to_multiplicative; with base e every member whose powers are finite passes
    # the checks ComparisonMatrix makes
    x, finite = _exp_stack(a[live], math.e)
    keep(finite, "failures")
    _, perron, _, _, certified = _perron_batch(x)
    keep(certified, "failures")
    order_p, _, _, tie_p = _rank_rows(np.log(perron[certified]))
    keep(~tie_p, "degenerate")

    orders = {"hodge": order_h[live], "tropical": order_t[live], "principal": order_p[~tie_p]}
    for pair in METHOD_PAIRS:
        first, second = pair.split("-")
        tau = _kendall_rows((orders[first], orders[second]))
        tally["tau_sum", pair] += int(tau.sum())
        tally["disagree", pair] += int(np.count_nonzero(tau))


def monte_carlo_disagreement(cfg: SimulationConfig, jobs: int = 1) -> DisagreementReport:
    """Estimate pairwise ranking-disagreement rates on noisy matrices.

    Each trial draws noise from a generator keyed by (seed, trial index),
    adds it to the strongly transitive signal built from cfg.true_scores,
    and compares the three rankings.  Trials where any method ties are
    tallied as degenerate, and trials where a solver fails or the matrix
    leaves float range are tallied as failures; both are excluded from the
    rate denominators.  The trials are solved in stacked chunks, each trial
    decided by the first of hodge, tropical and Perron to fail or tie, as
    _tally_stack lists.  The keyed streams make the report identical for any
    jobs value, so jobs is capped at the CPU count.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least one")
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs == 1 or cfg.trials < 64:
        parts = [_simulate_range(cfg, 0, cfg.trials)]
    else:
        bounds = np.linspace(0, cfg.trials, 4 * jobs + 1).astype(int)
        spans = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_simulate_range, itertools.repeat(cfg),
                                  [a for a, _ in spans], [b for _, b in spans]))

    tally = sum(parts, Counter())
    effective = cfg.trials - tally["degenerate"] - tally["failures"]
    counts, tau_sums = ({pair: tally[key, pair] for pair in METHOD_PAIRS}
                        for key in ("disagree", "tau_sum"))
    return DisagreementReport(
        n=cfg.n, trials=cfg.trials, seed=cfg.seed,
        degenerate=tally["degenerate"], failures=tally["failures"], counts=counts,
        rates={p: c / effective if effective else math.nan for p, c in counts.items()},
        mean_kendall={p: t / effective if effective else math.nan for p, t in tau_sums.items()})
