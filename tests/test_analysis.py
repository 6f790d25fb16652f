import math
import sys
from collections import Counter

import numpy as np
import pytest

from pairrank import analysis
from pairrank.analysis import (
    METHOD_PAIRS,
    GaussianUpperTriangle,
    SimulationConfig,
    UniformSTperp,
    _simulate_range,
    consistency_index,
    default_k_grid,
    hadamard_trajectory,
    kendall_tau,
    monte_carlo_disagreement,
)
from pairrank.core import (
    ComparisonMatrix,
    Ranking,
    Scale,
    ScoreVector,
    _rank_rows,
    multiplicative_matrix,
    rank_of,
    strongly_transitive_from_scores,
    to_multiplicative,
)
from pairrank.errors import InvalidMatrix, NoConvergence, TieDetected
from pairrank.methods import hodge_scores, principal_scores, tropical_solve


# -- consistency index ---------------------------------------------------------


def test_consistency_index_zero_on_transitive():
    s = ScoreVector(np.array([1.0, 0.3, -0.4, -0.9]), Scale.ADDITIVE)
    x = to_multiplicative(strongly_transitive_from_scores(s))
    assert consistency_index(x) == pytest.approx(0.0, abs=1e-10)


def test_consistency_index_reference_value(disagree_matrix):
    assert consistency_index(disagree_matrix) == pytest.approx(
        0.07636915804128049, abs=1e-9)


def test_consistency_index_nonnegative(rand_add):
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert consistency_index(to_multiplicative(rand_add(rng, 4))) > -1e-10


def test_consistency_index_rejects_additive(rand_add):
    rng = np.random.default_rng(3)
    with pytest.raises(InvalidMatrix):
        consistency_index(rand_add(rng, 4))


# -- rank distance -------------------------------------------------------------


def test_kendall_tau_examples():
    assert kendall_tau(Ranking((3, 4, 1, 2)), Ranking((1, 3, 2, 4))) == 3
    assert kendall_tau(Ranking((1, 2, 3, 4)), Ranking((4, 3, 2, 1))) == 6
    r = Ranking((2, 3, 1))
    assert kendall_tau(r, r) == 0


def test_kendall_tau_size_mismatch():
    with pytest.raises(ValueError):
        kendall_tau(Ranking((1, 2, 3)), Ranking((1, 2, 3, 4)))


def test_kendall_tau_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(20):
        r1 = Ranking(tuple(int(v) + 1 for v in rng.permutation(5)))
        r2 = Ranking(tuple(int(v) + 1 for v in rng.permutation(5)))
        assert kendall_tau(r1, r2) == kendall_tau(r2, r1)


# -- trajectories --------------------------------------------------------------


def test_trajectory_endpoints_of_showcase_matrix(disagree_matrix):
    pts = hadamard_trajectory(disagree_matrix, k_grid=[1.0, 31.0, 45.0, 60.0])
    assert pts[0].ranking == Ranking((3, 4, 1, 2))
    for p in pts[1:]:
        assert p.ranking == Ranking((1, 3, 2, 4))


def test_trajectory_point_shapes(disagree_matrix):
    pts = hadamard_trajectory(disagree_matrix)
    assert len(pts) == len(default_k_grid())
    ks = [p.k for p in pts]
    assert ks == sorted(ks)
    for p in pts:
        assert p.converged
        assert p.v_normalized[0] == 1.0
        assert p.log_v[0] == 0.0
        assert p.v_root.shape == (4,)


def test_trajectory_grid_validation(disagree_matrix, rand_add):
    with pytest.raises(ValueError):
        hadamard_trajectory(disagree_matrix, k_grid=[1.0, 1.0])
    with pytest.raises(ValueError):
        hadamard_trajectory(disagree_matrix, k_grid=[-1.0, 2.0])
    for grid in ([1.0, math.inf], [math.nan, 1.0], [0.5, math.nan]):
        with pytest.raises(ValueError, match="finite"):
            hadamard_trajectory(disagree_matrix, k_grid=grid)
    rng = np.random.default_rng(5)
    with pytest.raises(InvalidMatrix):
        hadamard_trajectory(rand_add(rng, 4))


def test_trajectory_refuses_powers_past_float_range_before_solving(monkeypatch):
    # max|log x| = ln 4, so the shifted log powers span 2 k ln 4: finite up to
    # k of about 6.5e307.  Past that the stack used to run all its steps on NaN
    # (or on overflowed entries) and report failed or meaningless points.
    x = multiplicative_matrix([[1, 2, 0.5, 4], [0.5, 1, 3, 0.25],
                               [2, 1 / 3, 1, 2], [0.25, 4, 0.5, 1]])
    solves = []
    real = analysis._log_perron_batch
    monkeypatch.setattr(analysis, "_log_perron_batch",
                        lambda *args: solves.append(args) or real(*args))
    for k_max in (1e308, sys.float_info.max):
        with pytest.raises(ValueError, match="leave float range"):
            hadamard_trajectory(x, k_grid=[1.0, k_max])
    assert solves == []
    points = hadamard_trajectory(x, k_grid=[1.0, 5e307])
    assert [p.converged for p in points] == [True, True]
    assert str(points[1].ranking) == "1>4>3>2"


def test_trajectory_approaches_tropical_limit(rand_add):
    rng = np.random.default_rng(6)
    a = rand_add(rng, 4)
    sol = tropical_solve(a)
    assert sol.unique
    m = sol.eigenvector.values
    pts = hadamard_trajectory(to_multiplicative(a), k_grid=[100.0, 1000.0])
    errs = []
    for p in pts:
        est = p.log_v / p.k
        errs.append(np.max(np.abs((est - est.mean()) - (m - m.mean()))))
    assert errs[1] < 1e-2
    assert errs[1] < errs[0]


def test_trajectory_ranking_changes_sit_on_component_crossings(disagree_matrix):
    """A ranking flip between grid points pins a near-tie at some k between them."""
    pts = hadamard_trajectory(disagree_matrix)

    def min_gap_at(k: float) -> float:
        p = hadamard_trajectory(disagree_matrix, k_grid=[k])[0]
        logs = np.sort(p.log_v)
        return float(np.min(np.diff(logs)))

    changes = 0
    for a, b in zip(pts, pts[1:]):
        if a.ranking == b.ranking:
            continue
        changes += 1
        lo, hi = a.k, b.k
        ra = a.ranking
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            p = hadamard_trajectory(disagree_matrix, k_grid=[mid])[0]
            if p.ranking == ra:
                lo = mid
            else:
                hi = mid
        assert min_gap_at(0.5 * (lo + hi)) < 1e-9
    assert changes >= 1


def test_trajectory_steps_shrink_under_grid_refinement(disagree_matrix):
    coarse = hadamard_trajectory(disagree_matrix, k_grid=np.geomspace(1.0, 60.0, 30))
    fine = hadamard_trajectory(disagree_matrix, k_grid=np.geomspace(1.0, 60.0, 120))

    def max_step(points):
        vs = np.array([p.v_normalized for p in points])
        return float(np.max(np.abs(np.diff(vs, axis=0))))

    assert max_step(fine) < max_step(coarse)


# -- noise models --------------------------------------------------------------


def test_gaussian_noise_skew_and_determinism():
    model = GaussianUpperTriangle(0.7)
    d1 = model.draw(np.random.default_rng((9, 4)), 5)
    d2 = model.draw(np.random.default_rng((9, 4)), 5)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_allclose(d1, -d1.T, atol=0)
    assert np.any(d1 != 0)


def test_stperp_noise_has_zero_hodge_component():
    model = UniformSTperp(2.0)
    for t in range(10):
        d = model.draw(np.random.default_rng((1, t)), 5)
        m = ComparisonMatrix(d, Scale.ADDITIVE)
        assert np.max(np.abs(hodge_scores(m).values)) < 1e-12


def test_noise_parameter_validation():
    with pytest.raises(ValueError):
        GaussianUpperTriangle(0.0)
    with pytest.raises(ValueError):
        UniformSTperp(-1.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sd must be a finite number"):
            GaussianUpperTriangle(value)
        with pytest.raises(ValueError, match="halfwidth must be a finite number"):
            UniformSTperp(value)


def test_simulation_config_validation():
    noise = GaussianUpperTriangle(1.0)
    with pytest.raises(ValueError):
        SimulationConfig(n=2, trials=10, noise=noise)
    with pytest.raises(ValueError):
        SimulationConfig(n=4, trials=0, noise=noise)
    with pytest.raises(ValueError):
        SimulationConfig(n=4, trials=10, noise=noise,
                         true_scores=ScoreVector(np.zeros(3), Scale.ADDITIVE))


# -- the disagreement study ----------------------------------------------------


def test_simulation_rerun_is_identical():
    cfg = SimulationConfig(n=4, trials=300, noise=GaussianUpperTriangle(1.0), seed=7)
    assert monte_carlo_disagreement(cfg) == monte_carlo_disagreement(cfg)


def test_simulation_parallel_equals_serial():
    cfg = SimulationConfig(n=4, trials=256, noise=GaussianUpperTriangle(1.0), seed=11)
    serial = monte_carlo_disagreement(cfg, jobs=1)
    parallel = monte_carlo_disagreement(cfg, jobs=3)
    assert serial == parallel


def test_simulation_workers_capped_at_cpu_count(monkeypatch):
    # a serial stand-in for the executor records the worker count it is given,
    # so no process is ever started
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(analysis, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 2)
    cfg = SimulationConfig(n=4, trials=256, noise=GaussianUpperTriangle(1.0), seed=11)
    assert monte_carlo_disagreement(cfg, jobs=64) == monte_carlo_disagreement(cfg, jobs=1)
    assert workers == [2]


def test_simulation_bucket_bookkeeping():
    cfg = SimulationConfig(n=4, trials=400, noise=GaussianUpperTriangle(1.0), seed=5)
    rep = monte_carlo_disagreement(cfg)
    assert rep.degenerate + rep.failures + rep.effective == rep.trials
    for pair, count in rep.counts.items():
        assert 0 <= count <= rep.effective
        assert 0.0 <= rep.rates[pair] <= 1.0
        assert 0.0 <= rep.mean_kendall[pair] <= 6.0


def test_simulation_three_items_never_disagree():
    cfg = SimulationConfig(n=3, trials=500, noise=GaussianUpperTriangle(1.0), seed=2)
    rep = monte_carlo_disagreement(cfg)
    assert all(c == 0 for c in rep.counts.values())
    assert all(r == 0.0 for r in rep.rates.values())


def test_simulation_pure_cycle_noise_is_degenerate():
    cfg = SimulationConfig(n=4, trials=50, noise=UniformSTperp(1.0), seed=3)
    rep = monte_carlo_disagreement(cfg)
    assert rep.degenerate == 50
    assert rep.effective == 0
    assert all(math.isnan(r) for r in rep.rates.values())


def test_simulation_seed_changes_outcome():
    base = SimulationConfig(n=4, trials=200, noise=GaussianUpperTriangle(1.0), seed=0)
    other = SimulationConfig(n=4, trials=200, noise=GaussianUpperTriangle(1.0), seed=1)
    assert monte_carlo_disagreement(base) != monte_carlo_disagreement(other)


def _scalar_tallies(cfg: SimulationConfig, start: int, stop: int) -> Counter:
    """The disagreement study one trial at a time through the public scalar API."""
    signal = np.zeros((cfg.n, cfg.n))
    if cfg.true_scores is not None:
        signal = strongly_transitive_from_scores(cfg.true_scores).entries
    tally = Counter()
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
            tally["degenerate"] += 1
            continue
        except (NoConvergence, InvalidMatrix):
            tally["failures"] += 1
            continue
        for pair in METHOD_PAIRS:
            first, second = pair.split("-")
            tau = kendall_tau(rankings[first], rankings[second])
            tally["tau_sum", pair] += tau
            tally["disagree", pair] += int(tau > 0)
    return tally


_STPERP_SCORES = ScoreVector(np.array([0.3, -1.1, 0.9, 0.0, -0.4, 1.6]), Scale.ADDITIVE)


@pytest.mark.parametrize("cfg, start, outcome", [
    (SimulationConfig(n=3, trials=120, noise=GaussianUpperTriangle(1.0), seed=4), 0, "effective"),
    (SimulationConfig(n=4, trials=120, noise=GaussianUpperTriangle(1.0), seed=5), 0, "effective"),
    (SimulationConfig(n=8, trials=80, noise=GaussianUpperTriangle(1.0), seed=6), 0, "effective"),
    (SimulationConfig(n=6, trials=80, noise=UniformSTperp(2.0), true_scores=_STPERP_SCORES,
                      seed=3), 0, "effective"),
    (SimulationConfig(n=4, trials=120, noise=GaussianUpperTriangle(1e-12), seed=8), 0, "degenerate"),
    # trials 47..56 of this stream hold exponent overflows, Perron solves that
    # stop after two steps on vectors the certificate rejects (one with a
    # component that underflows to zero), and one whose spectral ratio rules out
    # convergence, so it leaves at the solver's triage step
    (SimulationConfig(n=4, trials=57, noise=GaussianUpperTriangle(400.0), seed=1), 47, "failures"),
    (SimulationConfig(n=5, trials=40, noise=GaussianUpperTriangle(1e6), seed=2), 0, "failures"),
], ids=["gauss-n3", "gauss-n4", "gauss-n8", "stperp-n6", "sd-1e-12", "sd-400", "sd-1e6"])
def test_stacked_simulation_matches_scalar_trials(cfg, start, outcome):
    """Stacked trials tally exactly what the scalar solvers give one trial at a time."""
    stacked = _simulate_range(cfg, start, cfg.trials)
    assert stacked == _scalar_tallies(cfg, start, cfg.trials)
    effective = cfg.trials - start - stacked["degenerate"] - stacked["failures"]
    assert {"effective": effective, "degenerate": stacked["degenerate"],
            "failures": stacked["failures"]}[outcome] > 0


def _mpmath_perron_order(x: np.ndarray) -> list[int]:
    """0-based items best first by the Perron vector of x, from a 50-digit mpmath eig.

    The oracle checks itself: the Collatz-Wielandt log spread of its vector,
    taken at the same precision, must be negligible, so that even components
    near 1e-25 of the largest are resolved.
    """
    mpmath = pytest.importorskip("mpmath")
    n = x.shape[0]
    with mpmath.workdps(50):
        exact = mpmath.matrix(x.tolist())   # every float converts exactly
        values, vectors = mpmath.eig(exact)
        top = max(range(n), key=lambda i: mpmath.re(values[i]))
        v = mpmath.matrix([abs(vectors[i, top]) for i in range(n)])
        xv = exact * v
        logs = [mpmath.log(xv[i] / v[i]) for i in range(n)]
        assert max(logs) - min(logs) < 1e-9
    return sorted(range(n), key=lambda i: -v[i])


def test_counted_principal_rankings_match_an_mpmath_oracle(monkeypatch):
    """Every principal ranking the stacked study counts is the exact Perron ranking.

    At sd 30 some linear solves stop on vectors whose tiny components are
    still wrong; they must be failures, not effective trials.
    """
    solved = []

    def record(x, *args, **kwargs):
        out = real(x, *args, **kwargs)
        solved.append((x, out[1], out[4]))
        return out

    real = analysis._perron_batch
    monkeypatch.setattr(analysis, "_perron_batch", record)
    cfg = SimulationConfig(n=5, trials=100, noise=GaussianUpperTriangle(30.0), seed=1)
    tally = _simulate_range(cfg, 0, cfg.trials)
    counted = 0
    for x, vectors, certified in solved:
        order, _, _, tied = _rank_rows(np.log(vectors[certified]))
        for matrix, items in zip(x[certified][~tied], order[~tied]):
            assert items.tolist() == _mpmath_perron_order(matrix)
            counted += 1
    assert counted == cfg.trials - tally["failures"] - tally["degenerate"] >= 10


def test_members_the_triage_shift_rescues_match_an_mpmath_oracle(monkeypatch):
    """Slow members that triage keeps certify once shifted by their Perron root.

    Trials 3, 4, 42, 50 and 60 of this study have |l2/l1| between 0.9997 and
    the triage threshold, so triage keeps them. Unshifted, 3, 4 and 50 ran
    all 100,000 steps and ended uncertified, and 42 and 60 stopped after
    about 78,000; shifted, each stops within a few hundred steps, on the
    exact Perron ranking.
    """
    solved = []

    def record(x, *args, **kwargs):
        out = real(x, *args, **kwargs)
        solved.append((x, out[1], out[2], out[4]))
        return out

    real = analysis._perron_batch
    monkeypatch.setattr(analysis, "_perron_batch", record)
    cfg = SimulationConfig(n=5, trials=100, noise=GaussianUpperTriangle(10.0), seed=1)
    tally = _simulate_range(cfg, 0, cfg.trials)
    [(x, vectors, iterations, certified)] = solved
    mags = np.sort(abs(np.linalg.eigvals(x)), axis=1)
    ratio = mags[:, -2] / mags[:, -1]
    # triage drops the members above exp(ln(1e-12) / 200,000) = 0.999862
    slow = np.flatnonzero((ratio > 0.9997) & (ratio < 0.99986))
    assert slow.tolist() == [3, 4, 42, 50, 60]   # every trial reaches the solve
    assert certified[slow].all() and (iterations[slow] < 200).all()
    for k in slow:
        assert np.argsort(-vectors[k]).tolist() == _mpmath_perron_order(x[k])
    assert tally["failures"] == 30


def test_disagreement_rate_falls_as_signal_grows():
    """Stronger true scores under fixed noise cannot raise the disagreement rate."""
    trials = 10_000
    rates = []
    for scale in (0.5, 1.0, 2.0):
        scores = ScoreVector(scale * np.array([1.5, 0.5, -0.5, -1.5]), Scale.ADDITIVE)
        cfg = SimulationConfig(n=4, trials=trials, noise=GaussianUpperTriangle(1.0),
                               true_scores=scores, seed=21)
        rep = monte_carlo_disagreement(cfg, jobs=4)
        rates.append(rep.rates["hodge-tropical"])
    for lo, hi in zip(rates[1:], rates[:-1]):
        se = math.sqrt(max(hi * (1.0 - hi), 1e-12) / trials)
        assert lo <= hi + se, rates
