import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from pairrank.core import (
    ComparisonMatrix,
    Ranking,
    Scale,
    ScoreVector,
    rank_of,
    strongly_transitive_from_scores,
    to_additive,
    to_multiplicative,
)
from pairrank.errors import InvalidMatrix, NoConvergence, TieDetected
from pairrank import methods
from pairrank.analysis import GaussianUpperTriangle, hadamard_trajectory
from pairrank.methods import (
    _log_perron_batch,
    _perron_batch,
    _tropical_kernel,
    hadamard_power,
    hadamard_product,
    hodge_scores,
    principal_scores,
    tropical_eigenvalue,
    tropical_scores_multiplicative,
    tropical_solve,
)


def brute_force_max_mean_cycle(entries: np.ndarray) -> float:
    """Enumerate every directed simple cycle and take the best mean weight."""
    n = entries.shape[0]
    best = -math.inf
    for size in range(2, n + 1):
        for nodes in itertools.combinations(range(n), size):
            first = nodes[0]
            for rest in itertools.permutations(nodes[1:]):
                cyc = (first,) + rest
                w = sum(entries[cyc[t], cyc[(t + 1) % size]] for t in range(size))
                best = max(best, w / size)
    return best


# -- least-squares scores ------------------------------------------------------


def test_hodge_additive_is_centered_row_means(rand_add):
    rng = np.random.default_rng(1)
    m = rand_add(rng, 5)
    h = hodge_scores(m)
    np.testing.assert_allclose(h.values, m.entries.sum(axis=1) / 5.0, atol=1e-12)
    assert h.values.sum() == pytest.approx(0.0, abs=1e-12)


def test_hodge_multiplicative_is_geometric_row_means(rand_add):
    rng = np.random.default_rng(2)
    a = rand_add(rng, 4)
    x = to_multiplicative(a)
    h_mult = hodge_scores(x)
    h_add = hodge_scores(a)
    np.testing.assert_allclose(np.log(h_mult.values),
                               h_add.values - h_add.values[0], atol=1e-12)


def test_hodge_recovers_scores_of_transitive_matrix():
    s = ScoreVector(np.array([1.0, 0.25, -0.25, -1.0]), Scale.ADDITIVE)
    m = strongly_transitive_from_scores(s)
    np.testing.assert_allclose(hodge_scores(m).values, s.values, atol=1e-12)


# -- Perron eigenvector --------------------------------------------------------


def test_principal_scores_reference_values(disagree_matrix):
    sol = principal_scores(disagree_matrix)
    assert sol.eigenvalue == pytest.approx(4.2291074741238415, abs=1e-9)
    v = sol.eigenvector.first_unit().values
    np.testing.assert_allclose(
        v, [1.0, 0.99373148, 1.19228472, 1.1502032], atol=1e-7)
    assert rank_of(sol.eigenvector) == Ranking((3, 4, 1, 2))
    assert sol.residual < 1e-10


def test_perron_batch_members_match_batches_of_one(rand_add):
    # mild 5x5 matrices converge in a dozen or so steps, the sd-3 member needs
    # more than the budget; the others leave the stack at different steps
    rng = np.random.default_rng(11)
    sds = (0.3, 1.0, 0.3, 3.0, 0.5, 1.0, 0.3)
    stack = np.stack([to_multiplicative(rand_add(rng, 5, sd)).entries for sd in sds])
    budget = 60
    lam, vec, iters, residual, certified = _perron_batch(stack, max_iter=budget)
    assert certified.tolist() == [sd != 3.0 for sd in sds]
    assert len(set(iters[certified].tolist())) > 2
    for k in range(len(sds)):
        one = _perron_batch(stack[k:k + 1], max_iter=budget)
        assert one[0].tobytes() == lam[k:k + 1].tobytes()
        assert one[1].tobytes() == vec[k:k + 1].tobytes()
        assert one[2][0] == iters[k]
        assert one[3].tobytes() == residual[k:k + 1].tobytes()
        assert one[4].tobytes() == certified[k:k + 1].tobytes()
        x = ComparisonMatrix(stack[k], Scale.MULTIPLICATIVE)
        if certified[k]:
            sol = principal_scores(x, max_iter=budget)
            assert (sol.eigenvalue, sol.iterations, sol.residual) == (lam[k], iters[k], residual[k])
            assert sol.eigenvector.values.tobytes() == vec[k].tobytes()
        else:
            assert np.isnan(lam[k]) and np.isnan(residual[k])
            with pytest.raises(NoConvergence) as exc:
                principal_scores(x, max_iter=budget)
            spread = np.ptp(np.log(stack[k] @ vec[k] / vec[k]))
            assert str(exc.value) == str(NoConvergence(budget, spread))


def _roadmap_matrix() -> ComparisonMatrix:
    """A Gaussian sd-30 draw whose linear solve stops after four steps on a wrong vector.

    Its step falls below 1e-12 while components near 1e-19 are still wrong by
    orders of magnitude: the Rayleigh quotient reads 52.8, where 50-digit
    mpmath gives log lambda = 31.54 and the ranking 2>4>5>3>1, not 2>5>3>4>1.
    """
    a = GaussianUpperTriangle(30.0).draw(np.random.default_rng((1, 8)), 5)
    return to_multiplicative(ComparisonMatrix(a, Scale.ADDITIVE))


def test_principal_scores_refuses_a_stop_it_cannot_certify():
    with pytest.raises(NoConvergence, match="not certified after 4 iterations") as exc:
        principal_scores(_roadmap_matrix())
    assert exc.value.spread > 1.0


def _nearly_cyclic(weight: float = 12.0) -> np.ndarray:
    """A random 5x5 matrix plus weight on the cycle 1 -> 2 -> ... -> 5 -> 1, exponentiated."""
    g = np.triu(np.random.default_rng(3).normal(0.0, 1.0, (5, 5)), 1)
    a = g - g.T
    for i in range(5):
        a[i, (i + 1) % 5] += weight
        a[(i + 1) % 5, i] -= weight
    return to_multiplicative(ComparisonMatrix(a, Scale.ADDITIVE)).entries


def _two_blocks() -> np.ndarray:
    """A positive 5x5 matrix of two weakly coupled blocks: l2 is real, positive, 0.79 l1."""
    x = np.full((5, 5), 0.05)
    x[:3, :3] = [[1.0, 2.0, 1.0], [0.5, 1.0, 2.0], [1.0, 0.5, 1.0]]
    x[3:, 3:] = [[1.3, 2.6], [0.65, 1.3]]
    return x


def test_perron_batch_certifies_each_member_as_a_batch_of_one(rand_add):
    # mild members around one that stops uncertified after four steps, and one
    # whose |l2/l1| = 0.99991 needs about 300,000 steps, so it leaves at triage
    rng = np.random.default_rng(12)
    mild = [to_multiplicative(rand_add(rng, 5, 0.5)).entries for _ in range(3)]
    stack = np.stack([mild[0], _roadmap_matrix().entries, mild[1], _nearly_cyclic(), mild[2]])
    lam, vec, iters, residual, certified = _perron_batch(stack)
    assert certified.tolist() == [True, False, True, False, True]
    assert iters[1] == 4 and iters[3] == methods._TRIAGE_STEP
    assert np.isfinite(lam[1]) and np.isnan(lam[3])
    for k in range(len(stack)):
        one = _perron_batch(stack[k:k + 1])
        for batched, alone in zip((lam, vec, iters, residual, certified), one):
            assert alone.tobytes() == batched[k:k + 1].tobytes()


def _perron_step_by_step(x: np.ndarray, max_iter: int = 100000):
    """The power iteration _perron_batch runs in blocks, with one stop test per step.

    Kept as the reference: each member takes the same products, sums and
    divides, is shifted by the same triage, and leaves the stack at the step
    where it stops. Stops are judged on the unshifted matrices in xo.
    """
    b, n = x.shape[0], x.shape[1]
    lam, residual = np.full((2, b), np.nan)
    certified = np.zeros(b, dtype=bool)
    vectors, iterations = np.empty((b, n)), np.full(b, max_iter)
    live, xs, xo = np.arange(b), x, x
    v = np.full((b, n, 1), 1.0 / n)
    for it in range(1, (max_iter if b else 0) + 1):
        w = xs @ v
        w /= np.add.reduce(w, 1, keepdims=True)
        step = np.maximum.reduce(abs(w - v), 1)
        v = w
        finished = np.count_nonzero(step < methods._STEP_TOL)
        if it == methods._TRIAGE_STEP and finished < live.size:
            drop = ~(step[:, 0] < methods._STEP_TOL)
            slow, shift, shifted = methods._triage(xs[drop], max_iter)
            xs = xs.copy()
            xs[np.flatnonzero(drop)[shift]] = shifted[shift]
            drop[drop] = slow
            vectors[live[drop]], iterations[live[drop]] = v[drop, :, 0], it
            live, xs, xo, v, step = live[~drop], xs[~drop], xo[~drop], v[~drop], step[~drop]
            if not live.size:
                break
        if not finished:
            continue
        last = finished == live.size
        if last:
            idx, xd, vd = live, xo, v
        else:
            done = step[:, 0] < methods._STEP_TOL
            idx, xd, vd = live[done], xo[done], v[done]
            live, xs, xo, v = live[~done], xs[~done], xo[~done], v[~done]
        xv = xd @ vd
        vt = vd.transpose(0, 2, 1)
        rayleigh = vt @ xv / (vt @ vd)
        lam[idx], residual[idx] = rayleigh[:, 0, 0], np.maximum.reduce(abs(xv - rayleigh * vd), (1, 2))
        vectors[idx], iterations[idx] = vd[:, :, 0], it
        certified[idx] = methods._cw_spread(xv[:, :, 0], vd[:, :, 0]) <= methods._CW_SPREAD
        if last:
            break
    else:
        vectors[live] = v[:, :, 0]
    return lam, vectors, iterations, residual, certified


def test_perron_batch_matches_the_step_by_step_loop_bit_for_bit(rand_add):
    assert methods._TRIAGE_STEP % methods._BLOCK == 0
    rng = np.random.default_rng(14)
    # _two_blocks() is not shifted and needs 108 steps: with the shift every other
    # member still moving at triage stops within 100 steps or leaves there
    stack = np.stack([to_multiplicative(rand_add(rng, 5, sd)).entries
                      for sd in (0.3, 1.0, 2.0, 3.0) * 6] + [_two_blocks()])
    lam, _, iters, _, _ = _perron_step_by_step(stack, 100)
    # the cases a block can get wrong, at a budget that is not a multiple of the block
    stopped = iters[np.isfinite(lam)]
    blocks = (stopped - 1) // methods._BLOCK
    assert any(len(set(stopped[blocks == k].tolist())) > 1 for k in set(blocks.tolist()))
    assert methods._TRIAGE_STEP in stopped.tolist()
    assert np.isnan(lam[iters == methods._TRIAGE_STEP]).any()   # dropped at triage
    assert np.isnan(lam[iters == 100]).any()                      # never stopped
    stop_at_64 = int(np.flatnonzero((iters == methods._TRIAGE_STEP) & np.isfinite(lam))[0])
    mixed = np.stack([stack[0], _roadmap_matrix().entries, _nearly_cyclic(), stack[stop_at_64],
                      _two_blocks(), _nearly_cyclic(7.0)])
    cases = [(stack, 100), (stack, 50), (stack[:0], 100), (stack[:1], 100),
             (stack[stop_at_64:stop_at_64 + 1], 100), (mixed, 100000), (mixed[1:3], 100000)]
    for x, max_iter in cases:
        for blocked, stepwise in zip(_perron_batch(x, max_iter), _perron_step_by_step(x, max_iter)):
            assert blocked.dtype == stepwise.dtype
            assert np.array_equal(blocked, stepwise, equal_nan=True)


def _without_triage(monkeypatch, x: np.ndarray):
    """_perron_batch on x with triage moved to a step the loop never reaches."""
    with monkeypatch.context() as m:
        m.setattr(methods, "_TRIAGE_STEP", 10**9)
        return _perron_batch(x)


def test_triage_shifts_only_members_it_speeds_up(monkeypatch):
    # the cycle's l2 is complex, |l2/l1| = 0.987, and |l2 + rho| / 2 rho = 0.800;
    # _two_blocks() has a real positive l2, which the shift would bring closer to l1
    stack = np.stack([_nearly_cyclic(7.0), _two_blocks()])
    lam, vec, iters, residual, certified = _perron_batch(stack)
    plain = _without_triage(monkeypatch, stack)
    assert certified.all() and plain[4].all()
    assert iters.tolist() == [174, 108] and plain[2].tolist() == [1979, 108]
    for shifted, unshifted in zip((lam, vec, iters, residual, certified), plain):
        assert shifted[1:].tobytes() == unshifted[1:].tobytes()
    # the same eigenpair, judged on the unshifted matrix
    assert np.allclose(vec[0], plain[1][0], rtol=1e-9, atol=0.0)
    assert abs(lam[0] - plain[0][0]) <= 1e-10 * lam[0] and residual[0] <= 1e-9 * lam[0]


@pytest.mark.filterwarnings("error")
def test_triage_leaves_a_member_unshifted_when_the_shift_overflows(monkeypatch):
    # a noisy 5-cycle plus a tenth of the identity: l2 is complex, so triage
    # shifts it, but scaled to entries near 1.5e308 its X + rho I overflows
    p = np.roll(np.eye(5), 1, axis=1)
    x = (p + 0.1 * np.eye(5) + 0.01) * np.exp(0.01 * np.random.default_rng(0).normal(size=(5, 5)))
    assert _perron_batch(x[None])[2][0] < _without_triage(monkeypatch, x[None])[2][0]
    huge = 1.45e308 * x
    assert huge.max() > 1e308
    out, plain = _perron_batch(huge[None]), _without_triage(monkeypatch, huge[None])
    assert out[4][0]
    for a, b in zip(out, plain):
        assert a.tobytes() == b.tobytes()


def test_log_perron_batch_members_match_batches_of_one(rand_add):
    # shifted log powers of one 6x6 matrix, as a trajectory builds them: larger
    # powers need more steps, and k = 60 needs more than the budget
    rng = np.random.default_rng(11)
    x = to_multiplicative(rand_add(rng, 6))
    ks = np.array([0.05, 0.5, 1.0, 2.0, 8.0, 60.0])
    log_k = ks[:, None, None] * np.log(x.entries)
    peak = log_k.max(axis=(1, 2))
    stack, shifts = log_k - peak[:, None, None], ks * tropical_eigenvalue(x) - peak
    budget = 60
    vectors, converged = _log_perron_batch(stack, shifts, max_iter=budget)
    assert converged.tolist() == [True] * 5 + [False]
    for k in range(len(ks)):
        one, one_converged = _log_perron_batch(stack[k:k + 1], shifts[k:k + 1], max_iter=budget)
        assert one.tobytes() == vectors[k:k + 1].tobytes()
        assert one_converged[0] == converged[k]
    assert _log_perron_batch(stack[5:], shifts[5:])[1][0]


def test_trajectory_points_match_point_by_point(rand_add):
    # 200 points at n = 64 span fifty stacks
    x = to_multiplicative(rand_add(np.random.default_rng(5), 64, 0.5))
    grid = np.geomspace(0.05, 60.0, 200)
    stacked = hadamard_trajectory(x, k_grid=grid)
    assert len(stacked) == 200 and all(p.converged for p in stacked)
    for k, p in zip(grid, stacked):
        alone = hadamard_trajectory(x, k_grid=[k])[0]
        assert (p.k, p.ranking, p.converged) == (alone.k, alone.ranking, alone.converged)
        for field in ("v_normalized", "log_v", "v_root"):
            assert getattr(p, field).tobytes() == getattr(alone, field).tobytes()


def test_principal_scores_requires_multiplicative(rand_add):
    rng = np.random.default_rng(3)
    with pytest.raises(InvalidMatrix):
        principal_scores(rand_add(rng, 4))


def test_principal_eigenvalue_at_least_n(rand_add):
    rng = np.random.default_rng(4)
    for _ in range(25):
        x = to_multiplicative(rand_add(rng, 4))
        sol = principal_scores(x)
        assert sol.eigenvalue >= 4.0 - 1e-10
        assert np.all(sol.eigenvector.values > 0)
        assert sol.eigenvector.values.sum() == pytest.approx(1.0, abs=1e-12)


def test_principal_ties_on_transitive_free_matrix():
    ones = ComparisonMatrix(np.ones((4, 4)), Scale.MULTIPLICATIVE)
    sol = principal_scores(ones)
    assert sol.eigenvalue == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(TieDetected):
        rank_of(sol.eigenvector)


def test_principal_matches_transitive_scores():
    s = ScoreVector(np.array([0.9, 0.2, -0.3, -0.8]), Scale.ADDITIVE)
    x = to_multiplicative(strongly_transitive_from_scores(s))
    v = principal_scores(x).eigenvector.first_unit().values
    np.testing.assert_allclose(np.log(v), s.values - s.values[0], atol=1e-10)


# -- tropical eigenproblem -----------------------------------------------------


def test_tropical_eigenvalue_matches_cycle_enumeration(rand_add):
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        for _ in range(60):
            m = rand_add(rng, n)
            lam = tropical_eigenvalue(m)
            assert lam == pytest.approx(
                brute_force_max_mean_cycle(m.entries), abs=1e-12)


def test_tropical_solve_reference_values(disagree_matrix):
    sol = tropical_solve(to_additive(disagree_matrix))
    assert sol.eigenvalue == pytest.approx(0.4353495968096756, abs=1e-12)
    assert sol.critical_edges == frozenset({(2, 3), (3, 4), (4, 2)})
    assert sol.unique
    assert sol.critical_class_count == 1
    m_mult = sol.eigenvector.as_multiplicative().first_unit().values
    np.testing.assert_allclose(
        m_mult, [1.0, 0.97901732, 0.98945304, 0.96869167], atol=1e-7)
    assert rank_of(sol.eigenvector) == Ranking((1, 3, 2, 4))


def test_tropical_eigen_equation(rand_add):
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rand_add(rng, 5)
        sol = tropical_solve(a)
        m = sol.eigenvector.values
        lhs = np.max(a.entries + m[None, :], axis=1)
        np.testing.assert_allclose(lhs, sol.eigenvalue + m, atol=1e-9)


def test_tropical_critical_edges_attain_eigenvalue(rand_add):
    rng = np.random.default_rng(9)
    a = rand_add(rng, 6)
    sol = tropical_solve(a)
    m = sol.eigenvector.values
    for i, j in sol.critical_edges:
        slack = a.entries[i - 1, j - 1] + m[j - 1] - sol.eigenvalue - m[i - 1]
        assert abs(slack) < 1e-9
    assert sol.critical_vertices == frozenset(
        v for edge in sol.critical_edges for v in edge)


def test_tropical_two_critical_classes():
    # two disjoint 3-cycles 1->2->3->1 and 4->5->6->4, each of mean weight 1
    a = np.zeros((6, 6))
    edges = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]
    for i, j in edges:
        a[i - 1, j - 1], a[j - 1, i - 1] = 1.0, -1.0
    sol = tropical_solve(ComparisonMatrix(a, Scale.ADDITIVE))
    assert sol.eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert sol.critical_edges == frozenset(edges)
    assert sol.critical_vertices == frozenset(range(1, 7))
    assert sol.critical_class_count == 2
    assert not sol.unique


def test_tropical_constant_on_transitive_matrix():
    s = ScoreVector(np.array([1.5, 0.5, -0.5, -1.5]), Scale.ADDITIVE)
    sol = tropical_solve(strongly_transitive_from_scores(s))
    assert sol.eigenvalue == pytest.approx(0.0, abs=1e-12)
    gap = sol.eigenvector.values - s.values
    np.testing.assert_allclose(gap, np.full(4, gap[0]), atol=1e-12)


def _karp_exact(a: list) -> Fraction:
    """Karp's maximum cycle mean in rational arithmetic, where every float is exact."""
    n = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    d = [[Fraction(0)] + [None] * (n - 1)]   # best length-k walk weights from item 1
    for _ in range(n):
        d.append([max(d[-1][u] + a[u][v] for u in range(n) if d[-1][u] is not None)
                  for v in range(n)])
    return max(min((d[n][v] - d[k][v]) / (n - k) for k in range(n) if d[k][v] is not None)
               for v in range(n))


def test_tropical_eigenvalue_matches_exact_karp_across_scales():
    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    for _ in range(300):
        n = int(rng.integers(3, 8))
        g = np.triu(rng.normal(size=(n, n)), 1) * 10.0 ** rng.uniform(-12, 8)
        a = g - g.T
        got = tropical_eigenvalue(ComparisonMatrix(a, Scale.ADDITIVE))
        assert abs(Fraction(got) - _karp_exact(a.tolist())) <= 4 * n * eps * np.abs(a).max()


def test_tropical_batch_matches_scalar_solver(rand_add):
    rng = np.random.default_rng(10)
    stack = np.stack([rand_add(rng, 4).entries for _ in range(50)])
    lam_b, vec_b = _tropical_kernel(stack)[:2]
    for t in range(50):
        sol = tropical_solve(ComparisonMatrix(stack[t], Scale.ADDITIVE))
        assert lam_b[t] == pytest.approx(sol.eigenvalue, abs=1e-12)
        centered = sol.eigenvector.values - sol.eigenvector.values.mean()
        np.testing.assert_allclose(vec_b[t], centered, atol=1e-12)


def test_tropical_multiplicative_ranking_base_invariant(disagree_matrix):
    for base in (math.e, 2.0, 10.0):
        s = tropical_scores_multiplicative(disagree_matrix, base=base)
        assert rank_of(s) == Ranking((1, 3, 2, 4))


# -- Hadamard operations -------------------------------------------------------


def test_hadamard_product_and_power(rand_add):
    rng = np.random.default_rng(12)
    x = to_multiplicative(rand_add(rng, 4))
    y = to_multiplicative(rand_add(rng, 4))
    np.testing.assert_allclose(hadamard_product(x, y).entries,
                               x.entries * y.entries, atol=1e-12)
    np.testing.assert_allclose(hadamard_power(x, 3.0).entries,
                               x.entries ** 3, rtol=1e-12)
    with pytest.raises(InvalidMatrix):
        hadamard_product(x, rand_add(rng, 4))


def test_principal_of_hadamard_product_with_transitive_factor(rand_add):
    rng = np.random.default_rng(13)
    x = to_multiplicative(rand_add(rng, 5))
    s = ScoreVector(rng.normal(size=5), Scale.ADDITIVE).as_multiplicative()
    st = to_multiplicative(strongly_transitive_from_scores(s.as_additive()))
    v_prod = principal_scores(hadamard_product(x, st)).eigenvector.first_unit().values
    v_plain = principal_scores(x).eigenvector.first_unit().values
    s_unit = s.first_unit().values
    np.testing.assert_allclose(v_prod, v_plain * s_unit, rtol=1e-8)


# -- the three-item collapse ---------------------------------------------------


def test_three_methods_agree_for_three_items(rand_add):
    rng = np.random.default_rng(14)
    for _ in range(100):
        a = rand_add(rng, 3)
        h = hodge_scores(a).sum_zero().values
        m = tropical_solve(a).eigenvector.sum_zero().values
        v = principal_scores(to_multiplicative(a)).eigenvector
        v_add = v.as_additive().sum_zero().values
        np.testing.assert_allclose(h, m, atol=1e-9)
        np.testing.assert_allclose(h, v_add, atol=1e-9)
