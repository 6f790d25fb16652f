"""End-to-end acceptance checks.

Each test here is one acceptance criterion for the package: the worked
4x4 example, the three-item collapse, witness self-certification, the
closed-form 4x4 tropical solver, Karp against exhaustive cycle search,
the Hadamard-power trajectory and its tropical limit, the reduction to
cycle space, the permutahedron projection, the invariance suite, and
CLI determinism.  Tolerances and runtime bounds are asserted exactly as
stated in each docstring.
"""

import itertools
import json
import time

import numpy as np

from pairrank.analysis import default_k_grid, hadamard_trajectory
from pairrank.cli import main
from pairrank.core import (
    ComparisonMatrix,
    Ranking,
    Scale,
    ScoreVector,
    rank_of,
    relabel,
    strongly_transitive_from_scores,
    to_additive,
    to_multiplicative,
)
from pairrank.geometry import (
    _closed_form_batch,
    permutahedron_check4,
    project_components,
)
from pairrank.methods import (
    _tropical_kernel,
    hodge_scores,
    principal_scores,
    tropical_eigenvalue,
    tropical_solve,
)
from pairrank.witness import Pair, WitnessRequest, generate_witness


def _random_additive(rng, n, sd=1.0):
    g = np.triu(rng.normal(0.0, sd, size=(n, n)), 1)
    return ComparisonMatrix(g - g.T, Scale.ADDITIVE)


def _sum_zero(values):
    v = np.asarray(values, dtype=float)
    return v - v.mean()


def _permuted(values, tau):
    """Array twin of score relabeling: slot tau(i) gets old value i."""
    idx = np.asarray(tau, dtype=int) - 1
    out = np.empty(len(idx))
    out[idx] = np.asarray(values, dtype=float)
    return out


def _st_additive(scores):
    return strongly_transitive_from_scores(
        ScoreVector(np.asarray(scores, dtype=float), Scale.ADDITIVE)
    )


def _method_ranking(method, m):
    """Recompute one method's ranking from scratch on a witness matrix."""
    if method == "hodge":
        return rank_of(hodge_scores(m))
    if method == "tropical":
        return rank_of(tropical_solve(to_additive(m)).eigenvector)
    if method == "principal":
        return rank_of(principal_scores(to_multiplicative(m)).eigenvector)
    raise ValueError(method)


# ---------------------------------------------------------------------------
# 1. Worked 4x4 example


def test_criterion_01_worked_example_rank_report(disagree_csv, capsys):
    """`rank` on the stored 4x4 example reproduces the reference report.

    Normalized score vectors within 0.005 per component, the three
    rankings exactly, the consistency index within 5e-4 of the reference
    value 0.07073, in under one second.

    The index clause is expected to fail: recomputing the index from the
    stored matrix gives 0.076369, and no reciprocity repair of the
    printed entries brings it below 0.0728.  The reference value is kept
    here unchanged so the discrepancy stays visible.
    """
    t0 = time.perf_counter()
    code = main(
        ["rank", str(disagree_csv), "--reciprocity-tol", "0.05", "--format", "json"]
    )
    elapsed = time.perf_counter() - t0
    assert code == 0
    report = json.loads(capsys.readouterr().out)

    expected_scores = {
        "principal": (1.0, 0.991, 1.191, 1.151),
        "hodge": (1.0, 0.942, 1.155, 1.151),
        "tropical": (1.0, 0.979, 0.989, 0.968),
    }
    for method, expected in expected_scores.items():
        got = np.asarray(report["scores"][method], dtype=float)
        assert np.allclose(got, expected, atol=0.005), (method, got.tolist())

    assert report["rankings"]["principal"] == "3>4>1>2"
    assert report["rankings"]["hodge"] == "3>4>1>2"
    assert report["rankings"]["tropical"] == "1>3>2>4"

    assert elapsed < 1.0, f"rank took {elapsed:.2f}s"

    ci = report["consistency_index"]
    assert abs(ci - 0.07073) < 5e-4, (
        f"consistency index {ci:.6f} is not within 5e-4 of the reference "
        f"value 0.07073 (recomputation from the stored entries gives "
        f"0.076369; see the decision log outside this package)"
    )


# ---------------------------------------------------------------------------
# 2. Three-item collapse


def test_criterion_02_three_item_collapse():
    """For 10,000 seeded random 3x3 matrices the three methods coincide.

    Log entries are Gaussian with sd 1.  The three normalized (sum-zero
    additive) score vectors agree within 1e-9 per component and the
    rankings never disagree.  Runtime under 10 seconds.
    """
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    disagreements = 0
    for _ in range(10000):
        a = _random_additive(rng, 3)
        h_scores = hodge_scores(a)
        m_scores = tropical_solve(a).eigenvector
        v_scores = principal_scores(to_multiplicative(a)).eigenvector
        h = _sum_zero(h_scores.values)
        m = _sum_zero(m_scores.values)
        v = _sum_zero(v_scores.as_additive().values)
        worst = max(
            worst,
            float(np.max(np.abs(h - m))),
            float(np.max(np.abs(h - v))),
            float(np.max(np.abs(m - v))),
        )
        rh = rank_of(h_scores)
        if rank_of(m_scores) != rh:
            disagreements += 1
        if rank_of(v_scores) != rh:
            disagreements += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9, f"worst componentwise gap {worst:.3e}"
    assert disagreements == 0
    assert elapsed < 10.0, f"collapse sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. Witness generation self-certifies


def test_criterion_03_witnesses_self_certify():
    """Every generated disagreement witness certifies its own rankings.

    For each method pair: 200 seeded random ranking pairs at n=4 and 100
    at n=5.  Both method rankings are recomputed from the emitted matrix
    and must equal the requested ones.  Runtime under five minutes.
    """
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    checked = 0
    for pair in Pair:
        first, second = pair.methods
        for n, trials in ((4, 200), (5, 100)):
            for _ in range(trials):
                sigma1 = Ranking(tuple(int(i) + 1 for i in rng.permutation(n)))
                sigma2 = Ranking(tuple(int(i) + 1 for i in rng.permutation(n)))
                req = WitnessRequest(n=n, pair=pair, sigma1=sigma1, sigma2=sigma2)
                result = generate_witness(req)
                assert _method_ranking(first, result.matrix) == sigma1, (
                    pair.value, str(sigma1), str(sigma2))
                assert _method_ranking(second, result.matrix) == sigma2, (
                    pair.value, str(sigma1), str(sigma2))
                checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 900
    assert elapsed < 300.0, f"witness sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. Closed-form 4x4 tropical solver


def test_criterion_04_closed_form_matches_general_solver():
    """Closed-form region solver agrees with Karp on 100,000 seeded 4x4s.

    Inputs within margin 1e-7 of a region boundary are skipped; the skip
    rate must stay below 1% and is reported.  Eigenvalue and sum-zero
    eigenvector agree within 1e-9.  Runtime under 30 seconds.
    """
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    total = 0
    skipped = 0
    worst_lam = 0.0
    worst_vec = 0.0
    for _ in range(5):
        g = np.triu(rng.normal(0.0, 1.0, size=(20000, 4, 4)), 1)
        stack = g - np.transpose(g, (0, 2, 1))
        lam_cf, vec_cf, skip = _closed_form_batch(stack, margin=1e-7)
        lam_k, vec_k = _tropical_kernel(stack, 1e-9)[:2]
        keep = ~skip
        worst_lam = max(worst_lam, float(np.max(np.abs(lam_cf[keep] - lam_k[keep]))))
        worst_vec = max(worst_vec, float(np.max(np.abs(vec_cf[keep] - vec_k[keep]))))
        total += stack.shape[0]
        skipped += int(skip.sum())
    elapsed = time.perf_counter() - t0
    skip_rate = skipped / total
    print(f"closed-form sweep: {total} matrices, {skipped} skipped "
          f"({skip_rate:.4%}), worst eigenvalue gap {worst_lam:.2e}, "
          f"worst eigenvector gap {worst_vec:.2e}")
    assert skip_rate < 0.01
    assert worst_lam <= 1e-9
    assert worst_vec <= 1e-9
    assert elapsed < 30.0, f"closed-form sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 5. Karp against exhaustive cycle enumeration


def _all_cycles(n):
    """Index arrays for every directed simple cycle on n vertices."""
    out = []
    for size in range(2, n + 1):
        for nodes in itertools.combinations(range(n), size):
            first = nodes[0]
            for rest in itertools.permutations(nodes[1:]):
                cyc = (first,) + rest
                nxt = cyc[1:] + (first,)
                out.append((np.array(cyc), np.array(nxt)))
    return out


def test_criterion_05_karp_matches_exhaustive_cycles():
    """Karp's maximum mean cycle is exact against brute-force enumeration.

    10,000 seeded random matrices for each n in {3, 4, 5, 6}; agreement
    within 1e-12.  The scalar entry point (a batch of one) is spot-checked
    against the batch on a subsample.
    """
    rng = np.random.default_rng(5)
    for n in (3, 4, 5, 6):
        cycles = _all_cycles(n)
        g = np.triu(rng.normal(0.0, 1.0, size=(10000, n, n)), 1)
        stack = g - np.transpose(g, (0, 2, 1))
        best = np.full(stack.shape[0], -np.inf)
        for i_arr, j_arr in cycles:
            np.maximum(best, stack[:, i_arr, j_arr].mean(axis=1), out=best)
        lam, _ = _tropical_kernel(stack, 1e-9)[:2]
        worst = float(np.max(np.abs(best - lam)))
        assert worst <= 1e-12, f"n={n}: worst gap {worst:.3e}"
        for i in range(0, stack.shape[0], 100):
            scalar = tropical_eigenvalue(ComparisonMatrix(stack[i], Scale.ADDITIVE))
            assert abs(scalar - float(lam[i])) <= 1e-12


# ---------------------------------------------------------------------------
# 6. Hadamard powers approach the tropical eigenvector


def _trajectory_errors(x, ks):
    """Per-k sup-norm gap between (1/k) log v(X^(k)) and centered m."""
    m = _sum_zero(tropical_solve(to_additive(x)).eigenvector.values)
    errs = []
    for point in hadamard_trajectory(x, k_grid=ks):
        assert point.converged, f"power iteration failed at k={point.k}"
        errs.append(float(np.max(np.abs(_sum_zero(point.log_v / point.k) - m))))
    return errs


def test_criterion_06_power_trajectory_tropical_limit():
    """(1/k) log v(X^(k)) converges to the centered tropical vector.

    100 seeded random 4x4 and 100 random 5x5 multiplicative matrices
    with a unique tropical eigenvector: the sup-norm gap at k=1000 is
    below 1e-2 for every matrix, and smaller than the gap at k=100 for
    at least 95% of them.
    """
    rng = np.random.default_rng(6)
    worst_final = 0.0
    improved = 0
    total = 0
    for n in (4, 5):
        kept = 0
        while kept < 100:
            a = _random_additive(rng, n)
            if not tropical_solve(a).unique:
                continue
            kept += 1
            total += 1
            err100, err1000 = _trajectory_errors(to_multiplicative(a), [100.0, 1000.0])
            worst_final = max(worst_final, err1000)
            if err1000 < err100:
                improved += 1
    assert total == 200
    assert worst_final < 1e-2, f"worst gap at k=1000 is {worst_final:.3e}"
    assert improved / total >= 0.95, f"improved in only {improved}/{total}"


# ---------------------------------------------------------------------------
# 7. Trajectory of the worked example


def test_criterion_07_worked_example_trajectory_crossover(disagree_matrix):
    """The worked example flips ranking along its Hadamard trajectory.

    At k=1 the principal ranking is 3>4>1>2; at every sampled k in
    [31, 60] of the default grid it is 1>3>2>4.
    """
    x = to_multiplicative(disagree_matrix)
    grid = np.unique(np.concatenate(([1.0], default_k_grid())))
    points = hadamard_trajectory(x, k_grid=grid)
    by_k = {point.k: point for point in points}

    start = by_k[1.0]
    assert start.converged
    assert str(start.ranking) == "3>4>1>2"

    tail = [p for p in points if 31.0 <= p.k <= 60.0]
    assert len(tail) >= 5
    for point in tail:
        assert point.converged, f"power iteration failed at k={point.k}"
        assert str(point.ranking) == "1>3>2>4", f"k={point.k}: {point.ranking}"


# ---------------------------------------------------------------------------
# 8. Removing the transitive part


def test_criterion_08_transitive_reduction_identities():
    """Subtracting the transitive component preserves tropical structure.

    For 1,000 seeded random matrices each at n=4 and n=5, with P the
    transitive component of A: the maximum mean cycle of A - P equals
    that of A, and the tropical eigenvector of A - P equals m(A) - h(A)
    up to an additive constant, both within 1e-9.
    """
    rng = np.random.default_rng(8)
    for n in (4, 5):
        for _ in range(1000):
            a = _random_additive(rng, n)
            _, b = project_components(a)
            sol_a = tropical_solve(a)
            sol_b = tropical_solve(b)
            assert abs(sol_a.eigenvalue - sol_b.eigenvalue) <= 1e-9
            h = np.asarray(hodge_scores(a).values)
            expected = _sum_zero(np.asarray(sol_a.eigenvector.values) - h)
            got = _sum_zero(sol_b.eigenvector.values)
            assert np.max(np.abs(got - expected)) <= 1e-9


# ---------------------------------------------------------------------------
# 9. Cube projection onto the permutahedron


def test_criterion_09_cube_projects_onto_permutahedron():
    """Sign-pattern projections land on the permutahedron, vertices included.

    For each test matrix the 64 projected score vectors stay inside the
    permutahedron with vertices the 24 permutations of (3,1,-1,-3)/4
    shifted by h(A), within 1e-9, and every one of the 24 vertex
    profiles is attained by some sign pattern.
    """
    rng = np.random.default_rng(9)
    zero = ComparisonMatrix(np.zeros((4, 4)), Scale.ADDITIVE)
    random_a = _random_additive(rng, 4)
    st = _st_additive([0.9, -0.4, 1.3, -1.8])
    for a in (zero, random_a, st):
        report = permutahedron_check4(a, tol=1e-9)
        assert report.vertices_attained == 24
        assert report.max_outside < 1e-9
        h = np.asarray(hodge_scores(a).values)
        assert np.max(np.abs(np.asarray(report.shift) - h)) <= 1e-12


# ---------------------------------------------------------------------------
# 10. Invariance suite


def test_criterion_10_invariance_suite():
    """Relabeling, scaling, and transitive shifts act as they should.

    1,000 seeded instances per property, all at 1e-9:
      - relabel equivariance for all three methods;
      - h(cA) = c h(A) for positive and negative c, m(cA) = c m(A) and
        eigenvalue scaling for positive c;
      - adding a strongly transitive matrix with scores s shifts h and m
        by s, and multiplies the principal eigenvector entrywise.
    """
    rng = np.random.default_rng(10)

    for trial in range(1000):
        n = 4 if trial % 2 == 0 else 5
        a = _random_additive(rng, n)
        sigma = tuple(int(i) + 1 for i in rng.permutation(n))
        b = relabel(a, sigma)

        h_a = np.asarray(hodge_scores(a).values)
        h_b = np.asarray(hodge_scores(b).values)
        assert np.max(np.abs(h_b - _permuted(h_a, sigma))) <= 1e-9

        m_a = _sum_zero(tropical_solve(a).eigenvector.values)
        m_b = _sum_zero(tropical_solve(b).eigenvector.values)
        assert np.max(np.abs(m_b - _sum_zero(_permuted(m_a, sigma)))) <= 1e-9

        v_a = _sum_zero(
            principal_scores(to_multiplicative(a)).eigenvector.as_additive().values
        )
        v_b = _sum_zero(
            principal_scores(to_multiplicative(b)).eigenvector.as_additive().values
        )
        assert np.max(np.abs(v_b - _sum_zero(_permuted(v_a, sigma)))) <= 1e-9

    for _ in range(1000):
        n = int(rng.integers(4, 6))
        a = _random_additive(rng, n)
        c = float(rng.uniform(0.3, 2.5))
        sol = tropical_solve(a)
        h_a = np.asarray(hodge_scores(a).values)
        m_a = _sum_zero(sol.eigenvector.values)

        for factor in (c, -c):
            scaled = ComparisonMatrix(factor * a.entries, Scale.ADDITIVE)
            h_s = np.asarray(hodge_scores(scaled).values)
            assert np.max(np.abs(h_s - factor * h_a)) <= 1e-9

        pos = ComparisonMatrix(c * a.entries, Scale.ADDITIVE)
        sol_pos = tropical_solve(pos)
        assert abs(sol_pos.eigenvalue - c * sol.eigenvalue) <= 1e-9
        m_pos = _sum_zero(sol_pos.eigenvector.values)
        assert np.max(np.abs(m_pos - c * m_a)) <= 1e-9

    for _ in range(1000):
        n = int(rng.integers(4, 6))
        a = _random_additive(rng, n)
        s = rng.normal(0.0, 1.0, size=n)
        st = _st_additive(s)
        shifted = ComparisonMatrix(a.entries + st.entries, Scale.ADDITIVE)

        h_gap = np.asarray(hodge_scores(shifted).values) - np.asarray(
            hodge_scores(a).values
        )
        assert np.max(np.abs(h_gap - _sum_zero(s))) <= 1e-9

        m_gap = _sum_zero(tropical_solve(shifted).eigenvector.values) - _sum_zero(
            np.asarray(tropical_solve(a).eigenvector.values) + s
        )
        assert np.max(np.abs(m_gap)) <= 1e-9

        v_plain = principal_scores(to_multiplicative(a)).eigenvector.as_additive()
        v_shift = principal_scores(to_multiplicative(shifted)).eigenvector.as_additive()
        v_gap = _sum_zero(v_shift.values) - _sum_zero(np.asarray(v_plain.values) + s)
        assert np.max(np.abs(v_gap)) <= 1e-9


# ---------------------------------------------------------------------------
# 11. CLI simulation determinism


def test_criterion_11_cli_simulation_determinism(capsys):
    """`simulate` output is byte-identical across reruns and worker counts.

    The n=4 run reports at least one Tropical-vs-Hodge disagreement; the
    n=3 run reports none for any pair.
    """
    base = ["simulate", "--n", "4", "--trials", "10000", "--seed", "7"]

    assert main(base) == 0
    first = capsys.readouterr().out
    assert main(base) == 0
    second = capsys.readouterr().out
    assert main(base + ["--jobs", "4"]) == 0
    parallel = capsys.readouterr().out

    assert first == second
    assert first == parallel

    report = json.loads(first)
    assert report["counts"]["hodge-tropical"] > 0

    assert main(["simulate", "--n", "3", "--trials", "10000", "--seed", "7"]) == 0
    small = json.loads(capsys.readouterr().out)
    assert all(count == 0 for count in small["counts"].values())
