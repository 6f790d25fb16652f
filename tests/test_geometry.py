import itertools

import numpy as np
import pytest

from pairrank.core import (
    ComparisonMatrix,
    Scale,
    ScoreVector,
    matrix_from_upper_triangle,
    perm_inverse,
    relabel,
    strongly_transitive_from_scores,
    upper_triangle,
)
from pairrank.errors import BoundaryCase, InvalidMatrix
from pairrank.geometry import (
    _closed_form_batch,
    classify_region4,
    cycle_vector,
    f_basis4,
    f_products4,
    m_minus_h_reduction,
    permutahedron_check4,
    project_components,
    t_basis,
    threecycle_basis,
    tropical_closed_form4,
)
from pairrank.methods import hodge_scores, tropical_solve


def from_f(F) -> ComparisonMatrix:
    """Matrix in the cycle subspace with prescribed cycle-basis products."""
    f1, f2, f3 = f_basis4()
    u = (F[0] * f1.coords.coords + F[1] * f2.coords.coords
         + F[2] * f3.coords.coords) / 4.0
    return matrix_from_upper_triangle(u, 4)


# -- bases ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_bases_split_the_edge_space(n, rand_add):
    rng = np.random.default_rng(n)
    a = rand_add(rng, n)
    u = upper_triangle(a).coords
    ts = t_basis(n)
    for i, t in enumerate(ts):
        assert t.coords @ u == pytest.approx(a.entries[i].sum(), abs=1e-12)
    cyc = threecycle_basis(n)
    B = np.array([c.coords.coords for c in cyc])
    assert B.shape[0] == (n - 1) * (n - 2) // 2
    assert np.linalg.matrix_rank(B) == B.shape[0]
    T = np.array([t.coords for t in ts])
    assert np.max(np.abs(T @ B.T)) == 0.0
    assert np.linalg.matrix_rank(np.vstack([T, B])) == n * (n - 1) // 2


def test_cycle_triangulation_identity():
    lhs = cycle_vector((1, 2, 3, 4), 4).coords.coords
    rhs = (cycle_vector((1, 2, 3), 4).coords.coords
           + cycle_vector((1, 3, 4), 4).coords.coords)
    np.testing.assert_array_equal(lhs, rhs)


def test_cycle_value_is_signed_sum(rand_add):
    rng = np.random.default_rng(17)
    a = rand_add(rng, 5)
    cyc = cycle_vector((1, 3, 5), 5)
    direct = a.entries[0, 2] + a.entries[2, 4] + a.entries[4, 0]
    assert cyc.value(a) == pytest.approx(direct, abs=1e-12)


# -- ST / cycle projection -----------------------------------------------------


def test_projection_is_orthogonal_split(rand_add):
    for i in range(50):
        rng = np.random.default_rng(7000 + i)
        a = rand_add(rng, 4 + i % 3)
        p, r = project_components(a)
        np.testing.assert_allclose(a.entries, p.entries + r.entries, atol=1e-12)
        assert np.sum(a.entries ** 2) == pytest.approx(
            np.sum(p.entries ** 2) + np.sum(r.entries ** 2), abs=1e-9)
        assert np.max(np.abs(hodge_scores(r).values)) < 1e-12
        np.testing.assert_allclose(hodge_scores(p).values,
                                   hodge_scores(a).values, atol=1e-12)


def test_reduction_identity(rand_add):
    for i in range(100):
        rng = np.random.default_rng(100 + i)
        a = rand_add(rng, 4 + i % 2)
        rep = m_minus_h_reduction(a)
        assert rep.eigenvalue_residual < 1e-9
        assert rep.eigenvector_residual < 1e-9


# -- the n=4 region catalog ----------------------------------------------------


def test_classify_interior_point_lands_in_r1():
    match = classify_region4(from_f([5.0, 2.0, 1.0]))
    assert match.region.name == "r1"
    assert match.tau == (1, 2, 3, 4)
    np.testing.assert_allclose(match.f_original, [5.0, 2.0, 1.0], atol=1e-12)


def test_classify_wall_point_is_boundary():
    with pytest.raises(BoundaryCase):
        classify_region4(from_f([6.0, 2.0, 1.0]))


@pytest.mark.parametrize("margin", [-1.0, float("nan")])
def test_closed_form_entry_points_reject_margin_below_zero_or_nan(margin):
    # a negative margin accepts a region on the wrong side of its walls, and
    # NaN clears no wall at all
    a = from_f([5.0, 2.0, 1.0])
    for solve in (classify_region4, tropical_closed_form4,
                  lambda m, margin: _closed_form_batch(m.entries[None], margin)):
        with pytest.raises(ValueError, match="margin must be a number >= 0"):
            solve(a, margin=margin)


def test_classify_strongly_transitive_is_boundary():
    st = strongly_transitive_from_scores(
        ScoreVector(np.array([0.9, -0.3, 0.1, -0.7]), Scale.ADDITIVE))
    with pytest.raises(BoundaryCase):
        classify_region4(st)
    cf = tropical_closed_form4(st)
    assert cf.eigenvalue == 0.0
    np.testing.assert_allclose(cf.eigenvector.values,
                               hodge_scores(st).values, atol=1e-12)


def test_classify_permuted_coordinates_use_nonidentity_relabel():
    match = classify_region4(from_f([2.0, 5.0, 1.0]))
    assert match.tau != (1, 2, 3, 4)
    gen = tropical_solve(from_f([2.0, 5.0, 1.0]))
    cf = tropical_closed_form4(from_f([2.0, 5.0, 1.0]))
    assert cf.eigenvalue == pytest.approx(gen.eigenvalue, abs=1e-12)
    np.testing.assert_allclose(cf.eigenvector.values,
                               gen.eigenvector.values, atol=1e-12)


def test_classify_dominant_first_coordinate_is_square_facet():
    match = classify_region4(from_f([10.0, 2.0, 1.0]))
    assert match.region.name == "green"
    assert match.region.facet == "square"
    cf = tropical_closed_form4(from_f([10.0, 2.0, 1.0]))
    assert cf.eigenvalue == pytest.approx(10.0 / 4.0, abs=1e-12)


def test_classify_equivariance_under_relabeling():
    base = from_f([5.0, 2.0, 1.0])
    sigma = (1, 3, 4, 2)
    match = classify_region4(relabel(base, sigma))
    assert match.region.name == "r1"
    assert match.tau == perm_inverse(sigma)


def test_classify_requires_additive_4x4(rand_add):
    rng = np.random.default_rng(23)
    with pytest.raises(InvalidMatrix):
        classify_region4(rand_add(rng, 5))


def test_every_generic_matrix_classifies(rand_add):
    hits = 0
    for i in range(300):
        rng = np.random.default_rng(4000 + i)
        a = rand_add(rng, 4)
        try:
            classify_region4(a)
            hits += 1
        except BoundaryCase:
            continue
    assert hits > 290


def test_closed_form_matches_general_solver(rand_add):
    checked = 0
    for i in range(500):
        rng = np.random.default_rng(1000 + i)
        a = rand_add(rng, 4)
        try:
            cf = tropical_closed_form4(a)
        except BoundaryCase:
            continue
        gen = tropical_solve(a)
        assert cf.eigenvalue == pytest.approx(gen.eigenvalue, abs=1e-9)
        np.testing.assert_allclose(cf.eigenvector.values,
                                   gen.eigenvector.values, atol=1e-9)
        if gen.unique:
            assert cf.critical_edges == gen.critical_edges
        checked += 1
    assert checked > 480


def test_closed_form_equivariance(rand_add):
    perms = list(itertools.permutations(range(1, 5)))
    for i in range(100):
        rng = np.random.default_rng(555 + i)
        a = rand_add(rng, 4)
        tau = perms[int(rng.integers(24))]
        try:
            v1 = tropical_closed_form4(a).eigenvector
            v2 = tropical_closed_form4(relabel(a, tau)).eigenvector
        except BoundaryCase:
            continue
        moved = np.empty(4)
        moved[np.asarray(tau) - 1] = v1.values   # item tau(i) takes the score of item i
        np.testing.assert_allclose(moved, v2.values, atol=1e-9)


# -- cube projection -----------------------------------------------------------


def test_permutahedron_projection_shapes(rand_add):
    rng = np.random.default_rng(31)
    st = strongly_transitive_from_scores(
        ScoreVector(np.array([1.0, 0.5, -0.5, -1.0]), Scale.ADDITIVE))
    for a in (ComparisonMatrix(np.zeros((4, 4)), Scale.ADDITIVE),
              rand_add(rng, 4), st):
        rep = permutahedron_check4(a)
        assert rep.vertices_attained == 24
        assert rep.max_outside < 1e-9
        np.testing.assert_allclose(rep.shift, hodge_scores(a).values, atol=1e-12)
