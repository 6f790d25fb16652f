import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("margin", [-1.0, float("nan"), float("inf")])
def test_closed_form_entry_points_reject_margin_below_zero_or_nan(margin):
    # a negative margin accepts a region on the wrong side of its walls, and
    # NaN or inf clears no wall at all
    a = from_f([5.0, 2.0, 1.0])
    for solve in (classify_region4, tropical_closed_form4,
                  lambda m, margin: _closed_form_batch(m.entries[None], margin)):
        with pytest.raises(ValueError, match="margin must be a finite number >= 0"):
            solve(a, margin=margin)


@pytest.mark.filterwarnings("error")
def test_float_maximum_margin_clears_no_wall_without_warning():
    # margin * scale overflows to inf, which used to warn outside np.errstate
    a = from_f([5.0, 2.0, 1.0])
    for solve in (classify_region4, tropical_closed_form4):
        with pytest.raises(BoundaryCase):
            solve(a, margin=sys.float_info.max)
    assert _closed_form_batch(a.entries[None], sys.float_info.max)[2].tolist() == [True]


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


def test_f_products_are_the_classifiers_f_original(rand_add):
    f_rows = np.array([f.coords.coords for f in f_basis4()])
    for i in range(50):
        a = rand_add(np.random.default_rng(6100 + i), 4)
        got = f_products4(a)
        try:
            match = classify_region4(a)
        except BoundaryCase:
            continue
        assert got.tobytes() == match.f_original.tobytes()
        np.testing.assert_allclose(got, f_rows @ upper_triangle(a).coords, rtol=0, atol=1e-12)


def _seeded_stack() -> np.ndarray:
    """Generic, strongly transitive and near-wall 4x4s, in a seeded order."""
    rng = np.random.default_rng(21)
    wall = from_f([6.0, 2.0, 1.0]).entries   # on the hexagon side of the facet split
    rows = []
    for i in range(120):
        g = np.triu(rng.normal(size=(4, 4)), 1)
        scores = strongly_transitive_from_scores(
            ScoreVector(rng.normal(size=4), Scale.ADDITIVE)).entries
        if i % 4 == 1:
            rows.append(scores)
        elif i % 4 == 2:
            rows.append(wall * rng.uniform(0.5, 2.0) + 1e-10 * (g - g.T) + scores)
        else:
            rows.append(g - g.T)
    return np.array(rows)


def test_scalar_entry_points_are_batches_of_one():
    stack = _seeded_stack()
    lam, vec, skipped = _closed_form_batch(stack)
    assert 0 < skipped.sum() < len(stack)
    for row, a in enumerate(stack):
        m = ComparisonMatrix(a, Scale.ADDITIVE)
        if skipped[row]:
            with pytest.raises(BoundaryCase):
                classify_region4(m)
            continue
        classify_region4(m)
        cf = tropical_closed_form4(m)
        assert np.float64(cf.eigenvalue).tobytes() == lam[row].tobytes()
        assert cf.eigenvector.values.tobytes() == vec[row].tobytes()


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


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_permutahedron_check_rejects_a_tolerance_below_zero_or_not_finite(tol):
    # these once blamed the geometry ("0/24 vertices") or passed with one distinct projection
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        permutahedron_check4(from_f([5.0, 2.0, 1.0]), tol=tol)


# -- rescaling and relabeling, across the float range ----------------------------

# Entries are multiples of 1e-4 up to 100 in magnitude, so a power-of-two
# rescaling down to 2**-900 stays clear of subnormal numbers and up to 2**900
# clear of overflow: every rounding then scales exactly.
_UPPER4 = st.lists(st.integers(-10**6, 10**6), min_size=6, max_size=6).map(
    lambda ks: matrix_from_upper_triangle(np.array(ks) / 1e4, 4))


def _outcome(m: ComparisonMatrix):
    """(classification, closed form) of m; each is the BoundaryCase value where it raises one."""
    try:
        cf = tropical_closed_form4(m)
    except BoundaryCase as exc:
        cf = exc.margin
    try:
        match = classify_region4(m)
    except BoundaryCase as exc:
        return exc.margin, cf
    return (match.region.name, match.tau, match.f_original), cf


def _scaled_exactly(before, after, factor: float) -> bool:
    """Whether after is before times factor, bit for bit; BoundaryCase values,
    being relative to the cycle part's size, stay put."""
    def bits(x):
        return np.asarray(x, dtype=float).tobytes()

    if isinstance(before, float):
        return bits(after) == bits(before)
    if isinstance(before, tuple):   # region name, tau, f-products
        return after[:2] == before[:2] and bits(after[2]) == bits(before[2] * factor)
    return (bits(after.eigenvalue) == bits(before.eigenvalue * factor)
            and bits(after.eigenvector.values) == bits(before.eigenvector.values * factor))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(m=_UPPER4, j=st.integers(-900, 900))
def test_power_of_two_rescaling_scales_the_closed_form_exactly(m, j):
    factor = 2.0 ** j
    before = _outcome(m)
    after = _outcome(ComparisonMatrix(m.entries * factor, Scale.ADDITIVE))
    for b, a in zip(before, after):
        assert type(b) is type(a)
        assert _scaled_exactly(b, a, factor)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(m=_UPPER4, sigma=st.permutations((1, 2, 3, 4)))
def test_relabeling_keeps_the_region_and_moves_the_eigenvector(m, sigma):
    try:
        match = classify_region4(m)
    except BoundaryCase:
        return
    moved_m = relabel(m, sigma)
    assert classify_region4(moved_m).region == match.region
    v = tropical_closed_form4(m).eigenvector.values
    moved = np.empty(4)
    moved[np.asarray(sigma) - 1] = v   # item sigma(i) takes the score of item i
    np.testing.assert_allclose(tropical_closed_form4(moved_m).eigenvector.values, moved,
                               rtol=0, atol=1e-12 * np.abs(m.entries).max())
