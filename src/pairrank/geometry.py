"""Cycle-space geometry of additive comparison matrices.

The space of n-by-n additive comparison matrices splits orthogonally into
the strongly transitive matrices (score differences) and the cycle space
spanned by 3-cycle indicator vectors.  This module provides the two bases,
the L2 projection onto each part, and, for n = 4, exact rational formulas
for the tropical eigenvalue and eigenvector by region of the cycle space,
together with a classifier that reduces any generic 4-by-4 matrix to one of
two canonical regions by relabeling items.
Region selection and the closed form are written once, batch-first; the
scalar entry points pass a stack of one matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    ComparisonMatrix,
    Scale,
    ScoreVector,
    UpperTriangleVector,
    _check_number,
    _skew,
    _triu,
    pair_index,
    perm_inverse,
    strongly_transitive_from_scores,
    upper_triangle,
)
from .errors import BoundaryCase, CheckFailed, InvalidMatrix, RegionNotFound, ReductionViolated
from .methods import TropicalSolution, _hodge_rows, hodge_scores, tropical_solve

__all__ = [
    "CycleVector",
    "cycle_vector",
    "t_basis",
    "threecycle_basis",
    "f_basis4",
    "f_products4",
    "project_components",
    "ReductionReport",
    "m_minus_h_reduction",
    "Facet",
    "Region4",
    "CANONICAL_R1",
    "CANONICAL_GREEN",
    "RegionMatch",
    "classify_region4",
    "tropical_closed_form4",
    "PermutahedronReport",
    "permutahedron_check4",
]


# -- cycle vectors and bases --------------------------------------------------


@dataclass(frozen=True)
class CycleVector:
    """Upper-triangle indicator of a directed simple cycle.

    Pairing coords with the upper triangle of an additive matrix gives the
    cycle value: the sum of A[i, j] along the cycle's directed edges.
    """

    coords: UpperTriangleVector
    cycle: tuple[int, ...]

    def value(self, m: ComparisonMatrix) -> float:
        return float(self.coords.coords @ upper_triangle(m).coords)


def cycle_vector(cycle: tuple[int, ...], n: int) -> CycleVector:
    """Indicator vector of the directed cycle through the given vertices."""
    if len(set(cycle)) != len(cycle) or len(cycle) < 3:
        raise InvalidMatrix(f"{cycle} is not a simple cycle on three or more vertices")
    coords = np.zeros(n * (n - 1) // 2)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if a < b:
            coords[pair_index(n, a, b)] += 1.0
        else:
            coords[pair_index(n, b, a)] -= 1.0
    return CycleVector(UpperTriangleVector(coords, n), tuple(cycle))


def t_basis(n: int) -> list[UpperTriangleVector]:
    """Row-sum functionals t_1..t_n: pairing t_i with upper(A) gives row i's sum.

    Any n - 1 of them are linearly independent and together they span the
    orthogonal complement of the cycle space; their total is zero.
    """
    if n < 2:
        raise InvalidMatrix("need at least two items")
    iu, ju = _triu(n)
    items = np.arange(n)[:, None]   # row i: +1 where item i comes first in the pair, -1 second
    return [UpperTriangleVector(row, n) for row in (iu == items) * 1.0 - (ju == items)]


def threecycle_basis(n: int) -> list[CycleVector]:
    """A cycle-space basis: one 3-cycle (1, a, b) per pair 1 < a < b."""
    if n < 3:
        raise InvalidMatrix("3-cycles need at least three items")
    return [cycle_vector((1, a, b), n) for a, b in itertools.combinations(range(2, n + 1), 2)]


def f_basis4() -> tuple[CycleVector, CycleVector, CycleVector]:
    """The three orthogonal 4-cycle vectors spanning the cycle space for n = 4."""
    return (
        cycle_vector((1, 2, 3, 4), 4),
        cycle_vector((1, 3, 4, 2), 4),
        cycle_vector((1, 4, 2, 3), 4),
    )


def f_products4(m: ComparisonMatrix) -> np.ndarray:
    """The pairings (<f1, A>, <f2, A>, <f3, A>) for a 4-by-4 additive matrix."""
    if m.n != 4:
        raise InvalidMatrix("f-products are defined for n=4")
    u = upper_triangle(m).coords
    return np.array([f.coords.coords @ u for f in f_basis4()])


# -- projection and the eigenvector reduction ---------------------------------


def project_components(m: ComparisonMatrix) -> tuple[ComparisonMatrix, ComparisonMatrix]:
    """Split A = P + R with P strongly transitive and R in the cycle space."""
    if m.scale is not Scale.ADDITIVE:
        raise InvalidMatrix("projection is defined on the additive scale")
    p = strongly_transitive_from_scores(hodge_scores(m))
    r = ComparisonMatrix(m.entries - p.entries, Scale.ADDITIVE)
    return p, r


@dataclass(frozen=True)
class ReductionReport:
    """Residuals from checking the cycle-part reduction of the tropical pair."""

    eigenvalue: float
    eigenvalue_residual: float
    eigenvector_residual: float
    unique: bool


def m_minus_h_reduction(m: ComparisonMatrix) -> ReductionReport:
    """Verify that dropping the transitive part shifts the tropical pair as expected.

    The cycle part R = A - P keeps the tropical eigenvalue of A, and its
    tropical eigenvector is m(A) - h(A) up to an additive constant.  Returns
    the observed residuals; raises ReductionViolated when either exceeds 1e-9,
    which signals a solver bug rather than a property of the input.
    """
    full = tropical_solve(m)
    _, r = project_components(m)
    reduced = tropical_solve(r)
    lam_res = abs(full.eigenvalue - reduced.eigenvalue)

    h = hodge_scores(m).values
    want = full.eigenvector.values - h
    got = reduced.eigenvector.values
    vec_res = float(np.max(np.abs((got - got.mean()) - (want - want.mean()))))

    if lam_res > 1e-9 or vec_res > 1e-9:
        raise ReductionViolated(max(lam_res, vec_res))
    return ReductionReport(full.eigenvalue, lam_res, vec_res, full.unique)


# -- the n = 4 region catalog --------------------------------------------------


class Facet:
    """Which face of the tropical eigenvalue's max-form is active."""

    HEXAGON = "hexagon"   # critical 3-cycle
    SQUARE = "square"     # critical 4-cycle


@dataclass(frozen=True)
class Region4:
    """One canonical open region of the n = 4 cycle space.

    ``inequalities`` are integer coefficient triples c with c @ F > 0 on the
    region, F being the f-products.  ``coeff_num`` holds the integer
    numerators of the eigenvector formula m(A) = h(A) + coeff_num @ F / 12,
    and ``lam_num`` those of the eigenvalue formula lam = lam_num @ F / 12.
    ``critical_cycle`` lists the critical cycle's vertices in canonical labels.
    """

    name: str
    facet: str
    critical_cycle: tuple[int, ...]
    inequalities: tuple[tuple[int, int, int], ...]
    coeff_num: tuple[tuple[int, int, int], ...]
    lam_num: tuple[int, int, int]


CANONICAL_R1 = Region4(
    name="r1",
    facet=Facet.HEXAGON,
    critical_cycle=(2, 3, 4),
    inequalities=(
        (0, 1, 0),     # F2 > 0
        (0, 0, 1),     # F3 > 0
        (-1, 2, 2),    # hexagon side of the facet split
        (2, -1, -1),   # sector wall shared with the r2-type region
        (1, -2, 1),    # sector wall shared with the r3-type region
    ),
    coeff_num=((0, 0, 0), (-1, 5, 2), (-2, 7, 1), (-3, 6, 3)),
    lam_num=(2, 2, 2),
)

CANONICAL_GREEN = Region4(
    name="green",
    facet=Facet.SQUARE,
    critical_cycle=(1, 2, 3, 4),
    inequalities=(
        (0, 1, 0),     # F2 > 0
        (0, 0, 1),     # F3 > 0
        (1, -2, -2),   # square side of the facet split
    ),
    coeff_num=((0, 0, 0), (0, 3, 0), (0, 3, -3), (0, 0, -3)),
    lam_num=(3, 0, 0),
)

_CANONICAL_REGIONS = (CANONICAL_R1, CANONICAL_GREEN)

# Below this fraction of the matrix's own magnitude, the cycle part is treated
# as numerically zero: the matrix is strongly transitive and has no region.
_ST_REL_TOL = 1e-11


_IU, _JU = _triu(4)
_FROWS = np.array([f.coords.coords for f in f_basis4()])
_PERMS4 = tuple(itertools.permutations(range(1, 5)))
_PERM_IDX = np.array(_PERMS4) - 1   # row t holds tau(i) - 1 for the t-th relabeling tau
_INV_IDX = np.argsort(_PERM_IDX, axis=1)


def _relabel_action() -> np.ndarray:
    """The linear maps that the 24 relabelings induce on f-products.

    Relabeling items by tau transforms the f-products linearly:
    f_products4(relabel(A, tau)) = M_tau @ f_products4(A).  Each M_tau is a
    signed permutation matrix, computed here by expressing the pulled-back
    basis vectors in the f-basis (exact, since the f's are orthogonal with
    squared norm 4).
    """
    f_mats = _skew(_FROWS, 4)
    # pulled[t, k]: upper triangle of relabel(F_k, tau^-1), which is F_k[tau(a), tau(b)]
    pulled = f_mats[:, _PERM_IDX[:, _IU], _PERM_IDX[:, _JU]].transpose(1, 0, 2)
    stack = pulled @ _FROWS.T / 4.0
    if not np.array_equal(stack, np.round(stack)):
        raise RuntimeError("relabel action on f-products is not integral")
    return stack


_MSTACK = _relabel_action()


@dataclass(frozen=True)
class RegionMatch:
    """Classification outcome: relabel by tau to land in the canonical region."""

    region: Region4
    tau: tuple[int, ...]
    f_original: np.ndarray
    f_canonical: np.ndarray


# each region's inequalities, padded to five rows by repeating the last one
_INEQS = np.array([r.inequalities + r.inequalities[-1:] * (5 - len(r.inequalities))
                   for r in _CANONICAL_REGIONS], dtype=float).reshape(10, 3)
# per region: eigenvector offset numerators in rows 0-3, eigenvalue numerators in row 4
_FORMULAS = np.array([r.coeff_num + (r.lam_num,) for r in _CANONICAL_REGIONS], dtype=float)


def _select_regions(a: np.ndarray, margin: float):
    """Region selection for a stack of 4-by-4 additive matrices.

    Returns (f, g, slack, clean, scale, transitive): the f-products, their
    images g = M_tau @ f, the worst inequality value per (relabeling, region)
    pair in relabeling-major order, the pairs that clear margin * scale, the
    max-norm of the cycle part, and the numerically strongly transitive rows.
    Raises InvalidMatrix when that arithmetic leaves float range.
    """
    _check_number("margin", margin, 0.0)   # a negative margin accepts the wrong side of a wall
    # entries near the float maximum can overflow these sums; such input is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        h = _hodge_rows(a)
        scale = np.abs(a - (h[:, :, None] - h[:, None, :])).max(axis=(1, 2))
        # an elementwise sum, which rounds alike for every batch size
        f = (a[:, _IU, _JU, None] * _FROWS.T).sum(axis=1)
        g = np.einsum("tkl,bl->btk", _MSTACK, f)
        slack = (g @ _INEQS.T).reshape(-1, 24, 2, 5).min(axis=3).reshape(-1, 48)
        clean = slack > (margin * scale)[:, None]   # an infinite threshold clears no wall
    if not (np.isfinite(scale).all() and np.isfinite(g).all() and np.isfinite(slack).all()):
        raise InvalidMatrix("region arithmetic leaves float range; rescale the additive matrix first")
    transitive = scale <= _ST_REL_TOL * np.abs(a).max(axis=(1, 2))
    return f, g, slack, clean, scale, transitive


def _match_one(selection, margin: float) -> tuple[int, int]:
    """(relabeling index, region index) of a single matrix's _select_regions
    result, or the BoundaryCase / RegionNotFound that classification raises."""
    _, _, slack, clean, scale, transitive = selection
    if transitive[0]:
        # numerically strongly transitive: every wall passes through the origin
        raise BoundaryCase(0.0)
    if clean[0].any():
        return divmod(int(clean[0].argmax()), 2)
    best_near, scale = float(slack[0].max()), float(scale[0])
    if best_near > -margin * scale:
        raise BoundaryCase(best_near / scale)
    raise RegionNotFound(
        "no canonical region matched; the catalog should cover all generic matrices")


def classify_region4(m: ComparisonMatrix, margin: float = 1e-7) -> RegionMatch:
    """Find the canonical region and relabeling for a generic 4-by-4 matrix.

    The first relabeling (in lexicographic order) that puts the matrix in a
    canonical region wins.  The margin is relative to the max-norm of the
    cycle part; inputs within margin of a region wall raise BoundaryCase
    instead of picking a side.
    """
    if m.scale is not Scale.ADDITIVE:
        raise InvalidMatrix("classification is defined on the additive scale")
    if m.n != 4:
        raise InvalidMatrix("the region catalog covers n=4 only")
    selection = _select_regions(m.entries[None], margin)
    tau_idx, region_idx = _match_one(selection, margin)
    f, g, *_ = selection
    return RegionMatch(_CANONICAL_REGIONS[region_idx], _PERMS4[tau_idx], f[0], g[0, tau_idx])


def _region_formulas(a: np.ndarray, g: np.ndarray, tau_idx: np.ndarray,
                     region_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and sum-zero eigenvectors from the matched regions' formulas.

    Each matrix A is relabeled by its match's tau into Y, Region4's formulas
    are evaluated on Y, and the eigenvector is mapped back to A's labels.
    """
    rows = np.arange(a.shape[0])
    num = (_FORMULAS[region_idx] @ g[rows, tau_idx, :, None])[:, :, 0] / 12.0

    inv = _INV_IDX[tau_idx]
    vec = _hodge_rows(a[rows[:, None, None], inv[:, :, None], inv[:, None, :]]) + num[:, :4]
    vec = (vec - vec.mean(axis=1, keepdims=True))[rows[:, None], _PERM_IDX[tau_idx]]
    return num[:, 4], vec


def _closed_form_batch(a: np.ndarray, margin: float = 1e-7) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form eigenpairs for a stack of 4-by-4 additive matrices.

    Returns (eigenvalues, sum-zero eigenvectors, skipped): rows flagged in
    ``skipped`` fell within the boundary margin (or were numerically strongly
    transitive) and carry NaN results.  Every other matrix gets the formulas
    of its first clean (relabeling, region) pair.
    """
    a = np.asarray(a, dtype=float)
    _, g, _, clean, _, transitive = _select_regions(a, margin)
    skipped = ~clean.any(axis=1) | transitive
    lam, vec = _region_formulas(a, g, *np.divmod(clean.argmax(axis=1), 2))
    lam = np.where(skipped, np.nan, lam)
    vec = np.where(skipped[:, None], np.nan, vec)
    return lam, vec, skipped


def tropical_closed_form4(m: ComparisonMatrix, margin: float = 1e-7) -> TropicalSolution:
    """Exact-formula tropical eigenpair for a generic 4-by-4 additive matrix.

    Strongly transitive input (cycle part numerically zero) short-circuits to
    eigenvalue 0 with eigenvector h(A), where the critical graph is complete.
    Otherwise the matrix is classified, the canonical region's rational
    formula evaluated, and the result mapped back through the relabeling.
    One region selection serves the transitivity test, the match and the
    formulas.
    """
    if m.scale is not Scale.ADDITIVE:
        raise InvalidMatrix("the closed form is stated on the additive scale")
    if m.n != 4:
        raise InvalidMatrix("the closed form covers n=4 only")
    selection = _select_regions(m.entries[None], margin)
    _, g, *_, transitive = selection
    if transitive[0]:
        edges = frozenset((i, j) for i in range(1, 5) for j in range(1, 5) if i != j)
        return TropicalSolution(0.0, hodge_scores(m), edges, 1)

    tau_idx, region_idx = _match_one(selection, margin)
    lam, vec = _region_formulas(m.entries[None], g, np.array([tau_idx]), np.array([region_idx]))
    inv = perm_inverse(_PERMS4[tau_idx])
    cycle = tuple(inv[v - 1] for v in _CANONICAL_REGIONS[region_idx].critical_cycle)
    edges = frozenset(zip(cycle, cycle[1:] + cycle[:1]))
    return TropicalSolution(float(lam[0]), ScoreVector(vec[0], Scale.ADDITIVE), edges, 1)


# -- the projected cube --------------------------------------------------------


@dataclass(frozen=True)
class PermutahedronReport:
    """What the 64 sign-pattern projections look like for one matrix."""

    vertices_attained: int
    distinct_count: int
    max_outside: float
    shift: np.ndarray


def permutahedron_check4(m: ComparisonMatrix, tol: float = 1e-9) -> PermutahedronReport:
    """Project all 64 sign patterns centered at A and compare to the permutahedron.

    Every pattern epsilon in {-1, +1}^6, read as an upper triangle and added
    to A, projects to a score vector h(A) + h(E).  The projections fill the
    permutahedron of (3, 1, -1, -3)/4 shifted by h(A): all 24 of its vertices
    are attained, and every projection lies inside (checked by majorization).
    Raises CheckFailed if a vertex is missed or a projection falls outside.
    """
    if m.scale is not Scale.ADDITIVE or m.n != 4:
        raise InvalidMatrix("the projected-cube check is defined for 4-by-4 additive matrices")
    h = hodge_scores(m).values

    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=6)))
    projections = _hodge_rows(_skew(signs, 4))      # h(E) for each sign pattern

    vertex = np.array([3.0, 1.0, -1.0, -3.0]) / 4.0
    attained = 0
    for perm in itertools.permutations(range(4)):
        target = vertex[list(perm)]
        if np.min(np.max(np.abs(projections - target), axis=1)) <= tol:
            attained += 1

    # Majorization against the vertex profile decides membership in the hull.
    sorted_desc = -np.sort(-projections, axis=1)
    prefix = np.cumsum(sorted_desc, axis=1)
    bound = np.cumsum(vertex)
    max_outside = float(np.max(prefix - bound))
    sums_ok = bool(np.max(np.abs(prefix[:, -1] - bound[-1])) <= tol)

    distinct = 0
    seen: list[np.ndarray] = []
    for p in projections:
        if not any(np.max(np.abs(p - q)) <= tol for q in seen):
            seen.append(p)
            distinct += 1

    if attained != 24 or max_outside > tol or not sums_ok:
        raise CheckFailed(
            f"projected cube mismatch: {attained}/24 vertices, "
            f"outside by {max_outside:.3e}")
    return PermutahedronReport(attained, distinct, max_outside, h)
