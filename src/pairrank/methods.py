"""The three ranking methods.

* hodge_scores: normalized row sums (additive) or geometric row means
  (multiplicative); the orthogonal projection of the matrix onto the
  strongly transitive subspace, read off as a score vector.
* principal_scores: the Perron eigenpair of a positive reciprocal matrix by
  power iteration. One batched power iteration (_perron_batch) runs a stack
  of matrices, each stopping where it would stop alone, and it alone decides
  whether a stop is trusted: it certifies each vector by its Collatz-Wielandt
  bounds and drops early the matrices whose spectral ratio rules out
  convergence. The slow matrices it keeps run on with X + rho I, rho their
  Perron root, where that contracts faster; the eigenvalues the drop rule
  takes choose the shift.
  principal_scores passes a stack of one and raises NoConvergence on an
  uncertified solve; the Monte Carlo study passes its trials and counts
  those as failures. It solves every matrix built as floats, witness
  candidates included.
  Trajectory powers, which can leave float range, go to the log-domain
  solve (_log_perron_batch), a diagonally shifted power iteration on a
  stack of grid points. Both solves run one blocked driver (_blocked), each
  with its own step kernel, that tests for stops once per block of _BLOCK
  steps; each member takes its vector from its own stop step.
* tropical_solve: the max-plus eigenproblem. The eigenvalue is the maximum
  mean weight over directed cycles (Karp's recurrence); the eigenvector is a
  column of the Kleene star of the eigenvalue-shifted matrix, together with
  the critical-cycle structure that controls its uniqueness. Critical vertices
  i, j share a class when B*[i][j] + B*[j][i] = 0. One batch-first kernel
  serves every tropical entry point; the scalar ones pass a stack of one.
  tropical_solve builds the structure on every solve and returns a plain
  TropicalSolution, the type the 4-by-4 closed form in geometry returns too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ComparisonMatrix,
    Scale,
    ScoreVector,
    to_additive,
    _mirror_multiplicative,
)
from .errors import InvalidMatrix, NoConvergence

__all__ = [
    "PerronSolution",
    "TropicalSolution",
    "hodge_scores",
    "principal_scores",
    "tropical_eigenvalue",
    "tropical_solve",
    "tropical_scores_multiplicative",
    "hadamard_product",
    "hadamard_power",
]


def hodge_scores(m: ComparisonMatrix) -> ScoreVector:
    """Least-squares scores: row sums over n, or geometric row means.

    Additive output is sum-zero normalized; multiplicative output is
    normalized to a unit first component.
    """
    if m.scale is Scale.ADDITIVE:
        return ScoreVector(_hodge_rows(m.entries[None])[0], Scale.ADDITIVE)
    logs = np.log(m.entries).mean(axis=1)
    return ScoreVector(np.exp(logs - logs[0]), Scale.MULTIPLICATIVE)


def _hodge_rows(a: np.ndarray) -> np.ndarray:
    """Sum-zero row means of each additive matrix in a stack: its hodge scores."""
    # the reductions and division that mean() performs, without its Python-level overhead
    h = np.add.reduce(a, axis=2) / a.shape[2]
    return h - np.add.reduce(h, axis=1, keepdims=True) / h.shape[1]


@dataclass(frozen=True)
class PerronSolution:
    """Dominant eigenpair of a positive matrix."""

    eigenvalue: float
    eigenvector: ScoreVector
    iterations: int
    residual: float


# Both power iterations stop once a step moves the iterate by less than this.
_STEP_TOL = 1e-12
# A Perron solve is certified when its Collatz-Wielandt bounds min_i, max_i
# (Xv)_i/v_i on the eigenvalue agree to this log spread (Meyer, ch. 8).
_CW_SPREAD = 1e-3
# At this step the members still moving have their eigenvalues taken once: power
# iteration needs about ln(_STEP_TOL)/ln|l2/l1| steps (Golub & Van Loan, ch. 7), and a
# member whose ratio predicts more than twice max_iter stops there, uncertified.
_TRIAGE_STEP = 64
# Both power iterations run this many steps between stop tests.
_BLOCK = 16


def _cw_spread(xv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Log spread of the Collatz-Wielandt bounds of each row; NaN or inf if undefined."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        logs = np.log(xv / v)
        return np.maximum.reduce(logs, 1) - np.minimum.reduce(logs, 1)


def _triage(x: np.ndarray, max_iter: int):
    """The triage of a stack of members still moving at _TRIAGE_STEP: (slow, shift, shifted).

    slow marks the members whose |l2/l1| predicts more than twice max_iter
    steps. The others may carry on with X + rho I, where rho = |l1| is the
    Perron root: the eigenvectors are the same, each eigenvalue l_i becomes
    l_i + rho, and the iteration contracts by max_{i>=2} |l_i + rho| / 2 rho
    in place of |l2|/rho. A complex l2 near the Perron circle moves well
    inside it, a real positive one moves closer. shift marks the members
    whose contraction improves and whose X + rho I stays in float range;
    shifted holds X + rho I for every member.
    """
    lam = np.linalg.eigvals(x)
    mags = np.sort(abs(lam), axis=1)
    slow = mags[:, -2] > math.exp(math.log(_STEP_TOL) / (2 * max_iter)) * mags[:, -1]
    rho = mags[:, -1]
    n = x.shape[1]
    shifted = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        # the Perron root itself maps to exactly 1, the largest
        contraction = np.sort(abs(lam / rho[:, None] + 1), axis=1)[:, -2] / 2
        shifted.reshape(-1, n * n)[:, ::n + 1] += rho[:, None]
        shift = ~slow & (contraction < mags[:, -2] / rho) & np.isfinite(shifted).all(axis=(1, 2))
    return slow, shift, shifted


def _blocked(run_block, state, v0: np.ndarray, max_iter: int):
    """Power iteration on a stack from v0, each member stopping as if alone.

    run_block(h, *state) fills the history h[1:] from h[0] for the members
    still moving, whose rows h and state hold, in blocks of _BLOCK steps. One
    test per block finds each member's first step below _STEP_TOL in max norm;
    a member that stopped takes that step's vector and leaves, so its arithmetic
    is that of a step-by-step loop. Returns (vectors, steps, stopped): the stop
    vector or last iterate, the stop step or max_iter, and whether it stopped.
    """
    b = v0.shape[0]
    vectors, steps, stopped = np.empty_like(v0), np.full(b, max_iter), np.zeros(b, dtype=bool)
    hist = np.empty((_BLOCK + 1,) + v0.shape)
    hist[0] = v0
    live, it = np.arange(b), 0   # it: steps taken
    while live.size and it < max_iter:
        m = live.size
        h = hist[:min(_BLOCK, max_iter - it) + 1, :m]
        run_block(h, *state)
        # ufunc reductions, not the array methods: on a small stack the wrappers show
        below = np.logical_and.reduce((abs(h[1:] - h[:-1]) < _STEP_TOL).reshape(len(h) - 1, m, -1), 2)
        done = np.logical_or.reduce(below, 0)
        count = np.count_nonzero(done)
        if count:
            first = below[:, done].argmax(axis=0) + 1   # each member's own stop step
            idx = live[done]
            vectors[idx], steps[idx], stopped[idx] = h[first, done], it + first, True
            if count == m:
                return vectors, steps, stopped
            keep = ~done
            live, state = live[keep], [a[keep] for a in state]
            hist[0, :live.size] = h[-1][keep]
        else:
            hist[0, :m] = h[-1]
        it += len(h) - 1
    vectors[live] = hist[0, :live.size]
    return vectors, steps, stopped


def _linear_block(h: np.ndarray, x: np.ndarray) -> None:
    """Unit-sum power steps of a stack x: a product, a column sum and a divide in place.

    The vectors are columns, so that each product is the same BLAS call as a lone x @ v.
    """
    s = np.empty((x.shape[0], 1, 1))
    # bound once: on a small matrix the lookups are a visible share of a step
    matmul, add, divide = np.matmul, np.add.reduce, np.divide
    views = list(h)
    for prev, cur in zip(views, views[1:]):
        matmul(x, prev, out=cur)
        add(cur, 1, keepdims=True, out=s)
        divide(cur, s, out=cur)


def _perron_batch(x: np.ndarray, max_iter: int = 100000):
    """Power iteration on a stack of positive matrices, each run as if alone.

    Every matrix starts from the uniform vector and runs _linear_block steps
    (unit-sum iterates) under _blocked. When 0 < _TRIAGE_STEP < max_iter the
    run splits there: of the matrices still moving, those whose |l2/l1|
    predicts more than twice max_iter steps leave, and the others run on from
    their iterate, with X + rho I where _triage shifts them. Each stop vector
    gets its Rayleigh quotient and residual max|X v - lambda v| on the
    unshifted X, and is certified when its Collatz-Wielandt log spread is at
    most _CW_SPREAD: a step below an absolute _STEP_TOL can leave tiny
    components wrong by orders of magnitude. Returns (eigenvalues, vectors,
    iterations, residuals, certified), vectors holding each last iterate; a
    matrix that did not stop, or left at triage, has NaN eigenvalue and residual.
    """
    b, n = x.shape[0], x.shape[1]
    triage = 0 < _TRIAGE_STEP < max_iter
    v, iterations, stopped = _blocked(_linear_block, (x,), np.full((b, n, 1), 1.0 / n),
                                      _TRIAGE_STEP if triage else max_iter)
    if triage and np.count_nonzero(stopped) < b:
        moving = np.flatnonzero(~stopped)
        slow, shift, shifted = _triage(x[moving], max_iter)
        go = moving[~slow]
        if go.size:
            xs = np.where(shift[:, None, None], shifted, x[moving])[~slow]
            v[go], steps, stopped[go] = _blocked(_linear_block, (xs,), v[go], max_iter - _TRIAGE_STEP)
            iterations[go] += steps
    lam, residual = np.full((2, b), np.nan)
    certified = np.zeros(b, dtype=bool)
    count = np.count_nonzero(stopped)
    if count:
        done = stopped if count < b else slice(None)   # all: views, no copies
        xd, vd = x[done], v[done]
        xv = xd @ vd
        vt = vd.transpose(0, 2, 1)
        rayleigh = vt @ xv / (vt @ vd)
        lam[done], residual[done] = rayleigh[:, 0, 0], np.maximum.reduce(abs(xv - rayleigh * vd), (1, 2))
        certified[done] = _cw_spread(xv[:, :, 0], vd[:, :, 0]) <= _CW_SPREAD
    return lam, v[:, :, 0], iterations, residual, certified


def principal_scores(x: ComparisonMatrix, max_iter: int = 100000) -> PerronSolution:
    """Certified Perron eigenpair of a multiplicative comparison matrix.

    A batch of one for _perron_batch: the Rayleigh quotient of the unit-sum
    iterate where it stops. Raises NoConvergence, with the Collatz-Wielandt
    log spread of the last iterate, when the solve is not certified.
    """
    if x.scale is not Scale.MULTIPLICATIVE:
        raise InvalidMatrix("principal_scores expects a multiplicative matrix")
    lam, v, iters, residual, certified = _perron_batch(x.entries[None], max_iter)
    if not certified[0]:
        raise NoConvergence(int(iters[0]), float(_cw_spread(v @ x.entries.T, v)[0]))
    vec = ScoreVector(v[0], Scale.MULTIPLICATIVE)
    return PerronSolution(float(lam[0]), vec, int(iters[0]), float(residual[0]))


def _log_block(h: np.ndarray, xs: np.ndarray, shift: np.ndarray) -> None:
    """Steps of X + e^shift I for a stack of log matrices xs, each centered to sum zero."""
    t, p = np.empty(xs.shape), np.empty(xs.shape[:2])
    rows = np.arange(0, t.size, xs.shape[2])   # where each row of t starts, for reduceat
    views = list(h)
    for u, w in zip(views, views[1:]):
        # w = logaddexp(peak + log sum exp(xs + u - peak), shift + u), centered
        np.add(xs, u[:, None, :], out=t)
        np.maximum.reduceat(t.reshape(-1), rows, out=p.reshape(-1))
        np.subtract(t, p[:, :, None], out=t)
        np.exp(t, out=t)
        np.log(np.add.reduce(t, 2, out=w), out=w)
        np.logaddexp(np.add(p, w, out=w), shift + u, out=w)
        w -= np.add.reduce(w, 1, keepdims=True) / w.shape[1]


def _log_perron_batch(log_x: np.ndarray, log_shift: np.ndarray, max_iter: int = 100000):
    """Power iteration on a stack X + e^log_shift * I, entirely in the log domain.

    log_x holds the elementwise logs of each X and log_shift one diagonal
    shift per matrix. Every member starts from the zero log vector and runs
    _log_block steps (centered to sum zero) under _blocked. Returns (vectors,
    converged): each member's last centered log vector, and whether it
    stopped within max_iter. Trajectory powers need it: they can leave float
    range, and a shift near the top eigenvalue breaks the rotational
    near-ties of almost cyclic matrices without changing the eigenvectors.
    """
    vectors, _, converged = _blocked(_log_block, (log_x, log_shift[:, None]),
                                     np.zeros(log_x.shape[:2]), max_iter)
    return vectors, converged


# -- tropical (max-plus) eigenproblem ----------------------------------------


def _karp_batch(a: np.ndarray) -> np.ndarray:
    """Maximum cycle mean of each matrix in a stack, by Karp's recurrence.

    D[k][v] is the best weight of a length-k walk from a fixed source, and the
    answer is max_v min_k (D[n][v] - D[k][v]) / (n - k); O(n^3) per matrix.
    """
    b, n = a.shape[0], a.shape[1]
    d = np.full((b, n + 1, n), -np.inf)
    d[:, 0, 0] = 0.0
    for k in range(n):
        d[:, k + 1] = (d[:, k, :, None] + a).max(axis=1)
    # d[n] is finite everywhere (complete graph); d[k] may hold -inf for k=0,
    # which makes the quotient +inf and drops out of the inner minimum.
    with np.errstate(invalid="ignore"):
        quotients = (d[:, n, None] - d[:, :n]) / np.arange(n, 0, -1)[:, None]
    return quotients.min(axis=1).max(axis=1)


# Absolute slack, on the additive scale, of the critical-edge test (_tropical_kernel)
# and the critical-class test (tropical_solve).
_EDGE_TOL = 1e-9


def _tropical_kernel(a: np.ndarray):
    """Karp, Kleene star and critical edges for a stack: (lambda, vector, star, mask)."""
    lam = _karp_batch(a)
    b, n = a.shape[0], a.shape[1]
    shifted = a - lam[:, None, None]
    star = shifted.copy()
    for k in range(n):
        np.maximum(star, star[:, :, k, None] + star[:, k, None, :], out=star)
    diagonal = star.reshape(b, n * n)[:, ::n + 1]
    np.maximum(diagonal, 0.0, out=diagonal)

    crit = shifted + star.transpose(0, 2, 1) >= -_EDGE_TOL
    crit.reshape(b, n * n)[:, ::n + 1] = False
    anchor = (crit.any(axis=2) | crit.any(axis=1)).argmax(axis=1)
    vec = star[np.arange(b), :, anchor]
    return lam, vec - np.add.reduce(vec, 1, keepdims=True) / n, star, crit


def tropical_eigenvalue(m: ComparisonMatrix) -> float:
    """Maximum mean weight over directed cycles, by Karp's recurrence.

    Multiplicative input is moved to the additive scale (natural log) first.
    """
    return float(_karp_batch(to_additive(m).entries[None])[0])


@dataclass(frozen=True)
class TropicalSolution:
    """Solution of the max-plus eigenproblem on the additive scale."""

    eigenvalue: float
    eigenvector: ScoreVector
    critical_edges: frozenset[tuple[int, int]]
    critical_class_count: int

    @property
    def critical_vertices(self) -> frozenset[int]:
        return frozenset(v for edge in self.critical_edges for v in edge)

    @property
    def unique(self) -> bool:
        return self.critical_class_count == 1


def tropical_solve(m: ComparisonMatrix) -> TropicalSolution:
    """Solve the max-plus eigenproblem A (x) v = lambda (x) v.

    Computes the eigenvalue with Karp's recurrence, shifts it out, and takes
    the Kleene star B* of the shifted matrix. An edge (i, j) is critical when
    B[i][j] + B*[j][i] vanishes (within _EDGE_TOL). Critical vertices i and j
    share a class exactly when B*[i][j] + B*[j][i] vanishes (Butkovic,
    Max-linear Systems, ch. 4), and the eigenvector is unique up to an
    additive constant exactly when there is a single class; each class is
    named by its smallest critical vertex. The returned eigenvector is the B*
    column at the smallest critical vertex, sum-zero normalized. Edges and
    classes are built on every solve; vertices and edges are reported 1-based.
    """
    lam, vec, star, crit = _tropical_kernel(to_additive(m).entries[None])
    star, crit = star[0], crit[0]
    if not crit.any():  # rounding at large scales can leave no edge within _EDGE_TOL
        raise InvalidMatrix("no critical cycle found; eigenvalue shift is inconsistent")
    on = crit.any(axis=1) | crit.any(axis=0)
    # each class is named by its smallest critical vertex
    classes = len(set(((star + star.T >= -_EDGE_TOL) & on).argmax(axis=1)[on].tolist()))
    i, j = np.nonzero(crit)
    edges = frozenset(zip((i + 1).tolist(), (j + 1).tolist()))
    return TropicalSolution(float(lam[0]), ScoreVector(vec[0], Scale.ADDITIVE), edges, classes)


def tropical_scores_multiplicative(x: ComparisonMatrix, base: float = math.e) -> ScoreVector:
    """Tropical scores of a multiplicative matrix, reported multiplicatively.

    The matrix is moved to the additive scale with log_base, solved there,
    and the sum-zero eigenvector is mapped back through base**score, so the
    result has geometric mean one. The induced ranking does not depend on
    base (for any base greater than one).
    """
    if x.scale is not Scale.MULTIPLICATIVE:
        raise InvalidMatrix("tropical_scores_multiplicative expects a multiplicative matrix")
    return tropical_solve(to_additive(x, base)).eigenvector.as_multiplicative(base)


# -- Hadamard operations ------------------------------------------------------


def hadamard_product(x: ComparisonMatrix, y: ComparisonMatrix) -> ComparisonMatrix:
    """Entrywise product of two multiplicative matrices."""
    if x.scale is not Scale.MULTIPLICATIVE or y.scale is not Scale.MULTIPLICATIVE:
        raise InvalidMatrix("hadamard_product expects multiplicative matrices")
    if x.n != y.n:
        raise InvalidMatrix("size mismatch")
    return ComparisonMatrix(_mirror_multiplicative(x.entries * y.entries), Scale.MULTIPLICATIVE)


def hadamard_power(x: ComparisonMatrix, k: float) -> ComparisonMatrix:
    """Entrywise power X^(k) of a multiplicative matrix."""
    if x.scale is not Scale.MULTIPLICATIVE:
        raise InvalidMatrix("hadamard_power expects a multiplicative matrix")
    powered = np.power(x.entries, k)
    if not np.all(np.isfinite(powered)) or np.any(powered <= 0.0):
        raise InvalidMatrix(f"Hadamard power k={k:g} leaves float range; work in the log domain")
    return ComparisonMatrix(_mirror_multiplicative(powered), Scale.MULTIPLICATIVE)
