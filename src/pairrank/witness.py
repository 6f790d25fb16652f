"""Constructive disagreement witnesses for pairs of ranking methods.

For four or more items, any ordered pair of rankings (sigma1, sigma2) can be
realized by a comparison matrix on which two chosen scoring methods disagree
exactly that way: the first method of the pair ranks items by sigma1, the
second by sigma2.  Each construction here returns the matrix together with a
machine verification that recomputes both rankings from scratch through the
methods module; that verification is every search's acceptance test.
"""

from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    ComparisonMatrix,
    Ranking,
    Scale,
    ScoreVector,
    _check_number,
    _mirror_multiplicative,
    _triu,
    matrix_from_upper_triangle,
    perm_between,
    rank_of,
    relabel,
    strongly_transitive_from_scores,
    to_additive,
    upper_triangle,
)
from .errors import (
    ConstructionFailed,
    CheckFailed,
    InvalidMatrix,
    InvalidPerturbation,
    KExhausted,
    NoConvergence,
    RootNotSeparated,
    TieDetected,
    VerificationFailed,
)
from .geometry import cycle_vector, t_basis
from .methods import (
    hadamard_power,
    hadamard_product,
    hodge_scores,
    principal_scores,
    tropical_solve,
)

__all__ = [
    "Pair",
    "WitnessRequest",
    "WitnessParameters",
    "WitnessVerification",
    "WitnessResult",
    "base_hodge_zero_tropical_generic",
    "witness_hodge_tropical",
    "witness_hodge_principal",
    "PerturbationSpec",
    "default_perturbation",
    "perturbed_entries",
    "perturbed_matrix",
    "PerturbedEigen",
    "perturbed_closed_form",
    "witness_tropical_principal",
    "generate_witness",
]

_MAX_HALVINGS = 60
_MAX_DOUBLINGS = 60
# largest log-entry magnitude we are willing to materialize as a float matrix;
# e^600 still leaves power iteration on the result two hundred orders of
# magnitude of headroom
_LOG_ENTRY_CAP = 600.0
# the verifier's Perron iteration budget; the solver's triage drops a power whose
# eigenvalue ratio predicts more than twice as many steps, and shifts the slow
# powers it keeps by their Perron root, so the nearly cyclic n = 5 and 6 powers
# certify in a few hundred steps
_VERIFY_MAX_ITER = 20000


class Pair(enum.Enum):
    """Which two methods a witness separates; order fixes (sigma1, sigma2)."""

    HODGE_TROPICAL = "hodge-tropical"
    HODGE_PRINCIPAL = "hodge-principal"
    TROPICAL_PRINCIPAL = "tropical-principal"

    @property
    def methods(self) -> tuple[str, str]:
        first, second = self.value.split("-")
        return first, second


@dataclass(frozen=True)
class WitnessRequest:
    n: int
    pair: Pair
    sigma1: Ranking
    sigma2: Ranking

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(
                "disagreement witnesses need at least four items (n >= 4); "
                f"got n={self.n}")
        if self.sigma1.n != self.n or self.sigma2.n != self.n:
            raise ValueError("rankings must order exactly the n requested items")


@dataclass(frozen=True)
class WitnessParameters:
    """Construction knobs actually used, for reproducibility reports."""

    k: float | None = None
    epsilon: float | None = None
    L: Fraction | None = None
    delta: tuple[Fraction, ...] | None = None
    base: float | None = None


@dataclass(frozen=True)
class WitnessVerification:
    """Recomputed evidence: scores and rankings straight from the solvers."""

    method1: str
    method2: str
    scores1: ScoreVector
    scores2: ScoreVector
    ranking1: Ranking
    ranking2: Ranking


@dataclass(frozen=True)
class WitnessResult:
    matrix: ComparisonMatrix
    request: WitnessRequest
    verification: WitnessVerification
    parameters: WitnessParameters


def _method_scores(m: ComparisonMatrix, method: str) -> ScoreVector:
    if method == "hodge":
        return hodge_scores(m)
    if method == "tropical":
        return tropical_solve(to_additive(m)).eigenvector
    if method == "principal":
        return principal_scores(m, max_iter=_VERIFY_MAX_ITER).eigenvector
    raise VerificationFailed(f"unknown method {method!r}")


def _verify(matrix: ComparisonMatrix, req: WitnessRequest) -> WitnessVerification:
    """Recompute both rankings, the second method's first; raise unless they match."""
    m1, m2 = req.pair.methods
    s2 = _method_scores(matrix, m2)
    r2 = _certified(rank_of(s2), m2, req.sigma2)
    s1 = _method_scores(matrix, m1)
    r1 = _certified(rank_of(s1), m1, req.sigma1)
    return WitnessVerification(m1, m2, s1, s2, r1, r2)


def _certified(ranking: Ranking, method: str, wanted: Ranking) -> Ranking:
    if ranking != wanted:
        raise VerificationFailed(
            f"witness does not certify: {method} ranks {ranking} (wanted {wanted})")
    return ranking


def _first_verified(req: WitnessRequest, candidates, exhausted: Exception) -> WitnessResult:
    """The first (matrix, parameters) candidate that _verify accepts, else raise exhausted.

    Uncertified Perron solves, ties and wrong rankings are passed over; other errors end it.
    """
    for matrix, params in candidates:
        with contextlib.suppress(NoConvergence, TieDetected, VerificationFailed):
            return WitnessResult(matrix, req, _verify(matrix, req), params)
    raise exhausted


def _descending_scores(sigma: Ranking) -> ScoreVector:
    """Tie-free additive scores whose ranking is sigma, centered to sum zero."""
    values = np.empty(sigma.n)
    for pos, item in enumerate(sigma.order):
        values[item - 1] = float(sigma.n - 1 - pos)
    return ScoreVector(values - values.mean(), Scale.ADDITIVE)


@contextlib.contextmanager
def _float_range(base: float):
    """Report witness entries that leave float range as InvalidMatrix naming the base."""
    try:
        with np.errstate(over="ignore", divide="ignore"):
            yield
    except InvalidMatrix:
        raise InvalidMatrix(f"base {base:g} takes the witness entries out of float range") from None


def _same_rankings(req: WitnessRequest, base: float | None) -> WitnessResult:
    """The witness for sigma1 == sigma2: sigma1's transitive matrix, additive if base is None."""
    scores = _descending_scores(req.sigma1)
    if base is None:
        m, params = strongly_transitive_from_scores(scores), WitnessParameters(epsilon=0.0)
    else:
        with _float_range(base):
            m = strongly_transitive_from_scores(scores.as_multiplicative(base))
        params = WitnessParameters(k=1.0, base=base)
    return WitnessResult(m, req, _verify(m, req), params)


# -- the shared base matrix (zero Hodge scores, tie-free tropical) -------------


def _fill_rows_to_zero(n: int, fixed: dict[tuple[int, int], float]) -> ComparisonMatrix:
    """Least-norm completion of fixed upper-triangle entries to zero row sums."""
    t_rows = np.array([t.coords for t in t_basis(n)])
    k = n * (n - 1) // 2
    u_fixed = np.zeros(k)
    free = np.ones(k, dtype=bool)
    from .core import pair_index
    for (i, j), val in fixed.items():
        idx = pair_index(n, i, j)
        u_fixed[idx] = val
        free[idx] = False
    sol, *_ = np.linalg.lstsq(t_rows[:, free], -t_rows @ u_fixed, rcond=None)
    u = u_fixed.copy()
    u[free] = sol
    return matrix_from_upper_triangle(u, n)


# Cycle values for four items force an untieable pattern: making every row's
# maximum sit on the 4-cycle requires the first and third cycle entries to
# dominate in incompatible directions, so no matrix with that row-max pattern
# exists.  A fixed cycle-space matrix with the same guarantees (zero Hodge
# scores, tie-free unique tropical eigenvector) fills in for n = 4.
_BASE4_F = (5.0, 2.5, 1.25)


def base_hodge_zero_tropical_generic(n: int) -> ComparisonMatrix:
    """An additive matrix with zero Hodge scores and a tie-free tropical ranking.

    For n >= 5 the matrix carries strictly decreasing positive values on the
    cycle 1 -> 2 -> ... -> n -> 1, none equal to their mean, every row's
    maximum on its cycle edge, and that cycle critical; the remaining entries
    are the least-norm fill with zero row sums, plus a multiple of the
    cycle's indicator large enough to pin the row maxima.  All of this is
    verified programmatically before returning.
    """
    if n < 4:
        raise ValueError("the base construction needs at least four items")
    if n == 4:
        from .geometry import f_basis4
        f1, f2, f3 = (f.coords.coords for f in f_basis4())
        u = (_BASE4_F[0] * f1 + _BASE4_F[1] * f2 + _BASE4_F[2] * f3) / 4.0
        base = matrix_from_upper_triangle(u, 4)
        rank_of(tropical_solve(base).eigenvector)   # raises TieDetected if degenerate
        return base

    cycle_pairs = [(i, i + 1) for i in range(1, n)]
    # Once the row maxima sit on the cycle, the eigenvector is the running sum
    # of (mu - value); those sums must be pairwise well separated or the
    # Hadamard-power crossover for the principal method leaves float range.
    # A plain arithmetic ramp gives mirror-image sums that tie, so the values
    # descend along a convex, asymmetric profile ending at 1.
    idx = np.arange(1, n + 1, dtype=float)
    diffs = 2.0 * idx - (n + 1) + 0.3 * ((idx - 1) ** 2 - np.mean((idx - 1) ** 2))
    values = (diffs[-1] + 1.0) - diffs
    for attempt in range(50):
        mu = values.mean()
        profile = np.concatenate([[0.0], np.cumsum(mu - values[:-1])])
        gaps = np.abs(profile[:, None] - profile[None, :])[_triu(n)]
        if np.min(np.abs(values - mu)) > 1e-6 and np.min(gaps) > 1e-6:
            break
        values = values + 1.0 / (100.0 * np.arange(1, n + 1))
    else:
        raise ConstructionFailed("cycle-values", "no tie-free value scheme found")
    if not (np.all(np.diff(values[:-1]) < 0) and np.all(values > 0)):
        raise ConstructionFailed("cycle-values", "entries not decreasing and positive")

    fixed = {pair: values[idx] for idx, pair in enumerate(cycle_pairs)}
    fixed[(1, n)] = -values[-1]          # stored upper entry; A[n][1] = +values[-1]
    prime = _fill_rows_to_zero(n, fixed)
    # scrub rounding dust so the Hodge scores vanish to machine precision
    prime = ComparisonMatrix(
        prime.entries - strongly_transitive_from_scores(hodge_scores(prime)).entries,
        Scale.ADDITIVE)

    bump = matrix_from_upper_triangle(cycle_vector(tuple(range(1, n + 1)), n).coords).entries

    k = 1.0
    for _ in range(_MAX_DOUBLINGS):
        a = ComparisonMatrix(prime.entries + k * bump, Scale.ADDITIVE)
        mu = values.mean() + k
        on_cycle = np.array(
            [a.entries[i - 1, j - 1] for i, j in cycle_pairs] + [a.entries[n - 1, 0]])
        row_max = a.entries.max(axis=1)
        maxima_ok = np.array_equal(row_max, on_cycle) and all(
            np.sum(a.entries[i - 1] >= row_max[i - 1] - 1e-9) == 1
            for i in range(1, n + 1))
        if maxima_ok and np.min(np.abs(np.asarray(on_cycle) - mu)) > 1e-9:
            sol = tropical_solve(a)
            if abs(sol.eigenvalue - mu) <= 1e-9 and sol.unique:
                with contextlib.suppress(TieDetected):
                    rank_of(sol.eigenvector)
                    if float(np.max(np.abs(hodge_scores(a).values))) > 1e-12:
                        raise ConstructionFailed("hodge-zero", "row sums drifted")
                    return a
        k *= 2.0
    raise ConstructionFailed("row-max", f"no k up to 2^{_MAX_DOUBLINGS} pinned the cycle")


# -- Hodge vs tropical ---------------------------------------------------------


def _relabeled_base(req: WitnessRequest) -> ComparisonMatrix:
    """The shared base, relabeled so that its tropical ranking is sigma2."""
    base = base_hodge_zero_tropical_generic(req.n)
    return relabel(base, perm_between(rank_of(tropical_solve(base).eigenvector), req.sigma2))


def _epsilon_search(req: WitnessRequest, relabeled: ComparisonMatrix, eps: float) -> WitnessResult:
    """First relabeled + eps * W, halving eps from the given start, that verifies."""
    w = strongly_transitive_from_scores(_descending_scores(req.sigma1)).entries
    epsilons = (eps / 2.0 ** i for i in range(_MAX_HALVINGS))
    return _first_verified(
        req, ((ComparisonMatrix(relabeled.entries + e * w, Scale.ADDITIVE),
               WitnessParameters(epsilon=e)) for e in epsilons),
        ConstructionFailed("epsilon", f"no epsilon down to 2^-{_MAX_HALVINGS} worked"))


def witness_hodge_tropical(req: WitnessRequest) -> WitnessResult:
    """Additive witness: Hodge ranks sigma1 while the tropical method ranks sigma2.

    Starts from a base with zero Hodge scores and tie-free tropical ranking,
    relabels it so the tropical ranking becomes sigma2, then adds epsilon
    times a strongly transitive matrix inducing sigma1.  The transitive part
    shifts the tropical eigenvector by exactly epsilon times its scores, so
    halving epsilon is guaranteed to restore sigma2 while the Hodge ranking
    stays sigma1 for every epsilon > 0.
    """
    if req.pair is not Pair.HODGE_TROPICAL:
        raise ValueError(f"wrong constructor for pair {req.pair.value}")
    if req.sigma1 == req.sigma2:
        return _same_rankings(req, None)
    return _epsilon_search(req, _relabeled_base(req), 1.0)


# -- Hodge vs principal --------------------------------------------------------


def witness_hodge_principal(req: WitnessRequest, base: float = math.e) -> WitnessResult:
    """Multiplicative witness: Hodge ranks sigma1, the principal eigenvector sigma2.

    Exponentiates a Hodge-vs-tropical witness and doubles the Hadamard
    power k until the principal ranking matches the tropical one (sigma2);
    the Hodge ranking is invariant in k.  A power is skipped when its log
    entries pass _LOG_ENTRY_CAP; the first of the others that the verifier
    accepts is the witness.
    """
    if req.pair is not Pair.HODGE_PRINCIPAL:
        raise ValueError(f"wrong constructor for pair {req.pair.value}")
    _check_number("base", base, 1.0, strict=True)
    if req.sigma1 == req.sigma2:
        return _same_rankings(req, base)

    inner_req = WitnessRequest(req.n, Pair.HODGE_TROPICAL, req.sigma1, req.sigma2)
    relabeled = _relabeled_base(inner_req)
    inner = _epsilon_search(inner_req, relabeled, 1.0)
    # shrinking epsilon well below the first workable value restores the base
    # matrix's full tropical gaps, which moves the crossover power k down into
    # the range where power iteration still converges
    with contextlib.suppress(ConstructionFailed):
        inner = _epsilon_search(inner_req, relabeled, inner.parameters.epsilon / 8.0)
    log_entries = inner.matrix.entries * math.log(base)
    max_log = float(np.max(np.abs(log_entries)))
    with _float_range(base):   # an entry that underflows to 0 mirrors to inf
        x = ComparisonMatrix(_mirror_multiplicative(np.exp(log_entries)), Scale.MULTIPLICATIVE)

    # k = 1, 2, 1/2, 4, 1/4, ...: grow toward the tropical limit, but also
    # try powers below 1, since large powers make the matrix nearly cyclic and
    # stall the iteration while the ranking often crosses over well below 1
    ks = (2.0 ** ((e + 1) // 2 if e % 2 else -(e // 2)) for e in range(2 * _MAX_DOUBLINGS + 1))
    eps = inner.parameters.epsilon
    return _first_verified(
        req, ((hadamard_power(x, k), WitnessParameters(k=k, epsilon=eps, base=base))
              for k in ks if k * max_log <= _LOG_ENTRY_CAP),
        KExhausted(2.0 ** _MAX_DOUBLINGS))


# -- the perturbed transitive matrix and its exact eigenpair -------------------


@dataclass(frozen=True)
class PerturbationSpec:
    """Noise profile for the first row of an otherwise transitive matrix.

    delta holds (delta_2, ..., delta_n): strictly increasing up to
    delta_{n-1} = L, with delta_n = 1/L^2.
    """

    n: int
    L: Fraction
    delta: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 4:
            raise InvalidPerturbation("the perturbed matrix needs at least four items")
        if self.L <= 1:
            raise InvalidPerturbation("L must exceed one")
        if len(self.delta) != self.n - 1:
            raise InvalidPerturbation(
                f"expected {self.n - 1} deltas (items 2..n), got {len(self.delta)}")
        mids = self.delta[:-1]
        if any(d <= 0 for d in self.delta):
            raise InvalidPerturbation("deltas must be positive")
        if any(mids[i] >= mids[i + 1] for i in range(len(mids) - 1)):
            raise InvalidPerturbation("delta_2 < ... < delta_{n-1} must be strict")
        if mids[-1] != self.L:
            raise InvalidPerturbation("delta_{n-1} must equal L")
        if self.delta[-1] != 1 / self.L**2:
            raise InvalidPerturbation("delta_n must equal 1/L^2")


def default_perturbation(n: int, L: Fraction = Fraction(2)) -> PerturbationSpec:
    """Evenly spaced deltas from 1 + (L-1)/(n-2) up to L, then 1/L^2."""
    mids = tuple(1 + (i - 1) * (L - 1) / Fraction(n - 2) for i in range(2, n))
    return PerturbationSpec(n, L, mids + (1 / L**2,))


def perturbed_entries(spec: PerturbationSpec) -> list[list[Fraction]]:
    """The perturbed matrix in exact rational arithmetic."""
    n, L = spec.n, spec.L
    d = {i: spec.delta[i - 2] for i in range(2, n + 1)}
    s = {i: Fraction(1) for i in range(1, n)}
    s[n] = 1 / L
    x = [[Fraction(1)] * n for _ in range(n)]
    for j in range(2, n + 1):
        x[0][j - 1] = d[j] * s[1] / s[j]
        x[j - 1][0] = 1 / x[0][j - 1]
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            if i != j:
                x[i - 1][j - 1] = s[i] / s[j]
    return x


def perturbed_matrix(spec: PerturbationSpec) -> ComparisonMatrix:
    """Float form of the perturbed matrix, with its flat tropical ranking verified.

    Every row's maximum off the perturbed structure is L > 1, which makes the
    tropical eigenvector constant; that is checked through the solver rather
    than assumed.
    """
    exact = perturbed_entries(spec)
    x = ComparisonMatrix(
        _mirror_multiplicative(np.array([[float(v) for v in row] for row in exact])),
        Scale.MULTIPLICATIVE)
    sol = tropical_solve(to_additive(x))
    spread = float(np.ptp(sol.eigenvector.values))
    if spread > 1e-9:
        raise CheckFailed(f"tropical eigenvector of the perturbed matrix is not "
                          f"constant (spread {spread:.3e})")
    return x


@dataclass(frozen=True)
class PerturbedEigen:
    """Closed-form principal eigenpair of a perturbed matrix."""

    r: float
    alpha: tuple[float, float, float]
    v: ScoreVector


def perturbed_closed_form(spec: PerturbationSpec) -> PerturbedEigen:
    """Principal eigenpair of the perturbed matrix from a 3x3 reduction.

    The span of e_1, the score vector s, and the noise response w (with
    w_i = s_i * (1/delta_i - 1)) reduces the eigenproblem to the cubic
    p(t) = t^3 - n t^2 + b(n-1) - ac.  Its largest-modulus real root r is the
    Perron eigenvalue, alpha is an adjugate column of rI - Z, and
    v = alpha_1 e_1 + alpha_2 s + alpha_3 w.  The result is cross-checked
    against power iteration at 1e-8 before returning.
    """
    n, L = spec.n, spec.L
    a = sum(x - 1 for x in spec.delta)
    b = sum((x - 1) * (1 / x - 1) for x in spec.delta)
    c = sum(1 / x - 1 for x in spec.delta)

    roots = np.roots([1.0, -float(n), 0.0, float(b * (n - 1) - a * c)])
    moduli = np.sort(np.abs(roots))[::-1]
    if moduli[0] - moduli[1] <= 1e-9 * max(1.0, moduli[0]):
        raise RootNotSeparated(f"top cubic root moduli {moduli[0]:.12g} and "
                               f"{moduli[1]:.12g} are too close")
    top = roots[np.argmax(np.abs(roots))]
    if abs(top.imag) > 1e-9 * (1.0 + abs(top)):
        raise RootNotSeparated("largest-modulus cubic root is not real")
    r = float(top.real)

    alpha = ((r - n) * r - float(c), r + float(c), r - n + 1)
    s = np.ones(n)
    s[n - 1] = 1.0 / float(L)
    w = np.zeros(n)
    for i in range(2, n + 1):
        w[i - 1] = s[i - 1] * float(1 / spec.delta[i - 2] - 1)
    v = alpha[0] * np.eye(n)[0] + alpha[1] * s + alpha[2] * w

    vec = ScoreVector(v, Scale.MULTIPLICATIVE)
    power = principal_scores(perturbed_matrix(spec)).eigenvector.values
    gap = float(np.max(np.abs(v / v[0] - power / power[0])))
    if gap > 1e-8:
        raise CheckFailed(f"closed-form eigenvector disagrees with power iteration "
                          f"by {gap:.3e}")
    return PerturbedEigen(r, alpha, vec)


# -- tropical vs principal -----------------------------------------------------


def witness_tropical_principal(req: WitnessRequest, base: float = math.e) -> WitnessResult:
    """Multiplicative witness: tropical ranks sigma1, principal ranks sigma2.

    The perturbed matrix has a constant tropical eigenvector and a tie-free
    principal ranking; relabel it so the principal ranking is sigma2, then
    multiply entrywise by the k-th Hadamard power of a transitive matrix
    whose scores induce sigma1.  The transitive factor moves the tropical
    eigenvector by exactly k times its scores (so the tropical ranking is
    sigma1 for every k > 0), and halving k restores the principal ranking.
    """
    if req.pair is not Pair.TROPICAL_PRINCIPAL:
        raise ValueError(f"wrong constructor for pair {req.pair.value}")
    _check_number("base", base, 1.0, strict=True)
    if req.sigma1 == req.sigma2:
        return _same_rankings(req, base)

    for L in (Fraction(2), Fraction(3), Fraction(4)):
        spec = default_perturbation(req.n, L)
        x = perturbed_matrix(spec)
        with contextlib.suppress(TieDetected):
            flat_rank = rank_of(principal_scores(x).eigenvector)
            break
    else:
        raise ConstructionFailed("perturbation", "no L gave a tie-free principal ranking")

    anchored = relabel(x, perm_between(flat_rank, req.sigma2))
    with _float_range(base):
        m = strongly_transitive_from_scores(_descending_scores(req.sigma1).as_multiplicative(base))

    def candidates():
        for k in (2.0 ** -i for i in range(_MAX_HALVINGS)):
            try:
                with np.errstate(over="ignore", divide="ignore"):
                    y = hadamard_product(anchored, hadamard_power(m, k))
            except InvalidMatrix:   # out of float range; halving k shrinks the entries
                continue
            yield y, WitnessParameters(k=k, L=spec.L, delta=spec.delta, base=base)

    return _first_verified(req, candidates(), KExhausted(2.0 ** -_MAX_HALVINGS))


def generate_witness(req: WitnessRequest, base: float = math.e) -> WitnessResult:
    """Dispatch a witness request to the constructor for its method pair."""
    if req.pair is Pair.HODGE_TROPICAL:
        return witness_hodge_tropical(req)
    if req.pair is Pair.HODGE_PRINCIPAL:
        return witness_hodge_principal(req, base=base)
    return witness_tropical_principal(req, base=base)
