"""Domain model for pairwise comparison matrices.

Two equivalent encodings are supported. An additive matrix is skew-symmetric
(A[j, i] == -A[i, j], zero diagonal) and stores log-preferences; a
multiplicative matrix is positive and reciprocal (X[j, i] == 1 / X[i, j],
unit diagonal) and stores preference ratios. All items are numbered 1..n in
user-facing structures; arrays are 0-indexed internally.
"""

from __future__ import annotations

import csv
import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidMatrix, MatrixParseError, TieDetected

__all__ = [
    "Scale",
    "ComparisonMatrix",
    "ScoreVector",
    "Ranking",
    "UpperTriangleVector",
    "additive_matrix",
    "multiplicative_matrix",
    "to_additive",
    "to_multiplicative",
    "relabel",
    "strongly_transitive_from_scores",
    "is_strongly_transitive",
    "rank_of",
    "upper_triangle",
    "matrix_from_upper_triangle",
    "pair_index",
    "perm_inverse",
    "perm_between",
    "relabel_ranking",
    "load_matrix",
    "save_matrix",
]

# Machine-level slack for reciprocity of internally built multiplicative
# matrices (lower triangle is always 1/upper, so the product is 1 up to
# one rounding of the division).
_RECIPROCITY_EXACT = 1e-13


class Scale(enum.Enum):
    """Encoding of a comparison matrix or score vector."""

    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ComparisonMatrix:
    """A validated n-by-n pairwise comparison matrix."""

    entries: np.ndarray
    scale: Scale

    def __post_init__(self) -> None:
        a = _square_finite(self.entries)
        if a.shape[0] < 2:
            raise InvalidMatrix("need at least two items")
        if self.scale is Scale.ADDITIVE:
            if np.any(np.diagonal(a) != 0.0):
                raise InvalidMatrix("additive matrix needs a zero diagonal")
            if not np.array_equal(a, -a.T):
                raise InvalidMatrix("additive matrix must be exactly skew-symmetric; "
                                    "use additive_matrix() to repair raw input")
        else:
            if np.any(a <= 0.0):
                raise InvalidMatrix("multiplicative entries must be strictly positive")
            if np.any(np.diagonal(a) != 1.0):
                raise InvalidMatrix("multiplicative matrix needs a unit diagonal")
            defect = np.abs(a * a.T - 1.0).max()
            if defect > _RECIPROCITY_EXACT:
                raise InvalidMatrix(f"reciprocity defect {defect:.3e}; "
                                    "use multiplicative_matrix() to repair raw input")
        object.__setattr__(self, "entries", _readonly(a))

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@functools.lru_cache(maxsize=64)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (iu, ju): the strict upper triangle of an n-by-n matrix, row-major."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _skew(coords: np.ndarray, n: int) -> np.ndarray:
    """Skew-symmetric n-by-n matrices from upper-triangle coordinates (the last axis)."""
    a = np.zeros(coords.shape[:-1] + (n, n))
    iu, ju = _triu(n)
    a[..., iu, ju] = coords
    a[..., ju, iu] = -coords
    return a


def _square_finite(arr: Iterable) -> np.ndarray:
    """A raw array as floats, once it is a square matrix with finite entries."""
    a = np.asarray(arr, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("entries must be finite")
    return a


def _mirror_additive(upper_source: np.ndarray) -> np.ndarray:
    """Exactly skew-symmetric matrices from the upper triangle of one raw matrix or a stack."""
    n = upper_source.shape[-1]
    iu, ju = _triu(n)
    return _skew(upper_source[..., iu, ju], n)


def _mirror_multiplicative(upper_source: np.ndarray) -> np.ndarray:
    """Build exactly reciprocal positive matrices from the upper triangle.

    Works on one matrix or on a stack of them (the last two axes).
    """
    x = np.ones(upper_source.shape)
    iu, ju = _triu(upper_source.shape[-1])
    upper = upper_source[..., iu, ju]
    x[..., iu, ju] = upper
    x[..., ju, iu] = 1.0 / upper
    return x


def _check_number(name: str, value: float, low: float, strict: bool = False) -> None:
    """Reject a numeric option that is NaN, infinite, below low, or at low when strict."""
    if not (math.isfinite(value) and (value > low if strict else value >= low)):
        bound = f"above {low:g}" if strict else f">= {low:g}"
        raise ValueError(f"{name} must be a finite number {bound}; got {value:g}")


def additive_matrix(arr: Iterable, *, symmetry_tol: float = 1e-9) -> ComparisonMatrix:
    """Validate and repair a raw array into an additive comparison matrix.

    The skew defect |A[i, j] + A[j, i]| must stay within symmetry_tol
    (relative to the larger magnitude of the pair, with an absolute floor of
    one); the pair is then replaced by its exact antisymmetrization.
    """
    _check_number("tolerance", symmetry_tol, 0.0)
    a = _square_finite(arr)
    if np.any(np.abs(np.diagonal(a)) > symmetry_tol):
        raise InvalidMatrix("diagonal of an additive matrix must be zero")
    scale_ref = np.maximum(1.0, np.maximum(np.abs(a), np.abs(a.T)))
    with np.errstate(over="ignore"):   # a same-sign pair near the float maximum: defect inf
        defect = np.abs(a + a.T) / scale_ref
    if np.max(defect) > symmetry_tol:
        i, j = np.unravel_index(int(np.argmax(defect)), a.shape)
        raise InvalidMatrix(
            f"skew-symmetry defect {defect[i, j]:.3e} at entry ({i + 1}, {j + 1}) "
            f"exceeds tolerance {symmetry_tol:g}")
    with np.errstate(over="ignore"):
        skew = (a - a.T) / 2.0
    # a pair near the float maximum overflows the difference: halve it first there
    # (everywhere, halving first would round entries below about 4.5e-308)
    skew = np.where(np.isfinite(skew), skew, a / 2.0 - a.T / 2.0)
    return ComparisonMatrix(_mirror_additive(skew), Scale.ADDITIVE)


def multiplicative_matrix(arr: Iterable, *, reciprocity_tol: float = 1e-9) -> ComparisonMatrix:
    """Validate and repair a raw array into a multiplicative comparison matrix.

    Requires positive entries, a unit diagonal (within reciprocity_tol) and
    |X[i, j] * X[j, i] - 1| <= reciprocity_tol. Each upper entry is replaced
    by sqrt(X[i, j] / X[j, i]) and mirrored, which preserves the ratio of the
    pair while making the matrix exactly reciprocal.
    """
    _check_number("tolerance", reciprocity_tol, 0.0)
    x = _square_finite(arr)
    if np.any(x <= 0.0):
        i, j = np.unravel_index(int(np.argmin(x)), x.shape)
        raise InvalidMatrix(f"entry ({i + 1}, {j + 1}) is not strictly positive")
    if np.any(np.abs(np.diagonal(x) - 1.0) > reciprocity_tol):
        raise InvalidMatrix("diagonal of a multiplicative matrix must be one")
    defect = np.abs(x * x.T - 1.0)
    if np.max(defect) > reciprocity_tol:
        i, j = np.unravel_index(int(np.argmax(defect)), x.shape)
        raise InvalidMatrix(
            f"reciprocity defect {defect[i, j]:.3e} at entry ({i + 1}, {j + 1}) "
            f"exceeds tolerance {reciprocity_tol:g}")
    with np.errstate(over="ignore"):   # a pair far from one over- or underflows the ratio
        root = np.sqrt(x / x.T)
    root = np.where(np.isfinite(root) & (root > 0.0), root, np.sqrt(x) / np.sqrt(x.T))
    return ComparisonMatrix(_mirror_multiplicative(root), Scale.MULTIPLICATIVE)


@dataclass(frozen=True)
class ScoreVector:
    """Per-item scores on a declared scale."""

    values: np.ndarray
    scale: Scale

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise InvalidMatrix("scores must be a one-dimensional vector")
        if not np.all(np.isfinite(v)):
            raise InvalidMatrix("scores must be finite")
        if self.scale is Scale.MULTIPLICATIVE and np.any(v <= 0.0):
            raise InvalidMatrix("multiplicative scores must be strictly positive")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def sum_zero(self) -> "ScoreVector":
        """Additive: shift to zero mean. Multiplicative: rescale to geometric mean one."""
        if self.scale is Scale.ADDITIVE:
            return ScoreVector(self.values - self.values.mean(), self.scale)
        logs = np.log(self.values)
        return ScoreVector(np.exp(logs - logs.mean()), self.scale)

    def first_unit(self) -> "ScoreVector":
        """Pin the first component to 0 (additive) or 1 (multiplicative)."""
        if self.scale is Scale.ADDITIVE:
            return ScoreVector(self.values - self.values[0], self.scale)
        return ScoreVector(self.values / self.values[0], self.scale)

    def as_additive(self, base: float = math.e) -> "ScoreVector":
        if self.scale is Scale.ADDITIVE:
            return self
        return ScoreVector(np.log(self.values) / math.log(base), Scale.ADDITIVE)

    def as_multiplicative(self, base: float = math.e) -> "ScoreVector":
        if self.scale is Scale.MULTIPLICATIVE:
            return self
        return ScoreVector(np.power(base, self.values), Scale.MULTIPLICATIVE)


@dataclass(frozen=True)
class Ranking:
    """A strict ordering of items, best first, as a permutation of 1..n."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise InvalidMatrix(f"ranking {self.order} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.order)

    @classmethod
    def from_string(cls, text: str) -> "Ranking":
        sep = ">" if ">" in text else ","
        try:
            items = tuple(int(tok) for tok in text.split(sep))
        except ValueError as exc:
            raise InvalidMatrix(f"cannot parse ranking {text!r}") from exc
        return cls(items)

    def __str__(self) -> str:
        return ">".join(str(i) for i in self.order)


@dataclass(frozen=True)
class UpperTriangleVector:
    """Row-major upper-triangle coordinates of an additive matrix.

    For n items the coordinates are (A12, A13, ..., A1n, A23, ..., A(n-1)n),
    a vector of length n*(n-1)/2.
    """

    coords: np.ndarray
    n: int

    def __post_init__(self) -> None:
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.n * (self.n - 1) // 2,):
            raise InvalidMatrix(f"expected {self.n * (self.n - 1) // 2} coordinates for n={self.n}")
        object.__setattr__(self, "coords", _readonly(c))


def pair_index(n: int, i: int, j: int) -> int:
    """Coordinate index of the pair (i, j), 1-based items, i < j."""
    if not 1 <= i < j <= n:
        raise InvalidMatrix(f"pair ({i}, {j}) is not an upper-triangle pair for n={n}")
    return (i - 1) * n - i * (i - 1) // 2 + (j - i - 1)


def upper_triangle(m: ComparisonMatrix) -> UpperTriangleVector:
    """Upper-triangle coordinates of an additive matrix."""
    if m.scale is not Scale.ADDITIVE:
        raise InvalidMatrix("upper-triangle coordinates are defined for additive matrices")
    iu, ju = _triu(m.n)
    return UpperTriangleVector(m.entries[iu, ju], m.n)


def matrix_from_upper_triangle(u: UpperTriangleVector | np.ndarray, n: int | None = None) -> ComparisonMatrix:
    """Inverse of upper_triangle: rebuild the additive matrix from coordinates."""
    if isinstance(u, UpperTriangleVector):
        coords, n = u.coords, u.n
    else:
        coords = np.asarray(u, dtype=float)
        if n is None:
            # invert k = n(n-1)/2
            n = (1 + math.isqrt(1 + 8 * coords.size)) // 2
        if coords.size != n * (n - 1) // 2:
            raise InvalidMatrix(f"{coords.size} coordinates do not fill an upper triangle for n={n}")
    return ComparisonMatrix(_skew(coords, n), Scale.ADDITIVE)


def to_additive(x: ComparisonMatrix, base: float = math.e) -> ComparisonMatrix:
    """Elementwise log_base, mapping a multiplicative matrix to an additive one."""
    _check_number("base", base, 1.0, strict=True)
    if x.scale is Scale.ADDITIVE:
        return x
    logs = np.log(x.entries) / math.log(base)
    return ComparisonMatrix(_mirror_additive(logs), Scale.ADDITIVE)


def to_multiplicative(a: ComparisonMatrix, base: float = math.e) -> ComparisonMatrix:
    """Elementwise base**entry, mapping an additive matrix to a multiplicative one."""
    _check_number("base", base, 1.0, strict=True)
    if a.scale is Scale.MULTIPLICATIVE:
        return a
    x, finite = _exp_stack(a.entries[None], base)
    if not finite[0]:
        raise InvalidMatrix("exponentiation overflowed; rescale the additive matrix first")
    return ComparisonMatrix(x[0], Scale.MULTIPLICATIVE)


def _exp_stack(a: np.ndarray, base: float):
    """(x, finite): finite flags the matrices of a stack whose every power base**A is
    finite, and x holds those powers, mirrored reciprocal, in stack order."""
    with np.errstate(over="ignore"):
        powers = np.power(base, a)
    finite = np.isfinite(powers).all(axis=(1, 2))
    return _mirror_multiplicative(powers[finite]), finite


# -- permutations ------------------------------------------------------------
#
# A relabeling tau is stored as a tuple t with t[i-1] = tau(i), 1-based values.


def perm_inverse(tau: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(tau)
    for i, t in enumerate(tau):
        inv[t - 1] = i + 1
    return tuple(inv)


def perm_between(source: Ranking, target: Ranking) -> tuple[int, ...]:
    """The relabeling tau with tau(source.order[k]) = target.order[k] for all k."""
    if source.n != target.n:
        raise InvalidMatrix("rankings must have the same length")
    tau = [0] * source.n
    for a, b in zip(source.order, target.order):
        tau[a - 1] = b
    return tuple(tau)


def relabel(m: ComparisonMatrix, tau: Sequence[int]) -> ComparisonMatrix:
    """Rename items: output Y satisfies Y[tau(i), tau(j)] = A[i, j]."""
    n = m.n
    if sorted(tau) != list(range(1, n + 1)):
        raise InvalidMatrix(f"relabeling {tuple(tau)} is not a permutation of 1..{n}")
    idx = np.asarray(tau, dtype=int) - 1
    out = np.empty_like(m.entries)
    out[np.ix_(idx, idx)] = m.entries
    return ComparisonMatrix(out, m.scale)


def relabel_ranking(r: Ranking, tau: Sequence[int]) -> Ranking:
    """Ranking after relabeling every item through tau."""
    return Ranking(tuple(tau[i - 1] for i in r.order))


# -- scores and rankings -----------------------------------------------------


def strongly_transitive_from_scores(s: ScoreVector) -> ComparisonMatrix:
    """The comparison matrix induced by scores: differences or ratios by scale."""
    v = s.values
    if s.scale is Scale.ADDITIVE:
        iu, ju = _triu(s.n)
        with np.errstate(over="ignore"):
            diffs = v[iu] - v[ju]
        if not np.all(np.isfinite(diffs)):
            raise InvalidMatrix("score differences leave float range")
        return ComparisonMatrix(_skew(diffs, s.n), Scale.ADDITIVE)
    with np.errstate(over="ignore"):
        ratios = np.divide.outer(v, v)
    if not np.all(np.isfinite(ratios)):
        raise InvalidMatrix("score ratios leave float range")
    return ComparisonMatrix(_mirror_multiplicative(ratios), Scale.MULTIPLICATIVE)


def is_strongly_transitive(m: ComparisonMatrix) -> bool:
    """Whether A[i, k] == A[i, j] + A[j, k] for all triples, within 1e-9.

    Multiplicative input is checked on the log scale, where the condition
    becomes the usual ratio consistency X[i, k] == X[i, j] * X[j, k].
    """
    a = to_additive(m).entries
    defect = a[:, None, :] - a[:, :, None] - a[None, :, :]
    return bool(np.max(np.abs(defect)) <= 1e-9)


# Two adjacent scores closer than this fraction of the score spread are a tie.
_TIE_TOL = 1e-9


def _rank_rows(v: np.ndarray):
    """Best-first order of each row of a score stack, with its closest pair.

    Returns (order, worst, gap, tied): order[r] lists 0-based items best
    first, order[r, worst[r]] and order[r, worst[r] + 1] are the adjacent
    pair with the smallest gap, and tied[r] says whether that gap is at most
    _TIE_TOL times the row's spread. A constant row is tied at its first two
    items with gap 0.
    """
    # stable sort so equal-score behavior is deterministic before the tie check
    order = np.argsort(-v, axis=1, kind="stable")
    ranked = v[np.arange(v.shape[0])[:, None], order]
    spread = ranked[:, 0] - ranked[:, -1]
    gaps = ranked[:, :-1] - ranked[:, 1:]
    worst = gaps.argmin(axis=1)
    gap = np.where(spread == 0.0, 0.0, gaps[np.arange(v.shape[0]), worst])
    return order, worst, gap, gap <= _TIE_TOL * spread


def rank_of(scores: ScoreVector) -> Ranking:
    """Order items best-first by score, refusing to break near-ties.

    Multiplicative scores are compared on the log scale. Two scores closer
    than _TIE_TOL times the score spread raise TieDetected. A batch of one
    for the row-wise tie test the Monte Carlo study runs on its trials.
    """
    v = scores.values if scores.scale is Scale.ADDITIVE else np.log(scores.values)
    if v.shape[0] == 1:
        raise TieDetected(1, 1, 0.0)
    order, worst, gap, tied = _rank_rows(v[None])
    order, k = order[0], int(worst[0])
    if tied[0]:
        raise TieDetected(int(order[k]) + 1, int(order[k + 1]) + 1, float(gap[0]))
    return Ranking(tuple((order + 1).tolist()))


# -- file format -------------------------------------------------------------


def _parse_number(token: str, line: int, column: int) -> float:
    """One CSV field as a float; past float range it is +-inf, as float('1e400') is."""
    token = token.strip()
    if not token:
        raise MatrixParseError("empty field", line, column)
    try:
        if "/" not in token:
            return float(token)
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise MatrixParseError(f"cannot parse number {token!r}", line, column) from exc
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _ratio(token: str) -> float:
    """An ASCII '[+-]digits/digits' field as int / int, rounded as float(Fraction) is."""
    p, q = token.split("/")
    if not (token.isascii() and q.isdigit() and p.lstrip("+-").isdigit()):
        raise ValueError(token)
    return int(p) / int(q)


def _parse_row(fields: list[str], line: int) -> list[float]:
    """One CSV row as floats in one pass; if that raises, field by field with _parse_number."""
    try:
        return [float(tok) if "/" not in tok else _ratio(tok) for tok in fields]
    except (ValueError, ArithmeticError):
        return [_parse_number(tok, line, col + 1) for col, tok in enumerate(fields)]


def load_matrix(path: str | Path, *, scale_override: Scale | None = None,
                reciprocity_tol: float = 1e-9) -> ComparisonMatrix:
    """Read a comparison matrix from a plain CSV file.

    An optional line '# scale=additive' or '# scale=multiplicative' before
    the first row declares the encoding; the default is multiplicative.
    Fields may be integers, decimals, or fractions like '3/2'. A UTF-8
    byte-order mark is skipped. The matrix is validated and repaired with
    the given reciprocity tolerance.
    """
    path = Path(path)
    scale = None
    rows: list[list[float]] = []
    row_lines: list[int] = []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if raw[0].lstrip().startswith("#"):
                header = ",".join(raw).lstrip("#").strip().lower()
                if header.startswith("scale="):
                    if rows or scale is not None:
                        raise MatrixParseError("a scale header must come once, before the "
                                               "first row", lineno)
                    value = header.split("=", 1)[1].strip()
                    try:
                        scale = Scale(value)
                    except ValueError:
                        raise MatrixParseError(f"unknown scale {value!r}", lineno) from None
                continue
            rows.append(_parse_row(raw, lineno))
            row_lines.append(lineno)
    if not rows:
        raise MatrixParseError(f"{path}: no matrix rows found")
    n = len(rows)
    for k, row in enumerate(rows):
        if len(row) != n:
            raise MatrixParseError(
                f"row {k + 1} has {len(row)} fields, expected {n}", row_lines[k])
    if scale_override is not None:
        scale = scale_override
    arr = np.asarray(rows, dtype=float)
    if scale is Scale.ADDITIVE:
        return additive_matrix(arr, symmetry_tol=reciprocity_tol)
    return multiplicative_matrix(arr, reciprocity_tol=reciprocity_tol)


def save_matrix(path: str | Path, m: ComparisonMatrix) -> None:
    """Write a comparison matrix as CSV with a scale header line, 12 significant digits."""
    path = Path(path)
    lines = [f"# scale={m.scale.value}"]
    for row in m.entries:
        lines.append(",".join(f"{x:.12g}" for x in row))
    path.write_text("\n".join(lines) + "\n")
