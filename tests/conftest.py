import pathlib

import numpy as np
import pytest

from pairrank.core import ComparisonMatrix, Ranking, Scale, load_matrix

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def disagree_csv() -> pathlib.Path:
    """4x4 multiplicative matrix whose tropical ranking splits from the other two."""
    return DATA / "disagree_4x4.csv"


@pytest.fixture(scope="session")
def disagree_matrix(disagree_csv) -> ComparisonMatrix:
    return load_matrix(disagree_csv, reciprocity_tol=0.05)


@pytest.fixture
def rand_add():
    """Factory for random additive matrices with Gaussian upper triangles."""

    def make(rng: np.random.Generator, n: int, sd: float = 1.0) -> ComparisonMatrix:
        g = np.triu(rng.normal(0.0, sd, size=(n, n)), 1)
        return ComparisonMatrix(g - g.T, Scale.ADDITIVE)

    return make


@pytest.fixture(scope="session")
def perron_ranking():
    """The ranking by the Perron vector of a positive matrix, from a 50-digit mpmath eig.

    Independent of the package's solvers; every float entry converts exactly.
    """
    mpmath = pytest.importorskip("mpmath")

    def rank(x: np.ndarray) -> Ranking:
        n = x.shape[0]
        with mpmath.workdps(50):
            values, vectors = mpmath.eig(mpmath.matrix(x.tolist()))
            top = max(range(n), key=lambda i: mpmath.re(values[i]))
            return Ranking(tuple(sorted(range(1, n + 1), key=lambda i: -abs(vectors[i - 1, top]))))

    return rank
