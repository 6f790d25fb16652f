"""Exception types shared across the package."""

from __future__ import annotations


class PairrankError(Exception):
    """Base class for every error raised by this package."""


class InvalidMatrix(PairrankError):
    """A matrix fails the structural requirements for its scale."""


class MatrixParseError(InvalidMatrix):
    """A matrix file could not be parsed; carries line/column context."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class TieDetected(PairrankError):
    """Two scores are too close to order; carries the offending items (1-based)."""

    def __init__(self, item_a: int, item_b: int, gap: float = 0.0):
        super().__init__(f"items {item_a} and {item_b} are tied (gap {gap:.3e})")
        self.items = (item_a, item_b)
        self.gap = gap


class NoConvergence(PairrankError):
    """A Perron solve ended without a certified eigenvector.

    It ran out of iterations, left early because its spectral ratio rules out
    convergence within the budget, or stopped on a vector whose
    Collatz-Wielandt bounds disagree; spread is that vector's log spread.
    """

    def __init__(self, iterations: int, spread: float):
        super().__init__(f"Perron solve not certified after {iterations} iterations "
                         f"(Collatz-Wielandt log spread {spread:.3e})")
        self.iterations = iterations
        self.spread = spread


class ReductionViolated(PairrankError):
    """The transitive-part reduction identity failed beyond tolerance."""

    def __init__(self, residual: float):
        super().__init__(f"reduction residual {residual:.3e} exceeds tolerance")
        self.residual = residual


class BoundaryCase(PairrankError):
    """The input sits within margin of a region boundary; no side is picked."""

    def __init__(self, margin: float):
        super().__init__(f"input lies within {margin:.3e} of a region boundary")
        self.margin = margin


class RegionNotFound(PairrankError):
    """No region matched; indicates a bug in the region catalogue."""


class ConstructionFailed(PairrankError):
    """A witness construction could not complete a stage."""

    def __init__(self, stage: str, detail: str = ""):
        super().__init__(f"construction failed at stage '{stage}'" + (f": {detail}" if detail else ""))
        self.stage = stage


class VerificationFailed(PairrankError):
    """A constructed witness did not reproduce the requested rankings."""


class KExhausted(PairrankError):
    """The exponent schedule hit its guard before the target ranking appeared."""

    def __init__(self, exponent: float):
        super().__init__(f"exponent schedule exhausted at {exponent:g}")
        self.exponent = exponent


class InvalidPerturbation(PairrankError):
    """A perturbation scheme violates its parameter constraints."""


class RootNotSeparated(PairrankError):
    """Cubic roots are numerically tied; the principal root is ambiguous."""


class CheckFailed(PairrankError):
    """A geometric self-check did not hold within tolerance."""
