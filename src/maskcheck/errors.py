"""Exception hierarchy for maskcheck.

Everything raised on purpose derives from MaskcheckError so the CLI can
map failures onto its exit codes in one place.
"""


class MaskcheckError(Exception):
    """Base class for all errors raised by this package."""


# --- domain ---------------------------------------------------------------

class BadDegree(MaskcheckError):
    """Modulus polynomial does not have exactly the required degree."""


class ReduciblePolynomial(MaskcheckError):
    """Modulus polynomial factors over GF(2), so it defines no field."""


class ShiftOutOfRange(MaskcheckError):
    """Shift amount is not a constant in [0, bits)."""


# --- program text ---------------------------------------------------------

class ParseError(MaskcheckError):
    """Malformed program text. Carries 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class NotSSA(MaskcheckError):
    """A variable is assigned more than once."""


class UseBeforeDef(MaskcheckError):
    """A variable is referenced before any assignment or declaration."""


class UnknownClass(MaskcheckError):
    """A parameter is declared with a class other than public/secret/random."""


class NonConstShift(MaskcheckError):
    """A shift's right operand is not a literal constant."""


class UnknownVariable(MaskcheckError):
    """Expansion was requested for a name that is not an internal variable."""


# --- counting -------------------------------------------------------------

class UncoveredVariable(MaskcheckError):
    """A sigma assignment misses a non-random variable of the expression."""


class BudgetExceeded(MaskcheckError):
    """Exhaustive enumeration would exceed the configured evaluation budget."""


class VariableTimeout(MaskcheckError):
    """Per-variable wall-clock deadline passed mid-analysis."""


# --- solver bridge --------------------------------------------------------

class TooManyCopies(MaskcheckError):
    """The formula would need more than 2^16 program copies."""


class SolverSpawnFailure(MaskcheckError):
    """The external solver executable could not be started."""


class InconclusiveSolver(MaskcheckError):
    """The solver returned neither sat nor unsat for a required query."""
