"""Exception types and the CLI exit-code taxonomy."""


class QuiverModuliError(Exception):
    """Base class for all library errors."""


class SchemaError(QuiverModuliError):
    """Malformed or inconsistent input data (JSON parsing, shape mismatches)."""


class NotDecidableError(QuiverModuliError):
    """The requested decision procedure is not implemented for these inputs.

    Raised instead of guessing, e.g. norm membership in Q(sqrt(m)) for m != -1.
    """


class NotGeometricallyStableError(QuiverModuliError, ValueError):
    """A descent operation met a rep that is not geometrically stable, per `verdict`."""

    def __init__(self, verdict):
        super().__init__(f"representation is not geometrically stable: {verdict}")
        self.verdict = verdict


class NotInvertibleError(QuiverModuliError):
    """Inversion of a non-unit (zero divisor or zero reduced norm)."""


class BudgetExceededError(QuiverModuliError):
    """An enumeration would exceed the configured resource budget."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


def count_text(n):
    """A budget estimate for a message: n in decimal below 2^64, else its
    power-of-two floor, since a count too large to print is still an
    answer (str() of an int refuses more than 4,300 digits)."""
    return str(n) if n.bit_length() <= 64 else f"at least 2^{n.bit_length() - 1}"


def check_budget(n, budget, what):
    """n if it fits the budget, else the one budget refusal: BudgetExceededError,
    its message what with {} filled by count_text(n), then "(budget B)"."""
    if n > budget:
        raise BudgetExceededError(f"{what.format(count_text(n))} (budget {budget})", estimate=n)
    return n


class InconclusiveError(QuiverModuliError):
    """A randomized or certificate-based search ended without an answer.

    Never used to hide a wrong result: callers receive this instead of an
    unverified claim.  Carries the seed needed to replay the search.
    """

    def __init__(self, message, seed=None):
        super().__init__(message)
        self.seed = seed


class InvariantError(QuiverModuliError):
    """An internal mathematical invariant failed; indicates a bug, not bad input."""


# Exit codes for the command-line interface.  Mathematically negative answers
# (e.g. "not semistable", "orbit not Galois-fixed") are still exit 0.
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INCONCLUSIVE = 4
EXIT_INVARIANT = 5
EXIT_NOT_DECIDABLE = 6
