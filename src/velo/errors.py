"""Exception types shared across the library."""


class VeloError(Exception):
    """Base class for all velo errors."""


class DgfError(VeloError):
    """Malformed DGF input; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class BudgetError(VeloError):
    """A configured resource budget would be exceeded: patch size, cycle count,
    prefix length, oracle relaxations or realize ring vertices."""


class NotStronglyConnectedError(VeloError):
    """The operation requires a strongly connected quotient graph."""


class UnreachableError(VeloError):
    """A BFS target could not be reached inside the unrolled window."""
