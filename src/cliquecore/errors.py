"""Exception types shared across the package, and how their messages
quote the input."""


def clip(text: str, limit: int = 40) -> str:
    """``text`` cut after ``limit`` characters, with its full length noted:
    how an error message quotes an input token, which can be megabytes."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


class GraphParseError(ValueError):
    """Raised for malformed graph files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GuardError(RuntimeError):
    """Raised when an instance exceeds a hard size guard.

    Guards are honest limits on the exact exponential procedures; they err
    instead of truncating so a too-large instance can never silently change
    the answer.
    """


class DualGapError(RuntimeError):
    """The optimal clique-cover dual is strictly larger than the game worth.

    On a perfect graph the two coincide, so hitting this means the input
    graph is not perfect (or, if it provably is, an internal solver bug).
    """

    def __init__(self, dual_value, worth):
        self.dual_value = dual_value
        self.worth = worth
        super().__init__(
            f"dual optimum {dual_value} != game worth {worth}; "
            "no core imputation exists via the dual (graph is not perfect)"
        )
