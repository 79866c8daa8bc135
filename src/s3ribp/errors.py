"""Exception types shared across the package."""

__all__ = ["S3RIBPError", "DomainError", "NumericsError", "InvariantError", "CheckpointError", "ParseError"]


class S3RIBPError(Exception):
    """Base class for package-specific failures."""


class DomainError(S3RIBPError, ValueError):
    """An argument lies outside the domain of an operation."""


class NumericsError(S3RIBPError, ArithmeticError):
    """A numerical routine produced a non-finite or unconverged result."""


class InvariantError(S3RIBPError, RuntimeError):
    """An internal sampler invariant was violated (this is a bug trap)."""


class CheckpointError(S3RIBPError, RuntimeError):
    """A checkpoint file is invalid or inconsistent with the supplied inputs."""


class ParseError(S3RIBPError, ValueError):
    """A data file could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
