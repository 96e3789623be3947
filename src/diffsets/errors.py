"""Exception taxonomy, mirrored by the CLI exit codes."""

__all__ = ["DiffsetsError", "InputError", "VerificationError", "InfeasibleError"]


class DiffsetsError(Exception):
    """Base class for all library errors."""


class InputError(DiffsetsError):
    """Invalid input or parameters (CLI exit code 2)."""


class VerificationError(DiffsetsError):
    """A certificate or proven invariant failed re-verification (CLI exit code 3).

    Raised only for conditions the mathematics guarantees; seeing one means the
    implementation, not the input, is wrong.
    """


class InfeasibleError(DiffsetsError):
    """Parameters outside a result's feasibility region (CLI exit code 4)."""
