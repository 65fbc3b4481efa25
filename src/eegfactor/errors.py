"""Exception hierarchy shared across the pipeline.

Each class carries the CLI's exit code for it as ``exit_code``: argument
and config problems keep the base's 1, data problems (parse/ingest) 2,
numerical failures 3.
"""


class EegFactorError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ArgumentError(EegFactorError, ValueError):
    """A caller violated an operation's precondition."""


class ConfigError(EegFactorError):
    """Invalid or inconsistent pipeline configuration."""


class ParseError(EegFactorError):
    """A byte stream could not be decoded as the expected file format."""

    exit_code = 2

    def __init__(self, message, field=None, offset=None):
        detail = message
        if field is not None:
            detail += f" (field: {field}"
            if offset is not None:
                detail += f", byte offset: {offset}"
            detail += ")"
        elif offset is not None:
            detail += f" (byte offset: {offset})"
        super().__init__(detail)
        self.field = field
        self.offset = offset


class IngestError(EegFactorError):
    """A recording was well-formed but unusable for the pipeline."""

    exit_code = 2


class NumericalError(EegFactorError):
    """An optimizer failed without producing a usable iterate."""

    exit_code = 3
