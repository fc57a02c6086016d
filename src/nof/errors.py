"""Exception taxonomy shared across the package.

The CLI maps these to distinct exit codes: missing inputs (2), invalid
configuration or unparsable input files (3), numerical/degenerate-data
failures (4).
"""
import contextlib


class NofError(Exception):
    """Base class for all package-specific errors."""


class MissingInputError(NofError):
    """A required input artifact (file or directory) does not exist, or is
    stale: written from inputs that have changed since."""


class ConfigError(NofError):
    """A configuration value or call parameter is out of contract."""


class NumericalError(NofError):
    """Degenerate data or a failed numerical procedure."""


class ParseError(NofError):
    """A structured input file is malformed.

    Carries the 1-based line number when it can be located.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@contextlib.contextmanager
def parsing(path):
    """Re-raise what reading the JSON document in `path` meets in the body,
    invalid JSON, a missing key or a value of the wrong type, as a
    ParseError naming the file."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from exc
    except (TypeError, AttributeError, IndexError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
