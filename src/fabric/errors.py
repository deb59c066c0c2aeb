"""Exception hierarchy shared across the engine, and how it warns."""

from __future__ import annotations

import sys
import warnings


def warn(message: str, category: type[Warning]) -> None:
    """``warnings.warn``, naming the first line outside this package that
    led to the warning (past the ``contextlib`` frames of its decorators
    too): the caller's line, however deep inside fabric the warning
    arose."""
    frame, level = sys._getframe(1), 2  # stacklevel 2 is the frame that called ``warn``
    while frame.f_back is not None and frame.f_globals.get("__name__", "").partition(".")[0] in ("fabric", "contextlib"):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


class FabricError(Exception):
    """Base class for all errors raised by this package."""


class IngestError(FabricError):
    """A source file could not be parsed into a corpus.

    Carries ``file`` and ``line`` when the failing location is known.
    """

    def __init__(self, message: str, *, file: str | None = None, line: int | None = None):
        self.file = file
        self.line = line
        where = ""
        if file is not None:
            where = f"{file}:" if line is None else f"{file}:{line}:"
        super().__init__(f"{where} {message}".strip())


class ValidationFailure(FabricError):
    """A corpus violated a structural invariant; ``report`` has the details."""

    def __init__(self, report):
        self.report = report
        first = report.errors[0] if report.errors else None
        head = f"{first.code}: {first.message}" if first else "invalid corpus"
        n = len(report.errors)
        suffix = "" if n <= 1 else f" (+{n - 1} more)"
        super().__init__(head + suffix)


class ImageError(FabricError):
    """An image file is corrupt, truncated, or not an image at all.

    ``code`` is one of NOT_A_FABRIC_IMAGE, UNSUPPORTED_VERSION, TRUNCATED,
    BAD_DIRECTORY, SECTION_CRC, BAD_SECTION (a section passes its CRC but
    cannot be decoded); ``section`` names the first bad section when that
    is known.
    """

    def __init__(self, code: str, message: str, *, section: str | None = None):
        self.code = code
        self.section = section
        super().__init__(message)


class QuerySyntaxError(FabricError):
    """Query text failed to parse. Reports position and what was expected."""

    def __init__(self, message: str, *, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {column}{hint}")


class QueryError(FabricError):
    """Query is syntactically fine but cannot be evaluated on this corpus."""


class OracleGuardError(FabricError):
    """The exhaustive reference evaluator refused: candidate space too large."""


class StoreError(FabricError):
    """An annotation store operation failed (bad file, duplicate, invariant)."""
