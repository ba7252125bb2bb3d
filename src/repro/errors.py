"""Diagnostics for the Click configuration language.

Unlike the in-kernel Click parser, the tool parser keeps precise source
locations (the paper's §5.2 notes the two parsers deliberately differ:
the kernel parser keeps "only general information about the locations of
errors", which is inappropriate for optimizers).
"""

from __future__ import annotations

from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A position in a configuration file.  A tuple, since the lexer
    builds one per token: format it as ``"%s" % (location,)``."""

    filename: str
    line: int
    column: int

    def __str__(self):
        return "%s:%d:%d" % (self.filename, self.line, self.column)


UNKNOWN_LOCATION = SourceLocation("<unknown>", 0, 0)


class ClickSyntaxError(SyntaxError):
    """A lexical or grammatical error in a configuration file."""

    def __init__(self, message, location=UNKNOWN_LOCATION):
        super().__init__("%s: %s" % (location, message))
        self.location = location
        self.bare_message = message


class ClickSemanticError(ValueError):
    """A well-formed configuration that doesn't make sense (duplicate
    declarations, unknown element classes where classes are required,
    port or push/pull violations)."""

    def __init__(self, message, location=UNKNOWN_LOCATION):
        super().__init__("%s: %s" % (location, message))
        self.location = location
        self.bare_message = message


class ErrorCollector:
    """Accumulates diagnostics so tools can report many errors per run,
    as click-check does, instead of aborting at the first."""

    def __init__(self):
        self.errors = []
        self.warnings = []

    def error(self, message, location=UNKNOWN_LOCATION):
        self.errors.append((location, message))

    def warning(self, message, location=UNKNOWN_LOCATION):
        self.warnings.append((location, message))

    @property
    def ok(self):
        return not self.errors

    def raise_if_errors(self):
        if self.errors:
            location, message = self.errors[0]
            summary = message
            if len(self.errors) > 1:
                summary += " (and %d more errors)" % (len(self.errors) - 1)
            raise ClickSemanticError(summary, location)

    def format(self):
        lines = ["%s: error: %s" % (loc, msg) for loc, msg in self.errors]
        lines += ["%s: warning: %s" % (loc, msg) for loc, msg in self.warnings]
        return "\n".join(lines)
