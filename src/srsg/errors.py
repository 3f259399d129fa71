"""Exception types shared across the package."""

from __future__ import annotations


class SignedGraphError(Exception):
    """Base class for all errors raised by this package."""


class VertexOutOfRange(SignedGraphError):
    pass


class SelfLoop(SignedGraphError):
    pass


class DuplicateEdge(SignedGraphError):
    pass


class SizeExceeded(SignedGraphError):
    pass


class DegreeMismatch(SignedGraphError):
    pass


class DisconnectedInput(SignedGraphError):
    pass


class UnknownName(SignedGraphError):
    pass


class ConstructionInvalid(SignedGraphError):
    """A built-in catalog construction failed self-validation (a bug, never user error)."""


class VacuousQuery(SignedGraphError):
    pass


class EmptyRange(SignedGraphError):
    pass


class EmptyInput(SignedGraphError):
    """Input files that hold no graph where a command needs at least one."""


def location(line: int | None, filename: str | None) -> str:
    # the "<file>:line <k>: " prefix of a text-format fault, parts known
    where = ""
    if filename is not None:
        where += f"{filename}:"
    if line is not None:
        where += f"line {line}: "
    return where


class ParseError(SignedGraphError):
    """Text-format error; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None, filename: str | None = None):
        self.line = line
        self.filename = filename
        super().__init__(location(line, filename) + message)


class MalformedHeader(ParseError):
    pass


class TruncatedPayload(ParseError):
    pass


class TrailingBits(ParseError):
    pass


class BadCharacter(ParseError):
    pass


class BadHeader(ParseError):
    pass


class BadEdgeLine(ParseError):
    pass


class BadSign(ParseError):
    pass


class CountMismatch(ParseError):
    pass
