"""Exception hierarchy shared by all bunred modules."""

from __future__ import annotations


class BunredError(Exception):
    """Root of every error raised by this package."""


class InvalidType(BunredError):
    """A (rank, degree) pair violates the sheaf-type invariants."""


class InvalidArgument(BunredError):
    """An argument is outside the operation's stated domain."""


class DomainError(BunredError):
    """The genus is outside the range where the operation is defined."""


class HypothesisNotMet(BunredError):
    """The inputs do not satisfy the hypothesis of the theorem being applied."""


class NotCovered(BunredError):
    """No prediction exists for these inputs (rank-zero types)."""


class TheoremContradicted(BunredError):
    """An exhaustive scan found a counterexample; signals a bug in the scan."""


class InternalInvariantViolation(BunredError):
    """A derived quantity failed a check that is guaranteed to hold."""


class CertificateInvalid(BunredError):
    """A reduction trace failed verification.

    Carries the path of the failing node, the name of the failed check and,
    when produced by the verifier, the full report.
    """

    def __init__(self, path: str, check: str, detail: str = "", report=None):
        super().__init__(f"{path}: check '{check}' failed" + (f": {detail}" if detail else ""))
        self.path = path
        self.check = check
        self.detail = detail
        self.report = report


class ParseError(BunredError):
    """A serialized trace document is malformed.

    The message always starts with the location (JSON path) of the problem.
    """

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


class BaseCaseReached(Exception):
    """Control signal: the input rank already equals hcf(rank, degree).

    Deliberately not a BunredError so that blanket error handling never
    swallows it; callers that recurse catch it explicitly.
    """
