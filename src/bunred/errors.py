"""Exception hierarchy shared by all bunred modules."""

from __future__ import annotations


class BunredError(Exception):
    """Root of every error raised by this package."""


class DomainError(BunredError):
    """The inputs or a result are outside the range the operation handles: a
    pair that is not a sheaf type, a rank-zero type where a positive rank is
    needed, a genus below 2, an argument outside the operation's stated
    domain, a tree too deep to write as a trace document (see
    serialize.MAX_TREE_DEPTH), or an integer past Python's int-to-str limit."""


class HypothesisNotMet(BunredError):
    """The inputs do not satisfy the hypothesis of the theorem being applied."""


class TheoremContradicted(BunredError):
    """A proved statement failed: the splitting scan found a counterexample,
    or the oracle solve_lemma_bruteforce found no unique window solution.
    Signals a bug."""


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
    """A serialized trace document is malformed, or holds a tree too deep to
    read (see serialize.MAX_TREE_DEPTH).

    The message always starts with the location (JSON path) of the problem.
    """

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


class BaseCaseReached(Exception):
    """Control signal: the input rank already equals hcf(rank, degree).

    Deliberately not a BunredError so that blanket error handling never
    swallows it; the CLI's solve-lemma catches it explicitly.
    """
