"""Exception types raised by the mixent package.

Every domain error derives from :class:`MixentError` so callers can catch
the whole family at once.  Each class carries the exit code that the CLI
returns for it as ``exit_code``: 4 on the base class, 2 for
:class:`UsageError`, and one code from 10 to 22 per domain error (the table
is in :mod:`mixent.cli`).
"""

from __future__ import annotations


class MixentError(Exception):
    """Base class for all domain errors raised by this package."""
    exit_code = 4


class RankDeficient(MixentError):
    """A matrix required to have full row rank does not."""
    exit_code = 10


class ZeroColumn(MixentError):
    """A matrix contains a zero column where a nonzero one is required."""
    exit_code = 11


class NotOrthonormal(MixentError):
    """Rows of a matrix are not orthonormal within tolerance."""
    exit_code = 12


class NonPositiveLambda(MixentError):
    """A scale vector contains entries that are not strictly positive."""
    exit_code = 13


class NotSpd(MixentError):
    """A matrix expected to be symmetric positive definite is not."""
    exit_code = 14


class BadBlockStructure(MixentError):
    """A real matrix does not carry the expected 2x2 block pattern."""
    exit_code = 15


class AlreadySquare(MixentError):
    """An orthonormal-row matrix is square, so no complement rows exist."""
    exit_code = 16


class UnsupportedFamily(MixentError):
    """A distribution family name is unknown or not valid in context."""
    exit_code = 17


class NotCircular(MixentError):
    """A radial construction was requested for a non-circular target."""
    exit_code = 18


class TooFewSamples(MixentError):
    """A sample array is too small for the requested estimator."""
    exit_code = 19


class DegenerateData(MixentError):
    """Sample values are degenerate (for example, all equal)."""
    exit_code = 20


class DuplicatePoints(MixentError):
    """A point with k or more exact duplicates, whose kNN entropy estimate is -inf."""
    exit_code = 21


class SingularCovariance(MixentError):
    """A sample covariance matrix is numerically singular."""
    exit_code = 22


class UsageError(MixentError):
    """Invalid command-line arguments."""
    exit_code = 2
