"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch everything coming from this package with one clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class GeometryError(ReproError):
    """Invalid geometric construction or operation (bad bounds, dim mismatch)."""


class DimensionMismatchError(GeometryError):
    """Two geometric entities of different dimensionality were combined."""


class OpenBoundError(GeometryError):
    """An operation requiring fixed bounds was applied to an open interval."""


class DomainError(ReproError):
    """A spatial-domain constraint was violated (e.g. tile outside domain)."""


class TilingError(ReproError):
    """A tiling strategy received invalid parameters or produced an
    inconsistent tiling (overlap, domain escape)."""


class StorageError(ReproError):
    """Failure in the page/BLOB storage layer."""


class BlobNotFoundError(StorageError):
    """A BLOB id was requested that the store does not contain."""


class PageError(StorageError):
    """Invalid page id or page-level corruption."""


class ChecksumError(PageError):
    """Stored bytes do not match their recorded CRC-32 checksum."""


class WalError(StorageError):
    """Invalid write-ahead-log usage or unrecoverable log corruption."""


class RecoveryError(StorageError):
    """Crash recovery could not reconcile the log with the checkpoint."""


class IndexError_(ReproError):
    """Failure in the spatial index layer.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class QueryError(ReproError):
    """A query was malformed or touched an invalid region."""


class RasQLSyntaxError(QueryError):
    """The mini-RasQL parser rejected the statement."""


class TypeSystemError(ReproError):
    """Invalid MDD type construction (unknown base type, bad domain)."""
