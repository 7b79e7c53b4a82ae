"""The tile: one multidimensional sub-array of an MDD object.

An MDD object is a set of disjoint tiles plus a current domain (the
paper's logical model, Sections 3-4).  The one engine holding such
objects is :class:`~repro.storage.tilestore.StoredMDD`; a :class:`Tile`
is the unit it writes, one tile per BLOB.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import DomainError
from repro.core.geometry import MInterval


class Tile:
    """One multidimensional sub-array of an MDD object.

    The tile's data is a contiguous ndarray whose shape equals the domain's
    shape; serialisation to BLOB bytes is the row-major byte dump of that
    array (the paper's implicit cell order).
    """

    __slots__ = ("domain", "data")

    def __init__(self, domain: MInterval, data: np.ndarray) -> None:
        if not domain.is_bounded:
            raise DomainError(f"tile domain must be bounded, got {domain}")
        if tuple(data.shape) != domain.shape:
            raise DomainError(
                f"tile data shape {tuple(data.shape)} does not match "
                f"domain {domain} shape {domain.shape}"
            )
        self.domain = domain
        self.data = np.ascontiguousarray(data)

    @classmethod
    def filled(
        cls, domain: MInterval, dtype: np.dtype, value: object = 0
    ) -> "Tile":
        """A tile of constant cells."""
        data = np.zeros(domain.shape, dtype=dtype)
        if value != 0:
            data[...] = value
        return cls(domain, data)

    @property
    def byte_size(self) -> int:
        """Tile payload size in bytes (cells × cell size)."""
        return int(self.data.nbytes)

    def to_bytes(self) -> bytes:
        """Row-major serialisation used for BLOB storage."""
        return self.data.tobytes(order="C")

    def __repr__(self) -> str:
        return f"Tile({self.domain}, {self.data.dtype}, {self.byte_size}B)"
