"""The ``planes`` decoder as it was before it learnt row ranges, kept as
the reference the kernel in :mod:`repro.storage.compression` must equal
byte for byte (``tests/test_planes_kernel.py``): one ``unpackbits`` over
the planes, the high bits OR-ed in ``uint8``, one widen, one add."""

import numpy as np

from repro.core.errors import StorageError
from repro.storage.compression import _PLANES_HEADER


def planes_decode(payload: bytes) -> memoryview:
    """Inverse of :func:`planes_encode`: one ``unpackbits`` over the
    planes, the high bits OR-ed in ``uint8``, one widen, one add.  The
    cells come back read-only, as a decoded ``bytes`` would."""
    if len(payload) < _PLANES_HEADER.size:
        raise StorageError("corrupt planes payload (short header)")
    kind, size, width, minimum, count = _PLANES_HEADER.unpack_from(payload)
    body = len(payload) - _PLANES_HEADER.size
    if (
        kind not in (b"u", b"i", b"b") or size not in (1, 2, 4, 8) or width > 8 * size
        or minimum >> (8 * size) or count >> 48  # no array that large can exist
        or (kind == b"b" and (size != 1 or minimum + (1 << width) > 2))
        or body != (count if width else 0) + max(width - 8, 0) * -(-count // 8)
    ):
        raise StorageError(
            f"corrupt planes payload ({kind!r}{size}, width {width}, minimum "
            f"{minimum}, {count} cells, {body} body bytes)"
        )
    unsigned = np.dtype(f"u{size}")
    cells = np.zeros(count, dtype=unsigned)
    if width:
        cells[:] = np.frombuffer(payload, np.uint8, count, _PLANES_HEADER.size)
    if width > 8:
        high = np.frombuffer(payload, np.uint8, offset=_PLANES_HEADER.size + count)
        bits = np.unpackbits(high.reshape(width - 8, -1), axis=1, count=count)
        for group in range(0, width - 8, 8):
            byte = bits[group].copy()
            for bit in range(1, min(8, width - 8 - group)):
                byte |= bits[group + bit] << bit
            cells |= byte.astype(unsigned) << (8 + group)
    cells += unsigned.type(minimum)
    cells.flags.writeable = False
    return memoryview(cells).cast("B")
