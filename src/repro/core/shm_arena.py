"""Shared-memory arenas for the data-parallel gradient transport.

The worker pool (``core/parallel.py``) moves parameters and gradients
between the parent and its forked workers through persistent
``multiprocessing.shared_memory`` segments; its pipes carry only small
control messages. This module owns the byte-level contract of those
segments:

* :class:`ParamLayout` — the flat layout of a parameter list: one
  8-byte-aligned ``(offset, shape, dtype)`` block per parameter, in
  parameter order. The same layout describes both the parameter arena
  (parent publishes, workers map read-only views) and the gradient
  payload of each worker arena (workers accumulate, parent reduces) —
  it is the shared-memory mirror of the per-tensor ``_grad_buffer``
  layout the serial loop already uses.
* :class:`GradHeaderLayout` — the small header in front of each
  worker's gradient payload: the shard's summed loss (float64) and one
  "has gradient" flag byte per parameter, so ``None`` gradients (a
  parameter untouched by the shard) reduce exactly as they do in the
  serial loop instead of being conflated with zeros.
* :class:`SharedArena` — a thin owner of one ``SharedMemory`` segment
  with crash-safe teardown: :meth:`SharedArena.destroy` unlinks the
  ``/dev/shm`` name *first* (so a teardown interrupted half-way never
  leaks the segment) and tolerates numpy views that still hold buffer
  exports (the OS frees the pages when the last mapping dies).

Only the parent process creates or destroys arenas. Forked workers
inherit the parent's ``SharedArena`` objects copy-on-write — the
``MAP_SHARED`` mapping itself is shared, which is what makes worker
writes visible to the parent — and simply exit without cleanup; the
multiprocessing fork bootstrap leaves interpreter teardown to the
parent, so workers never race the parent's unlink.
"""

from __future__ import annotations

import math

import numpy as np

try:  # pragma: no cover - exercised via shm_available()
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform without shm support
    _shared_memory = None

__all__ = [
    "GradHeaderLayout",
    "ParamLayout",
    "SharedArena",
    "shm_available",
]

#: Every parameter block starts on an 8-byte boundary, so float64 views
#: are always aligned regardless of the dtypes that precede them.
_ALIGN = 8


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` is usable here."""
    return _shared_memory is not None


def _align(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


class ParamLayout:
    """Flat byte layout of an ordered list of arrays.

    Built once from the parent's parameter arrays; both sides of the
    transport derive their numpy views from the same layout object
    (inherited through the fork), so offsets can never disagree.
    """

    __slots__ = ("fields", "total_bytes")

    def __init__(self, arrays: "list[np.ndarray]") -> None:
        offset = 0
        fields: list[tuple[int, tuple[int, ...], np.dtype]] = []
        for data in arrays:
            offset = _align(offset)
            fields.append((offset, data.shape, data.dtype))
            offset += data.nbytes
        self.fields = fields
        self.total_bytes = max(offset, _ALIGN)

    def __len__(self) -> int:
        return len(self.fields)

    def views(
        self, buf, base_offset: int = 0, writeable: bool = True
    ) -> "list[np.ndarray]":
        """Numpy views over ``buf``, one per field, sharing its memory.

        ``writeable=False`` marks the views read-only — the worker-side
        discipline for the parameter arena, which only the parent may
        write.
        """
        views = []
        for offset, shape, dtype in self.fields:
            count = int(math.prod(shape)) if shape else 1
            view = np.frombuffer(
                buf, dtype=dtype, count=count, offset=base_offset + offset
            ).reshape(shape)
            if not writeable:
                view.flags.writeable = False
            views.append(view)
        return views


class GradHeaderLayout:
    """Header preceding a worker arena's gradient payload.

    ``[loss_sum: float64][has_grad: uint8 * num_params][pad to 8]``
    """

    __slots__ = ("num_params", "header_bytes")

    def __init__(self, num_params: int) -> None:
        self.num_params = num_params
        self.header_bytes = _align(8 + num_params)

    def loss_view(self, buf) -> np.ndarray:
        return np.frombuffer(buf, dtype=np.float64, count=1, offset=0)

    def flags_view(self, buf) -> np.ndarray:
        return np.frombuffer(buf, dtype=np.uint8, count=self.num_params, offset=8)


class SharedArena:
    """One shared-memory segment, owned (created and destroyed) by the parent."""

    __slots__ = ("_shm", "name", "nbytes")

    def __init__(self, nbytes: int) -> None:
        if _shared_memory is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self._shm = _shared_memory.SharedMemory(create=True, size=nbytes)
        self.name = self._shm.name
        self.nbytes = nbytes

    @property
    def buf(self):
        return self._shm.buf

    def destroy(self) -> None:
        """Unlink and unmap; idempotent, safe with live numpy views.

        Unlink comes first: once the name is gone the segment cannot
        leak, even if the close below trips over a still-exported numpy
        view (the kernel frees the pages when the final mapping drops).
        """
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        try:
            self._shm.close()
        except BufferError:
            # A numpy view still exports the buffer. Hand the mapping's
            # lifetime to the views: without this the SharedMemory
            # destructor retries the close at GC time and raises the
            # same BufferError as an unraisable warning.
            self._shm._mmap = None

    def __repr__(self) -> str:
        return f"SharedArena(name={self.name!r}, nbytes={self.nbytes})"
