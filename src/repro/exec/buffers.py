"""Compact runtime buffers shared by the two execution engines.

Two pieces of infrastructure that keep the hot execution paths cheap:

* :class:`MemEventColumns` — a columnar memory-event buffer (parallel
  ``array`` columns of ints rather than one ``MemEvent`` object per dynamic
  access).  The threaded-code engine appends five ints per access instead
  of allocating an object.  The GPU timing model reads the buffer
  directly as a NumPy array; the CPU model consumes either representation
  through :func:`iter_mem_events` (or plain iteration, which adapts each
  row back into a ``MemEvent``).

* :class:`PrivateMemoryPool` — recycles the per-invocation private-memory
  (``alloca``) bytearray.  A fresh buffer is ~1 MiB of zeroed memory per
  work-item; the pool hands the same buffer back out after re-zeroing only
  the dirty prefix actually written by stores, which is what makes
  million-launch sweeps cheap.

``DEFAULT_MEM_EVENT_CAP`` is the single authoritative default for how many
memory events a trace retains; :class:`~repro.exec.interp.ExecTrace` and
:class:`~repro.runtime.runtime.ConcordRuntime` both derive from it so the
cap the runtime is built with is exactly the cap the traces enforce.
"""

from __future__ import annotations

from array import array

#: One cap, threaded from the runtime into every trace it creates.  The
#: cache/coalescing models sample at most this many events per launch;
#: events beyond it are counted in ``mem_events_dropped``.
DEFAULT_MEM_EVENT_CAP = 120_000


class MemEventColumns:
    """Columnar storage for dynamic memory-access events.

    One interleaved unsigned-64 array holds ``(instr_uid, seq, address,
    size, is_store)`` rows with stride 5, so the hot path appends a whole
    event with a single ``extend`` call.  Every field is non-negative by
    construction (uids and seqs are counters, addresses and sizes are
    masked to 64 bits).  Iteration yields ``MemEvent`` objects so existing
    consumers work unchanged; hot consumers should use
    :func:`iter_mem_events` to stream tuples without materializing objects.
    """

    __slots__ = ("data",)

    STRIDE = 5

    def __init__(self):
        self.data = array("Q")

    def append_raw(
        self, instr_uid: int, seq: int, address: int, size: int, is_store: bool
    ) -> None:
        self.data.extend((instr_uid, seq, address, size, 1 if is_store else 0))

    def append(self, event) -> None:
        """Object-style append, so code written against the list
        representation (``ExecTrace.record_mem``/``merge``) works on
        columns too."""
        self.append_raw(
            event.instr_uid, event.seq, event.address, event.size, event.is_store
        )

    @property
    def instr_uids(self):
        return self.data[0::5]

    @property
    def seqs(self):
        return self.data[1::5]

    @property
    def addresses(self):
        return self.data[2::5]

    @property
    def sizes(self):
        return self.data[3::5]

    @property
    def stores(self):
        return self.data[4::5]

    def __len__(self) -> int:
        return len(self.data) // 5

    def __iter__(self):
        from .interp import MemEvent

        data = self.data
        for i in range(0, len(data), 5):
            yield MemEvent(
                data[i], data[i + 1], data[i + 2], data[i + 3], bool(data[i + 4])
            )


def iter_mem_events(trace):
    """Stream a trace's memory events as ``(instr_uid, seq, address, size)``
    tuples, whichever representation the trace holds.

    The timing models only need these four fields; streaming tuples avoids
    building a ``MemEvent`` per row when the storage is columnar.
    """
    events = trace.mem_events
    if isinstance(events, MemEventColumns):
        data = events.data
        return zip(data[0::5], data[1::5], data[2::5], data[3::5])
    return ((e.instr_uid, e.seq, e.address, e.size) for e in events)


class PrivateMemoryPool:
    """Recycles zeroed private-memory buffers across kernel launches.

    ``acquire`` returns an all-zero buffer (freshly allocated or recycled);
    ``release`` takes the buffer back together with the caller's dirty
    high-water mark and re-zeroes only that prefix.  Kernels whose allocas
    were all promoted by ``mem2reg`` never touch the pool at all.
    """

    __slots__ = ("size", "_free", "counters")

    def __init__(self, size: int, counters=None):
        self.size = size
        self._free: list[bytearray] = []
        # Optional repro.obs.CounterRegistry; publishes
        # private_pool.reuse / private_pool.alloc when attached.
        self.counters = counters

    def acquire(self) -> bytearray:
        if self._free:
            if self.counters is not None:
                self.counters.add("private_pool.reuse")
            return self._free.pop()
        if self.counters is not None:
            self.counters.add("private_pool.alloc")
        return bytearray(self.size)

    def release(self, buffer: bytearray, dirty: int = 0) -> None:
        if buffer is None or len(buffer) != self.size:
            return
        if dirty > 0:
            dirty = min(dirty, self.size)
            buffer[:dirty] = bytes(dirty)
        self._free.append(buffer)
