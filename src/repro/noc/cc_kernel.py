"""ctypes binding of the vector engine's compiled cycle kernel.

The kernel (``repro/csrc/noc_cycle.c``) is built into the same shared
object as the solver kernels by `repro.core.cc_solvers.load_library`, so
`repro.core.permkernels.warmup` builds it too.  :func:`library` decides
whether the vector engine can run at all: only when the solver backend
resolves to ``cc`` (``REPRO_CC=0``, ``force_backend("numpy"|"reference")``
or a missing compiler send simulations to the fast path instead).

:class:`CycleKernel` owns the state only the kernel needs — the link
pipeline ring, array-backed NI queues, per-pid columns and the delivered
log — and points a ``noc_state`` struct at those arrays and at the
engine's own channel state.  One call runs a whole window (or the
drain); the counters advance in place, and the delivered pids land
back in the engine's lists.  The kernel keeps the ejection column
itself (``p_ej``); the packet table has none.  ``ctypes`` releases the
GIL for the call.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.core import cc_solvers, permkernels
from repro.core.cc_solvers import _I64, _U8, _ptr

__all__ = ["CycleKernel", "library"]

# Field order mirrors ``noc_state`` in noc_cycle.c exactly.
_GEOMETRY = ("B", "T", "V", "C", "NT", "depth", "pipe", "lat", "ring", "per", "oldest")
_TABLES = ("vclo", "route", "upcv", "arr_base")
_BYTE_ARRAYS = ("st", "otaken")
_ARRAYS = (
    "occ", "head", "outp", "outv", "credits", "sa_ptr",
    "s_pid", "s_fi", "s_ready",
    "arr", "arr_n",
    "q_head", "q_tail", "q_next", "ni_cur", "ni_fi", "ni_vc",
    "rbuf",
    "p_src", "p_dst", "p_cls", "p_len", "p_created", "p_inst",
    "p_ej",
    "dlog",
    "f_inj", "f_ej", "f_routed", "buf_writes",
)
#: fields of one in-flight arrival: channel, pid, flit index
_ARR_FIELDS = 3
_SCALARS = ("now", "tot_buf", "tot_link", "ni_npkts", "ndel")


class _State(ctypes.Structure):
    _fields_ = (
        [(name, ctypes.c_int64) for name in _GEOMETRY]
        + [(name, _I64) for name in _TABLES]
        + [(name, _U8) for name in _BYTE_ARRAYS]
        + [(name, _I64) for name in _ARRAYS]
        + [(name, ctypes.c_int64) for name in _SCALARS]
    )


def library():
    """The shared library with the cycle kernel bound, or ``None``.

    ``None`` unless the solver-kernel backend resolves to ``cc`` and the
    library loads; simulations then run on the fast path.
    """
    if permkernels.resolve_backend() != "cc":
        return None
    lib, _ = cc_solvers.load_library()
    if lib is None:
        return None
    if lib.noc_window.argtypes is None:
        lib.noc_state_size.restype = ctypes.c_int64
        lib.noc_state_size.argtypes = []
        if lib.noc_state_size() != ctypes.sizeof(_State):
            raise RuntimeError("noc_state layout differs between C and ctypes")
        lib.noc_window.restype = None
        lib.noc_window.argtypes = [ctypes.POINTER(_State), _I64, ctypes.c_int64]
        lib.noc_drain.restype = ctypes.c_int64
        lib.noc_drain.argtypes = [ctypes.POINTER(_State), ctypes.c_int64]
    return lib


class CycleKernel:
    """The compiled cycle loop of one :class:`~repro.noc.vector_engine.VectorEngine`."""

    def __init__(self, engine, lib) -> None:
        # Holds the engine's arrays, never the engine itself: no reference
        # cycle, so a finished engine's arrays free as soon as it goes.
        self.lib = lib
        NT = engine.NT
        lanes = engine.LAT + 1  # arrival cycles in flight: now .. now + LAT
        self.arr = np.zeros(lanes * NT * 4 * _ARR_FIELDS, dtype=np.int64)
        self.arr_n = np.zeros(lanes, dtype=np.int64)
        self.q_head = np.full(NT, -1, dtype=np.int64)
        self.q_tail = np.full(NT, -1, dtype=np.int64)
        self.rbuf = np.zeros(NT, dtype=np.int64)
        # Per-pid columns, grown with the packet table's mirrors.
        self.p_src = self.p_inst = self.p_ej = np.zeros(0, dtype=np.int64)
        self.q_next = self.dlog = np.zeros(0, dtype=np.int64)

        s = self.state = _State()
        for name, value in (
            ("B", engine.B), ("T", engine.T), ("V", engine.V), ("C", engine.C),
            ("NT", NT), ("depth", engine.DEPTH), ("pipe", engine.PIPE),
            ("lat", engine.LAT), ("ring", engine.RING), ("per", engine._per),
            ("oldest", int(engine._oldest)),
        ):
            setattr(s, name, value)
        self._otaken = engine.otaken.view(np.uint8)
        s.st = _ptr(engine.st)
        s.otaken = _ptr(self._otaken)
        for name, array in (
            ("vclo", engine.VCLO), ("route", engine.ROUTE), ("upcv", engine.UPCV),
            ("arr_base", engine.ARR_BASE),
            ("occ", engine.occ), ("head", engine.head), ("outp", engine.outp),
            ("outv", engine.outv), ("credits", engine.credits),
            ("sa_ptr", engine.sa_ptr), ("s_pid", engine.s_pid),
            ("s_fi", engine.s_fi), ("s_ready", engine.s_ready),
            ("arr", self.arr), ("arr_n", self.arr_n),
            ("q_head", self.q_head), ("q_tail", self.q_tail),
            ("ni_cur", engine._ni_cur), ("ni_fi", engine._ni_fi),
            ("ni_vc", engine._ni_vc), ("rbuf", self.rbuf),
            ("f_inj", engine.flits_injected), ("f_ej", engine.flits_ejected),
            ("f_routed", engine.flits_routed), ("buf_writes", engine.buffer_writes),
        ):
            setattr(s, name, _ptr(array))
        s.now = engine.now

    def _bind_rows(self, pt, first: int, instances, ends) -> None:
        """Grow the per-pid columns to the table's capacity and fill rows
        ``first..`` (emission ``i`` gave ``instances[i]`` the rows up to
        ``ends[i]``)."""
        pt.flush()
        n = len(pt)
        cap = pt.dst_a.size
        if self.p_src.size < cap:
            old = self.p_src.size
            for name in ("p_src", "p_inst", "p_ej", "q_next", "dlog"):
                grown = np.full(cap, -1, dtype=np.int64)
                grown[:old] = getattr(self, name)
                setattr(self, name, grown)
        self.p_src[first:n] = pt.src[first:n]
        if ends:
            counts = np.diff(np.frombuffer(ends, dtype=np.int64), prepend=first)
            self.p_inst[first:n] = np.repeat(np.frombuffer(instances, dtype=np.int64), counts)
        s = self.state
        for name, array in (
            ("p_src", self.p_src), ("p_inst", self.p_inst), ("p_ej", self.p_ej),
            ("q_next", self.q_next), ("dlog", self.dlog),
            ("p_dst", pt.dst_a), ("p_cls", pt.cls_a), ("p_len", pt.len_a),
            ("p_created", pt.created_a),
        ):
            setattr(s, name, _ptr(array))

    def _collect(self, engine, ndel_before: int) -> None:
        """Copy the call's results back into the engine."""
        s = self.state
        new = self.dlog[ndel_before:s.ndel]
        if engine.B == 1:
            engine.delivered[0].extend(new.tolist())
        elif new.size:
            # The log interleaves instances; each instance's own order is
            # the object engine's append order.
            inst = self.p_inst[new]
            order = np.argsort(inst, kind="stable")
            ends = np.cumsum(np.bincount(inst, minlength=engine.B))
            for b, part in enumerate(np.split(new[order], ends[:-1])):
                engine.delivered[b].extend(part.tolist())
        engine.now = s.now
        engine._tot_buf = s.tot_buf
        engine._tot_link = s.tot_link
        engine._ni_npkts = s.ni_npkts

    def window(self, engine, first: int, bounds, instances, ends) -> None:
        """Run ``len(bounds) - 1`` cycles of ``engine``, admitting rows
        ``bounds[k]..bounds[k+1]`` before cycle ``k``."""
        self._bind_rows(engine.pt, first, instances, ends)
        ndel = self.state.ndel
        b = np.frombuffer(bounds, dtype=np.int64)
        self.lib.noc_window(ctypes.byref(self.state), _ptr(b), b.size - 1)
        self._collect(engine, ndel)

    def drain(self, engine, max_cycles: int) -> None:
        """Step ``engine`` until its network is empty (raises on a failed drain)."""
        ndel = self.state.ndel
        failed = self.lib.noc_drain(ctypes.byref(self.state), max_cycles)
        self._collect(engine, ndel)
        if failed:
            raise RuntimeError(
                f"network failed to drain within {max_cycles} cycles "
                "(possible deadlock or livelock)"
            )
