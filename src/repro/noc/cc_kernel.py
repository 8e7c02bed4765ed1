"""ctypes binding of the vector engine's compiled cycle kernel.

The kernel (``repro/csrc/noc_cycle.c``) is built into the same shared
object as the solver kernels by `repro.core.cc_solvers.load_library`, so
`repro.core.permkernels.warmup` builds it too.  :func:`library` decides
whether the vector engine can run at all: only when
`repro.core.permkernels.compiled_library` returns the library
(``REPRO_CC=0``, ``force_backend("reference")`` or a missing compiler
send simulations to the fast path instead).

:class:`CycleKernel` owns the state only the kernel needs — the link
pipeline ring, array-backed NI queues, the packet columns, the delivered
log and, for mapped traffic, the emission tables and the pending-reply
rings — and points a ``noc_state`` struct at those arrays and at the
engine's own channel state.  One call runs a whole window (or the
drain); the counters advance in place.  A batch of
:class:`~repro.noc.traffic.MappedWorkloadTraffic` emits inside that call
(:meth:`CycleKernel.bind_mapped`); any other batch's rows are emitted in
Python and copied into the columns first (:meth:`CycleKernel.admit_window`).
The packet columns and the reply pool start small and double whenever a
window stops short of room.  ``ctypes`` releases the GIL for the call.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np

from repro.core import permkernels
from repro.core.cc_solvers import _F64, _I64, _U8, _ptr

__all__ = ["CycleKernel", "library"]

# Field order mirrors ``noc_state`` in noc_cycle.c exactly.
_GEOMETRY = ("B", "T", "V", "C", "NT", "depth", "pipe", "lat", "ring", "per")
_TABLES = ("vclo", "route", "upcv", "arr_base")
_BYTE_ARRAYS = ("st", "otaken")
#: the per-pid columns, grown together
_COLUMNS = ("p_src", "p_dst", "p_cls", "p_len", "p_created", "p_inst", "p_app", "p_ej")
_ARRAYS = (
    "occ", "head", "outp", "outv", "credits", "sa_ptr",
    "s_pid", "s_fi", "s_ready",
    "arr", "arr_n",
    "q_head", "q_tail", "q_next", "ni_cur", "ni_fi", "ni_vc",
    "rbuf",
    *_COLUMNS,
    "dlog",
    "f_inj", "f_ej", "f_routed", "buf_writes",
    "t_tile", "t_app", "t_near", "hops", "t_lat",
    "r_head", "r_tail", "r_pool",
)
_DOUBLES = ("t_p", "t_draw")
_SCALARS = (
    "now", "tot_buf", "tot_link", "ni_npkts", "ndel", "nrows", "cap",
    "t_rows", "t_replies", "rring", "rcap", "rused", "rfree", "rlive",
)
#: fields of one in-flight arrival: channel, pid, flit index
_ARR_FIELDS = 3
#: fields of one pending reply node: src, dst, class, app, next node
_R_FIELDS = 5
#: PacketTable column feeding each kernel column the rows are copied into
_ROW_COLUMNS = (("src", "p_src"), ("dst", "p_dst"), ("tclass", "p_cls"),
                ("length", "p_len"), ("created", "p_created"), ("app", "p_app"))


class _State(ctypes.Structure):
    _fields_ = (
        [(name, ctypes.c_int64) for name in _GEOMETRY]
        + [(name, _I64) for name in _TABLES]
        + [(name, _U8) for name in _BYTE_ARRAYS]
        + [(name, _I64) for name in _ARRAYS]
        + [(name, _F64) for name in _DOUBLES]
        + [("bitgen", ctypes.POINTER(ctypes.c_void_p))]
        + [(name, ctypes.c_int64) for name in _SCALARS]
    )


def library():
    """The shared library with the cycle kernel bound, or ``None``.

    ``None`` unless the solver-kernel backend resolves to ``cc`` and the
    library loads; simulations then run on the fast path.
    """
    lib = permkernels.compiled_library()
    if lib is None:
        return None
    if lib.noc_window.argtypes is None:
        lib.noc_state_size.restype = ctypes.c_int64
        lib.noc_state_size.argtypes = []
        if lib.noc_state_size() != ctypes.sizeof(_State):
            raise RuntimeError("noc_state layout differs between C and ctypes")
        lib.noc_window.restype = ctypes.c_int64
        lib.noc_window.argtypes = [ctypes.POINTER(_State), _I64, ctypes.c_int64, _I64]
        lib.noc_drain.restype = ctypes.c_int64
        lib.noc_drain.argtypes = [ctypes.POINTER(_State), ctypes.c_int64]
        lib.noc_pending.restype = ctypes.c_int64
        lib.noc_pending.argtypes = [ctypes.POINTER(_State), ctypes.c_int64, _I64]
    return lib


def pow2_at_least(n: int) -> int:
    return 1 << max(1, (n - 1).bit_length())


class CycleKernel:
    """The compiled cycle loop of one :class:`~repro.noc.vector_engine.VectorEngine`.

    ``capacity`` is the packet columns' initial row count.
    """

    def __init__(self, engine, lib, capacity: int) -> None:
        # Holds the engine's arrays, never the engine itself: no reference
        # cycle, so a finished engine's arrays free as soon as it goes.
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.lib = lib
        NT = engine.NT
        lanes = engine.LAT + 1  # arrival cycles in flight: now .. now + LAT
        self.arr = np.zeros(lanes * NT * 4 * _ARR_FIELDS, dtype=np.int64)
        self.arr_n = np.zeros(lanes, dtype=np.int64)
        self.q_head = np.full(NT, -1, dtype=np.int64)
        self.q_tail = np.full(NT, -1, dtype=np.int64)
        self.rbuf = np.zeros(NT, dtype=np.int64)
        self._locks = ()  # the mapped generators' bit-generator locks

        s = self.state = _State()
        for name, value in (
            ("B", engine.B), ("T", engine.T), ("V", engine.V), ("C", engine.C),
            ("NT", NT), ("depth", engine.DEPTH), ("pipe", engine.PIPE),
            ("lat", engine.LAT), ("ring", engine.RING), ("per", engine._per),
        ):
            setattr(s, name, value)
        self._otaken = engine.otaken.view(np.uint8)
        s.st = _ptr(engine.st)
        s.otaken = _ptr(self._otaken)
        self._bind(
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
        )
        self._grow_columns(capacity)

    def _bind(self, *named_arrays) -> None:
        """Point the struct's fields at arrays (kept alive by the caller)."""
        s = self.state
        for name, array in named_arrays:
            setattr(s, name, _ptr(array))

    def _grow_columns(self, cap: int) -> None:
        """Reallocate the per-pid columns (and the NI links and the
        delivered log, which a pid also bounds) to ``cap`` rows."""
        s = self.state
        for name in (*_COLUMNS, "q_next", "dlog"):
            grown = np.empty(cap, dtype=np.int64)
            if s.cap:
                grown[: s.cap] = getattr(self, name)
            setattr(self, name, grown)
            setattr(s, name, _ptr(grown))
        s.cap = cap

    def bind_mapped(self, traffics, hops: np.ndarray) -> None:
        """Emit ``traffics`` (one MappedWorkloadTraffic per instance, none
        with replies pending) inside the kernel; ``hops`` is the mesh's
        hop-count matrix."""
        s = self.state
        self.t_p = np.concatenate([t._p_both.ravel() for t in traffics])
        self.t_draw = np.empty(2 * s.T)
        self.t_tile = np.concatenate([t.thread_tile for t in traffics]).astype(np.int64)
        self.t_app = np.concatenate([t.app_of_thread for t in traffics]).astype(np.int64)
        self.t_near = np.array([t._nearest_l for t in traffics], dtype=np.int64).ravel()
        self.hops = np.ascontiguousarray(hops, dtype=np.int64)
        self.t_lat = np.array(
            [[t.router_pipeline + t.link_latency, t.router_pipeline, t.l2_latency,
              t.memory_latency, t.generate_replies] for t in traffics],
            dtype=np.int64,
        )
        replying = self.t_lat[:, 4] == 1
        s.t_replies = 2 * s.T * int(replying.sum())
        s.t_rows = 2 * s.T * len(traffics) + s.t_replies
        # Bucket (due % rring) never wraps onto a live one: every reply is
        # due less than rring cycles after its request.
        lat = self.t_lat[replying]
        delays = self.hops.max() * lat[:, 0] + lat[:, 1] + lat[:, 2:4].max(axis=1)
        s.rring = pow2_at_least(int(delays.max(initial=0)) + 1)
        self.r_head = np.full(len(traffics) * s.rring, -1, dtype=np.int64)
        self.r_tail = self.r_head.copy()
        s.rcap = pow2_at_least(max(s.t_replies, 1))
        self.r_pool = np.empty(s.rcap * _R_FIELDS, dtype=np.int64)
        s.rused = s.rlive = 0
        s.rfree = -1
        self._bind(*((name, getattr(self, name)) for name in (
            "t_tile", "t_app", "t_near", "hops", "t_lat", "r_head", "r_tail",
            "r_pool", "t_p", "t_draw",
        )))
        bit_generators = [t._rng.bit_generator for t in traffics]
        self._bitgen = (ctypes.c_void_p * len(traffics))(
            *(bg.ctypes.bit_generator.value for bg in bit_generators)
        )
        s.bitgen = self._bitgen
        # One lock per distinct generator: a shared one is taken once.
        self._locks = tuple({id(bg): bg.lock for bg in bit_generators}.values())

    def window(self, cycles: int, offered: np.ndarray | None) -> None:
        """Emit and run ``cycles`` cycles of the bound mapped traffic,
        counting rows per instance into ``offered`` (unless ``None``).

        Holds every generator's lock for the call, so the streams continue
        exactly where NumPy's own draws would have left them.  A call that
        stops short of room grows the columns or the reply pool and goes on.
        """
        s = self.state
        out = None if offered is None else _ptr(offered)
        with contextlib.ExitStack() as held:
            for lock in self._locks:
                held.enter_context(lock)
            done = self.lib.noc_window(ctypes.byref(s), None, cycles, out)
            while done < cycles:
                if s.nrows + s.t_rows + s.rlive > s.cap:
                    self._grow_columns(2 * s.cap)
                if s.rlive + s.t_replies > s.rcap:
                    self.r_pool = np.concatenate([self.r_pool, np.empty_like(self.r_pool)])
                    s.r_pool = _ptr(self.r_pool)
                    s.rcap *= 2
                done += self.lib.noc_window(ctypes.byref(s), None, cycles - done, out)

    def admit_window(self, table, instances, ends, bounds, offered) -> None:
        """Copy ``table``'s rows into the columns and run ``len(bounds) - 1``
        cycles, admitting table rows ``bounds[k]..bounds[k+1]`` before
        cycle ``k``.  Emission ``i`` gave instance ``instances[i]`` the rows
        up to ``ends[i]``."""
        s = self.state
        first, n = s.nrows, len(table)
        cap = s.cap
        while first + n > cap:
            cap *= 2
        if cap > s.cap:
            self._grow_columns(cap)
        rows = slice(first, first + n)
        for column, name in _ROW_COLUMNS:
            getattr(self, name)[rows] = getattr(table, column)
        if ends:
            counts = np.diff(np.frombuffer(ends, dtype=np.int64), prepend=0)
            self.p_inst[rows] = np.repeat(np.frombuffer(instances, dtype=np.int64), counts)
        s.nrows = first + n
        b = np.frombuffer(bounds, dtype=np.int64) + first
        self.lib.noc_window(
            ctypes.byref(s), _ptr(b), b.size - 1, None if offered is None else _ptr(offered)
        )

    def pending(self, b: int) -> dict[int, list[tuple[int, int, int, int]]]:
        """Instance ``b``'s pending replies, keyed as
        ``MappedWorkloadTraffic._pending``: due cycle -> ``(src, dst,
        class, app)`` in scheduling order."""
        out = np.empty(max(self.state.rlive, 1) * 5, dtype=np.int64)
        n = self.lib.noc_pending(ctypes.byref(self.state), b, _ptr(out))
        pending: dict[int, list[tuple[int, int, int, int]]] = {}
        for due, *reply in out[: n * 5].reshape(n, 5).tolist():
            pending.setdefault(due, []).append(tuple(reply))
        return pending

    def drain(self, max_cycles: int) -> None:
        """Step until the network is empty (raises on a failed drain)."""
        if self.lib.noc_drain(ctypes.byref(self.state), max_cycles):
            raise RuntimeError(
                f"network failed to drain within {max_cycles} cycles "
                "(possible deadlock or livelock)"
            )
