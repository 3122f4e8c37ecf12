"""Vectorized netsim engine: struct-of-arrays state, compiled step kernel.

The object simulator in :mod:`repro.netsim.router` /
:mod:`repro.netsim.network` is cycle-accurate but interpreter-bound:
every router pipeline stage is a Python loop over per-object state.
:class:`FastEngine` lays a network out as flat numpy struct-of-arrays
and hands them to the C kernel in :mod:`repro.ckernel`, which runs the
*same* cycle semantics with no Python per cycle. It never walks the
``Router``/``Link``/``Terminal`` graph: :func:`compile_spec` builds the
constant tables straight from the network's frozen spec, once per spec
per process (so once per pool worker), read-only and shared by every
run of that shape; each run gets its own state block and
:class:`~repro.ckernel.FastState`.

* **State layout** — input-VC ring buffers (``qbuf``/``qhead``/
  ``qlen``), VC allocation state (``state``/``rc_out``/``rc_ovc``),
  per-port occupancy, credit counters and output-VC ownership bitmasks
  are flat arrays indexed by ``row = (router*P + port)*V + vc`` and
  ``g = router*P + port``.
* **Transport** — links and credit channels collapse into a few
  per-``(kind, delay)`` delay classes, each a ring of in-flight
  entries with strictly increasing arrival cycles.
* **Packet store** — one row per packet (``pk_*``), which is also the
  offer event that creates it: the kernel offers packet ``i`` at cycle
  ``pk_create[i]`` from terminal ``pk_src[i]``.

Every vectorized run is the same two moves: :meth:`FastEngine.append`
puts the offer rows in the store, and :meth:`FastEngine._c_run` runs
the one contract both engines share (offer due rows, step, stop at an
absolute cycle or, draining, once the rows are used up and nothing is
in flight; the scalar twin is :func:`repro.netsim.network.advance`).
A Bernoulli load point (``Simulator.run``, which draws the stream once
for either engine) makes one call per phase, a trace replay one call,
a :class:`repro.netsim.partition.WaferPartition` epoch one call, each
with or without a telemetry sink, at any port count. The scalar object
simulator is the oracle: it runs when asked for by name, and when
:func:`engine_for` declines (no C toolchain, more than 63 VCs, or a
network whose object graph was touched before its run and so may have
been edited). A run hands its end state back on
:attr:`RunStats.final <repro.netsim.stats.RunStats.final>`; of the
network it ran, the engine advances only ``network.cycle``.

The engine is held to *bit parity* with the object simulator: the
golden corpus (``tests/netsim/goldens``) and the differential fuzz
harness (``tests/netsim/test_differential.py``) require identical
latency samples, flit counts and error behaviour. Deterministic
tie-breaking contract: VA scans VCs round-robin from the per-port
pointer; SA picks the minimum circular distance ``(port*V + vc -
pointer) mod (P*V)`` (distances are injective, so there are no ties);
ports arbitrate in ascending index order.

Pass ``engine="scalar"`` to any entry point to run the object-model
oracle instead (see :mod:`repro.engines`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

import numpy as np

from repro import ckernel, engines
from repro.netsim.router import ACTIVE, IDLE, ROUTE
from repro.netsim.stats import RunEnd, RunStats
from repro.netsim.telemetry import LatencyHistogram

# Flit codes pack (packet id, flit index) into one int64.
_SHIFT = 20
_IDX_MASK = (1 << _SHIFT) - 1

# Output-VC ownership is one int64 bitmask per port.
_MAX_VCS = 63

_C_KIND = {"rf": 0, "tf": 1, "inj": 2, "rc": 3, "tc": 4}

#: Kernel telemetry counters (int64 arrays): ``name -> size key``.
_TEL_ARRAYS = (
    ("tel_rc_wait", "R"),
    ("tel_va_grants", "R"),
    ("tel_va_stalls", "R"),
    ("tel_rc_waiting", "R"),
    ("tel_credit_stall", "RP"),
    ("tel_sa_requests", "RP"),
    ("tel_channel_load", "RP"),
    ("tel_vc_grants", "RV"),
    ("tel_occ_sum", "RP"),
    ("tel_occ_peak", "RP"),
    ("tel_vc_occ_sum", "RV"),
    ("tel_term_stall", "T"),
)


def engine_tag(engine: str = "auto", num_vcs: int = 1) -> str:
    """The engine a run of a library-built network with ``num_vcs``
    VCs takes under ``engine``: ``"c"`` or ``"scalar"``.

    This is the part of :func:`engine_for`'s rule that a query knows
    before it builds anything: the resolved name, whether the kernel
    loads, and the VC count the kernel's bitmask allocator holds.
    """
    if num_vcs > _MAX_VCS:
        return "scalar"
    return engines.netsim_engine_tag(engine)


def engine_for(network, telemetry=None, engine: str = "auto") -> Optional["FastEngine"]:
    """A vectorized engine for one run of ``network``, or ``None``.

    ``engine`` is a :data:`repro.engines.NETSIM_ENGINES` name, resolved
    once here (callers that resolved already may pass the concrete
    value through — resolution is idempotent). ``None`` falls back to
    the scalar object simulator: whatever :func:`engine_tag` sends
    there (a ``"scalar"`` resolution, no C toolchain on this host,
    more than 63 VCs), a network whose object graph was touched before
    this run (it may have been edited), one whose clock is off 0, or one
    that carries a sink other than ``telemetry`` all decline rather than
    risk divergence.
    """
    if (
        network.graph_built
        or network.cycle != 0
        or network.telemetry is not None and network.telemetry is not telemetry
        or engine_tag(engine, network.spec.config.num_vcs) == "scalar"
    ):
        return None
    return FastEngine(network, telemetry)


#: A run's fresh state, in one int64 block per run: ``(name, size
#: key, dtype, initial value)``; a string initial value names the
#: table the array starts as. The first group is engine attributes,
#: ``_AUX`` (kernel-run-local structures and telemetry counters) lives
#: in :attr:`FastEngine.aux`.
_STATE = (
    ("qbuf", "RPVC", np.int64, 0), ("qhead", "RPV", np.int64, 0),
    ("qlen", "RPV", np.int64, 0), ("state", "RPV", np.int8, IDLE),
    ("rc_out", "RPV", np.int64, -1), ("rc_ovc", "RPV", np.int64, -1),
    ("gout", "RPV", np.int64, -1), ("occ", "RP", np.int64, 0),
    ("ocred", "RP", np.int64, "ocred"), ("ovc_mask", "RP", np.int64, 0),
    ("vc_ptr", "RP", np.int64, 0), ("sa_ptr", "RP", np.int64, 0),
    ("fwd_g", "RP", np.int64, 0), ("tcred", "T", np.int64, "tcred"),
    ("tvc", "T", np.int64, "tvc"), ("tsent", "T", np.int64, 0),
    ("tpsent", "T", np.int64, 0), ("trecv", "T", np.int64, 0),
    ("tbacklog", "T", np.int64, 0), ("cur_pid", "T", np.int64, -1),
    ("cur_idx", "T", np.int64, 0),
)
_AUX = (
    ("cls_head", "C", np.int64, 0), ("cls_tail", "C", np.int64, 0),
    ("cls_hidx", "C", np.int64, 0), ("cls_tidx", "C", np.int64, 0),
    ("ring_cycle", "ring", np.int64, 0), ("ring_dest", "ring", np.int64, 0),
    ("ring_code", "ring", np.int64, 0), ("ring_vc", "ring", np.int64, 0),
    ("bk_rows", "WRPV", np.int64, 0), ("bk_cnt", "W", np.int64, 0),
    ("stall_rows", "RPV", np.int64, 0), ("va_mask", "RPVW", np.uint64, 0),
    ("cand", "RPPVW", np.uint64, 0), ("aop", "RPW", np.uint64, 0),
    ("cg_stamp", "RP", np.int64, -1), ("pend_head", "T", np.int64, -1),
    ("pend_tail", "T", np.int64, -1),
) + tuple((name, size, np.int64, 0) for name, size in _TEL_ARRAYS)

@dataclass(frozen=True)
class Compiled:
    """A network spec compiled for the kernel; every run of it shares it.

    ``tables`` holds the constant arrays, read-only. The rest lays out a
    run: the state block's shape constants (``scalars``), where each
    fresh state array sits in one int64 block of ``words`` words
    (``layout``: name, offset, words, length, dtype, initial value, and
    whether it belongs in ``aux``), and the kernel pointers of the
    shared tables (``addresses``).
    """

    tables: Mapping[str, np.ndarray]
    scalars: Tuple[Tuple[str, int], ...]
    layout: Tuple[tuple, ...]
    words: int
    addresses: Tuple[Tuple[str, int], ...]


@lru_cache(maxsize=64)
def compile_spec(spec) -> Compiled:
    """Compile a network spec for the kernel, once per spec per process
    (so once per pool worker).

    The tables come straight from ``spec.ports()``: the initial output
    credits, the terminal and RC-delay tables, the delay class and
    destination of every port's flit send and credit return and of
    every terminal's injection, the delay classes with their ring
    capacities, and the division-free index lookups.
    ``tests/netsim/compile_reference.py`` compiles a built object graph
    into the same arrays.
    """
    peer, terminal, latency = spec.ports()
    config = spec.config
    R, P, T, V = spec.n_routers, spec.n_ports, spec.n_terminals, config.num_vcs
    CAP = config.buffer_flits_per_port
    RP, PV = R * P, P * V
    to_router = peer >= 0
    to_terminal = terminal >= 0
    ingress = spec.ingress_routing_delay
    rc_delay = np.where(
        to_terminal,
        config.routing_delay if ingress is None else ingress,
        config.routing_delay,
    )
    # Delay classes are numbered in first use: each port group's send,
    # then its credit return, in group order; then each terminal's
    # injection. A class is one (kind, delay) ring in the kernel.
    host = np.empty(T, dtype=np.int64)
    host[terminal[to_terminal]] = np.flatnonzero(to_terminal)
    kinds = np.concatenate((
        np.stack((
            np.where(to_router, _C_KIND["rf"], _C_KIND["tf"]),
            np.where(to_router, _C_KIND["rc"], _C_KIND["tc"]),
        ), axis=1).ravel(),
        np.full(T, _C_KIND["inj"]),
    ))
    delays = np.concatenate((
        np.stack((latency + config.pipeline_delay, latency), axis=1).ravel(),
        latency[host],
    ))
    wired = np.concatenate((
        np.repeat(to_router | to_terminal, 2), np.ones(T, dtype=bool)
    ))
    classes = {}
    ids = [
        classes.setdefault(key, len(classes))
        for key in zip(kinds[wired].tolist(), delays[wired].tolist())
    ]
    cls = np.full(len(kinds), -1, dtype=np.int64)
    cls[wired] = ids
    cls_kind, cls_delay = (
        np.array(list(classes), dtype=np.int64).reshape(-1, 2).T
    )
    # Each source sends at most one entry per cycle and an entry lives
    # `delay` cycles, so a class ring holds (delay + 2) per source.
    caps = (cls_delay + 2) * np.bincount(ids, minlength=len(classes))
    dest = np.where(to_router, peer, terminal)
    index = np.arange(RP * V, dtype=np.int64)
    arrays = {
        "ocred": np.where(to_router, CAP, 0),
        "oterm": to_terminal,
        "rc_delay": rc_delay,
        "rc_delay_respawn": np.maximum(rc_delay, 1),
        "send_cls": cls[0:2 * RP:2],
        "send_dest": dest,
        "cred_cls": cls[1:2 * RP:2],
        "cred_dest": dest,
        "inj_cls": cls[2 * RP:],
        "inj_dest": host,
        "tcred": np.full(T, CAP),
        "tvc": np.arange(T) % V,
        "cls_kind": cls_kind,
        "cls_delay": cls_delay,
        "cls_off": np.concatenate(([0], np.cumsum(caps)[:-1])),
        "cls_cap": caps,
        "pv_port": index[:PV] // V,
        "g_r": index[:RP] // P,
        "g_p": index[:RP] % P,
        "row_r": index // PV,
    }
    for name, array in arrays.items():
        array = arrays[name] = np.array(
            array, dtype=bool if name == "oterm" else np.int64
        )
        array.flags.writeable = False

    W = int(arrays["rc_delay_respawn"].max()) + 1
    PVW, PW, RPVW = (PV + 63) // 64, (P + 63) // 64, (R * PV + 63) // 64
    sizes = {
        "T": T, "R": R, "RP": RP, "RV": R * V, "RPV": R * PV,
        "RPVC": R * PV * CAP, "C": len(caps), "W": W, "WRPV": W * R * PV,
        "ring": max(int(caps.sum()), 1), "RPVW": RPVW, "RPPVW": RP * PVW,
        "RPW": R * PW,
    }
    layout, words = [], 0
    for group, in_aux in ((_STATE, False), (_AUX, True)):
        for name, size, dtype, initial in group:
            length = sizes[size]
            span = -(-length * np.dtype(dtype).itemsize // 8)
            layout.append((name, words, span, length, dtype, initial, in_aux))
            words += span
    scalars = dict(
        R=R, P=P, V=V, CAP=CAP, PV=PV, PVW=PVW, PW=PW, T=T, RP=RP,
        RPV=R * PV, W=W, RPVW=RPVW, full_mask=(1 << V) - 1, shift=_SHIFT,
        idx_mask=_IDX_MASK, st_idle=IDLE, st_route=ROUTE, st_active=ACTIVE,
        n_cls=len(caps),
    )
    scalars.update(zip(
        ("route_kind", "rp0", "rp1", "rp2", "rp3", "rp4", "rp5"),
        _route_params(spec),
    ))
    return Compiled(
        tables=MappingProxyType(arrays),
        scalars=tuple(scalars.items()),
        layout=tuple(layout),
        words=max(words, 1),
        addresses=tuple(
            (name, array.ctypes.data) for name, array in arrays.items()
            if name not in ("ocred", "tcred", "tvc")  # seed run state
        ),
    )


def _route_params(spec):
    """``(route_kind, rp0..rp5)`` for the kernel's ``route_port``."""
    if spec.kind == "mesh":
        return (0, spec.terminals_per_router, spec.neighbor_channels,
                spec.cols, 0, 0, 0)
    if spec.kind == "clos":
        n = spec.n_terminals
        k = spec.ssc_radix
        down = k // 2
        spines = n // k
        cpp = down // spines
        adaptive = spec.spine_selection == "adaptive"
        return (1, down, 2 * n // k, spines, cpp, spines * cpp,
                int(adaptive))
    return (2, 0, 0, 0, 0, 0, 0)


class FastEngine:
    """One compiled run-engine for a pristine :class:`NetworkModel`.

    The constant tables come from :func:`compile_spec`, shared and
    read-only; every run gets its own state block, state arrays and
    :class:`~repro.ckernel.FastState`.
    """

    def __init__(self, network, telemetry=None):
        self._lib = ckernel.load_kernel()
        self.telemetry = telemetry
        self.network = network
        compiled = compile_spec(network.spec)
        #: The spec's constant tables (read-only, shared by every run).
        self.tables = tables = compiled.tables
        self.st = st = ckernel.FastState()
        for name, value in compiled.scalars:
            setattr(st, name, value)
        self.R, self.P, self.V = st.R, st.P, st.V
        self.CAP, self.T, self.PV = st.CAP, st.T, st.PV
        for name, address in compiled.addresses:
            setattr(st, name, address)
        # The kernel advances exactly the buffers _finish and the
        # telemetry bridge read back; only the bridge reads `aux`.
        block = np.zeros(compiled.words, dtype=np.int64)
        base = block.ctypes.data
        attrs = self.__dict__
        aux = self.aux = {}
        for name, offset, span, length, dtype, initial, in_aux in (
            compiled.layout
        ):
            array = block[offset:offset + span].view(dtype)[:length]
            if isinstance(initial, str):
                array[:] = tables[initial]
            elif initial:
                array.fill(initial)
            (aux if in_aux else attrs)[name] = array
            setattr(st, name, base + 8 * offset)
        self._block = block  # the state block's pointers index it
        st.tel = 0 if telemetry is None else 1
        st.tel_interval = 1 if telemetry is None else telemetry.sample_interval
        for name, _ in self._STORE:
            setattr(self, name, np.zeros(0, dtype=np.int64))
        self._point_store()

    # ------------------------------------------------------------------
    # Run counters live in the kernel's state block
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> int:
        return self.st.cycle

    @property
    def inflight(self) -> int:
        return self.st.inflight

    @property
    def delivered_total(self) -> int:
        return self.st.delivered_total

    #: Packet-store arrays (one row per packet) and a fresh row's value.
    _STORE = (
        ("pk_src", 0), ("pk_dst", 0), ("pk_size", 0), ("pk_create", 0),
        ("pk_inject", -1), ("pk_arrive", -1), ("pend_next", -1),
        ("log_term", 0), ("log_pidx", 0),
    )

    def append(self, src, dst, size, create, base: int = 0) -> None:
        """Append packet rows; row ``i`` is packet id ``base + i``.

        Each row is also the offer event that creates the packet: it is
        offered at cycle ``create`` from terminal ``src``. Rows come
        sorted by cycle and none before the clock.
        """
        st = self.st
        n, k = st.n_ev, len(src)
        if n + k > self.pk_dst.size:
            self._grow(n + k)
        self.pk_src[n:n + k] = src
        self.pk_dst[n:n + k] = dst
        self.pk_size[n:n + k] = size
        self.pk_create[n:n + k] = create
        st.n_ev = n + k
        st.base = base

    def _point_store(self) -> None:
        """Point the state block at the packet store (it must outlive
        the block)."""
        for field, name in (
            ("pk_dst", "pk_dst"), ("pk_size", "pk_size"),
            ("pk_inject", "pk_inject"), ("pk_arrive", "pk_arrive"),
            ("ev_when", "pk_create"), ("ev_term", "pk_src"),
            ("pend_next", "pend_next"), ("log_term", "log_term"),
            ("log_pidx", "log_pidx"),
        ):
            setattr(self.st, field, getattr(self, name).ctypes.data)

    def _c_run(self, limit: int, drain: bool = False) -> int:
        """The run contract (``fast_run`` in :mod:`repro.ckernel`):
        offer due rows and step to the absolute cycle ``limit``, or,
        with ``drain``, until every row is offered and nothing is in
        flight (returns 1)."""
        rc = self._lib.fast_run(self.st, drain, limit)
        if rc >= 0:
            return rc
        err = self.st.err_a
        if rc == -1:
            raise AssertionError(
                f"router {err // self.P} port {err % self.P}: buffer overflow "
                "(credit protocol violated)"
            )
        if rc == -2:
            raise AssertionError("body flit reached an idle VC front")
        if rc == -3:
            raise AssertionError(f"route function returned invalid port {err}")
        if rc == -4:
            raise AssertionError(f"output port {err % self.P} is not wired")
        raise RuntimeError(f"netsim C kernel internal error {rc}")

    # ------------------------------------------------------------------
    # Run drivers: the packet rows are appended, then one _c_run per
    # phase (Bernoulli), per replay or per epoch
    # ------------------------------------------------------------------

    def _c_run_bernoulli(self, stats: RunStats, drain_cycles: int) -> RunStats:
        """``Simulator.run``'s three phases, telemetry windows included.

        ``stats`` comes with its window and offer counts set.
        """
        tel = self.telemetry
        if tel is not None:
            tel.attach(self.network)
            self._tel_window(tel, "warmup")
        self._c_run(stats.measure_start)
        if tel is not None:
            self._tel_window(tel, "measurement")
        delivered_before = self.delivered_total
        self._c_run(stats.measure_end)
        stats.flits_delivered = self.delivered_total - delivered_before
        if tel is not None:
            self._tel_window(tel, "drain")
        self._c_run(stats.measure_end + drain_cycles, drain=True)
        self._finish(stats)
        if tel is not None:
            self._tel_finish(tel)
        return stats

    def run_replay(self, limit: int, packet_ids) -> RunStats:
        """``replay_trace``'s run, telemetry included: drain the rows,
        capped at cycle ``limit``.

        Rows were appended with ``base = packet_ids.next``; the source
        is left after the last *offered* row — under truncation that is
        short of the schedule's end, exactly where the scalar run
        leaves it. A telemetry sink sees one ``replay`` window.
        """
        tel = self.telemetry
        if tel is not None:
            tel.attach(self.network)
            self._tel_window(tel, "replay")
        self._c_run(limit, drain=True)
        offered = self.st.ev_index
        packet_ids.take(offered)
        stats = RunStats(
            measure_start=0, measure_end=self.cycle, n_terminals=self.T
        )
        stats.packets_created = offered
        stats.flits_offered = int(self.pk_size[:offered].sum())
        self._finish(stats, window_filter=False)
        if tel is not None:
            self._tel_finish(tel)
        return stats

    def run_epoch(self, to_cycle: int):
        """Advance to ``to_cycle``; return the deliveries since the last
        call as ``(terminal, packet id)`` arrays in arrival order."""
        self._c_run(to_cycle)
        count = self.st.log_count
        terms = self.log_term[:count].copy()
        pids = self.log_pidx[:count].copy()
        self.st.log_count = 0
        return terms, pids

    def _grow(self, need: int) -> None:
        capacity = max(256, 2 * self.pk_dst.size, need)
        for name, fill in self._STORE:
            old = getattr(self, name)
            grown = np.full(capacity, fill, dtype=np.int64)
            grown[:old.size] = old
            setattr(self, name, grown)
        self._point_store()

    # ------------------------------------------------------------------
    # Telemetry bridging (kernel counters -> Telemetry machinery)
    # ------------------------------------------------------------------

    def _tel_boundary(self, tel) -> None:
        """Sync the kernel's telemetry counters into the sink's views.

        Called at every window boundary *before* ``begin_window`` /
        ``finish``, so the standard snapshot/delta machinery in
        :mod:`repro.netsim.telemetry` sees exactly the state the scalar
        engine's live counters would hold at that cycle.
        """
        st, aux = self.st, self.aux
        P, V = self.P, self.V
        sa_requests = aux["tel_sa_requests"]
        channel_load = aux["tel_channel_load"]
        credit_stall = aux["tel_credit_stall"]
        vc_grants = aux["tel_vc_grants"]
        occ_sum = aux["tel_occ_sum"]
        occ_peak = aux["tel_occ_peak"]
        vc_occ_sum = aux["tel_vc_occ_sum"]
        samples = st.tel_samples
        for ri, view in enumerate(tel._routers):
            g0, g1 = ri * P, (ri + 1) * P
            v0, v1 = ri * V, (ri + 1) * V
            view.sa_requests = sa_requests[g0:g1].tolist()
            view.channel_load = channel_load[g0:g1].tolist()
            view.credit_stall_cycles = credit_stall[g0:g1].tolist()
            view.vc_grants = vc_grants[v0:v1].tolist()
            view.va_grants = int(aux["tel_va_grants"][ri])
            view.va_stalls = int(aux["tel_va_stalls"][ri])
            view.rc_wait_cycles = int(aux["tel_rc_wait"][ri])
            view.occ_sum = occ_sum[g0:g1].tolist()
            view.occ_peak = occ_peak[g0:g1].tolist()
            view.vc_occ_sum = vc_occ_sum[v0:v1].tolist()
            view.samples = samples
        tel.terminal_credit_stalls = aux["tel_term_stall"].tolist()
        tel._backlog_sum = st.tel_backlog_sum
        tel._backlog_peak = st.tel_backlog_peak
        tel._backlog_samples = st.tel_backlog_samples
        tel.terminal_totals = {
            "flits_sent": int(self.tsent.sum()),
            "flits_received": int(self.trecv.sum()),
            "packets_sent": int(self.tpsent.sum()),
            "packets_received": int(st.log_count),
        }

    def _tel_window(self, tel, name: str) -> None:
        """Close the open window and begin ``name`` at the kernel's clock.

        The sink closes the old window on the synced counters, then the
        kernel's sampled accumulators restart from zero, as the scalar
        views' ``reset_sampled`` does.
        """
        self._tel_boundary(tel)
        st = self.st
        tel.begin_window(name, st.cycle)
        for key in ("tel_occ_sum", "tel_occ_peak", "tel_vc_occ_sum"):
            self.aux[key][:] = 0
        st.tel_samples = 0
        st.tel_backlog_sum = 0
        st.tel_backlog_peak = 0
        st.tel_backlog_samples = 0

    def _tel_finish(self, tel) -> None:
        """Close the last window once :meth:`_finish` has set the clock."""
        self._tel_boundary(tel)
        self._tel_histograms(tel)
        tel.finish(self.st.cycle)

    def _tel_histograms(self, tel) -> None:
        """Replay the delivery log into the window latency histograms.

        The scalar engine records each packet at tail arrival; window
        resolution keys on the packet's *creation* cycle only, and the
        window containing that cycle already exists by arrival time, so
        replaying deliveries post-run lands every packet in the same
        window (histogram insertion is commutative).
        """
        windows = tel._windows
        idx = self.log_pidx[:self.st.log_count]
        if not windows or not idx.size:
            return
        create = self.pk_create[idx]
        latency = self.pk_arrive[idx] - create
        # Window starts are non-decreasing (begin_window takes monotone
        # cycles), so searchsorted reproduces _window_for_creation —
        # including its clamp of pre-first-window creations to window 0.
        starts = np.array([w.start for w in windows], dtype=np.int64)
        which = np.searchsorted(starts, create, side="right") - 1
        which = np.maximum(which, 0)
        for w_index, window in enumerate(windows):
            mask = which == w_index
            if not mask.any():
                continue
            lat = latency[mask]
            window.histogram.add_many(lat)
            if window.flows is not None:
                src = self.pk_src[idx[mask]].tolist()
                dst = self.pk_dst[idx[mask]].tolist()
                for s, d, one in zip(src, dst, lat.tolist()):
                    key = f"{s}->{d}"
                    histogram = window.flows.get(key)
                    if histogram is None:
                        histogram = window.flows[key] = LatencyHistogram()
                    histogram.add(one)

    # ------------------------------------------------------------------
    # Finalization: the run's stats and end state
    # ------------------------------------------------------------------

    def _finish(self, stats: RunStats, window_filter: bool = True) -> None:
        """Fill ``stats`` from the arrays; the network gets only the clock."""
        dterm = self.log_term[:self.st.log_count]
        # Terminal-major, arrival order within a terminal: the order the
        # scalar engine's per-terminal ``packets_received`` lists give.
        # The narrowest dtype that holds a terminal id lets numpy's
        # stable sort take its linear-time radix path (8/16-bit ids).
        order = np.argsort(
            dterm.astype(np.min_scalar_type(self.T - 1)), kind="stable"
        )
        idx = self.log_pidx[:dterm.size][order]
        create = self.pk_create[idx]
        lat = self.pk_arrive[idx] - create
        if window_filter:
            lat = lat[(create >= stats.measure_start)
                      & (create < stats.measure_end)]
        else:
            stats.flits_delivered = int(self.pk_size[idx].sum())
        stats.latencies_cycles.extend(lat.tolist())
        forwarded = self.fwd_g.reshape(self.R, self.P).sum(axis=1)
        stats.final = RunEnd(
            in_flight_flits=int(self.inflight),
            flits_sent=tuple(self.tsent.tolist()),
            packets_sent=tuple(self.tpsent.tolist()),
            flits_received=tuple(self.trecv.tolist()),
            packets_received=tuple(
                np.bincount(dterm, minlength=self.T).tolist()
            ),
            flits_forwarded=tuple(forwarded.tolist()),
        )
        self.network.cycle = self.cycle
