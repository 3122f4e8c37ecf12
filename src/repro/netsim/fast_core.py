"""Vectorized netsim engine: struct-of-arrays state, compiled step kernel.

The object simulator in :mod:`repro.netsim.router` /
:mod:`repro.netsim.network` is cycle-accurate but interpreter-bound:
every router pipeline stage is a Python loop over per-object state.
:class:`FastEngine` compiles a pristine network into flat numpy
struct-of-arrays and hands them to the C kernel in
:mod:`repro.ckernel`, which runs the *same* cycle semantics
with no Python per cycle:

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
:func:`engine_for` declines (no C toolchain, an unsupported shape). A
run hands its end state back on :attr:`RunStats.final
<repro.netsim.stats.RunStats.final>`; of the network it compiled from,
the engine advances only ``network.cycle``.

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

from typing import Optional

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


class _Incompatible(Exception):
    """Network shape the vectorized engine does not support."""


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
    """Compile a vectorized engine for ``network``, or ``None``.

    ``engine`` is a :data:`repro.engines.NETSIM_ENGINES` name, resolved
    once here (callers that resolved already may pass the concrete
    value through — resolution is idempotent). ``None`` falls back to
    the scalar object simulator: whatever :func:`engine_tag` sends
    there (a ``"scalar"`` resolution, no C toolchain on this host,
    more than 63 VCs), an un-tagged route function (no
    ``route_spec``), a network that is not pristine (its clock off 0 or
    flits in flight) or that carries a sink other than ``telemetry``,
    or a non-uniform radix/VC/buffer config all decline rather than
    risk divergence.
    """
    routers = network.routers
    if (
        getattr(network, "route_spec", None) is None
        or not routers
        or engine_tag(engine, routers[0].num_vcs) == "scalar"
    ):
        return None
    try:
        return FastEngine(network, telemetry)
    except _Incompatible:
        return None


class FastEngine:
    """One compiled run-engine for a pristine :class:`NetworkModel`."""

    def __init__(self, network, telemetry=None):
        self._lib = ckernel.load_kernel()
        if network.telemetry is not None and network.telemetry is not telemetry:
            raise _Incompatible("another telemetry sink is already attached")
        if network.cycle != 0 or network.in_flight_flits() != 0:
            raise _Incompatible("network is not pristine")
        routers = network.routers
        terminals = network.terminals
        if not routers or not terminals:
            raise _Incompatible("empty network")
        P = routers[0].n_ports
        V = routers[0].num_vcs
        CAP = routers[0].buffer_cap
        for r in routers:
            if r.n_ports != P or r.num_vcs != V or r.buffer_cap != CAP:
                raise _Incompatible("non-uniform router shapes")
            if r.rc_pending or r.active_out_ports:
                raise _Incompatible("router has in-flight state")
        self.telemetry = telemetry

        self.network = network
        self.R = R = len(routers)
        self.P = P
        self.V = V
        self.CAP = CAP
        self.T = T = len(terminals)
        self.PV = PV = P * V
        RP = R * P
        RPV = R * PV

        # --- per-input-VC (row) state ------------------------------
        self.qbuf = np.zeros(RPV * CAP, dtype=np.int64)
        self.qhead = np.zeros(RPV, dtype=np.int64)
        self.qlen = np.zeros(RPV, dtype=np.int64)
        self.state = np.zeros(RPV, dtype=np.int8)
        self.rc_out = np.full(RPV, -1, dtype=np.int64)
        self.rc_ovc = np.full(RPV, -1, dtype=np.int64)
        self.gout = np.full(RPV, -1, dtype=np.int64)

        # --- per-port (g = router*P + port) state ------------------
        self.occ = np.zeros(RP, dtype=np.int64)
        self.ocred = np.zeros(RP, dtype=np.int64)
        self.oterm = np.zeros(RP, dtype=bool)
        self.ovc_mask = np.zeros(RP, dtype=np.int64)
        self.vc_ptr = np.zeros(RP, dtype=np.int64)
        self.sa_ptr = np.zeros(RP, dtype=np.int64)
        self.fwd_g = np.zeros(RP, dtype=np.int64)
        self.rc_delay = np.zeros(RP, dtype=np.int64)
        # SA-respawned heads are seen by VA one cycle later at minimum.
        self.rc_delay_respawn = np.zeros(RP, dtype=np.int64)
        self.send_cls = np.full(RP, -1, dtype=np.int64)
        self.send_dest = np.full(RP, -1, dtype=np.int64)
        self.cred_cls = np.full(RP, -1, dtype=np.int64)
        self.cred_dest = np.full(RP, -1, dtype=np.int64)

        # --- terminals ---------------------------------------------
        self.tcred = np.zeros(T, dtype=np.int64)
        self.tvc = np.zeros(T, dtype=np.int64)
        self.tsent = np.zeros(T, dtype=np.int64)
        self.tpsent = np.zeros(T, dtype=np.int64)
        self.trecv = np.zeros(T, dtype=np.int64)
        self.tbacklog = np.zeros(T, dtype=np.int64)
        self.cur_pid = np.full(T, -1, dtype=np.int64)
        self.cur_idx = np.zeros(T, dtype=np.int64)
        self.inj_cls = np.full(T, -1, dtype=np.int64)
        self.inj_dest = np.full(T, -1, dtype=np.int64)

        # --- transport delay classes -------------------------------
        # kind: 'rf' flit->router, 'tf' flit->terminal, 'inj' inject
        # flit->router, 'rc' credit->router, 'tc' credit->terminal.
        self._cls_kind = []
        self._cls_delay = []
        self._cls_index = {}

        self._compile(network)
        self._c_build()
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

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _class(self, kind: str, delay: int) -> int:
        key = (kind, delay)
        ci = self._cls_index.get(key)
        if ci is None:
            ci = len(self._cls_kind)
            self._cls_index[key] = ci
            self._cls_kind.append(kind)
            self._cls_delay.append(delay)
        return ci

    def _compile(self, network) -> None:
        routers = network.routers
        terminals = network.terminals
        P = self.P
        router_index = {id(r): i for i, r in enumerate(routers)}
        term_index = {id(t): i for i, t in enumerate(terminals)}
        link_map = {
            id(link): (kind, sink, port)
            for link, kind, sink, port in network.links
        }
        credit_router = {
            id(channel): router_index[id(router)] * P + port
            for channel, router, port in network._credit_sinks
        }
        term_credit = {
            id(t.credit_channel): i
            for i, t in enumerate(terminals)
            if t.credit_channel is not None
        }

        for ri, router in enumerate(routers):
            for p in range(P):
                g = ri * P + p
                self.ocred[g] = router.out_credits[p]
                self.oterm[g] = router.out_is_terminal[p]
                self.vc_ptr[g] = router._vc_arbiters[p]._pointer
                self.sa_ptr[g] = router._sa_arbiters[p]._pointer
                d = (
                    router.ingress_routing_delay
                    if p in router.terminal_in_ports
                    else router.routing_delay
                )
                self.rc_delay[g] = d
                self.rc_delay_respawn[g] = max(d, 1)
                link = router.out_link[p]
                if link is not None:
                    entry = link_map.get(id(link))
                    if entry is None:
                        raise _Incompatible("unregistered link")
                    kind, sink, port = entry
                    delay = link.latency + router.pipeline_delay
                    if kind == "router":
                        self.send_cls[g] = self._class("rf", delay)
                        self.send_dest[g] = router_index[id(sink)] * P + port
                    else:
                        self.send_cls[g] = self._class("tf", delay)
                        self.send_dest[g] = term_index[id(sink)]
                channel = router.in_credit_channel[p]
                if channel is not None:
                    dest = credit_router.get(id(channel))
                    if dest is not None:
                        self.cred_cls[g] = self._class("rc", channel.latency)
                        self.cred_dest[g] = dest
                    else:
                        t = term_credit.get(id(channel))
                        if t is None:
                            raise _Incompatible("unregistered credit channel")
                        self.cred_cls[g] = self._class("tc", channel.latency)
                        self.cred_dest[g] = t

        for ti, terminal in enumerate(terminals):
            link = terminal.inject_link
            if link is None:
                raise _Incompatible("unattached terminal")
            kind, sink, port = link_map[id(link)]
            if kind != "router":
                raise _Incompatible("inject link must feed a router")
            self.inj_cls[ti] = self._class("inj", link.latency)
            self.inj_dest[ti] = router_index[id(sink)] * P + port
            self.tcred[ti] = terminal.credits
            self.tvc[ti] = terminal._next_vc

    def _route_params(self):
        """``(route_kind, rp0..rp5)`` for the kernel's ``route_port``."""
        kind, params = self.network.route_spec
        if kind == "mesh":
            return (0, params["terminals_per_router"],
                    params["neighbor_channels"], params["cols"], 0, 0, 0)
        if kind == "clos":
            n = params["n_terminals"]
            k = params["ssc_radix"]
            down = k // 2
            spines = n // k
            cpp = down // spines
            adaptive = params["spine_selection"] == "adaptive"
            return (1, down, 2 * n // k, spines, cpp, spines * cpp,
                    int(adaptive))
        if kind == "single":
            return (2, 0, 0, 0, 0, 0, 0)
        raise _Incompatible(f"unknown route spec {kind!r}")

    # ------------------------------------------------------------------
    # Kernel state block
    # ------------------------------------------------------------------

    def _point(self, **arrays) -> None:
        """Point state-block fields at ``arrays`` (which must outlive it)."""
        st = self.st
        for name, arr in arrays.items():
            setattr(st, name, arr.ctypes.data)

    def _c_build(self) -> None:
        """Build the kernel's state block over this engine's arrays.

        The core SoA arrays are shared by pointer, so the kernel
        advances exactly the buffers :meth:`_finish` reads its counters
        from afterwards. Kernel-run-local structures (delay-class rings,
        RC buckets, VA stalls, pending FIFOs, SA bitmasks, telemetry
        counters) live in :attr:`aux`; only the telemetry bridge reads
        them back.
        """
        R, P, V, CAP, PV, T = self.R, self.P, self.V, self.CAP, self.PV, self.T
        RP, RPV = R * P, R * PV
        PVW = (PV + 63) // 64
        PW = (P + 63) // 64
        self.st = st = ckernel.FastState()
        st.R, st.P, st.V, st.CAP, st.PV, st.PVW, st.PW = R, P, V, CAP, PV, PVW, PW
        st.T, st.RP, st.RPV = T, RP, RPV
        st.full_mask = (1 << V) - 1
        st.shift = _SHIFT
        st.idx_mask = _IDX_MASK
        st.st_idle, st.st_route, st.st_active = IDLE, ROUTE, ACTIVE
        (st.route_kind, st.rp0, st.rp1, st.rp2, st.rp3, st.rp4,
         st.rp5) = self._route_params()
        self._point(
            qbuf=self.qbuf, qhead=self.qhead, qlen=self.qlen,
            state=self.state, rc_out=self.rc_out, rc_ovc=self.rc_ovc,
            gout=self.gout, occ=self.occ, ocred=self.ocred,
            oterm=self.oterm, ovc_mask=self.ovc_mask, vc_ptr=self.vc_ptr,
            sa_ptr=self.sa_ptr, fwd_g=self.fwd_g, rc_delay=self.rc_delay,
            rc_delay_respawn=self.rc_delay_respawn,
            send_cls=self.send_cls, send_dest=self.send_dest,
            cred_cls=self.cred_cls, cred_dest=self.cred_dest,
            tcred=self.tcred, tvc=self.tvc, tsent=self.tsent,
            tpsent=self.tpsent, trecv=self.trecv, tbacklog=self.tbacklog,
            cur_pid=self.cur_pid, cur_idx=self.cur_idx,
            inj_cls=self.inj_cls, inj_dest=self.inj_dest,
        )

        # Delay-class rings, sized so a class can hold every in-flight
        # entry: each source port/terminal sends at most one entry per
        # cycle and entries live `delay` cycles.
        n_cls = len(self._cls_kind)
        caps = np.zeros(n_cls, dtype=np.int64)
        for ci, (cls_kind, delay) in enumerate(
            zip(self._cls_kind, self._cls_delay)
        ):
            if cls_kind in ("rf", "tf"):
                cnt = int(np.count_nonzero(self.send_cls == ci))
            elif cls_kind == "inj":
                cnt = int(np.count_nonzero(self.inj_cls == ci))
            else:
                cnt = int(np.count_nonzero(self.cred_cls == ci))
            caps[ci] = (delay + 2) * max(cnt, 1)
        offs = np.concatenate(([0], np.cumsum(caps)[:-1])).astype(np.int64)
        ring = max(int(caps.sum()), 1)
        W = int(max(self.rc_delay.max(), self.rc_delay_respawn.max())) + 1
        st.n_cls, st.W = n_cls, W
        st.RPVW = (RPV + 63) // 64
        sizes = {"R": R, "RP": RP, "RV": R * V, "T": T}
        aux = self.aux = {
            "cls_kind": np.array(
                [_C_KIND[k] for k in self._cls_kind], dtype=np.int64
            ),
            "cls_delay": np.array(self._cls_delay, dtype=np.int64),
            "cls_off": offs,
            "cls_cap": caps,
            "cls_head": np.zeros(n_cls, dtype=np.int64),
            "cls_tail": np.zeros(n_cls, dtype=np.int64),
            "cls_hidx": np.zeros(n_cls, dtype=np.int64),
            "cls_tidx": np.zeros(n_cls, dtype=np.int64),
            "ring_cycle": np.zeros(ring, dtype=np.int64),
            "ring_dest": np.zeros(ring, dtype=np.int64),
            "ring_code": np.zeros(ring, dtype=np.int64),
            "ring_vc": np.zeros(ring, dtype=np.int64),
            "pv_port": np.arange(PV, dtype=np.int64) // V,
            "g_r": np.arange(RP, dtype=np.int64) // P,
            "g_p": np.arange(RP, dtype=np.int64) % P,
            "row_r": np.arange(RPV, dtype=np.int64) // PV,
            "bk_rows": np.zeros(W * RPV, dtype=np.int64),
            "bk_cnt": np.zeros(W, dtype=np.int64),
            "stall_rows": np.zeros(RPV, dtype=np.int64),
            "va_mask": np.zeros(st.RPVW, dtype=np.uint64),
            "cand": np.zeros(RP * PVW, dtype=np.uint64),
            "aop": np.zeros(R * PW, dtype=np.uint64),
            "cg_stamp": np.full(RP, -1, dtype=np.int64),
            "pend_head": np.full(T, -1, dtype=np.int64),
            "pend_tail": np.full(T, -1, dtype=np.int64),
        }
        for name, size in _TEL_ARRAYS:
            aux[name] = np.zeros(sizes[size], dtype=np.int64)
        self._point(**aux)
        tel = self.telemetry
        st.tel = 0 if tel is None else 1
        st.tel_interval = 1 if tel is None else tel.sample_interval

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
        self._point(
            pk_dst=self.pk_dst, pk_size=self.pk_size,
            pk_inject=self.pk_inject, pk_arrive=self.pk_arrive,
            ev_when=self.pk_create, ev_term=self.pk_src,
            pend_next=self.pend_next, log_term=self.log_term,
            log_pidx=self.log_pidx,
        )

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
        order = np.argsort(dterm, kind="stable")
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
