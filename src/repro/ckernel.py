"""The repo's one compiled kernel: the netsim step and the mapping sweep.

Both kernels are one C source, built into one shared object by one
loader (:func:`load_kernel`). The module sits below :mod:`repro.netsim`
and :mod:`repro.mapping` and imports neither, so the analytical layers
load the shared object without depending on the simulator (their
source fingerprints cover this file, not the netsim package).

:mod:`repro.netsim.fast_core` keeps every router, port, VC and
terminal of a network in numpy struct-of-arrays. This module compiles
the cycle semantics of the scalar object engine into a small C kernel
that walks *those same* buffers in place, so no Python runs per cycle:
Python calls into C once per run phase (warmup / measure / drain,
a whole trace replay, or one partition epoch).

The same source carries the mapping kernel (``map_load`` and
``map_sweep`` on a :class:`MapState`): one pass of the paper's
Algorithm 1 per call, driven by :mod:`repro.mapping.fast_exchange` and
held to the scalar oracle in :mod:`repro.mapping.exchange`. It also
steps every DCN flow wafer of an epoch in one ``flow_advance`` call
(:class:`repro.dcn.flow.FlowWafers`, oracle ``FlowWaferNode``) and
draws uniform traffic, ``elephant_mouse`` mice and the Bernoulli hits
of deterministic patterns with CPython's MT19937
(:func:`draw_uniform`).

Design constraints:

* **No new dependencies.** The kernel is built with the system C
  compiler and loaded with stdlib :mod:`ctypes` (a plain shared object,
  no Python extension). When no toolchain exists, :func:`load_kernel`
  returns ``None``, :func:`repro.netsim.fast_core.engine_for` declines,
  and the run goes to the scalar object simulator — the oracle the
  kernel is held bit-identical to. The mapping optimizer likewise
  runs its scalar oracle.
* **One struct declaration.** :class:`FastState`'s and
  :class:`MapState`'s ``_fields_`` are the only description of each
  state block; the C ``typedef`` is generated from them, so the two
  cannot drift. Pointer fields are ``c_void_p`` subclasses set
  straight from ``ndarray.ctypes.data``, which keeps per-run set-up
  to attribute stores.
* **Bit parity.** The C step is a transliteration of the scalar object
  engine's cycle: deliver link flits, deliver credits, inject, then
  VC-allocate and switch-allocate per router in ascending order.
  Sequential C reproduces the object engine's iteration order
  directly — no batched tie-breaking tricks are needed.
* **Shared state.** All SoA arrays are numpy buffers owned by
  ``FastEngine``; C mutates them through raw pointers, so
  finalization (the run's stats and end state; of the object model
  only the clock moves) is engine code reading the arrays directly.
  Output-port and candidate sets are bitmask words (``ceil(P/64)``
  and ``ceil(P*V/64)`` per port group), so any port count runs.

One run contract (``fast_run(s, drain, limit)``): offer every packet
row due by the clock, step, and stop when the clock reaches ``limit``
or, with ``drain``, once every row is offered and nothing is in flight.
Idle stretches are jumped to the next row's cycle unless a telemetry
sink samples them. A Bernoulli phase, a drain, a whole trace replay and
a partition epoch are each one call with an absolute ``limit``; the
scalar twin is :func:`repro.netsim.network.advance`.

The compiled object is cached under ``_cc_cache/`` next to this file,
keyed by a hash of the C source, so the toolchain runs once per source
revision, not once per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional


class _I64Ptr(ctypes.c_void_p):
    c_decl = "int64_t *"


class _U64Ptr(ctypes.c_void_p):
    c_decl = "uint64_t *"


class _I8Ptr(ctypes.c_void_p):
    c_decl = "int8_t *"


_I64 = ctypes.c_int64


def _fields(ctype, names: str):
    return [(name, ctype) for name in names.split()]


#: The most VCs a port can have: ``ovc_mask`` is one int64 per port.
MAX_VCS = 63


class FastState(ctypes.Structure):
    """The kernel's state block; pointer fields index engine arrays."""

    _fields_ = (
        # shape + constants (PW/PVW/RPVW: 64-bit words per bitmask)
        _fields(_I64, "R P V CAP PV PVW PW T RP RPV W RPVW")
        + _fields(_I64, "full_mask base shift idx_mask")
        + _fields(_I64, "st_idle st_route st_active")
        # per-input-VC rows
        + _fields(_I64Ptr, "qbuf qhead qlen")
        + _fields(_I8Ptr, "state")
        + _fields(_I64Ptr, "rc_out rc_ovc gout")
        # per-port groups (g = router*P + port)
        + _fields(_I64Ptr, "occ ocred")
        + _fields(_I8Ptr, "oterm")
        + _fields(_I64Ptr, "ovc_mask vc_ptr sa_ptr fwd_g")
        + _fields(_I64Ptr, "rc_delay rc_delay_respawn")
        + _fields(_I64Ptr, "send_cls send_dest cred_cls cred_dest")
        # terminals
        + _fields(_I64Ptr, "tcred tvc tsent tpsent trecv tbacklog")
        + _fields(_I64Ptr, "cur_pid cur_idx inj_cls inj_dest")
        # packet store, indexed by pidx = packet_id - base; packet i
        # is offer event i (ev_when = create cycle, ev_term = source)
        + _fields(_I64Ptr, "pk_dst pk_size pk_inject pk_arrive")
        + _fields(_I64, "n_ev ev_index")
        + _fields(_I64Ptr, "ev_when ev_term")
        # per-terminal pending-packet FIFO (linked by event index)
        + _fields(_I64Ptr, "pend_next pend_head pend_tail")
        # delivery log (terminal, pidx) in arrival order
        + _fields(_I64Ptr, "log_term log_pidx")
        + _fields(_I64, "log_count")
        # routing: kind 0 mesh, 1 clos, 2 single; rp* its parameters
        + _fields(_I64, "route_kind rp0 rp1 rp2 rp3 rp4 rp5")
        # transport delay-class rings; kind 0 rf, 1 tf, 2 inj, 3 rc, 4 tc
        + _fields(_I64, "n_cls")
        + _fields(_I64Ptr, "cls_kind cls_delay cls_off cls_cap")
        + _fields(_I64Ptr, "cls_head cls_tail cls_hidx cls_tidx")
        + _fields(_I64Ptr, "ring_cycle ring_dest ring_code ring_vc")
        # division-free lookups: pv -> port, g -> router/port, row -> router
        + _fields(_I64Ptr, "pv_port g_r g_p row_r")
        # RC completion buckets (ring of W slots, RPV rows each), VA
        # stalls, and the rows pending VA this cycle
        + _fields(_I64Ptr, "bk_rows bk_cnt stall_rows")
        + _fields(_I64, "stall_cnt")
        + _fields(_U64Ptr, "va_mask")
        # SA: candidate (RP*PVW) and active-out-port (R*PW) bitmasks,
        # and the cycle an input port last won SA (RP)
        + _fields(_U64Ptr, "cand aop")
        + _fields(_I64Ptr, "cg_stamp")
        # run counters
        + _fields(_I64, "cycle inflight delivered_total n_active")
        + _fields(_I64, "total_backlog")
        # telemetry (tel == 0: every instrumentation branch is skipped)
        + _fields(_I64, "tel tel_interval")
        + _fields(_I64Ptr, "tel_rc_wait tel_va_grants tel_va_stalls")
        + _fields(_I64Ptr, "tel_rc_waiting")
        + _fields(_I64, "tel_waiting_total")
        + _fields(_I64Ptr, "tel_credit_stall tel_sa_requests")
        + _fields(_I64Ptr, "tel_channel_load tel_vc_grants")
        + _fields(_I64Ptr, "tel_occ_sum tel_occ_peak tel_vc_occ_sum")
        + _fields(_I64, "tel_samples")
        + _fields(_I64, "tel_backlog_sum tel_backlog_peak tel_backlog_samples")
        + _fields(_I64Ptr, "tel_term_stall")
        # error detail
        + _fields(_I64, "err_a")
    )


class MapState(ctypes.Structure):
    """The mapping kernel's state block (Algorithm 1, see ``map_sweep``).

    Flat edge ids are h edges row-major (``r*(cols-1)+c``), then v
    edges (``eh + r*cols + c``): the ``h`` and ``v`` arrays of
    :class:`~repro.mapping.routing.EdgeLoads`, raveled and concatenated.
    """

    _fields_ = (
        _fields(_I64, "rows cols sites edges eh nodes hops")
        + _fields(_I64Ptr, "loads site_of node_at site_sig")
        # per-node links, CSR by node: the other end, its channels,
        # 1 where the node is the link's `a` end (routes run a -> b);
        # ext = external ports routed in from the boundary (0 unless
        # the I/O style is periphery)
        + _fields(_I64Ptr, "adj_off adj_other adj_ch adj_is_a ext")
        # scratch: an escalation pass's critical sites
        + _fields(_I64Ptr, "crit")
        # accepted swaps (site pairs) of one call, when rec_i is set
        + _fields(_I64Ptr, "rec_i rec_j")
    )


def _typedef(struct) -> str:
    lines = [
        f"    {getattr(ctype, 'c_decl', 'int64_t ')}{name};"
        for name, ctype in struct._fields_
    ]
    return (
        "typedef struct {\n" + "\n".join(lines) + f"\n}} {struct.__name__};\n"
    )


_C_SOURCE = (
    "#include <stdint.h>\n#include <stdlib.h>\n\n"
    + _typedef(FastState) + _typedef(MapState) + r"""
/* Error codes (negative); >= 0 is a normal span result. */
#define ERR_OVERFLOW   (-1)
#define ERR_IDLE_BODY  (-2)
#define ERR_BAD_ROUTE  (-3)
#define ERR_UNWIRED    (-4)
#define ERR_RING_FULL  (-5)

static inline int64_t ring_push(FastState *s, int64_t ci, int64_t now,
                                int64_t dest, int64_t code, int64_t vc) {
    if (s->cls_tail[ci] - s->cls_head[ci] >= s->cls_cap[ci])
        return ERR_RING_FULL;
    int64_t i = s->cls_off[ci] + s->cls_tidx[ci];
    if (++s->cls_tidx[ci] == s->cls_cap[ci]) s->cls_tidx[ci] = 0;
    s->ring_cycle[i] = now + s->cls_delay[ci];
    s->ring_dest[i] = dest;
    s->ring_code[i] = code;
    s->ring_vc[i] = vc;
    s->cls_tail[ci]++;
    return 0;
}

static inline void sched_rc(FastState *s, int64_t row, int64_t delay,
                            int64_t now) {
    int64_t slot = (now + delay) % s->W;
    s->bk_rows[slot * s->RPV + s->bk_cnt[slot]++] = row;
    if (s->tel) {            /* row joins the RC-waiting population */
        s->tel_rc_waiting[s->row_r[row]]++;
        s->tel_waiting_total++;
    }
}

static inline void cand_set(FastState *s, int64_t g, int64_t pv) {
    int64_t p = s->g_p[g];
    s->cand[g * s->PVW + (pv >> 6)] |= (uint64_t)1 << (pv & 63);
    s->aop[s->g_r[g] * s->PW + (p >> 6)] |= (uint64_t)1 << (p & 63);
}

static inline void cand_clear(FastState *s, int64_t g, int64_t pv) {
    s->cand[g * s->PVW + (pv >> 6)] &= ~((uint64_t)1 << (pv & 63));
    uint64_t any = 0;
    for (int64_t w = 0; w < s->PVW; w++) any |= s->cand[g * s->PVW + w];
    if (!any) {
        int64_t p = s->g_p[g];
        s->aop[s->g_r[g] * s->PW + (p >> 6)] &= ~((uint64_t)1 << (p & 63));
    }
}

static int64_t route_port(FastState *s, int64_t r, int64_t dst,
                          int64_t pid) {
    if (s->route_kind == 0) {            /* mesh: X-first XY */
        int64_t tpr = s->rp0, nc = s->rp1, cols = s->rp2;
        int64_t dst_router = dst / tpr;
        if (dst_router == r) return dst % tpr;
        int64_t my_c = r % cols, dst_c = dst_router % cols;
        int64_t direction;               /* 0=N, 1=E, 2=S, 3=W */
        if (my_c != dst_c) direction = dst_c > my_c ? 1 : 3;
        else direction = dst_router / cols > r / cols ? 2 : 0;
        return tpr + direction * nc + pid % nc;
    }
    if (s->route_kind == 1) {            /* clos */
        int64_t down = s->rp0, leaves = s->rp1, spines = s->rp2;
        int64_t cpp = s->rp3, n_up = s->rp4, adaptive = s->rp5;
        int64_t dst_leaf = dst / down;
        int64_t spine_out = dst_leaf * cpp + pid % cpp;
        if (r >= leaves) return spine_out;
        if (r == dst_leaf) return dst % down;
        if (adaptive) {                  /* first max = numpy argmax */
            int64_t best = 0, best_c = s->ocred[r * s->P + down];
            for (int64_t j = 1; j < n_up; j++) {
                int64_t c = s->ocred[r * s->P + down + j];
                if (c > best_c) { best_c = c; best = j; }
            }
            return down + best;
        }
        return down + (pid % spines) * cpp + (pid / spines) % cpp;
    }
    return dst;                          /* single router */
}

static int64_t recv_router(FastState *s, int64_t g, int64_t code,
                           int64_t vc, int64_t now) {
    if (++s->occ[g] > s->CAP) { s->err_a = g; return ERR_OVERFLOW; }
    int64_t row = g * s->V + vc;
    int64_t slot = s->qhead[row] + s->qlen[row];
    if (slot >= s->CAP) slot -= s->CAP;
    s->qbuf[row * s->CAP + slot] = code;
    if (s->qlen[row]++ == 0) {
        int8_t st = s->state[row];
        if (st == s->st_idle) {
            if (code & s->idx_mask) return ERR_IDLE_BODY;
            s->state[row] = (int8_t)s->st_route;
            sched_rc(s, row, s->rc_delay[g], now);
        } else if (st == s->st_active) {
            cand_set(s, s->gout[row], s->g_p[g] * s->V + vc);
        }
    }
    return 0;
}

static void recv_terminal(FastState *s, int64_t t, int64_t code,
                          int64_t now) {
    s->trecv[t]++;
    s->inflight--;
    s->delivered_total++;
    int64_t pidx = (code >> s->shift) - s->base;
    if ((code & s->idx_mask) == s->pk_size[pidx] - 1) {
        s->pk_arrive[pidx] = now;
        s->log_term[s->log_count] = t;
        s->log_pidx[s->log_count] = pidx;
        s->log_count++;
    }
}

static int64_t inject(FastState *s, int64_t now) {
    for (int64_t t = 0; t < s->T; t++) {
        if (s->tbacklog[t] <= 0) continue;
        if (s->tcred[t] <= 0) {
            if (s->tel) s->tel_term_stall[t]++;
            continue;
        }
        int64_t pidx = s->cur_pid[t];
        int64_t idx = s->cur_idx[t];
        if (idx == 0) {
            s->tvc[t] = s->tvc[t] + 1 >= s->V ? 0 : s->tvc[t] + 1;
            s->pk_inject[pidx] = now;
        }
        s->tcred[t]--;
        s->tsent[t]++;
        s->tbacklog[t]--;
        s->total_backlog--;
        int64_t code = ((s->base + pidx) << s->shift) | idx;
        int64_t rc = ring_push(s, s->inj_cls[t], now, s->inj_dest[t],
                               code, s->tvc[t]);
        if (rc) return rc;
        s->cur_idx[t] = idx + 1;
        if (idx == s->pk_size[pidx] - 1) {
            s->tpsent[t]++;
            int64_t head = s->pend_head[t];
            if (head >= 0) {
                s->cur_pid[t] = head;
                s->cur_idx[t] = 0;
                s->pend_head[t] = s->pend_next[head];
                if (s->pend_head[t] < 0) s->pend_tail[t] = -1;
            } else {
                s->cur_pid[t] = -1;
            }
        }
    }
    return 0;
}

static int64_t vc_allocate(FastState *s, int64_t now) {
    /* Merge this cycle's RC completions with VA-stalled heads into a
       row bitmask and walk its set bits — ascending row order for
       free: the object engine's sorted(rc_pending) loop. */
    int64_t slot = now % s->W;
    int64_t nb = s->bk_cnt[slot];
    if (s->tel) {
        /* Rows popped this cycle leave the waiting population before
           the per-cycle wait attribution: a row scheduled with delay d
           at receive time accrues exactly d wait cycles (d-1 for the
           post-SA respawn, which is scheduled after this point of the
           cycle) — the scalar engine's `now < rc_ready` count. */
        for (int64_t i = 0; i < nb; i++)
            s->tel_rc_waiting[s->row_r[s->bk_rows[slot * s->RPV + i]]]--;
        s->tel_waiting_total -= nb;
        if (s->tel_waiting_total)
            for (int64_t r = 0; r < s->R; r++)
                s->tel_rc_wait[r] += s->tel_rc_waiting[r];
    }
    if (s->stall_cnt + nb == 0) return 0;
    for (int64_t i = 0; i < s->stall_cnt; i++) {
        int64_t row = s->stall_rows[i];
        s->va_mask[row >> 6] |= (uint64_t)1 << (row & 63);
    }
    for (int64_t i = 0; i < nb; i++) {
        int64_t row = s->bk_rows[slot * s->RPV + i];
        s->va_mask[row >> 6] |= (uint64_t)1 << (row & 63);
    }
    s->bk_cnt[slot] = 0;
    s->stall_cnt = 0;
    for (int64_t wd = 0; wd < s->RPVW; wd++) {
    uint64_t bits = s->va_mask[wd];
    s->va_mask[wd] = 0;
    while (bits) {
        int64_t row = wd * 64 + __builtin_ctzll(bits);
        bits &= bits - 1;
        int64_t r = s->row_r[row];
        if (s->rc_out[row] < 0) {
            int64_t code = s->qbuf[row * s->CAP + s->qhead[row]];
            int64_t pid = code >> s->shift;
            int64_t dst = s->pk_dst[pid - s->base];
            int64_t out = route_port(s, r, dst, pid);
            if (out < 0 || out >= s->P) {
                s->err_a = out;
                return ERR_BAD_ROUTE;
            }
            s->rc_out[row] = out;
        }
        int64_t g = r * s->P + s->rc_out[row];
        int64_t ovc;
        if (s->oterm[g]) {
            ovc = 0;                     /* ejection: no VC ownership */
        } else {
            int64_t free = ~s->ovc_mask[g] & s->full_mask;
            if (!free) {                 /* stall: retry next cycle */
                if (s->tel) s->tel_va_stalls[r]++;
                s->stall_rows[s->stall_cnt++] = row;
                continue;
            }
            int64_t c = s->vc_ptr[g];
            while (!((free >> c) & 1)) c = c + 1 >= s->V ? 0 : c + 1;
            s->vc_ptr[g] = c + 1 >= s->V ? 0 : c + 1;
            s->ovc_mask[g] |= (int64_t)1 << c;
            ovc = c;
        }
        s->rc_ovc[row] = ovc;
        s->state[row] = (int8_t)s->st_active;
        s->gout[row] = g;
        s->n_active++;
        if (s->tel) s->tel_va_grants[r]++;
        cand_set(s, g, row - r * s->PV);
    }
    }
    return 0;
}

static int64_t commit(FastState *s, int64_t r, int64_t g, int64_t pv,
                      int64_t now) {
    int64_t row = r * s->PV + pv;
    int64_t w = r * s->P + s->pv_port[pv];
    s->sa_ptr[g] = pv + 1 >= s->PV ? 0 : pv + 1;
    int64_t h = s->qhead[row];
    int64_t code = s->qbuf[row * s->CAP + h];
    s->qhead[row] = h + 1 >= s->CAP ? 0 : h + 1;
    s->qlen[row]--;
    s->occ[w]--;
    s->fwd_g[w]++;
    s->cg_stamp[w] = now;
    if (s->tel) {
        s->tel_channel_load[g]++;
        s->tel_vc_grants[r * s->V + (pv - s->pv_port[pv] * s->V)]++;
    }
    if (s->cred_cls[w] >= 0) {
        int64_t rc = ring_push(s, s->cred_cls[w], now, s->cred_dest[w],
                               0, 0);
        if (rc) return rc;
    }
    int64_t out_vc = s->rc_ovc[row];
    int64_t is_term = s->oterm[g];
    if (!is_term) s->ocred[g]--;
    if (s->send_cls[g] < 0) { s->err_a = g; return ERR_UNWIRED; }
    int64_t rc = ring_push(s, s->send_cls[g], now, s->send_dest[g],
                           code, out_vc);
    if (rc) return rc;
    int64_t pidx = (code >> s->shift) - s->base;
    if ((code & s->idx_mask) == s->pk_size[pidx] - 1) {   /* tail */
        if (!is_term) s->ovc_mask[g] &= ~((int64_t)1 << out_vc);
        s->state[row] = (int8_t)s->st_idle;
        s->rc_out[row] = -1;
        s->rc_ovc[row] = -1;
        s->gout[row] = -1;
        s->n_active--;
        cand_clear(s, g, pv);
        if (s->qlen[row] > 0) {          /* next packet: re-route */
            s->state[row] = (int8_t)s->st_route;
            sched_rc(s, row, s->rc_delay_respawn[w], now);
        }
    } else if (s->qlen[row] == 0) {
        cand_clear(s, g, pv);            /* body flits still in flight */
    }
    return 0;
}

static int64_t switch_allocate(FastState *s, int64_t now) {
    /* Routers ascending, active out ports ascending, winner = minimum
       circular distance from the port's pointer among candidates whose
       input port has not already been granted this cycle. A commit
       only clears its own port's bit, so walking a snapshot of each
       out-port word is exact. */
    for (int64_t r = 0; r < s->R; r++) {
    for (int64_t pw = 0; pw < s->PW; pw++) {
        uint64_t m = s->aop[r * s->PW + pw];
        while (m) {
            int64_t p = pw * 64 + __builtin_ctzll(m);
            m &= m - 1;
            int64_t g = r * s->P + p;
            if (!s->oterm[g] && s->ocred[g] <= 0) {
                if (s->tel) s->tel_credit_stall[g]++;
                continue;
            }
            int64_t best = -1, best_d = s->PV, req = 0;
            for (int64_t wd = 0; wd < s->PVW; wd++) {
                uint64_t bits = s->cand[g * s->PVW + wd];
                while (bits) {
                    int64_t pv = wd * 64 + __builtin_ctzll(bits);
                    bits &= bits - 1;
                    if (s->cg_stamp[r * s->P + s->pv_port[pv]] == now)
                        continue;
                    req++;
                    int64_t d = pv - s->sa_ptr[g];
                    if (d < 0) d += s->PV;
                    if (d < best_d) { best_d = d; best = pv; }
                }
            }
            if (s->tel) s->tel_sa_requests[g] += req;
            if (best < 0) continue;
            int64_t rc = commit(s, r, g, best, now);
            if (rc) return rc;
        }
    }
    }
    return 0;
}

static int64_t do_step(FastState *s) {
    int64_t now = s->cycle;
    for (int64_t ci = 0; ci < s->n_cls; ci++) {  /* 1. flit arrivals */
        int64_t kind = s->cls_kind[ci];
        if (kind > 2) continue;
        while (s->cls_head[ci] < s->cls_tail[ci]) {
            int64_t i = s->cls_off[ci] + s->cls_hidx[ci];
            if (s->ring_cycle[i] != now) break;
            if (++s->cls_hidx[ci] == s->cls_cap[ci]) s->cls_hidx[ci] = 0;
            s->cls_head[ci]++;
            if (kind == 1) {
                recv_terminal(s, s->ring_dest[i], s->ring_code[i], now);
            } else {
                int64_t rc = recv_router(s, s->ring_dest[i],
                                         s->ring_code[i],
                                         s->ring_vc[i], now);
                if (rc) return rc;
            }
        }
    }
    for (int64_t ci = 0; ci < s->n_cls; ci++) {  /* 2. credits */
        int64_t kind = s->cls_kind[ci];
        if (kind <= 2) continue;
        while (s->cls_head[ci] < s->cls_tail[ci]) {
            int64_t i = s->cls_off[ci] + s->cls_hidx[ci];
            if (s->ring_cycle[i] != now) break;
            if (++s->cls_hidx[ci] == s->cls_cap[ci]) s->cls_hidx[ci] = 0;
            s->cls_head[ci]++;
            if (kind == 3) s->ocred[s->ring_dest[i]]++;
            else s->tcred[s->ring_dest[i]]++;
        }
    }
    if (s->total_backlog) {
        int64_t rc = inject(s, now);
        if (rc) return rc;
    }
    int64_t rc = vc_allocate(s, now);            /* 3. VA then SA */
    if (rc) return rc;
    if (s->n_active) {
        rc = switch_allocate(s, now);
        if (rc) return rc;
    }
    if (s->tel && now % s->tel_interval == 0) {  /* occupancy sample */
        for (int64_t g = 0; g < s->RP; g++) {
            int64_t o = s->occ[g];
            s->tel_occ_sum[g] += o;
            if (o > s->tel_occ_peak[g]) s->tel_occ_peak[g] = o;
        }
        for (int64_t row = 0; row < s->RPV; row++) {
            int64_t l = s->qlen[row];
            if (l)
                s->tel_vc_occ_sum[s->row_r[row] * s->V + row % s->V] += l;
        }
        s->tel_samples++;
        int64_t b = s->total_backlog;
        s->tel_backlog_sum += b;
        if (b > s->tel_backlog_peak) s->tel_backlog_peak = b;
        s->tel_backlog_samples++;
    }
    s->cycle = now + 1;
    return 0;
}

static void offers(FastState *s, int64_t now) {
    while (s->ev_index < s->n_ev && s->ev_when[s->ev_index] <= now) {
        int64_t e = s->ev_index++;
        int64_t t = s->ev_term[e];
        if (s->tbacklog[t] == 0) {
            s->cur_pid[t] = e;
            s->cur_idx[t] = 0;
        } else if (s->pend_tail[t] >= 0) {
            s->pend_next[s->pend_tail[t]] = e;
            s->pend_tail[t] = e;
        } else {
            s->pend_head[t] = e;
            s->pend_tail[t] = e;
        }
        int64_t size = s->pk_size[e];
        s->tbacklog[t] += size;
        s->total_backlog += size;
        s->inflight += size;
    }
}

static int idle(FastState *s) {
    /* Nothing in flight, queued for RC/VA, or on any wire: a step
       would only advance the clock. */
    if (s->inflight || s->n_active || s->stall_cnt) return 0;
    for (int64_t w = 0; w < s->W; w++)
        if (s->bk_cnt[w]) return 0;
    for (int64_t ci = 0; ci < s->n_cls; ci++)
        if (s->cls_head[ci] != s->cls_tail[ci]) return 0;
    return 1;
}

/* ---- CPython-compatible Mersenne Twister -------------------------
   Drawing a Bernoulli offer stream (BernoulliInjector.stream) in a
   Python loop dominates its time at scale. random.Random is MT19937
   with a documented state (`getstate`), so the draw loop can run here
   bit-for-bit: random() is genrand_res53 and randrange(m) is
   CPython's _randbelow_with_getrandbits rejection loop. The advanced
   state is written back and restored into the Python RNG afterwards. */

#define MT_N 624
#define MT_M 397

static uint32_t mt_next(uint32_t *mt, int64_t *mti) {
    uint32_t y;
    if (*mti >= MT_N) {
        static const uint32_t mag[2] = {0u, 0x9908b0dfu};
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000u) | (mt[kk + 1] & 0x7fffffffu);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag[y & 1u];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000u) | (mt[kk + 1] & 0x7fffffffu);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag[y & 1u];
        }
        y = (mt[MT_N - 1] & 0x80000000u) | (mt[0] & 0x7fffffffu);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag[y & 1u];
        *mti = 0;
    }
    y = mt[(*mti)++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= y >> 18;
    return y;
}

int64_t pregen_offers(uint32_t *mt, int64_t *mti_io, int64_t total,
                      const int64_t *srcs, int64_t n_src, int64_t n,
                      int64_t redraw, const int64_t *table,
                      double probability, int64_t *ev_when,
                      int64_t *ev_term, int64_t *ev_dst) {
    /* Per cycle, per source srcs[k]: random() < probability, then a
       destination in [0, n) other than the source — randrange(n - 1)
       shifted past it, or (redraw) randrange(n) drawn again while it
       hits it; with a table, table[source] and no draw. */
    int64_t mti = *mti_io;
    int64_t m = redraw ? n : n - 1;
    int bits = 0;                        /* m.bit_length() */
    for (int64_t v = m; v; v >>= 1) bits++;
    int64_t count = 0;
    for (int64_t c = 0; c < total; c++) {
        for (int64_t k = 0; k < n_src; k++) {
            int64_t src = srcs[k];
            uint32_t a = mt_next(mt, &mti) >> 5;
            uint32_t b = mt_next(mt, &mti) >> 6;
            double r = (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
            if (r >= probability) continue;
            int64_t d;
            if (table) {
                d = table[src];
            } else {
                do {
                    do {
                        d = mt_next(mt, &mti) >> (32 - bits);
                    } while (d >= m);
                } while (redraw && d == src);
                if (!redraw && d >= src) d += 1;   /* skip self-traffic */
            }
            ev_when[count] = c;
            ev_term[count] = src;
            ev_dst[count] = d;
            count++;
        }
    }
    *mti_io = mti;
    return count;
}

/* ---- Flow-level wafers: FlowWaferNode.advance for many at once ----
   Steps each active flow wafer w = act[k] through its events
   off[w]..off[w+1]-1 (in injection-heap order) with advance's float64
   operations, in its order, and writes every event's arrival. */
#pragma STDC FP_CONTRACT OFF

/* math.ceil for x >= 0, as an integer compare */
#define CEIL_I64(x) ((int64_t)(x) + ((double)(int64_t)(x) < (x)))

void flow_advance(int64_t n_act, const int64_t *act, const int64_t *off,
                  const int64_t *cyc, const int64_t *ex, const int64_t *size,
                  const int64_t *curve_of, const double *loads,
                  const double *lats, int64_t n_pts, const double *capacity,
                  int64_t terms, int64_t to_cycle, int64_t *last,
                  double *agg_time, double *exit_free, int64_t *arrive) {
    for (int64_t k = 0; k < n_act; k++) {
        int64_t w = act[k], lo = off[w], hi = off[w + 1], offered = 0;
        int64_t span = to_cycle - last[w] > 1 ? to_cycle - last[w] : 1;
        last[w] = to_cycle;
        for (int64_t e = lo; e < hi; e++) offered += size[e];
        double u = (double)offered / (double)(terms * span);
        const double *ld = loads + curve_of[w] * n_pts;
        const double *lt = lats + curve_of[w] * n_pts;
        double base = u <= ld[0] ? lt[0] : lt[n_pts - 1];  /* latency_at */
        for (int64_t i = 1; i < n_pts && u > ld[0]; i++)
            if (u <= ld[i]) {
                double frac = (u - ld[i - 1]) / (ld[i] - ld[i - 1]);
                base = lt[i - 1] + frac * (lt[i] - lt[i - 1]);
                break;
            }
        if (!(base > 1.0)) base = 1.0;
        double cap = capacity[curve_of[w]], agg = agg_time[w];
        double *free_at = exit_free + w * terms;
        for (int64_t e = lo; e < hi; e++) {
            double c = (double)cyc[e];
            agg = (c > agg ? c : agg) + (double)size[e] / cap;
            double ready = c + base, start = free_at[ex[e]];
            if (!(start > ready)) start = ready;
            int64_t a = CEIL_I64(start), b = CEIL_I64(agg);
            arrive[e] = a = b > a ? b : a;
            double fin = start + (double)size[e];
            free_at[ex[e]] = (double)a > fin ? (double)a : fin;
        }
        agg_time[w] = agg;
    }
}

int64_t fast_run(FastState *s, int64_t drain, int64_t limit) {
    /* The run contract (scalar twin: repro.netsim.network.advance):
       offer every due row, then step, until the clock reaches `limit`
       or, with `drain`, until every row is offered and nothing is in
       flight (returns 1). Without telemetry, idle stretches are jumped
       to the next row's cycle; a sink sees every cycle sampled. */
    while (s->cycle < limit) {
        offers(s, s->cycle);
        int64_t used = s->ev_index == s->n_ev;
        if (drain && used && s->inflight == 0) return 1;
        if (!s->tel && idle(s)) {
            int64_t next = used ? limit : s->ev_when[s->ev_index];
            s->cycle = next < limit ? next : limit;
            continue;
        }
        int64_t rc = do_step(s);
        if (rc) return rc;
    }
    return 0;
}

/* ---- Mapping kernel: Algorithm 1 pairwise exchange ---------------
   A transliteration of the scalar oracle in repro.mapping.exchange:
   a trial swap moves the two occupants' link and boundary routes in
   place on the flat load vector, and a rejected trial swaps back. */

static void map_route(MapState *m, int64_t a, int64_t b, int64_t w) {
    /* XY route a -> b: along a's row to b's column, then down/up it */
    int64_t cols = m->cols;
    int64_t ra = a / cols, ca = a - ra * cols;
    int64_t rb = b / cols, cb = b - rb * cols;
    int64_t lo = ca < cb ? ca : cb, hi = ca < cb ? cb : ca;
    int64_t *e = m->loads + ra * (cols - 1);
    for (int64_t c = lo; c < hi; c++) e[c] += w;
    int64_t n = hi - lo;
    lo = ra < rb ? ra : rb;
    hi = ra < rb ? rb : ra;
    e = m->loads + m->eh + cb;
    for (int64_t r = lo; r < hi; r++) e[r * cols] += w;
    m->hops += w * (n + hi - lo);
}

static void map_boundary(MapState *m, int64_t site, int64_t w) {
    /* From the nearest substrate edge; ties top, bottom, left, right */
    int64_t cols = m->cols, r = site / cols, c = site - r * cols;
    int64_t d[4] = {r, m->rows - 1 - r, c, cols - 1 - c};
    int side = 0;
    for (int k = 1; k < 4; k++)
        if (d[k] < d[side]) side = k;
    int64_t *e, step;
    if (side == 0) { e = m->loads + m->eh + c; step = cols; }
    else if (side == 1) { e = m->loads + m->eh + r * cols + c; step = cols; }
    else if (side == 2) { e = m->loads + r * (cols - 1); step = 1; }
    else { e = m->loads + r * (cols - 1) + c; step = 1; }
    for (int64_t k = 0; k < d[side]; k++) e[k * step] += w;
    m->hops += w * d[side];
}

static void map_node(MapState *m, int64_t u, int64_t skip, int64_t sign) {
    /* Add (sign 1) or remove (-1) node u's routes, except its link to
       `skip` (the other swapped node, whose pass already moved it). */
    int64_t su = m->site_of[u];
    for (int64_t k = m->adj_off[u]; k < m->adj_off[u + 1]; k++) {
        int64_t o = m->adj_other[k];
        if (o == skip) continue;
        int64_t so = m->site_of[o], w = sign * m->adj_ch[k];
        if (m->adj_is_a[k]) map_route(m, su, so, w);
        else map_route(m, so, su, w);
    }
    if (m->ext[u]) map_boundary(m, su, sign * m->ext[u]);
}

static void map_swap(MapState *m, int64_t i, int64_t j) {
    int64_t u = m->node_at[i], v = m->node_at[j];
    if (u >= 0) map_node(m, u, -1, -1);
    if (v >= 0) map_node(m, v, u, -1);
    m->node_at[i] = v;
    m->node_at[j] = u;
    if (u >= 0) m->site_of[u] = j;
    if (v >= 0) m->site_of[v] = i;
    int64_t sig = m->site_sig[i];
    m->site_sig[i] = m->site_sig[j];
    m->site_sig[j] = sig;
    if (u >= 0) map_node(m, u, -1, 1);
    if (v >= 0) map_node(m, v, u, 1);
}

static int64_t map_max(const MapState *m, int64_t bound, int64_t *at_max) {
    /* Max edge load and how many edges carry it; stops early (and
       returns bound + 1) once an edge exceeds `bound`. */
    int64_t top = 0, n = 0;
    for (int64_t e = 0; e < m->edges; e++) {
        int64_t l = m->loads[e];
        if (l > bound) return bound + 1;
        if (l > top) { top = l; n = 1; }
        else if (l == top) n++;
    }
    *at_max = n;
    return top;
}

void map_load(MapState *m) {
    /* Route every link (from its `a` end) and boundary path afresh */
    for (int64_t e = 0; e < m->edges; e++) m->loads[e] = 0;
    m->hops = 0;
    for (int64_t u = 0; u < m->nodes; u++) {
        int64_t su = m->site_of[u];
        for (int64_t k = m->adj_off[u]; k < m->adj_off[u + 1]; k++)
            if (m->adj_is_a[k])
                map_route(m, su, m->site_of[m->adj_other[k]], m->adj_ch[k]);
        if (m->ext[u]) map_boundary(m, su, m->ext[u]);
    }
}

int64_t map_sweep(MapState *m, int64_t escalate) {
    /* One pass; returns the number of accepted swaps.
       escalate 0: every site pair (i < j) in order, keeping a swap iff
                   (max load, total hops) strictly drops.
       escalate 1: each occupied site on a max-load edge (taken at the
                   start of the pass) against every other site, keeping
                   a swap iff (max load, total hops, #edges at max)
                   strictly drops.
       Two sites with equal signatures are skipped: their swap moves no
       load (repro.mapping.fast_exchange). */
    int64_t at_max, top = map_max(m, INT64_MAX - 1, &at_max), n_i = m->sites;
    if (escalate) {
        if (m->edges == 0) return 0;
        int64_t *mark = m->crit, cols = m->cols, n_h = m->eh;
        for (int64_t s = 0; s < m->sites; s++) mark[s] = 0;
        for (int64_t e = 0; e < m->edges; e++) {
            if (m->loads[e] != top) continue;
            if (e < n_h) {
                int64_t r = e / (cols - 1), s = r * cols + e - r * (cols - 1);
                mark[s] = mark[s + 1] = 1;
            } else {
                mark[e - n_h] = mark[e - n_h + cols] = 1;
            }
        }
        n_i = 0;                         /* compact in place, ascending */
        for (int64_t s = 0; s < m->sites; s++)
            if (mark[s] && m->node_at[s] >= 0) mark[n_i++] = s;
    }
    int64_t accepted = 0;
    for (int64_t k = 0; k < n_i; k++) {
        int64_t i = escalate ? m->crit[k] : k;
        for (int64_t j = escalate ? 0 : i + 1; j < m->sites; j++) {
            if (m->site_sig[j] == m->site_sig[i]) continue;   /* or j == i */
            int64_t hops = m->hops, n = 0;
            map_swap(m, i, j);
            int64_t t = map_max(m, top, &n);
            int keep = t < top || (t == top && (m->hops < hops
                       || (escalate && m->hops == hops && n < at_max)));
            if (!keep) {
                map_swap(m, i, j);
                continue;
            }
            top = t;
            at_max = n;
            if (m->rec_i) {
                m->rec_i[accepted] = i;
                m->rec_j[accepted] = j;
            }
            accepted++;
        }
    }
    return accepted;
}
"""
)

_cache_dir = Path(__file__).resolve().parent / "_cc_cache"

#: Optimization flags; folded into the cache key alongside the source.
_CFLAGS = ["-O3", "-fomit-frame-pointer"]

_kernel = None
_kernel_tried = False


def _build() -> ctypes.CDLL:
    key = _C_SOURCE + "\x00" + " ".join(_CFLAGS)
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    so_path = _cache_dir / f"ckernel_{digest}.so"
    if not so_path.exists():
        _cache_dir.mkdir(parents=True, exist_ok=True)
        cc = os.environ.get("CC", "cc")
        with tempfile.TemporaryDirectory(dir=str(_cache_dir)) as tmp:
            c_path = Path(tmp) / "ckernel.c"
            c_path.write_text(_C_SOURCE)
            tmp_so = Path(tmp) / so_path.name
            subprocess.run(
                [cc, *_CFLAGS, "-std=c99", "-fPIC", "-shared",
                 str(c_path), "-o", str(tmp_so)],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_so, so_path)  # atomic publish
    lib = ctypes.CDLL(str(so_path))
    lib.fast_run.argtypes = [ctypes.POINTER(FastState), _I64, _I64]
    lib.fast_run.restype = _I64
    ptr = ctypes.c_void_p
    lib.pregen_offers.argtypes = [
        ptr, ptr, _I64, ptr, _I64, _I64, _I64, ptr, ctypes.c_double,
        ptr, ptr, ptr,
    ]
    lib.pregen_offers.restype = _I64
    lib.flow_advance.argtypes = [_I64, *[ptr] * 8, _I64, ptr, _I64, _I64,
                                 *[ptr] * 4]
    lib.flow_advance.restype = None
    lib.map_sweep.argtypes = [ctypes.POINTER(MapState), _I64]
    lib.map_sweep.restype = _I64
    lib.map_load.argtypes = [ctypes.POINTER(MapState)]
    lib.map_load.restype = None
    return lib


#: Each ``pregen_offers`` call covers at most this many (cycle, source)
#: slots, so its event buffers stay small whatever the run's size.
_DRAW_SLOTS = 1 << 16


def draw_uniform(
    rng, cycles: int, sources, probability: float, mice_among: int = 0,
    table=None,
):
    """Uniform Bernoulli traffic drawn in C from ``rng``, or ``None``.

    Replays, per cycle and per source ``s``, ``rng.random() <
    probability`` then ``rng.randrange(sources - 1)`` skipping ``s``, a
    chunk of cycles per call: int64 ``(cycle, source, destination)`` of
    the hits, ``rng`` left as that loop leaves it. ``None`` without the
    kernel or with fewer than two sources.

    With ``mice_among=n``, ``sources`` is a list of indices into
    ``range(n)`` instead of a count, and each destination is
    ``rng.randrange(n)`` drawn again while it hits the source (the
    ``elephant_mouse`` mice rule); ``None`` without the kernel or when
    ``n < 2``. With ``table`` (one destination per source), a hit's
    destination is ``table[s]`` and draws nothing: a deterministic
    pattern's offer stream.
    """
    import numpy as np

    lib = load_kernel()
    version, internal, gauss = rng.getstate()
    n = mice_among or sources
    if lib is None or n < 2 or version != 3 or len(internal) != 625:
        return None
    srcs = np.asarray(sources if mice_among else range(n), dtype=np.int64)
    dst_table = None if table is None else np.asarray(table, dtype=np.int64)
    mt = np.array(internal[:624], dtype=np.uint32)
    mti = np.array(internal[624:], dtype=np.int64)
    chunk = max(1, _DRAW_SLOTS // max(1, len(srcs)))
    buf = np.empty((3, chunk * len(srcs)), dtype=np.int64)
    parts = [buf[:, :0]]
    for first in range(0, cycles, chunk):
        count = lib.pregen_offers(
            mt.ctypes.data, mti.ctypes.data, min(chunk, cycles - first),
            srcs.ctypes.data, len(srcs), n, int(bool(mice_among)),
            None if dst_table is None else dst_table.ctypes.data,
            probability, *(row.ctypes.data for row in buf),
        )
        parts.append(buf[:, :count] + [[first], [0], [0]])
    rng.setstate((3, tuple(mt.tolist()) + (int(mti[0]),), gauss))
    return tuple(np.concatenate(parts, axis=1))


def load_kernel() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, or ``None`` without a C toolchain.

    ``None`` sends every netsim run to the scalar object simulator (see
    :func:`repro.netsim.fast_core.engine_for`) and every mapping
    optimization to the scalar exchange oracle. The result is cached for
    the process; a failed build is not retried.
    """
    global _kernel, _kernel_tried
    if not _kernel_tried:
        _kernel_tried = True
        try:
            _kernel = _build()
        except (OSError, subprocess.SubprocessError):  # no cc, or no .so
            _kernel = None
    return _kernel
