"""The object-graph compile: the reference the direct tables must equal.

:func:`repro.netsim.fast_core.tables` builds the kernel's constant
tables straight from a network's spec. This module keeps the older
route to the same arrays — walk a *built* ``Router``/``Link``/
``Terminal`` graph through ``id()``-keyed maps — so the tests can hold
the two to each other for every shape family.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.fast_core import _C_KIND


def compile_graph(network) -> dict:
    """``network``'s built object graph compiled into the tables'
    arrays (same names, dtypes and delay-class numbering)."""
    routers = network.routers
    terminals = network.terminals
    R, T = len(routers), len(terminals)
    P = routers[0].n_ports
    V = routers[0].num_vcs
    RP = R * P
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
    out = {
        name: np.full(size, fill, dtype=np.int64)
        for name, size, fill in (
            ("ocred", RP, 0), ("rc_delay", RP, 0),
            ("rc_delay_respawn", RP, 0), ("send_cls", RP, -1),
            ("send_dest", RP, -1), ("cred_cls", RP, -1),
            ("cred_dest", RP, -1), ("inj_cls", T, -1), ("inj_dest", T, -1),
            ("tcred", T, 0), ("tvc", T, 0),
        )
    }
    out["oterm"] = np.zeros(RP, dtype=bool)
    classes = {}

    def cls(kind, delay):
        return classes.setdefault((kind, delay), len(classes))

    for ri, router in enumerate(routers):
        assert router.n_ports == P and router.num_vcs == V
        for p in range(P):
            g = ri * P + p
            out["ocred"][g] = router.out_credits[p]
            out["oterm"][g] = router.out_is_terminal[p]
            d = (
                router.ingress_routing_delay
                if p in router.terminal_in_ports
                else router.routing_delay
            )
            out["rc_delay"][g] = d
            out["rc_delay_respawn"][g] = max(d, 1)
            link = router.out_link[p]
            if link is not None:
                kind, sink, port = link_map[id(link)]
                delay = link.latency + router.pipeline_delay
                if kind == "router":
                    out["send_cls"][g] = cls("rf", delay)
                    out["send_dest"][g] = router_index[id(sink)] * P + port
                else:
                    out["send_cls"][g] = cls("tf", delay)
                    out["send_dest"][g] = term_index[id(sink)]
            channel = router.in_credit_channel[p]
            if channel is not None:
                dest = credit_router.get(id(channel))
                if dest is not None:
                    out["cred_cls"][g] = cls("rc", channel.latency)
                    out["cred_dest"][g] = dest
                else:
                    out["cred_cls"][g] = cls("tc", channel.latency)
                    out["cred_dest"][g] = term_credit[id(channel)]
    for ti, terminal in enumerate(terminals):
        link = terminal.inject_link
        kind, sink, port = link_map[id(link)]
        assert kind == "router"
        out["inj_cls"][ti] = cls("inj", link.latency)
        out["inj_dest"][ti] = router_index[id(sink)] * P + port
        out["tcred"][ti] = terminal.credits
        out["tvc"][ti] = terminal._next_vc

    # Ring capacity per class: each source sends at most one entry per
    # cycle and an entry lives `delay` cycles.
    kinds = [kind for kind, _ in classes]
    delays = np.array([delay for _, delay in classes], dtype=np.int64)
    counts = np.array([
        np.count_nonzero(
            out["send_cls" if kind in ("rf", "tf") else
                "inj_cls" if kind == "inj" else "cred_cls"] == ci
        )
        for ci, kind in enumerate(kinds)
    ], dtype=np.int64)
    caps = (delays + 2) * np.maximum(counts, 1)
    out["cls_kind"] = np.array([_C_KIND[k] for k in kinds], dtype=np.int64)
    out["cls_delay"] = delays
    out["cls_off"] = np.concatenate(([0], np.cumsum(caps)[:-1])).astype(np.int64)
    out["cls_cap"] = caps
    PV = P * V
    out["pv_port"] = np.arange(PV, dtype=np.int64) // V
    out["g_r"] = np.arange(RP, dtype=np.int64) // P
    out["g_p"] = np.arange(RP, dtype=np.int64) % P
    out["row_r"] = np.arange(R * PV, dtype=np.int64) // PV
    return out
