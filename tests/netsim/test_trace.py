"""Trace generation and replay."""

import hashlib

import numpy as np
import pytest

from repro.netsim.network import check_offers, waferscale_clos_network
from repro.netsim.trace import (
    TRACE_NAMES,
    SyntheticTraceSpec,
    compress_trace,
    duplicate_trace,
    replay_trace,
    synthetic_nersc_trace,
)


def test_event_validation():
    for row in ((-1, 0, 1, 1), (0, 2, 2, 1), (0, 0, 1, 0)):
        with pytest.raises(ValueError):
            check_offers([row], 16)


def test_all_traces_generate():
    spec = SyntheticTraceSpec(n_nodes=16, iterations=2)
    for name in TRACE_NAMES:
        rows = synthetic_nersc_trace(name, spec)
        assert rows.dtype == np.int64 and rows.shape[1] == 4
        assert len(rows), name
        assert check_offers(rows, 16) is rows
        cycles = rows[:, 0].tolist()
        assert cycles == sorted(cycles)


def test_unknown_trace_rejected():
    with pytest.raises(ValueError):
        synthetic_nersc_trace("hpl", SyntheticTraceSpec(n_nodes=16))


def test_lulesh_is_local_and_bursty():
    """LULESH: halo exchange -> all messages at iteration boundaries."""
    spec = SyntheticTraceSpec(n_nodes=8, iterations=2, iteration_gap_cycles=100)
    rows = synthetic_nersc_trace("lulesh", spec)
    assert (rows[:, 0] % 100 < 10).all()


def test_nekbone_has_allreduce_partners():
    spec = SyntheticTraceSpec(n_nodes=16, iterations=1)
    rows = synthetic_nersc_trace("nekbone", spec)
    xor_partners = {(src, dst) for _, src, dst, size in rows.tolist() if size == 1}
    assert (0, 1) in xor_partners and (0, 2) in xor_partners


def test_nekbone_requires_power_of_two():
    with pytest.raises(ValueError):
        synthetic_nersc_trace("nekbone", SyntheticTraceSpec(n_nodes=12))


def test_multigrid_strides_grow():
    spec = SyntheticTraceSpec(n_nodes=32, iterations=1)
    rows = synthetic_nersc_trace("multigrid", spec)
    strides = set(((rows[:, 2] - rows[:, 1]) % 32).tolist())
    assert {1, 2, 4} <= strides


def test_duplicate_trace_offsets_copies():
    doubled = duplicate_trace([(0, 0, 1, 2)], copies=2, nodes_per_copy=8)
    assert len(doubled) == 2
    assert {(src, dst) for src, dst in doubled[:, 1:3].tolist()} == {(0, 1), (8, 9)}


def test_duplicate_preserves_timing():
    doubled = duplicate_trace([(5, 0, 1, 2), (9, 1, 0, 1)], copies=3, nodes_per_copy=4)
    assert sorted(set(doubled[:, 0].tolist())) == [5, 9]


def test_replay_delivers_everything():
    network = waferscale_clos_network(32, 8, num_vcs=2, buffer_flits_per_port=8)
    spec = SyntheticTraceSpec(n_nodes=16, iterations=1)
    events = duplicate_trace(
        synthetic_nersc_trace("nekbone", spec), copies=2, nodes_per_copy=16
    )
    stats = replay_trace(network, events)
    assert stats.flits_delivered == stats.flits_offered
    assert stats.packets_delivered == len(events)


def test_replay_compression_speeds_completion():
    spec = SyntheticTraceSpec(n_nodes=16, iterations=2, iteration_gap_cycles=400)
    events = synthetic_nersc_trace("multigrid", spec)

    def run(compression):
        network = waferscale_clos_network(
            16, 8, num_vcs=2, buffer_flits_per_port=8
        )
        return replay_trace(network, events, compression=compression)

    slow = run(1.0)
    fast = run(8.0)
    assert fast.measure_end < slow.measure_end


def test_replay_rejects_bad_compression():
    network = waferscale_clos_network(16, 8, num_vcs=2, buffer_flits_per_port=8)
    with pytest.raises(ValueError):
        replay_trace(network, [], compression=0.0)


#: sha256 of the little-endian int64 rows ``(cycle, src, dst, size)``
#: each generator gave when its events were one frozen object per
#: message: every trace at specs A and B, A duplicated 2 and 4 times,
#: and B duplicated twice then compressed as ``replay_trace`` does.
TRACE_DIGESTS = {
    "lulesh/A": "c41f9767aa9a11decd8738decfaf2769d38cda12734fd83df0d344ee3515ca31",
    "lulesh/B": "c10c0d58f3bcb73010fb845bb1ff395aee3980e9f3baa3d3a870155dead312d8",
    "lulesh/A/x2": "10fa4e32a40d76ae4f1be79a3eb72ae3d562a0182e966561666bab8041694781",
    "lulesh/A/x4": "b5a46d83717da8ab8019c4a5f097261b74faa7e04d7b001964ce51374e7d8fb2",
    "lulesh/B/x2/c2": "7ae5e6ca5ff53edd859aac126e3dba7cb9a9cccd457079068ecfa977e81c6bff",
    "lulesh/B/x2/c8": "5d9c8c0662127e48347201e1629e47c9f858535dcf1b82057f33b757c638e3ee",
    "lulesh/B/x2/c32": "457a0c79c8e1b231dd4712d167d99c6609c5043a4551973f773e346823508c3c",
    "mocfe/A": "92aee6684cc4e14e6e6d67d1b07c631d7005cfc60254c636593f72538a99678e",
    "mocfe/B": "0c2b33aabf66432dc442eb09b2bb8dd7a5e212964d00e7d9adce9eae09d947f4",
    "mocfe/A/x2": "3a904d1111806c1f4c4d152fe514934ac9b4959eb082737e94c517522f037a43",
    "mocfe/A/x4": "0b4512c251383e6b871d1c31702b771e8fb0065aa7f4cc1c9ad5eb5abed97843",
    "mocfe/B/x2/c2": "00b53b7b7ddffe1ed6552a6b6ede6e7ca960a28e27508a32a135c0c3b219526a",
    "mocfe/B/x2/c8": "81fad7e8533e59591a11cc59e9248590b2230ba922f60f3f1b7c880537e1c640",
    "mocfe/B/x2/c32": "be9d9d510c111695f0e9a4ddb5a19d5981b5ccda9925b56b292d93559e6b5a9f",
    "multigrid/A": "ae4412940ba763cb17b769e003bcb8136ba1eb525e43650456eae11cbad5efc8",
    "multigrid/B": "d913d0d15739bcbe2c825ee1fb788b76231b1caae109afbb5a0c0c3897ac5699",
    "multigrid/A/x2": "6938718860b01a7dffe6bf2f75d20c3a32d12206698a66611978dfeee1f3a910",
    "multigrid/A/x4": "3076933b939e8a64e7431c34dec5bf3bb909f86a1e757f8d028f68a161595dea",
    "multigrid/B/x2/c2": "e7e633df956e5d1df2094dd26a08a910f8a324c5fce5c72e7d744dcd71a84fc3",
    "multigrid/B/x2/c8": "c7989645c4f24e0c16f1a787a4411dcf8f563b88b3e9fccec746bd6e162d05a9",
    "multigrid/B/x2/c32": "763fafa9f179a954f97e89ca7d49805c0fd5332962645e42d76db5beb1d5e232",
    "nekbone/A": "cbda876cbd9b07cb2c31d5a74e19d3dbc99888a35640b8524873e1600d8dc8d4",
    "nekbone/B": "808aa699753528b7bd40bf5bcc4b4a6ad421cc890a2caae6cc9cd22c580061af",
    "nekbone/A/x2": "a77b7c2514dc013c328d15591a130ba0acf4d7631e157f99f6316cf2535815ed",
    "nekbone/A/x4": "bc46bbf331f672772fa5f4b7415a66f2782f297785ab2d9b98ae30e5762c4c4f",
    "nekbone/B/x2/c2": "1d533e8c39d2ccf083929988ce2585f83660ebf499b01f545e0cba17007f1ce8",
    "nekbone/B/x2/c8": "bea125aaec6bdccae6c7ce5f4b03ee7c19f7b9783d8cd72c86a01a87eee49402",
    "nekbone/B/x2/c32": "3dc206cd410fcf53c6c2c4e74a9d10191f0679b23f8de72a6d7e119bed908d9e",
}


def test_generators_keep_their_exact_rows():
    digest = lambda rows: hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest()
    specs = {
        "A": SyntheticTraceSpec(n_nodes=32, iterations=2),
        "B": SyntheticTraceSpec(n_nodes=128, iterations=4),
    }
    got = {}
    for name in TRACE_NAMES:
        for label, spec in specs.items():
            got[f"{name}/{label}"] = digest(synthetic_nersc_trace(name, spec))
        trace = synthetic_nersc_trace(name, specs["A"])
        for copies in (2, 4):
            got[f"{name}/A/x{copies}"] = digest(duplicate_trace(trace, copies, 32))
        doubled = duplicate_trace(synthetic_nersc_trace(name, specs["B"]), 2, 128)
        for compression in (2.0, 8.0, 32.0):
            got[f"{name}/B/x2/c{compression:g}"] = digest(
                compress_trace(doubled, compression)
            )
    assert got == TRACE_DIGESTS
