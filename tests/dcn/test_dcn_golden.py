"""Pinned DCN outputs: sha256 digests of whole runs, kernel on and off.

Every other DCN test compares one run with another (epochings,
fidelities, repeats). These pin the outputs themselves: a digest of
``parity_signature()`` plus ``to_dict()`` without the wall clock and
engine name, for the CI ``dcn-smoke`` configs, both perfbench ``dcn``
patterns at 108 wafers, two more 108-wafer flow patterns and a run with
sampled failures. Each digest must come back with the C kernel live and
with ``load_kernel()`` returning ``None`` (the scalar paths): a change
to how epochs are stepped may not change what they produce.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import ckernel
from repro.cas import CACHE_DIR_ENV
from repro.dcn.fabric import DCNShape
from repro.dcn.failures import FailureConfig
from repro.dcn.sim import DCNConfig, run_dcn

B2B = DCNConfig(
    shape=DCNShape(n_hosts=16, wafer_radix=16, ssc_radix=8, back_to_back=True),
    duration_cycles=96,
    load=0.06,
    traffic_seed=2,
)
SPINED = DCNConfig(
    shape=DCNShape(n_hosts=32, wafer_radix=16, ssc_radix=8),
    duration_cycles=128,
    load=0.08,
    traffic_seed=4,
)
#: perfbench's DCN_SHAPE: 72 leaf + 36 spine radix-72 wafers.
SCALE = DCNConfig(
    shape=DCNShape(n_hosts=2592, wafer_radix=72, ssc_radix=12),
    duration_cycles=256,
    load=0.03,
    traffic_seed=2,
    fidelity="flow",
)
PERFBENCH = dataclasses.replace(SCALE, fidelity="hybrid", cycle_wafers=(0, 72))

CONFIGS = {
    "b2b": B2B,
    "b2b-lookahead5": dataclasses.replace(B2B, lookahead=5),
    "spined-cycle": SPINED,
    "spined-flow": dataclasses.replace(SPINED, fidelity="flow"),
    "spined-hybrid": dataclasses.replace(
        SPINED, fidelity="hybrid", cycle_wafers=(0, 5)
    ),
    "scale-uniform": dataclasses.replace(PERFBENCH, pattern="uniform"),
    "scale-dp_allreduce": dataclasses.replace(PERFBENCH, pattern="dp_allreduce"),
    "scale-flow-incast": dataclasses.replace(SCALE, pattern="incast"),
    "scale-flow-elephant_mouse": dataclasses.replace(
        SCALE, pattern="elephant_mouse"
    ),
    "scale-flow-uniform-lookahead7": dataclasses.replace(
        SCALE, traffic_seed=5, lookahead=7
    ),
    "spined-hybrid-failures": dataclasses.replace(
        SPINED,
        fidelity="hybrid",
        cycle_wafers=(0, 5),
        lookahead=7,
        # 5 dead SSCs (dead hosts, unroutable packets) and 4 dead links
        failures=FailureConfig(
            seed=1, ssc_area_mm2=100.0, link_failure_prob=0.2
        ),
    ),
}

#: Recorded with the per-packet epoch loop (heaps, FlowWaferNode).
GOLDEN = {
    "b2b": "6fed781122e0fb49e4feed060092a759777fc2ee5fcb8dc96745db34a658d667",
    "b2b-lookahead5": "e2cbf478819814b162d646c960183ae912965e30f2832892208ddb726597b179",
    "scale-dp_allreduce": "3c435284efa8fbf68fc1db397c36775cd4f7fbae2979a8c1dcf8dd43938b5537",
    "scale-flow-elephant_mouse": "0d54babe9489ca3f5020606b180eaad9807aad4600c71f96246b8d7ebf772353",
    "scale-flow-incast": "4b6e123fe7f11462d6a7b787657d4c5aea9f7013718a9583ab8885397c7a4ba8",
    "scale-flow-uniform-lookahead7": "1908fa824a13b51703f15ceccfc625c0df2dfa735184f71852f4cf8c4fa43a6e",
    "scale-uniform": "c295abc9fce6b6194c27431287370ce11782a153be4246e1dc7efe6d144d175e",
    "spined-cycle": "8c4b95877e9ada848ed060fe4f71fdc7cc862ac7dddfeea117763bdcf46d8c7d",
    "spined-flow": "cb781b2681b616eb3dc244ef558107aeffcbcbc52a819e63757d25b3662845e6",
    "spined-hybrid": "ec381571722fac6772c8d1a0f4df67e2d419cc246a077664ab2b23544b3ce6bb",
    "spined-hybrid-failures": "7892263f1ad7863193053ec583c2e32838a7f5e4f669d2aa8a37e9ce5df950a0",
}


def digest(result) -> str:
    summary = result.to_dict()
    summary.pop("wall_seconds")
    summary.pop("engine")
    payload = {"signature": result.parity_signature(), "summary": summary}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def curve_cache(tmp_path_factory):
    """One curve cache for the module: calibrate each wafer class once."""
    return str(tmp_path_factory.mktemp("dcn_golden_cache"))


@pytest.mark.parametrize("kernel", ["kernel", "no-kernel"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dcn_golden_digest(name, kernel, curve_cache, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, curve_cache)
    if kernel == "no-kernel":
        monkeypatch.setattr(ckernel, "load_kernel", lambda: None)
    result = run_dcn(CONFIGS[name])
    assert not result.truncated
    assert digest(result) == GOLDEN[name]
