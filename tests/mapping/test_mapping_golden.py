"""Host-independence golden: pinned ``optimize_mapping`` answers.

Each instance's cost, placement digest, sweep count and accepted-swap
count are pinned. The C kernel must reproduce them, and so must the
scalar oracle, which runs them where the C kernel cannot: on a host
with no C toolchain (CI's ``engine-parity`` job runs this file that
way). ``optimize_mapping(engine="scalar")`` asks for the oracle
directly; ``tests/mapping/test_fast_exchange.py`` holds the two
kernels to the same answers. A changed value here changes every
stored mapping and every paper table built on one.
"""

import hashlib
import json

import pytest

from repro.mapping.exchange import optimize_mapping
from repro.mapping.routing import IOStyle
from repro.topology.clos import folded_clos

#: (ports, I/O style) -> (cost, site_of digest, sweeps, swaps_accepted)
#: for ``optimize_mapping(folded_clos(ports), io_style=..., restarts=2,
#: seed=0)``, the shape ``core.design.cached_mapping`` asks for.
GOLDEN = {
    (1024, IOStyle.PERIPHERY): ((192, 2176), "3fe5e02c8cc4438d", 3, 3),
    (4096, IOStyle.PERIPHERY): ((384, 19136), "8703340453019a89", 6, 35),
    (2048, IOStyle.AREA): ((256, 6240), "74dec617ced0235b", 4, 14),
}


def _digest(site_of) -> str:
    payload = json.dumps([int(s) for s in site_of]).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@pytest.mark.parametrize(
    "ports, io_style", list(GOLDEN), ids=lambda v: getattr(v, "value", v)
)
def test_optimize_mapping_matches_golden(ports, io_style):
    result = optimize_mapping(
        folded_clos(ports), io_style=io_style, restarts=2, seed=0
    )
    assert (
        result.cost(),
        _digest(result.placement.site_of),
        result.sweeps,
        result.swaps_accepted,
    ) == GOLDEN[ports, io_style]
