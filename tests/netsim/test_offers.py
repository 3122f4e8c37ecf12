"""The one offer-table check, held on every way rows enter a network.

A malformed row raises the same ``ValueError`` on both engines, before
either runs: the kernel indexes its per-terminal arrays with the row's
terminal ids unchecked, and the scalar oracle resolves a negative id
from the other end of its terminal list.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from tests.netsim.engines import ENGINES

from repro.netsim.mesh_network import mesh_network
from repro.netsim.network import check_offers
from repro.netsim.partition import WaferPartition
from repro.netsim.trace import replay_trace

#: One well-formed row on a 16-terminal mesh, then one field broken;
#: the error names the first malformed row, so ``GOOD`` passes.
GOOD = (0, 3, 9, 2)
MALFORMED = {
    "src_past_end": (0, 16, 9, 2),
    "src_negative": (0, -1, 9, 2),
    "dst_past_end": (0, 3, 16, 2),
    "dst_negative": (0, 3, -1, 2),
    "src_is_dst": (0, 3, 3, 2),
    "cycle_negative": (-1, 3, 9, 2),
    "size_zero": (0, 3, 9, 0),
}


def _mesh():
    return mesh_network(4, 4, 1)


def _names(case):
    return re.escape(str(list(MALFORMED[case])))


@pytest.mark.parametrize("engine", ENGINES.values())
@pytest.mark.parametrize("case", MALFORMED)
def test_replay_rejects_malformed_rows(engine, case):
    network = _mesh()
    with pytest.raises(ValueError, match=_names(case)):
        replay_trace(network, [GOOD, MALFORMED[case]], engine=engine)
    assert network.cycle == 0


@pytest.mark.parametrize("engine", ENGINES.values())
@pytest.mark.parametrize("case", MALFORMED)
def test_partition_rejects_malformed_rows(engine, case):
    partition = WaferPartition(_mesh(), engine=engine)
    with pytest.raises(ValueError, match=_names(case)):
        partition.enqueue([GOOD, MALFORMED[case]], [0, 1])
    # Nothing was scheduled: the epoch offers nothing.
    *_, counters = partition.advance(8)
    assert counters["offered_packets"] == 0


@pytest.mark.parametrize("shape", [(4,), (2, 3), (1, 4, 1)])
def test_rows_must_be_four_columns(shape):
    with pytest.raises(ValueError, match="must be"):
        check_offers(np.ones(shape, dtype=np.int64), 16)


def test_empty_table_is_well_formed():
    for rows in ([], np.zeros((0, 4), dtype=np.int64)):
        checked = check_offers(rows, 16)
        assert checked.shape == (0, 4) and checked.dtype == np.int64
