"""Multi-wafer datacenter network simulation.

Composes N waferscale switches (each a cycle-accurate
:mod:`repro.netsim` instance) into a leaf/spine folded-Clos DCN and
simulates them as partitions synchronized by a conservative epoch
barrier — see :mod:`repro.dcn.sim` and docs/dcn.md.

The three re-exports below exist only because the benchmark harness
(``perfbench/workloads.py``) imports them from the package; everything
else imports from the defining module (docs/architecture.md).
"""

from repro.dcn.fabric import DCNShape
from repro.dcn.sim import DCNConfig, run_dcn

__all__ = ["DCNConfig", "DCNShape", "run_dcn"]
