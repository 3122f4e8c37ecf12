"""The compiled kernel's loader under its former netsim import path.

The kernel and :func:`load_kernel` live in :mod:`repro.ckernel`; this
module re-exports the loader so that callers naming
``repro.netsim._fast_step`` (the benchmark harness pre-builds the
kernel through ``_fast_step.load_kernel()``) get the same loader and
the same shared object.
"""

from repro.ckernel import load_kernel

__all__ = ["load_kernel"]
