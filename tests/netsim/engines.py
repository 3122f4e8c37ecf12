"""Engine names shared by the parity and differential suites.

Two implementations produce bit-identical runs: the scalar object
simulator (the oracle, ``engine="scalar"``) and the vectorized engine
driven by the compiled C kernel (``engine="c"``; on a host without a
C toolchain it declines and the scalar oracle runs, so both legs then
pin the oracle against itself). Tests pass these names to
``Simulator.run`` / ``replay_trace`` to drive the same scenario
through every engine from one process.
"""

#: test label -> ``engine=`` value, for parametrized cross-engine runs.
ENGINES = {
    "scalar": "scalar",
    "compiled": "c",
}
