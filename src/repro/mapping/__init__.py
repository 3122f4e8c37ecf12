"""Mapping logical topologies onto the physical wafer mesh.

The physical substrate is a near-square grid of chiplet sites with
neighbor links along shared edges. Mapping assigns each logical SSC to a
site; every logical channel is then routed over mesh edges (XY routing,
intermediate chiplets acting as feedthrough repeaters), and external
port channels are routed from the substrate boundary (periphery I/O) or
dropped in place (area I/O). The figure of merit is ``C(M)``: the
maximum channel load on any inter-chiplet edge (Section IV.A), minimized
with the paper's pairwise-exchange heuristic (Algorithm 1).
"""
