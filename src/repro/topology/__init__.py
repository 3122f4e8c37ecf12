"""Logical switch topologies built from sub-switch chiplets.

A :class:`~repro.topology.base.LogicalTopology` is a graph whose nodes
are SSCs and whose edges are bundles of bidirectional 200 Gbps-class
channels. The folded 2-level Clos is the paper's primary topology
(Section IV); mesh, butterfly, flattened butterfly and dragonfly cover
the Section VII discussion (Fig 25).
"""
