"""Cycle-accurate network simulator (a from-scratch Booksim2 equivalent).

Implements the simulation infrastructure behind the paper's Section VI
performance study: input-queued routers with the four-stage pipeline of
Fig 20 (route computation, VC allocation, switch allocation, switch
traversal), virtual channels with credit-based flow control, shared
input buffering, configurable per-stage delays, synthetic traffic
patterns, and trace replay.

One simulation cycle corresponds to 20 ns, matching the paper's
convention (so an SSC delay of 11 cycles is 220 ns, and the 200 ns
"equivalent delay" of Fig 21 is 10 cycles).
"""
