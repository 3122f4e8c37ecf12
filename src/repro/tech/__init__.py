"""Technology models: WSI substrates, I/O schemes, chiplets, power, cooling.

These are the input-parameter layers of the design-space study
(Tables I, II, IV, V of the paper) plus the scaling laws used throughout
(quadratic switch power, link Vdd/frequency scaling, process normalization).
"""
