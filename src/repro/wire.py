"""Encoding for results crossing process boundaries.

The warm worker pool (:mod:`repro.parallel`) ships each task's result
back to the parent as one pickle at the highest protocol. Tasks
already travel pickled over the same private pipe, so results add no
trust boundary. Both ends always run the same source tree; this is not
a persistence format.

>>> decode(encode((1, 2.5, "three", None)))
(1, 2.5, 'three', None)
"""

from __future__ import annotations

import pickle
from typing import Any


def encode(obj: Any) -> bytes:
    """Pickle ``obj`` for the pipe back to the parent."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def decode(payload: bytes) -> Any:
    """Rebuild the object :func:`encode` produced."""
    return pickle.loads(payload)
