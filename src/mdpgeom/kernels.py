"""The greedy sweep, the one numeric kernel behind every value-iteration loop.

``greedy_sweep_model`` scores, per state, each attached SAP as

    q(a) = reward(a) + scale * dot(probs(a), v)

and returns the per-state maximum together with the first SAP index
attaining it (ties go to the lowest SAP index). Callers supply ``scale``
(gamma for classical updates, gamma/C for updates on the geometric values)
and apply their own constant shifts, which do not change the argmax.
"""

from __future__ import annotations

import numpy as np


def greedy_sweep_model(model, scale, v):
    """Per-state max of reward + scale * probs @ v, plus the greedy SAP ids."""
    order = model.state_order
    starts, seg, positions = model._sweep_segments
    v = np.asarray(v, dtype=np.float64)
    q = model.sap_rewards + float(scale) * (model.sap_probs @ v)
    qs = q[order]
    maxq = np.maximum.reduceat(qs, starts)
    # first position in each segment attaining the segment max; segments are
    # ascending SAP index, so this is the lowest-index tie-break
    pos = np.where(qs == maxq[seg], positions, positions.shape[0])
    first = np.minimum.reduceat(pos, starts)
    return maxq, order[first]
