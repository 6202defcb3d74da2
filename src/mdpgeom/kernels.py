"""The greedy sweep, the one numeric kernel behind every value-iteration loop.

``greedy_sweep_model`` scores, per state, each attached SAP as

    q(a) = reward(a) + scale * dot(probs(a), v)

and returns the per-state maximum together with the first SAP index
attaining it (ties go to the lowest SAP index). Callers supply ``scale``
(gamma for classical updates, gamma/C for updates on the geometric values)
and apply their own constant shifts, which do not change the argmax.
``greedy_by_state`` selects the same way from given scores, such as advantages.

Scores are gathered through the model's ``_sweep_blocks``, tables whose rows
list one state's SAPs ascending, padded with its first SAP: a row's first
maximal column is the lowest-index SAP, and the maximum is read there, so a
tie of 0.0 and -0.0 keeps that SAP's sign.
"""

from __future__ import annotations

import numpy as np


def greedy_sweep_model(model, scale, v):
    """Per-state max of reward + scale * probs @ v, plus the greedy SAP ids."""
    return greedy_by_state(
        model, model.sap_rewards + float(scale) * (model.sap_probs @ np.asarray(v, dtype=np.float64))
    )


def greedy_by_state(model, q):
    """Per-state max of the per-SAP scores ``q``, plus the first SAP id attaining it."""
    maxq, greedy = np.empty(model.n), np.empty(model.n, dtype=np.int64)
    for states, row_starts, table in model._sweep_blocks:
        qt = q[table]
        at = qt.argmax(axis=1) + row_starts  # flat position of each row's first maximum
        maxq[states], greedy[states] = qt.take(at), table.take(at)
    return maxq, greedy

