"""The greedy sweep, the numeric kernel behind every value-iteration loop.

``greedy_sweep_model`` scores, per state, each attached SAP as

    q(a) = reward(a) + scale * dot(probs(a), v)

and returns the per-state maximum together with the first SAP index
attaining it (ties go to the lowest SAP index). Callers supply ``scale``
(gamma for classical updates, gamma/C for updates on the geometric values)
and apply their own constant shifts, which do not change the argmax.
``greedy_sweep`` is that sweep on one model's arrays, writing the SAP ids
into a given array, and ``greedy_sweep_stack`` runs it row by row on a stack
of models that share ``n`` and the SAP layout. Advantage value iteration
(``convergence._run_stack``) makes one call of either per step for all its
rows: ``greedy_sweep`` for a lone run (``converge``, a one-trial chunk),
``greedy_sweep_stack`` for a stack cut from one sweep chunk, whose trials
were drawn and planned together. ``greedy_sweep_model`` serves ``vi_step``
and the classical oracles.
Howard's loop (``geometry._howard``) selects from its stack's advantages
through ``_select`` the same way.

Scores are gathered through the model's ``_sweep_blocks``, tables whose rows
list one state's SAPs ascending, padded with its first SAP: a row's first
maximal column is the lowest-index SAP, and the maximum is read there, so a
tie of 0.0 and -0.0 keeps that SAP's sign. A stack gathers the same way from
its flattened ``(k, m)`` scores, row j's table offset by j*m
(``_stack_tables``), and every selection goes through ``_select``.
"""

from __future__ import annotations

import numpy as np


def greedy_sweep_model(model, scale, v):
    """Per-state max of reward + scale * probs @ v, plus the greedy SAP ids."""
    greedy = np.empty(model.n, dtype=np.int64)
    v = np.asarray(v, dtype=np.float64)
    maxq = greedy_sweep(model.sap_probs, model.sap_rewards, float(scale), v, model._sweep_blocks, greedy)
    return maxq, greedy


def greedy_sweep(probs, rewards, scale, v, tables, greedy):
    """The per-state maxima of ``rewards + scale * probs @ v`` for one model's
    (m, n) ``probs`` and 1-D ``rewards`` and ``v``; the greedy SAP ids go into
    the 1-D int64 ``greedy``. ``tables`` are the model's ``_sweep_blocks``.
    ``q *= scale; q += rewards`` rounds as ``rewards + scale * q``.
    """
    q = probs @ v
    q *= scale
    q += rewards
    return _select(q, tables, v.size, greedy)


def greedy_sweep_stack(probs, rewards, scale, v, tables, greedy):
    """greedy_sweep on each row of a stack: (k, n) maxima, with row j's greedy
    SAP ids written into the 1-D ``greedy`` from j*n on.

    A stack of k models passes (k, m, n) ``probs``, (k, m, 1) ``rewards``, a
    (k, n) ``v`` and the stack's ``_stack_tables``. ``np.matmul`` runs each
    row's matrix-vector product as ``probs[j] @ v[j]`` does, so every row is
    greedy_sweep's bit for bit.
    """
    q = probs @ v[..., None]
    q *= scale
    q += rewards
    return _select(q.reshape(-1), tables, v.size, greedy).reshape(v.shape)


def _select(q, tables, size, greedy):
    # the ``size`` maxima of the 1-D scores q gathered through ``tables``, with
    # their first maximal SAP ids set in the 1-D ``greedy``: a lone model's
    # ``_sweep_blocks``, whose gather positions are the SAP ids, or a stack's,
    # which list the ids last. The scores are gathered and the results set by
    # indexing, which costs less per call than take and put at these sizes;
    # take reads the flat positions of the maxima.
    maxq = np.empty(size)
    for at_states, row_starts, gather, *ids in tables:
        qt = q[gather]
        at = qt.argmax(axis=-1)
        at += row_starts  # flat position of each row's first maximum
        maxq[at_states] = qt.take(at)
        greedy[at_states] = (ids[0] if ids else gather).take(at)
    return maxq


def _stack_tables(model, k):
    """``model._sweep_blocks`` for a stack of k models with its SAP layout.

    Per block, the flat positions of the block's states in a (k, n) result,
    the flat start of each table row, the positions of the table entries in
    the flattened (k, m) scores, and the SAP ids: row j's positions are
    offset by j*n and j*m. Row j is the same in a stack of any height, so
    ``_first_rows`` serves a stack cut down to its first rows. A lone model
    uses its ``_sweep_blocks`` as they are.
    """
    m, n = model.m, model.n
    stack = np.arange(k)[:, None]
    out = []
    for states, row_starts, table in model._sweep_blocks:
        rows, width = table.shape
        out.append((
            states + n * stack,
            np.arange(0, k * table.size, width).reshape(k, rows),
            table + m * stack[:, :, None],
            np.broadcast_to(table, (k, rows, width)).copy(),
        ))
    return tuple(out)


def _first_rows(tables, k):
    """The stack tables of the first k rows."""
    return tuple(tuple(a[:k] for a in block) for block in tables)
