"""The greedy sweep, the numeric kernel behind every value-iteration loop.

``greedy_sweep_model`` scores, per state, each attached SAP as

    q(a) = reward(a) + scale * dot(probs(a), v)

and returns the per-state maximum together with the first SAP index
attaining it (ties go to the lowest SAP index). Callers supply ``scale``
(gamma for classical updates, gamma/C for updates on the geometric values)
and apply their own constant shifts, which do not change the argmax.
``greedy_sweep`` runs that sweep row by row on a stack of models that share
``n`` and the SAP layout, writing the SAP ids into a given array, or into
none when only the maxima are wanted: a run that records spans only (a
sweep trial, ``converge``'s raw run) then gathers and writes no SAP ids. A
lone model is a stack of one, whose arrays are viewed, not copied.
Advantage value iteration (``convergence._run_stack``) makes one call per
step for all its rows: the one row of a ``converge`` run, or every trial of
a sweep chunk, drawn and planned together. ``greedy_sweep_model`` serves
``vi_step`` alone; ``classic`` takes its maxima itself, so its oracle shares
no sweep. Howard's loop (``geometry._howard``) selects through ``_select``
too.

Scores are gathered through the model's ``_sweep_blocks``, tables whose rows
list one state's SAPs ascending, padded with its first SAP: a row's first
maximal column is the lowest-index SAP, and the maximum is read there, so a
tie of 0.0 and -0.0 keeps that SAP's sign. A stack gathers the same way from
its flattened ``(k, m)`` scores, row j's table offset by j*m
(``_stack_tables``), and every selection goes through ``_select``. A layout
whose states all hold one SAP count has one block, which lists every state
in order, so its maxima are the result as read, with no scatter.
"""

from __future__ import annotations

import numpy as np


def greedy_sweep_model(model, scale, v):
    """Per-state max of reward + scale * probs @ v, plus the greedy SAP ids."""
    greedy = np.empty(model.n, dtype=np.int64)
    v = np.asarray(v, dtype=np.float64)
    probs, rewards = model.sap_probs[None], model.sap_rewards[None, :, None]
    maxq = greedy_sweep(probs, rewards, float(scale), v[None], model._sweep_blocks, greedy)
    return maxq[0], greedy


def greedy_sweep(probs, rewards, scale, v, tables, greedy):
    """The per-state maxima of ``rewards + scale * probs @ v`` on each row of a
    stack: (k, n) maxima, with row j's greedy SAP ids written into the 1-D
    int64 ``greedy`` from j*n on, unless it is None.

    A stack of k models passes (k, m, n) ``probs``, (k, m, 1) ``rewards``, a
    (k, n) ``v`` and the stack's ``_stack_tables``. ``np.matmul`` runs each
    row's matrix-vector product as ``probs[j] @ v[j]`` does, and
    ``q *= scale; q += rewards`` rounds as ``rewards + scale * q``.
    """
    q = probs @ v[..., None]
    q *= scale
    q += rewards
    return _select(q.reshape(-1), tables, v.size, greedy).reshape(v.shape)


def _select(q, tables, size, greedy):
    # the ``size`` maxima of the 1-D scores q gathered through ``tables``, with
    # their first maximal SAP ids set in the 1-D ``greedy`` unless it is None:
    # the ``_sweep_blocks`` of a stack of one, whose gather positions are the
    # SAP ids, or a taller stack's, which list the ids last. The scores are gathered and the
    # results set by indexing, which costs less per call than take and put at
    # these sizes; take reads the flat positions of the maxima. One block
    # lists every state in order, so its maxima are returned as taken.
    maxq = np.empty(size) if len(tables) > 1 else None
    for at_states, row_starts, gather, *ids in tables:
        qt = q[gather]
        at = qt.argmax(axis=-1)
        at += row_starts  # flat position of each row's first maximum
        if greedy is not None:
            greedy[at_states] = (ids[0] if ids else gather).take(at)
        if maxq is None:
            return qt.take(at)
        maxq[at_states] = qt.take(at)
    return maxq


def _stack_tables(model, k):
    """``model._sweep_blocks`` for a stack of k models with its SAP layout.

    Per block, the flat positions of the block's states in a (k, n) result,
    the flat start of each table row, the positions of the table entries in
    the flattened (k, m) scores, and the SAP ids: row j's positions are
    offset by j*n and j*m. Row j is the same in a stack of any height, so
    ``_first_rows`` serves a stack cut down to its first rows. A stack of one
    uses its model's ``_sweep_blocks`` as they are: their gather positions
    are the SAP ids, which ``_select`` reads there when a block lists none.
    """
    if k == 1:
        return model._sweep_blocks
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
    """The stack tables of the first k rows of a stack of more than k."""
    return tuple(tuple(a[:k] for a in block) for block in tables)
