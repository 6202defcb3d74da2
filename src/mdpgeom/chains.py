"""Structure of finite Markov chains: closed classes, primitivity, stationary law.

Two independent unichain tests live here on purpose. classify_chain reads
the closed classes off the reachability closure of the support digraph;
unichain_by_invertibility decides the same question numerically from the
pivots of I + E - P. Their agreement on every stochastic matrix is
a core verified property of the package, so neither may be implemented in
terms of the other.

Reachability is decided here alone, along one edge rule: i -> j iff
p[i, j] > 0. The closed classes come from a squaring closure
(``_classify``), which takes O(log diameter) matrix products; every other
reachability question, the primitivity test's levels and the gamma = 1
search's classes, paths and ties in ``geometry``, is one breadth-first
search (``_levels``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPrimitiveError, NotUnichainError
from .linalg import is_invertible

STOCHASTIC_TOL = 1e-12


@dataclass(frozen=True)
class ChainClassification:
    """Closed-class count, transient states, and the unichain verdict."""

    closed_class_count: int
    transient_states: frozenset
    is_unichain: bool


@dataclass(frozen=True)
class PrimitivityCertificate:
    """Smallest exponent with an entrywise-positive kernel power.

    ``omega`` is the minimum entry of that power; ``exponent`` never exceeds
    the Wielandt bound n^2 - 2n + 2.
    """

    exponent: int
    omega: float


def check_stochastic(p: np.ndarray) -> np.ndarray:
    """Return ``p`` as a float64 array, raising ValueError if not row-stochastic."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {p.shape}")
    # written so that NaN, which compares false, fails both tests
    if not np.all(p >= 0.0):
        raise ValueError("matrix has negative or NaN entries")
    sums = p.sum(axis=1)
    bad = ~(np.abs(sums - 1.0) <= STOCHASTIC_TOL)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"row {i} sums to {float(sums[i])!r}, not 1")
    return p


def _stochastic_errors(p: np.ndarray) -> list:
    """check_stochastic's ValueError, or None, for each kernel of a square (k, n, n) stack."""
    # written so that NaN, which compares false, fails both tests
    fine = (p >= 0.0).all(axis=(1, 2)) & (np.abs(p.sum(axis=-1) - 1.0) <= STOCHASTIC_TOL).all(axis=-1)
    errors = [None] * len(p)
    if not fine.all():
        for i in (~fine).nonzero()[0].tolist():
            try:
                check_stochastic(p[i])
            except ValueError as exc:
                errors[i] = exc
    return errors


def classify_chain(p: np.ndarray) -> ChainClassification:
    """Count closed classes of ``p`` from the reachability of its support digraph.

    An edge i -> j exists iff p[i, j] > 0 (exact, inputs are model data).
    State i is recurrent iff every state it reaches reaches i back; the
    states a recurrent state reaches form its closed class, and the other
    states are transient. Unichain means exactly one closed class.
    """
    count, recurrent = _classify(check_stochastic(p))
    return ChainClassification(
        closed_class_count=int(count),
        transient_states=frozenset(np.flatnonzero(~recurrent).tolist()),
        is_unichain=bool(count == 1),
    )


def _classify(p: np.ndarray) -> tuple:
    """Closed-class counts (...) and recurrent-state masks (..., n) of a stack of
    row-stochastic kernels (..., n, n), such as rows of a validated model. Only the
    support p > 0 is read, so a boolean mask of the edges serves as well."""
    n = p.shape[-1]
    # reflexive-transitive closure of each support by repeated squaring, at most
    # ceil(log2 n) + 1 products. Products of 0/1 matrices stay <= n, so float32
    # is exact up to n = 2^24; supports only grow, so an unchanged count over the
    # whole stack is the fixed point of every kernel in it. Each square is
    # signed in place.
    r = (p > 0.0).astype(np.float32)
    np.einsum("...ii->...i", r)[...] = 1.0  # a writeable view of each diagonal
    size, last = np.count_nonzero(r), -1
    while size != last:
        r = r @ r
        np.sign(r, out=r)
        size, last = np.count_nonzero(r), size
    reach = r > 0.0
    # i is recurrent iff every state it reaches reaches it back
    recurrent = np.all(reach <= np.swapaxes(reach, -2, -1), axis=-1)
    # a recurrent state reaches exactly its class: count each class at its lowest state
    closed = recurrent & (reach.argmax(axis=-1) == np.arange(n))
    return closed.sum(axis=-1), recurrent


def unichain_by_invertibility(p: np.ndarray) -> bool:
    """Unichain test via invertibility of I + E - P (E the all-ones matrix)."""
    p = check_stochastic(p)
    n = p.shape[0]
    m = np.eye(n) + np.ones((n, n)) - p
    return is_invertible(m)


def primitivity_certificate(p: np.ndarray) -> PrimitivityCertificate:
    """Smallest N with p^N entrywise positive, and the minimum entry of p^N.

    A positive power exists iff the support digraph is irreducible and
    aperiodic, which is decided first, without matrix products; only such
    kernels multiply float powers, left to right, up to the exponent.
    Raises NotPrimitiveError for a reducible or periodic kernel, and when
    no power within the Wielandt bound n^2 - 2n + 2 is positive in floating
    point. The one-kernel case of ``_certificates``, after a breadth-first
    search toward state 0.
    """
    p = check_stochastic(p)
    back = _levels((p > 0.0).T.astype(np.float32), (np.arange(len(p)) == 0)[None]).min() >= 0
    cert = _certificates(p[None], np.array([back]))[0]
    if isinstance(cert, NotPrimitiveError):
        raise cert
    return cert


def _certificates(p: np.ndarray, back: np.ndarray) -> list:
    """primitivity_certificate of each kernel of a checked (k, n, n) stack, in lockstep:
    a PrimitivityCertificate, or the NotPrimitiveError it raises, per kernel.

    ``back[i]`` says whether every state of kernel i reaches state 0, which
    with one breadth-first search from state 0 decides irreducibility; a
    caller that knows a kernel's closed classes passes whether it is
    irreducible. The power loop multiplies the stack of the irreducible
    aperiodic kernels, one matrix product per row as a lone power's, and a
    row leaves at its exponent.
    """
    k, n = len(p), p.shape[-1]
    support = p > 0.0
    level = _levels(support.astype(np.float32), np.broadcast_to(np.arange(n) == 0, (k, 1, n)))[:, 0]
    # the period is the gcd of level[u] + 1 - level[v] over the edges u -> v
    # (Denardo 1977); every cycle's length is a sum of these terms. Each
    # stochastic row has an edge, so every kernel's edges start a segment.
    row, u, v = np.nonzero(support)
    period = np.gcd.reduceat(level[row, u] + 1 - level[row, v], np.searchsorted(row, np.arange(k)))
    irreducible = back & (level.min(axis=1) >= 0)
    primitive = irreducible & (period == 1)  # until a power says otherwise
    out = [
        None if primitive[i]
        else NotPrimitiveError(f"kernel has period {period[i]}" if irreducible[i] else "kernel is not irreducible")
        for i in range(k)
    ]
    rows = primitive.nonzero()[0]
    bound = wielandt_bound(n)
    base = power = p if rows.size == k else p[rows]  # no power is written in place
    for exponent in range(1, bound + 1):
        positive = (power > 0.0).all(axis=(1, 2))
        if positive.any():
            for j in positive.nonzero()[0].tolist():
                out[rows[j]] = PrimitivityCertificate(exponent=exponent, omega=float(power[j].min()))
            rows, base, power = rows[~positive], base[~positive], power[~positive]
        if not rows.size or exponent == bound:
            break
        power = power @ base
    for i in rows.tolist():
        out[i] = NotPrimitiveError(f"no entrywise-positive power up to the Wielandt bound {bound}")
    return out


def wielandt_bound(n: int) -> int:
    """n^2 - 2n + 2: a primitive n-state kernel has an entrywise-positive power at most this."""
    return n * n - 2 * n + 2


def _levels(adj: np.ndarray, start: np.ndarray, barred: np.ndarray | bool = False) -> np.ndarray:
    """Breadth-first distance along the 0/1 float32 edges ``adj``, one (n, n) digraph or a
    (k, n, n) stack, from the states each row of ``start`` (..., s, n) masks; -1 where
    unreached. The search never enters the states ``barred`` masks and takes one matrix
    product per level, whose counts stay <= n, exact in float32 up to n = 2^24. The seen
    mask grows in place, so a stacked ``start`` must already have its full (k, s, n) shape."""
    seen = start | barred
    level = np.where(start, 0, -1)
    frontier, d = start.astype(np.float32), 0
    while True:
        d += 1
        new = (frontier @ adj > 0.0) & ~seen
        if not new.any():
            return level
        level[new] = d
        seen |= new
        frontier = new.astype(np.float32)


def stationary_distribution(p: np.ndarray) -> np.ndarray:
    """The unique row vector mu >= 0 with mu @ p = mu and sum 1.

    Solves (P^T - I) stacked with the normalization row in the least-squares
    sense; for a unichain kernel the stacked system has a unique solution.
    Raises NotUnichainError on multichain input.
    """
    p = check_stochastic(p)
    if not classify_chain(p).is_unichain:
        raise NotUnichainError("stationary distribution requires a unichain kernel")
    return _stationary(p)


def _stationary(p: np.ndarray) -> np.ndarray:
    """The stationary solve and its residual check, for a checked unichain ``p``."""
    n = p.shape[0]
    a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    mu, *_ = np.linalg.lstsq(a, b, rcond=None)
    mu = np.where(np.abs(mu) < 1e-13, 0.0, mu)
    mu = mu / mu.sum()
    residual = float(np.max(np.abs(mu @ p - mu)))
    if residual > 1e-10 or np.any(mu < 0.0):
        raise NotUnichainError(
            f"stationary solve residual {residual:.3e} exceeds 1e-10"
        )
    return mu
