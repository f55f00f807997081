"""Exact value iteration over a state space's successor tables.

Every discounted solve in the package runs the one synchronous loop below over
groups of rows; every row outside the groups keeps a pinned boundary value:

  max rows:     v(s) = gamma * max_a v(succ(s, a)), over an (m, K) successor block;
  min rows:     v(s) = gamma * min_a v(succ(s, a));
  follow rows:  v(s) = gamma * v(succ(s)), one frozen successor per row.

Zero-sum games use max and min rows, best-response MDPs max and follow rows;
both start at 0 off the boundary and run to their exact fixpoint. Play is
deterministic and pays only at the capture states, where it stops, with
rewards of one sign, so one side prefers any capture to endless play. Against
that side's optimal positional strategy the other can only choose among
capture paths of distinct rows (a reachable cycle would hold it at 0), so the
k-th sweep, the k-turn value, settles within |S| + 1 sweeps at residual 0.
No solver takes a value tolerance; the greedy positional-equilibrium sweeps in
`equilibria` also stop only at an exact fixpoint or an exact repeat.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergenceError

#: Slack of the first-optimal-action scan, for float noise between branches equal by
#: symmetry. Genuine gaps (gamma^T times a split) can fall below it, e.g. 0.1^13 at
#: gamma 0.1 past 12 turns, and then the scan may pick a worse move (ROADMAP item 3).
TIE_TOL = 1e-12

def _value_iteration(v, gamma, cap, maximize=None, minimize=None, follow=None):
    """Synchronous value iteration on `v`, updated in place.

    Each group is a pair (rows, succ) of indices into `v`: `maximize` and
    `minimize` rows take gamma times the max or min of their (m, K) successor
    block, `follow` rows gamma times their one successor (m,). Every group is
    updated from the same `v`, and the residual is the sup change over the
    updated rows. Stops once a sweep changes nothing, or after `cap` sweeps.
    Returns (values, iterations, residual).
    """
    # blocks are gathered as contiguous (K, m) arrays: reducing across K rows
    # runs several times faster than along a short last axis
    groups = [(g[0], g[1] if reduce is None else np.ascontiguousarray(g[1].T), reduce)
              for g, reduce in ((maximize, np.max), (minimize, np.min), (follow, None)) if g is not None]
    rows = np.concatenate([g[0] for g in groups])
    residual = math.inf
    iterations = 0
    for iterations in range(1, cap + 1):
        new = np.concatenate([gamma * (v[succ] if reduce is None else reduce(v[succ], axis=0))
                              for _, succ, reduce in groups])
        residual = float(np.abs(new - v[rows]).max(initial=0.0))
        v[rows] = new
        if residual == 0.0:
            break
    return v, iterations, residual


def _fixpoint(space, fixed, gamma, **groups):
    """Sweeps from 0 on the non-capture rows (`fixed` pins the rest) to the
    exact fixpoint; NonConvergenceError if still moving after |S| + 1 sweeps."""
    values, iterations, residual = _value_iteration(
        np.where(space.is_noncapture, 0.0, fixed), gamma, space.n_states + 1, **groups)
    if residual != 0.0:
        raise NonConvergenceError(f"values still moving after {iterations} sweeps")
    return values, iterations, residual


def solve_zero_sum(space, fixed, gamma, max_mask):
    """Exact value of the zero-sum game whose `max_mask` rows maximize and the
    rest minimize, with boundary `fixed`. Returns (values, iterations, residual)."""
    nc = space.is_noncapture
    hi = np.flatnonzero(nc & max_mask)
    lo = np.flatnonzero(nc & ~max_mask)
    return _fixpoint(space, fixed, gamma, maximize=(hi, space.succ[hi]),
                     minimize=(lo, space.succ[lo]))


def solve_mdp(space, fixed, gamma, free_mask, frozen_succ):
    """Exact best response: `free_mask` rows maximize, the rest follow
    `frozen_succ` (the successor under the frozen opponents' profile), with
    boundary `fixed`. Returns (values, iterations, residual)."""
    nc = space.is_noncapture
    free = np.flatnonzero(nc & free_mask)
    rest = np.flatnonzero(nc & ~free_mask)
    return _fixpoint(space, fixed, gamma, maximize=(free, space.succ[free]),
                     follow=(rest, frozen_succ[rest]))


def greedy_moves(space, values, rows_mask, maximize=True):
    """First optimal action (ascending vertex order) per state in `rows_mask`.

    Returns a full-length move array, NULL (0) outside the requested rows.
    Padded action slots replicate slot 0, so a first-occurrence scan can never
    pick a padded slot before the identical real one.
    """
    moves = np.zeros(space.n_states, dtype=np.int64)
    rows = np.flatnonzero(rows_mask)
    if rows.size == 0:
        return moves
    gathered = values[space.succ[rows]]
    if maximize:
        best = gathered.max(axis=1)
        pick = (gathered >= best[:, None] - TIE_TOL).argmax(axis=1)
    else:
        best = gathered.min(axis=1)
        pick = (gathered <= best[:, None] + TIE_TOL).argmax(axis=1)
    moves[rows] = space.nbr[space.stay[rows], pick]
    return moves
