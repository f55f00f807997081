"""Exact value iteration over a state space's per-mover turn blocks.

Every discounted solve in the package runs the one synchronous loop below over
groups of rows; every row outside the groups keeps a pinned boundary value:

  max rows:     v(s) = gamma * max_a v(succ(s, a)), over a (K, m) successor block;
  min rows:     v(s) = gamma * min_a v(succ(s, a));
  follow rows:  v(s) = gamma * v(succ(s)), one frozen successor per row.

The max and min groups are per-mover blocks (`StateSpace.turn_block`: one
player's non-capture rows with their successors, gathered once per space), so
the solvers and the greedy scan take players, never row masks.

Zero-sum games use max and min rows, best-response MDPs max and follow rows;
both start at 0 off the boundary and run to their exact fixpoint. Play is
deterministic and pays only at the capture states, where it stops, with
rewards of one sign, so one side prefers any capture to endless play. Against
that side's optimal positional strategy the other can only choose among
capture paths of distinct rows (a reachable cycle would hold it at 0), so the
k-th sweep, the k-turn value, settles within |S| + 1 sweeps at residual 0.
No solver takes a value tolerance; the greedy positional-equilibrium sweeps in
`equilibria` also stop only at an exact fixpoint or an exact repeat. Moves are
read off values by one scan, `greedy_moves`, which keeps the first exact
optimum with no tie slack.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergenceError


def _value_iteration(v, gamma, cap, groups):
    """Synchronous value iteration on `v`, updated in place.

    Each group is a triple (rows, block, rule) indexing `v`: a reduction rule
    (`np.maximum.reduce` or `np.minimum.reduce`) gives a row gamma times that
    reduction of its column of the (K, m) successor `block`; rule None gives it
    gamma times its one successor, block[i] for rows[i]. Every group is updated
    from the same `v`, into two buffers per group allocated once (this sweep's
    values and the last), and the residual is the sup change over the updated
    rows. Stops once a sweep changes nothing, or after `cap` sweeps.
    Returns (values, iterations, residual).
    """
    work = [(rows, block, rule, np.empty(block.shape), (v[rows], np.empty(rows.size)))
            for rows, block, rule in groups]
    residual = math.inf
    iterations = 0
    for iterations in range(1, cap + 1):
        new_at = iterations % 2
        for _, block, rule, gathered, buffers in work:
            new = buffers[new_at]
            if rule is None:
                v.take(block, out=new, mode="clip")  # indices are in range: skip the check
            else:
                v.take(block, out=gathered, mode="clip")
                rule(gathered, axis=0, out=new)
            new *= gamma
        residual = 0.0
        for rows, _, _, _, buffers in work:
            new, change = buffers[new_at], buffers[1 - new_at]  # the last sweep's values go
            v[rows] = new
            np.subtract(new, change, out=change)
            residual = max(residual, float(np.abs(change, out=change).max(initial=0.0)))
        if residual == 0.0:
            break
    return v, iterations, residual


def _fixpoint(space, fixed, gamma, groups):
    """Sweeps from 0 on the non-capture rows (`fixed` pins the rest) to the
    exact fixpoint; NonConvergenceError if still moving after |S| + 1 sweeps."""
    values, iterations, residual = _value_iteration(
        np.where(space.is_noncapture, 0.0, fixed), gamma, space.n_states + 1, groups)
    if residual != 0.0:
        raise NonConvergenceError(f"values still moving after {iterations} sweeps")
    return values, iterations, residual


def solve_zero_sum(space, fixed, gamma, maximizers):
    """Exact value of the zero-sum game whose `maximizers` (players) maximize
    and everyone else minimizes, with boundary `fixed`.
    Returns (values, iterations, residual)."""
    groups = []
    for p in range(1, space.n_players + 1):
        block = space.turn_block(p)
        groups.append((block.rows, block.succ,
                       np.maximum.reduce if p in maximizers else np.minimum.reduce))
    return _fixpoint(space, fixed, gamma, groups)


def solve_mdp(space, fixed, gamma, player, frozen_succ):
    """Exact best response: `player`'s rows maximize, everyone else's follow
    `frozen_succ` (the successor under the frozen opponents' profile), with
    boundary `fixed`. Returns (values, iterations, residual)."""
    free = space.turn_block(player)
    rest = np.concatenate([space.turn_block(p).rows for p in range(1, space.n_players + 1)
                           if p != player])
    return _fixpoint(space, fixed, gamma,
                     [(free.rows, free.succ, np.maximum.reduce), (rest, frozen_succ[rest], None)])


def first_act(act, gathered, target, hit):
    """Per column i of the (K, m) blocks, act[j, i] at the first slot j where
    hit(gathered[j, i], target[i]), which some slot must satisfy. One pass per
    slot row, last to first: faster than a first-true `argmax` down the slots."""
    pick = act[-1].copy()
    for j in range(act.shape[0] - 2, -1, -1):
        np.copyto(pick, act[j], where=hit(gathered[j], target))
    return pick


def greedy_moves(space, values, movers, maximize=True):
    """First optimal action (ascending vertex order) per non-capture state of
    the `movers` (players): the first slot whose successor value equals the
    block's max (or min) exactly. Every move extractor in the package is this
    scan, on float values or on integer keys.

    Returns a full-length move array, NULL (0) outside the requested rows.
    Padded action slots replicate slot 0, so a first-occurrence scan can never
    pick a padded slot before the identical real one.
    """
    moves = np.zeros(space.n_states, dtype=np.int64)
    for p in movers:
        block = space.turn_block(p)
        gathered = values[block.succ]
        best = gathered.max(axis=0) if maximize else gathered.min(axis=0)
        moves[block.rows] = first_act(block.act, gathered, best, np.equal)
    return moves
