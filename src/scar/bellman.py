"""Exact value iteration over a state space's per-mover turn blocks.

Every discounted solve in the package runs the one Gauss-Seidel loop below over
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
capture paths of distinct rows (a reachable cycle would hold it at 0), so
synchronous sweeps, the k-th giving the k-turn value, settle within |S| + 1
sweeps at residual 0. The solvers sweep the movers in reverse turn order, N
down to 1: a mover-p row's successors have mover p + 1 or are pinned, so a
sweep carries values back N turns. The backup is monotone in floats and rows
start at 0, on the near side of the fixpoint, so each iterate lies between the
synchronous one and the fixpoint: the same fixpoint, bit for bit, in no more
sweeps. No solver takes a value tolerance; the greedy positional-equilibrium
sweeps in `equilibria` also stop only at an exact fixpoint or an exact repeat.
Every move is a block's first exact optimum (`first_act`), with no tie slack.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergenceError


def _value_iteration(v, gamma, cap, groups):
    """Gauss-Seidel value iteration on `v`, updated in place.

    Each group is a triple (rows, block, rule) indexing `v`: a reduction rule
    (`np.maximum.reduce` or `np.minimum.reduce`) gives a row gamma times that
    reduction of its column of the (K, m) successor `block`; rule None gives it
    gamma times its one successor, block[i] for rows[i]. A sweep updates the
    groups in order, each into two buffers of its own (this sweep's values and
    the last). Each group must read only pinned rows and the group updated just
    before it (the last, for the first): so once an update after the first
    sweep changes nothing, no later one can, and the loop stops there; else
    after `cap` sweeps, with the sup change of the last as residual. Returns
    (values, sweeps begun, residual, per group its last gathered block or None).
    """
    work = [(rows, block, rule, None if rule is None else np.empty(block.shape),
             (v[rows], np.empty(rows.size)))
            for rows, block, rule in groups]
    for iterations in range(1, cap + 1):  # cap >= 1
        new_at = iterations % 2
        residual = 0.0
        for rows, block, rule, gathered, buffers in work:
            new, change = buffers[new_at], buffers[1 - new_at]  # the last sweep's values go
            if rule is None:
                v.take(block, out=new, mode="clip")  # indices are in range: skip the check
            else:
                v.take(block, out=gathered, mode="clip")
                rule(gathered, axis=0, out=new)
            new *= gamma
            v[rows] = new
            np.subtract(new, change, out=change)
            step = float(np.abs(change, out=change).max(initial=0.0))
            if step == 0.0 and iterations > 1:
                return v, iterations, 0.0, [w[3] for w in work]
            residual = max(residual, step)
    return v, iterations, residual, [w[3] for w in work]


def _fixpoint(space, fixed, gamma, groups):
    """Sweeps from 0 on the non-capture rows (`fixed` pins the rest) to the
    exact fixpoint; NonConvergenceError if still moving after |S| + 1 sweeps."""
    values, iterations, residual, gathered = _value_iteration(
        np.where(space.is_noncapture, 0.0, fixed), gamma, space.n_states + 1, groups)
    if residual != 0.0:
        raise NonConvergenceError(f"values still moving after {iterations} sweeps")
    return values, iterations, residual, gathered


def solve_zero_sum(space, fixed, gamma, maximizers):
    """Exact value of the zero-sum game whose `maximizers` (players) maximize
    and everyone else minimizes, with boundary `fixed`, and each non-capture
    row's first optimal move (NULL elsewhere), read off each group's last
    gathered block: no later update changed what it gathered, so it holds the
    fixpoint's values. Returns (values, iterations, residual, moves)."""
    order = range(space.n_players, 0, -1)  # reverse turn order
    blocks = [space.turn_block(p) for p in order]
    rules = [np.maximum.reduce if p in maximizers else np.minimum.reduce for p in order]
    values, iterations, residual, gathered = _fixpoint(
        space, fixed, gamma, [(b.rows, b.succ, rule) for b, rule in zip(blocks, rules)])
    moves = np.zeros_like(space.stay)
    for block, rule, last in zip(blocks, rules, gathered):
        moves[block.rows] = first_act(block.act, last, rule(last, axis=0), np.equal)
    return values, iterations, residual, moves


def solve_mdp(space, fixed, gamma, player, frozen_succ):
    """Exact best response: `player`'s rows maximize, everyone else's follow
    `frozen_succ` (the successor under the frozen opponents' profile), with
    boundary `fixed`. Returns (values, iterations, residual)."""
    groups = []
    for p in range(space.n_players, 0, -1):  # reverse turn order
        block = space.turn_block(p)
        groups.append((block.rows, block.succ, np.maximum.reduce) if p == player
                      else (block.rows, frozen_succ[block.rows], None))
    return _fixpoint(space, fixed, gamma, groups)[:3]


def first_act(act, gathered, target, hit):
    """Per column i of the (K, m) blocks, act[j, i] at the first slot j where
    hit(gathered[j, i], target[i]), or act[-1, i] where no slot does. One pass
    per slot row, last to first: faster than a first-true `argmax` down the slots."""
    pick = act[-1].copy()
    for j in range(act.shape[0] - 2, -1, -1):
        np.copyto(pick, act[j], where=hit(gathered[j], target))
    return pick


def greedy_moves(space, keys, maximizers=()):
    """First optimal action (ascending vertex order) at every non-capture
    state: the first slot whose successor key equals the block's max exactly
    (`first_act`) where a player in `maximizers` moves, its min elsewhere.
    `keys` holds float values or integer keys, one (n_states,) array for every
    mover or an (N, n_states) table whose row p - 1 is mover p's.

    Returns a full-length move array in the dtype of `space.stay`, NULL (0)
    off the non-capture rows. Padded action slots replicate slot 0, so a
    first-occurrence scan can never pick a padded slot before the identical real one.
    """
    moves = np.zeros_like(space.stay)
    for p in range(1, space.n_players + 1):
        block = space.turn_block(p)
        gathered = (keys[p - 1] if keys.ndim == 2 else keys)[block.succ]
        best = gathered.max(axis=0) if p in maximizers else gathered.min(axis=0)
        moves[block.rows] = first_act(block.act, gathered, best, np.equal)
    return moves
