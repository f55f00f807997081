"""Strategy profiles: positional maps, threat automata, and named constructions.

A profile answers two questions during play: what does the mover do at this
state, and how does the profile's internal mode react to an observed move.
Positional profiles have no mode (None); threat profiles carry a shared
cooperate/punish automaton over plain move arrays, which also covers the
stacked-pursuers non-capturing construction. Modes are hashable so
simulation can certify infinite play by (state, mode) revisit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bellman
from .errors import IllegalMoveError
from .states import NULL_MOVE, StateSpace


def validate_moves(space: StateSpace, moves: np.ndarray) -> None:
    """Every prescribed move must lie in the mover's closed neighborhood."""
    nc = np.flatnonzero(space.is_noncapture)
    # padded slots repeat slot 0, so they admit no extra move
    ok = (space.nbr[space.stay[nc]] == moves[nc, None]).any(axis=1)
    bad = nc[~ok]
    if bad.size:
        idx = int(bad[0])
        raise IllegalMoveError(
            f"move {int(moves[idx])} is illegal at state {space.state_at(idx)!r}"
        )


class PositionalProfile:
    """One action per non-capture state for whoever moves there, held as
    given (no cast or copy).

    Moves are not checked here: `validate_moves` checks a whole array, and
    `simulate.run` rejects any illegal move that is played.
    """

    def __init__(self, space: StateSpace, moves: np.ndarray):
        self.space = space
        self.move = np.asarray(moves)

    def initial_mode(self):
        return None

    def prescribed(self, idx: int, mode=None) -> int:
        if not self.space.is_noncapture[idx]:
            return NULL_MOVE
        return int(self.move[idx])

    def observe(self, idx, mover, action, mode):
        return mode


def combine_player_moves(space: StateSpace, per_player: list) -> np.ndarray:
    """Merge per-player move arrays into one dense array keyed by the mover."""
    moves = np.zeros_like(space.stay)
    for player, arr in enumerate(per_player, start=1):
        rows = space.turn_block(player).rows
        moves[rows] = arr[rows]
    return moves


COOPERATIVE = "coop"


@dataclass
class ThreatProfile:
    """Cooperative moves plus per-deviator punishment moves, each a dense
    array over states, held as given (no cast or copy).

    The shared mode starts cooperative and switches, irrevocably, to
    ("punish", m) the first time player m's observed move differs from his
    cooperative move. In that mode everyone else follows punishments[m], and
    m's own rows follow the cooperative moves (he is free anyway; this only
    matters when simulating him un-deviated).
    """

    space: StateSpace
    cooperative: np.ndarray
    punishments: dict  # deviator -> np.ndarray

    def initial_mode(self):
        return COOPERATIVE

    def prescribed(self, idx: int, mode) -> int:
        space = self.space
        if not space.is_noncapture[idx]:
            return NULL_MOVE
        if mode == COOPERATIVE or space.mover[idx] == mode[1]:
            return int(self.cooperative[idx])
        return int(self.punishments[mode[1]][idx])

    def observe(self, idx, mover, action, mode):
        if mode == COOPERATIVE and self.space.is_noncapture[idx] \
                and action != int(self.cooperative[idx]):
            return ("punish", int(mover))
        return mode


def _distance_table(space: StateSpace) -> np.ndarray:
    """(V+1) x (V+1) shortest-path distances between 1-based vertex ids, in the
    vertex dtype (distances are below V); row and column 0 are unused."""
    g = space.graph
    dist = np.zeros((g.vertex_count + 1, g.vertex_count + 1), dtype=space.stay.dtype)
    for v in range(1, g.vertex_count + 1):
        dist[v] = g.distances_from(v)
    return dist


def greedy_cop_moves(space: StateSpace, cop: int) -> np.ndarray:
    """Single-minded pursuit for one pursuer: step to the neighbor (or stay)
    closest to the evader's current vertex, lowest vertex id on ties."""
    key = _distance_table(space)[space.positions[:, cop - 1], space.positions[:, -1]]
    moves = bellman.greedy_moves(space, key)
    moves[space.mover != cop] = NULL_MOVE
    return moves


def random_profile(space: StateSpace, rng: np.random.Generator) -> PositionalProfile:
    """Uniformly random legal move at every non-capture state."""
    moves = np.zeros_like(space.stay)
    nc = np.flatnonzero(space.is_noncapture)
    slot = rng.integers(0, space.acount[nc])
    moves[nc] = space.nbr[space.stay[nc], slot]
    return PositionalProfile(space, moves)


def merge_cop_moves(space: StateSpace) -> np.ndarray:
    """Dense pursuer moves for the non-capturing construction, in the dtype
    of `space.stay` (0 off the pursuers' non-capture rows).

    A pursuer stays while every pursuer shares his vertex; otherwise he steps
    to the lowest vertex one closer to the lowest-indexed pursuer elsewhere.
    Both picks are first hits of `bellman.first_act` down each pursuer's turn
    block, which holds his closed neighbourhood in ascending order.
    """
    dist = _distance_table(space)
    moves = np.zeros_like(space.stay)
    for cop in range(1, space.n_players):
        block = space.turn_block(cop)
        here = space.stay[block.rows]
        cops = space.positions[block.rows, :space.n_players - 1].T
        # the first pursuer elsewhere, else the last pursuer, who stands on `here` too
        target = bellman.first_act(cops, cops, here, np.not_equal)
        # one step closer; a stacked pursuer's target is `here`, 0 steps away
        goal = np.maximum(dist[target, here] - 1, 0)
        moves[block.rows] = bellman.first_act(block.act, dist[target, block.act], goal, np.equal)
    return moves
