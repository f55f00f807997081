"""Strategy profiles: one threat automaton over plain move arrays, and named
constructions.

A profile answers two questions during play: what does the mover do at this
state, and how does the profile's shared mode react to an observed move.
`ThreatProfile` is the one automaton: its cooperate/punish mode covers threat
play, the stacked-pursuers non-capturing construction, and positional play,
which punishes no one and so never leaves cooperative mode. Modes are
hashable so simulation can certify infinite play by (state, mode) revisit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bellman
from .states import NULL_MOVE, StateSpace


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
    array over states, held as given (no cast or copy). Moves are not checked
    here: `simulate.run` rejects any illegal move that is played.

    The shared mode starts cooperative and switches, irrevocably, to
    ("punish", m) the first time a player m with an entry in `punishments`
    plays other than his cooperative move. In that mode everyone else follows
    punishments[m], and m's own rows follow the cooperative moves (he is free
    anyway; this only matters when simulating him un-deviated). A profile with
    no punishments never leaves cooperative mode, and so is positional:
    `ThreatProfile(space, moves, {})` plays `moves`.
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
        if mode == COOPERATIVE and mover in self.punishments \
                and self.space.is_noncapture[idx] and action != int(self.cooperative[idx]):
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


def random_profile(space: StateSpace, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random legal move at every non-capture state, as a move array."""
    moves = np.zeros_like(space.stay)
    nc = np.flatnonzero(space.is_noncapture)
    slot = rng.integers(0, space.acount[nc])
    moves[nc] = space.nbr[space.stay[nc], slot]
    return moves


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
