"""Strategy profiles: positional maps, threat automata, and named constructions.

A profile answers two questions during play: what does the mover do at this
state, and how does the profile's internal mode react to an observed move.
Positional profiles have no mode (None); threat profiles carry a shared
cooperate/punish automaton; the non-capturing construction tracks which
pursuer moved first. Modes are hashable so simulation can certify infinite
play by (state, mode) revisit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllegalMoveError
from .states import NULL_MOVE, StateSpace


def validate_moves(space: StateSpace, moves: np.ndarray) -> None:
    """Every prescribed move must lie in the mover's closed neighborhood."""
    nc = np.flatnonzero(space.is_noncapture)
    ok = (space.act[nc] == moves[nc, None]) & space.slot_mask()[nc]
    bad = nc[~ok.any(axis=1)]
    if bad.size:
        idx = int(bad[0])
        raise IllegalMoveError(
            f"move {int(moves[idx])} is illegal at state {space.state_at(idx)!r}"
        )


class PositionalProfile:
    """One action per non-capture state for whoever moves there."""

    def __init__(self, space: StateSpace, moves: np.ndarray, validate: bool = True):
        self.space = space
        self.move = np.asarray(moves, dtype=np.int64)
        if validate:
            validate_moves(space, self.move)

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
    moves = np.zeros(space.n_states, dtype=np.int64)
    for player, arr in enumerate(per_player, start=1):
        rows = space.is_noncapture & (space.mover == player)
        moves[rows] = arr[rows]
    return moves


COOPERATIVE = "coop"


@dataclass
class ThreatProfile:
    """Cooperative positional parts plus per-deviator punishment parts.

    The shared mode starts cooperative and switches, irrevocably, to
    ("punish", m) the first time player m's observed move differs from his
    cooperative part. A punished deviator's own rows hold his cooperative move
    (he is free anyway; this only matters when simulating him un-deviated).
    """

    space: StateSpace
    cooperative: PositionalProfile
    punishments: dict  # deviator -> PositionalProfile
    kind: str = "threat"

    def initial_mode(self):
        return COOPERATIVE

    def prescribed(self, idx: int, mode) -> int:
        if mode == COOPERATIVE:
            return self.cooperative.prescribed(idx)
        return self.punishments[mode[1]].prescribed(idx)

    def observe(self, idx, mover, action, mode):
        if mode == COOPERATIVE and self.space.is_noncapture[idx] \
                and action != int(self.cooperative.move[idx]):
            return ("punish", int(mover))
        return mode


def greedy_cop_moves(space: StateSpace, cop: int) -> np.ndarray:
    """Single-minded pursuit for one pursuer: step to the neighbor (or stay)
    closest to the evader's current vertex, lowest vertex id on ties."""
    g = space.graph
    moves = np.zeros(space.n_states, dtype=np.int64)
    rows = np.flatnonzero(space.is_noncapture & (space.mover == cop))
    robber = space.positions[rows, -1]
    here = space.positions[rows, cop - 1]
    for i, s in enumerate(rows):
        target_dist = g.distances_from(int(robber[i]))
        options = g.closed_neighborhood(int(here[i]))
        moves[s] = min(options, key=lambda a: (target_dist[a], a))
    return moves


def random_profile(space: StateSpace, rng: np.random.Generator) -> PositionalProfile:
    """Uniformly random legal move at every non-capture state."""
    moves = np.zeros(space.n_states, dtype=np.int64)
    nc = np.flatnonzero(space.is_noncapture)
    slot = rng.integers(0, space.acount[nc])
    moves[nc] = space.act[nc, slot]
    return PositionalProfile(space, moves, validate=False)


ALL_STAY = 0


@dataclass
class NonCapturingProfile:
    """The stacked-pursuers construction: no one moves until a pursuer breaks rank.

    Pursuers stay while all of them share a vertex; a separated pursuer walks a
    shortest path toward the lowest-indexed pursuer standing elsewhere, so any
    lone wanderer is chased down by the rest moving as one stack. The evader
    stays put until the first pursuer move, then plays the exact one-pursuer
    evasion keyed to whichever pursuer moved first.

    Mode: ALL_STAY, or the index of the first pursuer observed moving.
    """

    space: StateSpace
    merge_moves: np.ndarray  # dense; valid on pursuer-mover rows
    evade_move: np.ndarray  # (V+1, V+1): evasion move given (tracked cop vertex, own vertex)
    s0_index: int

    def initial_mode(self):
        return ALL_STAY

    def prescribed(self, idx: int, mode) -> int:
        space = self.space
        if not space.is_noncapture[idx]:
            return NULL_MOVE
        mover = int(space.mover[idx])
        if mover < space.n_players:
            return int(self.merge_moves[idx])
        own = int(space.positions[idx, -1])
        if mode == ALL_STAY:
            return own
        tracked = int(space.positions[idx, mode - 1])
        return int(self.evade_move[tracked, own])

    def observe(self, idx, mover, action, mode):
        space = self.space
        if mode == ALL_STAY and space.is_noncapture[idx] and mover < space.n_players \
                and action != int(space.positions[idx, mover - 1]):
            return int(mover)
        return mode


def merge_cop_moves(space: StateSpace) -> np.ndarray:
    """Dense pursuer moves for the non-capturing construction."""
    g = space.graph
    ncops = space.n_players - 1
    moves = np.zeros(space.n_states, dtype=np.int64)
    for cop in range(1, ncops + 1):
        rows = np.flatnonzero(space.is_noncapture & (space.mover == cop))
        for s in rows:
            pos = space.positions[s]
            here = int(pos[cop - 1])
            apart = [c for c in range(1, ncops + 1) if c != cop and int(pos[c - 1]) != here]
            if not apart:
                moves[s] = here
                continue
            target = int(pos[apart[0] - 1])
            dist = g.distances_from(target)
            moves[s] = min(a for a in g.closed_neighborhood(here) if dist[a] == dist[here] - 1)
    return moves
