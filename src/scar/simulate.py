"""Deterministic play-out of profiles, trace records, and exact payoff evaluation.

A trace stops at the first capture state (the hop to the terminal is implicit),
or certifies non-capture the moment a (state, mode) pair repeats: from there
play is provably periodic, no capture can ever occur, and every payoff is zero.
A turn cap exists only as a safety net for externally supplied strategies.

Whole-space evaluation of positional play needs no play-out at all:
`profile_outcomes` resolves every start at once by pointer doubling over the
profile's successor map, in array operations only, and `exact_profile_values`
turns those outcomes into closed-form payoffs gamma^T * split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllegalMoveError, ValidationError
from .payoffs import GameParams, total_payoff, turn_payoff_matrix
from .states import NULL_MOVE, TERMINAL, StateSpace

CAPTURED = "captured"
CYCLE = "cycle"
TURN_CAP = "turn_cap"


@dataclass
class TraceStep:
    t: int
    mover: int
    action: int
    state_index: int
    mode: object = None


@dataclass
class Trace:
    space: StateSpace
    initial_index: int
    steps: list
    termination: str
    capturing_set: tuple = ()

    @property
    def states(self) -> list:
        """State indices by turn: states[t] is the position after turn t."""
        return [self.initial_index] + [s.state_index for s in self.steps]

    @property
    def capture_time(self):
        return len(self.steps) if self.termination == CAPTURED else math.inf

    def positions_of(self, player: int) -> list:
        return [int(self.space.positions[idx, player - 1]) for idx in self.states]

    def to_json_obj(self) -> list:
        space = self.space
        out = [{"t": 0, "mover": None, "action": None, "state": list(space.state_at(self.initial_index))}]
        for s in self.steps:
            state = space.state_at(s.state_index)
            out.append({
                "t": s.t,
                "mover": s.mover,
                "action": "null" if s.action == NULL_MOVE else s.action,
                "state": "terminal" if state is TERMINAL else list(state),
            })
        return out


def run(space: StateSpace, params: GameParams, profile, s0, turn_cap=None) -> Trace:
    """Play `profile` from s0 until capture, a certified cycle, or the turn cap."""
    return run_with_forced_deviation(space, params, profile, deviator=None,
                                     deviation_plan={}, s0=s0, turn_cap=turn_cap)


def run_with_forced_deviation(space: StateSpace, params: GameParams, profile,
                              deviator, deviation_plan, s0, turn_cap=None) -> Trace:
    """Like `run`, but the deviator plays deviation_plan[t] at the listed turns.

    Everyone else reacts through the profile's own mode automaton, so a threat
    profile switches to punishing exactly one turn after the first observable
    difference. Revisits only certify a cycle once the plan is exhausted. Plan
    entries at turns where someone else moves are ignored, as are entries past
    the end of play.
    """
    if s0 is TERMINAL:
        raise ValidationError("initial state must not be the terminal state")
    idx0 = space._as_index(s0)
    if idx0 == space.terminal_index:
        raise ValidationError("initial state must not be the terminal state")
    if space.is_capture[idx0]:
        return Trace(space, idx0, [], CAPTURED, space.capturing_set(idx0))
    last_plan_turn = max(deviation_plan) if deviation_plan else 0
    mode = profile.initial_mode()
    seen = {(idx0, mode): 0}
    steps = []
    idx = idx0
    t = 0
    while True:
        t += 1
        mover = int(space.mover[idx])
        if deviator is not None and mover == deviator and t in deviation_plan:
            action = deviation_plan[t]
        else:
            action = profile.prescribed(idx, mode)
        if action not in space.actions(idx, mover):
            raise IllegalMoveError(
                f"turn {t}: action {action} illegal for player {mover} at {space.state_at(idx)!r}"
            )
        nxt = space.transition_index(idx, action)
        mode = profile.observe(idx, mover, action, mode)
        steps.append(TraceStep(t, mover, action, nxt, mode))
        idx = nxt
        if space.is_capture[idx]:
            return Trace(space, idx0, steps, CAPTURED, space.capturing_set(idx))
        if t >= last_plan_turn:
            key = (idx, mode)
            if key in seen:
                return Trace(space, idx0, steps, CYCLE)
            seen[key] = t
        if turn_cap is not None and t >= turn_cap:
            return Trace(space, idx0, steps, TURN_CAP)


def payoffs_of(params: GameParams, trace: Trace, exact: bool = False) -> tuple:
    """Per-player discounted totals; requires a capture or a certified cycle."""
    return tuple(total_payoff(params, trace, n, exact=exact)
                 for n in range(1, params.n_players + 1))


# ---------------------------------------------------------------------------
# Exact evaluation of pure positional play over the whole state space.

def profile_outcomes(space: StateSpace, moves: np.ndarray):
    """Where deterministic positional play leads from every state.

    Returns (turns, capture_at): turns[s] is the number of turns until the
    play entering at s first hits a capture state and capture_at[s] is that
    state's index; both are -1 when play provably cycles without capture.

    Pointer doubling over the successor map with capture states and the
    terminal made absorbing: after round k, `jump[s]` is where play stands
    2^k turns after s (or where it was absorbed) and `turns[s]` how many of
    those turns it spent off the absorbing states. Simple paths are shorter
    than the state count, so ceil(log2(n_states)) rounds settle every play.
    """
    jump = space.succ_of_moves(moves)
    cap_rows = np.flatnonzero(space.is_capture)
    jump[cap_rows] = cap_rows
    turns = space.is_noncapture.astype(np.int64)
    for _ in range(max(1, (space.n_states - 1).bit_length())):
        turns += turns[jump]
        jump = jump[jump]
    captured = space.is_capture[jump]
    return np.where(captured, turns, -1), np.where(captured, jump, -1)


def exact_profile_values(space: StateSpace, params: GameParams, moves: np.ndarray,
                         outcomes: tuple | None = None) -> np.ndarray:
    """(n_players, n_states) payoff of positional play, in closed form gamma^T * split.

    `outcomes` is the (turns, capture_at) pair of `profile_outcomes` for these
    moves, when the caller already holds it.
    """
    turns, capture_at = profile_outcomes(space, moves) if outcomes is None else outcomes
    q = turn_payoff_matrix(space, params)
    finite = turns >= 0
    powers = np.zeros(space.n_states)
    powers[finite] = params.gamma ** turns[finite].astype(float)
    values = np.zeros((params.n_players, space.n_states))
    safe_cap = np.maximum(capture_at, 0)
    for m in range(params.n_players):
        values[m] = np.where(finite, powers * q[m, safe_cap], 0.0)
    return values


# ---------------------------------------------------------------------------
# Turn-table rendering.

def render_turn_table(trace: Trace) -> str:
    """Fixed-width table of each player's vertex per turn, pursuers then evader."""
    space = trace.space
    n = space.n_players
    labels = ["Turn"] + [f"C{i}" for i in range(1, n)] + ["R"]
    rows = [[str(t) for t in range(len(trace.states))]]
    for player in range(1, n + 1):
        rows.append([str(v) for v in trace.positions_of(player)])
    label_w = max(len(x) for x in labels)
    col_w = [max(len(rows[r][c]) for r in range(len(rows))) for c in range(len(rows[0]))]
    lines = []
    for label, row in zip(labels, rows):
        cells = "  ".join(cell.rjust(w) for cell, w in zip(row, col_w))
        lines.append(f"{label.ljust(label_w)} | {cells}")
    return "\n".join(lines)
