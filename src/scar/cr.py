"""Exact solver for the two-player pursuit game on the shared state space.

One controller moves all pursuer tokens (players 1..N-1), the other moves the
evader; the controller minimizes capture time, the evader maximizes it. Two
independent implementations are kept side by side:

  * minimax_capture_times -- the oracle: synchronous sweeps of the defining
    min/max fixpoint equations until nothing changes;
  * exact_capture_times  -- the production solver: retrograde labeling
    (Berarducci & Intrigila 1993), advancing level-synchronous frontiers out
    of the capture states, split by mover; each group's predecessors are
    computed from the packed state index, so no successor table or reverse
    graph is built; pursuer turns take the first labeled successor, evader
    turns count their successors down in place, at the frontier only.

Capture times are exact integers; -1 encodes "the evader escapes forever".
Each state space holds its one table (`StateSpace.capture_table`). The tests
also check it against a float oracle, the discounted pursuit game solved by
`bellman.solve_zero_sum`, whose value is gamma^T(s) bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bellman
from .errors import CapacityError
from .graph import Graph
from .simulate import profile_outcomes
from .states import DEFAULT_STATE_CAP, StateSpace, build_state_space

_NEVER = np.int64(2**62)  # sentinel used only inside comparisons, never reported


@dataclass
class CaptureTimeTable:
    """Optimal capture time per state; times[s] == -1 means the evader evades forever.

    Capture rows read 0 and the terminal, the last row, reads -1, so a verdict
    on the non-capture rows is one whole-array pass over `times[:-1]`.
    """

    space: StateSpace
    times: np.ndarray

    def time_of(self, s):
        t = int(self.times[self.space._as_index(s)])
        return math.inf if t < 0 else t

    def finite_on_noncapture(self) -> bool:
        return bool(self.times[:-1].min() >= 0)

    def escape_states(self) -> np.ndarray:
        """Indices of non-capture states from which the evader escapes forever."""
        return np.flatnonzero(self.times[:-1] < 0)

    @functools.cached_property
    def cr_optimal_moves(self) -> np.ndarray:
        """`extract_cr_optimal_moves` of this table, computed once and read-only."""
        moves = extract_cr_optimal_moves(self)
        moves.flags.writeable = False
        return moves

    @functools.cached_property
    def outcomes(self) -> tuple:
        """`profile_outcomes` of `cr_optimal_moves`, computed once and read-only."""
        turns, capture_at = profile_outcomes(self.space, self.cr_optimal_moves)
        turns.flags.writeable = capture_at.flags.writeable = False
        return turns, capture_at


def minimax_capture_times(space: StateSpace) -> CaptureTimeTable:
    """Oracle solver: iterate T(s) = 1 + min/max T(succ) from all-unknown until stable."""
    times = np.where(space.is_capture, np.int64(0), _NEVER)
    times[space.terminal_index] = _NEVER
    nc = space.is_noncapture
    cop_rows = nc & (space.mover < space.n_players)
    rob_rows = nc & (space.mover == space.n_players)
    succ = space.succ
    for _ in range(space.n_states + 2):
        gathered = times[succ]
        up = np.minimum(gathered.min(axis=1) + 1, _NEVER)
        down = np.minimum(gathered.max(axis=1) + 1, _NEVER)
        new = times.copy()
        new[cop_rows] = up[cop_rows]
        new[rob_rows] = down[rob_rows]
        if np.array_equal(new, times):
            break
        times = new
    return CaptureTimeTable(space, np.where(times >= _NEVER, np.int64(-1), times))


def exact_capture_times(space: StateSpace) -> CaptureTimeTable:
    """Retrograde labeling from the capture states, one BFS level at a time.

    Level d's frontier holds every state labeled d, split by mover. One player
    p moved into each mover's group, so its predecessors come straight from
    the packed index (`StateSpace.mover_predecessors`), once per edge, and all
    have p's turn type. Unlabeled ones on a pursuer turn take d + 1 (the min);
    on the evader's they count their successors down in place and take d + 1
    at zero (the max). A level touches only its frontier, their predecessors
    and a bool scratch `mark`.
    """
    n_players = space.n_players
    times = np.full(space.n_states, -1, dtype=np.int64)
    times[space.is_capture] = 0
    counter = space.acount  # a fresh array per read, counted down in place
    one = counter.dtype.type(1)  # a Python 1 sends np.subtract.at down its slow path
    mark = space.is_capture.copy()
    by_mover = mark[:-1].reshape(-1, n_players)  # column m - 1 holds mover m's states
    d = 0
    while True:
        frontier = [np.flatnonzero(by_mover[:, m]) * n_players + m for m in range(n_players)]
        if not any(f.size for f in frontier):
            return CaptureTimeTable(space, times)
        mark[:] = False
        d += 1
        # each group's predecessors have their own mover, so label them at once
        for m, f in enumerate(frontier, start=1):
            cand = space.mover_predecessors(f, m)
            cand = cand[times[cand] < 0]
            if m == 1:  # moved into by the evader, player N
                np.subtract.at(counter, cand, one)
                cand = cand[counter[cand] == 0]
            times[cand] = d
            mark[cand] = True


def t_n_max(table: CaptureTimeTable):
    """Worst-case optimal capture time over all non-capture starts; inf if any escape."""
    vals = table.times[:-1]  # capture rows read 0
    return math.inf if vals.min() < 0 else int(vals.max())


@dataclass
class CopNumberResult:
    value: int | None  # None when every k <= max_cops still lets the evader escape
    finite_by_cops: dict  # k -> whether k pursuers force capture from every start
    table: CaptureTimeTable | None = field(compare=False, repr=False)  # the last k's, the deciding one


def cop_number(g: Graph, max_cops: int = 3, state_cap: int = DEFAULT_STATE_CAP) -> CopNumberResult:
    """Least k <= max_cops whose k-pursuer game (the space's `capture_table`)
    is capture-guaranteed everywhere."""
    finite_by_cops = {}
    value = table = None
    for k in range(1, max_cops + 1):
        try:
            space = build_state_space(g, k + 1, state_cap)
        except CapacityError as exc:
            raise CapacityError(f"cop-number search stopped at k={k}: {exc}") from exc
        table = space.capture_table
        finite_by_cops[k] = table.finite_on_noncapture()
        if finite_by_cops[k]:
            value = k
            break
    return CopNumberResult(value, finite_by_cops, table)


def extract_cr_optimal_moves(table: CaptureTimeTable) -> np.ndarray:
    """Canonical optimal move per non-capture state, straight off the exact table.

    Pursuer turns pick the first successor minimizing T, evader turns the first
    maximizing it (escape counts as +inf). Play under these moves reaches a
    capture state after exactly T(s0) turns whenever T(s0) is finite.
    """
    space = table.space
    keyed = np.where(table.times >= 0, table.times, _NEVER)
    return bellman.greedy_moves(space, keyed, maximizers=(space.n_players,))
