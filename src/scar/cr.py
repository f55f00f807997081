"""Exact solver for the two-player pursuit game on the shared state space.

One controller moves all pursuer tokens (players 1..N-1), the other moves the
evader; the controller minimizes capture time, the evader maximizes it. Two
independent implementations are kept side by side:

  * minimax_capture_times -- the oracle: synchronous sweeps of the defining
    min/max fixpoint equations until nothing changes;
  * exact_capture_times  -- the production solver: retrograde labeling
    (Berarducci & Intrigila 1993), advancing level-synchronous frontiers out
    of the capture states. The labeling loop, `_label`, works on the bare
    V^N tuple grid: the frontiers are dense bool grids, one per mover, and
    each level labels "bottom-up" (Beamer, Asanovic & Patterson 2012): every
    mover's frontier is dilated along the axis of the player who moved into
    it, so no successor table, reverse graph or index list is built; pursuer
    turns take any labeled successor, evader turns count their successors
    down. `exact_capture_times` is its table-building caller.

`cop_number` is its other caller: it needs one bit per k (do k pursuers
capture from every start?), so it labels each (k + 1)-tuple grid straight
from the graph, building no `StateSpace` and no `times`.

Capture times are exact integers; -1 encodes "the evader escapes forever".
Each state space holds its one table (`StateSpace.capture_table`). The tests
also check it against a float oracle, the discounted pursuit game solved by
`bellman.solve_zero_sum`, whose value is gamma^T(s) bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import bellman
from .errors import CapacityError
from .graph import Graph
from .simulate import profile_outcomes
from .states import (
    DEFAULT_STATE_CAP,
    StateSpace,
    _nonterminal_count,
    _padded_hoods,
    _signed,
    _tuple_captors,
)

_NEVER = np.int64(2**62)  # sentinel used only inside comparisons, never reported


@dataclass
class CaptureTimeTable:
    """Optimal capture time per state; times[s] == -1 means the evader evades forever.

    Capture rows read 0 and the terminal, the last row, reads -1, so a verdict
    on the non-capture rows is one whole-array pass over `times[:-1]`.
    """

    space: StateSpace
    times: np.ndarray

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
    """The space's capture-time table: `_label`'s levels, written once into
    int64 `times`."""
    n = space.n_players
    age, unlabeled = _label(space.nbr, space._hood_size, space.is_capture[:-1:n], n)
    age[unlabeled] = -1  # never labeled: the evader escapes
    times = np.empty(space.n_states, dtype=np.int64)
    times[:-1].reshape(-1, n)[...] = age.reshape(n, -1).T
    times[-1] = -1
    return CaptureTimeTable(space, times)


def _label(nbr: np.ndarray, hood_size: np.ndarray, capture: np.ndarray, n: int):
    """Retrograde labeling from the capture states, one BFS level at a time.

    `nbr` and `hood_size` are the move model (`states._padded_hoods`), and
    `capture` flags each of the V^N position tuples in index order. Returns
    (age, unlabeled), mover-major (N, V, ..., V) grids: each labeled state's
    level (0 at a capture), and the states never labeled, from which the
    evader escapes (their age counts every level).

    `frontier` (labeled at the last level) and `unlabeled` (non-capture, still
    open) hold one bool grid per mover. Player p moved into mover p + 1's
    states (player N into player 1's); neighbourhoods are symmetric, so p's
    candidates are that frontier dilated along tuple axis p - 1, one gather
    per `nbr` slot. A pursuer turn takes level d from any labeled successor
    (the min), an evader turn when its countdown of real slots hits zero (the
    max). `age` counts each state's open levels.
    """
    v = len(nbr) - 1
    grid, rest = (v,) * n, v ** (n - 1)
    hood, size = nbr[1:] - 1, hood_size[1:]  # zero-based (V, K), padded
    slots = range(hood.shape[1])
    frontier = np.repeat(capture[None], n, axis=0).reshape((n,) + grid)
    unlabeled = ~frontier
    age = unlabeled.astype(np.int8)
    countdown = np.tile(size, (rest, 1))  # the evader's, on the (V**(N-1), V) grid
    # The evader's axis is the innermost, where a gather is slow: it counts on
    # a copy with that axis first, its padded slots pointing at a zero row, in
    # the countdown's dtype (an int8 count wraps on star:150).
    ev = np.zeros((v + 1, rest), dtype=size.dtype)
    ev_hood = np.where(np.arange(hood.shape[1]) < size[:, None], hood, v)
    count, gathered = np.empty((2, v, rest), dtype=size.dtype)
    scratch = np.empty(grid, dtype=bool)
    for d in itertools.count(1):
        ev[:v] = frontier[0].reshape(rest, v).T
        # pursuer p's candidates overwrite mover p's frontier, which p - 1 read
        for p in range(1, n):
            np.take(frontier[p], hood[:, 0], axis=p - 1, out=frontier[p - 1], mode="clip")
            for j in slots[1:]:
                np.take(frontier[p], hood[:, j], axis=p - 1, out=scratch, mode="clip")
                frontier[p - 1] |= scratch
        np.take(ev, ev_hood[:, 0], axis=0, out=count, mode="clip")
        for j in slots[1:]:
            np.take(ev, ev_hood[:, j], axis=0, out=gathered, mode="clip")
            count += gathered
        countdown -= count.T  # read only where still unlabeled
        np.equal(countdown.reshape(grid), 0, out=frontier[-1])
        frontier &= unlabeled
        if not frontier.any():
            return age, unlabeled
        unlabeled ^= frontier
        if d == np.iinfo(age.dtype).max:  # widen before `age` wraps
            age = age.astype(_signed(d + 1))
        age += unlabeled


def t_n_max(table: CaptureTimeTable):
    """Worst-case optimal capture time over all non-capture starts; inf if any escape."""
    vals = table.times[:-1]  # capture rows read 0
    return math.inf if vals.min() < 0 else int(vals.max())


@dataclass
class CopNumberResult:
    value: int | None  # None when every k <= max_cops still lets the evader escape
    finite_by_cops: dict  # k -> whether k pursuers force capture from every start


def cop_number(g: Graph, max_cops: int = 3, state_cap: int = DEFAULT_STATE_CAP) -> CopNumberResult:
    """Least k <= max_cops such that k pursuers capture from every start.

    Each k is decided by `_label` straight on the (k + 1)-tuple grid, as in
    `exact_capture_times` but with no `StateSpace` and no `times`: k wins
    iff no state is left unlabeled. The state cap applies as if the space
    were built.
    """
    v = g.vertex_count
    nbr, hood_size = _padded_hoods(g)
    finite_by_cops = {}
    for k in range(1, max_cops + 1):
        try:
            _nonterminal_count(v, k + 1, state_cap)
        except CapacityError as exc:
            raise CapacityError(f"cop-number search stopped at k={k}: {exc}") from exc
        unlabeled = _label(nbr, hood_size, _tuple_captors(v, k + 1) != 0, k + 1)[1]
        finite_by_cops[k] = not unlabeled.any()
        if finite_by_cops[k]:
            return CopNumberResult(k, finite_by_cops)
    return CopNumberResult(None, finite_by_cops)


def extract_cr_optimal_moves(table: CaptureTimeTable) -> np.ndarray:
    """Canonical optimal move per non-capture state, straight off the exact table.

    Pursuer turns pick the first successor minimizing T, evader turns the first
    maximizing it (escape counts as +inf). Play under these moves reaches a
    capture state after exactly T(s0) turns whenever T(s0) is finite.
    """
    space = table.space
    keyed = np.where(table.times >= 0, table.times, _NEVER)
    return bellman.greedy_moves(space, keyed, maximizers=(space.n_players,))
