"""Exact solver for the two-player pursuit game on the shared state space.

One controller moves all pursuer tokens (players 1..N-1), the other moves the
evader; the controller minimizes capture time, the evader maximizes it. Two
independent implementations are kept side by side:

  * minimax_capture_times -- the oracle: synchronous sweeps of the defining
    min/max fixpoint equations until nothing changes;
  * exact_capture_times  -- the production solver: retrograde labelling
    (Berarducci & Intrigila 1993), in sweeps over the labelled sets: one
    dense bool grid per mover on the bare V^N tuple grid. Each sweep labels
    "bottom-up" (Beamer, Asanovic & Patterson 2012): a mover's grid takes in
    the next mover's, dilated along its own axis, so no successor table,
    reverse graph or index list is built. Sweeping in turn order makes each
    sweep one BFS level, which `exact_capture_times` counts into `times`.

`cop_number` is the labelling's other caller: it needs one bit per k (do k
pursuers capture from every start?), so it labels each (k + 1)-tuple grid
straight from the graph, with no `StateSpace` and no levels, sweeping in
reverse turn order, which reaches the same labelled set in fewer sweeps.

Capture times are exact integers; -1 encodes "the evader escapes forever".
Each state space holds its one table (`StateSpace.capture_table`). The tests
also check it against a float oracle, the discounted pursuit game solved by
`bellman.solve_zero_sum`, whose value is gamma^T(s) bit for bit.
"""

from __future__ import annotations

import functools
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
    """The space's capture-time table from `_label`'s turn-order sweeps: a
    state's time is the level of the first sweep that labels it."""
    n = space.n_players
    age = np.zeros((n, space.terminal_index // n), dtype=np.int8)  # levels spent labelled
    for level, labelled in enumerate(_label(space.nbr, space.is_capture[:-1:n], n, range(1, n + 1))):
        if level == np.iinfo(age.dtype).max:  # widen before `age` wraps
            age = age.astype(_signed(level + 1))
        age += labelled.reshape(n, -1)
    np.subtract(level + 1, age, out=age)  # the level that labelled each state
    age[~labelled.reshape(n, -1)] = -1  # never labelled: the evader escapes
    times = np.full(space.n_states, -1, dtype=np.int64)
    times[:-1].reshape(-1, n)[...] = age.T
    return CaptureTimeTable(space, times)


def _label(nbr: np.ndarray, capture: np.ndarray, n: int, movers):
    """Retrograde labelling from the capture states, in sweeps over labelled sets.

    `nbr` is the move model (`states._padded_hoods`), `capture` flags each of
    the V^N position tuples in index order, and a sweep updates the movers in
    the order `movers`. Yields the mover-major (N, V, ..., V) bool grid of the
    states from which the pursuers force capture: the captures, then the same
    array after each sweep that labels more, until one labels nothing.

    Player p moved into mover p + 1's states (player N into player 1's) and
    neighbourhoods are symmetric, so p's options are that grid dilated along
    tuple axis p - 1, one gather per `nbr` slot (padding repeats slot 0, which
    neither an OR nor an AND notices). A pursuer's grid becomes the OR of its
    slots, which keeps every label since each closed neighbourhood holds the
    stay; the evader's ORs in the AND of its slots, read from mover 1's grid
    as the sweep found it. In turn order (1, ..., N) every mover reads the
    last sweep's labels, so sweep d labels exactly the states of capture time
    d. In reverse order each reads this sweep's, carrying labels N turns back:
    the set is the least fixpoint of a monotone operator, which any order
    reaches, in fewer sweeps.
    """
    v = len(nbr) - 1
    grid, rest = (v,) * n, v ** (n - 1)
    hood = nbr[1:] - 1  # zero-based (V, K)
    slots = range(hood.shape[1])
    labelled = np.repeat(capture[None], n, axis=0).reshape((n,) + grid)
    evader = labelled[-1].reshape(rest, v)
    # The evader's axis is the innermost, where a gather is slow: it reads a
    # copy of mover 1's grid with that axis first.
    first, trapped = np.empty((2, v, rest), dtype=bool)
    scratch = np.empty(grid, dtype=bool)
    gathered = scratch.reshape(v, rest)
    count, grown = -1, np.count_nonzero(labelled)
    while count < grown:
        yield labelled
        if grown == labelled.size:
            return
        first[...] = labelled[0].reshape(rest, v).T
        for p in movers:
            if p < n:  # a pursuer: any option labelled
                np.take(labelled[p], hood[:, 0], axis=p - 1, out=labelled[p - 1], mode="clip")
                for j in slots[1:]:
                    np.take(labelled[p], hood[:, j], axis=p - 1, out=scratch, mode="clip")
                    labelled[p - 1] |= scratch
            else:  # the evader: every option labelled
                np.take(first, hood[:, 0], axis=0, out=trapped, mode="clip")
                for j in slots[1:]:
                    np.take(first, hood[:, j], axis=0, out=gathered, mode="clip")
                    trapped &= gathered
                evader |= trapped.T
        count, grown = grown, np.count_nonzero(labelled)


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

    Each k is decided by `_label`'s reverse-order sweeps straight on the
    (k + 1)-tuple grid, with no `StateSpace`, no levels and no `times`: k
    wins iff every state is labelled. The state cap applies as if the space
    were built.
    """
    v = g.vertex_count
    nbr = _padded_hoods(g)[0]
    finite_by_cops = {}
    for k in range(1, max_cops + 1):
        try:
            _nonterminal_count(v, k + 1, state_cap)
        except CapacityError as exc:
            raise CapacityError(f"cop-number search stopped at k={k}: {exc}") from exc
        *_, labelled = _label(nbr, _tuple_captors(v, k + 1) != 0, k + 1, range(k + 1, 0, -1))
        finite_by_cops[k] = bool(labelled.all())
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
