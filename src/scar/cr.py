"""Exact solver for the two-player pursuit game on the shared state space.

One controller moves all pursuer tokens (players 1..N-1), the other moves the
evader; the controller minimizes capture time, the evader maximizes it. Two
independent implementations are kept side by side:

  * minimax_capture_times -- the oracle: synchronous sweeps of the defining
    min/max fixpoint equations until nothing changes;
  * exact_capture_times  -- the production solver: backward labeling with
    per-state successor counters, one pass over every edge.

Capture times are exact integers; -1 encodes "the evader escapes forever".
The discounted value solver cross-checks the tables via v(s) = gamma^T(s).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import bellman
from .errors import CapacityError
from .graph import Graph
from .states import StateSpace, build_state_space

_NEVER = np.int64(2**62)  # sentinel used only inside comparisons, never reported


@dataclass
class CaptureTimeTable:
    """Optimal capture time per state; times[s] == -1 means the evader evades forever."""

    space: StateSpace
    times: np.ndarray

    def time_of(self, s):
        t = int(self.times[self.space._as_index(s)])
        return math.inf if t < 0 else t

    def finite_on_noncapture(self) -> bool:
        return bool((self.times[self.space.is_noncapture] >= 0).all())

    def escape_states(self) -> np.ndarray:
        """Indices of non-capture states from which the evader escapes forever."""
        return np.flatnonzero(self.space.is_noncapture & (self.times < 0))


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
    """Backward labeling from the capture states, processing each edge once.

    Controller states take 1 + the first labeled successor (= the min, since
    labels come off the queue in nondecreasing order); evader states count
    down their successors and take 1 + the last label (= the max).
    """
    n = space.n_states
    times = np.full(n, -1, dtype=np.int64)
    succ = space.succ.tolist()
    acount = space.acount.tolist()
    mover = space.mover.tolist()
    ncops = space.n_players - 1
    preds = [[] for _ in range(n)]
    for s in np.flatnonzero(space.is_noncapture).tolist():
        row = succ[s]
        for j in range(acount[s]):
            preds[row[j]].append(s)
    counter = space.acount.copy()
    capture_idx = np.flatnonzero(space.is_capture)
    times[capture_idx] = 0
    queue = deque(capture_idx.tolist())
    while queue:
        target = queue.popleft()
        d = int(times[target])
        for s in preds[target]:
            if times[s] != -1:
                continue
            if mover[s] <= ncops:
                times[s] = d + 1
                queue.append(s)
            else:
                counter[s] -= 1
                if counter[s] == 0:
                    times[s] = d + 1
                    queue.append(s)
    return CaptureTimeTable(space, times)


def t_n_max(space: StateSpace, table: CaptureTimeTable):
    """Worst-case optimal capture time over all non-capture starts; inf if any escape."""
    vals = table.times[space.is_noncapture]
    if vals.size == 0:
        return 0
    if (vals < 0).any():
        return math.inf
    return int(vals.max())


@dataclass
class CopNumberResult:
    value: int | None  # None when every k <= max_cops still lets the evader escape
    finite_by_cops: dict  # k -> whether k pursuers force capture from every start

    def __int__(self):
        if self.value is None:
            raise ValueError("cop number exceeds the searched range")
        return self.value


def cop_number(g: Graph, max_cops: int = 3, state_cap=None, solver=exact_capture_times) -> CopNumberResult:
    """Least k <= max_cops whose k-pursuer game is capture-guaranteed everywhere."""
    finite_by_cops = {}
    value = None
    for k in range(1, max_cops + 1):
        kwargs = {} if state_cap is None else {"state_cap": state_cap}
        try:
            space = build_state_space(g, k + 1, **kwargs)
        except CapacityError as exc:
            raise CapacityError(f"cop-number search stopped at k={k}: {exc}") from exc
        table = solver(space)
        finite_by_cops[k] = table.finite_on_noncapture()
        if finite_by_cops[k]:
            value = k
            break
    return CopNumberResult(value, finite_by_cops)


@dataclass
class DiscountedValue:
    values: np.ndarray
    iterations: int
    residual: float


def discounted_cr_value(space: StateSpace, gamma: float, tol: float = 1e-10) -> DiscountedValue:
    """Value of the discounted game: controller earns gamma^T_C, evader loses it.

    Boundary v = 1 on capture states, 0 at the terminal; controller turns take
    the max, evader turns the min. Satisfies v(s) = gamma^T(s) with gamma^inf = 0.
    """
    fixed = np.where(space.is_capture, 1.0, 0.0)
    max_mask = space.mover < space.n_players
    values, iterations, residual = bellman.solve_zero_sum(space, fixed, gamma, max_mask, tol=tol)
    return DiscountedValue(values, iterations, residual)


def gamma_power_times(gamma: float, times: np.ndarray) -> np.ndarray:
    """gamma**T with the escape sentinel mapped explicitly to 0."""
    out = np.zeros(len(times))
    finite = times >= 0
    out[finite] = gamma ** times[finite].astype(float)
    return out


def extract_cr_optimal_moves(space: StateSpace, table: CaptureTimeTable) -> np.ndarray:
    """Canonical optimal move per non-capture state, straight off the exact table.

    Pursuer turns pick the first successor minimizing T, evader turns the first
    maximizing it (escape counts as +inf). Play under these moves reaches a
    capture state after exactly T(s0) turns whenever T(s0) is finite.
    """
    keyed = np.where(table.times >= 0, table.times, _NEVER)
    moves = np.zeros(space.n_states, dtype=np.int64)
    nc = space.is_noncapture
    cop_rows = np.flatnonzero(nc & (space.mover < space.n_players))
    rob_rows = np.flatnonzero(nc & (space.mover == space.n_players))
    for rows, argpick in ((cop_rows, np.argmin), (rob_rows, np.argmax)):
        if rows.size == 0:
            continue
        gathered = keyed[space.succ[rows]]
        pick = argpick(gathered, axis=1)  # first occurrence = smallest action vertex
        moves[rows] = space.act[rows, pick]
    return moves
