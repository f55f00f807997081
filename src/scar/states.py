"""Dense enumeration of the full game state set.

A non-terminal state is a tuple (x1, ..., xN, p): token positions for the N-1
pursuers and the evader (player N), plus the index p of the player who moves
next. States are packed into a mixed-radix integer

    idx = ((...(x1-1)*V + (x2-1))*V + ... + (xN-1))*N + (p-1)

so value vectors are flat arrays; the single terminal state takes the last
index. Index t * N + (p - 1) holds position tuple t with mover p. Capture
classification ignores the mover coordinate: a state is a capture state iff
some pursuer token sits on the evader's vertex.

The tables are built from that layout, never by per-state reductions or an
N-dimensional grid: each `positions` column is written through a 3-D view of
runs of 1..V, and the per-tuple tables (`mover`, `capture_count`, `stay`)
through a (V**N, N) view, where captors are counted once per tuple and
broadcast over its N movers. Each per-state table takes the smallest signed
integer dtype that holds its range, about 9 bytes a state in all at N=4:

  * `positions` (N columns), `stay` and every move array (vertex ids, 0 for
    the null move): int8 up to 127 vertices, int16 up to 32767, int32 beyond;
  * `mover` and `capture_count`: int8 (int16 past 127 players);
  * `is_capture` and `is_noncapture`: bool;
  * the neighbourhood sizes behind `acount`: int8 unless some closed
    neighbourhood has more than 127 vertices.

They are signed so that a move's offset `a - stay` and the previous mover
`mover - 2` come out negative rather than wrapping around. Index arithmetic
promotes through the int64 `_stride`, so every state index stays int64.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, IllegalMoveError, ValidationError
from .graph import Graph

#: The null move available at capture states and the terminal state.
NULL_MOVE = 0


class _Terminal:
    __slots__ = ()

    def __repr__(self):
        return "TERMINAL"


#: Distinguished absorbing terminal state marker.
TERMINAL = _Terminal()

DEFAULT_STATE_CAP = 50_000_000


def _signed(limit: int):
    """Smallest signed integer dtype holding -limit..limit: the values 0..limit
    and every difference of two of them."""
    for dtype in (np.int8, np.int16):
        if limit <= np.iinfo(dtype).max:
            return dtype
    return np.int32


def _nonterminal_count(v: int, n_players: int, state_cap: int) -> int:
    """The n_players * v**n_players non-terminal states of a game on v vertices;
    CapacityError when they and the terminal exceed `state_cap`."""
    n_nonterminal = n_players * v**n_players
    if n_nonterminal + 1 > state_cap:
        raise CapacityError(
            f"{n_players} players on {v} vertices need {n_nonterminal + 1} states, "
            f"above the cap of {state_cap}"
        )
    return n_nonterminal


def _padded_hoods(graph: Graph):
    """The move model as (nbr, sizes): row u of the int64 `nbr` is the closed
    neighbourhood N[u] ascending, right-padded with its first entry, and row 0
    holds the null move of capture and terminal states; `sizes` counts each
    row's real entries in the smallest signed dtype that holds them."""
    hoods = [[NULL_MOVE]] + [graph.closed_neighborhood(u) for u in range(1, graph.vertex_count + 1)]
    width = max(len(h) for h in hoods)
    nbr = np.array([h + h[:1] * (width - len(h)) for h in hoods], dtype=np.int64)
    return nbr, np.array([len(h) for h in hoods], dtype=_signed(width))


def _tuple_captors(v: int, n_players: int) -> np.ndarray:
    """Pursuers on the evader's vertex, per position tuple in index order (the
    capture rule: a tuple captures iff this is non-zero). Pursuer i + 1 adds
    the identity on a (V**i, V, V**(N-2-i), V) view, never an N-dimensional grid."""
    captors = np.zeros(v**n_players, dtype=_signed(n_players))
    same = np.eye(v, dtype=captors.dtype)[:, None]
    for i in range(n_players - 1):
        captors.reshape(v**i, v, v ** (n_players - 2 - i), v)[...] += same
    return captors


@dataclass(frozen=True, eq=False)
class TurnBlock:
    """The non-capture rows where one player moves, with their successor and
    action slots as contiguous, read-only (K, m) arrays: column i belongs to
    rows[i]. Reducing across K rows runs several times faster than along a
    short last axis."""

    rows: np.ndarray  # (m,) ascending state indices
    succ: np.ndarray  # (K, m) successor indices, right-padded like `nbr`
    act: np.ndarray  # (K, m) action vertices aligned with `succ`, in the dtype of `stay`


@dataclass(frozen=True)
class StateClass:
    """Classification of a single state."""

    kind: str  # "noncapture" | "capture" | "terminal"
    capturing_set: tuple = ()


class StateSpace:
    """All states of an N-player game on a graph, with O(1) indexed lookups."""

    def __init__(self, graph: Graph, n_players: int, state_cap: int = DEFAULT_STATE_CAP):
        if n_players < 2:
            raise ValidationError(f"need at least 2 players, got {n_players}")
        v = graph.vertex_count
        n_nonterminal = _nonterminal_count(v, n_players, state_cap)
        self.graph = graph
        self.n_players = n_players
        self.n_vertices = v
        self.n_states = n_nonterminal + 1
        self.terminal_index = n_nonterminal

        player = np.arange(n_players + 1)
        self._stride = n_players * v ** (n_players - player)
        self._turn = np.where(player < n_players, 1, 1 - n_players)

        # Column i (player i + 1) cycles through 1..V in runs of stride[i + 1], V**i times.
        vertex = _signed(v)
        n = n_nonterminal
        self.positions = np.zeros((self.n_states, n_players), dtype=vertex)
        for i in range(n_players):
            self.positions[:n, i].reshape(v**i, v, self._stride[i + 1])[...] = (
                np.arange(1, v + 1, dtype=vertex)[:, None])
        player_id = _signed(n_players)
        self.mover = np.zeros(self.n_states, dtype=player_id)
        self.mover[:n].reshape(-1, n_players)[...] = np.arange(1, n_players + 1, dtype=player_id)
        # A state's captors depend only on its tuple: count them once per tuple.
        captors = _tuple_captors(v, n_players)
        self.capture_count = np.zeros(self.n_states, dtype=player_id)
        self.capture_count[:n].reshape(-1, n_players)[...] = captors[:, None]
        self.is_capture = self.capture_count != 0
        self.is_noncapture = ~self.is_capture
        self.is_noncapture[self.terminal_index] = False
        # The move model. The mover steps within the closed neighbourhood of his
        # own vertex `stay` (`nbr`, see `_padded_hoods`). Moving player p from x
        # to a adds (a - x) * stride[p] to the index and passes the turn on
        # (entry 0, the terminal's, is unused).
        self.nbr, self._hood_size = _padded_hoods(graph)
        self.stay = np.zeros(self.n_states, dtype=vertex)
        # column p - 1 of the tuple view: mover p's own vertex, or the null move (0) at a capture
        np.multiply(self.positions[:n:n_players], captors[:, None] == 0,
                    out=self.stay[:n].reshape(-1, n_players))
        self._succ = None
        self._blocks = {}

    # -- state <-> index ---------------------------------------------------

    def index_of(self, state) -> int:
        if state is TERMINAL:
            return self.terminal_index
        self._check_state(state)
        acc = 0
        for x in state[:-1]:
            acc = acc * self.n_vertices + (x - 1)
        return acc * self.n_players + (state[-1] - 1)

    def state_at(self, idx: int):
        if idx == self.terminal_index:
            return TERMINAL
        if not 0 <= idx < self.n_states:
            raise ValidationError(f"state index {idx} out of range")
        return tuple(int(x) for x in self.positions[idx]) + (int(self.mover[idx]),)

    def _check_state(self, state) -> None:
        if len(state) != self.n_players + 1:
            raise ValidationError(
                f"state must have {self.n_players} positions plus a mover, got {state!r}"
            )
        for x in state[:-1]:
            if not 1 <= x <= self.n_vertices:
                raise ValidationError(f"position {x} out of range 1..{self.n_vertices} in {state!r}")
        if not 1 <= state[-1] <= self.n_players:
            raise ValidationError(f"mover {state[-1]} out of range 1..{self.n_players} in {state!r}")

    def _as_index(self, s) -> int:
        return s if isinstance(s, (int, np.integer)) else self.index_of(s)

    # -- classification, actions, transition -------------------------------

    def classify(self, s) -> StateClass:
        idx = self._as_index(s)
        if idx == self.terminal_index:
            return StateClass("terminal")
        if self.is_capture[idx]:
            x = self.positions[idx]
            return StateClass("capture", tuple(int(i) + 1 for i in np.flatnonzero(x[:-1] == x[-1])))
        return StateClass("noncapture")

    def capturing_set(self, s) -> tuple:
        return self.classify(s).capturing_set

    def actions(self, s, player: int) -> list:
        """Legal moves of `player` at state `s` (not necessarily the mover)."""
        if not 1 <= player <= self.n_players:
            raise ValidationError(f"player {player} out of range 1..{self.n_players}")
        idx = self._as_index(s)
        if idx == self.terminal_index or self.is_capture[idx]:
            return [NULL_MOVE]
        if self.mover[idx] == player:
            return self.graph.closed_neighborhood(int(self.positions[idx, player - 1]))
        return [int(self.positions[idx, player - 1])]

    def transition(self, s, action: int):
        """Apply the mover's action; capture states and the terminal absorb into the terminal."""
        idx = self._as_index(s)
        if idx == self.terminal_index or self.is_capture[idx]:
            if action != NULL_MOVE:
                raise IllegalMoveError(f"only the null move is legal at {self.state_at(idx)!r}")
            return TERMINAL
        p = int(self.mover[idx])
        if action not in self.actions(idx, p):
            raise IllegalMoveError(
                f"action {action} not legal for player {p} at {self.state_at(idx)!r}"
            )
        return self.state_at(self.transition_index(idx, action))

    def transition_index(self, idx: int, action: int) -> int:
        """Index-level transition; assumes a legal mover action at a non-capture state."""
        return int(self._step(idx, action))

    def _step(self, rows, moves):
        """Index reached when the mover of each state in `rows` plays the matching move."""
        p = self.mover[rows]
        return rows + (moves - self.stay[rows]) * self._stride[p] + self._turn[p]

    # -- dense successor table (built lazily; only the oracle solver reads it)

    def _build_tables(self):
        rows = np.flatnonzero(self.is_noncapture)
        own = self.stay[rows]
        succ = np.full((self.n_states, self.nbr.shape[1]), self.terminal_index, dtype=np.int64)
        for j in range(self.nbr.shape[1]):
            succ[rows, j] = self._step(rows, self.nbr[own, j])
        self._succ = succ

    @property
    def succ(self) -> np.ndarray:
        """(n_states, K) successor indices for the mover's sorted actions, right-padded."""
        if self._succ is None:
            self._build_tables()
        return self._succ

    @functools.cached_property
    def capture_class(self) -> np.ndarray:
        """Read-only (n_players, n_states) int8 capture class of each player at
        each state, built on first read: 0 off capture, 1 for the evader at a
        capture, and 2 * n1 for a pursuer among n1 captors, 2 * n1 + 1 for a
        bystander. `payoffs.GameParams.shares` holds each class's turn payoff."""
        n, cap = self.n_players, self.is_capture
        classes = np.zeros((n, self.n_states), dtype=np.int8)
        classes[n - 1, cap] = 1
        x = self.positions[cap]
        classes[:n - 1, cap] = 2 * self.capture_count[cap] + (x[:, :-1] != x[:, -1:]).T
        classes.flags.writeable = False
        return classes

    @functools.cached_property
    def capture_table(self):
        """The space's one `cr.CaptureTimeTable`, solved on first read."""
        from .cr import exact_capture_times  # cr builds on this module
        return exact_capture_times(self)

    def turn_block(self, player: int) -> TurnBlock:
        """`player`'s `TurnBlock`, stepped from the packed index once per space."""
        block = self._blocks.get(player)
        if block is None:
            n = self.n_players
            rows = np.flatnonzero(self.is_noncapture[player - 1:self.terminal_index:n]) * n + (player - 1)
            own = self.stay[rows]
            hood = self.nbr[own].T
            stride = self._stride[player]
            succ = np.multiply(hood, stride, order="C")
            succ += rows + self._turn[player] - np.multiply(own, stride, dtype=np.int64)
            act = hood.astype(self.stay.dtype, order="C")
            for a in (rows, succ, act):
                a.flags.writeable = False
            block = self._blocks[player] = TurnBlock(rows, succ, act)
        return block

    @property
    def acount(self) -> np.ndarray:
        """Number of real (unpadded) actions per state; a fresh array per read."""
        return self._hood_size[self.stay]

    def slot_mask(self) -> np.ndarray:
        """(n_states, K) boolean mask of real action slots."""
        return np.arange(self.nbr.shape[1])[None, :] < self.acount[:, None]

    def succ_of_moves(self, moves: np.ndarray) -> np.ndarray:
        """Successor index for each non-capture state when the mover plays moves[idx].

        Capture states and the terminal map to the terminal index.
        """
        n, end = self.n_players, self.terminal_index
        out = np.arange(self.n_states, dtype=np.int64)  # the terminal's own row is already `end`
        by_tuple = out[:end].reshape(-1, n)  # column p - 1 steps by player p's scalars
        by_tuple += (moves[:end] - self.stay[:end]).reshape(-1, n) * self._stride[1:] + self._turn[1:]
        by_tuple[self.is_capture[:end:n]] = end
        return out


def build_state_space(graph: Graph, n_players: int, state_cap: int = DEFAULT_STATE_CAP) -> StateSpace:
    return StateSpace(graph, n_players, state_cap)


def classify(space: StateSpace, s) -> StateClass:
    return space.classify(s)


def actions(space: StateSpace, s, player: int) -> list:
    return space.actions(s, player)


def transition(space: StateSpace, s, action: int):
    return space.transition(s, action)
