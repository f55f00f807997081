"""Equilibrium computation and verification.

Verification is the backbone of this module: nothing is ever reported as an
equilibrium unless an exact best-response computation says so. There is one
verifier for the whole-space verdicts, a one-shot deviation scan along
cooperative play: a deviator then faces fixed positional punishers forever, so
his best continuation is his exact `best_response` to them, and comparing it
with the cooperative payoff-to-go at every state of his covers every deviating
strategy. Positional play is a plain move array, taken and returned as one,
and is the threat profile that punishes no one: its punishers play the
cooperative moves, against which the opponents-frozen game is a single-player
deterministic MDP per player, whose value iteration from zero reaches its
exact fixpoint (residual 0) within |S| + 1 sweeps, so no value tolerance
enters the check; profile payoffs themselves are evaluated in closed form
(deterministic positional play either captures within |S| turns or provably
cycles). Each verifier call checks one profile. `best_response` is
the one place that knows an exact shortcut: against his own aux game's
coalition a player's value is that game's, and the evader's against optimal
pursuit is the capture table's, both read with no MDP. The non-capturing
construction, a threat profile too, reads its start and evasion off the
one-pursuer capture table it is handed, and is judged at that start only: against the frozen rest a
deviator plays a deterministic one-player game, whose value at the start a
forward search over the reachable (state, mode) pairs gives exactly. The
search does not depend on (gamma, eps), so each construction runs it once per
player and only the discounting is redone.

Every solver and verifier takes a `Game`, one state space at one parameter
point, which builds its N auxiliary player-vs-coalition games once: each
pursuer's by `bellman.solve_zero_sum`, exact like the best responses, which all
read their boundary off the class shares (`payoffs.turn_payoffs`). The
evader's payoff -gamma^T does not depend on eps, so his game, his best
response to optimal pursuit and that pursuit's outcomes are read off the
space's capture table (`StateSpace.capture_table`). Both threat constructions cooperate along
different moves and punish with those games' strategy arrays themselves.
A verdict holds plain values, the per-start gaps of positional play included:
no verifier's working arrays outlive its call.

The positional-equilibrium solver is a heuristic sweep iteration: the coupled
argmax/value equations are not a contraction for three or more players, so the
sweeps may oscillate. Each sweep is a deterministic map of the value vectors,
so the solver stops only on exact evidence: a fixpoint, which it gates behind
the exact verifier, or a repeat of earlier values, which proves a cycle and is
reported as non-convergence. No value tolerance is left in the package, and
every move choice (aux-game strategies, sweeps, optimal pursuit) is a block's
first exact optimum (`bellman.first_act`), with no tie slack. The
threat construction, by contrast, is sound by construction and serves as the
fallback.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import bellman
from .cr import CaptureTimeTable
from .errors import NonConvergenceError, NotAnEquilibriumError, NotApplicableError, ValidationError
from .payoffs import GameParams, discounted, discounted_payoff, turn_payoffs
from .profiles import ThreatProfile, combine_player_moves, merge_cop_moves
from .simulate import exact_profile_values, profile_outcomes
from .states import StateSpace

DEFAULT_NE_TOL = 1e-8


# ---------------------------------------------------------------------------
# Auxiliary zero-sum games: player n (with his own payoff) against the
# coalition of everyone else minimizing it.

@dataclass
class AuxSolution:
    values: np.ndarray
    move: np.ndarray  # maximizing on the player's own turns, the coalition's minimizing elsewhere


def solve_aux_game(space: StateSpace, params: GameParams, player: int) -> AuxSolution:
    """Exact value and optimal positional strategies of the player-vs-coalition
    game, whose boundary is the player's `turn_payoffs`."""
    q = turn_payoffs(space, params, player)
    values, _, _, move = bellman.solve_zero_sum(space, q, params.gamma, (player,))
    move.flags.writeable = False  # every threat profile of the game punishes with it
    return AuxSolution(values, move)


@dataclass(frozen=True)
class Game:
    """One state space under one parameter point. Its auxiliary games depend
    on nothing else, so they are built once, on first use, and shared by every
    solver and verifier handed the game; payoffs are `params.shares`."""

    space: StateSpace
    params: GameParams

    @functools.cached_property
    def aux(self) -> list:
        """Per player, the `AuxSolution` of his game against the coalition."""
        evader, pursuit = self.params.n_players, self.space.capture_table.cr_optimal_moves
        pursuers = [solve_aux_game(self.space, self.params, n) for n in range(1, evader)]
        return pursuers + [AuxSolution(best_response(self, evader, pursuit), pursuit)]


def best_response(game: Game, player: int, moves: np.ndarray) -> np.ndarray:
    """Exact value of `player`'s best response to the rest playing `moves`.

    Against his own aux game's coalition (`game.aux`, read if already built)
    it is that game's value V: the frozen backup is >= the zero-sum one and
    fixes V, and both sweep from the same zeros, so V is its least fixpoint.
    The evader's to optimal pursuit is read off the capture table; any other
    is his MDP's fixpoint.
    """
    space, gamma = game.space, game.params.gamma
    aux = vars(game).get("aux")  # read, never built: a hand-made profile may not use it
    if aux is not None and moves is aux[player - 1].move:
        return aux[player - 1].values
    if player == space.n_players and moves is space.capture_table.cr_optimal_moves:
        return discounted(gamma, space.capture_table.times, -1.0)
    succ = space.succ_of_moves(moves)
    return bellman.solve_mdp(space, turn_payoffs(space, game.params, player), gamma, player, succ)[0]


def _outcomes(space: StateSpace, moves: np.ndarray) -> tuple:
    """`profile_outcomes` of `moves`; optimal pursuit's are the capture table's own."""
    table = space.capture_table
    return table.outcomes if moves is table.cr_optimal_moves else profile_outcomes(space, moves)


def _threat_profile(game: Game, cooperative_move: np.ndarray) -> ThreatProfile:
    """Cooperate along `cooperative_move`; punish the first deviator with the
    strategies of his auxiliary game, `game.aux[d].move` itself."""
    punishments = {d: sol.move for d, sol in enumerate(game.aux, start=1)}
    return ThreatProfile(game.space, cooperative_move, punishments)


def build_threat_profile(game: Game) -> ThreatProfile:
    """Cooperate along everyone's own aux-optimal strategy; punish the first deviator
    with the coalition strategies from his auxiliary game."""
    own = combine_player_moves(game.space, [a.move for a in game.aux])
    return _threat_profile(game, own)


def build_capturing_threat_ne(game: Game) -> ThreatProfile:
    """Threat profile whose cooperative part is the canonical optimal pursuit.

    Requires the N-1 pursuers to force capture from every start (cop number at
    most N-1); equilibrium play then captures from every initial state.
    """
    table = game.space.capture_table
    if not table.finite_on_noncapture():
        raise NotApplicableError(
            f"the evader escapes {game.space.n_players - 1} pursuers from some start; "
            "a capturing equilibrium of this form needs cop number <= pursuer count"
        )
    return _threat_profile(game, table.cr_optimal_moves)


# ---------------------------------------------------------------------------
# Equilibrium verification: one deviation scan for every profile.

@dataclass
class ThreatNEReport:
    is_ne: bool
    tol: float
    per_player_gain: list  # floored at 0.0 when positional: staying on the profile gains 0
    captures_everywhere: bool  # cooperative play captures from every non-capture state
    latest_capture: int  # its latest capture turn from a non-capture state (0: none)
    positional: bool  # the profile punishes no one, so its gains are best-response gaps
    start_gaps: list | None = None  # per requested start, the largest gap over players

    def summary(self) -> dict:
        kind = "gap" if self.positional else "gain"
        return {
            "is_ne": self.is_ne,
            "tol": self.tol,
            f"max_{kind}": max(self.per_player_gain),
            f"per_player_{kind}": self.per_player_gain,
        }


def verify_threat_ne(game: Game, threat: ThreatProfile, tol: float = DEFAULT_NE_TOL,
                     starts=None) -> ThreatNEReport:
    """Check that no one-shot deviation from `threat` followed by optimal play
    against the punishers beats cooperative play, from any state (hence any start).

    After a deviation the deviator faces fixed positional punishers forever, so
    his best continuation is his exact `best_response` to them; before it, play
    is the cooperative path whose payoff-to-go is an exact closed form. Comparing
    the two at every state of the deviator covers every deviating strategy.
    A player with no entry in `threat.punishments` is punished by the
    cooperative moves themselves, so `ThreatProfile(space, moves, {})` is
    positional play `moves`, scanned against each player's best response to
    it. For such a profile only, `starts` (state indices) adds per start the
    largest over players of that best response's value less the profile's.
    The verdict holds plain values: each player's largest gain, whether
    cooperative play captures from every start, and how late.
    """
    space, params = game.space, game.params
    positional = not threat.punishments
    if starts is not None:
        if not positional:
            raise ValueError("per-start gaps are defined only for a profile that punishes no one")
        starts = np.asarray(starts, dtype=np.intp)  # one index array for every player's gathers
    turns, capture_at = _outcomes(space, threat.cooperative)
    gains, start_gaps = [], None
    for player in range(1, params.n_players + 1):
        br = best_response(game, player, threat.punishments.get(player, threat.cooperative))
        if starts is not None:
            gap = br[starts] - discounted_payoff(space, params, player, capture_at[starts], turns[starts])
            start_gaps = gap if start_gaps is None else np.maximum(start_gaps, gap, out=start_gaps)
        block = space.turn_block(player)
        if block.rows.size == 0:
            gains.append(0.0)
            continue
        u_coop = discounted_payoff(space, params, player, capture_at[block.rows], turns[block.rows])
        dev = params.gamma * br[block.succ]
        # padded slots repeat slot 0, so they neither add nor hide a deviation
        deviating = block.act != threat.cooperative[block.rows]
        gain = np.where(deviating, dev, -np.inf).max(axis=0) - u_coop
        at = int(gain.argmax())
        gains.append(float(gain[at]) if np.isfinite(gain[at]) else 0.0)
    if positional:
        gains = [max(0.0, g) for g in gains]
    coop = turns[space.is_noncapture]
    return ThreatNEReport(max(gains) <= tol, tol, gains, bool((coop >= 0).all()),
                          int(coop.max(initial=0)), positional,
                          None if starts is None else start_gaps.tolist())


# ---------------------------------------------------------------------------
# Positional equilibrium search by synchronous sweeps.

def equation_residuals(game: Game, moves: np.ndarray, values: np.ndarray) -> tuple:
    """Residuals of the coupled equilibrium equations for (moves, values).

    Returns (attainment, consistency): how far the mover's prescribed action is
    from attaining the argmax of his own continuation, and how far the value
    vector is from the one-step expansion under the profile, both sup-norm.
    """
    space, gamma = game.space, game.params.gamma
    chosen = space.succ_of_moves(moves)
    attainment = 0.0
    consistency = 0.0
    nc = space.is_noncapture
    for player in range(1, space.n_players + 1):
        u = values[player - 1]
        block = space.turn_block(player)
        if block.rows.size:
            best = gamma * u[block.succ].max(axis=0)
            taken = gamma * u[chosen[block.rows]]
            attainment = max(attainment, float((best - taken).max()))
    cap = space.is_capture
    for m in range(space.n_players):
        u, q = values[m], turn_payoffs(space, game.params, m + 1)
        resid = np.abs(u[nc] - gamma * u[chosen[nc]])  # turn payoffs are 0 off capture
        consistency = max(consistency, float(resid.max(initial=0.0)))
        consistency = max(consistency, float(np.abs(u[cap] - q[cap]).max(initial=0.0)))
        consistency = max(consistency, abs(float(u[space.terminal_index])))
    return attainment, consistency


@dataclass
class PositionalNEResult:
    moves: np.ndarray
    sweeps: int
    attainment_residual: float
    consistency_residual: float
    verification: ThreatNEReport


def solve_positional_ne(game: Game, ne_tol: float = DEFAULT_NE_TOL) -> PositionalNEResult:
    """Search for a deterministic positional equilibrium by greedy value sweeps.

    Each sweep u -> F(u) recomputes every mover's greedy action against the
    current value vectors (canonical tie-breaking) and backs the values up one
    step; F is a deterministic map of u. The sweeps stop at the first exact
    fixpoint F(u) == u, whose profile is re-evaluated exactly and gated behind
    the exact verifier. An exact repeat of an earlier u proves they oscillate
    (Brent's cycle finder keeps one saved copy, refreshed at powers of two).
    The search gives up past n_states + 1 + ceil(1075 / log2(1/gamma))
    sweeps: once the moves stop changing, capture values settle within |S|
    sweeps, and every other value has by then been multiplied by gamma down
    to a float fixed point. Raises NonConvergenceError (cycle_period is the
    exact period, None at the cap) or NotAnEquilibriumError (the fixpoint
    fails verification).
    """
    space, n, gamma = game.space, game.params.n_players, game.params.gamma
    nc = space.is_noncapture
    u = np.stack([turn_payoffs(space, game.params, p) for p in range(1, n + 1)])  # 0 off capture
    cap = space.n_states + 1 + math.ceil(1075 / math.log2(1.0 / gamma))
    saved, power, period = u, 1, 0
    for sweeps in range(1, cap + 1):
        moves = bellman.greedy_moves(space, u, maximizers=range(1, n + 1))
        new_u = u.copy()
        new_u[:, nc] = gamma * u[:, space.succ_of_moves(moves)[nc]]
        if np.array_equal(new_u, u):
            break
        residual = float(np.abs(new_u - u).max())
        u = new_u
        period += 1
        if np.array_equal(u, saved):
            raise NonConvergenceError(
                f"sweeps cycle with period {period} after {sweeps} sweeps; "
                "the threat-strategy construction is the sound fallback",
                {"sweeps": sweeps, "residual": residual, "cycle_period": period})
        if period == power:
            saved, power, period = u, 2 * power, 0
    else:
        raise NonConvergenceError(
            f"no fixpoint or cycle after {cap} sweeps (residual {residual:.3e}); "
            "the threat-strategy construction is the sound fallback",
            {"sweeps": cap, "residual": residual, "cycle_period": None})
    verification = verify_threat_ne(game, ThreatProfile(space, moves, {}), tol=ne_tol)
    if not verification.is_ne:
        raise NotAnEquilibriumError(
            f"sweeps reached a fixpoint but a player can still improve by "
            f"{verification.summary()['max_gap']:.3e}", verification)
    values = exact_profile_values(game, _outcomes(space, moves))
    attainment, consistency = equation_residuals(game, moves, values)
    return PositionalNEResult(moves, sweeps, attainment, consistency, verification)


# ---------------------------------------------------------------------------
# The stacked-pursuers non-capturing construction and its verifier.

@dataclass
class NonCapturingConstruction:
    profile: ThreatProfile
    s0_index: int
    s0: tuple

    @functools.cached_property
    def searches(self) -> list:
        """Per player, `_start_local_search` of this construction, run once."""
        return [_start_local_search(self.profile, self.s0_index, player)
                for player in range(1, self.profile.space.n_players + 1)]


def build_noncapturing_ne(space: StateSpace, table1: CaptureTimeTable,
                          s0=None) -> NonCapturingConstruction:
    """Stack all pursuers on one vertex against an evader who can dodge one of them.

    `table1` is the exact capture-time table of the one-pursuer game on the
    same graph. Qualifying starts are (x, ..., x, y, 1) where that game from
    (x, y) with the pursuer to move is an evader win; the default is the first
    in (x, y) order. NotApplicableError on pursuer-win graphs, where no such
    start exists.

    The construction is a threat profile. Cooperative play: pursuers stay
    while all of them share a vertex, a separated pursuer walks a shortest
    path toward the lowest-indexed pursuer standing elsewhere
    (`merge_cop_moves`), and the evader stays put. Against a deviating
    pursuer d the rest keep merging and the evader plays the exact
    one-pursuer evasion from d; against a deviating evader the punishment is
    the cooperative array itself.
    """
    space1 = table1.space
    if space1.n_players != 2 or space1.graph != space.graph:
        raise ValidationError("table1 must be the one-pursuer table of the same graph")
    if table1.finite_on_noncapture():
        raise NotApplicableError("one pursuer already wins this graph from every start")
    if s0 is None:
        escapes = table1.escape_states()
        x, y = space1.positions[escapes[space1.mover[escapes] == 1][0]]
        s0 = (int(x),) * (space.n_players - 1) + (int(y), 1)
    idx0 = space._as_index(s0)
    s0 = space.state_at(idx0)
    positions = s0[:-1]
    x, y, mover = positions[0], positions[-1], s0[-1]
    if mover != 1 or any(p != x for p in positions[:-1]):
        raise ValidationError(
            f"start {s0!r} is not of the stacked form (x, ..., x, y, 1)")
    if table1.times[space1.index_of((x, y, 1))] >= 0:
        raise ValidationError(
            f"start {s0!r} does not qualify: one pursuer at {x} catches the evader at {y}")
    # evasion move per (pursuer vertex, own vertex), read off the evader's rows
    evader_rows = space1.turn_block(2).rows
    evade = np.zeros((space.graph.vertex_count + 1,) * 2, dtype=space.stay.dtype)
    evade[tuple(space1.positions[evader_rows].T)] = table1.cr_optimal_moves[evader_rows]
    # the evader's rows, index N - 1 of every position tuple: his own vertex, 0 at a capture
    n = space.n_players
    evader = slice(n - 1, space.terminal_index, n)
    own = space.stay[evader]
    cooperative = merge_cop_moves(space)
    cooperative[evader] = own

    def dodging(d):
        moves = cooperative.copy()
        moves[evader] = evade[space.positions[evader, d - 1], own]
        return moves

    punishments = {d: dodging(d) for d in range(1, n)} | {n: cooperative}
    return NonCapturingConstruction(ThreatProfile(space, cooperative, punishments), idx0, s0)


@dataclass
class NonCapturingNEReport:
    is_ne: bool
    tol: float
    per_player_gain: list
    s0_index: int
    explored: list  # per player, (state, mode) nodes his best-response search visited


def verify_noncapturing_ne(game: Game, construction: NonCapturingConstruction,
                           tol: float = DEFAULT_NE_TOL) -> NonCapturingNEReport:
    """Exact best-response check at the construction's start, under `game`'s
    parameters; the construction must be built on `game.space`.

    Cooperative play never captures, so everyone's profile payoff is zero. Each
    player's gain is his best value from s0 in cooperative mode while everyone
    else follows the construction's own automaton, found by `_start_local_value`
    over the nodes reachable from there, with no iteration or tolerance. The
    verdict holds plain values: the gains and each search's node count.
    """
    gains = [_start_local_value(game, search, player)
             for player, search in enumerate(construction.searches, start=1)]
    return NonCapturingNEReport(max(gains) <= tol, tol, gains, construction.s0_index,
                                [search.nodes for search in construction.searches])


@dataclass(frozen=True)
class StartLocalSearch:
    """What one player can reach from (s0, initial mode) against the rest of
    the automaton: per capture node in breadth-first order its state, shortest
    and longest depth, whether the reachable graph is acyclic, and its size."""

    captures: list  # (state, shortest depth, longest depth)
    acyclic: bool
    nodes: int


def _start_local_search(prof, s0_index, player) -> StartLocalSearch:
    """Forward search from (s0, initial mode) over (state, mode) nodes: the
    deviator takes every real slot, everyone else the profile's own
    prescribed/observe automaton. Depends on the graph, profile and start only."""
    space = prof.space
    start = (s0_index, prof.initial_mode())
    depth = {start: 0}
    succ = {}
    order = [start]
    for node in order:  # breadth-first: nodes join `order` by depth
        idx, mode = node
        succ[node] = []
        if not space.is_noncapture[idx]:
            continue
        mover = int(space.mover[idx])
        if mover == player:
            moves = [(a, space.transition_index(idx, a)) for a in space.actions(idx, mover)]
        else:
            action = prof.prescribed(idx, mode)
            moves = [(action, space.transition_index(idx, action))]
        for action, nxt in moves:
            child = (nxt, prof.observe(idx, mover, action, mode))
            succ[node].append(child)
            if child not in depth:
                depth[child] = depth[node] + 1
                order.append(child)
    # Kahn's order yields longest depths, and covers every node iff no cycle is reachable
    indegree = dict.fromkeys(succ, 0)
    for children in succ.values():
        for child in children:
            indegree[child] += 1
    longest = dict.fromkeys(succ, 0)
    ready = [start] if indegree[start] == 0 else []
    for node in ready:
        for child in succ[node]:
            longest[child] = max(longest[child], longest[node] + 1)
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    captures = [(node[0], depth[node], longest[node]) for node in order
                if not space.is_noncapture[node[0]]]
    return StartLocalSearch(captures, len(ready) == len(succ), len(succ))


def _start_local_value(game, search, player):
    """Best value of `player` from the start of his `search`, under the
    parameters of `game`, whose space the search ran on.

    With everyone else frozen, play is a one-player deterministic graph whose
    only rewards q sit at capture states, where it stops. A capture with q >= 0
    is best reached by a shortest path; a reachable cycle (necessarily
    capture-free) secures 0; without one the graph is acyclic, and a capture
    with q < 0 (the evader's) by a longest path. `payoffs.discounted` discounts
    q as value iteration does, so the value equals its fixpoint.
    """
    best = -math.inf if search.acyclic else 0.0  # a cycle's 0 beats every q < 0
    idx, shortest, longest = np.array(search.captures, dtype=np.int64).reshape(-1, 3).T
    turns = longest if player == game.space.n_players else shortest
    return float(discounted_payoff(game.space, game.params, player, idx, turns).max(initial=best))
