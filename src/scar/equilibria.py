"""Equilibrium computation and verification.

Verification is the backbone of this module: nothing is ever reported as an
equilibrium unless an exact best-response computation says so. For positional
profiles the opponents-frozen game is a single-player MDP per player, solved by
value iteration; profile payoffs themselves are evaluated in closed form
(deterministic positional play either captures within |S| turns or provably
cycles). For threat profiles the punished deviator faces fixed positional
punishers, so his best possible continuation is again an MDP value, and a
one-shot deviation scan along cooperative play covers every deviating strategy.

Both threat constructions go through one builder: they differ only in the
cooperative moves, and share the punishments taken from the N auxiliary
player-vs-coalition games. Those games depend on (space, params) alone, so a
caller that needs both profiles solves them once (`solve_all_aux_games`) and
passes them as `aux=`. The threat verifier resolves cooperative play once
(`profile_outcomes`) and derives both capture turns and closed-form payoffs
from that single pass.

The positional-equilibrium solver is a heuristic sweep iteration: the coupled
argmax/value equations are not a contraction for three or more players, so the
solver detects oscillation, reports non-convergence honestly, and gates any
converged profile behind the exact verifier. The threat construction, by
contrast, is sound by construction and serves as the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bellman
from .bellman import DEFAULT_VALUE_TOL
from .cr import CaptureTimeTable, exact_capture_times, extract_cr_optimal_moves
from .errors import NonConvergenceError, NotAnEquilibriumError, NotApplicableError, ValidationError
from .payoffs import GameParams, turn_payoff_matrix
from .profiles import (
    ALL_STAY,
    NonCapturingProfile,
    PositionalProfile,
    ThreatProfile,
    combine_player_moves,
    merge_cop_moves,
)
from .simulate import exact_profile_values, profile_outcomes
from .states import StateSpace, build_state_space

DEFAULT_NE_TOL = 1e-8


# ---------------------------------------------------------------------------
# Auxiliary zero-sum games: player n (with his own payoff) against the
# coalition of everyone else minimizing it.

@dataclass
class AuxSolution:
    player: int
    values: np.ndarray
    own_move: np.ndarray  # optimal move on the player's own turns
    coalition_move: np.ndarray  # coalition's minimizing move on everyone else's turns
    iterations: int
    residual: float


def solve_aux_game(space: StateSpace, params: GameParams, player: int,
                   tol: float = DEFAULT_VALUE_TOL) -> AuxSolution:
    """Value and optimal positional strategies of the player-vs-coalition game."""
    q = turn_payoff_matrix(space, params)
    fixed = q[player - 1].copy()
    max_mask = space.mover == player
    values, iterations, residual = bellman.solve_zero_sum(space, fixed, params.gamma, max_mask, tol=tol)
    nc = space.is_noncapture
    own = bellman.greedy_moves(space, values, nc & max_mask, maximize=True)
    coalition = bellman.greedy_moves(space, values, nc & ~max_mask, maximize=False)
    return AuxSolution(player, values, own, coalition, iterations, residual)


def solve_all_aux_games(space: StateSpace, params: GameParams, tol: float = DEFAULT_VALUE_TOL) -> list:
    return [solve_aux_game(space, params, n, tol=tol) for n in range(1, params.n_players + 1)]


def _threat_profile(space: StateSpace, cooperative_move: np.ndarray, aux: list,
                    kind: str) -> ThreatProfile:
    """Cooperate along `cooperative_move`; punish the first deviator with the
    coalition strategy from his auxiliary game (his own rows stay cooperative)."""
    cooperative = PositionalProfile(space, cooperative_move, validate=False)
    punishments = {}
    for d, sol in enumerate(aux, start=1):
        moves = sol.coalition_move.copy()
        own_rows = space.is_noncapture & (space.mover == d)
        moves[own_rows] = cooperative.move[own_rows]
        punishments[d] = PositionalProfile(space, moves, validate=False)
    return ThreatProfile(space, cooperative, punishments, kind=kind)


def build_threat_profile(space: StateSpace, params: GameParams, aux: list | None = None,
                         tol: float = DEFAULT_VALUE_TOL) -> ThreatProfile:
    """Cooperate along everyone's own aux-optimal strategy; punish the first deviator
    with the coalition strategies from his auxiliary game."""
    if aux is None:
        aux = solve_all_aux_games(space, params, tol=tol)
    return _threat_profile(space, combine_player_moves(space, [a.own_move for a in aux]),
                           aux, "threat")


def build_capturing_threat_ne(space: StateSpace, params: GameParams,
                              table: CaptureTimeTable | None = None,
                              aux: list | None = None,
                              tol: float = DEFAULT_VALUE_TOL) -> ThreatProfile:
    """Threat profile whose cooperative part is the canonical optimal pursuit.

    Requires the N-1 pursuers to force capture from every start (cop number at
    most N-1); equilibrium play then captures from every initial state.
    """
    if table is None:
        table = exact_capture_times(space)
    if not table.finite_on_noncapture():
        raise NotApplicableError(
            f"the evader escapes {space.n_players - 1} pursuers from some start; "
            "a capturing equilibrium of this form needs cop number <= pursuer count"
        )
    if aux is None:
        aux = solve_all_aux_games(space, params, tol=tol)
    return _threat_profile(space, extract_cr_optimal_moves(space, table), aux,
                           "capturing-threat")


# ---------------------------------------------------------------------------
# Exact verification of positional profiles.

@dataclass
class NEReport:
    is_ne: bool
    tol: float
    gaps: np.ndarray  # (n_players, n_states) best-response value minus profile value
    max_gap: float
    per_player_gap: list
    witness: list  # per player, state index attaining his max gap
    profile_values: np.ndarray

    def is_ne_at(self, idx: int, tol: float | None = None) -> bool:
        t = self.tol if tol is None else tol
        return bool((self.gaps[:, idx] <= t).all())

    def summary(self) -> dict:
        return {
            "is_ne": self.is_ne,
            "tol": self.tol,
            "max_gap": self.max_gap,
            "per_player_gap": self.per_player_gap,
        }


def verify_positional_ne(space: StateSpace, params: GameParams, profile: PositionalProfile,
                         tol: float = DEFAULT_NE_TOL,
                         value_tol: float = DEFAULT_VALUE_TOL) -> NEReport:
    """Best-response gap of every player from every state against the frozen rest.

    Profile payoffs are exact closed forms; each player's best response is an
    MDP solved to `value_tol`. The profile is an equilibrium from every initial
    state iff every gap is at most `tol`.
    """
    n = params.n_players
    u = exact_profile_values(space, params, profile.move)
    q = turn_payoff_matrix(space, params)
    frozen_succ = space.succ_of_moves(profile.move)
    gaps = np.zeros((n, space.n_states))
    for player in range(1, n + 1):
        free = space.mover == player
        v, _, _ = bellman.solve_mdp(space, q[player - 1], params.gamma, free, frozen_succ,
                                    tol=value_tol, v0=u[player - 1])
        gaps[player - 1] = v - u[player - 1]
    gaps[:, space.terminal_index] = 0.0
    per_player = [float(gaps[i].max()) for i in range(n)]
    witness = [int(gaps[i].argmax()) for i in range(n)]
    max_gap = float(max(per_player))
    return NEReport(max_gap <= tol, tol, gaps, max_gap, per_player, witness, u)


def equation_residuals(space: StateSpace, params: GameParams, profile: PositionalProfile,
                       values: np.ndarray) -> tuple:
    """Residuals of the coupled equilibrium equations for (profile, values).

    Returns (attainment, consistency): how far the mover's prescribed action is
    from attaining the argmax of his own continuation, and how far the value
    vector is from the one-step expansion under the profile, both sup-norm.
    """
    gamma = params.gamma
    q = turn_payoff_matrix(space, params)
    chosen = space.succ_of_moves(profile.move)
    attainment = 0.0
    consistency = 0.0
    nc = space.is_noncapture
    for player in range(1, params.n_players + 1):
        u = values[player - 1]
        rows = np.flatnonzero(nc & (space.mover == player))
        if rows.size:
            best = gamma * u[space.succ[rows]].max(axis=1)
            taken = gamma * u[chosen[rows]]
            attainment = max(attainment, float((best - taken).max()))
    for m in range(params.n_players):
        u = values[m]
        resid = np.abs(u[nc] - (q[m][nc] + gamma * u[chosen[nc]]))
        consistency = max(consistency, float(resid.max(initial=0.0)))
        cap = space.is_capture
        consistency = max(consistency, float(np.abs(u[cap] - q[m][cap]).max(initial=0.0)))
        consistency = max(consistency, abs(float(u[space.terminal_index])))
    return attainment, consistency


# ---------------------------------------------------------------------------
# Positional equilibrium search by synchronous sweeps.

@dataclass
class PositionalNEResult:
    profile: PositionalProfile
    values: np.ndarray
    sweeps: int
    residual: float
    attainment_residual: float
    consistency_residual: float
    verification: NEReport


def solve_positional_ne(space: StateSpace, params: GameParams,
                        tol: float = DEFAULT_VALUE_TOL,
                        ne_tol: float = DEFAULT_NE_TOL,
                        stable_sweeps: int = 3,
                        sweep_cap: int | None = None) -> PositionalNEResult:
    """Search for a deterministic positional equilibrium by greedy value sweeps.

    Each sweep recomputes every mover's greedy action against the current value
    vectors (canonical tie-breaking) and backs the values up one step. On
    convergence the profile is re-evaluated exactly and gated behind the exact
    verifier. Raises NonConvergenceError (with a cycle witness if the profile
    oscillates) or NotAnEquilibriumError (converged but fails verification).
    """
    n = params.n_players
    gamma = params.gamma
    if sweep_cap is None:
        sweep_cap = 10 * bellman.iteration_cap(gamma, tol)
    q = turn_payoff_matrix(space, params)
    nc = space.is_noncapture
    u = np.zeros((n, space.n_states))
    u[:, space.is_capture] = q[:, space.is_capture]
    prev_key = None
    stable = 0
    history = []
    moves = None
    converged = False
    sweeps = 0
    residual = math.inf
    for sweeps in range(1, sweep_cap + 1):
        parts = [bellman.greedy_moves(space, u[p - 1], nc & (space.mover == p), maximize=True)
                 for p in range(1, n + 1)]
        moves = sum(parts)  # movers partition the rows, so plain addition merges
        chosen = space.succ_of_moves(moves)
        new_u = u.copy()
        new_u[:, nc] = gamma * u[:, chosen[nc]]
        residual = float(np.abs(new_u[:, nc] - u[:, nc]).max(initial=0.0))
        u = new_u
        key = moves[nc].tobytes()
        stable = stable + 1 if key == prev_key else 1
        prev_key = key
        history.append(hash(key))
        if len(history) > 64:
            history.pop(0)
        if residual <= tol and stable >= stable_sweeps:
            converged = True
            break
    if not converged:
        report = {
            "sweeps": sweeps,
            "residual": residual,
            "cycle_period": _detect_cycle(history),
            "recent_profile_hashes": history[-16:],
        }
        raise NonConvergenceError(
            f"no stable profile after {sweeps} sweeps (residual {residual:.3e}); "
            "the threat-strategy construction is the sound fallback", report)
    profile = PositionalProfile(space, moves, validate=False)
    values = exact_profile_values(space, params, moves)
    attainment, consistency = equation_residuals(space, params, profile, values)
    verification = verify_positional_ne(space, params, profile, tol=ne_tol, value_tol=tol)
    if not verification.is_ne:
        raise NotAnEquilibriumError(
            f"sweeps converged but a player can still improve by {verification.max_gap:.3e}",
            verification)
    return PositionalNEResult(profile, values, sweeps, residual, attainment, consistency, verification)


def _detect_cycle(history: list) -> int | None:
    for period in range(2, len(history) // 2 + 1):
        if all(history[-i] == history[-i - period] for i in range(1, period + 1)):
            return period
    return None


# ---------------------------------------------------------------------------
# Threat-profile verification.

@dataclass
class ThreatNEReport:
    is_ne: bool
    tol: float
    per_player_gain: list
    witness: list
    cooperative_turns: np.ndarray  # turns to capture under cooperative play, -1 = never
    noncapture_mask: np.ndarray = None

    def captures_everywhere(self) -> bool:
        return bool((self.cooperative_turns[self.noncapture_mask] >= 0).all())

    def summary(self) -> dict:
        return {
            "is_ne": self.is_ne,
            "tol": self.tol,
            "max_gain": max(self.per_player_gain),
            "per_player_gain": self.per_player_gain,
        }


def verify_threat_ne(space: StateSpace, params: GameParams, threat: ThreatProfile,
                     tol: float = DEFAULT_NE_TOL,
                     value_tol: float = DEFAULT_VALUE_TOL) -> ThreatNEReport:
    """Check that no one-shot deviation followed by optimal play against the
    punishers beats cooperative play, from any state (hence any start).

    After a deviation the deviator faces fixed positional punishers forever, so
    his best continuation is the value of that MDP; before it, play is the
    cooperative path whose payoff-to-go is an exact closed form. Comparing the
    two at every state of the deviator covers every deviating strategy.
    """
    n = params.n_players
    gamma = params.gamma
    q = turn_payoff_matrix(space, params)
    outcomes = profile_outcomes(space, threat.cooperative.move)
    u_coop = exact_profile_values(space, params, threat.cooperative.move, outcomes=outcomes)
    nc = space.is_noncapture
    per_player_gain = []
    witness = []
    slot_ok = space.slot_mask()
    for player in range(1, n + 1):
        punish_succ = space.succ_of_moves(threat.punishments[player].move)
        free = space.mover == player
        v_pun, _, _ = bellman.solve_mdp(space, q[player - 1], gamma, free, punish_succ,
                                        tol=value_tol)
        rows = np.flatnonzero(nc & free)
        if rows.size == 0:
            per_player_gain.append(0.0)
            witness.append(-1)
            continue
        dev = gamma * v_pun[space.succ[rows]]
        prescribed = threat.cooperative.move[rows]
        deviating = slot_ok[rows] & (space.act[rows] != prescribed[:, None])
        dev = np.where(deviating, dev, -np.inf)
        best_dev = dev.max(axis=1)
        gain = best_dev - u_coop[player - 1][rows]
        at = int(gain.argmax())
        per_player_gain.append(float(gain[at]) if np.isfinite(gain[at]) else 0.0)
        witness.append(int(rows[at]))
    max_gain = max(per_player_gain)
    return ThreatNEReport(max_gain <= tol, tol, per_player_gain, witness,
                          outcomes[0], space.is_noncapture)


def check_cr_optimal_ne(space: StateSpace, params: GameParams,
                        table: CaptureTimeTable | None = None,
                        tol: float = DEFAULT_NE_TOL,
                        value_tol: float = DEFAULT_VALUE_TOL):
    """Verify the canonical optimal-pursuit profile as a positional equilibrium.

    Expected to pass from every start whenever gamma < eps/(1-eps) (and always
    in split-equivalent mode); outside that region it may fail, and the report
    then carries the offending states.
    """
    if table is None:
        table = exact_capture_times(space)
    profile = PositionalProfile(space, extract_cr_optimal_moves(space, table), validate=False)
    report = verify_positional_ne(space, params, profile, tol=tol, value_tol=value_tol)
    return profile, report


# ---------------------------------------------------------------------------
# The stacked-pursuers non-capturing construction and its verifier.

@dataclass
class NonCapturingConstruction:
    profile: NonCapturingProfile
    s0_index: int
    s0: tuple


def build_noncapturing_ne(space: StateSpace, params: GameParams, s0=None,
                          state_cap: int | None = None) -> NonCapturingConstruction:
    """Stack all pursuers on one vertex against an evader who can dodge one of them.

    Qualifying starts are (x, ..., x, y, 1) where the single-pursuer game from
    (x, y) with the pursuer to move is an evader win. NotApplicableError on
    pursuer-win graphs, where no such start exists.
    """
    kwargs = {} if state_cap is None else {"state_cap": state_cap}
    space2 = build_state_space(space.graph, 2, **kwargs)
    table2 = exact_capture_times(space2)
    if table2.finite_on_noncapture():
        raise NotApplicableError("one pursuer already wins this graph from every start")
    v = space.graph.vertex_count
    if s0 is None:
        s0 = _first_qualifying_start(space, space2, table2)
    idx0 = space._as_index(s0)
    s0 = space.state_at(idx0)
    positions = s0[:-1]
    x, y, mover = positions[0], positions[-1], s0[-1]
    if mover != 1 or any(p != x for p in positions[:-1]):
        raise ValidationError(
            f"start {s0!r} is not of the stacked form (x, ..., x, y, 1)")
    if table2.times[space2.index_of((x, y, 1))] >= 0:
        raise ValidationError(
            f"start {s0!r} does not qualify: one pursuer at {x} catches the evader at {y}")
    evade = np.zeros((v + 1, v + 1), dtype=np.int64)
    moves2 = extract_cr_optimal_moves(space2, table2)
    for c in range(1, v + 1):
        for r in range(1, v + 1):
            if c != r:
                evade[c, r] = moves2[space2.index_of((c, r, 2))]
    profile = NonCapturingProfile(space, merge_cop_moves(space), evade, idx0)
    return NonCapturingConstruction(profile, idx0, s0)


def _first_qualifying_start(space, space2, table2):
    for x in range(1, space.graph.vertex_count + 1):
        for y in range(1, space.graph.vertex_count + 1):
            if y == x:
                continue
            if table2.times[space2.index_of((x, y, 1))] < 0:
                return tuple([x] * (space.n_players - 1)) + (y, 1)
    raise NotApplicableError("no qualifying stacked start found")


@dataclass
class NonCapturingNEReport:
    is_ne: bool
    tol: float
    per_player_gain: list
    s0_index: int


def verify_noncapturing_ne(space: StateSpace, params: GameParams,
                           construction: NonCapturingConstruction,
                           tol: float = DEFAULT_NE_TOL,
                           value_tol: float = DEFAULT_VALUE_TOL) -> NonCapturingNEReport:
    """Best-response check at the construction's start.

    Cooperative play never captures, so everyone's profile payoff is zero. The
    evader's best response faces positional pursuers (a plain MDP); a pursuer's
    best response faces the evader's mode automaton, so his MDP runs on states
    augmented with the automaton mode.
    """
    prof = construction.profile
    n = params.n_players
    gamma = params.gamma
    q = turn_payoff_matrix(space, params)
    gains = []
    # evader: pursuer moves depend only on the state
    frozen = prof.merge_moves.copy()
    rows_r = space.is_noncapture & (space.mover == n)
    frozen[rows_r] = space.positions[rows_r, -1]  # placeholder on the evader's own rows
    frozen_succ = space.succ_of_moves(frozen)
    v_r, _, _ = bellman.solve_mdp(space, q[n - 1], gamma, space.mover == n, frozen_succ,
                                  tol=value_tol)
    for player in range(1, n):
        gains.append(_pursuer_deviation_value(space, params, prof, player, q[player - 1],
                                              value_tol))
    gains.append(float(v_r[construction.s0_index]))
    max_gain = max(gains)
    return NonCapturingNEReport(max_gain <= tol, tol, gains, construction.s0_index)


def _pursuer_deviation_value(space, params, prof, player, q_row, value_tol):
    """Value at (s0, all-stay) of the deviating pursuer's mode-augmented MDP."""
    n = params.n_players
    gamma = params.gamma
    n_modes = n  # ALL_STAY plus one evade mode per pursuer
    ns = space.n_states
    nc = space.is_noncapture
    # frozen movers: their move and the resulting mode, per (state, mode)
    frozen_succ = np.zeros((ns, n_modes), dtype=np.int64)
    frozen_mode = np.zeros((ns, n_modes), dtype=np.int64)
    for mode in range(n_modes):
        moves = np.zeros(ns, dtype=np.int64)
        rows_c = nc & (space.mover < n) & (space.mover != player)
        moves[rows_c] = prof.merge_moves[rows_c]
        rows_r = np.flatnonzero(nc & (space.mover == n))
        if mode == ALL_STAY:
            moves[rows_r] = space.positions[rows_r, -1]
        else:
            tracked = space.positions[rows_r, mode - 1]
            own = space.positions[rows_r, -1]
            moves[rows_r] = prof.evade_move[tracked, own]
        # own rows need any legal filler; they are overwritten by the max anyway
        rows_own = np.flatnonzero(nc & (space.mover == player))
        moves[rows_own] = space.positions[rows_own, player - 1]
        frozen_succ[:, mode] = space.succ_of_moves(moves)
        new_mode = np.full(ns, mode, dtype=np.int64)
        if mode == ALL_STAY:
            moved = nc & (space.mover < n) & (moves != space.positions[np.arange(ns), space.mover - 1])
            new_mode[moved] = space.mover[moved]
        frozen_mode[:, mode] = new_mode
    # free rows: successors per action slot, mode per action slot
    k = space.act.shape[1]
    own_rows = np.flatnonzero(nc & (space.mover == player))
    own_here = space.positions[own_rows, player - 1]
    own_mode_per_slot = np.zeros((own_rows.size, k, n_modes), dtype=np.int64)
    for mode in range(n_modes):
        if mode == ALL_STAY:
            own_mode_per_slot[:, :, mode] = np.where(space.act[own_rows] != own_here[:, None],
                                                     player, ALL_STAY)
        else:
            own_mode_per_slot[:, :, mode] = mode
    # flattened value iteration over (state, mode)
    v = np.tile(np.where(space.is_capture, q_row, 0.0), (n_modes, 1)).T.copy()  # (ns, modes)
    cap = bellman.iteration_cap(gamma, value_tol)
    frozen_rows = np.flatnonzero(nc & (space.mover != player))
    # loop invariants: flat (state, mode) gather indices into v, and the real action slots
    frozen_at = frozen_succ[frozen_rows] * n_modes + frozen_mode[frozen_rows]
    own_at = space.succ[own_rows][:, :, None] * n_modes + own_mode_per_slot
    own_slots = space.slot_mask()[own_rows][:, :, None]
    for _ in range(cap):
        flat = v.ravel()
        new = v.copy()
        new[frozen_rows] = gamma * flat[frozen_at]
        new[own_rows] = np.where(own_slots, gamma * flat[own_at], -np.inf).max(axis=1)
        resid = float(np.abs(new - v).max(initial=0.0))
        v = new
        if resid <= value_tol:
            break
    return float(v[prof.s0_index, ALL_STAY])
