import math
from fractions import Fraction

import numpy as np
import pytest

from scar.cr import exact_capture_times, extract_cr_optimal_moves
from scar.equilibria import Game, build_threat_profile
from scar.errors import IllegalMoveError, ValidationError
from scar.graph import cycle_graph, delayed_capture_graph, path_graph
from scar.payoffs import GameParams
from scar.profiles import ThreatProfile, combine_player_moves, greedy_cop_moves, random_profile
from scar.simulate import (
    exact_profile_values,
    payoffs_of,
    profile_outcomes,
    render_turn_table,
    run,
    run_with_forced_deviation,
)
from scar.states import build_state_space

from oracles import moves_are_legal


@pytest.fixture(scope="module")
def tree9():
    g = delayed_capture_graph()
    space = build_state_space(g, 3)
    table = exact_capture_times(space)
    moves = combine_player_moves(space, [
        greedy_cop_moves(space, 1),
        greedy_cop_moves(space, 2),
        extract_cr_optimal_moves(table),
    ])
    return space, ThreatProfile(space, moves, {})


def test_cooperative_trace_matches_expected(tree9):
    space, profile = tree9
    trace = run(space, profile, (6, 1, 4, 1))
    assert trace.positions_of(1) == [6, 5, 5, 5, 4, 4]
    assert trace.positions_of(2) == [1, 1, 2, 2, 2, 3]
    assert trace.positions_of(3) == [4, 4, 4, 3, 3, 3]
    assert trace.capture_time == 5
    assert trace.capturing_set == (2,)


def test_deviation_trace_matches_expected(tree9):
    space, profile = tree9
    trace = run_with_forced_deviation(space, profile, 1, {1: 7}, (6, 1, 4, 1))
    assert trace.positions_of(1) == [6, 7, 7, 7, 6, 6, 6, 5, 5, 5, 8, 8, 8, 9]
    assert trace.positions_of(2) == [1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5]
    assert trace.positions_of(3) == [4, 4, 4, 5, 5, 5, 8, 8, 8, 9, 9, 9, 9, 9]
    assert trace.capture_time == 13
    assert trace.capturing_set == (1,)


def test_payoffs_of_example_traces(tree9):
    space, profile = tree9
    params = GameParams(3, 0.9, 0.25)
    coop = run(space, profile, (6, 1, 4, 1))
    assert payoffs_of(params, coop) == pytest.approx(
        (0.9**5 * 0.25, 0.9**5 * 0.75, -(0.9**5)), abs=1e-12)
    dev = run_with_forced_deviation(space, profile, 1, {1: 7}, (6, 1, 4, 1))
    assert payoffs_of(params, dev) == pytest.approx(
        (0.9**13 * 0.75, 0.9**13 * 0.25, -(0.9**13)), abs=1e-12)
    # the deviation pays at gamma=0.9: 0.190640 > 0.147623
    assert payoffs_of(params, dev)[0] > payoffs_of(params, coop)[0]


def test_exact_payoff_mode(tree9):
    space, profile = tree9
    params = GameParams(3, 0.9, 0.25)
    coop = run(space, profile, (6, 1, 4, 1))
    exact = payoffs_of(params, coop, exact=True)
    g = Fraction(0.9)
    assert exact == (g**5 * Fraction(0.25), g**5 * (1 - Fraction(0.25)), -(g**5))


def test_initial_capture_state():
    space = build_state_space(cycle_graph(4), 3)
    params = GameParams(3, 0.5, 0.25)
    profile = ThreatProfile(space, np.zeros(space.n_states, dtype=np.int64), {})
    trace = run(space, profile, (2, 1, 2, 3))
    assert trace.capture_time == 0
    assert trace.termination == "captured"
    assert trace.capturing_set == (1,)
    assert payoffs_of(params, trace) == pytest.approx((0.75, 0.25, -1.0))


def test_freeze_profile_cycles():
    space = build_state_space(cycle_graph(4), 3)
    params = GameParams(3, 0.5, 0.25)
    stay = np.zeros(space.n_states, dtype=np.int64)
    nc = np.flatnonzero(space.is_noncapture)
    p = space.mover[nc]
    stay[nc] = space.positions[nc, p - 1]
    assert moves_are_legal(space, stay)
    trace = run(space, ThreatProfile(space, stay, {}), (1, 1, 3, 1))
    assert trace.termination == "cycle"
    assert trace.capture_time == math.inf
    assert payoffs_of(params, trace) == (0.0, 0.0, 0.0)


def test_turn_cap_flags_inconclusive():
    space = build_state_space(cycle_graph(4), 2)
    params = GameParams(2, 0.5, 0.5)
    table = exact_capture_times(space)
    profile = ThreatProfile(space, extract_cr_optimal_moves(table), {})
    trace = run(space, profile, (1, 3, 1), turn_cap=1)
    assert trace.termination == "turn_cap"
    with pytest.raises(ValidationError):
        payoffs_of(params, trace)


def test_terminal_start_rejected():
    from scar.states import TERMINAL

    space = build_state_space(path_graph(2), 2)
    profile = ThreatProfile(space, np.zeros(space.n_states, dtype=np.int64), {})
    with pytest.raises(ValidationError):
        run(space, profile, TERMINAL)


def test_illegal_plan_action(tree9):
    space, profile = tree9
    with pytest.raises(IllegalMoveError):
        run_with_forced_deviation(space, profile, 1, {1: 9}, (6, 1, 4, 1))


def test_determinism(tree9):
    space, profile = tree9
    t1 = run(space, profile, (6, 1, 4, 1))
    t2 = run(space, profile, (6, 1, 4, 1))
    assert t1.states == t2.states
    assert [s.action for s in t1.steps] == [s.action for s in t2.steps]


def test_threat_mode_switch_timing():
    space = build_state_space(delayed_capture_graph(), 3)
    params = GameParams(3, 0.9, 0.25)
    threat = build_threat_profile(Game(space, params))
    # no deviation: identical to the cooperative parts, mode never leaves coop
    plain = run(space, ThreatProfile(space, threat.cooperative, {}), (6, 1, 4, 1))
    full = run(space, threat, (6, 1, 4, 1))
    assert plain.states == full.states
    assert all(s.mode == "coop" for s in full.steps)
    # the robber's first move is turn 3; punish mode must hold from that step on
    before_robber_turn = full.steps[1].state_index
    prescribed = threat.prescribed(before_robber_turn, "coop")
    dev_action = [a for a in space.actions(before_robber_turn, 3) if a != prescribed][0]
    devd = run_with_forced_deviation(space, threat, 3, {3: dev_action}, (6, 1, 4, 1))
    assert devd.steps[0].mode == "coop" and devd.steps[1].mode == "coop"
    assert devd.steps[2].mode == ("punish", 3)
    assert all(s.mode == ("punish", 3) for s in devd.steps[2:])


def test_a_profile_without_punishments_is_positional():
    """Punishing no one, the profile never leaves cooperative mode, so a forced
    deviation is certified as a cycle where positional play's state repeats."""
    space = build_state_space(cycle_graph(5), 2)
    profile = ThreatProfile(space, space.capture_table.cr_optimal_moves, {})
    trace = run_with_forced_deviation(space, profile, 1, {1: 2}, (1, 3, 1))
    assert trace.termination == "cycle"
    assert len(trace.steps) == 4
    assert all(step.mode == "coop" for step in trace.steps)


def test_deviation_to_prescribed_move_is_no_deviation():
    space = build_state_space(delayed_capture_graph(), 3)
    params = GameParams(3, 0.9, 0.25)
    threat = build_threat_profile(Game(space, params))
    s0 = (6, 1, 4, 1)
    prescribed = threat.prescribed(space.index_of(s0), "coop")
    trace = run_with_forced_deviation(space, threat, 1, {1: prescribed}, s0)
    assert all(s.mode == "coop" for s in trace.steps)


def test_render_turn_table_pinned(tree9):
    space, profile = tree9
    trace = run(space, profile, (6, 1, 4, 1))
    assert render_turn_table(trace) == (
        "Turn | 0  1  2  3  4  5\n"
        "C1   | 6  5  5  5  4  4\n"
        "C2   | 1  1  2  2  2  3\n"
        "R    | 4  4  4  3  3  3"
    )


def test_trace_json(tree9):
    space, profile = tree9
    trace = run(space, profile, (6, 1, 4, 1))
    obj = trace.to_json_obj()
    assert obj[0] == {"t": 0, "mover": None, "action": None, "state": [6, 1, 4, 1]}
    assert obj[1] == {"t": 1, "mover": 1, "action": 5, "state": [5, 1, 4, 2]}
    assert obj[-1]["t"] == 5


def test_profile_outcomes_match_simulation():
    space = build_state_space(cycle_graph(5), 3)
    params = GameParams(3, 0.6, 0.3)
    rng = np.random.default_rng(11)
    for _ in range(5):
        moves = random_profile(space, rng)
        profile = ThreatProfile(space, moves, {})
        turns, cap_at = profile_outcomes(space, moves)
        values = exact_profile_values(Game(space, params), (turns, cap_at))
        nc = np.flatnonzero(space.is_noncapture)
        for idx in rng.choice(nc, size=25, replace=False):
            trace = run(space, profile, int(idx))
            if trace.termination == "cycle":
                assert turns[idx] == -1
                assert values[:, idx].tolist() == [0.0, 0.0, 0.0]
            else:
                assert turns[idx] == trace.capture_time
                assert cap_at[idx] == trace.states[-1]
                pays = payoffs_of(params, trace)
                assert values[:, idx].tolist() == list(pays)


@pytest.mark.parametrize("graph,n", [(cycle_graph(6), 3), (path_graph(4), 4), (cycle_graph(4), 4)])
def test_profile_outcomes_agree_with_run_from_every_start(graph, n):
    space = build_state_space(graph, n)
    rng = np.random.default_rng(n)
    seen = set()
    for _ in range(3):
        moves = random_profile(space, rng)
        profile = ThreatProfile(space, moves, {})
        turns, cap_at = profile_outcomes(space, moves)
        for idx in range(space.terminal_index):
            trace = run(space, profile, idx)
            seen.add(trace.termination)
            if trace.termination == "cycle":
                assert (turns[idx], cap_at[idx]) == (-1, -1)
            else:
                assert (turns[idx], cap_at[idx]) == (trace.capture_time, trace.states[-1])
        assert (turns[space.terminal_index], cap_at[space.terminal_index]) == (-1, -1)
    assert seen == {"captured", "cycle"}


def test_profile_outcomes_settle_captures_straddling_powers_of_two():
    """The doubling stops at the first round that captures no new start. On
    path:40 a pursuer who stays put, against an evader who walks to him, is
    reached after 2d - 1 or 2d turns from distance d: every time from 1 to 78,
    across each power of two up to 64 and one past it."""
    space = build_state_space(path_graph(40), 2)
    rows = np.flatnonzero(space.is_noncapture)
    cop, robber = space.positions[rows, 0].astype(np.int64), space.positions[rows, 1].astype(np.int64)
    moves = np.zeros(space.n_states, dtype=np.int64)
    moves[rows] = np.where(space.mover[rows] == 1, cop, robber + np.sign(cop - robber))
    profile = ThreatProfile(space, moves, {})
    assert moves_are_legal(space, moves)
    turns, cap_at = profile_outcomes(space, moves)
    assert set(turns[rows].tolist()) == set(range(1, 79))
    for idx in range(space.terminal_index):
        trace = run(space, profile, idx)
        assert (turns[idx], cap_at[idx]) == (trace.capture_time, trace.states[-1])


class _SingleControllerWiring:
    """The same token strategies bundled under one controller for all pursuers.

    Dispatches by mover exactly like the per-player wiring, so identical inputs
    must produce identical histories in both readings of the game.
    """

    def __init__(self, space, token_moves):
        self.space = space
        self.token_moves = token_moves

    def initial_mode(self):
        return None

    def prescribed(self, idx, mode=None):
        return int(self.token_moves[int(self.space.mover[idx]) - 1][idx])

    def observe(self, idx, mover, action, mode):
        return mode


def test_path_equivalence_of_the_two_wirings(tree9):
    space, profile = tree9
    tokens = [greedy_cop_moves(space, 1), greedy_cop_moves(space, 2),
              extract_cr_optimal_moves(exact_capture_times(space))]
    bundled = _SingleControllerWiring(space, tokens)
    nc = np.flatnonzero(space.is_noncapture)
    rng = np.random.default_rng(23)
    for idx in rng.choice(nc, size=30, replace=False):
        a = run(space, profile, int(idx))
        b = run(space, bundled, int(idx))
        assert a.states == b.states
        assert a.termination == b.termination


def test_consecutive_states_respect_transition(tree9):
    space, profile = tree9
    trace = run(space, profile, (6, 1, 4, 1))
    for before, step in zip(trace.states, trace.steps):
        assert space.transition_index(before, step.action) == step.state_index
