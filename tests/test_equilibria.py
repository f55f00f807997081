import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from scar import bellman
from scar.analysis import build_profile, make_grid
from scar.cr import exact_capture_times, extract_cr_optimal_moves, t_n_max
from scar.equilibria import (
    Game,
    best_response,
    build_capturing_threat_ne,
    build_noncapturing_ne,
    build_threat_profile,
    equation_residuals,
    solve_aux_game,
    solve_positional_ne,
    verify_noncapturing_ne,
    verify_threat_ne,
)
from scar.errors import NonConvergenceError, NotApplicableError, ValidationError
from scar.graph import (
    build_graph,
    builtin_graph,
    cycle_graph,
    delayed_capture_graph,
    path_graph,
    petersen_graph,
)
from scar.payoffs import GameParams, discounted, turn_payoff, turn_payoffs
from scar.profiles import (
    ThreatProfile,
    combine_player_moves,
    greedy_cop_moves,
    merge_cop_moves,
    random_profile,
)
from scar.simulate import exact_profile_values, profile_outcomes, run, run_with_forced_deviation
from scar.states import build_state_space

from oracles import connected_atlas, evader_rows_evasion, moves_are_legal, positional_gaps


def verify_cr_optimal(game, **kwargs):
    return verify_threat_ne(game, build_profile(game, "cr-optimal"), **kwargs)


@pytest.fixture(scope="module")
def tree9_space():
    return build_state_space(delayed_capture_graph(), 3)


@pytest.fixture(scope="module")
def c4_space():
    return build_state_space(cycle_graph(4), 3)


# -- auxiliary games --------------------------------------------------------

def test_evader_aux_game_equals_pursuit_value(tree9_space):
    # the evader-vs-everyone game is exactly the two-pursuer pursuit game
    space = tree9_space
    params = GameParams(3, 0.9, 0.25)
    table = exact_capture_times(space)
    sol = solve_aux_game(space, params, 3)
    assert np.array_equal(sol.values, discounted(0.9, table.times, -1.0))
    # the game's own evader aux game is that table reading, equal to the float solve
    assert np.array_equal(Game(space, params).aux[2].values, sol.values)


def test_evader_side_is_the_capture_table_where_gamma_t_underflows():
    """path:40 at N=3 and gamma = 0.001: T_max is 116 and gamma^T underflows
    to 0 past T of about 108, where a float solve of the evader's aux game
    cannot tell a late capture from escape (its moves left optimal pursuit on
    440 rows). The game reads his side off the table, and both threat kinds
    keep the verdicts and cooperative capture turns the float solve gave."""
    space = build_state_space(path_graph(40), 3)
    table = space.capture_table
    assert t_n_max(table) == 116
    nc = space.is_noncapture
    for eps, threat_turns in ((0.0, 11465628), (0.25, 8829495)):
        game = Game(space, GameParams(3, 0.001, eps))
        assert game.aux[2].move is table.cr_optimal_moves
        threat_profile, capturing_profile = build_threat_profile(game), build_capturing_threat_ne(game)
        threat = verify_threat_ne(game, threat_profile)
        capturing = verify_threat_ne(game, capturing_profile)
        for rep, captures in ((threat, False), (capturing, True)):
            assert rep.is_ne and rep.summary()["max_gain"] == 0.0
            assert rep.captures_everywhere == captures
        turns = profile_outcomes(space, threat_profile.cooperative)[0]
        assert (turns >= 0).sum() == 191001 and turns.sum() == threat_turns
        assert threat.latest_capture == turns[nc].max()
        capturing_turns = profile_outcomes(space, capturing_profile.cooperative)[0]
        assert np.array_equal(capturing_turns, table.outcomes[0])
        assert np.array_equal(capturing_turns, table.times)
        assert capturing.latest_capture == 116
        # a deviating evader is caught after T > 108 turns: -gamma^T rounds to -0.0
        assert math.copysign(1.0, threat.per_player_gain[2]) == -1.0


def test_lone_pursuer_aux_value_positive_on_pursuer_win_graph():
    space = build_state_space(path_graph(3), 3)
    params = GameParams(3, 0.5, 0.25)
    sol = solve_aux_game(space, params, 1)
    assert (sol.values[: space.terminal_index] > 0).all()


def test_lone_pursuer_aux_value_zero_when_evader_dodges():
    # on the 4-cycle one pursuer never catches; from any state where the evader
    # is out of immediate reach, the adversarial coalition keeps him safe forever
    space = build_state_space(cycle_graph(4), 3)
    g = space.graph
    params = GameParams(3, 0.5, 0.25)
    sol = solve_aux_game(space, params, 1)
    for idx in np.flatnonzero(space.is_noncapture):
        x1 = int(space.positions[idx, 0])
        x3 = int(space.positions[idx, 2])
        if g.distances_from(x1)[x3] >= 2:
            assert abs(sol.values[idx]) <= 1e-9


def test_aux_strategies_attain_value(c4_space):
    # playing own vs coalition parts reproduces the game value at every state
    space = c4_space
    params = GameParams(3, 0.7, 0.4)
    for n in (1, 2, 3):
        sol = solve_aux_game(space, params, n)
        values = exact_profile_values(Game(space, params), profile_outcomes(space, sol.move))
        assert np.abs(values[n - 1] - sol.values).max() <= 1e-7


def test_tie_break_scale_invariance(c4_space):
    space = c4_space
    params = GameParams(3, 0.7, 0.4)
    sol = solve_aux_game(space, params, 2)
    for scale in (2.0, 0.5, 64.0):
        assert np.array_equal(bellman.greedy_moves(space, sol.values * scale, (2,)), sol.move)


def _python_greedy_moves(space, keys, maximizers):
    """Per non-capture state, the first action in ascending vertex order whose
    successor key (the mover's row of a 2-D `keys`) equals the best exactly:
    the max where a player in `maximizers` moves, the min elsewhere."""
    table = np.broadcast_to(keys, (space.n_players, space.n_states)).tolist()
    moves = [0] * space.n_states
    for s in np.flatnonzero(space.is_noncapture).tolist():
        mover = int(space.mover[s])
        row = table[mover - 1]
        options = space.actions(s, mover)
        vals = [row[space.transition_index(s, a)] for a in options]
        moves[s] = options[vals.index(max(vals) if mover in maximizers else min(vals))]
    return moves


@pytest.mark.parametrize("maximize", [True, False])
@pytest.mark.parametrize("g", [cycle_graph(5), petersen_graph()], ids=["cycle:5", "petersen"])
def test_greedy_moves_take_the_first_exact_optimum(g, maximize):
    """The block scan picks what a plain per-state scan picks: the first exact
    optimum. Values are a few integer levels plus offsets of +-1e-13, genuine
    gaps the size of gamma^13 at gamma 0.1, so most rows hold exact ties and
    near-ties on both sides of the optimum, none of which may be taken for it.
    The scan runs on one key array for every mover and on a per-mover table."""
    space = build_state_space(g, 3)
    rng = np.random.default_rng(23)
    offsets = np.array([0.0, 1e-13, -1e-13, 2e-13])
    for _ in range(5):
        shape = (3, space.n_states)
        values = rng.integers(0, 3, size=shape) + rng.choice(offsets, size=shape)
        for movers in ((1, 2, 3), (1, 3), (2,)):
            maximizers = movers if maximize else tuple(p for p in (1, 2, 3) if p not in movers)
            for keys in (values[0], values):
                got = bellman.greedy_moves(space, keys, maximizers)
                assert got.dtype == space.stay.dtype
                assert got.tolist() == _python_greedy_moves(space, keys, maximizers)


def test_zero_sum_backup_is_contraction(c4_space):
    space = c4_space
    rng = np.random.default_rng(5)
    gamma = 0.8
    nc = space.is_noncapture
    blocks = {p: space.turn_block(p) for p in (1, 2, 3)}
    groups = [(b.rows, b.succ, np.max if p == 1 else np.min) for p, b in blocks.items()]
    for _ in range(20):
        v = rng.normal(size=space.n_states)
        w = rng.normal(size=space.n_states)
        uv = bellman._value_iteration(v.copy(), gamma, 1, groups)[0]
        uw = bellman._value_iteration(w.copy(), gamma, 1, groups)[0]
        assert np.abs(uv[nc] - uw[nc]).max() <= gamma * np.abs(v - w).max() + 1e-12


def _python_fixpoint(space, fixed, backup):
    """Synchronous sweeps from 0 of v[s] = backup(v, s, successors of s) on the
    non-capture rows, the rest pinned at `fixed`, until nothing changes.
    Returns the values and the sweeps taken, the one that changed nothing too."""
    rows = np.flatnonzero(space.is_noncapture).tolist()
    succ = {s: space.succ[s].tolist() for s in rows}
    v = fixed.astype(float).tolist()
    for s in rows:
        v[s] = 0.0
    for sweeps in range(1, space.n_states + 2):
        new = {s: backup(v, s, succ[s]) for s in rows}
        if all(new[s] == v[s] for s in rows):
            return v, sweeps
        for s in rows:
            v[s] = new[s]
    raise AssertionError("reference sweeps did not settle")


def _python_best_response(space, fixed, gamma, free, frozen_succ):
    """v = gamma * max over successors on free rows, gamma * v[frozen successor] on the rest."""
    frozen = frozen_succ.tolist()
    return _python_fixpoint(space, fixed, lambda v, s, succ: gamma * max(v[t] for t in succ)
                            if free[s] else gamma * v[frozen[s]])


@pytest.mark.parametrize("g, n", [(path_graph(5), 3), (cycle_graph(4), 4), (cycle_graph(5), 4)])
def test_best_responses_equal_python_fixpoint_bit_for_bit(g, n):
    """Every player's best response against the optimal pursuit and against
    each threat punishment is the exact fixpoint, reached with residual 0 in
    no more sweeps than the synchronous ones take."""
    space = build_state_space(g, n)
    params = GameParams(n, 0.9, 0.25)
    threat = build_threat_profile(Game(space, params))
    frozen = [extract_cr_optimal_moves(exact_capture_times(space))]
    frozen += [threat.punishments[d] for d in range(1, n + 1)]
    for moves in frozen:
        frozen_succ = space.succ_of_moves(moves)
        for player in range(1, n + 1):
            free = space.mover == player
            q = turn_payoffs(space, params, player)
            values, iterations, residual = bellman.solve_mdp(space, q, params.gamma,
                                                             player, frozen_succ)
            expected, sweeps = _python_best_response(space, q, params.gamma, free,
                                                     frozen_succ)
            assert residual == 0.0 and iterations <= sweeps
            assert values.tobytes() == np.array(expected).tobytes()


def _python_zero_sum(space, fixed, gamma, max_mask):
    """v = gamma * max over successors on `max_mask` rows, gamma * min on the rest."""
    return _python_fixpoint(space, fixed, lambda v, s, succ: gamma * (max if max_mask[s] else min)(
        v[t] for t in succ))


@pytest.mark.parametrize("gamma", [0.1, 0.95])
@pytest.mark.parametrize("g, n", [(path_graph(5), 3), (cycle_graph(4), 4)])
def test_aux_games_equal_python_fixpoint_bit_for_bit(g, n, gamma):
    """Every player-vs-coalition game is solved to its exact fixpoint, in no
    more sweeps than the synchronous ones take, and its moves are the first
    exact optima of its values on both sides."""
    space = build_state_space(g, n)
    params = GameParams(n, gamma, 0.25)
    for player in range(1, n + 1):
        max_mask = space.mover == player
        q = turn_payoffs(space, params, player)
        sol = solve_aux_game(space, params, player)
        expected, sweeps = _python_zero_sum(space, q, gamma, max_mask)
        assert sol.values.tobytes() == np.array(expected).tobytes()
        values, iterations, residual, moves = bellman.solve_zero_sum(space, q, gamma, (player,))
        assert residual == 0.0 and iterations <= sweeps <= space.n_states + 1
        assert np.array_equal(values, sol.values) and np.array_equal(moves, sol.move)
        assert np.array_equal(bellman.greedy_moves(space, sol.values, (player,)), sol.move)


def test_game_payoff_table_is_read_only(c4_space):
    """A game's one payoff table is its params' class shares: read-only, built
    once, and outside equality and hashing."""
    params = GameParams(3, 0.7, 0.4)
    game = Game(c4_space, params)
    with pytest.raises(ValueError):
        game.params.shares[0] = 1.0
    assert params.shares is params.shares  # built once
    assert params == GameParams(3, 0.7, 0.4) and hash(params) == hash(GameParams(3, 0.7, 0.4))


# -- positional equilibrium solver and verifier -----------------------------

def test_two_player_positional_ne_on_path():
    space = build_state_space(path_graph(3), 2)
    game = Game(space, GameParams(2, 0.5, 0.5))
    res = solve_positional_ne(game)
    i0 = space.index_of((1, 3, 1))
    values = exact_profile_values(game, profile_outcomes(space, res.moves))
    assert values[0][i0] == pytest.approx(0.125, abs=1e-10)
    assert values[1][i0] == pytest.approx(-0.125, abs=1e-10)
    assert res.verification.summary()["max_gap"] <= 1e-8
    assert res.attainment_residual <= 1e-10
    assert res.consistency_residual <= 1e-10


def test_positional_ne_boundary_values(c4_space):
    space = c4_space
    params = GameParams(3, 0.6, 0.3)
    game = Game(space, params)
    values = exact_profile_values(game, profile_outcomes(space, solve_positional_ne(game).moves))
    cap = space.is_capture
    for p in (1, 2, 3):
        q = turn_payoffs(space, params, p)
        assert np.abs(values[p - 1, cap] - q[cap]).max() <= 1e-12


def test_positional_ne_on_example_tree(tree9_space):
    res = solve_positional_ne(Game(tree9_space, GameParams(3, 0.9, 0.25)))
    assert res.verification.is_ne
    assert res.verification.summary()["max_gap"] <= 1e-8


def test_freeze_profile_is_not_ne_on_pursuer_win_graph():
    # both pursuers freezing forever cannot be an equilibrium when one pursuer
    # alone could capture: he can deviate and collect
    space = build_state_space(path_graph(4), 3)
    params = GameParams(3, 0.6, 0.25)
    stay = np.zeros(space.n_states, dtype=np.int64)
    nc = np.flatnonzero(space.is_noncapture)
    stay[nc] = space.positions[nc, space.mover[nc] - 1]
    assert moves_are_legal(space, stay)
    report = verify_threat_ne(Game(space, params), ThreatProfile(space, stay, {}))
    assert not report.is_ne
    assert max(report.summary()["per_player_gap"][:2]) > 0.01


def test_cr_optimal_is_ne_inside_omega_tilde(c4_space):
    params = GameParams(3, 0.2, 0.5)
    assert params.in_omega_tilde
    report = verify_cr_optimal(Game(c4_space, params))
    assert report.is_ne


def test_cr_optimal_fails_outside_omega_tilde_on_tree(tree9_space):
    # at gamma=0.9 > (1/3)^(1/8) the leading pursuer gains by retreating first
    params = GameParams(3, 0.9, 0.25)
    assert not params.in_omega_tilde
    game = Game(tree9_space, params)
    i0 = tree9_space.index_of((6, 1, 4, 1))
    report = verify_cr_optimal(game, starts=[i0])
    assert not report.is_ne
    # the worked retreat deviation already nets 0.9^13*0.75 - 0.9^5*0.25, so the
    # best-response gap at the example start is at least that
    bound = 0.9**13 * 0.75 - 0.9**5 * 0.25 - 1e-9
    moves = tree9_space.capture_table.cr_optimal_moves
    values = exact_profile_values(game, profile_outcomes(tree9_space, moves))
    own_gap = best_response(game, 1, moves)[i0] - values[0, i0]
    assert report.start_gaps[0] >= own_gap >= bound


def test_equation_residuals_reject_wrong_values(c4_space):
    space = c4_space
    params = GameParams(3, 0.5, 0.25)
    res = solve_positional_ne(Game(space, params))
    values = exact_profile_values(Game(space, params), profile_outcomes(space, res.moves))
    att, cons = equation_residuals(Game(space, params), res.moves, values)
    assert att <= 1e-10 and cons <= 1e-10
    wrong = values + 0.01
    _, cons_wrong = equation_residuals(Game(space, params), res.moves, wrong)
    assert cons_wrong > 1e-3


@pytest.mark.parametrize("g, n", [(cycle_graph(5), 3), (path_graph(5), 3), (delayed_capture_graph(), 3),
                                  (cycle_graph(4), 4), (path_graph(4), 4)],
                         ids=["cycle:5", "path:5", "delayed-capture", "cycle:4-n4", "path:4-n4"])
def test_scan_of_positional_play_is_the_best_response_gap(g, n):
    """The deviation scan of a profile that punishes no one, floored at 0, is
    each player's largest best-response gap, and its start gaps are the
    per-state gaps of the oracle, both to the sign of a zero; for optimal
    pursuit and a random profile over the default grid."""
    space = build_state_space(g, n)
    starts = np.arange(space.n_states)
    profiles = [space.capture_table.cr_optimal_moves, random_profile(space, np.random.default_rng(5))]
    for gamma, eps in make_grid(n).points():
        game = Game(space, GameParams(n, gamma, eps))
        for moves in profiles:
            report = verify_threat_ne(game, ThreatProfile(space, moves, {}), starts=starts)
            per_player, state_gap = positional_gaps(game, moves)
            assert repr(report.summary()) == repr({"is_ne": max(per_player) <= report.tol,
                                                   "tol": report.tol, "max_gap": max(per_player),
                                                   "per_player_gap": per_player})
            assert repr(report.start_gaps) == repr(state_gap.tolist())


def test_verified_ne_sound_against_random_deviations(c4_space):
    # raw equilibrium inequality against 1000 random unilateral positional
    # deviations per player, exact payoffs on both sides
    space = c4_space
    params = GameParams(3, 0.2, 0.5)
    pursuit = space.capture_table.cr_optimal_moves
    report = verify_cr_optimal(Game(space, params))
    assert report.is_ne
    base = exact_profile_values(Game(space, params), profile_outcomes(space, pursuit))
    rng = np.random.default_rng(17)
    nc = np.flatnonzero(space.is_noncapture)
    for player in (1, 2, 3):
        rows = nc[space.mover[nc] == player]
        for _ in range(1000):
            moves = pursuit.copy()
            patch = rng.integers(0, space.acount[rows])
            moves[rows] = np.where(rng.random(rows.size) < 0.5,
                                   space.nbr[space.stay[rows], patch], moves[rows])
            dev = exact_profile_values(Game(space, params), profile_outcomes(space, moves))
            assert (dev[player - 1] <= base[player - 1] + 1e-8).all()


# -- threat profiles ---------------------------------------------------------

def test_threat_profile_is_ne_on_tree(tree9_space):
    params = GameParams(3, 0.9, 0.25)
    game = Game(tree9_space, params)
    threat = build_threat_profile(game)
    report = verify_threat_ne(game, threat)
    assert report.is_ne


def test_threat_equilibrium_path_is_cooperative(tree9_space):
    params = GameParams(3, 0.9, 0.25)
    threat = build_threat_profile(Game(tree9_space, params))
    a = run(tree9_space, threat, (6, 1, 4, 1))
    b = run(tree9_space, ThreatProfile(tree9_space, threat.cooperative, {}), (6, 1, 4, 1))
    assert a.states == b.states


def test_capturing_threat_ne_on_two_pursuer_graphs():
    for g in (cycle_graph(4), cycle_graph(5)):
        space = build_state_space(g, 3)
        params = GameParams(3, 0.9, 0.25)
        game = Game(space, params)
        threat = build_capturing_threat_ne(game)
        report = verify_threat_ne(game, threat)
        assert report.is_ne
        assert report.captures_everywhere


def test_capturing_threat_respects_time_bound():
    space = build_state_space(path_graph(4), 3)
    params = GameParams(3, 0.7, 0.3)
    game = Game(space, params)
    threat = build_capturing_threat_ne(game)
    report = verify_threat_ne(game, threat)
    assert report.is_ne and report.captures_everywhere
    bound = t_n_max(space.capture_table)
    assert report.latest_capture <= bound


def test_verdicts_hold_plain_values(c4_space):
    # a point's verdicts keep no working array, so two games at the same point
    # give verdicts equal by value, per-start gaps included
    params = GameParams(3, 0.9, 0.25)
    games = [Game(c4_space, params) for _ in range(2)]
    starts = np.flatnonzero(c4_space.is_noncapture)[::7]

    def positional(game, **kwargs):
        moves = solve_positional_ne(game).moves
        return verify_threat_ne(game, ThreatProfile(c4_space, moves, {}), **kwargs)

    verdicts = {
        "threat": lambda game: verify_threat_ne(game, build_threat_profile(game)),
        "capturing-threat": lambda game: verify_threat_ne(game, build_capturing_threat_ne(game)),
        "cr-optimal": verify_cr_optimal,
        "cr-optimal at starts": lambda game: verify_cr_optimal(game, starts=starts),
        "positional-ne": lambda game: solve_positional_ne(game).verification,
        "positional-ne at starts": lambda game: positional(game, starts=starts),
    }
    for kind, verify in verdicts.items():
        first, second = verify(games[0]), verify(games[1])
        for field in dataclasses.fields(first):
            assert not isinstance(getattr(first, field.name), np.ndarray), (kind, field.name)
        assert first == second and first is not second, kind
        assert dataclasses.replace(first, latest_capture=first.latest_capture + 1) != first
        if first.start_gaps is not None:
            assert len(first.start_gaps) == starts.size
            assert all(type(gap) is float for gap in first.start_gaps), kind


def test_start_gaps_need_a_profile_that_punishes_no_one(c4_space):
    game = Game(c4_space, GameParams(3, 0.9, 0.25))
    for build in (build_threat_profile, build_capturing_threat_ne):
        with pytest.raises(ValueError, match="punishes no one"):
            verify_threat_ne(game, build(game), starts=[0])


def test_capturing_threat_precondition():
    space = build_state_space(petersen_graph(), 3)
    with pytest.raises(NotApplicableError):
        build_capturing_threat_ne(Game(space, GameParams(3, 0.5, 0.25)))


def test_robber_deviation_meets_full_pursuit():
    # if the evader deviates against the capturing threat, the pursuers switch
    # to the coalition pursuit and still capture
    space = build_state_space(cycle_graph(4), 3)
    params = GameParams(3, 0.7, 0.3)
    threat = build_capturing_threat_ne(Game(space, params))
    s0 = (1, 2, 3, 3)  # robber moves first
    prescribed = threat.prescribed(space.index_of(s0), "coop")
    other = [a for a in space.actions(s0, 3) if a != prescribed][0]
    trace = run_with_forced_deviation(space, threat, 3, {1: other}, s0)
    assert trace.steps[0].mode == ("punish", 3)
    assert trace.termination == "captured"


def test_cr_optimal_is_ne_in_two_player_game():
    # with a single pursuer the game is zero-sum, so the canonical optimal
    # profile is an equilibrium for any parameters
    space = build_state_space(path_graph(4), 2)
    for gamma in (0.2, 0.9):
        rep = verify_cr_optimal(Game(space, GameParams(2, gamma, 0.5)))
        assert rep.is_ne


def test_corrupted_punishment_is_detected(tree9_space, monkeypatch):
    # lobotomize the punishment against player 1: the other pursuer just stays;
    # for some parameters deviating then beats cooperating and the verifier sees
    # it, while the intact capturing threat still verifies
    space = tree9_space
    solved_for = []
    solve = bellman.solve_mdp

    def counting(space, fixed, gamma, player, frozen_succ):
        solved_for.append(player)
        return solve(space, fixed, gamma, player, frozen_succ)

    monkeypatch.setattr(bellman, "solve_mdp", counting)
    detected = False
    for gamma, eps in ((0.9, 0.25), (0.95, 0.1), (0.8, 0.25)):
        game = Game(space, GameParams(3, gamma, eps))
        corrupted = build_capturing_threat_ne(game)
        moves = corrupted.punishments[1].copy()
        rows = np.flatnonzero(space.is_noncapture & (space.mover == 2))
        moves[rows] = space.positions[rows, 1]
        corrupted.punishments[1] = moves
        profiles = [build_threat_profile(game), build_capturing_threat_ne(game), corrupted]
        solved_for.clear()
        reports = [verify_threat_ne(game, p) for p in profiles]
        # punishments that are the aux-game moves are read off the aux games;
        # only the corrupted punishment of player 1 gets a solve of its own
        assert sorted(solved_for) == [1]
        assert reports[1].is_ne
        if reports[2].per_player_gain[0] > 1e-6:
            detected = True
    assert detected


def _threat_pair(game):
    return [build_threat_profile(game), build_capturing_threat_ne(game)]


def test_game_holds_no_per_state_payoff_table():
    """Petersen with N=4 (40,001 states), the space's own tables built by an
    earlier point: one more point's `Game`, aux games solved, holds at most 40
    bytes a state, the N aux values and the pursuers' moves in the vertex
    dtype (35). int64 moves would add 21, a dense (N, n_states) float payoff
    table 32."""
    space = build_state_space(petersen_graph(), 4)
    params = GameParams(4, 0.5, 0.25)
    assert len(Game(space, params).aux) == 4
    tracemalloc.start()
    try:
        game = Game(space, params)
        assert len(game.aux) == 4
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 40 * space.n_states


def test_threat_profiles_hold_no_per_deviator_copies():
    """Petersen with N=4 (40,001 states), aux games and capture table solved
    first: both threat profiles of the point hold at most 2 bytes a state,
    the threat kind's merged cooperative moves in the vertex dtype (1.0);
    int64 moves would take 8, and a copied punishment per deviator 9 even in
    the vertex dtype."""
    game = Game(build_state_space(petersen_graph(), 4), GameParams(4, 0.5, 0.25))
    assert game.space.capture_table.cr_optimal_moves.size == game.space.n_states
    assert len(game.aux) == 4
    tracemalloc.start()
    try:
        threats = _threat_pair(game)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(threats) == 2
    assert held <= 2 * game.space.n_states


def test_threat_punishments_are_the_read_only_aux_moves(tree9_space):
    game = Game(tree9_space, GameParams(3, 0.9, 0.25))
    # the evader's aux game is optimal pursuit: the capture table's own moves
    assert np.shares_memory(game.aux[-1].move, tree9_space.capture_table.cr_optimal_moves)
    for threat in _threat_pair(game):
        for d, sol in enumerate(game.aux, start=1):
            move = threat.punishments[d]
            assert move is sol.move and not move.flags.writeable


@pytest.mark.parametrize("name, n, gamma, eps", [("petersen", 4, 0.95, 0.1),
                                                 ("star:150", 2, 0.5, 0.25),
                                                 ("path:130", 2, 0.5, 0.25)])
def test_move_arrays_hold_the_vertex_dtype(name, n, gamma, eps):
    """Every move array the package builds has the dtype of `space.stay`
    (int8 on Petersen, int16 past 127 vertices), and its readers give the
    same result on an int64 copy: the offsets `moves - stay` fit that dtype."""
    space = build_state_space(builtin_graph(name), n)
    game = Game(space, GameParams(n, gamma, eps))
    threats = _threat_pair(game)
    table = space.capture_table
    arrays = [table.cr_optimal_moves, *(sol.move for sol in game.aux),
              bellman.greedy_moves(space, table.times, (n,)),
              combine_player_moves(space, [sol.move for sol in game.aux]),
              random_profile(space, np.random.default_rng(5)), merge_cop_moves(space),
              threats[0].cooperative, solve_positional_ne(game).moves]
    for moves in arrays:
        assert moves.dtype == space.stay.dtype
        wide = moves.astype(np.int64)
        assert np.array_equal(space.succ_of_moves(wide), space.succ_of_moves(moves))
        for a, b in zip(profile_outcomes(space, wide), profile_outcomes(space, moves)):
            assert np.array_equal(a, b)
    for threat in threats:
        wide = ThreatProfile(space, threat.cooperative.astype(np.int64),
                             {d: p.astype(np.int64) for d, p in threat.punishments.items()})
        assert verify_threat_ne(game, wide) == verify_threat_ne(game, threat)


def test_deviation_value_is_the_aux_value():
    """A deviator's best response to his own aux game's coalition is that
    game's value, bit for bit and sign bits included, for every player at
    every default-grid point: what lets the threat verifier read it off."""
    networkx = pytest.importorskip("networkx")
    graphs = connected_atlas(networkx, 5)
    assert len(graphs) == 30
    cases = [(g, n) for n in (3, 4) for g in graphs] + [(cycle_graph(6), 5)]
    checked = 0
    for g, n in cases:
        space = build_state_space(g, n)
        for gamma, eps in make_grid(n).points():
            game = Game(space, GameParams(n, gamma, eps))
            for d, sol in enumerate(game.aux, start=1):
                values = best_response(game, d, sol.move.copy())  # the MDP, not the read
                assert np.array_equal(values, sol.values)
                assert np.array_equal(np.signbit(values), np.signbit(sol.values))
                checked += 1
    assert checked == 25 * (30 * 3 + 30 * 4 + 5)


@pytest.mark.parametrize("g, n", [(delayed_capture_graph(), 3), (cycle_graph(5), 4)])
def test_best_response_reads_the_own_aux_value(g, n, monkeypatch):
    """Once the aux games are built, a pursuer's best response to his own aux
    game's moves is that game's value array itself, with no MDP; so verifying
    pursuer 1's aux moves as a positional profile solves only the other N-1."""
    space = build_state_space(g, n)
    game = Game(space, GameParams(n, 0.9, 0.25))
    aux = game.aux
    solved = []
    solve = bellman.solve_mdp
    monkeypatch.setattr(bellman, "solve_mdp", lambda *args: solved.append(args[3]) or solve(*args))
    for d in range(1, n):
        assert best_response(game, d, aux[d - 1].move) is aux[d - 1].values
    assert solved == []
    verify_threat_ne(game, ThreatProfile(space, aux[0].move, {}))
    assert solved == list(range(2, n + 1))


def test_copied_punishments_match_the_builders_without_aux_games(tree9_space, monkeypatch):
    """Copies of the aux moves are not the game's own arrays, so each gets an
    MDP of its own; the reports equal the builders', and checking the copies on
    a fresh game solves none of the auxiliary games they never use."""
    space = tree9_space
    solved = []
    for name in ("solve_zero_sum", "solve_mdp"):
        def counting(*args, _solve=getattr(bellman, name), _name=name):
            solved.append(_name)
            return _solve(*args)
        monkeypatch.setattr(bellman, name, counting)
    for gamma, eps in ((0.1, 0.0), (0.5, 0.25), (0.95, 0.5)):
        params = GameParams(3, gamma, eps)
        game = Game(space, params)
        built = _threat_pair(game)
        reports = [verify_threat_ne(game, t) for t in built]
        copies = [dataclasses.replace(
            t, cooperative=t.cooperative.copy(),
            punishments={d: p.copy() for d, p in t.punishments.items()})
            for t in built]
        fresh = Game(space, params)
        solved.clear()
        assert [verify_threat_ne(fresh, t) for t in copies] == reports
        assert solved == ["solve_mdp"] * 6  # one per deviator and profile, no aux game
        assert "aux" not in vars(fresh)


def test_punish_mode_keeps_the_deviators_rows_cooperative(tree9_space):
    """In ("punish", d) mode d's own rows follow the cooperative part and
    everyone else's follow d's auxiliary-game coalition strategy."""
    space = tree9_space
    game = Game(space, GameParams(3, 0.9, 0.25))
    nc = np.flatnonzero(space.is_noncapture)
    for threat in _threat_pair(game):
        for d, sol in enumerate(game.aux, start=1):
            own = space.mover[nc] == d
            expected = np.where(own, threat.cooperative[nc], sol.move[nc])
            played = [threat.prescribed(int(idx), ("punish", d)) for idx in nc]
            assert played == expected.tolist()


def test_nonconvergent_instance_reported_not_returned():
    # greedy sweeps oscillate with period 3 on this graph; the solver must
    # refuse with a cycle witness, and the threat construction still delivers
    g = build_graph(6, [(1, 2), (1, 4), (1, 5), (2, 5), (3, 6), (5, 6)])
    space = build_state_space(g, 3)
    game = Game(space, GameParams(3, 0.7727, 0.1326))
    with pytest.raises(NonConvergenceError) as info:
        solve_positional_ne(game)
    assert info.value.report["cycle_period"] == 3
    assert info.value.report["sweeps"] < 50  # an exact repeat, long before any cap
    threat = build_threat_profile(game)
    assert verify_threat_ne(game, threat).is_ne


def _python_positional_sweeps(space, params):
    """Canonical greedy sweeps in plain Python: each mover takes the first
    action, in ascending vertex order, attaining his best continuation exactly,
    and every value is backed up one step from the previous sweep's. Stops at
    the first sweep that changes no value; returns (sweeps, moves by state)."""
    n = params.n_players
    u = [[turn_payoff(space, params, s, m + 1) if space.is_capture[s] else 0.0
          for s in range(space.n_states)] for m in range(n)]
    sweeps = 0
    while True:
        sweeps += 1
        new = [row[:] for row in u]
        moves = {}
        for s in np.flatnonzero(space.is_noncapture).tolist():
            own = u[int(space.mover[s]) - 1]
            options = space.actions(s, int(space.mover[s]))
            nexts = [space.transition_index(s, a) for a in options]
            reach = [own[x] for x in nexts]
            k = reach.index(max(reach))
            moves[s] = options[k]
            for m in range(n):
                new[m][s] = params.gamma * u[m][nexts[k]]
        if new == u:
            return sweeps, moves
        u = new


@pytest.mark.parametrize("graph, gamma, eps", [(delayed_capture_graph(), 0.1, 0.25),
                                               (cycle_graph(5), 0.95, 0.125)])
def test_positional_sweeps_stop_at_the_exact_fixpoint(graph, gamma, eps):
    """The solver stops at the first sweep whose values repeat exactly, with
    the moves of that sweep: no stability wait and no value tolerance."""
    space = build_state_space(graph, 3)
    params = GameParams(3, gamma, eps)
    sweeps, moves = _python_positional_sweeps(space, params)
    res = solve_positional_ne(Game(space, params))
    assert res.sweeps == sweeps
    assert res.moves[list(moves)].tolist() == list(moves.values())


# -- non-capturing construction ----------------------------------------------

def _table1(space):
    """The one-pursuer capture-time table of the space's graph."""
    return exact_capture_times(build_state_space(space.graph, 2))


def test_noncapturing_ne_on_c4(c4_space):
    space = c4_space
    params = GameParams(3, 0.9, 0.25)
    constr = build_noncapturing_ne(space, _table1(space))
    assert constr.s0 == (1, 1, 3, 1)
    trace = run(space, constr.profile, constr.s0_index)
    assert trace.termination == "cycle"
    assert trace.capture_time == math.inf
    report = verify_noncapturing_ne(Game(space, params), constr)
    assert report.is_ne
    assert max(report.per_player_gain) <= 1e-8


def test_noncapturing_explicit_start(c4_space):
    params = GameParams(3, 0.5, 0.5)
    constr = build_noncapturing_ne(c4_space, _table1(c4_space), s0=(2, 2, 4, 1))
    assert constr.s0 == (2, 2, 4, 1)
    report = verify_noncapturing_ne(Game(c4_space, params), constr)
    assert report.is_ne


def test_noncapturing_rejects_bad_starts(c4_space):
    with pytest.raises(ValidationError):
        build_noncapturing_ne(c4_space, _table1(c4_space), s0=(1, 2, 3, 1))  # not stacked
    with pytest.raises(ValidationError):
        build_noncapturing_ne(c4_space, _table1(c4_space), s0=(1, 1, 2, 2))  # wrong mover
    with pytest.raises(ValidationError):
        build_noncapturing_ne(c4_space, _table1(c4_space), s0=(1, 1, 2, 1))  # adjacent: pursuer wins
    with pytest.raises(ValidationError):
        build_noncapturing_ne(c4_space, exact_capture_times(c4_space))  # two pursuers
    with pytest.raises(ValidationError):
        build_noncapturing_ne(c4_space, _table1(build_state_space(cycle_graph(5), 3)))  # other graph


@pytest.mark.parametrize("graph", [cycle_graph(4), cycle_graph(7), petersen_graph(),
                                   build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)])])
def test_noncapturing_start_and_evasion_match_per_pair_scan(graph):
    """Default start: the first (x, y) in x-major order whose one-pursuer game,
    pursuer to move, is an evader win; punishment of pursuer d: on the
    evader's rows, the one-pursuer optimal move at (x_d, y, 2)."""
    space = build_state_space(graph, 3)
    table1 = _table1(space)
    constr = build_noncapturing_ne(space, table1)
    v = graph.vertex_count
    pairs = [(x, y) for x in range(1, v + 1) for y in range(1, v + 1)
             if x != y and table1.times[table1.space.index_of((x, y, 1))] < 0]
    x, y = pairs[0]
    assert constr.s0 == (x, x, y, 1)
    rows, evasion = evader_rows_evasion(space, table1)
    for d, moves in evasion.items():
        assert np.array_equal(constr.profile.punishments[d][rows], moves)


def test_noncapturing_not_applicable_on_pursuer_win():
    space = build_state_space(path_graph(3), 3)
    with pytest.raises(NotApplicableError):
        build_noncapturing_ne(space, _table1(space))


def test_noncapturing_on_petersen():
    space = build_state_space(petersen_graph(), 3)
    params = GameParams(3, 0.5, 0.25)
    constr = build_noncapturing_ne(space, _table1(space))
    trace = run(space, constr.profile, constr.s0_index)
    assert trace.termination == "cycle"
    report = verify_noncapturing_ne(Game(space, params), constr)
    assert report.is_ne


def test_noncapturing_verifier_stays_local_at_benchmark_scale():
    """Petersen with N=4 has 40,001 states and 160,004 (state, mode) pairs; each
    best response only needs the few hundred reachable from s0 in cooperative mode."""
    space = build_state_space(petersen_graph(), 4)
    constr = build_noncapturing_ne(space, _table1(space))
    for gamma, eps in make_grid(4).points():
        report = verify_noncapturing_ne(Game(space, GameParams(4, gamma, eps)), constr)
        assert report.is_ne
        assert report.per_player_gain == [0.0] * 4
        assert max(report.explored) < 1000
    assert space._succ is None  # the search steps each move; no dense successor table


def test_noncapturing_construction_holds_vertex_dtype_moves():
    """Petersen with N=4 (40,001 states), the space's turn blocks built first:
    the construction holds at most 5 bytes a state, its cooperative moves and
    one punishment per pursuer in the vertex dtype (4.4 measured); int64
    pursuer moves alone would take 8."""
    space = build_state_space(petersen_graph(), 4)
    table1 = _table1(space)
    for player in range(1, 5):
        space.turn_block(player)
    tracemalloc.start()
    try:
        constr = build_noncapturing_ne(space, table1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    prof = constr.profile
    assert prof.punishments[4] is prof.cooperative  # an evader's deviation changes nothing
    for moves in [prof.cooperative, *prof.punishments.values()]:
        assert moves.dtype == space.stay.dtype
    assert held <= 5 * space.n_states


def test_merge_cop_moves_scan_the_turn_blocks_in_the_vertex_dtype():
    """Petersen with N=4 (40,001 states), the space's turn blocks built first:
    `merge_cop_moves` peaks at 10 bytes a state or less (5.9 measured) to
    build its 1-byte result; int64 row indices and (rows, K) gathers took 53."""
    space = build_state_space(petersen_graph(), 4)
    for player in range(1, 5):
        space.turn_block(player)
    tracemalloc.start()
    try:
        moves = merge_cop_moves(space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert moves.dtype == space.stay.dtype
    assert peak <= 10 * space.n_states


def _loop_merge_cop_moves(space):
    """Per-row reference for `merge_cop_moves`: a pursuer with everyone on his
    vertex stays, else steps to the lowest vertex one closer to the first
    pursuer standing elsewhere."""
    g = space.graph
    ncops = space.n_players - 1
    moves = np.zeros(space.n_states, dtype=np.int64)
    for s in np.flatnonzero(space.is_noncapture & (space.mover < space.n_players)):
        cop = int(space.mover[s])
        pos = space.positions[s]
        here = int(pos[cop - 1])
        apart = [c for c in range(1, ncops + 1) if c != cop and int(pos[c - 1]) != here]
        if not apart:
            moves[s] = here
            continue
        dist = g.distances_from(int(pos[apart[0] - 1]))
        moves[s] = min(a for a in g.closed_neighborhood(here) if dist[a] == dist[here] - 1)
    return moves


@pytest.mark.parametrize("g, n", [(cycle_graph(8), 4), (cycle_graph(5), 4), (petersen_graph(), 4),
                                  (petersen_graph(), 3), (cycle_graph(4), 2)])
def test_merge_cop_moves_match_per_row_reference(g, n):
    space = build_state_space(g, n)
    assert np.array_equal(merge_cop_moves(space), _loop_merge_cop_moves(space))


@pytest.mark.parametrize("g, n", [(delayed_capture_graph(), 3), (cycle_graph(6), 3), (cycle_graph(4), 4)])
def test_greedy_cop_moves_match_per_row_reference(g, n):
    """Each pursuer steps to the closed-neighbourhood vertex closest to the
    evader, lowest id on ties, per row by BFS distance."""
    space = build_state_space(g, n)
    for cop in range(1, n):
        expected = np.zeros(space.n_states, dtype=np.int64)
        for s in np.flatnonzero(space.is_noncapture & (space.mover == cop)):
            dist = g.distances_from(int(space.positions[s, -1]))
            expected[s] = min(g.closed_neighborhood(int(space.stay[s])), key=lambda a: (dist[a], a))
        assert np.array_equal(greedy_cop_moves(space, cop), expected)


def _python_deviation_value(space, params, prof, s0_index, player, tol=1e-13):
    """Best value of `player` (a pursuer or the evader) from (s0, initial mode)
    against the profile's own prescribed/observe automaton, by Gauss-Seidel
    sweeps over what is reachable."""
    start = (s0_index, prof.initial_mode())
    succ = {}
    todo = [start]
    while todo:
        node = todo.pop()
        if node in succ:
            continue
        idx, mode = node
        succ[node] = []
        if space.is_noncapture[idx]:
            mover = int(space.mover[idx])
            options = space.actions(idx, mover) if mover == player else [prof.prescribed(idx, mode)]
            succ[node] = [(space.transition_index(idx, a), prof.observe(idx, mover, a, mode))
                          for a in options]
            todo.extend(succ[node])
    value = {node: turn_payoff(space, params, node[0], player) for node in succ}
    change = math.inf
    while change > tol:
        change = 0.0
        for node, nxt in succ.items():
            if nxt:
                new = params.gamma * max(value[x] for x in nxt)
                change = max(change, abs(new - value[node]))
                value[node] = new
    return value[start]


def _sabotaged(space, prof, evader, moves):
    """`prof` with `moves` on the evader's rows (if `evader`, else on the
    pursuers'), in its cooperative array and every punishment array alike."""
    rows = space.is_noncapture & ((space.mover == space.n_players) == evader)

    def patch(arr):
        return np.where(rows, moves, arr).astype(arr.dtype)

    return dataclasses.replace(prof, cooperative=patch(prof.cooperative),
                               punishments={d: patch(p) for d, p in prof.punishments.items()})


def _still_evader(space, prof):
    return _sabotaged(space, prof, True, space.stay)


def _greedy_pursuers(space, prof):
    moves = sum(greedy_cop_moves(space, cop) for cop in range(1, space.n_players))
    return _sabotaged(space, prof, False, moves)


@pytest.mark.parametrize("sabotage", [_still_evader, _greedy_pursuers])
@pytest.mark.parametrize("graph, n", [(cycle_graph(4), 3), (cycle_graph(5), 4)])
def test_pursuer_deviation_gains_match_python_value_iteration(graph, n, sabotage):
    """Sabotaged constructions: an evader who never dodges can be walked onto;
    pursuers who chase instead of stacking run down an evader who stands still
    until someone breaks from the chase."""
    space = build_state_space(graph, n)
    params = GameParams(n, 0.9, 0.25)
    constr = build_noncapturing_ne(space, _table1(space))
    constr.profile = sabotage(space, constr.profile)
    report = verify_noncapturing_ne(Game(space, params), constr)
    expected = [_python_deviation_value(space, params, constr.profile, constr.s0_index, p)
                for p in range(1, n)]
    assert min(expected) > 0.1
    assert report.per_player_gain[:-1] == pytest.approx(expected, rel=0, abs=1e-9)
    assert not report.is_ne


def _cr_optimal_pursuers(space, prof):
    return _sabotaged(space, prof, False, extract_cr_optimal_moves(exact_capture_times(space)))


def _random_pursuers(space, prof):
    # seed 111 on cycle:5 N=4: the evader's longest delay (19 turns) exceeds
    # the shortest depth of every capture he can reach (at most 15)
    return _sabotaged(space, prof, False, random_profile(space, np.random.default_rng(111)))


@pytest.mark.parametrize("graph, n, sabotage", [(cycle_graph(4), 3, _cr_optimal_pursuers),
                                                (cycle_graph(5), 4, _cr_optimal_pursuers),
                                                (cycle_graph(5), 4, _random_pursuers)])
def test_evader_deviation_gain_matches_python_value_iteration(graph, n, sabotage):
    """Sabotaged constructions: pursuers who leave the stack catch the evader
    however he runs, so his best response is the longest delay."""
    space = build_state_space(graph, n)
    params = GameParams(n, 0.9, 0.25)
    constr = build_noncapturing_ne(space, _table1(space))
    constr.profile = sabotage(space, constr.profile)
    report = verify_noncapturing_ne(Game(space, params), constr)
    expected = _python_deviation_value(space, params, constr.profile, constr.s0_index, n)
    assert expected < 0
    assert report.per_player_gain[-1] == pytest.approx(expected, rel=0, abs=1e-9)
