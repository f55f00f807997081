import functools

import pytest

from scar.analysis import (
    replay_scenario,
    delayed_capture_demo,
    escape_start_witness,
    make_grid,
    payoff_equivalence_check,
    selfish_cop_number,
    sweep,
    sweep_csv,
    theorem_suite,
)
from scar.cr import cop_number, exact_capture_times
from scar.errors import ValidationError
from scar.graph import cycle_graph, parse_graph, path_graph, petersen_graph, star_graph
from scar.payoffs import GameParams
from scar.states import build_state_space


def small_grid(n):
    return make_grid(n, gammas=[0.3, 0.9], epsilons=[0.0, 1.0 / (n - 1)])


def test_make_grid_defaults():
    grid = make_grid(3)
    assert len(grid.gammas) == 5 and len(grid.epsilons) == 5
    assert grid.epsilons[0] == 0.0 and grid.epsilons[-1] == 0.5  # both boundaries
    assert max(grid.gammas) == 0.95
    for g in grid.gammas:
        for e in grid.epsilons:
            if e < 1.0:
                assert abs(g - e / (1.0 - e)) >= 1e-6  # kept away from the strictness boundary


def test_make_grid_nudges_boundary_gammas():
    grid = make_grid(3, gammas=[1.0 / 3.0], epsilons=[0.25])
    assert abs(grid.gammas[0] - 1.0 / 3.0) > 1e-6


def test_make_grid_names_a_gamma_the_nudge_would_push_out():
    with pytest.raises(ValidationError, match=r"gamma 5e-07 sits on the eps/\(1-eps\) boundary 0\.0,"):
        make_grid(3, gammas=[5e-7], epsilons=[0.0])


def test_make_grid_validates():
    with pytest.raises(ValidationError):
        make_grid(3, gammas=[1.5], epsilons=[0.1])
    with pytest.raises(ValidationError):
        make_grid(3, gammas=[0.5], epsilons=[0.9])


def test_selfish_cop_number_equals_cop_number():
    for g, c in ((path_graph(4), 1), (cycle_graph(4), 2), (petersen_graph(), 3)):
        rep = selfish_cop_number(g)
        assert rep["selfish_cop_number"] == rep["cop_number"] == c
        assert rep["verified_points"] == [] and rep["escape_witness"] is None and rep["consistent"]


def test_selfish_cop_number_verify_mode():
    rep = selfish_cop_number(cycle_graph(4), verify=True)
    assert rep["selfish_cop_number"] == 2
    assert rep["consistent"]
    # 3 points strided through the default grid of c + 1 players
    assert ([(p["gamma"], p["epsilon"]) for p in rep["verified_points"]]
            == make_grid(3).points()[::8][:3])
    assert all(p["ok"] for p in rep["verified_points"])
    assert rep["escape_witness"] is not None  # one pursuer fails from somewhere
    rep1 = selfish_cop_number(path_graph(4), verify=True)
    assert rep1["selfish_cop_number"] == 1 and rep1["consistent"] and rep1["escape_witness"] is None


def test_theorem_suite_c4():
    reports = {r.theorem_id: r for r in theorem_suite(cycle_graph(4), 3, grid=small_grid(3))}
    assert reports["threat-ne-exists"].passed
    assert reports["capturing-ne-exists"].passed
    assert reports["noncapturing-ne-exists"].passed
    assert "cop-win-all-ne-capturing" not in reports
    assert "escape-start-forces-noncapture" not in reports
    omega = reports["cr-optimal-ne-on-omega-tilde"]
    assert omega.passed
    assert "sampled" in omega.scope


def test_theorem_suite_pursuer_win_graph():
    reports = {r.theorem_id: r for r in theorem_suite(path_graph(4), 3, grid=small_grid(3))}
    assert reports["cop-win-all-ne-capturing"].passed
    assert reports["capturing-ne-exists"].passed
    assert "noncapturing-ne-exists" not in reports


def test_theorem_suite_petersen():
    grid = make_grid(3, gammas=[0.5], epsilons=[0.25])
    reports = {r.theorem_id: r for r in theorem_suite(petersen_graph(), 3, grid=grid)}
    assert reports["escape-start-forces-noncapture"].passed
    assert reports["noncapturing-ne-exists"].passed
    assert "capturing-ne-exists" not in reports  # needs cop number <= 2


def _count_tables_and_games(monkeypatch):
    """Record every payoff table (`GameParams.shares`) and auxiliary game the
    package builds."""
    from scar import equilibria

    tables, games = [], []
    build_shares, solve = GameParams.shares.func, equilibria.solve_aux_game

    def counting_table(params):
        tables.append((params.gamma, params.epsilon))
        return build_shares(params)

    def counting_game(space, params, player):
        games.append((params.gamma, params.epsilon, player))
        return solve(space, params, player)

    counted = functools.cached_property(counting_table)
    counted.__set_name__(GameParams, "shares")
    monkeypatch.setattr(GameParams, "shares", counted)
    monkeypatch.setattr(equilibria, "solve_aux_game", counting_game)
    return tables, games


def test_theorem_suite_solves_each_aux_game_once(monkeypatch):
    tables, games = _count_tables_and_games(monkeypatch)
    grid = small_grid(4)
    reports = {r.theorem_id for r in theorem_suite(cycle_graph(4), 4, grid=grid)}
    # both threat builders and the omega-tilde check ran
    assert {"capturing-ne-exists", "cr-optimal-ne-on-omega-tilde"} <= reports
    assert sorted(tables) == sorted(grid.points())
    # one per pursuer; the evader's is read off the capture table
    assert len(games) == len(grid.points()) * 3
    assert len(set(games)) == len(games)


def test_theorem_suite_solves_mdps_only_for_optimal_pursuit(monkeypatch):
    """Both threat kinds punish a deviator with his own aux game's coalition,
    whose best response is that game's value, so the threat verifier solves no
    MDP: only optimal pursuit's check at each omega-tilde point solves one per
    pursuer. The evader's best response to it is read off the capture table."""
    from scar import bellman

    calls = []
    solve = bellman.solve_mdp

    def counting(space, fixed, gamma, player, frozen_succ):
        calls.append(gamma)
        return solve(space, fixed, gamma, player, frozen_succ)

    monkeypatch.setattr(bellman, "solve_mdp", counting)
    grid = small_grid(4)
    reports = {r.theorem_id for r in theorem_suite(cycle_graph(4), 4, grid=grid)}
    assert {"threat-ne-exists", "capturing-ne-exists", "cr-optimal-ne-on-omega-tilde"} <= reports
    omega = [p for p in grid.points() if GameParams(4, *p).in_omega_tilde]
    assert omega
    assert len(calls) == 3 * len(omega)


def test_sweep_builds_one_payoff_table_per_point(monkeypatch):
    tables, games = _count_tables_and_games(monkeypatch)
    grid = small_grid(3)
    sweep(cycle_graph(4), 3, grid=grid)
    assert sorted(tables) == sorted(grid.points())
    assert len(games) == len(set(games)) == len(grid.points()) * 2


def test_theorem_suite_extracts_optimal_moves_once_per_table(monkeypatch):
    from scar import cr

    calls = []
    extract = cr.extract_cr_optimal_moves

    def counting(table):
        calls.append(table.space.n_players)
        return extract(table)

    monkeypatch.setattr(cr, "extract_cr_optimal_moves", counting)
    reports = {r.theorem_id for r in theorem_suite(cycle_graph(4), 4, grid=small_grid(4))}
    # every builder of a capturing, omega-tilde and non-capturing profile ran
    assert {"capturing-ne-exists", "cr-optimal-ne-on-omega-tilde", "noncapturing-ne-exists"} <= reports
    assert sorted(calls) == [2, 4]  # the one-pursuer table and the N-player table


def test_theorem_suite_searches_noncapturing_start_once_per_player(monkeypatch):
    """The forward search from the stacked start does not depend on (gamma,
    eps): one suite runs it once per player, and every grid point's gains are
    those of a construction built and searched afresh at that point."""
    from scar import equilibria

    calls = []
    search = equilibria._start_local_search

    def counting(prof, s0_index, player):
        calls.append(player)
        return search(prof, s0_index, player)

    monkeypatch.setattr(equilibria, "_start_local_search", counting)
    g = cycle_graph(8)
    reports = {r.theorem_id: r for r in theorem_suite(g, 4)}
    assert sorted(calls) == [1, 2, 3, 4]
    space = build_state_space(g, 4)
    table1 = exact_capture_times(build_state_space(g, 2))
    instances = reports["noncapturing-ne-exists"].instances
    assert len(instances) == 25
    for inst in instances:
        params = GameParams(4, inst["gamma"], inst["epsilon"])
        fresh = equilibria.build_noncapturing_ne(space, table1)
        rep = equilibria.verify_noncapturing_ne(equilibria.Game(space, params), fresh)
        assert inst["gains"] == rep.per_player_gain


def _ids_by_cop_number(g, n):
    """Suite ids by the hypotheses each suite states on the cop number c."""
    c = cop_number(g, max_cops=n - 1).value  # None: c >= N
    ids = ["threat-ne-exists"]
    if c is not None:
        ids += ["capturing-ne-exists", "cr-optimal-ne-on-omega-tilde"]
    if c == 1:
        ids.append("cop-win-all-ne-capturing")
    if c is None or c >= 2:
        ids.append("noncapturing-ne-exists")
    if c is None:
        ids.append("escape-start-forces-noncapture")
    return ids


@pytest.mark.parametrize("g, n", [(g, n) for g in (path_graph(4), cycle_graph(4), cycle_graph(5),
                                                   star_graph(5)) for n in (2, 3, 4)]
                         + [(petersen_graph(), 2), (petersen_graph(), 3)])
def test_suite_hypotheses_match_cop_number(g, n):
    """The suites read c <= N-1 off the N-player table and c == 1 off the
    one-pursuer table; they run what a cop-number search would choose."""
    grid = make_grid(n, gammas=[0.5], epsilons=[0.5 / (n - 1)])
    assert [r.theorem_id for r in theorem_suite(g, n, grid=grid)] == _ids_by_cop_number(g, n)


def _count_builds(monkeypatch):
    """Player counts of every state space built and every capture table solved,
    wherever a `scar` module binds the two functions; a cop-number search fails."""
    import scar
    from scar import analysis, cr, states

    calls = {"build_state_space": [], "exact_capture_times": []}
    for name, fn, players in (("build_state_space", states.build_state_space, lambda r: r.n_players),
                              ("exact_capture_times", cr.exact_capture_times,
                               lambda r: r.space.n_players)):
        def counting(*args, _fn=fn, _calls=calls[name], _players=players, **kwargs):
            result = _fn(*args, **kwargs)
            _calls.append(_players(result))
            return result
        for mod in vars(scar).values():
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)

    def no_search(*args, **kwargs):
        raise AssertionError("cop-number search")

    monkeypatch.setattr(analysis, "cop_number", no_search)
    return calls


@pytest.mark.parametrize("g, n, players", [(cycle_graph(8), 4, [2, 4]), (cycle_graph(5), 2, [2])])
def test_theorem_suite_solves_two_capture_tables(monkeypatch, g, n, players):
    """Its own N-player table and the one-pursuer table, one of each; at N = 2
    they are the same table."""
    calls = _count_builds(monkeypatch)
    theorem_suite(g, n, grid=small_grid(n))
    assert sorted(calls["build_state_space"]) == players
    assert sorted(calls["exact_capture_times"]) == players


def test_escape_witness():
    space = build_state_space(petersen_graph(), 3)
    table = exact_capture_times(space)
    w = escape_start_witness(table)
    assert w is not None and table.times[w] < 0
    copwin = build_state_space(path_graph(4), 2)
    assert escape_start_witness(exact_capture_times(copwin)) is None


def test_payoff_equivalence_small():
    rep = payoff_equivalence_check(cycle_graph(4), 3, trials=25, seed=1, gamma=0.6)
    assert rep["trials"] == 25
    assert rep["all_sums_exact"]
    assert rep["cr_optimal_is_ne"]
    assert not rep["failures"]


def test_sweep_rows_and_csv():
    grid = make_grid(3, gammas=[0.2, 0.9], epsilons=[0.25])
    rows = sweep(cycle_graph(4), 3, grid=grid, s0_list=[(1, 1, 3, 1), (1, 2, 3, 2)])
    assert len(rows) == 4
    by_gamma = {r["gamma"]: r for r in rows if r["s0"] == "1,1,3,1"}
    assert by_gamma[0.2]["omega_tilde"] is True  # 0.2 < 0.25/0.75
    assert by_gamma[0.2]["cr_optimal_is_ne"] is True
    assert by_gamma[0.9]["omega_tilde"] is False
    assert all(isinstance(r["threat_capture_time"], int) or r["threat_capture_time"] == "inf"
               for r in rows)
    csv_text = sweep_csv(rows)
    header, first = csv_text.splitlines()[:2]
    assert header == "gamma,epsilon,s0,omega_tilde,cr_optimal_is_ne,max_gap,threat_capture_time"
    assert first.startswith("0.2,0.25,")


def test_sweep_all_starts_cover_noncapture():
    grid = make_grid(3, gammas=[0.2], epsilons=[0.5])
    g = cycle_graph(4)
    rows = sweep(g, 3, grid=grid)
    space = build_state_space(g, 3)
    assert len(rows) == int(space.is_noncapture.sum())
    assert all(r["cr_optimal_is_ne"] for r in rows)  # omega-tilde point


def test_delayed_capture_demo_thresholds():
    base = delayed_capture_demo(0.9, 0.25)
    assert base.deviation_profitable and base.prediction_consistent
    assert base.threshold == pytest.approx((1 / 3) ** 0.125, abs=1e-12)
    low = delayed_capture_demo(0.8, 0.25)
    assert not low.deviation_profitable and low.prediction_consistent
    high_eps = delayed_capture_demo(0.9, 0.45)
    assert high_eps.threshold == pytest.approx((0.45 / 0.55) ** 0.125, abs=1e-12)
    assert not high_eps.deviation_profitable and high_eps.prediction_consistent


def test_theorem_reports_carry_replayable_counterexamples():
    reports = theorem_suite(cycle_graph(4), 3, grid=make_grid(3, gammas=[0.2], epsilons=[0.5]))
    for r in reports:
        for inst in r.instances:
            assert "passed" in inst
        if not r.passed:
            assert r.counterexample and "scenario" in r.counterexample


def test_failing_report_replays_to_same_verdict(monkeypatch):
    # a sabotaged threat builder whose cooperative part has everyone stay put
    # forever: a pursuer next to the evader gains by capturing him, so the
    # threat suite fails, and its embedded scenario must replay to the same verdict
    import dataclasses

    from scar import equilibria
    from scar.graph import delayed_capture_graph

    build = equilibria.build_threat_profile

    def idle_threat(game):
        return dataclasses.replace(build(game), cooperative=game.space.stay)

    monkeypatch.setattr(equilibria, "build_threat_profile", idle_threat)
    grid = make_grid(3, gammas=[0.5], epsilons=[0.25])
    reports = {r.theorem_id: r for r in theorem_suite(delayed_capture_graph(), 3, grid=grid)}
    failing = reports["threat-ne-exists"]
    assert not failing.passed
    assert failing.counterexample["detail"]["max_gain"] > 0.1
    scenario = failing.counterexample["scenario"]
    assert scenario["profile"] == "threat"
    verdict = replay_scenario(scenario)
    assert verdict["is_ne"] is False
    assert verdict["max_gain"] == failing.counterexample["detail"]["max_gain"]


# Known failures of the capturing-threat construction (ROADMAP item 10): the
# exact (gamma, eps) points where each suite fails on two atlas graphs, per
# suite as (instances, failing points). A fix, or a new failure, changes this.
G113 = "6 7\n1 3\n1 4\n1 5\n2 3\n2 4\n3 4\n4 6\n"
G769 = "7 11\n1 2\n1 4\n1 5\n1 6\n2 3\n2 6\n2 7\n3 4\n3 6\n4 5\n4 6\n"
KNOWN_FAILURES = {
    (G113, 4): {
        "threat-ne-exists": (25, []),
        "capturing-ne-exists": (25, [
            (0.1, 1 / 12), (0.3, 1 / 12), (0.3, 1 / 6), (0.3, 0.25), (0.3, 1 / 3),
            (0.499, 1 / 12), (0.499, 1 / 6), (0.499, 0.25), (0.499, 1 / 3),
            (0.7, 1 / 12), (0.7, 1 / 6), (0.7, 0.25), (0.7, 1 / 3),
            (0.95, 1 / 12), (0.95, 1 / 6), (0.95, 0.25), (0.95, 1 / 3)]),
        "cr-optimal-ne-on-omega-tilde": (6, [(0.3, 0.25), (0.3, 1 / 3), (0.499, 1 / 3)]),
        "cop-win-all-ne-capturing": (33, []),
    },
    (G769, 3): {
        "threat-ne-exists": (25, []),
        "capturing-ne-exists": (25, [
            (0.1, 0.0), (0.3, 0.0), (0.3, 0.125), (0.5, 0.0), (0.5, 0.125), (0.5, 0.25),
            (0.7, 0.0), (0.7, 0.125), (0.7, 0.25), (0.7, 0.375),
            (0.95, 0.0), (0.95, 0.125), (0.95, 0.25), (0.95, 0.375)]),
        "cr-optimal-ne-on-omega-tilde": (11, []),
        "cop-win-all-ne-capturing": (33, []),
    },
}


@pytest.mark.parametrize("edges, n", list(KNOWN_FAILURES))
def test_capturing_threat_fails_at_exactly_the_known_points(edges, n):
    got = {}
    for rep in theorem_suite(parse_graph(edges), n):
        failing = [(i["gamma"], i["epsilon"]) for i in rep.instances if i["passed"] is False]
        got[rep.theorem_id] = (len(rep.instances), failing)
    assert got == KNOWN_FAILURES[edges, n]
