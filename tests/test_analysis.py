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
from scar.cr import exact_capture_times
from scar.errors import ValidationError
from scar.graph import cycle_graph, path_graph, petersen_graph
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


def test_make_grid_validates():
    with pytest.raises(ValidationError):
        make_grid(3, gammas=[1.5], epsilons=[0.1])
    with pytest.raises(ValidationError):
        make_grid(3, gammas=[0.5], epsilons=[0.9])


def test_selfish_cop_number_equals_cop_number():
    assert selfish_cop_number(path_graph(4)).value == 1
    assert selfish_cop_number(cycle_graph(4)).value == 2
    assert selfish_cop_number(petersen_graph()).value == 3


def test_selfish_cop_number_verify_mode():
    rep = selfish_cop_number(cycle_graph(4), verify=True, grid=small_grid(3),
                             sample_points=2)
    assert rep.value == 2
    assert rep.consistent
    assert rep.verified_points and all(p["ok"] for p in rep.verified_points)
    assert rep.escape_witness is not None  # one pursuer fails from somewhere
    rep1 = selfish_cop_number(path_graph(4), verify=True, grid=small_grid(2),
                              sample_points=1)
    assert rep1.value == 1 and rep1.consistent and rep1.escape_witness is None


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


def test_theorem_suite_solves_each_aux_game_once(monkeypatch):
    from scar import equilibria

    calls = []
    solve = equilibria.solve_aux_game

    def counting(space, params, player, tol):
        calls.append((params.gamma, params.epsilon, player))
        return solve(space, params, player, tol=tol)

    monkeypatch.setattr(equilibria, "solve_aux_game", counting)
    grid = small_grid(4)
    reports = {r.theorem_id for r in theorem_suite(cycle_graph(4), 4, grid=grid)}
    assert "capturing-ne-exists" in reports  # both threat builders ran
    assert len(calls) == len(grid.points()) * 4
    assert len(set(calls)) == len(calls)


def test_escape_witness():
    space = build_state_space(petersen_graph(), 3)
    w = escape_start_witness(space)
    table = exact_capture_times(space)
    assert w is not None and table.times[w] < 0
    copwin = build_state_space(path_graph(4), 2)
    assert escape_start_witness(copwin) is None


def test_payoff_equivalence_small():
    rep = payoff_equivalence_check(cycle_graph(4), 3, trials=25, seed=1, gamma=0.6)
    assert rep.all_sums_exact
    assert rep.cr_optimal_is_ne
    assert not rep.failures


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


def test_failing_report_replays_to_same_verdict():
    # an absurd gap tolerance turns harmless value-iteration noise into
    # failures; the embedded scenario must replay to the same verdict
    from scar.graph import delayed_capture_graph

    grid = make_grid(3, gammas=[0.1], epsilons=[0.0])
    reports = theorem_suite(delayed_capture_graph(), 3, grid=grid, tol=1e-30)
    failing = [r for r in reports if not r.passed]
    assert failing, "1e-30 gap tolerance must fail somewhere"
    replayed = 0
    for r in failing:
        scenario = r.counterexample["scenario"]
        if scenario is None or scenario.get("profile") not in (
                "threat", "capturing-threat", "cr-optimal", "noncapturing-construction"):
            continue
        verdict = replay_scenario(scenario)
        assert verdict["is_ne"] is False
        replayed += 1
    assert replayed > 0
