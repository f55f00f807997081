"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Tolerances are pinned here, not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from scar.analysis import (
    build_profile,
    delayed_capture_demo,
    escape_start_witness,
    make_grid,
    payoff_equivalence_check,
    selfish_cop_number,
)
from scar.cr import (
    cop_number,
    exact_capture_times,
    minimax_capture_times,
)
from scar.equilibria import (
    Game,
    build_capturing_threat_ne,
    build_noncapturing_ne,
    build_threat_profile,
    solve_positional_ne,
    verify_noncapturing_ne,
    verify_threat_ne,
)
from scar.errors import NonConvergenceError, NotAnEquilibriumError
from scar.graph import (
    build_graph,
    cycle_graph,
    delayed_capture_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from scar.payoffs import GameParams, discounted, turn_payoff
from scar.simulate import run
from scar.states import build_state_space

from oracles import discounted_cr_value

NE_TOL = 1e-8

PATHS_AND_TREES = [
    ("P2", path_graph(2)),
    ("P3", path_graph(3)),
    ("P4", path_graph(4)),
    ("P5", path_graph(5)),
    ("P6", path_graph(6)),
    ("star5", star_graph(5)),
    ("tree9", delayed_capture_graph()),
    ("broom6", build_graph(6, [(1, 2), (2, 3), (3, 4), (3, 5), (3, 6)])),
]
CYCLES = [(f"C{n}", cycle_graph(n)) for n in range(4, 9)]


def _report(criterion, started, detail=""):
    dt = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS in {dt:.2f}s{suffix}")


def test_criterion_01_example_reproduction():
    started = time.perf_counter()
    demo = delayed_capture_demo(0.9, 0.25)
    coop, dev = demo.cooperative_trace, demo.deviation_trace
    assert coop.positions_of(1) == [6, 5, 5, 5, 4, 4]
    assert coop.positions_of(2) == [1, 1, 2, 2, 2, 3]
    assert coop.positions_of(3) == [4, 4, 4, 3, 3, 3]
    assert coop.capture_time == 5 and coop.capturing_set == (2,)
    assert dev.positions_of(1) == [6, 7, 7, 7, 6, 6, 6, 5, 5, 5, 8, 8, 8, 9]
    assert dev.positions_of(2) == [1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5]
    assert dev.positions_of(3) == [4, 4, 4, 5, 5, 5, 8, 8, 8, 9, 9, 9, 9, 9]
    assert dev.capture_time == 13 and dev.capturing_set == (1,)
    assert demo.cooperative_symbolic == ["eps*gamma^5", "(1-eps)*gamma^5", "-gamma^5"]
    assert demo.deviation_symbolic == ["(1-eps)*gamma^13", "eps*gamma^13", "-gamma^13"]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"reproduction took {elapsed:.2f}s, budget is 1s"
    _report(1, started, "both turn tables cell-for-cell")


def test_criterion_02_deviation_threshold():
    started = time.perf_counter()
    demo = delayed_capture_demo(0.9, 0.25)
    q1_coop = demo.cooperative_payoffs[0]
    q1_dev = demo.deviation_payoffs[0]
    assert abs(q1_coop - 0.9**5 * 0.25) <= 1e-12
    assert abs(q1_dev - 0.9**13 * 0.75) <= 1e-12
    assert abs(q1_dev - 0.19063993712467509) <= 1e-12
    assert abs(q1_coop - 0.1476225) <= 1e-12
    assert q1_dev > q1_coop
    assert 0.9 > demo.threshold and demo.prediction_consistent
    # the strict inequality cross-checked in exact rationals
    assert Fraction(0.9) ** 13 * (1 - Fraction(0.25)) > Fraction(0.9) ** 5 * Fraction(0.25)
    assert Fraction(0.8) ** 13 * (1 - Fraction(0.25)) < Fraction(0.8) ** 5 * Fraction(0.25)
    low = delayed_capture_demo(0.8, 0.25)
    assert low.deviation_payoffs[0] < low.cooperative_payoffs[0]
    assert 0.8 < low.threshold and low.prediction_consistent
    _report(2, started, "profitable at 0.9, not at 0.8, threshold (1/3)^(1/8), exact cross-check")


def test_criterion_03_cop_number_oracle_suite():
    started = time.perf_counter()
    suite = [(name, g, 1) for name, g in PATHS_AND_TREES]
    suite += [(name, g, 2) for name, g in CYCLES]
    suite += [("petersen", petersen_graph(), 3)]
    for name, g, expected in suite:
        main = cop_number(g, max_cops=3)
        # the oracle labels each k-pursuer space itself, up to its first capture-guaranteed k
        finite_by_cops = {}
        for k in range(1, 4):
            finite_by_cops[k] = minimax_capture_times(build_state_space(g, k + 1)).finite_on_noncapture()
            if finite_by_cops[k]:
                break
        oracle_value = k if finite_by_cops[k] else None
        assert main.value == expected, f"{name}: got {main.value}, expected {expected}"
        assert oracle_value == expected, f"{name} (oracle): got {oracle_value}"
        assert main.finite_by_cops == finite_by_cops
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s, budget is 60s"
    _report(3, started, f"{len(suite)} graphs, solver and oracle agree")


def test_criterion_04_exact_discounted_duality():
    started = time.perf_counter()
    networkx = pytest.importorskip("networkx")
    atlas = networkx.graph_atlas_g()
    catalog = []
    for ag in atlas:
        n = ag.number_of_nodes()
        if 2 <= n <= 6 and networkx.is_connected(ag):
            relabel = {v: i + 1 for i, v in enumerate(sorted(ag.nodes()))}
            edges = [(relabel[u], relabel[v]) for u, v in ag.edges()]
            catalog.append(build_graph(n, edges))
    assert len(catalog) == 142  # connected graphs on 2..6 vertices, up to isomorphism
    for g in catalog:
        for n_players in (2, 3):
            space = build_state_space(g, n_players)
            table = exact_capture_times(space)
            for gamma in (0.3, 0.9):
                values = discounted_cr_value(space, gamma)
                assert np.array_equal(values, discounted(gamma, table.times, 1.0))
    _report(4, started, "142 graphs x N in (2,3) x gamma in (0.3,0.9); v == gamma^T bit for bit")


def test_criterion_05_zero_sum_and_split_invariants():
    started = time.perf_counter()
    spaces = [
        build_state_space(path_graph(2), 2),
        build_state_space(path_graph(2), 4),
        build_state_space(path_graph(3), 3),
        build_state_space(path_graph(3), 5),
        build_state_space(cycle_graph(4), 3),
        build_state_space(delayed_capture_graph(), 3),
    ]
    checked = 0
    for space in spaces:
        n = space.n_players
        hi = Fraction(1, n - 1)
        capture_rows = [i for i in range(space.n_states - 1) if space.is_capture[i]]
        grids = [GameParams(n, 0.5, float(hi * k / 10)) for k in range(11)]
        grids.append(GameParams(n, 0.5, split_equivalent=True))
        for params in grids:
            for idx in capture_rows:
                total = sum(turn_payoff(space, params, idx, p, exact=True)
                            for p in range(1, n + 1))
                assert total == 0
                checked += 1
    # split monotonicity, exact rationals, 11-point grid per player count
    for n in (3, 4, 5):
        hi = Fraction(1, n - 1)
        for k in range(11):
            eps = hi * k / 10
            shares = [(1 - eps) / n1 for n1 in range(1, n - 1)] + [Fraction(1, n - 1)]
            assert all(a >= b for a, b in zip(shares, shares[1:]))
            for n1 in range(1, n - 1):
                assert (1 - eps) / n1 >= eps / (n - 1 - n1)
    _report(5, started, f"{checked} capture-state sums exactly zero; splits monotone")


@pytest.fixture(scope="module")
def battery_graphs():
    return [
        ("P4", path_graph(4)),
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("tree9", delayed_capture_graph()),
    ]


def test_criterion_06_threat_ne_battery(battery_graphs):
    started = time.perf_counter()
    grid = make_grid(3)
    assert len(grid.points()) == 25
    instances = 0
    for name, g in battery_graphs:
        space = build_state_space(g, 3)
        capturing_applicable = space.capture_table.finite_on_noncapture()
        for gamma, eps in grid.points():
            params = GameParams(3, gamma, eps)
            game = Game(space, params)
            threat = build_threat_profile(game)
            rep = verify_threat_ne(game, threat, tol=NE_TOL)
            assert rep.is_ne, f"{name} threat at ({gamma},{eps}): gain {max(rep.per_player_gain):.2e}"
            instances += 1
            if capturing_applicable:
                cap = build_capturing_threat_ne(game)
                rep2 = verify_threat_ne(game, cap, tol=NE_TOL)
                assert rep2.is_ne, f"{name} capturing at ({gamma},{eps}): gain {max(rep2.per_player_gain):.2e}"
                assert rep2.captures_everywhere
                instances += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"battery took {elapsed:.1f}s, budget is 10min"
    _report(6, started, f"{instances} profile verifications, all gaps <= 1e-8, all starts")


def test_criterion_07_omega_tilde_theorem():
    started = time.perf_counter()
    points = [(0.2, 0.5), (0.5, 0.45), (0.3, 0.4), (0.1, 0.3), (0.6, 0.45)]
    for g in (cycle_graph(4), cycle_graph(5)):
        space = build_state_space(g, 3)
        for gamma, eps in points:
            params = GameParams(3, gamma, eps)
            assert params.in_omega_tilde
            game = Game(space, params)
            rep = verify_threat_ne(game, build_profile(game, "cr-optimal"), tol=NE_TOL)
            assert rep.is_ne, f"({gamma},{eps}) on {g.vertex_count}-cycle: gap {max(rep.per_player_gain):.2e}"
    _report(7, started, "C4 and C5, 5 sampled points inside the region, every start")


def test_criterion_08_noncapturing_constructions():
    started = time.perf_counter()
    space = build_state_space(cycle_graph(4), 3)
    params = GameParams(3, 0.9, 0.25)
    constr = build_noncapturing_ne(space, exact_capture_times(build_state_space(cycle_graph(4), 2)))
    assert constr.s0 == (1, 1, 3, 1)
    trace = run(space, constr.profile, constr.s0_index)
    assert trace.termination == "cycle" and trace.capture_time == math.inf
    rep = verify_noncapturing_ne(Game(space, params), constr, tol=NE_TOL)
    assert rep.is_ne
    # two pursuers cannot corner the evader on the Petersen graph: the exact
    # table certifies an escape start, so every equilibrium there is non-capturing
    pspace = build_state_space(petersen_graph(), 3)
    ptable = exact_capture_times(pspace)
    witness = escape_start_witness(ptable)
    assert witness is not None
    assert ptable.times[witness] < 0
    _report(8, started,
            f"C4 stacked start verified; escape start {pspace.state_at(witness)} on petersen")


def test_criterion_09_split_equivalence():
    started = time.perf_counter()
    for g in (cycle_graph(4), delayed_capture_graph()):
        rep = payoff_equivalence_check(g, 3, trials=100, seed=42, gamma=0.7)
        assert rep["all_sums_exact"], rep["failures"]
        assert rep["cr_optimal_is_ne"]
    _report(9, started, "100 random profiles per graph, sums exact; optimal pursuit is NE")


def test_criterion_10_selfish_cop_number():
    started = time.perf_counter()
    suite = PATHS_AND_TREES + CYCLES + [("petersen", petersen_graph())]
    for name, g in suite:
        expected = cop_number(g, max_cops=3).value
        got = selfish_cop_number(g, max_cops=3)["selfish_cop_number"]
        assert got == expected, f"{name}: selfish {got} != cop number {expected}"
    for g in (path_graph(4), cycle_graph(4), cycle_graph(5)):
        rep = selfish_cop_number(g, max_cops=3, verify=True)
        assert rep["consistent"] and len(rep["verified_points"]) == 3
    rep = selfish_cop_number(petersen_graph(), max_cops=3, verify=True)
    assert rep["consistent"] and rep["escape_witness"] is not None
    _report(10, started, f"{len(suite)} graphs match; verify mode consistent")


def test_criterion_11_positional_ne_residuals():
    started = time.perf_counter()
    instances = [
        (path_graph(3), 2, 0.5, 0.5),
        (path_graph(2), 4, 0.6, 0.2),
        (path_graph(4), 3, 0.7, 0.3),
        (cycle_graph(4), 3, 0.2, 0.5),
        (cycle_graph(4), 3, 0.9, 0.25),
        (cycle_graph(5), 3, 0.5, 0.125),
        (delayed_capture_graph(), 3, 0.9, 0.25),
        (delayed_capture_graph(), 3, 0.3, 0.5),
        (petersen_graph(), 3, 0.6, 0.4),
    ]
    converged = 0
    nonconverged = 0
    for g, n, gamma, eps in instances:
        space = build_state_space(g, n)
        try:
            res = solve_positional_ne(Game(space, GameParams(n, gamma, eps)), ne_tol=NE_TOL)
        except NonConvergenceError as exc:
            # honest outcome: reported as non-convergent, never as an equilibrium
            assert exc.report["sweeps"] > 0
            nonconverged += 1
            continue
        except NotAnEquilibriumError as exc:
            nonconverged += 1
            assert exc.report is not None
            continue
        assert res.attainment_residual <= 1e-10
        assert res.consistency_residual <= 1e-10
        assert res.verification.is_ne
        assert res.verification.summary()["max_gap"] <= 1e-8
        converged += 1
    assert converged > 0
    _report(11, started, f"{converged} converged with residuals <= 1e-10, "
                         f"{nonconverged} honestly reported non-convergent")
