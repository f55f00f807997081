"""Independent cross-checks: simulated deviations against the verifier shortcuts.

The equilibrium verifiers reduce deviations to frozen-opponent MDP values.
These tests replay actual deviating strategies through the full automaton
simulation and confirm no sampled deviation ever beats the verified payoff.
"""

import numpy as np
import pytest

from scar.cr import exact_capture_times
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
from scar.graph import build_graph, cycle_graph, path_graph
from scar.payoffs import GameParams
from scar.simulate import payoffs_of, run
from scar.states import build_state_space


class _UnilateralDeviation:
    """One player follows his own positional map; everyone else follows the
    base profile's automaton, reacting to what they observe."""

    def __init__(self, base, deviator, moves):
        self.base = base
        self.deviator = deviator
        self.moves = moves

    def initial_mode(self):
        return self.base.initial_mode()

    def prescribed(self, idx, mode):
        space = self.base.space
        if space.is_noncapture[idx] and int(space.mover[idx]) == self.deviator:
            return int(self.moves[idx])
        return self.base.prescribed(idx, mode)

    def observe(self, idx, mover, action, mode):
        return self.base.observe(idx, mover, action, mode)


def _random_moves_for(space, player, rng):
    moves = np.zeros(space.n_states, dtype=np.int64)
    rows = np.flatnonzero(space.is_noncapture & (space.mover == player))
    moves[rows] = space.nbr[space.stay[rows], rng.integers(0, space.acount[rows])]
    return moves


@pytest.mark.parametrize("g,n_players,gamma,eps", [
    (path_graph(3), 3, 0.6, 0.25),
    (cycle_graph(4), 3, 0.9, 0.25),
    (cycle_graph(4), 3, 0.5, 0.0),
])
def test_threat_ne_survives_simulated_deviations(g, n_players, gamma, eps):
    space = build_state_space(g, n_players)
    params = GameParams(n_players, gamma, eps)
    game = Game(space, params)
    threat = build_threat_profile(game)
    report = verify_threat_ne(game, threat)
    assert report.is_ne
    rng = np.random.default_rng(99)
    nc = np.flatnonzero(space.is_noncapture)
    starts = rng.choice(nc, size=min(12, nc.size), replace=False)
    for s0 in starts:
        base_pay = payoffs_of(params, run(space, threat, int(s0)))
        for player in range(1, n_players + 1):
            for _ in range(25):
                dev = _UnilateralDeviation(threat, player, _random_moves_for(space, player, rng))
                pay = payoffs_of(params, run(space, dev, int(s0)))
                assert pay[player - 1] <= base_pay[player - 1] + 1e-8


def test_capturing_threat_survives_simulated_deviations():
    space = build_state_space(cycle_graph(5), 3)
    params = GameParams(3, 0.8, 0.3)
    game = Game(space, params)
    threat = build_capturing_threat_ne(game)
    assert verify_threat_ne(game, threat).is_ne
    rng = np.random.default_rng(4)
    nc = np.flatnonzero(space.is_noncapture)
    for s0 in rng.choice(nc, size=10, replace=False):
        base_pay = payoffs_of(params, run(space, threat, int(s0)))
        for player in (1, 2, 3):
            for _ in range(20):
                dev = _UnilateralDeviation(threat, player, _random_moves_for(space, player, rng))
                pay = payoffs_of(params, run(space, dev, int(s0)))
                assert pay[player - 1] <= base_pay[player - 1] + 1e-8


def test_noncapturing_ne_survives_simulated_deviations():
    space = build_state_space(cycle_graph(4), 3)
    params = GameParams(3, 0.9, 0.25)
    constr = build_noncapturing_ne(space, exact_capture_times(build_state_space(cycle_graph(4), 2)))
    assert verify_noncapturing_ne(Game(space, params), constr).is_ne
    rng = np.random.default_rng(31)
    for player in (1, 2, 3):
        for _ in range(200):
            dev = _UnilateralDeviation(constr.profile, player,
                                       _random_moves_for(space, player, rng))
            trace = run(space, dev, constr.s0_index)
            pay = payoffs_of(params, trace)
            assert pay[player - 1] <= 1e-8  # cooperative payoff is zero


def _random_connected_graph(rng, n):
    edges = set()
    order = list(rng.permutation(np.arange(1, n + 1)))
    for i in range(1, n):
        a = order[i]
        b = order[int(rng.integers(0, i))]
        edges.add((min(a, b), max(a, b)))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return build_graph(n, sorted(edges))


def test_positional_solver_fuzz_never_lies():
    # whatever happens, a returned profile is a verified equilibrium with tiny
    # residuals; anything else surfaces as a typed error
    rng = np.random.default_rng(2024)
    returned, refused = 0, 0
    for _ in range(40):
        g = _random_connected_graph(rng, int(rng.integers(3, 7)))
        gamma = float(rng.uniform(0.05, 0.97))
        eps = float(rng.uniform(0.0, 0.5))
        space = build_state_space(g, 3)
        try:
            res = solve_positional_ne(Game(space, GameParams(3, gamma, eps)))
        except (NonConvergenceError, NotAnEquilibriumError):
            refused += 1
            continue
        assert res.verification.is_ne
        assert res.attainment_residual <= 1e-10
        assert res.consistency_residual <= 1e-10
        returned += 1
    assert returned >= 30  # the sweep heuristic works on most small instances


def test_threat_verifier_fuzz_on_random_graphs():
    rng = np.random.default_rng(77)
    for _ in range(12):
        g = _random_connected_graph(rng, int(rng.integers(3, 6)))
        gamma = float(rng.uniform(0.1, 0.95))
        eps = float(rng.uniform(0.0, 0.5))
        space = build_state_space(g, 3)
        params = GameParams(3, gamma, eps)
        game = Game(space, params)
        threat = build_threat_profile(game)
        report = verify_threat_ne(game, threat)
        assert report.is_ne, (gamma, eps, sorted(g.edges))
