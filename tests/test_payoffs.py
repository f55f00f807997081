from fractions import Fraction

import pytest

from scar.errors import ValidationError
from scar.graph import cycle_graph, path_graph
from scar.payoffs import GameParams, symbolic_payoffs, turn_payoff, turn_payoff_matrix, validate_params
from scar.states import build_state_space


@pytest.fixture(scope="module")
def c4_3p():
    return build_state_space(cycle_graph(4), 3)


def test_three_player_splits(c4_3p):
    params = GameParams(3, 0.9, 0.25)
    s = (1, 3, 3, 1)  # C2 alone captures
    assert turn_payoff(c4_3p, params, s, 1) == pytest.approx(0.25)
    assert turn_payoff(c4_3p, params, s, 2) == pytest.approx(0.75)
    assert turn_payoff(c4_3p, params, s, 3) == -1.0
    both = (3, 3, 3, 2)  # simultaneous capture
    assert turn_payoff(c4_3p, params, both, 1) == 0.5
    assert turn_payoff(c4_3p, params, both, 2) == 0.5
    assert turn_payoff(c4_3p, params, both, 3) == -1.0


def test_noncapture_payoffs_zero(c4_3p):
    params = GameParams(3, 0.9, 0.25)
    from scar.states import TERMINAL

    for player in (1, 2, 3):
        assert turn_payoff(c4_3p, params, (1, 2, 3, 1), player) == 0.0
        assert turn_payoff(c4_3p, params, TERMINAL, player) == 0.0


def test_four_player_splits():
    space = build_state_space(path_graph(3), 4)
    params = GameParams(4, 0.5, 0.2)
    s = (2, 1, 3, 2, 1)  # only C1 captures (robber at 2)
    assert turn_payoff(space, params, s, 1) == pytest.approx(0.8)
    assert turn_payoff(space, params, s, 2) == pytest.approx(0.1)
    assert turn_payoff(space, params, s, 3) == pytest.approx(0.1)
    assert turn_payoff(space, params, s, 4) == -1.0
    split = GameParams(4, 0.5, split_equivalent=True)
    for cop in (1, 2, 3):
        assert turn_payoff(space, split, s, cop) == pytest.approx(1 / 3)


def test_zero_sum_at_every_capture_state_exact():
    for g, n in ((cycle_graph(4), 3), (path_graph(2), 4)):
        space = build_state_space(g, n)
        cap = [i for i in range(space.n_states - 1) if space.is_capture[i]]
        hi = Fraction(1, n - 1)
        for k in range(11):
            params = GameParams(n, 0.5, float(hi * k / 10))
            for idx in cap:
                total = sum(turn_payoff(space, params, idx, p, exact=True)
                            for p in range(1, n + 1))
                assert total == 0
        split = GameParams(n, 0.5, split_equivalent=True)
        for idx in cap:
            total = sum(turn_payoff(space, split, idx, p, exact=True) for p in range(1, n + 1))
            assert total == 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_split_monotonicity(n):
    # capturing reward non-increasing in the number of captors, and always >=
    # the non-captors' share, across an 11-point eps grid
    hi = Fraction(1, n - 1)
    for k in range(11):
        eps = hi * k / 10
        rewards = []
        for n1 in range(1, n - 1):
            capturing = (1 - eps) / n1
            noncapturing = eps / (n - 1 - n1)
            assert capturing >= noncapturing
            rewards.append(capturing)
        rewards.append(Fraction(1, n - 1))  # all capture together
        assert all(a >= b for a, b in zip(rewards, rewards[1:]))


def test_validate_params_examples():
    ok = GameParams(3, 0.9, 0.25)
    assert validate_params(ok).ok
    assert ok.in_omega_tilde is False  # 0.9 >= 0.25/0.75
    assert GameParams(3, 0.2, 0.5).in_omega_tilde is True
    with pytest.raises(ValidationError):
        GameParams(3, 1.0, 0.25)
    with pytest.raises(ValidationError):
        GameParams(3, 0.0, 0.25)
    with pytest.raises(ValidationError):
        GameParams(3, 0.5, 0.6)  # above 1/(N-1)
    assert GameParams(3, 0.5, 0.6, allow_extended_epsilon=True).epsilon == 0.6
    with pytest.raises(ValidationError):
        GameParams(3, 0.5, 1.1, allow_extended_epsilon=True)
    with pytest.raises(ValidationError):
        GameParams(3, 0.5)  # epsilon missing
    with pytest.raises(ValidationError):
        GameParams(3, 0.5, 0.2, split_equivalent=True)
    assert GameParams(3, 0.5, split_equivalent=True).in_omega_tilde is None


def test_epsilon_boundaries_supported():
    assert GameParams(3, 0.5, 0.0).epsilon == 0.0
    assert GameParams(3, 0.5, 0.5).epsilon == 0.5
    assert GameParams(2, 0.5, 1.0).epsilon == 1.0  # 1/(N-1) = 1 for N=2


def test_turn_payoff_matrix_consistent(c4_3p):
    params = GameParams(3, 0.7, 0.3)
    q = turn_payoff_matrix(c4_3p, params)
    for idx in range(0, c4_3p.n_states - 1, 7):
        for p in (1, 2, 3):
            assert q[p - 1, idx] == pytest.approx(turn_payoff(c4_3p, params, idx, p))


@pytest.mark.parametrize("n,graph", [(2, cycle_graph(4)), (3, cycle_graph(4)),
                                     (4, path_graph(3)), (5, path_graph(3))])
def test_turn_payoff_matrix_equals_turn_payoff_exactly(n, graph):
    space = build_state_space(graph, n)
    for params in (GameParams(n, 0.7, 0.0), GameParams(n, 0.7, 1.0 / (n - 1)),
                   GameParams(n, 0.7, split_equivalent=True),
                   GameParams(n, 0.7, 0.9, allow_extended_epsilon=True)):
        q = turn_payoff_matrix(space, params)
        expected = [[turn_payoff(space, params, s, m + 1) for s in range(space.n_states)]
                    for m in range(n)]
        assert q.tolist() == expected


def test_discount_decay():
    # later captures are strictly worth less in magnitude, all else equal
    g = Fraction(9, 10)
    for coeff in (Fraction(1, 4), Fraction(3, 4), Fraction(-1)):
        vals = [abs(coeff) * g**t for t in range(6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_symbolic_payoffs():
    params = GameParams(3, 0.9, 0.25)
    assert symbolic_payoffs(params, 5, (2,)) == ["eps*gamma^5", "(1-eps)*gamma^5", "-gamma^5"]
    assert symbolic_payoffs(params, 13, (1,)) == ["(1-eps)*gamma^13", "eps*gamma^13", "-gamma^13"]
    assert symbolic_payoffs(params, 2, (1, 2)) == ["1/2*gamma^2", "1/2*gamma^2", "-gamma^2"]
    split = GameParams(4, 0.9, split_equivalent=True)
    assert symbolic_payoffs(split, 3, (2,)) == ["1/3*gamma^3"] * 3 + ["-gamma^3"]
