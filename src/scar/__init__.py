"""Selfish pursuit games on graphs: exact solvers, equilibria, verification."""

from .graph import Graph, builtin_graph, closed_neighborhood, parse_graph, serialize_graph
from .payoffs import GameParams, turn_payoff
from .states import NULL_MOVE, TERMINAL, StateSpace, actions, build_state_space, classify, transition
from .cr import (
    CaptureTimeTable,
    cop_number,
    exact_capture_times,
    minimax_capture_times,
    t_n_max,
)
from .equilibria import (
    Game,
    build_capturing_threat_ne,
    build_noncapturing_ne,
    build_threat_profile,
    solve_aux_game,
    solve_positional_ne,
    verify_threat_ne,
)
from .simulate import payoffs_of, run, run_with_forced_deviation, total_payoff

__all__ = [
    "Graph", "builtin_graph", "closed_neighborhood", "parse_graph", "serialize_graph",
    "GameParams", "total_payoff", "turn_payoff",
    "NULL_MOVE", "TERMINAL", "StateSpace", "actions", "build_state_space", "classify", "transition",
    "CaptureTimeTable", "cop_number", "exact_capture_times",
    "minimax_capture_times", "t_n_max",
    "Game", "build_capturing_threat_ne", "build_noncapturing_ne", "build_threat_profile",
    "solve_aux_game", "solve_positional_ne", "verify_threat_ne",
    "payoffs_of", "run", "run_with_forced_deviation",
]

__version__ = "0.1.0"
