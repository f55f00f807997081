"""Oracles and inputs shared by the tests; nothing in the package calls them.

`cr.minimax_capture_times` is the integer oracle of the capture table, kept in
the package because the benchmark's checks read it too.
"""

import numpy as np

from scar import bellman
from scar.equilibria import best_response
from scar.graph import build_graph
from scar.simulate import exact_profile_values, profile_outcomes


def connected_atlas(networkx, max_vertices):
    """Every connected graph of 2 to `max_vertices` vertices, up to isomorphism."""
    graphs = []
    for ag in networkx.graph_atlas_g():
        n = ag.number_of_nodes()
        if 2 <= n <= max_vertices and networkx.is_connected(ag):
            relabel = {v: i + 1 for i, v in enumerate(sorted(ag.nodes()))}
            graphs.append(build_graph(n, [(relabel[u], relabel[v]) for u, v in ag.edges()]))
    return graphs


def discounted_cr_value(space, gamma):
    """Exact value of the discounted pursuit game: the pursuers earn gamma^T, the
    evader loses it.

    Boundary v = 1 on capture states, 0 at the terminal; pursuer turns take the
    max, evader turns the min. Satisfies v(s) = gamma^T(s) with gamma^inf = 0.
    """
    fixed = np.where(space.is_capture, 1.0, 0.0)
    return bellman.solve_zero_sum(space, fixed, gamma, range(1, space.n_players))[0]


def evader_rows_evasion(space, table1):
    """The evader's non-capture rows of `space`, and per pursuer d the
    one-pursuer optimal evasion from d on each: the move of `table1` at
    (x_d, y, 2), scanned pair by pair."""
    space1 = table1.space
    n = space.n_players
    rows = np.flatnonzero(space.is_noncapture & (space.mover == n))
    evade = {(c, r): int(table1.cr_optimal_moves[space1.index_of((c, r, 2))])
             for c in range(1, space.n_vertices + 1) for r in range(1, space.n_vertices + 1) if c != r}
    positions = space.positions[rows].tolist()
    return rows, {d: np.array([evade[p[d - 1], p[-1]] for p in positions]) for d in range(1, n)}


def positional_gaps(game, moves):
    """Best-response gaps of positional play `moves`, each player's exact best
    response less his closed-form profile value: per player his largest gap
    over states, and per state the largest over players, folded in player
    order (0 at the terminal)."""
    space = game.space
    u = exact_profile_values(game, profile_outcomes(space, moves))
    state_gap, per_player = None, []
    for player in range(1, space.n_players + 1):
        gap = best_response(game, player, moves) - u[player - 1]
        gap[space.terminal_index] = 0.0
        per_player.append(float(gap.max()))
        state_gap = gap if state_gap is None else np.maximum(state_gap, gap, out=state_gap)
    return per_player, state_gap


def moves_are_legal(space, moves):
    """Whether every mover's move in `moves` lies in his closed neighbourhood,
    scanned down each turn block in the vertex dtype (padded slots repeat slot
    0, so they admit no extra move)."""
    return all((block.act == moves[block.rows]).any(axis=0).all()
               for block in map(space.turn_block, range(1, space.n_players + 1)))
