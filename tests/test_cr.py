import math
import tracemalloc

import numpy as np
import pytest

from scar import cr
from scar.cr import (
    CaptureTimeTable,
    cop_number,
    exact_capture_times,
    extract_cr_optimal_moves,
    minimax_capture_times,
    t_n_max,
)
from scar.equilibria import build_noncapturing_ne
from scar.errors import CapacityError
from scar.graph import (
    build_graph,
    complete_graph,
    cycle_graph,
    delayed_capture_graph,
    dodecahedron_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from scar.payoffs import discounted
from scar.profiles import ThreatProfile
from scar.simulate import run
from scar.states import StateSpace, _padded_hoods, _tuple_captors, build_state_space

from oracles import connected_atlas, discounted_cr_value, evader_rows_evasion, moves_are_legal


def test_p3_hand_derived_capture_time():
    # cop 1 -> 2; robber's only non-capturing option is to stay; cop 2 -> 3
    space = build_state_space(path_graph(3), 2)
    table = exact_capture_times(space)
    assert table.times[space.index_of((1, 3, 1))] == 3


def test_k2_hand_derived():
    space = build_state_space(path_graph(2), 2)
    table = exact_capture_times(space)
    assert table.times[space.index_of((1, 2, 2))] == 2  # robber must stay, then the cop steps on
    assert t_n_max(table) == 2


def test_c4_evader_escapes():
    space = build_state_space(cycle_graph(4), 2)
    table = exact_capture_times(space)
    for s in [(1, 3, 1), (1, 3, 2), (2, 4, 1)]:
        assert table.times[space.index_of(s)] == -1  # the evader escapes
    assert t_n_max(table) == math.inf
    # exact characterization: the only pursuer wins are adjacent evaders on the
    # pursuer's own turn (one-step grabs); from everywhere else distance 2 is
    # maintained forever
    g = space.graph
    for idx in np.flatnonzero(space.is_noncapture):
        x1, x2, p = space.state_at(int(idx))
        grab = g.distances_from(x1)[x2] == 1 and p == 1
        assert table.times[idx] == (1 if grab else -1)


def test_capture_states_are_zero():
    space = build_state_space(cycle_graph(5), 3)
    table = exact_capture_times(space)
    assert (table.times[space.is_capture] == 0).all()
    assert (table.times[space.is_capture] <= 0).all()


@pytest.mark.parametrize("g,n", [
    (path_graph(2), 2), (path_graph(3), 2), (path_graph(4), 2), (path_graph(5), 2),
    (cycle_graph(4), 2), (cycle_graph(4), 3), (cycle_graph(5), 3),
    (star_graph(5), 3), (complete_graph(4), 2),
    (delayed_capture_graph(), 2), (delayed_capture_graph(), 3),
    (cycle_graph(5), 4), (cycle_graph(6), 4),
    (petersen_graph(), 3),  # escape states: Petersen needs three pursuers
    (build_graph(1, []), 2),  # every state captures: no frontier state has a predecessor
    (dodecahedron_graph(), 3),  # 24,001 states, escape states as on Petersen
    (cycle_graph(4), 5), (path_graph(3), 5),  # N=5: player 1's predecessors wrap to player 5
    (path_graph(200), 2),  # past 127 vertices: int16 positions
    (star_graph(150), 2),  # the centre's closed neighbourhood needs int16 sizes too
    # unequal closed neighbourhoods at N=4: padded slots in every per-mover group
    (star_graph(5), 4), (delayed_capture_graph(), 4),
    # unequal neighbourhoods on every axis at N=5, where player 1's predecessors wrap to player 5
    (star_graph(5), 5),
])
def test_oracle_agrees_with_attractor(g, n):
    space = build_state_space(g, n)
    assert np.array_equal(minimax_capture_times(space).times,
                          exact_capture_times(space).times)


def _assert_fixpoint(space, table):
    # re-applying the defining equations to the finished table changes nothing
    big = np.int64(2**62)
    t = np.where(table.times >= 0, table.times, big)
    gathered = t[space.succ]
    up = np.minimum(gathered.min(axis=1) + 1, big)
    down = np.minimum(gathered.max(axis=1) + 1, big)
    nc = space.is_noncapture
    cop_rows = nc & (space.mover < space.n_players)
    rob_rows = nc & (space.mover == space.n_players)
    assert np.array_equal(t[cop_rows], up[cop_rows])
    assert np.array_equal(t[rob_rows], down[rob_rows])


def test_fixpoint_property():
    space = build_state_space(delayed_capture_graph(), 2)
    _assert_fixpoint(space, exact_capture_times(space))


def test_benchmark_scale_solve_leaves_tables_unchanged():
    space = build_state_space(petersen_graph(), 4)  # 40,001 states
    succ, acount = space.succ.copy(), space.acount.copy()
    table = exact_capture_times(space)
    _assert_fixpoint(space, table)
    assert np.array_equal(table.times, minimax_capture_times(space).times)
    assert np.array_equal(space.succ, succ)
    assert np.array_equal(space.acount, acount)


def test_cop_numbers():
    assert cop_number(path_graph(4)).value == 1
    assert cop_number(cycle_graph(4)).value == 2
    assert cop_number(petersen_graph()).value == 3
    assert cop_number(dodecahedron_graph()).value == 3  # k=3: 640,001 states
    res = cop_number(cycle_graph(5), max_cops=1)
    assert res.value is None
    assert res.finite_by_cops == {1: False}


def test_retrograde_builds_no_successor_table(monkeypatch):
    def no_space(self, *args, **kwargs):
        raise AssertionError("cop_number built a StateSpace")

    monkeypatch.setattr(StateSpace, "__init__", no_space)
    assert cop_number(petersen_graph()).value == 3
    monkeypatch.undo()
    space = build_state_space(petersen_graph(), 4)
    exact_capture_times(space)
    assert space._succ is None


def test_retrograde_memory_peak_per_state():
    space = build_state_space(petersen_graph(), 4)  # 40,001 states
    tracemalloc.start()
    try:
        exact_capture_times(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * space.n_states  # 11 measured: int64 labels, int8 ages, bool grids


def test_cop_number_memory_peak_per_tuple():
    g = dodecahedron_graph()
    tracemalloc.start()
    try:
        assert cop_number(g, max_cops=3).value == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 18.3 measured at k = 3 (20**4 tuples): bool grids and int8 ages and
    # counts; 78.6 with a StateSpace and an int64 table per k
    assert peak <= 24 * 20**4


def test_cop_number_decides_each_k_as_the_capture_table():
    networkx = pytest.importorskip("networkx")
    graphs = connected_atlas(networkx, 6)
    assert len(graphs) == 142
    for g in graphs:
        want = {k: exact_capture_times(build_state_space(g, k + 1)).finite_on_noncapture()
                for k in (1, 2, 3)}
        # the search's own inputs, straight from the graph, at every k
        nbr, size = _padded_hoods(g)
        for k in (1, 2, 3):
            unlabeled = cr._label(nbr, size, _tuple_captors(g.vertex_count, k + 1) != 0, k + 1)[1]
            assert (not unlabeled.any()) == want[k]
        res = cop_number(g, max_cops=3)
        c = next((k for k in (1, 2, 3) if want[k]), None)
        assert res.value == c
        assert res.finite_by_cops == {k: want[k] for k in want if k <= (c or 3)}


@pytest.mark.parametrize("g, n", [(cycle_graph(5), 2), (petersen_graph(), 2), (path_graph(5), 3)])
def test_times_readers_agree_on_an_int32_copy(g, n):
    """Every reader of `times` gives the same result on an int32 copy of the
    labels as on the int64 table: none wraps its sentinel around."""
    space = build_state_space(g, n)
    wide = exact_capture_times(space)
    narrow = CaptureTimeTable(space, wide.times.astype(np.int32))
    assert np.array_equal(extract_cr_optimal_moves(narrow), extract_cr_optimal_moves(wide))
    for gamma in (0.1, 0.9):
        assert np.array_equal(discounted(gamma, narrow.times, 1.0),
                              discounted(gamma, wide.times, 1.0))
    assert t_n_max(narrow) == t_n_max(wide)
    assert narrow.finite_on_noncapture() == wide.finite_on_noncapture()
    assert np.array_equal(narrow.escape_states(), wide.escape_states())
    if n == 2 and not narrow.finite_on_noncapture():
        big = build_state_space(g, 3)
        a, b = build_noncapturing_ne(big, narrow), build_noncapturing_ne(big, wide)
        assert a.s0 == b.s0
        rows, evasion = evader_rows_evasion(big, wide)
        for d, moves in evasion.items():
            assert np.array_equal(a.profile.punishments[d][rows], moves)
            assert np.array_equal(b.profile.punishments[d][rows], moves)


def test_cop_number_capacity():
    with pytest.raises(CapacityError) as exc:
        cop_number(petersen_graph(), max_cops=3, state_cap=5000)
    assert str(exc.value) == ("cop-number search stopped at k=3: 4 players on 10 vertices "
                              "need 40001 states, above the cap of 5000")


def test_discounted_duality_small():
    for g, n, gamma in ((path_graph(3), 2, 0.5), (cycle_graph(4), 2, 0.5),
                        (cycle_graph(4), 3, 0.3), (delayed_capture_graph(), 2, 0.9)):
        space = build_state_space(g, n)
        table = exact_capture_times(space)
        values = discounted_cr_value(space, gamma)
        assert np.array_equal(values, discounted(gamma, table.times, 1.0))
    # frozen spot values
    space = build_state_space(path_graph(3), 2)
    values = discounted_cr_value(space, 0.5)
    assert values[space.index_of((1, 3, 1))] == pytest.approx(0.125, abs=1e-10)
    assert (values[space.is_capture] == 1.0).all()



@pytest.mark.parametrize("g, n", [(delayed_capture_graph(), 2), (cycle_graph(8), 4)])
def test_discounted_value_is_exact_at_low_gamma(g, n):
    """At gamma = 0.1, gamma^T is far below any residual tolerance for the
    slowest captures; the exact solve still reports it, never 0, and it is
    the one discount rule's product bit for bit."""
    space = build_state_space(g, n)
    table = exact_capture_times(space)
    values = discounted_cr_value(space, 0.1)
    finite = table.times >= 0
    assert (values[finite] > 0.0).all()
    assert np.array_equal(values, discounted(0.1, table.times, 1.0))
    assert (values[~finite] == 0.0).all()

def test_rounds_monotone_with_extra_stacked_cop():
    # an extra pursuer stacked on the first never costs rounds (each round is
    # one move per player, so raw turn counts are not comparable across N)
    for g in (path_graph(3), path_graph(4), star_graph(4)):
        small = build_state_space(g, 2)
        big = build_state_space(g, 3)
        t2 = exact_capture_times(small)
        t3 = exact_capture_times(big)
        for x in range(1, g.vertex_count + 1):
            for y in range(1, g.vertex_count + 1):
                a = t2.times[small.index_of((x, y, 1))]
                b = t3.times[big.index_of((x, x, y, 1))]
                rounds_a = math.inf if a < 0 else math.ceil(a / 2)
                rounds_b = math.inf if b < 0 else math.ceil(b / 3)
                assert rounds_b <= rounds_a


def test_extracted_strategies_achieve_table_times():
    for g, n in ((path_graph(4), 2), (cycle_graph(5), 3), (delayed_capture_graph(), 3)):
        space = build_state_space(g, n)
        table = exact_capture_times(space)
        moves = extract_cr_optimal_moves(table)
        assert moves_are_legal(space, moves)
        profile = ThreatProfile(space, moves, {})
        nc = np.flatnonzero(space.is_noncapture)
        rng = np.random.default_rng(3)
        for idx in rng.choice(nc, size=min(60, nc.size), replace=False):
            t = int(table.times[idx])
            trace = run(space, profile, int(idx))
            if t < 0:
                assert trace.termination == "cycle"
            else:
                assert trace.capture_time == t


def _argpick_moves(space, table):
    """First-optimum scan with argmin/argmax on the integer keyed times."""
    keyed = np.where(table.times >= 0, table.times, np.int64(2**62))
    moves = np.zeros(space.n_states, dtype=np.int64)
    nc = space.is_noncapture
    for rows, argpick in ((np.flatnonzero(nc & (space.mover < space.n_players)), np.argmin),
                          (np.flatnonzero(nc & (space.mover == space.n_players)), np.argmax)):
        if rows.size:
            moves[rows] = space.nbr[space.stay[rows], argpick(keyed[space.succ[rows]], axis=1)]
    return moves


@pytest.mark.parametrize("g, n", [(path_graph(5), 3), (cycle_graph(4), 4), (petersen_graph(), 3)])
def test_extracted_moves_match_integer_first_optimum_scan(g, n):
    """The per-block first optimum equals an independent argmin/argmax scan of
    the integer keyed times over the dense successor table."""
    space = build_state_space(g, n)
    table = exact_capture_times(space)
    assert np.array_equal(extract_cr_optimal_moves(table), _argpick_moves(space, table))


def test_gamma_power_maps_escape_to_zero():
    times = np.array([0, 3, -1], dtype=np.int64)
    assert discounted(0.5, times, 1.0).tolist() == [1.0, 0.125, 0.0]
    assert discounted(0.5, times, [1.0, -1.0], np.array([1, 1, 1])).tolist() == [-1.0, -0.125, 0.0]
