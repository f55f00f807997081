import tracemalloc

import numpy as np
import pytest

from scar.errors import CapacityError, IllegalMoveError, ValidationError
from scar.graph import builtin_graph, cycle_graph, delayed_capture_graph, path_graph
from scar.states import NULL_MOVE, TERMINAL, build_state_space


def test_state_counts():
    assert build_state_space(delayed_capture_graph(), 3).n_states == 3 * 9**3 + 1  # 2188
    assert build_state_space(path_graph(2), 2).n_states == 9
    assert build_state_space(path_graph(2), 4).n_states == 65


def test_capacity_guard():
    with pytest.raises(CapacityError):
        build_state_space(path_graph(3), 8, state_cap=1000)


def test_classify_examples():
    space = build_state_space(delayed_capture_graph(), 3)
    assert space.classify((6, 1, 4, 1)).kind == "noncapture"
    both = space.classify((3, 3, 3, 2))
    assert both.kind == "capture" and both.capturing_set == (1, 2)
    assert space.classify(TERMINAL).kind == "terminal"
    # classification ignores the mover coordinate
    for p in (1, 2, 3):
        assert space.classify((3, 5, 3, p)).capturing_set == (1,)


def test_actions_examples():
    space = build_state_space(delayed_capture_graph(), 3)
    s = (6, 1, 4, 1)
    assert space.actions(s, 1) == [5, 6, 7]
    assert space.actions(s, 2) == [1]  # not this player's move
    assert space.actions((3, 5, 3, 2), 1) == [NULL_MOVE]  # capture state
    assert space.actions(TERMINAL, 3) == [NULL_MOVE]


def test_transition_examples():
    space = build_state_space(delayed_capture_graph(), 3)
    assert space.transition((6, 1, 4, 1), 5) == (5, 1, 4, 2)
    assert space.transition((3, 5, 3, 2), NULL_MOVE) is TERMINAL
    assert space.transition(TERMINAL, NULL_MOVE) is TERMINAL


def test_transition_illegal_action():
    space = build_state_space(delayed_capture_graph(), 3)
    with pytest.raises(IllegalMoveError):
        space.transition((6, 1, 4, 1), 4)  # 4 is not adjacent to 6
    with pytest.raises(IllegalMoveError):
        space.transition((3, 5, 3, 1), 3)  # capture states only accept the null move


def test_mover_advances_cyclically():
    space = build_state_space(cycle_graph(4), 3)
    s = (1, 2, 4, 1)
    for expected_mover in (2, 3, 1, 2):
        mover = s[-1]
        stay = s[mover - 1]
        s = space.transition(s, stay)
        assert s[-1] == expected_mover


def test_index_bijection_and_partitions():
    for g, n in ((path_graph(2), 3), (path_graph(3), 2)):
        space = build_state_space(g, n)
        kinds = {"noncapture": 0, "capture": 0, "terminal": 0}
        by_mover = {}
        for idx in range(space.n_states):
            s = space.state_at(idx)
            assert space.index_of(s) == idx
            c = space.classify(idx)
            kinds[c.kind] += 1
            if c.kind != "terminal":
                by_mover[s[-1]] = by_mover.get(s[-1], 0) + 1
        assert kinds["terminal"] == 1
        assert kinds["noncapture"] + kinds["capture"] == space.n_states - 1
        assert sorted(by_mover) == list(range(1, n + 1))
        assert len(set(by_mover.values())) == 1  # movers partition evenly


def test_capture_iff_some_cop_on_robber():
    space = build_state_space(path_graph(3), 3)
    for idx in range(space.n_states - 1):
        s = space.state_at(idx)
        expected = any(s[i] == s[-2] for i in range(space.n_players - 1))
        assert bool(space.is_capture[idx]) == expected


def test_robber_can_always_stay_out_of_capture():
    space = build_state_space(cycle_graph(5), 3)
    rows = np.flatnonzero(space.is_noncapture & (space.mover == 3))
    for idx in rows[:50]:
        s = space.state_at(int(idx))
        acts = space.actions(int(idx), 3)
        assert s[2] in acts
        stayed = space.transition(int(idx), s[2])
        assert space.classify(stayed).kind == "noncapture"


def test_transition_preserves_non_mover_coordinates():
    space = build_state_space(delayed_capture_graph(), 3)
    rng = np.random.default_rng(7)
    nc = np.flatnonzero(space.is_noncapture)
    for idx in rng.choice(nc, size=40, replace=False):
        s = space.state_at(int(idx))
        mover = s[-1]
        for a in space.actions(int(idx), mover):
            t = space.transition(int(idx), a)
            for i in range(3):
                if i != mover - 1:
                    assert t[i] == s[i]


@pytest.mark.parametrize("name", ["delayed-capture", "star:5"])
def test_succ_table_matches_transition(name):
    space = build_state_space(builtin_graph(name), 3)
    succ, act, acount = space.succ, space.nbr[space.stay], space.acount
    k = succ.shape[1]
    for idx in np.flatnonzero(space.is_noncapture):
        idx = int(idx)
        mover = int(space.mover[idx])
        assert space.stay[idx] == space.positions[idx, mover - 1]
        acts = space.actions(idx, mover)
        assert acount[idx] == len(acts)
        padded = acts + acts[:1] * (k - len(acts))  # padded slots repeat slot 0
        assert act[idx].tolist() == padded
        for j, a in enumerate(padded):
            assert space.state_at(int(succ[idx, j])) == space.transition(idx, a)
    done = ~space.is_noncapture  # capture rows and the terminal
    assert (succ[done] == space.terminal_index).all()
    assert (act[done] == NULL_MOVE).all()
    assert (acount[done] == 1).all()
    assert (space.stay[done] == NULL_MOVE).all()

    rng = np.random.default_rng(3)
    nc = np.flatnonzero(space.is_noncapture)
    moves = np.zeros(space.n_states, dtype=np.int64)
    moves[nc] = act[nc, rng.integers(0, acount[nc])]
    jump = space.succ_of_moves(moves)
    assert (jump[done] == space.terminal_index).all()
    for idx in nc.tolist():
        expected = space.transition(idx, int(moves[idx]))
        assert space.state_at(int(jump[idx])) == expected
        assert space.state_at(space.transition_index(idx, int(moves[idx]))) == expected


@pytest.mark.parametrize("name, n", [("delayed-capture", 3), ("cycle:5", 4)])
def test_turn_blocks_partition_the_successor_table(name, n):
    """Each player's block holds exactly his non-capture rows, ascending, with
    their successor and action slots transposed; the blocks are built once and
    cannot be written."""
    space = build_state_space(builtin_graph(name), n)
    blocks = [space.turn_block(player) for player in range(1, n + 1)]
    assert space._succ is None  # stepped slot by slot, not gathered from `succ`
    seen = []
    for player, block in enumerate(blocks, start=1):
        assert space.turn_block(player) is block
        assert np.array_equal(block.rows,
                              np.flatnonzero(space.is_noncapture & (space.mover == player)))
        assert np.array_equal(block.succ, space.succ[block.rows].T)
        assert np.array_equal(block.act, space.nbr[space.stay[block.rows]].T)
        assert block.succ.flags.c_contiguous and block.act.flags.c_contiguous
        for a in (block.rows, block.succ, block.act):
            with pytest.raises(ValueError):
                a[0] = 0
        seen.extend(block.rows.tolist())
    assert sorted(seen) == np.flatnonzero(space.is_noncapture).tolist()


def test_state_validation():
    space = build_state_space(path_graph(3), 2)
    with pytest.raises(ValidationError):
        space.index_of((1, 2))  # missing mover
    with pytest.raises(ValidationError):
        space.index_of((0, 2, 1))
    with pytest.raises(ValidationError):
        space.index_of((1, 2, 5))


def test_functional_wrappers():
    from scar.states import actions, classify, transition

    space = build_state_space(delayed_capture_graph(), 3)
    assert classify(space, (6, 1, 4, 1)).kind == "noncapture"
    assert actions(space, (6, 1, 4, 1), 1) == [5, 6, 7]
    assert transition(space, (6, 1, 4, 1), 5) == (5, 1, 4, 2)


@pytest.mark.parametrize("name", ["path:200", "star:150"])
def test_wide_graph_tables(name):
    """Past 127 vertices positions take int16, signed so that `move - stay`
    cannot wrap; the star's centre also needs an int16 neighbourhood size."""
    space = build_state_space(builtin_graph(name), 2)
    v = space.n_vertices
    assert space.positions.dtype == space.stay.dtype == np.int16
    first, last = (1, 1, 1), (v, v, 2)
    assert space.state_at(0) == first and space.index_of(first) == 0
    assert space.state_at(space.terminal_index - 1) == last
    assert space.index_of(last) == space.terminal_index - 1
    succ, acount = space.succ, space.acount
    assert acount.max() == max(len(space.graph.closed_neighborhood(u)) for u in range(1, v + 1))
    rng = np.random.default_rng(5)
    nc = np.flatnonzero(space.is_noncapture)
    # the high rows put the mover on vertices past 127
    for idx in np.concatenate([rng.choice(nc, size=150, replace=False), nc[-150:]]).tolist():
        mover = space.state_at(idx)[-1]
        acts = space.actions(idx, mover)
        assert acount[idx] == len(acts)
        for j, a in enumerate(acts):
            assert space.state_at(int(succ[idx, j])) == space.transition(idx, a)
            assert succ[idx, j] == space.transition_index(idx, a)


@pytest.mark.parametrize("name, n", [("cycle:5", 3), ("path:2", 5), ("path:200", 2),
                                     ("star:150", 2), ("path:1", 70)])
def test_tables_match_the_packing_formula(name, n):
    """Every row of the constructor's tables against a pure-Python decode of
    idx = ((x1-1)*V + ... + (xN-1))*N + (p-1), and `succ_of_moves` against
    `_step` on random legal moves. path:200 takes int16 positions, star:150
    int16 neighbourhood sizes; the 1-vertex graph at N=70 is past numpy's
    dimension limit, so no table may pass through an N-dimensional grid."""
    space = build_state_space(builtin_graph(name), n)
    v, end = space.n_vertices, space.terminal_index
    positions, movers, stays, counts, captor_sets = [], [], [], [], []
    for idx in range(end):
        rest, p = divmod(idx, n)
        x = []
        for _ in range(n):
            rest, r = divmod(rest, v)
            x.insert(0, r + 1)
        captors = tuple(i for i, xi in enumerate(x[:-1], start=1) if xi == x[-1])
        positions.append(x)
        movers.append(p + 1)
        stays.append(NULL_MOVE if captors else x[p])
        counts.append(len(captors))
        captor_sets.append(captors)
    assert space.positions.tolist() == positions + [[0] * n]
    assert space.mover.tolist() == movers + [0]
    assert space.stay.tolist() == stays + [NULL_MOVE]
    assert space.capture_count.tolist() == counts + [0]
    assert space.is_capture.tolist() == [c > 0 for c in counts] + [False]
    assert space.is_noncapture.tolist() == [c == 0 for c in counts] + [False]
    assert [space.classify(idx).capturing_set for idx in range(end)] == captor_sets
    assert space.classify(end).kind == "terminal"

    rng = np.random.default_rng(11)
    nc = np.flatnonzero(space.is_noncapture)
    moves = rng.integers(1, v + 1, size=space.n_states)  # capture rows' moves are ignored
    moves[nc] = space.nbr[space.stay[nc], rng.integers(0, space.acount[nc])]
    jump = space.succ_of_moves(moves)
    assert np.array_equal(jump[nc], space._step(nc, moves[nc]))
    assert (jump[~space.is_noncapture] == end).all()


def test_table_memory_and_dtypes():
    """Petersen with N=4 (40,001 states): every per-state table is int8 or bool,
    about 9 bytes a state in all, and building them peaks within 12 (a
    per-pursuer capture table held 12; int64 tables held 62 and peaked at 94)."""
    g = builtin_graph("petersen")
    tracemalloc.start()
    try:
        space = build_state_space(g, 4)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for table in (space.positions, space.mover, space.stay, space.capture_count,
                  space._hood_size, space.acount):
        assert table.dtype == np.int8
    assert held <= 10 * space.n_states
    assert peak <= 12 * space.n_states


@pytest.mark.parametrize("graph, n", [(cycle_graph(4), 3), (path_graph(3), 4), (path_graph(2), 5)])
def test_capture_class_reads_each_states_captors(graph, n):
    """Each player's capture class, read straight off the state's positions:
    0 without capture, 1 for the evader, 2 * n1 (+1 for a bystander) for a
    pursuer at a capture by n1 pursuers."""
    space = build_state_space(graph, n)
    classes = space.capture_class
    assert classes.dtype == np.int8 and not classes.flags.writeable
    for idx in range(space.n_states):
        state = space.state_at(idx)
        positions = () if state is TERMINAL else state[:-1]
        captors = [i for i, x in enumerate(positions[:-1], start=1) if x == positions[-1]]
        for player in range(1, n + 1):
            if not captors:
                want = 0
            elif player == n:
                want = 1
            else:
                want = 2 * len(captors) + (player not in captors)
            assert classes[player - 1, idx] == want
