import pytest

from scar.errors import GraphParseError, GraphValidationError
from scar.graph import (
    builtin_graph,
    closed_neighborhood,
    cycle_graph,
    delayed_capture_graph,
    parse_graph,
    path_graph,
    petersen_graph,
    serialize_graph,
    star_graph,
)

EXAMPLE_DOC = """\
9 8
1 2
2 3
3 4
4 5
5 6
6 7
5 8
8 9
"""


def test_parse_example_tree():
    g = parse_graph(EXAMPLE_DOC)
    assert g.vertex_count == 9
    assert len(g.edges) == 8
    assert g.adjacency == delayed_capture_graph().adjacency


def test_parse_k2():
    g = parse_graph("2 1\n1 2\n")
    assert g.vertex_count == 2
    assert g.edges == frozenset({(1, 2)})


def test_parse_comments_and_blanks():
    g = parse_graph("# a path\n3 2\n\n1 2  # edge one\n2 3\n")
    assert g.adjacency == path_graph(3).adjacency


def test_duplicate_edge_rejected():
    with pytest.raises(GraphValidationError, match="line 3.*duplicate edge 1-2"):
        parse_graph("3 2\n1 2\n1 2\n")


def test_duplicate_edge_reversed_orientation():
    with pytest.raises(GraphValidationError, match="duplicate edge"):
        parse_graph("3 2\n1 2\n2 1\n")


def test_self_loop_rejected():
    with pytest.raises(GraphValidationError, match="line 2.*self-loop at vertex 2"):
        parse_graph("3 2\n2 2\n1 2\n")


def test_disconnected_rejected():
    with pytest.raises(GraphValidationError,
                       match="^graph is disconnected: vertex 3 unreachable from vertex 1$"):
        parse_graph("4 2\n1 2\n3 4\n")


def test_vertex_out_of_range():
    with pytest.raises(GraphValidationError, match="out of range"):
        parse_graph("3 1\n1 7\n")


def test_out_of_range_self_loop_reports_the_range_with_its_line():
    with pytest.raises(GraphValidationError, match=r"^line 2: vertex id 5 out of range 1\.\.3$"):
        parse_graph("3 1\n5 5\n")


def test_malformed_line():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("3 2\n1 x\n2 3\n")


def test_edge_count_mismatch():
    with pytest.raises(GraphParseError, match="announces 3 edges"):
        parse_graph("3 3\n1 2\n2 3\n")


def test_closed_neighborhood_examples():
    g = delayed_capture_graph()
    assert closed_neighborhood(g, 5) == [4, 5, 6, 8]
    assert closed_neighborhood(g, 9) == [8, 9]
    assert closed_neighborhood(path_graph(2), 1) == [1, 2]


def test_closed_neighborhood_range_check():
    with pytest.raises(GraphValidationError):
        closed_neighborhood(path_graph(3), 0)
    with pytest.raises(GraphValidationError):
        closed_neighborhood(path_graph(3), 4)


@pytest.mark.parametrize("g", [path_graph(5), cycle_graph(6), petersen_graph(),
                               star_graph(5), delayed_capture_graph()])
def test_closed_neighborhood_properties(g):
    for v in range(1, g.vertex_count + 1):
        nbhd = g.closed_neighborhood(v)
        assert v in nbhd
        assert len(nbhd) == len(g.adjacency[v - 1]) + 1
        assert nbhd == sorted(nbhd)


@pytest.mark.parametrize("g", [path_graph(4), cycle_graph(5), petersen_graph(),
                               delayed_capture_graph()])
def test_serialize_round_trip(g):
    doc = serialize_graph(g)
    again = parse_graph(doc)
    assert serialize_graph(again) == doc
    assert again.adjacency == g.adjacency


def test_builtin_names():
    assert builtin_graph("petersen").vertex_count == 10
    assert builtin_graph("path:4").vertex_count == 4
    assert builtin_graph("cycle:5").vertex_count == 5
    with pytest.raises(GraphValidationError):
        builtin_graph("moebius")
    with pytest.raises(GraphValidationError):
        builtin_graph("path")


def test_dodecahedron_builtin():
    g = builtin_graph("dodecahedron")
    assert (g.vertex_count, len(g.edges)) == (20, 30)
    assert {len(g.adjacency[v - 1]) for v in range(1, 21)} == {3}
    # distance-regular: from every vertex, 1, 3, 6, 6, 3, 1 vertices at distance 0..5
    for v in range(1, 21):
        dist = g.distances_from(v)[1:]
        assert [dist.count(d) for d in range(6)] == [1, 3, 6, 6, 3, 1]


def test_distances():
    g = delayed_capture_graph()
    assert g.distances_from(1)[9] == 6
    assert g.distances_from(6)[4] == 2
    assert g.distances_from(7)[9] == 4
