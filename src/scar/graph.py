"""Undirected simple connected graphs: parsing, validation, neighborhood queries.

Vertex ids are 1-based everywhere at the API surface; adjacency lists are kept
sorted ascending so that every downstream argmax/argmin scan is deterministic.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .errors import GraphParseError, GraphValidationError


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple connected graph on vertices 1..vertex_count."""

    vertex_count: int
    edges: frozenset  # frozenset of (u, v) pairs with u < v
    adjacency: tuple  # adjacency[v-1] is the sorted tuple of neighbors of v
    _dist: dict = field(default_factory=dict, compare=False, repr=False)

    def closed_neighborhood(self, v: int) -> list:
        """N[v] = N(v) union {v}, sorted ascending."""
        self._check_vertex(v)
        nbrs = self.adjacency[v - 1]
        out = sorted(nbrs + (v,))
        return out

    def distances_from(self, v: int) -> list:
        """BFS distances from v; index 0 unused, distances are 1-based by vertex id."""
        self._check_vertex(v)
        if v in self._dist:
            return self._dist[v]
        dist = [-1] * (self.vertex_count + 1)
        dist[v] = 0
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u - 1]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        self._dist[v] = dist
        return dist

    def _check_vertex(self, v: int) -> None:
        if not isinstance(v, int) or not 1 <= v <= self.vertex_count:
            raise GraphValidationError(f"vertex id {v!r} out of range 1..{self.vertex_count}")


def closed_neighborhood(g: Graph, v: int) -> list:
    return g.closed_neighborhood(v)


def build_graph(vertex_count: int, edge_pairs, prefixes=None) -> Graph:
    """Validate an explicit vertex count and edge collection into a Graph.

    `prefixes`, if given, holds one message prefix per edge (such as its line
    number) for the error that edge raises."""
    if vertex_count < 1:
        raise GraphValidationError(f"vertex count must be positive, got {vertex_count}")
    canon = set()
    adj = [[] for _ in range(vertex_count)]
    for (u, v), at in zip(edge_pairs, prefixes or itertools.repeat("")):
        for x in (u, v):
            if not 1 <= x <= vertex_count:
                raise GraphValidationError(f"{at}vertex id {x} out of range 1..{vertex_count}")
        if u == v:
            raise GraphValidationError(f"{at}self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in canon:
            raise GraphValidationError(f"{at}duplicate edge {key[0]}-{key[1]}")
        canon.add(key)
        adj[u - 1].append(v)
        adj[v - 1].append(u)
    adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adj)
    g = Graph(vertex_count=vertex_count, edges=frozenset(canon), adjacency=adjacency)
    dist = g.distances_from(1)
    if -1 in dist[1:]:
        v = dist.index(-1, 1)
        raise GraphValidationError(f"graph is disconnected: vertex {v} unreachable from vertex 1")
    return g


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document.

    Format: first non-comment line is "n m" (vertex and edge counts), followed by
    m lines "u v". '#' starts a comment; blank lines are ignored.
    """
    header = None
    edges, prefixes = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise GraphParseError(f"line {lineno}: expected integers, got {raw.strip()!r}") from None
        if header is None:
            if len(nums) != 2:
                raise GraphParseError(f"line {lineno}: header must be 'n m', got {raw.strip()!r}")
            header = nums
            continue
        if len(nums) != 2:
            raise GraphParseError(f"line {lineno}: edge line must be 'u v', got {raw.strip()!r}")
        edges.append((nums[0], nums[1]))
        prefixes.append(f"line {lineno}: ")
    if header is None:
        raise GraphParseError("empty document: missing 'n m' header line")
    n, m = header
    if len(edges) != m:
        raise GraphParseError(f"header announces {m} edges but {len(edges)} edge lines found")
    return build_graph(n, edges, prefixes)


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list document: edges as 'u v' with u < v, sorted."""
    lines = [f"{g.vertex_count} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Small catalog of named graphs used by the CLI and the test batteries.

def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphValidationError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center 1 joined to 2..n."""
    return build_graph(n, [(1, i) for i in range(2, n + 1)])


def petersen_graph() -> Graph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return build_graph(10, outer + spokes + inner)


def dodecahedron_graph() -> Graph:
    """Outer 5-cycle 1..5, middle 10-cycle 6..15, inner 5-cycle 16..20.

    Outer vertex i joins middle vertex 6 + 2(i-1), and middle vertex
    7 + 2(i-1) joins inner vertex 15 + i. Planar, cubic and of girth 5, so
    three pursuers are needed (Aigner & Fromme 1984) and suffice.
    """
    edges = []
    for i in range(5):
        outer, inner = 1 + i, 16 + i
        edges += [(outer, 1 + (i + 1) % 5), (outer, 6 + 2 * i),
                  (7 + 2 * i, inner), (inner, 16 + (i + 1) % 5)]
    edges += [(6 + j, 6 + (j + 1) % 10) for j in range(10)]
    return build_graph(20, edges)


def delayed_capture_graph() -> Graph:
    """The 9-vertex tree of the built-in delayed-capture example.

    A path 1-..-7 with the pendant path 8-9 hanging off vertex 5. With two
    selfish pursuers a greedy chase lets the trailing one grab the reward, so
    the leading pursuer can profit from retreating first.
    """
    return build_graph(9, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8), (8, 9)])


BUILTIN_GRAPHS = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "star": star_graph,
    "petersen": petersen_graph,
    "dodecahedron": dodecahedron_graph,
    "delayed-capture": delayed_capture_graph,
}


def builtin_graph(name: str) -> Graph:
    """Resolve 'petersen', 'path:4', 'cycle:5', ... into a Graph."""
    base, sep, arg = name.partition(":")
    if base not in BUILTIN_GRAPHS:
        raise GraphValidationError(f"unknown builtin graph {name!r}; known: {sorted(BUILTIN_GRAPHS)}")
    builder = BUILTIN_GRAPHS[base]
    if sep:
        try:
            size = int(arg)
        except ValueError:
            raise GraphValidationError(f"builtin {base!r} needs an integer size, got {arg!r}") from None
        return builder(size)
    if base in ("path", "cycle", "complete", "star"):
        raise GraphValidationError(f"builtin {base!r} needs a size, e.g. {base}:4")
    return builder()
