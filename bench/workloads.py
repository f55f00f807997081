"""Workload inputs made from the seed, and the facts the checks rest on.

Nothing here imports `scar`: the graphs, the parameter grid, the cop numbers
and the predicted call counts are the benchmark's own, so the checks built on
them are made apart from the program.
"""

from __future__ import annotations

import random
from collections import deque

WORKLOADS = ("retrograde", "theorems-n4")

# The theorems command needs a scenario (gamma, eps) even though the default
# grid replaces it; these values only appear in the report header.
SCENARIO_ARGS = ["--gamma", "0.5", "--epsilon", "0.25"]
SUITE_PLAYERS = 4
NE_TOL = 1e-8  # the CLI's default --ne-tol

OMEGA_SUITE = "cr-optimal-ne-on-omega-tilde"


def petersen_edges():
    """Same labels as the `petersen` builtin: outer 5-cycle, spokes, inner pentagram."""
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return 10, outer + spokes + inner


def dodecahedron_edges():
    """Outer 5-cycle 1..5, middle 10-cycle 6..15, inner 5-cycle 16..20 (planar)."""
    def outer(i): return 1 + i % 5
    def middle(j): return 6 + j % 10
    def inner(i): return 16 + i % 5
    edges = []
    for i in range(5):
        edges += [(outer(i), outer(i + 1)), (outer(i), middle(2 * i)),
                  (middle(2 * i + 1), inner(i)), (inner(i), inner(i + 1))]
    edges += [(middle(j), middle(j + 1)) for j in range(10)]
    return 20, edges


def cycle_edges(n):
    """Same labels as the `cycle:n` builtin."""
    return n, [(i, i + 1) for i in range(1, n)] + [(n, 1)]


def relabel(n, edges, rng):
    """Edges under a random vertex permutation; rng=None keeps the labels."""
    perm = list(range(1, n + 1))
    if rng is not None:
        rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges)


def edge_list_text(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def girth_and_min_degree(n, edges):
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    girth = None
    for root in range(1, n + 1):  # shortest cycle through root, by BFS
        dist, parent = {root: 0}, {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w], parent[w] = dist[u] + 1, u
                    queue.append(w)
                elif parent[u] != w:
                    length = dist[u] + dist[w] + 1
                    girth = length if girth is None else min(girth, length)
    return girth, min(len(a) for a in adj[1:])


def default_grid(n_players):
    """The CLI's default 5x5 (gamma, eps) grid, rebuilt from its documented rule:
    eps spans [0, 1/(N-1)] in quarters, gamma is 0.1, 0.3, 0.5, 0.7, 0.95, and a
    gamma within 1e-6 of some eps/(1-eps) steps down by 1e-3 until clear."""
    hi = 1.0 / (n_players - 1)
    epsilons = [hi * k / 4 for k in range(5)]
    gammas = []
    for g in (0.1, 0.3, 0.5, 0.7, 0.95):
        while any(e < 1.0 and abs(g - e / (1.0 - e)) < 1e-6 for e in epsilons):
            g -= 1e-3
        gammas.append(g)
    return [(g, e) for g in gammas for e in epsilons]


def in_omega_tilde(gamma, eps):
    return eps >= 1.0 or gamma < eps / (1.0 - eps)


def suites_for(cop_number, n_players):
    """Suites `theorems` must run, by the hypotheses each suite states."""
    c = cop_number
    ids = ["threat-ne-exists"]
    if c <= n_players - 1:
        ids += ["capturing-ne-exists", OMEGA_SUITE]
    if c == 1:
        ids.append("cop-win-all-ne-capturing")
    if c >= 2:
        ids.append("noncapturing-ne-exists")
    if c >= n_players:
        ids.append("escape-start-forces-noncapture")
    return ids


def make_spec(workload, seed, workdir):
    """Write the seed's graphs under workdir and describe the workload's commands.

    Seed 0 keeps the builtin labels; any other seed relabels every graph by a
    permutation drawn from random.Random(seed). Every check is invariant under
    relabelling.
    """
    rng = random.Random(seed) if seed else None
    workdir.mkdir(parents=True, exist_ok=True)

    def graph_file(name, n, edges):
        edges = relabel(n, edges, rng)
        path = workdir / f"{name}.txt"
        path.write_text(edge_list_text(n, edges))
        girth, min_degree = girth_and_min_degree(n, edges)
        return {"name": name, "path": str(path), "n": n, "edges": edges,
                "girth": girth, "min_degree": min_degree}

    if workload == "retrograde":
        graphs = [graph_file("petersen", *petersen_edges()),
                  graph_file("dodecahedron", *dodecahedron_edges())]
        for g in graphs:
            # Aigner & Fromme (1984): girth >= 5 forces cop number >= min degree.
            # Petersen needs exactly 3 cops; the dodecahedron is planar, and
            # planar graphs need at most 3. Both have min degree 3.
            if g["girth"] < 5 or g["min_degree"] != 3:
                raise ValueError(f"{g['name']}: girth {g['girth']}, min degree {g['min_degree']}")
            g["cop_number"] = g["min_degree"]
        commands = [["copnumber", "--graph", g["path"], "--max-cops", "3"] for g in graphs]
        predicted = {"cr.exact_capture_times_calls": sum(g["cop_number"] for g in graphs),
                     "cr.cop_number_calls": len(graphs),
                     "states.build_state_space_calls": sum(g["cop_number"] for g in graphs)}
        return {"workload": workload, "graphs": graphs, "commands": commands,
                "predicted": predicted}

    graph = graph_file("cycle8", *cycle_edges(8))
    graph["cop_number"] = 2  # a cycle on >= 4 vertices: one cop is evaded, two close in
    n = SUITE_PLAYERS
    grid = default_grid(n)
    omega = [p for p in grid if in_omega_tilde(*p)]
    g_pts = len(grid)
    c = graph["cop_number"]
    commands = [["theorems", "--graph", graph["path"], "--n", str(n)] + SCENARIO_ARGS]
    # With 2 <= c <= N-1 the threat, capturing, omega-tilde and non-capturing
    # suites run; the first two each build and verify one threat profile per
    # grid point, solving one auxiliary game per player.
    predicted = {
        "equilibria.verify_threat_ne_calls": 2 * g_pts,
        "equilibria.solve_aux_game_calls": 2 * g_pts * n,
        "equilibria.verify_noncapturing_ne_calls": g_pts,
        "equilibria.check_cr_optimal_ne_calls": len(omega),
        "simulate.run_calls": g_pts,
        # suite table, cop-number search up to c, one-pursuer table
        "cr.exact_capture_times_calls": 2 + c,
    }
    return {"workload": workload, "graphs": [graph], "commands": commands,
            "n_players": n, "grid": grid, "omega_points": omega,
            "suites": suites_for(c, n), "predicted": predicted}
