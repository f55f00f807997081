"""Correctness checks, run outside the timed region.

`check` reads one pass's outputs and returns (attempted, failed, errors).
`errors` lists broken checks; `failed` counts operations that ran to a verdict
and failed it, which today is only the omega-tilde fault at N >= 4 (ROADMAP
item 5). `verify` solves the workload's tables once per run, apart from any
timed pass, and checks them against facts the benchmark derives itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import NE_TOL, OMEGA_SUITE

EXIT_OK, EXIT_SUITE_FAILURE = 0, 5


def check(spec, outputs, codes):
    return {"retrograde": check_retrograde,
            "theorems-n4": check_theorems}[spec["workload"]](spec, outputs, codes)


def verify(spec):
    return verify_retrograde(spec) if spec["workload"] == "retrograde" else []


# ---------------------------------------------------------------------------
# retrograde: cop numbers from Aigner-Fromme, tables from their recurrence.

def check_retrograde(spec, outputs, codes):
    errors, attempted = [], 0
    for g, out, code in zip(spec["graphs"], outputs, codes):
        c = g["cop_number"]
        attempted += c
        if code != EXIT_OK:
            errors.append(f"{g['name']}: exit code {code}")
            continue
        result = json.loads(out)["result"]
        expected = finite_by_cops(c)
        if result["cop_number"] != c or result["finite_by_cops"] != expected:
            errors.append(f"{g['name']}: got {result}, expected cop number {c}, "
                          f"finite_by_cops {expected}")
    return attempted, 0, errors


def finite_by_cops(cop_number):
    return {str(k): k >= cop_number for k in range(1, cop_number + 1)}


def verify_retrograde(spec):
    """Solve every game the pass solves, as `copnumber` does, and check each table.

    The solver is deterministic, so these are the pass's tables; solving them
    here keeps the check out of the timed passes, which carry no hook.
    """
    from scar import cr
    from scar.graph import parse_graph
    from scar.states import build_state_space

    errors = []
    for g in spec["graphs"]:
        c = g["cop_number"]
        expected = finite_by_cops(c)
        graph = parse_graph(Path(g["path"]).read_text())
        for k in range(1, c + 1):
            space = build_state_space(graph, k + 1)
            table = cr.exact_capture_times(space)
            bad = recurrence_violations(g["n"], g["edges"], k + 1, table.times)
            if bad:
                errors.append(f"{g['name']} k={k}: {bad} states break the capture-time recurrence")
            if not np.array_equal(table.times, cr.minimax_capture_times(space).times):
                errors.append(f"{g['name']} k={k}: table differs from minimax_capture_times")
            if bool((table.times[space.is_noncapture] >= 0).all()) != expected[str(k)]:
                errors.append(f"{g['name']} k={k}: table and finite_by_cops disagree")
    return errors


def recurrence_violations(v, edges, n_players, times):
    """States whose capture time breaks T = 0 at capture, T = 1 + min (pursuer turn)
    or 1 + max (evader turn) over successors, with -1 read as infinity.

    Successors come from the documented index packing
    idx = ((x1-1)*V + ... + (xN-1))*N + (p-1), not from the program's tables.
    """
    n = n_players
    nonterminal = n * v**n
    if times.shape != (nonterminal + 1,):
        return times.size
    idx = np.arange(nonterminal)
    mover = idx % n + 1
    pos = np.empty((nonterminal, n), dtype=np.int64)
    rest = idx // n
    for i in reversed(range(n)):
        pos[:, i] = rest % v + 1
        rest //= v
    capture = (pos[:, :-1] == pos[:, -1:]).any(axis=1)
    closed = [[u] for u in range(v + 1)]
    for a, b in edges:
        closed[a].append(b)
        closed[b].append(a)
    width = max(len(c) for c in closed)
    nbr = np.array([c + [c[0]] * (width - len(c)) for c in closed])  # pad with self
    x = pos[idx, mover - 1]
    stride = n * v ** (n - mover)
    step = np.where(mover < n, 1, 1 - n)
    succ = idx[:, None] + (nbr[x] - x[:, None]) * stride[:, None] + step[:, None]
    inf = np.iinfo(np.int64).max // 2
    t = np.where(times[:nonterminal] < 0, inf, times[:nonterminal])
    gathered = t[succ]
    best = np.where(mover < n, gathered.min(axis=1), gathered.max(axis=1))
    want = np.where(capture, 0, np.where(best >= inf, inf, best + 1))
    return int((want != t).sum())


# ---------------------------------------------------------------------------
# theorems-n4: the suite set from the cop number, instance counts from the grid.

def check_theorems(spec, outputs, codes):
    from scar.analysis import replay_scenario

    (out,), (code,) = outputs, codes
    grid, omega = spec["grid"], spec["omega_points"]
    instances = {sid: len(grid) for sid in spec["suites"]}
    instances[OMEGA_SUITE] = len(omega)
    instances["escape-start-forces-noncapture"] = 1
    attempted = sum(instances[sid] for sid in spec["suites"])
    if code not in (EXIT_OK, EXIT_SUITE_FAILURE):
        return attempted, 0, [f"exit code {code}"]
    reports = json.loads(out)["result"]["reports"]
    errors = []
    ids = [r["theorem_id"] for r in reports]
    if ids != spec["suites"]:
        return attempted, 0, [f"suites {ids}, expected {spec['suites']}"]
    for r in reports:
        want = instances[r["theorem_id"]]
        if r["instances"] != want:
            errors.append(f"{r['theorem_id']}: {r['instances']} instances, expected {want}")
        if r["theorem_id"] != OMEGA_SUITE and not r["passed"]:
            errors.append(f"{r['theorem_id']} failed: {r['counterexample']}")
    if (code == EXIT_SUITE_FAILURE) == all(r["passed"] for r in reports):
        errors.append(f"exit code {code} disagrees with the suite verdicts")
    # The report keeps only the first counterexample, so each omega-tilde
    # instance is replayed to count the failing ones.
    text = Path(spec["graphs"][0]["path"]).read_text()
    failing = [(gamma, eps) for gamma, eps in omega
               if not replay_scenario({"graph": text, "n_players": spec["n_players"],
                                       "gamma": gamma, "epsilon": eps, "profile": "cr-optimal",
                                       "tol": NE_TOL})["is_ne"]]
    omega_rep = reports[ids.index(OMEGA_SUITE)]
    if omega_rep["passed"] != (not failing):
        errors.append(f"omega-tilde suite passed={omega_rep['passed']}, "
                      f"replay finds {len(failing)} failing instances")
    elif failing:
        cex = omega_rep["counterexample"]["scenario"]
        if (cex["gamma"], cex["epsilon"]) != failing[0]:
            errors.append(f"counterexample {cex['gamma']}, {cex['epsilon']} "
                          f"is not the first failing instance {failing[0]}")
    return attempted, len(failing), errors
