"""Guarantee-suite output pinned against files written by an earlier version.

`tests/golden/theorems_<graph>.json` is the stdout of

    scar theorems --builtin <graph> --n <N> --gamma 0.5 --epsilon 0.25

and `theorems_<graph>.instances.json` the per-instance records behind it,
both made before `theorem_suite` computed each grid point's auxiliary games,
payoff tables and profile outcomes once. The path:5 and cycle:4 records were
rewritten once since, when closed-form payoffs took the Bellman backups'
discount rule: their float-noise gains and gaps became 0.0 and every other
value moved by at most 1.1e-16. Any change to the suites' numbers,
verdicts or order shows up here byte for byte. Together the three runs cover
every suite: cop-win on path:5, the capturing, omega-tilde and non-capturing
suites at N=4 on cycle:4, and the escape suite on petersen.

`tests/golden/sweep_cycle_8_<s0>.csv` is the stdout of

    scar sweep --builtin cycle:8 --n 4 --gamma 0.5 --epsilon 0.25 --s0 <s0>

written before the sweep read the evader's side off the capture table. From
1,1,1,5,1 optimal pursuit has positive gaps, among them omega-tilde rows where
it is no equilibrium; from 1,4,7,3,4 the threat play captures in 3 turns.

`tests/golden/solve_*.json` and `verify_*.json` pin the commands of
`REPORT_CASES`, written before the Bellman solves read their boundary rows off
the capture-class shares: `solve` through positional sweeps (delayed-capture)
and through the threat fallback (an oscillating 6-vertex graph, whose sweeps
cycle with period 3), and `verify` of the positional-equilibrium sweeps.
Two more were written before the verdicts dropped their per-state arrays:
`verify` of optimal pursuit from one start, whose `is_ne_at_s0` is the gap
at that start against a tolerance, and of the capturing threat, whose `captures_everywhere` is
read off cooperative play. The last two, `verify` of the non-capturing
construction on Petersen with N=4 and on cycle:4 from an explicit start, were
written before that construction became a threat profile; they pin its
start, gains and cooperative termination. The selfish cop number with
verification on Petersen and the split-equivalence battery on Petersen with
N=4 were written before `analysis` returned their reports as the printed
dicts, so they pin every key, its order and its value.
"""

import json
from pathlib import Path

import pytest

from scar.analysis import make_grid, theorem_suite
from scar.cli import main
from scar.graph import builtin_graph

GOLDEN = Path(__file__).parent / "golden"
CASES = [("path:5", 3), ("cycle:4", 4), ("petersen", 3)]
SWEEP_STARTS = ["1,1,1,5,1", "1,4,7,3,4"]
OSCILLATING = "6 6\n1 2\n1 4\n1 5\n2 5\n3 6\n5 6\n"
REPORT_CASES = {
    "solve_delayed_capture": ["solve", "--builtin", "delayed-capture", "--n", "3",
                              "--gamma", "0.9", "--epsilon", "0.25"],
    "solve_oscillating": ["solve", "--graph", None, "--n", "3",
                          "--gamma", "0.7727", "--epsilon", "0.1326"],
    "verify_cycle_5_positional_ne": ["verify", "--builtin", "cycle:5", "--n", "4", "--gamma",
                                     "0.95", "--epsilon", "0.1", "--profile", "positional-ne"],
    "verify_cycle_8_cr_optimal_s0": ["verify", "--builtin", "cycle:8", "--n", "4", "--gamma", "0.1",
                                     "--epsilon", "0.25", "--profile", "cr-optimal",
                                     "--s0", "1,1,1,5,1"],
    "verify_cycle_5_capturing_threat": ["verify", "--builtin", "cycle:5", "--n", "4", "--profile",
                                        "capturing-threat", "--gamma", "0.95", "--epsilon", "0.25"],
    "verify_petersen_4_noncapturing": ["verify", "--builtin", "petersen", "--n", "4", "--profile",
                                       "noncapturing", "--gamma", "0.5", "--epsilon", "0.25"],
    "verify_cycle_4_noncapturing_s0": ["verify", "--builtin", "cycle:4", "--n", "3", "--profile",
                                       "noncapturing", "--gamma", "0.5", "--epsilon", "0.5",
                                       "--s0", "2,2,4,1"],
    "copnumber_petersen_selfish_verify": ["copnumber", "--builtin", "petersen", "--selfish",
                                          "--verify"],
    "equivalence_petersen_4": ["equivalence", "--builtin", "petersen", "--n", "4",
                               "--gamma", "0.7", "--trials", "20"],
}


def _golden(name, suffix):
    return (GOLDEN / f"theorems_{name.replace(':', '_')}{suffix}").read_text()


@pytest.mark.parametrize("name,n", CASES)
def test_theorems_stdout_matches_golden(capsys, name, n):
    code = main(["theorems", "--builtin", name, "--n", str(n),
                 "--gamma", "0.5", "--epsilon", "0.25"])
    assert code == 0
    assert capsys.readouterr().out == _golden(name, ".json")


@pytest.mark.parametrize("name,n", CASES)
def test_theorem_instances_match_golden(name, n):
    reports = theorem_suite(builtin_graph(name), n, grid=make_grid(n))
    doc = [{"theorem_id": r.theorem_id, "instances": r.instances} for r in reports]
    assert json.dumps(doc, indent=1) + "\n" == _golden(name, ".instances.json")


@pytest.mark.parametrize("s0", SWEEP_STARTS)
def test_sweep_stdout_matches_golden(capsys, s0):
    code = main(["sweep", "--builtin", "cycle:8", "--n", "4", "--gamma", "0.5",
                 "--epsilon", "0.25", "--s0", s0])
    assert code == 0
    golden = GOLDEN / f"sweep_cycle_8_{s0.replace(',', '_')}.csv"
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize("name", REPORT_CASES)
def test_report_stdout_matches_golden(capsys, tmp_path, name):
    graph = tmp_path / "graph.txt"
    graph.write_text(OSCILLATING)
    argv = [str(graph) if a is None else a for a in REPORT_CASES[name]]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
