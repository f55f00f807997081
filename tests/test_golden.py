"""Guarantee-suite output pinned against files written by an earlier version.

`tests/golden/theorems_<graph>.json` is the stdout of

    scar theorems --builtin <graph> --n <N> --gamma 0.5 --epsilon 0.25

and `theorems_<graph>.instances.json` the per-instance records behind it,
both made before `theorem_suite` computed each grid point's auxiliary games,
payoff tables and profile outcomes once. Any change to the suites' numbers,
verdicts or order shows up here byte for byte. Together the three runs cover
every suite: cop-win on path:5, the capturing, omega-tilde and non-capturing
suites at N=4 on cycle:4, and the escape suite on petersen.
"""

import json
from pathlib import Path

import pytest

from scar.analysis import make_grid, theorem_suite
from scar.cli import _json_default, main
from scar.graph import builtin_graph

GOLDEN = Path(__file__).parent / "golden"
CASES = [("path:5", 3), ("cycle:4", 4), ("petersen", 3)]


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
    assert json.dumps(doc, indent=1, default=_json_default) + "\n" == _golden(name, ".instances.json")
