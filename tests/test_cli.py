import json
from pathlib import Path

import pytest

from scar.analysis import Scenario, replay_scenario
from scar.cli import main
from scar.graph import cycle_graph, path_graph, serialize_graph

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def replayed(doc):
    """`replay_scenario`'s verdict on `doc` as a report prints it."""
    return json.loads(json.dumps(replay_scenario(doc)))


def without_profile(result):
    return {key: value for key, value in result.items() if key != "profile"}


def test_reproduce_example_default(capsys):
    code, out, _ = run_cli(capsys, "reproduce-example")
    assert code == 0
    assert "C1   | 6  5  5  5  4  4" in out
    assert "capture at turn 13 by C1" in out
    assert "deviation profitable; threshold criterion agrees: PASS" in out


def test_reproduce_example_low_gamma(capsys):
    code, out, _ = run_cli(capsys, "reproduce-example", "--gamma", "0.8")
    assert code == 0
    assert "deviation not profitable" in out


def test_solve_json_report(capsys):
    code, out, _ = run_cli(capsys, "solve", "--builtin", "path:3", "--n", "2",
                           "--gamma", "0.5", "--epsilon", "0.5", "--s0", "1,3,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["scenario"]["n_players"] == 2
    assert doc["scenario"]["ne_tol"] == 1e-8  # defaults echoed
    assert "tol" not in doc["scenario"]  # no value tolerance left
    assert doc["result"]["values_at_s0"][0] == pytest.approx(0.125)
    assert doc["result"]["capture_time"] == 3
    assert doc["result"]["verification"]["is_ne"]


def test_report_scenario_reruns_byte_identically(tmp_path, capsys):
    """A report's own `scenario` block, graph string, top-level tolerances and
    the resolved profile included, reproduces the report."""
    runs = [("verify", "--builtin", "cycle:4", "--n", "3", "--gamma", "0.2",
             "--epsilon", "0.5", "--ne-tol", "1e-7"),
            ("verify", "--builtin", "cycle:5", "--n", "3", "--gamma", "0.7",
             "--epsilon", "0.3", "--profile", "threat"),
            ("simulate", "--builtin", "delayed-capture", "--n", "3", "--gamma", "0.9",
             "--epsilon", "0.25", "--s0", "6,1,4,1", "--profile", "threat")]
    echoes = []
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)
        echoes.append(json.loads(out)["scenario"])
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(echoes[-1]))
        assert run_cli(capsys, argv[0], "--scenario", str(path)) == (code, out, "")
        if argv[0] == "verify":
            assert replayed(echoes[-1]) == without_profile(json.loads(out)["result"])
    assert [e["profile"] for e in echoes] == ["cr-optimal", "threat", "threat"]
    assert echoes[0]["ne_tol"] == 1e-7


def test_zero_tolerance_suites_pass_on_delayed_capture(capsys):
    """At (0.1, 0) on the delayed-capture tree genuine payoff gaps reach
    0.1^13; every move is the first exact optimum, so no punisher is picked
    off by a near-tie and the suites pass with no gap tolerance at all."""
    code, out, err = run_cli(capsys, "theorems", "--builtin", "delayed-capture", "--n", "3",
                             "--gamma", "0.1", "--epsilon", "0", "--grid", "0.1;0",
                             "--ne-tol", "0")
    assert (code, err) == (0, "")
    reports = json.loads(out)["result"]["reports"]
    assert {r["theorem_id"] for r in reports} >= {"threat-ne-exists", "capturing-ne-exists"}
    assert all(r["passed"] for r in reports)


def test_suite_counterexample_reruns_through_verify(tmp_path, capsys):
    """A failing suite instance's scenario, which covers every start, reruns
    through `verify --scenario` with the verdict `replay_scenario` gives, under
    the suite's gap tolerance (its top-level `ne_tol`) without --ne-tol."""
    from scar.analysis import make_grid, theorem_suite

    grid = make_grid(4, gammas=[0.3], epsilons=[0.25])
    reports = {r.theorem_id: r for r in theorem_suite(cycle_graph(8), 4, grid=grid, tol=1e-9)}
    scenario = reports["cr-optimal-ne-on-omega-tilde"].counterexample["scenario"]
    assert scenario["s0"] is None
    assert scenario["ne_tol"] == 1e-9 and "tol" not in scenario
    path = tmp_path / "cex.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run_cli(capsys, "verify", "--scenario", str(path), "--profile", "cr-optimal")
    assert (code, err) == (5, "")
    result = json.loads(out)["result"]
    assert result["is_ne"] is False
    assert result["tol"] == 1e-9
    assert result["max_gap"] == replay_scenario(scenario)["max_gap"]


@pytest.mark.parametrize("kind, graph, n_players, gamma, eps, s0", [
    ("threat", cycle_graph(8), 4, 0.3, 0.25, None),
    ("capturing-threat", cycle_graph(8), 4, 0.3, 0.25, None),
    ("cr-optimal", cycle_graph(8), 4, 0.3, 0.25, None),
    ("noncapturing", cycle_graph(4), 3, 0.5, 0.25, [1, 1, 3, 1]),
])
def test_scenario_profile_is_honoured(tmp_path, capsys, kind, graph, n_players, gamma, eps, s0):
    """A suite scenario reruns as its own `profile` without --profile, to the
    verdict `replay_scenario` gives."""
    doc = Scenario(graph, n_players, gamma, eps, s0=s0, profile=kind).to_json_obj()
    path = tmp_path / "cex.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
    assert err == ""
    result = json.loads(out)["result"]
    assert result["profile"] == kind
    assert code == (0 if result["is_ne"] else 5)
    for key, value in replay_scenario(doc).items():
        assert result[key] == value, key


def test_profile_flag_wins_over_scenario(tmp_path, capsys):
    path = tmp_path / "cex.json"
    path.write_text(json.dumps(Scenario(cycle_graph(4), 3, 0.2, 0.5,
                                        profile="noncapturing").to_json_obj()))
    code, out, _ = run_cli(capsys, "verify", "--scenario", str(path), "--profile", "cr-optimal")
    assert code == 0
    assert json.loads(out)["result"]["profile"] == "cr-optimal"


def test_unrunnable_scenario_profile_is_validation_error(tmp_path, capsys):
    path = tmp_path / "cex.json"
    # hand-written documents naming a profile no command runs
    doc = {"graph": serialize_graph(cycle_graph(4)), "n_players": 2, "profile": "-"}
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--scenario", str(path))
    assert (code, out) == (2, "")
    path.write_text(json.dumps({**doc, "n_players": 3, "gamma": 0.5, "epsilon": 0.25}))
    code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
    assert (code, out) == (2, "")
    assert "cannot verify profile '-'" in err
    path.write_text(json.dumps(Scenario(cycle_graph(4), 3, 0.5, 0.25, s0=[1, 1, 3, 1],
                                        profile="noncapturing").to_json_obj()))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert (code, out) == (2, "")
    assert "cannot play profile 'noncapturing'" in err


@pytest.mark.parametrize("command", ["solve", "verify", "theorems", "simulate", "copnumber",
                                     "equivalence"])
def test_json_flag_only_where_it_selects_the_format(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--builtin", "path:3", "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_solve_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "--builtin", "path:3", "--n", "2",
                           "--gamma", "1.0", "--epsilon", "0.5")
    assert code == 2
    assert "gamma" in err


def test_capacity_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "--builtin", "petersen", "--n", "3",
                           "--gamma", "0.5", "--epsilon", "0.25", "--state-cap", "100")
    assert code == 3
    assert "cap" in err


def test_s0_in_capture_state(capsys):
    code, out, _ = run_cli(capsys, "solve", "--builtin", "path:3", "--n", "2",
                           "--gamma", "0.5", "--epsilon", "0.5", "--s0", "2,2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["capture_time"] == 0
    assert doc["result"]["values_at_s0"] == [1.0, -1.0]


def test_copnumber_commands(capsys):
    code, out, _ = run_cli(capsys, "copnumber", "--builtin", "cycle:4")
    assert code == 0
    assert json.loads(out)["result"]["cop_number"] == 2
    code, out, _ = run_cli(capsys, "copnumber", "--builtin", "path:4", "--selfish")
    assert code == 0
    assert json.loads(out)["result"]["selfish_cop_number"] == 1


def test_sweep_csv_output(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--builtin", "cycle:4", "--n", "3",
                           "--gamma", "0.2", "--epsilon", "0.5",
                           "--grid", "0.2;0.5", "--s0", "1,1,3,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("gamma,epsilon,s0,")
    assert lines[1].startswith("0.2,0.5,\"1,1,3,1\"") or lines[1].startswith('0.2,0.5,"1,1,3,1"')


def test_verify_profiles(capsys):
    code, out, _ = run_cli(capsys, "verify", "--builtin", "cycle:4", "--n", "3",
                           "--gamma", "0.2", "--epsilon", "0.5", "--profile", "cr-optimal")
    assert code == 0
    assert json.loads(out)["result"]["is_ne"]
    code, out, _ = run_cli(capsys, "verify", "--builtin", "cycle:5", "--n", "3",
                           "--gamma", "0.7", "--epsilon", "0.3", "--profile", "capturing-threat")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["is_ne"] and doc["result"]["captures_everywhere"]
    code, out, _ = run_cli(capsys, "verify", "--builtin", "cycle:4", "--n", "3",
                           "--gamma", "0.5", "--epsilon", "0.25", "--profile", "noncapturing")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["is_ne"] and doc["result"]["termination"] == "cycle"


def test_reproduce_example_json(capsys):
    code, out, _ = run_cli(capsys, "reproduce-example", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["cooperative"]["capture_time"] == 5
    assert doc["result"]["deviation"]["capture_time"] == 13
    assert doc["result"]["deviation"]["symbolic"][0] == "(1-eps)*gamma^13"


def test_plan_requires_deviator(capsys):
    code, _, err = run_cli(capsys, "simulate", "--builtin", "path:3", "--n", "2",
                           "--gamma", "0.5", "--epsilon", "0.5", "--s0", "1,3,1",
                           "--profile", "cr-optimal", "--plan", "1:2")
    assert code == 2
    assert "deviator" in err


def test_simulate_with_plan_table(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--builtin", "delayed-capture", "--n", "3",
                           "--gamma", "0.9", "--epsilon", "0.25", "--s0", "6,1,4,1",
                           "--profile", "cr-optimal", "--table")
    assert code == 0
    assert out.startswith("Turn |")
    assert "capture at turn" in out


def test_simulate_json(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--builtin", "path:3", "--n", "2",
                           "--gamma", "0.5", "--epsilon", "0.5", "--s0", "1,3,1",
                           "--profile", "cr-optimal")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["capture_time"] == 3
    assert doc["result"]["trace"][0]["state"] == [1, 3, 1]


def test_theorems_exit_zero_on_pass(capsys):
    code, out, _ = run_cli(capsys, "theorems", "--builtin", "cycle:4", "--n", "3",
                           "--gamma", "0.5", "--epsilon", "0.25", "--grid", "0.3,0.9;0.0,0.5")
    assert code == 0
    doc = json.loads(out)
    assert all(r["passed"] for r in doc["result"]["reports"])


def test_theorems_state_cap_covers_only_the_suite_space(capsys):
    # petersen has cop number 3: the suites at N=3 need only the 3,001-state
    # space and the search up to N-1 = 2 pursuers, never the 40,001-state one.
    code, out, _ = run_cli(capsys, "theorems", "--builtin", "petersen", "--n", "3",
                           "--gamma", "0.5", "--epsilon", "0.25", "--state-cap", "5000")
    assert code == 0
    golden = json.loads((GOLDEN / "theorems_petersen.json").read_text())
    assert json.loads(out)["result"] == golden["result"]


def test_scenario_file(tmp_path, capsys):
    scenario = {
        "graph": {"edge_list": serialize_graph(cycle_graph(4))},
        "n_players": 3,
        "gamma": 0.2,
        "epsilon": 0.5,
        "s0": [1, 2, 3, 1],
        "tolerances": {"value": 1e-10, "ne_gap": 1e-8},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, _ = run_cli(capsys, "solve", "--scenario", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["scenario"]["s0"] == [1, 2, 3, 1]
    assert doc["scenario"]["in_omega_tilde"] is True


NONCONVERGENT_GRAPH = "6 6\n1 2\n1 4\n1 5\n2 5\n3 6\n5 6\n"


def test_solve_threat_fallback(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(NONCONVERGENT_GRAPH)
    code, out, _ = run_cli(capsys, "solve", "--graph", str(path), "--n", "3",
                           "--gamma", "0.7727", "--epsilon", "0.1326", "--s0", "1,2,3,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["method"] == "threat-fallback"
    assert doc["result"]["verification"]["is_ne"]


def test_solve_no_fallback_exit_code(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(NONCONVERGENT_GRAPH)
    code, _, err = run_cli(capsys, "solve", "--graph", str(path), "--n", "3",
                           "--gamma", "0.7727", "--epsilon", "0.1326",
                           "--s0", "1,2,3,1", "--no-fallback")
    assert code == 4
    assert "sweeps" in err or "stable" in err


def test_equivalence_battery(capsys):
    code, out, _ = run_cli(capsys, "equivalence", "--builtin", "cycle:4", "--n", "3",
                           "--trials", "10", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["all_sums_exact"] and doc["result"]["cr_optimal_is_ne"]
    assert doc["seed"] == 3


def test_missing_graph_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--n", "2", "--gamma", "0.5", "--epsilon", "0.5")
    assert code == 2
    assert "graph" in err


def test_reports_are_byte_identical_across_runs(capsys):
    argv = ["solve", "--builtin", "cycle:4", "--n", "3", "--gamma", "0.2",
            "--epsilon", "0.5", "--s0", "1,2,3,1"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    argv = ["sweep", "--builtin", "cycle:4", "--n", "3", "--gamma", "0.2",
            "--epsilon", "0.5", "--grid", "0.2,0.9;0.25"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_verify_positional_ne_nonconvergent_exit(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(NONCONVERGENT_GRAPH)
    code, _, err = run_cli(capsys, "verify", "--graph", str(path), "--n", "3",
                           "--gamma", "0.7727", "--epsilon", "0.1326",
                           "--profile", "positional-ne")
    assert code == 4


# -- tolerance and state-cap inputs: explicit values are kept, invalid ones rejected

PATH3 = ["verify", "--builtin", "path:3", "--n", "2", "--gamma", "0.5", "--epsilon", "0.5"]


def _scenario_path(tmp_path, **fields):
    scenario = {"graph": {"builtin": "path:3"}, "n_players": 2, "gamma": 0.5, "epsilon": 0.5}
    scenario.update(fields)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return str(path)


def test_zero_ne_tol_flag_is_kept(capsys):
    _, out, _ = run_cli(capsys, *PATH3, "--ne-tol", "0")
    doc = json.loads(out)
    assert doc["scenario"]["ne_tol"] == 0.0
    assert doc["result"]["tol"] == 0.0


def test_zero_ne_tol_in_scenario_is_kept(tmp_path, capsys):
    path = _scenario_path(tmp_path, tolerances={"ne_gap": 0})
    _, out, _ = run_cli(capsys, "verify", "--scenario", path)
    assert json.loads(out)["scenario"]["ne_tol"] == 0.0


def test_old_value_tolerance_key_is_ignored(tmp_path, capsys):
    path = _scenario_path(tmp_path, tolerances={"value": 0, "ne_gap": 1e-7})
    code, out, _ = run_cli(capsys, "verify", "--scenario", path)
    assert code == 0
    assert json.loads(out)["scenario"]["ne_tol"] == 1e-7


@pytest.mark.parametrize("argv", [PATH3, ["copnumber", "--builtin", "path:3"]])
def test_zero_state_cap_flag_is_kept(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--state-cap", "0")
    assert code == 3
    assert "cap of 0" in err


def test_zero_state_cap_in_scenario_is_kept(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--scenario", _scenario_path(tmp_path, state_cap=0))
    assert code == 3
    assert "cap of 0" in err


def test_negative_ne_tol_flag_is_rejected(capsys):
    code, out, err = run_cli(capsys, *PATH3, "--ne-tol", "-1")
    assert code == 2
    assert out == ""
    assert "gap tolerance must be non-negative" in err


def test_negative_ne_tol_in_scenario_is_rejected(tmp_path, capsys):
    path = _scenario_path(tmp_path, tolerances={"ne_gap": -1})
    code, _, err = run_cli(capsys, "verify", "--scenario", path)
    assert code == 2
    assert "gap tolerance must be non-negative" in err


EQUIVALENCE = ["equivalence", "--builtin", "path:3", "--trials", "2"]


def test_zero_player_count_on_equivalence_is_rejected(capsys):
    code, out, err = run_cli(capsys, *EQUIVALENCE, "--n", "0")
    assert code == 2
    assert out == ""
    assert "need at least 2 players, got 0" in err


def test_zero_gamma_on_equivalence_is_rejected(capsys):
    code, out, err = run_cli(capsys, *EQUIVALENCE, "--gamma", "0")
    assert code == 2
    assert out == ""
    assert "gamma must lie strictly inside (0, 1), got 0.0" in err


@pytest.mark.parametrize("n", ["0", "1"])
def test_small_player_count_flag_is_rejected(capsys, n):
    code, out, err = run_cli(capsys, "verify", "--builtin", "path:3", "--n", n,
                             "--gamma", "0.5", "--epsilon", "0.5")
    assert code == 2
    assert out == ""
    assert f"need at least 2 players, got {n}" in err


def test_zero_player_count_in_scenario_is_rejected(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--scenario", _scenario_path(tmp_path, n_players=0))
    assert code == 2
    assert "need at least 2 players, got 0" in err


@pytest.mark.parametrize("command, graph, n, grid, message", [
    ("theorems", "path:5", "3", ";0.1", "at least one gamma and one epsilon"),
    ("theorems", "cycle:5", "3", "0.5;", "at least one gamma and one epsilon"),
    ("theorems", "cycle:5", "3", "0.5,abc;0.1", "could not convert string to float: 'abc'"),
    ("sweep", "path:5", "3", ";0.1", "at least one gamma and one epsilon"),
])
def test_empty_or_unparsable_grid_is_rejected(capsys, command, graph, n, grid, message):
    code, out, err = run_cli(capsys, command, "--builtin", graph, "--n", n, "--gamma", "0.5",
                             "--epsilon", "0.25", "--grid", grid)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command", ["theorems", "sweep"])
@pytest.mark.parametrize("setting, flags", [
    ("--split-equivalent", ["--split-equivalent"]),
    ("--allow-extended-epsilon", ["--epsilon", "0.25", "--allow-extended-epsilon"]),
])
def test_grid_commands_reject_split_settings(capsys, command, setting, flags):
    """The grid fixes every point's eps split, so the split-mode flags are
    refused, not echoed over a run that ignored them."""
    code, out, err = run_cli(capsys, command, "--builtin", "cycle:4", "--n", "3",
                             "--gamma", "0.5", *flags)
    assert code == 2
    assert out == ""
    assert setting in err and "not supported" in err


@pytest.mark.parametrize("command", ["theorems", "sweep"])
@pytest.mark.parametrize("key, fields", [
    ("split_equivalent", {"split_equivalent": True}),
    ("allow_extended_epsilon", {"epsilon": 0.25, "allow_extended_epsilon": True}),
])
def test_grid_commands_reject_split_settings_in_scenario(tmp_path, capsys, command, key, fields):
    path = _scenario_path(tmp_path, n_players=3, **fields)
    code, out, err = run_cli(capsys, command, "--scenario", path)
    assert code == 2
    assert out == ""
    assert f"--{key.replace('_', '-')}" in err and "not supported" in err


# -- one scenario reader: flag, else document key, else default; replay is verify

def test_zero_tolerance_echo_replays_as_verify(tmp_path, capsys):
    """At --ne-tol 0 optimal pursuit on the delayed-capture tree fails by a
    genuine gap of 0.397 (outside omega-tilde); its echo, through
    `replay_scenario` or `verify --scenario`, fails the same way."""
    argv = ["verify", "--builtin", "delayed-capture", "--n", "3", "--gamma", "0.95",
            "--epsilon", "0.25", "--profile", "cr-optimal", "--ne-tol", "0"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 5
    report = json.loads(out)
    assert report["scenario"]["ne_tol"] == 0.0
    assert report["result"]["max_gap"] > 0.39
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(report["scenario"]))
    assert run_cli(capsys, "verify", "--scenario", str(path)) == (code, out, "")
    assert replayed(report["scenario"]) == without_profile(report["result"])
    assert replayed(report["scenario"])["is_ne"] is False


@pytest.mark.parametrize("argv, key", [
    (["verify", "--builtin", "path:5", "--n", "3", "--gamma", "0.95", "--epsilon", "0",
      "--profile", "threat"], "per_player_gain"),
    (["solve", "--builtin", "cycle:8", "--n", "3", "--gamma", "0.1", "--epsilon", "0"],
     "per_player_gap"),
])
def test_closed_forms_equal_the_fixpoints_at_zero_tolerance(capsys, argv, key):
    """Profile payoffs and best responses are the same iterated products, so
    an equilibrium verifies with gains of exactly 0.0 and no tolerance (the
    closed form pow(gamma, T) * q left 1.1e-16 and 1.7e-18 here)."""
    code, out, _ = run_cli(capsys, *argv, "--ne-tol", "0")
    assert code == 0
    result = json.loads(out)["result"]
    verdict = result.get("verification", result)
    assert max(verdict[key]) == 0.0
    if argv[0] == "solve":
        assert result["method"] == "positional-sweeps"
        assert result["consistency_residual"] == 0.0


def test_integer_epsilon_in_scenario_prints_as_the_flag(tmp_path, capsys):
    flag = run_cli(capsys, "verify", "--builtin", "path:3", "--n", "2", "--gamma", "0.5",
                   "--epsilon", "0")
    doc = run_cli(capsys, "verify", "--scenario",
                  _scenario_path(tmp_path, epsilon=0, gamma=0.5))
    assert doc == flag
    assert json.loads(doc[1])["scenario"]["epsilon"] == 0.0


def test_equivalence_and_copnumber_echo_their_inputs(capsys):
    code, out, _ = run_cli(capsys, "equivalence", "--builtin", "path:3", "--gamma", "0.3",
                           "--trials", "2", "--state-cap", "1000")
    assert code == 0
    doc = json.loads(out)
    assert (doc["gamma"], doc["state_cap"]) == (0.3, 1000)
    code, out, _ = run_cli(capsys, "copnumber", "--builtin", "path:3", "--state-cap", "1000")
    assert code == 0
    assert json.loads(out)["state_cap"] == 1000


def test_hand_written_builtin_graph_replays_as_verify(tmp_path, capsys):
    doc = {"graph": {"builtin": "cycle:4"}, "n_players": 3, "gamma": 0.2, "epsilon": 0.5,
           "s0": [1, 1, 3, 1], "profile": "threat", "tolerances": {"ne_gap": 1e-8}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--scenario", str(path))
    assert code == 0
    assert replayed(doc) == without_profile(json.loads(out)["result"])


@pytest.mark.parametrize("graph", [{"builtin": "cycle:4"}, None])
def test_graph_flag_wins_over_scenario(tmp_path, capsys, graph):
    doc = {"n_players": 2, "gamma": 0.5, "epsilon": 0.5}
    if graph is not None:
        doc["graph"] = graph
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--scenario", str(path), "--builtin", "path:3")
    assert code == 0
    assert json.loads(out)["scenario"]["graph"] == serialize_graph(path_graph(3))


def test_equivalence_reads_the_scenario(tmp_path, capsys, monkeypatch):
    from scar import analysis

    seen = {}
    check = analysis.payoff_equivalence_check

    def recording(g, n_players, **kwargs):
        seen.update(n_players=n_players, **kwargs)
        return check(g, n_players, **kwargs)

    monkeypatch.setattr(analysis, "payoff_equivalence_check", recording)
    path = _scenario_path(tmp_path, n_players=2, gamma=0.3, state_cap=100)
    code, out, _ = run_cli(capsys, "equivalence", "--scenario", path, "--trials", "2")
    assert code == 0
    assert json.loads(out)["n_players"] == 2
    assert (seen["n_players"], seen["gamma"], seen["state_cap"]) == (2, 0.3, 100)
    code, _, err = run_cli(capsys, "equivalence", "--scenario",
                           _scenario_path(tmp_path, state_cap=0), "--trials", "2")
    assert code == 3
    assert "cap of 0" in err


def test_copnumber_reads_the_scenario_state_cap(tmp_path, capsys):
    code, _, err = run_cli(capsys, "copnumber", "--scenario", _scenario_path(tmp_path, state_cap=0))
    assert code == 3
    assert "cap of 0" in err


@pytest.mark.parametrize("argv, text", [
    (["simulate", *PATH3[1:], "--s0", "1,3,1", "--deviator", "1", "--plan", "1-2"], None),
    (["verify", *PATH3[1:], "--s0", "a,b,1"], None),
    (["copnumber", "--builtin", "path:x"], None),
    (["copnumber", "--graph", "{missing}"], None),
    (["verify", "--scenario", "{missing}"], None),
    (["verify", "--scenario", "{file}"], "{bad"),
    (["verify", "--scenario", "{file}"], "[1, 2]"),
    (["verify", "--scenario", "{file}"],
     '{"graph": {"builtin": "path:3"}, "n_players": "3", "gamma": 0.5, "epsilon": 0.5}'),
    (["verify", "--scenario", "{file}"],
     '{"graph": {"builtin": "path:3"}, "n_players": 2, "gamma": "x", "epsilon": 0.5}'),
    (["simulate", *PATH3[1:], "--s0", "1,3,1", "--deviator", "3", "--plan", "1:2"], None),
    (["simulate", *PATH3[1:], "--s0", "1,3,1", "--deviator", "1", "--plan", "0:2"], None),
    (["solve", "--builtin", "path:1", "--n", "2", "--gamma", "0.5", "--epsilon", "0.5"], None),
    (["equivalence", "--builtin", "path:1", "--n", "2", "--trials", "3"], None),
    (["copnumber", "--builtin", "path:3", "--verify"], None),
    (["verify", "--scenario", "{file}"],
     '{"graph": {"builtin": "cycle:4"}, "n_players": 3, "gamma": 0.5, "epsilon": 0.25,'
     ' "split_equivalent": "false"}'),
    (["verify", "--scenario", "{file}"],
     '{"graph": {"builtin": "cycle:4"}, "n_players": 3, "gamma": 0.5, "epsilon": 0.25,'
     ' "allow_extended_epsilon": "no"}'),
])
def test_malformed_input_is_validation_error(tmp_path, capsys, argv, text):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    argv = [a.format(file=path, missing=tmp_path / "missing") for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, flag", [
    (["copnumber", "--builtin", "path:3", "--max-cops", "0"], "--max-cops"),
    (EQUIVALENCE[:-1] + ["-3"], "--trials"),
    (["simulate", *PATH3[1:], "--s0", "1,3,1", "--turn-cap", "0"], "--turn-cap"),
    (["simulate", *PATH3[1:], "--s0", "1,3,1", "--turn-cap", "-3"], "--turn-cap"),
])
def test_count_flag_below_one_is_rejected(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{flag} must be at least 1" in err
