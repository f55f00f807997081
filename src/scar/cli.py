"""Command-line entry point.

Every command is deterministic given its inputs; JSON reports carry a schema
version and the fully resolved scenario so any published number can be rerun
from its own output. Exit codes: 0 ok, 2 validation, 3 capacity, 4
non-convergence without fallback, 5 guarantee-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, equilibria, simulate
from .analysis import DEFAULT_PROFILE, Scenario
from .cr import cop_number
from .errors import CapacityError, NonConvergenceError, NotAnEquilibriumError, ScarError, ValidationError
from .graph import serialize_graph
from .profiles import ThreatProfile
from .states import DEFAULT_STATE_CAP

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPACITY = 3
EXIT_NONCONVERGENCE = 4
EXIT_SUITE_FAILURE = 5


def _reader(args):
    """Every scenario field: its flag, else the --scenario document's key, else
    the default. The graph flags are the document's `path` and `builtin` forms."""
    flags = {key: getattr(args, key, None) for key in (
        "n_players", "gamma", "epsilon", "split_equivalent", "allow_extended_epsilon",
        "ne_tol", "state_cap", "profile")}
    flags["graph"] = ({"path": args.graph} if args.graph else
                      {"builtin": args.builtin} if args.builtin else None)
    flags["s0"] = _parse_s0(args.s0) if getattr(args, "s0", None) else None
    doc = analysis.read_document(args.scenario) if args.scenario else None
    return analysis.scenario_reader(doc, **flags)


def _parse_s0(text):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"--s0 needs comma-separated integers, got {text!r}") from None


def _at_least_one(flag, value):
    if value < 1:
        raise ValidationError(f"{flag} must be at least 1, got {value}")


def _grid_from(args, params):
    if params.split_equivalent or params.allow_extended_epsilon:
        raise ValidationError(f"{args.command} plays every grid point under the standard eps split: "
                              "--split-equivalent and --allow-extended-epsilon are not supported")
    if not args.grid:
        return analysis.make_grid(params.n_players)
    gpart, _, epart = args.grid.partition(";")
    try:
        gammas = [float(x) for x in gpart.split(",") if x]
        epsilons = [float(x) for x in epart.split(",") if x]
    except ValueError as exc:
        raise ValidationError(f"--grid: {exc}") from None
    return analysis.make_grid(params.n_players, gammas, epsilons)


def _emit(obj):
    print(json.dumps(obj, indent=2))


def _report(command, scenario, result):
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "scenario": scenario.to_json_obj() if scenario else None, "result": result}


# ---------------------------------------------------------------------------
# Commands.

def cmd_solve(args):
    scenario = Scenario.read(_reader(args))
    space = scenario.space()
    if scenario.s0 is None and not space.is_noncapture.any():
        raise ValidationError("every state is a capture, so no non-capture start exists; give --s0")
    params = scenario.params
    game = equilibria.Game(space, params)
    method = "positional-sweeps"
    try:
        res = equilibria.solve_positional_ne(game, ne_tol=scenario.ne_tol)
        profile = ThreatProfile(space, res.moves, {})
        gaps = res.verification.summary()
        extra = {"sweeps": res.sweeps,
                 "attainment_residual": res.attainment_residual,
                 "consistency_residual": res.consistency_residual}
    except (NonConvergenceError, NotAnEquilibriumError) as exc:
        if args.no_fallback:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NONCONVERGENCE
        method = "threat-fallback"
        profile = equilibria.build_threat_profile(game)
        gaps = equilibria.verify_threat_ne(game, profile, tol=scenario.ne_tol).summary()
        extra = {"fallback_reason": str(exc)}
    s0 = scenario.s0 or space.state_at(int(np.flatnonzero(space.is_noncapture)[0]))
    idx0 = space.index_of(tuple(s0))
    trace = simulate.run(space, profile, idx0)
    result = {
        "method": method,
        "values_at_s0": list(simulate.payoffs_of(params, trace)),
        "capture_time": None if trace.capture_time == math.inf else trace.capture_time,
        "capturing_set": list(trace.capturing_set),
        "termination": trace.termination,
        "trace": trace.to_json_obj(),
        "verification": gaps,
        **extra,
    }
    _emit(_report("solve", scenario, result))
    return EXIT_OK


def cmd_reproduce_example(args):
    demo = analysis.delayed_capture_demo(args.gamma, args.epsilon)
    # each play: (how it is played, trace, payoffs, symbolic payoffs)
    plays = {"cooperative": ("both pursuers greedy, evader optimal", demo.cooperative_trace,
                             demo.cooperative_payoffs, demo.cooperative_symbolic),
             "deviation": ("C1 retreats to vertex 7 first, then chases", demo.deviation_trace,
                           demo.deviation_payoffs, demo.deviation_symbolic)}
    if args.json:
        result = {
            "gamma": demo.gamma, "epsilon": demo.epsilon, "s0": list(demo.s0),
            **{name: {"table": simulate.render_turn_table(trace),
                      "capture_time": trace.capture_time,
                      "captured_by": list(trace.capturing_set),
                      "payoffs": list(payoffs),
                      "symbolic": symbolic}
               for name, (_, trace, payoffs, symbolic) in plays.items()},
            "threshold": demo.threshold,
            "threshold_exponent": demo.threshold_exponent,
            "deviation_profitable": demo.deviation_profitable,
            "consistent": demo.prediction_consistent,
        }
        _emit(_report("reproduce-example", None, result))
        return EXIT_OK
    print("delayed-capture example: 9-vertex tree, two pursuers, one evader")
    print(f"s0: C1=6 C2=1 R=4, C1 moves first; gamma={demo.gamma} eps={demo.epsilon}")
    for name, (how, trace, payoffs, symbolic) in plays.items():
        print()
        print(f"{name} play ({how}):")
        print(simulate.render_turn_table(trace))
        print(f"capture at turn {trace.capture_time} by C{trace.capturing_set[0]}")
        print("payoffs: " + ", ".join(
            f"Q{i+1} = {s} = {v:.6f}" for i, (s, v) in enumerate(zip(symbolic, payoffs))))
    print()
    print(f"retreat pays iff gamma > (eps/(1-eps))^(1/{demo.threshold_exponent})"
          f" = {demo.threshold:.6f}")
    verdict = "profitable" if demo.deviation_profitable else "not profitable"
    check = "PASS" if demo.prediction_consistent else "FAIL"
    print(f"gamma={demo.gamma}: deviation {verdict}; threshold criterion agrees: {check}")
    return EXIT_OK if demo.prediction_consistent else EXIT_SUITE_FAILURE


def cmd_copnumber(args):
    _at_least_one("--max-cops", args.max_cops)
    if args.verify and not args.selfish:
        raise ValidationError("--verify checks the selfish cop number: give --selfish too")
    get = _reader(args)
    g, state_cap = get("graph"), get("state_cap", DEFAULT_STATE_CAP)
    if args.selfish:
        result = analysis.selfish_cop_number(g, max_cops=args.max_cops, verify=args.verify,
                                             state_cap=state_cap)
    else:
        res = cop_number(g, max_cops=args.max_cops, state_cap=state_cap)
        result = {"cop_number": res.value, "finite_by_cops": res.finite_by_cops}
    _emit({"schema_version": SCHEMA_VERSION, "command": "copnumber",
           "graph": serialize_graph(g), "max_cops": args.max_cops, "state_cap": state_cap,
           "result": result})
    return EXIT_SUITE_FAILURE if args.selfish and not result["consistent"] else EXIT_OK


def cmd_sweep(args):
    scenario = Scenario.read(_reader(args))
    grid = _grid_from(args, scenario.params)
    s0_list = [scenario.s0] if scenario.s0 is not None else None
    rows = analysis.sweep(scenario.graph, scenario.params.n_players, grid=grid,
                          s0_list=s0_list, tol=scenario.ne_tol, state_cap=scenario.state_cap)
    if args.json:
        _emit(_report("sweep", scenario, {"rows": rows}))
    else:
        sys.stdout.write(analysis.sweep_csv(rows))
    return EXIT_OK


def cmd_verify(args):
    scenario = Scenario.read(_reader(args), DEFAULT_PROFILE)
    result = analysis.verify_profile(scenario)
    _emit(_report("verify", scenario, {"profile": scenario.profile, **result}))
    return EXIT_OK if result.get("is_ne", True) else EXIT_SUITE_FAILURE


def cmd_simulate(args):
    scenario = Scenario.read(_reader(args), DEFAULT_PROFILE)
    space = scenario.space()
    params = scenario.params
    if scenario.s0 is None:
        raise ValidationError("simulate needs --s0")
    idx0 = space.index_of(tuple(scenario.s0))
    if args.turn_cap is not None:
        _at_least_one("--turn-cap", args.turn_cap)
    profile = analysis.build_profile(equilibria.Game(space, params), scenario.profile)
    plan = {}
    if args.plan:
        if args.deviator is None:
            raise ValidationError("--plan needs --deviator")
        for item in args.plan.split(","):
            turn, _, action = item.partition(":")
            try:
                plan[int(turn)] = int(action)
            except ValueError:
                raise ValidationError(f"--plan needs turn:action pairs, got {item!r}") from None
    trace = simulate.run_with_forced_deviation(space, profile, args.deviator, plan, idx0,
                                               turn_cap=args.turn_cap)
    if args.table:
        print(simulate.render_turn_table(trace))
        t = trace.capture_time
        print(f"termination: {trace.termination}"
              + (f", capture at turn {t} by {trace.capturing_set}" if t != math.inf else ""))
    else:
        payoffs = (list(simulate.payoffs_of(params, trace))
                   if trace.termination != simulate.TURN_CAP else None)
        result = {"trace": trace.to_json_obj(), "termination": trace.termination,
                  "capture_time": None if trace.capture_time == math.inf else trace.capture_time,
                  "capturing_set": list(trace.capturing_set), "payoffs": payoffs}
        _emit(_report("simulate", scenario, result))
    return EXIT_OK


def cmd_equivalence(args):
    _at_least_one("--trials", args.trials)
    get = _reader(args)
    g, n_players = get("graph"), get("n_players", 3)
    gamma, state_cap = get("gamma", 0.7), get("state_cap", DEFAULT_STATE_CAP)
    result = analysis.payoff_equivalence_check(g, n_players, trials=args.trials, seed=args.seed,
                                               gamma=gamma, state_cap=state_cap)
    _emit({"schema_version": SCHEMA_VERSION, "command": "equivalence",
           "graph": serialize_graph(g), "n_players": n_players, "gamma": gamma,
           "seed": args.seed, "state_cap": state_cap, "result": result})
    return EXIT_OK if result["all_sums_exact"] and result["cr_optimal_is_ne"] else EXIT_SUITE_FAILURE


def cmd_theorems(args):
    scenario = Scenario.read(_reader(args))
    grid = _grid_from(args, scenario.params)
    reports = analysis.theorem_suite(scenario.graph, scenario.params.n_players, grid=grid,
                                     tol=scenario.ne_tol, state_cap=scenario.state_cap)
    result = [r.summary() for r in reports]
    _emit(_report("theorems", scenario, {"reports": result}))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_SUITE_FAILURE


# ---------------------------------------------------------------------------

def _add_graph(p):
    p.add_argument("--scenario", help="JSON scenario file")
    p.add_argument("--graph", help="edge-list graph file")
    p.add_argument("--builtin", help="named graph, e.g. petersen, path:4, cycle:5")
    p.add_argument("--state-cap", type=int, dest="state_cap")


def _add_common(p, grid=False):
    _add_graph(p)
    p.add_argument("--n", type=int, dest="n_players", metavar="N",
                   help="number of players (pursuers + 1)")
    p.add_argument("--gamma", type=float)
    p.add_argument("--epsilon", type=float)
    # store_true flags default to None, not False: not given
    p.add_argument("--split-equivalent", action="store_true", default=None,
                   dest="split_equivalent")
    p.add_argument("--allow-extended-epsilon", action="store_true", default=None,
                   dest="allow_extended_epsilon")
    p.add_argument("--ne-tol", type=float, dest="ne_tol", help="equilibrium gap tolerance")
    p.add_argument("--s0", help="initial state as x1,...,xN,p")
    if grid:
        p.add_argument("--grid", help="gamma and eps lists: g1,g2,...;e1,e2,...")


def build_parser():
    parser = argparse.ArgumentParser(prog="scar",
                                     description="selfish pursuit games: solve, simulate, verify")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="positional equilibrium with threat fallback")
    _add_common(p)
    p.add_argument("--no-fallback", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reproduce-example", help="built-in delayed-capture demonstration")
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--json", action="store_true", help="JSON report instead of text")
    p.set_defaults(func=cmd_reproduce_example)

    p = sub.add_parser("copnumber", help="cop number by exact game solving")
    _add_graph(p)
    p.add_argument("--max-cops", type=int, default=3, dest="max_cops")
    p.add_argument("--selfish", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_copnumber)

    p = sub.add_parser("sweep", help="grid sweep CSV over (gamma, eps, s0)")
    _add_common(p, grid=True)
    p.add_argument("--json", action="store_true", help="JSON report instead of CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="verify a named profile as an equilibrium")
    _add_common(p)
    p.add_argument("--profile", choices=analysis.VERIFIABLE_PROFILES,
                   help="default: the scenario's profile, else cr-optimal")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="play a profile out from --s0")
    _add_common(p)
    p.add_argument("--profile", choices=analysis.PLAYABLE_PROFILES,
                   help="default: the scenario's profile, else cr-optimal")
    p.add_argument("--deviator", type=int)
    p.add_argument("--plan", help="forced moves t1:a1,t2:a2,...")
    p.add_argument("--turn-cap", type=int, dest="turn_cap")
    p.add_argument("--table", action="store_true", help="render the turn table")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("theorems", help="run the guarantee suites for this graph")
    _add_common(p, grid=True)
    p.set_defaults(func=cmd_theorems)

    p = sub.add_parser("equivalence",
                       help="split-equivalent payoff battery with random profiles")
    _add_graph(p)
    p.add_argument("--n", type=int, dest="n_players", metavar="N")
    p.add_argument("--gamma", type=float)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_equivalence)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ScarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
