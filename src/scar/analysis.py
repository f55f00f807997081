"""Higher-level batteries: selfish cop number, guarantee suites, sweeps.

Claims that quantify over the whole parameter rectangle are checked on a
sampled grid (exhaustive over initial states, sampled over (gamma, eps)); every
report states that scope and a failing instance always carries a replayable
scenario.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import equilibria
from .bellman import DEFAULT_VALUE_TOL
from .cr import CopNumberResult, cop_number, exact_capture_times, t_n_max
from .equilibria import DEFAULT_NE_TOL
from .errors import ValidationError
from .graph import Graph, serialize_graph
from .payoffs import GameParams
from .profiles import PositionalProfile, combine_player_moves, greedy_cop_moves, random_profile
from .simulate import payoffs_of, profile_outcomes, run, run_with_forced_deviation
from .states import build_state_space

OMEGA_TILDE_BOUNDARY_MARGIN = 1e-6


@dataclass(frozen=True)
class SweepGrid:
    gammas: tuple
    epsilons: tuple

    def points(self):
        return [(g, e) for g in self.gammas for e in self.epsilons]

    def omega_tilde_points(self, n_players: int):
        return [(g, e) for g, e in self.points()
                if GameParams(n_players, g, e).in_omega_tilde]


def make_grid(n_players: int, gammas=None, epsilons=None) -> SweepGrid:
    """Default 5x5 grid: eps spans [0, 1/(N-1)] including both boundaries; gamma
    reaches 0.95. Gammas within 1e-6 of an eps/(1-eps) boundary are nudged down
    so the strict-inequality region never depends on float luck."""
    hi = 1.0 / (n_players - 1)
    if epsilons is None:
        epsilons = [hi * k / 4 for k in range(5)]
    if gammas is None:
        gammas = [0.1, 0.3, 0.5, 0.7, 0.95]
    out = []
    for g in gammas:
        if not 0.0 < g < 1.0:
            raise ValidationError(f"grid gamma {g} outside (0, 1)")
        while any(e < 1.0 and abs(g - e / (1.0 - e)) < OMEGA_TILDE_BOUNDARY_MARGIN
                  for e in epsilons):
            g -= 1e-3
        out.append(g)
    for e in epsilons:
        if not 0.0 <= e <= hi:
            raise ValidationError(f"grid epsilon {e} outside [0, {hi}]")
    return SweepGrid(tuple(out), tuple(epsilons))


def _scenario(g: Graph, n_players, gamma=None, epsilon=None, split_equivalent=False,
              s0="all", profile="-", tol=DEFAULT_NE_TOL, value_tol=DEFAULT_VALUE_TOL):
    return {
        "graph": serialize_graph(g),
        "n_players": n_players,
        "gamma": gamma,
        "epsilon": epsilon,
        "split_equivalent": split_equivalent,
        "s0": s0,
        "profile": profile,
        "tol": tol,
        "value_tol": value_tol,
    }


def replay_scenario(scenario: dict) -> dict:
    """Re-run a serialized counterexample scenario and report the verdict.

    Failing suite instances embed everything needed to reproduce themselves:
    the graph document, parameters, tolerances, the named profile, and the
    start. The verdict dict mirrors what the original suite checked.
    """
    from .graph import parse_graph

    g = parse_graph(scenario["graph"])
    n = scenario["n_players"]
    params = GameParams(n, scenario["gamma"], scenario["epsilon"],
                        split_equivalent=bool(scenario.get("split_equivalent")))
    tol = scenario.get("tol", DEFAULT_NE_TOL)
    value_tol = scenario.get("value_tol", DEFAULT_VALUE_TOL)
    space = build_state_space(g, n)
    kind = scenario["profile"]
    if kind in ("threat", "capturing-threat"):
        if kind == "threat":
            threat = equilibria.build_threat_profile(space, params, tol=value_tol)
        else:
            threat = equilibria.build_capturing_threat_ne(space, params, tol=value_tol)
        ver = equilibria.verify_threat_ne(space, params, threat, tol=tol, value_tol=value_tol)
        return {"is_ne": ver.is_ne, "captures_everywhere": ver.captures_everywhere(),
                **ver.summary()}
    if kind == "cr-optimal":
        _, ver = equilibria.check_cr_optimal_ne(space, params, tol=tol, value_tol=value_tol)
        return ver.summary()
    if kind == "noncapturing-construction":
        constr = equilibria.build_noncapturing_ne(space, params, s0=tuple(scenario["s0"]))
        trace = run(space, params, constr.profile, constr.s0_index)
        ver = equilibria.verify_noncapturing_ne(space, params, constr, tol=tol,
                                                value_tol=value_tol)
        return {"is_ne": ver.is_ne, "termination": trace.termination,
                "gains": ver.per_player_gain}
    raise ValidationError(f"cannot replay profile kind {kind!r}")


@dataclass
class TheoremReport:
    theorem_id: str
    description: str
    scope: str
    instances: list = field(default_factory=list)
    passed: bool = True
    counterexample: dict | None = None

    def record(self, passed: bool, detail: dict, scenario: dict | None = None):
        self.instances.append({"passed": passed, **detail})
        if not passed:
            self.passed = False
            if self.counterexample is None:
                self.counterexample = {"scenario": scenario, "detail": detail}

    def summary(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "description": self.description,
            "scope": self.scope,
            "passed": self.passed,
            "instances": len(self.instances),
            "counterexample": self.counterexample,
        }


def theorem_suite(g: Graph, n_players: int, grid: SweepGrid | None = None,
                  tol: float = DEFAULT_NE_TOL, value_tol: float = DEFAULT_VALUE_TOL,
                  state_cap=None) -> list:
    """Run every capture/escape guarantee whose hypothesis the graph satisfies.

    Grid-quantified claims are sampled on the grid and exhaustive over starts;
    the scope string says so explicitly.
    """
    if grid is None:
        grid = make_grid(n_players)
    kwargs = {} if state_cap is None else {"state_cap": state_cap}
    space = build_state_space(g, n_players, **kwargs)
    table = exact_capture_times(space)
    cnum = cop_number(g, max_cops=n_players, state_cap=state_cap)
    c = cnum.value  # None means > n_players, which also means >= N for our suites
    scope = f"sampled {len(grid.gammas)}x{len(grid.epsilons)} (gamma, eps) grid, all initial states"

    capturing = c is not None and c <= n_players - 1
    noncapturing = c is None or c >= 2
    threat_rep = TheoremReport(
        "threat-ne-exists",
        "the mutual-threat profile is an equilibrium from every start",
        scope)
    reports = [threat_rep]
    if capturing:
        cap_rep = TheoremReport(
            "capturing-ne-exists",
            "with enough pursuers (cop number <= N-1) a capturing equilibrium exists from every start",
            scope)
        omega_rep = TheoremReport(
            "cr-optimal-ne-on-omega-tilde",
            "under gamma < eps/(1-eps) the canonical optimal pursuit is itself an equilibrium",
            scope + " (grid points inside the region only)")
        reports += [cap_rep, omega_rep]
        bound = t_n_max(space, table)
    if c == 1:
        # The capturing guarantee rests on a deviation that earns at least the
        # bystander share of a capture many turns out. At eps = 0 that share is
        # exactly zero (surrendering punishers cost nothing, so non-capturing
        # equilibria exist even here), and under heavy discounting it drops
        # below any float verification tolerance; the claim is only testable
        # where the incentive stays resolvable.
        space2 = build_state_space(g, 2, **kwargs)
        horizon = n_players * t_n_max(space2, exact_capture_times(space2))
        copwin_rep = TheoremReport(
            "cop-win-all-ne-capturing",
            "on a pursuer-win graph every verified equilibrium captures from every start",
            scope + "; restricted to points with eps * gamma^(one-pursuer delay horizon)"
                    " above 10x the gap tolerance (elsewhere the deviation incentive is"
                    " smaller than anything float verification can resolve)")
        reports.append(copwin_rep)
    if noncapturing:
        nonc_rep = TheoremReport(
            "noncapturing-ne-exists",
            "with cop number >= 2 some start admits a non-capturing equilibrium",
            scope + ", at the stacked-pursuers start")
        construction = equilibria.build_noncapturing_ne(space,
                                                        GameParams(n_players, grid.gammas[0],
                                                                   grid.epsilons[0]),
                                                        state_cap=state_cap)
        reports.append(nonc_rep)

    # One pass over the grid. Each point's auxiliary games serve both threat
    # builders, and its two threat verdicts serve the cop-win suite too. Only
    # one point's arrays are alive at a time: the games and threat profiles go
    # once verified, the verdicts before the non-capturing MDPs run.
    scenario = functools.partial(_scenario, g, n_players, tol=tol, value_tol=value_tol)
    for gamma, eps in grid.points():
        params = GameParams(n_players, gamma, eps)
        aux = equilibria.solve_all_aux_games(space, params, tol=value_tol)
        verdicts = {"threat": equilibria.verify_threat_ne(
            space, params, equilibria.build_threat_profile(space, params, aux=aux),
            tol=tol, value_tol=value_tol)}
        if capturing:
            verdicts["capturing-threat"] = equilibria.verify_threat_ne(
                space, params,
                equilibria.build_capturing_threat_ne(space, params, table=table, aux=aux),
                tol=tol, value_tol=value_tol)
        del aux

        ver = verdicts["threat"]
        threat_rep.record(ver.is_ne, {"gamma": gamma, "epsilon": eps, **ver.summary()},
                          scenario(gamma, eps, profile="threat"))
        if capturing:
            ver = verdicts["capturing-threat"]
            captures = ver.captures_everywhere()
            within = (ver.cooperative_turns[space.is_noncapture] <= bound).all() if captures else False
            cap_rep.record(ver.is_ne and captures and bool(within),
                           {"gamma": gamma, "epsilon": eps, "captures_everywhere": captures,
                            "capture_time_bound": bound, **ver.summary()},
                           scenario(gamma, eps, profile="capturing-threat"))
            if params.in_omega_tilde:
                _, ver = equilibria.check_cr_optimal_ne(space, params, table=table,
                                                        tol=tol, value_tol=value_tol)
                omega_rep.record(ver.is_ne, {"gamma": gamma, "epsilon": eps, **ver.summary()},
                                 scenario(gamma, eps, profile="cr-optimal"))

        if c == 1:
            if eps <= 0.0 or eps * gamma**horizon <= 10 * tol:
                copwin_rep.instances.append(
                    {"passed": None, "skipped": True, "gamma": gamma, "epsilon": eps,
                     "reason": "incentive below verification resolution"})
            else:
                for kind, ver in verdicts.items():
                    copwin_rep.record(not ver.is_ne or ver.captures_everywhere(),
                                      {"gamma": gamma, "epsilon": eps, "profile": kind,
                                       "is_ne": ver.is_ne,
                                       "captures_everywhere": ver.captures_everywhere()},
                                      scenario(gamma, eps, profile=kind))

        del verdicts, ver  # the point's threat and omega-tilde arrays
        if noncapturing:
            trace = run(space, params, construction.profile, construction.s0_index)
            ver = equilibria.verify_noncapturing_ne(space, params, construction,
                                                    tol=tol, value_tol=value_tol)
            nonc_rep.record(trace.termination == "cycle" and ver.is_ne,
                            {"gamma": gamma, "epsilon": eps, "s0": list(construction.s0),
                             "termination": trace.termination, "is_ne": ver.is_ne,
                             "gains": ver.per_player_gain},
                            scenario(gamma, eps, s0=list(construction.s0),
                                     profile="noncapturing-construction"))

    if c is None or c >= n_players:
        escape_rep = TheoremReport(
            "escape-start-forces-noncapture",
            "with cop number >= N some start makes every equilibrium non-capturing",
            "exact capture-time table, exhaustive over starts")
        witness = escape_start_witness(space, table)
        escape_rep.record(witness is not None,
                          {"witness_s0": list(space.state_at(witness)) if witness is not None else None},
                          _scenario(g, n_players, s0="-", profile="-"))
        reports.append(escape_rep)

    return reports


def escape_start_witness(space, table=None):
    """An initial state from which the evader escapes all N-1 pursuers, if any.

    The exact table is the certificate: from such a start the evader's optimal
    evasion guarantees zero payoff for everyone, so no equilibrium can capture.
    """
    if table is None:
        table = exact_capture_times(space)
    escapes = table.escape_states()
    return int(escapes[0]) if escapes.size else None


@dataclass
class SelfishCopNumberReport:
    value: int
    cop_result: CopNumberResult
    verified_points: list = field(default_factory=list)
    escape_witness: list | None = None
    consistent: bool = True


def selfish_cop_number(g: Graph, max_cops: int = 3, verify: bool = False,
                       grid: SweepGrid | None = None, sample_points: int = 3,
                       tol: float = DEFAULT_NE_TOL, state_cap=None) -> SelfishCopNumberReport:
    """Fewest selfish pursuers so that a capturing equilibrium exists for every
    start and every parameter choice; always equals the ordinary cop number.

    --verify mode samples the existence side (capturing threat equilibria at
    K = c) and exhibits the non-existence witness at K = c-1.
    """
    cnum = cop_number(g, max_cops=max_cops, state_cap=state_cap)
    if cnum.value is None:
        raise ValidationError(f"cop number exceeds max_cops={max_cops}; raise the bound")
    report = SelfishCopNumberReport(cnum.value, cnum)
    if not verify:
        return report
    k = cnum.value
    n_players = k + 1
    if grid is None:
        grid = make_grid(n_players)
    kwargs = {} if state_cap is None else {"state_cap": state_cap}
    space = build_state_space(g, n_players, **kwargs)
    table = exact_capture_times(space)
    diag = grid.points()[:: max(1, len(grid.points()) // sample_points)][:sample_points]
    for gamma, eps in diag:
        params = GameParams(n_players, gamma, eps)
        threat = equilibria.build_capturing_threat_ne(space, params, table=table)
        ver = equilibria.verify_threat_ne(space, params, threat, tol=tol)
        ok = ver.is_ne and ver.captures_everywhere()
        report.verified_points.append({"gamma": gamma, "epsilon": eps, "ok": ok})
        report.consistent = report.consistent and ok
    if k >= 2:
        small = build_state_space(g, k, **kwargs)  # K-1 = k-1 pursuers
        witness = escape_start_witness(small)
        report.escape_witness = (list(small.state_at(witness)) if witness is not None else None)
        report.consistent = report.consistent and witness is not None
    return report


@dataclass
class EquivalenceReport:
    trials: int
    all_sums_exact: bool
    failures: list
    cr_optimal_is_ne: bool
    max_gap: float


def payoff_equivalence_check(g: Graph, n_players: int, trials: int = 100,
                             seed: int = 0, gamma: float = 0.7,
                             tol: float = DEFAULT_NE_TOL, state_cap=None) -> EquivalenceReport:
    """Split-equivalent mode: pursuer payoffs always sum to the single-controller
    payoff gamma^T_C, exactly; and the canonical optimal pursuit verifies as an
    equilibrium. Random profiles and starts are drawn from a seeded generator."""
    from fractions import Fraction

    kwargs = {} if state_cap is None else {"state_cap": state_cap}
    space = build_state_space(g, n_players, **kwargs)
    params = GameParams(n_players, gamma, split_equivalent=True)
    rng = np.random.default_rng(seed)
    nc_idx = np.flatnonzero(space.is_noncapture)
    failures = []
    for trial in range(trials):
        profile = random_profile(space, rng)
        s0 = int(nc_idx[rng.integers(0, nc_idx.size)])
        trace = run(space, params, profile, s0)
        pays = payoffs_of(params, trace, exact=True)
        cop_sum = sum(pays[:-1])
        t = trace.capture_time
        expected = Fraction(0) if t == math.inf else Fraction(gamma) ** t
        if cop_sum != expected or pays[-1] != -expected:
            failures.append({"trial": trial, "s0": list(space.state_at(s0)),
                             "capture_time": None if t == math.inf else t})
    _, ver = equilibria.check_cr_optimal_ne(space, params, tol=tol)
    return EquivalenceReport(trials, not failures, failures, ver.is_ne, ver.max_gap)


# ---------------------------------------------------------------------------
# Parameter sweeps.

SWEEP_COLUMNS = ["gamma", "epsilon", "s0", "omega_tilde", "cr_optimal_is_ne",
                 "max_gap", "threat_capture_time"]


def sweep(g: Graph, n_players: int, grid: SweepGrid | None = None, s0_list=None,
          tol: float = DEFAULT_NE_TOL, value_tol: float = DEFAULT_VALUE_TOL,
          state_cap=None) -> list:
    """Classify the canonical optimal pursuit and the threat play per grid point.

    Returns rows (dicts) in deterministic grid-then-state order; s0_list=None
    means every non-capture state.
    """
    if grid is None:
        grid = make_grid(n_players)
    kwargs = {} if state_cap is None else {"state_cap": state_cap}
    space = build_state_space(g, n_players, **kwargs)
    table = exact_capture_times(space)
    if s0_list is None:
        starts = [int(s) for s in np.flatnonzero(space.is_noncapture)]
    else:
        starts = [space._as_index(s) for s in s0_list]
    rows = []
    for gamma, eps in grid.points():
        params = GameParams(n_players, gamma, eps)
        _, ver = equilibria.check_cr_optimal_ne(space, params, table=table,
                                                tol=tol, value_tol=value_tol)
        threat = equilibria.build_threat_profile(space, params, tol=value_tol)
        coop_turns, _ = profile_outcomes(space, threat.cooperative.move)
        for s0 in starts:
            state = space.state_at(s0)
            t = int(coop_turns[s0])
            rows.append({
                "gamma": gamma,
                "epsilon": eps,
                "s0": ",".join(str(x) for x in state),
                "omega_tilde": params.in_omega_tilde,
                "cr_optimal_is_ne": ver.is_ne_at(s0),
                "max_gap": float(ver.gaps[:, s0].max()),
                "threat_capture_time": t if t >= 0 else "inf",
            })
    return rows


def sweep_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        out = dict(row)
        out["omega_tilde"] = str(bool(row["omega_tilde"])).lower()
        out["cr_optimal_is_ne"] = str(bool(row["cr_optimal_is_ne"])).lower()
        out["max_gap"] = f"{row['max_gap']:.3e}"
        writer.writerow(out)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Built-in delayed-capture demonstration.

@dataclass
class DelayedCaptureDemo:
    s0: tuple
    gamma: float
    epsilon: float
    cooperative_trace: object
    deviation_trace: object
    cooperative_payoffs: tuple
    deviation_payoffs: tuple
    cooperative_symbolic: list
    deviation_symbolic: list
    threshold: float
    threshold_exponent: int
    deviation_profitable: bool
    prediction_consistent: bool


def delayed_capture_demo(gamma: float = 0.9, epsilon: float = 0.25) -> DelayedCaptureDemo:
    """Greedy pursuit is not an equilibrium on the 9-vertex example tree.

    Both pursuers chasing greedily lets C2 collect the capture; if instead C1
    first retreats to vertex 7 and only then chases, he captures himself, much
    later. The retreat pays exactly when gamma > (eps/(1-eps))^(1/8), the 8
    being the capture-time difference of the two plays.
    """
    from .cr import extract_cr_optimal_moves
    from .graph import delayed_capture_graph
    from .payoffs import symbolic_payoffs

    g = delayed_capture_graph()
    space = build_state_space(g, 3)
    params = GameParams(3, gamma, epsilon)
    table = exact_capture_times(space)
    cr_moves = extract_cr_optimal_moves(space, table)
    moves = combine_player_moves(space, [
        greedy_cop_moves(space, 1),
        greedy_cop_moves(space, 2),
        cr_moves,  # evader rows of the exact optimal evasion
    ])
    profile = PositionalProfile(space, moves, validate=False)
    s0 = (6, 1, 4, 1)
    coop = run(space, params, profile, s0)
    dev = run_with_forced_deviation(space, params, profile, deviator=1,
                                    deviation_plan={1: 7}, s0=s0)
    pays_coop = payoffs_of(params, coop)
    pays_dev = payoffs_of(params, dev)
    t_coop, t_dev = coop.capture_time, dev.capture_time
    exponent = t_dev - t_coop
    threshold = (epsilon / (1.0 - epsilon)) ** (1.0 / exponent) if epsilon > 0 else 0.0
    profitable = pays_dev[0] > pays_coop[0]
    predicted = gamma > threshold
    return DelayedCaptureDemo(
        s0=s0, gamma=gamma, epsilon=epsilon,
        cooperative_trace=coop, deviation_trace=dev,
        cooperative_payoffs=pays_coop, deviation_payoffs=pays_dev,
        cooperative_symbolic=symbolic_payoffs(params, t_coop, coop.capturing_set),
        deviation_symbolic=symbolic_payoffs(params, t_dev, dev.capturing_set),
        threshold=threshold, threshold_exponent=exponent,
        deviation_profitable=profitable,
        prediction_consistent=(profitable == predicted),
    )
