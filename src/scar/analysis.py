"""Higher-level batteries: selfish cop number, guarantee suites, sweeps.

Claims that quantify over the whole parameter rectangle are checked on a
sampled grid (exhaustive over initial states, sampled over (gamma, eps)); every
report states that scope and a failing instance always carries a replayable
scenario. A suite solves two capture tables, its own N-player one and the
one-pursuer one, and reads every hypothesis on the cop number off them.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import equilibria
from .cr import cop_number, t_n_max
from .equilibria import DEFAULT_NE_TOL
from .errors import ValidationError
from .graph import Graph, builtin_graph, parse_graph, serialize_graph
from .payoffs import GameParams, discounted, omega_tilde_bound
from .profiles import ThreatProfile, combine_player_moves, greedy_cop_moves, random_profile
from .simulate import CYCLE, payoffs_of, profile_outcomes, run, run_with_forced_deviation
from .states import DEFAULT_STATE_CAP, build_state_space

OMEGA_TILDE_BOUNDARY_MARGIN = 1e-6


@dataclass(frozen=True)
class SweepGrid:
    gammas: tuple
    epsilons: tuple

    def points(self):
        return [(g, e) for g in self.gammas for e in self.epsilons]


def make_grid(n_players: int, gammas=None, epsilons=None) -> SweepGrid:
    """Default 5x5 grid: eps spans [0, 1/(N-1)] including both boundaries; gamma
    reaches 0.95. Gammas within 1e-6 of an eps/(1-eps) boundary are nudged down
    so the strict-inequality region never depends on float luck."""
    hi = 1.0 / (n_players - 1)
    if epsilons is None:
        epsilons = [hi * k / 4 for k in range(5)]
    if gammas is None:
        gammas = [0.1, 0.3, 0.5, 0.7, 0.95]
    if not gammas or not epsilons:
        raise ValidationError("grid needs at least one gamma and one epsilon")
    bounds = [omega_tilde_bound(e) for e in epsilons]
    out = []
    for g in gammas:
        if not 0.0 < g < 1.0:
            raise ValidationError(f"grid gamma {g} outside (0, 1)")
        nudged = g
        while any(abs(nudged - b) < OMEGA_TILDE_BOUNDARY_MARGIN for b in bounds):
            nudged -= 1e-3
        if nudged <= 0.0:
            raise ValidationError(f"grid gamma {g} sits on the eps/(1-eps) boundary "
                                  f"{min(bounds, key=lambda b: abs(g - b))}, and nudging it "
                                  "off leaves (0, 1)")
        out.append(nudged)
    for e in epsilons:
        if not 0.0 <= e <= hi:
            raise ValidationError(f"grid epsilon {e} outside [0, {hi}]")
    return SweepGrid(tuple(out), tuple(epsilons))


# ---------------------------------------------------------------------------
# Scenarios: the one writer and the one reader of a replayable instance.

DEFAULT_PROFILE = "cr-optimal"


class Scenario:
    """Resolved inputs of one solve: graph, player count, parameters, start, gap
    tolerance, state cap, and the named profile `verify` and `simulate` run
    (None for the other commands, whose blocks then carry no profile).
    `to_json_obj` writes every scenario block, report echo and suite
    counterexample alike, and `read` reads any of them back."""

    def __init__(self, graph: Graph, n_players: int, gamma: float, epsilon=None,
                 split_equivalent=False, allow_extended_epsilon=False, s0=None,
                 ne_tol=DEFAULT_NE_TOL, state_cap=DEFAULT_STATE_CAP, profile=None):
        self.graph = graph
        self.params = GameParams(n_players, gamma, epsilon,
                                 split_equivalent=split_equivalent,
                                 allow_extended_epsilon=allow_extended_epsilon)
        self.s0 = s0
        self.ne_tol = ne_tol
        self.state_cap = state_cap
        self.profile = profile

    @classmethod
    def read(cls, get, profile=None) -> "Scenario":
        """The scenario `get`, a `scenario_reader`, resolves. `profile` is the
        command's default profile; None, for a command that runs none, leaves
        the document's profile unread."""
        graph = get("graph")
        split = get("split_equivalent", False)
        ne_tol = float(get("ne_tol", DEFAULT_NE_TOL))
        if not ne_tol >= 0:
            raise ValidationError(f"equilibrium gap tolerance must be non-negative, got {ne_tol}")
        s0 = get("s0")
        return cls(graph, get("n_players"), float(get("gamma")), None if split else float(get("epsilon")),
                   split_equivalent=split,
                   allow_extended_epsilon=get("allow_extended_epsilon", False),
                   s0=tuple(s0) if s0 else None, ne_tol=ne_tol,
                   state_cap=get("state_cap", DEFAULT_STATE_CAP),
                   profile=get("profile", profile) if profile else None)

    def space(self):
        space = build_state_space(self.graph, self.params.n_players, self.state_cap)
        if self.s0 is not None:
            space.index_of(tuple(self.s0))  # validates the start
        return space

    def to_json_obj(self):
        p = self.params
        echo = {
            "graph": serialize_graph(self.graph),
            "n_players": p.n_players,
            "gamma": p.gamma,
            "epsilon": p.epsilon,
            "split_equivalent": p.split_equivalent,
            "allow_extended_epsilon": p.allow_extended_epsilon,
            "in_omega_tilde": p.in_omega_tilde,
            "s0": list(self.s0) if self.s0 is not None else None,
            "ne_tol": self.ne_tol,
            "state_cap": self.state_cap,
        }
        if self.profile is not None:
            echo["profile"] = self.profile
        return echo


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_int(value) or isinstance(value, float)


def _is_bool(value):
    return isinstance(value, bool)


# the fields whose document value must have a given type: (check, what it must be)
_FIELD_TYPES = {
    "n_players": (_is_int, "an integer"),
    "state_cap": (_is_int, "an integer"),
    "gamma": (_is_number, "a number"),
    "epsilon": (_is_number, "a number"),
    "ne_tol": (_is_number, "a number"),
    "split_equivalent": (_is_bool, "a boolean"),
    "allow_extended_epsilon": (_is_bool, "a boolean"),
    "s0": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)), "a list of integers"),
}


# the fields a command cannot run without, unless it gives a default
_REQUIRED = {"graph": "no graph given: use --scenario, --graph FILE, or --builtin NAME",
             "n_players": "player count missing: --n or scenario n_players",
             "gamma": "gamma missing: --gamma or scenario gamma",
             "epsilon": "epsilon missing: --epsilon, --split-equivalent, or scenario"}


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None


# the graph forms a document (or the --graph and --builtin flags) may take
_GRAPH_FORMS = {"edge_list": parse_graph,
                "path": lambda path: parse_graph(_read_text(path)),
                "builtin": builtin_graph}


def _graph_of(gdoc) -> Graph:
    if isinstance(gdoc, str):  # a written scenario block's edge list
        gdoc = {"edge_list": gdoc}
    for form, make in _GRAPH_FORMS.items():
        if isinstance(gdoc, dict) and isinstance(gdoc.get(form), str):
            return make(gdoc[form])
    raise ValidationError("scenario graph must be an edge list or carry edge_list, path or builtin")


def read_document(path) -> dict:
    """A scenario file's JSON document."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"scenario {path} is not JSON: {exc}") from None


def scenario_reader(doc=None, **flags):
    """The one reader of scenario inputs: `get(key, default=None)` is the
    flag (None: not given), else the document's key, else the default. The
    document's gap tolerance is `tolerances.ne_gap`, else `ne_tol`, else `tol`;
    the `graph` flag and key are edge-list text or a dict carrying
    `edge_list`, `path` or `builtin`."""
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise ValidationError(f"a scenario must be a JSON object, got {type(doc).__name__}")
    tolerances = doc.get("tolerances") or {}
    if not isinstance(tolerances, dict):
        raise ValidationError("scenario tolerances must be an object")

    def get(key, default=None):
        named = (tolerances.get("ne_gap"), doc.get("ne_tol"), doc.get("tol")) \
            if key == "ne_tol" else (doc.get(key),)
        value = next((v for v in (flags.get(key), *named) if v is not None), default)
        if value is None and key in _REQUIRED:
            raise ValidationError(_REQUIRED[key])
        check, what = _FIELD_TYPES.get(key, (None, None))
        if value is not None and check is not None and not check(value):
            raise ValidationError(f"scenario {key} must be {what}, got {value!r}")
        return _graph_of(value) if key == "graph" else value

    return get


# ---------------------------------------------------------------------------
# Named profiles: the one map from a profile name to its construction and check.

PLAYABLE_PROFILES = ("cr-optimal", "threat", "capturing-threat")
VERIFIABLE_PROFILES = PLAYABLE_PROFILES + ("noncapturing", "positional-ne")


def _check_kind(kind, kinds, verb):
    if kind not in kinds:
        raise ValidationError(f"cannot {verb} profile {kind!r}; expected one of {', '.join(kinds)}")


def build_profile(game: equilibria.Game, kind: str):
    """The named playable profile: canonical optimal pursuit or a threat profile."""
    _check_kind(kind, PLAYABLE_PROFILES, "play")
    if kind == "cr-optimal":
        return ThreatProfile(game.space, game.space.capture_table.cr_optimal_moves, {})
    if kind == "threat":
        return equilibria.build_threat_profile(game)
    return equilibria.build_capturing_threat_ne(game)


def verify_profile(scenario: Scenario) -> dict:
    """Build the scenario's named profile and check it as an equilibrium under
    its gap tolerance; the verdict dict of `scar verify`.

    The start adds the verdict at that start for `cr-optimal` and sets the
    start of the non-capturing construction (None: its first qualifying start).
    """
    kind, tol, s0 = scenario.profile, scenario.ne_tol, scenario.s0
    _check_kind(kind, VERIFIABLE_PROFILES, "verify")
    space = scenario.space()
    game = equilibria.Game(space, scenario.params)
    if kind == "cr-optimal":
        starts = None if s0 is None else [space.index_of(s0)]
        rep = equilibria.verify_threat_ne(game, build_profile(game, kind), tol=tol, starts=starts)
        result = rep.summary()
        if s0 is not None:
            result["is_ne_at_s0"] = rep.start_gaps[0] <= tol
        return result
    if kind == "noncapturing":
        table1 = build_state_space(space.graph, 2, scenario.state_cap).capture_table
        constr = equilibria.build_noncapturing_ne(space, table1, s0=s0)
        rep = equilibria.verify_noncapturing_ne(game, constr, tol=tol)
        trace = run(space, constr.profile, constr.s0_index)
        return {"is_ne": rep.is_ne, "gains": rep.per_player_gain,
                "s0": list(constr.s0), "termination": trace.termination}
    if kind == "positional-ne":
        res = equilibria.solve_positional_ne(game, ne_tol=tol)
        return {"sweeps": res.sweeps,
                "attainment_residual": res.attainment_residual,
                "consistency_residual": res.consistency_residual,
                **res.verification.summary()}
    rep = equilibria.verify_threat_ne(game, build_profile(game, kind), tol=tol)
    return {**rep.summary(), "captures_everywhere": rep.captures_everywhere}


def replay_scenario(doc: dict) -> dict:
    """Re-run a scenario document, such as a failing suite instance's
    counterexample, and report the verdict: the `result` of `scar verify
    --scenario` on it, without the `profile` echo."""
    return verify_profile(Scenario.read(scenario_reader(doc), DEFAULT_PROFILE))


@dataclass
class TheoremReport:
    theorem_id: str
    description: str
    scope: str
    instances: list = field(default_factory=list)
    passed: bool = True
    counterexample: dict | None = None

    def record(self, passed: bool, detail: dict, scenario: Scenario | None = None):
        self.instances.append({"passed": passed, **detail})
        if not passed:
            self.passed = False
            if self.counterexample is None:
                self.counterexample = {"scenario": scenario.to_json_obj() if scenario else None,
                                       "detail": detail}

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
                  tol: float = DEFAULT_NE_TOL, state_cap: int = DEFAULT_STATE_CAP) -> list:
    """Run every capture/escape guarantee whose hypothesis the graph satisfies.

    Grid-quantified claims are sampled on the grid and exhaustive over starts;
    the scope string says so explicitly. No cop-number search runs: the
    N-player and one-pursuer tables decide every hypothesis.
    """
    if grid is None:
        grid = make_grid(n_players)
    space = build_state_space(g, n_players, state_cap)
    table = space.capture_table
    # The hypotheses split the cop number c at 1 and at N-1. A pursuer who
    # stays put never helps the evader, so c <= N-1 iff the N-1 pursuers of
    # `table` capture from every start, and c == 1 iff one pursuer does.
    table1 = table if n_players == 2 else build_state_space(g, 2, state_cap).capture_table
    capturing = table.finite_on_noncapture()
    cop_win = table1.finite_on_noncapture()
    scope = f"sampled {len(grid.gammas)}x{len(grid.epsilons)} (gamma, eps) grid, all initial states"
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
        bound = t_n_max(table)
    if cop_win:
        # The capturing guarantee rests on a deviation that earns at least the
        # bystander share of a capture many turns out. At eps = 0 that share is
        # exactly zero (surrendering punishers cost nothing, so non-capturing
        # equilibria exist even here), and under heavy discounting it drops
        # below any float verification tolerance; the claim is only testable
        # where the incentive stays resolvable.
        horizon = n_players * t_n_max(table1)
        copwin_rep = TheoremReport(
            "cop-win-all-ne-capturing",
            "on a pursuer-win graph every verified equilibrium captures from every start",
            scope + "; restricted to points with eps * gamma^(one-pursuer delay horizon)"
                    " above 10x the gap tolerance (elsewhere the deviation incentive is"
                    " smaller than anything float verification can resolve)")
        reports.append(copwin_rep)
    else:
        nonc_rep = TheoremReport(
            "noncapturing-ne-exists",
            "with cop number >= 2 some start admits a non-capturing equilibrium",
            scope + ", at the stacked-pursuers start")
        construction = equilibria.build_noncapturing_ne(space, table1)
        # cooperative play does not depend on (gamma, eps)
        termination = run(space, construction.profile, construction.s0_index).termination
        reports.append(nonc_rep)

    # One pass over the grid. Each point's game serves both threat kinds, and
    # their verdicts serve the cop-win suite too. Only one point's arrays, and
    # one threat profile, are alive at a time.
    scenario = functools.partial(Scenario, g, n_players, ne_tol=tol, state_cap=state_cap)
    kinds = ("threat", "capturing-threat") if capturing else ("threat",)
    for gamma, eps in grid.points():
        params = GameParams(n_players, gamma, eps)
        game = equilibria.Game(space, params)
        verdicts = {kind: equilibria.verify_threat_ne(game, build_profile(game, kind), tol=tol)
                    for kind in kinds}

        ver = verdicts["threat"]
        threat_rep.record(ver.is_ne, {"gamma": gamma, "epsilon": eps, **ver.summary()},
                          scenario(gamma, eps, profile="threat"))
        if capturing:
            ver = verdicts["capturing-threat"]
            captures = ver.captures_everywhere
            cap_rep.record(ver.is_ne and captures and ver.latest_capture <= bound,
                           {"gamma": gamma, "epsilon": eps, "captures_everywhere": captures,
                            "capture_time_bound": bound, **ver.summary()},
                           scenario(gamma, eps, profile="capturing-threat"))
            if params.in_omega_tilde:
                ver = equilibria.verify_threat_ne(game, build_profile(game, "cr-optimal"), tol=tol)
                omega_rep.record(ver.is_ne, {"gamma": gamma, "epsilon": eps, **ver.summary()},
                                 scenario(gamma, eps, profile="cr-optimal"))

        if cop_win:
            if eps <= 0.0 or discounted(gamma, horizon, eps) <= 10 * tol:
                copwin_rep.instances.append(
                    {"passed": None, "skipped": True, "gamma": gamma, "epsilon": eps,
                     "reason": "incentive below verification resolution"})
            else:
                for kind, ver in verdicts.items():
                    copwin_rep.record(not ver.is_ne or ver.captures_everywhere,
                                      {"gamma": gamma, "epsilon": eps, "profile": kind,
                                       "is_ne": ver.is_ne,
                                       "captures_everywhere": ver.captures_everywhere},
                                      scenario(gamma, eps, profile=kind))

        if not cop_win:
            ver = equilibria.verify_noncapturing_ne(game, construction, tol=tol)
            nonc_rep.record(termination == CYCLE and ver.is_ne,
                            {"gamma": gamma, "epsilon": eps, "s0": list(construction.s0),
                             "termination": termination, "is_ne": ver.is_ne,
                             "gains": ver.per_player_gain},
                            scenario(gamma, eps, s0=construction.s0, profile="noncapturing"))
        del game  # the point's games and tables

    if not capturing:
        escape_rep = TheoremReport(
            "escape-start-forces-noncapture",
            "with cop number >= N some start makes every equilibrium non-capturing",
            "exact capture-time table, exhaustive over starts")
        witness = escape_start_witness(table)
        escape_rep.record(witness is not None,
                          {"witness_s0": list(space.state_at(witness)) if witness is not None else None})
        reports.append(escape_rep)

    return reports


def escape_start_witness(table):
    """An initial state from which the evader escapes all N-1 pursuers, if any.

    The exact table is the certificate: from such a start the evader's optimal
    evasion guarantees zero payoff for everyone, so no equilibrium can capture.
    """
    escapes = table.escape_states()
    return int(escapes[0]) if escapes.size else None


def selfish_cop_number(g: Graph, max_cops: int = 3, verify: bool = False,
                       state_cap: int = DEFAULT_STATE_CAP) -> dict:
    """The classic cop number c (`cr.cop_number`), returned as the selfish one
    without a search over equilibria; the `result` of `scar copnumber
    --selfish`. `verify` checks, at 3 points strided through the default grid,
    that c pursuers' capturing threat profile (one candidate) is an
    equilibrium capturing from every start, and for c >= 2 finds a start
    where the evader escapes c - 1 pursuers.
    """
    cnum = cop_number(g, max_cops=max_cops, state_cap=state_cap)
    k = cnum.value
    if k is None:
        raise ValidationError(f"cop number exceeds max_cops={max_cops}; raise the bound")
    result = {"selfish_cop_number": k, "cop_number": k, "finite_by_cops": cnum.finite_by_cops,
              "verified_points": [], "escape_witness": None, "consistent": True}
    if not verify:
        return result
    space = build_state_space(g, k + 1, state_cap)  # the k-pursuer space
    for gamma, eps in make_grid(k + 1).points()[::8][:3]:
        game = equilibria.Game(space, GameParams(k + 1, gamma, eps))
        ver = equilibria.verify_threat_ne(game, equilibria.build_capturing_threat_ne(game))
        ok = ver.is_ne and ver.captures_everywhere
        result["verified_points"].append({"gamma": gamma, "epsilon": eps, "ok": ok})
        result["consistent"] = result["consistent"] and ok
    if k >= 2:
        small = build_state_space(g, k, state_cap).capture_table  # k - 1 pursuers
        witness = escape_start_witness(small)
        result["escape_witness"] = list(small.space.state_at(witness)) if witness is not None else None
        result["consistent"] = result["consistent"] and witness is not None
    return result


def payoff_equivalence_check(g: Graph, n_players: int, trials: int = 100, seed: int = 0,
                             gamma: float = 0.7, state_cap: int = DEFAULT_STATE_CAP) -> dict:
    """Split-equivalent mode: pursuer payoffs always sum to the single-controller
    payoff gamma^T_C, exactly; and the canonical optimal pursuit verifies as an
    equilibrium. Random profiles and starts are drawn from a seeded generator.
    The `result` of `scar equivalence`."""
    from fractions import Fraction

    space = build_state_space(g, n_players, state_cap)
    params = GameParams(n_players, gamma, split_equivalent=True)
    rng = np.random.default_rng(seed)
    nc_idx = np.flatnonzero(space.is_noncapture)
    if nc_idx.size == 0:
        raise ValidationError("every state is a capture, so no non-capture start exists to draw")
    failures = []
    for trial in range(trials):
        profile = ThreatProfile(space, random_profile(space, rng), {})
        s0 = int(nc_idx[rng.integers(0, nc_idx.size)])
        trace = run(space, profile, s0)
        pays = payoffs_of(params, trace, exact=True)
        cop_sum = sum(pays[:-1])
        t = trace.capture_time
        expected = Fraction(0) if t == math.inf else Fraction(gamma) ** t
        if cop_sum != expected or pays[-1] != -expected:
            failures.append({"trial": trial, "s0": list(space.state_at(s0)),
                             "capture_time": None if t == math.inf else t})
    game = equilibria.Game(space, params)
    ver = equilibria.verify_threat_ne(game, build_profile(game, "cr-optimal")).summary()
    return {"trials": trials, "all_sums_exact": not failures, "failures": failures,
            "cr_optimal_is_ne": ver["is_ne"], "max_gap": ver["max_gap"]}


# ---------------------------------------------------------------------------
# Parameter sweeps.

SWEEP_COLUMNS = ["gamma", "epsilon", "s0", "omega_tilde", "cr_optimal_is_ne",
                 "max_gap", "threat_capture_time"]


def sweep(g: Graph, n_players: int, grid: SweepGrid | None = None, s0_list=None,
          tol: float = DEFAULT_NE_TOL, state_cap: int = DEFAULT_STATE_CAP) -> list:
    """Classify the canonical optimal pursuit and the threat play per grid point.

    Returns rows (dicts) in deterministic grid-then-state order; s0_list=None
    means every non-capture state.
    """
    if grid is None:
        grid = make_grid(n_players)
    space = build_state_space(g, n_players, state_cap)
    if s0_list is None:
        starts = [int(s) for s in np.flatnonzero(space.is_noncapture)]
    else:
        starts = [space._as_index(s) for s in s0_list]
    labels = [",".join(str(x) for x in space.state_at(s0)) for s0 in starts]
    rows = []
    for gamma, eps in grid.points():
        game = equilibria.Game(space, GameParams(n_players, gamma, eps))
        gaps = equilibria.verify_threat_ne(game, build_profile(game, "cr-optimal"), tol=tol,
                                           starts=starts).start_gaps
        threat = equilibria.build_threat_profile(game)
        turns = profile_outcomes(space, threat.cooperative)[0].tolist()
        omega_tilde = game.params.in_omega_tilde
        for s0, label, gap in zip(starts, labels, gaps):
            rows.append({
                "gamma": gamma,
                "epsilon": eps,
                "s0": label,
                "omega_tilde": omega_tilde,
                "cr_optimal_is_ne": gap <= tol,
                "max_gap": gap,
                "threat_capture_time": turns[s0] if turns[s0] >= 0 else "inf",
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
    from .graph import delayed_capture_graph
    from .payoffs import symbolic_payoffs

    g = delayed_capture_graph()
    space = build_state_space(g, 3)
    params = GameParams(3, gamma, epsilon)
    moves = combine_player_moves(space, [
        greedy_cop_moves(space, 1),
        greedy_cop_moves(space, 2),
        space.capture_table.cr_optimal_moves,  # evader rows of the exact optimal evasion
    ])
    profile = ThreatProfile(space, moves, {})
    s0 = (6, 1, 4, 1)
    coop = run(space, profile, s0)
    dev = run_with_forced_deviation(space, profile, deviator=1, deviation_plan={1: 7}, s0=s0)
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
