"""Per-layer spans and counts, recorded from outside the program.

`install()` wraps every public function of each `scar` module, plus the two
`StateSpace` methods the per-layer table names, and rebinds each wrapper
wherever the original is bound: module attributes (including the copies made
by `from ... import`), values of module-level dicts, and default arguments
fixed at definition time such as `cop_number(solver=exact_capture_times)`.
The wrappers only time and count; arguments and results pass through as is.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import time
import weakref
from collections import defaultdict

MODULES = ("graph", "states", "payoffs", "cr", "bellman", "profiles", "simulate",
           "equilibria", "analysis", "cli")
METHODS = {("states", "StateSpace", "_build_tables"): "succ_tables",
           ("states", "StateSpace", "slot_mask"): "slot_mask"}

# Reported under --trace 1, in this order; BENCHMARK.json lists the same names.
PER_LAYER = [
    ("graph.parse_graph_s", "s"), ("graph.self_s", "s"),
    ("states.build_state_space_s", "s"), ("states.build_state_space_calls", "count"),
    ("states.states_built", "count"), ("states.succ_tables_s", "s"), ("states.table_mb", "MB"),
    ("states.slot_mask_calls", "count"), ("states.self_s", "s"),
    ("cr.exact_capture_times_s", "s"), ("cr.exact_capture_times_calls", "count"),
    ("cr.exact_capture_times_states_per_s", "1/s"), ("cr.exact_capture_times_rss_rise_mb", "MB"),
    ("cr.cop_number_s", "s"), ("cr.extract_cr_optimal_moves_s", "s"), ("cr.self_s", "s"),
    ("payoffs.turn_payoff_matrix_s", "s"), ("payoffs.turn_payoff_matrix_calls", "count"),
    ("payoffs.turn_payoff_matrix_distinct_ratio", "ratio"), ("payoffs.self_s", "s"),
    ("bellman.solve_zero_sum_s", "s"), ("bellman.solve_zero_sum_calls", "count"),
    ("bellman.solve_zero_sum_sweeps", "count"), ("bellman.solve_mdp_s", "s"),
    ("bellman.solve_mdp_calls", "count"), ("bellman.solve_mdp_sweeps", "count"),
    ("bellman.greedy_moves_s", "s"), ("bellman.self_s", "s"),
    ("simulate.profile_outcomes_s", "s"), ("simulate.profile_outcomes_calls", "count"),
    ("simulate.exact_profile_values_s", "s"), ("simulate.run_s", "s"),
    ("simulate.run_calls", "count"), ("simulate.self_s", "s"),
    ("profiles.merge_cop_moves_s", "s"), ("profiles.self_s", "s"),
    ("equilibria.solve_aux_game_s", "s"), ("equilibria.solve_aux_game_calls", "count"),
    ("equilibria.solve_aux_game_distinct_ratio", "ratio"),
    ("equilibria.build_threat_profile_s", "s"), ("equilibria.build_capturing_threat_ne_s", "s"),
    ("equilibria.verify_threat_ne_s", "s"), ("equilibria.verify_threat_ne_calls", "count"),
    ("equilibria.build_noncapturing_ne_s", "s"), ("equilibria.verify_noncapturing_ne_s", "s"),
    ("equilibria.verify_noncapturing_ne_calls", "count"),
    ("equilibria.verify_positional_ne_s", "s"), ("equilibria.check_cr_optimal_ne_s", "s"),
    ("equilibria.self_s", "s"),
    ("analysis.theorem_suite_s", "s"), ("analysis.self_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio"),
    ("trace.count_mismatches", "count"), ("trace.spans", "count"),
]


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)  # per module
        self.counters = defaultdict(int)
        self.keys = defaultdict(set)  # distinct work keys per function
        self.spans = []  # (name, start, end, parent span index or -1)
        self._open = []  # [span index, child seconds] of the spans in progress
        self._depth = defaultdict(int)
        self._space_ids = weakref.WeakKeyDictionary()

    def space_id(self, space):
        return self._space_ids.setdefault(space, len(self._space_ids))

    def wrap(self, module, name, fn, observe=None):
        qual = f"{module}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            span = len(self.spans)
            self.spans.append(None)
            self._open.append([span, 0.0])
            self._depth[qual] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = self._open.pop()
                self._depth[qual] -= 1
                self.spans[span] = (qual, start, end, parent)
                self.calls[qual] += 1
                if not self._depth[qual]:  # inclusive time of the outermost call only
                    self.inclusive[qual] += end - start
                self.self_time[module] += end - start - child
                if self._open:
                    self._open[-1][1] += end - start
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def metrics(self):
        m = {}
        for qual, n in self.calls.items():
            m[f"{qual}_calls"] = n
            m[f"{qual}_s"] = self.inclusive[qual]
        for module, t in self.self_time.items():
            m[f"{module}.self_s"] = t
        for qual, keys in self.keys.items():
            m[f"{qual}_distinct_ratio"] = len(keys) / self.calls[qual]
        m.update(self.counters)
        ect_s = m.get("cr.exact_capture_times_s", 0.0)
        if ect_s:
            m["cr.exact_capture_times_states_per_s"] = self.counters["cr.exact_capture_times_states"] / ect_s
        m["trace.spans"] = len(self.spans)
        return m


# Observers add what a layer's own counts cannot say.

def _bind(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _payoff_key(fn):
    bind = _bind(fn)

    def observe(tr, args, kwargs, result):
        a = bind(args, kwargs)
        tr.keys["payoffs.turn_payoff_matrix"].add((tr.space_id(a["space"]), a["params"]))
    return observe


def _aux_key(fn):
    bind = _bind(fn)

    def observe(tr, args, kwargs, result):
        a = bind(args, kwargs)
        tr.keys["equilibria.solve_aux_game"].add(
            (tr.space_id(a["space"]), a["params"], a["player"]))
    return observe


def _sweeps(qual):
    def observe(tr, args, kwargs, result):
        tr.counters[f"{qual}_sweeps"] += result[1]
    return observe


def _states_built(tr, args, kwargs, result):
    tr.counters["states.states_built"] += result.n_states


def _table_mb(tr, args, kwargs, result):
    space = args[0]
    mb = sum(a.nbytes for a in vars(space).values() if hasattr(a, "nbytes")) / 2**20
    tr.counters["states.table_mb"] = max(tr.counters["states.table_mb"], mb)


def _capture_times_observer(fn):
    bind = _bind(fn)

    def observe(tr, args, kwargs, result):
        tr.counters["cr.exact_capture_times_states"] += bind(args, kwargs)["space"].n_states
    return observe


def install(tracer):
    """Wrap the functions and rebind every wrapper where its original is bound."""
    mods = {name: importlib.import_module(f"scar.{name}") for name in MODULES}
    pkg = importlib.import_module("scar")
    wrappers = {}  # id(original) -> wrapper
    for name, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")):
                observe = None
                if (name, attr) == ("payoffs", "turn_payoff_matrix"):
                    observe = _payoff_key(fn)
                elif (name, attr) == ("equilibria", "solve_aux_game"):
                    observe = _aux_key(fn)
                elif name == "bellman" and attr in ("solve_zero_sum", "solve_mdp"):
                    observe = _sweeps(f"bellman.{attr}")
                elif (name, attr) == ("states", "build_state_space"):
                    observe = _states_built
                elif (name, attr) == ("cr", "exact_capture_times"):
                    observe = _capture_times_observer(fn)
                wrappers[id(fn)] = (fn, tracer.wrap(name, attr, fn, observe))
    # Every function of the package, methods included, whose defaults may hold an original.
    functions = [f for mod in mods.values() for obj in vars(mod).values()
                 for f in ([obj] if inspect.isfunction(obj) else
                           vars(obj).values() if inspect.isclass(obj) else [])
                 if inspect.isfunction(f) and f.__module__ == mod.__name__]
    for (name, cls, meth), label in METHODS.items():
        klass = getattr(mods[name], cls)
        fn = vars(klass)[meth]
        observe = _table_mb if meth == "_build_tables" else None
        setattr(klass, meth, tracer.wrap(name, label, fn, observe))

    # The rss rise needs readings on both sides of the call, so it wraps the wrapper.
    ect, ect_wrapped = wrappers[id(mods["cr"].exact_capture_times)]

    @functools.wraps(ect)
    def with_rss(*args, **kwargs):
        before = _maxrss_mb()
        try:
            return ect_wrapped(*args, **kwargs)
        finally:
            tracer.counters["cr.exact_capture_times_rss_rise_mb"] += _maxrss_mb() - before
    wrappers[id(ect)] = (ect, with_rss)

    def swap(value):
        hit = wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    for mod in list(mods.values()) + [pkg]:
        for attr, value in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            new = swap(value)
            if new is not value:
                setattr(mod, attr, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    value[key] = swap(item)
    for fn in functions:
        if fn.__defaults__:
            fn.__defaults__ = tuple(swap(d) for d in fn.__defaults__)
        for key, d in (fn.__kwdefaults__ or {}).items():
            fn.__kwdefaults__[key] = swap(d)
