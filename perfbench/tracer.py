"""Spans around the public functions of each schedsec layer.

The tracer wraps every public module-level function of the layers listed
in LAYERS and rebinds the wrapper under every name that binds the original
in any loaded ``schedsec`` module, because ``from .x import y`` copies the
binding (``schedsec.simulation.lyapunov_step`` and
``schedsec.lti_estimation.lyapunov_step`` are two names for one function).
Nothing inside the package changes: spans are taken at the calls into
each layer, from outside.

A span records its name, start, end, parent span and job id.  Spans stay
in memory in flat arrays until the run ends; self time is computed from
them afterwards.  Some wrappers also read a work counter from the value
the function returns (search nodes, simplex pivots, fixed-point
iterations, overflow events).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "lti_estimation", "scheduling", "simplex", "attack",
          "protocol_sequences", "simulation")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_bnb(c, result, args, kwargs):
    c["attack.searches"] += 1
    c["attack.nodes"] += result.nodes_explored
    c["attack.blocking"] += bool(result.blocking)


def _count_lp(c, result, args, kwargs):
    c["simplex.solves"] += 1
    c["simplex.pivots"] += result.iterations
    c["simplex.infeasible"] += result.status == "infeasible"


def _count_invariance(c, result, args, kwargs):
    c["protocol_sequences.checks"] += 1
    c["protocol_sequences.exhaustive"] += bool(result.exhaustive)


def _count_search(c, result, args, kwargs):
    # computed from the inputs: the search enumerates N^T assignments per
    # distinct candidate period
    n = len(_arg(args, kwargs, 0, "systems"))
    periods = {int(t) for t in _arg(args, kwargs, 1, "T_candidates")}
    c["scheduling.assignments_enumerated"] += sum(n ** t for t in periods)


def _count_steady(c, result, args, kwargs):
    c["lti_estimation.steady_state_iterations"] += result.iterations


def _count_series(c, result, args, kwargs):
    c["simulation.series_slots"] += result.n_sensors * result.horizon
    c["simulation.overflow_events"] += sum(
        k is not None for k in result.overflow_at)


def _count_mc(c, result, args, kwargs):
    c["simulation.mc_trials"] += len(result.samples)


RESULT_HOOKS = {
    "attack.bnb_optimal_attack": _count_bnb,
    "simplex.solve_bounded_lp": _count_lp,
    "protocol_sequences.is_shift_invariant": _count_invariance,
    "scheduling.optimal_schedule_search": _count_search,
    "lti_estimation.steady_state": _count_steady,
    "simulation.exact_covariance_series": _count_series,
    "simulation.monte_carlo_expected_cost": _count_mc,
}


def public_functions():
    """{"layer.function": function} for every public function defined in
    a traced layer module."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"schedsec.{layer}")
        for name, value in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == mod.__name__):
                out[f"{layer}.{name}"] = value
    return out


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.job_id = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, qualname):
        nid = len(self.names)
        self.names.append(qualname)
        hook = RESULT_HOOKS.get(qualname)
        name_id, parent, job = self.name_id, self.parent, self.job
        start, end, stack = self.start, self.end, self._stack
        counters = self.counters
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            job.append(tracer.job_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(counters, result, args, kwargs)
            return result

        return traced

    def __enter__(self):
        wrappers = {}
        for qualname, fn in public_functions().items():
            wrappers[id(fn)] = (fn, self._wrap(fn, qualname))
        for mname, mod in list(sys.modules.items()):
            if mname != "schedsec" and not mname.startswith("schedsec."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, value))
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def calls(self, qualname: str, caller: str | None = None) -> int:
        """Number of spans recorded for one function; with `caller`, only
        those whose parent span is that function."""
        if qualname not in self.names:
            return 0
        nid = self.names.index(qualname)
        if caller is None:
            return sum(1 for v in self.name_id if v == nid)
        if caller not in self.names:
            return 0
        cid = self.names.index(caller)
        return sum(1 for v, p in zip(self.name_id, self.parent)
                   if v == nid and p >= 0 and self.name_id[p] == cid)

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self time and total time, from the spans.

        A span's self time is its duration minus the durations of its
        direct children.  A layer's total time sums the spans that have no
        ancestor in the same layer, so nested calls inside one layer are
        not counted twice.
        """
        layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        name_layer = [layer_index[q.split(".", 1)[0]] for q in self.names]
        n = self.n_spans
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        ancestors = [0] * n   # bitmask of the layers open above each span
        out = {layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for layer in LAYERS}
        span_layer = [name_layer[v] for v in self.name_id]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                ancestors[i] = ancestors[p] | (1 << span_layer[p])
        for i in range(n):
            li = span_layer[i]
            rec = out[LAYERS[li]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if not ancestors[i] >> li & 1:
                rec["total_s"] += dur[i]
        return out

    def write(self, path: Path):
        """Write every span as one JSON line per span, names resolved."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start", "end", "parent", "job"]}\n')
            for i in range(self.n_spans):
                fh.write(f'["{self.names[self.name_id[i]]}", {self.start[i]!r}, '
                         f'{self.end[i]!r}, {self.parent[i]}, {self.job[i]}]\n')
