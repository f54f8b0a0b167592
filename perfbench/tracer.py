"""In-memory span recorder and the timing wrappers it installs on saddle_escape.

Every wrapped call records one span: name, start, end (``perf_counter_ns``),
parent span and the id of the pass it belongs to.  Spans live in flat
``array`` columns, so a pass with a million leaf calls (one ``grad`` and one
``value`` per optimizer step) costs tens of megabytes, not hundreds.  Wrappers
may also add readings (step counts, certificate provenance) to per-pass
counters at the boundary where the work happens.

``install`` patches every namespace that binds a wrapped object: module
globals in each ``saddle_escape`` module (functions imported by name are bound
in several), plus class attributes (``Objective.grad``, ``Objective.hess`` and
``value``/``values`` on each schedule class that defines them).  ``restore``
puts the originals back.  The recorder is single-threaded; the benchmark runs
with ``SADDLE_ESCAPE_THREADS`` unset, so no library thread pool starts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

ROOT_SPAN = "bench.pass"


class Tracer:
    """Span columns plus per-pass counters; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict = defaultdict(float)
        self.current_pass = -1
        self._stack = [-1]

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, value: float) -> None:
        self.counters[(self.current_pass, key)] += value

    def wrap(self, name: str, fn, on_result=None):
        """Timing wrapper for ``fn``; ``on_result(tracer, args, kwargs, result)``
        runs after the span closes, so its cost lands in the caller's self time."""
        nid = self._nid(name)
        name_ids, parents, passes = self.name_id, self.parent, self.pass_id
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            passes.append(self.current_pass)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def trace_pass(self, pass_id: int, fn, *args):
        """Call ``fn`` as the root span of pass ``pass_id``."""
        self.current_pass = pass_id
        return self.wrap(ROOT_SPAN, fn)(*args)

    # -- analysis ---------------------------------------------------------

    def columns(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
                "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
                "end_ns": np.frombuffer(self.end, dtype=np.int64).copy()}

    def pass_summary(self, pass_id: int) -> dict:
        """Per span name: calls, inclusive seconds and self seconds for one pass.

        Self time is a span's duration minus the durations of its direct
        children; summed over every span of the pass it telescopes to the
        root span's duration.
        """
        col = self.columns()
        dur = (col["end_ns"] - col["start_ns"]).astype(np.float64)
        has_parent = col["parent"] >= 0
        child = np.bincount(col["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_ns = dur - child
        mine = col["pass_id"] == pass_id
        ids = col["name_id"][mine]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        incl = np.bincount(ids, weights=dur[mine], minlength=n) / 1e9
        selfs = np.bincount(ids, weights=self_ns[mine], minlength=n) / 1e9
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "incl_s": float(incl[i]),
                         "self_s": float(selfs[i])}
        return out

    def direct_children(self, pass_id: int, child_name: str, parent_name: str) -> int:
        """Spans named ``child_name`` whose parent span is ``parent_name``."""
        col = self.columns()
        cid, pid = self._ids.get(child_name), self._ids.get(parent_name)
        if cid is None or pid is None:
            return 0
        sel = (col["pass_id"] == pass_id) & (col["name_id"] == cid) & (col["parent"] >= 0)
        return int(np.count_nonzero(col["name_id"][col["parent"][sel]] == pid))

    def pass_counters(self, pass_id: int) -> dict:
        return {k: v for (p, k), v in self.counters.items() if p == pass_id}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


# ---------------------------------------------------------------------------
# readings recorded at layer boundaries
# ---------------------------------------------------------------------------

def _on_run(tracer, args, kwargs, rec):
    tracer.add("methods.run.steps", rec.k_final)
    if rec.terminal.kind == "step_error":
        tracer.add("methods.run.step_errors", 1)


def _on_avoidance(tracer, args, kwargs, report):
    tracer.add("harness_cli.avoidance_experiment.trials", report.trials)
    tracer.add("harness_cli.avoidance_experiment.trial_steps",
               sum(row["k_final"] for row in report.rows))


def _on_remainder(tracer, args, kwargs, result):
    prob, _cert = result
    delta0 = kwargs.get("delta0", _default(_library().remainder_from_objective, "delta0"))
    tail = prob.tail_estimate if prob.tail_estimate is not None else 0.0
    tracer.add("lyapunov_perron.remainder_from_objective.certificates", 1)
    tracer.add("lyapunov_perron.remainder_from_objective.horizon", prob.horizon)
    # the horizon search only stops short of tail_tol when it reaches its cap
    tracer.add("lyapunov_perron.remainder_from_objective.horizon_capped",
               int(tail > prob.tail_tol))
    tracer.add("lyapunov_perron.remainder_from_objective.tail_over_tol",
               tail / prob.tail_tol)
    tracer.add("lyapunov_perron.remainder_from_objective.delta_halvings",
               round(np.log2(delta0 / prob.delta)))


def _library():
    return sys.modules["saddle_escape.lyapunov_perron"]


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def _on_chart(tracer, args, kwargs, ch):
    tracer.add("lyapunov_perron.chart.failures", len(ch.failures))


# (module, function, reading hook); each span is named <module>.<function>.
# Class attributes are patched on their classes in install().
FUNCTION_SPANS = (
    ("objectives", "classify_critical_point", None),
    ("spectral", "split", None),
    ("spectral", "quadratic_trajectory", None),
    ("spectral", "transition_product", None),
    ("methods", "run", _on_run),
    ("harness_cli", "main", None),
    ("harness_cli", "avoidance_experiment", _on_avoidance),
    ("harness_cli", "emit_plot_data", None),
    ("harness_cli", "chart_experiment", None),
    ("lyapunov_perron", "bound_K1", None),
    ("lyapunov_perron", "bound_K2", None),
    ("lyapunov_perron", "remainder_from_objective", _on_remainder),
    ("lyapunov_perron", "chart", _on_chart),
    ("lyapunov_perron", "solve_stable_point", None),
    ("lyapunov_perron", "apply_T", None),
    ("lyapunov_perron", "shooting_oracle", None),
    ("lyapunov_perron", "iterate_raw", None),
)


class Installation:
    """Wrappers installed on the library; ``restore`` undoes every patch."""

    def __init__(self):
        self._undo: list = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "saddle_escape" or name.startswith("saddle_escape."))]


def install(tracer: Tracer) -> Installation:
    """Wrap every layer boundary listed above in all namespaces that bind it."""
    from saddle_escape import objectives, schedules

    inst = Installation()
    modules = _library_modules()
    for mod_name, attr, hook in FUNCTION_SPANS:
        original = getattr(sys.modules[f"saddle_escape.{mod_name}"], attr)
        wrapped = tracer.wrap(f"{mod_name}.{attr}", original, hook)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    inst._set(mod, key, wrapped)
    for attr in ("grad", "hess"):
        inst._set(objectives.Objective, attr,
                  tracer.wrap(f"objectives.{attr}", objectives.Objective.__dict__[attr]))
    schedule_classes = [c for c in vars(schedules).values()
                        if isinstance(c, type) and issubclass(c, schedules.StepSchedule)]
    for cls in schedule_classes:
        for attr in ("value", "values"):
            if attr in cls.__dict__:
                inst._set(cls, attr, tracer.wrap(f"schedules.{attr}", cls.__dict__[attr]))
    return inst
