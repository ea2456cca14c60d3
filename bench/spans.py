"""Span tracing of the calls into twoatom's modules, from outside them.

``Tracer.install`` replaces every public function of the traced modules
with a timing wrapper, wherever a module holds a reference to it (so
names imported directly, such as ``observables.evolve``, are wrapped
too), plus ``ResultTable.to_csv`` and the ``NoJumpPropagator`` methods
``survival`` and ``sample_jump`` on their classes.  Each call records a
span (name, start, end, parent span, op id) in memory; ``save`` writes
them out once the run is over.  A layer's self time is the duration of
its spans minus the time covered by their child spans.
"""
import contextlib
import functools
import importlib
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

TRACED_MODULES = ("geometry", "basis", "dynamics", "observables",
                  "validation", "jumps", "runner", "figures", "analytic",
                  "config")
METHODS = (("runner", "ResultTable", "to_csv"),
           ("jumps", "NoJumpPropagator", "survival"),
           ("jumps", "NoJumpPropagator", "sample_jump"))


def layer_of(name: str) -> str:
    """Layer of a span name such as ``dynamics.build_squeezed``."""
    module, func = name.split(".", 1)
    if module == "dynamics":
        if func.startswith("build_"):
            return "dynamics.assemble"
        return {"steady_state": "dynamics.steady",
                "evolve": "dynamics.evolve"}.get(func, "dynamics")
    if module == "observables":
        return "observables.g2_tau" if func == "g2_tau" else "observables.state"
    if name == "config.parse_config":
        return "config.parse"
    if name == "runner.ResultTable.to_csv":
        return "runner.to_csv"
    return module


def _count_steady(counters, result):
    counters["dynamics.steady.degenerate"] += int(bool(result[1]))


def _count_evolve(counters, result):
    counters["dynamics.evolve.points"] += int(result.times.size)


def _count_trajectories(counters, result):
    counters["jumps.trajectories"] += int(result.n_trajectories)
    counters["jumps.jumps"] += sum(int(r.jump_times.size)
                                   for r in result.records)


_RESULT_COUNTERS = {"dynamics.steady_state": _count_steady,
                    "dynamics.evolve": _count_evolve,
                    "jumps.run_trajectories": _count_trajectories}


class Tracer:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counters = Counter()
        self.op_id = -1
        self.active = False
        self._stack = [-1]
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1], self.op_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counters, result)
            return result
        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Client-side span around one op; the layers' spans nest in it.
        Calls outside an op (the correctness checks) are not recorded."""
        self.op_id = op_id
        span = ["op", time.perf_counter(), 0.0, self._stack[-1], op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            span[2] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        wrapped = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"twoatom.{short}")
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name == "twoatom" or name.startswith("twoatom."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrapped:  # wrapped keeps obj alive
                        self._set(module, attr, wrapped[id(obj)][1])
        for short, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"twoatom.{short}"], cls_name)
            fn = vars(cls)[method]
            self._set(cls, method,
                      self._wrap(f"{short}.{cls_name}.{method}", fn))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def save(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [[]] * 5
        np.savez_compressed(
            path, names=np.array(names),
            name=np.array([index[n] for n in cols[0]], dtype=np.int32),
            start=np.array(cols[1]), end=np.array(cols[2]),
            parent=np.array(cols[3], dtype=np.int64),
            op=np.array(cols[4], dtype=np.int32))

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times of everything recorded."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = defaultdict(float), Counter()
        name_calls, inclusive = Counter(), defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            layer = layer_of(name) if "." in name else name
            self_s[layer] += end - start - child[k]
            calls[layer] += 1
            name_calls[name] += 1
            inclusive[name] += end - start
        c = self.counters

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        states = calls["dynamics.steady"] + c["dynamics.evolve.points"]
        m = {}
        for layer in ("dynamics.assemble", "dynamics.steady",
                      "dynamics.evolve", "observables.state",
                      "observables.g2_tau", "validation"):
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.self_s"] = self_s[layer]
        m["dynamics.assemble.us_per_call"] = ratio(
            self_s["dynamics.assemble"], calls["dynamics.assemble"], 1e6)
        m["dynamics.steady.degenerate"] = c["dynamics.steady.degenerate"]
        m["dynamics.evolve.points"] = c["dynamics.evolve.points"]
        m["dynamics.evolve.us_per_point"] = ratio(
            self_s["dynamics.evolve"], c["dynamics.evolve.points"], 1e6)
        m["validation.per_state"] = ratio(calls["validation"], states)
        m["runner.self_s"] = self_s["runner"]
        m["runner.to_csv_s"] = self_s["runner.to_csv"]
        for layer in ("figures", "analytic", "config.parse", "basis",
                      "geometry", "jumps"):
            m[f"{layer}.self_s"] = self_s[layer]
        sample = name_calls["jumps.NoJumpPropagator.sample_jump"]
        survival = name_calls["jumps.NoJumpPropagator.survival"]
        m["jumps.trajectories"] = c["jumps.trajectories"]
        m["jumps.jumps"] = c["jumps.jumps"]
        m["jumps.sample.calls"] = sample
        m["jumps.survival.calls"] = survival
        m["jumps.survival_per_sample"] = ratio(survival, sample)
        m["jumps.ms_per_traj"] = ratio(inclusive["jumps.run_trajectories"],
                                       c["jumps.trajectories"], 1e3)
        return m
