"""Span tracer that wraps gtap's public functions from outside the package.

While installed, every public function and public method of the traced
modules is replaced by a wrapper that records one span per call: name,
start, end, parent span and task id. A name is replaced in every module
that bound it (``from .pde import solve_steps`` binds ``gtap.tap.solve_steps``
too), and methods are replaced on their class, so calls through any alias
are seen. Private helpers (leading underscore) are not wrapped; their time
is the self time of the public caller.

Spans are kept in flat in-memory arrays and reduced when the run ends:
a span's self time is its duration minus the durations of its direct
children. Counters that a span alone cannot give (grid points, layers,
leaves, optimizer evaluations) are added by per-name hooks.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "gtap"
# Wrapped besides the public names: the constructor of PDESolution runs the
# layered solve, and calling an EffectiveField evaluates the field.
EXTRA_METHODS = {"PDESolution": ("__init__",), "EffectiveField": ("__call__",)}
RENAME = {"PDESolution.__init__": "PDESolution", "EffectiveField.__call__": "field"}


def _size(args, kwargs, pos, name):
    x = args[pos] if len(args) > pos else kwargs[name]
    return int(np.size(x))


def _hook_solve(tr, args, kwargs, result, idx):
    tr.add("pde.layers", int(args[0].levels.size))


def _hook_hermite(tr, args, kwargs, result, idx):
    tr.add("numerics.hermite_eval.points", _size(args, kwargs, 4, "xq"))


def _hook_linear(tr, args, kwargs, result, idx):
    tr.add("numerics.linear_eval.points", _size(args, kwargs, 3, "xq"))


def _hook_all_energies(tr, args, kwargs, result, idx):
    tr.add("disorder.all_energies.configs", int(result.size))


def _hook_cascade(tr, args, kwargs, result, idx):
    tr.add("cascades.sample_cascade.leaves", int(result.n_leaves))


def _hook_tap_correction(tr, args, kwargs, result, idx):
    tr.add("tap.level_evals", int(result.diagnostics.get("level_evals", 0)))


def _hook_simulate(tr, args, kwargs, result, idx):
    # Euler steps are counted at the end, as phi_x_table children of the span.
    tr.sde_spans.append((idx, int(result["n_paths"])))


HOOKS = {
    "pde.PDESolution": _hook_solve,
    "numerics.hermite_eval": _hook_hermite,
    "numerics.linear_eval": _hook_linear,
    "disorder.all_energies": _hook_all_energies,
    "cascades.sample_cascade": _hook_cascade,
    "tap.tap_correction": _hook_tap_correction,
    "pde.simulate_control": _hook_simulate,
}


def _tap_nn_name(args, kwargs):
    band = args[1] if len(args) > 1 else kwargs["band"]
    return "disorder.tap_Nn.n2" if band.n == 2 else "disorder.tap_Nn"


NAME_FNS = {"disorder.tap_Nn": _tap_nn_name}


class Tracer:
    """Records spans and counters while installed; reduce() summarizes."""

    def __init__(self, modules):
        self.modules = tuple(modules)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._task = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.task_id = -1
        self.counts = defaultdict(lambda: defaultdict(int))
        self.sde_spans: list[tuple[int, int]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def add(self, counter: str, value: int) -> None:
        self.counts[self.task_id][counter] += value

    def _wrapper(self, name: str, fn):
        tr = self
        hook = HOOKS.get(name)
        name_fn = NAME_FNS.get(name)
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = tr._id(name_fn(args, kwargs)) if name_fn else name_id
            idx = len(tr._name)
            tr._name.append(nid)
            tr._parent.append(tr._stack[-1])
            tr._task.append(tr.task_id)
            tr._end.append(0.0)
            tr._stack.append(idx)
            tr._start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._end[idx] = perf_counter()
                tr._stack.pop()
            if hook is not None:
                hook(tr, args, kwargs, result, idx)
            return result

        return traced

    # -- installing ------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, original) for every traced callable."""
        for modname in self.modules:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    yield from self._class_targets(modname, obj)
                elif callable(obj):
                    yield mod, attr, f"{modname}.{attr}", obj

    def _class_targets(self, modname, cls):
        extra = EXTRA_METHODS.get(cls.__name__, ())
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            if isinstance(obj, (staticmethod, classmethod, types.FunctionType)):
                label = RENAME.get(f"{cls.__name__}.{attr}", attr)
                yield cls, attr, f"{modname}.{label}", obj

    def install(self) -> None:
        """Replace every traced callable, in every package module binding it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for owner, attr, name, obj in list(self._targets()):
            if isinstance(obj, (staticmethod, classmethod)):
                new = type(obj)(self._wrapper(name, obj.__func__))
            else:
                new = self._wrapper(name, obj)
            self._saved.append((owner, attr, obj))
            setattr(owner, attr, new)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for alias, val in list(vars(mod).items()):
                    if val is obj and mod is not owner:
                        self._saved.append((mod, alias, obj))
                        setattr(mod, alias, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- reduction -------------------------------------------------------------

    def reduce(self) -> dict:
        """Per-task totals: {task_id: {"calls": {name: n}, "incl": {...},
        "self": {...}, "counts": {...}}}."""
        sp = self.arrays()
        name, parent, task = sp["name"], sp["parent"], sp["task"]
        n = name.size
        dur = sp["end"] - sp["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        # Euler steps of each simulate_control span = its phi_x_table children
        table_id = self._name_ids.get("pde.phi_x_table", -1)
        steps = np.bincount(parent[(name == table_id) & has_parent], minlength=n)
        counts = {tid: dict(c) for tid, c in self.counts.items()}
        for idx, n_paths in self.sde_spans:
            c = counts.setdefault(int(task[idx]), {})
            c["pde.path_steps"] = c.get("pde.path_steps", 0) + n_paths * int(steps[idx])
        out = {}
        for tid in sorted(set(task.tolist()) | set(counts)):
            sel = task == tid
            k = len(self.names)
            calls = np.bincount(name[sel], minlength=k)
            incl = np.bincount(name[sel], weights=dur[sel], minlength=k)
            selfs = np.bincount(name[sel], weights=self_t[sel], minlength=k)
            out[tid] = {
                "calls": {nm: int(calls[i]) for i, nm in enumerate(self.names) if calls[i]},
                "incl": {nm: float(incl[i]) for i, nm in enumerate(self.names) if calls[i]},
                "self": {nm: float(selfs[i]) for i, nm in enumerate(self.names) if calls[i]},
                "counts": counts.get(tid, {}),
            }
        return out

    def arrays(self) -> dict:
        """Raw spans as numpy arrays, for writing when the run ends."""
        return {
            "name": np.array(self._name, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int32),
            "task": np.array(self._task, dtype=np.int32),
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
        }
