"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public function of the seven package modules
and rebinds each module attribute that refers to one, including names bound
by ``from ... import`` (``chirality.texture_field``), so calls between
modules pass through a wrapper.  Each wrapper records one span (name, start,
end, parent span, scenario id) in flat arrays kept in memory; a few wrappers
also add work counts computed from their arguments.  ``uninstall`` puts the
original functions back, so untraced passes run the code unchanged.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "gatescript", "register", "dynamics", "chirality", "kspace", "device")

ESTIMATORS = ("chirality.chern_quadrature", "chirality.chern_plaquette")
REGISTER_KERNELS = ("register.apply_single_gate", "register.exchange_pulse",
                    "register.measure", "register.initialize_reset")

# function metrics named in README.md: (function, with self_s)
FUNCTIONS = (
    ("cli.main", False),
    ("chirality.cross_validate", True),
    ("chirality.chern_quadrature", False),
    ("chirality.chern_plaquette", False),
    ("kspace.texture_field", False),
    ("dynamics.evolve_closed", False),
    ("dynamics.evolve_damped", False),
    ("dynamics.drive_evolve", False),
    ("dynamics.drive_propagator", False),
    ("register.apply_single_gate", False),
    ("register.exchange_pulse", False),
    ("register.cnot_composed", True),
    ("register.selective_rf_pulse", False),
    ("register.measure", False),
    ("register.initialize_reset", False),
    ("gatescript.run_script", True),
    ("device.sizing_report", False),
)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _steps(args, kwargs, t_index):
    t, dt = _arg(args, kwargs, t_index, "t"), _arg(args, kwargs, t_index + 1, "dt")
    return max(0, int(round(t / dt)))


def _count_hooks(package) -> dict:
    """Work counts per call, from the call's arguments; exc is what it raised."""
    chirality = package.chirality
    wasted = (chirality.NotConverged, chirality.DegeneratePlaquette)

    def grid(args, kwargs, exc):
        if exc is None or isinstance(exc, wasted):
            return "chirality.grid_points", _arg(args, kwargs, 2, "n_grid") ** 2
        return None

    def points(args, kwargs, exc):
        return "kspace.points", np.broadcast(_arg(args, kwargs, 0, "kx"), _arg(args, kwargs, 1, "ky")).size

    def steps(t_index):
        return lambda args, kwargs, exc: None if exc else ("dynamics.steps", _steps(args, kwargs, t_index))

    def amps(args, kwargs, exc):
        return None if exc else ("register.amps_touched", 2 ** _arg(args, kwargs, 0, "state").n)

    def rf_amps(args, kwargs, exc):
        n = _arg(args, kwargs, 0, "state").n
        return None if exc else ("register.amps_touched", n * 2**n)

    def shots(args, kwargs, exc):
        return None if exc else ("gatescript.shots", _arg(args, kwargs, 2, "shots", 1))

    hooks = {name: grid for name in ESTIMATORS}
    hooks.update({name: amps for name in REGISTER_KERNELS})
    hooks.update({
        "kspace.texture_field": points,
        "dynamics.evolve_closed": lambda args, kwargs, exc: None if exc else ("dynamics.steps", 1),
        "dynamics.evolve_damped": steps(2),
        "dynamics.drive_evolve": steps(2),
        "dynamics.drive_propagator": steps(1),
        "register.selective_rf_pulse": rf_amps,
        "gatescript.run_script": shots,
    })
    return hooks


class Tracer:
    def __init__(self, package):
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.hooks = _count_hooks(package)
        self.names: list[str] = []
        self.patched: list[tuple[object, str, object]] = []
        self.scenario = -1
        self.reset()

    def reset(self) -> None:
        self.name_ids = array("i")
        self.parents = array("l")
        self.scenarios = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.raised = array("b")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def install(self) -> None:
        wrappers = {}
        for layer, module in self.modules.items():
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self.patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, fn in self.patched:
            setattr(module, attr, fn)
        self.patched.clear()

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = self.hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.starts)
            tracer.name_ids.append(name_id)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.scenarios.append(tracer.scenario)
            tracer.raised.append(0)
            tracer.ends.append(0.0)
            tracer.stack.append(index)
            exc = None
            tracer.starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                tracer.raised[index] = 1
                raise
            finally:
                tracer.ends[index] = perf_counter()
                tracer.stack.pop()
                if hook is not None:
                    counted = hook(args, kwargs, exc)
                    if counted is not None:
                        tracer.counts[counted[0]] = tracer.counts.get(counted[0], 0) + counted[1]

        return traced

    # --- derived metrics ----------------------------------------------------

    def metrics(self, speed: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        Times are divided by ``speed``, the pass's speed factor, as the
        end-to-end times are.
        """
        names = np.array(self.names + [""])
        layers = np.array([name.split(".")[0] for name in names])
        ids = np.array(self.name_ids, dtype=np.int64)
        parents = np.array(self.parents, dtype=np.int64)
        dur = (np.array(self.ends) - np.array(self.starts)) / speed
        ok = np.array(self.raised) == 0
        has_parent = parents >= 0
        children = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - children
        parent_ids = np.where(has_parent, ids[np.where(has_parent, parents, 0)], len(names) - 1)
        span_names, span_layer = names[ids], layers[ids]
        parent_names, parent_layer = names[parent_ids], layers[parent_ids]

        def mask(name):
            return span_names == name

        out: dict[str, float] = {}
        for name, with_self in FUNCTIONS:
            m = mask(name)
            out[f"{name}.calls"] = int(m.sum())
            out[f"{name}.busy_s"] = float(dur[m].sum())
            if with_self:
                out[f"{name}.self_s"] = float(self_time[m].sum())
        out["cli.self_s"] = float(self_time[span_layer == "cli"].sum())
        out["gatescript.parse_script.busy_s"] = float(dur[mask("gatescript.parse_script")].sum())

        estimators = np.isin(span_names, ESTIMATORS)
        calls = int(estimators.sum())
        useful = 2 * int((mask("chirality.cross_validate") & ok).sum()) + int(
            (estimators & ok & (parent_names != "chirality.cross_validate")).sum())
        out["chirality.grid_points"] = int(self.counts.get("chirality.grid_points", 0))
        out["chirality.estimator_failures"] = int((estimators & ~ok).sum())
        out["chirality.useful_ratio"] = useful / calls if calls else 0.0
        out["kspace.points"] = int(self.counts.get("kspace.points", 0))

        def layer_busy(layer):
            top = (span_layer == layer) & (parent_layer != layer)
            return float(dur[top].sum())

        steps = int(self.counts.get("dynamics.steps", 0))
        out["dynamics.steps"] = steps
        busy = layer_busy("dynamics")
        out["dynamics.steps_per_s"] = steps / busy if busy > 0 else 0.0
        amps = int(self.counts.get("register.amps_touched", 0))
        out["register.amps_touched"] = amps
        out["register.ns_per_amp"] = 1e9 * layer_busy("register") / amps if amps else 0.0
        shots = int(self.counts.get("gatescript.shots", 0))
        out["gatescript.shots"] = shots
        from_script = (span_layer == "register") & (parent_names == "gatescript.run_script")
        out["gatescript.register_calls_per_shot"] = int(from_script.sum()) / shots if shots else 0.0
        return out

    def write(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for k in range(len(self.starts)):
                handle.write(json.dumps({
                    "span": k, "name": self.names[self.name_ids[k]], "parent": self.parents[k],
                    "scenario": self.scenarios[k], "start": self.starts[k], "end": self.ends[k],
                    "raised": bool(self.raised[k]),
                }) + "\n")

