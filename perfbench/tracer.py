"""Outside-in tracing: wrap rydgate's public functions where they are bound.

The package has no instrumentation of its own. A traced run replaces each
target function, in every rydgate module that binds it, with a wrapper
that records a span in memory: id, parent id, unit-call id, name, start,
end and a work count. ``Tracer.installed()`` restores every original
binding on exit, also when the traced code raises.

Span names are ``<layer>.<function>``, where the layer is the module
that defines the function, except ``propagate.expm``: scipy's ``expm`` as
``propagate`` binds it.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module that defines the object, attribute, span name)
TARGETS = (
    ("rydgate.cli", "main", "cli.main"),
    ("rydgate.experiments", "ScanResult.to_csv", "experiments.to_csv"),
    ("rydgate.experiments", "run_gate", "experiments.run_gate"),
    ("rydgate.experiments", "scan_kappa", "experiments.scan_kappa"),
    ("rydgate.experiments", "run_dynamics", "experiments.run_dynamics"),
    ("rydgate.experiments", "run_interferometer", "experiments.run_interferometer"),
    ("rydgate.experiments", "run_noise_map", "experiments.run_noise_map"),
    ("rydgate.experiments", "run_actuating_scan", "experiments.run_actuating_scan"),
    ("rydgate.experiments", "run_thermal_map", "experiments.run_thermal_map"),
    ("rydgate.experiments", "run_decay_curves", "experiments.run_decay_curves"),
    ("rydgate.stochastic", "monte_carlo_gate_fidelity", "stochastic.monte_carlo_gate_fidelity"),
    ("rydgate.stochastic", "thermal_gate_fidelity", "stochastic.thermal_gate_fidelity"),
    ("rydgate.stochastic", "sample_noise_trace", "stochastic.sample_noise_trace"),
    ("rydgate.geometry", "composite_cyclic_root", "geometry.composite_cyclic_root"),
    ("rydgate.geometry", "composite_return_probability", "geometry.composite_return_probability"),
    ("rydgate.propagate", "evolution_operator", "propagate.evolution_operator"),
    ("rydgate.propagate", "propagate_state", "propagate.propagate_state"),
    ("rydgate.propagate", "propagate_density", "propagate.propagate_density"),
    ("rydgate.propagate", "convergence_check", "propagate.convergence_check"),
    ("rydgate.propagate", "expm", "propagate.expm"),
    ("rydgate.metrics", "gate_outcome", "metrics.gate_outcome"),
    ("rydgate.metrics", "gate_fidelity", "metrics.gate_fidelity"),
    ("rydgate.metrics", "conditional_state_fidelity", "metrics.conditional_state_fidelity"),
    ("rydgate.hamiltonian", "build_full", "hamiltonian.build_full"),
    ("rydgate.hamiltonian", "thermal_interaction", "hamiltonian.thermal_interaction"),
    ("rydgate.hamiltonian", "apply_decay", "hamiltonian.apply_decay"),
    ("rydgate.model", "standard_schedule", "model.standard_schedule"),
    ("rydgate.model", "time_optimal_schedule", "model.time_optimal_schedule"),
    ("rydgate.model", "PulseSegment", "model.PulseSegment"),
)

def _exponentials(schedule, config) -> int:
    """Step exponentials one propagation call computes: one per segment
    on the exact path, segments x substeps on the substepped path."""
    from rydgate import propagate

    config = propagate.resolve_config(schedule, config)
    segments = len(schedule.segments)
    if config.mode == propagate.EXACT:
        return segments
    return segments * propagate._segment_substeps(schedule, config)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Work counts attached to spans: f(args, kwargs, result) -> int.
COUNTS = {
    "propagate.evolution_operator": lambda a, k, r: _exponentials(a[0], _arg(a, k, 1, "config")),
    "propagate.propagate_state": lambda a, k, r: _exponentials(a[0], _arg(a, k, 2, "config")),
    "propagate.propagate_density": lambda a, k, r: _exponentials(a[0], _arg(a, k, 3, "config")),
    "propagate.convergence_check": lambda a, k, r: len(a[0].segments) * r.converged_substeps,
    "stochastic.monte_carlo_gate_fidelity": lambda a, k, r: int(_arg(a, k, 3, "trials")),
    "experiments.run_actuating_scan": lambda a, k, r: (
        len(r.axes["eta"])
        * int(r.metadata["grids"]["phase_count"]) ** (2 if r.metadata["grids"]["independent_phases"] else 1)
        * int(r.metadata["grids"]["duration_count"])
    ),
}


def _resolve(module_name: str, attribute: str):
    owner = sys.modules[module_name]
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder for one traced run.

    Spans are tuples ``(id, parent, unit, name, start, end, count)``;
    ``parent`` is 0 for a span opened outside every other span, and
    ``unit`` is the id of the unit call that was current when it opened.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.unit = 0
        self._stack: list[int] = []
        self._next = 1
        self._saved: list[tuple] = []

    @property
    def active(self) -> bool:
        return bool(self._saved)

    def open(self) -> int:
        span_id = self._next
        self._next += 1
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int, name: str, start: float, end: float, count: int = 0) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else 0
        self.spans.append((span_id, parent, self.unit, name, start, end, count))

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, e.g. one whole pass."""
        span_id = self.open()
        start = self.clock()
        try:
            yield span_id
        finally:
            self.close(span_id, name, start, self.clock())

    def _wrap(self, function, name: str):
        count = COUNTS.get(name)
        clock = self.clock

        def traced(*args, **kwargs):
            span_id = self.open()
            start = clock()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                n = count(args, kwargs, result) if count and result is not None else 0
                self.close(span_id, name, start, end, n)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def install(self) -> None:
        """Replace every binding of each target in the loaded rydgate modules."""
        if self.active:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "rydgate" or n.startswith("rydgate.")]
        for module_name, attribute, span_name in TARGETS:
            owner, name = _resolve(module_name, attribute)
            original = getattr(owner, name)
            wrapper = self._wrap(original, span_name)
            if "." in attribute:  # a method: its class is its only binding
                self._saved.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def installed_wrappers() -> list[str]:
    """Names of rydgate bindings that currently hold a tracing wrapper."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "rydgate" and not module_name.startswith("rydgate."):
            continue
        for key, value in vars(module).items():
            if hasattr(value, "__wrapped__") and getattr(value, "__module__", "") == __name__:
                found.append(f"{module_name}.{key}")
    to_csv = sys.modules["rydgate.experiments"].ScanResult.__dict__["to_csv"]
    if getattr(to_csv, "__module__", "") == __name__:
        found.append("rydgate.experiments.ScanResult.to_csv")
    return found
