"""Span recording around mcpa's public functions, installed from outside.

`Tracer.install` rebinds the module attributes the package itself calls
through (for example `mcpa.pulses.propagate`, looked up at call time by
`extract_delay`), so nothing inside mcpa changes. Each span keeps its name,
start, end, parent and the id of the op it belongs to; spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time

# (module, attribute, span name). Every function here is called by the
# package through its module attribute, so a rebinding is seen by callers.
TRACED = (
    ("pulses", "extract_delay", "pulses.extract_delay"),
    ("pulses", "gaussian_pulse", "pulses.gaussian_pulse"),
    ("pulses", "propagate", "pulses.propagate"),
    ("pulses", "integrate_langevin", "pulses.integrate_langevin"),
    ("pulses", "center_time_estimates", "pulses.center_time_estimates"),
    ("model", "transmission_curve", "model.transmission_curve"),
    ("spectra", "sweep_detuning", "spectra.sweep_detuning"),
    ("spectra", "numeric_group_delay", "spectra.numeric_group_delay"),
    ("spectra", "sweep_coupling_resonance", "spectra.sweep_coupling_resonance"),
    ("calibrate", "fit_bare_cavity", "calibrate.fit_bare_cavity"),
    ("calibrate", "fit_mechanical_window", "calibrate.fit_mechanical_window"),
    ("calibrate", "infer_critical_from_sweep", "calibrate.infer_critical_from_sweep"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "read_measured_csv", "cli.read_measured_csv"),
    ("cli", "write_csv", "cli.write_csv"),
)

# name -> unit, in the order the result line prints them
PER_LAYER = {
    "pulses.propagate.calls": "count",
    "pulses.propagate.pump_off_calls": "count",
    "pulses.propagate.fft_points": "count",
    "pulses.propagate.self_s": "s",
    "pulses.integrate_langevin.calls": "count",
    "pulses.integrate_langevin.self_s": "s",
    "pulses.center_time_estimates.calls": "count",
    "pulses.center_time_estimates.self_s": "s",
    "pulses.gaussian_pulse.self_s": "s",
    "pulses.extract_delay.self_s": "s",
    "model.transmission_curve.calls": "count",
    "model.transmission_curve.points": "count",
    "model.transmission_curve.self_s": "s",
    "spectra.sweep_detuning.self_s": "s",
    "spectra.numeric_group_delay.self_s": "s",
    "spectra.sweep_coupling_resonance.self_s": "s",
    "calibrate.fit_bare_cavity.calls": "count",
    "calibrate.fit_bare_cavity.self_s": "s",
    "calibrate.fit_mechanical_window.calls": "count",
    "calibrate.fit_mechanical_window.self_s": "s",
    "calibrate.infer_critical_from_sweep.self_s": "s",
    "calibrate.lm_iterations": "count",
    "calibrate.lm_accepted_steps": "count",
    "mcpa.import_s": "s",
    "cli.process_s": "s",
    "cli.load_config.self_s": "s",
    "cli.command.self_s": "s",
    "cli.read_measured_csv.self_s": "s",
    "cli.write_csv.calls": "count",
    "cli.write_csv.self_s": "s",
    "cli.write_csv.bytes": "B",
    "trace.op_p50_s": "s",
    "trace.spans": "count",
}


def _fit_counts(result):
    """LM iterations and accepted steps of a FitResult and its alternate."""
    iterations = accepted = 0
    while result is not None:
        iterations += result.n_iterations
        accepted += len(result.residual_history) - 1
        result = result.alternate
    return {"lm_iterations": iterations, "lm_accepted_steps": accepted}


def _attrs(name, args, kwargs, result):
    if name == "pulses.propagate":
        coupling = args[2] if len(args) > 2 else kwargs["coupling"]
        return {"pump_off": float(coupling) == 0.0}
    if name == "model.transmission_curve":
        detuning = args[2] if len(args) > 2 else kwargs["detuning_hz"]
        return {"points": int(getattr(detuning, "size", 1))}
    if name in ("calibrate.fit_bare_cavity", "calibrate.fit_mechanical_window"):
        return _fit_counts(result)
    if name == "cli.write_csv":
        return {"bytes": os.path.getsize(args[0])}
    return None


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self):
        self.spans = []  # [op, id, parent, name, start, end, attrs]
        self._stack = []
        self.op = None

    def span(self, name, fn, *args, **kwargs):
        rec = [self.op, len(self.spans), self._stack[-1] if self._stack else None,
               name, time.perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(rec[1])
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()
        rec[6] = _attrs(name, args, kwargs, result)
        return result

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Rebind the traced attributes of the mcpa submodules."""
        for module_name, attr, name in TRACED:
            module = importlib.import_module(f"mcpa.{module_name}")
            setattr(module, attr, self._wrapper(name, getattr(module, attr)))
        cli = importlib.import_module("mcpa.cli")
        for command in cli.COMMANDS:
            attr = f"cmd_{command}"
            traced = self._wrapper("cli.command", getattr(cli, attr))
            setattr(cli, attr, traced)
            # main() dispatches through this table, not the module attribute
            table = getattr(cli, "_DISPATCH", None)
            if isinstance(table, dict) and command in table:
                table[command] = traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def self_times(spans):
    """Span duration minus the time its direct children cover, per span id."""
    child_time = {}
    for op, sid, parent, name, start, end, attrs in spans:
        if parent is not None:
            child_time[(op, parent)] = child_time.get((op, parent), 0.0) + (end - start)
    return {(op, sid): (end - start) - child_time.get((op, sid), 0.0)
            for op, sid, parent, name, start, end, attrs in spans}


def per_layer_metrics(spans, n_ops, ok_times, import_times, process_times=()):
    """Per-op layer metrics from the spans of `n_ops` timed ops.

    Every figure is a total over the run divided by the op count; the runs
    do whole rounds of the same ops, so counts come out identical from run
    to run with the same seed.
    """
    totals = {name: 0.0 for name in PER_LAYER}
    selfs = self_times(spans)
    by_id = {(s[0], s[1]): s for s in spans}
    for op, sid, parent, name, start, end, attrs in spans:
        attrs = attrs or {}
        if f"{name}.self_s" in totals:
            totals[f"{name}.self_s"] += selfs[(op, sid)]
        if f"{name}.calls" in totals:
            totals[f"{name}.calls"] += 1
        if name == "pulses.propagate" and attrs.get("pump_off"):
            totals["pulses.propagate.pump_off_calls"] += 1
        if name == "model.transmission_curve":
            totals["model.transmission_curve.points"] += attrs["points"]
            parent_span = by_id.get((op, parent))
            if parent_span is not None and parent_span[3] == "pulses.propagate":
                totals["pulses.propagate.fft_points"] += attrs["points"]
        if name.startswith("calibrate.fit_"):
            totals["calibrate.lm_iterations"] += attrs["lm_iterations"]
            totals["calibrate.lm_accepted_steps"] += attrs["lm_accepted_steps"]
        if name == "cli.write_csv":
            totals["cli.write_csv.bytes"] += attrs["bytes"]
    metrics = {name: value / n_ops for name, value in totals.items()}
    metrics["trace.spans"] = len(spans) / n_ops
    metrics["trace.op_p50_s"] = statistics.median(ok_times)
    metrics["mcpa.import_s"] = statistics.median(import_times)
    metrics["cli.process_s"] = statistics.mean(process_times) if process_times else 0.0
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
