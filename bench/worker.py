"""One fresh process of a workload: import mcpa, build the inputs, then
(unless --setup-only) run the timed closed loop in-process.

Protocol with run.py: after set-up the worker prints `READY <import_s>` and
flushes; run.py timestamps that line, so set-up time runs from spawn to the
moment the inputs exist. A full worker then prints one JSON line with the op
times, the peak RSS at the end of the timed phase and the check results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def _import_mcpa():
    start = time.perf_counter()
    import mcpa  # noqa: F401  (fresh-process import is part of set-up)
    import mcpa.cli  # noqa: F401
    return time.perf_counter() - start


def build_delay_curve(mcpa, seed):
    import inputs

    spec = inputs.delay_curve(seed)
    spec["config"] = mcpa.PulseConfig(**spec["pulse"])
    spec["device"] = mcpa.reference_device()
    return spec


def delay_curve_op(mcpa, spec):
    """One curve: every coupling, both delay-extraction routes.

    Ops call through the submodules, where a traced run rebinds the names.
    """
    out = []
    for g in spec["g_hz"]:
        fft = mcpa.pulses.extract_delay(spec["device"], g, spec["config"], method="fft")
        ode = mcpa.pulses.extract_delay(spec["device"], g, spec["config"], method="ode")
        out.append((fft, ode))
    return out


def build_calibration(mcpa, seed):
    import inputs

    MS = mcpa.MeasuredSpectrum

    def forms(delta, t, with_amplitude=True):
        amp_db, phase = inputs.polar(t)
        made = {"complex": MS.from_complex(delta, t, absolute_frequency=False),
                "polar": MS.from_polar(delta, amp_db, phase, absolute_frequency=False)}
        if with_amplitude:
            made["amplitude"] = MS.from_polar(delta, amp_db, None, absolute_frequency=False)
        return made

    devices = []
    for index in range(inputs.CAL_DEVICES):
        dev = inputs.calibration_device(seed, index)
        dev["bare_spectra"] = forms(dev["bare"]["delta"], dev["bare"]["t"])
        for win in dev["windows"]:
            # amplitude-only data above G_b is left out: the mirror seed does
            # not converge there and its ConvergenceError aborts the whole fit
            win["spectra"] = forms(win["delta"], win["t"], with_amplitude=win["side"] != "above")
        devices.append(dev)
    return devices


def calibration_op(mcpa, dev):
    """Calibrate one device: bare cavity, mechanical windows, critical coupling."""
    bare = {form: mcpa.calibrate.fit_bare_cavity(s) for form, s in dev["bare_spectra"].items()}
    fitted = bare["complex"].params
    ref_dev = mcpa.reference_device()
    cavity = mcpa.DeviceParams(
        cavity_freq_hz=ref_dev.cavity_freq_hz, mech_freq_hz=ref_dev.mech_freq_hz,
        kappa_hz=fitted["kappa_hz"], eta=fitted["eta"], gamma_m_hz=ref_dev.gamma_m_hz,
    )
    windows = [{form: mcpa.calibrate.fit_mechanical_window(s, cavity) for form, s in win["spectra"].items()}
               for win in dev["windows"]]
    gc = mcpa.calibrate.infer_critical_from_sweep(dev["sweep"]["g"], dev["sweep"]["power"])
    return {"bare": bare, "windows": windows, "gc": gc}


WORKLOADS = {
    "delay_curve": (build_delay_curve, lambda spec: [spec], delay_curve_op),
    "calibration": (build_calibration, lambda devices: devices, calibration_op),
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", default=None, help="write spans to this path")
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_s = _import_mcpa()
    import mcpa

    if args.workload == "cli_process":
        import inputs

        inputs.write_cli_inputs(args.seed, args.work)
    else:
        build, round_of, run_op = WORKLOADS[args.workload]
        built = build(mcpa, args.seed)
    print(f"READY {import_s!r}", flush=True)
    if args.setup_only:
        return 0

    import checks

    ops = round_of(built)
    run_op(mcpa, ops[0])  # warm-up: first-call costs stay out of the timed ops
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    times, results, failed = [], [], 0
    start = time.perf_counter()
    # whole rounds only, so every run attempts the same mix of ops
    while not times or time.perf_counter() - start < args.seconds:
        for i, item in enumerate(ops):
            if tracer is not None:
                tracer.op = len(times)
            t0 = time.perf_counter()
            try:
                result = run_op(mcpa, item)
            except mcpa.McpaError as exc:
                failed += 1
                result = repr(exc)
            t1 = time.perf_counter()
            times.append(t1 - t0)
            results.append((i, result, isinstance(result, str)))
    elapsed = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems = checks.check(args.workload, built, results)
    ok_times = [t for t, (_, _, bad) in zip(times, results) if not bad]
    summary = {
        "op_times": times, "ok_times": ok_times, "failed": failed,
        "elapsed": elapsed, "peak_rss_kb": peak_rss_kb, "problems": problems[:20],
        "n_problems": len(problems),
    }
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
