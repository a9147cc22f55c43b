"""Output checks. Each compares mcpa's results with reference.py (never
with mcpa itself, never with a stored copy of earlier output) or with a
property the method must have. A check returns a list of problems."""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import inputs
import reference as ref

SIGMAS = 5.0


# delay_curve ---------------------------------------------------------------

def check_delay_curve(spec, results):
    kappa, eta, gamma = ref.REFERENCE["kappa"], ref.REFERENCE["eta"], ref.REFERENCE["gamma"]
    gc = spec["gc"]
    analytic = [ref.group_delay_mp(kappa, eta, gamma, g) for g in spec["g_hz"]]
    problems = []
    for _, delays, failed in results:
        if failed:
            continue
        for g, r, tau_an, (fft, ode) in zip(spec["g_hz"], spec["ratios"], analytic, delays):
            where = f"G/G_c={r:.4f}"
            for route, tau in (("fft", fft), ("ode", ode)):
                if not math.isfinite(tau) or np.sign(tau) != np.sign(g - gc):
                    problems.append(f"{where} {route}: delay {tau!r} has the wrong sign")
                # far from G_c the probe bandwidth bias is below 3 %; nearer,
                # it grows to 5-27 % (physics), so only properties are checked
                if abs(r - 1.0) >= 0.2 and abs(tau - tau_an) > 0.05 * abs(tau_an):
                    problems.append(f"{where} {route}: {tau!r} vs analytic {tau_an!r}")
            if abs(fft - ode) > 0.02 * abs(fft):
                problems.append(f"{where}: routes disagree, fft {fft!r} ode {ode!r}")
        for side in (-1.0, 1.0):
            # |tau| grows toward G_c from each side
            pts = sorted((abs(g - gc), abs(d[0])) for g, d in zip(spec["g_hz"], delays)
                         if np.sign(g - gc) == side)
            mags = [m for _, m in pts]
            if any(a <= b for a, b in zip(mags, mags[1:])):
                problems.append(f"|delay| does not grow toward G_c on side {side:+.0f}: {mags}")
    return problems


# calibration ---------------------------------------------------------------

def _within(fit, truth, names):
    """True when every named parameter lies within SIGMAS sigma of truth."""
    return all(abs(fit.params[k] - truth[k]) <= SIGMAS * fit.sigma[k] for k in names)


def _candidates(fit):
    return [fit] + ([fit.alternate] if fit.alternate is not None else [])


def check_calibration(devices, results):
    problems = []
    conditional = {}
    for index, out, failed in results:
        if failed:
            continue
        dev = devices[index]
        tag = f"device {index}"
        truth = {"kappa_hz": dev["kappa"], "eta": dev["eta"], "center_offset_hz": 0.0}
        for form, fit in out["bare"].items():
            fits = _candidates(fit) if form == "amplitude" else [fit]
            if not any(_within(f, truth, truth) for f in fits):
                problems.append(f"{tag} bare {form}: {fit.params} vs truth {truth}")
        cav = out["bare"]["complex"].params
        key = (index, cav["kappa_hz"], cav["eta"])
        if key not in conditional:
            conditional[key] = [
                {form: ref.window_truth_given_cavity(form, win["delta"], win["clean"],
                                                     cav["kappa_hz"], cav["eta"],
                                                     dev["gamma"], win["g"])
                 for form in win["spectra"]}
                for win in dev["windows"]]
        for win, fits, truths in zip(dev["windows"], out["windows"], conditional[key]):
            for form, fit in fits.items():
                names = ("gamma_m_hz", "g_hz", "center_offset_hz")
                expect = dict(zip(names, truths[form]))
                cands = _candidates(fit) if form == "amplitude" else [fit]
                if not any(_within(f, expect, names) for f in cands):
                    problems.append(f"{tag} window {win['side']} {form}: {fit.params} vs {expect}")
                if form != "amplitude" and (fit.params["g_hz"] > dev["gc"]) != (win["g"] > dev["gc"]):
                    problems.append(f"{tag} window {win['side']} {form}: wrong side of G_c")
        step = dev["sweep"]["step"]
        if not abs(math.log(out["gc"] / dev["gc"])) <= math.log(step):
            problems.append(f"{tag}: inferred G_c {out['gc']!r} vs {dev['gc']!r}")
    return problems


def check(workload, built, results):
    if workload == "delay_curve":
        return check_delay_curve(built, results)
    return check_calibration(built, results)


# cli_process ---------------------------------------------------------------

def _key_values(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _read_csv(path):
    meta, rows, header = {}, [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                meta[key] = value
            elif header is None:
                header = next(csv.reader([line]))
            else:
                rows.append([float(v) for v in line.split(",")])
    return meta, header, np.array(rows)


def _close(a, b, rtol=0.0, atol=0.0):
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= atol + rtol * np.abs(b)))


def _check_critical(stdout, _work):
    kappa, eta, gamma = ref.REFERENCE["kappa"], ref.REFERENCE["eta"], ref.REFERENCE["gamma"]
    kv = _key_values(stdout)
    gc, gb = ref.critical_coupling(kappa, eta, gamma), ref.boundary_coupling(kappa, eta, gamma)
    g = 17.66
    t_z = float(ref.transmission_mp(0.0, kappa, eta, gamma, g).real)
    problems = []
    for key, want in (("critical_coupling_hz", gc), ("boundary_coupling_hz", gb),
                      ("boundary_to_critical_ratio", gb / gc), ("g_hz", g), ("t_z", t_z)):
        if not _close(float(kv.get(key, "nan")), want, rtol=1e-9):
            problems.append(f"critical: {key}={kv.get(key)} vs {want!r}")
    if kv.get("regime") != "delay-side-absorbing" or kv.get("at_boundary") != "False":
        problems.append(f"critical: regime {kv.get('regime')} at_boundary {kv.get('at_boundary')}")
    return problems


def _check_spectrum(_stdout, work):
    # configs/spectrum.json: the reference device written out, g = 23.93 Hz
    kappa, eta, gamma = ref.REFERENCE["kappa"], ref.REFERENCE["eta"], ref.REFERENCE["gamma"]
    g = 23.93
    meta, header, data = _read_csv(os.path.join(work, "out/spectrum/spectrum.csv"))
    problems = []
    if header != ["detuning_hz", "re", "im", "amp_db", "phase_rad", "delay_s"] or data.shape != (2001, 6):
        return [f"spectrum: header {header} shape {data.shape}"]
    w = ref.window_width(kappa, gamma, g)
    d = data[:, 0]
    t = ref.transmission(d, kappa, eta, gamma, g)
    tau = ref.group_delay(d, kappa, eta, gamma, g)
    if meta.get("format") != "mcpa-csv/1":
        problems.append(f"spectrum: format tag {meta.get('format')}")
    if not _close(d, np.linspace(-5.0 * w, 5.0 * w, 2001), rtol=1e-12, atol=1e-15):
        problems.append("spectrum: detuning grid is not +/- 5 window widths")
    if not (_close(data[:, 1], t.real, atol=1e-9) and _close(data[:, 2], t.imag, atol=1e-9)):
        problems.append("spectrum: re/im differ from the closed form")
    if not _close(data[:, 3], 20.0 * np.log10(np.abs(t)), atol=1e-7):
        problems.append("spectrum: amp_db differs from the closed form")
    if not _close(np.exp(1j * data[:, 4]), t / np.abs(t), atol=1e-7):
        problems.append("spectrum: phase_rad differs from the closed form")
    # numeric derivative on a grid of window/200: second-order error only
    if not _close(data[:, 5], tau, atol=1e-3 * np.max(np.abs(tau))):
        problems.append("spectrum: delay_s differs from the analytic group delay")
    return problems


def _check_sweep_g(_stdout, work):
    kappa, eta, gamma = ref.REFERENCE["kappa"], ref.REFERENCE["eta"], ref.REFERENCE["gamma"]
    gc = ref.critical_coupling(kappa, eta, gamma)
    with open(os.path.join(work, "inputs/sweep_g.json"), encoding="utf-8") as fh:
        opts = json.load(fh)["sweep_g"]
    start, stop = (float(opts[k].split()[0]) for k in ("start", "stop"))
    _, header, data = _read_csv(os.path.join(work, "out/sweep_g/sweep_g.csv"))
    if header != ["g_hz", "t_z", "amp_db", "phase_rad", "delay_s"] or data.shape != (2000, 5):
        return [f"sweep_g: header {header} shape {data.shape}"]
    g = data[:, 0]
    t_z = ref.transmission(np.zeros_like(g), kappa, eta, gamma, g).real
    tau = ref.group_delay(np.zeros_like(g), kappa, eta, gamma, g)
    problems = []
    if not _close(g, np.geomspace(start, stop, 2000), rtol=1e-12):
        problems.append("sweep_g: coupling grid is not the configured log grid")
    if not _close(data[:, 1], t_z, atol=1e-12):
        problems.append("sweep_g: t_z differs from the closed form")
    want_phase = np.where(g < gc, math.pi, 0.0)
    if not np.array_equal(data[:, 3], want_phase):
        problems.append("sweep_g: phase is not exactly pi below G_c and 0 above")
    if not _close(data[:, 4], tau, rtol=1e-6):
        problems.append("sweep_g: delay_s differs from the analytic group delay")
    return problems


def _check_pulse(stdout, work, name, g):
    kappa, eta, gamma = ref.REFERENCE["kappa"], ref.REFERENCE["eta"], ref.REFERENCE["gamma"]
    kv = _key_values(stdout)
    tau = ref.group_delay_mp(kappa, eta, gamma, g)
    problems = []
    extracted = float(kv.get("extracted_delay_s", "nan"))
    if not abs(extracted - tau) <= 0.05 * abs(tau):
        problems.append(f"{name}: extracted delay {extracted!r} vs analytic {tau!r}")
    if not _close(float(kv.get("analytic_delay_s", "nan")), tau, rtol=1e-6):
        problems.append(f"{name}: analytic_delay_s {kv.get('analytic_delay_s')} vs {tau!r}")
    wave = {}
    for part in ("input", "output", "reference"):
        meta, header, data = _read_csv(os.path.join(work, f"out/{name}/pulse_{part}.csv"))
        if header != ["time_s", "re", "im", "abs"] or data.shape != (4096, 4):
            return problems + [f"{name}: pulse_{part} header {header} shape {data.shape}"]
        if not _close(data[:, 3], np.hypot(data[:, 1], data[:, 2]), rtol=1e-12, atol=1e-300):
            problems.append(f"{name}: pulse_{part} abs is not |re + i im|")
        wave[part] = data
    t = wave["input"][:, 0]
    sigma = float(meta["sigma_t_s"])
    center = ref.centroid(t, wave["input"][:, 3])
    if not _close(wave["input"][:, 3], ref.gaussian_envelope(t, center, sigma), atol=1e-9):
        problems.append(f"{name}: pulse_input is not a Gaussian of sigma {sigma!r}")
    shift = (ref.centroid(t, wave["output"][:, 1] + 1j * wave["output"][:, 2])
             - ref.centroid(t, wave["reference"][:, 1] + 1j * wave["reference"][:, 2]))
    if not _close(shift, extracted, rtol=1e-9):
        problems.append(f"{name}: CSV centroid shift {shift!r} vs printed {extracted!r}")
    return problems


def _check_pulse_fft(stdout, work):
    return _check_pulse(stdout, work, "pulse", 155.1)  # configs/pulse.json


def _check_pulse_ode(stdout, work):
    with open(os.path.join(work, "inputs/pulse_ode.json"), encoding="utf-8") as fh:
        g = float(json.load(fh)["pulse"]["g"].split()[0])
    return _check_pulse(stdout, work, "pulse_ode", g)


def _check_fit_bare(_stdout, work):
    with open(os.path.join(work, "out/fit_bare/fit_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    truth = {"center_offset_hz": 0.0, "kappa_hz": ref.REFERENCE["kappa"], "eta": ref.REFERENCE["eta"]}
    problems = []
    for key, want in truth.items():
        got, sigma = report["params"][key], report["sigma"][key]
        if not abs(got - want) <= SIGMAS * sigma:
            problems.append(f"fit_bare: {key} {got!r} +/- {sigma!r} vs truth {want!r}")
    if report.get("converged") is not True:
        problems.append("fit_bare: not converged")
    return problems


def _check_fit_sweep(_stdout, work):
    kappa, eta, gamma = ref.REFERENCE["kappa"], ref.REFERENCE["eta"], ref.REFERENCE["gamma"]
    with open(os.path.join(work, "out/fit_sweep/fit_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    gc = ref.critical_coupling(kappa, eta, gamma)
    step = 4.0 ** (1.0 / (inputs.CLI_SWEEP_POINTS - 1))
    got = report["critical_coupling_hz"]
    if not abs(math.log(got / gc)) <= math.log(step):
        return [f"fit_sweep: G_c {got!r} vs {gc!r}, more than one grid step"]
    return []


CLI_CHECKS = {
    "critical": _check_critical,
    "spectrum": _check_spectrum,
    "pulse": _check_pulse_fft,
    "sweep_g": _check_sweep_g,
    "pulse_ode": _check_pulse_ode,
    "fit_bare": _check_fit_bare,
    "fit_sweep": _check_fit_sweep,
}


def check_cli(work, name, stdout, stderr):
    """Checks of one cli op whose exit code was the documented one."""
    if name == "fit_header_only":
        return [] if stderr.startswith("config error") else [f"{name}: stderr {stderr[:200]!r}"]
    return CLI_CHECKS[name](stdout, work)
