"""Seeded inputs of the three workloads. Only numpy and reference.py are
used here; the program receives the arrays or files made from them."""

from __future__ import annotations

import json
import math
import os

import numpy as np

import reference as ref

# delay_curve ---------------------------------------------------------------

#: G/G_c of the curve's couplings before the seeded stretch: two far below
#: G_c, two within 10 %, two within 10 % above, one between G_c and G_b
#: (1.69 G_c) and two above G_b.
DELAY_RATIOS = (0.5, 0.8, 0.9, 0.96, 1.04, 1.1, 1.2, 1.5, 2.0, 2.6)
#: Probe rms bandwidth as a share of the narrowest window on the curve.
DELAY_BANDWIDTH_FRACTION = 1.0 / 32.0
#: Samples in every record. find_peaks in the lobe check already costs a
#: few ms per waveform here (about 2 % of a curve) and grows faster than n.
DELAY_SAMPLES = 1 << 15

# calibration ---------------------------------------------------------------

CAL_DEVICES = 32         # devices per round; every op calibrates one
CAL_POINTS = 2001        # rows in every trace
CAL_SNR_DB = 50.0
CAL_SWEEP_POINTS = 41    # log grid from G_c/2 to 2 G_c
#: G/G_c ranges of the three window traces: below G_c, between G_c and G_b,
#: above G_b (G_b/G_c = 1/sqrt(1 - eta) lies in [1.58, 1.83] for these eta).
CAL_WINDOWS = (("below", 0.5, 0.8), ("between", 1.15, 1.45), ("above", 2.2, 3.0))

# cli_process ---------------------------------------------------------------

CLI_SNR_DB = 50.0
CLI_SWEEP_POINTS = 41


def delay_curve(seed):
    """Couplings and probe of one delay-vs-coupling curve of the reference device."""
    rng = np.random.default_rng([seed, 1])
    kappa, eta, gamma = ref.REFERENCE["kappa"], ref.REFERENCE["eta"], ref.REFERENCE["gamma"]
    gc = ref.critical_coupling(kappa, eta, gamma)
    # stretch each offset from G_c by up to 10 %: the near couplings stay
    # within 5 % of G_c, the far ones at least 20 % away
    ratios = [1.0 + (r - 1.0) * rng.uniform(1.0, 1.1) for r in DELAY_RATIOS]
    g_hz = [r * gc for r in ratios]
    sigma = 1.0 / (2.0 * math.pi * DELAY_BANDWIDTH_FRACTION * ref.window_width(kappa, gamma, min(g_hz)))
    # the largest |delay| on the curve is below one sigma; 10 sigma each side
    record = 20.0 * sigma
    return {
        "gc": gc,
        "g_hz": g_hz,
        "ratios": ratios,
        "pulse": {"sigma_t_s": sigma, "center_s": 10.0 * sigma, "record_s": record,
                  "dt_s": record / DELAY_SAMPLES},
    }


def _noisy(rng, t):
    return t + ref.complex_noise(rng, len(t), CAL_SNR_DB)


def calibration_device(seed, index):
    """One synthetic device near the reference, with its noisy traces."""
    rng = np.random.default_rng([seed, 2, index])
    kappa = ref.REFERENCE["kappa"] * rng.uniform(0.9, 1.1)
    eta = rng.uniform(0.6, 0.7)
    gamma = ref.REFERENCE["gamma"] * rng.uniform(0.8, 1.2)
    gc = ref.critical_coupling(kappa, eta, gamma)
    delta = np.linspace(-3.0 * kappa, 3.0 * kappa, CAL_POINTS)
    bare = {"delta": delta, "t": _noisy(rng, ref.bare_transmission(delta, kappa, eta))}
    windows = []
    for side, lo, hi in CAL_WINDOWS:
        g = rng.uniform(lo, hi) * gc
        w = ref.window_width(kappa, gamma, g)
        d = np.linspace(-5.0 * w, 5.0 * w, CAL_POINTS)
        clean = ref.transmission(d, kappa, eta, gamma, g)
        windows.append({"side": side, "g": g, "delta": d, "clean": clean, "t": _noisy(rng, clean)})
    # log grid with G_c strictly between two points, at a seeded fraction
    step = 4.0 ** (1.0 / (CAL_SWEEP_POINTS - 1))
    k = np.arange(CAL_SWEEP_POINTS) - (CAL_SWEEP_POINTS - 1) // 2
    g_grid = gc * step ** (k + rng.uniform(0.2, 0.8))
    t_z = ref.transmission(np.zeros_like(g_grid), kappa, eta, gamma, g_grid)
    power = np.abs(_noisy(rng, t_z)) ** 2
    return {
        "kappa": kappa, "eta": eta, "gamma": gamma, "gc": gc,
        "bare": bare, "windows": windows,
        "sweep": {"g": g_grid, "power": power, "step": step},
    }


def polar(t):
    return 20.0 * np.log10(np.abs(t)), np.angle(t)


def _write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def write_cli_inputs(seed, work):
    """Write the cli_process configs and data files under `work`/inputs."""
    rng = np.random.default_rng([seed, 3])
    kappa, eta, gamma = ref.REFERENCE["kappa"], ref.REFERENCE["eta"], ref.REFERENCE["gamma"]
    gc = ref.critical_coupling(kappa, eta, gamma)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs, exist_ok=True)
    device = {"preset": "reference"}

    delta = np.linspace(-3.0 * kappa, 3.0 * kappa, 2001)
    t = ref.bare_transmission(delta, kappa, eta)
    _write_csv(os.path.join(inputs, "bare.csv"), ["detuning_hz", "re", "im"],
               zip(delta, t.real, t.imag))

    step = 4.0 ** (1.0 / (CLI_SWEEP_POINTS - 1))
    k = np.arange(CLI_SWEEP_POINTS) - (CLI_SWEEP_POINTS - 1) // 2
    g_grid = gc * step ** (k + rng.uniform(0.2, 0.8))
    t_z = ref.transmission(np.zeros_like(g_grid), kappa, eta, gamma, g_grid).real
    t_z = t_z + 10.0 ** (-CLI_SNR_DB / 20.0) * rng.standard_normal(len(g_grid))
    _write_csv(os.path.join(inputs, "sweep.csv"), ["g_hz", "t_z"], zip(g_grid, t_z))
    with open(os.path.join(inputs, "header_only.csv"), "w", encoding="utf-8") as fh:
        fh.write("g_hz,t_z\n")

    configs = {
        "sweep_g": {"sweep_g": {"start": f"{rng.uniform(4.0, 6.0)!r} Hz",
                                "stop": f"{rng.uniform(55.0, 65.0)!r} Hz",
                                "points": 2000, "scale": "log"}},
        "pulse_ode": {"pulse": {"g": f"{rng.uniform(8.0, 12.0)!r} Hz", "method": "ode",
                                "samples": 4096}},
        "fit_bare": {"fit": {"kind": "bare", "data": "inputs/bare.csv",
                             "add_noise_snr_db": CLI_SNR_DB}},
        "fit_sweep": {"fit": {"kind": "critical_sweep", "data": "inputs/sweep.csv"}},
        "fit_header_only": {"fit": {"kind": "critical_sweep", "data": "inputs/header_only.csv"}},
    }
    for name, block in configs.items():
        _write_json(os.path.join(inputs, f"{name}.json"), {"version": "1", "device": device, **block})


def cli_cycle(seed, root):
    """The cli_process op cycle: (name, argv run in the work directory,
    documented exit code)."""

    def config(name):
        return os.path.join(root, "configs", f"{name}.json")

    def own(name):
        return os.path.join("inputs", f"{name}.json")

    return [
        ("critical", ["--config", config("critical"), "--out", "out/critical"], 0),
        ("spectrum", ["--config", config("spectrum"), "--out", "out/spectrum"], 0),
        ("pulse", ["--config", config("pulse"), "--out", "out/pulse"], 0),
        ("sweep_g", ["--config", own("sweep_g"), "--out", "out/sweep_g"], 0),
        ("pulse_ode", ["--config", own("pulse_ode"), "--out", "out/pulse_ode"], 0),
        ("fit_bare", ["--config", own("fit_bare"), "--out", "out/fit_bare", "--seed", str(seed)], 0),
        ("fit_sweep", ["--config", own("fit_sweep"), "--out", "out/fit_sweep"], 0),
        # a header-only sweep is malformed input: documented outcome is exit 2
        ("fit_header_only", ["--config", own("fit_header_only"), "--out", "out/fit_header_only"], 2),
    ]
