"""Acceptance gate: one test per headline behaviour, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the report lines.
Reference numbers shared with the unit suite were frozen from a 50-digit
evaluation of the closed forms (mpmath), done independently of the package
code; see the unit test modules for the per-symbol derivations.
"""

import math
import time

import numpy as np
import pytest

from mcpa import calibrate, model, pulses, spectra
import reference_integrators as reference
from reduced_forms import tz_reduced

DEVICE = model.reference_device()

GC_HZ = 17.53815839818993082
GB_HZ = 29.687339201796470361
DIP_DB = -49.83317459550327441  # resonance transmission at coupling 17.66 Hz
PAIR_DB = {17.24: -42.068181128854435892, 17.84: -41.950818840565024969}
TAU_Z_S = {
    11.87: -31.72559925267827979,
    23.93: +59.086097400395603556,
    155.1: +1.7579510380600015765,
    176.8: +1.3616185253748195297,
}


def _amplitude_db(g):
    """(dB) power transmission 20*log10|t| on resonance at coupling g."""
    return 20.0 * math.log10(abs(complex(model.transmission_curve(DEVICE, g, 0.0))))


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_absorption_dip_depth():
    amplitude_db = _amplitude_db(17.66)
    ok = abs(amplitude_db - DIP_DB) < 1e-9 and -52.0 < amplitude_db < -46.0
    _report(
        "absorption dip depth",
        ok,
        f"|t| at resonance = {amplitude_db:.9f} dB "
        f"(reference {DIP_DB:.9f} dB, tolerance 1e-9 dB)",
    )


def test_critical_and_boundary_couplings():
    gc = model.critical_coupling(DEVICE)
    gb = model.boundary_coupling(DEVICE)
    problems = []
    if abs(gc / GC_HZ - 1.0) > 1e-10:
        problems.append(f"critical {gc!r} vs {GC_HZ!r}")
    if abs(gb / GB_HZ - 1.0) > 1e-10:
        problems.append(f"boundary {gb!r} vs {GB_HZ!r}")
    if not (17.53 < gc < 17.55 and 29.68 < gb < 29.70):
        problems.append("outside sanity window")
    ratio = gb / gc
    expected_ratio = 1.0 / np.sqrt(1.0 - DEVICE.eta)
    if abs(ratio / expected_ratio - 1.0) > 1e-12:
        problems.append(f"ratio {ratio} vs {expected_ratio}")
    _report(
        "critical and boundary couplings",
        not problems,
        problems or f"Gc = {gc:.12f} Hz, Gb = {gb:.12f} Hz (rel tol 1e-10)",
    )


def test_phase_jump_across_critical():
    grid = np.geomspace(5.0, 60.0, 2000)
    spec = spectra.sweep_coupling_resonance(DEVICE, grid)
    below = grid < GC_HZ
    above = grid > GC_HZ
    problems = []
    if not np.all(spec.phase_rad[below] == np.pi):
        problems.append("phase below critical is not exactly pi")
    if not np.all(spec.phase_rad[above] == 0.0):
        problems.append("phase above critical is not exactly 0")
    for g, ref_db in PAIR_DB.items():
        amplitude_db = _amplitude_db(g)
        if abs(amplitude_db - ref_db) > 1.0:
            problems.append(f"|t_z({g})| = {amplitude_db:.3f} dB vs {ref_db:.3f}")
    ph_lo, ph_hi = model.principal_phase(model.transmission_curve(DEVICE, [17.24, 17.84], 0.0))
    if not (ph_lo == np.pi and ph_hi == 0.0):
        problems.append(f"pair phases {ph_lo}, {ph_hi}")
    _report(
        "phase jump across critical coupling",
        not problems,
        problems
        or "2000-point sweep: pi below / 0 above; matched-depth pair "
        f"({PAIR_DB[17.24]:.2f}, {PAIR_DB[17.84]:.2f}) dB with opposite phases",
    )


def test_delay_divergence_scaling():
    # near the critical coupling the resonance delay grows like
    # 1/(g - gc), so tau * eps at g = gc*(1 +/- eps) is nearly constant
    eps = np.logspace(-4, -2, 9)
    problems = []
    spreads = []
    for side in (+1.0, -1.0):
        k = model.group_delay_curve(DEVICE, GC_HZ * (1 + side * eps), 0.0) * eps
        if side > 0 and not np.all(k > 0):
            problems.append("delay above critical is not positive")
        if side < 0 and not np.all(k < 0):
            problems.append("delay below critical is not negative")
        spread = float(np.max(np.abs(k)) / np.min(np.abs(k)) - 1.0)
        spreads.append(spread)
        if spread > 0.05:
            problems.append(f"side {side:+.0f}: tau*eps spread {spread:.3f} > 0.05")
    _report(
        "delay divergence scaling at critical coupling",
        not problems,
        problems
        or f"tau*eps constant to {max(spreads):.3%} over eps in [1e-4, 1e-2], "
        "sign flips across the critical coupling",
    )


def test_delay_closed_form_vs_numeric_derivative():
    # Richardson-extrapolated central difference of the transmission phase
    def numeric_tau(g, d, h):
        tp = model.transmission_curve(DEVICE, g, np.array([d + h]))[0]
        tm = model.transmission_curve(DEVICE, g, np.array([d - h]))[0]
        return -np.angle(tp / tm) / (2.0 * h) / (2.0 * np.pi)

    problems = []
    worst = 0.0
    for g in (155.1, 176.8):
        window = model.effective_window_hz(DEVICE, g)
        h = window / 100.0
        for d in (0.0, 0.3 * window):
            richardson = (4.0 * numeric_tau(g, d, h / 2.0) - numeric_tau(g, d, h)) / 3.0
            analytic = float(model.group_delay_curve(DEVICE, g, d))
            rel = abs(richardson / analytic - 1.0)
            worst = max(worst, rel)
            if rel > 1e-6:
                problems.append(f"g={g}, detuning={d:.3g}: rel {rel:.2e}")
    tau_slow = float(model.group_delay_curve(DEVICE, 155.1, 0.0))
    if not 0.6 < tau_slow < 2.4:
        problems.append(f"slow-light delay {tau_slow:.3f} s outside [0.6, 2.4]")
    for g, ref in TAU_Z_S.items():
        if abs(model.group_delay_curve(DEVICE, g, 0.0) / ref - 1.0) > 1e-12:
            problems.append(f"tau_z({g}) reference mismatch")
    _report(
        "closed-form delay vs numeric phase derivative",
        not problems,
        problems
        or f"worst relative difference {worst:.2e} (tolerance 1e-6); "
        f"tau_z(155.1 Hz) = {tau_slow:.4f} s",
    )


def test_pulse_delay_two_routes():
    t0 = time.monotonic()
    problems = []
    lines = []
    for g in (11.87, 23.93, 155.1):
        cfg = pulses.delay_pulse_config(DEVICE, g, n_samples=4096)
        tau_fft = pulses.extract_delay(DEVICE, g, cfg, method="fft")
        tau_ode = pulses.extract_delay(DEVICE, g, cfg, method="ode")
        ref = TAU_Z_S[g]
        if abs(tau_fft - tau_ode) > 0.02 * abs(ref):
            problems.append(f"g={g}: routes differ {tau_fft - tau_ode:.3e} s")
        if np.sign(tau_fft) != np.sign(ref):
            problems.append(f"g={g}: wrong sign {tau_fft:.3e}")
        if abs(tau_fft / ref - 1.0) > 0.05:
            problems.append(f"g={g}: fft {tau_fft:.4f} vs analytic {ref:.4f}")
        lines.append(f"g={g}: fft {tau_fft:+.4f} s, ode {tau_ode:+.4f} s, ref {ref:+.4f} s")
    elapsed = time.monotonic() - t0
    if elapsed > 60.0:
        problems.append(f"took {elapsed:.1f} s > 60 s")
    _report(
        "pulsed delay, spectral vs time-stepped route",
        not problems,
        problems or "; ".join(lines) + f" ({elapsed:.2f} s)",
    )


def test_steady_state_integration_oracle():
    t0 = time.monotonic()
    couplings = [g for g in np.geomspace(1.0, 300.0, 20) if abs(g - GC_HZ) > 0.5]
    detunings = [0.0, 0.004, -0.004, 1000.0, -1000.0]
    worst = 0.0
    for g in couplings:
        for d in detunings:
            stepped = reference.cw_response(DEVICE, g, d)
            closed = model.transmission_curve(DEVICE, g, np.array([d]))[0]
            worst = max(worst, abs(stepped - closed) / abs(closed))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    _report(
        "steady-state integration matches closed form",
        ok,
        f"worst relative deviation {worst:.2e} over {len(couplings)} couplings x "
        f"{len(detunings)} detunings (tolerance 1e-4, {elapsed:.2f} s)",
    )


def test_calibration_roundtrip_and_noise():
    t0 = time.monotonic()
    problems = []

    half = 3.0 * DEVICE.kappa_hz
    delta = np.linspace(-half, half, 241)
    bare = calibrate.fit_bare_cavity(
        calibrate.MeasuredSpectrum.from_complex(
            delta, model.transmission_curve(DEVICE, 0.0, delta), absolute_frequency=False
        )
    )
    if abs(bare.params["kappa_hz"] / DEVICE.kappa_hz - 1.0) > 1e-6:
        problems.append(f"bare kappa {bare.params['kappa_hz']:.6g}")
    if abs(bare.params["eta"] / DEVICE.eta - 1.0) > 1e-6:
        problems.append(f"bare eta {bare.params['eta']:.8f}")

    g_true = 17.24
    span = spectra.detuning_span(DEVICE, g_true, n_points=401)
    mech = calibrate.fit_mechanical_window(
        calibrate.MeasuredSpectrum.from_complex(
            span, model.transmission_curve(DEVICE, g_true, span), absolute_frequency=False
        ),
        DEVICE,
    )
    if abs(mech.params["g_hz"] / g_true - 1.0) > 1e-4:
        problems.append(f"mechanical coupling {mech.params['g_hz']:.6f}")
    if abs(mech.params["gamma_m_hz"] / DEVICE.gamma_m_hz - 1.0) > 1e-4:
        problems.append(f"mechanical damping {mech.params['gamma_m_hz']:.6g}")

    sweep = np.geomspace(5.0, 60.0, 2000)
    inferred = calibrate.infer_critical_from_sweep(
        sweep, np.abs(model.transmission_curve(DEVICE, sweep, 0.0).real) ** 2
    )
    if abs(inferred - GC_HZ) > 0.01:
        problems.append(f"inferred critical coupling {inferred:.4f}")

    # Monte Carlo bias at 30 dB signal-to-noise, complex readout
    g_mc = 23.93
    span_mc = spectra.detuning_span(DEVICE, g_mc, n_points=401)
    clean = model.transmission_curve(DEVICE, g_mc, span_mc)
    level = 10.0 ** (-30.0 / 20.0) / np.sqrt(2.0)
    gs, gammas = [], []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = clean + level * (
            rng.standard_normal(len(clean)) + 1j * rng.standard_normal(len(clean))
        )
        fit = calibrate.fit_mechanical_window(
            calibrate.MeasuredSpectrum.from_complex(
                span_mc, noisy, absolute_frequency=False
            ),
            DEVICE,
        )
        gs.append(fit.params["g_hz"])
        gammas.append(fit.params["gamma_m_hz"])
    bias_g = abs(np.mean(gs) / g_mc - 1.0)
    bias_gamma = abs(np.mean(gammas) / DEVICE.gamma_m_hz - 1.0)
    if bias_g > 0.005:
        problems.append(f"coupling bias {bias_g:.3%}")
    if bias_gamma > 0.005:
        problems.append(f"damping bias {bias_gamma:.3%}")

    elapsed = time.monotonic() - t0
    if elapsed > 120.0:
        problems.append(f"took {elapsed:.1f} s > 120 s")
    _report(
        "calibration roundtrips and noise robustness",
        not problems,
        problems
        or "noiseless roundtrips within tolerance; critical coupling from sweep "
        f"{inferred:.4f} Hz; 100-seed bias g {bias_g:.2%}, damping {bias_gamma:.2%} "
        f"({elapsed:.1f} s)",
    )


def test_response_invariants():
    t0 = time.monotonic()
    rng = np.random.default_rng(20250815)
    problems = []
    over_unity = 0.0
    herm = 0.0
    imag_res = 0.0
    dual = 0.0
    for _ in range(200):
        eta = rng.uniform(0.01, 0.99)
        kappa = 10.0 ** rng.uniform(0.0, 9.0)
        gamma = 10.0 ** rng.uniform(-4.0, 3.0)
        g = 10.0 ** rng.uniform(-3.0, 6.0)
        dev = model.DeviceParams(1e9, 1e6, kappa, eta, gamma)
        delta = rng.normal(0.0, 3.0, 50) * kappa
        t = model.transmission_curve(dev, g, delta)
        over_unity = max(over_unity, float(np.max(np.abs(t))) - 1.0)
        herm = max(
            herm,
            float(np.max(np.abs(model.transmission_curve(dev, g, -delta) - np.conj(t)))),
        )
        t0c = model.transmission_curve(dev, g, np.array([0.0]))[0]
        imag_res = max(imag_res, abs(t0c.imag))
        dual = max(dual, abs(t0c.real - tz_reduced(dev, g)))
    if over_unity > 1e-12:
        problems.append(f"|t| exceeds unity by {over_unity:.2e}")
    if herm > 1e-15:
        problems.append(f"conjugate symmetry broken by {herm:.2e}")
    if imag_res > 1e-18:
        problems.append(f"resonance response not real: {imag_res:.2e}")
    if dual > 1e-12:
        problems.append(f"full vs reduced resonance formula differ by {dual:.2e}")

    mono_ok = True
    sign_ok = True
    for _ in range(100):
        eta = rng.uniform(0.51, 0.99)
        kappa = 10.0 ** rng.uniform(0.0, 9.0)
        gamma = 10.0 ** rng.uniform(-4.0, 3.0)
        dev = model.DeviceParams(1e9, 1e6, kappa, eta, gamma)
        gc = model.critical_coupling(dev)
        g_below = np.geomspace(gc * 1e-3, gc * 0.999, 50)
        g_above = np.geomspace(gc * 1.001, gc * 1e3, 50)
        below = np.abs(model.transmission_curve(dev, g_below, 0.0).real)
        above = np.abs(model.transmission_curve(dev, g_above, 0.0).real)
        if not (np.all(np.diff(below) < 0.0) and np.all(np.diff(above) > 0.0)):
            mono_ok = False
        # advance below G_c, delay above; under gamma_m/2 the mechanical
        # window is not resolved and tau_z has a second sign change
        g = np.concatenate([g_below, g_above])
        resolved = g > gamma / 2.0
        tau = model.group_delay_curve(dev, g[resolved], 0.0)
        if not np.all(np.sign(tau) == np.sign(g[resolved] - gc)):
            sign_ok = False
    if not mono_ok:
        problems.append("resonance dip is not monotone around the critical coupling")
    if not sign_ok:
        problems.append("sign of tau(0) differs from sign(G - G_c)")

    elapsed = time.monotonic() - t0
    if elapsed > 10.0:
        problems.append(f"took {elapsed:.1f} s > 10 s")
    _report(
        "response invariants on random devices",
        not problems,
        problems
        or "passivity, conjugate symmetry, real resonance response, agreement "
        "with the reduced form, dip monotonicity and sign tau(0) = sign(G - G_c) "
        f"hold on 10^4 random draws ({elapsed:.1f} s)",
    )
