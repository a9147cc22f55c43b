"""Unit tests for pulse synthesis, propagation, and delay extraction."""

import math
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import reference_integrators as reference
from mcpa import (
    ParameterError,
    PulseConfig,
    PulseEstimationError,
    PulseWaveform,
    model,
    pulses,
)


def small_config(sigma=1.0, center=10.0, record=30.0, dt=0.1, **kw):
    return PulseConfig(
        sigma_t_s=sigma, center_s=center, record_s=record, dt_s=dt, **kw
    )


# ---------------------------------------------------------------------------
# configuration and synthesis
# ---------------------------------------------------------------------------

def test_pulse_config_validation():
    with pytest.raises(ParameterError):
        small_config(sigma=-1.0)
    with pytest.raises(ParameterError):
        small_config(center=0.0)
    with pytest.raises(ParameterError):
        small_config(record=12.0)  # truncates the 8-sigma tail
    with pytest.raises(ParameterError):
        small_config(dt=0.5)  # undersamples sigma/4
    # the band of the record's transform, the carrier +/- 1/(2 dt), must
    # lie within +/- sqrt(float max), where Delta^2 is a finite float
    limit = math.sqrt(sys.float_info.max)
    assert small_config(carrier_detuning_hz=-0.5 * limit).carrier_detuning_hz == -0.5 * limit
    for carrier in (math.inf, math.nan, 1e155, -1e160):
        with pytest.raises(ParameterError, match="band edge"):
            small_config(carrier_detuning_hz=carrier)
    # a record that is not finite, or whose t^2 summed over its samples
    # overflows (the |envelope|^2 moments; pytest raises their RuntimeWarning)
    for record in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="record_s must be finite"):
            small_config(record=record)
    with pytest.raises(ParameterError, match="overflow"):
        small_config(sigma=1e152, center=1e153, record=2e153, dt=2e153 / 2**16)


def test_gaussian_pulse_samples():
    w = pulses.gaussian_pulse(small_config())
    assert len(w.samples) == 300
    t = w.times_s
    expected = np.exp(-0.5 * ((t - 10.0) / 1.0) ** 2)
    np.testing.assert_array_equal(w.samples.real, expected)
    assert np.all(w.samples.imag == 0.0)
    assert w.t0_s == 0.0 and w.dt_s == 0.1


def test_gaussian_pulse_bandwidth_warning(device):
    # rms bandwidth ~0.159 Hz: far wider than half the pump-off window
    # (gamma_m = 9.7 mHz), well inside half the 1.5 Hz window at G = 400 Hz
    w = pulses.gaussian_pulse(small_config(sigma=1.0))
    assert "bandwidth" in pulses.band_warnings(w, device, 0.0)
    assert "bandwidth" not in pulses.band_warnings(w, device, 400.0)


def test_waveform_validation():
    with pytest.raises(ParameterError):
        PulseWaveform(t0_s=0.0, dt_s=0.1, samples=np.ones(8, dtype=complex))
    with pytest.raises(ParameterError):
        PulseWaveform(
            t0_s=0.0, dt_s=0.1, samples=np.full(32, np.nan, dtype=complex)
        )
    with pytest.raises(ParameterError):
        PulseWaveform(t0_s=0.0, dt_s=-0.1, samples=np.ones(32, dtype=complex))
    for t0 in (math.nan, -math.inf):
        with pytest.raises(ParameterError, match="t0_s"):
            PulseWaveform(t0_s=t0, dt_s=0.1, samples=np.ones(32, dtype=complex))
    # the band of its transform, as for PulseConfig
    for carrier, dt in ((math.inf, 0.1), (-1e160, 0.1), (0.0, 1e-160)):
        with pytest.raises(ParameterError, match="band edge"):
            PulseWaveform(t0_s=0.0, dt_s=dt, samples=np.ones(32), carrier_detuning_hz=carrier)


def test_waveform_accepts_strided_samples():
    samples = np.exp(1j * np.linspace(0.0, 3.0, 64))
    for view in (samples[::-1], samples[::2]):
        w = PulseWaveform(t0_s=0.0, dt_s=0.1, samples=view)
        np.testing.assert_array_equal(w.samples, view)
    bad = samples.copy()
    bad[5] = complex(0.0, np.inf)
    with pytest.raises(ParameterError):
        PulseWaveform(t0_s=0.0, dt_s=0.1, samples=bad[::-1])


def test_waveform_energy():
    w = PulseWaveform(t0_s=0.0, dt_s=0.5, samples=2.0 * np.ones(20, dtype=complex))
    assert w.energy == pytest.approx(4.0 * 20 * 0.5, rel=1e-15)


def test_waveform_rms_sigma_recovers_width():
    cfg = small_config(sigma=1.3, center=15.0, record=40.0, dt=0.05)
    w = pulses.gaussian_pulse(cfg)
    assert pulses.waveform_rms_sigma(w) == pytest.approx(1.3, rel=1e-6)


# ---------------------------------------------------------------------------
# frequency-domain propagation
# ---------------------------------------------------------------------------

def test_propagate_linearity(device):
    w = pulses.gaussian_pulse(small_config())
    out1 = pulses.propagate(w, device, 23.93)
    doubled = PulseWaveform(
        t0_s=w.t0_s, dt_s=w.dt_s, samples=2.0 * w.samples
    )
    out2 = pulses.propagate(doubled, device, 23.93)
    # scaling by a power of two is exact in floating point end to end
    np.testing.assert_array_equal(out2.samples, 2.0 * out1.samples)
    scaled = PulseWaveform(t0_s=w.t0_s, dt_s=w.dt_s, samples=0.37 * w.samples)
    out3 = pulses.propagate(scaled, device, 23.93)
    np.testing.assert_allclose(out3.samples, 0.37 * out1.samples, rtol=0, atol=1e-14)


def test_propagate_passive(device):
    cfg = pulses.delay_pulse_config(device, 23.93, n_samples=1024)
    w = pulses.gaussian_pulse(cfg)
    out = pulses.propagate(w, device, 23.93)
    assert out.energy <= w.energy * (1.0 + 1e-12)


def test_propagate_pump_off_matches_bare_level(device):
    # narrowband pulse at resonance, pump off: the envelope is scaled by
    # the bare-cavity response 1 - 2 eta and barely reshaped
    cfg = small_config(sigma=1e-3, center=1e-2, record=3e-2, dt=1e-4)
    w = pulses.gaussian_pulse(cfg)
    out = pulses.propagate(w, device, 0.0)
    peak_in = np.abs(w.samples).max()
    i = int(np.argmax(np.abs(out.samples)))
    ratio = out.samples[i] / peak_in
    assert ratio.real == pytest.approx(1.0 - 2.0 * device.eta, rel=1e-2)
    assert abs(ratio.imag) < 2e-2


def test_propagate_singular_band_warning(device):
    gc = model.critical_coupling(device)
    cfg = pulses.delay_pulse_config(device, gc, n_samples=1024)
    w = pulses.gaussian_pulse(cfg)
    assert "singular-band" in pulses.band_warnings(w, device, gc)


def _n_point_band_rule(w, params, g):
    """The band check on every bin of the input's own n-point spectrum: an
    oracle for `band_warnings`, which evaluates the kernel on the band alone."""
    tags = []
    rms_bandwidth = 1.0 / (2.0 * math.pi * pulses.waveform_rms_sigma(w))
    if rms_bandwidth > 0.5 * model.effective_window_hz(params, g):
        tags.append("bandwidth")
    x = np.abs(np.fft.fft(w.samples))
    f = np.fft.fftfreq(len(x), w.dt_s)
    h = np.abs(model.transmission_curve(params, g, w.carrier_detuning_hz + f))
    if np.any(h[x > 1e-3 * x.max()] < pulses.SINGULAR_BAND_TOL):
        tags.append("singular-band")
    return tuple(tags)


def test_band_warnings_match_the_n_point_band_rule(device):
    gc = model.critical_coupling(device)
    cases = [
        (pulses.delay_pulse_config(device, g, carrier_detuning_hz=carrier, n_samples=1024), g)
        for g in (0.5 * gc, gc, 155.1)
        for carrier in (0.0, 0.003)
    ]
    # about twice as wide in band as the 0.24 Hz window at 155.1 Hz
    cases.append(
        (small_config(sigma=0.33, center=3.0, record=6.0, dt=0.01, carrier_detuning_hz=0.003), 155.1)
    )
    # 1.01 G_c at -10 mHz with half-window probes sits at the edge of the
    # bandwidth rule; n = 1000 is no power of two
    for ratio in (1.0, 1.01, 8.84):
        for carrier in (0.0, -1e-2):
            for fraction in (1.0 / 32.0, 0.5):
                for n in (256, 1000):
                    cfg = pulses.delay_pulse_config(
                        device, ratio * gc, carrier_detuning_hz=carrier,
                        bandwidth_fraction=fraction, n_samples=n,
                    )
                    cases += [(cfg, ratio * gc), (cfg, 0.0)]
    seen = set()
    for cfg, g in cases:
        w = pulses.gaussian_pulse(cfg)
        expected = _n_point_band_rule(w, device, g)
        assert pulses.band_warnings(w, device, g) == expected
        seen.update(expected)
    assert seen == {"bandwidth", "singular-band"}


def test_band_warnings_of_a_waveform_without_energy(device):
    w = PulseWaveform(t0_s=0.0, dt_s=0.5, samples=np.zeros(32, dtype=complex))
    assert pulses.band_warnings(w, device, model.critical_coupling(device)) == ()


@pytest.mark.parametrize("n", [256, 1000])
def test_propagate_is_the_padded_product(device, n):
    # bit for bit, so that the `pulse` command's CSVs stay byte-identical
    cfg = pulses.delay_pulse_config(device, 23.93, carrier_detuning_hz=1e-3, n_samples=n)
    w = pulses.gaussian_pulse(cfg)
    m = 1 << math.ceil(math.log2(4 * n))
    x = np.fft.fft(w.samples, m)
    h = model.transmission_curve(device, 23.93, w.carrier_detuning_hz + np.fft.fftfreq(m, w.dt_s))
    expected = np.fft.ifft(x * h)[:n]
    np.testing.assert_array_equal(pulses.propagate(w, device, 23.93).samples, expected)


def test_each_route_call_makes_one_transform(device, monkeypatch):
    n = 1000
    cfg = pulses.delay_pulse_config(device, 23.93, carrier_detuning_hz=1e-3, n_samples=n)
    w = pulses.gaussian_pulse(cfg)
    m = 4096
    x = np.abs(np.fft.fft(w.samples))
    band = int(np.count_nonzero(x > 1e-3 * x.max()))
    log = []

    def counted(name, fn, points):
        def call(*args, **kwargs):
            log.append((name, points(*args)))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft, lambda x, m=None: m or len(x)))
    monkeypatch.setattr(np.fft, "ifft", counted("ifft", np.fft.ifft, len))
    monkeypatch.setattr(
        model, "transmission_curve",
        counted("kernel", model.transmission_curve, lambda p, g, d: np.size(d)),
    )
    pulses.propagate(w, device, 23.93)
    assert log == [("fft", m), ("kernel", m), ("ifft", m)]
    log.clear()
    pulses.integrate_langevin(w, device, 23.93)
    assert log == []
    pulses.band_warnings(w, device, 23.93)
    assert log == [("fft", n), ("kernel", band)]


def test_propagate_preserves_grid(device):
    w = pulses.gaussian_pulse(small_config(carrier_detuning_hz=0.25))
    out = pulses.propagate(w, device, 40.0)
    assert out.t0_s == w.t0_s
    assert out.dt_s == w.dt_s
    assert out.carrier_detuning_hz == 0.25
    assert len(out.samples) == len(w.samples)


# ---------------------------------------------------------------------------
# time-domain propagation
# ---------------------------------------------------------------------------

def test_exact_integrator_matches_fft_route(device):
    cfg = pulses.delay_pulse_config(device, 40.0, n_samples=2048)
    w = pulses.gaussian_pulse(cfg)
    a = pulses.propagate(w, device, 40.0)
    b = pulses.integrate_langevin(w, device, 40.0)
    scale = np.abs(a.samples).max()
    assert np.max(np.abs(a.samples - b.samples)) < 1e-3 * scale


@pytest.mark.parametrize("g", [1e100, 1.34e154])
def test_integrate_langevin_refuses_a_step_whose_phase_is_lost(device, g):
    # at dt = 1 s the coupling turns the modes by 2 pi G dt radians per
    # step, far past 1/eps, where the exact step's doublings amplify
    # rounding until the output overflows: a ParameterError on the input
    t = np.arange(64.0)
    w = PulseWaveform(t0_s=0.0, dt_s=1.0, samples=np.exp(-0.5 * ((t - 32.0) / 6.0) ** 2))
    with pytest.raises(ParameterError, match=r"G dt = \S+ exceeds 7\.1677e\+14"):
        pulses.integrate_langevin(w, device, g)


def _reference_output(w, params, g, integrator, *args, initial_state=(0j, 0j)):
    """s_in - sqrt(eta*kappa) a from one of the reference integrators."""
    a_mat, b_vec = pulses._system_matrix(params, g, w.carrier_detuning_hz)
    a = integrator(a_mat, b_vec, w.dt_s, w.samples, initial_state, *args)
    return w.samples - math.sqrt(params.eta * 2.0 * math.pi * params.kappa_hz) * a


def _lifted_output(w, params, g, step, initial_state=(0j, 0j)):
    """s_in - sqrt(eta*kappa) a from the package's step at every `step`-th
    sample (`pulses._stepped`, but from any initial state)."""
    a_mat, b_vec = pulses._system_matrix(params, g, w.carrier_detuning_hz)
    a = pulses._integrate(a_mat, b_vec, w.dt_s, w.samples, initial_state, step)
    return w.samples[::step] - math.sqrt(params.eta * 2.0 * math.pi * params.kappa_hz) * a


def test_rk4_matches_exact_on_mild_system(toy_device):
    cfg = small_config(sigma=2.0, center=14.0, record=60.0, dt=0.05)
    w = pulses.gaussian_pulse(cfg)
    exact = pulses.integrate_langevin(w, toy_device, 0.8)
    dt_int = 0.05 / (2.0 * math.pi * toy_device.kappa_hz)
    rk4 = _reference_output(w, toy_device, 0.8, reference.rk4, dt_int)
    scale = np.abs(exact.samples).max()
    assert np.max(np.abs(exact.samples - rk4)) < 1e-6 * scale


def test_rk4_decay_rate(toy_device):
    # the RK4 reference itself, pump off, no drive, cavity loaded with one
    # unit of field: |a| must decay at exactly kappa/2 (angular)
    n = 64
    dt = 0.01
    w = PulseWaveform(t0_s=0.0, dt_s=dt, samples=np.zeros(n, dtype=complex))
    dt_int = 0.05 / (2.0 * math.pi * toy_device.kappa_hz)
    out = _reference_output(
        w, toy_device, 0.0, reference.rk4, dt_int, initial_state=(1.0 + 0.0j, 0.0j)
    )
    root = math.sqrt(toy_device.eta * 2.0 * math.pi * toy_device.kappa_hz)
    a_mag = np.abs(out / -root)
    slope = np.polyfit(w.times_s, np.log(a_mag), 1)[0]
    assert slope == pytest.approx(-math.pi * toy_device.kappa_hz, rel=1e-6)


def test_exact_integrator_free_decay_matches_expm(device):
    n = 40
    dt = 3e-6
    w = PulseWaveform(t0_s=0.0, dt_s=dt, samples=np.zeros(n, dtype=complex))
    x0 = np.array([1.0, 0.25j])
    out = _lifted_output(w, device, 23.93, 1, initial_state=x0)
    a_mat, _ = pulses._system_matrix(device, 23.93, 0.0)
    root = math.sqrt(device.eta * 2.0 * math.pi * device.kappa_hz)
    for k in (0, 1, 7, 39):
        a_k = (scipy.linalg.expm(a_mat * (k * dt)) @ x0)[0]
        assert complex(out[k]) == pytest.approx(-root * a_k, rel=1e-10)


def test_zero_input_zero_state_stays_zero(device):
    w = PulseWaveform(t0_s=0.0, dt_s=0.5, samples=np.zeros(32, dtype=complex))
    out = pulses.integrate_langevin(w, device, 23.93)
    assert np.all(out.samples == 0.0)


# F = e^(Ah) - I, P and Q of the one-sample step, frozen from a 50-digit
# evaluation of e^M - I for the augmented M = [[Ah, Bh, 0], [0, 0, h],
# [0, 0, 0]] (mpmath's expm, which agreed with a 90-digit one to 1e-48),
# done independently of the package code, on the float inputs below:
# the reference device near G_c at the benchmark's step (n = 20 doublings),
# and, with n = 0, the exceptional point at h = 1e-7 and a mild system
# driven in both modes
FOH_ORACLE = {
    "near-critical": (
        [[-1.000000006988062 + 0j, -8.309699642742922e-05j],
         [-8.309699642742922e-05j, -0.011870400717410598 + 0j]],
        [-1.3768691478776552e-06 + 0j, -0.01640257674131132j],
        [0.0009919708916821589 + 0j, -0.016467913289745107j],
    ),
    "exceptional-point": (
        [[-0.12560569578328346 + 0j, -0.06176141725460266j],
         [-0.06176141725460266j, -0.0020828612740781387 + 0j]],
        [5.9979482787774456e-05 + 0j, -2.7434662423587936e-06j],
        [6.272294909454968e-05 + 0j, -1.3945827356476042e-06j],
    ),
    "mild": (
        [[-0.09575371035223439 + 0.02713800478923823j,
          0.00018244792201110822 - 0.01855343160802161j],
         [0.00018244792201110822 - 0.01855343160802161j,
          -0.04900523548815814 - 0.00951273862177722j]],
        [0.06105743534545988 + 0.0012079644521425694j,
         0.00013447591369284017 + 0.01852398057436441j],
        [0.0630082224296935 + 0.0006190369904631626j,
         6.70765619378392e-05 + 0.019252556391830804j],
    ),
}


@pytest.mark.parametrize("case", list(FOH_ORACLE))
def test_foh_propagator_matches_50_digit_exponential(device, case):
    if case == "near-critical":
        (a_mat, b_vec), h = pulses._system_matrix(device, 17.66, 0.0), 0.3
    elif case == "exceptional-point":
        g_ep = (device.kappa_hz - device.gamma_m_hz) / 4.0
        (a_mat, b_vec), h = pulses._system_matrix(device, g_ep, 0.0), 1e-7
    else:
        a_mat = np.array([[-1.0 + 0.3j, -0.2j], [-0.2j, -0.5 - 0.1j]])
        b_vec, h = np.array([1.3 + 0.0j, 0.4j]), 0.1
    f_mat, p, q = pulses._foh_propagator(a_mat, b_vec, h)
    want_f, want_p, want_q = (np.array(v) for v in FOH_ORACLE[case])

    def parts(z):
        return np.concatenate((np.real(z).ravel(), np.imag(z).ravel()))

    # entry by entry, real and imaginary parts apart: 2e-15 relative
    # (about 10 ulps), and a floor of 1e-300 that leaves the exact zeros of
    # the oracle (real and imaginary blocks at zero detuning) no slack. P =
    # j0 - Q cancels digits of the hold integral j0 = P + Q, so its bound
    # scales with |P| + |Q|
    for got, want, scale in (
        (f_mat, want_f, np.abs(parts(want_f))),
        (q, want_q, np.abs(parts(want_q))),
        (p, want_p, np.abs(parts(want_p)) + np.abs(parts(want_q))),
    ):
        assert got.shape == want.shape
        assert np.all(np.abs(parts(got) - parts(want)) <= 2e-15 * np.maximum(scale, 1e-300))


def test_foh_fallback_matches_eigen_step():
    rng = np.random.default_rng(11)
    a_mat = np.array([[-1.0 + 0.3j, -0.2j], [-0.2j, -0.5 - 0.1j]])
    b_vec = np.array([1.3 + 0.0j, 0.0j])
    h = 0.37
    mu, alpha, beta, v = reference.eigen_step(a_mat, b_vec, h)
    f_mat, av, bv = pulses._foh_propagator(a_mat, b_vec, h)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    s0, s1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    via_eigen = v @ (mu * np.linalg.solve(v, z) + alpha * s0 + beta * s1)
    via_expm = z + f_mat @ z + av * s0 + bv * s1
    np.testing.assert_allclose(via_eigen, via_expm, rtol=1e-12)
    # the single path: the same step as one banded solve over a whole record
    s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    single = pulses._integrate(a_mat, b_vec, h, s, z, 1)
    np.testing.assert_allclose(single, reference.eigen(a_mat, b_vec, h, s, z), rtol=1e-12)


def test_single_path_matches_eigen_reference_near_critical(device):
    # near G_c the output is a small difference amplified by 1/|t|, and the
    # step spans kappa/gamma_m ~ 4e7 in rates: the exact step must keep the
    # slow mechanical decay to full precision for the two routes to agree,
    # at every sample and lifted to every 128th
    for g in (17.66, 1.04 * model.critical_coupling(device), 23.93):
        cfg = pulses.delay_pulse_config(device, g, n_samples=1024)
        w = pulses.gaussian_pulse(cfg)
        eigen = _reference_output(w, device, g, reference.eigen)
        for step in (1, 128):
            single = pulses._stepped(w, device, g, step)
            assert np.max(np.abs(single - eigen[::step])) < 1e-11 * np.abs(eigen[::step]).max()


def test_exceptional_point_matches_reference(device):
    # G = (kappa - gamma_m)/4 at zero detuning: the two eigenvalues coincide
    # and A is defective, so the eigenbasis reference refuses; the
    # per-sample expm loop does not need an eigenbasis
    g_ep = (device.kappa_hz - device.gamma_m_hz) / 4.0
    a_mat, b_vec = pulses._system_matrix(device, g_ep, 0.0)
    with pytest.raises(ValueError):
        reference.eigen_step(a_mat, b_vec, 1e-7)
    cfg = small_config(sigma=8e-6, center=40e-6, record=204.8e-6, dt=1e-7)
    w = pulses.gaussian_pulse(cfg)
    for x0 in ((0j, 0j), (1.0 + 0.0j, 0.25j)):
        ref = _reference_output(w, device, g_ep, reference.expm_loop, initial_state=x0)
        for step in (1, 128):  # every sample, and lifted to every 128th
            out = _lifted_output(w, device, g_ep, step, initial_state=x0)
            assert np.max(np.abs(out - ref[::step])) < 1e-10 * np.abs(ref[::step]).max()


def test_lifted_step_matches_full_rate_recurrence(device):
    # every L-th sample of the lifted step against the one-sample step run
    # at every sample: across G_c, at the exceptional point, off the
    # carrier, and for records of 2^15 and 3 * 2^10 samples
    gc = model.critical_coupling(device)
    couplings = [r * gc for r in (0.0, 0.5, 0.97, 1.0, 1.03, 2.0, 8.84)]
    couplings.append((device.kappa_hz - device.gamma_m_hz) / 4.0)
    for n in (2**15, 3 * 2**10):
        for carrier in (0.0, 0.003, -0.003):
            w = pulses.gaussian_pulse(_curve_config(device, 0.5 * gc, carrier, samples=n))
            for g in couplings:
                full = _reference_output(w, device, g, reference.recurrence)
                bound = 1e-11 * np.abs(full).max()
                for step in (1, 8, 128):
                    lifted = pulses._stepped(w, device, g, step)
                    assert len(lifted) == len(full[::step])
                    assert np.max(np.abs(lifted - full[::step])) < bound, (n, carrier, g, step)


def test_phi_helpers_branch_agreement():
    # series branch (|x| < 0.5) and direct branch must agree where they meet
    for x in (0.4999, -0.4999, 0.4999j, 0.3 - 0.39j):
        p1s, p2s = reference.phi12(x)
        ex = np.exp(complex(x))
        assert p1s == pytest.approx((ex - 1.0) / x, rel=1e-12)
        assert p2s == pytest.approx((ex - 1.0 - x) / (x * x), rel=1e-12)
    p1, p2 = reference.phi12(0.0)
    assert p1 == 1.0
    assert p2 == 0.5


# ---------------------------------------------------------------------------
# steady state
# ---------------------------------------------------------------------------

def test_cw_response_matches_closed_form(device):
    for g in (0.0, 11.87, 23.93, 155.1):
        for d in (0.0, 0.004, -3.7, 2.1e5):
            closed = model.transmission_curve(device, g, d)
            stepped = reference.cw_response(device, g, d)
            assert abs(stepped - complex(closed)) < 1e-10 * abs(complex(closed))


def test_cw_response_rk4_on_mild_system(toy_device):
    # constant unit drive, RK4 reference stepped through 320 slow time
    # constants so every transient has decayed
    closed = complex(model.transmission_curve(toy_device, 0.8, 0.3))
    a_mat, b_vec = pulses._system_matrix(toy_device, 0.8, 0.3)
    eig = np.linalg.eigvals(a_mat)
    dt_int = 0.05 / max(np.abs(eig).max(), 2.0 * math.pi * toy_device.kappa_hz)
    n = int(math.ceil(320.0 / np.min(-eig.real) / dt_int))
    w = PulseWaveform(
        t0_s=0.0, dt_s=dt_int, samples=np.ones(n, dtype=complex), carrier_detuning_hz=0.3
    )
    stepped = _reference_output(w, toy_device, 0.8, reference.rk4, dt_int)[-1]
    assert abs(stepped - closed) < 1e-6 * abs(closed)


# ---------------------------------------------------------------------------
# arrival times and delay extraction
# ---------------------------------------------------------------------------

def test_center_time_clean_gaussian():
    cfg = small_config(sigma=1.0, center=12.0, record=30.0, dt=0.01)
    w = pulses.gaussian_pulse(cfg)
    est = pulses.center_time_estimates(w)
    assert est.centroid_s == pytest.approx(12.0, abs=1e-6)
    assert est.gaussian_center_s == pytest.approx(12.0, abs=1e-6)
    assert est.gaussian_sigma_s == pytest.approx(1.0, rel=1e-3)
    assert not est.distorted
    assert pulses.center_time(w) == est.centroid_s


def test_center_time_rejects_multi_lobe():
    t = 0.05 * np.arange(1200)

    def lobe(center, height):
        return height * np.exp(-0.5 * ((t - center) / 1.5) ** 2)

    # second lobes of height and prominence 0.8 and 0.4 of the peak
    for env in (lobe(20.0, 1.0) + lobe(40.0, 0.8), lobe(20.0, 1.0) + lobe(32.0, 0.4)):
        w = PulseWaveform(t0_s=0.0, dt_s=0.05, samples=env.astype(complex))
        with pytest.raises(PulseEstimationError):
            pulses.center_time(w)
        with pytest.raises(PulseEstimationError):
            pulses.center_time_estimates(w)
    # a shoulder of height 0.5 on a 0.3 pedestal has prominence 0.2: one lobe
    pedestal = 0.15 * (np.tanh((t - 14.0) / 0.5) - np.tanh((t - 38.0) / 0.5))
    env = lobe(20.0, 0.7) + pedestal + lobe(30.0, 0.2)
    w = PulseWaveform(t0_s=0.0, dt_s=0.05, samples=env.astype(complex))
    power = env * env
    assert pulses.center_time(w) == pytest.approx((t * power).sum() / power.sum(), rel=1e-12)


def test_center_time_of_flat_top_needs_no_gaussian_fit():
    # the centroid is defined for any single lobe; only the opt-in Gaussian
    # cross-check needs curvature at the peak
    env = np.zeros(400)
    env[150:250] = 1.0
    w = PulseWaveform(t0_s=0.0, dt_s=0.1, samples=env.astype(complex))
    assert pulses.center_time(w) == pytest.approx(19.95, rel=1e-12)
    with pytest.raises(PulseEstimationError, match="curvature"):
        pulses.center_time_estimates(w)


def test_center_time_rejects_empty():
    w = PulseWaveform(t0_s=0.0, dt_s=0.1, samples=np.zeros(32, dtype=complex))
    with pytest.raises(PulseEstimationError):
        pulses.center_time_estimates(w)


def test_center_time_flags_clipped_pulse():
    # truncate a Gaussian one sigma past its peak: the centroid slides off
    # the fitted center and the distortion flag must trip
    t = 0.02 * np.arange(800)
    env = np.exp(-0.5 * ((t - 15.0) / 1.0) ** 2)
    env[t > 16.0] = 0.0
    w = PulseWaveform(t0_s=0.0, dt_s=0.02, samples=env.astype(complex))
    est = pulses.center_time_estimates(w)
    assert est.distorted


@pytest.mark.parametrize("step", [8, 128])
def test_lifted_step_on_short_records(device, step):
    # the fewest lifted rows: records of L + 1 to 3L + 1 samples (below
    # 3L + 1 the second-order recurrence had no rows to solve), from a
    # loaded state, at the benchmark's step and at one where the cavity
    # field outlives a sample
    gc = model.critical_coupling(device)
    x0 = (0.3 - 0.2j, -0.1 + 0.4j)
    rng = np.random.default_rng(11)
    for h in (_curve_config(device, 0.5 * gc, samples=2**15).dt_s, 1e-7):
        for g in (0.0, gc, 2.0 * gc, (device.kappa_hz - device.gamma_m_hz) / 4.0):
            a_mat, b_vec = pulses._system_matrix(device, g, 0.0)
            for n in (step + 1, 2 * step, 2 * step + 1, 3 * step, 3 * step + 1):
                s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                full = reference.recurrence(a_mat, b_vec, h, s, x0)[::step]
                lifted = pulses._integrate(a_mat, b_vec, h, s, x0, step)
                assert len(lifted) == len(full)
                assert np.max(np.abs(lifted - full)) <= 1e-12 * np.abs(full).max(), (h, g, n)


# ---------------------------------------------------------------------------
# sized delay measurements
# ---------------------------------------------------------------------------

def test_delay_pulse_config_sizing(device):
    cfg = pulses.delay_pulse_config(device, 23.93, n_samples=2048)
    w_hz = model.effective_window_hz(device, 23.93)
    assert cfg.sigma_t_s == pytest.approx(
        32.0 / (2.0 * math.pi * w_hz), rel=1e-12
    )
    assert cfg.dt_s == pytest.approx(cfg.record_s / 2048, rel=1e-12)
    # delay side: tail padding beyond the mandatory 8 sigma
    assert cfg.record_s > cfg.center_s + 8.0 * cfg.sigma_t_s
    # advance side: the lead carries the padding instead
    adv = pulses.delay_pulse_config(device, 11.87, n_samples=2048)
    assert adv.center_s > 8.0 * adv.sigma_t_s


def test_delay_pulse_config_fraction_validation(device):
    with pytest.raises(ParameterError):
        pulses.delay_pulse_config(device, 23.93, bandwidth_fraction=0.0)
    with pytest.raises(ParameterError):
        pulses.delay_pulse_config(device, 23.93, bandwidth_fraction=0.8)
    # 1e-308 made the record inf (a traceback from the sampling rule); at
    # 1e-300 the probe's moments overflowed into a wrong delay
    for fraction in (1e-308, 1e-300):
        with pytest.raises(ParameterError, match="record"):
            pulses.delay_pulse_config(device, 155.1, bandwidth_fraction=fraction)


def test_delay_pulse_config_refuses_detunings_out_of_float_range(device):
    # the probe's bins sit near carrier +/- 1/(2 dt), about 25 effective
    # windows at 4096 samples; beyond sqrt(float max) Delta^2 overflowed in
    # the kernel (a RuntimeWarning), and at 1e154 Hz the window itself did
    # ("sigma_t_s must be positive, got 0.0")
    for g in (1e80, 1e100, 1e154):
        with pytest.raises(ParameterError, match="1.34078e\\+154"):
            pulses.delay_pulse_config(device, g)
    for carrier in (1e300, math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError, match="carrier_detuning_hz"):
            pulses.delay_pulse_config(device, 20.0, carrier_detuning_hz=carrier)
    cfg = pulses.delay_pulse_config(device, 1e76)
    assert abs(cfg.carrier_detuning_hz) + 0.5 / cfg.dt_s < math.sqrt(sys.float_info.max)


def test_delay_pulse_config_refuses_a_delay_below_the_records_rounding(device):
    # at 155.1 Hz (delay 1.758 s) a fraction of 1e-14 gave 1.7506 s, 1e-16
    # gave 2.2013 s and 1e-20 gave -3167 s: rounding noise of the centroids,
    # about eps * record, passed as the delay
    tau = float(model.group_delay_curve(device, 155.1, 0.0))
    for fraction in (pulses.DELAY_BANDWIDTH_FRACTION, 1e-8):
        cfg = pulses.delay_pulse_config(device, 155.1, bandwidth_fraction=fraction)
        assert math.ulp(1.0) * cfg.record_s <= 1e-3 * tau
        assert pulses.extract_delay(device, 155.1, cfg) == pytest.approx(tau, rel=1e-2)
    for fraction in (1e-14, 1e-16, 1e-20):
        with pytest.raises(ParameterError, match="rounding"):
            pulses.delay_pulse_config(device, 155.1, bandwidth_fraction=fraction)
    # no finite delay to compare with at the critical coupling: no refusal
    gc = model.critical_coupling(device)
    assert math.isnan(float(model.group_delay_curve(device, gc, 0.0)))
    assert pulses.delay_pulse_config(device, gc, bandwidth_fraction=1e-14).record_s > 1e15


def test_extract_delay_route_consistency(device):
    cfg = pulses.delay_pulse_config(device, 155.1, n_samples=1024)
    tau_fft = pulses.extract_delay(device, 155.1, cfg, method="fft")
    tau_ode = pulses.extract_delay(device, 155.1, cfg, method="ode")
    analytic = float(model.group_delay_curve(device, 155.1, 0.0))
    assert tau_fft > 0.0
    assert abs(tau_fft - tau_ode) < 0.01 * abs(analytic)
    assert tau_fft == pytest.approx(analytic, rel=0.05)


def test_extract_delay_checks_the_couplings_once(device, monkeypatch):
    # one coupling or many: one validation of the couplings per call; the
    # ode route calls no kernel, the fft route's kernel checks each one
    cfg = pulses.delay_pulse_config(device, 155.1, n_samples=1024)
    calls = []
    check = model._g_hz

    def counted(coupling):
        calls.append(np.shape(coupling))
        return check(coupling)

    monkeypatch.setattr(model, "_g_hz", counted)
    for method in ("ode", "fft"):
        pulses.extract_delay(device, 155.1, cfg, method=method)  # warm caches
    for couplings in (155.1, np.array([150.0, 155.1, 160.0])):
        calls.clear()
        pulses.extract_delay(device, couplings, cfg, method="ode")
        assert calls == [np.shape(couplings)]
        calls.clear()
        pulses.extract_delay(device, couplings, cfg, method="fft")
        assert calls == [np.shape(couplings)] + [()] * np.size(couplings)
    with pytest.raises(ParameterError):
        pulses.extract_delay(device, [155.1, -1.0], cfg)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0.0, float("-inf"))])
def test_extract_delay_refuses_a_non_finite_output(device, monkeypatch, bad):
    # either route's output is timed without a waveform around it: a
    # non-finite sample still ends in the waveform check's error
    cfg = pulses.delay_pulse_config(device, 155.1, n_samples=1024)
    for method, route in (("fft", "_spectral_product"), ("ode", "_stepped")):
        run = getattr(pulses, route)

        def broken(*args, run=run):
            out = run(*args).copy()
            out[len(out) // 2] = bad
            return out

        monkeypatch.setattr(pulses, route, broken)
        with pytest.raises(ParameterError, match="samples must be finite"):
            pulses.extract_delay(device, 155.1, cfg, method=method)


def test_extract_delay_unknown_method(device):
    cfg = pulses.delay_pulse_config(device, 155.1, n_samples=1024)
    with pytest.raises(ParameterError):
        pulses.extract_delay(device, 155.1, cfg, method="centroid")


# ---------------------------------------------------------------------------
# delay curves and the band-averaged oracle
# ---------------------------------------------------------------------------

def _curve_config(device, g_min, carrier_detuning_hz=0.0, samples=2**14):
    """One probe for a whole curve, at 2^14 samples unless told otherwise:
    rms bandwidth 1/32 of the narrowest window, centered in a 20-sigma
    record."""
    sigma = 32.0 / (2.0 * math.pi * model.effective_window_hz(device, g_min))
    return small_config(sigma=sigma, center=10.0 * sigma, record=20.0 * sigma,
                        dt=20.0 * sigma / samples, carrier_detuning_hz=carrier_detuning_hz)


def test_delay_curve_matches_band_averaged_delay(device):
    gc = model.critical_coupling(device)
    g = np.array([0.5, 0.9, 0.96, 1.04, 1.1, 2.0]) * gc
    for carrier in (0.0, 0.003):
        cfg = _curve_config(device, g[0], carrier)
        oracle = pulses.band_averaged_delay(device, g, cfg)
        assert oracle.shape == g.shape and np.all(np.isfinite(oracle))
        fft = pulses.extract_delay(device, g, cfg)
        np.testing.assert_allclose(fft, oracle, rtol=1e-12, atol=0)
        ode = pulses.extract_delay(device, g, cfg, method="ode")
        np.testing.assert_allclose(ode, oracle, rtol=1e-5, atol=0)
    # one coupling in, one float out: the array's entry at that coupling
    single = pulses.extract_delay(device, g[4], cfg, method="ode")
    assert isinstance(single, float)
    assert single == pytest.approx(ode[4], rel=1e-14)
    assert pulses.band_averaged_delay(device, g[4], cfg) == pytest.approx(oracle[4], rel=1e-14)
    # near G_c / 10 the delay is under 1e-3 of the probe width; it keeps its
    # digits because both arrivals are timed from the probe's center
    g = np.array([0.1, 0.12]) * gc
    for carrier in (0.0, 0.003):
        cfg = _curve_config(device, g[0], carrier)
        oracle = pulses.band_averaged_delay(device, g, cfg)
        np.testing.assert_allclose(pulses.extract_delay(device, g, cfg), oracle, rtol=1e-12, atol=0)


def test_delay_curve_two_lobes_where_band_average_is_finite(device):
    # at 0.985 G_c the probe comes out in two comparable lobes: no arrival
    # time exists, but the power-weighted mean delay does
    gc = model.critical_coupling(device)
    cfg = _curve_config(device, 0.5 * gc)
    for method in ("fft", "ode"):
        pulses.extract_delay(device, 0.5 * gc, cfg, method=method)  # warm caches
        for _ in range(2):  # a refusal is never cached: every call raises it
            with pytest.raises(PulseEstimationError, match="lobes"):
                pulses.extract_delay(device, 0.985 * gc, cfg, method=method)
    oracle = pulses.band_averaged_delay(device, 0.985 * gc, cfg)
    assert math.isfinite(oracle) and oracle < 0.0


# ---------------------------------------------------------------------------
# the probe and pump-off caches
# ---------------------------------------------------------------------------

def _clear_caches():
    pulses._probe.cache_clear()
    pulses._pump_off_arrival.cache_clear()


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.mark.parametrize("method", ["fft", "ode"])
def test_delays_same_with_warm_and_cleared_caches(device, method):
    gc = model.critical_coupling(device)
    g = np.array([0.5, 1.1, 2.0]) * gc
    cfg = _curve_config(device, g[0])
    runs = []
    for _ in range(2):
        _clear_caches()
        for _ in range(2):  # cold, then warm
            runs.append(_hex(pulses.extract_delay(device, g, cfg, method=method)))
            runs.append(_hex([pulses.extract_delay(device, gi, cfg, method=method) for gi in g]))
    assert all(run == runs[0] for run in runs)


def test_warm_caches_keep_devices_probes_and_routes_apart(device):
    gc = model.critical_coupling(device)
    cfg = _curve_config(device, 0.5 * gc)
    cases = [
        (device, cfg, "fft"),
        (replace(device, gamma_m_hz=1.2 * device.gamma_m_hz), cfg, "fft"),
        (device, _curve_config(device, 0.5 * gc, 0.003), "fft"),
        (device, cfg, "ode"),
    ]
    uncached = []
    for params, config, method in cases:
        _clear_caches()
        uncached.append(pulses.extract_delay(params, 2.0 * gc, config, method=method).hex())
    assert len(set(uncached)) == len(cases)
    for _ in range(2):  # every case after every other, on warm caches
        for (params, config, method), expected in zip(cases, uncached):
            assert pulses.extract_delay(params, 2.0 * gc, config, method=method).hex() == expected


def test_cached_probe_is_read_only():
    cfg = small_config()
    probe = pulses._probe(cfg)
    assert pulses._probe(cfg).x is probe.x
    for array in (probe.pulse.samples, probe.x, probe.f):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


# ---------------------------------------------------------------------------
# the fft delay path on the probe's band
# ---------------------------------------------------------------------------

def _full_rate_delays(device, g, cfg, method="fft"):
    """Delays timed at every sample of the record, from `propagate` (which
    keeps the full m-point product) or from the one-sample step run at every
    sample (`reference.recurrence`), with both arrivals timed from the
    probe's center as `extract_delay` times them."""
    pulse = pulses.gaussian_pulse(cfg)

    def arrival(coupling):
        if method == "fft":
            out = pulses.propagate(pulse, device, coupling).samples
        else:
            out = _reference_output(pulse, device, coupling, reference.recurrence)
        return pulses.center_time(PulseWaveform(t0_s=-cfg.center_s, dt_s=pulse.dt_s, samples=out))

    pump_off = arrival(0.0)
    return np.array([arrival(gi) - pump_off for gi in g])


def test_band_route_matches_full_rate_route(device):
    gc = model.critical_coupling(device)
    g = np.array([0.5, 1.1, 2.0]) * gc
    for carrier in (0.0, 0.003, -0.003):
        cfg = _curve_config(device, g[0], carrier)
        probe = pulses._probe(cfg)
        assert probe.step > 1 and len(probe.x) < probe.points
        band, full = pulses.extract_delay(device, g, cfg), _full_rate_delays(device, g, cfg)
        np.testing.assert_allclose(band, full, rtol=1e-13, atol=0)
    # an odd sample count: the band, at every sample (L = 1)
    cfg = _curve_config(device, g[0], samples=2**12 + 1)
    probe = pulses._probe(cfg)
    assert probe.step == 1 and len(probe.x) < probe.points
    band, full = pulses.extract_delay(device, g, cfg), _full_rate_delays(device, g, cfg)
    np.testing.assert_allclose(band, full, rtol=1e-13, atol=0)


@pytest.mark.parametrize("center_sigmas", [2.0, 6.0])
def test_truncated_probe_falls_back_to_every_bin(device, center_sigmas):
    # the record start cuts the probe: its power leaks into every bin, so
    # the band is every bin at L = 1, the full-rate product itself
    gc = model.critical_coupling(device)
    g = np.array([1.1, 2.0]) * gc
    cfg = _curve_config(device, 0.5 * gc)
    cfg = replace(cfg, center_s=center_sigmas * cfg.sigma_t_s)
    probe = pulses._probe(cfg)
    assert probe.step == 1 and len(probe.x) == probe.points
    assert _hex(pulses.extract_delay(device, g, cfg)) == _hex(_full_rate_delays(device, g, cfg))


def test_fft_delay_evaluates_the_kernel_on_the_band_only(device, monkeypatch):
    # the probe of a benchmark curve: 2^15 samples, 2^17 padded bins
    gc = model.critical_coupling(device)
    g = np.array([0.5, 1.1, 2.0]) * gc
    cfg = _curve_config(device, g[0], samples=2**15)
    _clear_caches()
    points = []
    kernel = model.transmission_curve

    def counted(params, coupling, detuning_hz):
        points.append(np.size(detuning_hz))
        return kernel(params, coupling, detuning_hz)

    monkeypatch.setattr(model, "transmission_curve", counted)
    pulses.extract_delay(device, g, cfg)
    probe = pulses._probe(cfg)
    band = len(probe.x)  # 2 K + 1 bins
    assert len(points) == len(g) + 1  # the pump-off reference, then each coupling
    assert max(points) <= band < 0.01 * probe.points * probe.step



# ---------------------------------------------------------------------------
# the ode delay path on the probe's decimated grid
# ---------------------------------------------------------------------------

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_ode_delays_match_full_rate_recurrence(device, monkeypatch):
    # the benchmark's curves (2^15 samples, L = 128): the lifted route
    # against the one-sample step timed at every sample of the record
    monkeypatch.syspath_prepend(BENCH)
    import inputs

    for seed in (1, 2, 3):
        curve = inputs.delay_curve(seed)
        cfg = PulseConfig(**curve["pulse"])
        g = np.array(curve["g_hz"])
        assert pulses._probe(cfg).step == 128
        lifted = pulses.extract_delay(device, g, cfg, method="ode")
        full = _full_rate_delays(device, g, cfg, method="ode")
        np.testing.assert_allclose(lifted, full, rtol=1e-11, atol=0)


def test_ode_delay_solves_n_over_l_rows(device, monkeypatch):
    # at a 2^15-sample probe each coupling, and the pump-off reference,
    # solves one banded system of n/L - 2 rows: the lifted samples past a_0
    # and a_1
    gc = model.critical_coupling(device)
    g = np.array([0.5, 1.1, 2.0]) * gc
    cfg = _curve_config(device, g[0], samples=2**15)
    _clear_caches()
    rows = []
    solve = pulses._integrate

    def counted(*args):
        a = solve(*args)
        rows.append(len(a) - 2)
        return a

    monkeypatch.setattr(pulses, "_integrate", counted)
    pulses.extract_delay(device, g, cfg, method="ode")
    step = pulses._probe(cfg).step
    assert step == 128
    assert rows == [2**15 // step - 2] * (len(g) + 1)
