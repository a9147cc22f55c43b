"""Unit tests for pulse synthesis, propagation, and delay extraction."""

import math
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
    with pytest.raises(ParameterError):
        small_config(carrier_detuning_hz=math.inf)


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
    assert w.warnings == ()
    for route in (pulses.propagate, pulses.integrate_langevin):
        assert "bandwidth" in route(w, device, 0.0).warnings
        assert "bandwidth" not in route(w, device, 400.0).warnings


def test_waveform_validation():
    with pytest.raises(ParameterError):
        PulseWaveform(t0_s=0.0, dt_s=0.1, samples=np.ones(8, dtype=complex))
    with pytest.raises(ParameterError):
        PulseWaveform(
            t0_s=0.0, dt_s=0.1, samples=np.full(32, np.nan, dtype=complex)
        )
    with pytest.raises(ParameterError):
        PulseWaveform(t0_s=0.0, dt_s=-0.1, samples=np.ones(32, dtype=complex))


def test_waveform_accepts_strided_samples():
    samples = np.exp(1j * np.linspace(0.0, 3.0, 64))
    for view in (samples[::-1], samples[::2]):
        w = PulseWaveform(t0_s=0.0, dt_s=0.1, samples=view)
        np.testing.assert_array_equal(w.samples, view)
    bad = samples.copy()
    bad[5] = complex(0.0, np.inf)
    with pytest.raises(ParameterError):
        PulseWaveform(t0_s=0.0, dt_s=0.1, samples=bad[::-1])


def test_waveform_energy_and_warning_dedup(device):
    w = PulseWaveform(t0_s=0.0, dt_s=0.5, samples=2.0 * np.ones(20, dtype=complex))
    assert w.energy == pytest.approx(4.0 * 20 * 0.5, rel=1e-15)
    # the record's 0.039 Hz rms bandwidth fires "bandwidth" again at G = 0
    tagged = PulseWaveform(t0_s=0.0, dt_s=0.5, samples=w.samples, warnings=("bandwidth",))
    assert pulses.propagate(tagged, device, 0.0).warnings == ("bandwidth",)


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
    out = pulses.propagate(w, device, gc)
    assert "singular-band" in out.warnings


def test_routes_attach_the_same_warnings(device):
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
    seen = set()
    for cfg, g in cases:
        w = pulses.gaussian_pulse(cfg)
        tags = pulses.propagate(w, device, g).warnings
        assert pulses.integrate_langevin(w, device, g).warnings == tags
        seen.update(tags)
    assert seen == {"bandwidth", "singular-band"}


def _n_point_band_rule(w, params, g):
    """The band check on every bin of the input's own n-point spectrum: an
    oracle for the tags that the routes read off the transforms they make."""
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


def test_route_warnings_match_the_n_point_band_rule(device):
    # 1.01 G_c at -10 mHz with half-window probes sits at the edge of the
    # bandwidth rule; n = 1000 is no power of two, so the padded spectrum's
    # bins are not a superset of the n-point ones
    gc = model.critical_coupling(device)
    seen = set()
    for ratio in (1.0, 1.01, 8.84):
        for carrier in (0.0, -1e-2):
            for fraction in (1.0 / 32.0, 0.5):
                for n in (256, 1000):
                    cfg = pulses.delay_pulse_config(
                        device, ratio * gc, carrier_detuning_hz=carrier,
                        bandwidth_fraction=fraction, n_samples=n,
                    )
                    w = pulses.gaussian_pulse(cfg)
                    for g in (ratio * gc, 0.0):
                        expected = _n_point_band_rule(w, device, g)
                        assert pulses.propagate(w, device, g).warnings == expected
                        assert pulses.integrate_langevin(w, device, g).warnings == expected
                        seen.update(expected)
    assert seen == {"bandwidth", "singular-band"}


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
    band = {}
    for points in (n, m):
        x = np.abs(np.fft.fft(w.samples, points))
        band[points] = int(np.count_nonzero(x > 1e-3 * x.max()))
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
    assert log == [("fft", m), ("kernel", m), ("ifft", m), ("kernel", band[m])]
    log.clear()
    pulses.integrate_langevin(w, device, 23.93)
    assert log == [("fft", n), ("kernel", band[n])]


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


def _reference_output(w, params, g, integrator, *args, initial_state=(0j, 0j)):
    """s_in - sqrt(eta*kappa) a from one of the reference integrators."""
    a_mat, b_vec = pulses._system_matrix(params, g, w.carrier_detuning_hz)
    a = integrator(a_mat, b_vec, w.dt_s, w.samples, initial_state, *args)
    return w.samples - math.sqrt(params.eta * 2.0 * math.pi * params.kappa_hz) * a


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
    out = _reference_output(w, device, 23.93, pulses._integrate, initial_state=x0)
    a_mat, _ = pulses._system_matrix(device, 23.93, 0.0)
    root = math.sqrt(device.eta * 2.0 * math.pi * device.kappa_hz)
    for k in (0, 1, 7, 39):
        a_k = (scipy.linalg.expm(a_mat * (k * dt)) @ x0)[0]
        assert complex(out[k]) == pytest.approx(-root * a_k, rel=1e-10)


def test_zero_input_zero_state_stays_zero(device):
    w = PulseWaveform(t0_s=0.0, dt_s=0.5, samples=np.zeros(32, dtype=complex))
    out = pulses.integrate_langevin(w, device, 23.93)
    assert np.all(out.samples == 0.0)


def test_foh_fallback_matches_eigen_step():
    rng = np.random.default_rng(11)
    a_mat = np.array([[-1.0 + 0.3j, -0.2j], [-0.2j, -0.5 - 0.1j]])
    b_vec = np.array([1.3 + 0.0j, 0.0j])
    h = 0.37
    mu, alpha, beta, v = reference.eigen_step(a_mat, b_vec, h)
    e_mat, av, bv = pulses._foh_propagator(a_mat, b_vec, h)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    s0, s1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    via_eigen = v @ (mu * np.linalg.solve(v, z) + alpha * s0 + beta * s1)
    via_expm = e_mat @ z + av * s0 + bv * s1
    np.testing.assert_allclose(via_eigen, via_expm, rtol=1e-12)
    # the single path: the same step as one banded solve over a whole record
    s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    single = pulses._integrate(a_mat, b_vec, h, s, z)
    np.testing.assert_allclose(single, reference.eigen(a_mat, b_vec, h, s, z), rtol=1e-12)


def test_single_path_matches_eigen_reference_near_critical(device):
    # near G_c the output is a small difference amplified by 1/|t|, and the
    # step spans kappa/gamma_m ~ 4e7 in rates: the exact step must keep the
    # slow mechanical decay to full precision for the two routes to agree
    for g in (17.66, 1.04 * model.critical_coupling(device), 23.93):
        cfg = pulses.delay_pulse_config(device, g, n_samples=1024)
        w = pulses.gaussian_pulse(cfg)
        single = pulses.integrate_langevin(w, device, g).samples
        eigen = _reference_output(w, device, g, reference.eigen)
        assert np.max(np.abs(single - eigen)) < 1e-11 * np.abs(eigen).max()


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
        out = _reference_output(w, device, g_ep, pulses._integrate, initial_state=x0)
        ref = _reference_output(w, device, g_ep, reference.expm_loop, initial_state=x0)
        assert np.max(np.abs(out - ref)) < 1e-10 * np.abs(ref).max()


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


def test_extract_delay_route_consistency(device):
    cfg = pulses.delay_pulse_config(device, 155.1, n_samples=1024)
    tau_fft = pulses.extract_delay(device, 155.1, cfg, method="fft")
    tau_ode = pulses.extract_delay(device, 155.1, cfg, method="ode")
    analytic = float(model.group_delay_curve(device, 155.1, 0.0))
    assert tau_fft > 0.0
    assert abs(tau_fft - tau_ode) < 0.01 * abs(analytic)
    assert tau_fft == pytest.approx(analytic, rel=0.05)


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
        fft = pulses.delay_curve(device, g, cfg)
        np.testing.assert_allclose(fft, oracle, rtol=1e-12, atol=0)
        ode = pulses.delay_curve(device, g, cfg, method="ode")
        np.testing.assert_allclose(ode, oracle, rtol=1e-5, atol=0)
    # one coupling in, one float out: extract_delay is the curve at one point
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
        np.testing.assert_allclose(pulses.delay_curve(device, g, cfg), oracle, rtol=1e-12, atol=0)


def test_delay_curve_two_lobes_where_band_average_is_finite(device):
    # at 0.985 G_c the probe comes out in two comparable lobes: no arrival
    # time exists, but the power-weighted mean delay does
    gc = model.critical_coupling(device)
    cfg = _curve_config(device, 0.5 * gc)
    for method in ("fft", "ode"):
        pulses.extract_delay(device, 0.5 * gc, cfg, method=method)  # warm caches
        for _ in range(2):  # a refusal is never cached: every call raises it
            with pytest.raises(PulseEstimationError, match="lobes"):
                pulses.delay_curve(device, 0.985 * gc, cfg, method=method)
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
            runs.append(_hex(pulses.delay_curve(device, g, cfg, method=method)))
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

def _full_rate_delays(device, g, cfg):
    """Delays from `propagate`, which keeps the full m-point product, with
    both arrivals timed from the probe's center as `delay_curve` times them."""
    pulse = pulses.gaussian_pulse(cfg)

    def arrival(coupling):
        out = pulses.propagate(pulse, device, coupling)
        return pulses.center_time(replace(out, t0_s=-cfg.center_s))

    pump_off = arrival(0.0)
    return np.array([arrival(gi) - pump_off for gi in g])


def test_band_route_matches_full_rate_route(device):
    gc = model.critical_coupling(device)
    g = np.array([0.5, 1.1, 2.0]) * gc
    for carrier in (0.0, 0.003, -0.003):
        cfg = _curve_config(device, g[0], carrier)
        probe = pulses._probe(cfg)
        assert probe.step > 1 and len(probe.x) < probe.points
        band, full = pulses.delay_curve(device, g, cfg), _full_rate_delays(device, g, cfg)
        np.testing.assert_allclose(band, full, rtol=1e-13, atol=0)
    # an odd sample count: the band, at every sample (L = 1)
    cfg = _curve_config(device, g[0], samples=2**12 + 1)
    probe = pulses._probe(cfg)
    assert probe.step == 1 and len(probe.x) < probe.points
    band, full = pulses.delay_curve(device, g, cfg), _full_rate_delays(device, g, cfg)
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
    assert _hex(pulses.delay_curve(device, g, cfg)) == _hex(_full_rate_delays(device, g, cfg))


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
    pulses.delay_curve(device, g, cfg)
    probe = pulses._probe(cfg)
    band = len(probe.x)  # 2 K + 1 bins
    assert len(points) == len(g) + 1  # the pump-off reference, then each coupling
    assert max(points) <= band < 0.01 * probe.points * probe.step

