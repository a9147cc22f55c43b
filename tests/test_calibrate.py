"""Unit tests for calibration fits and the critical-coupling locator."""

import math

import numpy as np
import pytest

from mcpa import (
    BracketingError,
    DipNotFoundError,
    MeasuredSpectrum,
    ParameterError,
    calibrate,
    model,
)

SNR_30_DB_NOISE = 10.0 ** (-30.0 / 20.0)


def bare_trace(device, n=241, widths=6.0, absolute=False):
    """Noiseless pump-off transmission on an ascending axis."""
    half = widths / 2.0 * device.kappa_hz
    if absolute:
        freq = np.linspace(device.cavity_freq_hz - half, device.cavity_freq_hz + half, n)
        delta = device.cavity_freq_hz - freq
    else:
        freq = np.linspace(-half, half, n)
        delta = freq
    return freq, model.transmission_curve(device, 0.0, delta)


def window_trace(device, g, n=401, widths=5.0):
    """Noiseless mechanical-window transmission on a detuning axis."""
    half = widths * model.effective_window_hz(device, g)
    delta = np.linspace(-half, half, n)
    return delta, model.transmission_curve(device, g, delta)


def add_noise(t, rng, level=SNR_30_DB_NOISE):
    re = rng.standard_normal(len(t))
    im = rng.standard_normal(len(t))
    return t + level / math.sqrt(2.0) * (re + 1j * im)


# ---------------------------------------------------------------------------
# measured-spectrum container
# ---------------------------------------------------------------------------

def test_measured_spectrum_validation():
    freq = np.linspace(0.0, 1.0, 30)
    with pytest.raises(ParameterError):
        MeasuredSpectrum(frequency_hz=freq[:10], t=np.ones(10, complex))
    with pytest.raises(ParameterError):
        MeasuredSpectrum(frequency_hz=freq[::-1], t=np.ones(30, complex))
    with pytest.raises(ParameterError):
        MeasuredSpectrum(frequency_hz=freq)  # neither representation
    with pytest.raises(ParameterError):
        MeasuredSpectrum(
            frequency_hz=freq, t=np.ones(30, complex), amplitude_db=np.zeros(30)
        )
    with pytest.raises(ParameterError):
        MeasuredSpectrum(frequency_hz=freq, t=np.ones(29, complex))
    bad = np.ones(30, complex)
    bad[3] = np.nan
    with pytest.raises(ParameterError):
        MeasuredSpectrum(frequency_hz=freq, t=bad)


def test_measured_spectrum_accepts_strided_complex():
    freq = np.linspace(0.0, 1.0, 30)
    t = np.exp(1j * np.linspace(0.0, 2.0, 60))
    for values in (t[:30][::-1], t[::2]):
        spec = MeasuredSpectrum.from_complex(freq, values)
        np.testing.assert_array_equal(spec.t, values)
    bad = t[::2].copy()
    bad[7] = complex(np.nan, 0.0)
    with pytest.raises(ParameterError):
        MeasuredSpectrum.from_complex(freq, bad[::-1])


def test_measured_spectrum_representations():
    freq = np.linspace(-1.0, 1.0, 25)
    t = 0.5 * np.exp(1j * np.linspace(0.0, 1.0, 25))
    s = MeasuredSpectrum.from_complex(freq, t, absolute_frequency=False)
    assert s.has_phase
    np.testing.assert_allclose(s.amplitude(), 0.5, rtol=1e-15)
    np.testing.assert_array_equal(s.complex_values(), t)

    polar = MeasuredSpectrum.from_polar(
        freq, 20.0 * np.log10(np.abs(t)), np.angle(t), absolute_frequency=False
    )
    assert polar.has_phase
    np.testing.assert_allclose(polar.complex_values(), t, rtol=1e-12)

    amp_only = MeasuredSpectrum.from_polar(freq, 20.0 * np.log10(np.abs(t)))
    assert not amp_only.has_phase
    with pytest.raises(ParameterError):
        amp_only.complex_values()


# ---------------------------------------------------------------------------
# bare-cavity fits
# ---------------------------------------------------------------------------

def test_fit_bare_cavity_complex_noiseless(device):
    freq, t = bare_trace(device)
    fit = calibrate.fit_bare_cavity(
        MeasuredSpectrum.from_complex(freq, t, absolute_frequency=False)
    )
    assert fit.converged
    assert fit.params["kappa_hz"] == pytest.approx(device.kappa_hz, rel=1e-9)
    assert fit.params["eta"] == pytest.approx(device.eta, rel=1e-9)
    assert abs(fit.params["center_offset_hz"]) < 1e-3
    assert fit.residual_rms < 1e-10
    assert fit.alternate is None


def test_fit_bare_cavity_absolute_axis(device):
    freq, t = bare_trace(device, absolute=True)
    fit = calibrate.fit_bare_cavity(MeasuredSpectrum.from_complex(freq, t))
    assert fit.params["cavity_freq_hz"] == pytest.approx(device.cavity_freq_hz, abs=1e-2)
    assert fit.params["kappa_hz"] == pytest.approx(device.kappa_hz, rel=1e-9)


def test_fit_bare_cavity_absolute_axis_noisy(device):
    # at 5.3 GHz the solver's relative stall test would pass a center
    # frequency tens of Hz off, so the fit moves a shift from its seed;
    # every trace must converge
    half = 5.0 * device.kappa_hz
    freq = np.linspace(device.cavity_freq_hz - half, device.cavity_freq_hz + half, 2001)
    clean = model.transmission_curve(device, 0.0, device.cavity_freq_hz - freq)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        fit = calibrate.fit_bare_cavity(MeasuredSpectrum.from_complex(freq, add_noise(clean, rng)))
        assert fit.converged
        assert fit.params["kappa_hz"] == pytest.approx(device.kappa_hz, rel=0.01)
        center_error = fit.params["cavity_freq_hz"] - device.cavity_freq_hz
        assert abs(center_error) < 5.0 * fit.sigma["cavity_freq_hz"]


def test_fit_bare_cavity_amplitude_only_degeneracy(device):
    freq, t = bare_trace(device)
    spec = MeasuredSpectrum.from_polar(
        freq, 20.0 * np.log10(np.abs(t)), absolute_frequency=False
    )
    fit = calibrate.fit_bare_cavity(spec)
    assert fit.alternate is not None
    etas = sorted([fit.params["eta"], fit.alternate.params["eta"]])
    assert etas[0] == pytest.approx(1.0 - device.eta, rel=1e-6)
    assert etas[1] == pytest.approx(device.eta, rel=1e-6)
    # the mirror is exactly degenerate in amplitude: both fits are clean
    assert fit.residual_rms < 1e-10
    assert fit.alternate.residual_rms < 1e-10


def test_fit_bare_cavity_phase_breaks_degeneracy(device):
    freq, t = bare_trace(device)
    spec = MeasuredSpectrum.from_polar(
        freq, 20.0 * np.log10(np.abs(t)), np.angle(t), absolute_frequency=False
    )
    fit = calibrate.fit_bare_cavity(spec)
    assert fit.params["eta"] == pytest.approx(device.eta, rel=1e-6)
    assert fit.alternate is None


def test_fit_bare_cavity_rejects_flat_data():
    freq = np.linspace(-1e6, 1e6, 50)
    flat = np.full(50, 0.9, dtype=complex)
    with pytest.raises(DipNotFoundError):
        calibrate.fit_bare_cavity(
            MeasuredSpectrum.from_complex(freq, flat, absolute_frequency=False)
        )


def test_fit_residual_history_non_increasing(device, rng):
    freq, t = bare_trace(device)
    spec = MeasuredSpectrum.from_complex(freq, add_noise(t, rng), absolute_frequency=False)
    fit = calibrate.fit_bare_cavity(spec)
    hist = np.array(fit.residual_history)
    assert np.all(np.diff(hist) <= 0.0)
    assert fit.n_iterations <= calibrate.MAX_ITERATIONS


def test_fit_bare_cavity_noisy_within_uncertainty(device, rng):
    freq, t = bare_trace(device)
    spec = MeasuredSpectrum.from_complex(freq, add_noise(t, rng), absolute_frequency=False)
    fit = calibrate.fit_bare_cavity(spec)
    for key, truth in (("kappa_hz", device.kappa_hz), ("eta", device.eta)):
        assert abs(fit.params[key] - truth) < 5.0 * fit.sigma[key]


def test_fit_uncertainty_shrinks_with_points(device):
    # quadrupling the number of samples should halve the reported sigma
    rng = np.random.default_rng(5)
    sigmas = []
    for n in (200, 800):
        freq, t = bare_trace(device, n=n)
        spec = MeasuredSpectrum.from_complex(
            freq, add_noise(t, rng), absolute_frequency=False
        )
        sigmas.append(calibrate.fit_bare_cavity(spec).sigma["eta"])
    ratio = sigmas[0] / sigmas[1]
    assert 1.4 < ratio < 2.9


def test_fit_reported_sigma_tracks_scatter(device):
    fits = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        freq, t = bare_trace(device, n=201)
        spec = MeasuredSpectrum.from_complex(
            freq, add_noise(t, rng), absolute_frequency=False
        )
        fits.append(calibrate.fit_bare_cavity(spec))
    kappas = np.array([f.params["kappa_hz"] for f in fits])
    scatter = float(np.std(kappas, ddof=1))
    reported = float(np.median([f.sigma["kappa_hz"] for f in fits]))
    assert scatter / reported == pytest.approx(1.0, abs=0.67)


# ---------------------------------------------------------------------------
# mechanical-window fits
# ---------------------------------------------------------------------------

def test_fit_mechanical_window_complex_noiseless(device):
    delta, t = window_trace(device, 17.66)
    fit = calibrate.fit_mechanical_window(
        MeasuredSpectrum.from_complex(delta, t, absolute_frequency=False), device
    )
    assert fit.converged
    assert fit.params["g_hz"] == pytest.approx(17.66, rel=1e-6)
    assert fit.params["gamma_m_hz"] == pytest.approx(device.gamma_m_hz, rel=1e-6)
    assert abs(fit.params["center_offset_hz"]) < 1e-9
    assert fit.alternate is None


@pytest.mark.parametrize("g_true", [17.24, 17.84])
def test_fit_mechanical_window_phase_selects_side(device, g_true):
    # 17.24 and 17.84 Hz give nearly identical dip depths on opposite sides
    # of the critical coupling; phase data must always pick the right one
    delta, t = window_trace(device, g_true)
    spec = MeasuredSpectrum.from_polar(
        delta, 20.0 * np.log10(np.abs(t)), np.angle(t), absolute_frequency=False
    )
    fit = calibrate.fit_mechanical_window(spec, device)
    assert fit.params["g_hz"] == pytest.approx(g_true, rel=1e-6)


def test_fit_mechanical_window_amplitude_only_candidates(device):
    delta, t = window_trace(device, 17.24, n=601)
    spec = MeasuredSpectrum.from_polar(
        delta, 20.0 * np.log10(np.abs(t)), absolute_frequency=False
    )
    fit = calibrate.fit_mechanical_window(spec, device)
    # the dip depth alone is ambiguous between the two sides of the
    # critical coupling, so a second candidate lands on the far side; only
    # the slightly different off-dip curvature ranks the true side first
    assert fit.alternate is not None
    gc = model.critical_coupling(device)
    assert fit.params["g_hz"] == pytest.approx(17.24, rel=1e-6)
    assert fit.alternate.params["g_hz"] > gc
    assert fit.residual_rms < fit.alternate.residual_rms


def test_fit_mechanical_window_amplitude_only_above_boundary(device):
    # above the boundary coupling the mirror seed of amplitude-only data can
    # stall; the seed that converges must still give the fit
    g_true = 2.5 * model.critical_coupling(device)
    delta, t = window_trace(device, g_true, n=2001)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        noisy = add_noise(t, rng, level=10.0 ** (-40.0 / 20.0))
        spec = MeasuredSpectrum.from_polar(
            delta, 20.0 * np.log10(np.abs(noisy)), absolute_frequency=False
        )
        fit = calibrate.fit_mechanical_window(spec, device)
        assert fit.converged
        candidates = [fit] + ([fit.alternate] if fit.alternate is not None else [])
        assert all(c.converged for c in candidates)
        assert min(abs(c.params["g_hz"] / g_true - 1.0) for c in candidates) < 0.01


@pytest.mark.parametrize("ratio, seed", [(2.2, 4), (3.0, 2)])
def test_fit_mechanical_window_drops_unconstrained_runner_up(device, ratio, seed):
    # on these noisy amplitude-only traces above G_b the second seed drifts
    # to the mechanics decoupled (cooperativity below 1e-4) with a
    # residual over 20 times the primary's, and ends there unconverged or
    # with a singular covariance: no mirror solution, so no alternate
    g_true = ratio * model.critical_coupling(device)
    delta, t = window_trace(device, g_true, n=2001)
    noisy = add_noise(t, np.random.default_rng(seed), level=10.0 ** (-50.0 / 20.0))
    spec = MeasuredSpectrum.from_polar(
        delta, 20.0 * np.log10(np.abs(noisy)), absolute_frequency=False
    )
    fit = calibrate.fit_mechanical_window(spec, device)
    assert fit.params["g_hz"] == pytest.approx(g_true, rel=0.01)
    assert all(math.isfinite(s) for s in fit.sigma.values())
    assert fit.alternate is None


def test_fit_mechanical_window_rejects_featureless(device):
    delta, t = window_trace(device, 17.66)
    flat = np.full_like(t, 1.0 - 2.0 * device.eta)
    with pytest.raises(DipNotFoundError):
        calibrate.fit_mechanical_window(
            MeasuredSpectrum.from_complex(delta, flat, absolute_frequency=False), device
        )


def test_fit_mechanical_window_noisy_data_converges(device):
    # Noise shifts the cost minimum so the damped steps can stall at the
    # noise floor before the gradient test fires; the stationarity check
    # on the stalled round must still declare convergence.
    delta, t = window_trace(device, 23.93)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        spec = MeasuredSpectrum.from_complex(
            delta, add_noise(t, rng), absolute_frequency=False
        )
        fit = calibrate.fit_mechanical_window(spec, device)
        assert fit.converged
        assert fit.params["g_hz"] == pytest.approx(23.93, rel=0.02)


def test_fit_mechanical_window_takes_one_kernel_pass_per_jacobian(device, monkeypatch):
    # the closed-form Jacobian costs one kernel pass, where central
    # differences cost six: every kernel call of the fit is one residual or
    # one Jacobian, and a Jacobian is made once per accepted step
    delta, t = window_trace(device, 23.93)
    spec = MeasuredSpectrum.from_polar(
        delta, 20.0 * np.log10(np.abs(t)), np.angle(t), absolute_frequency=False
    )
    calls = {"kernel": 0, "residual": 0, "jacobian": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    build = calibrate._make_residual
    monkeypatch.setattr(calibrate, "_make_residual", lambda *args: tuple(
        counted(name, fn) for name, fn in zip(("residual", "jacobian"), build(*args))
    ))
    monkeypatch.setattr(model, "_response", counted("kernel", model._response))
    fit = calibrate.fit_mechanical_window(spec, device)
    assert fit.alternate is None and calls["jacobian"] == len(fit.residual_history)
    assert calls["kernel"] == calls["residual"]


def test_fit_mechanical_window_drops_negative_damping_seed(device):
    # on this amplitude-only trace above G_b the mirror seed converges to
    # gamma_m < 0 (and G near 18 Hz), with an rms that ties the true fit's
    # to 5e-7 relative; such a seed is dropped, not reported as |gamma_m|
    g_true = 2.2 * model.critical_coupling(device)
    delta, t = window_trace(device, g_true, n=2001)
    noisy = add_noise(t, np.random.default_rng(7), level=10.0 ** (-40.0 / 20.0))
    spec = MeasuredSpectrum.from_polar(
        delta, 20.0 * np.log10(np.abs(noisy)), absolute_frequency=False
    )
    fit = calibrate.fit_mechanical_window(spec, device)
    assert fit.params["g_hz"] == pytest.approx(g_true, rel=0.01)
    assert fit.params["gamma_m_hz"] > 0.0


@pytest.mark.parametrize("form", ["complex", "polar", "amplitude"])
@pytest.mark.parametrize("kind", ["bare", "window"])
def test_jacobian_reuses_the_residual_kernel_pass(device, monkeypatch, kind, form):
    # the residual makes one kernel pass and returns its model value beside
    # r; the Jacobian takes that value and makes no pass of its own
    if kind == "bare":
        axis, t = bare_trace(device, n=61)
        model_fn = calibrate._bare_model_fn(axis)
        x = np.array([0.01 * device.kappa_hz, 1.1 * device.kappa_hz, 0.6])
    else:
        g = 23.93
        axis, t = window_trace(device, g, n=101)
        model_fn = calibrate._window_model_fn(device, axis)
        x = np.array([1.1 * device.gamma_m_hz, 0.97 * g, 0.1])
    amp_db, phase = 20.0 * np.log10(np.abs(t)), np.angle(t)
    spec = {
        "complex": MeasuredSpectrum.from_complex(axis, t, absolute_frequency=False),
        "polar": MeasuredSpectrum.from_polar(axis, amp_db, phase, absolute_frequency=False),
        "amplitude": MeasuredSpectrum.from_polar(axis, amp_db, absolute_frequency=False),
    }[form]
    want = model_fn[0](x).tobytes()
    calls = [0]

    def kernel(*args):
        calls[0] += 1
        return response(*args)

    response = model._response
    monkeypatch.setattr(model, "_response", kernel)
    residual, jacobian = calibrate._make_residual(spec, model_fn)
    r, t_x = residual(x)
    assert t_x.tobytes() == want and calls[0] == 1
    assert jacobian(x, t_x).shape == (3, len(r)) and calls[0] == 1


def test_levenberg_marquardt_singular_covariance_has_no_small_sigma():
    # the third column of J is the sum of the other two: J^T J is singular,
    # and in floats its inverse either fails or has a diagonal of either
    # sign near 1e13. A non-positive entry reads as NaN, never as sigma 0
    u = np.linspace(-1.0, 1.0, 50)
    jac = np.array([u * 3 / 7, np.cos(u) * 5 / 3, u * 3 / 7 + np.cos(u) * 5 / 3])
    data = np.cos(3.0 * u)
    _, sigma, *_ = calibrate._levenberg_marquardt(
        lambda x: (x @ jac - data, None), lambda x, t: jac, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)
    )
    assert not np.any(sigma < 1e3)


def test_levenberg_marquardt_rank_deficient_stall_is_converged():
    # columns 1, u and 1 + u: J has a null direction, along which the
    # near-undamped normal-equation step was unbounded and read as a stall
    u = np.linspace(-1.0, 1.0, 50)
    jac = np.array([np.ones_like(u), u, 1.0 + u])
    data = np.cos(3.0 * u)
    *_, converged = calibrate._levenberg_marquardt(
        lambda x: (x @ jac - data, None), lambda x, t: jac, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)
    )
    assert converged


# ---------------------------------------------------------------------------
# critical coupling from a resonance sweep
# ---------------------------------------------------------------------------

def test_infer_critical_noiseless(device):
    g = np.geomspace(5.0, 60.0, 2000)
    power = np.square(model.transmission_curve(device, g, 0.0).real)
    est = calibrate.infer_critical_from_sweep(g, power)
    assert est == pytest.approx(model.critical_coupling(device), abs=0.01)


def test_infer_critical_with_noise(device):
    g = np.geomspace(5.0, 60.0, 2000)
    power = np.square(model.transmission_curve(device, g, 0.0).real)
    gc = model.critical_coupling(device)
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = power * (1.0 + 0.01 * rng.standard_normal(len(power)))
        noisy = np.clip(noisy, 0.0, None)
        est = calibrate.infer_critical_from_sweep(g, noisy)
        worst = max(worst, abs(est - gc))
    assert worst < 0.1


def test_infer_critical_requires_bracketing(device):
    g = np.geomspace(20.0, 60.0, 50)  # entirely above the critical coupling
    power = np.square(model.transmission_curve(device, g, 0.0).real)
    with pytest.raises(BracketingError):
        calibrate.infer_critical_from_sweep(g, power)


def test_infer_critical_exact_zero_short_circuits():
    g = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    power = np.array([4.0, 1.0, 0.0, 1.0, 4.0])
    assert calibrate.infer_critical_from_sweep(g, power) == 3.0


def test_infer_critical_input_validation():
    with pytest.raises(ParameterError):
        calibrate.infer_critical_from_sweep(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    g = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ParameterError):
        calibrate.infer_critical_from_sweep(g, np.array([1.0, 2.0, -1.0, 2.0, 3.0]))
    with pytest.raises(ParameterError):
        calibrate.infer_critical_from_sweep(g[::-1], np.ones(5))
