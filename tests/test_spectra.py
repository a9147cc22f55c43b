"""Unit tests for the sweep engine and numeric delay extraction."""

import math

import numpy as np
import pytest

from mcpa import (
    GridScale,
    ParameterError,
    SweepAxis,
    SweepSpec,
    model,
    spectra,
)


def make_spec(**kw):
    base = dict(
        axis=SweepAxis.DETUNING, start_hz=-1.0, stop_hz=1.0, n_points=11
    )
    base.update(kw)
    return SweepSpec(**base)


# ---------------------------------------------------------------------------
# sweep specs and grids
# ---------------------------------------------------------------------------

def test_sweep_spec_validation():
    with pytest.raises(ParameterError):
        make_spec(start_hz=1.0, stop_hz=-1.0)
    with pytest.raises(ParameterError):
        make_spec(start_hz=1.0, stop_hz=1.0)
    with pytest.raises(ParameterError):
        make_spec(n_points=1)
    with pytest.raises(ParameterError):
        make_spec(start_hz=math.nan)
    with pytest.raises(ParameterError):
        make_spec(start_hz=0.0, stop_hz=1.0, scale=GridScale.LOG)


def test_grid_endpoints():
    lin = make_spec(start_hz=-2.0, stop_hz=3.0, n_points=6).grid()
    assert lin[0] == -2.0 and lin[-1] == 3.0
    assert len(lin) == 6
    log = make_spec(start_hz=1.0, stop_hz=100.0, n_points=3, scale=GridScale.LOG).grid()
    np.testing.assert_allclose(log, [1.0, 10.0, 100.0], rtol=1e-12)


def test_detuning_span_covers_window(device):
    spec = spectra.detuning_span(device, 23.93, n_points=101, widths=5.0)
    w = model.effective_window_hz(device, 23.93)
    assert spec.start_hz == pytest.approx(-5.0 * w, rel=1e-15)
    assert spec.stop_hz == pytest.approx(5.0 * w, rel=1e-15)
    assert spec.fixed_g_hz == 23.93


# ---------------------------------------------------------------------------
# detuning sweeps
# ---------------------------------------------------------------------------

def test_sweep_detuning_matches_pointwise_model(device):
    spec = spectra.detuning_span(device, 23.93, n_points=201)
    s = spectra.sweep_detuning(device, 23.93, spec)
    expected = model.transmission_curve(device, 23.93, s.x_hz)
    np.testing.assert_array_equal(s.t, expected)
    assert s.delay_s is None
    assert s.axis is SweepAxis.DETUNING
    assert not s.singular.any()
    assert s.spec.fixed_g_hz == 23.93


def test_sweep_detuning_axis_and_coupling_checks(device):
    coupling_spec = SweepSpec(
        axis=SweepAxis.COUPLING, start_hz=1.0, stop_hz=2.0, n_points=5
    )
    with pytest.raises(ParameterError):
        spectra.sweep_detuning(device, 23.93, coupling_spec)
    mismatched = make_spec(fixed_g_hz=10.0)
    with pytest.raises(ParameterError):
        spectra.sweep_detuning(device, 23.93, mismatched)


def test_sweep_detuning_deterministic(device):
    spec = spectra.detuning_span(device, 17.66, n_points=301)
    a = spectra.sweep_detuning(device, 17.66, spec)
    b = spectra.sweep_detuning(device, 17.66, spec)
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.phase_rad, b.phase_rad)
    np.testing.assert_array_equal(a.amplitude_db, b.amplitude_db)


def test_phase_branch_on_detuning_sweep(device):
    # below the critical coupling the resonant response is negative real;
    # the sampled phase there must be +pi, never -pi
    spec = spectra.detuning_span(device, 11.87, n_points=201)
    s = spectra.sweep_detuning(device, 11.87, spec)
    mid = len(s) // 2
    assert abs(s.phase_rad).max() <= math.pi
    assert s.phase_rad[mid] == pytest.approx(math.pi, abs=1e-6)
    assert s.phase_rad[mid] > 0.0


# ---------------------------------------------------------------------------
# resonance sweeps
# ---------------------------------------------------------------------------

def test_resonance_sweep_exact_phases(device):
    spec = SweepSpec(
        axis=SweepAxis.COUPLING,
        start_hz=5.0,
        stop_hz=60.0,
        n_points=400,
        scale=GridScale.LOG,
    )
    s = spectra.sweep_coupling_resonance(device, spec)
    gc = model.critical_coupling(device)
    below = s.x_hz < gc
    assert np.all(s.phase_rad[below] == math.pi)
    assert np.all(s.phase_rad[~below] == 0.0)
    assert s.delay_s is not None
    assert np.all(np.sign(s.delay_s[below]) == -1.0)


def test_resonance_sweep_rejects_negative_start(device):
    spec = SweepSpec(
        axis=SweepAxis.COUPLING, start_hz=-1.0, stop_hz=10.0, n_points=5
    )
    with pytest.raises(ParameterError):
        spectra.sweep_coupling_resonance(device, spec)


def test_resonance_spectrum_explicit_grid(device):
    g = np.array([0.0, 5.0, 17.66, 40.0])
    s = spectra.resonance_spectrum(device, g)
    np.testing.assert_array_equal(s.x_hz, g)
    expected = model.resonance_curve(device, g)
    np.testing.assert_array_equal(s.t.real, expected)
    assert np.all(s.t.imag == 0.0)


def test_resonance_spectrum_grid_validation(device):
    with pytest.raises(ParameterError):
        spectra.resonance_spectrum(device, np.array([1.0]))
    with pytest.raises(ParameterError):
        spectra.resonance_spectrum(device, np.array([2.0, 1.0, 3.0]))
    with pytest.raises(ParameterError):
        spectra.resonance_spectrum(device, np.array([-1.0, 1.0]))
    with pytest.raises(ParameterError):
        spectra.resonance_spectrum(device, np.array([1.0, np.inf]))


def test_resonance_spectrum_flags_critical_point(device):
    gc = model.critical_coupling(device)
    s = spectra.resonance_spectrum(device, np.array([gc / 2.0, gc, 2.0 * gc]))
    assert list(s.singular) == [False, True, False]
    assert math.isnan(s.phase_rad[1])
    assert math.isnan(s.delay_s[1])
    assert s.amplitude_db[1] < -140.0


def test_amplitude_channel_true_zero():
    db = spectra._amplitude_db(np.array([1.0, 0.0, 0.5]))
    assert db[0] == 0.0
    assert db[1] == -np.inf
    assert db[2] == pytest.approx(20.0 * math.log10(0.5))


# ---------------------------------------------------------------------------
# phase unwrapping and numeric delay
# ---------------------------------------------------------------------------

def test_unwrap_phase_removes_jump():
    out = spectra.unwrap_phase(np.array([3.0, -3.0]))
    np.testing.assert_allclose(out, [3.0, -3.0 + 2.0 * math.pi], rtol=1e-15)


def test_unwrap_phase_roundtrip():
    ramp = np.linspace(0.0, 25.0, 400)
    wrapped = np.angle(np.exp(1j * ramp))
    np.testing.assert_allclose(spectra.unwrap_phase(wrapped), ramp, atol=1e-12)


def test_unwrap_phase_rejects_2d():
    with pytest.raises(ParameterError):
        spectra.unwrap_phase(np.zeros((3, 3)))


def test_numeric_delay_requires_detuning_sweep(device):
    s = spectra.resonance_spectrum(device, np.array([5.0, 10.0, 20.0]))
    with pytest.raises(ParameterError):
        spectra.numeric_group_delay(s)


def test_numeric_delay_matches_analytic(device):
    spec = spectra.detuning_span(device, 23.93, n_points=10001)
    s = spectra.numeric_group_delay(spectra.sweep_detuning(device, 23.93, spec))
    analytic = model.group_delay_curve(device, 23.93, s.x_hz)
    interior = slice(2, -2)
    rel = np.abs(s.delay_s[interior] - analytic[interior]) / np.abs(analytic[interior]).max()
    assert rel.max() < 1e-3


def test_numeric_delay_is_second_order(device):
    # halving the step should shrink the finite-difference error by ~4x
    w = model.effective_window_hz(device, 23.93)
    probe = 0.6 * w

    def error_at(n):
        spec = SweepSpec(
            axis=SweepAxis.DETUNING,
            start_hz=-2.0 * w,
            stop_hz=2.0 * w,
            n_points=n,
            fixed_g_hz=23.93,
        )
        s = spectra.numeric_group_delay(spectra.sweep_detuning(device, 23.93, spec))
        i = int(np.argmin(np.abs(s.x_hz - probe)))
        exact = float(model.group_delay_curve(device, 23.93, s.x_hz[i]))
        return abs(float(s.delay_s[i]) - exact)

    # 2n-1 points halve the step and keep the probe point on the grid
    ratio = error_at(401) / error_at(801)
    assert 3.4 < ratio < 4.6


def test_numeric_delay_nan_near_singularity(device):
    gc = model.critical_coupling(device)
    spec = spectra.detuning_span(device, gc, n_points=501)
    s = spectra.numeric_group_delay(spectra.sweep_detuning(device, gc, spec))
    mid = len(s) // 2
    assert s.singular[mid]
    assert np.isnan(s.delay_s[mid - 1 : mid + 2]).all()
    assert np.isfinite(s.delay_s[mid + 5])


def test_numeric_delay_needs_three_points(device):
    spec = make_spec(n_points=2, fixed_g_hz=23.93)
    s = spectra.sweep_detuning(device, 23.93, spec)
    with pytest.raises(ParameterError):
        spectra.numeric_group_delay(s)
