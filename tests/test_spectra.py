"""Unit tests for the sweep engine and the numeric delay of a sampled phase."""

import math
import sys

import numpy as np
import pytest

from mcpa import ParameterError, model, spectra


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ParameterError):
        spectra.grid(1.0, -1.0, 11)
    with pytest.raises(ParameterError):
        spectra.grid(1.0, 1.0, 11)
    with pytest.raises(ParameterError):
        spectra.grid(-1.0, 1.0, 1)
    with pytest.raises(ParameterError):
        spectra.grid(math.nan, 1.0, 11)
    with pytest.raises(ParameterError):
        spectra.grid(0.0, 1.0, 11, "log")
    with pytest.raises(ParameterError):
        spectra.grid(1.0, 2.0, 11, "cubic")


def test_grid_endpoints():
    lin = spectra.grid(-2.0, 3.0, 6)
    assert lin[0] == -2.0 and lin[-1] == 3.0
    assert len(lin) == 6
    log = spectra.grid(1.0, 100.0, 3, "log")
    np.testing.assert_allclose(log, [1.0, 10.0, 100.0], rtol=1e-12)


def test_detuning_span_covers_window(device):
    x = spectra.detuning_span(device, 23.93, n_points=101)
    w = model.effective_window_hz(device, 23.93)
    assert x[0] == pytest.approx(-5.0 * w, rel=1e-15)
    assert x[-1] == pytest.approx(5.0 * w, rel=1e-15)
    assert len(x) == 101


# ---------------------------------------------------------------------------
# detuning sweeps
# ---------------------------------------------------------------------------

def test_sweep_detuning_matches_pointwise_model(device):
    x = spectra.detuning_span(device, 23.93, n_points=201)
    s = spectra.sweep_detuning(device, 23.93, x)
    np.testing.assert_array_equal(s.x_hz, x)
    expected = model.transmission_curve(device, 23.93, s.x_hz)
    np.testing.assert_array_equal(s.t, expected)
    assert np.all(np.isfinite(s.delay_s))
    assert not s.singular.any()


def test_sweep_detuning_grid_validation(device):
    for bad in ([0.0, 1.0], [[0.0, 1.0, 2.0]], [0.0, 2.0, 1.0], [0.0, 1.0, np.nan]):
        with pytest.raises(ParameterError):
            spectra.sweep_detuning(device, 23.93, np.array(bad))


def test_detunings_out_of_float_range_are_refused(device):
    # Delta^2 overflowed in the kernel: a RuntimeWarning and NaN rows
    limit = math.sqrt(sys.float_info.max)
    with pytest.raises(ParameterError, match="detuning must lie within"):
        spectra.sweep_detuning(device, 0.0, [-1e160, 0.0, 1e160])
    edge = spectra.sweep_detuning(device, 1e154, [-limit, 0.0, limit])
    assert np.all(np.isfinite(edge.t)) and np.all(np.isfinite(edge.delay_s))
    # the default span is +/- 5 effective windows, 4 G^2 / kappa each; at
    # 1e154 Hz the window overflowed and the error blamed the endpoints
    for g in (1e80, 1e100, 1e154):
        with pytest.raises(ParameterError, match="detuning span at g"):
            spectra.detuning_span(device, g)
    assert np.all(np.isfinite(spectra.sweep_detuning(
        device, 1e76, spectra.detuning_span(device, 1e76, 11)).t))


def test_sweep_detuning_deterministic(device):
    x = spectra.detuning_span(device, 17.66, n_points=301)
    a = spectra.sweep_detuning(device, 17.66, x)
    b = spectra.sweep_detuning(device, 17.66, x)
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.phase_rad, b.phase_rad)
    np.testing.assert_array_equal(a.amplitude_db, b.amplitude_db)
    np.testing.assert_array_equal(a.delay_s, b.delay_s)


def test_phase_branch_on_detuning_sweep(device):
    # below the critical coupling the resonant response is negative real;
    # the sampled phase there must be +pi, never -pi
    s = spectra.sweep_detuning(device, 11.87, spectra.detuning_span(device, 11.87, n_points=201))
    mid = len(s) // 2
    assert abs(s.phase_rad).max() <= math.pi
    assert s.phase_rad[mid] == pytest.approx(math.pi, abs=1e-6)
    assert s.phase_rad[mid] > 0.0


# ---------------------------------------------------------------------------
# resonance sweeps
# ---------------------------------------------------------------------------

def test_resonance_sweep_exact_phases(device):
    s = spectra.sweep_coupling_resonance(device, spectra.grid(5.0, 60.0, 400, "log"))
    gc = model.critical_coupling(device)
    below = s.x_hz < gc
    assert np.all(s.phase_rad[below] == math.pi)
    assert np.all(s.phase_rad[~below] == 0.0)
    assert np.all(np.sign(s.delay_s[below]) == -1.0)


def test_resonance_sweep_rejects_negative_start(device):
    with pytest.raises(ParameterError):
        spectra.sweep_coupling_resonance(device, spectra.grid(-1.0, 10.0, 5))


def test_resonance_spectrum_explicit_grid(device):
    g = np.array([0.0, 5.0, 17.66, 40.0])
    s = spectra.sweep_coupling_resonance(device, g)
    np.testing.assert_array_equal(s.x_hz, g)
    expected = model.transmission_curve(device, g, 0.0).real
    np.testing.assert_array_equal(s.t.real, expected)
    assert np.all(s.t.imag == 0.0)


def test_resonance_spectrum_grid_validation(device):
    for bad in ([1.0], [[1.0, 2.0]], [2.0, 1.0, 3.0], [-1.0, 1.0], [1.0, np.inf],
                [1.0, 1e200]):
        with pytest.raises(ParameterError):
            spectra.sweep_coupling_resonance(device, np.array(bad))


def test_resonance_spectrum_flags_critical_point(device):
    gc = model.critical_coupling(device)
    s = spectra.sweep_coupling_resonance(device, np.array([gc / 2.0, gc, 2.0 * gc]))
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
# numeric delay
# ---------------------------------------------------------------------------

def test_unwrap_phase_roundtrip():
    # a linear phase wrapped onto (-pi, pi] many times over: the numeric
    # delay unwraps it and recovers the constant slope everywhere
    x = np.linspace(0.0, 4.0, 400)
    wrapped = np.angle(np.exp(-1j * math.tau * x))
    delay = spectra.numeric_group_delay(x, wrapped, np.zeros(len(x), dtype=bool))
    np.testing.assert_allclose(delay, 1.0, rtol=1e-12)


def _sampled_delay(device, coupling, x):
    """`numeric_group_delay` on the kernel's phase sampled on `x`, and the
    singular flags it was given."""
    t = model.transmission_curve(device, coupling, x)
    singular = np.abs(t) < model.DEGENERACY_TOL
    return spectra.numeric_group_delay(x, model.principal_phase(t), singular), singular


def test_numeric_delay_matches_analytic(device):
    x = spectra.detuning_span(device, 23.93, n_points=10001)
    delay, _ = _sampled_delay(device, 23.93, x)
    analytic = model.group_delay_curve(device, 23.93, x)
    interior = slice(2, -2)
    rel = np.abs(delay[interior] - analytic[interior]) / np.abs(analytic[interior]).max()
    assert rel.max() < 1e-3


def test_numeric_delay_is_second_order(device):
    # halving the step should shrink the finite-difference error by ~4x
    w = model.effective_window_hz(device, 23.93)
    probe = 0.6 * w

    def error_at(n):
        x = spectra.grid(-2.0 * w, 2.0 * w, n)
        delay, _ = _sampled_delay(device, 23.93, x)
        i = int(np.argmin(np.abs(x - probe)))
        exact = float(model.group_delay_curve(device, 23.93, x[i]))
        return abs(float(delay[i]) - exact)

    # 2n-1 points halve the step and keep the probe point on the grid
    ratio = error_at(401) / error_at(801)
    assert 3.4 < ratio < 4.6


def test_numeric_delay_nan_near_singularity(device):
    gc = model.critical_coupling(device)
    x = spectra.detuning_span(device, gc, n_points=501)
    delay, singular = _sampled_delay(device, gc, x)
    mid = len(x) // 2
    assert singular[mid]
    assert np.isnan(delay[mid - 1 : mid + 2]).all()
    assert np.isfinite(delay[mid + 5])
    # the sweep's closed-form delay is NaN at the singular point alone
    s = spectra.sweep_detuning(device, gc, x)
    assert np.flatnonzero(np.isnan(s.delay_s)).tolist() == [mid]


def test_numeric_delay_needs_three_points(device):
    x = spectra.grid(-1.0, 1.0, 2)
    with pytest.raises(ParameterError):
        spectra.sweep_detuning(device, 23.93, x)
    with pytest.raises(ParameterError):
        spectra.numeric_group_delay(x, np.zeros(2), np.zeros(2, dtype=bool))
