"""Unit tests for the closed-form response module.

The numeric constants below were frozen from a 50-digit evaluation of the
same closed forms (mpmath), done independently of the package code; they
serve as regression oracles at float64 precision.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from mcpa import (
    DeviceParams,
    NoCriticalCouplingError,
    ParameterError,
    PulseWaveform,
    Regime,
    model,
    pulses,
    spectra,
)
from reduced_forms import tauz_reduced, tz_reduced

GC_HZ = 17.53815839818993082
GB_HZ = 29.687339201796470361

TZ_ORACLE = {
    17.66: 3.2236009139073206e-3,
    17.24: -7.8811745012759577e-3,
    17.84: 7.9883862959968449e-3,
}

TAUZ_ORACLE = {
    11.87: -31.72559925267827979,
    23.93: 59.086097400395603556,
    155.1: 1.7579510380600015765,
    176.8: 1.3616185253748195297,
}


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

def test_reference_device_values(device):
    assert device.cavity_freq_hz == 5.318e9
    assert device.mech_freq_hz == 755.5e3
    assert device.kappa_hz == 420e3
    assert device.eta == 0.651
    assert device.gamma_m_hz == 9.7e-3
    assert device.vacuum_coupling_hz is None


@pytest.mark.parametrize(
    "field,value",
    [
        ("kappa_hz", 0.0),
        ("kappa_hz", -1.0),
        ("kappa_hz", math.nan),
        ("kappa_hz", True),
        ("gamma_m_hz", 0.0),
        ("vacuum_coupling_hz", True),
        ("mech_freq_hz", math.inf),
        ("eta", 0.0),
        ("eta", 1.0),
        ("eta", 1.2),
    ],
)
def test_device_params_validation(device, field, value):
    kwargs = {
        "cavity_freq_hz": device.cavity_freq_hz,
        "mech_freq_hz": device.mech_freq_hz,
        "kappa_hz": device.kappa_hz,
        "eta": device.eta,
        "gamma_m_hz": device.gamma_m_hz,
    }
    kwargs[field] = value
    with pytest.raises(ParameterError):
        DeviceParams(**kwargs)


def test_device_params_frozen(device):
    with pytest.raises(AttributeError):
        device.kappa_hz = 1.0


def test_coupling_validation(device):
    # 1e200 Hz: G^2 overflows a float
    for bad in (-1.0, math.nan, math.inf, 1e200):
        for fn in (model.classify_regime, model.effective_window_hz):
            with pytest.raises(ParameterError):
                fn(device, bad)
        # every element of a coupling array is checked
        for coupling in (bad, np.array([11.87, bad])):
            for fn in (model.transmission_curve, model.group_delay_curve):
                with pytest.raises(ParameterError):
                    fn(device, coupling, 0.0)


def _sweep(device, coupling):
    return spectra.sweep_detuning(device, coupling, np.linspace(-1.0, 1.0, 3))


def _probe(device, route, coupling):
    w = PulseWaveform(t0_s=0.0, dt_s=0.5, samples=np.ones(32, dtype=complex))
    return route(w, device, coupling)


# each case misbehaved while the scalar-only entry points let arrays through:
# a mixed-coupling Spectrum, numpy broadcasting and truth-value ValueErrors,
# and a TypeError from delay_pulse_config
SCALAR_ONLY = {
    "sweep_detuning-3-on-3": lambda d: _sweep(d, np.array([10.0, 20.0, 30.0])),
    "sweep_detuning-2-on-3": lambda d: _sweep(d, np.array([10.0, 20.0])),
    "classify_regime": lambda d: model.classify_regime(d, np.array([10.0, 20.0])),
    "delay_pulse_config": lambda d: pulses.delay_pulse_config(d, np.array([10.0, 20.0])),
    "effective_window_hz": lambda d: model.effective_window_hz(d, np.array([10.0])),
    "propagate": lambda d: _probe(d, pulses.propagate, np.array([10.0, 20.0])),
    "integrate_langevin": lambda d: _probe(d, pulses.integrate_langevin, [10.0]),
    "band_warnings": lambda d: _probe(d, pulses.band_warnings, np.array([10.0, 20.0])),
}


@pytest.mark.parametrize("case", sorted(SCALAR_ONLY))
def test_scalar_only_entry_points_reject_coupling_arrays(device, case):
    with pytest.raises(ParameterError, match="one coupling rate"):
        SCALAR_ONLY[case](device)


# ---------------------------------------------------------------------------
# special couplings
# ---------------------------------------------------------------------------

def test_critical_coupling_oracle(device):
    assert model.critical_coupling(device) == pytest.approx(GC_HZ, rel=1e-14)


def test_boundary_coupling_oracle(device):
    assert model.boundary_coupling(device) == pytest.approx(GB_HZ, rel=1e-14)


def test_boundary_to_critical_ratio(device):
    # G_b / G_c = 1 / sqrt(1 - eta), independent of every other parameter
    ratio = model.boundary_coupling(device) / model.critical_coupling(device)
    assert ratio == pytest.approx(1.0 / math.sqrt(1.0 - device.eta), rel=1e-14)


@pytest.mark.parametrize("rate", [1e-300, 1e200])
def test_special_couplings_out_of_float_range(device, rate):
    # (eta - 1/2) kappa gamma_m underflows to 0 or overflows to inf
    extreme = replace(device, kappa_hz=rate, gamma_m_hz=rate)
    for fn in (model.critical_coupling, model.boundary_coupling):
        with pytest.raises(ParameterError, match="underflows or overflows"):
            fn(extreme)


def test_undercoupled_device_has_no_critical_coupling(device):
    under = DeviceParams(
        cavity_freq_hz=device.cavity_freq_hz,
        mech_freq_hz=device.mech_freq_hz,
        kappa_hz=device.kappa_hz,
        eta=0.4,
        gamma_m_hz=device.gamma_m_hz,
    )
    with pytest.raises(NoCriticalCouplingError):
        model.critical_coupling(under)
    with pytest.raises(NoCriticalCouplingError):
        model.boundary_coupling(under)


def test_classify_regime(device):
    assert model.classify_regime(device, 5.0).regime is Regime.ADVANCE_SIDE
    assert model.classify_regime(device, 23.93).regime is Regime.DELAY_SIDE_ABSORBING
    assert model.classify_regime(device, 155.1).regime is Regime.TRANSPARENCY
    assert not model.classify_regime(device, 5.0).at_boundary
    near = GB_HZ * (1.0 + 1e-8)
    flagged = model.classify_regime(device, near)
    assert flagged.at_boundary
    assert flagged.regime is Regime.TRANSPARENCY


# ---------------------------------------------------------------------------
# transmission
# ---------------------------------------------------------------------------

def test_resonant_transmission_oracle(device):
    for g, expected in TZ_ORACLE.items():
        assert float(model.transmission_curve(device, g, 0.0).real) == pytest.approx(
            expected, rel=1e-12
        )


def test_resonant_transmission_pump_off(device):
    # with the pump off the probe sees the bare cavity: t = 1 - 2 eta
    assert float(model.transmission_curve(device, 0.0, 0.0).real) == pytest.approx(
        1.0 - 2.0 * device.eta, rel=1e-15
    )


def test_resonance_curve_matches_scalar(device):
    # a coupling array gives, point by point, the scalar-coupling values
    g = np.array([0.0, 11.87, 17.66, 155.1])
    t = model.transmission_curve(device, g, 0.0)
    assert np.all(t.imag == 0.0)
    curve = t.real
    for i, gi in enumerate(g):
        assert curve[i] == model.transmission_curve(device, float(gi), 0.0).real
    # the kernel against the separately derived reduced form
    np.testing.assert_allclose(curve, tz_reduced(device, g), rtol=1e-12)


def test_transmission_far_detuned_is_unity(device):
    # the Lorentzian tail falls off as eta*kappa/Delta: a thousand
    # linewidths out the response is unity at the part-per-thousand level
    t = complex(model.transmission_curve(device, 23.93, 1000.0 * device.kappa_hz))
    assert abs(t - 1.0) < 1e-3


def test_transmission_curve_vectorized_shape(device):
    delta = np.linspace(-1.0, 1.0, 17)
    t = model.transmission_curve(device, 23.93, delta)
    assert t.shape == delta.shape
    assert t.dtype == complex


def test_transmission_scale_invariance(device):
    # t depends only on rate ratios: scaling every rate and the detuning
    # by a common factor leaves it unchanged
    scale = 137.0
    scaled = DeviceParams(
        cavity_freq_hz=device.cavity_freq_hz,
        mech_freq_hz=device.mech_freq_hz,
        kappa_hz=device.kappa_hz * scale,
        eta=device.eta,
        gamma_m_hz=device.gamma_m_hz * scale,
    )
    delta = np.array([0.0, 0.003, -0.011, 5.0])
    a = model.transmission_curve(device, 17.66, delta)
    b = model.transmission_curve(scaled, 17.66 * scale, delta * scale)
    np.testing.assert_allclose(a, b, rtol=1e-13)


# ---------------------------------------------------------------------------
# phase conventions
# ---------------------------------------------------------------------------

def test_principal_phase_branch():
    assert model.principal_phase(complex(1.0, 0.0)) == 0.0
    assert model.principal_phase(complex(-1.0, 0.0)) == math.pi
    assert model.principal_phase(complex(-1.0, -0.0)) == math.pi
    assert model.principal_phase(complex(0.0, 1.0)) == pytest.approx(math.pi / 2)
    assert model.principal_phase(complex(0.0, -1.0)) == pytest.approx(-math.pi / 2)
    phi = model.principal_phase(complex(-0.5, -1e-12))
    assert -math.pi < phi <= math.pi
    # elementwise over arrays, real or complex
    t = np.array([1.0, -1.0, complex(-1.0, -0.0), 1j])
    np.testing.assert_array_equal(model.principal_phase(t), [0.0, math.pi, math.pi, math.pi / 2])
    np.testing.assert_array_equal(model.principal_phase(np.array([-2.0, 3.0])), [math.pi, 0.0])


def test_phase_at_resonance_jump(device):
    t = model.transmission_curve(device, np.array([17.24, 17.84]), 0.0)
    np.testing.assert_array_equal(model.principal_phase(t), [math.pi, 0.0])


# ---------------------------------------------------------------------------
# group delay
# ---------------------------------------------------------------------------

def test_resonance_delay_oracle(device):
    for g, expected in TAUZ_ORACLE.items():
        assert float(model.group_delay_curve(device, g, 0.0)) == pytest.approx(
            expected, rel=1e-12
        )


def test_delay_sign_flips_across_critical(device):
    gc = model.critical_coupling(device)
    assert model.group_delay_curve(device, gc * 0.9, 0.0) < 0.0
    assert model.group_delay_curve(device, gc * 1.1, 0.0) > 0.0


def test_delay_curve_nan_at_singularity(device):
    gc = model.critical_coupling(device)
    tau = model.group_delay_curve(device, np.array([gc * 0.5, gc, gc * 2.0]), 0.0)
    assert math.isfinite(tau[0]) and math.isfinite(tau[2])
    assert math.isnan(tau[1])
    assert math.isnan(model.group_delay_curve(device, gc, 0.0))


def test_group_delay_curve_matches_resonance_form(device):
    # the detuning-domain kernel must agree with the reduced zero-detuning
    # form (two separately derived expressions)
    for g in (11.87, 23.93, 155.1, 176.8):
        generic = float(model.group_delay_curve(device, g, 0.0))
        assert generic == pytest.approx(float(tauz_reduced(device, g)), rel=1e-9)


def test_group_delay_scales_inversely_with_rates(device):
    scale = 10.0
    scaled = DeviceParams(
        cavity_freq_hz=device.cavity_freq_hz,
        mech_freq_hz=device.mech_freq_hz,
        kappa_hz=device.kappa_hz * scale,
        eta=device.eta,
        gamma_m_hz=device.gamma_m_hz * scale,
    )
    a = float(model.group_delay_curve(device, 23.93, 0.0))
    b = float(model.group_delay_curve(scaled, 23.93 * scale, 0.0))
    assert b == pytest.approx(a / scale, rel=1e-12)


def test_effective_window(device):
    expected = device.gamma_m_hz + 4.0 * 11.87**2 / device.kappa_hz
    assert model.effective_window_hz(device, 11.87) == pytest.approx(expected, rel=1e-15)
    assert model.effective_window_hz(device, 11.87) == pytest.approx(
        0.011041875238095238, rel=1e-14
    )
    assert model.effective_window_hz(device, 0.0) == device.gamma_m_hz


def test_resonant_point_channels(device):
    t = complex(model.transmission_curve(device, 17.66, 0.0))
    assert t.real == pytest.approx(TZ_ORACLE[17.66], rel=1e-12)
    assert 20.0 * math.log10(abs(t)) == pytest.approx(-49.83317459550327441, abs=1e-9)
    assert model.principal_phase(t) == 0.0
    # a scalar evaluation equals the same point of a detuning grid
    delta = np.array([-1e-3, 0.0, 1e-3])
    assert float(model.group_delay_curve(device, 17.66, 0.0)) == pytest.approx(
        model.group_delay_curve(device, 17.66, delta)[1], rel=1e-9
    )


def test_resonant_point_at_singularity(device):
    gc = model.critical_coupling(device)
    assert math.isnan(model.group_delay_curve(device, gc, 0.0))
    assert 20.0 * math.log10(abs(complex(model.transmission_curve(device, gc, 0.0)))) < -140.0
