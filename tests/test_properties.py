"""Property tests over random over-coupled devices near the reference device.

Each device scales the reference cavity linewidth and mechanical linewidth
by up to a factor of 3 either way and draws an over-coupled eta, so every
device has a critical coupling G_c. Examples are derandomized and bounded,
so the suite stays deterministic.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from mcpa import model, pulses

REFERENCE = model.reference_device()

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def over_coupled_devices(draw):
    kappa = REFERENCE.kappa_hz * 10.0 ** draw(st.floats(-0.5, 0.5))
    gamma = REFERENCE.gamma_m_hz * 10.0 ** draw(st.floats(-0.5, 0.5))
    eta = draw(st.floats(0.55, 0.95))
    return model.DeviceParams(REFERENCE.cavity_freq_hz, REFERENCE.mech_freq_hz, kappa, eta, gamma)


# coupling as log10(G / G_c): a decade either side
log_ratio = st.floats(-1.0, 1.0)


@PROPERTY
@given(dev=over_coupled_devices(), x=log_ratio)
def test_passive(dev, x):
    g = model.critical_coupling(dev) * 10.0**x
    window = model.effective_window_hz(dev, g)
    wings = np.geomspace(1e-2, 1e3, 101) * dev.kappa_hz  # |t| -> 1 far out
    detuning = np.concatenate([np.linspace(-20.0, 20.0, 401) * window, wings, -wings])
    t = model.transmission_curve(dev, g, detuning)
    assert np.max(np.abs(t)) <= 1.0 + 1e-12


@PROPERTY
@given(dev=over_coupled_devices(), r=st.floats(2e-3, 0.9))
def test_resonant_phase_is_exact_and_flips_at_critical(dev, r):
    gc = model.critical_coupling(dev)
    below = model.transmission(dev, gc * (1.0 - r), 0.0)
    above = model.transmission(dev, gc * (1.0 + r), 0.0)
    assert below.t.imag == 0.0 and above.t.imag == 0.0
    assert below.phase_rad == math.pi
    assert above.phase_rad == 0.0


@PROPERTY
@given(
    dev=over_coupled_devices(),
    x=log_ratio.filter(lambda x: abs(x) > 0.05),
    d=st.floats(-3.0, 3.0),
)
def test_cw_response_matches_transmission(dev, x, d):
    # the tolerance of test_acceptance::test_steady_state_integration_oracle,
    # which also keeps its couplings a few percent away from G_c
    g = model.critical_coupling(dev) * 10.0**x
    detuning = d * model.effective_window_hz(dev, g)
    closed = model.transmission(dev, g, detuning).t
    stepped = pulses.cw_response(dev, g, detuning)
    assert abs(stepped - closed) <= 1e-4 * abs(closed)
