"""Closed-form response of a linearized red-detuned electromechanical cavity.

A microwave cavity is parametrically coupled to a mechanical oscillator by a
strong pump on the lower motional sideband; a weak probe near the cavity
resonance sees a beam-splitter interaction between the intracavity field and
the mechanical mode. This module evaluates the resulting probe transmission,
its phase, and its group delay in closed form, together with the two special
coupling strengths that organize the physics:

* the critical coupling, where the resonant transmission crosses zero and
  the probe is perfectly absorbed, and
* the boundary coupling, where the resonant transmission climbs back up to
  the bare-cavity level and the window turns into transparency.

There are two public evaluations, :func:`transmission_curve` (t) and
:func:`group_delay_curve` (tau), and one phase rule, :func:`principal_phase`.
Both evaluations take a coupling and a detuning that may each be a scalar
or an array and broadcast against each other, so a spectrum at fixed
coupling and a resonance curve across couplings are the same call. The
functions that take one coupling rate (here, in `spectra` and in `pulses`)
check it with :func:`_scalar_g_hz`, which refuses an array. Detunings are
checked where they come in or are sized (a detuning sweep's grid, its
default span, a probe's band), by :func:`_detuning_hz`, and not on every
kernel call. Both evaluations go through one kernel, :func:`_response`,
which writes the transmission as a ratio of two factored polynomials in
the detuning Delta. With
D1 = i*Delta + gamma_m/2 and D2 = i*Delta + kappa/2,

    t = N / den,    N = D1*(D2 - eta*kappa) + G^2,    den = D1*D2 + G^2,

and the group delay is tau = -d(arg t)/d(2*pi*Delta). At zero detuning D1
and D2 are real, so N reduces to G^2 - (eta - 1/2)*kappa*gamma_m/2 without
any complex arithmetic: the resonant transmission is an exact real number,
its phase is exactly 0 or pi (:func:`principal_phase` puts real-negative t
at +pi, never -pi), and near the critical coupling the only
cancellation left is the one in G^2 - G_c^2 that the problem itself has.

Unit convention: every frequency or rate stored in :class:`DeviceParams`,
passed to a function, or returned from one is an ordinary frequency in Hz
(cycles per second), i.e. the angular rate divided by 2*pi. The
transmission depends only on rate ratios, so the kernel works in Hz
throughout. Group delays are seconds.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import NoCriticalCouplingError, ParameterError

TWO_PI = 2.0 * math.pi

#: |t| below this is treated as a true zero of the transmission: the phase is
#: undefined and the group delay diverges.
DEGENERACY_TOL = 1e-10

#: Relative distance from a regime boundary below which a coupling is
#: reported as sitting on the boundary rather than on either side.
BOUNDARY_REL_TOL = 1e-6

#: (Hz) the largest coupling rate G, or |detuning| Delta, whose square is a
#: finite float: the kernel forms G^2 and, in D1*D2, Delta^2
_MAX_RATE_HZ = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class DeviceParams:
    """Fixed parameters of one electromechanical device.

    Parameters
    ----------
    cavity_freq_hz : float
        (Hz) cavity resonance frequency omega_c / 2pi.
    mech_freq_hz : float
        (Hz) mechanical resonance frequency omega_m / 2pi. The pump is
        assumed parked on the lower sideband, cavity_freq_hz - mech_freq_hz.
    kappa_hz : float
        (Hz) total cavity linewidth kappa / 2pi (external plus internal).
    eta : float
        () external coupling fraction kappa_ext / kappa, in (0, 1).
    gamma_m_hz : float
        (Hz) intrinsic mechanical linewidth gamma_m / 2pi.
    vacuum_coupling_hz : float, optional
        (Hz) single-photon coupling rate g / 2pi, if known. Nothing computes
        with it: only a config's device block and the CSV headers written
        from it carry the value.
    """

    cavity_freq_hz: float
    mech_freq_hz: float
    kappa_hz: float
    eta: float
    gamma_m_hz: float
    vacuum_coupling_hz: float | None = None

    def __post_init__(self) -> None:
        rates = ["cavity_freq_hz", "mech_freq_hz", "kappa_hz", "gamma_m_hz"]
        if self.vacuum_coupling_hz is not None:
            rates.append("vacuum_coupling_hz")
        for name in rates:
            value = getattr(self, name)
            if not (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and math.isfinite(value)
                and value > 0.0
            ):
                raise ParameterError(f"{name} must be a positive finite number, got {value!r}")
        if not (0.0 < self.eta < 1.0):
            raise ParameterError(f"eta must lie strictly inside (0, 1), got {self.eta!r}")


def _g_hz(coupling):
    """Validate coupling rates in Hz: every element in [0, _MAX_RATE_HZ],
    so that G^2 is a finite float. A scalar comes back as a float, an array
    as a float array. The error names the first rate out of range."""
    g = np.asarray(coupling, dtype=float)
    # compared, not squared: a square that overflows warns (NaN fails both)
    fine = (g >= 0.0) & (g <= _MAX_RATE_HZ)
    if not np.all(fine):
        raise ParameterError(
            f"coupling rate must lie in [0, {_MAX_RATE_HZ:.6g}] Hz, got {float(g[~fine][0])!r}"
        )
    return float(g) if g.ndim == 0 else g


def _detuning_hz(detuning, what: str = "detuning"):
    """Validate detunings in Hz, or the reach of a band of them: every
    |element| at most _MAX_RATE_HZ, so that Delta^2 in the kernel is a
    finite float. A scalar comes back as a float, an array as a float
    array. The error names `what` and the first value out of range."""
    x = np.asarray(detuning, dtype=float)
    # compared, not squared, as in _g_hz
    fine = np.abs(x) <= _MAX_RATE_HZ
    if not np.all(fine):
        raise ParameterError(
            f"{what} must lie within +/- {_MAX_RATE_HZ:.6g} Hz, got {float(x[~fine][0])!r}"
        )
    return float(x) if x.ndim == 0 else x


def _scalar_g_hz(coupling) -> float:
    """`_g_hz` for the entry points that take one coupling rate: anything
    but a scalar raises ParameterError."""
    if np.ndim(coupling) != 0:
        raise ParameterError(f"expected one coupling rate, got shape {np.shape(coupling)}")
    return _g_hz(coupling)


def reference_device() -> DeviceParams:
    """Bundled reference parameter set of the measured device.

    A 5.318 GHz superconducting cavity (linewidth 420 kHz, external coupling
    fraction 0.651) coupled to a 755.5 kHz mechanical mode with a 9.7 mHz
    intrinsic linewidth. These values put the critical coupling near
    17.54 Hz and the boundary coupling near 29.69 Hz.
    """
    return DeviceParams(
        cavity_freq_hz=5.318e9,
        mech_freq_hz=755.5e3,
        kappa_hz=420e3,
        eta=0.651,
        gamma_m_hz=9.7e-3,
    )


# ---------------------------------------------------------------------------
# closed-form kernel
# ---------------------------------------------------------------------------

def _response(kappa_hz, eta, gamma_m_hz, g_hz, detuning_hz, offset_hz=0.0, *, delay=False):
    """Probe transmission t = N/den and, with `delay`, its group delay.

    With D1 = i*(Delta - offset) + gamma_m/2 and D2 = i*Delta + kappa/2,

        N   = D1*(D2 - eta*kappa) + G^2
        den = D1*D2 + G^2
        tau = -Im(N'/N - den'/den) / 2pi,  N' = i*(D1 + D2 - eta*kappa),
                                           den' = i*(D1 + D2)

    Every argument is in ordinary Hz; `detuning_hz` and `g_hz` broadcast
    against each other. `offset_hz` moves the mechanical resonance away from
    Delta = 0 (the window fit's center parameter). tau is in seconds and is
    NaN wherever |t| < DEGENERACY_TOL.

    Returns
    -------
    t, or (t, tau) when `delay` is true.
    """
    i_delta = 1j * np.asarray(detuning_hz, dtype=float)
    d1 = i_delta + complex(gamma_m_hz / 2.0, -offset_hz)
    d2 = i_delta + kappa_hz / 2.0
    g2 = np.square(g_hz)
    num = d1 * (d2 - eta * kappa_hz) + g2
    den = d1 * d2 + g2
    t = num / den
    if not delay:
        return t
    # Im(i*z) = Re(z). N is replaced by 1 where t vanishes; those points
    # come back as NaN regardless.
    singular = np.abs(t) < DEGENERACY_TOL
    s = d1 + d2
    tau = np.real(s / den - (s - eta * kappa_hz) / np.where(singular, 1.0, num)) / TWO_PI
    return t, np.where(singular, np.nan, tau)


# ---------------------------------------------------------------------------
# the two public evaluations and the phase rule
# ---------------------------------------------------------------------------

def transmission_curve(
    params: DeviceParams,
    coupling: NDArray[np.floating] | float,
    detuning_hz: NDArray[np.floating] | float,
) -> NDArray[np.complexfloating]:
    """Probe transmission coefficient t(Delta; G).

    Parameters
    ----------
    params : DeviceParams
        Device under test.
    coupling : array_like
        (Hz) field-enhanced coupling rate(s), each in [0, sqrt(float max)]
        (about 1.34e154), so that G^2 is a finite float.
    detuning_hz : array_like
        (Hz) probe detuning(s) Delta = omega_c - Omega_probe from the cavity
        resonance; broadcasts against `coupling`. Unchecked here: beyond
        +/- sqrt(float max) Delta^2 overflows.

    Returns
    -------
    ndarray of complex
        Transmission coefficient at each point. At zero detuning it is an
        exact real number, negative below the critical coupling.
    """
    return _response(params.kappa_hz, params.eta, params.gamma_m_hz, _g_hz(coupling), detuning_hz)


def principal_phase(t: NDArray[np.complexfloating] | complex) -> NDArray[np.floating]:
    """Phase of t on the branch (-pi, pi], with real-negative t at exactly +pi.

    Elementwise over an array. The +pi choice keeps the two sides of the
    absorption dip cleanly separated: below the critical coupling the
    resonant transmission is a negative real number and always reports pi,
    never -pi.
    """
    t = np.asarray(t)
    real_negative = (t.imag == 0.0) & (t.real < 0.0)
    return np.where(real_negative, math.pi, np.angle(t))[()]


# ---------------------------------------------------------------------------
# special couplings and regimes
# ---------------------------------------------------------------------------

def critical_coupling(params: DeviceParams) -> float:
    """Coupling rate at which the resonant transmission crosses zero.

        G_c = sqrt((eta - 1/2) * kappa * gamma_m / 2)

    Only an over-coupled cavity (eta > 1/2) has one.

    Returns
    -------
    float
        (Hz) critical coupling rate.

    Raises
    ------
    NoCriticalCouplingError
        If eta <= 1/2.
    ParameterError
        If G_c comes out as 0 or infinite in floats.
    """
    if params.eta <= 0.5:
        raise NoCriticalCouplingError(
            f"eta = {params.eta} is not over-coupled; resonant transmission never reaches zero"
        )
    return _root_in_range(
        "critical", (params.eta - 0.5) * params.kappa_hz * params.gamma_m_hz / 2.0
    )


def boundary_coupling(params: DeviceParams) -> float:
    """Coupling rate where the resonance returns to the bare-cavity level.

        G_b = sqrt((eta/2 - 1/4) * kappa * gamma_m / (1 - eta))

    Above it the mechanical window rises above the bare-cavity floor and the
    device acts as a transparency window; below it (but above the critical
    coupling) the window is still an absorption dip. The ratio to the
    critical coupling is sqrt(1 / (1 - eta)).

    Raises
    ------
    NoCriticalCouplingError
        If eta <= 1/2 (neither special coupling exists then).
    ParameterError
        If G_b comes out as 0 or infinite in floats.
    """
    if params.eta <= 0.5:
        raise NoCriticalCouplingError(
            f"eta = {params.eta} is not over-coupled; no boundary coupling exists"
        )
    return _root_in_range(
        "boundary",
        (params.eta / 2.0 - 0.25) * params.kappa_hz * params.gamma_m_hz / (1.0 - params.eta),
    )


def _root_in_range(name: str, square: float) -> float:
    """(Hz) the special coupling sqrt(`square`); a ParameterError where the
    rates' product has underflowed to 0 or overflowed to inf."""
    if not 0.0 < square < math.inf:
        raise ParameterError(
            f"the {name} coupling of this device comes out as {math.sqrt(square)!r} Hz: "
            "(eta - 1/2) * kappa * gamma_m underflows or overflows a float"
        )
    return math.sqrt(square)


class Regime(enum.Enum):
    """Which side of the two special couplings the device operates on."""

    ADVANCE_SIDE = "advance-side"
    DELAY_SIDE_ABSORBING = "delay-side-absorbing"
    TRANSPARENCY = "transparency"


@dataclass(frozen=True)
class RegimeResult:
    regime: Regime
    at_boundary: bool


def classify_regime(params: DeviceParams, coupling: float) -> RegimeResult:
    """Classify a coupling rate against the critical and boundary values.

    Below the critical coupling the resonant pulse response is an advance;
    between the two special couplings it is a delay inside an absorbing
    window; above the boundary coupling the window is a transparency peak.
    A coupling within a relative 1e-6 of either special value is flagged
    as sitting on the boundary (the label still reports the nearest side).
    """
    g = _scalar_g_hz(coupling)
    gc = critical_coupling(params)
    gb = boundary_coupling(params)
    at_boundary = (abs(g - gc) <= BOUNDARY_REL_TOL * gc) or (abs(g - gb) <= BOUNDARY_REL_TOL * gb)
    if g < gc:
        regime = Regime.ADVANCE_SIDE
    elif g < gb:
        regime = Regime.DELAY_SIDE_ABSORBING
    else:
        regime = Regime.TRANSPARENCY
    return RegimeResult(regime=regime, at_boundary=at_boundary)


def effective_window_hz(params: DeviceParams, coupling: float) -> float:
    """Width of the mechanically induced feature: gamma_m + 4 G^2 / kappa (Hz).

    This is the effective mechanical linewidth after pump broadening; pulses
    meant to probe the window undistorted must stay well inside it.
    """
    g = _scalar_g_hz(coupling)
    return params.gamma_m_hz + 4.0 * g * g / params.kappa_hz


# ---------------------------------------------------------------------------
# group delay
# ---------------------------------------------------------------------------

def group_delay_curve(
    params: DeviceParams,
    coupling: NDArray[np.floating] | float,
    detuning_hz: NDArray[np.floating] | float,
) -> NDArray[np.floating]:
    """Analytic group delay tau = -d(arg t)/d(2*pi*Delta).

    `coupling` and `detuning_hz` broadcast as in :func:`transmission_curve`.
    At zero detuning tau is negative below the critical coupling (pulse
    advance) and positive above (pulse delay), diverging like
    1/(G^2 - G_c^2) in between. Points where |t| is degenerate with zero
    return NaN.

    Returns
    -------
    ndarray of float
        (s) group delay; positive means the envelope is delayed.
    """
    return _response(
        params.kappa_hz, params.eta, params.gamma_m_hz, _g_hz(coupling), detuning_hz, delay=True
    )[1]
