"""Independent reference computations for the benchmark's output checks.

Nothing here imports mcpa. The device response is written out again from
the two-mode model, with every rate in ordinary Hz (the transmission only
depends on ratios of rates, so the 2*pi factors cancel):

    m = i*(Delta - offset) + gamma_m/2,   c = i*Delta + kappa/2
    t = 1 - eta*kappa*m / (m*c + G^2)

Scalars that matter for a pass/fail decision near the critical coupling are
evaluated with mpmath at 40 digits; arrays use numpy. mpmath and scipy are
imported where they are used, so building the inputs (part of setup_s)
pulls in numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

MP_DIGITS = 40

REFERENCE = {"kappa": 420e3, "eta": 0.651, "gamma": 9.7e-3}


def transmission(delta, kappa, eta, gamma, g, offset=0.0):
    """Closed-form transmission on a detuning array (Hz)."""
    delta = np.asarray(delta, dtype=float)
    m = 1j * (delta - offset) + gamma / 2.0
    c = 1j * delta + kappa / 2.0
    return 1.0 - eta * kappa * m / (m * c + g * g)


def bare_transmission(delta, kappa, eta):
    """Pump-off transmission: the G = 0 limit with the mechanics decoupled."""
    return 1.0 - eta * kappa / (1j * np.asarray(delta, dtype=float) + kappa / 2.0)


def group_delay(delta, kappa, eta, gamma, g):
    """(s) -d(arg t)/d(omega) from the analytic derivative of t."""
    delta = np.asarray(delta, dtype=float)
    m = 1j * delta + gamma / 2.0
    c = 1j * delta + kappa / 2.0
    den = m * c + g * g
    t = 1.0 - eta * kappa * m / den
    dt = -1j * eta * kappa * (g * g - m * m) / (den * den)
    return -np.imag(dt / t) / (2.0 * math.pi)


def transmission_mp(delta, kappa, eta, gamma, g):
    import mpmath

    mpmath.mp.dps = MP_DIGITS
    d, k, e, gm, gg = (mpmath.mpf(v) for v in (delta, kappa, eta, gamma, g))
    m = 1j * d + gm / 2
    c = 1j * d + k / 2
    return 1 - e * k * m / (m * c + gg * gg)


def group_delay_mp(kappa, eta, gamma, g, delta=0.0):
    """(s) group delay by numerical differentiation of arg t at 40 digits.

    The phase is taken relative to t(delta), which keeps it off the branch
    cut where t is real and negative (below the critical coupling).
    """
    import mpmath

    t0 = transmission_mp(delta, kappa, eta, gamma, g)
    phase = lambda d: mpmath.arg(transmission_mp(d, kappa, eta, gamma, g) / t0)
    return float(-mpmath.diff(phase, mpmath.mpf(delta)) / (2 * mpmath.pi))


def critical_coupling(kappa, eta, gamma):
    """(Hz) G where t(0) = 1 - 2*eta*gamma/(gamma + 4 G^2/kappa) vanishes."""
    return math.sqrt(kappa * gamma * (2.0 * eta - 1.0) / 4.0)


def boundary_coupling(kappa, eta, gamma):
    """(Hz) G where t(0) climbs back to the bare level |1 - 2 eta|."""
    return math.sqrt(kappa * gamma * (2.0 * eta - 1.0) / (4.0 * (1.0 - eta)))


def window_width(kappa, gamma, g):
    """(Hz) pump-broadened mechanical linewidth gamma_m + 4 G^2 / kappa."""
    return gamma + 4.0 * g * g / kappa


def complex_noise(rng, n, snr_db):
    """Circular complex Gaussian noise whose rms is 10^(-snr/20) of unit transmission."""
    level = 10.0 ** (-snr_db / 20.0)
    return level / math.sqrt(2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _residual(form, t_data):
    amp = np.abs(t_data)
    if form == "complex":
        return lambda t: np.concatenate([(t - t_data).real, (t - t_data).imag])
    if form == "polar":
        return lambda t: np.concatenate([np.abs(t) - amp, np.angle(t / t_data) * amp])
    return lambda t: np.abs(t) - amp


def window_truth_given_cavity(form, delta, t_clean, kappa_fit, eta_fit, gamma, g):
    """Window parameters (gamma_m, G, offset) that best describe the noiseless
    trace when the cavity is held at its fitted (kappa, eta).

    The window fit holds the cavity fixed, and a cavity error of a few 1e-4
    moves the window optimum by several of the fit's own sigmas (the window's
    Lorentzian tails absorb the bare-level mismatch). The fit's sigma covers
    only the window trace's noise, so it is compared with this conditional
    optimum, found here by scipy's trust-region solver on the same residual
    form (complex, amplitude-weighted polar, or amplitude-only).
    """
    from scipy.optimize import least_squares

    residual = _residual(form, t_clean)
    scale = np.array([gamma, g, window_width(kappa_fit, gamma, g)])

    def fn(u):
        x = u * scale
        return residual(transmission(delta, kappa_fit, eta_fit, x[0], x[1], x[2]))

    sol = least_squares(fn, np.array([1.0, 1.0, 0.0]), xtol=1e-14, ftol=1e-14, gtol=1e-14)
    return sol.x * scale


def gaussian_envelope(t, center, sigma):
    return np.exp(-0.5 * ((np.asarray(t) - center) / sigma) ** 2)


def centroid(t, samples):
    power = np.abs(samples) ** 2
    return float((t * power).sum() / power.sum())
