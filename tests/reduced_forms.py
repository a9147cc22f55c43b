"""Reduced zero-detuning forms of the probe response, used as a test oracle.

At zero detuning the transmission and its group delay collapse to real
rational functions of G^2 (rates angular in the formulas below):

    t_z   = (G^2 - (eta - 1/2)*kappa*gamma_m/2) / (G^2 + kappa*gamma_m/4)
    tau_z = eta*kappa*(G^2 - gamma_m^2/4)
            / [ (G^2 + kappa*gamma_m/4) * (G^2 - (eta - 1/2)*kappa*gamma_m/2) ]

They are derived separately from the factored N/den kernel in mcpa.model,
which the tests check against them.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def tz_reduced(params, g_hz):
    """() resonant transmission t_z at coupling(s) g_hz."""
    x = np.square(np.asarray(g_hz, dtype=float))
    a = (params.eta - 0.5) * params.kappa_hz * params.gamma_m_hz / 2.0
    b = params.kappa_hz * params.gamma_m_hz / 4.0
    return (x - a) / (x + b)


def tauz_reduced(params, g_hz):
    """(s) resonant group delay tau_z at coupling(s) g_hz."""
    kappa = TWO_PI * params.kappa_hz
    gamma = TWO_PI * params.gamma_m_hz
    x = np.square(TWO_PI * np.asarray(g_hz, dtype=float))
    num = params.eta * kappa * (x - gamma * gamma / 4.0)
    den = (gamma * kappa / 4.0 + x) * (x - (params.eta - 0.5) * kappa * gamma / 2.0)
    return num / den
