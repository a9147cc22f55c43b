"""Reference integrators for the two-mode equations of motion.

The package has one time-domain propagator, `pulses._integrate`. The tests
check it against these independent routes on the same state matrix A and
drive vector B (angular rates, state [a, b]), with the drive s linearly
interpolated between samples spaced h apart:

- `rk4`: classic fixed-step RK4, only usable for mild rate spreads;
- `eigen_step` / `eigen`: the exact step in the eigenbasis of A, which
  needs A to be diagonalizable (it refuses at the exceptional point);
- `expm_loop`: the exact step from scipy's matrix exponential of the
  augmented matrix, applied one sample at a time in a Python loop.

Each returns the intracavity field a at every sample time. `cw_response`
is the steady-state oracle: the package's exact step driven by a constant
input until every transient has decayed, which must reproduce the
closed-form transmission.
"""

import math

import numpy as np
import scipy.linalg

from mcpa import pulses


def rk4(a_mat, b_vec, h, s, initial_state, dt_int):
    """Classic RK4 with steps of at most `dt_int` inside each sample interval."""
    substeps = max(1, int(math.ceil(h / dt_int)))
    step = h / substeps
    v = np.asarray(initial_state, dtype=complex)
    a_out = np.empty(len(s), dtype=complex)
    a_out[0] = v[0]

    def rhs(vec, drive):
        return a_mat @ vec + b_vec * drive

    for k in range(len(s) - 1):
        s0, s1 = s[k], s[k + 1]
        for j in range(substeps):
            d0 = s0 + (s1 - s0) * (j / substeps)
            d1 = s0 + (s1 - s0) * ((j + 0.5) / substeps)
            d2 = s0 + (s1 - s0) * ((j + 1) / substeps)
            k1 = rhs(v, d0)
            k2 = rhs(v + 0.5 * step * k1, d1)
            k3 = rhs(v + 0.5 * step * k2, d1)
            k4 = rhs(v + step * k3, d2)
            v = v + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a_out[k + 1] = v[0]
    return a_out


def phi12(x):
    """phi1 = (e^x - 1)/x and phi2 = (e^x - 1 - x)/x^2, cancellation-safe.

    Near zero both expressions lose digits to subtraction, so a short Taylor
    series takes over there (16 terms reach machine precision for |x| < 0.5).
    """
    if abs(x) < 0.5:
        phi1 = 0.0 + 0.0j
        phi2 = 0.0 + 0.0j
        term = 1.0 + 0.0j  # x^n / n!
        for n in range(16):
            phi1 += term / (n + 1)
            phi2 += term / ((n + 1) * (n + 2))
            term *= x / (n + 1)
        return phi1, phi2
    ex = np.exp(x)
    return (ex - 1.0) / x, (ex - 1.0 - x) / (x * x)


def eigen_step(a_mat, b_vec, h):
    """Exact first-order-hold step in the eigenbasis of A.

    Each eigenmode advances as z' = mu z + alpha s_k + beta s_{k+1}, with
    mu = e^(lambda h), alpha = c h (phi1 - phi2), beta = c h phi2 and c the
    mode's drive projection. Returns (mu, alpha, beta, v) with a = (V z)[0].
    """
    lam, v = np.linalg.eig(a_mat)
    if abs(lam[0] - lam[1]) < 1e-9 * max(1.0, abs(lam[0])) or np.linalg.cond(v) > 1e7:
        raise ValueError("A is too close to defective for the eigenbasis step")
    c = np.linalg.solve(v, b_vec)
    mu = np.exp(lam * h)
    alpha = np.empty(2, dtype=complex)
    beta = np.empty(2, dtype=complex)
    for i in (0, 1):
        phi1, phi2 = phi12(lam[i] * h)
        alpha[i] = c[i] * h * (phi1 - phi2)
        beta[i] = c[i] * h * phi2
    return mu, alpha, beta, v


def eigen(a_mat, b_vec, h, s, initial_state):
    """Per-sample stepping of the eigenmodes with `eigen_step`."""
    mu, alpha, beta, v = eigen_step(a_mat, b_vec, h)
    z = np.linalg.solve(v, np.asarray(initial_state, dtype=complex))
    a_out = np.empty(len(s), dtype=complex)
    a_out[0] = (v @ z)[0]
    for k in range(1, len(s)):
        z = mu * z + alpha * s[k - 1] + beta * s[k]
        a_out[k] = (v @ z)[0]
    return a_out


def expm_loop(a_mat, b_vec, h, s, initial_state):
    """Per-sample stepping of x_k = E x_{k-1} + P s_{k-1} + Q s_k, with
    (E, P, Q) read off scipy's exponential of the augmented matrix."""
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = a_mat
    m[:2, 2] = b_vec
    m[2, 3] = 1.0
    e4 = scipy.linalg.expm(m * h)
    e_mat, j0, j1 = e4[:2, :2], e4[:2, 2], e4[:2, 3]
    p, q = j0 - j1 / h, j1 / h
    x = np.asarray(initial_state, dtype=complex)
    a_out = np.empty(len(s), dtype=complex)
    a_out[0] = x[0]
    for k in range(1, len(s)):
        x = e_mat @ x + p * s[k - 1] + q * s[k]
        a_out[k] = x[0]
    return a_out


# cw_response steps the exact propagator with a stride of _CW_SETTLE slow
# time constants, _CW_STEPS times, so every transient decays by e^-320.
_CW_SETTLE = 8.0
_CW_STEPS = 40


def cw_response(params, coupling, detuning_hz):
    """Steady-state output/input ratio under constant drive, by integration.

    Drives the two-mode system with a constant unit input at the given
    carrier detuning, steps the exact propagator until every transient has
    decayed, and returns s_out / s_in. Up to rounding this equals the
    closed-form transmission; the agreement is the core oracle of the
    time-domain route.
    """
    a_mat, b_vec = pulses._system_matrix(params, float(coupling), detuning_hz)
    slow = float(np.min(-np.real(np.linalg.eigvals(a_mat))))
    if slow <= 0.0:
        raise ValueError("system is not dissipative; no steady state")
    e, p, q = pulses._foh_propagator(a_mat, b_vec, _CW_SETTLE / slow)
    drive = p + q  # constant drive: the hold order is irrelevant
    x = np.zeros(2, dtype=complex)
    for _ in range(_CW_STEPS):
        x = e @ x + drive
    root = math.sqrt(params.eta * 2.0 * math.pi * params.kappa_hz)
    return complex(1.0 - root * x[0])
