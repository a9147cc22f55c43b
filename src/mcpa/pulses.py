"""Pulse propagation through the electromechanical window, two independent ways.

Route one multiplies the pulse spectrum by the closed-form transfer function
(FFT, zero-padded). Route two integrates the linearized equations of motion
for the intracavity field and the mechanical amplitude,

    da/dt = -(i*Delta + kappa/2) a - i G b + sqrt(eta*kappa) s_in(t)
    db/dt = -(i*Delta + gamma_m/2) b - i G a
    s_out = s_in - sqrt(eta*kappa) a

either with a classic fixed-step RK4 or with an exact per-sample propagator
built from the 2x2 matrix exponential (the input is the piecewise-linear
interpolation of the samples, integrated in closed form). The exact
propagator is the default: the rate spread kappa/gamma_m reaches ~4e7 for
the reference device, so second-scale records are far outside any explicit
integrator's budget. The hold order matters: since the output is the small
difference s_in - sqrt(eta*kappa) a, holding the input constant across each
interval would misalign the two terms by a sample and the error would be
amplified by 1/|t| near the absorption dip; the linear hold keeps them
aligned at every sample time.

The steady-state response of the integrator reproduces the closed-form
transmission; that equivalence is this module's core self-check and is
pinned in the tests.

Times are seconds, rates ordinary Hz as everywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.signal
from numpy.typing import NDArray

from . import model
from .errors import (
    ParameterError,
    PulseEstimationError,
    StabilityError,
)
from .model import DeviceParams

TWO_PI = model.TWO_PI

#: Default bandwidth fraction for delay-measurement pulses: the pulse's rms
#: bandwidth 1/(2*pi*sigma_t) is set to this fraction of the effective
#: window width. The hard rule is <= 0.5; 1/32 keeps the centroid of the
#: transmitted pulse within ~1.5% of the analytic group delay even on the
#: advance side, where the band-curvature bias is worst.
DELAY_BANDWIDTH_FRACTION = 1.0 / 32.0

#: |t| below this inside the pulse band triggers the singular-band warning.
SINGULAR_BAND_TOL = 1e-6


@dataclass(frozen=True)
class PulseConfig:
    """Gaussian probe pulse description.

    Parameters
    ----------
    sigma_t_s : float
        (s) Gaussian width parameter of the field envelope,
        amplitude * exp(-(t - center)^2 / (2 sigma_t^2)).
    center_s : float
        (s) envelope peak time, > 0.
    record_s : float
        (s) total record length; must leave at least 8 sigma of tail after
        the center so a delayed pulse is never truncated.
    dt_s : float
        (s) sample interval; must resolve the envelope (dt <= sigma_t / 4).
    amplitude : float
        () peak field amplitude.
    carrier_detuning_hz : float
        (Hz) detuning of the pulse carrier from the cavity resonance.
    """

    sigma_t_s: float
    center_s: float
    record_s: float
    dt_s: float
    amplitude: float = 1.0
    carrier_detuning_hz: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_t_s) and self.sigma_t_s > 0.0):
            raise ParameterError(f"sigma_t_s must be positive, got {self.sigma_t_s!r}")
        if not (math.isfinite(self.center_s) and self.center_s > 0.0):
            raise ParameterError(f"center_s must be positive, got {self.center_s!r}")
        if not (math.isfinite(self.dt_s) and self.dt_s > 0.0):
            raise ParameterError(f"dt_s must be positive, got {self.dt_s!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0.0):
            raise ParameterError(f"amplitude must be positive, got {self.amplitude!r}")
        if not math.isfinite(self.carrier_detuning_hz):
            raise ParameterError("carrier_detuning_hz must be finite")
        if self.record_s < self.center_s + 8.0 * self.sigma_t_s:
            raise ParameterError(
                f"record_s = {self.record_s} truncates the pulse; need >= "
                f"center + 8 sigma = {self.center_s + 8.0 * self.sigma_t_s}"
            )
        if self.dt_s > self.sigma_t_s / 4.0:
            raise ParameterError(
                f"dt_s = {self.dt_s} undersamples sigma_t = {self.sigma_t_s}"
            )

    @property
    def rms_bandwidth_hz(self) -> float:
        """(Hz) spectral width 1/(2*pi*sigma_t) of the envelope."""
        return 1.0 / (TWO_PI * self.sigma_t_s)


@dataclass(frozen=True, eq=False)
class PulseWaveform:
    """Sampled complex envelope on a uniform time grid.

    Attributes
    ----------
    t0_s : float
        (s) time of the first sample.
    dt_s : float
        (s) sample interval.
    samples : ndarray of complex
        Field envelope. At least 16 samples.
    carrier_detuning_hz : float
        (Hz) carrier offset from the cavity resonance.
    warnings : tuple of str
        Accumulated soft diagnostics ("bandwidth", "singular-band", ...).
    """

    t0_s: float
    dt_s: float
    samples: NDArray[np.complexfloating]
    carrier_detuning_hz: float = 0.0
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt_s) and self.dt_s > 0.0):
            raise ParameterError(f"dt_s must be positive, got {self.dt_s!r}")
        samples = np.asarray(self.samples, dtype=complex)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or len(samples) < 16:
            raise ParameterError(f"waveform needs >= 16 samples, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ParameterError("waveform samples must be finite")

    @property
    def times_s(self) -> NDArray[np.floating]:
        return self.t0_s + self.dt_s * np.arange(len(self.samples))

    @property
    def energy(self) -> float:
        """() integral of |envelope|^2 over the record."""
        return float(np.sum(np.abs(self.samples) ** 2) * self.dt_s)

    def with_warning(self, tag: str) -> "PulseWaveform":
        if tag in self.warnings:
            return self
        return replace(self, warnings=self.warnings + (tag,))


def gaussian_pulse(config: PulseConfig, window_hz: float | None = None) -> PulseWaveform:
    """Synthesize the Gaussian probe envelope described by `config`.

    Parameters
    ----------
    config : PulseConfig
    window_hz : float, optional
        (Hz) effective window width of the system the pulse is aimed at.
        When given, a pulse whose rms bandwidth exceeds half this width gets
        the "bandwidth" warning attached (it still propagates; distortion
        studies are legitimate).

    Returns
    -------
    PulseWaveform
        Samples on t = 0, dt, 2 dt, ... < record_s.
    """
    n = int(round(config.record_s / config.dt_s))
    t = config.dt_s * np.arange(n)
    arg = (t - config.center_s) / config.sigma_t_s
    samples = (config.amplitude * np.exp(-0.5 * arg * arg)).astype(complex)
    warnings: tuple[str, ...] = ()
    if window_hz is not None and config.rms_bandwidth_hz > 0.5 * window_hz:
        warnings = ("bandwidth",)
    return PulseWaveform(
        t0_s=0.0,
        dt_s=config.dt_s,
        samples=samples,
        carrier_detuning_hz=config.carrier_detuning_hz,
        warnings=warnings,
    )


def waveform_rms_sigma(w: PulseWaveform) -> float:
    """(s) Gaussian-equivalent width from the |envelope|^2 moments.

    For a true Gaussian envelope this equals its sigma_t.
    """
    power = np.abs(w.samples) ** 2
    total = float(power.sum())
    if total <= 0.0:
        raise PulseEstimationError("waveform has zero energy")
    t = w.times_s
    mean = float((t * power).sum() / total)
    var = float((np.square(t - mean) * power).sum() / total)
    return math.sqrt(2.0 * var)


def _band_checks(
    w: PulseWaveform,
    params: DeviceParams,
    g: float,
    spectrum_mag: NDArray[np.floating],
    response_mag: NDArray[np.floating],
) -> tuple[str, ...]:
    """Soft diagnostics shared by both propagation routes."""
    tags: list[str] = []
    if w.energy > 0.0:
        bw = 1.0 / (TWO_PI * waveform_rms_sigma(w))
        if bw > 0.5 * model.effective_window_hz(params, g):
            tags.append("bandwidth")
        band = spectrum_mag > 1e-3 * spectrum_mag.max()
        if np.any(response_mag[band] < SINGULAR_BAND_TOL):
            tags.append("singular-band")
    return tuple(tags)


def propagate(
    w: PulseWaveform, params: DeviceParams, coupling: float
) -> PulseWaveform:
    """Frequency-domain propagation: Y(f) = t(carrier + f) * X(f).

    The record is zero-padded to at least four times its length before the
    transform, which keeps the periodic wrap of a delayed (or advanced)
    pulse out of the physical window.

    Returns
    -------
    PulseWaveform
        Output envelope on the input grid. Warnings: "bandwidth" when the
        pulse spectrum is wider than half the effective window,
        "singular-band" when the transfer function passes through a zero
        inside the occupied band.
    """
    g = model._g_hz(coupling)
    n = len(w.samples)
    m = 1 << max(int(math.ceil(math.log2(4 * n))), 4)
    x = np.fft.fft(w.samples, m)
    f = np.fft.fftfreq(m, w.dt_s)
    h = model.transmission_curve(params, g, w.carrier_detuning_hz + f)
    y = np.fft.ifft(x * h)[:n]
    out = PulseWaveform(
        t0_s=w.t0_s,
        dt_s=w.dt_s,
        samples=y,
        carrier_detuning_hz=w.carrier_detuning_hz,
        warnings=w.warnings,
    )
    for tag in _band_checks(w, params, g, np.abs(x), np.abs(h)):
        out = out.with_warning(tag)
    return out


# ---------------------------------------------------------------------------
# time-domain route
# ---------------------------------------------------------------------------

def _system_matrix(params: DeviceParams, g: float, carrier_detuning_hz: float):
    """Angular-rate state matrix A and drive vector B for state [a, b]."""
    delta = TWO_PI * carrier_detuning_hz
    kappa = TWO_PI * params.kappa_hz
    gamma = TWO_PI * params.gamma_m_hz
    big_g = TWO_PI * g
    a_mat = np.array(
        [
            [-(1j * delta + kappa / 2.0), -1j * big_g],
            [-1j * big_g, -(1j * delta + gamma / 2.0)],
        ],
        dtype=complex,
    )
    b_vec = np.array([math.sqrt(params.eta * kappa), 0.0], dtype=complex)
    return a_mat, b_vec


def _phi12(x: complex) -> tuple[complex, complex]:
    """phi1 = (e^x - 1)/x and phi2 = (e^x - 1 - x)/x^2, cancellation-safe.

    Near zero both expressions lose digits to subtraction, so a short Taylor
    series takes over there (16 terms reach machine precision for |x| < 0.5).
    Re(x) <= 0 for any dissipative system, so exp never overflows.
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


def _eigen_propagator(a_mat, b_vec, h):
    """Exact first-order-hold update pieces in the eigenbasis of A.

    For a drive that is linear across each interval (s_k at the left edge,
    s_{k+1} at the right), each eigenmode advances as

        z' = mu z + alpha s_k + beta s_{k+1}

    with mu = e^(lambda h), alpha = c h (phi1 - phi2), beta = c h phi2 and
    c the mode's drive projection. Returns (mu, alpha, beta, v) with
    a = (V z)[0], or None when A is too close to defective for the
    eigenroute to be trusted.
    """
    lam, v = np.linalg.eig(a_mat)
    if abs(lam[0] - lam[1]) < 1e-9 * max(1.0, abs(lam[0])) or np.linalg.cond(v) > 1e7:
        return None
    c = np.linalg.solve(v, b_vec)
    mu = np.exp(lam * h)
    alpha = np.empty(2, dtype=complex)
    beta = np.empty(2, dtype=complex)
    for i in (0, 1):
        phi1, phi2 = _phi12(lam[i] * h)
        alpha[i] = c[i] * h * (phi1 - phi2)
        beta[i] = c[i] * h * phi2
    return mu, alpha, beta, v


def _foh_propagator(a_mat, b_vec, h):
    """Fallback via the augmented matrix exponential (handles defective A).

    exp([[A, B, 0], [0, 0, 1], [0, 0, 0]] h) carries e^(Ah) in its top-left
    block and the two hold integrals int e^(A(h-s)) B ds and
    int e^(A(h-s)) B s ds in the two right-hand columns.
    """
    from scipy.linalg import expm

    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = a_mat
    m[:2, 2] = b_vec
    m[2, 3] = 1.0
    e4 = expm(m * h)
    j0 = e4[:2, 2]
    j1 = e4[:2, 3]
    return e4[:2, :2], j0 - j1 / h, j1 / h


def _integrate_exact(w, a_mat, b_vec, initial_state):
    """Per-sample exact propagation of the linearly interpolated envelope.
    Returns the intracavity field a at every sample time."""
    s = w.samples
    n = len(s)
    pieces = _eigen_propagator(a_mat, b_vec, w.dt_s)
    if pieces is not None:
        mu, alpha, beta, v = pieces
        z0 = np.linalg.solve(v, np.asarray(initial_state, dtype=complex))
        a_out = np.zeros(n, dtype=complex)
        for i in (0, 1):
            # z_k = beta s_k + alpha s_{k-1} + mu z_{k-1}: an order-(1,1)
            # IIR filter, plus the homogeneous decay of the initial offset.
            z_i = scipy.signal.lfilter([beta[i], alpha[i]], [1.0, -mu[i]], s)
            offset = z0[i] - beta[i] * s[0]
            if offset != 0.0:
                powers = np.empty(n, dtype=complex)
                powers[0] = 1.0
                np.cumprod(np.full(n - 1, mu[i]), out=powers[1:])
                z_i = z_i + offset * powers
            a_out += v[0, i] * z_i
        return a_out
    e_mat, av, bv = _foh_propagator(a_mat, b_vec, w.dt_s)
    e00, e01, e10, e11 = e_mat[0, 0], e_mat[0, 1], e_mat[1, 0], e_mat[1, 1]
    va, vb = complex(initial_state[0]), complex(initial_state[1])
    a_out = np.empty(n, dtype=complex)
    a_out[0] = va
    for k in range(1, n):
        s0, s1 = s[k - 1], s[k]
        va, vb = (
            e00 * va + e01 * vb + av[0] * s0 + bv[0] * s1,
            e10 * va + e11 * vb + av[1] * s0 + bv[1] * s1,
        )
        a_out[k] = va
    return a_out


def _integrate_rk4(w, a_mat, b_vec, initial_state, dt_int, max_steps):
    """Classic fixed-step RK4 with the envelope linearly interpolated
    between samples. Only viable for short records."""
    s = w.samples
    n = len(s)
    substeps = max(1, int(math.ceil(w.dt_s / dt_int)))
    if substeps * (n - 1) > max_steps:
        raise ParameterError(
            f"rk4 would need {substeps * (n - 1)} steps; use the exact propagator "
            "for records this long"
        )
    h = w.dt_s / substeps
    v = np.asarray(initial_state, dtype=complex)
    a_out = np.empty(n, dtype=complex)
    a_out[0] = v[0]

    def rhs(vec, drive):
        return a_mat @ vec + b_vec * drive

    for k in range(n - 1):
        s0, s1 = s[k], s[k + 1]
        for j in range(substeps):
            th0 = j / substeps
            th1 = (j + 0.5) / substeps
            th2 = (j + 1) / substeps
            d0 = s0 + (s1 - s0) * th0
            d1 = s0 + (s1 - s0) * th1
            d2 = s0 + (s1 - s0) * th2
            k1 = rhs(v, d0)
            k2 = rhs(v + 0.5 * h * k1, d1)
            k3 = rhs(v + 0.5 * h * k2, d1)
            k4 = rhs(v + h * k3, d2)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a_out[k + 1] = v[0]
    return a_out


def integrate_langevin(
    w: PulseWaveform,
    params: DeviceParams,
    coupling: float,
    *,
    method: str = "auto",
    dt_int: float | None = None,
    initial_state: tuple[complex, complex] = (0.0 + 0.0j, 0.0 + 0.0j),
    max_rk4_steps: int = 5_000_000,
) -> PulseWaveform:
    """Propagate a waveform by integrating the two-mode equations of motion.

    Parameters
    ----------
    w : PulseWaveform
        Input envelope; the carrier detuning rides along in the state
        matrix, so the envelope itself stays baseband.
    params : DeviceParams
    coupling : float
        (Hz) field-enhanced coupling rate.
    method : {"auto", "exact", "rk4"}
        "exact" uses the per-sample matrix-exponential propagator and is
        what "auto" resolves to; "rk4" opts into the explicit integrator,
        which must resolve the fastest rate and is therefore only usable
        for short records.
    dt_int : float, optional
        (s) RK4 step, default 0.05 / kappa_angular. Must satisfy
        dt_int <= 0.1 / (fastest angular rate).
    initial_state : (complex, complex)
        Intracavity field and mechanical amplitude at the first sample.

    Returns
    -------
    PulseWaveform
        Output envelope s_in - sqrt(eta*kappa) a on the input grid.

    Raises
    ------
    StabilityError
        If the requested RK4 step is too large for the fastest rate.
    """
    g = model._g_hz(coupling)
    a_mat, b_vec = _system_matrix(params, g, w.carrier_detuning_hz)
    if method not in ("auto", "exact", "rk4"):
        raise ParameterError(f"unknown method {method!r}")
    if method == "rk4":
        kappa_ang = TWO_PI * params.kappa_hz
        fastest = max(
            kappa_ang,
            TWO_PI * params.gamma_m_hz,
            TWO_PI * g,
            abs(TWO_PI * w.carrier_detuning_hz),
        )
        if dt_int is None:
            dt_int = 0.05 / kappa_ang
        if dt_int > 0.1 / fastest:
            raise StabilityError(
                f"dt_int = {dt_int:.3e} s does not resolve the fastest rate "
                f"({fastest / TWO_PI:.3e} Hz); need <= {0.1 / fastest:.3e} s"
            )
        a_out = _integrate_rk4(w, a_mat, b_vec, initial_state, dt_int, max_rk4_steps)
    else:
        a_out = _integrate_exact(w, a_mat, b_vec, initial_state)
    root = math.sqrt(params.eta * TWO_PI * params.kappa_hz)
    out = PulseWaveform(
        t0_s=w.t0_s,
        dt_s=w.dt_s,
        samples=w.samples - root * a_out,
        carrier_detuning_hz=w.carrier_detuning_hz,
        warnings=w.warnings,
    )
    if w.energy > 0.0:
        x = np.fft.fft(w.samples, 4 * len(w.samples))
        f = np.fft.fftfreq(4 * len(w.samples), w.dt_s)
        h = model.transmission_curve(params, g, w.carrier_detuning_hz + f)
        for tag in _band_checks(w, params, g, np.abs(x), np.abs(h)):
            out = out.with_warning(tag)
    return out


def cw_response(
    params: DeviceParams,
    coupling: float,
    detuning_hz: float,
    *,
    method: str = "exact",
    settle: float = 8.0,
    n_steps: int = 40,
) -> complex:
    """Steady-state output/input ratio under constant drive, by integration.

    Drives the two-mode system with a constant unit input at the given
    carrier detuning, steps it until every transient has decayed, and
    returns s_out / s_in. Up to integration error this equals the
    closed-form transmission; the agreement is the module's core oracle.

    Parameters
    ----------
    method : {"exact", "rk4"}
        "exact" steps the matrix-exponential propagator with a stride of
        `settle` slow time constants, so convergence is immediate. "rk4"
        must resolve the fastest rate and is only tractable when the rate
        spread is mild (toy parameters).
    """
    g = model._g_hz(coupling)
    a_mat, b_vec = _system_matrix(params, g, detuning_hz)
    slow = float(np.min(-np.real(np.linalg.eigvals(a_mat))))
    if slow <= 0.0:
        raise ParameterError("system is not dissipative; no steady state")
    root = math.sqrt(params.eta * TWO_PI * params.kappa_hz)
    if method == "exact":
        h = settle / slow
        pieces = _eigen_propagator(a_mat, b_vec, h)
        if pieces is not None:
            mu, alpha, beta, v = pieces
            c = alpha + beta  # constant drive: hold order is irrelevant
            z = np.zeros(2, dtype=complex)
            for _ in range(n_steps):
                z = mu * z + c
            a_ss = (v @ z)[0]
        else:
            e_mat, av, bv = _foh_propagator(a_mat, b_vec, h)
            pb = av + bv
            vec = np.zeros(2, dtype=complex)
            for _ in range(n_steps):
                vec = e_mat @ vec + pb
            a_ss = vec[0]
        return complex(1.0 - root * a_ss)
    if method == "rk4":
        fastest = float(np.max(np.abs(np.linalg.eigvals(a_mat))))
        dt_int = 0.05 / max(fastest, TWO_PI * params.kappa_hz)
        total = settle * n_steps / slow
        n = int(math.ceil(total / dt_int))
        if n > 2_000_000:
            raise ParameterError(
                f"rk4 settling needs {n} steps at this rate spread; use method='exact'"
            )
        t_grid = np.linspace(0.0, total, max(n, 32))
        w = PulseWaveform(
            t0_s=0.0,
            dt_s=float(t_grid[1] - t_grid[0]),
            samples=np.ones(len(t_grid), dtype=complex),
            carrier_detuning_hz=detuning_hz,
        )
        out = integrate_langevin(w, params, g, method="rk4", dt_int=dt_int)
        return complex(out.samples[-1])
    raise ParameterError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# arrival-time estimation and delay extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CenterTimeEstimate:
    """Arrival-time estimates for a single-lobe waveform.

    Attributes
    ----------
    centroid_s : float
        (s) first moment of |envelope|^2 (the primary estimator).
    gaussian_center_s : float
        (s) center of a least-squares Gaussian fit to |envelope|.
    gaussian_sigma_s : float
        (s) width of that fit.
    discrepancy_s : float
        (s) |centroid - gaussian center|.
    distorted : bool
        True when the two estimators disagree by more than a tenth of the
        fitted width, which marks a reshaped pulse.
    """

    centroid_s: float
    gaussian_center_s: float
    gaussian_sigma_s: float
    discrepancy_s: float
    distorted: bool


def _gaussian_fit(t: NDArray[np.floating], env: NDArray[np.floating]) -> tuple[float, float]:
    """Least-squares Gaussian fit to an amplitude envelope.

    Seeds from an amplitude-weighted parabola on log|env| (exact for a
    noiseless Gaussian), then polishes with a few Gauss-Newton steps on the
    amplitude-domain residual. Returns (center, sigma).
    """
    peak = float(env.max())
    mask = env >= peak * math.exp(-2.0)
    tm, em = t[mask], env[mask]
    wgt = em * em
    design = np.stack([np.ones_like(tm), tm, tm * tm], axis=1)
    scale = np.sqrt(wgt)
    coef, *_ = np.linalg.lstsq(design * scale[:, None], np.log(em) * scale, rcond=None)
    c0, c1, c2 = coef
    if not c2 < 0.0:
        raise PulseEstimationError("envelope shows no Gaussian curvature")
    center = -c1 / (2.0 * c2)
    sigma = math.sqrt(-1.0 / (2.0 * c2))
    amp = math.exp(c0 - c1 * c1 / (4.0 * c2))
    for _ in range(3):
        z = (t - center) / sigma
        g = amp * np.exp(-0.5 * z * z)
        jac = np.stack([g / amp, g * z / sigma, g * z * z / sigma], axis=1)
        step, *_ = np.linalg.lstsq(jac, env - g, rcond=None)
        amp, center, sigma = amp + step[0], center + step[1], sigma + step[2]
        if not (sigma > 0.0 and math.isfinite(sigma)):
            raise PulseEstimationError("gaussian fit collapsed")
    return float(center), float(sigma)


def center_time_estimates(w: PulseWaveform) -> CenterTimeEstimate:
    """Both arrival-time estimators for a waveform, with a distortion flag.

    Raises
    ------
    PulseEstimationError
        On near-zero energy or when a secondary lobe exceeds a third of the
        main peak (no single arrival time exists then).
    """
    env = np.abs(w.samples)
    peak = float(env.max())
    if peak <= 0.0 or w.energy <= 0.0:
        raise PulseEstimationError("waveform has no energy; no arrival time")
    peaks, _ = scipy.signal.find_peaks(env, prominence=peak / 3.0)
    if len(peaks) > 1:
        raise PulseEstimationError(
            f"{len(peaks)} comparable lobes found; arrival time undefined"
        )
    t = w.times_s
    power = env * env
    centroid = float((t * power).sum() / power.sum())
    g_center, g_sigma = _gaussian_fit(t, env)
    disc = abs(centroid - g_center)
    return CenterTimeEstimate(
        centroid_s=centroid,
        gaussian_center_s=g_center,
        gaussian_sigma_s=g_sigma,
        discrepancy_s=disc,
        distorted=disc > g_sigma / 10.0,
    )


def center_time(w: PulseWaveform) -> float:
    """(s) primary arrival time: the centroid of |envelope|^2."""
    return center_time_estimates(w).centroid_s


def delay_pulse_config(
    params: DeviceParams,
    coupling: float,
    *,
    carrier_detuning_hz: float = 0.0,
    bandwidth_fraction: float = DELAY_BANDWIDTH_FRACTION,
    n_samples: int = 4096,
    amplitude: float = 1.0,
) -> PulseConfig:
    """Size a probe pulse for a clean delay measurement at this coupling.

    The width is chosen so the pulse's rms bandwidth is `bandwidth_fraction`
    of the effective window, and the record is padded on whichever side the
    analytically expected group delay will shift the pulse toward.
    """
    g = model._g_hz(coupling)
    if not 0.0 < bandwidth_fraction <= 0.5:
        raise ParameterError("bandwidth_fraction must be in (0, 0.5]")
    window = model.effective_window_hz(params, g)
    sigma_t = 1.0 / (TWO_PI * bandwidth_fraction * window)
    tau = float(model.group_delay_curve(params, g, carrier_detuning_hz))
    if not math.isfinite(tau):
        tau = 0.0
    margin = min(abs(tau) * 1.5, 20.0 * sigma_t)
    lead = 8.0 * sigma_t + (margin if tau < 0.0 else 0.0)
    record = lead + 8.0 * sigma_t + (margin if tau > 0.0 else 0.0)
    return PulseConfig(
        sigma_t_s=sigma_t,
        center_s=lead,
        record_s=record,
        dt_s=record / n_samples,
        amplitude=amplitude,
        carrier_detuning_hz=carrier_detuning_hz,
    )


def extract_delay(
    params: DeviceParams,
    coupling: float,
    config: PulseConfig,
    *,
    method: str = "fft",
) -> float:
    """Pulse group delay: arrival-time shift relative to the pump-off run.

    Sends the configured Gaussian through the device twice, once at the
    requested coupling and once with the pump off (coupling 0, bare
    cavity), and returns the difference of the two arrival-time centroids.
    Referencing against the pump-off run removes offsets common to both
    runs, such as the sampling and interpolation bias of the chosen
    propagation route.

    Parameters
    ----------
    method : {"fft", "ode"}
        Propagation route; "ode" uses the exact per-sample propagator.

    Returns
    -------
    float
        (s) extracted delay; negative means the pulse arrived early.
    """
    g = model._g_hz(coupling)
    window = model.effective_window_hz(params, g)
    pulse = gaussian_pulse(config, window_hz=window)
    if method == "fft":
        with_pump = propagate(pulse, params, g)
        without = propagate(pulse, params, 0.0)
    elif method == "ode":
        with_pump = integrate_langevin(pulse, params, g, method="exact")
        without = integrate_langevin(pulse, params, 0.0, method="exact")
    else:
        raise ParameterError(f"unknown method {method!r}")
    return center_time(with_pump) - center_time(without)
