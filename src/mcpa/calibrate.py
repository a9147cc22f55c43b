"""Parameter calibration from measured transmission spectra.

Fits the closed-form response to complex, polar, or amplitude-only spectra
with a damped least-squares (Levenberg-Marquardt style) optimizer using
finite-difference Jacobians. Every fit seeds itself from the data alone:
resonance position from the amplitude minimum, linewidth from the
half-depth width, coupling fraction from the dip depth, mechanical
parameters from the window height and width.

Both fits run the optimizer from each of their seeds and keep the
lowest-residual converged result. Amplitude-only data cannot tell the two
sides of the critical coupling apart (equal dip depths occur at one
coupling below and one above), so those fits start from both candidates and
report the runner-up as `alternate`; phase data breaks the tie.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from . import model
from .errors import (
    BracketingError,
    ConvergenceError,
    DipNotFoundError,
    FitError,
    ParameterError,
)
from .model import DeviceParams

#: Optimizer budget and stopping rule.
MAX_ITERATIONS = 200
GRADIENT_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class MeasuredSpectrum:
    """One measured transmission trace.

    Either complex samples (`t`) or polar ones (`amplitude_db`, optionally
    `phase_rad`; a missing phase marks an amplitude-only measurement).

    Attributes
    ----------
    frequency_hz : ndarray
        (Hz) strictly increasing axis; absolute probe frequency when
        `absolute_frequency`, otherwise detuning from the cavity resonance.
    """

    frequency_hz: NDArray[np.floating]
    t: NDArray[np.complexfloating] | None = None
    amplitude_db: NDArray[np.floating] | None = None
    phase_rad: NDArray[np.floating] | None = None
    absolute_frequency: bool = True

    def __post_init__(self) -> None:
        freq = np.asarray(self.frequency_hz, dtype=float)
        object.__setattr__(self, "frequency_hz", freq)
        if freq.ndim != 1 or len(freq) < 20:
            raise ParameterError(f"need at least 20 spectrum rows, got {freq.shape}")
        if not np.all(np.isfinite(freq)) or np.any(np.diff(freq) <= 0.0):
            raise ParameterError("frequency axis must be finite and strictly increasing")
        if (self.t is None) == (self.amplitude_db is None):
            raise ParameterError("provide exactly one of t (complex) or amplitude_db (polar)")
        for name in ("t", "amplitude_db", "phase_rad"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=complex if name == "t" else float)
            object.__setattr__(self, name, arr)
            if arr.shape != freq.shape:
                raise ParameterError(f"{name} must match the frequency axis shape")
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} contains non-finite values")
        # a fit sums 2 rows squared residuals, each up to pi times the data's
        # linear amplitude (or complex component): above `limit` it overflows
        limit = math.sqrt(sys.float_info.max / (32.0 * len(freq)))
        if self.t is not None:
            name, peak = "t", float(np.maximum(abs(self.t.real), abs(self.t.imag)).max())
        else:
            name, peak = "amplitude_db", float(self.amplitude_db.max())
            limit = 20.0 * math.log10(limit)
        if peak > limit:
            raise ParameterError(
                f"{name} reaches {peak:.6g}; a fit's sum of squares overflows above {limit:.6g}"
            )

    @property
    def has_phase(self) -> bool:
        return self.t is not None or self.phase_rad is not None

    def amplitude(self) -> NDArray[np.floating]:
        """() linear transmission amplitude |t|."""
        if self.t is not None:
            return np.abs(self.t)
        return 10.0 ** (self.amplitude_db / 20.0)

    def complex_values(self) -> NDArray[np.complexfloating]:
        """Complex transmission; requires phase information."""
        if self.t is not None:
            return self.t
        if self.phase_rad is None:
            raise ParameterError("amplitude-only spectrum carries no complex values")
        return self.amplitude() * np.exp(1j * self.phase_rad)

    @classmethod
    def from_complex(cls, frequency_hz, t, absolute_frequency: bool = True):
        return cls(frequency_hz=frequency_hz, t=t, absolute_frequency=absolute_frequency)

    @classmethod
    def from_polar(cls, frequency_hz, amplitude_db, phase_rad=None,
                   absolute_frequency: bool = True):
        return cls(frequency_hz=frequency_hz, amplitude_db=amplitude_db,
                   phase_rad=phase_rad, absolute_frequency=absolute_frequency)


@dataclass(frozen=True)
class FitResult:
    """Converged calibration result.

    `sigma` holds one-standard-deviation uncertainties from the local
    quadratic approximation at the optimum. `residual_history` is the rms
    residual after each accepted optimizer step (non-increasing by
    construction). `alternate` carries the mirror solution when the data
    cannot break a degeneracy.
    """

    params: dict[str, float]
    sigma: dict[str, float]
    residual_rms: float
    n_iterations: int
    converged: bool
    residual_history: tuple[float, ...]
    alternate: "FitResult | None" = None


# ---------------------------------------------------------------------------
# damped least squares
# ---------------------------------------------------------------------------

def _fd_jacobian(residual, x, r0, scale):
    m, n = len(r0), len(x)
    jac = np.empty((m, n))
    rel = float(np.cbrt(np.finfo(float).eps))
    for i in range(n):
        h = rel * max(abs(x[i]), scale[i])
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (residual(xp) - residual(xm)) / (2.0 * h)
    return jac


def _levenberg_marquardt(residual, x0, scale):
    """Damped least squares with acceptance-gated steps.

    Returns (x, cov, history, n_iter, converged); `history` is the rms
    residual after each accepted step, first entry at the start point.
    """
    x = np.asarray(x0, dtype=float).copy()
    scale = np.asarray(scale, dtype=float)
    r = residual(x)
    m = len(r)
    cost = 0.5 * float(r @ r)
    history = [math.sqrt(2.0 * cost / m)]
    lam = 1e-3
    jac = _fd_jacobian(residual, x, r, scale)
    grad0 = float(np.max(np.abs(jac.T @ r))) or 1.0
    converged = False
    n_iter = 0
    for n_iter in range(1, MAX_ITERATIONS + 1):
        grad = jac.T @ r
        if float(np.max(np.abs(grad))) <= GRADIENT_RTOL * grad0:
            converged = True
            break
        normal = jac.T @ jac
        diag = np.clip(np.diag(normal), 1e-300, None)
        accepted = False
        for _ in range(30):
            try:
                step = np.linalg.solve(normal + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_new = residual(x + step)
            cost_new = 0.5 * float(r_new @ r_new)
            if cost_new < cost:
                x = x + step
                r, cost = r_new, cost_new
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # No damping level gives a downhill step, so the quadratic
            # model is exhausted at float precision. On noisy data that
            # happens right at the noise-floor minimum, where the gradient
            # test may still miss by luck of the draw. Count it as
            # convergence only if the near-undamped step confirms the
            # parameters are stationary; otherwise report the stall.
            try:
                probe = np.linalg.solve(normal + 1e-12 * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                break
            rel = float(np.max(np.abs(probe) / np.maximum(np.abs(x), scale)))
            converged = rel < 1e-8
            break
        history.append(math.sqrt(2.0 * cost / m))
        jac = _fd_jacobian(residual, x, r, scale)
        if float(np.max(np.abs(step) / np.maximum(np.abs(x), scale))) < 1e-14:
            converged = True
            break
        if cost < 1e-30:
            converged = True
            break
    dof = max(m - len(x), 1)
    sigma2 = 2.0 * cost / dof
    try:
        cov = sigma2 * np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.full((len(x), len(x)), np.nan)
    return x, cov, history, n_iter, converged


def _make_residual(spectrum: MeasuredSpectrum, model_fn):
    """Residual vector builder matching the measurement mode.

    Complex data: stacked real and imaginary residuals. Polar data with
    phase: amplitude residual plus the phase difference angle(t * e^{-i phase}),
    which lies in (-pi, pi] without unwrap bookkeeping, weighted by the local
    amplitude (so the phase contributes nothing where the signal vanishes).
    Amplitude-only: amplitude residual alone.
    """
    if spectrum.t is not None:
        data = spectrum.t

        def residual(x):
            diff = model_fn(x) - data
            return np.concatenate([diff.real, diff.imag])

        return residual
    amp = spectrum.amplitude()
    if spectrum.phase_rad is not None:
        unphase = np.exp(-1j * spectrum.phase_rad)

        def residual(x):
            t = model_fn(x)
            return np.concatenate([np.abs(t) - amp, np.angle(t * unphase) * amp])

        return residual

    def residual(x):
        return np.abs(model_fn(x)) - amp

    return residual


def _multistart(residual, starts, names, report, distinct):
    """Run the solver from each (x0, scale) start and return the
    lowest-residual converged fit, carrying the runner-up as `alternate`
    when `distinct(primary, runner_up)` says it is another solution and its
    every sigma is finite (a NaN sigma marks a runner-up that the data do
    not constrain, such as the mechanics decoupled at G ~ 0).
    `report` maps a solution to the values reported under `names`.

    A start that stalls (the mirror seed of amplitude-only data often starts
    far from any minimum) is dropped; the fit fails only if every start does.
    """
    results = []
    for x0, scale in starts:
        x, cov, history, n_iter, converged = _levenberg_marquardt(residual, x0, scale)
        sigma = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        results.append(FitResult(
            params={k: float(v) for k, v in zip(names, report(x))},
            sigma={k: float(s) for k, s in zip(names, sigma)},
            residual_rms=history[-1],
            n_iterations=n_iter,
            converged=converged,
            residual_history=tuple(history),
        ))
    done = sorted((r for r in results if r.converged), key=lambda r: r.residual_rms)
    if not done:
        worst = max(r.n_iterations for r in results)
        raise ConvergenceError(
            f"no seed met the gradient tolerance (up to {worst} iterations per seed)"
        )
    if len(done) > 1 and distinct(done[0], done[1]) and all(
        map(math.isfinite, done[1].sigma.values())
    ):
        return replace(done[0], alternate=done[1])
    return done[0]


def _half_width(axis, inside, i):
    """Distance on `axis` between the first samples outside the run of
    `inside` samples through index `i` (or the axis ends); a tenth of the
    axis span when that distance is zero."""
    lo = i
    while lo > 0 and inside[lo]:
        lo -= 1
    hi = i
    while hi < len(inside) - 1 and inside[hi]:
        hi += 1
    width = abs(float(axis[hi] - axis[lo]))
    if width <= 0.0:
        width = abs(float(axis[-1] - axis[0])) / 10.0
    return width


# ---------------------------------------------------------------------------
# bare cavity
# ---------------------------------------------------------------------------

def _bare_model_fn(detuning_hz):
    """Pump-off model over (center shift, kappa, eta) on a detuning axis.

    At G = 0 the mechanics decouple, so any positive mechanical linewidth
    cancels from the kernel; kappa stands in for it.
    """

    def evaluate(x):
        shift, kappa, eta = x
        return model._response(kappa, eta, kappa, 0.0, detuning_hz + shift)

    return evaluate


def _bare_starts(spectrum):
    """(center, [(x0, scale), ...]) estimated straight from the data; x0 is
    (center shift, kappa, eta), one start per coupling-fraction candidate."""
    amp = spectrum.amplitude()
    freq = spectrum.frequency_hz
    baseline = float(np.median(amp))
    i_dip = int(np.argmin(amp))
    depth_db = 20.0 * math.log10(max(amp[i_dip], 1e-300) / max(baseline, 1e-300))
    if depth_db > -0.5:
        raise DipNotFoundError(
            f"no resonance dip: minimum is {depth_db:.2f} dB below the baseline"
        )
    half_power = math.sqrt((amp[i_dip] ** 2 + baseline**2) / 2.0)
    kappa0 = _half_width(freq, amp <= half_power, i_dip)
    center0 = float(freq[i_dip]) if spectrum.absolute_frequency else -float(freq[i_dip])
    if spectrum.has_phase:
        tz = complex(spectrum.complex_values()[i_dip])
        eta_candidates = [(1.0 - tz.real) / 2.0]
    else:
        depth = float(amp[i_dip] / max(baseline, 1e-300))
        eta_candidates = [(1.0 + depth) / 2.0, (1.0 - depth) / 2.0]
    scale = (float(freq[-1] - freq[0]), kappa0, 1.0)
    return center0, [((0.0, kappa0, min(max(eta0, 0.02), 0.98)), scale)
                     for eta0 in eta_candidates]


def fit_bare_cavity(spectrum: MeasuredSpectrum) -> FitResult:
    """Fit (resonance frequency, kappa, eta) to a pump-off spectrum.

    The spectrum should span at least ~3 linewidths around the dip. With
    complex or polar-with-phase data the coupling side is determined; with
    amplitude-only data the exactly degenerate mirror solution
    (eta -> 1 - eta) is attached as `alternate`.

    Returns
    -------
    FitResult
        params keys: "cavity_freq_hz" (or "center_offset_hz" when the axis
        is detuning), "kappa_hz", "eta".
    """
    center0, starts = _bare_starts(spectrum)
    # The center is fitted as a shift from its seed: on an absolute axis the
    # finite-difference step of the center itself would be a sizeable
    # fraction of kappa.
    freq = spectrum.frequency_hz
    detuning = (center0 - freq) if spectrum.absolute_frequency else (freq + center0)
    name0 = "cavity_freq_hz" if spectrum.absolute_frequency else "center_offset_hz"
    return _multistart(
        _make_residual(spectrum, _bare_model_fn(detuning)),
        starts,
        (name0, "kappa_hz", "eta"),
        lambda x: (x[0] + center0, x[1], x[2]),
        lambda a, b: abs(b.params["eta"] - a.params["eta"]) > 1e-6,
    )


# ---------------------------------------------------------------------------
# mechanical window
# ---------------------------------------------------------------------------

def _window_starts(spectrum, cavity, delta_axis):
    """Closed-form starts over (gamma_m, G, offset): the window width gives
    the effective linewidth, the window height at its center gives the split
    between gamma_m and G."""
    amp = spectrum.amplitude()
    bare = abs(1.0 - 2.0 * cavity.eta)
    dev = np.abs(amp - bare)
    i_pk = int(np.argmax(dev))
    if dev[i_pk] < 0.05 * max(bare, 0.05):
        raise DipNotFoundError("no mechanical feature stands out from the bare background")
    gamma_eff = _half_width(delta_axis, dev > dev[i_pk] / 2.0, i_pk)
    offset0 = float(delta_axis[i_pk])
    if spectrum.has_phase:
        tz_values = [float(np.real(spectrum.complex_values()[i_pk]))]
    else:
        mag = float(amp[i_pk])
        tz_values = [mag, -mag]
    starts = []
    for tz in tz_values:
        tz = min(tz, 0.999)
        gamma0 = gamma_eff * (1.0 - tz) / (2.0 * cavity.eta)
        gamma0 = min(max(gamma0, 1e-12), gamma_eff * 0.999999)
        g0 = math.sqrt(max(cavity.kappa_hz * (gamma_eff - gamma0) / 4.0, 1e-24))
        scale = (max(gamma0, 1e-6), max(g0, 1e-3), max(gamma_eff, 1e-6))
        starts.append(((gamma0, g0, offset0), scale))
    return starts


def fit_mechanical_window(spectrum: MeasuredSpectrum, cavity: DeviceParams) -> FitResult:
    """Fit (gamma_m, coupling rate, window center offset) with the cavity
    parameters held fixed.

    The window feature is only Hz wide while the cavity line is hundreds of
    kHz, so the cavity must be calibrated first (see fit_bare_cavity) and
    passed in. Amplitude-only data leave the side of the critical coupling
    undetermined near the dip; both candidates are then reported, primary
    first by residual.

    Returns
    -------
    FitResult
        params keys: "gamma_m_hz", "g_hz", "center_offset_hz".
    """
    if spectrum.absolute_frequency:
        delta_axis = cavity.cavity_freq_hz - spectrum.frequency_hz
    else:
        delta_axis = spectrum.frequency_hz

    def evaluate(x):
        gamma_hz, g_hz, offset_hz = x
        return model._response(cavity.kappa_hz, cavity.eta, gamma_hz, g_hz, delta_axis, offset_hz)

    return _multistart(
        _make_residual(spectrum, evaluate),
        _window_starts(spectrum, cavity, delta_axis),
        ("gamma_m_hz", "g_hz", "center_offset_hz"),
        lambda x: (abs(x[0]), abs(x[1]), x[2]),
        lambda a, b: abs(b.params["g_hz"] - a.params["g_hz"]) > 1e-9 * max(a.params["g_hz"], 1.0),
    )


# ---------------------------------------------------------------------------
# critical coupling from a resonance sweep
# ---------------------------------------------------------------------------

def infer_critical_from_sweep(
    g_hz: NDArray[np.floating], t_z_power: NDArray[np.floating]
) -> float:
    """Locate the critical coupling from a measured (G, |t_z|^2) sweep.

    Interpolates a parabola through log(|t_z|^2) versus log(G) around the
    deepest sample and returns the vertex. The deepest sample must be an
    interior point: a sweep that sits entirely on one side of the critical
    coupling cannot bracket it.

    Returns
    -------
    float
        (Hz) estimated critical coupling.

    Raises
    ------
    BracketingError
        If the minimum lies on the sweep edge.
    """
    g = np.asarray(g_hz, dtype=float)
    power = np.asarray(t_z_power, dtype=float)
    if g.shape != power.shape or g.ndim != 1 or len(g) < 5:
        raise ParameterError("need matching 1-d arrays with at least 5 sweep points")
    if np.any(g <= 0.0) or not np.all(np.isfinite(g)) or np.any(np.diff(g) <= 0.0):
        raise ParameterError("coupling grid must be positive, finite, strictly ascending")
    if np.any(power < 0.0) or not np.all(np.isfinite(power)):
        raise ParameterError("t_z power values must be finite and non-negative")
    i = int(np.argmin(power))
    if i == 0 or i == len(g) - 1:
        raise BracketingError(
            "deepest point sits on the sweep edge; the critical coupling is not bracketed"
        )
    if power[i] == 0.0:
        return float(g[i])
    u = np.log(g[i - 1: i + 2])
    y = np.log(power[i - 1: i + 2])
    a, b, _ = np.polyfit(u, y, 2)
    if a <= 0.0:
        raise FitError("log-power samples around the minimum are not convex")
    return float(np.exp(-b / (2.0 * a)))
