"""Parameter calibration from measured transmission spectra.

Fits the closed-form response to complex, polar, or amplitude-only spectra
with a damped least-squares (Levenberg-Marquardt style) optimizer using
closed-form Jacobians. Every fit seeds itself from the data alone:
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


@dataclass(frozen=True, slots=True)
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

def _resolved(jac, r, x, scale):
    """`jac` (J^T) with each entry zeroed whose parameter, moved by its whole
    magnitude max(|x_j|, scale_j), moves r_i by under eps/4 |r_i| (at most
    half an ulp) to first order: r_i is then constant in it at float
    precision, as where a datum swamps the model (an outlier of 1e20, or
    every row at 1e100, against |t| ~ 1). The cost cannot show the change
    the exact derivative would chase, so the fit stalls on the outlier or
    stops at once with a singular covariance. Measured over a short step,
    the rule would also zero real but small derivatives, such as the
    mechanics' at a coupling of a few mHz, and pass a seed stuck there as
    converged.
    """
    magnitude = np.maximum(np.abs(x), scale)
    bound = 0.25 * sys.float_info.epsilon * np.abs(r)
    # each row's smallest |J| times its magnitude clears the largest bound:
    # no entry is zeroed, and the entry-by-entry comparison is skipped
    if (np.abs(jac).min(axis=1) * magnitude).min() >= bound.max():
        return jac
    tiny = np.abs(jac) * magnitude[:, None] < bound
    return np.where(tiny, 0.0, jac) if tiny.any() else jac


def _levenberg_marquardt(residual, jacobian, x0, scale):
    """Damped least squares with acceptance-gated steps.

    `residual(x)` returns (r, t): the residual vector and the model value
    it was computed from. `jacobian(x, t)` returns the transposed Jacobian
    J^T, dr_i/dx_j at [j, i], given the `t` of `residual(x)`; the loop
    carries t beside r, so a Jacobian costs no model evaluation of its own.
    Each damping level costs one `residual` call. A step that leaves
    every component of x unchanged ends the damping search at once: larger
    damping only shortens the step, so no later level could move x either.
    Returns (x, sigma, history, n_iter, converged); `sigma` holds the
    square roots of the diagonal of the covariance s^2 (J^T J)^-1, with s^2
    the residual variance, NaN where that diagonal is not positive (a
    numerically singular J^T J), and `history` the rms residual after each
    accepted step, first entry at the start point.
    """
    x = np.asarray(x0, dtype=float).copy()
    scale = np.asarray(scale, dtype=float)
    r, t = residual(x)
    m = len(r)
    cost = 0.5 * float(r @ r)
    history = [math.sqrt(2.0 * cost / m)]
    lam = 1e-3
    jac = _resolved(jacobian(x, t), r, x, scale)
    grad = jac @ r
    # the loop tests max|grad| <= limit entry by entry on Python floats: a
    # NaN entry fails it, as it fails numpy's max
    limit = GRADIENT_RTOL * (float(np.max(np.abs(grad))) or 1.0)
    converged = False
    n_iter = 0
    for n_iter in range(1, MAX_ITERATIONS + 1):
        if all(abs(g) <= limit for g in grad.tolist()):
            converged = True
            break
        # einsum, not jac @ jac.T, whose symmetric-product path is slower here
        normal = np.einsum("ij,kj->ik", jac, jac)
        damping = np.diag(np.maximum(normal.diagonal(), 1e-300))
        accepted = False
        for _ in range(30):
            try:
                step = np.linalg.solve(normal + lam * damping, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + step
            if x_new.tolist() == x.tolist():
                break  # stalled: no larger damping moves x either
            r_new, t_new = residual(x_new)
            cost_new = 0.5 * float(r_new @ r_new)
            if cost_new < cost:
                x, r, t, cost = x_new, r_new, t_new, cost_new
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            # No damping level gives a downhill step, so the quadratic
            # model is exhausted at float precision. On noisy data that
            # happens right at the noise-floor minimum, where the gradient
            # test may still miss by luck of the draw. Count it as
            # convergence only if the Gauss-Newton step confirms the
            # parameters are stationary; otherwise report the stall. Its
            # minimum-norm form stays bounded along a null direction of J.
            if not np.all(np.isfinite(jac)):
                break  # lstsq's SVD raises on a non-finite J
            probe = np.linalg.lstsq(jac.T, -r, rcond=None)[0]
            rel = float(np.max(np.abs(probe) / np.maximum(np.abs(x), scale)))
            converged = rel < 1e-8
            break
        history.append(math.sqrt(2.0 * cost / m))
        jac = _resolved(jacobian(x, t), r, x, scale)
        if float(np.max(np.abs(step) / np.maximum(np.abs(x), scale))) < 1e-14:
            converged = True
            break
        if cost < 1e-30:
            converged = True
            break
        grad = jac @ r
    dof = max(m - len(x), 1)
    try:
        spread = np.linalg.inv(np.einsum("ij,kj->ik", jac, jac)).diagonal()
    except np.linalg.LinAlgError:
        spread = np.full(len(x), np.nan)
    # sqrt(s^2 d) for the diagonal d of (J^T J)^-1 alone, the only part of
    # the covariance read, with s^2 = m 4^k split exactly (m in [1/2, 2)):
    # 2^k sqrt(m d) rounds as the root of the product does, but overflows
    # only where sigma itself does, not for residuals far below the data bound
    s2 = 2.0 * cost / dof
    k = math.frexp(s2)[1] // 2
    spread = np.where(spread > 0.0, spread, np.nan)
    sigma = np.ldexp(np.sqrt(spread * math.ldexp(s2, -2 * k)), k)
    return x, sigma, history, n_iter, converged


def _make_residual(spectrum: MeasuredSpectrum, model_fn):
    """Residual and Jacobian builders matching the measurement mode, from
    `model_fn`, a pair of functions of x: the model t on the spectrum's
    rows, and its derivatives dt, dt[j] = dt/dx_j.

    `residual(x)` returns (r, t), one kernel pass; `jacobian(x, t)` takes
    that t, so the pair costs one kernel pass.

    Complex data: stacked real and imaginary residuals. Polar data with
    phase: amplitude residual plus the phase difference angle(t * e^{-i phase}),
    which lies in (-pi, pi] without unwrap bookkeeping, weighted by the local
    amplitude (so the phase contributes nothing where the signal vanishes).
    Amplitude-only: amplitude residual alone. With w = dt/t, the amplitude
    rows differentiate to |t| Re(w) = Re(conj(t) dt) / |t| and the phase rows
    to Im(w) times the amplitude; both are zero where |t| < DEGENERACY_TOL,
    at the cone point of |t|, where the phase is undefined.
    """
    value, derivatives = model_fn
    if spectrum.t is not None:
        data = spectrum.t

        def residual(x):
            t = value(x)
            diff = t - data
            return np.concatenate([diff.real, diff.imag]), t

        def jacobian(x, t):
            dt = derivatives(x)
            return np.concatenate([dt.real, dt.imag], axis=1)

        return residual, jacobian
    amp = spectrum.amplitude()

    def polar_jacobian(x, t):
        dt = derivatives(x)
        mag = np.abs(t)
        live = mag >= model.DEGENERACY_TOL
        w = dt * (live / np.where(live, t, 1.0))
        if spectrum.phase_rad is None:
            return w.real * mag
        return np.concatenate([w.real * mag, w.imag * amp], axis=1)

    if spectrum.phase_rad is not None:
        unphase = np.exp(-1j * spectrum.phase_rad)

        def residual(x):
            t = value(x)
            return np.concatenate([np.abs(t) - amp, np.angle(t * unphase) * amp]), t

        return residual, polar_jacobian

    def residual(x):
        t = value(x)
        return np.abs(t) - amp, t

    return residual, polar_jacobian


def _outlier(spectrum: MeasuredSpectrum, r) -> str:
    """Text naming the spectrum row whose one residual in `r` holds more
    than 1 - 1e-6 of the cost r.r, to append to an error; '' if none does."""
    square = np.square(r)
    i = int(np.argmax(square))
    if not square[i] > (1.0 - 1e-6) * square.sum():
        return ""
    rows = len(spectrum.frequency_hz)
    part = (("re", "im") if spectrum.t is not None else ("amplitude", "phase"))[i // rows]
    row = i % rows
    return (
        f"; spectrum row {row + 1} (counted from 1, at {spectrum.frequency_hz[row]:.9g} Hz) "
        f"holds all but 1e-6 of the final cost: its {part} residual (model minus data) "
        f"is {r[i]:.6g}"
    )


def _multistart(spectrum, model_fn, starts, names, report, distinct,
                admissible=lambda x: True):
    """Fit `model_fn` to `spectrum` from each (x0, scale) start and return
    the lowest-residual converged fit, carrying the runner-up as `alternate`
    when `distinct(primary, runner_up)` says it is another solution and its
    every sigma is finite (a NaN sigma marks a runner-up that the data do
    not constrain, such as the mechanics decoupled at G ~ 0).
    `report` maps a solution to the values reported under `names`.

    A start that stalls (the mirror seed of amplitude-only data often starts
    far from any minimum) is dropped, and so is one that converges where
    `admissible(x)` is false; the fit fails only if every start is dropped.
    The error then names the spectrum row that holds all but 1e-6 of the
    best seed's final cost, if one does: a single outlier, not the model,
    stalled the fit.
    """
    residual, jacobian = _make_residual(spectrum, model_fn)
    results = []
    ends = []
    outside = 0
    for x0, scale in starts:
        x, sigma, history, n_iter, converged = _levenberg_marquardt(residual, jacobian, x0, scale)
        if converged and not admissible(x):
            converged, outside = False, outside + 1
        ends.append(x)
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
        best = min(range(len(results)), key=lambda i: results[i].residual_rms)
        raise ConvergenceError(
            f"no seed met the gradient tolerance (up to {worst} iterations per seed)"
            + (f"; {outside} that did ended outside the physical range" if outside else "")
            + _outlier(spectrum, residual(ends[best])[0])
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
    below, above = ~inside[i::-1], ~inside[i:]
    lo = i - int(np.argmax(below)) if below.any() else 0
    hi = i + int(np.argmax(above)) if above.any() else len(inside) - 1
    width = abs(float(axis[hi] - axis[lo]))
    if width <= 0.0:
        width = abs(float(axis[-1] - axis[0])) / 10.0
    return width


# ---------------------------------------------------------------------------
# bare cavity
# ---------------------------------------------------------------------------

def _bare_model_fn(detuning_hz):
    """Pump-off model over (center shift, kappa, eta) on a detuning axis and
    its derivatives, as the pair `_make_residual` takes.

    At G = 0 the mechanics decouple, so any positive mechanical linewidth
    cancels from the kernel; kappa stands in for it, and
    t = 1 - eta kappa / D2 with D2 = i (Delta + shift) + kappa/2.
    """

    def value(x):
        shift, kappa, eta = x
        return model._response(kappa, eta, kappa, 0.0, detuning_hz + shift)

    def derivatives(x):
        shift, kappa, eta = x
        inv = 1.0 / (1j * (detuning_hz + shift) + kappa / 2.0)
        loss = eta * kappa * inv  # 1 - t
        return np.array([1j * loss * inv, (0.5 * loss - eta) * inv, -kappa * inv])

    return value, derivatives


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
    # The center is fitted as a shift from its seed: the solver measures
    # steps against max(|x|, scale), and against the center itself on an
    # absolute axis (GHz) its stall test would pass a center tens of Hz off.
    freq = spectrum.frequency_hz
    detuning = model._detuning_hz((center0 - freq) if spectrum.absolute_frequency
                                  else (freq + center0), "the bare fit's detuning axis")
    name0 = "cavity_freq_hz" if spectrum.absolute_frequency else "center_offset_hz"
    return _multistart(
        spectrum,
        _bare_model_fn(detuning),
        starts,
        (name0, "kappa_hz", "eta"),
        lambda x: (x[0] + center0, x[1], x[2]),
        lambda a, b: abs(b.params["eta"] - a.params["eta"]) > 1e-6,
    )


# ---------------------------------------------------------------------------
# mechanical window
# ---------------------------------------------------------------------------

def _window_model_fn(cavity, delta_axis):
    """Model over (gamma_m, G, window center offset), cavity held fixed, and
    its derivatives, as the pair `_make_residual` takes. In the kernel's
    notation dt/dD1 = -eta kappa G^2 / den^2, dt/dG = 2 eta kappa G D1 / den^2,
    and D1 moves by 1/2 per unit gamma_m and by -i per unit offset.
    """
    kappa, eta = cavity.kappa_hz, cavity.eta
    i_delta = 1j * delta_axis
    d2 = i_delta + kappa / 2.0

    def value(x):
        gamma_hz, g_hz, offset_hz = x
        return model._response(kappa, eta, gamma_hz, g_hz, delta_axis, offset_hz)

    def derivatives(x):
        gamma_hz, g_hz, offset_hz = x
        d1 = i_delta + complex(gamma_hz / 2.0, -offset_hz)
        inv = 1.0 / (d1 * d2 + g_hz * g_hz)
        g_inv = g_hz * inv
        dt_dd1 = -eta * kappa * g_inv * g_inv
        return np.array([0.5 * dt_dd1, 2.0 * eta * kappa * g_inv * d1 * inv, -1j * dt_dd1])

    return value, derivatives


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
    first by residual. A seed that converges to gamma_m <= 0, negative
    mechanical damping, is dropped; only G^2 enters, so G reports as |G|.

    Returns
    -------
    FitResult
        params keys: "gamma_m_hz", "g_hz", "center_offset_hz".
    """
    delta_axis = model._detuning_hz(
        (cavity.cavity_freq_hz - spectrum.frequency_hz) if spectrum.absolute_frequency
        else spectrum.frequency_hz, "the window fit's detuning axis")

    return _multistart(
        spectrum,
        _window_model_fn(cavity, delta_axis),
        _window_starts(spectrum, cavity, delta_axis),
        ("gamma_m_hz", "g_hz", "center_offset_hz"),
        lambda x: (x[0], abs(x[1]), x[2]),
        lambda a, b: abs(b.params["g_hz"] - a.params["g_hz"]) > 1e-9 * max(a.params["g_hz"], 1.0),
        admissible=lambda x: x[0] > 0.0,
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
