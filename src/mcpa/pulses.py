"""Pulse propagation through the electromechanical window, two independent ways.

Route one multiplies the pulse spectrum by the closed-form transfer function
(FFT, zero-padded). Route two integrates the linearized equations of motion
for the intracavity field and the mechanical amplitude,

    da/dt = -(i*Delta + kappa/2) a - i G b + sqrt(eta*kappa) s_in(t)
    db/dt = -(i*Delta + gamma_m/2) b - i G a
    s_out = s_in - sqrt(eta*kappa) a

with one exact propagator: the input is the piecewise-linear interpolation
of the samples, and the step across each sample interval is integrated in
closed form from one matrix exponential, so it holds for any rate spread
(kappa/gamma_m reaches ~4e7 for the reference device, far outside any
explicit integrator's budget) and at the exceptional point, where the two
modes' eigenvalues coincide. Lifted to every L-th sample (the state L
samples on follows from E^L and a fixed (L + 1)-tap filter of the input),
the step is exact again, so the route returns samples 0, L, 2L, ...: every
sample for `integrate_langevin` (L = 1), every L-th on the delay path. Per
record the lifted states of its n/L rows come from one first-order
recurrence, solved by recursive doubling in log2(n/L) numpy passes. The
hold order matters: since the output is the small difference
s_in - sqrt(eta*kappa) a, holding the input constant across each interval
would misalign the two terms by a sample and the error would be amplified
by 1/|t| near the absorption dip; the linear hold keeps them aligned at
every sample time.

The steady-state response of the integrator reproduces the closed-form
transmission; that equivalence is this module's core self-check, pinned in
the tests by stepping `_foh_propagator` under constant drive.

Each route is one private helper that returns output samples:
`_spectral_product` (the product on a band of the input's padded
transform, which `_padded` makes) and `_stepped` (the exact step).
`propagate` and `integrate_langevin` wrap them and return the bare
output. Whether a probe is fit to time at a coupling is a property of the
input, the device and the coupling alone, so its check runs once, on the
input: `band_warnings` gives "bandwidth" and "singular-band" from the
input's n-point spectrum, with the kernel evaluated on its bins above
1e-3 of the peak alone. `extract_delay` measures the delay at one
coupling (a float) or many (an array), with no band check. What is the
same at every coupling is made once and reused across calls: the probe
(`_probe`, the last probe only) and the pump-off arrival time
(`_pump_off_arrival`, floats only), so a loop of `extract_delay` calls
costs one output and one centroid per coupling, as one call on an array
does.

The delay path works at the probe's bandwidth, not at the record's sample
rate, on both routes. `_probe` keeps the probe samples (16 n bytes for n
samples, for the ode route) and the band of their m-point padded
transform: the signed bins |j| <= K outside which at most 1e-28 of the
probe's power lies, with a decimation L, the largest power of two that
divides n with m/L >= 8 (K + 1). Both routes time the output on one grid,
its n/L samples at every L-th record time, which are exact samples of the
full-rate output. Per coupling the fft route evaluates the kernel on
2K + 1 points and runs one m/L-point inverse FFT; the ode route filters
the record with L + 1 taps at every L-th sample (one (n/L - 1) x L by
L x 2 matrix product) and runs the recurrence over n/L rows. For a
2^15-sample probe in a 20-width record, K = 100 and L = 128: 201 kernel
points and a 1024-point inverse FFT, against 2^17 of each at the full
rate, and 256 rows in 8 doubling passes against 32 768 in 15. A probe cut
by the record start (`center_s` < 8 sigma) leaks power into every bin, so
its band widens: at `center_s` <= 6 sigma it is every bin with L = 1,
which is the full-rate product and the full-rate step.
`propagate`, `integrate_langevin` and the CSVs of the `pulse` command keep
every sample; the command reports the delay of `extract_delay`.
`band_averaged_delay` is the exact prediction on the same band: the mean
of the analytic group delay over the output's power spectrum, minus the
same mean with the pump off.

Times are seconds, rates ordinary Hz as everywhere in this package.

This module needs numpy alone: the time-domain route's recurrence is
solved by numpy array passes, and the lobe check of `center_time` follows
`scipy.signal.find_peaks`'s rules without calling it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from . import model
from .errors import ParameterError, PulseEstimationError
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

#: Largest share of the expected |delay| that one ulp of the probe record
#: (eps * record, eps = 2^-52) may be. Both arrivals are centroids over the
#: record, and on the reference device each route's extracted delay moved
#: by at most 0.05 eps * record from rounding alone, so at this share the
#: rounding stays below about 5e-5 of the delay.
_RECORD_ROUNDING_SHARE = 1e-3

#: Largest coupling rate times step, G dt, that the exact step takes. Over
#: one step the coupling turns the two modes into each other by 2 pi G dt
#: radians; past 1/eps radians no digit of that turn is left, and the
#: doublings in `_foh_propagator` amplify the rounding until the output
#: overflows (seen at dt = 1 s and G = 1e100 Hz on the reference device).
_MAX_G_DT = 1.0 / (TWO_PI * 2.0**-52)


@dataclass(frozen=True)
class PulseConfig:
    """Gaussian probe pulse description.

    Parameters
    ----------
    sigma_t_s : float
        (s) Gaussian width parameter of the unit-peak field envelope
        exp(-(t - center)^2 / (2 sigma_t^2)).
    center_s : float
        (s) envelope peak time, > 0.
    record_s : float
        (s) total record length; must leave at least 8 sigma of tail after
        the center so a delayed pulse is never truncated.
    dt_s : float
        (s) sample interval; must resolve the envelope (dt <= sigma_t / 4).
    carrier_detuning_hz : float
        (Hz) detuning of the pulse carrier from the cavity resonance. The
        band of the record's transform, the carrier +/- 1/(2 dt), must lie
        within +/- sqrt(float max) (about 1.34e154), the kernel's range.
    """

    sigma_t_s: float
    center_s: float
    record_s: float
    dt_s: float
    carrier_detuning_hz: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sigma_t_s", "center_s", "dt_s"):
            model._positive(name, getattr(self, name))
        _check_band(self.carrier_detuning_hz, self.dt_s)
        if not math.isfinite(self.record_s):
            raise ParameterError(f"record_s must be finite, got {self.record_s!r}")
        if self.record_s < self.center_s + 8.0 * self.sigma_t_s:
            raise ParameterError(
                f"record_s = {self.record_s} truncates the pulse; need >= "
                f"center + 8 sigma = {self.center_s + 8.0 * self.sigma_t_s}"
            )
        if self.dt_s > self.sigma_t_s / 4.0:
            raise ParameterError(
                f"dt_s = {self.dt_s} undersamples sigma_t = {self.sigma_t_s}"
            )
        # the |envelope|^2 moments sum t^2 over the record/dt samples
        if not math.isfinite(self.record_s * self.record_s * (self.record_s / self.dt_s)):
            raise ParameterError(
                f"record_s = {self.record_s} is too long: its squared sample times "
                "summed over the record overflow a float"
            )


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
        (Hz) carrier offset from the cavity resonance; the carrier +/-
        1/(2 dt) must lie in the kernel's range, as for `PulseConfig`.
    """

    t0_s: float
    dt_s: float
    samples: NDArray[np.complexfloating]
    carrier_detuning_hz: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.t0_s):
            raise ParameterError(f"t0_s must be finite, got {self.t0_s!r}")
        model._positive("dt_s", self.dt_s)
        _check_band(self.carrier_detuning_hz, self.dt_s)
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


def _check_band(carrier_detuning_hz: float, dt_s: float) -> None:
    """ParameterError unless the detunings of a record's transform, the
    carrier +/- 1/(2 dt_s), lie in the kernel's range (`model._detuning_hz`)."""
    model._detuning_hz(
        abs(carrier_detuning_hz) + 0.5 / dt_s,
        "the record's band edge |carrier_detuning_hz| + 1/(2 dt_s)",
    )


def gaussian_pulse(config: PulseConfig) -> PulseWaveform:
    """Synthesize the Gaussian probe envelope described by `config`.

    Returns
    -------
    PulseWaveform
        Samples on t = 0, dt, 2 dt, ... < record_s.
    """
    n = int(round(config.record_s / config.dt_s))
    t = config.dt_s * np.arange(n)
    arg = (t - config.center_s) / config.sigma_t_s
    samples = np.exp(-0.5 * arg * arg).astype(complex)
    return PulseWaveform(
        t0_s=0.0,
        dt_s=config.dt_s,
        samples=samples,
        carrier_detuning_hz=config.carrier_detuning_hz,
    )


def _power_mean(t: NDArray[np.floating], power: NDArray[np.floating]) -> tuple[float, float]:
    """Mean of the times `t` weighted by the power |envelope|^2, and the
    total power."""
    total = float(power.sum())
    if total <= 0.0:
        raise PulseEstimationError("waveform has no energy")
    return float((t * power).sum() / total), total


def waveform_rms_sigma(w: PulseWaveform) -> float:
    """(s) Gaussian-equivalent width from the |envelope|^2 moments.

    For a true Gaussian envelope this equals its sigma_t.
    """
    t, env = w.times_s, np.abs(w.samples)
    power = env * env
    mean, total = _power_mean(t, power)
    return math.sqrt(2.0 * float((np.square(t - mean) * power).sum() / total))


def band_warnings(w: PulseWaveform, params: DeviceParams, coupling: float) -> tuple[str, ...]:
    """Soft checks on timing the input `w` through the device at `coupling`.

    Returns
    -------
    tuple of str
        "bandwidth" when the rms bandwidth 1/(2 pi `waveform_rms_sigma`)
        exceeds half the effective window; "singular-band" when |t| falls
        below SINGULAR_BAND_TOL on a bin of the input's n-point spectrum
        holding over 1e-3 of its peak (the kernel is evaluated on those
        bins alone). Empty for a waveform without energy.
    """
    g = model._scalar_g_hz(coupling)
    if not w.energy > 0.0:
        return ()
    tags = []
    if 1.0 / (TWO_PI * waveform_rms_sigma(w)) > 0.5 * model.effective_window_hz(params, g):
        tags.append("bandwidth")
    x = np.abs(np.fft.fft(w.samples))
    band = w.carrier_detuning_hz + np.fft.fftfreq(len(x), w.dt_s)[x > 1e-3 * x.max()]
    if np.any(np.abs(model.transmission_curve(params, g, band)) < SINGULAR_BAND_TOL):
        tags.append("singular-band")
    return tuple(tags)


@dataclass(frozen=True, eq=False)
class _Probe:
    """An input waveform with a band of its padded transform: what the
    spectral route takes, and what `_probe` keeps of a delay probe.

    Attributes
    ----------
    pulse : PulseWaveform
        The input samples.
    x, f : ndarray
        The band of the input's padded transform (`_padded`, m points):
        the signed bins 0..K, then -K..-1, and their frequencies; or every
        bin, in fft order.
    step : int
        Decimation L: the output is sampled at every L-th sample.
    points : int
        m / L, the length of the decimated inverse transform.
    """

    pulse: PulseWaveform
    x: NDArray[np.complexfloating]
    f: NDArray[np.floating]
    step: int
    points: int


def _padded(w: PulseWaveform) -> _Probe:
    """`w` with every bin of its transform zero-padded to m >= 4n points (a
    power of two), at L = 1; the padding keeps the periodic wrap of a
    delayed (or advanced) pulse out of the physical window."""
    m = 1 << max(int(math.ceil(math.log2(4 * len(w.samples)))), 4)
    return _Probe(w, np.fft.fft(w.samples, m), np.fft.fftfreq(m, w.dt_s), 1, m)


def _spectral_product(probe: _Probe, params: DeviceParams, g) -> NDArray[np.complexfloating]:
    """The spectral route's output at samples 0, L, 2L, ... of the input's
    record: ifft(X(f) * t(carrier + f)) on the band of its padded spectrum.

    Unless the band is every bin, the product goes into an m/L-point array
    at the same signed bins; its inverse transform, divided by L, holds
    samples 0, L, 2L, ... of the m-point inverse transform (the polyphase
    identity of the DFT, exact when the band fits in m/L bins, so that
    nothing aliases).
    """
    pulse = probe.pulse
    h = model.transmission_curve(params, g, pulse.carrier_detuning_hz + probe.f)
    # x * h with h named, the order the full-rate product has always used:
    # on a temporary h numpy would reuse its buffer and compute h * x, and
    # complex products round differently with the operands swapped (the
    # `pulse` command's CSVs would change in their last digits)
    y = probe.x * h
    if len(y) < probe.points:
        z = np.zeros(probe.points, dtype=complex)
        cut = len(y) - len(y) // 2  # bins 0..K lead; the bins -K..-1 close the array
        z[:cut] = y[:cut]
        z[probe.points - (len(y) - cut) :] = y[cut:]
        y = z
    return np.fft.ifft(y)[: len(pulse.samples) // probe.step] / probe.step


def propagate(w: PulseWaveform, params: DeviceParams, coupling: float) -> PulseWaveform:
    """Frequency-domain propagation: Y(f) = t(carrier + f) * X(f).

    The record is zero-padded to at least four times its length before the
    transform, which keeps the periodic wrap of a delayed (or advanced)
    pulse out of the physical window.

    Returns
    -------
    PulseWaveform
        Output envelope on the input grid.
    """
    g = model._scalar_g_hz(coupling)
    return replace(w, samples=_spectral_product(_padded(w), params, g))


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


def _doubled(f00, f01, f10, f11):
    """F -> 2F + F^2 (E -> E^2 for E = I + F) on the entries of a 2x2 F,
    in Python complex scalars."""
    return (
        2.0 * f00 + (f00 * f00 + f01 * f10),
        2.0 * f01 + (f00 * f01 + f01 * f11),
        2.0 * f10 + (f10 * f00 + f11 * f10),
        2.0 * f11 + (f10 * f01 + f11 * f11),
    )


def _foh_propagator(a_mat, b_vec, h):
    """Exact one-sample step x_k = E x_{k-1} + P s_{k-1} + Q s_k for a drive
    that is linear across the interval; returns (F, P, Q) with F = E - I.

    exp([[A, B, 0], [0, 0, 1], [0, 0, 0]] h) carries E = e^(Ah) in its
    top-left block and the two hold integrals int e^(A(h-s)) B ds and
    int e^(A(h-s)) B s ds in the two right-hand columns. The exponential of
    the augmented matrix needs no eigenbasis, so the step stays exact where
    the two modes' eigenvalues coincide (the exceptional point).

    The exponential is formed as F = e^(Mh) - I: a Taylor series on
    Mh / 2^n, then n doublings F -> 2F + F^2. Squaring e^(Mh/2^n) itself
    would hold the slow mechanical decay per sub-step as 1 - tiny and lose
    about kappa/gamma_m ulps of it (5 digits for the reference device,
    amplified by 1/|t| in the output near the critical coupling); F keeps
    that small part to full relative precision, and so does every power of
    E formed from it the same way.

    Both phases run on the blocks of the augmented matrix, in Python
    complex scalars: a numpy product of 4x4 arrays costs more in call
    overhead than in arithmetic. Scaled, Mh / 2^n is x = [[X, v, 0],
    [0, 0, beta], [0, 0, 0]], whose lower-right block is nilpotent, so
    e^x - I holds three blocks: the 2x2 F = sum_(k>=1) X^k/k!, the column
    j0 = sum_(k>=0) X^k v/(k+1)! and the column
    j1 = beta sum_(k>=0) X^k v/(k+2)!. One doubling reads F -> 2F + F^2,
    j0 -> 2 j0 + F j0, j1 -> 2 j1 + F j1 + beta j0 and beta -> 2 beta.
    """
    (x00, x01), (x10, x11) = (a_mat * h).tolist()
    v0, v1 = (b_vec * h).tolist()
    # the column 1-norm of Mh: its columns are those of Ah, Bh and h
    norm = max(abs(x00) + abs(x10), abs(x01) + abs(x11), abs(v0) + abs(v1), h)
    n = max(0, math.ceil(math.log2(2.0 * norm)))
    scale = 2.0**-n
    x00, x01, x10, x11, v0, v1 = (z * scale for z in (x00, x01, x10, x11, v0, v1))
    beta = h * scale
    # the degree-1 term x, then term_k = term_(k-1) x / k by blocks: the
    # columns of j0 and j1 in term_k are X^(k-1) v/k! and beta X^(k-2) v/k!
    t00, t01, t10, t11, u0, u1, w0, w1 = x00, x01, x10, x11, v0, v1, 0j, 0j
    f00, f01, f10, f11, j00, j01, j10, j11 = t00, t01, t10, t11, u0, u1, w0, w1
    for k in range(2, 20):  # ||x|| <= 1/2: the tail is below 1e-24
        r = 1.0 / k
        t00, t01, t10, t11, u0, u1, w0, w1 = (
            (t00 * x00 + t01 * x10) * r,
            (t00 * x01 + t01 * x11) * r,
            (t10 * x00 + t11 * x10) * r,
            (t10 * x01 + t11 * x11) * r,
            (t00 * v0 + t01 * v1) * r,
            (t10 * v0 + t11 * v1) * r,
            u0 * beta * r,
            u1 * beta * r,
        )
        f00 += t00
        f01 += t01
        f10 += t10
        f11 += t11
        j00 += u0
        j01 += u1
        j10 += w0
        j11 += w1
    for _ in range(n):
        j00, j01, j10, j11 = (
            2.0 * j00 + (f00 * j00 + f01 * j01),
            2.0 * j01 + (f10 * j00 + f11 * j01),
            2.0 * j10 + (f00 * j10 + f01 * j11 + beta * j00),
            2.0 * j11 + (f10 * j10 + f11 * j11 + beta * j01),
        )
        f00, f01, f10, f11 = _doubled(f00, f01, f10, f11)
        beta *= 2.0
    q0, q1 = j10 / h, j11 / h
    return np.array([[f00, f01], [f10, f11]]), np.array([j00 - q0, j01 - q1]), np.array([q0, q1])


def _integrate(a_mat, b_vec, h, s, initial_state, step):
    """Intracavity field a at samples 0, L, 2L, ... of the drive `s`
    (spacing h; L = `step`, a power of two), from the exact step of
    `_foh_propagator`.

    Lifted to every L-th sample, the step is exact again (the standard
    lifting of a discrete linear time-invariant system):

        x_{b+1} = E^L x_b + u_b,    u_b = sum_{j=0..L} W_j s_{bL+j},

    with W_0 = E^(L-1) P, W_j = E^(L-1-j) P + E^(L-j) Q for 0 < j < L and
    W_L = Q; at L = 1 it is the one-sample step. E^L = I + F_L and the
    powers E^i P, E^i Q come from log2 L doublings, F_2k = 2 F_k + F_k^2
    and E^(k+i) v = E^i v + F_k E^i v, so the slow mechanical decay keeps
    its digits as it does in F. As in `_foh_propagator`, F_k doubles on its
    four entries in Python complex scalars (`_doubled`); the rows of powers
    take one numpy product per doubling.

    The recurrence is solved by recursive doubling (Kogge and Stone). Its
    rows r_0 = x_0 (the initial state) and r_(b+1) = u_b are set up at
    once; the pass x_b += E^(dL) x_(b-d) = x_(b-d) + F_(dL) x_(b-d) on
    every row b >= d, for d = 1, 2, 4, ..., leaves row b holding the sum
    of E^(jL) r_(b-j) over j < 2d, j <= b. After the pass with the largest
    d not above the last row, every row is the lifted state x_b. F_(dL)
    doubles as F_L did, on its four entries. The record needs at least
    L + 1 samples.
    """
    f, p, q = _foh_propagator(a_mat, b_vec, h)
    (f00, f01), (f10, f11) = f.tolist()
    # rows 2i and 2i + 1 hold E^i P and E^i Q, for i < L: each doubling
    # fills rows 2k .. 4k - 1 from the first 2k and turns F_k into F_2k
    powers = np.empty((2 * step, 2), dtype=complex)
    powers[0], powers[1] = p, q
    k = 1
    while k < step:
        done = powers[: 2 * k]
        powers[2 * k : 4 * k] = done + done @ np.array([[f00, f10], [f01, f11]])
        f00, f01, f10, f11 = _doubled(f00, f01, f10, f11)
        k *= 2
    powers = powers.reshape(step, 4)  # row i: E^i P, then E^i Q
    w = np.zeros((step + 1, 2), dtype=complex)  # the taps W_0 .. W_L
    w[:-1] = powers[::-1, :2]
    w[1:] += powers[::-1, 2:]
    rows = (len(s) - 1) // step  # lifted samples after the first
    x = np.empty((rows + 1, 2), dtype=complex)
    x[0] = initial_state
    x[1:] = s[: rows * step].reshape(rows, step) @ w[:-1] + s[step::step, None] * w[step]
    d = 1
    while d <= rows:
        x[d:] += x[:-d] + x[:-d] @ np.array([[f00, f10], [f01, f11]])
        f00, f01, f10, f11 = _doubled(f00, f01, f10, f11)
        d *= 2
    return x[:, 0]


def _stepped(w: PulseWaveform, params: DeviceParams, g, step: int) -> NDArray[np.complexfloating]:
    """The time-domain route's output samples s_in - sqrt(eta*kappa) a at
    samples 0, L, 2L, ... of the grid of `w` (L = `step`), from rest, by
    the exact lifted step of `_integrate`."""
    if g * w.dt_s * step > _MAX_G_DT:
        raise ParameterError(
            f"coupling times time step G dt = {g * w.dt_s * step:.6g} exceeds "
            f"{_MAX_G_DT:.6g}: the step's phase is lost to rounding"
        )
    a_mat, b_vec = _system_matrix(params, g, w.carrier_detuning_hz)
    a_out = _integrate(a_mat, b_vec, w.dt_s, w.samples, (0j, 0j), step)
    root = math.sqrt(params.eta * TWO_PI * params.kappa_hz)
    return w.samples[::step] - root * a_out


def integrate_langevin(w: PulseWaveform, params: DeviceParams, coupling: float) -> PulseWaveform:
    """Propagate a waveform from rest by integrating the two-mode equations.

    The step between samples is exact for the linearly interpolated
    envelope, whatever the rate spread, including at the exceptional point.

    Parameters
    ----------
    w : PulseWaveform
        Input envelope; the carrier detuning rides along in the state
        matrix, so the envelope itself stays baseband.
    params : DeviceParams
    coupling : float
        (Hz) field-enhanced coupling rate.

    Returns
    -------
    PulseWaveform
        Output envelope s_in - sqrt(eta*kappa) a on the input grid.
    """
    g = model._scalar_g_hz(coupling)
    return replace(w, samples=_stepped(w, params, g, 1))


# ---------------------------------------------------------------------------
# arrival-time estimation and delay extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CenterTimeEstimate:
    """Arrival-time estimates for a single-lobe waveform.

    Attributes
    ----------
    centroid_s : float
        (s) first moment of |envelope|^2: the `center_time` arrival time.
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


def _count_lobes(env: NDArray[np.floating], bound: float) -> int:
    """Number of peaks of `env` that `scipy.signal.find_peaks(env,
    height=bound, prominence=bound)` finds, by the same rules.

    A peak is a local maximum away from the two edge samples; on a plateau
    it is the plateau's midpoint. It counts when its height and its
    prominence both reach `bound`. The prominence is the height minus the
    higher of the two minima on the walks left and right from the peak,
    each of which stops at the nearest strictly higher sample or the edge.
    """
    above = np.flatnonzero(env >= bound)
    if len(above) == 0:
        return 0
    # every sample that can be a peak of height >= bound, with a neighbour
    lo, hi = max(int(above[0]) - 1, 0), min(int(above[-1]) + 2, len(env))
    x = env[lo:hi]
    # unimodal x (a non-strict rise to a one-sample top, then a non-strict
    # fall): the top is the only peak, and nothing is higher, so both walks
    # reach the edges. A top on an edge of x or on a plateau takes the walk
    # below.
    q = int(x.argmax())
    d = np.diff(x)
    if 0 < q < len(d) and d[q] < 0.0 and d[:q].min() >= 0.0 and d[q:].max() <= 0.0:
        p = lo + q
        return int(env[p] - max(env[: p + 1].min(), env[p:].min()) >= bound)
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))  # runs of equal values
    ends = np.append(starts[1:], len(x)) - 1
    v = x[starts]
    # a run with lower runs on both sides; the first and last runs of x hold
    # an edge of env or a sample below bound, so neither counts
    is_max = np.zeros(len(v), dtype=bool)
    is_max[1:-1] = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]) & (v[1:-1] >= bound)
    top = float(x.max())
    count = 0
    for p in (lo + (starts[is_max] + ends[is_max]) // 2).tolist():
        h = env[p]
        if h == top:  # nothing is higher: both walks reach the edges
            i, j = 0, len(env)
        else:
            higher = np.flatnonzero(env[:p] > h)
            i = int(higher[-1]) + 1 if len(higher) else 0
            higher = np.flatnonzero(env[p:] > h)
            j = p + int(higher[0]) if len(higher) else len(env)
        count += bool(h - max(env[i : p + 1].min(), env[p:j].min()) >= bound)
    return count


def _centroid(t0_s: float, dt_s: float, samples: NDArray[np.complexfloating]) -> float:
    """`center_time` of the samples `samples` at the times t0_s + k dt_s."""
    env = np.abs(samples)
    peak = float(env.max())
    if not math.isfinite(peak):  # a nan or an infinite sample
        raise ParameterError("waveform samples must be finite")
    centroid, _ = _power_mean(t0_s + dt_s * np.arange(len(env)), env * env)
    # on a non-negative envelope a prominence never exceeds its height: the
    # height bound drops no lobe and skips the tails' rounding-noise maxima
    lobes = _count_lobes(env, peak / 3.0)
    if lobes > 1:
        raise PulseEstimationError(
            f"{lobes} comparable lobes found; arrival time undefined"
        )
    return centroid


def center_time(w: PulseWaveform) -> float:
    """(s) arrival time of a single-lobe waveform: the centroid of |envelope|^2.

    Raises
    ------
    PulseEstimationError
        On zero energy, or when a second lobe reaches a third of the main
        peak in both height and prominence (no single arrival time exists
        then).
    """
    return _centroid(w.t0_s, w.dt_s, w.samples)


def center_time_estimates(w: PulseWaveform) -> CenterTimeEstimate:
    """The arrival time of `center_time` cross-checked by a least-squares
    Gaussian fit to |envelope|, with a distortion flag.

    Raises
    ------
    PulseEstimationError
        Where `center_time` raises, and when the envelope has no Gaussian
        curvature around its peak (a flat top, for example).
    """
    centroid = center_time(w)
    g_center, g_sigma = _gaussian_fit(w.times_s, np.abs(w.samples))
    disc = abs(centroid - g_center)
    return CenterTimeEstimate(
        centroid_s=centroid,
        gaussian_center_s=g_center,
        gaussian_sigma_s=g_sigma,
        discrepancy_s=disc,
        distorted=disc > g_sigma / 10.0,
    )


def delay_pulse_config(
    params: DeviceParams,
    coupling: float,
    *,
    carrier_detuning_hz: float = 0.0,
    bandwidth_fraction: float = DELAY_BANDWIDTH_FRACTION,
    n_samples: int = 4096,
) -> PulseConfig:
    """Size a probe pulse for a clean delay measurement at this coupling.

    The width is chosen so the pulse's rms bandwidth is `bandwidth_fraction`
    of the effective window, and the record is padded on whichever side the
    analytically expected group delay will shift the pulse toward.

    Raises
    ------
    ParameterError
        When the record is so long that its rounding (eps * record) exceeds
        `_RECORD_ROUNDING_SHARE` of the expected |delay|, where that delay
        is finite: the extracted delay would be mostly rounding noise. And
        when the carrier, the effective window or the probe's band (see
        `PulseConfig`) leaves the kernel's detuning range.
    """
    g = model._scalar_g_hz(coupling)
    model._detuning_hz(carrier_detuning_hz, "carrier_detuning_hz")
    if not 0.0 < bandwidth_fraction <= 0.5:
        raise ParameterError("bandwidth_fraction must be in (0, 0.5]")
    if n_samples < 16:
        raise ParameterError(f"n_samples must be at least 16, got {n_samples!r}")
    window = model._detuning_hz(
        model.effective_window_hz(params, g), f"the effective window at g = {g!r} Hz"
    )
    sigma_t = 1.0 / (TWO_PI * bandwidth_fraction * window)
    tau = float(model.group_delay_curve(params, g, carrier_detuning_hz))
    timed = math.isfinite(tau)
    if not timed:
        tau = 0.0
    margin = min(abs(tau) * 1.5, 20.0 * sigma_t)
    lead = 8.0 * sigma_t + (margin if tau < 0.0 else 0.0)
    record = lead + 8.0 * sigma_t + (margin if tau > 0.0 else 0.0)
    if not math.isfinite(record):
        raise ParameterError(
            f"bandwidth_fraction = {bandwidth_fraction} makes the probe record "
            "longer than a float holds"
        )
    if timed and math.ulp(1.0) * record > _RECORD_ROUNDING_SHARE * abs(tau):
        raise ParameterError(
            f"bandwidth_fraction = {bandwidth_fraction} makes the probe record "
            f"({record:.3g} s) too long to time the expected delay of {tau:.3g} s: "
            f"the record's rounding exceeds {_RECORD_ROUNDING_SHARE:g} of the delay"
        )
    if record / n_samples > sigma_t / 4.0:  # the PulseConfig sampling rule
        need = math.floor(4.0 * record / sigma_t)
        while record / need > sigma_t / 4.0:  # after rounding, one more may be due
            need += 1
        raise ParameterError(
            f"samples = {n_samples} undersamples the probe at this coupling; "
            f"it needs at least {need} samples"
        )
    return PulseConfig(
        sigma_t_s=sigma_t,
        center_s=lead,
        record_s=record,
        dt_s=record / n_samples,
        carrier_detuning_hz=carrier_detuning_hz,
    )


#: Share of the probe's power that the fft delay path may drop: the band
#: of `_probe` is the fewest bins around zero that hold all but this much.
_BAND_POWER_TOL = 1e-28


def _band_edge(x: NDArray[np.complexfloating]) -> int:
    """The least K for which the bins |j| > K of the m-point transform `x`
    hold at most `_BAND_POWER_TOL` of its power, or m/2 (every bin, the
    Nyquist bin included) when no smaller K does."""
    m = len(x)
    power = np.square(np.abs(x))
    # power at |j| = 0, 1, ..., m/2: bins j and -j together, Nyquist alone
    pair = power[: m // 2 + 1].copy()
    pair[1 : m // 2] += power[: m // 2 : -1]
    # summed from the outside in, so the tail keeps its relative digits
    tail = np.cumsum(pair[::-1])[::-1]
    return int(np.count_nonzero(tail[1:] > _BAND_POWER_TOL * tail[0]))


@functools.lru_cache(maxsize=1)
def _probe(config: PulseConfig) -> _Probe:
    """The probe of `config` with the band of its padded transform.

    The band is the signed bins |j| <= K of the m-point padded transform,
    with K the least value that leaves at most `_BAND_POWER_TOL` of the
    probe's power outside. K is read off the computed transform, not off
    the analytic Gaussian: a probe cut by the record start (`center_s` <
    8 sigma) leaks power into every bin, and by `center_s` = 6 sigma the
    band is every bin, the Nyquist bin included, at L = 1: the full-rate
    product. The decimation L is the largest power of two that divides n
    with m/L >= 8 (K + 1), or 1.

    Cached for the last config, so a sweep over couplings synthesizes and
    transforms its probe once. It keeps the probe samples (16 n bytes for n
    samples) and the band; the arrays are shared by every caller and so
    are read-only.
    """
    full = _padded(gaussian_pulse(config))
    pulse, x, f, m = full.pulse, full.x, full.f, full.points
    n = len(pulse.samples)
    k = _band_edge(x)
    if 2 * k < m:
        bins = np.r_[0 : k + 1, m - k : m]
        x, f = x[bins], f[bins]
    step = 1
    while n % (2 * step) == 0 and m // (2 * step) >= 8 * (k + 1):
        step *= 2
    for array in (pulse.samples, x, f):
        array.flags.writeable = False
    return _Probe(pulse, x, f, step, m // step)


def _arrival(params: DeviceParams, g: float, config: PulseConfig, method: str) -> float:
    """(s) arrival time of the probe of `config` through the device at
    coupling `g` by the named route, timed from the probe's own center.
    Both routes time the output on the probe's decimated grid of step
    L dt."""
    probe = _probe(config)
    pulse = probe.pulse
    if method == "fft":
        samples = _spectral_product(probe, params, g)
    else:
        samples = _stepped(pulse, params, g, probe.step)
    return _centroid(pulse.t0_s - config.center_s, probe.step * pulse.dt_s, samples)


@functools.lru_cache(maxsize=16)
def _pump_off_arrival(params: DeviceParams, config: PulseConfig, method: str) -> float:
    """`_arrival` with the pump off (coupling 0, the bare cavity), cached
    per device, probe and route: it is the same for every coupling."""
    return _arrival(params, 0.0, config, method)


def _minus_pump_off(value, pump_off: float, g):
    """value(G) - pump_off at each coupling of `g` (a float or a float
    array), shaped like `g`: a float in gives a float out."""
    out = np.array([value(gi) - pump_off for gi in np.ravel(g).tolist()])
    return float(out[0]) if np.ndim(g) == 0 else out.reshape(np.shape(g))


def extract_delay(
    params: DeviceParams,
    couplings: NDArray[np.floating] | float,
    config: PulseConfig,
    *,
    method: str = "fft",
) -> NDArray[np.floating] | float:
    """Pulse group delay at each coupling: the arrival-time shift of the
    configured Gaussian relative to the pump-off run.

    Each coupling costs one output and one centroid, both at every L-th
    sample (see `_probe`): on the "fft" route the band's product, on the
    "ode" route the lifted step's recurrence over n/L rows. The probe
    and the pump-off reference (coupling 0, bare cavity) are made once and
    kept across calls. Referencing against the pump-off run removes offsets
    common to both runs, such as the sampling and interpolation bias of the
    chosen route. Both arrivals are timed from the probe's own center, so
    their difference keeps its digits when the delay is a small fraction of
    the width. No band check runs: `band_warnings` gives it for the probe.

    Parameters
    ----------
    couplings : array_like
        (Hz) one field-enhanced coupling rate, or an array of them.
    method : {"fft", "ode"}
        Propagation route; "ode" integrates the equations of motion.

    Returns
    -------
    float or ndarray of float
        (s) extracted delay at each coupling: a float for one coupling, an
        array shaped like `couplings` for an array; negative means the
        pulse arrived early.

    Raises
    ------
    PulseEstimationError
        Where `center_time` refuses an output (two comparable lobes, as
        close to the critical coupling).
    """
    if method not in ("fft", "ode"):
        raise ParameterError(f"pulse method must be 'fft' or 'ode', got {method!r}")
    g = model._g_hz(couplings)
    pump_off = _pump_off_arrival(params, config, method)
    return _minus_pump_off(lambda gi: _arrival(params, gi, config, method), pump_off, g)


def band_averaged_delay(
    params: DeviceParams,
    couplings: NDArray[np.floating] | float,
    config: PulseConfig,
) -> NDArray[np.floating] | float:
    """Exact finite-bandwidth prediction of :func:`extract_delay`.

    By Parseval, the centroid of |y|^2 is the mean of the analytic group
    delay tau(carrier + f) over the output's power spectrum
    |X(f)|^2 |t(carrier + f)|^2. This evaluates that mean on the band of
    the probe transform that the "fft" route uses (the same cached
    arrays), minus the same mean at G = 0, with zero weight where tau is
    undefined (a transmission zero).
    It needs no time-domain waveform, so it exists where `center_time`
    refuses two lobes, and it gives the bias of a finite-bandwidth probe
    against tau(0): the measurable side of the diverging delay at G_c.

    Returns
    -------
    float or ndarray of float
        (s) band-averaged delay at each coupling, shaped like
        `extract_delay`'s: a float for one coupling, else like `couplings`.
    """
    g = model._g_hz(couplings)
    probe = _probe(config)
    power = np.square(np.abs(probe.x))
    detuning = probe.pulse.carrier_detuning_hz + probe.f

    def mean_delay(gi: float) -> float:
        t, tau = model._response(
            params.kappa_hz, params.eta, params.gamma_m_hz, gi, detuning, delay=True
        )
        defined = ~np.isnan(tau)
        weight = power[defined] * np.square(np.abs(t[defined]))
        return float(np.sum(weight * tau[defined]) / np.sum(weight))

    return _minus_pump_off(mean_delay, mean_delay(0.0), g)
