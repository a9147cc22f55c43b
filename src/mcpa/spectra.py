"""Sweep engine: transmission spectra versus detuning or coupling rate.

Produces immutable :class:`Spectrum` objects carrying the complex response
together with derived amplitude, phase, and delay channels. Model-level
singularities (transmission zeros) are flagged per point, never dropped, so
downstream consumers always see uniform grids.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from . import model
from .errors import ParameterError
from .model import DeviceParams

TWO_PI = model.TWO_PI


class SweepAxis(enum.Enum):
    DETUNING = "detuning"
    COUPLING = "coupling"


class GridScale(enum.Enum):
    LINEAR = "linear"
    LOG = "log"


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for one sweep.

    Parameters
    ----------
    axis : SweepAxis
        Which quantity varies along the grid.
    start_hz, stop_hz : float
        (Hz) inclusive grid endpoints, start < stop.
    n_points : int
        Number of samples, >= 2.
    scale : GridScale
        Linear or logarithmic spacing; log requires start > 0.
    fixed_g_hz : float, optional
        (Hz) coupling held fixed during a detuning sweep (metadata).
    fixed_detuning_hz : float, optional
        (Hz) detuning held fixed during a coupling sweep; resonance sweeps
        use 0.
    """

    axis: SweepAxis
    start_hz: float
    stop_hz: float
    n_points: int
    scale: GridScale = GridScale.LINEAR
    fixed_g_hz: float | None = None
    fixed_detuning_hz: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start_hz) and math.isfinite(self.stop_hz)):
            raise ParameterError("sweep endpoints must be finite")
        if not self.start_hz < self.stop_hz:
            raise ParameterError(
                f"sweep needs start < stop, got [{self.start_hz}, {self.stop_hz}]"
            )
        if self.n_points < 2:
            raise ParameterError(f"sweep needs at least 2 points, got {self.n_points}")
        if self.scale is GridScale.LOG and self.start_hz <= 0.0:
            raise ParameterError("log-scaled sweep requires start > 0")

    def grid(self) -> NDArray[np.floating]:
        if self.scale is GridScale.LOG:
            return np.geomspace(self.start_hz, self.stop_hz, self.n_points)
        return np.linspace(self.start_hz, self.stop_hz, self.n_points)


def detuning_span(params: DeviceParams, coupling: float, n_points: int = 2001,
                  widths: float = 5.0) -> SweepSpec:
    """Symmetric detuning sweep covering the mechanically induced feature.

    The window spans +/- `widths` effective window widths, which captures
    the full feature without resolving the (much wider) cavity line.
    """
    w = model.effective_window_hz(params, coupling)
    return SweepSpec(
        axis=SweepAxis.DETUNING,
        start_hz=-widths * w,
        stop_hz=widths * w,
        n_points=n_points,
        fixed_g_hz=float(coupling),
    )


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Evaluated sweep: response channels on a common grid.

    Attributes
    ----------
    x_hz : ndarray
        (Hz) grid (detuning or coupling rate, see axis).
    t : ndarray of complex
        () transmission; real-valued content for resonance sweeps.
    amplitude_db : ndarray
        (dB) 20*log10(|t|), -inf at singular points.
    phase_rad : ndarray
        (rad) phase on (-pi, pi], real-negative mapped to +pi; NaN at
        singular points of a resonance sweep.
    delay_s : ndarray or None
        (s) group delay channel; filled analytically for resonance sweeps,
        by :func:`numeric_group_delay` for detuning sweeps.
    singular : ndarray of bool
        Per-point flag marking transmission zeros.
    axis : SweepAxis
    device : DeviceParams
    spec : SweepSpec
    """

    x_hz: NDArray[np.floating]
    t: NDArray[np.complexfloating]
    amplitude_db: NDArray[np.floating]
    phase_rad: NDArray[np.floating]
    delay_s: NDArray[np.floating] | None
    singular: NDArray[np.bool_]
    axis: SweepAxis
    device: DeviceParams
    spec: SweepSpec

    def __len__(self) -> int:
        return len(self.x_hz)


def _amplitude_db(t_abs: NDArray[np.floating]) -> NDArray[np.floating]:
    out = np.full_like(t_abs, -np.inf)
    nz = t_abs > 0.0
    out[nz] = 20.0 * np.log10(t_abs[nz])
    return out


def _phase_with_branch(t: NDArray[np.complexfloating]) -> NDArray[np.floating]:
    """np.angle with real-negative values pinned to exactly +pi."""
    phase = np.angle(t)
    real_negative = (t.imag == 0.0) & (t.real < 0.0)
    return np.where(real_negative, math.pi, phase)


def sweep_detuning(
    params: DeviceParams, coupling: float, spec: SweepSpec
) -> Spectrum:
    """Evaluate the transmission across a detuning grid at fixed coupling.

    Parameters
    ----------
    params : DeviceParams
    coupling : float
        (Hz) field-enhanced coupling rate; recorded in the returned
        spectrum's spec as fixed_g_hz.
    spec : SweepSpec
        Must have axis DETUNING. If spec.fixed_g_hz is set it must agree
        with `coupling`.

    Returns
    -------
    Spectrum
        delay_s is None; run :func:`numeric_group_delay` to fill it.
    """
    if spec.axis is not SweepAxis.DETUNING:
        raise ParameterError(f"sweep_detuning needs a DETUNING spec, got {spec.axis}")
    g = model._g_hz(coupling)
    if spec.fixed_g_hz is not None and not math.isclose(spec.fixed_g_hz, g, rel_tol=1e-12):
        raise ParameterError(
            f"spec.fixed_g_hz = {spec.fixed_g_hz} disagrees with coupling = {g}"
        )
    x = spec.grid()
    t = model.transmission_curve(params, g, x)
    t_abs = np.abs(t)
    singular = t_abs < model.DEGENERACY_TOL
    return Spectrum(
        x_hz=x,
        t=t,
        amplitude_db=_amplitude_db(t_abs),
        phase_rad=_phase_with_branch(t),
        delay_s=None,
        singular=singular,
        axis=SweepAxis.DETUNING,
        device=params,
        spec=replace(spec, fixed_g_hz=g),
    )


def sweep_coupling_resonance(params: DeviceParams, spec: SweepSpec) -> Spectrum:
    """Resonant response across a coupling grid: t_z, phase, and delay at
    zero detuning.

    At zero detuning the closed-form transmission is an exact real number,
    so the phase channel is exactly pi below the critical coupling and
    exactly 0 above it. Grid points whose transmission is degenerate with zero are
    flagged singular and carry NaN phase and delay.
    """
    if spec.axis is not SweepAxis.COUPLING:
        raise ParameterError(f"sweep_coupling_resonance needs a COUPLING spec, got {spec.axis}")
    if spec.start_hz < 0.0:
        raise ParameterError("coupling grid must be non-negative")
    g = spec.grid()
    return _resonance_spectrum(params, g, spec)


def resonance_spectrum(params: DeviceParams, g_hz: NDArray[np.floating]) -> Spectrum:
    """Resonance sweep over an explicit (already built) coupling grid.

    The grid must be strictly ascending, finite, and non-negative; the grid
    stored in the result is the one passed in, not a regenerated one.
    """
    g = np.asarray(g_hz, dtype=float)
    if g.ndim != 1 or len(g) < 2:
        raise ParameterError("need a 1-d grid with at least 2 coupling points")
    if np.any(g < 0.0) or not np.all(np.isfinite(g)):
        raise ParameterError("coupling grid must be finite and non-negative")
    if np.any(np.diff(g) <= 0.0):
        raise ParameterError("coupling grid must be strictly ascending")
    spec = SweepSpec(
        axis=SweepAxis.COUPLING,
        start_hz=float(g[0]),
        stop_hz=float(g[-1]),
        n_points=len(g),
        fixed_detuning_hz=0.0,
    )
    return _resonance_spectrum(params, g, spec)


def _resonance_spectrum(
    params: DeviceParams, g: NDArray[np.floating], spec: SweepSpec
) -> Spectrum:
    t, delay = model._response(params.kappa_hz, params.eta, params.gamma_m_hz, g, 0.0, delay=True)
    tz = t.real
    singular = np.abs(tz) < model.DEGENERACY_TOL
    phase = np.where(tz < 0.0, math.pi, 0.0)
    phase = np.where(singular, np.nan, phase)
    return Spectrum(
        x_hz=g,
        t=tz.astype(complex),
        amplitude_db=_amplitude_db(np.abs(tz)),
        phase_rad=phase,
        delay_s=delay,
        singular=singular,
        axis=SweepAxis.COUPLING,
        device=params,
        spec=replace(spec, fixed_detuning_hz=0.0),
    )


def unwrap_phase(phase_rad: NDArray[np.floating]) -> NDArray[np.floating]:
    """Remove 2*pi jumps from a sampled phase sequence.

    Output differs from the input by an integer multiple of 2*pi at every
    point and adjacent differences stay within (-pi, pi].
    """
    phase = np.asarray(phase_rad, dtype=float)
    if phase.ndim != 1:
        raise ParameterError("unwrap_phase expects a 1-d sequence")
    return np.unwrap(phase)


def numeric_group_delay(spectrum: Spectrum) -> Spectrum:
    """Fill a detuning spectrum's delay channel from its sampled phase.

    tau = -(1/2pi) * d(phase)/d(detuning), with the phase unwrapped first.
    Interior points use second-order central differences; the endpoints use
    second-order one-sided stencils. Singular points and their immediate
    neighbours get NaN delay.

    Raises
    ------
    ParameterError
        If the spectrum is not a detuning sweep or has fewer than 3 points.
    """
    if spectrum.axis is not SweepAxis.DETUNING:
        raise ParameterError("numeric delay is defined for detuning sweeps")
    if len(spectrum) < 3:
        raise ParameterError(f"need at least 3 points, got {len(spectrum)}")
    phase = unwrap_phase(spectrum.phase_rad)
    dphi = np.gradient(phase, spectrum.x_hz, edge_order=2)
    delay = -dphi / TWO_PI
    if spectrum.singular.any():
        bad = np.flatnonzero(spectrum.singular)
        for i in bad:
            delay[max(0, i - 1): i + 2] = np.nan
    return replace(spectrum, delay_s=delay)
