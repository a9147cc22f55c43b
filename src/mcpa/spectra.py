"""Sweep engine: transmission spectra versus detuning or coupling rate.

Sweeps take a plain grid array (build one with :func:`grid` or
:func:`detuning_span`) and return an immutable :class:`Spectrum` carrying
the complex response together with derived amplitude, phase, and delay
channels, all from one pass of the closed-form kernel. Transmission zeros
are marked by a NaN delay, never dropped, so grids stay uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import model
from .errors import ParameterError
from .model import DeviceParams

TWO_PI = model.TWO_PI

#: Half-span of `detuning_span` in effective window widths: wide enough to
#: capture the full mechanical feature without resolving the (much wider)
#: cavity line.
DETUNING_SPAN_WIDTHS = 5.0


def grid(start_hz: float, stop_hz: float, n_points: int,
         scale: str = "linear") -> NDArray[np.floating]:
    """`n_points` (>= 2) samples from `start_hz` to `stop_hz` (Hz, finite,
    start < stop, both included), spaced "linear" or "log" (start > 0)."""
    if scale not in ("linear", "log"):
        raise ParameterError(f"scale must be 'linear' or 'log', got {scale!r}")
    if not (math.isfinite(start_hz) and math.isfinite(stop_hz)):
        raise ParameterError("sweep endpoints must be finite")
    if not start_hz < stop_hz:
        raise ParameterError(f"sweep needs start < stop, got [{start_hz}, {stop_hz}]")
    if n_points < 2:
        raise ParameterError(f"sweep needs at least 2 points, got {n_points}")
    if scale == "log":
        if start_hz <= 0.0:
            raise ParameterError("log-scaled sweep requires start > 0")
        return np.geomspace(start_hz, stop_hz, n_points)
    return np.linspace(start_hz, stop_hz, n_points)


def detuning_span(params: DeviceParams, coupling: float,
                  n_points: int = 2001) -> NDArray[np.floating]:
    """Symmetric linear detuning grid covering the mechanically induced
    feature: +/- `DETUNING_SPAN_WIDTHS` effective window widths, which must
    lie in the kernel's detuning range (ParameterError otherwise)."""
    g = model._scalar_g_hz(coupling)
    w = model._detuning_hz(
        DETUNING_SPAN_WIDTHS * model.effective_window_hz(params, g),
        f"the half-width of the detuning span at g = {g!r} Hz",
    )
    return grid(-w, w, n_points)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Evaluated sweep: response channels on a common grid.

    Attributes
    ----------
    x_hz : ndarray
        (Hz) grid: detuning for a detuning sweep, coupling rate for a
        resonance sweep.
    t : ndarray of complex
        () transmission; real-valued content for resonance sweeps.
    amplitude_db : ndarray
        (dB) 20*log10(|t|), -inf where t is exactly 0.
    phase_rad : ndarray
        (rad) phase on (-pi, pi], real-negative mapped to +pi; NaN at the
        transmission zeros of a resonance sweep.
    delay_s : ndarray
        (s) closed-form group delay, as :func:`model.group_delay_curve`
        gives it; NaN exactly at the transmission zeros, the points where
        |t| < :data:`model.DEGENERACY_TOL`.
    """

    x_hz: NDArray[np.floating]
    t: NDArray[np.complexfloating]
    amplitude_db: NDArray[np.floating]
    phase_rad: NDArray[np.floating]
    delay_s: NDArray[np.floating]

    def __len__(self) -> int:
        return len(self.x_hz)


def _checked_grid(x_hz, what: str, min_points: int) -> NDArray[np.floating]:
    """`x_hz` as a float array, after checking it is a 1-d, finite, strictly
    ascending grid of at least `min_points` points."""
    x = np.asarray(x_hz, dtype=float)
    if x.ndim != 1 or len(x) < min_points:
        raise ParameterError(f"need a 1-d {what} grid with at least {min_points} points")
    if not np.all(np.isfinite(x)):
        raise ParameterError(f"{what} grid must be finite")
    if np.any(np.diff(x) <= 0.0):
        raise ParameterError(f"{what} grid must be strictly ascending")
    return x


def _amplitude_db(t_abs: NDArray[np.floating]) -> NDArray[np.floating]:
    out = np.full_like(t_abs, -np.inf)
    nz = t_abs > 0.0
    out[nz] = 20.0 * np.log10(t_abs[nz])
    return out


def sweep_detuning(params: DeviceParams, coupling: float,
                   detuning_hz: NDArray[np.floating]) -> Spectrum:
    """Evaluate the transmission across a detuning grid at fixed coupling.

    Parameters
    ----------
    params : DeviceParams
    coupling : float
        (Hz) field-enhanced coupling rate.
    detuning_hz : array_like
        (Hz) 1-d, strictly ascending grid of at least 3 points, each within
        +/- sqrt(float max) (about 1.34e154), so that Delta^2 is a finite
        float.

    Returns
    -------
    Spectrum
        delay_s is :func:`model.group_delay_curve` on the grid.
    """
    g = model._scalar_g_hz(coupling)
    x = model._detuning_hz(_checked_grid(detuning_hz, "detuning", 3))
    t, delay = model._response(params.kappa_hz, params.eta, params.gamma_m_hz, g, x, delay=True)
    return Spectrum(
        x_hz=x,
        t=t,
        amplitude_db=_amplitude_db(np.abs(t)),
        phase_rad=model.principal_phase(t),
        delay_s=delay,
    )


def sweep_coupling_resonance(params: DeviceParams, g_hz: NDArray[np.floating]) -> Spectrum:
    """Resonant response across a coupling grid: t_z, phase, and delay at
    zero detuning.

    The grid must be 1-d and strictly ascending, with at least 2 points,
    each a coupling that :func:`model.transmission_curve` takes. At zero
    detuning the closed-form transmission is an exact real number, so the
    phase channel is exactly pi below the critical coupling and exactly 0
    above it. Grid points whose transmission is degenerate with zero
    carry NaN phase and delay.
    """
    g = model._g_hz(_checked_grid(g_hz, "coupling", 2))
    t, delay = model._response(params.kappa_hz, params.eta, params.gamma_m_hz, g, 0.0, delay=True)
    tz = t.real
    return Spectrum(
        x_hz=g,
        t=tz.astype(complex),
        amplitude_db=_amplitude_db(np.abs(tz)),
        phase_rad=np.where(np.isnan(delay), np.nan, model.principal_phase(tz)),
        delay_s=delay,
    )


def numeric_group_delay(x_hz: NDArray[np.floating], phase_rad: NDArray[np.floating],
                        singular: NDArray[np.bool_]) -> NDArray[np.floating]:
    """Group delay from a phase sampled on a detuning grid of >= 3 points,
    such as that of a measured trace.

    tau = -(1/2pi) * d(phase)/d(detuning), with the phase unwrapped first.
    Interior points use second-order central differences; the endpoints use
    second-order one-sided stencils. Singular points and their immediate
    neighbours get NaN delay.
    """
    x = _checked_grid(x_hz, "detuning", 3)
    dphi = np.gradient(np.unwrap(phase_rad), x, edge_order=2)
    delay = -dphi / TWO_PI
    for i in np.flatnonzero(singular):
        delay[max(0, i - 1): i + 2] = np.nan
    return delay
