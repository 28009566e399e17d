"""Nonstationary spectral measurements: cool, switch off, measure.

The protocol prepares the mirror in the feedback-cooled stationary state,
opens the loop at t = 0, and records the homodyne signal through an
exponential filter F(t) = theta(t) exp(-t / 2 T_m) with int F^2 dt = T_m.
For this filter every windowed transform reduces to the bare susceptibility
evaluated at the complex frequency omega - i/(2 T_m).

The photocurrent calibration prefactor (8 G beta eta / sqrt(gamma_c) in lab
units) cancels between signal and noise; all exported quantities are
calibration-free: the signal is reported per unit calibration, the noise is
rescaled to a position spectrum exactly as the stationary detected spectrum,
and the SNR contains no free factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from .core import SchemeParams
from .response import chi_freq
from .spectra import shot_noise_floor
from .steady import MomentSet, ThermalModel, steady_moments

#: default number of arrival-time nodes for the cyclic average
CYCLIC_ARRIVAL_NODES = 64


@dataclass(frozen=True)
class ForcePulse:
    """Gaussian impulsive force f0 exp(-(t-t1)^2 / 2 sigma^2) cos(omega_f t).

    Times are in 1/omega_m units; ``omega_f`` in omega_m.
    """

    f0: float
    sigma: float
    t1: float
    omega_f: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"force duration sigma must be > 0, got {self.sigma}")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.f0 * np.exp(-((t - self.t1) ** 2) / (2.0 * self.sigma**2)) * np.cos(
            self.omega_f * t
        )

    def fourier_abs(self, omega):
        """|f~(omega)| of the full-line Fourier transform."""
        omega = np.asarray(omega, dtype=float)
        pref = self.f0 * self.sigma * math.sqrt(2.0 * math.pi) / 2.0
        plus = np.exp(-(self.sigma**2) * (omega - self.omega_f) ** 2 / 2.0) * np.exp(
            -1j * (omega - self.omega_f) * self.t1
        )
        minus = np.exp(-(self.sigma**2) * (omega + self.omega_f) ** 2 / 2.0) * np.exp(
            -1j * (omega + self.omega_f) * self.t1
        )
        out = pref * np.abs(plus + minus)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class MeasurementWindow:
    """Exponential measurement filter of effective duration t_m."""

    t_m: float

    def __post_init__(self):
        if self.t_m <= 0:
            raise ValueError(f"measurement time must be > 0, got {self.t_m}")

    def filter(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, np.exp(-t / (2.0 * self.t_m)), 0.0)


def _warn_impulsive(s: SchemeParams, force: ForcePulse, win: MeasurementWindow) -> None:
    if force.sigma * s.gamma_m > 0.1:
        warnings.warn(
            "force duration is not small against the mechanical relaxation time "
            f"(sigma gamma_m = {force.sigma * s.gamma_m:.3g}); the impulsive "
            "description degrades",
            UserWarning,
            stacklevel=3,
        )
    if force.sigma > 0.3 * win.t_m:
        warnings.warn(
            f"force duration sigma = {force.sigma:.3g} is not small against the "
            f"measurement time t_m = {win.t_m:.3g}",
            UserWarning,
            stacklevel=3,
        )


def force_halfline_transform(force: ForcePulse, win: MeasurementWindow, omega):
    """int_0^inf f(u) exp(-(i omega + 1/2 T_m) u) du, in closed form.

    Written through erfcx so the Gaussian x oscillatory pieces never
    overflow; falls back to the reflected expansion where erfcx itself
    would blow up (force support far inside the window).
    """
    omega = np.asarray(omega, dtype=complex)
    s_lap = 1.0 / (2.0 * win.t_m) + 1j * omega
    sig, t1 = force.sigma, force.t1
    total = np.zeros_like(omega, dtype=complex)
    gauss = np.exp(-(t1**2) / (2.0 * sig**2))
    for sign in (+1.0, -1.0):
        a = s_lap - 1j * sign * force.omega_f
        z = (a * sig**2 - t1) / (sig * math.sqrt(2.0))
        # erfcx(z) ~ 2 exp(z^2) for Re z << 0, where gauss * erfcx(z) would
        # form 0 * inf; those entries take the stable reflection instead
        refl = np.real(z) < -20.0
        main = np.empty_like(z)
        main[~refl] = gauss * erfcx(z[~refl])
        ar = a[refl]
        main[refl] = 2.0 * np.exp(ar**2 * sig**2 / 2.0 - ar * t1) - gauss * erfcx(-z[refl])
        total = total + main
    out = 0.5 * force.f0 * sig * math.sqrt(math.pi / 2.0) * total
    return out if out.ndim else complex(out)


def signal_spectrum(s: SchemeParams, force: ForcePulse, win: MeasurementWindow, omega):
    """Windowed signal S(omega) per unit calibration, feedback off.

    The mean mirror motion responds with the bare susceptibility (the loop
    is opened for the measurement), so S = |chi0(omega - i/2T_m)| x
    |force half-line transform| regardless of the scheme stored in ``s``.
    """
    _warn_impulsive(s, force, win)
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    omega = np.atleast_1d(omega)
    shift = omega - 0.5j / win.t_m
    chi0 = chi_freq(s.bare(), shift)
    out = np.abs(chi0) * np.abs(force_halfline_transform(force, win, omega))
    return float(out[0]) if scalar else out


def nonstationary_noise(
    s: SchemeParams,
    win: MeasurementWindow,
    omega,
    moments: MomentSet | None = None,
):
    """Nonstationary noise spectrum N_Q^2(omega), rescaled to position units.

    The oscillator starts from the feedback-cooled stationary moments of
    ``s`` (or an explicit ``moments`` override) and evolves freely during
    the measurement.  Normalization matches the stationary detected
    spectrum: the large-T_m limit with an uncooled initial state recovers
    it, shot-noise floor included.
    """
    if moments is None:
        moments = steady_moments(s, ThermalModel.CLASSICAL_DELTA)
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    omega = np.atleast_1d(omega)

    gm = s.gamma_m
    half = 0.5 / win.t_m
    chi0_sq = np.abs(chi_freq(s.bare(), omega - 1j * half)) ** 2
    bracket = (
        (omega**2 + (half + gm) ** 2) * moments.q2
        + moments.p2
        + (gm + half) * (2.0 * moments.qp)
        + gm * win.t_m * (s.zeta / 4.0 + s.theta)
    )
    out = chi0_sq * bracket / win.t_m + shot_noise_floor(s)
    return float(out[0]) if scalar else out


def nonstationary_snr(
    s: SchemeParams,
    force: ForcePulse,
    win: MeasurementWindow,
    omega,
    moments: MomentSet | None = None,
):
    """Calibration-free SNR of the cool-and-measure protocol."""
    sig = signal_spectrum(s, force, win, omega)
    noise_sq = win.t_m * nonstationary_noise(s, win, omega, moments=moments)
    return sig / np.sqrt(noise_sq)


def cyclic_avg_snr(
    s: SchemeParams,
    force: ForcePulse,
    win: MeasurementWindow,
    t_cool: float,
    omega,
    n_arrival: int = CYCLIC_ARRIVAL_NODES,
    moments: MomentSet | None = None,
):
    """SNR averaged over a uniformly distributed arrival time in [0, T_m].

    Models cyclic cool-and-measure operation: the average carries the duty
    factor T_m / (T_m + t_cool), and the (negligible) SNR accrued during the
    cooling stage is dropped.  The stored t1 of ``force`` is ignored.
    A no-feedback comparator is the same call with g = 0 and t_cool = 0.
    """
    if t_cool < 0:
        raise ValueError("cooling time must be >= 0")
    if t_cool > 0.1 * win.t_m:
        warnings.warn(
            f"cyclic averaging assumes t_cool << t_m (got t_cool = {t_cool:.3g}, "
            f"t_m = {win.t_m:.3g}); the dropped cooling-stage term may matter",
            UserWarning,
            stacklevel=2,
        )
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    omega = np.atleast_1d(omega)

    noise_sq = win.t_m * nonstationary_noise(s, win, omega, moments=moments)

    # midpoint rule over the arrival time; R(omega, t1) is smooth on the
    # filter scale T_m
    t1_nodes = (np.arange(n_arrival) + 0.5) * win.t_m / n_arrival
    shift = omega - 0.5j / win.t_m
    chi0_abs = np.abs(chi_freq(s.bare(), shift))
    sig = np.zeros((n_arrival, omega.size))
    for i, t1 in enumerate(t1_nodes):
        pulse = ForcePulse(f0=force.f0, sigma=force.sigma, t1=float(t1), omega_f=force.omega_f)
        sig[i] = chi0_abs * np.abs(force_halfline_transform(pulse, win, omega))
    snr_nodes = sig / np.sqrt(noise_sq)

    spread = snr_nodes.max(axis=0) / np.maximum(snr_nodes.min(axis=0), 1e-300)
    if np.any(spread > 10.0):
        warnings.warn(
            "SNR varies by more than 10x across the arrival-time grid; the "
            f"{n_arrival}-point average may be under-resolved",
            UserWarning,
            stacklevel=2,
        )
    out = snr_nodes.mean(axis=0) * win.t_m / (win.t_m + t_cool)
    return float(out[0]) if scalar else out
