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

Curves are evaluated as whole arrays.  A window may hold a 1-d array of measurement times, which
broadcasts against the frequency grid (one row per window), so a sweep over T_m is one call.
:func:`arrival_signal` owns the arrival-time rule (a node count worked out from the pulse width and
the window, blocks of nodes per broadcast), and every scheme with the same bare mirror, pulse, window
and grid shares its rows in :func:`cyclic_avg_snr`.  The pulse's two carrier terms (+-omega_f) lead
one complex array, so one ``erfcx`` call evaluates both, and entries where it would overflow take the
reflection as a masked fix-up.  Every broadcast performs the same elementwise operations, in the same
order, as the scalar call, so both give the same bits.  SciPy's ``erfcx`` releases the GIL, so the
caller fills the first half of the node blocks while one helper thread fills the second; each row
still takes the same operations, and the helper is joined before the call returns or raises.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass

import numpy as np

from .core import SchemeParams, _warn
from .response import chi_freq
from .spectra import shot_noise_floor
from .steady import ThermalModel, _sq, noise_strengths, steady_moments

#: least number of arrival-time nodes of the cyclic average
CYCLIC_ARRIVAL_NODES = 64
_NODE_SPACING = 0.2  # largest node spacing of that average, in units of the pulse duration sigma
_MAX_ARRIVAL_NODES = 4096  # its node cap, past which it warns
_NODE_BLOCK = 8  # arrival nodes per broadcast in arrival_signal


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
        for name in ("f0", "t1", "omega_f"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"force {name} must be finite, got {getattr(self, name)}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"force duration sigma must be finite and > 0, got {self.sigma}")

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
    """Exponential measurement filter of effective duration t_m.

    ``t_m`` is a finite positive scalar, kept as given, or a non-empty 1-d
    array of them, stored as a read-only float copy.  An array window is a
    sweep: the windowed functions return one row per entry, shape
    ``t_m.shape + omega.shape``.
    """

    t_m: float | np.ndarray

    def __post_init__(self):
        t_m = np.asarray(self.t_m)
        if t_m.dtype.kind not in "iuf" or t_m.ndim > 1 or t_m.size == 0:
            raise ValueError(
                "measurement time must be a real scalar or a non-empty 1-d array, "
                f"got {t_m.dtype} of shape {t_m.shape}"
            )
        bad = ~((t_m > 0) & (t_m < math.inf))
        if bad.any():
            raise ValueError(f"measurement time must be finite and > 0, got {t_m[bad].flat[0]}")
        if t_m.ndim:
            t_m = t_m.astype(float)  # a copy, even of a float array
            t_m.flags.writeable = False
            object.__setattr__(self, "t_m", t_m)

    def over(self, omega):
        """t_m shaped to broadcast against ``omega``: a scalar as given, an array as a column."""
        t_m = self.t_m
        return t_m.reshape(t_m.shape + (1,) * np.ndim(omega)) if np.ndim(t_m) else t_m

    def filter(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, np.exp(-np.maximum(t, 0.0) / (2.0 * self.over(t))), 0.0)


def _warn_impulsive(s: SchemeParams, force: ForcePulse, win: MeasurementWindow) -> None:
    if force.sigma * s.gamma_m > 0.1:
        _warn(
            "force duration is not small against the mechanical relaxation time "
            f"(sigma gamma_m = {force.sigma * s.gamma_m:.3g}); the impulsive "
            "description degrades"
        )
    t_m = np.min(win.t_m)  # the shortest window of a sweep
    if force.sigma > 0.3 * t_m:
        _warn(
            f"force duration sigma = {force.sigma:.3g} is not small against the "
            f"{'shortest ' if np.ndim(win.t_m) else ''}measurement time t_m = {t_m:.3g}"
        )


def _halfline(force: ForcePulse, t1, t_m, omega):
    """The transform of ``force`` arriving at t1, broadcast over t1, t_m and omega: the carrier terms
    +-omega_f lead one complex array, so one erfcx call evaluates both, and the reflection is a masked fix-up."""
    # local import: scipy.special adds ~0.3 s to start-up and only this transform needs it
    from scipy.special import erfcx

    omega = np.asarray(omega, dtype=complex)
    s_lap = 1.0 / (2.0 * t_m) + 1j * omega
    sig = force.sigma
    gauss = np.exp(-_sq(t1) / (2.0 * sig**2))
    carrier = np.array([1j * sign * force.omega_f for sign in (+1.0, -1.0)])
    a = s_lap - carrier.reshape((2,) + (1,) * max(np.ndim(s_lap), np.ndim(t1)))
    z = (a * sig**2 - t1) / (sig * math.sqrt(2.0))
    # erfcx(z) ~ 2 exp(z^2) for Re z << 0, where gauss * erfcx(z) would form 0 * inf; those entries are
    # negated and take the reflection 2 exp(a^2 sig^2 / 2 - a t1) - gauss * erfcx(-z).  The sum starts
    # at 0.0, so a zero part of it is +0.0 even where both terms give -0.0
    refl = np.real(z) < -20.0
    np.negative(z, out=z, where=refl)
    main = gauss * erfcx(z)
    ar, tr = (np.broadcast_to(x, z.shape)[refl] for x in (a, t1))
    main[refl] = 2.0 * np.exp(ar**2 * sig**2 / 2.0 - ar * tr) - main[refl]
    return 0.5 * force.f0 * sig * math.sqrt(math.pi / 2.0) * (0.0 + main[0] + main[1])


def force_halfline_transform(force: ForcePulse, win: MeasurementWindow, omega):
    """int_0^inf f(u) exp(-(i omega + 1/2 T_m) u) du, in closed form.

    Written through erfcx so the Gaussian x oscillatory pieces never overflow: one erfcx call evaluates
    both carrier terms, and entries where erfcx itself would blow up (force support far inside the
    window) take the reflected expansion as a masked fix-up.  An array window gives one row per T_m.
    """
    out = _halfline(force, force.t1, win.over(omega), omega)
    return out if out.ndim else complex(out)


def signal_spectrum(s: SchemeParams, force: ForcePulse, win: MeasurementWindow, omega):
    """Windowed signal S(omega) per unit calibration, feedback off.

    The mean mirror motion responds with the bare susceptibility (the loop
    is opened for the measurement), so S = |chi0(omega - i/2T_m)| x
    |force half-line transform| regardless of the scheme stored in ``s``.
    """
    _warn_impulsive(s, force, win)
    omega = np.asarray(omega, dtype=float)
    chi0 = chi_freq(s.bare(), omega - 0.5j / win.over(omega))
    out = np.abs(chi0) * np.abs(force_halfline_transform(force, win, omega))
    return out if out.ndim else float(out)


def nonstationary_noise(s: SchemeParams, win: MeasurementWindow, omega):
    """Nonstationary noise spectrum N_Q^2(omega), rescaled to position units.

    The oscillator starts from the feedback-cooled stationary state of
    ``s`` (its classical-delta ``steady_moments``) and evolves freely during
    the measurement.  The feedback band of ``s`` enters only through that
    state: ``replace(s, cutoff_feedback="wide")`` starts from the wide-band
    cooled state.  Normalization matches the stationary detected spectrum:
    the large-T_m limit with an uncooled initial state recovers it,
    shot-noise floor included.
    """
    moments = steady_moments(s, ThermalModel.CLASSICAL_DELTA)
    omega = np.asarray(omega, dtype=float)
    t_m = win.over(omega)
    gm = s.gamma_m
    half = 0.5 / t_m
    chi0_sq = np.abs(chi_freq(s.bare(), omega - 1j * half)) ** 2
    bracket = (
        (omega**2 + _sq(half + gm)) * moments.q2
        + moments.p2
        + (gm + half) * (2.0 * moments.qp)
        + t_m * noise_strengths(s).d_p
    )
    out = chi0_sq * bracket / t_m + shot_noise_floor(s)
    return out if out.ndim else float(out)


def nonstationary_snr(s: SchemeParams, force: ForcePulse, win: MeasurementWindow, omega):
    """Calibration-free SNR of the cool-and-measure protocol.

    The mirror is cooled by the loop of ``s`` (its stationary state sets the
    noise, as in :func:`nonstationary_noise`) and measured with it open.  The
    SNR is |E D| / (E|D - E D|^2)^(1/2) of the complex filtered statistic D; the best real
    statistic reaches 1.19x this value cooled and 1.41x bare at figure 8's point.
    """
    sig = signal_spectrum(s, force, win, omega)
    noise_sq = win.over(omega) * nonstationary_noise(s, win, omega)
    return sig / np.sqrt(noise_sq)


def _check_window(win: MeasurementWindow) -> None:
    if np.ndim(win.t_m):
        raise ValueError(f"cyclic averaging takes one measurement time, got {np.size(win.t_m)} of them")


def arrival_signal(s: SchemeParams, force: ForcePulse, win: MeasurementWindow, omega):
    """Row k: :func:`signal_spectrum` of the bare mirror, ``force`` arriving at t1 = (k + 1/2) T_m / n, a node of the
    midpoint rule over the arrival time.  The integrand's one sharp feature lies within a few sigma of the window's
    start, so n = max(CYCLIC_ARRIVAL_NODES, ceil(T_m / 0.2 sigma)), capped at 4096 with a warning."""
    _check_window(win)
    _warn_impulsive(s, force, win)
    nodes = win.t_m / force.sigma / _NODE_SPACING
    if nodes > _MAX_ARRIVAL_NODES:
        _warn(
            f"force duration sigma = {force.sigma:.3g} is too short for the measurement time t_m = {win.t_m:.3g}: "
            f"the {_MAX_ARRIVAL_NODES}-point arrival-time average does not resolve the pulse "
            "and may be off by more than 1%"
        )
    n = max(CYCLIC_ARRIVAL_NODES, math.ceil(min(nodes, _MAX_ARRIVAL_NODES)))
    omega = np.asarray(omega, dtype=float)
    t1_nodes = (np.arange(n) + 0.5) * win.t_m / n
    chi0_abs = np.abs(chi_freq(s.bare(), omega - 0.5j / win.t_m))
    sig = np.empty((n,) + omega.shape)
    blocks = range(0, n, _NODE_BLOCK)
    errors = {}

    def fill(part):
        try:
            for lo in part:
                t1 = t1_nodes[lo : lo + _NODE_BLOCK].reshape((-1,) + (1,) * omega.ndim)
                sig[lo : lo + _NODE_BLOCK] = chi0_abs * np.abs(_halfline(force, t1, win.t_m, omega))
        except BaseException as exc:  # raised again once both halves are done
            errors[part.start] = exc

    # the helper runs in a copy of the caller's context, so np.errstate holds there too
    half = (len(blocks) + 1) // 2
    helper = threading.Thread(target=contextvars.copy_context().run, args=(fill, blocks[half:]), daemon=True)
    helper.start()
    fill(blocks[:half])
    helper.join()
    if errors:
        raise errors[min(errors)]  # the first half's error before the second's
    return sig


def cyclic_avg_snr(s: SchemeParams, force: ForcePulse, win: MeasurementWindow, t_cool: float, omega, signal=None):
    """SNR averaged over a uniformly distributed arrival time in [0, T_m].

    Models cyclic cool-and-measure operation: every cycle measures with the loop open, scored from
    the stationary state the loop of ``s`` cools to.  That state needs Gamma t_cool >> 1, with
    Gamma = gamma_m (1 + g).  At the schedule of figure 10, C08 and the README ``cyclic`` call,
    Gamma t_cool = 2e-3: each cycle starts at about 297x the stationary q2, and the gain at
    resonance is 1.72x, not 15.58x.  The start state a schedule does reach is not computed yet.
    The average carries the duty factor T_m / (T_m + t_cool), and the (negligible) SNR accrued
    during the cooling stage is dropped.  The stored t1 of ``force`` is ignored.  A no-feedback
    comparator is the same call with g = 0 and t_cool = 0.  The window must hold one measurement
    time.  The average is the mean of the rows of ``signal``, this call's :func:`arrival_signal`
    when None, which every scheme of one bare mirror shares.
    """
    _check_window(win)
    if not 0 <= t_cool < math.inf:
        raise ValueError(f"cooling time must be finite and >= 0, got {t_cool}")
    signal = arrival_signal(s, force, win, omega) if signal is None else signal
    if np.shape(signal)[:1] in ((), (0,)) or np.shape(signal)[1:] != np.shape(omega):
        raise ValueError(f"signal must have shape (n,) + omega.shape, n >= 1, got {np.shape(signal)}")
    if t_cool > 0.1 * win.t_m:
        _warn(
            f"cyclic averaging assumes t_cool << t_m (got t_cool = {t_cool:.3g}, "
            f"t_m = {win.t_m:.3g}); the dropped cooling-stage term may matter"
        )
    noise_sq = win.t_m * nonstationary_noise(s, win, omega)
    out = (signal / np.sqrt(noise_sq)).mean(axis=0) * win.t_m / (win.t_m + t_cool)
    return out if out.ndim else float(out)
