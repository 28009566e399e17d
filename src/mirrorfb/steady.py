"""Stationary second moments, cooling limits, squeezing and regime flags.

The module owns the noise model: ``_noise_weights`` (back-action zeta/4,
feedback g^2/(4 eta zeta)), ``_feedback_weight`` (the feedback kernel) and
``_thermal_density`` (the Brownian force) state each source once, and
``spectra``, ``nonstat`` and the oracle (via ``noise_strengths``) compose them.
The thermal model keeps two spellings: ``ThermalModel`` and the spectra's
``thermal="exact"|"classical"``.  Closed forms are expressed with the shorthand

    A = g^2 / (8 eta zeta)          feedback-induced noise weight
    B = zeta/8 + theta/2            back-action + classical thermal weight
    D = (1 + g)(Q^2 + g)

in omega_m = 1 working units.  The classical-delta thermal model treats the
Brownian force as white noise of rate gamma_m * theta, valid for theta >> 1;
the exact model replaces the thermal pieces with a coth-weighted quadrature
over the reservoir band, by the package's adaptive Gauss-Kronrod rule
(:mod:`mirrorfb._quad`, NumPy only).  The classical closed form is written
once: ``steady_moments`` evaluates it at one parameter set, ``moments_sweep``
over a 1-d array of one numeric field (figures 2-4, ``steady --sweep``), to
the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._quad import quad_spectrum
from .core import NUMERIC_FIELDS, Scheme, SchemeParams, _warn
from .response import chi_freq


class ThermalModel(Enum):
    CLASSICAL_DELTA = "classical-delta"
    CLASSICAL_PLUS_LOG = "classical-plus-log"
    EXACT_COTH = "exact-coth"


def _sq(x):
    """x**2 by libm pow, as a float's ``**``; NumPy's ``**`` would square an array as x * x."""
    return np.float_power(x, 2) if isinstance(x, np.ndarray) else x**2


def _noise_weights(g, zeta, eta):
    """(zeta/4, g^2 / (4 eta zeta)): the back-action and feedback noise weights, floats or a sweep's arrays."""
    return zeta / 4.0, _sq(g) / (4.0 * eta * zeta)


def _feedback_weight(s: SchemeParams, omega):
    """Feedback noise kernel: omega^2 + gamma_m^2 where it drives the position (stochastic cooling), else omega^2."""
    return omega**2 + s.gamma_m**2 if s.scheme is Scheme.STOCHASTIC_COOLING else omega**2


def _thermal_density(s: SchemeParams, omega, thermal: str) -> np.ndarray:
    """Brownian force density: (omega/2) coth(omega / 2 theta), theta at omega = 0 ("exact"), or theta ("classical")."""
    omega = np.asarray(omega, dtype=float)
    if thermal == "classical":
        return np.full_like(omega, s.theta)
    if thermal != "exact":
        raise ValueError(f"thermal must be 'exact' or 'classical', got {thermal!r}")
    if s.theta == 0:
        return np.abs(omega) / 2.0
    x = omega / (2.0 * s.theta)
    out = np.empty_like(omega)
    small = np.abs(x) < 1e-8
    out[small] = s.theta * (1.0 + x[small] ** 2 / 3.0)
    out[~small] = omega[~small] / np.tanh(x[~small]) / 2.0
    return out


@dataclass(frozen=True)
class NoiseStrengths:
    """Delta-correlated noise intensities of the working equations: ``d_q`` drives the position
    (stochastic cooling only), ``d_p`` the momentum (back-action + classical thermal), and ``d_fb_cd``
    weights the omega^2/omega_m^2 spectral density of the band-limited cold-damping force."""

    d_q: float
    d_p: float
    d_fb_cd: float


def noise_strengths(s: SchemeParams) -> NoiseStrengths:
    gm = s.gamma_m
    back_action, feedback = _noise_weights(s.g, s.zeta, s.eta)
    return NoiseStrengths(
        d_q=gm * feedback if s.scheme is Scheme.STOCHASTIC_COOLING else 0.0,
        d_p=gm * (back_action + s.theta),
        d_fb_cd=gm * feedback if s.scheme is Scheme.COLD_DAMPING else 0.0,
    )


@dataclass(frozen=True)
class MomentSet:
    """Stationary second moments; qp is the symmetrized <QP+PQ>/2."""

    q2: float
    p2: float
    qp: float
    thermal_model: ThermalModel = ThermalModel.CLASSICAL_DELTA

    def __post_init__(self):
        positive = (self.q2 > 0) & (self.p2 > 0)  # False at NaN; an array over a sweep
        if not (positive if isinstance(positive, bool) else positive.all()):
            raise ValueError(f"variances must be positive, got q2={self.q2}, p2={self.p2}")

    @property
    def energy_units(self) -> float:
        """Stationary energy in zero-point units, 2 U_st / (hbar omega_m)."""
        return 2.0 * (self.q2 + self.p2)


class BrownianMoments(NamedTuple):
    q2_bm: float
    p2_bm: float


def _log_correction(s: SchemeParams) -> float:
    """Momentum-variance correction (gamma_m/pi) ln(varpi / (2 pi theta))."""
    if s.theta <= 0:
        raise ValueError("the logarithmic thermal correction requires theta > 0")
    return (s.gamma_m / math.pi) * math.log(s.cutoff_reservoir / (2.0 * math.pi * s.theta))


def _closed_form(s: SchemeParams, model: ThermalModel = ThermalModel.CLASSICAL_DELTA, **swept):
    """(q2, p2, qp) of the classical-delta model; ``swept`` gives one numeric field as an array.

    For the exact model q2 and p2 keep only B's back-action weight zeta/8.
    Only + - * / and ``_sq`` act, so a float and an array element round alike.
    """
    if model is ThermalModel.CLASSICAL_DELTA and s.theta == 0:
        _warn("classical-delta thermal model with theta = 0: the white-noise "
              "approximation assumes hbar omega_m << k_B T")
    g, q, zeta, theta, eta, cutoff = [swept.get(f, getattr(s, f)) for f in NUMERIC_FIELDS]
    back_action, feedback = _noise_weights(g, zeta, eta)
    a, b = feedback / 2.0, (back_action + theta) / 2.0
    d = (1.0 + g) * (_sq(q) + g)
    b_ba = back_action / 2.0 if model is ThermalModel.EXACT_COTH else b
    if s.scheme is not Scheme.COLD_DAMPING:
        q2 = a * (1.0 + q * q + g) / d + b_ba * q * q / d
        return q2, a * q * q / d + b_ba * (g * g + q * q + g) / d, (b * g - a) * q / d
    q2 = a / (1.0 + g) + b_ba / (1.0 + g)
    if not s.wide_band:
        return q2, q2, 0.0
    # wide-band feedback heating of <P^2>: the loop extends to the reservoir cutoff
    return q2, b_ba / (1.0 + g) + (1.0 / q) * a * cutoff / math.pi, 0.0


def steady_moments(s: SchemeParams, model: ThermalModel = ThermalModel.CLASSICAL_DELTA) -> MomentSet:
    """Stationary {<Q^2>, <P^2>, <QP+PQ>/2} for the configured scheme.

    Cold damping defaults to the narrow-band loop, for which the stationary
    state is an effective thermal state with q2 = p2 and qp = 0; a wide-band
    loop (``cutoff_feedback="wide"``) instead heats <P^2> by a term
    proportional to the loop cutoff.  The cross moment qp always uses the
    classical thermal weight (its quadrature carries no cutoff ambiguity).

    Known gaps, open as item 5 of ROADMAP.md: the narrow band's q2 uses the
    full-line feedback term a/(1+g), while the spectra and the Monte Carlo
    keep the feedback noise inside ``feedback_band()``: at the paper's point
    (cold damping, g = 2e3, Q = 1e5, zeta = 10, theta = 1e5, eta = 0.8)
    ``integrated_position_variance`` is 1.78% below q2 (0.92% at g = 1e3,
    Q = 1e4).  Explicit bands (half-width or (lo, hi)) get the narrow p2: at
    g = 100, Q = 1e4, (0, 1000) gives 496.61 where "wide" gives 500.04.
    Where feedback dominates, p2 = q2 fails: at g = 10, Q = 50, zeta = 0.1,
    theta = 10 the band (0, 3.2) gives p2 = 14.660, the spectrum (and the
    Monte Carlo) 19.064.  "wide" p2 is half the brick-wall omega^2 band's
    integral; C08's factor is 15.58 with it and 12.48 with the integral.
    """
    q2, p2, qp = _closed_form(s, model)
    if model is ThermalModel.EXACT_COTH:
        bm = brownian_exact(s)
        q2 += bm.q2_bm
        p2 += bm.p2_bm
    elif model is ThermalModel.CLASSICAL_PLUS_LOG:
        p2 += _log_correction(s)
    return MomentSet(q2=q2, p2=p2, qp=qp, thermal_model=model)


def moments_sweep(s: SchemeParams, name: str, values) -> MomentSet:
    """Classical-delta ``steady_moments(replace(s, name=x))`` for each x of a 1-d array.

    One closed-form evaluation gives the scalar calls' bits, as arrays shaped
    like ``values``.  Every ``SchemeParams`` constraint on a numeric field is
    an interval, so finite values and valid parameters at the least and the
    greatest value validate them all, with ``SchemeParams``' messages.
    """
    values = np.asarray(values, dtype=float)
    if name not in NUMERIC_FIELDS or values.ndim != 1:
        raise ValueError(f"a sweep takes a numeric field and a 1-d array, got {name!r} of shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
    lo = replace(s, **{name: float(values.min())})
    replace(s, **{name: float(values.max())})
    with np.errstate(all="raise", under="ignore"):  # an overflow raises, as a float's ** does
        return MomentSet(*(np.full(values.shape, v) for v in _closed_form(lo, **{name: values})))


def brownian_exact(s: SchemeParams) -> BrownianMoments:
    """Quantum Brownian contributions to q2 and p2 by coth-weighted quadrature.

    Integrates (gamma_m/2) |chi~|^2 omega coth(omega/2 theta) {1, w(omega)}
    over the reservoir band [-varpi, varpi], with momentum weight
    w = omega^2 + (g gamma_m)^2 for stochastic cooling and omega^2 for cold
    damping.  Integrands are even, so only [0, varpi] is sampled, by the
    adaptive 21-point Gauss-Kronrod rule of :func:`mirrorfb._quad.quad_spectrum`:
    it pre-splits at the resonance and the coth knee 2 theta.  Both moments
    are one stacked integrand on one set of panels, so each refinement round
    evaluates the density once, on an omega array, and each moment still
    meets its own tolerance.
    """
    gm = s.gamma_m
    wshift = 0.0 if s.scheme is Scheme.COLD_DAMPING else (s.g * gm) ** 2

    def moments(w):
        density = gm * _thermal_density(s, w, "exact") * np.abs(chi_freq(s, w)) ** 2
        return np.stack([density / (2.0 * math.pi), density * (w * w + wshift) / (2.0 * math.pi)])

    knee = (2.0 * s.theta,)  # coth crossover from classical to quantum
    q2_bm, p2_bm = quad_spectrum(moments, s, knee, "brownian q2, p2 quadrature")
    return BrownianMoments(q2_bm=float(q2_bm), p2_bm=float(p2_bm))


def steady_energy(s: SchemeParams) -> float:
    """Stationary energy 2 U_st / (hbar omega_m) in the classical-delta model."""
    return steady_moments(s, ThermalModel.CLASSICAL_DELTA).energy_units


class PowerOptimum(NamedTuple):
    zeta_opt: float
    energy_units: float


def optimal_input_power(s: SchemeParams) -> PowerOptimum:
    """Input power minimizing the stationary energy at fixed gain.

    In the classical-delta model the energy has the form
    E(zeta) = alpha / zeta + beta zeta + c (feedback noise falls and
    back-action grows with power), so zeta_opt = sqrt(alpha / beta) =
    (g / sqrt(eta)) sqrt(r) with

        r = 1                                      cold damping, narrow band
        r = (1 + (1 + g) gamma_m varpi / pi) / 2   cold damping, wide band
        r = (1 + 2 Q^2 + g) / (2 Q^2 + g^2 + g)    stochastic cooling

    where varpi is the wide loop's cutoff.  The zeta stored in ``s`` is
    ignored.
    """
    if s.g <= 0:
        raise ValueError("optimal_input_power requires a positive feedback gain")

    g, q = s.g, s.quality
    if s.scheme is not Scheme.COLD_DAMPING:
        ratio = (1.0 + 2.0 * q * q + g) / (2.0 * q * q + g * g + g)
    elif s.wide_band:
        ratio = (1.0 + (1.0 + g) * s.gamma_m * s.cutoff_reservoir / math.pi) / 2.0
    else:
        ratio = 1.0
    zopt = (g / math.sqrt(s.eta)) * math.sqrt(ratio)
    return PowerOptimum(zopt, steady_energy(replace(s, zeta=zopt)))


class SqueezeOptimum(NamedTuple):
    zeta_opt: float
    q2_min: float
    squeezed: bool


def min_position_variance(g: float, quality: float, theta: float, eta: float) -> SqueezeOptimum:
    """Minimum of <Q^2>_st over input power, stochastic cooling only.

    The minimum is attained at zeta = (g / (Q sqrt(eta))) sqrt(1 + Q^2 + g)
    and beats the standard quantum limit 1/4 at sufficiently large gain
    (g >> Q^2); ``squeezed`` flags q2_min < 1/4.
    """
    # validated as a stochastic-cooling parameter set: finite, g >= 0, Q > 0, ...
    SchemeParams(scheme=Scheme.STOCHASTIC_COOLING, g=g, quality=quality, theta=theta, eta=eta)
    q = quality
    d = (1.0 + g) * (q * q + g)
    q2_min = g * q * math.sqrt(1.0 + q * q + g) / (4.0 * math.sqrt(eta) * d) + (
        theta / 2.0
    ) * q * q / d
    zeta_opt = (g / (q * math.sqrt(eta))) * math.sqrt(1.0 + q * q + g) if g > 0 else 0.0
    return SqueezeOptimum(zeta_opt, q2_min, q2_min < 0.25)


class RegimeFlags(NamedTuple):
    squeezed: bool
    contractive: bool
    thermal_like: bool


def regime_flags(s: SchemeParams) -> RegimeFlags:
    """Qualitative state classification from the classical-delta stationary moments.

    squeezed: q2 < 1/4 (below the standard quantum limit); contractive:
    qp < 0 (negative position-momentum correlation, stochastic cooling at
    g > eta zeta (zeta + 4 theta)); thermal_like: q2 and p2 agree and qp
    vanishes to within 1e-3 relative.
    """
    m = steady_moments(s)
    return RegimeFlags(
        squeezed=m.q2 < 0.25,
        contractive=m.qp < 0.0,
        thermal_like=abs(m.q2 - m.p2) < 1e-3 * m.q2 and abs(m.qp) < 1e-3 * m.q2,
    )
