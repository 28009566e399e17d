"""Mirror response functions in time and frequency domain.

The closed-loop oscillator obeys

    chi'' + gamma_m (1 + g) chi' + w0^2 chi = 0,   chi(0) = 0, chi'(0) = omega_m,

with w0^2 = omega_m^2 for cold damping and omega_m^2 + g gamma_m^2 for
stochastic cooling (feedback renormalizes the frequency in that scheme).
All functions work in omega_m = 1 units and accept array arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Scheme, SchemeParams

#: |R| t^2 below this uses the series form of sin(sqrt(R) t)/sqrt(R)
_SERIES_CUT = 1e-6


def damping_rate(s: SchemeParams) -> float:
    """Effective energy damping rate Gamma = gamma_m (1 + g)."""
    return s.damping


def renormalized_freq_sq(s: SchemeParams) -> float:
    """Squared oscillation frequency w0^2 including the feedback shift."""
    if s.scheme is Scheme.STOCHASTIC_COOLING:
        return 1.0 + s.g * s.gamma_m**2
    return 1.0


def _sin_cos_factors(s: SchemeParams, t):
    """Return (e^{-Gamma t/2} sin-like, e^{-Gamma t/2} cos-like).

    sin-like = sin(sqrt(R) t)/sqrt(R) continued to sinh for R < 0; the
    overdamped branch is evaluated from the two real decay exponents to
    stay finite at large t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("response functions are defined for t >= 0")
    h = 0.5 * damping_rate(s)
    R = renormalized_freq_sq(s) - h * h

    es = np.empty_like(t)
    ec = np.empty_like(t)

    series = np.abs(R) * t * t < _SERIES_CUT
    if np.any(series):
        ts = t[series]
        x = R * ts * ts
        damp = np.exp(-h * ts)
        es[series] = damp * ts * (1.0 - x / 6.0 + x * x / 120.0)
        ec[series] = damp * (1.0 - x / 2.0 + x * x / 24.0)

    rest = ~series
    if np.any(rest):
        tr = t[rest]
        if R > 0:
            w = np.sqrt(R)
            damp = np.exp(-h * tr)
            es[rest] = damp * np.sin(w * tr) / w
            ec[rest] = damp * np.cos(w * tr)
        else:
            w = np.sqrt(-R)
            ep = np.exp((-h + w) * tr)
            em = np.exp((-h - w) * tr)
            es[rest] = (ep - em) / (2.0 * w)
            ec[rest] = (ep + em) / 2.0
    return es, ec


def chi_time(s: SchemeParams, t):
    """Time-domain susceptibility chi(t) of the closed-loop mirror."""
    es, _ = _sin_cos_factors(s, t)
    out = es  # omega_m = 1
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class KernelSet:
    """chi(t) and the scheme's response kernels on a common time grid.

    Stochastic cooling carries the pair (k_q, k_p); cold damping carries
    the single kernel k.  Unused slots are None.  All kernels equal 1 at
    t = 0.
    """

    t: np.ndarray
    chi: np.ndarray
    k_q: np.ndarray | None = None
    k_p: np.ndarray | None = None
    k: np.ndarray | None = None


def kernels(s: SchemeParams, t) -> KernelSet:
    """Evaluate the response kernels in closed form (no differencing).

    For stochastic cooling K_Q = (chi' + gamma_m chi)/omega_m and
    K_P = (chi' + g gamma_m chi)/omega_m; for cold damping
    K = 1 - omega_m * int_0^t chi.  Scheme NONE returns the bare-oscillator
    K_Q, K_P (g = 0), for which the two coincide up to a gamma_m chi term.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    es, ec = _sin_cos_factors(s, t)
    h = 0.5 * damping_rate(s)
    gm = s.gamma_m
    chi = es
    chidot = ec - h * es

    if s.scheme is Scheme.COLD_DAMPING:
        # 1 - int_0^t chi evaluates to e^{-Gamma t/2}(cos-like + h sin-like)
        # because w0^2 = 1 for this scheme.
        k = ec + h * es
        return KernelSet(t=t, chi=chi, k=k)

    k_q = chidot + gm * chi
    k_p = chidot + s.g * gm * chi
    return KernelSet(t=t, chi=chi, k_q=k_q, k_p=k_p)


def chi_freq(s: SchemeParams, omega):
    """Frequency-domain susceptibility chi~(omega); accepts complex omega.

    Equal to the half-line Fourier transform int_0^inf chi(t) e^{-i w t} dt,
    analytically continued off the real axis (used with w - i/(2 T_m) by the
    windowed-measurement machinery).
    """
    omega = np.asarray(omega)
    out = 1.0 / (renormalized_freq_sq(s) - omega**2 + 1j * omega * damping_rate(s))
    return out if out.ndim else complex(out)
