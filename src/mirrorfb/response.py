"""Mirror response functions in time and frequency domain.

The closed-loop oscillator obeys

    chi'' + gamma_m (1 + g) chi' + w0^2 chi = 0,   chi(0) = 0, chi'(0) = omega_m,

with w0^2 = omega_m^2 for cold damping and omega_m^2 + g gamma_m^2 for
stochastic cooling (feedback renormalizes the frequency in that scheme).
The time-domain responses are the entries of the propagator e^{A t} of
x = (q, p): [[K_Q, chi], [-chi, K_P]] (stochastic cooling) or [[K, chi],
[-chi, chi']] (cold damping); the oracle steps with the same propagator.
All functions work in omega_m = 1 units and accept array arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Scheme, SchemeParams


# the module reads s.damping; this stays as the missing-name sentinel perfbench's tracer test deletes
def damping_rate(s: SchemeParams) -> float:
    """Effective energy damping rate Gamma = gamma_m (1 + g)."""
    return s.damping


def renormalized_freq_sq(s: SchemeParams) -> float:
    """Squared oscillation frequency w0^2 including the feedback shift."""
    if s.scheme is Scheme.STOCHASTIC_COOLING:
        return 1.0 + s.g * s.gamma_m**2
    return 1.0


def drift(s: SchemeParams) -> np.ndarray:
    """Drift matrix A of x = (q, p): x' = A x + noise + (0, f)."""
    a_q = s.gamma_m * s.g if s.scheme is Scheme.STOCHASTIC_COOLING else 0.0
    g_p = s.damping if s.scheme is Scheme.COLD_DAMPING else s.gamma_m
    return np.array([[-a_q, 1.0], [-1.0, -g_p]])


def propagator(a: np.ndarray, t) -> np.ndarray:
    """e^{a t} of a stable real 2x2 ``a`` for scalar or array t >= 0, shape t.shape + (2, 2).

    Cayley-Hamilton: with mu = tr(a)/2, n = a - mu I and n^2 = disc I,
    e^{a t} = e^{mu t} (cos(k t) I + sin(k t)/k n) for k^2 = -disc >= 0.
    Overdamped (k^2 = disc > 0) it is e^{l t} [(1 + e/2) I - e/(2k) n] with
    e = expm1(-2 k t) and l = det(a)/(mu - k): nothing overflows or cancels.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("response functions are defined for t >= 0")
    t = t[..., None, None]
    mu = 0.5 * (a[0, 0] + a[1, 1])
    n = a - mu * np.eye(2)
    disc = n[0, 0] ** 2 + n[0, 1] * n[1, 0]
    k = math.sqrt(abs(disc))
    if disc > 0:
        e = np.expm1(-2.0 * k * t)
        slow = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]) / (mu - k)
        return np.exp(slow * t) * ((1.0 + 0.5 * e) * np.eye(2) - e / (2.0 * k) * n)
    if disc < 0:
        c, d = np.cos(k * t), np.sin(k * t) / k
    else:
        c, d = np.ones_like(t), t
    return np.exp(mu * t) * (c * np.eye(2) + d * n)


def chi_time(s: SchemeParams, t):
    """Time-domain susceptibility chi(t) of the closed-loop mirror."""
    out = propagator(drift(s), t)[..., 0, 1]  # omega_m = 1
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
    All of them are read off the diagonal of the propagator e^{A t}.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    u = propagator(drift(s), t)
    chi, k_q, k_p = u[..., 0, 1], u[..., 0, 0], u[..., 1, 1]
    if s.scheme is Scheme.COLD_DAMPING:
        return KernelSet(t=t, chi=chi, k=k_q)
    return KernelSet(t=t, chi=chi, k_q=k_q, k_p=k_p)


def chi_freq(s: SchemeParams, omega):
    """Frequency-domain susceptibility chi~(omega); accepts complex omega.

    Equal to the half-line Fourier transform int_0^inf chi(t) e^{-i w t} dt,
    analytically continued off the real axis (used with w - i/(2 T_m) by the
    windowed-measurement machinery).
    """
    omega = np.asarray(omega)
    out = 1.0 / (renormalized_freq_sq(s) - omega**2 + 1j * omega * s.damping)
    return out if out.ndim else complex(out)
