"""Adaptive quadrature for sharply peaked spectral integrands."""

from __future__ import annotations

import warnings

#: requested relative tolerance; QUADPACK is asked for 1e-9, and an error
#: estimate above 100x this is a failure
_RTOL = 1e-8


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def quad_spectrum(integrand, s, extra_points: tuple[float, ...], name: str) -> float:
    """Integrate an even spectral density as 2 * int_0^varpi integrand(w) dw.

    The upper limit is the reservoir cutoff varpi of ``s``.  The mechanical
    resonance at omega_m = 1, of Lorentzian half-width gamma_m (1 + g) / 2,
    is far narrower than the integration range, so the interval is pre-split
    around it (and at ``extra_points``) before handing off to QUADPACK.
    """
    upper = s.cutoff_reservoir
    halfwidth = 0.5 * s.damping
    pts = {1.0, *extra_points}
    for k in (1.0, 3.0, 10.0, 30.0, 100.0, 300.0):
        for sign in (-1.0, 1.0):
            pts.add(1.0 + sign * k * halfwidth)
    pts = sorted(x for x in pts if 0.0 < x < upper)

    # local import: scipy.integrate adds ~0.5 s to start-up and only quadrature needs it
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        # tolerance is checked explicitly below; QUADPACK's own warning is noise
        warnings.simplefilter("ignore", IntegrationWarning)
        value, abserr = quad(
            integrand,
            0.0,
            upper,
            points=pts or None,
            limit=400,
            epsabs=0.0,
            epsrel=1e-9,
        )
    value *= 2.0
    abserr *= 2.0
    if abserr > 100.0 * _RTOL * abs(value) + 1e-290:
        raise QuadratureError(
            f"{name}: requested rel. tol {_RTOL:g} not met "
            f"(value {value:.6g}, achieved abs. err {abserr:.3g})"
        )
    return value
