"""Adaptive quadrature for sharply peaked spectral integrands."""

from __future__ import annotations

import warnings


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def quad_spectrum(
    integrand,
    upper: float,
    *,
    peak: float | None = None,
    halfwidth: float | None = None,
    extra_points: tuple[float, ...] = (),
    rtol: float = 1e-8,
    name: str = "spectral integral",
) -> float:
    """Integrate an even spectral density as 2 * int_0^upper integrand(w) dw.

    A mechanical resonance at ``peak`` with Lorentzian half-width
    ``halfwidth`` is far narrower than the integration range, so the
    interval is pre-split around the peak before handing off to QUADPACK.
    """
    pts = set()
    if peak is not None and halfwidth is not None:
        for k in (1.0, 3.0, 10.0, 30.0, 100.0, 300.0):
            for s in (-1.0, 1.0):
                x = peak + s * k * halfwidth
                if 0.0 < x < upper:
                    pts.add(x)
        if 0.0 < peak < upper:
            pts.add(peak)
    for x in extra_points:
        if 0.0 < x < upper:
            pts.add(x)

    # local import: scipy.integrate adds ~0.5 s to start-up and only quadrature needs it
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        # tolerance is checked explicitly below; QUADPACK's own warning is noise
        warnings.simplefilter("ignore", IntegrationWarning)
        value, abserr = quad(
            integrand,
            0.0,
            upper,
            points=sorted(pts) if pts else None,
            limit=400,
            epsabs=0.0,
            epsrel=min(rtol, 1e-9),
        )
    value *= 2.0
    abserr *= 2.0
    if abserr > 100.0 * rtol * abs(value) + 1e-290:
        raise QuadratureError(
            f"{name}: requested rel. tol {rtol:g} not met "
            f"(value {value:.6g}, achieved abs. err {abserr:.3g})"
        )
    return value
