"""Adaptive Gauss-Kronrod quadrature for sharply peaked spectral integrands.

The rule is QUADPACK's 21-point Gauss-Kronrod pair with its error estimate
(QK21, Piessens et al. 1983), applied globally adaptively in NumPy: each
round cuts the panels that carry most of the estimated error into eight and
calls the integrand once, on the abscissae of every new panel.  The Python
cost is therefore per round (1-7 rounds for the library's integrals), not
per abscissa: a round costs about as much as 3000 abscissae, so eight-way
cuts trade more points for fewer rounds.  Integrals over one density, such
as the two exact Brownian moments, share one pass as a stacked integrand.
"""

from __future__ import annotations

import math

import numpy as np

_EPSREL = 1e-9  # relative tolerance the adaptive rule is asked for
_FAIL_RTOL = 1e-6  # relative error estimate above which quad_spectrum fails
_LIMIT = 400  # most panels an integral may be split into
_SPLIT = 8  # pieces a refined panel is cut into
_FRACTIONS = np.linspace(0.0, 1.0, _SPLIT + 1)

# Kronrod abscissae on [0, 1], outermost first; the odd entries are the
# 10-point Gauss abscissae.  Weights of the Kronrod and of the Gauss rule at
# those abscissae (the Gauss weight is zero at the Kronrod-only ones).
_XK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0,
)


def _mirror(half):
    """Values at the 21 abscissae in ascending order, from the outermost-first half."""
    half = np.asarray(half, dtype=float)
    return np.concatenate([half[:-1], half[::-1]])


_NODES = _mirror(_XK) * np.repeat([-1.0, 1.0], [10, 11])
_KRONROD = _mirror(_WK)
_RULES = np.stack([_KRONROD, _mirror(_WG)], axis=1)
_ROUNDOFF = 50.0 * np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _gk21(integrand, a: np.ndarray, b: np.ndarray):
    """Kronrod sums and QK21 error estimates on the panels [a, b], or None if not finite.

    Both have the integrand's leading shape and one panel axis last.
    """
    half = 0.5 * (b - a)
    w = (a + half)[:, None] + half[:, None] * _NODES
    f = np.asarray(integrand(w.ravel()), dtype=float)
    f = f.reshape(f.shape[:-1] + w.shape)
    if not np.isfinite(f).all():
        return None
    rules = f @ _RULES
    kronrod, gauss = rules[..., 0], rules[..., 1]
    resasc, resabs = np.abs([f - 0.5 * kronrod[..., None], f]) @ _KRONROD * half
    err = np.abs(kronrod - gauss) * half
    # QUADPACK's scaling: |K - G| is pessimistic for smooth f, so shrink it
    # as (200 |K - G| / resasc)^1.5, and never below 50 eps of the panel's |f|
    ratio = 200.0 * err / np.where(resasc > 0, resasc, np.inf)
    err = np.where(ratio > 0, resasc * np.minimum(1.0, ratio) ** 1.5, err)
    return kronrod * half, np.maximum(err, _ROUNDOFF * resabs)


def gauss_kronrod(integrand, edges):
    """(value, abserr) of int integrand over [edges[0], edges[-1]], split at ``edges``.

    Each round calls ``integrand`` once, with a 1-d array of the abscissae of
    every new panel.  It returns either an array of the same shape, and then
    value and abserr are floats, or a stacked ``(k, n)`` array of k
    components, and then they are length-k arrays.  The components share
    one set of panels; each has its own Kronrod sum and QK21 error.

    Globally adaptive: while some component's summed error estimate exceeds
    1e-9 of its value, cut the panels of largest error into eight, as many
    as it takes for every component's error on the others to meet half its
    target, up to 400 panels in all.  Panels are ranked by the largest of
    error / target over the components, so a small component is refined as
    far as a large one.  The loop also stops when a panel is too narrow to
    cut; the caller judges the returned error.  A non-finite integrand value
    gives the scalars (nan, inf), whatever the integrand's shape.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    panels = _gk21(integrand, a, b)
    if panels is None:
        return math.nan, math.inf
    scalar = panels[0].ndim == 1
    val, err = map(np.atleast_2d, panels)  # one row per component
    while True:
        value, abserr = val.sum(axis=1), err.sum(axis=1)
        tol, room = _EPSREL * np.abs(value), (_LIMIT - len(a)) // (_SPLIT - 1)
        if (abserr <= tol).all() or room <= 0:
            break
        # a zero target cannot be divided by, so that component ranks at zero;
        # the caller's check still reports its error
        urgency = np.divide(err, tol[:, None], out=np.zeros_like(err), where=tol[:, None] > 0)
        order = np.argsort(urgency.max(axis=0))[::-1]
        left = abserr[:, None] - np.cumsum(err[:, order], axis=1)  # kept after cutting order[:k + 1]
        k = min(int(np.count_nonzero((left > 0.5 * tol[:, None]).any(axis=0))) + 1, room)
        pick, keep = order[:k], order[k:]
        cuts = a[pick] + (b[pick] - a[pick]) * _FRACTIONS[:, None]
        cuts[-1] = b[pick]
        if not np.all(np.diff(cuts, axis=0) > 0):
            break
        lo, hi = cuts[:-1].ravel(), cuts[1:].ravel()
        new = _gk21(integrand, lo, hi)
        if new is None:
            return math.nan, math.inf
        a, b = np.concatenate([a[keep], lo]), np.concatenate([b[keep], hi])
        val = np.concatenate([val[:, keep], np.atleast_2d(new[0])], axis=1)
        err = np.concatenate([err[:, keep], np.atleast_2d(new[1])], axis=1)
    return (float(value[0]), float(abserr[0])) if scalar else (value, abserr)


def quad_spectrum(integrand, s, extra_points: tuple[float, ...], name: str):
    """Integrate an even spectral density as 2 * int_0^varpi integrand(w) dw.

    The upper limit is the reservoir cutoff varpi of ``s``.  The mechanical
    resonance at omega_m = 1, of Lorentzian half-width gamma_m (1 + g) / 2,
    is far narrower than the integration range, so the interval is pre-split
    around it (and at ``extra_points``) before :func:`gauss_kronrod` refines
    it.  ``integrand`` takes a 1-d array of omega and returns an array of the
    same shape, and the result is a float; or it returns a stacked ``(k, n)``
    array, and the result is a length-k array.  Raises
    :class:`QuadratureError` when some component's error estimate is above
    ``_FAIL_RTOL`` of its value, or either is not finite.
    """
    upper = s.cutoff_reservoir
    halfwidth = 0.5 * s.damping
    pts = {1.0, *extra_points}
    for k in (1.0, 3.0, 10.0, 30.0, 100.0, 300.0):
        for sign in (-1.0, 1.0):
            pts.add(1.0 + sign * k * halfwidth)
    pts = sorted(x for x in pts if 0.0 < x < upper)

    value, abserr = gauss_kronrod(integrand, [0.0, *pts, upper])
    value *= 2.0
    abserr *= 2.0
    if not np.all(abserr <= _FAIL_RTOL * np.abs(value) + 1e-290):
        def show(x, spec):  # every component of a stacked integral
            return format(x, spec) if np.ndim(x) == 0 else f"[{', '.join(format(v, spec) for v in x)}]"

        raise QuadratureError(
            f"{name}: asked for rel. tol {_EPSREL:g}, failure bound {_FAIL_RTOL:g} not met "
            f"(value {show(value, '.6g')}, achieved abs. err {show(abserr, '.3g')})"
        )
    return value
