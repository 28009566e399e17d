"""The adaptive Gauss-Kronrod integrator behind every spectral integral."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mirrorfb import _quad
from mirrorfb._quad import QuadratureError, gauss_kronrod, quad_spectrum
from mirrorfb.core import Scheme, SchemeParams
from mirrorfb.spectra import integrated_position_variance
from mirrorfb.steady import ThermalModel, steady_moments

SC, CD = Scheme.STOCHASTIC_COOLING, Scheme.COLD_DAMPING


def c04_sets():
    """The random wide-band sets of acceptance criterion C04."""
    rng = np.random.default_rng(2024)
    for _ in range(10):
        yield SchemeParams(
            scheme=(SC, CD)[int(rng.integers(2))],
            g=float(10 ** rng.uniform(0, 3)),
            quality=float(10 ** rng.uniform(2.5, 5)),
            zeta=float(10 ** rng.uniform(0, 2)),
            theta=float(10 ** rng.uniform(3, 5)),
            eta=float(rng.uniform(0.5, 1.0)),
            cutoff_feedback="wide",
        )


def c10_sets():
    """C10's low-theta sets, each reservoir cutoff, without and with feedback."""
    for theta, varpi, quality in ((10.0, 1e3, 100.0), (100.0, 1e4, 1e3)):
        for scheme, g in ((SC, 0.0), (SC, 3.0), (CD, 30.0)):
            yield SchemeParams(scheme=scheme, g=g, quality=quality, zeta=1.0, theta=theta,
                               eta=1.0, cutoff_reservoir=varpi)


def test_rule_integrates_polynomials_exactly():
    # Kronrod is exact to degree 31 and Gauss to degree 19 on [-1, 1]
    x = _quad._NODES
    kronrod, gauss = _quad._RULES.T
    assert np.all(np.diff(x) > 0) and x[10] == 0.0
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert kronrod @ x**k == pytest.approx(exact, abs=1e-15)
        if k < 20:
            assert gauss @ x**k == pytest.approx(exact, abs=1e-15)


@pytest.mark.parametrize("kind", ["c04", "c10"])
def test_agrees_with_quadpack_on_the_same_breakpoints(monkeypatch, kind):
    seen = []

    def with_quadpack(integrand, edges):
        value, abserr = gauss_kronrod(integrand, edges)
        ref, _ = quad(lambda w: float(integrand(np.array([w]))[0]), edges[0], edges[-1],
                      points=edges[1:-1], limit=400, epsabs=0.0, epsrel=1e-9)
        seen.append((value, abserr, ref))
        return value, abserr

    monkeypatch.setattr(_quad, "gauss_kronrod", with_quadpack)
    if kind == "c04":
        for s in c04_sets():
            integrated_position_variance(s)
    else:
        for s in c10_sets():
            steady_moments(s, ThermalModel.EXACT_COTH)
    assert len(seen) == (10 if kind == "c04" else 12)
    for value, abserr, ref in seen:
        assert abs(value - ref) <= 1e-10 * abs(ref)
        assert abs(value - ref) <= abserr


def test_narrow_lorentzian_matches_arctan():
    # half-width gamma_m / 2 = 1e-6: the resonance breakpoints resolve it
    s = SchemeParams(scheme=SC, g=0.0, quality=5e5, zeta=1.0, theta=10.0, cutoff_reservoir=1e3)
    hw = 0.5 * s.damping
    assert hw == pytest.approx(1e-6)
    got = quad_spectrum(lambda w: hw / ((w - 1.0) ** 2 + hw**2), s, (), "lorentzian")
    exact = 2.0 * (math.atan((s.cutoff_reservoir - 1.0) / hw) + math.atan(1.0 / hw))
    assert got == pytest.approx(exact, rel=1e-10)


def test_gated_step_with_jumps_on_breakpoints():
    s = SchemeParams(scheme=CD, g=1.0, quality=100.0, zeta=1.0, theta=10.0, cutoff_reservoir=1e2)
    lo, hi = 3.3, 17.9

    def gated(w):
        return np.where((w >= lo) & (w <= hi), np.exp(-w / 10.0), 0.0) + np.where(w < 1.0, 2.0, 0.0)

    got = quad_spectrum(gated, s, (lo, hi), "gated step")
    exact = 2.0 * (10.0 * (math.exp(-lo / 10.0) - math.exp(-hi / 10.0)) + 2.0)
    assert got == pytest.approx(exact, rel=1e-12)


def _counting(f):
    calls = []

    def integrand(w):
        calls.append(w.size)
        return f(w)

    return integrand, calls


def _inverse_sqrt(w):
    with np.errstate(divide="ignore"):
        return 1.0 / np.sqrt(np.abs(w - 2.5))


@pytest.mark.parametrize(
    "f",
    [
        _inverse_sqrt,  # unsplit singularity: refined until an abscissa lands on it
        lambda w: np.sin(1e6 * w),  # 1.6e7 periods on [0, 100]: the panel cap ends it
        lambda w: np.sin(1e6 * w) ** 2,
    ],
    ids=["inverse-sqrt", "sin", "sin-squared"],
)
def test_unresolvable_integrand_fails_within_the_panel_cap(f):
    s = SchemeParams(scheme=SC, g=1.0, quality=100.0, zeta=1.0, theta=10.0, cutoff_reservoir=1e2)
    integrand, calls = _counting(f)
    with pytest.raises(QuadratureError, match="not met"):
        quad_spectrum(integrand, s, (), "unresolvable")
    # every round after the first adds at least split - 1 panels, up to 400 in all
    split, limit = _quad._SPLIT, _quad._LIMIT
    assert len(calls) <= 1 + limit // (split - 1)
    assert sum(calls) <= 21 * limit * split // (split - 1)


def test_singularity_off_the_breakpoints_stops_at_the_narrowest_panel():
    # panels are cut towards 1/sqrt|w - c| (0 at c) until one is too narrow to
    # cut; the loop returns what it has, finite and accurate to ~3e-8.  At
    # c = 2/3 the tolerance is never met (at c = 1/3 the heuristic estimate
    # meets it first), and with fewer than _LIMIT panels ever made the panel
    # cap did not end it either
    c = 2.0 / 3.0

    def f(w):
        d = np.abs(w - c)
        return np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)

    integrand, calls = _counting(f)
    value, abserr = gauss_kronrod(integrand, [0.0, 1.0])
    assert math.isfinite(value) and math.isfinite(abserr)
    assert value == pytest.approx(2.0 * math.sqrt(c) + 2.0 * math.sqrt(1.0 - c), rel=0, abs=1e-7)
    assert abserr > _quad._EPSREL * value
    assert sum(calls) < 21 * _quad._LIMIT


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["everywhere", "beyond 50"])
def test_non_finite_integrand_is_a_quadrature_error(bad, where):
    s = SchemeParams(scheme=SC, g=1.0, quality=100.0, zeta=1.0, theta=10.0, cutoff_reservoir=1e2)
    edge = 0.0 if where == "everywhere" else 50.0
    with pytest.raises(QuadratureError, match="value nan"):
        quad_spectrum(lambda w: np.where(w < edge, 1.0, bad), s, (), "non-finite")
