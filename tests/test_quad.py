"""The adaptive Gauss-Kronrod integrator behind every spectral integral."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mirrorfb import _quad, steady
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
        # the exact moments stack q2 and p2: each component is checked on its own
        value, abserr = gauss_kronrod(integrand, edges)
        for c, (v, e) in enumerate(zip(np.atleast_1d(value), np.atleast_1d(abserr))):
            ref, _ = quad(lambda w: float(np.atleast_2d(integrand(np.array([w])))[c, 0]),
                          edges[0], edges[-1], points=edges[1:-1], limit=400, epsabs=0.0,
                          epsrel=1e-9)
            seen.append((v, e, ref))
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


def test_exact_moments_match_a_tight_panelwise_quadpack_sum(monkeypatch):
    # QUADPACK at its tightest epsrel on each panel of the same breakpoints;
    # the joint q2, p2 pass must agree far below the 1e-9 it is asked for
    seen = []

    def recorded(integrand, edges):
        value, abserr = gauss_kronrod(integrand, edges)
        seen.append((integrand, list(edges), np.copy(np.atleast_1d(value))))
        return value, abserr

    monkeypatch.setattr(_quad, "gauss_kronrod", recorded)
    for s in c10_sets():
        steady_moments(s, ThermalModel.EXACT_COTH)
    assert len(seen) == 6
    for integrand, edges, value in seen:
        for c, v in enumerate(value):
            ref = math.fsum(
                quad(lambda w: float(np.atleast_2d(integrand(np.array([w])))[c, 0]), lo, hi,
                     limit=400, epsabs=0.0, epsrel=1.2e-14)[0]
                for lo, hi in zip(edges[:-1], edges[1:]))
            assert abs(v - ref) <= 2e-14 * abs(ref)


def test_narrow_lorentzian_matches_arctan():
    # half-width gamma_m / 2 = 1e-6: the resonance breakpoints resolve it
    s = SchemeParams(scheme=SC, g=0.0, quality=5e5, zeta=1.0, theta=10.0, cutoff_reservoir=1e3)
    hw = 0.5 * s.damping
    assert hw == pytest.approx(1e-6)
    got = quad_spectrum(lambda w: hw / ((w - 1.0) ** 2 + hw**2), s, (), "lorentzian")
    exact = 2.0 * (math.atan((s.cutoff_reservoir - 1.0) / hw) + math.atan(1.0 / hw))
    assert got == pytest.approx(exact, rel=1e-10)


def test_stacked_components_each_meet_their_own_tolerance():
    # the second component is 1e-8 of the first's scale; ranking panels by
    # error over each component's own target resolves it as well
    s = SchemeParams(scheme=SC, g=0.0, quality=5e5, zeta=1.0, theta=10.0, cutoff_reservoir=1e3)
    hw = 0.5 * s.damping

    def stacked(w):
        lorentzian = hw / ((w - 1.0) ** 2 + hw**2)
        return np.stack([lorentzian, 1e-8 * w * w * lorentzian])

    got = quad_spectrum(stacked, s, (), "stacked lorentzian")
    assert isinstance(got, np.ndarray) and got.shape == (2,)

    def antiderivatives(w):
        # w^2 = x^2 + 2x + 1 with x = w - 1
        x = w - 1.0
        atan = math.atan(x / hw)
        w2_lorentzian = hw * x + hw * math.log(x * x + hw * hw) + (1.0 - hw * hw) * atan
        return np.array([atan, 1e-8 * w2_lorentzian])

    exact = 2.0 * (antiderivatives(s.cutoff_reservoir) - antiderivatives(0.0))
    assert abs(got[1]) < 1e-7 * abs(got[0])
    np.testing.assert_allclose(got, exact, rtol=1e-10, atol=0.0)


def test_a_converged_component_does_not_change_the_refinement():
    # a flat component of large value next to a small peaked one: ranking
    # panels by raw error would cut wide flat panels for their roundoff floor
    # and stopping on the flat one would end after the first round
    s = SchemeParams(scheme=SC, g=0.0, quality=5e5, zeta=1.0, theta=10.0, cutoff_reservoir=1e3)
    hw = 0.5 * s.damping

    def lorentzian(w):
        return hw / ((w - 1.0) ** 2 + hw**2)

    alone, alone_calls = _counting(lorentzian)
    stacked, stacked_calls = _counting(lambda w: np.stack([np.ones_like(w), 1e-8 * lorentzian(w)]))
    quad_spectrum(alone, s, (), "lorentzian")
    got = quad_spectrum(stacked, s, (), "flat and lorentzian")
    assert stacked_calls == alone_calls
    exact = 2.0 * (math.atan((s.cutoff_reservoir - 1.0) / hw) + math.atan(1.0 / hw))
    np.testing.assert_allclose(got, [2.0 * s.cutoff_reservoir, 1e-8 * exact], rtol=1e-10, atol=0.0)


def test_scalar_integrand_returns_floats_at_unchanged_values():
    # 9091.140613296831 is C04's first set under four-way cuts and two
    # separate Brownian integrals; the eight-way rule keeps it to rounding
    got = integrated_position_variance(next(c04_sets()))
    assert type(got) is float
    assert got == pytest.approx(9091.140613296831, rel=1e-14, abs=0.0)
    value, abserr = gauss_kronrod(lambda w: np.exp(-w) * np.cos(3.0 * w), [0.0, 1.0, 10.0])
    assert type(value) is float and type(abserr) is float
    exact = 0.1 * (1.0 - math.exp(-10.0) * (math.cos(30.0) - 3.0 * math.sin(30.0)))
    assert value == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("kind, most", [("c04", 5), ("c10", 4)])
def test_each_integral_takes_few_rounds(monkeypatch, kind, most):
    # C10's exact moments are one stacked quad_spectrum call each; separate
    # q2 and p2 integrals with four-way cuts took 5-12 rounds, C04's 2-7
    rounds, calls = [], []
    gk21 = _quad._gk21
    monkeypatch.setattr(_quad, "_gk21", lambda *args: rounds.append(1) or gk21(*args))
    monkeypatch.setattr(steady, "quad_spectrum", lambda *args: calls.append(1) or quad_spectrum(*args))
    for s in c04_sets() if kind == "c04" else c10_sets():
        rounds.clear()
        calls.clear()
        if kind == "c04":
            assert type(integrated_position_variance(s)) is float
        else:
            bm = steady.brownian_exact(s)
            assert type(bm.q2_bm) is float and type(bm.p2_bm) is float
            assert len(calls) == 1
        assert 1 <= len(rounds) <= most


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
    "f, message",
    [
        (_inverse_sqrt, "not met"),  # unsplit singularity: refined until an abscissa lands on it
        # 1.6e7 periods on [0, 100]: the panel cap ends it
        (lambda w: np.sin(1e6 * w), "not met"),
        (lambda w: np.sin(1e6 * w) ** 2, "not met"),
        # only the second component fails; both are named in the message
        (lambda w: np.stack([np.ones_like(w), np.sin(1e6 * w)]),
         r"not met \(value \[200, \S+\], achieved abs\. err \[\S+, \S+\]\)"),
    ],
    ids=["inverse-sqrt", "sin", "sin-squared", "stacked-sin"],
)
def test_unresolvable_integrand_fails_within_the_panel_cap(f, message):
    s = SchemeParams(scheme=SC, g=1.0, quality=100.0, zeta=1.0, theta=10.0, cutoff_reservoir=1e2)
    integrand, calls = _counting(f)
    with pytest.raises(QuadratureError, match=message):
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
@pytest.mark.parametrize("where", ["everywhere", "beyond 50", "second component beyond 50"])
def test_non_finite_integrand_is_a_quadrature_error(bad, where):
    s = SchemeParams(scheme=SC, g=1.0, quality=100.0, zeta=1.0, theta=10.0, cutoff_reservoir=1e2)
    edge = 0.0 if where == "everywhere" else 50.0

    def integrand(w):
        f = np.where(w < edge, 1.0, bad)
        return np.stack([np.ones_like(w), f]) if where.startswith("second") else f

    with pytest.raises(QuadratureError, match="value nan"):
        quad_spectrum(integrand, s, (), "non-finite")
