"""Response-function tests against independent ODE and quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson, solve_ivp

from mirrorfb.core import Scheme, SchemeParams
from mirrorfb.response import (
    chi_freq,
    chi_time,
    damping_rate,
    kernels,
    renormalized_freq_sq,
)

SC, CD = Scheme.STOCHASTIC_COOLING, Scheme.COLD_DAMPING


def params(scheme, g, quality):
    return SchemeParams(scheme=scheme, g=g, quality=quality, zeta=1.0, theta=10.0, eta=1.0)


def ode_oracle(s, t_eval):
    """High-order integration of chi'' + Gamma chi' + w0^2 chi = 0."""
    gamma = damping_rate(s)
    w0sq = renormalized_freq_sq(s)

    def rhs(_, y):
        return [y[1], -gamma * y[1] - w0sq * y[0]]

    sol = solve_ivp(
        rhs, (0.0, max(t_eval)), [0.0, 1.0], t_eval=t_eval, method="DOP853",
        rtol=1e-12, atol=1e-14,
    )
    return sol.y[0]


def test_chi_initial_conditions():
    for scheme, g in ((SC, 3.0), (CD, 3.0), (Scheme.NONE, 0.0)):
        s = params(scheme, g, 25.0)
        assert chi_time(s, 0.0) == 0.0


def test_zero_gain_schemes_coincide():
    t = np.linspace(0.0, 50.0, 301)
    a = chi_time(params(SC, 0.0, 40.0), t)
    b = chi_time(params(CD, 0.0, 40.0), t)
    np.testing.assert_allclose(a, b, rtol=1e-14, atol=1e-16)


@pytest.mark.parametrize(
    "scheme,g,quality",
    [
        (CD, 5.0, 10.0),  # underdamped
        (CD, 25.0, 10.0),  # overdamped branch (sinh continuation)
        (SC, 3.0, 20.0),
        (SC, 60.0, 12.0),  # overdamped stochastic cooling
    ],
)
def test_chi_matches_ode_oracle(scheme, g, quality):
    s = params(scheme, g, quality)
    t = np.array([0.25, 1.0, 2.0, 5.0])
    np.testing.assert_allclose(chi_time(s, t), ode_oracle(s, t), rtol=1e-9, atol=1e-12)


def test_kernels_initial_values():
    s = params(SC, 4.0, 30.0)
    ks = kernels(s, 0.0)
    assert ks.k_q[0] == pytest.approx(1.0)
    assert ks.k_p[0] == pytest.approx(1.0)
    ks_cd = kernels(params(CD, 4.0, 30.0), 0.0)
    assert ks_cd.k[0] == pytest.approx(1.0)


def test_scheme_none_returns_bare_pair():
    s = params(Scheme.NONE, 0.0, 30.0)
    ks = kernels(s, [0.0, 1.0, 3.0])
    assert ks.k is None
    # at g = 0 the two kernels differ by exactly gamma_m chi
    np.testing.assert_allclose(ks.k_q - ks.k_p, s.gamma_m * ks.chi, rtol=0, atol=1e-15)


def test_kernel_difference_identity():
    s = params(SC, 7.0, 30.0)
    ks = kernels(s, np.linspace(0.0, 20.0, 101))
    expect = s.gamma_m * (1.0 - s.g) * ks.chi
    np.testing.assert_allclose(ks.k_q - ks.k_p, expect, rtol=1e-12, atol=1e-15)


def test_cold_damping_kernel_equals_one_minus_integral():
    # K(t) = 1 - int_0^t chi, checked against adaptive quadrature
    s = params(CD, 5.0, 10.0)
    for t_end in (0.5, 2.0, 8.0, 40.0):
        integral, err = quad(lambda u: chi_time(s, u), 0.0, t_end, limit=200)
        assert err < 1e-10
        k = kernels(s, t_end).k[0]
        assert k == pytest.approx(1.0 - integral, abs=1e-9)


def test_cold_damping_kernel_long_time_limit():
    # int_0^inf chi_cd = 1/omega_m, so K(inf) = 0
    s = params(CD, 5.0, 10.0)
    integral, _ = quad(lambda u: chi_time(s, u), 0.0, 200.0, limit=400)
    assert integral == pytest.approx(1.0, rel=1e-10)
    assert abs(kernels(s, 200.0).k[0]) < 1e-12


def test_chi_freq_static_limits():
    assert chi_freq(params(CD, 8.0, 15.0), 0.0) == pytest.approx(1.0)
    q = 50.0
    s = SchemeParams(scheme=SC, g=q * q, quality=q, zeta=1.0, theta=1.0, eta=1.0)
    assert chi_freq(s, 0.0) == pytest.approx(0.5)


def fourier_oracle(s, w):
    """Half-line Fourier transform of chi_time on a dense Simpson grid."""
    t_max = 36.0 / damping_rate(s)
    n = int(t_max / 0.02) | 1  # ~300 nodes per oscillation period
    t = np.linspace(0.0, t_max, n + 1)
    return simpson(chi_time(s, t) * np.exp(-1j * w * t), x=t)


def test_fourier_pair_random_parameters():
    rng = np.random.default_rng(7)
    for _ in range(10):
        scheme = (SC, CD)[int(rng.integers(2))]
        s = params(scheme, float(10 ** rng.uniform(-1, 2)), float(10 ** rng.uniform(1, 3)))
        w = float(rng.uniform(0.1, 2.5))
        got = chi_freq(s, w)
        want = fourier_oracle(s, w)
        assert got == pytest.approx(want, rel=1e-6)


def test_fourier_pair_example():
    s = params(CD, 3.0, 20.0)
    w = 1.1
    assert chi_freq(s, w) == pytest.approx(fourier_oracle(s, w), rel=1e-6)


def test_ode_residual_finite_difference():
    # independent of the closed-form derivatives
    s = params(SC, 12.0, 40.0)
    h = 1e-3
    t = np.linspace(0.1, 20.0, 50)
    d2 = (chi_time(s, t + h) - 2 * chi_time(s, t) + chi_time(s, t - h)) / h**2
    d1 = (chi_time(s, t + h) - chi_time(s, t - h)) / (2 * h)
    resid = d2 + damping_rate(s) * d1 + renormalized_freq_sq(s) * chi_time(s, t)
    assert np.max(np.abs(resid)) < 1e-5


def test_printed_radicand_matches_renormalized_frequency():
    # omega^2 - gamma^2((1 -+ g)/2)^2 == w0^2 - (Gamma/2)^2, the identity that
    # reconciles the printed sine argument with the printed decay rate
    for scheme, sign in ((SC, -1.0), (CD, +1.0)):
        s = params(scheme, 37.0, 55.0)
        gm = s.gamma_m
        printed = 1.0 - gm**2 * ((1.0 + sign * s.g) / 2.0) ** 2
        derived = renormalized_freq_sq(s) - (damping_rate(s) / 2.0) ** 2
        assert printed == pytest.approx(derived, rel=1e-12)


def test_integral_identity_cold_damping():
    # int (dw/2pi) w^2 |chi|^2 = int (dw/2pi) |chi|^2 = 1/(2 gamma (1+g))
    s = params(CD, 6.0, 200.0)
    closed = 1.0 / (2.0 * s.gamma_m * (1.0 + s.g))

    def chi2(w):
        return abs(chi_freq(s, w)) ** 2 / (2.0 * math.pi)

    def both_sides(f):
        near = quad(f, 0.0, 3.0, points=[1.0], limit=400)[0]
        tail = quad(f, 3.0, np.inf, limit=400)[0]
        return 2.0 * (near + tail)

    assert both_sides(chi2) == pytest.approx(closed, rel=1e-6)
    assert both_sides(lambda w: w * w * chi2(w)) == pytest.approx(closed, rel=1e-6)


def test_gain_monotonicity_at_resonance():
    for scheme in (SC, CD):
        mags = [
            abs(chi_freq(params(scheme, g, 1e4), 1.0))
            for g in (0.0, 1.0, 10.0, 1e2, 1e3, 1e4)
        ]
        assert all(a > b for a, b in zip(mags, mags[1:]))


@settings(max_examples=60, deadline=None)
@given(
    logq=st.floats(0.2, 6.0),
    g=st.floats(0.0, 1e5),
    t=st.floats(0.0, 200.0),
    cold=st.booleans(),
)
def test_chi_finite_and_bounded(logq, g, t, cold):
    scheme = CD if cold else SC
    if g == 0.0:
        scheme = Scheme.NONE
    s = SchemeParams(scheme=scheme, g=g, quality=10.0**logq, zeta=1.0, theta=1.0, eta=1.0)
    val = chi_time(s, t)
    assert np.isfinite(val)
    # |chi(t)| <= t for any damping (equality only at t -> 0)
    assert abs(val) <= t + 1e-12


def test_branch_continuity_at_critical_gain():
    # crossing the under/overdamped boundary must be smooth
    quality = 10.0
    g_star = 2.0 * quality - 1.0
    t = np.linspace(0.0, 10.0, 64)
    lo = chi_time(params(CD, g_star * (1 - 1e-9), quality), t)
    mid = chi_time(params(CD, g_star, quality), t)
    hi = chi_time(params(CD, g_star * (1 + 1e-9), quality), t)
    np.testing.assert_allclose(lo, mid, rtol=1e-6, atol=1e-12)
    np.testing.assert_allclose(hi, mid, rtol=1e-6, atol=1e-12)
