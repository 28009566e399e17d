"""Stationary-moment tests: closed forms against quadrature and grid oracles."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from mirrorfb.core import Scheme, SchemeParams
from mirrorfb.response import chi_freq
from mirrorfb.steady import (
    MomentSet,
    ThermalModel,
    _thermal_density,
    brownian_exact,
    min_position_variance,
    moments_sweep,
    noise_strengths,
    optimal_input_power,
    regime_flags,
    steady_energy,
    steady_moments,
)

SC, CD = Scheme.STOCHASTIC_COOLING, Scheme.COLD_DAMPING


def make(scheme, **kw):
    base = dict(g=0.0, quality=1e4, zeta=10.0, theta=1e5, eta=0.8)
    base.update(kw)
    return SchemeParams(scheme=scheme, **base)


# ------------------------------------------------------------ noise strengths


@pytest.mark.parametrize(
    "q2, p2", [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan)]
)
def test_moment_set_rejects_non_positive_or_nan_variances(q2, p2):
    with pytest.raises(ValueError, match="positive"):
        MomentSet(q2, p2, 0.0)


def test_pure_backaction():
    s = make(Scheme.NONE, zeta=1.0, theta=0.0, quality=100.0, eta=1.0)
    ns = noise_strengths(s)
    assert ns.d_p == pytest.approx(s.gamma_m / 4.0)
    assert ns.d_q == 0.0
    assert ns.d_fb_cd == 0.0


def test_unit_feedback_noise():
    s = make(SC, g=2.0, eta=1.0, zeta=1.0, quality=100.0)
    assert noise_strengths(s).d_q == pytest.approx(s.gamma_m)


@pytest.mark.parametrize(
    "scheme,g", [(SC, 25.0), (CD, 25.0), (Scheme.NONE, 0.0), (SC, 400.0)]
)
def test_noise_strengths_reproduce_q2_by_quadrature(scheme, g):
    # <Q^2> = int (dw/2pi) [ |chi|^2 (d_p + d_fb w^2) + |K_Q|^2 d_q ]
    s = make(scheme, g=g, quality=300.0, zeta=5.0, theta=1e3)
    ns = noise_strengths(s)
    gm = s.gamma_m

    def integrand(w):
        chi2 = abs(chi_freq(s, w)) ** 2
        val = chi2 * (ns.d_p + ns.d_fb_cd * w * w)
        if ns.d_q:
            val += chi2 * (w * w + gm * gm) * ns.d_q  # |K_Q|^2 = (w^2+gm^2)|chi|^2
        return val / (2.0 * math.pi)

    near = quad(integrand, 0.0, 4.0, points=[1.0], limit=400)[0]
    tail = quad(integrand, 4.0, np.inf, limit=200)[0]
    got = 2.0 * (near + tail)
    assert got == pytest.approx(steady_moments(s).q2, rel=1e-6)


# ------------------------------------------------------------- closed moments


def test_cold_damping_zero_gain_value():
    s = SchemeParams(scheme=CD, g=0.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    m = steady_moments(s)
    assert m.q2 == pytest.approx(10.0 / 8.0 + 500.0)
    assert m.p2 == m.q2
    assert m.qp == 0.0


def test_stochastic_cooling_zero_gain_has_no_correlation():
    m = steady_moments(make(SC, g=0.0))
    assert m.qp == 0.0


def test_energy_units_definition():
    m = steady_moments(make(CD, g=3.0))
    assert m.energy_units == pytest.approx(2.0 * (m.q2 + m.p2))


def test_near_ground_state_cooling_point():
    # high-quality stochastic cooling at its optimal power approaches
    # 1/sqrt(eta) + 2 theta / g zero-point units
    s = make(SC, g=1e5, quality=1e7)
    opt = optimal_input_power(s)
    asymptote = 1.0 / math.sqrt(0.8) + 2.0 * 1e5 / 1e5
    assert opt.energy_units == pytest.approx(asymptote, rel=0.02)
    assert opt.energy_units < 4.0


def test_schemes_agree_at_high_quality():
    a = steady_moments(make(SC, g=100.0, quality=1e4))
    b = steady_moments(make(CD, g=100.0, quality=1e4))
    assert a.q2 == pytest.approx(b.q2, rel=1e-3)
    assert a.p2 == pytest.approx(b.p2, rel=1e-3)


def test_scheme_convergence_slopes():
    # relative differences vanish as Q grows at fixed g; fitted slopes stay
    # within a factor two of the leading 1/Q^2 behavior
    g = 50.0
    qs = np.geomspace(3e3, 3e5, 7)
    d_q2, d_p2, d_qp = [], [], []
    for q in qs:
        a = steady_moments(make(SC, g=g, quality=float(q)))
        b = steady_moments(make(CD, g=g, quality=float(q)))
        d_q2.append(abs(a.q2 / b.q2 - 1.0))
        d_p2.append(abs(a.p2 / b.p2 - 1.0))
        d_qp.append(abs(a.qp - b.qp) / math.sqrt(a.q2 * a.p2))
    # q2 and p2 differences fall as 1/Q^2; the normalized cross moment decays
    # one power slower and sits exactly at the factor-two edge of the band
    for diffs in (d_q2, d_p2, d_qp):
        slope = np.polyfit(np.log(qs), np.log(diffs), 1)[0]
        assert -4.0 <= slope <= -1.0 + 0.05


def test_wide_band_momentum_heating():
    narrow = steady_moments(make(CD, g=100.0))
    wide = steady_moments(make(CD, g=100.0, cutoff_feedback="wide"))
    assert wide.q2 == pytest.approx(narrow.q2)  # q2 is band-independent
    s = make(CD, g=100.0)
    expect = wide.p2 - (narrow.p2 - 100.0**2 / (8 * 0.8 * 10.0) / 101.0)
    assert expect == pytest.approx(
        s.gamma_m * 100.0**2 / (8 * 0.8 * 10.0) * 1e3 / math.pi, rel=1e-12
    )


def test_log_correction_model():
    s = make(CD, g=10.0, theta=100.0, cutoff_reservoir=1e4)
    base = steady_moments(s, ThermalModel.CLASSICAL_DELTA)
    logm = steady_moments(s, ThermalModel.CLASSICAL_PLUS_LOG)
    expect = (s.gamma_m / math.pi) * math.log(1e4 / (2.0 * math.pi * 100.0))
    assert logm.p2 - base.p2 == pytest.approx(expect, rel=1e-12)
    assert logm.q2 == base.q2


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: steady_moments(make(CD, g=1.0, theta=0.0), ThermalModel.CLASSICAL_PLUS_LOG),
                     "requires theta > 0", id="log_correction_at_zero_theta"),
        pytest.param(lambda: optimal_input_power(make(CD, g=0.0)), "requires a positive feedback gain",
                     id="power_optimum_at_zero_gain"),
    ],
)
def test_library_validation_raises(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_zero_temperature_classical_warns():
    with pytest.warns(UserWarning, match="theta = 0"):
        steady_moments(make(CD, g=1.0, theta=0.0))


# ---------------------------------------------------------- exact Brownian


@pytest.mark.parametrize("theta", [1e-3, 1.0, 1e5])
def test_exact_thermal_density_is_continuous_at_its_series_branch(theta):
    # (omega/2) coth(omega / 2 theta) switches to theta (1 + x^2/3) below |x| = |omega / 2 theta| = 1e-8
    s = make(SC, theta=theta)
    edge = 2.0 * theta * 1e-8
    omega = np.array([-1.000001, -0.999999, 0.999999, 1.000001]) * edge
    assert np.array_equal(np.abs(omega / (2.0 * theta)) < 1e-8, [False, True, True, False])
    density = _thermal_density(s, omega, "exact")
    np.testing.assert_allclose(density, theta * (1.0 + (omega / (2.0 * theta)) ** 2 / 3.0), rtol=1e-15, atol=0)
    # and it tends to the classical density theta as omega -> 0
    tiny = np.array([0.0, 1e-300, 1e-20 * theta, 1e-9 * theta, 1e-4 * theta])
    np.testing.assert_allclose(_thermal_density(s, tiny, "exact"), theta, rtol=1e-9, atol=0)
    assert _thermal_density(s, 0.0, "exact") == theta


def test_brownian_classical_limit_high_temperature():
    # theta >> varpi/2: coth is classical across the whole band
    s = make(SC, g=0.0, quality=1e3, theta=1e5, cutoff_reservoir=1e3)
    bm = brownian_exact(s)
    assert bm.q2_bm == pytest.approx(1e5 / 2.0, rel=1e-2)


def test_brownian_matches_classical_closed_form():
    s = make(SC, g=0.0, quality=1e5, theta=1e5, cutoff_reservoir=1e3)
    bm = brownian_exact(s)
    q = 1e5
    closed = (1e5 / 2.0) * q * q / ((1.0) * (q * q))
    assert bm.q2_bm == pytest.approx(closed, rel=1e-3)


def test_brownian_momentum_log_correction_regime():
    # 1 << theta << varpi: the excess over the classical value carries the
    # ln(varpi / 2 pi theta) ultraviolet correction
    for theta, varpi, quality in ((10.0, 1e3, 100.0), (100.0, 1e4, 1e3)):
        s = make(SC, g=0.0, quality=quality, theta=theta, cutoff_reservoir=varpi)
        bm = brownian_exact(s)
        diff = bm.p2_bm - theta / 2.0
        predicted = (s.gamma_m / math.pi) * math.log(varpi / (2.0 * math.pi * theta))
        assert diff == pytest.approx(predicted, rel=0.20)
        assert diff > 0


def test_exact_model_agrees_with_classical_at_high_theta():
    s = make(CD, g=20.0, theta=1e4, quality=500.0)
    a = steady_moments(s, ThermalModel.CLASSICAL_DELTA)
    b = steady_moments(s, ThermalModel.EXACT_COTH)
    assert b.q2 == pytest.approx(a.q2, rel=1e-2)
    assert b.p2 == pytest.approx(a.p2, rel=1e-2)


# ------------------------------------------------------------- optimization


def test_quantum_limit_cold_damping():
    s = SchemeParams(scheme=CD, g=1e9, quality=1e5, zeta=1e9, theta=1e-3, eta=1.0)
    assert steady_energy(s) == pytest.approx(1.0, rel=1e-6)


def test_thermal_equipartition_limit():
    s = make(Scheme.NONE, zeta=1e-6, theta=1e5)
    assert steady_energy(s) == pytest.approx(2.0 * 1e5, rel=1e-6)


def test_cold_damping_power_optimum_closed_form():
    s = make(CD, g=100.0, eta=1.0)
    opt = optimal_input_power(s)
    assert opt.zeta_opt == pytest.approx(100.0)


def test_cold_damping_optimum_matches_grid_search():
    s = SchemeParams(scheme=CD, g=1e4, quality=1e6, zeta=1.0, theta=1e3, eta=1.0)
    opt = optimal_input_power(s)
    assert opt.energy_units == pytest.approx(1.19988, abs=2e-5)
    zg = np.geomspace(1e2, 1e6, 4001)
    energies = [steady_energy(SchemeParams(scheme=CD, g=1e4, quality=1e6,
                                           zeta=float(z), theta=1e3, eta=1.0)) for z in zg]
    z_grid = zg[int(np.argmin(energies))]
    assert opt.zeta_opt == pytest.approx(z_grid, rel=2 * (zg[1] / zg[0] - 1.0))
    assert opt.energy_units <= min(energies) * (1 + 1e-12)


@pytest.mark.parametrize(
    "scheme, band, g, quality",
    [
        (SC, "narrow", 10.0, 50.0),
        (SC, "narrow", 1e3, 1e2),
        (CD, "narrow", 10.0, 50.0),
        (CD, "wide", 10.0, 50.0),
        (CD, "wide", 2e3, 1e5),
    ],
)
def test_power_optimum_matches_dense_grid(scheme, band, g, quality):
    s = make(scheme, g=g, quality=quality, cutoff_feedback=band)
    opt = optimal_input_power(s)
    center = g / math.sqrt(s.eta)
    zg = np.geomspace(center / 1e2, center * 1e2, 8001)
    energies = np.array([steady_energy(replace(s, zeta=float(z))) for z in zg])
    k = int(np.argmin(energies))
    assert 0 < k < len(zg) - 1
    assert opt.zeta_opt == pytest.approx(zg[k], rel=2 * (zg[1] / zg[0] - 1.0))
    assert opt.energy_units <= energies[k] * (1 + 1e-12)


def test_stochastic_cooling_optimum_against_analytic_stationarity():
    # dU/dzeta = 0 at zeta* = (g/sqrt(eta)) sqrt((1+2Q^2+g)/(g^2+2Q^2+g))
    for g, q in ((1e3, 1e6), (1e7, 1e4), (5.0, 30.0)):
        s = make(SC, g=g, quality=q, theta=1e4)
        opt = optimal_input_power(s)
        exact = (g / math.sqrt(s.eta)) * math.sqrt(
            (1.0 + 2.0 * q * q + g) / (g * g + 2.0 * q * q + g)
        )
        assert opt.zeta_opt == pytest.approx(exact, rel=1e-6)


def test_stochastic_cooling_optimum_near_asymptote():
    s = make(SC, g=1e3, quality=1e6)
    opt = optimal_input_power(s)
    assert opt.zeta_opt == pytest.approx(1e3 / math.sqrt(0.8), rel=0.05)


def test_monotone_cooling_in_gain():
    for scheme in (SC, CD):
        energies = []
        for g in (1.0, 10.0, 1e2, 1e3, 1e4):
            quality = 1e10 if scheme is SC else 1e5
            s = make(scheme, g=g, quality=quality)
            energies.append(optimal_input_power(s).energy_units)
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))


# ------------------------------------------------------------- squeezing


def test_squeezing_thresholds():
    assert min_position_variance(1e9, 1e4, 1e5, 0.8).squeezed
    assert not min_position_variance(1e7, 1e4, 1e5, 0.8).squeezed


def test_min_variance_matches_grid_search():
    g, q, theta, eta = 1e9, 1e4, 1e5, 0.8
    res = min_position_variance(g, q, theta, eta)
    zg = np.geomspace(res.zeta_opt / 30.0, res.zeta_opt * 30.0, 2001)
    q2s = [
        steady_moments(SchemeParams(scheme=SC, g=g, quality=q, zeta=float(z),
                                    theta=theta, eta=eta)).q2
        for z in zg
    ]
    assert res.q2_min == pytest.approx(min(q2s), rel=1e-4)


def test_min_variance_gain_scaling():
    # q2_min ~ g^{-1/2} once g >> Q^2
    gs = np.geomspace(1e12, 1e15, 7)
    vals = [min_position_variance(float(g), 1e4, 1e5, 0.8).q2_min for g in gs]
    slope = np.polyfit(np.log(gs), np.log(vals), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.02)


# ------------------------------------------------------------- regime flags


def test_correlation_boundary():
    zeta, theta, eta = 10.0, 1e3, 0.8
    g_star = eta * zeta * (zeta + 4.0 * theta)
    at = steady_moments(SchemeParams(scheme=SC, g=g_star, quality=1e6, zeta=zeta,
                                     theta=theta, eta=eta))
    assert at.qp == pytest.approx(0.0, abs=1e-12 * at.q2)
    above = SchemeParams(scheme=SC, g=2.0 * g_star, quality=1e6, zeta=zeta,
                         theta=theta, eta=eta)
    flags = regime_flags(above)
    assert flags.contractive


def test_cold_damping_never_contractive():
    for g in (1.0, 1e3, 1e6):
        assert not regime_flags(make(CD, g=g)).contractive


def test_thermal_like_at_large_quality():
    flags = regime_flags(make(SC, g=10.0, quality=1e7))
    assert flags.thermal_like
    assert not regime_flags(make(SC, g=1e5, quality=300.0)).thermal_like


@pytest.mark.parametrize(
    "g, quality, theta, eta",
    [(math.nan, 1e4, 1e5, 0.8), (1e9, math.inf, 1e5, 0.8), (1e9, 1e4, math.nan, 0.8), (1e9, 1e4, 1e5, math.nan)],
)
def test_min_variance_rejects_non_finite_parameters(g, quality, theta, eta):
    with pytest.raises(ValueError, match="finite"):
        min_position_variance(g, quality, theta, eta)


# ------------------------------------------------------------------ sweeps

SWEEP_SETS = {
    "none": make(Scheme.NONE),
    "sc": make(SC, g=30.0),
    "cd_narrow": make(CD, g=30.0),
    "cd_wide": make(CD, g=30.0, cutoff_feedback="wide"),
}
# log-spaced values of each numeric field, valid in every set above (g only where the loop is closed)
SWEEP_RANGES = {"g": (1e-2, 1e7), "quality": (1e-1, 1e8), "zeta": (1e-3, 1e9), "theta": (0.5, 1e7),
                "eta": (1e-3, 1.0), "cutoff_reservoir": (1.0, 1e6)}


def pow_differs(lo, hi, n=6):
    """n values on [lo, hi] whose libm square pow(x, 2) is not the rounded product x * x."""
    found = [x for x in np.geomspace(lo, hi, 50_000).tolist() if x**2 != x * x]
    assert len(found) >= n  # about one value in a thousand
    return found[:: len(found) // n][:n]


@pytest.mark.parametrize("name", SWEEP_RANGES)
@pytest.mark.parametrize("which", SWEEP_SETS)
def test_sweep_matches_scalar_calls_bit_for_bit(which, name):
    s = SWEEP_SETS[which]
    if which == "none" and name == "g":
        values = np.zeros(3)  # the open loop has only g = 0
    else:
        values = np.sort(np.concatenate([np.geomspace(*SWEEP_RANGES[name], 31), pow_differs(*SWEEP_RANGES[name])]))
    got = moments_sweep(s, name, values)
    want = [steady_moments(replace(s, **{name: x})) for x in values.tolist()]
    assert got.thermal_model is ThermalModel.CLASSICAL_DELTA
    for moment in ("q2", "p2", "qp", "energy_units"):
        column = getattr(got, moment)
        assert isinstance(column, np.ndarray) and column.shape == values.shape
        assert column.tobytes() == np.array([getattr(m, moment) for m in want]).tobytes(), moment


@pytest.mark.parametrize("which", SWEEP_SETS)
def test_scalar_moments_are_python_floats(which):
    m = steady_moments(SWEEP_SETS[which])
    assert [type(v) for v in (m.q2, m.p2, m.qp, m.energy_units)] == [float] * 4


@pytest.mark.parametrize(
    "s, name, values",
    [
        pytest.param(make(SC, g=1.0), "eta", np.linspace(0.5, 1.5, 3), id="eta_above_one"),
        pytest.param(make(SC, g=1.0), "zeta", [1.0, 0.0], id="zeta_zero"),
        pytest.param(make(CD, g=1.0), "zeta", [3.0, -2.0, 1.0], id="zeta_negative"),
        pytest.param(make(CD, g=1.0), "theta", [1.0, math.nan], id="theta_nan"),
        pytest.param(make(SC, g=1.0), "quality", [1.0, math.inf], id="quality_inf"),
        pytest.param(make(Scheme.NONE), "g", [0.0, 2.0], id="gain_without_a_loop"),
    ],
)
def test_sweep_rejects_with_the_scheme_params_message(s, name, values):
    # each case fails first at the value the sweep checks, so the scalar loop gives the same text
    with pytest.raises(ValueError) as want:
        [replace(s, **{name: x}) for x in values]
    with pytest.raises(ValueError) as got:
        moments_sweep(s, name, values)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name, values", [("cutoff_feedback", [1.0]), ("scheme", [1.0]), ("zeta", [[1.0, 2.0]])])
def test_sweep_takes_one_numeric_field_and_a_1d_array(name, values):
    with pytest.raises(ValueError, match="numeric field and a 1-d array"):
        moments_sweep(make(SC, g=1.0), name, values)


def test_sweep_at_zero_theta_warns_once():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        moments_sweep(make(CD, g=1.0), "theta", [0.0, 0.0, 1.0])
        moments_sweep(make(CD, g=1.0, theta=0.0), "zeta", [1.0, 2.0, 3.0])
        moments_sweep(make(CD, g=1.0), "theta", [1.0, 2.0])
    assert [w.category for w in caught] == [UserWarning] * 2
    assert all("theta = 0" in str(w.message) and w.filename == __file__ for w in caught)


def test_sweep_overflow_is_a_floating_point_error():
    # a float's ** raises OverflowError here; the sweep raises rather than return inf
    with pytest.raises(OverflowError):
        steady_moments(make(SC, g=1e200))
    with pytest.raises(FloatingPointError, match="overflow"):
        moments_sweep(make(SC, g=1.0), "g", [1.0, 1e200])
