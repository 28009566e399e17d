"""Unit conversion and semiclassical steady-state tests."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from mirrorfb.core import (
    HBAR,
    KB,
    AdiabaticityWarning,
    PhysicalParams,
    Scheme,
    SchemeParams,
    classical_steady_amplitude,
    to_dimensionless,
)
from mirrorfb.nonstat import (
    ForcePulse,
    MeasurementWindow,
    arrival_signal,
    cyclic_avg_snr,
    nonstationary_noise,
    nonstationary_snr,
    signal_spectrum,
)
from mirrorfb.oracle import SimConfig, paired_timestep_stats, simulate
from mirrorfb.spectra import stationary_snr
from mirrorfb.steady import moments_sweep, optimal_input_power, regime_flags, steady_energy, steady_moments


def lab_params(**overrides):
    base = dict(
        mass=1e-12,
        omega_m=2 * math.pi * 1e6,
        gamma_m=2 * math.pi * 10.0,
        cavity_length=1e-2,
        gamma_c=2 * math.pi * 1e8,
        laser_power=1e-3,
        laser_omega0=1.77e15,
        cavity_omega_c=1.77e15,
        efficiency=0.8,
        temperature=4.0,
    )
    base.update(overrides)
    return PhysicalParams(**base)


def test_zero_raw_gain_maps_to_zero():
    p = lab_params(feedback_gain_raw=0.0)
    s = to_dimensionless(p, beta=100.0, scheme=Scheme.STOCHASTIC_COOLING)
    assert s.g == 0.0
    assert s.quality == pytest.approx(p.omega_m / p.gamma_m)
    assert s.theta == pytest.approx(KB * 4.0 / (HBAR * p.omega_m))


def test_unit_power_definition_inverts():
    # G^2 beta^2 = gamma_m gamma_c / 16  <=>  zeta = 1
    p = lab_params()
    beta = math.sqrt(p.gamma_m * p.gamma_c / 16.0) / p.coupling
    s = to_dimensionless(p, beta, scheme=Scheme.NONE)
    assert s.zeta == pytest.approx(1.0, rel=1e-12)


def test_experimental_gain_and_power_accepted_without_warnings():
    # a cold-damping run at g2 = 40 and zeta ~ 1 must pass validation silently
    p0 = lab_params()
    beta = math.sqrt(p0.gamma_m * p0.gamma_c / 16.0) / p0.coupling
    g_cd = 40.0 * p0.gamma_m * p0.gamma_c / (4.0 * p0.coupling * beta * p0.omega_m)
    p = lab_params(feedback_gain_raw=g_cd)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = to_dimensionless(p, beta, scheme=Scheme.COLD_DAMPING)
    assert s.g == pytest.approx(40.0, rel=1e-12)
    assert s.zeta == pytest.approx(1.0, rel=1e-12)


def test_stochastic_cooling_sign_convention_enforced():
    p = lab_params(feedback_gain_raw=+1e-6)  # wrong sign for a cooling loop
    with pytest.raises(ValueError, match="g1"):
        to_dimensionless(p, beta=10.0, scheme=Scheme.STOCHASTIC_COOLING)
    s = to_dimensionless(
        lab_params(feedback_gain_raw=-1e-6), beta=10.0, scheme=Scheme.STOCHASTIC_COOLING
    )
    assert s.g > 0


def test_adiabaticity_warning():
    with pytest.warns(AdiabaticityWarning):
        lab_params(gamma_c=2 * math.pi * 5e6)  # < 10 omega_m


COLD = SchemeParams(scheme=Scheme.COLD_DAMPING, g=10.0, quality=100.0)  # theta = 0: the classical-delta caveat
WARM = SchemeParams(scheme=Scheme.NONE, quality=100.0, theta=1.0)  # gamma_m = 0.01
SHORT, LONG = ForcePulse(f0=1.0, sigma=1.0, t1=0.0), ForcePulse(f0=1.0, sigma=20.0, t1=0.0)
WINDOW = MeasurementWindow(50.0)
TINY_RUN = SimConfig(n_traj=4, n_steps=16)

# every library caveat, reached through each public path; the lambda's line is the caller's
WARNING_SITES = {
    "PhysicalParams": (lambda: lab_params(gamma_c=2 * math.pi * 5e6), "cavity bandwidth"),
    "theta0_steady_moments": (lambda: steady_moments(COLD), "theta = 0"),
    "theta0_moments_sweep": (lambda: moments_sweep(COLD, "zeta", [1.0, 2.0]), "theta = 0"),
    "theta0_steady_energy": (lambda: steady_energy(COLD), "theta = 0"),
    "theta0_optimal_input_power": (lambda: optimal_input_power(COLD), "theta = 0"),
    "theta0_regime_flags": (lambda: regime_flags(COLD), "theta = 0"),
    "theta0_nonstationary_noise": (lambda: nonstationary_noise(COLD, WINDOW, 1.0), "theta = 0"),
    "theta0_nonstationary_snr": (lambda: nonstationary_snr(COLD, SHORT, WINDOW, 1.0), "theta = 0"),
    "theta0_cyclic_avg_snr": (lambda: cyclic_avg_snr(COLD, SHORT, WINDOW, 0.0, 1.0), "theta = 0"),
    "theta0_simulate": (lambda: simulate(COLD, TINY_RUN), "theta = 0"),
    "theta0_paired_timestep_stats": (lambda: paired_timestep_stats(COLD, TINY_RUN), "theta = 0"),
    "long_pulse_signal_spectrum": (lambda: signal_spectrum(WARM, LONG, WINDOW, 1.0), "force duration"),
    "long_pulse_nonstationary_snr": (lambda: nonstationary_snr(WARM, LONG, WINDOW, 1.0), "force duration"),
    "long_pulse_cyclic_avg_snr": (lambda: cyclic_avg_snr(WARM, LONG, WINDOW, 0.0, 1.0), "force duration"),
    "short_window_stationary_snr": (lambda: stationary_snr(WARM, 1.0, 1.0, 1.0), "relaxation time"),
    "t_cool_cyclic_avg_snr": (lambda: cyclic_avg_snr(WARM, SHORT, WINDOW, 25.0, 1.0), "t_cool"),
    "arrival_cyclic_avg_snr": (
        lambda: cyclic_avg_snr(WARM, SHORT, WINDOW, 0.0, 1.0, signal=arrival_signal(WARM, SHORT, WINDOW, 1.0, 2)),
        "arrival",
    ),
}


@pytest.mark.parametrize("call, match", WARNING_SITES.values(), ids=WARNING_SITES.keys())
def test_warnings_point_at_the_caller(call, match):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        call()
    assert any(match in str(w.message) for w in seen)
    assert [(w.category.__name__, w.filename) for w in seen if w.filename != __file__] == []


@pytest.mark.parametrize(
    "field,value",
    [("mass", 0.0), ("omega_m", -1.0), ("efficiency", 0.0), ("efficiency", 1.5),
     ("reservoir_cutoff", 0.0), ("reservoir_cutoff", -1.0), ("feedback_bandwidth", 0.0),
     ("feedback_bandwidth", -1.0)],
)
def test_invalid_physical_params(field, value):
    # None picks a default cutoff or band; a zero is an error, not the default
    with pytest.raises(ValueError):
        lab_params(**{field: value})


def test_invalid_scheme_params():
    with pytest.raises(ValueError):
        SchemeParams(g=-1.0, scheme=Scheme.COLD_DAMPING)
    with pytest.raises(ValueError):
        SchemeParams(scheme=Scheme.NONE, g=2.0)
    with pytest.raises(ValueError):
        SchemeParams(zeta=0.0)
    with pytest.raises(ValueError):
        SchemeParams(eta=1.2)


@pytest.mark.parametrize("field", ["g", "quality", "zeta", "theta", "eta", "cutoff_reservoir"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_scheme_params_rejected(field, value):
    with pytest.raises(ValueError, match="finite"):
        SchemeParams(scheme=Scheme.COLD_DAMPING, **{field: value})


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: SchemeParams(scheme="cd"), "must be a Scheme", id="scheme_not_a_Scheme"),
        pytest.param(lambda: SchemeParams(quality=0.0), "quality factor must be > 0", id="quality_zero"),
        pytest.param(lambda: SchemeParams(theta=-1.0), "theta must be >= 0", id="theta_negative"),
        pytest.param(lambda: SchemeParams(cutoff_reservoir=0.0), "reservoir cutoff must be > 0",
                     id="cutoff_reservoir_zero"),
        pytest.param(lambda: lab_params(temperature=-1.0), "temperature must be >= 0", id="temperature_negative"),
        pytest.param(lambda: to_dimensionless(lab_params(), 0.0), "beta must be finite and > 0", id="beta_zero"),
        pytest.param(lambda: to_dimensionless(lab_params(), -1.0), "beta must be finite and > 0",
                     id="beta_negative"),
        pytest.param(lambda: to_dimensionless(lab_params(feedback_gain_raw=-1e-6), 10.0, Scheme.COLD_DAMPING),
                     "g2 = .* is negative", id="cold_damping_gain_negative"),
    ],
)
def test_library_validation_raises(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_feedback_band_forms():
    s = SchemeParams(scheme=Scheme.COLD_DAMPING, g=10.0, quality=100.0)
    lo, hi = s.feedback_band()
    assert lo == 0.0  # 10 * damping = 1.1 exceeds omega_m, clipped at zero
    assert hi == pytest.approx(1.0 + 10 * 0.11)
    assert SchemeParams(cutoff_feedback="wide").feedback_band() == (0.0, 1e3)
    assert SchemeParams(cutoff_feedback=0.25).feedback_band() == (0.75, 1.25)
    assert SchemeParams(cutoff_feedback=(0.5, 1.5)).feedback_band() == (0.5, 1.5)
    with pytest.raises(ValueError):
        SchemeParams(cutoff_feedback=(2.0, 1.0))
    with pytest.raises(ValueError, match=r"\(lo, hi\) pair"):
        SchemeParams(cutoff_feedback=(0.5, 1.5, 99))
    with pytest.raises(ValueError, match="unrecognized cutoff_feedback"):
        SchemeParams(cutoff_feedback=True)


@pytest.mark.parametrize("band", [math.nan, (math.nan, 1.0), (0.5, math.nan)])
def test_nan_feedback_band_rejected(band):
    with pytest.raises(ValueError, match="feedback"):
        SchemeParams(cutoff_feedback=band)


@pytest.mark.parametrize("band", [math.inf, (0.0, math.inf), (0.5, math.inf)])
def test_infinite_feedback_band_rejected(band):
    with pytest.raises(ValueError, match="feedback .*finite"):
        SchemeParams(scheme=Scheme.COLD_DAMPING, g=10.0, cutoff_feedback=band)


def test_none_is_not_a_feedback_band():
    with pytest.raises(ValueError, match="unrecognized cutoff_feedback"):
        SchemeParams(cutoff_feedback=None)


# --------------------------------------------------------------- bistability


def _cubic(p, detuning):
    g2, e2, hw2 = p.coupling**2, p.drive**2, (p.gamma_c / 2.0) ** 2

    def f(x):
        return x * (hw2 + (detuning - 2.0 * g2 * x / p.omega_m) ** 2) - e2

    return f


def _scan_roots(p, detuning, x_max, n=400_000):
    """Independent oracle: sign-change scan of the cubic on a fine grid."""
    f = _cubic(p, detuning)
    xs = np.linspace(x_max / n, x_max, n)
    vals = f(xs)
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:])):
        roots.append(brentq(f, xs[i], xs[i + 1], xtol=1e-14 * x_max))
    return roots


def bistable_lab_params():
    # gamma_c/2 = 1, 2 G^2 / omega_m = 1, E^2 = 4, detuning 3: three roots
    omega_m = 0.01
    mass = 1.0
    zpf = math.sqrt(HBAR / (2.0 * mass * omega_m))
    coupling_target = math.sqrt(0.005)
    omega_c = 1.77e15
    length = omega_c * zpf / coupling_target
    gamma_c = 2.0
    power = 4.0 * HBAR * omega_c / gamma_c
    return PhysicalParams(
        mass=mass,
        omega_m=omega_m,
        gamma_m=omega_m / 1e5,
        cavity_length=length,
        gamma_c=gamma_c,
        laser_power=power,
        laser_omega0=omega_c,
        cavity_omega_c=omega_c,
        efficiency=1.0,
    )


def test_linear_cavity_limit():
    # heavy mirror kills the coupling; the root collapses to the linear one
    p = lab_params(mass=1e6)
    det = 0.3 * p.gamma_c
    res = classical_steady_amplitude(p, det)
    assert len(res.roots) == 1 and not res.bistable
    linear = p.drive**2 / ((p.gamma_c / 2) ** 2 + det**2)
    assert res.roots[0] == pytest.approx(linear, rel=1e-6)


def test_zero_coupling_is_the_linear_root(monkeypatch):
    # at G = 0 the cubic's two leading coefficients vanish and np.roots drops
    # them, leaving the linear cavity's root
    monkeypatch.setattr(PhysicalParams, "coupling", property(lambda self: 0.0))
    p = lab_params()
    for det in (0.0, 0.3 * p.gamma_c):
        res = classical_steady_amplitude(p, det)
        linear = p.drive**2 / ((p.gamma_c / 2) ** 2 + det**2)
        assert res.stable == (True,)
        assert res.roots[0] == pytest.approx(linear, rel=1e-14)


def test_small_drive_leading_order():
    p = lab_params(laser_power=1e-12)
    res = classical_steady_amplitude(p, 0.0)
    assert res.roots[0] == pytest.approx(4.0 * p.drive**2 / p.gamma_c**2, rel=1e-3)


def test_bistable_roots_match_scan_oracle():
    p = bistable_lab_params()
    det = 3.0
    res = classical_steady_amplitude(p, det)
    assert len(res.roots) == 3 and res.bistable
    assert res.stable == (True, False, True)
    scanned = _scan_roots(p, det, x_max=20.0)
    assert len(scanned) == 3
    np.testing.assert_allclose(res.roots, scanned, rtol=1e-8)


def test_root_residuals():
    p = bistable_lab_params()
    f = _cubic(p, 3.0)
    for x in classical_steady_amplitude(p, 3.0).roots:
        assert abs(f(x)) < 1e-9 * p.drive**2


def test_scale_invariance_of_dimensionless_map():
    # rescaling all rates (and T, and power as s^4) leaves the working
    # parameters unchanged
    g_sc = -2.5e-7
    base = lab_params(feedback_gain_raw=g_sc, reservoir_cutoff=2 * math.pi * 1e9,
                      feedback_bandwidth=2 * math.pi * 1e4)
    x0 = classical_steady_amplitude(base, 0.0).roots[0]
    s0 = to_dimensionless(base, math.sqrt(x0), Scheme.STOCHASTIC_COOLING)

    for scale in (7.3, 0.21):
        scaled = lab_params(
            feedback_gain_raw=g_sc,
            omega_m=base.omega_m * scale,
            gamma_m=base.gamma_m * scale,
            gamma_c=base.gamma_c * scale,
            reservoir_cutoff=2 * math.pi * 1e9 * scale,
            feedback_bandwidth=2 * math.pi * 1e4 * scale,
            temperature=base.temperature * scale,
            laser_power=base.laser_power * scale**4,
        )
        x1 = classical_steady_amplitude(scaled, 0.0).roots[0]
        s1 = to_dimensionless(scaled, math.sqrt(x1), Scheme.STOCHASTIC_COOLING)
        for attr in ("g", "quality", "zeta", "theta", "eta", "cutoff_reservoir",
                     "cutoff_feedback"):
            a, b = getattr(s0, attr), getattr(s1, attr)
            assert a == pytest.approx(b, rel=1e-12), attr
