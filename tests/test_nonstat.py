"""Windowed-measurement tests: signal, nonstationary noise, SNR, cyclic average."""

import math
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.signal import fftconvolve

from mirrorfb.core import Scheme, SchemeParams
from mirrorfb.nonstat import (
    CYCLIC_ARRIVAL_NODES,
    ForcePulse,
    MeasurementWindow,
    arrival_signal,
    cyclic_avg_snr,
    force_halfline_transform,
    nonstationary_noise,
    nonstationary_snr,
    signal_spectrum,
)
from mirrorfb.response import chi_freq, chi_time, drift, propagator
from mirrorfb.spectra import default_grid, detected_noise_spectrum, shot_noise_floor, stationary_snr
from mirrorfb.steady import MomentSet, noise_strengths, steady_moments

SC, CD = Scheme.STOCHASTIC_COOLING, Scheme.COLD_DAMPING


def make(scheme, **kw):
    base = dict(g=0.0, quality=1e5, zeta=10.0, theta=1e5, eta=0.8)
    base.update(kw)
    return SchemeParams(scheme=scheme, **base)


def fig_force(gamma_m, t1_scaled=3e-4):
    return ForcePulse(f0=1.0, sigma=1e-4 / gamma_m, t1=t1_scaled / gamma_m, omega_f=1.0)


# ------------------------------------------------------------ force transform


def transform_oracle(force, win, w, dt=2e-3):
    t_end = force.t1 + 10.0 * force.sigma + 10.0 * win.t_m
    t = np.arange(0.0, t_end, dt)
    integrand = force(t) * np.exp(-(1j * w + 0.5 / win.t_m) * t)
    return simpson(integrand, x=t)


@pytest.mark.parametrize(
    "sigma,t1,w",
    [(2.0, 6.0, 1.0), (2.0, 6.0, 0.7), (0.5, 0.0, 1.3), (1.0, 40.0, 1.0)],
)
def test_force_transform_against_quadrature(sigma, t1, w):
    force = ForcePulse(f0=1.3, sigma=sigma, t1=t1, omega_f=1.0)
    win = MeasurementWindow(t_m=20.0)
    got = force_halfline_transform(force, win, w)
    want = transform_oracle(force, win, w)
    assert got == pytest.approx(want, rel=1e-5, abs=1e-12)


def test_force_transform_reflection_branch():
    # force support far inside the window exercises the erfcx reflection
    force = ForcePulse(f0=1.0, sigma=1.0, t1=80.0, omega_f=1.0)
    win = MeasurementWindow(t_m=200.0)
    got = force_halfline_transform(force, win, 1.0)
    want = transform_oracle(force, win, 1.0, dt=1e-3)
    assert np.isfinite(got)
    assert got == pytest.approx(want, rel=1e-5)


def test_fourier_abs_peak_value():
    force = ForcePulse(f0=2.0, sigma=3.0, t1=5.0, omega_f=1.0)
    # at the carrier the transform is dominated by one Gaussian lobe
    expect = 2.0 * 3.0 * math.sqrt(2.0 * math.pi) / 2.0
    assert force.fourier_abs(1.0) == pytest.approx(expect, rel=1e-3)


# ------------------------------------------------------------------- signal


def signal_oracle(s, force, win, w, dt=2e-3):
    """Brute-force evaluation of the windowed, filtered mean response.

    The high-Q response keeps ringing, so only the filter truncates the
    integrand; the horizon must cover many filter time constants.
    """
    t_end = 26.0 * win.t_m + force.t1 + 10.0 * force.sigma
    t = np.arange(0.0, t_end, dt)
    chi = chi_time(s.bare(), t)
    drive = force(t)
    # trapezoid-corrected discrete convolution (chi(0) = 0 kills one endpoint)
    mean_q = (fftconvolve(chi, drive)[: len(t)] - 0.5 * chi * drive[0]) * dt
    integrand = np.exp(-1j * w * t) * win.filter(t) * mean_q
    return abs(simpson(integrand, x=t))


def test_zero_force_gives_zero_signal():
    s = make(Scheme.NONE)
    win = MeasurementWindow(1e-3 / s.gamma_m)
    force = ForcePulse(f0=0.0, sigma=10.0, t1=30.0, omega_f=1.0)
    grid = default_grid(50)
    np.testing.assert_array_equal(signal_spectrum(s, force, win, grid), 0.0)


def test_signal_against_brute_force():
    s = make(Scheme.NONE, quality=1e3)
    win = MeasurementWindow(50.0)
    force = ForcePulse(f0=1.0, sigma=5.0, t1=15.0, omega_f=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for w in (0.9, 1.0, 1.05, 1.4):
            got = signal_spectrum(s, force, win, w)
            want = signal_oracle(s, force, win, w)
            assert got == pytest.approx(want, rel=3e-4)


def test_signal_stationary_limit():
    # gamma_m T_m = 10: the filtered signal approaches |chi0 f~| near
    # resonance; exactly on resonance the filter still smears the
    # susceptibility by gamma_m / (gamma_m + 1/T_m)
    s = make(Scheme.NONE)
    win = MeasurementWindow(10.0 / s.gamma_m)
    force = fig_force(s.gamma_m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for w in (0.99, 0.995, 1.003):
            got = signal_spectrum(s, force, win, w)
            want = abs(chi_freq(s, w)) * force.fourier_abs(w)
            assert got == pytest.approx(want, rel=0.05)
        on_peak = signal_spectrum(s, force, win, 1.0)
    smear = s.gamma_m / (s.gamma_m + 1.0 / win.t_m)
    want = abs(chi_freq(s, 1.0)) * force.fourier_abs(1.0) * smear
    assert on_peak == pytest.approx(want, rel=0.01)


def test_signal_peaked_at_resonance_with_filter_width():
    s = make(Scheme.NONE)
    win = MeasurementWindow(1e-3 / s.gamma_m)  # T_m = 100
    force = fig_force(s.gamma_m)
    grid = np.linspace(0.9, 1.1, 2001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals = signal_spectrum(s, force, win, grid)
    peak = grid[int(np.argmax(vals))]
    assert abs(peak - 1.0) < 2.0 / win.t_m
    half = vals >= 0.5 * vals.max()
    fwhm = grid[half][-1] - grid[half][0]
    assert 0.5 / win.t_m < fwhm < 6.0 / win.t_m


# -------------------------------------------------------------------- noise


def test_large_window_recovers_stationary_detected_spectrum():
    s = make(Scheme.NONE)
    win = MeasurementWindow(10.0 / s.gamma_m)
    grid = default_grid(200)
    got = nonstationary_noise(s, win, grid)
    want = detected_noise_spectrum(s, grid, thermal="classical")
    np.testing.assert_allclose(got, want, rtol=0.05)


def test_peak_suppression_at_short_measurement_times():
    s = make(CD, g=1e3, quality=1e4)
    grid = np.linspace(0.9, 1.1, 2001)
    peaks = []
    for gtm in (1e-4, 1e-3, 1e-2, 1e-1):
        win = MeasurementWindow(gtm / s.gamma_m)
        peaks.append(nonstationary_noise(s, win, grid).max())
    assert all(a < b for a, b in zip(peaks, peaks[1:]))


@pytest.mark.parametrize("quality,gtm", [(100.0, 0.1), (1e3, 1e-3)])
def test_initial_state_scheme_equivalence(quality, gtm):
    # sc- and cd-cooled initial states give nearly identical noise at
    # Q >= 100 (window kept above one oscillation period)
    kw = dict(g=10.0, quality=quality, zeta=10.0, theta=1e5, eta=0.8)
    s_sc = SchemeParams(scheme=SC, **kw)
    s_cd = SchemeParams(scheme=CD, **kw)
    win = MeasurementWindow(gtm / s_sc.gamma_m)
    grid = default_grid(200)
    a = nonstationary_noise(s_sc, win, grid)
    b = nonstationary_noise(s_cd, win, grid)
    np.testing.assert_allclose(a, b, rtol=1e-2)


def test_term_by_term_initial_state_identity(monkeypatch):
    # with qp = 0 and equal variances the two schemes' formulas coincide
    s_cd = make(CD, g=1e3, quality=1e4)
    s_sc = replace(s_cd, scheme=SC)
    monkeypatch.setattr("mirrorfb.nonstat.steady_moments", lambda s, model: MomentSet(q2=3.7, p2=5.1, qp=0.0))
    win = MeasurementWindow(2e-3 / s_cd.gamma_m)
    grid = default_grid(64)
    a = nonstationary_noise(s_cd, win, grid)
    b = nonstationary_noise(s_sc, win, grid)
    np.testing.assert_array_equal(a, b)


def _time_domain_noise(s, win, omega):
    """E|D(omega)|^2 / T_m of D = int_0^inf F(t) q(t) e^{-i omega t} dt, in the time domain.

    The loop opens at t = 0 on the stationary state Sigma_0 of ``s``; then
    x(t) = e^{A0 t} x0 + int_0^t e^{A0 (t-u)} dW(u) with A0 = drift(s.bare())
    and white noise D0 of the open loop.  Since F(u + r) = F(u) F(r), both
    parts share the row c = int_0^inf F(t) e^{-i omega t} [e^{A0 t}]_{q.} dt:
    E|D|^2 = c^H Sigma_0 c + (int_0^inf F^2 = T_m) c^H D0 c.  c comes from a
    composite 16-point Gauss-Legendre rule over the propagator, truncated
    where F e^{A0 t} has decayed by e^-40; no chi at complex frequency.
    """
    m, ns = steady_moments(s), noise_strengths(s.bare())
    rate = 0.5 / win.t_m + 0.5 * s.gamma_m  # decay of F(t) e^{A0 t}
    width = 0.25  # panels short against the oscillation, so the rule is exact to rounding
    x, w = np.polynomial.legendre.leggauss(16)
    t = ((np.arange(math.ceil(40.0 / rate / width))[:, None] + 0.5 * (x + 1.0)) * width).ravel()
    weights = np.tile(0.5 * width * w, len(t) // 16) * win.filter(t)
    row = propagator(drift(s.bare()), t)[:, 0, :]  # [e^{A0 t}]_{q.}
    c = (weights * np.exp(-1j * np.outer(omega, t))) @ row
    sigma0 = np.array([[m.q2, m.qp], [m.qp, m.p2]])
    init = np.einsum("wi,ij,wj->w", c.conj(), sigma0, c).real
    noise = win.t_m * np.einsum("wi,ij,wj->w", c.conj(), np.diag([ns.d_q, ns.d_p]), c).real
    return (init + noise) / win.t_m


@pytest.mark.parametrize(
    "scheme, g, zeta, theta, t_m, qp_sign",
    [(SC, 10.0, 10.0, 1e3, 1.0, 1), (SC, 10.0, 10.0, 1e3, 20.0, 1), (CD, 10.0, 10.0, 1e3, 1.0, 0),
     (SC, 100.0, 1.0, 10.0, 1.0, -1)],
    ids=["sc", "sc-long-window", "cd", "sc-contractive"],
)
def test_nonstationary_noise_matches_time_domain(scheme, g, zeta, theta, t_m, qp_sign):
    # the bracket of nonstationary_noise (q2, p2 and qp weights, and the
    # free-evolution noise) against the time-domain definition.  At the sc
    # points the qp term is 0.2-10% of the bracket, so its weight and sign
    # show; the contractive state (g > eta zeta (zeta + 4 theta)) has qp < 0
    s = SchemeParams(scheme=scheme, g=g, quality=50.0, zeta=zeta, theta=theta, eta=0.8)
    assert np.sign(steady_moments(s).qp) == qp_sign
    win = MeasurementWindow(t_m)
    omega = np.array([0.0, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0])
    got = nonstationary_noise(s, win, omega) - shot_noise_floor(s)
    np.testing.assert_allclose(got, _time_domain_noise(s, win, omega), rtol=1e-6)


def test_complex_shift_vanishes_at_large_window():
    # |chi0(w - i/2T_m)| -> |chi0(w)|, first order in 1/T_m at resonance
    s = make(Scheme.NONE, quality=1e3)
    devs = []
    for t_m in (1e4, 2e4, 4e4):
        shifted = abs(chi_freq(s, 1.0 - 0.5j / t_m))
        devs.append(abs(shifted / abs(chi_freq(s, 1.0)) - 1.0))
    assert devs[0] < 0.15
    # doubling T_m halves the deviation
    assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.1)
    assert devs[1] / devs[2] == pytest.approx(2.0, rel=0.1)


# --------------------------------------------------------------------- SNR


def test_snr_linearity_in_force_amplitude():
    s = make(CD, g=2e3)
    win = MeasurementWindow(1e-3 / s.gamma_m)
    force = fig_force(s.gamma_m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = nonstationary_snr(s, force, win, 1.0)
        doubled = nonstationary_snr(s, replace(force, f0=2.0), win, 1.0)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_cool_and_measure_beats_both_comparators():
    # Fig-8 configuration: cooled short measurement wins near resonance
    s_fb = make(CD, g=2e3, cutoff_feedback="wide")
    s0 = make(Scheme.NONE)
    gm = s0.gamma_m
    force = fig_force(gm)
    grid = np.linspace(0.98, 1.02, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cooled = nonstationary_snr(s_fb, force, MeasurementWindow(1e-3 / gm), grid)
        bare_short = nonstationary_snr(s0, force, MeasurementWindow(1e-3 / gm), grid)
        bare_long = nonstationary_snr(s0, force, MeasurementWindow(10.0 / gm), grid)
    assert np.all(cooled > bare_short)
    assert np.all(cooled > bare_long)


def test_snr_approaches_bare_at_long_windows():
    s_fb = make(CD, g=2e3)
    s0 = make(Scheme.NONE)
    force = fig_force(s0.gamma_m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for gtm in (1e-3, 1e-2, 1e-1, 1.0):
            win = MeasurementWindow(gtm / s0.gamma_m)
            assert nonstationary_snr(s_fb, force, win, 1.0) > nonstationary_snr(
                s0, force, win, 1.0
            )
        win = MeasurementWindow(10.0 / s0.gamma_m)
        a = nonstationary_snr(s_fb, force, win, 1.0)
        b = nonstationary_snr(s0, force, win, 1.0)
    assert a / b == pytest.approx(1.0, abs=0.05)
    assert a >= b


def test_nonstationary_limit_matches_stationary_snr():
    s0 = make(Scheme.NONE)
    force = fig_force(s0.gamma_m)
    win = MeasurementWindow(10.0 / s0.gamma_m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = nonstationary_snr(s0, force, win, 1.0)
    want = stationary_snr(s0, force.fourier_abs(1.0), 1.0, win.t_m, thermal="classical")
    assert got == pytest.approx(want, rel=0.05)


# ------------------------------------------------------------------- cyclic


def test_cyclic_duty_factor_and_single_node():
    s = make(CD, g=2e3, cutoff_feedback="wide")
    win = MeasurementWindow(1e-3 / s.gamma_m)
    force = ForcePulse(f0=1.0, sigma=1e-4 / s.gamma_m, t1=0.0, omega_f=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = cyclic_avg_snr(s, force, win, 0.0, 1.0)
        with_cooling = cyclic_avg_snr(s, force, win, 0.02 * win.t_m, 1.0)
        # a one-row signal, the pulse arriving mid-window, reduces to the plain SNR there
        single = cyclic_avg_snr(s, force, win, 0.0, 1.0, signal=_per_node_signal(s, force, win, 1.0, 1))
        mid = nonstationary_snr(s, replace(force, t1=win.t_m / 2.0), win, 1.0)
    assert with_cooling == pytest.approx(base / 1.02, rel=1e-12)
    assert single == pytest.approx(mid, rel=1e-12)


def test_cyclic_arrival_grid_converged():
    s = make(CD, g=2e3, cutoff_feedback="wide")
    win = MeasurementWindow(1e-3 / s.gamma_m)
    force = ForcePulse(f0=1.0, sigma=1e-4 / s.gamma_m, t1=0.0, omega_f=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        default = cyclic_avg_snr(s, force, win, 1e-3 * win.t_m, 1.0)
        r128 = _per_node_average(s, force, win, 1e-3 * win.t_m, 1.0, 128)
    assert r128 == pytest.approx(default, rel=1e-2)


def test_cyclic_warns_on_long_cooling_stage():
    s = make(CD, g=2e3)
    win = MeasurementWindow(1e-3 / s.gamma_m)
    force = ForcePulse(f0=1.0, sigma=1e-4 / s.gamma_m, t1=0.0, omega_f=1.0)
    with pytest.warns(UserWarning, match="t_cool"):
        cyclic_avg_snr(s, force, win, 0.5 * win.t_m, 1.0)


def test_impulsive_regime_warnings():
    s = make(Scheme.NONE, quality=100.0)  # gamma_m = 0.01
    # (sigma, t_m): long against the relaxation time only, against the
    # measurement time only, and against both
    cases = {
        (20.0, 100.0): {"relaxation"},
        (5.0, 10.0): {"measurement time"},
        (20.0, 50.0): {"relaxation", "measurement time"},
    }
    for (sigma, t_m), expected in cases.items():
        force, win = ForcePulse(f0=1.0, sigma=sigma, t1=0.0), MeasurementWindow(t_m)
        # the cyclic average gives the same caveats for the same pulse and window
        for call in (lambda: signal_spectrum(s, force, win, 1.0), lambda: cyclic_avg_snr(s, force, win, 0.0, 1.0)):
            with pytest.warns(UserWarning) as record:
                call()
            messages = [str(w.message) for w in record]
            assert {key for key in ("relaxation", "measurement time") for m in messages if key in m} == expected
    # a sweep warns once, naming its shortest window
    with pytest.warns(UserWarning, match=r"shortest measurement time t_m = 10\b"):
        got = signal_spectrum(s, ForcePulse(f0=1.0, sigma=5.0, t1=0.0), MeasurementWindow([100.0, 10.0, 50.0]), 1.0)
    assert got.shape == (3,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        signal_spectrum(s, ForcePulse(f0=1.0, sigma=5.0, t1=0.0), MeasurementWindow([100.0, 20.0]), 1.0)


def test_non_finite_window_force_and_cooling_time_rejected():
    for t_m in (math.nan, math.inf):
        with pytest.raises(ValueError, match="measurement time"):
            MeasurementWindow(t_m)
    for t_m, bad in (([1.0, math.nan], "nan"), ([math.inf, 2.0], "inf"), ([1.0, 0.0], "0.0"), ([2.0, -3.0], "-3.0")):
        with pytest.raises(ValueError, match=f"measurement time must be finite and > 0, got {bad}"):
            MeasurementWindow(np.array(t_m))
    for t_m in (np.array(1.0, dtype=object), np.ones((2, 2)), np.array([]), [], "1.0", np.array([1.0 + 0j])):
        with pytest.raises(ValueError, match="measurement time must be a real scalar or a non-empty 1-d array"):
            MeasurementWindow(t_m)
    # a scalar is kept as given; an array becomes a read-only float copy
    assert type(MeasurementWindow(10).t_m) is int
    given = np.array([1, 2])
    win = MeasurementWindow(given)
    assert win.t_m.dtype == float and not win.t_m.flags.writeable
    given[0] = 5
    assert win.t_m[0] == 1.0
    for bad in ({"f0": math.nan}, {"t1": math.inf}, {"omega_f": -math.inf}, {"sigma": math.nan}, {"sigma": math.inf}):
        with pytest.raises(ValueError, match="force"):
            ForcePulse(**{"f0": 1.0, "sigma": 1.0, "t1": 0.0, **bad})
    for t_cool in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="cooling time must be finite and >= 0"):
            cyclic_avg_snr(make(Scheme.NONE), ForcePulse(1.0, 1.0, 0.0), MeasurementWindow(10.0), t_cool, 1.0)
    for fn in (arrival_signal, lambda s, force, win, omega: cyclic_avg_snr(s, force, win, 0.0, omega),
               lambda s, force, win, omega: cyclic_avg_snr(s, force, win, 0.0, omega, signal=np.ones(64))):
        with pytest.raises(ValueError, match="one measurement time"):
            fn(make(Scheme.NONE), ForcePulse(1.0, 1.0, 0.0), MeasurementWindow([10.0, 20.0]), 1.0)


def test_cyclic_takes_no_node_count():
    # arrival_signal works the node count out from the pulse width; a finer average passes its signal
    args = (make(Scheme.NONE), ForcePulse(1.0, 1.0, 0.0), MeasurementWindow(10.0))
    with pytest.raises(TypeError, match="n_arrival"):
        cyclic_avg_snr(*args, 0.0, 1.0, n_arrival=8)
    with pytest.raises(TypeError, match="n_arrival"):
        arrival_signal(*args, 1.0, n_arrival=256)
    with pytest.raises(TypeError, match="positional"):
        arrival_signal(*args, 1.0, 256)
    assert arrival_signal(*args, [1.0, 2.0]).shape == (CYCLIC_ARRIVAL_NODES, 2)


def test_arrival_node_count_follows_the_pulse_width():
    # max(64, ceil(T_m / 0.2 sigma)) nodes, at most 4096; figure 10, C08 and the README cyclic call keep 64
    from mirrorfb import cli

    bare, win = make(Scheme.NONE), MeasurementWindow(100.0)
    for sigma, n in ((25.0, 64), (3.0, 167), (1.5, 334), (0.7, 715)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert arrival_signal(bare, ForcePulse(1.0, sigma, 0.0), win, [1.0, 2.0]).shape == (n, 2)
    with pytest.warns(UserWarning, match="too short for the measurement time t_m = 100: the 4096-point"):
        assert arrival_signal(bare, ForcePulse(1.0, 0.03, 0.0), win, 1.0).shape == (4096,)
    readme = cli.build_parser().parse_args(["cyclic", "--scheme", "cd", "--g", "2e3", "--Q", "1e5", "--zeta", "10",
                                            "--theta", "1e5", "--Tm", "1e-3", "--Tcool", "1e-6", "--sigma", "1e-4"])
    c08 = ForcePulse(f0=1.0, sigma=1e-4 / bare.gamma_m, t1=0.0, omega_f=1.0), MeasurementWindow(1e-3 / bare.gamma_m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        *_, figure_10_signal = cli._FIGURES[10]
        assert figure_10_signal(default_grid()).shape == (64, 400)
        assert arrival_signal(bare, *c08, 1.0).shape == (64,)
        assert arrival_signal(bare, *cli._pulse(readme, cli._build_params(readme)), default_grid()).shape == (64, 400)


@pytest.mark.parametrize("gamma_tm, sigma_over_tm", [(1e-3, 0.03), (1e-3, 0.01), (1e-2, 0.002)])
def test_cyclic_average_resolves_a_pulse_short_for_the_window(gamma_tm, sigma_over_tm):
    # the bare mirror, omega_f = 1: a fixed 64-node rule is 3.7%, 6.3% and 59% off at these points, silently;
    # nodes at most 0.2 sigma apart are within 1% of an 8192-node reference at every omega
    s = make(Scheme.NONE)
    win = MeasurementWindow(gamma_tm / s.gamma_m)
    force = ForcePulse(f0=1.0, sigma=sigma_over_tm * win.t_m, t1=0.0, omega_f=1.0)
    grid = default_grid(9)
    reference = _per_node_average(s, force, win, 0.0, grid, 8192)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cyclic_avg_snr(s, force, win, 0.0, grid)
    assert np.max(np.abs(got / reference - 1.0)) < 0.01


def test_cyclic_takes_a_signal_of_its_own_shape():
    # any number of rows of omega's shape, at least one
    s, force, win = make(Scheme.NONE), fig_force(1e-5), MeasurementWindow(1e-3 / 1e-5)
    grid = default_grid(50)
    signal = _per_node_signal(s, force, win, grid, 16)
    for bad, omega in ((signal[:, :1], grid), (signal[:, :2], 1.0), (signal, grid[:49]), (signal[None], grid),
                       (signal[:0], grid), (signal[0, 0], 1.0), (signal[0], grid)):
        with pytest.raises(ValueError, match=r"signal must have shape \(n,\) \+ omega.shape, n >= 1"):
            cyclic_avg_snr(s, force, win, 0.0, omega, signal=bad)
    assert cyclic_avg_snr(s, force, win, 0.0, 1.0, signal=signal[:1, 0]) > 0.0


def _figure_10_curves():
    """(s, force, window, t_cool) of figure 10: wide-band cold damping and the bare mirror."""
    cooled = make(CD, g=2e3, cutoff_feedback="wide")
    bare = make(Scheme.NONE)
    for s, cooling in ((cooled, 1e-3), (bare, 0.0)):
        win = MeasurementWindow(1e-3 / s.gamma_m)
        yield s, fig_force(s.gamma_m), win, cooling * win.t_m


def test_cyclic_error_estimate_silent_on_figure_10():
    for s, force, win, t_cool in _figure_10_curves():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cyclic_avg_snr(s, force, win, t_cool, default_grid())


def test_shared_signal_estimates_its_error_once():
    # the arrival rule's caveat runs with the signal, not per curve: figure 10's two curves on one signal of a
    # pulse too short for the window warn once, and a coarse signal passed in draws no caveat at all
    (cooled, force, _, t_cool), (bare, _, win, _) = _figure_10_curves()
    brief, grid = replace(force, sigma=win.t_m / 1e4), default_grid(8)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        signal = arrival_signal(bare, brief, win, grid)
        coarse = _per_node_signal(bare, force, win, grid, 8)
        for sig, pulse in ((signal, brief), (coarse, force)):
            cyclic_avg_snr(cooled, pulse, win, t_cool, grid, signal=sig)
            cyclic_avg_snr(bare, pulse, win, 0.0, grid, signal=sig)
    assert [str(w.message) for w in seen if "arrival-time average" in str(w.message)] == [
        f"force duration sigma = {brief.sigma:.3g} is too short for the measurement time t_m = {win.t_m:.3g}: "
        "the 4096-point arrival-time average does not resolve the pulse and may be off by more than 1%"
    ]


def test_cyclic_under_resolved_point_refines_through_the_signal():
    # narrow-band cold damping at g = 200, gamma_m T_m = 1e-2 (sigma = T_m / 100): 64 nodes are 1.3% off;
    # the default's 500 nodes and a 256-node signal passed in are silent and within 0.1% of a 4096-node reference
    s = make(CD, g=200.0)
    force, win, t_cool = fig_force(s.gamma_m), MeasurementWindow(1e-2 / s.gamma_m), 1e-4 / s.gamma_m
    grid = np.geomspace(0.1, 2.0, 31)
    reference = _per_node_average(s, force, win, t_cool, grid, 4096)
    coarse = cyclic_avg_snr(s, force, win, t_cool, grid, signal=_per_node_signal(s, force, win, grid, 64))
    assert np.max(np.abs(coarse / reference - 1.0)) > 0.01
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert arrival_signal(s, force, win, grid).shape == (500, 31)
        default = cyclic_avg_snr(s, force, win, t_cool, grid)
        fine = cyclic_avg_snr(s, force, win, t_cool, grid, signal=_per_node_signal(s, force, win, grid, 256))
    assert np.max(np.abs(default / reference - 1.0)) < 1e-3
    assert np.max(np.abs(fine / reference - 1.0)) < 1e-3


# ------------------------------------------------ whole arrays, bit for bit


def _per_node_signal(s, force, win, omega, n_arrival):
    """The arrival signal as one force_halfline_transform call per node, same operations."""
    omega = np.asarray(omega, dtype=float)
    chi0_abs = np.abs(chi_freq(s.bare(), omega - 0.5j / win.t_m))
    nodes = (np.arange(n_arrival) + 0.5) * win.t_m / n_arrival
    return np.array([chi0_abs * np.abs(force_halfline_transform(replace(force, t1=t1), win, omega))
                     for t1 in nodes.tolist()])


def _per_node_average(s, force, win, t_cool, omega, n_arrival):
    """The arrival average of the per-node signal, same operations."""
    noise_sq = win.t_m * nonstationary_noise(s, win, np.asarray(omega, dtype=float))
    sig = _per_node_signal(s, force, win, omega, n_arrival)
    return (sig / np.sqrt(noise_sq)).mean(axis=0) * win.t_m / (win.t_m + t_cool)


def _pow_differs(x):
    """Mask of the entries of x whose square libm's pow (Python's float **) rounds unlike x * x."""
    return np.array([a**2 != a * a for a in np.asarray(x).tolist()], dtype=bool)


def _reflection_curve():
    """A window long against the pulse: late nodes take the reflected branch, early ones do not.

    T_m is the first above 400 for which the pulse weight exp(-t1^2 / 2 sigma^2)
    of some of the default signal's nodes (T_m / 0.2 sigma of them, rounded up) changes
    when t1^2 is squared instead of taken by pow.
    """
    sigma = 10.0

    def weight_differs(t_m):
        n = math.ceil(t_m / sigma / 0.2)
        nodes = (np.arange(n) + 0.5) * t_m / n
        return np.any(np.exp(-np.float_power(nodes, 2) / (2.0 * sigma**2)) != np.exp(-np.square(nodes) / (2.0 * sigma**2)))

    t_m = next(t for t in np.linspace(400.0, 450.0, 501).tolist() if weight_differs(t))
    yield make(Scheme.NONE, quality=1e3), ForcePulse(f0=1.0, sigma=sigma, t1=0.0), MeasurementWindow(t_m), 0.0


@pytest.mark.parametrize("n_nodes", [1, 2, 9, 64])
@pytest.mark.parametrize("omega", [default_grid(), 1.0], ids=["grid", "scalar"])
def test_cyclic_average_is_the_per_node_loop_bit_for_bit(n_nodes, omega):
    # cyclic_avg_snr averages a signal of any number of rows as the per-node loop does; the default
    # signal is the public arrival_signal, the per-node signal at its node count (64 on figure 10, 201 on
    # the long window, a partial block), and passing it in gives the bits of computing it inside
    for s, force, win, t_cool in (*_figure_10_curves(), *_reflection_curve()):
        got = cyclic_avg_snr(s, force, win, t_cool, omega, signal=_per_node_signal(s, force, win, omega, n_nodes))
        assert np.array_equal(got, _per_node_average(s, force, win, t_cool, omega, n_nodes))
        assert np.shape(got) == np.shape(omega)
        if n_nodes == CYCLIC_ARRIVAL_NODES:
            signal = arrival_signal(s, force, win, omega)
            n = len(signal)
            assert n == (CYCLIC_ARRIVAL_NODES if win.t_m < 400 else math.ceil(win.t_m / force.sigma / 0.2))
            assert signal.shape == (n,) + np.shape(omega)
            assert np.array_equal(signal, _per_node_signal(s, force, win, omega, n))
            want = _per_node_average(s, force, win, t_cool, omega, n)
            assert np.array_equal(cyclic_avg_snr(s, force, win, t_cool, omega, signal=signal), want)
            assert np.array_equal(cyclic_avg_snr(s, force, win, t_cool, omega), want)


# ------------------------------------------------ the helper thread's contract


def _spy_halfline(monkeypatch, record):
    """Wrap nonstat._halfline so each call first runs ``record(t1)``, in whichever thread makes it."""
    from mirrorfb import nonstat

    original = nonstat._halfline

    def spy(force, t1, t_m, omega):
        record(t1)
        return original(force, t1, t_m, omega)

    monkeypatch.setattr(nonstat, "_halfline", spy)


def test_helper_thread_error_reaches_the_caller(monkeypatch):
    # 64 nodes are 8 blocks; the caller fills blocks 0-3 and the helper 4-7
    s, force, win, _ = next(_figure_10_curves())
    grid = default_grid()

    def fail_late(t1):
        if np.min(t1) > 0.75 * win.t_m:  # block 6, in the helper's half, after the caller's half is done
            time.sleep(0.05)
            raise ZeroDivisionError("in the helper's half")

    _spy_halfline(monkeypatch, fail_late)
    before = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="in the helper's half"):
        arrival_signal(s, force, win, grid)
    assert threading.active_count() == before


def test_helper_thread_runs_under_the_callers_errstate(monkeypatch):
    s, force, win, _ = next(_figure_10_curves())
    seen = []
    _spy_halfline(monkeypatch, lambda t1: seen.append((threading.get_ident(), np.geterr())))
    with np.errstate(over="raise", divide="raise", invalid="raise", under="warn"):
        want = np.geterr()
        arrival_signal(s, force, win, default_grid())
    assert len(seen) == 8 and len({ident for ident, _ in seen}) == 2
    assert all(state == want for _, state in seen)


@pytest.mark.parametrize("sigma, blocks", [(1e-1, 8), (7.75e-2, 9), (1e-4, 512)])
def test_every_call_starts_one_helper(monkeypatch, sigma, blocks):
    # 64 nodes are 8 blocks, 65 leave a partial ninth, the 4096-node cap is 512; the helper fills the second half
    s, _, win, _ = next(_figure_10_curves())
    force, grid = ForcePulse(f0=1.0, sigma=sigma * win.t_m, t1=0.0), default_grid(8)
    calls, started, before = [], [], threading.active_count()
    _spy_halfline(monkeypatch, lambda t1: calls.append(threading.get_ident()))
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the cap's caveat, given in the caller
        signal = arrival_signal(s, force, win, grid)
    assert len(calls) == blocks and calls.count(threading.get_ident()) == (blocks + 1) // 2
    assert len(set(calls)) == 2 and len(started) == 1 and threading.active_count() == before
    monkeypatch.undo()
    assert np.array_equal(signal, _per_node_signal(s, force, win, grid, len(signal)))


def test_window_sweep_is_the_scalar_loop_bit_for_bit():
    # figure 9: 60 windows at the carrier, for the cooled and the bare mirror, and
    # short windows whose (1/2T_m + gamma_m)^2 squares differently under pow
    for s, force, _, _ in _figure_10_curves():
        dense = np.geomspace(1e-6, 1e-4, 4000)
        x = np.concatenate([np.geomspace(1e-3, 10.0, 60), dense[_pow_differs(0.5 / (dense / s.gamma_m) + s.gamma_m)]])
        assert x.size > 60
        sweep = MeasurementWindow(x / s.gamma_m)
        for fn, args in ((nonstationary_snr, (s, force)), (signal_spectrum, (s, force)), (nonstationary_noise, (s,))):
            for omega in (1.0, 0.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    want = np.array([fn(*args, MeasurementWindow(t / s.gamma_m), omega) for t in x.tolist()])
                    assert np.array_equal(fn(*args, sweep, omega), want)
    # against a grid, one row per window
    grid = default_grid(50)
    rows = nonstationary_snr(s, force, MeasurementWindow(x[:60:12] / s.gamma_m), grid)
    assert rows.shape == (5, 50)
    for row, t in zip(rows, x[:60:12].tolist()):
        assert np.array_equal(row, nonstationary_snr(s, force, MeasurementWindow(t / s.gamma_m), grid))


@pytest.mark.parametrize("t", [[0.5, 0.5], [-1.0, 0.0, 3.0], 0.5], ids=["as_many_times", "three_times", "scalar"])
def test_window_filter_sweep_is_one_row_per_window(t):
    # each window filters every time, also when there are as many times as windows
    t_m = np.array([1.0, 2.0])
    rows = MeasurementWindow(t_m).filter(t)
    assert rows.shape == t_m.shape + np.shape(t)
    for row, one in zip(rows, t_m.tolist()):
        assert np.array_equal(row, MeasurementWindow(one).filter(t))


@pytest.mark.parametrize("t_m", [1.0, np.array([1.0, 2.0])], ids=["scalar", "sweep"])
def test_window_filter_takes_no_exponential_before_the_window(t_m):
    # exp(-t / 2 T_m) at t = -2000 T_m overflows: a time before the window is masked, not evaluated
    t = np.array([-2000.0, -1.0, 0.0, 3.0])
    win = MeasurementWindow(t_m)
    with np.errstate(all="raise"):
        rows = win.filter(t)
    assert rows.shape == np.shape(t_m) + t.shape
    assert not rows[..., :2].any()
    np.testing.assert_allclose(rows[..., 2:], np.exp(-t[2:] / (2.0 * win.over(t))), rtol=1e-15, atol=0)
    assert np.array_equal(rows[..., 2:], win.filter(t[2:]))  # a time in the window keeps its bits
