"""Noise-spectrum and stationary-SNR tests."""

import inspect
import io
import math

import numpy as np
import pytest

from mirrorfb._quad import quad_spectrum
from mirrorfb.core import Scheme, SchemeParams
from mirrorfb.response import chi_freq
from mirrorfb.spectra import (
    SpectrumSeries,
    default_grid,
    detected_noise_spectrum,
    integrated_position_variance,
    optimal_power_at_frequency,
    position_noise_spectrum,
    rows_to_csv,
    shot_noise_floor,
    stationary_snr,
)
from mirrorfb.steady import ThermalModel, noise_strengths, steady_moments

SC, CD = Scheme.STOCHASTIC_COOLING, Scheme.COLD_DAMPING


def make(scheme, **kw):
    base = dict(g=0.0, quality=1e4, zeta=10.0, theta=1e5, eta=0.8)
    base.update(kw)
    return SchemeParams(scheme=scheme, **base)


def test_bare_resonance_value():
    s = make(Scheme.NONE, quality=250.0, zeta=4.0, theta=1e3)
    got = position_noise_spectrum(s, 1.0, thermal="classical")
    chi2 = abs(chi_freq(s, 1.0)) ** 2
    assert chi2 == pytest.approx(250.0**2)
    assert got == pytest.approx(chi2 * s.gamma_m * (1.0 + 1e3))


def test_schemes_indistinguishable_at_figure_parameters():
    a = position_noise_spectrum(make(SC, g=1e3), np.linspace(1e-4, 2.0, 2001))
    b = position_noise_spectrum(make(CD, g=1e3), np.linspace(1e-4, 2.0, 2001))
    np.testing.assert_allclose(a, b, rtol=1e-3)


def test_peak_suppressed_by_gain():
    peaks = []
    for g in (0.0, 10.0, 1e2, 1e3):
        s = make(CD if g else Scheme.NONE, g=g)
        grid = np.linspace(0.9, 1.1, 2001)
        peaks.append(position_noise_spectrum(s, grid).max())
    assert all(a > b for a, b in zip(peaks, peaks[1:]))


def test_peak_location_and_height_scaling():
    # thermal-dominated regime: peak stays pinned near resonance and its
    # height falls as 1/(1+g)^2
    quality = 1e6
    heights = []
    gains = (0.0, 10.0, 1e2)
    for g in gains:
        s = make(CD if g else Scheme.NONE, g=g, quality=quality, zeta=1.0)
        grid = np.linspace(1.0 - 50.0 / quality, 1.0 + 5.0 / quality, 30001)
        vals = position_noise_spectrum(s, grid, thermal="classical")
        w_peak = grid[int(np.argmax(vals))]
        assert 1.0 - 1.0 / quality <= w_peak <= 1.0 + 1e-9
        heights.append(vals.max())
    slope = np.polyfit(np.log1p(gains), np.log(heights), 1)[0]
    assert slope == pytest.approx(-2.0, rel=0.10)


def test_gate_functions_cut_terms():
    s = make(CD, g=1e3, cutoff_reservoir=2.0, cutoff_feedback=(0.9, 1.1))
    inside = position_noise_spectrum(s, 1.0)
    outside_fb = position_noise_spectrum(s, 1.5)
    # outside the loop band only back-action and thermal noise remain
    chi2 = abs(chi_freq(s, 1.5)) ** 2
    assert outside_fb == pytest.approx(chi2 * s.gamma_m * (s.zeta / 4.0 + 1e5), rel=1e-6)
    assert inside > outside_fb
    beyond_reservoir = position_noise_spectrum(s, 2.5)
    assert beyond_reservoir == pytest.approx(
        abs(chi_freq(s, 2.5)) ** 2 * s.gamma_m * s.zeta / 4.0, rel=1e-12
    )


def test_detected_spectrum_limits():
    # shot floor dominates at vanishing power, disappears from the rescaled
    # back-action piece at large power
    s_small = make(Scheme.NONE, zeta=1e-6, theta=0.0, eta=0.5, quality=100.0)
    got = detected_noise_spectrum(s_small, 0.3)
    assert got == pytest.approx(shot_noise_floor(s_small), rel=1e-3)

    s_big = make(Scheme.NONE, zeta=1e8, theta=0.0, eta=1.0, quality=100.0)
    got = detected_noise_spectrum(s_big, 0.3)
    backaction = abs(chi_freq(s_big, 0.3)) ** 2 * s_big.gamma_m * s_big.zeta / 4.0
    assert got == pytest.approx(backaction, rel=1e-6)


def test_spectrum_is_built_from_the_monte_carlo_intensities():
    # one noise model feeds the spectra and the oracle: ungated and classical, the spectrum is
    # |chi|^2 (d_p + (d_q + d_fb_cd) w_fb) with the oracle's own intensities, to rounding
    rng = np.random.default_rng(37)
    omega = np.concatenate([[0.0], default_grid(64), [1.0, 30.0]])
    worst = 0.0
    for i in range(330):
        scheme = (SC, CD, Scheme.NONE)[i % 3]
        s = SchemeParams(
            scheme=scheme,
            g=0.0 if scheme is Scheme.NONE else float(10 ** rng.uniform(-2, 4)),
            quality=float(10 ** rng.uniform(0, 6)),
            zeta=float(10 ** rng.uniform(-2, 4)),
            theta=float(10 ** rng.uniform(-1, 6)),
            eta=float(rng.uniform(0.1, 1.0)),
        )
        ns = noise_strengths(s)
        kernel = omega**2 + (s.gamma_m**2 if scheme is SC else 0.0)
        want = np.abs(chi_freq(s, omega)) ** 2 * (ns.d_p + (ns.d_q + ns.d_fb_cd) * kernel)
        got = position_noise_spectrum(s, omega, thermal="classical", gates=False)
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
    assert worst <= 1e-13


def test_spectral_consistency_random_parameters():
    # int (dw/2pi) N_Q^2 = <Q^2>_st for 10 random parameter sets
    rng = np.random.default_rng(2024)
    for _ in range(10):
        scheme = (SC, CD)[int(rng.integers(2))]
        s = SchemeParams(
            scheme=scheme,
            g=float(10 ** rng.uniform(0, 3)),
            quality=float(10 ** rng.uniform(2.5, 5)),
            zeta=float(10 ** rng.uniform(0, 2)),
            theta=float(10 ** rng.uniform(3, 5)),
            eta=float(rng.uniform(0.5, 1.0)),
            cutoff_feedback="wide",
        )
        got = integrated_position_variance(s)
        assert got == pytest.approx(steady_moments(s).q2, rel=5e-3)


@pytest.mark.parametrize("g, quality", [(10.0, 5.0), (1e3, 2.0)])
def test_low_q_stochastic_cooling_spectrum_integrates_to_steady_q2(g, quality):
    # the fed-back noise kernel w^2 + gamma_m^2 matters only at low Q: with
    # w^2 alone the integral misses <Q^2> by 0.012% at (10, 5), 0.10% at (1e3, 2)
    from scipy.integrate import quad

    s = make(SC, g=g, quality=quality, theta=1e3)
    spectrum = lambda w: position_noise_spectrum(s, w, thermal="classical", gates=False)
    halves = (quad(spectrum, lo, hi, epsabs=0, epsrel=1e-13, limit=500)[0] for lo, hi in ((0, 1), (1, np.inf)))
    q2 = 2.0 * sum(halves) / (2.0 * math.pi)
    assert q2 == pytest.approx(steady_moments(s, ThermalModel.CLASSICAL_DELTA).q2, rel=1e-9, abs=0)


def _golden_section_min(f, lo, hi, tol=1e-9):
    """The x in [lo, hi] that minimises a unimodal f, by golden-section search."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - r * (hi - lo), lo + r * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - r * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + r * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2.0


def test_optimal_power_stationarity():
    # the closed-form optimum is the minimum a search over log zeta finds, and the derivative vanishes there
    for scheme, g, w in ((Scheme.NONE, 0.0, 1.0), (CD, 1e3, 1.0), (SC, 1e2, 0.4)):
        s = make(scheme, g=g, quality=1e4)
        zopt, n_min = optimal_power_at_frequency(s, w)
        h = 1e-5 * zopt

        def n_of_zeta(z):
            from dataclasses import replace

            return detected_noise_spectrum(replace(s, zeta=z), w)

        z_search = math.exp(_golden_section_min(lambda x: n_of_zeta(math.exp(x)), math.log(1e-6), math.log(1e12)))
        assert n_of_zeta(z_search) == pytest.approx(n_min, rel=1e-13)
        assert z_search == pytest.approx(zopt, rel=1e-4)
        deriv = (n_of_zeta(zopt + h) - n_of_zeta(zopt - h)) / (2.0 * h)
        assert abs(deriv) * zopt / n_min < 1e-6


def test_optimal_power_matches_grid_minimum():
    s = make(CD, g=1e3, quality=1e4)
    zopt, n_min = optimal_power_at_frequency(s, 1.0)
    zg = np.geomspace(zopt / 100.0, zopt * 100.0, 4001)
    from dataclasses import replace

    vals = [detected_noise_spectrum(replace(s, zeta=float(z)), 1.0) for z in zg]
    assert min(vals) == pytest.approx(n_min, rel=1e-5)
    assert zg[int(np.argmin(vals))] == pytest.approx(zopt, rel=0.01)


def test_bare_optimum_at_resonance():
    s = make(Scheme.NONE, quality=1e4, eta=0.8, theta=0.0)
    zopt, _ = optimal_power_at_frequency(s, 1.0)
    # |chi(w_m)| = Q, so zeta_opt reduces to 1/(sqrt(eta) gamma |chi|) = 1/sqrt(eta)
    assert zopt == pytest.approx(1.0 / math.sqrt(0.8), rel=1e-12)


def test_minimum_noise_at_resonance_vanishes_with_gain():
    # cold damping: N_min(w_m) ~ 1/g at theta = 0
    vals = [
        optimal_power_at_frequency(make(CD, g=g, theta=0.0, quality=1e5), 1.0).n_min
        for g in (1e2, 1e3, 1e4)
    ]
    ratios = [a / b for a, b in zip(vals, vals[1:])]
    for r in ratios:
        assert r == pytest.approx(10.0, rel=0.05)


def test_minimum_noise_at_zero_frequency_gain_independent():
    vals = [
        optimal_power_at_frequency(make(CD, g=g, quality=1e5), 0.0).n_min
        for g in (0.0, 1e2, 1e4)
    ]
    assert max(vals) == pytest.approx(min(vals), rel=1e-9)


# -------------------------------------------------------------------- SNR


def test_snr_zero_force():
    s = make(Scheme.NONE, quality=1e5)
    assert stationary_snr(s, 0.0, 1.0, 10.0 / s.gamma_m) == 0.0


def test_snr_gain_ordering_pointwise():
    grid = default_grid()
    for scheme in (SC, CD):
        curves = {}
        for g in (0.0, 1e4, 1e5):
            s = make(scheme if g else Scheme.NONE, g=g, quality=1e5)
            curves[g] = stationary_snr(s, 1.0, grid, 10.0 / s.gamma_m)
        assert np.all(curves[1e5] < curves[1e4])
        assert np.all(curves[1e4] < curves[0.0])


def test_snr_scales_with_force_and_time():
    s = make(Scheme.NONE, quality=1e5)
    t_m = 10.0 / s.gamma_m
    base = stationary_snr(s, 1.0, 1.0, t_m)
    assert stationary_snr(s, 2.0, 1.0, t_m) == pytest.approx(2.0 * base)
    assert stationary_snr(s, 1.0, 1.0, 4.0 * t_m) == pytest.approx(base / 2.0)


def test_snr_short_measurement_warns():
    s = make(Scheme.NONE, quality=1e5)
    with pytest.warns(UserWarning, match="relaxation"):
        stationary_snr(s, 1.0, 1.0, 1.0 / s.gamma_m)


# ---------------------------------------------------------------- series/CSV


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: SpectrumSeries(np.array([0.5, 1.0]), np.array([1.0]), "PositionNoise", "x"),
                     "1-d arrays of equal length", id="series_shape_mismatch"),
        pytest.param(lambda: position_noise_spectrum(make(CD, g=1.0), 1.0, thermal="quantum"),
                     "thermal must be 'exact' or 'classical', got 'quantum'", id="unknown_thermal"),
    ],
)
def test_library_validation_raises(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_series_validation():
    with pytest.raises(ValueError, match="increasing"):
        SpectrumSeries(np.array([1.0, 0.5]), np.array([1.0, 1.0]), "PositionNoise", "x")
    with pytest.raises(ValueError, match="non-negative"):
        SpectrumSeries(np.array([0.5, 1.0]), np.array([1.0, -1.0]), "PositionNoise", "x")


def test_csv_format():
    series = SpectrumSeries(
        np.array([0.5, 1.0]), np.array([1.234567890123456, 2.0]), "SNR", "prov=tag"
    )
    text = series.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "omega,value,kind,provenance"
    assert lines[1] == "0.5,1.23456789012,SNR,prov=tag"
    # round trip through a CSV reader
    import csv

    rows = list(csv.DictReader(io.StringIO(text)))
    assert float(rows[1]["value"]) == 2.0
    assert rows[0]["kind"] == "SNR"


def test_csv_writer_matches_per_row_format():
    # the one-pass writer against a plain per-row str.format, byte for byte,
    # on signs, subnormals, huge values, integers and a % in kind and provenance
    rows = [
        (0.0, -0.0, "SNR", "p"),
        (-1.5, -2.5e-7, "DetectedNoise", "g=1e3;x=zeta"),
        (5e-324, 2.2250738585072014e-308, "SNR", "100% cooled"),
        (1e300, -1.7976931348623157e308, "%s%%", "%.3g;%d"),
        (3, 10**20, "q2", "int"),
        (np.float64(1.234567890123456), np.float64(math.pi), "SNR", "numpy scalars"),
    ]

    def per_row(rows):
        return "omega,value,kind,provenance\n" + "".join("{:.12g},{:.12g},{},{}\n".format(*r) for r in rows)

    assert rows_to_csv(rows) == per_row(rows)
    assert rows_to_csv([]) == per_row([])
    omegas, values = default_grid(50), -np.geomspace(1e-300, 1e300, 50)
    series = SpectrumSeries(omegas, values, "SNR", "fig;50%")
    assert series.to_csv() == per_row(zip(omegas, values, ["SNR"] * 50, ["fig;50%"] * 50))


@pytest.mark.parametrize("x, v", [(1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)])
def test_csv_rejects_non_finite_cells(x, v):
    with pytest.raises(FloatingPointError, match="non-finite output"):
        rows_to_csv([(0.5, 1.0, "SNR", "p"), (x, v, "SNR", "p")])


@pytest.mark.parametrize("t_m", [math.nan, math.inf, 0.0])
def test_stationary_snr_rejects_bad_measurement_time(t_m):
    with pytest.raises(ValueError, match="measurement time"):
        stationary_snr(make(CD, g=10.0), 1.0, default_grid(8), t_m)


def test_quadrature_takes_its_limits_from_the_parameters():
    # cutoff, resonance breakpoints and tolerance come from s and _quad, not from callers
    assert list(inspect.signature(integrated_position_variance).parameters) == ["s"]
    assert list(inspect.signature(quad_spectrum).parameters) == ["integrand", "s", "extra_points", "name"]
