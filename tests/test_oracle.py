"""Monte Carlo integrator tests: statistics, determinism, cross-validation."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from mirrorfb.core import Scheme, SchemeParams
from mirrorfb.nonstat import ForcePulse
from mirrorfb.oracle import (
    EnsembleStats,
    InstabilityError,
    SimConfig,
    _CHUNK,
    _Chain,
    _Periodogram,
    _band_noise,
    _step_matrix,
    compare,
    dt_bound,
    paired_timestep_stats,
    simulate,
)
from mirrorfb.spectra import SpectrumSeries, position_noise_spectrum
from mirrorfb.steady import MomentSet, noise_strengths, steady_moments

SC, CD = Scheme.STOCHASTIC_COOLING, Scheme.COLD_DAMPING


def test_fluctuation_dissipation_thermal_only():
    # with only thermal noise the position variance equilibrates to theta/2
    s = SchemeParams(scheme=Scheme.NONE, g=0.0, quality=20.0, zeta=1e-6, theta=100.0, eta=1.0)
    stats = simulate(s, SimConfig(n_traj=300, seed=7))
    assert stats.q2 == pytest.approx(100.0 / 2.0, abs=3.0 * stats.q2_err)
    assert stats.p2 == pytest.approx(100.0 / 2.0, abs=3.0 * stats.p2_err)
    assert abs(stats.qp) <= 3.0 * stats.qp_err


def test_zero_mean_without_force():
    s = SchemeParams(scheme=CD, g=5.0, quality=30.0, zeta=10.0, theta=50.0, eta=0.8)
    stats = simulate(s, SimConfig(n_traj=300, seed=3))
    assert abs(stats.mean_q) <= 3.0 * stats.mean_q_err
    assert abs(stats.mean_p) <= 3.0 * stats.mean_p_err


@pytest.mark.parametrize("scheme", [SC, CD])
def test_moments_match_closed_forms(scheme):
    s = SchemeParams(scheme=scheme, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    stats = simulate(s, SimConfig(n_traj=800, seed=42))
    report = compare(steady_moments(s), stats)
    assert report.passed, str(report)


def test_dt_bound_enforced():
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    assert dt_bound(s) == pytest.approx(min(1.0, 1.0 / s.damping) / 50.0)
    with pytest.raises(ValueError, match="stability bound"):
        simulate(s, SimConfig(dt=1.0, n_traj=4, n_steps=10))


def test_determinism_and_json_wire_format():
    s = SchemeParams(scheme=SC, g=4.0, quality=40.0, zeta=5.0, theta=200.0, eta=0.9)
    cfg = SimConfig(n_traj=64, seed=99, n_steps=3000)
    a = simulate(s, cfg)
    b = simulate(s, cfg)
    assert a == b
    payload = json.loads(a.to_json())
    assert list(payload) == ["q2", "q2_err", "p2", "p2_err", "qp", "qp_err", "seed", "n_traj", "dt"]
    assert payload["seed"] == 99
    assert payload["n_traj"] == 64
    assert payload["dt"] == a.dt


def test_error_scaling_with_ensemble_size():
    s = SchemeParams(scheme=Scheme.NONE, quality=30.0, zeta=5.0, theta=100.0, eta=1.0)
    small = simulate(s, SimConfig(n_traj=200, seed=5, n_steps=4000))
    large = simulate(s, SimConfig(n_traj=800, seed=6, n_steps=4000))
    ratio = small.q2_err / large.q2_err
    assert 1.4 < ratio < 2.9  # ~2 for a 4x ensemble


def test_band_noise_statistics():
    rng = np.random.Generator(np.random.Philox(key=1))
    band, coeff, dt = (0.5, 1.5), 0.04, 0.01
    n_total = 40000  # already a fast FFT length, so the synthesis is not truncated
    y = _band_noise(rng, 256, n_total, dt, band, coeff)
    assert y.shape == (256, n_total)
    var_expect = coeff / math.pi * (band[1] ** 3 - band[0] ** 3) / 3.0
    assert y.var() == pytest.approx(var_expect, rel=0.05)
    # only in-band bins carry power
    omega = 2.0 * math.pi * np.fft.rfftfreq(n_total, d=dt)
    inband = (omega >= band[0]) & (omega <= band[1])
    power = np.abs(np.fft.rfft(y, axis=1)) ** 2
    assert power[:, ~inband].sum() <= 1e-20 * power[:, inband].sum()
    # circular autocovariance is (coeff/pi) int_band w^2 cos(w tau) dw
    for tau in (0.5, 2.0, 2.5):
        acov = float(np.mean(y * np.roll(y, -round(tau / dt), axis=1)))
        expect = coeff / math.pi * quad(lambda w: w * w * math.cos(w * tau), *band)[0]
        assert acov == pytest.approx(expect, rel=0.05)
    # independent of a fresh white stream
    white = rng.standard_normal(y.shape)
    corr = float(np.mean(y * white)) / math.sqrt(y.var() * white.var())
    assert abs(corr) < 4.0 / math.sqrt(y.size)


def _reference_loop(s, dt, stride, xi, force, burn, seg_len, bins):
    """Plain per-step recurrence on composed OU noise, with running sums."""
    ns, h = noise_strengths(s), dt / stride
    a_q, g_p = s.gamma_m * s.g, s.gamma_m  # stochastic cooling
    dq, dp = math.exp(-a_q * h), math.exp(-g_p * h)
    amp_q = math.sqrt(ns.d_q * (1.0 - dq * dq) / (2.0 * a_q))
    amp_p = math.sqrt(ns.d_p * (1.0 - dp * dp) / (2.0 * g_p))
    q = p = np.zeros(xi.shape[-1])
    sums, post = np.zeros((5, xi.shape[-1])), []
    for k in range(len(xi)):
        eta_q = sum(amp_q * dq ** (stride - 1 - u) * xi[k, u, 0] for u in range(stride))
        eta_p = sum(amp_p * dp ** (stride - 1 - u) * xi[k, u, 1] for u in range(stride))
        p_new = dp**stride * p + eta_p + dt * (-q + force[k])
        q_new = dq**stride * q + eta_q + dt * p_new
        if k > burn:
            sums[2] += q * (0.5 * (p + p_new))
        q, p = q_new, p_new
        if k >= burn:
            sums[[0, 1, 3, 4]] += (q * q, p * p, q, p)
            post.append(q)
    segs = np.array(post[: len(post) // seg_len * seg_len]).reshape(-1, seg_len, len(q))
    spec = np.fft.rfft(segs * np.hanning(seg_len)[:, None], axis=1)[:, bins]
    return q, p, sums, (np.abs(spec) ** 2).sum(axis=0)


@pytest.mark.parametrize("stride", [1, 2])
def test_chunked_stepper_matches_plain_loop(stride):
    # pre-drawn inputs crossing chunk boundaries and, inside a chunk, the
    # burn-in boundary; the periodogram spans chunks too
    s = SchemeParams(scheme=SC, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    nb, dt = 6, 0.5 * dt_bound(s)
    cap = _CHUNK // stride
    n_total, burn, seg_len = 3 * cap + 50, 2 * cap + 30, 64
    rng = np.random.default_rng(5)
    xi = rng.standard_normal((n_total, stride, 2, nb))
    force = 3.0 * rng.standard_normal((n_total, nb))
    bins = np.arange(3, 12)
    q, p, sums, power = _reference_loop(s, dt, stride, xi, force, burn, seg_len, bins)

    n_seg = (n_total - burn) // seg_len
    pgram = _Periodogram(bins, np.hanning(seg_len), n_seg, 1.0, nb)
    matrix = _step_matrix(s, noise_strengths(s), dt / stride, stride, True, True)
    chain = _Chain(matrix, nb, cap, burn, pgram)
    for j in range(0, n_total, cap):
        chain.advance(xi[j : j + cap].reshape(-1, 2 * stride, nb), force[j : j + cap])
    for got, want in ((chain.rows[0, 0], q), (chain.rows[0, 1], p), (chain.sums, sums),
                      (pgram.power, power)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    n_avg = n_total - burn
    np.testing.assert_allclose(chain.means(n_avg)[2], sums[2] / (n_avg - 1), rtol=1e-12)


def test_instability_guard_trips():
    s = SchemeParams(scheme=Scheme.NONE, quality=30.0, zeta=1.0, theta=10.0, eta=1.0)
    kick = ForcePulse(f0=1e12, sigma=5.0, t1=10.0, omega_f=1.0)
    with pytest.raises(InstabilityError, match="guard"):
        simulate(s, SimConfig(n_traj=4, seed=1, n_steps=4000), force=kick)


def test_compare_identical_passes_and_offset_fails():
    stats = EnsembleStats(
        q2=1.0, q2_err=0.1, p2=2.0, p2_err=0.1, qp=0.0, qp_err=0.05,
        mean_q=0.0, mean_q_err=0.1, mean_p=0.0, mean_p_err=0.1,
        seed=1, n_traj=10, dt=0.01,
    )
    exact = MomentSet(q2=1.0, p2=2.0, qp=0.0)
    report = compare(exact, stats)
    assert report.passed
    assert all(e.z == 0.0 for e in report.entries)

    shifted = MomentSet(q2=1.0 - 0.5, p2=2.0, qp=0.0)  # 5 sigma offset on q2
    report = compare(shifted, stats)
    assert not report.passed
    assert report.failures == ("q2",)
    assert "q2" in str(report)


def test_compare_spectrum_shape_mismatch():
    stats = simulate(
        SchemeParams(scheme=Scheme.NONE, quality=30.0, zeta=5.0, theta=100.0, eta=1.0),
        SimConfig(n_traj=8, seed=2, n_steps=4000, estimator="spectrum"),
    )
    bad = SpectrumSeries(np.array([0.5, 1.0]), np.array([1.0, 1.0]), "PositionNoise", "x")
    with pytest.raises(ValueError, match="mismatch"):
        compare(bad, stats)


def test_spectrum_estimator_matches_analytic():
    # reduced-quality configuration resolves the peak quickly
    s = SchemeParams(scheme=CD, g=10.0, quality=100.0, zeta=10.0, theta=1e5, eta=0.8)
    cfg = SimConfig(n_traj=600, seed=21, estimator="spectrum", spectrum_band=(0.85, 1.15))
    stats = simulate(s, cfg)
    ana = position_noise_spectrum(s, stats.spectrum.omegas, thermal="classical", gates=True)
    series = SpectrumSeries(stats.spectrum.omegas, ana, "PositionNoise", "closed form")
    report = compare(series, stats)
    assert report.passed, str(report)


def test_paired_chains_isolate_discretization_error():
    s = SchemeParams(scheme=SC, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    n_steps = int(math.ceil(30.0 / s.damping / (0.5 * dt_bound(s))))
    coarse, fine = paired_timestep_stats(s, SimConfig(n_traj=400, seed=13, n_steps=n_steps))
    assert fine.dt == pytest.approx(coarse.dt / 2.0)
    for name in ("q2", "p2", "qp"):
        delta = abs(getattr(coarse, name) - getattr(fine, name))
        assert delta < 1.0 * getattr(coarse, f"{name}_err")


def test_mean_response_to_force():
    # a slow resonant pulse displaces the ensemble mean away from zero
    s = SchemeParams(scheme=Scheme.NONE, quality=30.0, zeta=1.0, theta=1.0, eta=1.0)
    force = ForcePulse(f0=5.0, sigma=50.0, t1=120.0, omega_f=1.0)
    driven = simulate(s, SimConfig(n_traj=64, seed=4, n_steps=9000), force=force)
    quiet = simulate(s, SimConfig(n_traj=64, seed=4, n_steps=9000))
    assert driven.q2 > 10.0 * quiet.q2
