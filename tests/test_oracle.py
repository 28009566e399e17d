"""Monte Carlo integrator tests: statistics, determinism, cross-validation."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from mirrorfb.core import Scheme, SchemeParams
from mirrorfb.nonstat import ForcePulse
from mirrorfb.oracle import (
    EnsembleStats,
    InstabilityError,
    SimConfig,
    SpectrumEstimate,
    _CHUNK,
    _Chain,
    _Periodogram,
    _band_impulses,
    _check_impulse_budget,
    _drive_impulses,
    _fast_len,
    _force_kernel,
    _step_matrix,
    compare,
    dt_bound,
    paired_timestep_stats,
    simulate,
)
from mirrorfb.response import drift as _drift
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
    # resolution bound: min(1, 1/Gamma)/4, and pi/dt >= 2x the closed loop's band top edge
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    assert dt_bound(s) == pytest.approx(min(1.0, 1.0 / s.damping) / 4.0)
    overdamped = replace(s, scheme=SC, g=400.0)
    assert dt_bound(overdamped) == pytest.approx(1.0 / (4.0 * overdamped.damping))
    wide = replace(s, cutoff_feedback="wide")
    assert dt_bound(wide) == pytest.approx(math.pi / (2.0 * wide.feedback_band()[1]))
    assert dt_bound(replace(wide, scheme=SC)) == pytest.approx(min(1.0, 1.0 / s.damping) / 4.0)
    with pytest.raises(ValueError, match="resolution bound"):
        simulate(s, SimConfig(dt=1.0, n_traj=4, n_steps=10))
    with pytest.raises(ValueError, match="resolution bound"):
        simulate(wide, SimConfig(dt=0.01, n_traj=4, n_steps=10))


def _unreachable(*args):
    raise AssertionError("band-force impulses synthesized for a refused batch")


def test_band_impulse_budget_refuses_oversized_batches(monkeypatch):
    # 2 GiB: exactly 2^26 steps x 2 x 2 trajectories x 8 B is allowed, one step more is not
    _check_impulse_budget(2**26, 2)
    with pytest.raises(ValueError, match=r"2\.0 GiB per batch"):
        _check_impulse_budget(2**26 + 1, 2)
    # wide band at C09's physics: dt_bound is pi/2000, so a default run takes
    # 937,568 steps, and 1000 trajectories would hold 14 GiB of impulses
    with pytest.raises(ValueError, match=r"14\.0 GiB per batch \(1000 trajectories x 937568 steps"):
        _check_impulse_budget(937_568, 1000)
    # the runs refuse before synthesizing anything
    monkeypatch.setattr("mirrorfb.oracle._band_impulses", _unreachable)
    wide = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8,
                        cutoff_feedback="wide")
    with pytest.raises(ValueError, match=r"14\.0 GiB per batch"):
        simulate(wide, SimConfig(n_traj=1000))
    with pytest.raises(ValueError, match=r"27\.9 GiB per batch \(1000 trajectories x 1875136 steps"):
        paired_timestep_stats(wide, SimConfig(n_traj=1000))


def _smith_fixed_point(matrix):
    """Sigma = Phi Sigma Phi^T + L L^T by doubling; every added term is positive semi-definite."""
    phi, chol = matrix[:, :2], matrix[:, 2:]
    sigma = chol @ chol.T
    for _ in range(64):
        sigma = sigma + phi @ sigma @ phi.T
        phi = phi @ phi
    return sigma


@pytest.mark.parametrize("dt", [0.01, 0.5, 2.0])
@pytest.mark.parametrize(
    "scheme, g, quality",
    [(SC, 10.0, 50.0), (SC, 400.0, 20.0), (Scheme.NONE, 0.0, 50.0), (Scheme.NONE, 0.0, 10.0)],
)
def test_step_map_fixed_point_is_steady_moments(scheme, g, quality, dt):
    # the exact step has no dt bias: its discrete stationary covariance is the
    # continuous one at any step (cold damping's force noise is not white)
    s = SchemeParams(scheme=scheme, g=g, quality=quality, zeta=10.0, theta=1e3, eta=0.8)
    sigma = _smith_fixed_point(_step_matrix(s, noise_strengths(s), dt, 1, False))
    ref = steady_moments(s)
    assert sigma[0, 0] == pytest.approx(ref.q2, rel=1e-12)
    assert sigma[1, 1] == pytest.approx(ref.p2, rel=1e-12)
    assert sigma[0, 1] == pytest.approx(ref.qp, rel=1e-12, abs=1e-12 * math.sqrt(ref.q2 * ref.p2))


@pytest.mark.parametrize("scheme, g", [(SC, 10.0), (SC, 400.0), (Scheme.NONE, 0.0)])
def test_steady_moments_solve_the_continuous_lyapunov_equation(scheme, g):
    from scipy.linalg import solve_continuous_lyapunov

    s = SchemeParams(scheme=scheme, g=g, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    ns = noise_strengths(s)
    sigma = solve_continuous_lyapunov(_drift(s), -np.diag([ns.d_q, ns.d_p]))
    ref = steady_moments(s)
    np.testing.assert_allclose(
        [sigma[0, 0], sigma[1, 1], sigma[0, 1]],
        [ref.q2, ref.p2, ref.qp],
        rtol=1e-11,
        atol=1e-11 * math.sqrt(ref.q2 * ref.p2),
    )


@pytest.mark.parametrize(
    "scheme, g, dt",
    [(SC, 10.0, 0.01), (SC, 10.0, 0.5), (SC, 10.0, 2.0), (CD, 10.0, 0.01), (CD, 10.0, 2.0),
     (Scheme.NONE, 0.0, 0.5), (SC, 400.0, 0.01)],
)
def test_step_map_matches_van_loan(scheme, g, dt):
    # Phi = e^{A dt} and Sigma_dt = F22^T F12 of e^{[[-A, D], [0, A^T]] dt} (Van Loan
    # 1978); the e^{-A dt} block costs that route digits once |A| dt is large
    from scipy.linalg import expm

    s = SchemeParams(scheme=scheme, g=g, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    ns, a = noise_strengths(s), _drift(s)
    matrix = _step_matrix(s, ns, dt, 1, False)
    block = expm(np.block([[-a, np.diag([ns.d_q, ns.d_p])], [np.zeros((2, 2)), a.T]]) * dt)
    np.testing.assert_allclose(matrix[:, :2], expm(a * dt), rtol=1e-13, atol=1e-14)
    want = block[2:, 2:].T @ block[:2, 2:]
    got = matrix[:, 2:] @ matrix[:, 2:].T
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize(
    "kwargs", [{"n_steps": 1}, {"n_steps": 0}, {"n_steps": -5}, {"burn_in_steps": -1}]
)
def test_sim_config_rejects_short_runs(kwargs):
    with pytest.raises(ValueError):
        SimConfig(n_traj=4, **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dt": math.nan},
        {"dt": math.inf},
        {"seg_time": math.nan},
        {"seg_time": 0.0},
        {"spectrum_band": (math.nan, 1.0)},
        {"spectrum_band": (1.0, 1.0)},
        {"spectrum_band": (0.5, math.inf)},
    ],
)
def test_sim_config_rejects_non_finite_times_and_bands(kwargs):
    with pytest.raises(ValueError, match="must be finite"):
        SimConfig(n_traj=4, **kwargs)


def test_spectrum_band_without_bins_rejected():
    # 64 steps of dt = 0.01 put the bins ~9.8 apart: none falls in (5, 6)
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    cfg = SimConfig(n_traj=4, dt=0.01, n_steps=64, estimator="spectrum", spectrum_band=(5.0, 6.0))
    with pytest.raises(ValueError, match="keeps no bin"):
        simulate(s, cfg)


def test_paired_chains_reject_spectrum_estimator():
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    with pytest.raises(ValueError, match="moments estimator"):
        paired_timestep_stats(s, SimConfig(n_traj=4, n_steps=64, estimator="spectrum"))


def test_sim_config_accepts_minimal_run():
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    stats = simulate(s, SimConfig(n_traj=4, n_steps=2, burn_in_steps=0))
    payload = json.loads(stats.to_json())
    assert all(math.isfinite(payload[k]) for k in ("q2", "p2", "qp", "q2_err", "p2_err", "qp_err"))


def test_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    # the band-noise FFT length, hence every drawn coefficient, rests on this
    for n in range(1, 100_001):
        assert _fast_len(n) == next_fast_len(n, real=True), n
    for n in (65_456, 2**20 + 1, 3**13 + 7, 2**40 + 1):
        assert _fast_len(n) == next_fast_len(n, real=True), n


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
    # the cold-damping force enters as its exact (q, p) step integrals
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    a, h = _drift(s), 0.125
    rng = np.random.Generator(np.random.Philox(key=1))
    band, coeff = (0.5, 1.5), 0.04
    n_total = 4000  # already a fast FFT length, so the synthesis is not truncated
    u = _band_impulses(rng, 256, n_total, h, band, coeff, a).transpose(2, 1, 0)
    assert u.shape == (256, 2, n_total)

    def expect(i, j, lag):
        # <u_i(t + lag h) u_j(t)> = (coeff/pi) int_band w^2 Re(K_i K_j^* e^{i w lag h}) dw
        def integrand(w):
            k = _force_kernel(a, h, np.array([w]))[0]
            return w * w * (k[i] * np.conj(k[j]) * np.exp(1j * w * lag * h)).real

        return coeff / math.pi * quad(integrand, *band)[0]

    # impulse covariance, and circular autocovariance at lags 0.5, 2.0 and 2.5
    for lag in (0, 4, 16, 20):
        for i, j in ((0, 0), (1, 1), (0, 1)):
            acov = float(np.mean(np.roll(u[:, i], -lag, axis=1) * u[:, j]))
            assert acov == pytest.approx(expect(i, j, lag), rel=0.05), (lag, i, j)
    # only in-band bins carry power
    omega = 2.0 * math.pi * np.fft.rfftfreq(n_total, d=h)
    inband = (omega >= band[0]) & (omega <= band[1])
    power = np.abs(np.fft.rfft(u, axis=-1)) ** 2
    assert power[..., ~inband].sum() <= 1e-20 * power[..., inband].sum()
    # independent of a fresh white stream
    white = rng.standard_normal(u.shape)
    for i in range(2):
        corr = float(np.mean(u[:, i] * white[:, i])) / math.sqrt(u[:, i].var() * white[:, i].var())
        assert abs(corr) < 4.0 / math.sqrt(u[:, i].size)


def _reference_loop(s, dt, stride, xi, impulses, burn, seg_len, bins):
    """Plain per-fine-step recurrence of the exact step, Phi and Sigma from SciPy; running sums."""
    from scipy.linalg import expm

    ns, h = noise_strengths(s), dt / stride
    a = np.array([[-s.gamma_m * s.g, 1.0], [-1.0, -s.gamma_m]])  # stochastic cooling
    phi = expm(a * h)
    # Van Loan 1978: e^{[[-A, D], [0, A^T]] h} holds Sigma_h = F22^T F12
    block = expm(np.block([[-a, np.diag([ns.d_q, ns.d_p])], [np.zeros((2, 2)), a.T]]) * h)
    chol = np.linalg.cholesky(block[2:, 2:].T @ block[:2, 2:])
    x = np.zeros((2, xi.shape[-1]))
    sums, post = np.zeros((5, xi.shape[-1])), []
    for k in range(len(xi)):
        for u in range(stride):
            x = phi @ x + chol @ xi[k, u] + impulses[k, u]
        if k >= burn:
            q, p = x
            sums += (q * q, p * p, q * p, q, p)
            post.append(q)
    segs = np.array(post[: len(post) // seg_len * seg_len]).reshape(-1, seg_len, x.shape[1])
    spec = np.fft.rfft(segs * np.hanning(seg_len)[:, None], axis=1)[:, bins]
    return x, sums, (np.abs(spec) ** 2).sum(axis=0)


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
    impulses = 3.0 * rng.standard_normal((n_total, stride, 2, nb))
    bins = np.arange(3, 12)
    x, sums, power = _reference_loop(s, dt, stride, xi, impulses, burn, seg_len, bins)

    n_seg = (n_total - burn) // seg_len
    pgram = _Periodogram(bins, np.hanning(seg_len), n_seg, 1.0, nb)
    matrix = _step_matrix(s, noise_strengths(s), dt / stride, stride, True)
    chain = _Chain(matrix, nb, cap, burn, pgram)
    inputs = np.concatenate((xi, impulses), axis=2).reshape(n_total, 4 * stride, nb)
    for j in range(0, n_total, cap):
        chain.advance(inputs[j : j + cap])
    for got, want in ((chain.rows[0, :2], x), (chain.sums, sums), (pgram.power, power)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_zero_noise_drive_matches_fine_reference():
    # a deterministic drive enters through the step integral of its linear
    # hold; RK4 on that same piecewise-linear force at 1/64 of the step agrees
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    a, h, n = _drift(s), 0.5 * dt_bound(s), 400
    force = ForcePulse(f0=5.0, sigma=6.0, t1=20.0, omega_f=1.1)
    samples = force(np.arange(n + 1) * h)

    def rhs(x, f):
        return a @ x + np.array([0.0, f])

    ref, x, sub = [np.zeros(2)], np.zeros(2), h / 64
    for k in range(n):
        for m in range(64):
            frac = np.array([m, m + 0.5, m + 1]) / 64
            f0, fm, f1 = samples[k] + (samples[k + 1] - samples[k]) * frac
            k1 = rhs(x, f0)
            k2 = rhs(x + 0.5 * sub * k1, fm)
            k3 = rhs(x + 0.5 * sub * k2, fm)
            x = x + sub / 6.0 * (k1 + 2 * k2 + 2 * k3 + rhs(x + sub * k3, f1))
        ref.append(x)
    ref = np.array(ref)
    assert np.abs(ref[:, 0]).max() > 10.0  # the pulse drives the mirror well off zero

    impulses = _drive_impulses(force, a, h, n)
    for stride in (1, 2):
        matrix = _step_matrix(s, noise_strengths(s), h, stride, True)
        chain = _Chain(matrix, 1, n // stride, 0)
        inputs = np.concatenate((np.zeros((n, 2, 1)), impulses), axis=1)
        chain.advance(inputs.reshape(n // stride, 4 * stride, 1))
        got = chain.rows[1:, :2, 0]  # the states after each step
        np.testing.assert_allclose(got, ref[stride::stride], rtol=0, atol=1e-6 * np.abs(ref).max())


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


def test_compare_zero_error_passes_only_an_exact_match():
    # moments and spectrum bins share one rule for a zero standard error
    omegas = np.array([0.9, 1.0, 1.1])
    spectrum = SpectrumEstimate(omegas, np.array([2.0, 5.0, 2.0]), np.array([0.1, 0.0, 0.0]))
    stats = EnsembleStats(
        q2=1.0, q2_err=0.0, p2=2.0, p2_err=0.0, qp=0.0, qp_err=0.05,
        mean_q=0.0, mean_q_err=0.1, mean_p=0.0, mean_p_err=0.1,
        seed=1, n_traj=10, dt=0.01, spectrum=spectrum,
    )
    moments = compare(MomentSet(q2=1.0, p2=2.5, qp=0.0), stats)
    assert [e.z for e in moments.entries] == [0.0, math.inf, 0.0]
    assert moments.failures == ("p2",)
    bins = compare(SpectrumSeries(omegas, np.array([2.0, 5.0, 2.5]), "PositionNoise", "x"), stats)
    assert [e.z for e in bins.entries] == [0.0, 0.0, math.inf]
    assert bins.failures == ("bin omega=1.1",)


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
    # a slow resonant pulse displaces the ensemble mean away from zero; the
    # window averages 90 time units (720 default steps) after a 360-unit burn-in
    s = SchemeParams(scheme=Scheme.NONE, quality=30.0, zeta=1.0, theta=1.0, eta=1.0)
    force = ForcePulse(f0=5.0, sigma=50.0, t1=120.0, omega_f=1.0)
    driven = simulate(s, SimConfig(n_traj=64, seed=4, n_steps=720), force=force)
    quiet = simulate(s, SimConfig(n_traj=64, seed=4, n_steps=720))
    assert driven.q2 > 10.0 * quiet.q2

    # closed-loop cold damping: the drive's impulses add to the band-limited
    # force noise, whose mean is zero, so the ensemble mean is the noiseless
    # response averaged over the window (states after steps 1..n of a quasi-static push)
    cd = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    push = ForcePulse(f0=20.0, sigma=20.0, t1=100.0, omega_f=0.0)
    stats = simulate(cd, SimConfig(n_traj=256, seed=8, burn_in_steps=0, n_steps=1600), force=push)
    a = np.array([[0.0, 1.0], [-1.0, -cd.damping]])
    t = stats.dt * np.arange(1, 1601)
    sol = solve_ivp(lambda u, x: a @ x + [0.0, push(u)], (0.0, t[-1]), [0.0, 0.0], t_eval=t,
                    method="DOP853", rtol=1e-10, atol=1e-12)
    assert sol.y[0].mean() > 100.0 * stats.mean_q_err  # the push stands far out of the noise
    assert stats.mean_q == pytest.approx(sol.y[0].mean(), abs=3.0 * stats.mean_q_err)
    assert stats.mean_p == pytest.approx(sol.y[1].mean(), abs=3.0 * stats.mean_p_err)
