"""Monte Carlo integrator tests: statistics, determinism, cross-validation."""

import json
import math
import re
import sys
import threading
import tracemalloc
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
    _Normals,
    _Periodogram,
    _band_grid,
    _band_response,
    _batch_rng,
    _check_band_budget,
    _direct_sum,
    _drive_response,
    _fast_len,
    _resolve_config,
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


def test_feedback_dominated_cold_damping_matches_the_band_spectrum():
    # the narrow band (0, 3.2) at Gamma = 0.22: band-force feedback is 97% of
    # <Q^2>, so the band path carries the result.  The reference integrates
    # the classical spectrum the oracle simulates, and its w^2 moment for
    # <P^2> (P = dQ/dt without stochastic cooling); beyond the reservoir
    # cutoff both lose below 1e-4.  A 2% error in d_fb_cd moves p2 by z = +4.8
    # at this seed, +4.7 to +7.9 over seeds 1-5
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=0.1, theta=10.0, eta=0.8)
    assert s.feedback_band() == pytest.approx((0.0, 3.2))

    def moment(power):
        def integrand(w):
            return w**power * position_noise_spectrum(s, w, thermal="classical") / math.pi

        return quad(integrand, 0.0, s.cutoff_reservoir, points=[1.0, 3.2], limit=200)[0]

    stats = simulate(s, SimConfig(n_traj=1024, seed=1))
    report = compare(MomentSet(q2=moment(0), p2=moment(2), qp=0.0), stats)
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
    raise AssertionError("band-force response synthesized for a refused batch")


def test_band_impulse_budget_refuses_oversized_batches(monkeypatch):
    # 2 GiB: exactly 2^26 steps x 2 x 2 trajectories x 8 B is allowed, one step more is not
    _check_band_budget(2**26, 2)
    with pytest.raises(ValueError, match=r"2\.0 GiB per batch"):
        _check_band_budget(2**26 + 1, 2)
    # wide band at C09's physics: dt_bound is pi/2000, so a default run
    # averages over 868,118 steps after burn-in, and 1000 trajectories would
    # store 12.9 GiB of band response for them
    with pytest.raises(ValueError, match=r"12\.9 GiB per batch \(1000 trajectories x 868118 steps"):
        _check_band_budget(868_118, 1000)
    # the runs refuse before synthesizing anything
    monkeypatch.setattr("mirrorfb.oracle._band_response", _unreachable)
    wide = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8,
                        cutoff_feedback="wide")
    with pytest.raises(ValueError, match=r"12\.9 GiB per batch"):
        simulate(wide, SimConfig(n_traj=1000))
    with pytest.raises(ValueError, match=r"25\.9 GiB per batch \(1000 trajectories x 1736236 steps"):
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
    sigma = _smith_fixed_point(_step_matrix(s, noise_strengths(s), dt))
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
    matrix = _step_matrix(s, ns, dt)
    assert matrix.shape == (2, 4)  # [Phi, L]
    block = expm(np.block([[-a, np.diag([ns.d_q, ns.d_p])], [np.zeros((2, 2)), a.T]]) * dt)
    np.testing.assert_allclose(matrix[:, :2], expm(a * dt), rtol=1e-13, atol=1e-14)
    want = block[2:, 2:].T @ block[:2, 2:]
    got = matrix[:, 2:] @ matrix[:, 2:].T
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_steps": 1},
        {"n_steps": 0},
        {"n_steps": -5},
        {"burn_in_steps": -1},
        pytest.param({"n_steps": 15, "estimator": "spectrum"}, id="spectrum-15-steps"),
    ],
)
def test_sim_config_rejects_short_runs(kwargs):
    # SimConfig refuses the first four; a spectrum segment needs 16 steps
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    with pytest.raises(ValueError, match=">= 2|>= 0|too short for one spectrum segment"):
        simulate(s, SimConfig(n_traj=4, **kwargs))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        pytest.param({"n_traj": 1}, "n_traj must be >= 2", id="one_trajectory"),
        pytest.param({"estimator": "welch"}, "estimator must be 'moments' or 'spectrum', got 'welch'",
                     id="unknown_estimator"),
        pytest.param({"seed": -1}, "seed must be >= 0, got -1", id="negative_seed"),
    ],
)
def test_library_validation_raises(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(**{"n_traj": 4, **kwargs})


@pytest.mark.parametrize(
    "kwargs",
    [{"n_traj": 64.5}, {"n_traj": 64.0}, {"n_steps": 100.5}, {"burn_in_steps": 10.5}, {"seed": 3.5},
     {"seed": True}, {"n_traj": None}],
    ids=["n_traj_half", "n_traj_float", "n_steps_half", "burn_in_half", "seed_half", "seed_bool",
         "n_traj_none"],
)
def test_sim_config_rejects_non_integer_counts(kwargs):
    # the counts take arrival_signal's n_arrival rule: a bool is not a count, a NumPy integer is
    ((name, value),) = kwargs.items()
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        SimConfig(**{"n_traj": 4, **kwargs})
    SimConfig(**{"n_traj": 4, name: np.int64(64)})


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


def test_seg_time_sets_or_must_match_n_steps():
    # seg_time alone sets n_steps for either estimator; given with n_steps,
    # a disagreement is a configuration error, not a silent override
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    dt = 0.2  # 64 steps put bins 0.49 apart, two of them in the default band
    cfg = SimConfig(n_traj=4, dt=dt, burn_in_steps=0, estimator="spectrum", seg_time=64.4 * dt)
    assert _resolve_config(s, cfg)[2] == 64
    stats = simulate(s, cfg)
    np.testing.assert_allclose(np.diff(stats.spectrum.omegas), 2.0 * math.pi / (64 * dt))
    assert _resolve_config(s, replace(cfg, n_steps=64))[2] == 64
    with pytest.raises(ValueError, match="seg_time .* is not n_steps = 65"):
        simulate(s, replace(cfg, n_steps=65))
    with pytest.raises(ValueError, match="is not n_steps"):
        simulate(s, replace(cfg, n_steps=65, estimator="moments"))
    # the moments estimator reads it too: C09's sc point, 5.0 / dt = 40 steps, not 150 relaxation times
    sc = replace(s, scheme=SC)
    assert _resolve_config(sc, SimConfig(seg_time=5.0))[2] == 40
    moments = replace(cfg, estimator="moments")
    assert _resolve_config(s, moments)[2] == 64
    assert simulate(s, moments).n_traj == 4
    with pytest.raises(ValueError, match="under two steps"):
        simulate(s, replace(moments, seg_time=1.4 * dt))


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
    # the cold-damping force enters as its periodic (q, p) response
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    a, h = _drift(s), 0.125
    rng = np.random.Generator(np.random.Philox(key=1))
    band, coeff = (0.5, 1.5), 0.04
    n_total = 4000  # already a fast FFT length, so the synthesis is not truncated
    rows = _band_response(rng, 256, n_total, n_total, h, band, coeff, a)
    assert rows.shape == (n_total, 2, 256)
    u = rows.transpose(2, 1, 0)

    def expect(i, j, lag):
        # <x_i(t + lag h) x_j(t)> = (coeff/pi) int_band w^2 Re(R_i R_j^* e^{i w lag h}) dw
        def integrand(w):
            r = np.linalg.solve(1j * w * np.eye(2) - a, [0.0, 1.0])  # (i w - A)^{-1} b
            return w * w * (r[i] * np.conj(r[j]) * np.exp(1j * w * lag * h)).real

        return coeff / math.pi * quad(integrand, *band)[0]

    # response covariance, and circular autocovariance at lags 0.5, 2.0 and 2.5
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


def _stepped_band_force(rng, nb, n_fine, n_rows, h, band, coeff, a, start):
    """(q, p) states of the band force by a plain loop over its step impulses from ``start``.

    The coefficients are drawn as _band_response draws them; each bin kicks a
    step by its exact step integral K(w) = (i w - A)^{-1} (e^{i w h} - e^{A h}) b,
    and the states are stepped with SciPy's e^{A h}.  Shape (n_rows, 2, nb).
    """
    from scipy.linalg import expm

    n_fft = _fast_len(n_fine)
    omega = 2.0 * math.pi * np.fft.rfftfreq(n_fft, d=h)
    lo = int(np.searchsorted(omega, band[0], side="left"))
    hi = int(np.searchsorted(omega, band[1], side="right"))
    gain = np.sqrt(0.5 * n_fft * coeff / h) * omega[lo:hi]
    coef = rng.standard_normal((nb, 2 * (hi - lo))).view(np.complex128) * gain
    phi = expm(a * h)
    lift = np.exp(1j * omega[lo:hi] * h)[:, None] * np.array([0.0, 1.0]) - phi[:, 1]
    kernel = np.array([np.linalg.solve(1j * w * np.eye(2) - a, v) for w, v in zip(omega[lo:hi], lift)])
    spec = np.zeros((nb, 2, len(omega)), dtype=np.complex128)
    spec[:, :, lo:hi] = coef[:, None] * kernel.T
    impulses = np.fft.irfft(spec, n=n_fft)
    x = np.empty((n_rows, 2, nb))
    x[0] = start
    for k in range(n_rows - 1):
        x[k + 1] = phi @ x[k] + impulses[..., k].T
    return x


@pytest.mark.parametrize(
    "burn, n_steps, sub",
    [(0, 300, 1), (91, 200, 1), (0, 292, 2), (100, 200, 2)],
    ids=["single-no-burn-in-wrapped", "single-burn-in-padded", "paired-no-burn-in-padded",
         "paired-burn-in-wrapped"],
)
def test_band_response_is_the_stepped_impulse_response(burn, n_steps, sub):
    # the periodic response is what stepping the band force's exact impulses
    # from its own first row gives, on every later window row; the period is
    # n_fine's FFT length whatever the burn-in: n_fine = 300 and 600 are FFT
    # lengths, so the window of the unburned runs spans a whole period, and
    # 291 and 584 are padded to 300 and 600
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    a, coeff, band = _drift(s), noise_strengths(s).d_fb_cd, s.feedback_band()
    h, nb = 0.5 * dt_bound(s) / sub, 5
    n_rows, n_fine = sub * n_steps, sub * (burn + n_steps)
    rows = _band_response(np.random.default_rng(11), nb, n_fine, n_rows, h, band, coeff, a)
    assert rows.shape == (n_rows, 2, nb)
    want = _stepped_band_force(np.random.default_rng(11), nb, n_fine, n_rows, h, band, coeff, a, rows[0])
    np.testing.assert_allclose(rows, want, rtol=0, atol=1e-12 * np.abs(want).max())


def _bin_band(lo, hi, n_fft, h):
    """Band edges halfway between rfft bins, so the band holds bins lo .. hi - 1 exactly."""
    step = 2.0 * math.pi / (n_fft * h)
    return max(0.0, (lo - 0.5) * step), (hi - 0.5) * step


@pytest.mark.parametrize(
    "n_fine, n_burn, bins, direct",
    [(300, 0, (0, 6), True), (292, 40, (5, 12), True), (64, 0, (3, 9), True), (64, 0, (3, 10), False)],
    ids=["bin-0-wrapped", "padded-burn-in", "just-below-threshold", "just-above-threshold"],
)
def test_direct_band_sum_is_the_irfft(n_fine, n_burn, bins, direct, monkeypatch):
    # both evaluators turn the same draws into the same rows; the rule picks
    # the direct sum while rows x bins <= n_fft log2 n_fft: at n_fft = 64,
    # 64 x 6 = 384 <= 384 < 64 x 7.  At n_fine = 300 = n_fft the rows span
    # the whole period
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    a, coeff, h, nb = _drift(s), noise_strengths(s).d_fb_cd, 0.5 * dt_bound(s), 5
    n_fft = _fast_len(n_fine)
    assert _direct_sum(n_fine - n_burn, bins[1] - bins[0], n_fft) is direct
    band = _bin_band(*bins, n_fft, h)
    for b in range(3):
        got = {}
        for choice in (True, False):
            monkeypatch.setattr("mirrorfb.oracle._direct_sum", lambda *args, choice=choice: choice)
            got[choice] = _band_response(_batch_rng(17, b), nb, n_fine, n_fine - n_burn, h, band, coeff, a)
        rows, want_rows = got[True], got[False]
        assert rows.shape == want_rows.shape == (n_fine - n_burn, 2, nb)
        scale = np.abs(want_rows).max()
        assert scale > 0
        np.testing.assert_allclose(rows, want_rows, rtol=0, atol=1e-12 * scale)


def test_direct_sum_basis_stays_within_one_fft_block():
    # a long burn-in makes n_fft log2 n_fft large; the direct sum's basis,
    # rows x bins, still stops at 2^20 entries
    n_fft = 2**20
    assert _direct_sum(1024, 1024, n_fft)
    assert not _direct_sum(1024, 1025, n_fft)
    assert 1024 * 1025 < n_fft * math.log2(n_fft)


def _irfft_band_response(rng, nb, n_fine, n_rows, h, band, coeff, a):
    """The band synthesis as one blocked irfft per trajectory, for a byte-level comparison."""
    n_fft = _fast_len(n_fine)
    omega = 2.0 * math.pi * np.fft.rfftfreq(n_fft, d=h)
    lo = int(np.searchsorted(omega, band[0], side="left"))
    hi = int(np.searchsorted(omega, band[1], side="right"))
    gain = np.sqrt(0.5 * n_fft * coeff / h) * omega[lo:hi]
    coef = rng.standard_normal((nb, 2 * (hi - lo))).view(np.complex128) * gain
    kernel = np.linalg.solve(1j * omega[lo:hi, None, None] * np.eye(2) - a, np.array([0.0, 1.0])).T
    rows = max(1, (1 << 20) // (2 * len(omega)))
    spec = np.zeros((min(rows, nb), 2, len(omega)), dtype=np.complex128)
    out = np.empty((n_rows, 2, nb))
    for r in range(0, nb, rows):
        m = min(rows, nb - r)
        spec[:m, :, lo:hi] = coef[r : r + m, None] * kernel
        wave = np.fft.irfft(spec[:m], n=n_fft)
        out[..., r : r + m] = wave[..., :n_rows].transpose(2, 1, 0)
    return out


def _spectrum_shape():
    """The benchmark's spectrum run: cold damping, Q = 100, 256 trajectories at dt_bound,
    6 relaxation times burned and a 24 pi relaxation-time window."""
    s = SchemeParams(scheme=CD, g=10.0, quality=100.0, zeta=10.0, theta=1e5, eta=0.8)
    h = dt_bound(s)
    n_steps = round(24.0 * math.pi / s.damping / h)
    burn = math.ceil(6.0 / s.damping / h)
    return s, _drift(s), noise_strengths(s).d_fb_cd, h, 256, n_steps, burn


def test_long_window_band_response_keeps_the_irfft_bytes():
    # the benchmark's spectrum run reads most rows, so it keeps the irfft,
    # byte for byte; its 2961 fine steps pad to n_fft = 3000, and a burn-in
    # of 258 steps makes n_fine = n_fft, unpadded
    s, a, coeff, h, nb, n_steps, padded_burn = _spectrum_shape()
    drive = ForcePulse(f0=5.0, sigma=6.0, t1=20.0, omega_f=1.1)
    for burn, unpadded in ((padded_burn, False), (3000 - n_steps, True)):
        n_fft, (lo, hi) = _fast_len(burn + n_steps), s.feedback_band()
        assert (n_fft == burn + n_steps) is unpadded
        omega = 2.0 * math.pi * np.fft.rfftfreq(n_fft, d=h)
        n_bins = np.count_nonzero((omega >= lo) & (omega <= hi))
        assert not _direct_sum(n_steps, n_bins, n_fft)
        args = (nb, burn + n_steps, n_steps, h, s.feedback_band(), coeff, a)
        rows, want_rows = (f(_batch_rng(3, 0), *args) for f in (_band_response, _irfft_band_response))
        assert rows.tobytes() == want_rows.tobytes()
        # the window is a time-major view of a trajectory-major buffer, and
        # a drive added through it lands on the same rows
        assert rows.shape == (n_steps, 2, nb) and rows.T.flags.c_contiguous and not rows.flags.owndata
        push = _drive_response(drive, a, h, burn + n_steps)[burn + 1 :, :, None]
        rows += push
        assert rows.tobytes() == (want_rows + push).tobytes()


@pytest.mark.parametrize("burn", [None, 60_000], ids=["spectrum-run", "long-burn-in"])
def test_band_response_holds_the_window_and_one_irfft_block(burn):
    # beyond the window, one irfft block of at most 2 MiB and its inputs are
    # held at a time, never the whole period, so a long burn-in (n_fft =
    # 60 750 for a 300-step window) stays within the same 8 MiB over the
    # window as the benchmark's spectrum run
    s, a, coeff, h, nb, n_steps, spectrum_burn = _spectrum_shape()
    if burn is None:
        burn = spectrum_burn
    else:
        n_steps = 300
    tracemalloc.start()
    try:
        rows = _band_response(_batch_rng(3, 0), nb, burn + n_steps, n_steps, h, s.feedback_band(), coeff, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (n_steps, 2, nb)
    assert peak <= n_steps * 2 * nb * 8 + 8 * 2**20


def test_chain_adds_the_response_in_place():
    # a chunk with an input response allocates well under one (n, 2, nb)
    # chunk: the response is added into the chain's buffer, read through the
    # band response's time-major view.  A long window gets one chunk of
    # _CHUNK bytes of (q, p, xi) rows: 128 steps of 256 trajectories
    s, nb = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8), 256
    chain = _Chain(_step_matrix(s, noise_strengths(s), 0.5 * dt_bound(s)), nb, 10**6)
    n = len(chain.rows) - 1
    assert n == 128 and n * 4 * nb * 8 == _CHUNK
    rng = np.random.default_rng(2)
    normals = rng.standard_normal((n, 2, nb))
    response = rng.standard_normal((nb, 2, n)).transpose(2, 1, 0)
    chain.advance(normals, response)  # settle first-call allocations
    tracemalloc.start()
    try:
        chain.advance(normals, response)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 2 * nb * 8 / 2


def test_batches_draw_apart_and_runs_repeat(monkeypatch):
    # three batches of at most 4: the same seed repeats every statistic, the
    # batches' first normals differ, and the direct band sum gives the
    # irfft's statistics to rounding
    monkeypatch.setattr("mirrorfb.oracle._BATCH", 4)
    monkeypatch.setattr("mirrorfb.oracle._Chain", _StartRecorder)
    monkeypatch.setattr(_StartRecorder, "starts", [])
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    cfg = SimConfig(n_traj=10, seed=8, n_steps=64, burn_in_steps=16)
    first = simulate(s, cfg)
    assert simulate(s, cfg) == first
    normals = [xi[0, :, 0] for _, xi, _ in _StartRecorder.starts[:3]]
    assert len({tuple(x) for x in normals}) == 3
    other = simulate(s, replace(cfg, seed=9))
    assert (other.q2, other.p2, other.qp) != (first.q2, first.p2, first.qp)
    for choice in (True, False):
        monkeypatch.setattr("mirrorfb.oracle._direct_sum", lambda *args, choice=choice: choice)
        forced = simulate(s, cfg)
        for name in ("q2", "p2", "qp", "mean_q", "mean_p"):
            assert getattr(forced, name) == pytest.approx(getattr(first, name), rel=1e-12, abs=1e-12)


def _reference_loop(s, dt, stride, xi, response, start, bins):
    """Plain per-fine-step recurrence of the exact step, Phi and Sigma from SciPy; running sums.

    The states y carry the white noise from ``start``; the reduced states
    are y plus the response rows.
    """
    from scipy.linalg import expm

    ns, h = noise_strengths(s), dt / stride
    a = np.array([[-s.gamma_m * s.g, 1.0], [-1.0, -s.gamma_m]])  # stochastic cooling
    phi = expm(a * h)
    # Van Loan 1978: e^{[[-A, D], [0, A^T]] h} holds Sigma_h = F22^T F12
    block = expm(np.block([[-a, np.diag([ns.d_q, ns.d_p])], [np.zeros((2, 2)), a.T]]) * h)
    chol = np.linalg.cholesky(block[2:, 2:].T @ block[:2, 2:])
    y = start.copy()
    sums, post = np.zeros((5, xi.shape[-1])), []
    for k in range(len(xi)):
        for u in range(stride):
            y = phi @ y + chol @ xi[k, u]
        q, p = y + response[k, -1]
        sums += (q * q, p * p, q * p, q, p)
        post.append(q)
    spec = np.fft.rfft(np.array(post) * np.hanning(len(post))[:, None], axis=0)[bins]
    return y, sums, np.abs(spec) ** 2, q


@pytest.mark.parametrize("stride", [1, 2])
def test_chunked_stepper_matches_plain_loop(stride):
    # pre-drawn normals and input response rows crossing chunk boundaries;
    # the periodogram's one window spans all n_total rows, so it crosses
    # them too.  At stride 2 the chain steps dt/2, and its odd states are
    # the loop's dt states.  The chain starts after burn-in, so every state
    # counts; 1024 trajectories make a chunk of 32 steps
    s = SchemeParams(scheme=SC, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    nb, dt = 1024, 0.5 * dt_bound(s)
    chain = _Chain(_step_matrix(s, noise_strengths(s), dt / stride), nb, 10**6, stride)
    chunk = len(chain.rows) - 1
    assert chunk == 32
    n_total = 3 * (chunk // stride) + 50
    rng = np.random.default_rng(5)
    xi = rng.standard_normal((n_total, stride, 2, nb))
    response = 3.0 * rng.standard_normal((n_total, stride, 2, nb))
    start = 10.0 * rng.standard_normal((2, nb))
    bins = np.arange(3, 12)
    y, sums, power, q = _reference_loop(s, dt, stride, xi, response, start, bins)

    pgram = _Periodogram(bins, n_total, nb) if stride == 1 else None
    chain.rows[0, :2] = start
    xi, response = (u.reshape(stride * n_total, 2, nb) for u in (xi, response))
    for j in range(0, stride * n_total, chunk):
        x = chain.advance(xi[j : j + chunk], response[j : j + chunk])
        if pgram is not None:
            pgram.add(x[:, 0])
    checks = [(chain.rows[0, :2], y), (chain.sums[stride - 1], sums), (x[-1, 0], q)]
    if pgram is not None:  # power(dt) is dt |DFT|^2 / sum(taper^2)
        checks.append((pgram.power(1.0).T * np.sum(pgram.taper**2), power))
    for got, want in checks:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class _StartRecorder(_Chain):
    """_Chain that records its starting state, first normals and first input response."""

    starts: list = []

    def advance(self, normals, response=None):
        if self.steps == 0:
            first = np.zeros((len(normals), 2, 1)) if response is None else response.copy()
            self.starts.append((self.rows[0, :2].copy(), normals.copy(), first))
        return super().advance(normals, response)


@pytest.mark.parametrize(
    "scheme, g, quality",
    [(SC, 10.0, 50.0), (CD, 10.0, 50.0), (Scheme.NONE, 0.0, 50.0), (SC, 1e4, 0.5)],
    ids=["sc", "cd", "none", "sc-overdamped"],
)
def test_burn_in_jump_is_the_stepped_burn_in(scheme, g, quality, monkeypatch):
    # B steps of the exact step from rest are, in law, one step of length B h:
    # noise covariance sum_{j<B} Phi^j Sigma_h Phi^jT.  The chain starts at
    # that jump's noise alone, drawn after the band coefficients: the band
    # response is a stationary input, not a state.  A drive enters only
    # through its response from rest, rows B + 1 on
    s = SchemeParams(scheme=scheme, g=g, quality=quality, zeta=10.0, theta=1e3, eta=0.8)
    ns, a, nb, seed = noise_strengths(s), _drift(s), 4, 31
    cfg = SimConfig(n_traj=nb, seed=seed, n_steps=2)
    h, burn, _ = _resolve_config(s, cfg)
    step = _step_matrix(s, ns, h)
    jump = _step_matrix(s, ns, burn * h)
    sigma = np.zeros((2, 2))
    for _ in range(burn):
        sigma = step[:, :2] @ sigma @ step[:, :2].T + step[:, 2:] @ step[:, 2:].T
    chol = jump[:, 2:]
    np.testing.assert_allclose(chol @ chol.T, sigma, rtol=1e-12, atol=1e-12 * np.abs(sigma).max())

    def expected_start(n_burn, n_steps):
        rng = _batch_rng(seed, 0)
        if ns.d_fb_cd > 0:
            _band_response(rng, nb, n_burn + n_steps, n_steps, h, s.feedback_band(), ns.d_fb_cd, a)
        if n_burn:
            return jump[:, 2:] @ rng.standard_normal((2, nb)), rng
        return np.zeros((2, nb)), rng

    drive = ForcePulse(f0=1e3 * s.damping, sigma=burn * h / 20, t1=0.8 * burn * h, omega_f=1.0)
    monkeypatch.setattr("mirrorfb.oracle._Chain", _StartRecorder)
    monkeypatch.setattr(_StartRecorder, "starts", [])
    simulate(s, cfg, force=drive)
    simulate(s, cfg)
    (driven, _, pushed), (quiet, _, still) = _StartRecorder.starts
    want, _ = expected_start(burn, 2)
    np.testing.assert_array_equal(driven, quiet)
    np.testing.assert_allclose(driven, want, rtol=0, atol=1e-12 * np.abs(want).max())
    push = _drive_response(drive, a, h, burn + 2)[burn + 1 :, :, None]
    assert np.abs(push).max() > 100.0 * np.abs(still).max()  # the drive stands out of the band force
    np.testing.assert_allclose(pushed - still, np.broadcast_to(push, pushed.shape),
                               rtol=0, atol=1e-12 * np.abs(push).max())

    # burn_in_steps=0: no jump, so every scheme starts at zero, and the first
    # normals drawn after the band coefficients feed the first step; 64 steps
    # put band bins on the FFT grid
    monkeypatch.setattr(_StartRecorder, "starts", [])
    simulate(s, replace(cfg, burn_in_steps=0, n_steps=64), force=drive)
    (start, normals, _), = _StartRecorder.starts
    want, rng = expected_start(0, 64)
    np.testing.assert_array_equal(start, want)
    np.testing.assert_array_equal(normals, rng.standard_normal((64, 2, nb)))


def test_chain_buffer_holds_at_most_the_window(monkeypatch):
    # the (q, p, xi) buffer holds the window or one chunk of _CHUNK bytes,
    # whichever is shorter: C09's paired window of 146 fine steps gets 146
    # steps, a long window 16 steps of 2048 trajectories or 128 of 256
    capacities = []

    class Recorder(_Chain):
        def __init__(self, *args):
            super().__init__(*args)
            capacities.append(len(self.rows) - 1)

    monkeypatch.setattr("mirrorfb.oracle._Chain", Recorder)
    s = SchemeParams(scheme=SC, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    paired_timestep_stats(s, SimConfig(n_traj=2, n_steps=73, burn_in_steps=16))
    simulate(s, SimConfig(n_traj=2048, n_steps=50, burn_in_steps=16))
    simulate(s, SimConfig(n_traj=256, n_steps=300, burn_in_steps=16))
    assert capacities == [146, 16, 128]
    assert 16 * 4 * 2048 * 8 == 128 * 4 * 256 * 8 == _CHUNK


def test_zero_noise_drive_matches_fine_reference():
    # a deterministic drive enters as its response from rest, stepped with the
    # step integral of its linear hold; RK4 on that same piecewise-linear force
    # at 1/64 of the step agrees
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

    got = _drive_response(force, a, h, n)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-6 * np.abs(ref).max())


def test_instability_guard_trips():
    s = SchemeParams(scheme=Scheme.NONE, quality=30.0, zeta=1.0, theta=10.0, eta=1.0)
    kick = ForcePulse(f0=1e12, sigma=5.0, t1=10.0, omega_f=1.0)
    threads = set(threading.enumerate())
    with pytest.raises(InstabilityError, match="guard"):
        simulate(s, SimConfig(n_traj=4, seed=1, n_steps=4000), force=kick)
    assert set(threading.enumerate()) == threads  # the batch's draw thread is joined


def test_stream_draws_do_not_depend_on_the_shapes():
    # the helper thread rests on this property of numpy's Generator: a
    # stream's standard_normal consumes its normals one at a time, so any
    # sequence of shapes reads the values of one flat draw
    pick = np.random.default_rng(6)
    shapes = [tuple(int(n) for n in pick.integers(1, 60, size=pick.integers(0, 4))) for _ in range(300)]
    shapes += [(16, 2, 2048), (1,), (43, 2 * 33), (2, 3)]
    stream = _batch_rng(12, 3)
    parts = [np.ravel(stream.standard_normal(shape)) for shape in shapes]
    flat = _batch_rng(12, 3).standard_normal(sum(len(u) for u in parts) + 1)
    np.testing.assert_array_equal(np.concatenate(parts), flat[:-1])
    assert stream.standard_normal() == flat[-1]


class _ServedRecorder(_Normals):
    """_Normals that keeps a copy of every block it serves and its plan when the batch ends."""

    batches: list = []

    def __init__(self, rng, plan):
        super().__init__(rng, plan)
        self.blocks = []

    def standard_normal(self, shape):
        block = super().standard_normal(shape)
        self.blocks.append(block.copy())
        return block

    def __exit__(self, *exc):
        super().__exit__(*exc)
        self.batches.append((list(self.plan), self.served, self.blocks))


@pytest.mark.parametrize("run", ["spectrum", "paired-cd"])
def test_helper_serves_the_serial_stream(run, monkeypatch):
    # the benchmark's spectrum run draws six irfft blocks of coefficients,
    # the jump and 22 chunks of at most 128 steps.  A paired C09 cd run over
    # two batches draws the direct sum's block, the jump, and its 146-step
    # window as nine chunks of 16 steps and one of 2, then as one chunk for
    # 52 trajectories.  Each batch reads its whole plan, and every block
    # holds the serial stream's values
    monkeypatch.setattr("mirrorfb.oracle._Normals", _ServedRecorder)
    monkeypatch.setattr(_ServedRecorder, "batches", [])
    if run == "spectrum":
        s, a, coeff, h, nb, n_steps, burn = _spectrum_shape()
        cfg = SimConfig(n_traj=nb, seed=21, dt=h, n_steps=n_steps, burn_in_steps=burn, estimator="spectrum")
        simulate(s, cfg)
        assert n_steps == 21 * 128 + 54
        chunks, direct = [(128, 2, nb)] * 21 + [(54, 2, nb)], False
    else:
        s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
        h = 0.5 * dt_bound(s)
        n_steps, burn = math.ceil(2.0 / s.damping / h), math.ceil(6.0 / s.damping / h)
        cfg = SimConfig(n_traj=2048 + 52, seed=22, dt=h, n_steps=n_steps, burn_in_steps=burn)
        paired_timestep_stats(s, cfg)
        h, n_steps, burn, nb = h / 2, 2 * n_steps, 2 * burn, 2048
        chunks, direct = [(16, 2, nb)] * 9 + [(2, 2, nb)], True
    grid = _band_grid(nb, burn + n_steps, n_steps, h, s.feedback_band())
    assert grid[4] is direct and len(grid[5]) == (1 if direct else 6)
    assert _ServedRecorder.batches[0][0] == grid[5] + [(2, nb)] + chunks
    assert len(_ServedRecorder.batches) == math.ceil(cfg.n_traj / 2048)
    for b, (plan, served, blocks) in enumerate(_ServedRecorder.batches):
        assert served == len(plan) == len(blocks)
        stream = _batch_rng(cfg.seed, b)
        for shape, block in zip(plan, blocks):
            np.testing.assert_array_equal(block, stream.standard_normal(shape))


def test_helper_serves_the_stream_under_thread_switching():
    # four readers, each with its own draw thread, on two cores, with the
    # interpreter switching threads every microsecond: every reader still
    # gets its batch's serial stream, block for block
    plan = [(int(n),) for n in np.random.default_rng(3).integers(1, 50, 400)]
    served = {}

    def read(b):
        with _Normals(_batch_rng(5, b), plan) as rng:
            served[b] = [rng.standard_normal(shape) for shape in plan]

    readers = [threading.Thread(target=read, args=(b,)) for b in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    for b in range(4):
        stream = _batch_rng(5, b)
        for shape, block in zip(plan, served[b], strict=True):
            np.testing.assert_array_equal(block, stream.standard_normal(shape))


class _FailingStream:
    """A stream whose second draw raises MemoryError."""

    def __init__(self, seed, b):
        self.rng, self.draws = _batch_rng(seed, b), 0

    def standard_normal(self, shape):
        self.draws += 1
        if self.draws == 2:
            raise MemoryError("second block")
        return self.rng.standard_normal(shape)


def test_helper_thread_ends_with_its_batch(monkeypatch):
    # no draw thread outlives simulate or paired_timestep_stats, and a draw
    # that raises reaches the caller with its own type after the thread ends
    s = SchemeParams(scheme=CD, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    cfg = SimConfig(n_traj=10, seed=4, n_steps=64, burn_in_steps=16)
    threads = set(threading.enumerate())
    simulate(s, cfg)
    paired_timestep_stats(s, cfg)
    assert set(threading.enumerate()) == threads
    # the guard trips in the first of 250 chunks of 16 steps, so the thread
    # is stopped while it waits to draw ahead
    quiet = SchemeParams(scheme=Scheme.NONE, quality=30.0, zeta=1.0, theta=10.0, eta=1.0)
    kick = ForcePulse(f0=1e12, sigma=5.0, t1=10.0, omega_f=1.0)
    with pytest.raises(InstabilityError, match="at step 2896 of"):
        simulate(quiet, SimConfig(n_traj=2048, seed=1, n_steps=4000), force=kick)
    assert set(threading.enumerate()) == threads
    monkeypatch.setattr("mirrorfb.oracle._batch_rng", _FailingStream)
    for run in (simulate, paired_timestep_stats):
        with pytest.raises(MemoryError, match="second block") as failure:
            run(s, cfg)
        assert failure.type is MemoryError
        assert set(threading.enumerate()) == threads
    with pytest.raises(RuntimeError, match="where the plan has"):
        with _Normals(_batch_rng(1, 0), [(2, 3)]) as rng:
            rng.standard_normal((3, 2))
    # a batch that leaves the with block normally must have read its whole plan
    with pytest.raises(RuntimeError, match="read 1 of 2 planned blocks"):
        with _Normals(_batch_rng(1, 0), [(2, 3), (2, 3)]) as rng:
            rng.standard_normal((2, 3))
    assert set(threading.enumerate()) == threads


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


@pytest.mark.parametrize(
    "analytic, error, message",
    [
        (SpectrumSeries(np.array([1.0]), np.array([1.0]), "PositionNoise", "x"), ValueError,
         "carry no spectrum"),
        ({"q2": 1.0}, TypeError, "cannot compare against dict"),
    ],
    ids=["no-spectrum", "unsupported-type"],
)
def test_compare_rejects_what_it_cannot_score(analytic, error, message):
    s = SchemeParams(scheme=Scheme.NONE, quality=30.0, zeta=5.0, theta=100.0, eta=1.0)
    stats = simulate(s, SimConfig(n_traj=4, seed=2, n_steps=64))
    with pytest.raises(error, match=message):
        compare(analytic, stats)


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


@pytest.mark.parametrize("scheme", [SC, CD])
def test_paired_fine_sampling_is_the_half_step_run(scheme):
    # one chain at dt/2 serves both samplings: its fine statistics are
    # simulate's at dt/2 on the same seed, with twice the steps and burn-in,
    # up to the rounding of summing odd and even states apart
    s = SchemeParams(scheme=scheme, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    dt, n_steps, burn = 0.5 * dt_bound(s), 600, 100
    push = ForcePulse(f0=20.0, sigma=20.0, t1=40.0, omega_f=1.0)
    cfg = SimConfig(n_traj=64, seed=17, dt=dt, n_steps=n_steps, burn_in_steps=burn)
    _, fine = paired_timestep_stats(s, cfg, force=push)
    half = replace(cfg, dt=dt / 2, n_steps=2 * n_steps, burn_in_steps=2 * burn)
    single = simulate(s, half, force=push)
    assert fine.dt == single.dt
    scale = {"q2": single.q2, "p2": single.p2, "qp": math.sqrt(single.q2 * single.p2),
             "mean_q": math.sqrt(single.q2), "mean_p": math.sqrt(single.p2)}
    for name, size in scale.items():
        assert getattr(fine, name) == pytest.approx(getattr(single, name), rel=0, abs=1e-12 * size)
        err = name + "_err"
        assert getattr(fine, err) == pytest.approx(getattr(single, err), rel=1e-12)


def test_paired_coarse_sampling_is_every_dt():
    # a constant push from rest is followed exactly by the step's linear hold
    # and stands far out of the noise over a short window, so the ensemble
    # means are the noiseless response averaged over the sample points: the
    # dt/2 chain's odd states for dt, all of them for dt/2.  Its even states,
    # half a step early, would move the dt mean by tens of SE
    s = SchemeParams(scheme=SC, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
    dt, n_steps, f0 = 0.5 * dt_bound(s), 16, 1e3
    cfg = SimConfig(n_traj=64, seed=9, dt=dt, n_steps=n_steps, burn_in_steps=0)
    coarse, fine = paired_timestep_stats(s, cfg, force=lambda t: np.full(t.shape, f0))
    a, t = _drift(s), 0.5 * dt * np.arange(1, 2 * n_steps + 1)
    q = solve_ivp(lambda u, x: a @ x + [0.0, f0], (0.0, t[-1]), [0.0, 0.0], t_eval=t,
                  method="DOP853", rtol=1e-12, atol=1e-12).y[0]
    assert q[1::2].mean() - q[0::2].mean() > 20.0 * coarse.mean_q_err
    assert coarse.mean_q == pytest.approx(q[1::2].mean(), abs=3.0 * coarse.mean_q_err)
    assert fine.mean_q == pytest.approx(q.mean(), abs=3.0 * fine.mean_q_err)


def test_mean_response_to_force():
    # a slow resonant pulse displaces the ensemble mean away from zero; the
    # window averages 90 time units (720 default steps) after a 360-unit burn-in
    s = SchemeParams(scheme=Scheme.NONE, quality=30.0, zeta=1.0, theta=1.0, eta=1.0)
    force = ForcePulse(f0=5.0, sigma=50.0, t1=120.0, omega_f=1.0)
    driven = simulate(s, SimConfig(n_traj=64, seed=4, n_steps=720), force=force)
    quiet = simulate(s, SimConfig(n_traj=64, seed=4, n_steps=720))
    assert driven.q2 > 10.0 * quiet.q2

    # closed-loop cold damping: the drive's response adds to the band-limited
    # force's, whose mean is zero, so the ensemble mean is the noiseless
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
