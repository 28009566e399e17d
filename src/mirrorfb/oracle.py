"""Monte Carlo integrator of the classical-equivalent feedback Langevin equations.

Independent cross-check of every closed form: trajectories of

    dQ = (P - delta_sc g gamma_m Q) dt + dW_Q
    dP = (-Q - gamma_m (1 + delta_cd g) P + f(t)) dt + dW_P + dW_fb

are integrated in omega_m = 1 units with a split-step update: damping and
white noise advance by their exact Ornstein-Uhlenbeck propagator (a plain
Euler-Maruyama noise term leaves an O(gamma (1+g) dt) moment bias), while
the conservative rotation keeps the semi-implicit symplectic-Euler form for
long-horizon stability.  White-noise intensities come from the steady
module, and only live channels are drawn (cold damping has no position
noise).  The cold-damping feedback force is band-limited noise with
two-sided density d_fb * omega^2, since white noise cannot carry the
omega^2 spectrum without the loop's own band limit; it is synthesized per
trajectory by drawing only the in-band rfft coefficients of circularly
filtered white noise, with the law the rfft of white noise has, and
inverting them.

One chunked stepper drives both the single chain and the paired dt / dt/2
chains.  Each step of a batch is one matrix product of a stacked (q, p,
inputs) row; the (q, p) rows of a chunk are stored time-major and reduced
after it, and the spectrum estimator accumulates the DFT of its kept bins
chunk by chunk.

Trajectories are independent work units on counter-based (Philox) streams,
one stream per fixed-size batch, so results are bit-reproducible for a
given (seed, n_traj, dt) regardless of how the batches are executed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len

from .core import Scheme, SchemeParams
from .spectra import SpectrumSeries
from .steady import MomentSet, NoiseStrengths, ThermalModel, noise_strengths, steady_moments

_BATCH = 2048  # trajectories per Philox stream
_CHUNK = 256  # fine steps of noise drawn, and of (q, p) rows stored, at a time
_FFT_BLOCK = 1 << 20  # rfft bins per row block of the band-noise synthesis
_RNG_ALGORITHM = "philox4x64(one jumped stream per trajectory batch)"


class InstabilityError(RuntimeError):
    """Trajectory blow-up detected during integration."""


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run configuration (times in 1/omega_m).

    ``dt`` must satisfy dt <= min(1/50, 1/(50 gamma_m (1+g))); leaving it
    None picks half that bound.  ``n_steps`` counts post-burn-in averaging
    steps.  ``fb_band`` overrides the scheme's feedback band for the
    synthesized cold-damping force noise.  The spectrum estimator averages
    tapered periodograms of duration ``seg_time`` (Hann by default; a boxcar
    leaks the resonance peak into the wings) and keeps bins inside
    ``spectrum_band``.
    """

    dt: float | None = None
    n_steps: int | None = None
    n_traj: int = 1000
    seed: int = 12345
    burn_in_steps: int | None = None
    fb_band: tuple[float, float] | None = None
    estimator: str = "moments"
    seg_time: float | None = None
    spectrum_band: tuple[float, float] = (0.5, 1.5)
    window: str = "hann"

    def __post_init__(self):
        if self.n_traj < 2:
            raise ValueError("n_traj must be >= 2 to estimate standard errors")
        if self.estimator not in ("moments", "spectrum"):
            raise ValueError(f"estimator must be 'moments' or 'spectrum', got {self.estimator!r}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.window not in ("hann", "boxcar"):
            raise ValueError(f"window must be 'hann' or 'boxcar', got {self.window!r}")


@dataclass(frozen=True)
class SpectrumEstimate:
    omegas: np.ndarray
    values: np.ndarray
    errors: np.ndarray


@dataclass(frozen=True)
class EnsembleStats:
    """Ensemble moment estimates with standard errors and RNG provenance."""

    q2: float
    q2_err: float
    p2: float
    p2_err: float
    qp: float
    qp_err: float
    mean_q: float
    mean_q_err: float
    mean_p: float
    mean_p_err: float
    seed: int
    n_traj: int
    dt: float
    algorithm: str = _RNG_ALGORITHM
    spectrum: SpectrumEstimate | None = field(default=None, compare=False)

    def to_json(self) -> str:
        # wire format is fixed: exactly these nine fields
        return json.dumps(
            {
                "q2": self.q2,
                "q2_err": self.q2_err,
                "p2": self.p2,
                "p2_err": self.p2_err,
                "qp": self.qp,
                "qp_err": self.qp_err,
                "seed": self.seed,
                "n_traj": self.n_traj,
                "dt": self.dt,
            }
        )


def dt_bound(s: SchemeParams) -> float:
    """Largest admissible timestep, min(1/50, 1/(50 gamma_m (1+g)))."""
    return min(1.0, 1.0 / s.damping) / 50.0


def _resolve_config(s: SchemeParams, cfg: SimConfig) -> tuple[float, int, int]:
    bound = dt_bound(s)
    dt = cfg.dt if cfg.dt is not None else 0.5 * bound
    if dt > bound * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:g} exceeds the stability bound {bound:g}")
    relax = 1.0 / s.damping
    burn = cfg.burn_in_steps if cfg.burn_in_steps is not None else math.ceil(12.0 * relax / dt)
    if cfg.n_steps is not None:
        n_steps = cfg.n_steps
    elif cfg.estimator == "spectrum":
        seg = cfg.seg_time if cfg.seg_time is not None else 48.0 * math.pi * relax
        n_steps = int(round(seg / dt))
    else:
        n_steps = math.ceil(150.0 * relax / dt)
    return dt, burn, n_steps


def _band_noise(
    rng: np.random.Generator,
    nb: int,
    n_total: int,
    dt: float,
    band: tuple[float, float],
    coeff: float,
) -> np.ndarray:
    """Gaussian noise with two-sided PSD coeff * w^2 inside ``band``.

    Circular spectral synthesis, <y(t) y(t')> = int (dw/2pi) S(w) e^{i w (t - t')}.
    Only the in-band coefficients are drawn, with the law the rfft of white
    unit normals has: independent N(0, n/2) real and imaginary parts, and a
    real N(0, n) Nyquist bin.  Returned trajectory-major, shape (nb, n_total).
    """
    n_fft = next_fast_len(n_total, real=True)  # truncating a stationary process is harmless
    omega = 2.0 * math.pi * np.fft.rfftfreq(n_fft, d=dt)
    lo = int(np.searchsorted(omega, band[0], side="left"))
    hi = int(np.searchsorted(omega, band[1], side="right"))
    gain = np.sqrt(0.5 * n_fft * coeff / dt) * omega[lo:hi]
    coef = rng.standard_normal((nb, 2 * (hi - lo))).view(np.complex128) * gain
    if n_fft % 2 == 0 and hi == len(omega) > lo:
        coef[:, -1] = math.sqrt(2.0) * coef[:, -1].real
    rows = max(1, _FFT_BLOCK // len(omega))
    spec = np.zeros((min(rows, nb), len(omega)), dtype=np.complex128)
    out = np.empty((nb, n_total))
    for r in range(0, nb, rows):
        m = min(rows, nb - r)
        spec[:m, lo:hi] = coef[r : r + m]
        out[r : r + m] = np.fft.irfft(spec[:m], n=n_fft, axis=1)[:, :n_total]
    return out


def _ou(rate: float, d: float, h: float) -> tuple[float, float]:
    """Decay factor and noise amplitude of an exact OU sub-step of length h."""
    if rate > 0:
        dec = math.exp(-rate * h)
        return dec, math.sqrt(d * (1.0 - dec * dec) / (2.0 * rate))
    return 1.0, math.sqrt(d * h)


def _step_matrix(
    s: SchemeParams, ns: NoiseStrengths, h: float, stride: int, live_q: bool, forced: bool
) -> np.ndarray:
    """(2, 2 + r) map of a stacked (q, p, inputs) row to the next (q, p).

    One step of length tau = stride * h is

        p' = e^{-g_p tau} p - tau q + i_p,    q' = e^{-a_q tau} q + i_q + tau p'

    with impulses (i_q, i_p) that weight the r inputs: the unit normals of
    each sub-step's live channels, then the force.  A coarse step (stride 2)
    composes its two fine sub-steps' noise, which matches its marginal law
    exactly, so paired chains share random numbers.
    """
    a_q = s.gamma_m * s.g if s.scheme is Scheme.STOCHASTIC_COOLING else 0.0
    g_p = s.damping if s.scheme is Scheme.COLD_DAMPING else s.gamma_m
    dec_q, amp_q = _ou(a_q, ns.d_q, h)
    dec_p, amp_p = _ou(g_p, ns.d_p, h)
    tau = stride * h
    impulses = []
    for later in reversed(range(stride)):  # fine sub-steps left in the step
        if live_q:
            impulses.append((amp_q * dec_q**later, 0.0))
        impulses.append((0.0, amp_p * dec_p**later))
    if forced:
        impulses.append((0.0, tau))
    decay_q, decay_p = math.exp(-a_q * tau), math.exp(-g_p * tau)
    return np.array(
        [
            [decay_q - tau * tau, tau * decay_p, *(iq + tau * ip for iq, ip in impulses)],
            [-tau, decay_p, *(ip for _, ip in impulses)],
        ]
    )


class _Periodogram:
    """Tapered periodograms of consecutive post-burn-in q segments, kept bins only.

    The DFT of the current segment is accumulated chunk by chunk as a matrix
    product with the tapered cos/sin rows of the kept bins, so segments are
    never stored.
    """

    def __init__(self, bins: np.ndarray, taper: np.ndarray, n_seg: int, norm: float, nb: int):
        self.bins = bins
        self.taper = taper
        self.n_seg = n_seg
        self.norm = norm
        self.dft = np.zeros((2 * len(bins), nb))
        self.power = np.zeros((len(bins), nb))

    def add(self, q: np.ndarray, start: int) -> None:
        """Fold in post-burn-in q rows, the first at post-burn-in index ``start``."""
        seg_len = len(self.taper)
        end = min(len(q), self.n_seg * seg_len - start)
        i = 0
        while i < end:
            pos = (start + i) % seg_len
            take = min(end - i, seg_len - pos)
            idx = np.arange(pos, pos + take)
            angle = (np.outer(self.bins, idx) % seg_len) * (2.0 * math.pi / seg_len)
            basis = np.concatenate((np.cos(angle), np.sin(angle))) * self.taper[idx]
            self.dft += basis @ q[i : i + take]
            if pos + take == seg_len:
                k = len(self.bins)
                self.power += self.dft[:k] ** 2 + self.dft[k:] ** 2
                self.dft[:] = 0.0
            i += take

    def mean(self) -> np.ndarray:
        """Per-trajectory mean periodogram, shape (nb, kept bins)."""
        return (self.power * (self.norm / self.n_seg)).T


class _Chain:
    """A batch of trajectories stepped through one step matrix, chunk by chunk.

    Row k of the time-major buffer holds (q, p) before step k and that step's
    inputs, so each step is one matmul writing the (q, p) of row k + 1.  The
    post-burn-in rows of a chunk are reduced after it into the sums of q^2,
    p^2, qp, q and p.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        nb: int,
        capacity: int,
        burn: int,
        periodogram: _Periodogram | None = None,
    ):
        self.matrix = matrix
        self.rows = np.zeros((capacity + 1, matrix.shape[1], nb))
        self.burn = burn
        self.steps = 0
        self.sums = np.zeros((5, nb))
        self.periodogram = periodogram

    def advance(self, noise: np.ndarray, force: np.ndarray | None = None) -> np.ndarray:
        """Take len(noise) steps with the given (step, channel, traj) noise; return q."""
        n, c = noise.shape[:2]
        y = self.rows
        y[:n, 2 : 2 + c] = noise
        if force is not None:
            y[:n, 2 + c] = force
        m, matmul = self.matrix, np.matmul
        for k in range(n):
            matmul(m, y[k], out=y[k + 1, :2])

        first = max(1, self.burn - self.steps + 1)  # row of the first post-burn-in state
        if first <= n:
            q, p = y[first : n + 1, 0], y[first : n + 1, 1]
            sums = self.sums
            sums[0] += np.einsum("ij,ij->j", q, q)
            sums[1] += np.einsum("ij,ij->j", p, p)
            # the staggered update leaves p half a step behind q; pairing q with
            # the two-point p average removes the O(dt) bias of the cross moment
            k0 = first - 1 if self.steps > self.burn else first
            q_old = y[k0:n, 0]
            sums[2] += 0.5 * (
                np.einsum("ij,ij->j", q_old, y[k0:n, 1])
                + np.einsum("ij,ij->j", q_old, y[k0 + 1 : n + 1, 1])
            )
            sums[3] += q.sum(axis=0)
            sums[4] += p.sum(axis=0)
            if self.periodogram is not None:
                self.periodogram.add(q, self.steps + first - 1 - self.burn)
        y[0, :2] = y[n, :2]
        self.steps += n
        return y[0, 0]

    def means(self, n_avg: int) -> np.ndarray:
        """Per-trajectory time averages; the cross moment has one pair fewer."""
        return self.sums / np.array([n_avg, n_avg, n_avg - 1, n_avg, n_avg])[:, None]


def _segment_layout(cfg: SimConfig, dt: float, n_steps: int):
    """(omegas, bins, taper, n_seg, norm) of the spectrum estimator."""
    seg_len = n_steps if cfg.seg_time is None else int(round(cfg.seg_time / dt))
    seg_len = max(min(seg_len, n_steps), 16)
    n_seg = n_steps // seg_len
    if n_seg < 1:
        raise ValueError("n_steps too short for one spectrum segment")
    freqs = 2.0 * math.pi * np.fft.rfftfreq(seg_len, d=dt)
    bins = np.flatnonzero((freqs >= cfg.spectrum_band[0]) & (freqs <= cfg.spectrum_band[1]))
    taper = np.hanning(seg_len) if cfg.window == "hann" else np.ones(seg_len)
    return freqs[bins], bins, taper, n_seg, dt / float(np.sum(taper**2))


def _chain_force(drive, fb, j: int, n: int, stride: int):
    """Force on a chain taking ``stride`` (1 or 2) fine steps per step, over fine steps j..j+n.

    A coarse step takes the drive at its start and the mean of the feedback
    noise over its fine sub-steps.
    """
    f = None
    if fb is not None:
        block = fb[:, j : j + n]
        if stride == 2:
            block = 0.5 * (block[:, 0::2] + block[:, 1::2])
        f = block.T
    if drive is not None:
        d = drive[j : j + n : stride, None]
        f = d if f is None else f + d
    return f


def _run(s: SchemeParams, cfg: SimConfig, force, paired: bool) -> list[EnsembleStats]:
    """Integrate the ensemble; one EnsembleStats per chain (coarse first when paired)."""
    dt, burn, n_steps = _resolve_config(s, cfg)
    sub = 2 if paired else 1
    h = dt / sub
    n_fine = sub * (burn + n_steps)
    strides = (2, 1) if paired else (1,)

    ns = noise_strengths(s)
    live_q = ns.d_q > 0
    channels = 1 + live_q
    needs_fb = ns.d_fb_cd > 0
    band = cfg.fb_band if cfg.fb_band is not None else s.feedback_band()
    drive = None
    if force is not None:
        drive = np.asarray(force(np.arange(n_fine) * h), dtype=float)
    forced = drive is not None or needs_fb
    matrices = [_step_matrix(s, ns, h, st, live_q, forced) for st in strides]

    ref = steady_moments(s, ThermalModel.CLASSICAL_DELTA)
    guard = 1e6 * math.sqrt(max(ref.q2, 1.0))

    layout = None
    if cfg.estimator == "spectrum" and not paired:
        omegas, *layout = _segment_layout(cfg, dt, n_steps)

    means: list[list[np.ndarray]] = [[] for _ in strides]
    spec_rows: list[np.ndarray] = []
    base = np.random.Philox(key=cfg.seed)
    for b, start in enumerate(range(0, cfg.n_traj, _BATCH)):
        nb = min(_BATCH, cfg.n_traj - start)
        rng = np.random.Generator(base.jumped(b))
        fb = _band_noise(rng, nb, n_fine, h, band, ns.d_fb_cd) if needs_fb else None
        pgram = _Periodogram(*layout, nb) if layout is not None else None
        chains = [
            _Chain(m, nb, _CHUNK // st, sub // st * burn, pgram)
            for m, st in zip(matrices, strides)
        ]
        for j in range(0, n_fine, _CHUNK):
            n = min(_CHUNK, n_fine - j)
            xi = rng.standard_normal((n, channels, nb))  # fine step, live channel, traj
            peak = 0.0
            for chain, st in zip(chains, strides):
                q = chain.advance(
                    xi.reshape(n // st, st * channels, nb), _chain_force(drive, fb, j, n, st)
                )
                peak = max(peak, float(np.max(np.abs(q))))
            if not math.isfinite(peak) or peak > guard:
                raise InstabilityError(
                    f"|Q| reached {peak:.3g} (guard {guard:.3g}) at step {(j + n) // sub} "
                    f"of {n_fine // sub}; dt = {dt:g}, scheme = {s.scheme.value}, g = {s.g:g}"
                    + (", paired run" if paired else "")
                )
        for chain, st, out in zip(chains, strides, means):
            out.append(chain.means(sub // st * n_steps))
        if pgram is not None:
            spec_rows.append(pgram.mean())

    spectrum = None
    if layout is not None:
        rows = np.concatenate(spec_rows, axis=0)
        spectrum = SpectrumEstimate(
            omegas=omegas,
            values=rows.mean(axis=0),
            errors=rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0]),
        )

    stats = []
    for st, chunks in zip(strides, means):
        vals = np.concatenate(chunks, axis=1)
        mu = vals.mean(axis=1)
        se = vals.std(axis=1, ddof=1) / math.sqrt(vals.shape[1])
        stats.append(
            EnsembleStats(
                q2=float(mu[0]), q2_err=float(se[0]),
                p2=float(mu[1]), p2_err=float(se[1]),
                qp=float(mu[2]), qp_err=float(se[2]),
                mean_q=float(mu[3]), mean_q_err=float(se[3]),
                mean_p=float(mu[4]), mean_p_err=float(se[4]),
                seed=cfg.seed, n_traj=cfg.n_traj, dt=st * h, spectrum=spectrum,
            )
        )
    return stats


def simulate(s: SchemeParams, cfg: SimConfig, force=None) -> EnsembleStats:
    """Integrate the ensemble and estimate stationary moments (and spectrum).

    Per-trajectory time averages over the post-burn-in window are reduced
    across trajectories; the quoted errors are standard errors of those
    independent per-trajectory means.  Raises :class:`InstabilityError` when
    any |Q| exceeds 1e6 standard deviations of the analytic prediction.
    """
    (stats,) = _run(s, cfg, force, paired=False)
    return stats


def paired_timestep_stats(
    s: SchemeParams, cfg: SimConfig, force=None
) -> tuple[EnsembleStats, EnsembleStats]:
    """Run chains at dt and dt/2 driven by common random numbers.

    The coarse chain's per-step noise is composed from the fine chain's two
    sub-step draws (exactly matching its marginal law), so the difference of
    the two moment estimates isolates the discretization error instead of
    being dominated by independent sampling noise.  Returns
    (coarse_stats, fine_stats); the spectrum estimator is not supported here.
    """
    coarse, fine = _run(s, cfg, force, paired=True)
    return coarse, fine


@dataclass(frozen=True)
class CompareEntry:
    name: str
    analytic: float
    empirical: float
    error: float
    z: float


@dataclass(frozen=True)
class CompareReport:
    entries: tuple[CompareEntry, ...]
    z_max: float

    @property
    def passed(self) -> bool:
        return all(abs(e.z) <= self.z_max for e in self.entries)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries if abs(e.z) > self.z_max)

    def __str__(self) -> str:
        lines = [
            f"{e.name}: analytic={e.analytic:.6g} empirical={e.empirical:.6g} "
            f"+- {e.error:.2g} (z={e.z:+.2f})"
            for e in self.entries
        ]
        verdict = "PASS" if self.passed else "FAIL: " + ", ".join(self.failures)
        return "\n".join(lines + [verdict])


def compare(analytic, empirical: EnsembleStats, z_max: float = 3.0) -> CompareReport:
    """z-score the Monte Carlo estimates against analytic predictions.

    ``analytic`` is a MomentSet (compares q2, p2, qp) or a SpectrumSeries
    (compares per-bin values against the empirical spectrum, whose grid must
    match).  The report passes when every |z| <= z_max.
    """
    entries: list[CompareEntry] = []
    if isinstance(analytic, MomentSet):
        for name, a_val, e_val, e_err in (
            ("q2", analytic.q2, empirical.q2, empirical.q2_err),
            ("p2", analytic.p2, empirical.p2, empirical.p2_err),
            ("qp", analytic.qp, empirical.qp, empirical.qp_err),
        ):
            if e_err > 0:
                z = (e_val - a_val) / e_err
            else:
                z = 0.0 if e_val == a_val else math.inf
            entries.append(CompareEntry(name, a_val, e_val, e_err, z))
        return CompareReport(entries=tuple(entries), z_max=z_max)

    if isinstance(analytic, SpectrumSeries):
        if empirical.spectrum is None:
            raise ValueError("empirical stats carry no spectrum estimate")
        emp = empirical.spectrum
        if emp.omegas.shape != analytic.omegas.shape or not np.allclose(
            emp.omegas, analytic.omegas, rtol=1e-9, atol=1e-12
        ):
            raise ValueError("spectrum grids do not match (shape mismatch)")
        for w, a_val, e_val, e_err in zip(
            analytic.omegas, analytic.values, emp.values, emp.errors
        ):
            z = (e_val - a_val) / e_err if e_err > 0 else math.inf
            entries.append(CompareEntry(f"bin omega={w:.6g}", a_val, e_val, e_err, z))
        return CompareReport(entries=tuple(entries), z_max=z_max)

    raise TypeError(f"cannot compare against {type(analytic).__name__}")
