"""Monte Carlo integrator of the classical-equivalent feedback Langevin equations.

Independent cross-check of every closed form: trajectories of

    dQ = (P - delta_sc g gamma_m Q) dt + dW_Q
    dP = (-Q - gamma_m (1 + delta_cd g) P + f(t)) dt + dW_P + dW_fb

are integrated in omega_m = 1 units.  The equations are linear, x' = A x +
noise, so one step of length h is exact at any h (Van Loan 1978; Gillespie
1996 for the scalar Ornstein-Uhlenbeck case): (q, p) advance by
Phi = e^{A h}, the response module's propagator, and take a Gaussian kick of
covariance Sigma_h = int_0^h e^{A r} D e^{A^T r} dr, drawn as its Cholesky
factor times two unit normals.  The white-noise intensities D come from the
steady module; the closed forms checked here use chi~(omega), never e^{A t}.

The cold-damping feedback force is band-limited noise with two-sided
density d_fb * omega^2, since white noise cannot carry the omega^2 spectrum
without the loop's own band limit.  Per trajectory only its in-band rfft
coefficients are drawn, with the law the rfft of white noise has; each bin
enters a step through the exact step integral K(omega) of e^{i omega t}, so
one irfft yields the (q, p) force impulses at step resolution.  A
deterministic drive enters through the step integral of its first-order
hold, linear between step points.  Nothing is biased by the step, so
:func:`dt_bound` is a resolution bound.

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

from .core import Scheme, SchemeParams
from .response import drift, propagator
from .spectra import SpectrumSeries
from .steady import MomentSet, NoiseStrengths, ThermalModel, noise_strengths, steady_moments

_BATCH = 2048  # trajectories per Philox stream
_CHUNK = 256  # fine steps of noise drawn, and of (q, p) rows stored, at a time
_FFT_BLOCK = 1 << 20  # rfft bins per row block of the band-noise synthesis
_IMPULSE_BUDGET = 2 << 30  # bytes of band-force impulses one batch may hold


class InstabilityError(RuntimeError):
    """Trajectory blow-up detected during integration."""


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run configuration (times in 1/omega_m).

    ``dt`` is the exact step's sampling interval and must not exceed
    :func:`dt_bound`; leaving it None picks half that bound.  ``n_steps``
    counts post-burn-in averaging steps.  The synthesized cold-damping force
    noise fills the scheme's ``feedback_band()``.  The spectrum estimator
    averages Hann-tapered periodograms of duration ``seg_time`` (a boxcar
    would leak the resonance peak into the wings) and keeps bins inside
    ``spectrum_band``.
    """

    dt: float | None = None
    n_steps: int | None = None
    n_traj: int = 1000
    seed: int = 12345
    burn_in_steps: int | None = None
    estimator: str = "moments"
    seg_time: float | None = None
    spectrum_band: tuple[float, float] = (0.5, 1.5)

    def __post_init__(self):
        if self.n_traj < 2:
            raise ValueError("n_traj must be >= 2 to estimate standard errors")
        if self.estimator not in ("moments", "spectrum"):
            raise ValueError(f"estimator must be 'moments' or 'spectrum', got {self.estimator!r}")
        if self.n_steps is not None and self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        if self.burn_in_steps is not None and self.burn_in_steps < 0:
            raise ValueError(f"burn_in_steps must be >= 0, got {self.burn_in_steps}")
        for name in ("dt", "seg_time"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        lo, hi = self.spectrum_band
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"spectrum_band must be finite with lo < hi, got {self.spectrum_band}")


@dataclass(frozen=True)
class SpectrumEstimate:
    omegas: np.ndarray
    values: np.ndarray
    errors: np.ndarray


@dataclass(frozen=True)
class EnsembleStats:
    """Ensemble moment estimates with standard errors and their seed, size and step."""

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
            },
            allow_nan=False,
        )


def dt_bound(s: SchemeParams) -> float:
    """Largest admissible step: a resolution bound, since every step is exact.

    min(1, 1/Gamma)/4 with Gamma = gamma_m (1+g) keeps at least four samples
    per relaxation time and 25 per oscillation period, so time averages lose
    little to sampling, and puts the spectrum estimator's Nyquist frequency
    at pi/dt >= 4 pi, where the aliased images of the omega^-2 (or steeper)
    position spectrum add below 1e-3 of it at the resonance.  With the
    cold-damping loop closed, pi/dt >= 2 x the feedback band's top edge also
    keeps every synthesized force bin well below the step grid's Nyquist bin.
    """
    bound = min(1.0, 1.0 / s.damping) / 4.0
    if s.scheme is Scheme.COLD_DAMPING and s.g > 0:
        bound = min(bound, math.pi / (2.0 * s.feedback_band()[1]))
    return bound


def _resolve_config(s: SchemeParams, cfg: SimConfig) -> tuple[float, int, int]:
    bound = dt_bound(s)
    dt = cfg.dt if cfg.dt is not None else 0.5 * bound
    if dt > bound * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt:g} exceeds the resolution bound {bound:g}")
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


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, as scipy.fft.next_fast_len(n, real=True).

    Written out so the Monte Carlo path imports no SciPy.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest p35 * 2^k >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _quadrature(a: np.ndarray, h: float):
    """Nodes r on [0, h], weights w and e^{a r} of a 16-point Gauss-Legendre rule.

    The integrands below are entire in r and vary on the scale 1/|a|; panels
    no longer than that make the rule exact to rounding.  Unlike
    Sigma_inf - Phi Sigma_inf Phi^T it sums only non-negative terms for the
    variances, so nothing cancels at small h.
    """
    panels = max(1, math.ceil(h * np.abs(a).sum(axis=1).max()))
    x, w = np.polynomial.legendre.leggauss(16)
    width = h / panels
    r = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) * width).ravel()
    return r, np.tile(0.5 * width * w, panels), propagator(a, r)


def _step_matrix(
    s: SchemeParams, ns: NoiseStrengths, h: float, stride: int, forced: bool
) -> np.ndarray:
    """(2, 2 + r) map of a stacked (q, p, inputs) row to the next (q, p).

    One fine step of length h is x' = Phi x + L xi + i: Phi = e^{A h}, L the
    Cholesky factor of the step-noise covariance Sigma_h, xi two unit normals
    and, when ``forced``, i the (q, p) force impulse with unit weight.  A
    step of ``stride`` fine steps composes them exactly, e.g.
    [Phi^2, Phi B, B] with B = [L, I] for stride 2, so paired chains share
    random numbers and the coarse state equals the fine one at even steps.
    """
    a = drift(s)
    _, w, phi = _quadrature(a, h)
    sigma = np.einsum("n,nij,jk,nlk->il", w, phi, np.diag([ns.d_q, ns.d_p]), phi)
    sub = np.linalg.cholesky(sigma)
    if forced:
        sub = np.hstack((sub, np.eye(2)))
    step = propagator(a, h)
    blocks = [sub]
    for _ in range(stride - 1):
        blocks.insert(0, step @ blocks[0])
    return np.hstack((np.linalg.matrix_power(step, stride), *blocks))


def _force_kernel(a: np.ndarray, h: float, omega: np.ndarray) -> np.ndarray:
    """Step integral int_0^h e^{A (h - u)} b e^{i omega u} du of each bin, shape (bins, 2).

    Closed form K(omega) = (i omega - A)^{-1} (e^{i omega h} - e^{A h}) b with
    b = (0, 1); a force sum_w c_w e^{i w t} + c.c. then kicks the step from t
    by sum_w c_w e^{i w t} K(w) + c.c.
    """
    lhs = 1j * omega[:, None, None] * np.eye(2) - a
    rhs = np.exp(1j * omega * h)[:, None] * np.array([0.0, 1.0]) - propagator(a, h)[:, 1]
    return np.linalg.solve(lhs, rhs[..., None])[..., 0]


def _band_impulses(
    rng: np.random.Generator,
    nb: int,
    n_steps: int,
    h: float,
    band: tuple[float, float],
    coeff: float,
    a: np.ndarray,
) -> np.ndarray:
    """(q, p) step impulses of a Gaussian force with two-sided PSD coeff * w^2 in ``band``.

    Circular spectral synthesis, <f(t) f(t')> = int (dw/2pi) S(w) e^{i w (t - t')}.
    Only the in-band coefficients are drawn, with the law the rfft of white
    unit normals has: independent N(0, n/2) real and imaginary parts.  The
    band lies below the Nyquist bin (see :func:`dt_bound`).  Each coefficient
    is weighted by its bin's step integral, so the irfft returns the exact
    impulses.  Returned time-major, shape (n_steps, 2, nb), as the stepper
    reads them.
    """
    n_fft = _fast_len(n_steps)  # truncating a stationary process is harmless
    omega = 2.0 * math.pi * np.fft.rfftfreq(n_fft, d=h)
    lo = int(np.searchsorted(omega, band[0], side="left"))
    hi = int(np.searchsorted(omega, band[1], side="right"))
    gain = np.sqrt(0.5 * n_fft * coeff / h) * omega[lo:hi]
    coef = rng.standard_normal((nb, 2 * (hi - lo))).view(np.complex128) * gain
    kernel = _force_kernel(a, h, omega[lo:hi]).T
    rows = max(1, _FFT_BLOCK // (2 * len(omega)))
    spec = np.zeros((min(rows, nb), 2, len(omega)), dtype=np.complex128)
    out = np.empty((n_steps, 2, nb))
    for r in range(0, nb, rows):
        m = min(rows, nb - r)
        spec[:m, :, lo:hi] = coef[r : r + m, None] * kernel
        out[..., r : r + m] = np.fft.irfft(spec[:m], n=n_fft)[..., :n_steps].transpose(2, 1, 0)
    return out


def _check_impulse_budget(n_steps: int, nb: int) -> None:
    """Refuse a batch whose (n_steps, 2, nb) band-force impulses exceed the budget."""
    size = n_steps * 2 * nb * 8
    if size > _IMPULSE_BUDGET:
        raise ValueError(
            f"band-force impulses need {size / 2**30:.1f} GiB per batch ({nb} trajectories x "
            f"{n_steps} steps x 2 x 8 B), over the {_IMPULSE_BUDGET / 2**30:g} GiB limit; "
            "use fewer trajectories or steps, a larger dt, or a narrower feedback band"
        )


def _drive_impulses(force, a: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """(q, p) step impulses of a deterministic drive held linear between steps, (n_steps, 2, 1).

    The drive is sampled at the n_steps + 1 step points; step k weights
    f_k by int_0^h e^{A r} b r/h dr and f_{k+1} by int_0^h e^{A r} b (1 - r/h) dr.
    """
    f = np.asarray(force(np.arange(n_steps + 1) * h), dtype=float)
    r, w, phi = _quadrature(a, h)
    col = phi[:, :, 1]  # e^{A r} b
    start, end = (w * r / h) @ col, (w * (1.0 - r / h)) @ col
    return (np.outer(f[:-1], start) + np.outer(f[1:], end))[:, :, None]


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

    def advance(self, inputs: np.ndarray) -> np.ndarray:
        """Take len(inputs) steps with the given (step, input, traj) inputs; return q."""
        n = len(inputs)
        y = self.rows
        y[:n, 2:] = inputs
        m, matmul = self.matrix, np.matmul
        for k in range(n):
            matmul(m, y[k], out=y[k + 1, :2])

        first = max(1, self.burn - self.steps + 1)  # row of the first post-burn-in state
        if first <= n:
            q, p = y[first : n + 1, 0], y[first : n + 1, 1]
            sums = self.sums
            sums[0] += np.einsum("ij,ij->j", q, q)
            sums[1] += np.einsum("ij,ij->j", p, p)
            sums[2] += np.einsum("ij,ij->j", q, p)
            sums[3] += q.sum(axis=0)
            sums[4] += p.sum(axis=0)
            if self.periodogram is not None:
                self.periodogram.add(q, self.steps + first - 1 - self.burn)
        y[0, :2] = y[n, :2]
        self.steps += n
        return y[0, 0]


def _segment_layout(cfg: SimConfig, dt: float, n_steps: int):
    """(omegas, bins, taper, n_seg, norm) of the spectrum estimator."""
    seg_len = n_steps if cfg.seg_time is None else int(round(cfg.seg_time / dt))
    seg_len = max(min(seg_len, n_steps), 16)
    n_seg = n_steps // seg_len
    if n_seg < 1:
        raise ValueError("n_steps too short for one spectrum segment")
    freqs = 2.0 * math.pi * np.fft.rfftfreq(seg_len, d=dt)
    bins = np.flatnonzero((freqs >= cfg.spectrum_band[0]) & (freqs <= cfg.spectrum_band[1]))
    if len(bins) == 0:
        raise ValueError(f"spectrum_band {cfg.spectrum_band} keeps no bin (spacing {freqs[1]:.3g})")
    taper = np.hanning(seg_len)
    return freqs[bins], bins, taper, n_seg, dt / float(np.sum(taper**2))


def _run(s: SchemeParams, cfg: SimConfig, force, paired: bool) -> list[EnsembleStats]:
    """Integrate the ensemble; one EnsembleStats per chain (coarse first when paired)."""
    dt, burn, n_steps = _resolve_config(s, cfg)
    sub = 2 if paired else 1
    h = dt / sub
    n_fine = sub * (burn + n_steps)
    strides = (2, 1) if paired else (1,)

    ns = noise_strengths(s)
    a = drift(s)
    needs_fb = ns.d_fb_cd > 0
    if needs_fb:
        _check_impulse_budget(n_fine, min(_BATCH, cfg.n_traj))
    band = s.feedback_band()
    drive = _drive_impulses(force, a, h, n_fine) if force is not None else None
    forced = drive is not None or needs_fb
    matrices = [_step_matrix(s, ns, h, st, forced) for st in strides]
    width = 4 if forced else 2  # inputs per fine step: two normals, then the impulse

    ref = steady_moments(s, ThermalModel.CLASSICAL_DELTA)
    guard = 1e6 * math.sqrt(max(ref.q2, 1.0))

    layout = None
    if cfg.estimator == "spectrum":
        omegas, *layout = _segment_layout(cfg, dt, n_steps)

    means: list[list[np.ndarray]] = [[] for _ in strides]
    spec_rows: list[np.ndarray] = []
    base = np.random.Philox(key=cfg.seed)
    for b, start in enumerate(range(0, cfg.n_traj, _BATCH)):
        nb = min(_BATCH, cfg.n_traj - start)
        rng = np.random.Generator(base.jumped(b))
        impulses = drive
        if needs_fb:
            impulses = _band_impulses(rng, nb, n_fine, h, band, ns.d_fb_cd, a)
            if drive is not None:
                impulses += drive
        pgram = _Periodogram(*layout, nb) if layout is not None else None
        chains = [
            _Chain(m, nb, _CHUNK // st, sub // st * burn, pgram)
            for m, st in zip(matrices, strides)
        ]
        inputs = np.zeros((_CHUNK, width, nb))
        for j in range(0, n_fine, _CHUNK):
            n = min(_CHUNK, n_fine - j)
            x = inputs[:n]
            x[:, :2] = rng.standard_normal((n, 2, nb))  # fine step, normal, traj
            if forced:
                x[:, 2:] = impulses[j : j + n]
            peak = 0.0
            for chain, st in zip(chains, strides):
                q = chain.advance(x.reshape(n // st, st * width, nb))
                peak = max(peak, float(np.max(np.abs(q))))
            if not math.isfinite(peak) or peak > guard:
                raise InstabilityError(
                    f"|Q| reached {peak:.3g} (guard {guard:.3g}) at step {(j + n) // sub} "
                    f"of {n_fine // sub}; dt = {dt:g}, scheme = {s.scheme.value}, g = {s.g:g}"
                    + (", paired run" if paired else "")
                )
        for chain, st, out in zip(chains, strides, means):
            out.append(chain.sums / (sub // st * n_steps))
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

    The coarse step composes the fine chain's two sub-step inputs exactly,
    so with exact arithmetic the coarse state is the fine state at every
    even step.  The difference of the two moment estimates is then only the
    effect of sampling every dt rather than every dt/2, and a stride-2 step
    map that does not compose shows up in it instead of being hidden by
    independent sampling noise.  Returns (coarse_stats, fine_stats); the
    spectrum estimator is rejected.
    """
    if cfg.estimator == "spectrum":
        raise ValueError("paired_timestep_stats supports only the moments estimator")
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
    if isinstance(analytic, MomentSet):
        rows = [
            (name, getattr(analytic, name), getattr(empirical, name), getattr(empirical, name + "_err"))
            for name in ("q2", "p2", "qp")
        ]
    elif isinstance(analytic, SpectrumSeries):
        if empirical.spectrum is None:
            raise ValueError("empirical stats carry no spectrum estimate")
        emp = empirical.spectrum
        if emp.omegas.shape != analytic.omegas.shape or not np.allclose(
            emp.omegas, analytic.omegas, rtol=1e-9, atol=1e-12
        ):
            raise ValueError("spectrum grids do not match (shape mismatch)")
        rows = zip((f"bin omega={w:.6g}" for w in analytic.omegas), analytic.values, emp.values, emp.errors)
    else:
        raise TypeError(f"cannot compare against {type(analytic).__name__}")
    entries = []
    for name, a_val, e_val, e_err in rows:
        # a zero standard error passes only an exact match
        z = (e_val - a_val) / e_err if e_err > 0 else (0.0 if e_val == a_val else math.inf)
        entries.append(CompareEntry(name, a_val, e_val, e_err, z))
    return CompareReport(entries=tuple(entries), z_max=z_max)
