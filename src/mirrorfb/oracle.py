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
coefficients are drawn, with the law the rfft of white noise has.  Inputs
are not stepped: the equations are linear, so their responses add to the
white-noise chain's states.  Weighting each bin by (i omega - A)^{-1} b, one
irfft samples the periodic response x_p, or, when only a few rows are read
from few bins, a direct sum over the bins evaluates just those rows (the
same numbers to rounding).  A random-phase Fourier series is stationary
(Shinozuka & Deodatis 1991), so x_p is a stationary periodic input whose
rows are read from the start of its period, and burn-in only forgets the
white chain's x = 0 start.  A deterministic drive enters as its response
from rest.  Nothing is biased by the step, so :func:`dt_bound` is a
resolution bound.

Each batch jumps over burn-in in one exact step of burn * dt, then steps a
chunked chain over the averaging window, the only rows of the band response
stored.  The irfft runs a block of trajectories at a time, at most 2 MiB of
output, and copies each block's window rows into a trajectory-major buffer
that the chain reads time-major through a transposed view, so neither the
whole period nor a transposed copy is held.  Each step is one product of
[Phi, L] with a stacked (q, p, xi) row, and a chunk is about 1 MiB of such
rows; its input responses are added into its states in place, which are
then reduced, and the spectrum's kept-bin DFT is accumulated per chunk.  A
paired dt / dt/2 run steps the chain at dt/2 and reduces it twice: every
state gives the dt/2 statistics, every second one the dt statistics.

Trajectories are independent work units on SFC64 streams, one per
fixed-size batch, seeded by spawned children of one SeedSequence(seed).  A
helper thread draws each batch's normals a few blocks ahead of the chain,
in the order and shapes the batch reads them, so results are
bit-reproducible for a given (seed, n_traj, dt), whatever the thread timing.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from ._quad import _KRONROD, _NODES
from .core import Scheme, SchemeParams
from .response import drift, propagator
from .spectra import SpectrumSeries
from .steady import MomentSet, NoiseStrengths, ThermalModel, noise_strengths, steady_moments

_BATCH = 2048  # trajectories per SFC64 stream
_CHUNK = 1 << 20  # bytes of (q, p, xi) rows stepped at a time: 16 steps of 2048 trajectories
_AHEAD = 3  # blocks of normals the helper thread draws ahead of the chain
_FFT_BLOCK = 1 << 20  # cap on the direct sum's basis; 2 x _FFT_BLOCK bytes of irfft output per row block
_BAND_BUDGET = 2 << 30  # bytes of band-force response one batch may hold


class InstabilityError(RuntimeError):
    """Trajectory blow-up detected during integration."""


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run configuration (times in 1/omega_m).

    ``dt`` is the exact step's sampling interval and must not exceed
    :func:`dt_bound`; leaving it None picks half that bound.  ``n_steps``
    counts averaging steps after ``burn_in_steps`` (12 relaxation times when
    None), crossed in one exact jump of length burn_in_steps * dt.  The band
    force noise fills the scheme's ``feedback_band()``; its response is stored
    for the averaging window only, at most 2 GiB per batch.  The chain holds
    about 1 MiB of steps at a time while a helper thread draws the next
    normals; the draws depend only on seed, n_traj and dt.  The spectrum
    estimator takes one Hann-tapered periodogram per trajectory over the
    whole window (a boxcar would leak the resonance peak into the wings),
    keeps bins inside ``spectrum_band`` and refuses windows under 16 steps.
    Its window lasts 48 pi relaxation times unless ``seg_time`` or ``n_steps``
    is given.  For either estimator a ``seg_time`` sets n_steps =
    round(seg_time / dt) when ``n_steps`` is None; given both, they must agree.
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
        for name in ("n_traj", "seed", "n_steps", "burn_in_steps"):  # a bool is not a count, a NumPy int is
            value = getattr(self, name)
            allowed = (int, np.integer) if name in ("n_traj", "seed") else (int, np.integer, type(None))
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_traj < 2:
            raise ValueError("n_traj must be >= 2 to estimate standard errors")
        if self.seed < 0:  # SeedSequence entropy is a non-negative integer
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
        keys = ("q2", "q2_err", "p2", "p2_err", "qp", "qp_err", "seed", "n_traj", "dt")
        return json.dumps({k: getattr(self, k) for k in keys}, allow_nan=False)


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
        if cfg.seg_time is not None and round(cfg.seg_time / dt) != n_steps:
            raise ValueError(f"seg_time = {cfg.seg_time:g} is not n_steps = {n_steps} steps of dt = {dt:g}")
    elif cfg.seg_time is not None:
        n_steps = round(cfg.seg_time / dt)
        if n_steps < 2:
            raise ValueError(f"seg_time = {cfg.seg_time:g} is under two steps of dt = {dt:g}")
    elif cfg.estimator == "spectrum":
        n_steps = round(48.0 * math.pi * relax / dt)
    else:
        n_steps = math.ceil(150.0 * relax / dt)
    return dt, burn, n_steps


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (n <= 2^63), as scipy.fft.next_fast_len(n, real=True).

    Written out, so the Monte Carlo path imports no SciPy: each 3^b 5^c below
    the best length so far is lifted to n by the least power of two.
    """
    best, p5 = 1 << max(n - 1, 0).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _quadrature(a: np.ndarray, h: float):
    """Nodes r on [0, h], weights w and e^{a r} of the 21-point Kronrod rule of :mod:`mirrorfb._quad`.

    The integrands below are entire in r and vary on the scale 1/|a|; on
    panels no longer than that the rule, exact to degree 31, is exact to
    rounding.  Unlike Sigma_inf - Phi Sigma_inf Phi^T it sums only
    non-negative terms for the variances, so nothing cancels at small h.
    """
    panels = max(1, math.ceil(h * np.abs(a).sum(axis=1).max()))
    width = h / panels
    r = ((np.arange(panels)[:, None] + 0.5 * (_NODES + 1.0)) * width).ravel()
    return r, np.tile(0.5 * width * _KRONROD, panels), propagator(a, r)


def _step_matrix(s: SchemeParams, ns: NoiseStrengths, h: float) -> np.ndarray:
    """[Phi, L], shape (2, 4): the map of a stacked (q, p, xi) row to the next (q, p).

    One step of length h is x' = Phi x + L xi: Phi = e^{A h}, L the Cholesky
    factor of the step-noise covariance Sigma_h and xi two unit normals.  A
    span h > 1 (the burn-in jump) is doubled up from h / 2^m <= 1, so the
    quadrature does not grow with h.
    """
    a = drift(s)
    m = max(0, math.ceil(math.log2(h)))
    _, w, phi = _quadrature(a, h / 2**m)
    sigma = np.einsum("n,nij,jk,nlk->il", w, phi, np.diag([ns.d_q, ns.d_p]), phi)
    for k in range(m, 0, -1):  # Sigma_2t = Sigma_t + Phi_t Sigma_t Phi_t^T
        step = propagator(a, h / 2**k)
        sigma = sigma + step @ sigma @ step.T
    return np.hstack((propagator(a, h), np.linalg.cholesky(sigma)))


def _band_response(
    rng, nb: int, n_fine: int, n_rows: int, h: float, band: tuple[float, float], coeff: float, a: np.ndarray
) -> np.ndarray:
    """Periodic (q, p) response x_p to a Gaussian force with two-sided PSD coeff * w^2 in ``band``.

    Circular spectral synthesis, <f(t) f(t')> = int (dw/2pi) S(w) e^{i w (t - t')},
    over a period of _fast_len(n_fine) steps.  Only the in-band coefficients
    are drawn, with the law the rfft of white unit normals has: independent
    N(0, n/2) real and imaginary parts.  Their phases are uniform, so x_p is
    stationary and any n_rows consecutive rows have one law; the first are
    read.  The band lies below the Nyquist bin (see :func:`dt_bound`).
    Weighted by the resolvent (i w - A)^{-1} b, the irfft samples x_p at the
    step points; when the rows cost fewer operations as a direct sum over
    the bins (see :func:`_direct_sum`), they are evaluated as one matrix
    product.  The irfft draws and transforms the blocks :func:`_band_grid`
    plans and copies each one's first n_rows into an (nb, 2, n_rows) buffer,
    so one block of the period is held at a time, never the batch's.
    Returns rows 0 .. n_rows - 1, time-major (n_rows, 2, nb) as the chain
    reads them: after the irfft a transposed view of that buffer.
    """
    n_fft, omega, lo, hi, direct, blocks = _band_grid(nb, n_fine, n_rows, h, band)
    gain = np.sqrt(0.5 * n_fft * coeff / h) * omega[lo:hi]
    kernel = np.linalg.solve(1j * omega[lo:hi, None, None] * np.eye(2) - a, np.array([0.0, 1.0])).T
    if direct:
        # x_p(j) = sum_k w_k Re(c_k K_k e^{2 pi i j k / n_fft}), w_k = 2 / n_fft
        # (1 / n_fft at bin 0), as the irfft weighs the bins below Nyquist
        k = np.arange(lo, hi)
        phase = np.exp(2j * math.pi * (np.outer(np.arange(n_rows), k) % n_fft) / n_fft)
        weight = np.where(k == 0, 1.0, 2.0) / n_fft * gain
        basis = phase[:, None] * (kernel * weight)  # (row, component, bin)
        basis = np.stack((basis.real, -basis.imag), axis=-1).reshape(2 * n_rows, -1)
        return (basis @ rng.standard_normal((nb, 2 * (hi - lo))).T).reshape(n_rows, 2, nb)
    spec = np.zeros((blocks[0][0], 2, hi), dtype=np.complex128)  # irfft zero-pads the bins above hi
    out, r = np.empty((nb, 2, n_rows)), 0
    for m, width in blocks:
        coef = rng.standard_normal((m, width)).view(np.complex128)  # the same stream, block by block
        coef *= gain
        spec[:m, :, lo:hi] = coef[:, None] * kernel
        out[r : r + m] = np.fft.irfft(spec[:m], n=n_fft)[..., :n_rows]
        r += m
    return out.transpose(2, 1, 0)


def _band_grid(nb: int, n_fine: int, n_rows: int, h: float, band: tuple[float, float]):
    """The band's draw plan, shared by _band_response and _run: (n_fft, omega, lo, hi, direct, blocks).

    Bins lo .. hi - 1 of the period's rfft grid lie in the band; ``blocks`` are the coefficient draws'
    shapes in stream order: one for the direct sum, else m x 2 x n_fft doubles of irfft output, <= 2 MiB.
    """
    n_fft = _fast_len(n_fine)  # truncating a stationary process is harmless
    omega = 2.0 * math.pi * np.fft.rfftfreq(n_fft, d=h)
    lo = int(np.searchsorted(omega, band[0], side="left"))
    hi = int(np.searchsorted(omega, band[1], side="right"))
    direct = _direct_sum(n_rows, hi - lo, n_fft)
    rows = nb if direct else max(1, _FFT_BLOCK // (16 * len(omega)))
    return n_fft, omega, lo, hi, direct, [(min(rows, nb - r), 2 * (hi - lo)) for r in range(0, nb, rows)]


def _direct_sum(n_rows: int, n_bins: int, n_fft: int) -> bool:
    """Whether ``n_rows`` rows of x_p cost less as a direct sum over ``n_bins`` bins.

    Per trajectory and component the sum costs about n_rows n_bins
    operations and one irfft n_fft log2 n_fft.  The sum's basis has
    n_rows n_bins entries per component, held to ``_FFT_BLOCK`` as the
    irfft's blocks are.
    """
    cost = n_rows * n_bins
    return cost <= n_fft * math.log2(n_fft) and cost <= _FFT_BLOCK


def _check_band_budget(n_rows: int, nb: int) -> None:
    """Refuse a batch whose stored (n_rows, 2, nb) band-force response exceeds the budget."""
    size = n_rows * 2 * nb * 8
    if size > _BAND_BUDGET:
        raise ValueError(
            f"band-force response needs {size / 2**30:.1f} GiB per batch ({nb} trajectories x "
            f"{n_rows} steps x 2 x 8 B), over the {_BAND_BUDGET / 2**30:g} GiB limit; "
            "use fewer trajectories or steps, a larger dt, or a narrower feedback band"
        )


def _drive_response(force, a: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """(q, p) response from rest to a deterministic drive held linear between steps, (n_steps + 1, 2).

    The drive is sampled at the n_steps + 1 step points; step k weights
    f_k by int_0^h e^{A r} b r/h dr and f_{k+1} by int_0^h e^{A r} b (1 - r/h) dr.
    """
    f = np.asarray(force(np.arange(n_steps + 1) * h), dtype=float)
    r, w, phi = _quadrature(a, h)
    col = phi[:, :, 1]  # e^{A r} b
    start, end = (w * r / h) @ col, (w * (1.0 - r / h)) @ col
    kicks = np.outer(f[:-1], start) + np.outer(f[1:], end)
    step, x = propagator(a, h), np.zeros((n_steps + 1, 2))
    for k in range(n_steps):
        x[k + 1] = step @ x[k] + kicks[k]
    return x


class _Periodogram:
    """Hann-tapered periodogram of each trajectory's q over the whole averaging window, kept bins only.

    The window is the run's n_steps averaging steps, which ``seg_time`` sets
    when given, and :func:`_spectrum_bins` refuses one under 16 steps.  Its
    DFT is accumulated chunk by chunk as a matrix product with the tapered
    cos/sin rows of the kept bins, so the window is never stored.
    """

    def __init__(self, bins: np.ndarray, n_steps: int, nb: int):
        self.bins, self.taper, self.steps = bins, np.hanning(n_steps), 0
        self.dft = np.zeros((2 * len(bins), nb))

    def add(self, q: np.ndarray) -> None:
        """Fold in the next (step, traj) rows of q."""
        n_steps = len(self.taper)
        idx = np.arange(self.steps, self.steps + len(q))
        angle = (np.outer(self.bins, idx) % n_steps) * (2.0 * math.pi / n_steps)
        self.dft += np.concatenate((np.cos(angle), np.sin(angle))) * self.taper[idx] @ q
        self.steps += len(q)

    def power(self, dt: float) -> np.ndarray:
        """Per-trajectory periodogram dt |DFT|^2 / sum(taper^2), shape (nb, kept bins)."""
        k = len(self.bins)
        return ((self.dft[:k] ** 2 + self.dft[k:] ** 2) * (dt / float(np.sum(self.taper**2)))).T


class _Chain:
    """A batch of trajectories stepped through [Phi, L], chunk by chunk.

    It starts after the burn-in jump, so every step counts.  Row k of the
    time-major buffer holds (q, p) before step k and that step's two normals,
    so each step is one matmul writing the (q, p) of row k + 1.  The buffer
    holds a chunk of about _CHUNK bytes, or the n_win-step window if shorter.
    After a chunk, its states plus the (step, 2, traj or 1) input response,
    if any, are reduced into the sums of q^2, p^2, qp, q and p, kept apart by
    step index modulo ``k``; with k = 2 the odd ones sample every second
    step, so one chain serves both samplings of a paired run.
    """

    def __init__(self, matrix: np.ndarray, nb: int, n_win: int, k: int = 1):
        self.matrix, self.steps = matrix, 0
        self.rows = np.zeros((min(n_win, max(1, _CHUNK // (32 * nb))) + 1, 4, nb))  # 4 doubles a trajectory
        self.sums = np.zeros((k, 5, nb))

    def advance(self, normals: np.ndarray, response: np.ndarray | None = None) -> np.ndarray:
        """Take len(normals) steps of (step, 2, traj) normals; return the reduced states, valid until the next.

        The states are the buffer's rows 1 .. n with ``response`` added in
        place, after row n, the chain's own state, is kept as the next row 0.
        """
        n, y = len(normals), self.rows
        y[:n, 2:] = normals
        m, matmul = self.matrix, np.matmul
        for k in range(n):
            matmul(m, y[k], out=y[k + 1, :2])
        y[0, :2] = y[n, :2]  # the next chunk starts from the chain's own state
        x = y[1 : n + 1, :2]
        if response is not None:
            x += response

        k = len(self.sums)
        for r, sums in enumerate(self.sums):
            rows = x[(r - self.steps) % k :: k]  # step index = r modulo k
            q, p = rows[:, 0], rows[:, 1]
            sums[0] += np.einsum("ij,ij->j", q, q)
            sums[1] += np.einsum("ij,ij->j", p, p)
            sums[2] += np.einsum("ij,ij->j", q, p)
            sums[3] += q.sum(axis=0)
            sums[4] += p.sum(axis=0)
        self.steps += n
        return x


def _spectrum_bins(cfg: SimConfig, dt: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(omegas, bins): the window's DFT bins inside ``spectrum_band``."""
    if n_steps < 16:
        raise ValueError("n_steps too short for one spectrum segment")
    freqs = 2.0 * math.pi * np.fft.rfftfreq(n_steps, d=dt)
    bins = np.flatnonzero((freqs >= cfg.spectrum_band[0]) & (freqs <= cfg.spectrum_band[1]))
    if len(bins) == 0:
        raise ValueError(f"spectrum_band {cfg.spectrum_band} keeps no bin (spacing {freqs[1]:.3g})")
    return freqs[bins], bins


def _batch_rng(seed: int, b: int) -> np.random.Generator:
    """Batch b's stream: SFC64 seeded by the b-th child of the run's SeedSequence."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(b,))))


class _Normals:
    """A batch's unit normals, drawn on a helper thread that keeps up to _AHEAD blocks ready.

    ``plan`` lists the shapes read, in stream order: the band coefficients'
    blocks, the burn-in jump's, then one per chunk.  A stream consumes its
    normals one at a time whatever the shapes, so each block holds the values
    serial calls give.  A draw's error is raised again in the reader's thread;
    leaving the ``with`` block joins the thread, and a completed batch must
    have read the whole plan.
    """

    def __init__(self, rng: np.random.Generator, plan: list[tuple[int, ...]]):
        self.plan, self.served, self.ready, self.error, self.stop = plan, 0, [], None, False
        self.cond = threading.Condition()
        self.thread = threading.Thread(target=self._draw, args=(rng,), daemon=True)
        self.thread.start()

    def _draw(self, rng: np.random.Generator) -> None:
        try:
            for shape in self.plan:
                block = rng.standard_normal(shape)
                with self.cond:
                    self.cond.wait_for(lambda: self.stop or len(self.ready) < _AHEAD)
                    if self.stop:
                        return
                    self.ready.append(block)
                    self.cond.notify()
        except BaseException as exc:  # any error, MemoryError too, is the reader's to raise
            with self.cond:
                self.error = exc
                self.cond.notify()

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        want = self.plan[self.served] if self.served < len(self.plan) else None
        if tuple(shape) != want:
            raise RuntimeError(f"read a {shape} block of normals where the plan has {want}")
        with self.cond:
            self.cond.wait_for(lambda: self.ready or self.error is not None)
            if not self.ready:
                raise self.error
            self.served += 1
            self.cond.notify()
            return self.ready.pop(0)

    def __enter__(self) -> _Normals:
        return self

    def __exit__(self, kind, *_) -> None:
        with self.cond:
            self.stop = True
            self.cond.notify()
        self.thread.join()
        if kind is None and self.served != len(self.plan):
            raise RuntimeError(f"read {self.served} of {len(self.plan)} planned blocks of normals")


def _run(s: SchemeParams, cfg: SimConfig, force, paired: bool) -> list[EnsembleStats]:
    """Integrate the ensemble; one EnsembleStats per sampling (dt first when paired)."""
    dt, burn, n_steps = _resolve_config(s, cfg)
    sub = 2 if paired else 1
    h, n_burn, n_fine = dt / sub, sub * burn, sub * (burn + n_steps)
    n_win, band = n_fine - n_burn, s.feedback_band()

    ns, a = noise_strengths(s), drift(s)
    needs_fb = ns.d_fb_cd > 0
    if needs_fb:
        _check_band_budget(n_win, min(_BATCH, cfg.n_traj))
    drive = None if force is None else _drive_response(force, a, h, n_fine)[n_burn + 1 :, :, None]
    matrix = _step_matrix(s, ns, h)
    if n_burn:  # burn-in: one exact jump of the white chain from rest; only its noise remains
        jump = _step_matrix(s, ns, n_burn * h)[:, 2:]

    guard = 1e6 * math.sqrt(max(steady_moments(s, ThermalModel.CLASSICAL_DELTA).q2, 1.0))

    spectral = cfg.estimator == "spectrum"
    if spectral:
        omegas, bins = _spectrum_bins(cfg, dt, n_steps)

    sums, spec_rows = [], []  # per batch: (sub, 5, nb) sums, (nb, bins) periodograms
    for b, start in enumerate(range(0, cfg.n_traj, _BATCH)):
        nb = min(_BATCH, cfg.n_traj - start)
        chain = _Chain(matrix, nb, n_win, sub)
        chunk = len(chain.rows) - 1
        plan = _band_grid(nb, n_fine, n_win, h, band)[-1] if needs_fb else []
        plan += [(2, nb)] * (n_burn > 0) + [(min(chunk, n_win - j), 2, nb) for j in range(0, n_win, chunk)]
        with _Normals(_batch_rng(cfg.seed, b), plan) as rng:
            response = drive
            if needs_fb:  # a stationary input: the window reads the first rows of its period
                response = _band_response(rng, nb, n_fine, n_win, h, band, ns.d_fb_cd, a)
                if drive is not None:
                    response += drive
            pgram = _Periodogram(bins, n_steps, nb) if spectral else None
            if n_burn:
                chain.rows[0, :2] = jump @ rng.standard_normal((2, nb))
            for j in range(0, n_win, chunk):
                n = min(chunk, n_win - j)
                normals = rng.standard_normal((n, 2, nb))  # fine step, normal, traj
                x = chain.advance(normals, None if response is None else response[j : j + n])
                if pgram is not None:
                    pgram.add(x[:, 0])
                peak = float(np.max(np.abs(x[-1, 0])))
                if not math.isfinite(peak) or peak > guard:
                    raise InstabilityError(
                        f"|Q| reached {peak:.3g} (guard {guard:.3g}) at step {(n_burn + j + n) // sub} "
                        f"of {n_fine // sub}; dt = {dt:g}, scheme = {s.scheme.value}, g = {s.g:g}"
                        + (", paired run" if paired else "")
                    )
        sums.append(chain.sums)
        if pgram is not None:
            spec_rows.append(pgram.power(dt))

    spectrum = None
    if spectral:
        rows = np.concatenate(spec_rows, axis=0)
        spectrum = SpectrumEstimate(
            omegas=omegas,
            values=rows.mean(axis=0),
            errors=rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0]),
        )

    totals = np.concatenate(sums, axis=2)  # (sub, 5, n_traj); when paired, index 1 holds every dt
    samplings = [(totals[-1] / n_steps, dt)]
    if paired:
        samplings.append((totals.sum(axis=0) / (2 * n_steps), h))
    stats = []
    for vals, step in samplings:
        mu = vals.mean(axis=1)
        se = vals.std(axis=1, ddof=1) / math.sqrt(vals.shape[1])
        moments = {}
        for name, m, e in zip(("q2", "p2", "qp", "mean_q", "mean_p"), mu, se):
            moments.update({name: float(m), name + "_err": float(e)})
        stats.append(EnsembleStats(**moments, seed=cfg.seed, n_traj=cfg.n_traj, dt=step, spectrum=spectrum))
    return stats


def simulate(s: SchemeParams, cfg: SimConfig, force=None) -> EnsembleStats:
    """Integrate the ensemble and estimate stationary moments (and spectrum).

    Burn-in is one exact step of burn_in_steps * dt of the white chain from
    rest; the band force adds its stationary response to the stepped states,
    and ``force`` its response from rest.
    Independent per-trajectory time averages over the window after burn-in
    give the means and their standard errors.  Raises :class:`InstabilityError` when any |Q|
    exceeds 1e6 standard deviations of the analytic prediction.
    """
    (stats,) = _run(s, cfg, force, paired=False)
    return stats


def paired_timestep_stats(
    s: SchemeParams, cfg: SimConfig, force=None
) -> tuple[EnsembleStats, EnsembleStats]:
    """Moment estimates of one run sampled at dt and at dt/2.

    One chain is stepped at dt/2 and reduced twice: every second
    post-burn-in state, the chain's state at each step of dt, gives the
    coarse statistics and every post-burn-in state the fine ones.  The exact
    step has no dt bias, so the difference of the two estimates is only the
    effect of sampling every dt rather than every dt/2.  Returns
    (coarse_stats, fine_stats); the spectrum estimator is rejected.
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
