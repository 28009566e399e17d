"""The three benchmark workloads, their seeded inputs and correctness gates.

Each workload is a closed loop in one process: a pass issues its operations
one after another, each waiting for the previous.  Inputs come from the
workload seed only (``derive_seed``); the library sees the generated
parameter sets and Monte Carlo seeds, never the workload seed itself.

* ``oracle``     Monte Carlo cross-check at C09's physics: paired dt/dt-2
                 chains and single chains for both schemes, plus one
                 cold-damping spectrum run.
* ``analytic``   ``cli.main`` regenerating figures 2-10 and the six README
                 analytic subcommands; outputs are pinned by SHA-256.
* ``quadrature`` seeded parameter sets for ``integrated_position_variance``
                 and the exact (coth) thermal moments, the only QUADPACK users.

A pass calls the library through module attributes (``oracle.simulate``,
``steady.steady_moments``...) so the traced run's wrappers see every call.
Only the library calls are timed; gates run outside the timed sections.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mirrorfb import cli, core, oracle, spectra, steady

SC, CD = core.Scheme.STOCHASTIC_COOLING, core.Scheme.COLD_DAMPING
PINNED = Path(__file__).with_name("pinned_outputs.json")


def derive_seed(seed: int, *tags) -> int:
    """A 63-bit seed for one input, derived from the workload seed and tags."""
    text = "/".join(str(t) for t in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


@dataclass
class Record:
    """Operations, timings and gate results of the passes of one phase.

    Every pass issues the same operations in the same order, so the i-th
    operation of each pass is one sample of the same work: ``op_s`` keeps
    those samples per (job, i).
    """

    tracer: object = None
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    pass_s: list = field(default_factory=list)  # timed library seconds per pass
    op_s: dict = field(default_factory=dict)  # (job, i) -> seconds, one per pass
    op_work: dict = field(default_factory=dict)  # (job, i) -> work units of the op
    worst: dict = field(default_factory=dict)  # largest value seen, e.g. max |z|
    totals: dict = field(default_factory=dict)  # summed over passes
    _index: int = 0
    _timed: float = 0.0

    def op(self, job: str, work: float, call, check) -> None:
        """Run one operation: ``call`` timed, then ``check`` on its result.

        ``check`` returns a list of problems; an exception from either, or
        any problem, counts the operation as failed.
        """
        self.attempted += 1
        key = (job, self._index)
        self._index += 1
        if self.tracer is not None:
            self.tracer.op_id += 1
        try:
            t0 = time.perf_counter()
            result = call()
            dt = time.perf_counter() - t0
            self._timed += dt
            self.op_s.setdefault(key, []).append(dt)
            self.op_work[key] = work
            with self.untraced():
                problems = check(result)
        except Exception as exc:  # any failure of the program is one failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.append(f"{job}: {problems[0]}")

    @contextmanager
    def untraced(self):
        """Benchmark work (input generation, gates) stays out of the spans."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def note_worst(self, key: str, value: float) -> None:
        self.worst[key] = max(self.worst.get(key, 0.0), float(value))

    def add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + value

    def end_pass(self) -> None:
        self.pass_s.append(self._timed)
        self._timed = 0.0
        self._index = 0


# ---------------------------------------------------------------- gates


def moments_gate(analytic, stats, z_max: float, rec: Record | None = None) -> list[str]:
    rep = oracle.compare(analytic, stats, z_max=z_max)
    if rec is not None:
        rec.note_worst("max_abs_z", max(abs(e.z) for e in rep.entries))
    return [f"|z| > {z_max:g} for {', '.join(rep.failures)}"] if not rep.passed else []


def halving_ratio(coarse, fine) -> float:
    """Worst |coarse - fine| over the coarse standard error (C09's dt-halving)."""
    return max(
        abs(getattr(coarse, n) - getattr(fine, n)) / getattr(coarse, f"{n}_err")
        for n in ("q2", "p2", "qp")
    )


def spectrum_gate(s, stats, z_max: float, rec: Record | None = None) -> list[str]:
    omegas = stats.spectrum.omegas
    ana = spectra.position_noise_spectrum(s, omegas, thermal="classical")
    series = spectra.SpectrumSeries(omegas, ana, spectra.KIND_POSITION_NOISE, "closed form")
    rep = oracle.compare(series, stats, z_max=z_max)
    if rec is not None:
        rec.note_worst("max_abs_z", max(abs(e.z) for e in rep.entries))
    return [f"{len(rep.failures)} bins beyond |z| {z_max:g}"] if not rep.passed else []


def relative_gate(value: float, reference: float, tol: float, what: str) -> list[str]:
    if not math.isfinite(value) or abs(value / reference - 1.0) >= tol:
        return [f"{what}: {value!r} vs {reference!r} (tolerance {tol:g} relative)"]
    return []


def output_gate(path: Path, sha256: str) -> list[str]:
    """A pinned output file: byte-identical to the seed commit, every value finite."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [f"{path.name} was not written"]
    problems = []
    if hashlib.sha256(data).hexdigest() != sha256:
        problems.append(f"{path.name} differs from the pinned SHA-256")
    text = data.decode(errors="replace")
    if path.suffix == ".json":
        def bad_constant(name):
            raise ValueError(f"{name} in JSON output")

        try:
            values = [v for v in json.loads(text, parse_constant=bad_constant).values()
                      if isinstance(v, float)]
        except ValueError as exc:
            return problems + [f"{path.name}: {exc}"]
    else:
        try:
            values = [float(x) for line in text.splitlines()[1:] for x in line.split(",")[:2]]
        except ValueError as exc:
            return problems + [f"{path.name}: {exc}"]
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{path.name} holds a non-finite value")
    return problems


# ---------------------------------------------------------------- oracle

# C09's physics; both schemes
C09 = dict(g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
# test_oracle's spectrum configuration (cold damping)
SPECTRUM = dict(g=10.0, quality=100.0, zeta=10.0, theta=1e5, eta=0.8)
SPECTRUM_BAND = (0.85, 1.15)
N_TRAJ = 2048  # one stochastic-cooling batch, four cold-damping batches
SPECTRUM_TRAJ = 256
BURN_RELAX = 6.0  # relaxation times discarded before averaging
AVG_RELAX = 2.0  # relaxation times averaged per trajectory
SEG_RELAX = 24.0 * math.pi  # spectrum segment; Hann smoothing bias < 1% at the peak
# A correct stepper must fail by chance less than once in 1e4 runs of about
# four passes.  Errors are estimated from the same skewed samples as the
# means, which fattens the lower tail of z beyond a normal's: with 2048
# trajectories the 12 moment z-scores of a pass stay within 5 with chance
# about 1 - 1e-5.  A spectrum bin averages only 256 exponential periodogram
# values; its 33 bins stay within 6.5 with chance about 1 - 5e-6.
Z_MOMENTS = 5.0
Z_SPECTRUM = 6.5
HALVING_SE = 1.0  # C09's bound on |coarse - fine| in coarse standard errors


def c09_config(s, n_traj: int, seed: int):
    dt = 0.5 * oracle.dt_bound(s)
    n_steps = math.ceil(AVG_RELAX / s.damping / dt)
    burn = math.ceil(BURN_RELAX / s.damping / dt)
    cfg = oracle.SimConfig(n_traj=n_traj, seed=seed, dt=dt, n_steps=n_steps, burn_in_steps=burn)
    return cfg, n_traj * (n_steps + burn)


def spectrum_config(s, n_traj: int, seed: int):
    dt = oracle.dt_bound(s)
    seg = SEG_RELAX / s.damping
    n_steps = int(round(seg / dt))
    burn = math.ceil(BURN_RELAX / s.damping / dt)
    cfg = oracle.SimConfig(
        n_traj=n_traj, seed=seed, dt=dt, n_steps=n_steps, burn_in_steps=burn,
        estimator="spectrum", seg_time=seg, spectrum_band=SPECTRUM_BAND,
    )
    return cfg, n_traj * (n_steps + burn)


class Oracle:
    name = "oracle"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.schemes = {
            "sc": core.SchemeParams(scheme=SC, **C09),
            "cd": core.SchemeParams(scheme=CD, **C09),
        }
        self.spectrum_params = core.SchemeParams(scheme=CD, **SPECTRUM)
        self.passes = 0

    def first_call(self) -> None:
        cfg = oracle.SimConfig(n_traj=2, seed=0, n_steps=64, burn_in_steps=0)
        oracle.simulate(self.schemes["cd"], cfg)

    def run_pass(self, rec: Record) -> None:
        k = self.passes
        self.passes += 1
        with rec.untraced():
            paired = {tag: c09_config(s, N_TRAJ, derive_seed(self.seed, "paired", tag, k))
                      for tag, s in self.schemes.items()}
            single = {tag: c09_config(s, N_TRAJ, derive_seed(self.seed, "single", tag, k))
                      for tag, s in self.schemes.items()}
            spec_cfg, spec_work = spectrum_config(
                self.spectrum_params, SPECTRUM_TRAJ, derive_seed(self.seed, "spectrum", k))
        for tag, s in self.schemes.items():
            cfg, work = paired[tag]

            def check_paired(result, s=s):
                coarse, fine = result
                problems = moments_gate(steady.steady_moments(s), coarse, Z_MOMENTS, rec)
                halving = halving_ratio(coarse, fine)
                rec.note_worst("halving_se", halving)
                if halving >= HALVING_SE:
                    problems.append(f"dt-halving difference {halving:.2f} SE")
                return problems

            rec.op(f"paired.{tag}", work,
                   lambda s=s, cfg=cfg: oracle.paired_timestep_stats(s, cfg), check_paired)
        for tag, s in self.schemes.items():
            cfg, work = single[tag]

            rec.op(f"single.{tag}", work, lambda s=s, cfg=cfg: oracle.simulate(s, cfg),
                   lambda stats, s=s: moments_gate(steady.steady_moments(s), stats, Z_MOMENTS, rec))
        s = self.spectrum_params
        rec.op("spectrum.cd", spec_work, lambda: oracle.simulate(s, spec_cfg),
               lambda stats: spectrum_gate(s, stats, Z_SPECTRUM, rec))
        rec.end_pass()


# ---------------------------------------------------------------- analytic

FIGURES = tuple(range(2, 11))
# the README's analytic invocations, each writing one file
README_CALLS = {
    "steady-json": (["steady", "--scheme", "cd", "--g", "1e3", "--Q", "1e5", "--zeta", "10",
                     "--theta", "1e5", "--eta", "0.8", "--format", "json"], "steady.json"),
    "steady-sweep": (["steady", "--sweep", "zeta:1:1e6:200:log", "--scheme", "cd", "--g", "1e3"],
                     "sweep.csv"),
    "spectrum-detected": (["spectrum", "--scheme", "sc", "--g", "1e3", "--Q", "1e4", "--zeta", "10",
                           "--theta", "1e5", "--detected"], "spec.csv"),
    "snr-stationary": (["snr-stationary", "--scheme", "cd", "--g", "1e4", "--Q", "1e5", "--zeta", "10",
                        "--theta", "1e5", "--Tm", "10"], "snr.csv"),
    "snr-nonstationary": (["snr-nonstationary", "--scheme", "cd", "--g", "2e3", "--Q", "1e5",
                           "--zeta", "10", "--theta", "1e5", "--Tm", "1e-3", "--sigma", "1e-4",
                           "--t1", "3e-4", "--wide-init"], "snr_ns.csv"),
    "cyclic": (["cyclic", "--scheme", "cd", "--g", "2e3", "--Q", "1e5", "--zeta", "10", "--theta", "1e5",
                "--Tm", "1e-3", "--Tcool", "1e-6", "--sigma", "1e-4", "--wide-init"], "cyclic.csv"),
}


def analytic_invocations(outdir: Path) -> dict[str, list[str]]:
    calls = {f"figure {n}": ["figure", str(n), "--out", str(outdir)] for n in FIGURES}
    for name, (argv, filename) in README_CALLS.items():
        calls[name] = argv + ["--out", str(outdir / filename)]
    return calls


def pin_outputs(outdir: Path) -> dict[str, dict[str, str]]:
    """SHA-256 of every file each invocation writes; run once on the pinned commit."""
    pins = {}
    for name, argv in analytic_invocations(outdir).items():
        before = set(outdir.iterdir())
        if cli.main(argv) != 0:
            raise RuntimeError(f"{name} exited non-zero")
        written = sorted((p for p in outdir.iterdir() if p not in before), key=lambda p: p.name)
        pins[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    return pins


class Analytic:
    """Fixed inputs: the paper's figures and the README's invocations.

    The seed is accepted for the common interface; the outputs are pinned
    byte for byte, so the inputs cannot vary with it.
    """

    name = "analytic"

    def __init__(self, seed: int, workdir: Path):
        self.outdir = workdir / "analytic"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.pins = json.loads(PINNED.read_text())
        self.calls = analytic_invocations(self.outdir)

    def first_call(self) -> None:
        cli.main(self.calls["steady-json"])

    def run_pass(self, rec: Record) -> None:
        for name, argv in self.calls.items():
            pins = self.pins[name]
            for filename in pins:
                (self.outdir / filename).unlink(missing_ok=True)

            def check(code, pins=pins):
                problems = [f"exit code {code}"] if code != 0 else []
                for filename, digest in pins.items():
                    path = self.outdir / filename
                    problems += output_gate(path, digest)
                    if path.exists():
                        rec.add("bytes_written", path.stat().st_size)
                return problems

            job = "figures" if name.startswith("figure") else "subcommands"
            rec.op(job, 1, lambda argv=argv: cli.main(argv), check)
        rec.end_pass()


# ---------------------------------------------------------------- quadrature

# sets drawn once per run: stratified draws keep the pass cost within ~2%
# from one seed to the next, and a short pass gives each operation many
# timing samples
N_SPECTRAL = 16  # integrated_position_variance (C04's ranges, wide band)
N_EXACT_HOT = 8  # exact-coth moments at theta = 1e5, checked against classical
N_EXACT_COLD = 8  # exact-coth moments at low theta with C10's reservoir cutoffs
C04_TOL = 5e-3
C10_TOL = 1e-3


def latin_hypercube(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points in [0,1)^dims, one per stratum along every axis.

    Stratifying keeps the mix of cheap and expensive quadratures, and so the
    pass time, nearly the same from one seed to the next.
    """
    strata = np.array([rng.permutation(n) for _ in range(dims)]).T
    return (strata + rng.random((n, dims))) / n


def _log_uniform(u, lo: float, hi: float) -> float:
    return float(10.0 ** (lo + (hi - lo) * u))


def quadrature_sets(seed: int):
    """(spectral, hot, cold) lists of SchemeParams drawn from the seed."""
    rng = np.random.default_rng(derive_seed(seed, "quadrature"))

    def draw(n, g_range, q_range, theta, cutoff):
        sets = []
        for i, (ug, uq, uz, ut, ue) in enumerate(latin_hypercube(rng, n, 5)):
            sets.append(core.SchemeParams(
                scheme=(SC, CD)[i % 2],
                g=_log_uniform(ug, *g_range),
                quality=_log_uniform(uq, *q_range),
                zeta=_log_uniform(uz, 0.0, 2.0),
                theta=theta(ut),
                eta=0.5 + 0.5 * float(ue),
                **cutoff(i),
            ))
        return sets

    spectral = draw(N_SPECTRAL, (0.0, 3.0), (2.5, 5.0), lambda u: _log_uniform(u, 3.0, 5.0),
                    lambda i: {"cutoff_feedback": "wide"})
    hot = draw(N_EXACT_HOT, (0.0, 3.0), (2.5, 5.0), lambda u: 1e5,
               lambda i: {"cutoff_reservoir": 1e3})
    cold = draw(N_EXACT_COLD, (0.0, 2.0), (2.0, 3.0), lambda u: _log_uniform(u, 1.0, 2.0),
                lambda i: {"cutoff_reservoir": (1e3, 1e4)[(i // 2) % 2]})
    return spectral, hot, cold


def _finite_moments(m) -> list[str]:
    values = (m.q2, m.p2, m.qp)
    ok = all(math.isfinite(v) for v in values) and m.q2 > 0 and m.p2 > 0
    return [] if ok else [f"moments {values!r} not finite and positive"]


class Quadrature:
    name = "quadrature"

    def __init__(self, seed: int, workdir: Path):
        self.spectral, self.hot, self.cold = quadrature_sets(seed)

    def first_call(self) -> None:
        spectra.integrated_position_variance(self.spectral[0])

    def run_pass(self, rec: Record) -> None:
        exact = steady.ThermalModel.EXACT_COTH
        for s in self.spectral:
            rec.op("spectral", 1, lambda s=s: spectra.integrated_position_variance(s),
                   lambda v, s=s: relative_gate(v, steady.steady_moments(s).q2, C04_TOL,
                                                "integrated spectrum vs <Q^2>"))
        for s in self.hot:
            rec.op("exact", 1, lambda s=s: steady.steady_moments(s, exact),
                   lambda m, s=s: relative_gate(m.q2, steady.steady_moments(s).q2, C10_TOL,
                                                "exact vs classical <Q^2> at theta=1e5"))
        for s in self.cold:
            rec.op("exact", 1, lambda s=s: steady.steady_moments(s, exact), _finite_moments)
        rec.end_pass()


WORKLOADS = {w.name: w for w in (Oracle, Analytic, Quadrature)}
