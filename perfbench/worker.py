"""One benchmark process: a set-up probe, a machine calibration, or a workload run.

``run.py`` starts each of these in a fresh single-threaded interpreter and
reads the JSON object this script prints as its last line:

    worker.py setup --workload W            import + first-call timing
    worker.py calib                         Philox draws/s, copy bandwidth
    worker.py peak --scheme sc|cd --seed N  memory growth of one paired job
    worker.py run --workload W --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path.cwd()
WORKDIR = ROOT / ".bench_work"
sys.path.insert(0, str(ROOT / "src"))

MIB = 1 << 20


def setup_probe(workload: str) -> dict:
    t0 = time.perf_counter()
    import mirrorfb  # noqa: F401  (the import is what is timed)
    import mirrorfb.cli  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    workdir = _workdir()
    try:
        wl = workloads.WORKLOADS[workload](0, workdir)
        t2 = time.perf_counter()
        wl.first_call()
        t3 = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"import_s": t1 - t0, "first_call_s": t3 - t2}


def _l3_bytes() -> int:
    """Last-level cache size as the kernel reports it, 0 when unknown."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    sizes = []
    for index in base.glob("index*"):
        try:
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        unit = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
        sizes.append(int(text.rstrip("KM")) * unit)
    return max(sizes, default=0)


def calibrate() -> dict:
    """Machine rows: these move with the host, not with the program."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=0))
    n = 1 << 22
    draws = []
    for _ in range(5):
        t0 = time.perf_counter()
        rng.standard_normal(n)
        draws.append(n / (time.perf_counter() - t0))

    l3 = _l3_bytes()
    size = max(4 * l3, 420 * MIB)  # at least four times the last-level cache
    src = np.ones(size // 8)
    dst = np.zeros_like(src)
    copies = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        copies.append(size / (time.perf_counter() - t0))
    return {
        "philox_draws_per_s": statistics.median(draws),
        "copy_gib_per_s": statistics.median(copies) / (1 << 30),
        "copy_array_mib": size / MIB,
        "l3_cache_mib": l3 / MIB,
    }


def paired_peak(tag: str, seed: int) -> dict:
    """Growth of peak resident memory over one paired-chain job, alone in a process.

    tracemalloc would see the same arrays but also hooks every Python object
    the stepping loop makes, which slows the job about tenfold.
    """
    import workloads
    from mirrorfb import oracle

    s = workloads.Oracle(seed, WORKDIR).schemes[tag]
    cfg, _ = workloads.c09_config(s, workloads.N_TRAJ, workloads.derive_seed(seed, "paired", tag, 0))
    base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    oracle.paired_timestep_stats(s, cfg)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"peak_alloc_mib": (peak - base) / 1024.0}


def _workdir() -> Path:
    WORKDIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=WORKDIR))


def _passes(wl, rec, budget: float, at_most: int | None = None) -> None:
    """Closed loop: run passes until the next one would overrun ``budget``."""
    t_start = time.perf_counter()
    walls = []
    while True:
        t0 = time.perf_counter()
        wl.run_pass(rec)
        walls.append(time.perf_counter() - t0)
        if at_most is not None and len(walls) >= at_most:
            return
        if time.perf_counter() - t_start + statistics.median(walls) > budget:
            return


def _phase_summary(rec) -> dict:
    """Pass and job times, each the sum of its operations' fastest samples.

    Other tenants of the shared 2-core host slow this process by up to 1.7x,
    switching on and off within milliseconds and in a share that differs
    from run to run.  They never make an operation faster, and a short
    operation now and then runs wholly in a quiet stretch, so its fastest
    sample tracks the program.  Over 30 s analytic runs the spread
    (IQR/median) across seeds was 0.33 for the lower decile of whole-pass
    times and 0.07 for this sum.
    """
    jobs = {}
    for key, samples in rec.op_s.items():
        acc = jobs.setdefault(key[0], [0.0, 0.0])
        acc[0] += min(samples)
        acc[1] += rec.op_work[key]
    return {
        "wall_s": sum(t for t, _ in jobs.values()),
        "pass_s": rec.pass_s,
        "jobs": jobs,
        "worst": rec.worst,
        "per_pass": {k: v / max(len(rec.pass_s), 1) for k, v in rec.totals.items()},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workdir = _workdir()
    try:
        wl = workloads.WORKLOADS[workload](seed, workdir)
        wl.first_call()  # lazy loads and caches settle before timing
        plain = workloads.Record()
        if not trace:
            _passes(wl, plain, seconds)
            records, out = [plain], {}
        else:
            from spans import Tracer

            # half the window untraced, then one traced pass
            _passes(wl, plain, seconds / 2.0)
            tracer = Tracer()
            traced = workloads.Record(tracer=tracer)
            tracer.install()
            try:
                _passes(wl, traced, 0.0, at_most=1)
            finally:
                tracer.uninstall()
            tracer.write(WORKDIR / f"spans-{workload}.npz")
            records = [plain, traced]
            out = {"traced": _phase_summary(traced), "layers": layer_metrics(tracer),
                   "absent": tracer.absent}
        return {
            **out,
            "plain": _phase_summary(plain),
            "attempted": sum(r.attempted for r in records),
            "failed": sum(r.failed for r in records),
            "failures": [f for r in records for f in r.failures][:20],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(tracer) -> dict:
    """Per-layer rows of one traced pass, from its spans and counts."""
    import numpy as np

    from spans import layer_of

    t = tracer.table()
    names = tracer.names
    layer = np.array([layer_of(n) for n in names] + [""])[t["name_id"]]
    by_name = {n: t["name_id"] == i for i, n in enumerate(names)}
    empty = np.zeros(t["name_id"].shape, dtype=bool)

    def calls(name):
        return int(by_name.get(name, empty).sum())

    def mean_s(name):
        sel = by_name.get(name, empty)
        return float(t["duration"][sel].mean()) if sel.any() else 0.0

    def self_s(lay):
        return float(t["self"][layer == lay].sum())

    def outer_points(lay, fns):
        """Grid points and time of calls not nested in the same layer."""
        parent_layer = np.where(t["parent"] >= 0, layer[np.maximum(t["parent"], 0)], "")
        sel = np.zeros_like(empty)
        for fn in fns:
            sel |= by_name.get(f"{lay}.{fn}", empty)
        sel &= parent_layer != lay
        return int(t["points"][sel].sum()), float(t["duration"][sel].sum())

    spec_points, spec_s = outer_points(
        "spectra", ("position_noise_spectrum", "detected_noise_spectrum", "stationary_snr"))
    ns_points, _ = outer_points(
        "nonstat", ("nonstationary_noise", "nonstationary_snr", "signal_spectrum",
                    "cyclic_avg_snr", "force_halfline_transform"))
    quad_calls = calls("_quad.quad_spectrum")
    evals = tracer.counts.get("quad.integrand_evals", 0)
    return {
        "core.SchemeParams.constructions": calls("core.SchemeParams.__post_init__"),
        "core.self_s": self_s("core"),
        "response.chi_freq.calls": calls("response.chi_freq"),
        "response.chi_freq.points": int(t["points"][by_name.get("response.chi_freq", empty)].sum()),
        "response.self_s": self_s("response"),
        "steady.steady_moments.calls": calls("steady.steady_moments"),
        "steady.steady_moments.us_per_call": 1e6 * mean_s("steady.steady_moments"),
        "steady.brownian_exact.ms_per_call": 1e3 * mean_s("steady.brownian_exact"),
        "steady.self_s": self_s("steady"),
        "spectra.points": spec_points,
        "spectra.ns_per_point": 1e9 * spec_s / spec_points if spec_points else 0.0,
        "spectra.integrated_position_variance.ms_per_call":
            1e3 * mean_s("spectra.integrated_position_variance"),
        "spectra.self_s": self_s("spectra"),
        "nonstat.cyclic_avg_snr.ms_per_call": 1e3 * mean_s("nonstat.cyclic_avg_snr"),
        "nonstat.force_halfline_transform.calls": calls("nonstat.force_halfline_transform"),
        "nonstat.points": ns_points,
        "nonstat.self_s": self_s("nonstat"),
        "quad.quad_spectrum.calls": quad_calls,
        "quad.quad_spectrum.ms_per_call": 1e3 * mean_s("_quad.quad_spectrum"),
        "quad.integrand_evals": evals,
        "quad.evals_per_call": evals / quad_calls if quad_calls else 0.0,
        "quad.failures": tracer.counts.get("quad.failures", 0),
        "cli.main.calls": calls("cli.main"),
        "cli.self_s": self_s("cli"),
        "trace.spans": int(t["name_id"].size),
        "trace.absent_names": len(tracer.absent),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("setup", "calib", "run", "peak"))
    ap.add_argument("--workload")
    ap.add_argument("--scheme", choices=("sc", "cd"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")  # regime caveats repeat on every pass
    if args.mode == "setup":
        result = setup_probe(args.workload)
    elif args.mode == "calib":
        result = calibrate()
    elif args.mode == "peak":
        result = paired_peak(args.scheme, args.seed)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
