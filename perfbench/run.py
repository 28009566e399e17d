"""mirrorfb benchmark: one seeded workload, checked, with metrics by name and unit.

    python3 perfbench/run.py --workload oracle|analytic|quadrature \
        --seed N --seconds S --trace 0|1

Run from the root of a mirrorfb checkout.  Every measurement happens in a
fresh single-threaded interpreter (``worker.py``):

1. set-up probes: ``import mirrorfb``, ``mirrorfb.cli`` and the workload's
   first call, repeated and reported as the median (``setup_s``);
2. a machine calibration (Philox draws/s, memory copy bandwidth), printed on
   the detail line of every run so host drift can be told from code change;
3. the workload itself, as a closed loop of passes for ``--seconds``.

With ``--trace 0`` the last line carries the end-to-end metrics, measured
without tracing.  With ``--trace 1`` half the window runs untraced and one
more pass runs with spans around every public layer function; the last
line then carries the per-layer metrics.  Metric names, units and
directions come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("oracle", "analytic", "quadrature")
SETUP_PROBES = 5  # measured, after one discarded probe that compiles bytecode
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(RuntimeError):
    pass


def _child(args: list[str], root: Path, timeout: float) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=root, env=env,
            capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"worker {' '.join(args)} timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def per_layer(res: dict, setup: dict, calib: dict, peaks: dict) -> dict:
    plain, traced, layers = res["plain"], res["traced"], res["layers"]
    jobs = plain["jobs"]

    def rate(*names):
        sec = sum(jobs[n][0] for n in names if n in jobs)
        work = sum(jobs[n][1] for n in names if n in jobs)
        return work / sec if sec else 0.0

    worst = {k: max(plain["worst"].get(k, 0.0), traced["worst"].get(k, 0.0))
             for k in ("max_abs_z", "halving_se")}
    oracle_jobs = ("paired.sc", "paired.cd", "single.sc", "single.cd", "spectrum.cd")
    return {
        "paired_traj_steps_per_s": rate("paired.sc", "paired.cd"),
        "single_traj_steps_per_s": rate("single.sc", "single.cd", "spectrum.cd"),
        "figures_s": jobs.get("figures", [0.0])[0],
        "cli_calls_per_s": rate("subcommands"),
        "quad_calls_per_s": rate("spectral", "exact"),
        **{f"oracle.{job}.traj_steps_per_s": rate(job) for job in oracle_jobs},
        **{f"oracle.paired.{tag}.peak_alloc_mib": peaks.get(tag, 0.0) for tag in ("sc", "cd")},
        "oracle.traj_steps": sum(jobs[j][1] for j in oracle_jobs if j in jobs),
        "oracle.max_abs_z": worst["max_abs_z"],
        "oracle.halving_se": worst["halving_se"],
        **layers,
        "cli.bytes_written": plain["per_pass"].get("bytes_written", 0.0),
        "setup.import_s": setup["import_s"],
        "setup.first_call_s": setup["first_call_s"],
        **{f"calib.{k}": v for k, v in calib.items()},
        "trace.overhead_s": traced["pass_s"][0] - statistics.median(plain["pass_s"]),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    started = time.monotonic()
    if not (root / "src" / "mirrorfb" / "__init__.py").is_file():
        raise BenchError(f"no mirrorfb sources under {root / 'src'}; run from a checkout root")
    spec = json.loads((root / "BENCHMARK.json").read_text())

    def left():
        return DEADLINE_S - (time.monotonic() - started)

    probes = [_child(["setup", "--workload", workload], root, left())
              for _ in range(SETUP_PROBES + 1)][1:]
    setup = {k: statistics.median(p[k] for p in probes) for k in ("import_s", "first_call_s")}
    setup_s = statistics.median(p["import_s"] + p["first_call_s"] for p in probes)
    calib = _child(["calib"], root, left())
    res = _child(["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(int(trace))], root, left())

    if trace:
        peaks = {}
        if workload == "oracle":
            for tag in ("sc", "cd"):
                peaks[tag] = _child(["peak", "--scheme", tag, "--seed", str(seed)], root, left())["peak_alloc_mib"]
        values = per_layer(res, setup, calib, peaks)
        declared = spec["per_layer"]
    else:
        values = {"setup_s": setup_s, "wall_s": res["plain"]["wall_s"], "peak_rss_mib": res["peak_rss_mib"]}
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "pass_s": res["plain"]["pass_s"],
        "setup_probes_s": [p["import_s"] + p["first_call_s"] for p in probes],
        "calibration": calib,
        "failures": res["failures"],
        "absent_names": res.get("absent", []),
    }
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for failure in detail["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
