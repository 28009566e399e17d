"""Start-up contract: the package, the CLI, every kind of Monte Carlo run and
the spectral quadratures load no SciPy.  The Monte Carlo's draw threads and
the arrival-signal helper thread of figure 10 and ``cyclic`` use
``threading`` alone (no concurrent.futures, queue, multiprocessing or the
logging that concurrent.futures imports) and end with their calls.  SciPy's
own import loads ``concurrent.futures`` and ``logging``, so the SciPy paths
may load what ``import scipy.special`` loads and nothing more.

SciPy is imported only inside the nonstationary erfcx transform, so every
other path starts without its import: about 0.38 s on top of NumPy's, as the
median of 15 fresh processes on a shared 2-core host.  The quadratures (integrated
spectra, exact-coth moments) use the package's own Gauss-Kronrod rule.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# printed at the end of each probe: the live threads and the pool modules loaded
REPORT = """
print("threads:", threading.active_count())
pools = ("concurrent", "queue", "multiprocessing", "logging")
print("pools:" + ",".join(sorted(m for m in sys.modules if m.split(".")[0] in pools)))
print("loaded:" + ",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

PROBE = """
import sys, threading, warnings
warnings.simplefilter("ignore")
import mirrorfb
import mirrorfb.cli
from mirrorfb import Scheme, SchemeParams, SimConfig, paired_timestep_stats, simulate
from mirrorfb.spectra import integrated_position_variance
from mirrorfb.steady import ThermalModel, steady_moments

s = SchemeParams(scheme=Scheme.COLD_DAMPING, g=10.0, quality=50.0, zeta=10.0, theta=1e3, eta=0.8)
simulate(s, SimConfig(n_traj=2, n_steps=64, burn_in_steps=16))  # band-force path
paired_timestep_stats(s, SimConfig(n_traj=2, n_steps=64, burn_in_steps=16))
simulate(s, SimConfig(n_traj=2, n_steps=64, burn_in_steps=16, estimator="spectrum"))
integrated_position_variance(s)
steady_moments(s, ThermalModel.EXACT_COTH)
code = mirrorfb.cli.main(
    ["steady", "--scheme", "cd", "--g", "10", "--Q", "50", "--zeta", "10", "--format", "json"]
)
assert code == 0, code
""" + REPORT

# figure 10 and the README's cyclic call, each splitting the arrival signal with a helper thread
SPLIT_PROBE = """
import sys, tempfile, threading, warnings
warnings.simplefilter("ignore")
import mirrorfb.cli

out = tempfile.mkdtemp()
cyclic = ["cyclic", "--scheme", "cd", "--g", "2e3", "--Q", "1e5", "--zeta", "10", "--theta", "1e5",
          "--Tm", "1e-3", "--Tcool", "1e-6", "--sigma", "1e-4", "--wide-init", "--out", out + "/cyclic.csv"]
for argv in (["figure", "10", "--out", out], cyclic):
    code = mirrorfb.cli.main(argv)
    assert code == 0, (argv, code)
""" + REPORT

SCIPY_IMPORT = """
import sys, threading
import mirrorfb.cli
import scipy.special
""" + REPORT


def probe(code: str) -> tuple[set, str]:
    """(pool modules, SciPy modules) a fresh process has loaded after ``code``; one thread must be left."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "threads: 1\n" in proc.stdout
    pools = proc.stdout.split("pools:", 1)[1].split("\n", 1)[0]
    return set(filter(None, pools.split(","))), proc.stdout.rsplit("loaded:", 1)[-1].strip()


def test_common_paths_load_no_scipy():
    pools, loaded = probe(PROBE)
    assert pools == set(), pools
    assert loaded == "", f"scipy modules loaded: {loaded[:300]}"


def test_arrival_signal_split_loads_no_pool_of_its_own():
    # SciPy's import brings concurrent.futures and logging; the split adds nothing to them
    pools, _ = probe(SPLIT_PROBE)
    assert pools == probe(SCIPY_IMPORT)[0]
    assert not {"queue", "multiprocessing", "concurrent.futures.thread"} & pools, pools


def test_public_names():
    # __all__ is derived from the package namespace; these are its 40 names
    import mirrorfb

    assert mirrorfb.__all__ == [
        "BistabilityResult", "BrownianMoments", "CompareReport", "EnsembleStats", "ForcePulse",
        "InstabilityError", "KernelSet", "MeasurementWindow", "MomentSet", "NoiseStrengths",
        "PhysicalParams", "Scheme", "SchemeParams", "SimConfig", "SpectrumSeries", "ThermalModel",
        "brownian_exact", "chi_freq", "chi_time", "classical_steady_amplitude", "compare",
        "cyclic_avg_snr", "default_grid", "detected_noise_spectrum", "kernels",
        "min_position_variance", "noise_strengths", "nonstationary_noise", "nonstationary_snr",
        "optimal_input_power", "optimal_power_at_frequency", "paired_timestep_stats",
        "position_noise_spectrum", "regime_flags", "signal_spectrum", "simulate",
        "stationary_snr", "steady_energy", "steady_moments", "to_dimensionless",
    ]
    assert all(hasattr(mirrorfb, name) for name in mirrorfb.__all__)
