"""Start-up contract: the package, the CLI, every kind of Monte Carlo run and
the spectral quadratures load no SciPy.  The Monte Carlo's draw threads use
``threading`` alone (no concurrent.futures, queue or multiprocessing) and
end with their runs.

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
print("threads:", threading.active_count())
pools = ("concurrent", "queue", "multiprocessing")
print("pools:" + ",".join(sorted(m for m in sys.modules if m.split(".")[0] in pools)))
print("loaded:" + ",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_common_paths_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "threads: 1\n" in proc.stdout
    assert "pools:\n" in proc.stdout, proc.stdout
    loaded = proc.stdout.rsplit("loaded:", 1)[-1].strip()
    assert loaded == "", f"scipy modules loaded: {loaded[:300]}"
