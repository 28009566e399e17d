"""In-memory span tracer installed around mirrorfb's public layer functions.

Tracing lives entirely in the benchmark process: each public function named
in ``TARGETS`` is replaced by a wrapper that records one span (name, start,
end, parent span, operation id) and, where the function takes a frequency
grid, the number of grid points.  Modules bind names such as
``from .response import chi_freq`` at import time, so the wrapper is rebound
in the namespace of every ``mirrorfb`` module that holds the original object.
A target the library no longer has is recorded as absent instead of failing,
so a refactor that deletes a public name does not break the benchmark.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# "module.attr" or "module.Class.method" -> index of the argument that holds
# the frequency grid (None when the call has no grid)
TARGETS = {
    "core.SchemeParams.__post_init__": None,
    "core.SchemeParams.feedback_band": None,
    "core.classical_steady_amplitude": None,
    "core.to_dimensionless": None,
    "response.chi_freq": 1,
    "response.chi_time": None,
    "response.kernels": None,
    "response.damping_rate": None,
    "steady.steady_moments": None,
    "steady.steady_energy": None,
    "steady.brownian_exact": None,
    "steady.noise_strengths": None,
    "steady.optimal_input_power": None,
    "steady.min_position_variance": None,
    "steady.regime_flags": None,
    "spectra.position_noise_spectrum": 1,
    "spectra.detected_noise_spectrum": 1,
    "spectra.stationary_snr": 2,
    "spectra.integrated_position_variance": None,
    "spectra.optimal_power_at_frequency": None,
    "spectra.shot_noise_floor": None,
    "nonstat.nonstationary_noise": 2,
    "nonstat.nonstationary_snr": 3,
    "nonstat.signal_spectrum": 3,
    "nonstat.cyclic_avg_snr": 4,
    "nonstat.force_halfline_transform": 2,
    "_quad.quad_spectrum": None,
    "oracle.simulate": None,
    "oracle.paired_timestep_stats": None,
    "oracle.compare": None,
    "oracle.dt_bound": None,
    "cli.main": None,
}

_MISSING = object()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _resolve(name: str):
    """(owner, attribute, original) for a target, or None when it is gone."""
    mod_name, *path = name.split(".")
    owner = sys.modules.get(f"mirrorfb.{mod_name}")
    for attr in path[:-1]:
        owner = getattr(owner, attr, None) if owner is not None else None
    if owner is None:
        return None
    original = getattr(owner, path[-1], _MISSING)
    return None if original is _MISSING else (owner, path[-1], original)


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self):
        self.names: list[str] = []
        # span columns, one entry per span in the order spans opened
        self.nid = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.points = array("q")
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.op_id = 0
        self.paused = False  # set while the benchmark checks results
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def call(self, nid: int, grid_arg, fn, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        row = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.points.append(
            int(np.size(args[grid_arg])) if grid_arg is not None and len(args) > grid_arg else 0
        )
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(row)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[row] = t0
            self.end[row] = t1

    def _wrap(self, name: str, grid_arg, fn):
        nid = len(self.names)
        self.names.append(name)
        tracer = self
        if name == "_quad.quad_spectrum":
            def traced(integrand, *args, **kwargs):
                def counted(w):
                    if not tracer.paused:
                        tracer.count("quad.integrand_evals")
                    return integrand(w)

                try:
                    return tracer.call(nid, None, fn, (counted,) + args, kwargs)
                except Exception as exc:
                    if type(exc).__name__ == "QuadratureError" and not tracer.paused:
                        tracer.count("quad.failures")
                    raise
        else:
            def traced(*args, **kwargs):
                return tracer.call(nid, grid_arg, fn, args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets: dict = TARGETS) -> None:
        """Wrap every target and rebind it wherever mirrorfb modules hold it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "mirrorfb" or n.startswith("mirrorfb.")]
        for name, grid_arg in targets.items():
            found = _resolve(name)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, grid_arg, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def table(self) -> dict[str, np.ndarray]:
        """Span columns plus each span's self time (duration minus its children)."""
        cols = {
            "name_id": np.array(self.nid, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "op_id": np.array(self.op, dtype=np.int64),
            "points": np.array(self.points, dtype=np.int64),
        }
        dur = cols["end"] - cols["start"]
        nested = cols["parent"] >= 0
        child = np.bincount(cols["parent"][nested], weights=dur[nested], minlength=dur.size)
        return {**cols, "duration": dur, "self": dur - child}

    def write(self, path) -> None:
        table = self.table()
        np.savez(path, names=np.array(self.names), **{k: table[k] for k in
                 ("name_id", "start", "end", "parent", "op_id", "points")})
