"""Self-tests of the benchmark: its gates fire, its names match its spec.

    python3 -m pytest perfbench -q        (from the checkout root)
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from mirrorfb import oracle, response, spectra, steady  # noqa: E402
from mirrorfb._quad import QuadratureError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _names(kind):
    return [m["name"] for m in SPEC[kind]]


def test_spec_records_name_unit_and_direction():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                       ("per_layer", {"name", "unit", "better"})):
        for m in SPEC[kind]:
            assert set(m) == keys
            assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
            assert m["better"] in ("higher", "lower")
    names = _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_predictions_cover_every_layer_metric():
    doc = json.loads((HERE / "predictions.json").read_text())
    assert doc["default_seeds"]
    listed = [n for e in doc["interactions"] for n in e["per_layer"]]
    assert sorted(listed) == sorted(_names("per_layer"))
    known = set(_names("end_to_end")) | set(_names("per_layer"))
    for e in doc["interactions"]:
        assert set(e["moves"]) <= known
        assert set(e["on"]) | set(e["flat_on"]) <= set(workloads.WORKLOADS)
        assert not set(e["on"]) & set(e["flat_on"])


def _run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_spec(trace):
    proc = _run_bench(ROOT, "analytic", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(k) for k in result["metrics"])
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "analytic", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------- gates fire


def test_analytic_gate_fires_on_a_flipped_byte(tmp_path):
    wl = workloads.Analytic(0, tmp_path)
    rec = workloads.Record()
    wl.run_pass(rec)
    assert rec.failed == 0 and rec.attempted == len(wl.calls)
    name, digest = next(iter(wl.pins["figure 5"].items()))
    path = wl.outdir / name
    assert workloads.output_gate(path, digest) == []
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    assert workloads.output_gate(path, digest)


def test_analytic_gate_fires_on_a_non_finite_value(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("omega,value,kind,provenance\n1,nan,SNR,x\n")
    digest = workloads.hashlib.sha256(path.read_bytes()).hexdigest()
    assert any("non-finite" in p for p in workloads.output_gate(path, digest))
    path = tmp_path / "steady.json"
    path.write_text('{"q2": NaN}\n')
    digest = workloads.hashlib.sha256(path.read_bytes()).hexdigest()
    assert workloads.output_gate(path, digest)


def _stats_at(moments, rel_err=0.01, **shift):
    fields = {}
    for name in ("q2", "p2", "qp"):
        err = rel_err * math.sqrt(moments.q2 * moments.p2)
        fields[name] = getattr(moments, name) + shift.get(name, 0.0) * err
        fields[f"{name}_err"] = err
    return oracle.EnsembleStats(mean_q=0.0, mean_q_err=1.0, mean_p=0.0, mean_p_err=1.0,
                                seed=0, n_traj=2048, dt=0.01, **fields)


@pytest.mark.parametrize("scheme", [workloads.SC, workloads.CD])
def test_oracle_gates_fire_on_a_10_se_shift(scheme):
    s = workloads.core.SchemeParams(scheme=scheme, **workloads.C09)
    m = steady.steady_moments(s)
    exact = _stats_at(m)
    assert workloads.moments_gate(m, exact, workloads.Z_MOMENTS) == []
    for name in ("q2", "p2", "qp"):
        assert workloads.moments_gate(m, _stats_at(m, **{name: 10.0}), workloads.Z_MOMENTS)
    assert workloads.halving_ratio(exact, exact) == 0.0
    assert workloads.halving_ratio(exact, _stats_at(m, p2=1.5)) >= workloads.HALVING_SE


def test_spectrum_gate_fires_on_a_10_se_bin():
    s = workloads.core.SchemeParams(scheme=workloads.CD, **workloads.SPECTRUM)
    omegas = np.linspace(0.85, 1.15, 33)
    values = spectra.position_noise_spectrum(s, omegas, thermal="classical")
    errors = 0.05 * values

    def stats(v):
        return dataclasses.replace(_stats_at(steady.steady_moments(s)),
                                   spectrum=oracle.SpectrumEstimate(omegas, v, errors))

    assert workloads.spectrum_gate(s, stats(values), workloads.Z_SPECTRUM) == []
    shifted = values.copy()
    shifted[16] += 10.0 * errors[16]
    assert workloads.spectrum_gate(s, stats(shifted), workloads.Z_SPECTRUM)


def test_quadrature_gates_fire_on_a_1pct_error():
    spectral, hot, _ = workloads.quadrature_sets(5)
    s = spectral[0]
    value = spectra.integrated_position_variance(s)
    q2 = steady.steady_moments(s).q2
    assert workloads.relative_gate(value, q2, workloads.C04_TOL, "x") == []
    assert workloads.relative_gate(1.01 * value, q2, workloads.C04_TOL, "x")
    s = hot[0]
    exact = steady.steady_moments(s, steady.ThermalModel.EXACT_COTH).q2
    classical = steady.steady_moments(s).q2
    assert workloads.relative_gate(exact, classical, workloads.C10_TOL, "x") == []
    assert workloads.relative_gate(1.01 * exact, classical, workloads.C10_TOL, "x")


def test_quadrature_error_counts_as_a_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise QuadratureError("tolerance not met")

    monkeypatch.setattr(spectra, "integrated_position_variance", fail)
    rec = workloads.Record()
    workloads.Quadrature(1, Path(".")).run_pass(rec)
    assert rec.failed == workloads.N_SPECTRAL


# ---------------------------------------------------------------- inputs


def test_inputs_follow_the_seed():
    a = workloads.quadrature_sets(1)
    assert a == workloads.quadrature_sets(1)
    assert a != workloads.quadrature_sets(2)
    assert workloads.derive_seed(1, "paired", "sc", 0) == workloads.derive_seed(1, "paired", "sc", 0)
    assert workloads.derive_seed(1, "paired", "sc", 0) != workloads.derive_seed(2, "paired", "sc", 0)


def test_latin_hypercube_fills_every_stratum():
    u = workloads.latin_hypercube(np.random.default_rng(0), 8, 5)
    for column in u.T:
        assert sorted(np.floor(column * 8).astype(int)) == list(range(8))


# ---------------------------------------------------------------- tracing


def test_tracer_rebinds_imported_names_and_restores_them():
    original = response.chi_freq
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert steady.chi_freq is not original and spectra.chi_freq is not original
        s = workloads.core.SchemeParams(scheme=workloads.SC, g=1.0, quality=100.0, zeta=1.0,
                                        theta=10.0, cutoff_reservoir=1e2)
        steady.brownian_exact(s)
    finally:
        tracer.uninstall()
    assert steady.chi_freq is original and response.chi_freq is original
    table = tracer.table()
    name_of = np.array(tracer.names)[table["name_id"]]
    chi = name_of == "response.chi_freq"
    assert chi.any()
    parents = name_of[table["parent"][chi]]
    assert set(parents) == {"_quad.quad_spectrum"}
    assert tracer.counts["quad.integrand_evals"] == chi.sum()
    assert np.all(table["self"] <= table["duration"] + 1e-12)


def test_tracer_records_a_missing_name_as_absent(monkeypatch):
    monkeypatch.delattr(response, "damping_rate")
    tracer = spans.Tracer()
    tracer.install({"response.damping_rate": None, "response.no_such_function": None,
                    "steady.steady_moments": None})
    tracer.uninstall()
    assert tracer.absent == ["response.damping_rate", "response.no_such_function"]


def test_self_time_is_duration_minus_children():
    tracer = spans.Tracer()

    def inner():
        return sum(range(10000))

    def outer():
        return tracer.call(1, None, inner, (), {}) + tracer.call(1, None, inner, (), {})

    tracer.names = ["outer", "inner"]
    tracer.call(0, None, outer, (), {})
    t = tracer.table()
    assert list(t["parent"]) == [-1, 0, 0]
    assert t["self"][0] == pytest.approx(t["duration"][0] - t["duration"][1:].sum())
