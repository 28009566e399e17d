"""CLI tests: parsing, outputs, determinism, exit codes, figure tables."""

import argparse
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mirrorfb.cli import build_parser, main

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

PINNED_OUTPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "pinned_outputs.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "omega,value,kind,provenance"
    rows = []
    for line in lines[1:]:
        x, v, kind, prov = line.split(",", 3)
        rows.append((float(x), float(v), kind, prov))
    return rows


def test_steady_json_matches_hand_value(tmp_path, capsys):
    # cold damping at zero gain: q2 = zeta/8 + theta/2
    code, out, _ = run_cli(
        capsys,
        "steady", "--scheme", "cd", "--g", "0", "--Q", "50",
        "--zeta", "10", "--theta", "1e3", "--eta", "0.8", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["q2"] == pytest.approx(501.25)
    assert payload["p2"] == pytest.approx(501.25)
    assert payload["qp"] == 0.0
    assert payload["energy_units"] == pytest.approx(4.0 * 501.25)


def test_steady_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "steady", "--scheme", "cd", "--g", "100", "--Q", "1e4", "--theta", "1e5",
        "--eta", "0.8", "--sweep", "zeta:1:1000:25:log", "--out", str(out),
    )
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 25 * 4  # q2, p2, qp, energy per grid point
    kinds = {r[2] for r in rows}
    assert kinds == {"q2", "p2", "qp", "energy"}


def test_sweep_unknown_variable_is_config_error(capsys):
    code, _, err = run_cli(capsys, "steady", "--sweep", "bogus:1:2:5")
    assert code == 1
    assert "invalid configuration" in err


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(
        """
        # working-units parameter file
        scheme = cd
        g = 10
        quality = 50
        zeta = 10
        theta = 1e3
        eta = 0.8
        """
    )
    code, out, _ = run_cli(
        capsys, "steady", "--config", str(cfg), "--g", "0", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["q2"] == pytest.approx(501.25)


def test_physical_config_file(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(
        "\n".join(
            [
                "mass = 1e-12",
                f"omega_m = {2 * math.pi * 1e6}",
                f"gamma_m = {2 * math.pi * 10.0}",
                "cavity_length = 1e-2",
                f"gamma_c = {2 * math.pi * 1e8}",
                "laser_power = 1e-6",
                "laser_omega0 = 1.77e15",
                "cavity_omega_c = 1.77e15",
                "efficiency = 0.8",
                "temperature = 4.0",
            ]
        )
    )
    code, out, _ = run_cli(capsys, "steady", "--config", str(cfg), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["q2"] > 0


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("zeta = 1\nnonsense = 3\n")
    code, _, err = run_cli(capsys, "steady", "--config", str(cfg))
    assert code == 1
    assert "nonsense" in err


def test_invalid_flag_value_exit_code(capsys):
    code, _, err = run_cli(capsys, "steady", "--eta", "1.5")
    assert code == 1
    assert "invalid configuration" in err


@pytest.mark.parametrize("flag, value", [("--g", "nan"), ("--zeta", "inf")])
def test_non_finite_flag_exit_code(capsys, flag, value):
    code, out, err = run_cli(capsys, "steady", "--scheme", "cd", flag, value, "--format", "json")
    assert code == 1
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("band", ["inf", "0:inf"])
@pytest.mark.parametrize("subcommand", ["steady", "montecarlo"])
def test_infinite_feedback_band_exit_code(capsys, tmp_path, subcommand, band):
    # an infinite loop band has no finite <P^2>, and no step resolves it
    out = tmp_path / "out.json"
    code, _, err = run_cli(
        capsys, subcommand, "--scheme", "cd", "--g", "100", "--Q", "1e4", "--zeta", "10",
        "--theta", "1e5", "--eta", "0.8", "--fb-band", band, "--out", str(out),
    )
    assert code == 1
    assert "finite" in err
    assert not out.exists()


def test_oversized_band_force_batch_exit_code(capsys, tmp_path, monkeypatch):
    # 1000 wide-band trajectories would hold 14 GiB of band-force impulses per batch
    def unreachable(*args):
        raise AssertionError("band-force impulses synthesized for a refused batch")

    monkeypatch.setattr("mirrorfb.oracle._band_impulses", unreachable)
    out = tmp_path / "out.json"
    code, _, err = run_cli(
        capsys, "montecarlo", "--scheme", "cd", "--g", "10", "--Q", "50", "--zeta", "10",
        "--theta", "1e3", "--fb-band", "wide", "--n-traj", "1000", "--out", str(out),
    )
    assert code == 1
    assert "14.0 GiB per batch" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("snr-stationary", "--Tm", "nan"),
        ("snr-nonstationary", "--Tm", "nan"),
        ("cyclic", "--Tm", "1e-3", "--sigma", "nan"),
        ("cyclic", "--Tm", "1e-3", "--Tcool", "nan"),
        ("snr-stationary", "--f0", "nan"),
        ("snr-nonstationary", "--Tm", "1e-3", "--t1", "inf"),
    ],
    ids="_".join,
)
def test_non_finite_subcommand_flag_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--scheme", "cd", "--g", "10", "--opoints", "10")
    assert code == 1
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("flag, value", [("--n-steps", "1"), ("--n-steps", "0")])
def test_montecarlo_too_few_steps_exit_code(capsys, flag, value):
    code, out, err = run_cli(
        capsys,
        "montecarlo", "--scheme", "cd", "--g", "10", "--Q", "50", "--zeta", "10",
        "--theta", "1e3", flag, value, "--n-traj", "4",
    )
    assert code == 1
    assert out == ""
    assert "n_steps must be >= 2" in err


def test_non_finite_json_output_is_numerical_failure(capsys, monkeypatch):
    import mirrorfb.cli as cli_mod
    from mirrorfb.steady import MomentSet

    monkeypatch.setattr(
        cli_mod.steady, "steady_moments", lambda *a, **k: MomentSet(1.0, 1.0, math.nan)
    )
    code, out, err = run_cli(capsys, "steady", "--scheme", "cd", "--g", "1", "--format", "json")
    assert code == 2
    assert out == ""
    assert "non-finite output" in err


def test_non_finite_csv_output_is_numerical_failure(tmp_path, capsys, monkeypatch):
    import mirrorfb.cli as cli_mod

    monkeypatch.setattr(
        cli_mod.spectra, "position_noise_spectrum", lambda s, omega, **k: np.full_like(omega, math.nan)
    )
    out = tmp_path / "spec.csv"
    code, _, err = run_cli(capsys, "spectrum", "--scheme", "cd", "--g", "1", "--out", str(out))
    assert code == 2
    assert not out.exists()
    assert "non-finite output" in err


def test_repeated_main_calls_share_no_state(capsys):
    # build_parser is cached: a failed parse must not leak into later calls
    code, out, err = run_cli(capsys, "steady", "--scheme", "cd", "--format", "xml")
    assert (code, out) == (1, "")
    assert "invalid configuration" in err
    steady_args = ("steady", "--scheme", "cd", "--g", "0", "--Q", "50", "--zeta", "10",
                   "--theta", "1e3", "--eta", "0.8")
    code, out, _ = run_cli(capsys, *steady_args, "--format", "json")
    assert code == 0
    assert json.loads(out)["q2"] == pytest.approx(501.25)
    code, out, _ = run_cli(capsys, *steady_args)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "omega,value,kind,provenance"
    assert [line.split(",")[2] for line in lines[1:]] == ["q2", "p2", "qp", "energy"]
    assert float(lines[1].split(",")[1]) == pytest.approx(501.25)


def test_spectrum_subcommand(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code, _, _ = run_cli(
        capsys,
        "spectrum", "--scheme", "cd", "--g", "1e3", "--Q", "1e4", "--zeta", "10",
        "--theta", "1e5", "--eta", "0.8", "--detected", "--opoints", "50",
        "--out", str(out),
    )
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 50
    assert all(r[2] == "DetectedNoise" for r in rows)
    assert all(r[1] > 0 for r in rows)


def test_invalid_timestep_and_window_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "montecarlo", "--scheme", "cd", "--g", "10", "--Q", "50", "--zeta", "10",
        "--theta", "1e3", "--dt", "1.0", "--n-traj", "4", "--n-steps", "10",
    )
    assert code == 1  # dt above the stability bound is a configuration error
    assert "invalid configuration" in err
    code, _, _ = run_cli(
        capsys, "snr-nonstationary", "--scheme", "cd", "--g", "10", "--Tm", "-1"
    )
    assert code == 1


PULSE_ARGS = (
    "--scheme", "cd", "--g", "2e3", "--Q", "1e5", "--zeta", "10", "--theta", "1e5", "--eta", "0.8",
    "--Tm", "1e-3", "--f0", "2", "--sigma", "2e-4", "--t1", "5e-4", "--omega-f", "1.05",
    "--omin", "0.5", "--omax", "1.5", "--opoints", "9",
)


@pytest.mark.parametrize("wide", [False, True], ids=["cooled_init", "wide_init"])
@pytest.mark.parametrize("subcommand", ["snr-nonstationary", "cyclic"])
def test_pulse_subcommands_match_library(tmp_path, capsys, subcommand, wide):
    # the CSV is the library curve for the same flags: times in units of 1/gamma_m
    # and, with --wide-init, the wide-band loop's moments as the initial state
    from dataclasses import replace

    from mirrorfb import nonstat, steady
    from mirrorfb.core import Scheme, SchemeParams

    cyclic = subcommand == "cyclic"
    out = tmp_path / "snr.csv"
    flags = (*(("--Tcool", "1e-6") if cyclic else ()), *(("--wide-init",) if wide else ()))
    assert run_cli(capsys, subcommand, *PULSE_ARGS, *flags, "--out", str(out))[0] == 0

    s = SchemeParams(scheme=Scheme.COLD_DAMPING, g=2e3, quality=1e5, zeta=10.0, theta=1e5, eta=0.8)
    gm, grid = s.gamma_m, np.geomspace(0.5, 1.5, 9)
    win = nonstat.MeasurementWindow(1e-3 / gm)
    force = nonstat.ForcePulse(f0=2.0, sigma=2e-4 / gm, t1=5e-4 / gm, omega_f=1.05)

    def curve(init):
        moments = steady.steady_moments(init)
        if cyclic:
            return nonstat.cyclic_avg_snr(s, force, win, 1e-6 / gm, grid, moments=moments)
        return nonstat.nonstationary_snr(s, force, win, grid, moments=moments)

    wide_curve, cooled_curve = curve(replace(s, cutoff_feedback="wide")), curve(s)
    assert np.max(np.abs(wide_curve / cooled_curve - 1.0)) > 0.1  # the flag matters here
    rows = read_rows(out)
    np.testing.assert_allclose([r[0] for r in rows], grid, rtol=1e-11)
    np.testing.assert_allclose([r[1] for r in rows], wide_curve if wide else cooled_curve, rtol=1e-11)
    tag = "gmTm=0.001;gmTcool=1e-06;cyclic" if cyclic else "gmTm=0.001;nonstationary"
    prov = f"scheme=cd;g=2000;Q=100000;zeta=10;theta=100000;eta=0.8;{tag}"
    assert {(r[2], r[3]) for r in rows} == {("SNR", prov)}


def test_negative_cooling_time_exit_code(capsys):
    code, out, err = run_cli(capsys, "cyclic", "--scheme", "cd", "--g", "10", "--Tm", "1e-3", "--Tcool", "-1")
    assert (code, out) == (1, "")
    assert "--Tcool must be >= 0" in err


def test_numerical_failure_exit_code(capsys, monkeypatch):
    import mirrorfb.cli as cli_mod
    from mirrorfb.oracle import InstabilityError

    def boom(*args, **kwargs):
        raise InstabilityError("|Q| reached 1e30 (guard 1e7) at step 3")

    monkeypatch.setattr(cli_mod.oracle, "simulate", boom)
    code, _, err = run_cli(capsys, "montecarlo", "--n-traj", "4", "--n-steps", "10")
    assert code == 2
    assert "numerical failure" in err


_PARAMS = {"--config", "--scheme", "--g", "--Q", "--zeta", "--theta", "--eta", "--fb-band"}
_GRID = {"--omin", "--omax", "--opoints"}
_PULSE = {"--Tm", "--f0", "--sigma", "--t1", "--omega-f", "--wide-init"}

# the flags of each subcommand, every one of them read by its handler
SUBCOMMAND_FLAGS = {
    "steady": {"--out", *_PARAMS, "--format", "--sweep"},
    "spectrum": {"--out", *_PARAMS, *_GRID, "--detected", "--thermal"},
    "snr-stationary": {"--out", *_PARAMS, *_GRID, "--Tm", "--f0", "--thermal"},
    "snr-nonstationary": {"--out", *_PARAMS, *_GRID, *_PULSE},
    "cyclic": {"--out", *_PARAMS, *_GRID, *_PULSE, "--Tcool"},
    "montecarlo": {"--out", *_PARAMS, "--seed", "--n-traj", "--dt", "--n-steps", "--estimator"},
    "figure": {"--out"},
}


def test_subcommand_flag_sets():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {opt for action in parser._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, parser in subparsers.choices.items()
    }
    assert flags == SUBCOMMAND_FLAGS
    assert sum(map(len, flags.values())) == 92


UNREAD_OR_EMPTY = [
    (("steady", "--sweep", "zeta:1:10:3", "--format", "json"), "CSV only"),
    (("steady", "--sweep", "zeta:1:10:0"), "point count must be >= 1"),
    (("figure", "2", "--config", "x"), "unrecognized arguments: --config"),
    (("figure", "2", "--g", "5"), "unrecognized arguments: --g"),
    (("spectrum", "--format", "json"), "unrecognized arguments: --format"),
    (("montecarlo", "--format", "json", "--n-steps", "1"), "unrecognized arguments: --format"),
]


@pytest.mark.parametrize("argv, message", UNREAD_OR_EMPTY, ids=["_".join(argv) for argv, _ in UNREAD_OR_EMPTY])
def test_unread_flag_or_empty_sweep_is_config_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert message in err


def test_montecarlo_deterministic_output(tmp_path, capsys):
    args = (
        "montecarlo", "--scheme", "sc", "--g", "4", "--Q", "40", "--zeta", "5",
        "--theta", "200", "--eta", "0.9", "--seed", "7", "--n-traj", "32",
        "--n-steps", "2000",
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["seed"] == 7


def test_figure_deterministic_bytes(tmp_path, capsys):
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert run_cli(capsys, "figure", "4", "--out", str(d1))[0] == 0
    assert run_cli(capsys, "figure", "4", "--out", str(d2))[0] == 0
    files = sorted(p.name for p in d1.iterdir())
    assert files == sorted(p.name for p in d2.iterdir())
    for name in files:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_figure_outputs_match_pins(tmp_path, capsys):
    # the benchmark pins every figure file by SHA-256; refactors keep the bytes
    pins = json.loads(PINNED_OUTPUTS.read_text())
    for n in range(2, 11):
        outdir = tmp_path / f"fig{n}"
        assert run_cli(capsys, "figure", str(n), "--out", str(outdir))[0] == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outdir.iterdir()}
        assert digests == pins[f"figure {n}"]


def test_figure_4_squeezing_dip(tmp_path, capsys):
    assert run_cli(capsys, "figure", "4", "--out", str(tmp_path))[0] == 0
    high = read_rows(tmp_path / "fig4_g01.csv")  # g1 = 1e9
    low = read_rows(tmp_path / "fig4_g00.csv")  # g1 = 1e7
    assert min(v for _, v, _, _ in high) < 0.25
    assert min(v for _, v, _, _ in low) > 0.25


def test_figure_2_minima_near_optimal_power(tmp_path, capsys):
    assert run_cli(capsys, "figure", "2", "--out", str(tmp_path))[0] == 0
    gains = (10.0, 1e3, 1e5, 1e7)
    for i, g in enumerate(gains):
        rows = read_rows(tmp_path / f"fig2_g{i:02d}.csv")
        zs = np.array([r[0] for r in rows])
        es = np.array([r[1] for r in rows])
        k = int(np.argmin(es))
        assert 0 < k < len(zs) - 1  # interior minimum
        assert zs[k] == pytest.approx(g / math.sqrt(0.8), rel=0.25)


def test_figure_id_validation(capsys):
    code, _, err = run_cli(capsys, "figure", "11")
    assert code == 1
    assert "figure id" in err


def test_montecarlo_spectrum_estimator_writes_csv(tmp_path, capsys):
    out = tmp_path / "stats.json"
    code, _, _ = run_cli(
        capsys,
        "montecarlo", "--scheme", "cd", "--g", "10", "--Q", "50", "--zeta", "10",
        "--theta", "1e3", "--seed", "3", "--n-traj", "32", "--n-steps", "4000",
        "--estimator", "spectrum", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n_traj"] == 32
    rows = read_rows(tmp_path / "stats.spectrum.csv")
    assert rows, "spectrum CSV should contain bins"
    assert all(r[2] == "PositionNoise" for r in rows)


def test_fb_band_flag_changes_wide_band_momentum(capsys):
    common = (
        "steady", "--scheme", "cd", "--g", "100", "--Q", "1e4", "--zeta", "10",
        "--theta", "1e5", "--eta", "0.8", "--format", "json",
    )
    _, narrow, _ = run_cli(capsys, *common)
    _, wide, _ = run_cli(capsys, *common, "--fb-band", "wide")
    assert json.loads(narrow)["q2"] == pytest.approx(json.loads(wide)["q2"])
    assert json.loads(wide)["p2"] != pytest.approx(json.loads(narrow)["p2"])


def test_space_separated_config_keys(tmp_path, capsys):
    cfg = tmp_path / "plain.cfg"
    cfg.write_text("scheme cd\ng 0\nquality 50\nzeta 10\ntheta 1e3\neta 0.8\n")
    code, out, _ = run_cli(capsys, "steady", "--config", str(cfg), "--format", "json")
    assert code == 0
    assert json.loads(out)["q2"] == pytest.approx(501.25)


def test_snr_stationary_stdout(capsys):
    code, out, _ = run_cli(
        capsys,
        "snr-stationary", "--scheme", "none", "--Q", "1e5", "--zeta", "10",
        "--theta", "1e5", "--eta", "0.8", "--Tm", "10", "--opoints", "10",
    )
    assert code == 0
    assert out.startswith("omega,value,kind,provenance")
    assert len(out.strip().split("\n")) == 11
