"""CLI tests: parsing, outputs, determinism, exit codes, figure tables."""

import argparse
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mirrorfb.cli import build_parser, main
from mirrorfb.core import PhysicalParams, Scheme, SchemeParams, to_dimensionless
from mirrorfb.spectra import FLOAT_FMT, position_noise_spectrum
from mirrorfb.steady import steady_moments

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


def test_linear_sweep_matches_library(capsys):
    # no ":log": the grid is linear, here 1, 4, 7, 10
    code, out, _ = run_cli(
        capsys,
        "steady", "--scheme", "sc", "--g", "10", "--Q", "50", "--theta", "1e3",
        "--eta", "0.8", "--sweep", "zeta:1:10:4",
    )
    assert code == 0
    base = SchemeParams(scheme=Scheme.STOCHASTIC_COOLING, g=10.0, quality=50.0, theta=1e3, eta=0.8)
    want = []
    for zeta in (1.0, 4.0, 7.0, 10.0):
        m = steady_moments(replace(base, zeta=zeta))
        for kind, value in (("q2", m.q2), ("p2", m.p2), ("qp", m.qp), ("energy", m.energy_units)):
            want.append([FLOAT_FMT.format(zeta), FLOAT_FMT.format(value), kind])
    assert [line.split(",")[:3] for line in out.strip().split("\n")[1:]] == want


def test_sweep_unknown_variable_is_config_error(capsys):
    code, _, err = run_cli(capsys, "steady", "--sweep", "bogus:1:2:5")
    assert code == 1
    assert "invalid configuration" in err


@pytest.mark.parametrize(
    "flag, spec, field, bad",
    [
        ("--sweep", "zeta:abc:10:3", "lo", "abc"),
        ("--sweep", "zeta:1:x:3", "hi", "x"),
        ("--sweep", "zeta:1:10:2.5", "n", "2.5"),
        ("--fb-band", "abc", "halfwidth", "abc"),
        ("--fb-band", "1:b", "hi", "b"),
    ],
)
def test_unparsable_spec_names_flag_and_field(capsys, flag, spec, field, bad):
    code, out, err = run_cli(capsys, "steady", "--scheme", "cd", flag, spec)
    assert code == 1
    assert out == ""
    assert f"{flag} {field} must be" in err
    assert repr(bad) in err


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


LAB = {
    "mass": 1e-12,
    "omega_m": 2 * math.pi * 1e6,
    "gamma_m": 2 * math.pi * 10.0,
    "cavity_length": 1e-2,
    "gamma_c": 2 * math.pi * 1e8,
    "laser_power": 1e-6,
    "laser_omega0": 1.77e15,
    "cavity_omega_c": 1.77e15,
    "efficiency": 0.8,
    "temperature": 4.0,
}


def write_config(path, values):
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return str(path)


def test_physical_config_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "lab.cfg", LAB)
    code, out, _ = run_cli(capsys, "steady", "--config", cfg, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["q2"] > 0


def test_physical_config_beta_override_matches_library(tmp_path, capsys):
    # beta replaces the largest stable root of the bistability cubic (~185 here)
    cfg = write_config(tmp_path / "lab.cfg", {**LAB, "beta": 100.0})
    code, out, _ = run_cli(capsys, "steady", "--config", cfg, "--format", "json")
    assert code == 0
    m = steady_moments(to_dimensionless(PhysicalParams(**LAB), 100.0, Scheme.NONE))
    payload = json.loads(out)
    assert (payload["q2"], payload["p2"], payload["qp"]) == (m.q2, m.p2, m.qp)
    _, solved, _ = run_cli(capsys, "steady", "--config", write_config(tmp_path / "root.cfg", LAB),
                           "--format", "json")
    assert json.loads(solved)["q2"] != m.q2


def test_config_file_feedback_band_matches_library(tmp_path, capsys):
    params = {"scheme": "cd", "g": 10, "quality": 50, "zeta": 10, "theta": 1e3, "eta": 0.8}
    cfg = write_config(tmp_path / "band.cfg", {**params, "cutoff_feedback": "0.9:1.1"})
    code, out, _ = run_cli(capsys, "spectrum", "--config", cfg, "--thermal", "classical",
                           "--omin", "0.5", "--omax", "1.5", "--opoints", "40")
    assert code == 0
    s = SchemeParams(scheme=Scheme.COLD_DAMPING, g=10.0, quality=50.0, zeta=10.0, theta=1e3,
                     eta=0.8, cutoff_feedback=(0.9, 1.1))
    grid = np.geomspace(0.5, 1.5, 40)
    got = [line.split(",")[1] for line in out.strip().split("\n")[1:]]
    assert got == [FLOAT_FMT.format(v) for v in position_noise_spectrum(s, grid, thermal="classical")]
    # the band reached the spectrum: the default narrow band, (0, 3.2) here, gives other values
    narrow = position_noise_spectrum(replace(s, cutoff_feedback="narrow"), grid, thermal="classical")
    assert got != [FLOAT_FMT.format(v) for v in narrow]


@pytest.mark.parametrize(
    "values, want",
    [
        ({"g": 10, "quality": 50}, SchemeParams(scheme=Scheme.COLD_DAMPING, g=10.0, quality=50.0)),
        ({**LAB, "feedback_gain_raw": 1e-3, "beta": 100.0},
         to_dimensionless(PhysicalParams(**LAB, feedback_gain_raw=1e-3), 100.0, Scheme.COLD_DAMPING)),
    ],
    ids=["working_units", "lab_units"],
)
def test_config_scheme_is_checked_before_the_unit_branch(tmp_path, capsys, values, want):
    # one check and one message for both kinds of config; a valid scheme reaches the parameters
    code, out, err = run_cli(capsys, "steady", "--config", write_config(tmp_path / "bad.cfg", {**values, "scheme": "cold"}))
    assert (code, out) == (1, "")
    assert "scheme must be one of ['cd', 'none', 'sc'], got 'cold'" in err
    code, out, _ = run_cli(capsys, "steady", "--config", write_config(tmp_path / "ok.cfg", {**values, "scheme": "cd"}),
                           "--format", "json")
    assert want.g > 0
    assert (code, json.loads(out)["q2"]) == (0, steady_moments(want).q2)


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
    # 1000 wide-band trajectories would store 12.9 GiB of band-force response per batch
    def unreachable(*args):
        raise AssertionError("band-force response synthesized for a refused batch")

    monkeypatch.setattr("mirrorfb.oracle._band_response", unreachable)
    out = tmp_path / "out.json"
    code, _, err = run_cli(
        capsys, "montecarlo", "--scheme", "cd", "--g", "10", "--Q", "50", "--zeta", "10",
        "--theta", "1e3", "--fb-band", "wide", "--n-traj", "1000", "--out", str(out),
    )
    assert code == 1
    assert "12.9 GiB per batch" in err
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
    # and, with --wide-init, the wide-band loop's cooled state as the initial state
    from mirrorfb import nonstat

    cyclic = subcommand == "cyclic"
    out = tmp_path / "snr.csv"
    flags = (*(("--Tcool", "1e-6") if cyclic else ()), *(("--wide-init",) if wide else ()))
    assert run_cli(capsys, subcommand, *PULSE_ARGS, *flags, "--out", str(out))[0] == 0

    s = SchemeParams(scheme=Scheme.COLD_DAMPING, g=2e3, quality=1e5, zeta=10.0, theta=1e5, eta=0.8)
    gm, grid = s.gamma_m, np.geomspace(0.5, 1.5, 9)
    win = nonstat.MeasurementWindow(1e-3 / gm)
    force = nonstat.ForcePulse(f0=2.0, sigma=2e-4 / gm, t1=5e-4 / gm, omega_f=1.05)

    def curve(cooled):
        if cyclic:
            return nonstat.cyclic_avg_snr(cooled, force, win, 1e-6 / gm, grid)
        return nonstat.nonstationary_snr(cooled, force, win, grid)

    wide_curve, cooled_curve = curve(replace(s, cutoff_feedback="wide")), curve(s)
    assert np.max(np.abs(wide_curve / cooled_curve - 1.0)) > 0.1  # the flag matters here
    rows = read_rows(out)
    np.testing.assert_allclose([r[0] for r in rows], grid, rtol=1e-11)
    np.testing.assert_allclose([r[1] for r in rows], wide_curve if wide else cooled_curve, rtol=1e-11)
    tag = "gmTm=0.001;gmTcool=1e-06;cyclic" if cyclic else "gmTm=0.001;nonstationary"
    prov = f"scheme=cd;g=2000;Q=100000;zeta=10;theta=100000;eta=0.8;{tag}"
    assert {(r[2], r[3]) for r in rows} == {("SNR", prov)}


@pytest.mark.parametrize("subcommand", ["snr-nonstationary", "cyclic"])
def test_wide_init_is_the_wide_feedback_band(tmp_path, capsys, subcommand):
    # the feedback band only picks the cooled state of these subcommands, so
    # --wide-init writes the bytes of --fb-band wide, whatever band it replaces
    texts = []
    for i, flags in enumerate([("--wide-init",), ("--fb-band", "wide"), ("--fb-band", "0.5:2", "--wide-init")]):
        out = tmp_path / f"snr{i}.csv"
        assert run_cli(capsys, subcommand, *PULSE_ARGS, *flags, "--out", str(out))[0] == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]


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


# (argv, config file text or None, message); "{cfg}" is the config file, "{dir}" a directory
CONFIG_ERRORS = [
    pytest.param(("steady", "--g", "abc"), None, "invalid float value: 'abc'", id="flag_not_a_float"),
    pytest.param(("steady", "--config", "{dir}"), None, "cannot read config file", id="config_is_a_directory"),
    pytest.param(("steady", "--config", "{cfg}"), "zeta\n", "expected 'key = value'", id="config_key_without_value"),
    pytest.param(("steady", "--config", "{cfg}"), "quality = -1\n", "quality factor must be > 0",
                 id="working_units_invalid"),
    pytest.param(("steady", "--config", "{cfg}"), "".join(f"{k} = {v}\n" for k, v in {**LAB, "mass": -1}.items()),
                 "mass must be > 0", id="lab_units_invalid"),
    pytest.param(("steady", "--config", "{cfg}", "--scheme", "cd", "--format", "json"),
                 "".join(f"{k} = {v}\n" for k, v in {**LAB, "reservoir_cutoff": 0}.items()),
                 "reservoir_cutoff must be > 0", id="lab_reservoir_cutoff_zero"),
    pytest.param(("steady", "--config", "{cfg}", "--scheme", "cd", "--format", "json"),
                 "".join(f"{k} = {v}\n" for k, v in {**LAB, "feedback_bandwidth": 0}.items()),
                 "feedback_bandwidth must be > 0", id="lab_feedback_bandwidth_zero"),
    pytest.param(("steady", "--sweep", "zeta:1:10"), None, "sweep spec must be var:lo:hi:n[:log]", id="sweep_too_short"),
    pytest.param(("steady", "--sweep", "zeta:1:10:3:lin"), None, "unknown sweep mode 'lin'", id="sweep_mode"),
    pytest.param(("spectrum", "--omin", "0"), None, "invalid frequency grid", id="grid_at_zero"),
]


@pytest.mark.parametrize("argv, config, message", CONFIG_ERRORS)
def test_config_errors_exit_code(tmp_path, capsys, argv, config, message):
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config)
    code, out, err = run_cli(capsys, *(a.format(cfg=cfg, dir=tmp_path) for a in argv))
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize(
    "key, value",
    [("gamma_c", "inf"), ("mass", "inf"), ("temperature", "nan"), ("detuning", "nan"), ("beta", "inf"),
     ("omega_m", "nan"), ("efficiency", "inf"), ("feedback_gain_raw", "-inf"), ("reservoir_cutoff", "inf"),
     ("feedback_bandwidth", "inf")],
)
def test_non_finite_lab_units_name_the_field(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "lab.cfg", {**LAB, "scheme": "cd", key: value})
    code, out, err = run_cli(capsys, "steady", "--config", cfg)
    assert (code, out) == (1, "")
    assert f"{key} must be finite" in err


@pytest.mark.parametrize(
    "values, key, text",
    [({"scheme": "cd", "g": "abc"}, "g", "abc"), ({**LAB, "detuning": "x"}, "detuning", "x"),
     ({**LAB, "beta": "1e"}, "beta", "1e"), ({**LAB, "mass": "abc"}, "mass", "abc")],
    ids=["working_units", "detuning", "beta", "lab_units"],
)
def test_unparsable_config_value_names_the_key(tmp_path, capsys, values, key, text):
    code, out, err = run_cli(capsys, "steady", "--config", write_config(tmp_path / "bad.cfg", values))
    assert (code, out) == (1, "")
    assert f"config key {key!r} must be a number, got {text!r}" in err


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


@pytest.mark.parametrize(
    "target, figure, calls",
    [("steady.steady_energy", "2", 4 * 200), ("nonstat.cyclic_avg_snr", "10", 2), ("nonstat.arrival_signal", "10", 1)],
)
def test_figures_call_the_library_at_call_time(tmp_path, capsys, monkeypatch, target, figure, calls):
    # patched and traced library functions must reach the figure table
    import mirrorfb

    module, name = target.split(".")
    original = getattr(getattr(mirrorfb, module), name)
    seen = []

    def counting(*args, **kwargs):
        seen.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(f"mirrorfb.{target}", counting)
    assert run_cli(capsys, "figure", figure, "--out", str(tmp_path))[0] == 0
    assert len(seen) == calls


def test_figure_10_evaluates_erfcx_for_one_arrival_signal(tmp_path, capsys, monkeypatch):
    # both curves average the bare mirror's signal: 64 arrival nodes x 400
    # frequencies x 2 pulse terms of erfcx, computed once rather than per curve
    import scipy.special

    original, points = scipy.special.erfcx, []

    def counting(z):
        points.append(np.size(z))
        return original(z)

    monkeypatch.setattr(scipy.special, "erfcx", counting)
    assert run_cli(capsys, "figure", "10", "--out", str(tmp_path))[0] == 0
    assert sum(points) == 2 * 64 * 400


def test_figure_10_curves_are_the_independent_library_calls():
    # the shared signal changes no bit of either curve
    from mirrorfb import cli, nonstat
    from mirrorfb.spectra import default_grid

    curves = dict(cli._figure_curves(10))
    grid = default_grid()
    for name, s, t_cool in (("cyclic", cli._COOLED, 1e-3), ("bare", cli._BARE, 0.0)):
        win = nonstat.MeasurementWindow(1e-3 / s.gamma_m)
        want = nonstat.cyclic_avg_snr(s, cli._FORCE, win, t_cool * win.t_m, grid)
        assert np.array_equal(curves[name].omegas, grid)
        assert np.array_equal(curves[name].values, want)


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


@pytest.mark.parametrize("subcommand", ["steady", "figure"])
def test_unwritable_out_exit_code(tmp_path, capsys, subcommand):
    # a --out in a missing directory, and a figure directory that is a file
    existing = tmp_path / "file"
    existing.write_text("")
    argv = ("steady", "--out", str(tmp_path / "missing" / "x.json"))
    if subcommand == "figure":
        argv = ("figure", "2", "--out", str(existing))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid configuration: ")
    assert not (tmp_path / "missing").exists() and existing.read_text() == ""


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


def test_montecarlo_spectrum_without_out_exit_code(capsys, monkeypatch):
    # the spectrum CSV goes next to --out; without it the run is refused before simulating
    import mirrorfb.cli as cli_mod

    def never(*args, **kwargs):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(cli_mod.oracle, "simulate", never)
    code, out, err = run_cli(capsys, "montecarlo", "--n-traj", "4", "--n-steps", "64", "--estimator", "spectrum")
    assert (code, out) == (1, "")
    assert "--estimator spectrum writes its spectrum next to --out" in err


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
