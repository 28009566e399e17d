"""Command-line interface: steady states, spectra, SNRs, Monte Carlo, figures.

Outputs are deterministic: fixed float formatting (12 significant digits),
stable row ordering, and fixed Monte Carlo seeds, so identical invocations
produce byte-identical files.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import nonstat, oracle, spectra, steady
from ._quad import QuadratureError
from .core import PhysicalParams, Scheme, SchemeParams, classical_steady_amplitude, to_dimensionless
from .nonstat import ForcePulse, MeasurementWindow
from .oracle import InstabilityError, SimConfig
from .spectra import SpectrumSeries
from .steady import ThermalModel

_FMT = "{:.12g}"


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are code 1
        raise ConfigError(message)


_SCHEMES = {"none": Scheme.NONE, "sc": Scheme.STOCHASTIC_COOLING, "cd": Scheme.COLD_DAMPING}

_PHYSICAL_KEYS = {f.name for f in fields(PhysicalParams)} | {"detuning", "beta"}
_SCHEME_KEYS = {f.name for f in fields(SchemeParams)}


@dataclass
class RunConfig:
    subcommand: str
    params: SchemeParams
    output_path: str | None = None
    fmt: str = "csv"
    sweep: tuple[str, np.ndarray] | None = None
    detected: bool = False
    thermal: str = "exact"
    grid: np.ndarray | None = None
    t_m: float | None = None  # gamma_m * T_m
    t_cool: float | None = None  # gamma_m * T_cool
    force: ForcePulse | None = None
    f_abs: float = 1.0
    sim: SimConfig | None = None
    figure: int | None = None
    wide_init: bool = False


def _parse_config_file(path: str) -> dict[str, str]:
    """Flat key/value parameter file: one ``key = value`` per line."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, val = line.partition("=")
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, val = parts
        values[key.strip()] = val.strip()
    return values


def _parse_cutoff_feedback(text: str):
    if text in ("narrow", "wide"):
        return text
    if ":" in text:
        lo, _, hi = text.partition(":")
        return (float(lo), float(hi))
    return float(text)


def _params_from_mapping(kv: dict[str, str]) -> SchemeParams:
    unknown = set(kv) - _PHYSICAL_KEYS - _SCHEME_KEYS
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")

    if set(kv) & {f.name for f in fields(PhysicalParams)}:
        return _physical_params(kv)

    kwargs: dict = {}
    for key, val in kv.items():
        if key == "scheme":
            if val not in _SCHEMES:
                raise ConfigError(f"scheme must be one of {sorted(_SCHEMES)}, got {val!r}")
            kwargs[key] = _SCHEMES[val]
        elif key == "cutoff_feedback":
            kwargs[key] = _parse_cutoff_feedback(val)
        else:
            kwargs[key] = float(val)
    try:
        return SchemeParams(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _physical_params(kv: dict[str, str]) -> SchemeParams:
    scheme = _SCHEMES.get(kv.pop("scheme", "none"))
    if scheme is None:
        raise ConfigError("invalid scheme in config")
    detuning = float(kv.pop("detuning", "0"))
    beta_override = kv.pop("beta", None)
    try:
        p = PhysicalParams(**{k: float(v) for k, v in kv.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if beta_override is not None:
        beta = float(beta_override)
    else:
        result = classical_steady_amplitude(p, detuning)
        stable = [x for x, ok in zip(result.roots, result.stable) if ok]
        beta = math.sqrt(stable[-1])  # largest stable branch unless overridden
    return to_dimensionless(p, beta, scheme)


def _build_params(args) -> SchemeParams:
    kv: dict[str, str] = {}
    if args.config:
        kv.update(_parse_config_file(args.config))
    s = _params_from_mapping(kv) if kv else SchemeParams()
    overrides: dict = {}
    if args.scheme is not None:
        overrides["scheme"] = _SCHEMES[args.scheme]
    for name, attr in (
        ("g", "g"),
        ("quality", "Q"),
        ("zeta", "zeta"),
        ("theta", "theta"),
        ("eta", "eta"),
    ):
        val = getattr(args, attr)
        if val is not None:
            overrides[name] = val
    if getattr(args, "fb_band", None) is not None:
        overrides["cutoff_feedback"] = _parse_cutoff_feedback(args.fb_band)
    if overrides:
        try:
            s = replace(s, **overrides)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return s


def _parse_sweep(text: str) -> tuple[str, np.ndarray]:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ConfigError("sweep spec must be var:lo:hi:n[:log]")
    var, lo, hi, n = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    if var not in _SCHEME_KEYS or var in ("scheme", "cutoff_feedback"):
        raise ConfigError(f"sweep variable must name a numeric parameter, got {var!r}")
    if len(parts) == 5:
        if parts[4] != "log":
            raise ConfigError(f"unknown sweep mode {parts[4]!r}")
        grid = np.geomspace(lo, hi, n)
    else:
        grid = np.linspace(lo, hi, n)
    return var, grid


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit_json(path: str | None, dump) -> None:
    """Write ``dump()`` as one line; a NaN or inf in it is a numerical failure."""
    try:
        text = dump()
    except ValueError as exc:  # json.dumps(allow_nan=False) met a non-finite value
        raise FloatingPointError(f"non-finite output: {exc}") from exc
    _emit(path, text + "\n")


def _moments_json(m: steady.MomentSet) -> str:
    return json.dumps(
        {
            "q2": m.q2,
            "p2": m.p2,
            "qp": m.qp,
            "energy_units": m.energy_units,
            "thermal_model": m.thermal_model.value,
        },
        allow_nan=False,
    )


def _rows_csv(rows: list[tuple[float, float, str, str]]) -> str:
    out = ["omega,value,kind,provenance"]
    for x, v, kind, prov in rows:
        out.append(f"{_FMT.format(x)},{_FMT.format(v)},{kind},{prov}")
    return "\n".join(out) + "\n"


def _provenance(s: SchemeParams, extra: str = "") -> str:
    base = (
        f"scheme={s.scheme.value};g={s.g:g};Q={s.quality:g};zeta={s.zeta:g};"
        f"theta={s.theta:g};eta={s.eta:g}"
    )
    return base + (";" + extra if extra else "")


# ---------------------------------------------------------------- subcommands


def _run_steady(cfg: RunConfig) -> None:
    if cfg.sweep is None:
        m = steady.steady_moments(cfg.params)
        if cfg.fmt == "json":
            _emit_json(cfg.output_path, lambda: _moments_json(m))
        else:
            rows = [
                (0.0, m.q2, "q2", _provenance(cfg.params)),
                (0.0, m.p2, "p2", _provenance(cfg.params)),
                (0.0, m.qp, "qp", _provenance(cfg.params)),
                (0.0, m.energy_units, "energy", _provenance(cfg.params)),
            ]
            _emit(cfg.output_path, _rows_csv(rows))
        return
    var, grid = cfg.sweep
    rows = []
    for x in grid:
        m = steady.steady_moments(replace(cfg.params, **{var: float(x)}))
        prov = _provenance(cfg.params, f"sweep={var}")
        rows += [
            (x, m.q2, "q2", prov),
            (x, m.p2, "p2", prov),
            (x, m.qp, "qp", prov),
            (x, m.energy_units, "energy", prov),
        ]
    _emit(cfg.output_path, _rows_csv(rows))


def _run_spectrum(cfg: RunConfig) -> None:
    grid = cfg.grid if cfg.grid is not None else spectra.default_grid()
    if cfg.detected:
        vals = spectra.detected_noise_spectrum(cfg.params, grid, thermal=cfg.thermal)
        kind = spectra.KIND_DETECTED_NOISE
    else:
        vals = spectra.position_noise_spectrum(cfg.params, grid, thermal=cfg.thermal)
        kind = spectra.KIND_POSITION_NOISE
    series = SpectrumSeries(grid, vals, kind, _provenance(cfg.params, f"thermal={cfg.thermal}"))
    _emit(cfg.output_path, series.to_csv())


def _run_snr_stationary(cfg: RunConfig) -> None:
    grid = cfg.grid if cfg.grid is not None else spectra.default_grid()
    t_m = (cfg.t_m if cfg.t_m is not None else 1.0) / cfg.params.gamma_m
    vals = spectra.stationary_snr(cfg.params, cfg.f_abs, grid, t_m, thermal=cfg.thermal)
    series = SpectrumSeries(
        grid, vals, spectra.KIND_SNR, _provenance(cfg.params, f"gmTm={cfg.t_m or 1.0:g};stationary")
    )
    _emit(cfg.output_path, series.to_csv())


def _cooled_moments(s: SchemeParams, wide_init: bool) -> steady.MomentSet:
    init = replace(s, cutoff_feedback="wide") if wide_init else s
    return steady.steady_moments(init, ThermalModel.CLASSICAL_DELTA)


def _run_snr_nonstationary(cfg: RunConfig) -> None:
    if cfg.t_m is None or cfg.force is None:
        raise ConfigError("snr-nonstationary requires --Tm and force parameters")
    grid = cfg.grid if cfg.grid is not None else spectra.default_grid()
    win = MeasurementWindow(cfg.t_m / cfg.params.gamma_m)
    moments = _cooled_moments(cfg.params, cfg.wide_init)
    vals = nonstat.nonstationary_snr(cfg.params, cfg.force, win, grid, moments=moments)
    series = SpectrumSeries(
        grid, vals, spectra.KIND_SNR, _provenance(cfg.params, f"gmTm={cfg.t_m:g};nonstationary")
    )
    _emit(cfg.output_path, series.to_csv())


def _run_cyclic(cfg: RunConfig) -> None:
    if cfg.t_m is None or cfg.force is None:
        raise ConfigError("cyclic requires --Tm and force parameters")
    grid = cfg.grid if cfg.grid is not None else spectra.default_grid()
    win = MeasurementWindow(cfg.t_m / cfg.params.gamma_m)
    t_cool = (cfg.t_cool or 0.0) / cfg.params.gamma_m
    moments = _cooled_moments(cfg.params, cfg.wide_init)
    vals = nonstat.cyclic_avg_snr(cfg.params, cfg.force, win, t_cool, grid, moments=moments)
    series = SpectrumSeries(
        grid,
        vals,
        spectra.KIND_SNR,
        _provenance(cfg.params, f"gmTm={cfg.t_m:g};gmTcool={cfg.t_cool or 0.0:g};cyclic"),
    )
    _emit(cfg.output_path, series.to_csv())


def _run_montecarlo(cfg: RunConfig) -> None:
    sim = cfg.sim or SimConfig()
    stats = oracle.simulate(cfg.params, sim)
    _emit_json(cfg.output_path, stats.to_json)
    if stats.spectrum is not None and cfg.output_path is not None:
        spec_path = Path(cfg.output_path).with_suffix(".spectrum.csv")
        rows = [
            (w, v, "PositionNoise", _provenance(cfg.params, f"montecarlo;err={_FMT.format(e)}"))
            for w, v, e in zip(
                stats.spectrum.omegas, stats.spectrum.values, stats.spectrum.errors
            )
        ]
        spec_path.write_text(_rows_csv(rows))


# ------------------------------------------------------------------- figures


def _fig_energy_vs_power(scheme, gains, quality, theta, eta, zmin, zmax, tag):
    grid = np.geomspace(zmin, zmax, 200)
    curves = []
    for i, g in enumerate(gains):
        vals = []
        for z in grid:
            s = SchemeParams(scheme=scheme, g=g, quality=quality, zeta=float(z), theta=theta, eta=eta)
            vals.append(steady.steady_energy(s))
        prov = f"{tag};g={g:g};Q={quality:g};theta={theta:g};eta={eta:g};x=zeta"
        curves.append((f"g{i:02d}", [(z, v, "energy", prov) for z, v in zip(grid, vals)]))
    return curves


def _figure_2():
    return _fig_energy_vs_power(
        Scheme.STOCHASTIC_COOLING, (10.0, 1e3, 1e5, 1e7), 1e7, 1e5, 0.8, 1e-1, 1e9, "fig2"
    )


def _figure_3():
    grid = np.geomspace(1e1, 1e9, 200)
    curves = []
    for i, quality in enumerate((1e3, 1e5, 1e7)):
        vals = []
        for z in grid:
            s = SchemeParams(
                scheme=Scheme.STOCHASTIC_COOLING, g=1e7, quality=quality, zeta=float(z), theta=1e5, eta=0.8
            )
            vals.append(steady.steady_energy(s))
        prov = f"fig3;g=1e+07;Q={quality:g};theta=100000;eta=0.8;x=zeta"
        curves.append((f"Q{i:02d}", [(z, v, "energy", prov) for z, v in zip(grid, vals)]))
    return curves


def _figure_4():
    grid = np.geomspace(1e5, 1e11, 200)
    curves = []
    for i, g in enumerate((1e7, 1e9)):
        vals = []
        for z in grid:
            s = SchemeParams(
                scheme=Scheme.STOCHASTIC_COOLING, g=g, quality=1e4, zeta=float(z), theta=1e5, eta=0.8
            )
            vals.append(steady.steady_moments(s).q2)
        prov = f"fig4;g={g:g};Q=10000;theta=100000;eta=0.8;x=zeta"
        curves.append((f"g{i:02d}", [(z, v, "q2", prov) for z, v in zip(grid, vals)]))
    return curves


def _figure_5():
    grid = spectra.default_grid()
    t_m = 10.0  # gamma_m T_m; overall scale only, kept in the stationary regime
    curves = []
    for i, g in enumerate((0.0, 1e4, 1e5)):
        scheme = Scheme.COLD_DAMPING if g > 0 else Scheme.NONE
        s = SchemeParams(scheme=scheme, g=g, quality=1e5, zeta=10, theta=1e5, eta=0.8)
        vals = spectra.stationary_snr(s, 1.0, grid, t_m / s.gamma_m)
        prov = f"fig5;g={g:g};Q=100000;zeta=10;theta=100000;eta=0.8;gmTm=10"
        curves.append((f"g{i:02d}", [(w, v, "SNR", prov) for w, v in zip(grid, vals)]))
    return curves


def _fig6_base(g: float) -> SchemeParams:
    return SchemeParams(scheme=Scheme.COLD_DAMPING if g > 0 else Scheme.NONE, g=g, quality=1e4, zeta=10, theta=1e5, eta=0.8)


def _figure_6():
    grid = spectra.default_grid()
    s = _fig6_base(1e3)
    moments = steady.steady_moments(s)
    curves = []
    for i, gtm in enumerate((1e-1, 1e-2, 1e-3, 1e-4)):
        win = MeasurementWindow(gtm / s.gamma_m)
        vals = nonstat.nonstationary_noise(s, win, grid, moments=moments)
        prov = f"fig6;g=1000;Q=10000;zeta=10;theta=100000;eta=0.8;gmTm={gtm:g}"
        curves.append((f"Tm{i:02d}", [(w, v, "DetectedNoise", prov) for w, v in zip(grid, vals)]))
    return curves


def _figure_7():
    grid = spectra.default_grid()
    curves = []
    for panel, gtm in (("a", 1e-3), ("b", 1e-1)):
        for i, g in enumerate((1.0, 10.0, 1e2, 1e3)):
            s = _fig6_base(g)
            win = MeasurementWindow(gtm / s.gamma_m)
            vals = nonstat.nonstationary_noise(s, win, grid)
            prov = f"fig7{panel};g={g:g};Q=10000;zeta=10;theta=100000;eta=0.8;gmTm={gtm:g}"
            curves.append((f"{panel}_g{i:02d}", [(w, v, "DetectedNoise", prov) for w, v in zip(grid, vals)]))
    return curves


def _fig8_force(gm: float) -> ForcePulse:
    return ForcePulse(f0=1.0, sigma=1e-4 / gm, t1=3e-4 / gm, omega_f=1.0)


def _figure_8():
    grid = spectra.default_grid()
    s_fb = SchemeParams(
        scheme=Scheme.COLD_DAMPING, g=2e3, quality=1e5, zeta=10, theta=1e5, eta=0.8, cutoff_feedback="wide"
    )
    s0 = SchemeParams(scheme=Scheme.NONE, quality=1e5, zeta=10, theta=1e5, eta=0.8)
    gm = s0.gamma_m
    force = _fig8_force(gm)
    specs = [
        ("cooled", s_fb, 1e-3),
        ("bare_short", s0, 1e-3),
        ("bare_long", s0, 10.0),
    ]
    curves = []
    for name, s, gtm in specs:
        win = MeasurementWindow(gtm / gm)
        vals = nonstat.nonstationary_snr(s, force, win, grid)
        prov = f"fig8;{name};g={s.g:g};Q=100000;zeta=10;theta=100000;eta=0.8;gmTm={gtm:g}"
        curves.append((name, [(w, v, "SNR", prov) for w, v in zip(grid, vals)]))
    return curves


def _figure_9():
    gtms = np.geomspace(1e-3, 10.0, 60)  # window kept above the force duration
    s_fb = SchemeParams(
        scheme=Scheme.COLD_DAMPING, g=2e3, quality=1e5, zeta=10, theta=1e5, eta=0.8, cutoff_feedback="wide"
    )
    s0 = SchemeParams(scheme=Scheme.NONE, quality=1e5, zeta=10, theta=1e5, eta=0.8)
    gm = s0.gamma_m
    force = _fig8_force(gm)
    curves = []
    for name, s in (("cooled", s_fb), ("bare", s0)):
        rows = []
        for gtm in gtms:
            win = MeasurementWindow(float(gtm) / gm)
            r = nonstat.nonstationary_snr(s, force, win, 1.0)
            prov = f"fig9;{name};g={s.g:g};Q=100000;zeta=10;theta=100000;eta=0.8;x=gmTm"
            rows.append((float(gtm), float(r), "SNR", prov))
        curves.append((name, rows))
    return curves


def _figure_10():
    grid = spectra.default_grid()
    s_fb = SchemeParams(
        scheme=Scheme.COLD_DAMPING, g=2e3, quality=1e5, zeta=10, theta=1e5, eta=0.8, cutoff_feedback="wide"
    )
    s0 = SchemeParams(scheme=Scheme.NONE, quality=1e5, zeta=10, theta=1e5, eta=0.8)
    gm = s0.gamma_m
    force = ForcePulse(f0=1.0, sigma=1e-4 / gm, t1=0.0, omega_f=1.0)
    win = MeasurementWindow(1e-3 / gm)
    curves = []
    vals = nonstat.cyclic_avg_snr(s_fb, force, win, 1e-3 * win.t_m, grid)
    prov = "fig10;cyclic;g=2000;Q=100000;zeta=10;theta=100000;eta=0.8;gmTm=0.001;Tcool=0.001Tm"
    curves.append(("cyclic", [(w, v, "SNR", prov) for w, v in zip(grid, vals)]))
    vals0 = nonstat.cyclic_avg_snr(s0, force, win, 0.0, grid)
    prov0 = "fig10;bare;g=0;Q=100000;zeta=10;theta=100000;eta=0.8;gmTm=0.001"
    curves.append(("bare", [(w, v, "SNR", prov0) for w, v in zip(grid, vals0)]))
    return curves


_FIGURES = {
    2: _figure_2,
    3: _figure_3,
    4: _figure_4,
    5: _figure_5,
    6: _figure_6,
    7: _figure_7,
    8: _figure_8,
    9: _figure_9,
    10: _figure_10,
}


def _run_figure(cfg: RunConfig) -> None:
    if cfg.figure not in _FIGURES:
        raise ConfigError(f"figure id must be in 2..10, got {cfg.figure}")
    outdir = Path(cfg.output_path or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, rows in _FIGURES[cfg.figure]():
        path = outdir / f"fig{cfg.figure}_{name}.csv"
        path.write_text(_rows_csv(rows))


# ---------------------------------------------------------------- entry point


@functools.cache  # one parser per process; parse_args does not mutate it
def build_parser() -> _Parser:
    parser = _Parser(prog="mirrorfb", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, with_grid=True):
        p.add_argument("--config", help="flat key/value parameter file")
        p.add_argument("--out", dest="out", help="output path (stdout if omitted)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=12345, help="RNG seed (montecarlo)")
        p.add_argument("--scheme", choices=tuple(_SCHEMES), default=None)
        p.add_argument("--g", type=float, default=None, help="feedback gain g1/g2")
        p.add_argument("--Q", type=float, default=None, help="mechanical quality factor")
        p.add_argument("--zeta", type=float, default=None, help="rescaled input power")
        p.add_argument("--theta", type=float, default=None, help="k_B T / hbar omega_m")
        p.add_argument("--eta", type=float, default=None, help="detection efficiency")
        p.add_argument("--fb-band", default=None, help="narrow | wide | halfwidth | lo:hi")
        if with_grid:
            p.add_argument("--omin", type=float, default=1e-3)
            p.add_argument("--omax", type=float, default=3.0)
            p.add_argument("--opoints", type=int, default=400)

    p = sub.add_parser("steady", help="stationary moments (optionally swept)")
    common(p, with_grid=False)
    p.add_argument("--sweep", default=None, help="var:lo:hi:n[:log]")

    p = sub.add_parser("spectrum", help="stationary position/detected noise spectrum")
    common(p)
    p.add_argument("--detected", action="store_true", help="add the shot-noise floor")
    p.add_argument("--thermal", choices=("exact", "classical"), default="exact")

    p = sub.add_parser("snr-stationary", help="stationary spectral SNR, flat force")
    common(p)
    p.add_argument("--Tm", type=float, default=1.0, help="gamma_m * T_m")
    p.add_argument("--f0", type=float, default=1.0, help="|f~| (flat)")
    p.add_argument("--thermal", choices=("exact", "classical"), default="exact")

    def force_opts(p):
        p.add_argument("--f0", type=float, default=1.0)
        p.add_argument("--sigma", type=float, default=1e-4, help="gamma_m * sigma")
        p.add_argument("--t1", type=float, default=3e-4, help="gamma_m * t1")
        p.add_argument("--omega-f", type=float, default=1.0)
        p.add_argument("--wide-init", action="store_true", help="wide-band cooled initial state")

    p = sub.add_parser("snr-nonstationary", help="cool-and-measure SNR")
    common(p)
    p.add_argument("--Tm", type=float, required=True, help="gamma_m * T_m")
    force_opts(p)

    p = sub.add_parser("cyclic", help="arrival-time-averaged cyclic-cooling SNR")
    common(p)
    p.add_argument("--Tm", type=float, required=True, help="gamma_m * T_m")
    p.add_argument("--Tcool", type=float, default=0.0, help="gamma_m * T_cool")
    force_opts(p)

    p = sub.add_parser("montecarlo", help="Langevin ensemble cross-check")
    common(p, with_grid=False)
    p.add_argument("--n-traj", type=int, default=1000)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--n-steps", type=int, default=None)
    p.add_argument("--estimator", choices=("moments", "spectrum"), default="moments")

    p = sub.add_parser("figure", help="emit the analytic curves of one figure")
    common(p, with_grid=False)
    p.add_argument("id", type=int, help="figure id, 2..10")

    return parser


def _config_from_args(args) -> RunConfig:
    params = _build_params(args)
    cfg = RunConfig(subcommand=args.subcommand, params=params, output_path=args.out, fmt=args.fmt)
    if hasattr(args, "omin"):
        if args.omin <= 0 or args.omax <= args.omin or args.opoints < 2:
            raise ConfigError("invalid frequency grid")
        cfg.grid = np.geomspace(args.omin, args.omax, args.opoints)
    if hasattr(args, "sweep") and args.sweep:
        cfg.sweep = _parse_sweep(args.sweep)
    if hasattr(args, "detected"):
        cfg.detected = args.detected
    if hasattr(args, "thermal"):
        cfg.thermal = args.thermal
    if hasattr(args, "Tm"):
        if args.Tm is not None and args.Tm <= 0:
            raise ConfigError("--Tm must be > 0")
        cfg.t_m = args.Tm
    if hasattr(args, "Tcool"):
        if args.Tcool < 0:
            raise ConfigError("--Tcool must be >= 0")
        cfg.t_cool = args.Tcool
    if hasattr(args, "sigma"):
        gm = params.gamma_m
        cfg.force = ForcePulse(
            f0=args.f0, sigma=args.sigma / gm, t1=args.t1 / gm, omega_f=args.omega_f
        )
        cfg.wide_init = args.wide_init
    elif hasattr(args, "f0"):
        cfg.f_abs = args.f0
    if args.subcommand == "montecarlo":
        try:
            cfg.sim = SimConfig(
                dt=args.dt,
                n_steps=args.n_steps,
                n_traj=args.n_traj,
                seed=args.seed,
                estimator=args.estimator,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if args.subcommand == "figure":
        cfg.figure = args.id
    return cfg


_RUNNERS = {
    "steady": _run_steady,
    "spectrum": _run_spectrum,
    "snr-stationary": _run_snr_stationary,
    "snr-nonstationary": _run_snr_nonstationary,
    "cyclic": _run_cyclic,
    "montecarlo": _run_montecarlo,
    "figure": _run_figure,
}


def run(cfg: RunConfig) -> int:
    _RUNNERS[cfg.subcommand](cfg)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        return run(cfg)
    except (QuadratureError, InstabilityError, FloatingPointError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
