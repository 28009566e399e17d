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
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import nonstat, oracle, spectra, steady
from ._quad import QuadratureError
from .core import PhysicalParams, Scheme, SchemeParams, classical_steady_amplitude, to_dimensionless
from .nonstat import ForcePulse, MeasurementWindow
from .oracle import InstabilityError, SimConfig
from .spectra import SpectrumSeries


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are code 1
        raise ConfigError(message)


_SCHEMES = {"none": Scheme.NONE, "sc": Scheme.STOCHASTIC_COOLING, "cd": Scheme.COLD_DAMPING}

_PHYSICAL_KEYS = {f.name for f in fields(PhysicalParams)} | {"detuning", "beta"}
_SCHEME_KEYS = {f.name for f in fields(SchemeParams)}


def _finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and inf are configuration errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


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


def _number(kind, text: str, where: str):
    """kind(text), or a ConfigError that names ``where`` (flag and field) and the text."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{where} must be {'an integer' if kind is int else 'a number'}, got {text!r}") from None


def _parse_cutoff_feedback(text: str, flag: str = "--fb-band"):
    if text in ("narrow", "wide"):
        return text
    if ":" in text:
        lo, _, hi = text.partition(":")
        return (_number(float, lo, f"{flag} lo"), _number(float, hi, f"{flag} hi"))
    return _number(float, text, f"{flag} halfwidth")


def _params_from_mapping(kv: dict[str, str]) -> SchemeParams:
    unknown = set(kv) - _PHYSICAL_KEYS - _SCHEME_KEYS
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")

    scheme = kv.pop("scheme", "none")
    if scheme not in _SCHEMES:
        raise ConfigError(f"scheme must be one of {sorted(_SCHEMES)}, got {scheme!r}")
    if set(kv) & {f.name for f in fields(PhysicalParams)}:
        return _physical_params(kv, _SCHEMES[scheme])

    kwargs: dict = {"scheme": _SCHEMES[scheme]}
    for key, val in kv.items():
        if key == "cutoff_feedback":
            kwargs[key] = _parse_cutoff_feedback(val, key)
        else:
            kwargs[key] = _number(float, val, f"config key {key!r}")
    try:
        return SchemeParams(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _physical_params(kv: dict[str, str], scheme: Scheme) -> SchemeParams:
    values = {k: _number(float, v, f"config key {k!r}") for k, v in kv.items()}
    detuning = values.pop("detuning", 0.0)
    beta_override = values.pop("beta", None)
    try:
        p = PhysicalParams(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if beta_override is not None:
        beta = beta_override
    else:
        result = classical_steady_amplitude(p, detuning)
        stable = [x for x, ok in zip(result.roots, result.stable) if ok]
        beta = math.sqrt(stable[-1])  # largest stable branch unless overridden
    return to_dimensionless(p, beta, scheme)


def _build_params(args) -> SchemeParams:
    kv = _parse_config_file(args.config) if args.config else {}
    s = _params_from_mapping(kv) if kv else SchemeParams()
    names = ("g", "quality", "zeta", "theta", "eta")
    overrides = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    if args.scheme is not None:
        overrides["scheme"] = _SCHEMES[args.scheme]
    if args.fb_band is not None:
        overrides["cutoff_feedback"] = _parse_cutoff_feedback(args.fb_band)
    return replace(s, **overrides) if overrides else s


def _parse_sweep(text: str) -> tuple[str, np.ndarray]:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ConfigError("sweep spec must be var:lo:hi:n[:log]")
    var = parts[0]
    lo, hi = _number(float, parts[1], "--sweep lo"), _number(float, parts[2], "--sweep hi")
    n = _number(int, parts[3], "--sweep n")
    if var not in _SCHEME_KEYS or var in ("scheme", "cutoff_feedback"):
        raise ConfigError(f"sweep variable must name a numeric parameter, got {var!r}")
    if n < 1:
        raise ConfigError(f"sweep point count must be >= 1, got {n}")
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


def _provenance(s: SchemeParams, tail: str = "", head: str = "", keys: str = "scheme g Q zeta theta eta") -> str:
    """``head;key=value;...;tail`` for the named parameters of ``s``; empty tags are left out."""
    values = {
        "scheme": s.scheme.value,
        "g": f"{s.g:g}",
        "Q": f"{s.quality:g}",
        "zeta": f"{s.zeta:g}",
        "theta": f"{s.theta:g}",
        "eta": f"{s.eta:g}",
    }
    return ";".join(filter(None, [head, *(f"{k}={values[k]}" for k in keys.split()), tail]))


# ---------------------------------------------------------------- subcommands


def _grid(args) -> np.ndarray:
    if args.omin <= 0 or args.omax <= args.omin or args.opoints < 2:
        raise ConfigError("invalid frequency grid")
    return np.geomspace(args.omin, args.omax, args.opoints)


def _window_time(args, s: SchemeParams) -> float:
    """T_m in 1/omega_m from --Tm (gamma_m T_m)."""
    if args.Tm <= 0:
        raise ConfigError("--Tm must be > 0")
    return args.Tm / s.gamma_m


def _moment_rows(x, m: steady.MomentSet, prov: str) -> list:
    return [(x, m.q2, "q2", prov), (x, m.p2, "p2", prov), (x, m.qp, "qp", prov), (x, m.energy_units, "energy", prov)]


def _run_steady(args) -> None:
    s = _build_params(args)
    if not args.sweep:
        m = steady.steady_moments(s)
        if args.fmt == "json":
            _emit_json(args.out, lambda: _moments_json(m))
        else:
            _emit(args.out, spectra.rows_to_csv(_moment_rows(0.0, m, _provenance(s))))
        return
    if args.fmt == "json":
        raise ConfigError("--sweep writes CSV only; drop --format json")
    var, grid = _parse_sweep(args.sweep)
    prov = _provenance(s, f"sweep={var}")
    rows = []
    for x in grid.tolist():
        rows += _moment_rows(x, steady.steady_moments(replace(s, **{var: x})), prov)
    _emit(args.out, spectra.rows_to_csv(rows))


def _run_spectrum(args) -> None:
    s = _build_params(args)
    grid = _grid(args)
    if args.detected:
        vals = spectra.detected_noise_spectrum(s, grid, thermal=args.thermal)
        kind = spectra.KIND_DETECTED_NOISE
    else:
        vals = spectra.position_noise_spectrum(s, grid, thermal=args.thermal)
        kind = spectra.KIND_POSITION_NOISE
    _emit(args.out, SpectrumSeries(grid, vals, kind, _provenance(s, f"thermal={args.thermal}")).to_csv())


def _run_snr_stationary(args) -> None:
    s = _build_params(args)
    grid = _grid(args)
    vals = spectra.stationary_snr(s, args.f0, grid, _window_time(args, s), thermal=args.thermal)
    prov = _provenance(s, f"gmTm={args.Tm:g};stationary")
    _emit(args.out, SpectrumSeries(grid, vals, spectra.KIND_SNR, prov).to_csv())


def _pulse_inputs(args):
    """Parameters, window and force pulse of snr-nonstationary and cyclic.

    --wide-init cools with the wide-band loop: the feedback band of the
    parameters only picks the cooled state, so it is --fb-band wide.
    """
    s = _build_params(args)
    if args.wide_init:
        s = replace(s, cutoff_feedback="wide")
    gm = s.gamma_m
    win = MeasurementWindow(_window_time(args, s))
    force = ForcePulse(f0=args.f0, sigma=args.sigma / gm, t1=args.t1 / gm, omega_f=args.omega_f)
    return s, win, force


def _run_snr_nonstationary(args) -> None:
    s, win, force = _pulse_inputs(args)
    grid = _grid(args)
    vals = nonstat.nonstationary_snr(s, force, win, grid)
    prov = _provenance(s, f"gmTm={args.Tm:g};nonstationary")
    _emit(args.out, SpectrumSeries(grid, vals, spectra.KIND_SNR, prov).to_csv())


def _run_cyclic(args) -> None:
    if args.Tcool < 0:
        raise ConfigError("--Tcool must be >= 0")
    s, win, force = _pulse_inputs(args)
    grid = _grid(args)
    vals = nonstat.cyclic_avg_snr(s, force, win, args.Tcool / s.gamma_m, grid)
    prov = _provenance(s, f"gmTm={args.Tm:g};gmTcool={args.Tcool:g};cyclic")
    _emit(args.out, SpectrumSeries(grid, vals, spectra.KIND_SNR, prov).to_csv())


def _run_montecarlo(args) -> None:
    if args.estimator == "spectrum" and args.out is None:
        raise ConfigError("--estimator spectrum writes its spectrum next to --out; give --out")
    s = _build_params(args)
    sim = SimConfig(dt=args.dt, n_steps=args.n_steps, n_traj=args.n_traj, seed=args.seed, estimator=args.estimator)
    stats = oracle.simulate(s, sim)
    _emit_json(args.out, stats.to_json)
    if stats.spectrum is not None:
        spec = stats.spectrum
        prov = _provenance(s, "montecarlo;err=")
        rows = [
            (w, v, spectra.KIND_POSITION_NOISE, prov + spectra.FLOAT_FMT.format(e))
            for w, v, e in zip(spec.omegas, spec.values, spec.errors)
        ]
        Path(args.out).with_suffix(".spectrum.csv").write_text(spectra.rows_to_csv(rows))


# ------------------------------------------------------------------- figures

# figures 8-10: wide-band cold damping against the bare mirror, probed by a
# pulse of gamma_m sigma = 1e-4 at gamma_m t1 = 3e-4 (the cyclic average of
# figure 10 draws its own arrival times)
_COOLED = SchemeParams(
    scheme=Scheme.COLD_DAMPING, g=2e3, quality=1e5, zeta=10, theta=1e5, eta=0.8, cutoff_feedback="wide"
)
_BARE = SchemeParams(scheme=Scheme.NONE, quality=1e5, zeta=10, theta=1e5, eta=0.8)
_FORCE = ForcePulse(f0=1.0, sigma=1e-4 / _BARE.gamma_m, t1=3e-4 / _BARE.gamma_m, omega_f=1.0)


def _sc(g: float, quality: float) -> SchemeParams:
    """Figures 2-4: stochastic cooling at theta = 1e5, eta = 0.8; zeta is the x axis."""
    return SchemeParams(scheme=Scheme.STOCHASTIC_COOLING, g=g, quality=quality, theta=1e5, eta=0.8)


def _cd(g: float, quality: float) -> SchemeParams:
    """Figures 5-7: cold damping (no feedback at g = 0), zeta = 10, theta = 1e5, eta = 0.8."""
    scheme = Scheme.COLD_DAMPING if g > 0 else Scheme.NONE
    return SchemeParams(scheme=scheme, g=g, quality=quality, zeta=10, theta=1e5, eta=0.8)


def _at_zeta(s: SchemeParams, zetas: np.ndarray) -> list:
    # one direct construction per point: dataclasses.replace would cost more over the 1,800 points of figures 2-4
    return [SchemeParams(scheme=s.scheme, g=s.g, quality=s.quality, zeta=z, theta=s.theta, eta=s.eta)
            for z in zetas.tolist()]


# id -> (x axis, None for spectra.default_grid(); provenance keys; kind; value rule; curves as
# (name, provenance head, params, gamma_m T_m or None, provenance tail)[; shared(x), once per call]).
# value(s, x, window[, shared]) is one curve, the window lasting T_m.  The rules look the
# library up at call time, so patched or traced versions are used.
_ZETA_KEYS, _FIGURE_KEYS = "g Q theta eta", "g Q zeta theta eta"
_FIGURES = {
    2: (np.geomspace(1e-1, 1e9, 200), _ZETA_KEYS, "energy",
        lambda s, x, _: [steady.steady_energy(p) for p in _at_zeta(s, x)],
        [(f"g{i:02d}", "fig2", _sc(g, 1e7), None, "x=zeta") for i, g in enumerate((10.0, 1e3, 1e5, 1e7))]),
    3: (np.geomspace(1e1, 1e9, 200), _ZETA_KEYS, "energy",
        lambda s, x, _: [steady.steady_energy(p) for p in _at_zeta(s, x)],
        [(f"Q{i:02d}", "fig3", _sc(1e7, q), None, "x=zeta") for i, q in enumerate((1e3, 1e5, 1e7))]),
    4: (np.geomspace(1e5, 1e11, 200), _ZETA_KEYS, "q2",
        lambda s, x, _: [steady.steady_moments(p).q2 for p in _at_zeta(s, x)],
        [(f"g{i:02d}", "fig4", _sc(g, 1e4), None, "x=zeta") for i, g in enumerate((1e7, 1e9))]),
    # gamma_m T_m = 10 sets the overall scale only, kept in the stationary regime
    5: (None, _FIGURE_KEYS, "SNR",
        lambda s, w, win: spectra.stationary_snr(s, 1.0, w, win.t_m),
        [(f"g{i:02d}", "fig5", _cd(g, 1e5), 10.0, "gmTm=10") for i, g in enumerate((0.0, 1e4, 1e5))]),
    6: (None, _FIGURE_KEYS, "DetectedNoise",
        lambda s, w, win: nonstat.nonstationary_noise(s, win, w),
        [(f"Tm{i:02d}", "fig6", _cd(1e3, 1e4), t, f"gmTm={t:g}") for i, t in enumerate((1e-1, 1e-2, 1e-3, 1e-4))]),
    7: (None, _FIGURE_KEYS, "DetectedNoise",
        lambda s, w, win: nonstat.nonstationary_noise(s, win, w),
        [(f"{panel}_g{i:02d}", f"fig7{panel}", _cd(g, 1e4), t, f"gmTm={t:g}")
         for panel, t in (("a", 1e-3), ("b", 1e-1)) for i, g in enumerate((1.0, 10.0, 1e2, 1e3))]),
    8: (None, _FIGURE_KEYS, "SNR",
        lambda s, w, win: nonstat.nonstationary_snr(s, _FORCE, win, w),
        [(name, f"fig8;{name}", s, t, f"gmTm={t:g}")
         for name, s, t in (("cooled", _COOLED, 1e-3), ("bare_short", _BARE, 1e-3), ("bare_long", _BARE, 10.0))]),
    # the window is kept above the force duration
    9: (np.geomspace(1e-3, 10.0, 60), _FIGURE_KEYS, "SNR",
        lambda s, x, _: nonstat.nonstationary_snr(s, _FORCE, MeasurementWindow(x / s.gamma_m), 1.0),
        [(name, f"fig9;{name}", s, None, "x=gmTm") for name, s in (("cooled", _COOLED), ("bare", _BARE))]),
    # the cooled mirror spends T_cool = 1e-3 T_m cooling, the bare one none; both share one arrival signal
    10: (None, _FIGURE_KEYS, "SNR",
         lambda s, w, win, signal: nonstat.cyclic_avg_snr(
             s, _FORCE, win, 1e-3 * win.t_m if s is _COOLED else 0.0, w, signal=signal),
         [("cyclic", "fig10;cyclic", _COOLED, 1e-3, "gmTm=0.001;Tcool=0.001Tm"),
          ("bare", "fig10;bare", _BARE, 1e-3, "gmTm=0.001")],
         lambda w: nonstat.arrival_signal(_BARE, _FORCE, MeasurementWindow(1e-3 / _BARE.gamma_m), w)),
}


def _figure_curves(n: int) -> list:
    """(name, SpectrumSeries) for each curve of figure ``n``; provenance is head, parameters, tail."""
    x, keys, kind, value, curves, *shared = _FIGURES[n]
    x = spectra.default_grid() if x is None else x
    shared = [f(x) for f in shared]
    out = []
    for name, head, s, gtm, tail in curves:
        vals = value(s, x, None if gtm is None else MeasurementWindow(gtm / s.gamma_m), *shared)
        out.append((name, SpectrumSeries(x, vals, kind, _provenance(s, tail, head=head, keys=keys))))
    return out


def _run_figure(args) -> None:
    if args.id not in _FIGURES:
        raise ConfigError(f"figure id must be in 2..10, got {args.id}")
    texts = {f"fig{args.id}_{name}.csv": series.to_csv() for name, series in _figure_curves(args.id)}
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    for filename, text in texts.items():
        (outdir / filename).write_text(text)


# ---------------------------------------------------------------- entry point


@functools.cache  # one parser per process; parse_args does not mutate it
def build_parser() -> _Parser:
    parser = _Parser(prog="mirrorfb", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, handler, summary, params=True, grid=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--out", dest="out", help="output path (stdout if omitted)")
        if params:
            p.add_argument("--config", help="flat key/value parameter file")
            p.add_argument("--scheme", choices=tuple(_SCHEMES), default=None)
            p.add_argument("--g", type=_finite_float, default=None, help="feedback gain g1/g2")
            p.add_argument("--Q", dest="quality", metavar="Q", type=_finite_float, help="mechanical quality factor")
            p.add_argument("--zeta", type=_finite_float, default=None, help="rescaled input power")
            p.add_argument("--theta", type=_finite_float, default=None, help="k_B T / hbar omega_m")
            p.add_argument("--eta", type=_finite_float, default=None, help="detection efficiency")
            p.add_argument("--fb-band", default=None, help="narrow | wide | halfwidth | lo:hi")
        if grid:
            p.add_argument("--omin", type=_finite_float, default=1e-3)
            p.add_argument("--omax", type=_finite_float, default=3.0)
            p.add_argument("--opoints", type=int, default=400)
        return p

    p = command("steady", _run_steady, "stationary moments (optionally swept)", grid=False)
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--sweep", default=None, help="var:lo:hi:n[:log] (CSV only)")

    p = command("spectrum", _run_spectrum, "stationary position/detected noise spectrum")
    p.add_argument("--detected", action="store_true", help="add the shot-noise floor")
    p.add_argument("--thermal", choices=("exact", "classical"), default="exact")

    p = command("snr-stationary", _run_snr_stationary, "stationary spectral SNR, flat force")
    p.add_argument("--Tm", type=_finite_float, default=1.0, help="gamma_m * T_m")
    p.add_argument("--f0", type=_finite_float, default=1.0, help="|f~| (flat)")
    p.add_argument("--thermal", choices=("exact", "classical"), default="exact")

    def force_opts(p):
        p.add_argument("--f0", type=_finite_float, default=1.0)
        p.add_argument("--sigma", type=_finite_float, default=1e-4, help="gamma_m * sigma")
        p.add_argument("--t1", type=_finite_float, default=3e-4, help="gamma_m * t1")
        p.add_argument("--omega-f", type=_finite_float, default=1.0)
        p.add_argument("--wide-init", action="store_true", help="wide-band cooled initial state")

    p = command("snr-nonstationary", _run_snr_nonstationary, "cool-and-measure SNR")
    p.add_argument("--Tm", type=_finite_float, required=True, help="gamma_m * T_m")
    force_opts(p)

    p = command("cyclic", _run_cyclic, "arrival-time-averaged cyclic-cooling SNR")
    p.add_argument("--Tm", type=_finite_float, required=True, help="gamma_m * T_m")
    p.add_argument("--Tcool", type=_finite_float, default=0.0, help="gamma_m * T_cool")
    force_opts(p)

    p = command("montecarlo", _run_montecarlo, "Langevin ensemble cross-check", grid=False)
    p.add_argument("--seed", type=int, default=12345, help="RNG seed")
    p.add_argument("--n-traj", type=int, default=1000)
    p.add_argument("--dt", type=_finite_float, default=None)
    p.add_argument("--n-steps", type=int, default=None)
    p.add_argument("--estimator", choices=("moments", "spectrum"), default="moments")

    p = command("figure", _run_figure, "emit the analytic curves of one figure", params=False, grid=False)
    p.add_argument("id", type=int, help="figure id, 2..10")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.handler(args)
        return 0
    except (QuadratureError, InstabilityError, FloatingPointError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
