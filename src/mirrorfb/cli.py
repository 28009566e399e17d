"""Command-line interface: steady states, spectra, SNRs, Monte Carlo, figures.

Outputs are deterministic: fixed float formatting (12 significant digits),
stable row ordering, and fixed Monte Carlo seeds, so identical invocations
produce byte-identical files.

Exit codes: 0 success, 1 invalid configuration, 2 numerical failure (a NumPy
overflow, division by zero or invalid operation included).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import nonstat, oracle, spectra, steady
from ._quad import QuadratureError
from .core import NUMERIC_FIELDS, PhysicalParams, Scheme, SchemeParams, classical_steady_amplitude, to_dimensionless
from .nonstat import ForcePulse, MeasurementWindow
from .oracle import InstabilityError, SimConfig
from .spectra import SpectrumSeries


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # a negative value may take an exponent (-1e-4), unlike in argparse's pattern
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):  # argparse would exit(2); config errors are code 1
        raise ConfigError(message)


_SCHEME_NAMES = tuple(m.value for m in Scheme)

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
    if scheme not in _SCHEME_NAMES:
        raise ConfigError(f"scheme must be one of {sorted(_SCHEME_NAMES)}, got {scheme!r}")
    if lab := sorted(set(kv) & _PHYSICAL_KEYS):  # detuning and beta too: they need the lab-unit fields
        if working := sorted(set(kv) & _SCHEME_KEYS):
            raise ConfigError(f"config mixes lab-unit keys {lab} with working-unit keys {working}")
        return _physical_params(kv, Scheme(scheme))

    kwargs: dict = {"scheme": Scheme(scheme)}
    for key, val in kv.items():
        if key == "cutoff_feedback":
            kwargs[key] = _parse_cutoff_feedback(val, key)
        else:
            kwargs[key] = _number(float, val, f"config key {key!r}")
    return SchemeParams(**kwargs)  # its ValueError is exit 1, as a ConfigError is


def _physical_params(kv: dict[str, str], scheme: Scheme) -> SchemeParams:
    values = {k: _number(float, v, f"config key {k!r}") for k, v in kv.items()}
    detuning = values.pop("detuning", 0.0)
    beta = values.pop("beta", None)  # overrides the solved root
    try:
        p = PhysicalParams(**values)  # its ValueError is exit 1 unwrapped, as SchemeParams' is
    except TypeError as exc:  # a missing field
        raise ConfigError(str(exc)) from exc
    if beta is None:  # the largest root, always on the upper stable branch
        beta = math.sqrt(classical_steady_amplitude(p, detuning).roots[-1])
    return to_dimensionless(p, beta, scheme)


def _build_params(args) -> SchemeParams:
    kv = _parse_config_file(args.config) if args.config else {}
    s = _params_from_mapping(kv) if kv else SchemeParams()
    overrides = {n: v for n in NUMERIC_FIELDS if (v := getattr(args, n, None)) is not None}  # cutoff_reservoir: no flag
    if args.scheme is not None:
        overrides["scheme"] = Scheme(args.scheme)
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
    if var not in NUMERIC_FIELDS:
        raise ConfigError(f"sweep variable must name a numeric parameter, got {var!r}")
    if n < 1:
        raise ConfigError(f"sweep point count must be >= 1, got {n}")
    log = len(parts) == 5
    if log and parts[4] != "log":
        raise ConfigError(f"unknown sweep mode {parts[4]!r}")
    for field, x, text in (("lo", lo, parts[1]), ("hi", hi, parts[2])):  # before NumPy sees them
        if not (math.isfinite(x) and (x > 0 or not log)):
            raise ConfigError(f"--sweep {field} must be finite{' and > 0 on a log grid' * log}, got {text!r}")
    if not math.isfinite(hi - lo):  # np.linspace would overflow in its subtraction
        raise ConfigError(f"--sweep {var}: hi - lo must be finite, got {parts[2]} - ({parts[1]})")
    return var, (np.geomspace if log else np.linspace)(lo, hi, n)


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
    payload = {"q2": m.q2, "p2": m.p2, "qp": m.qp, "energy_units": m.energy_units, "thermal_model": m.thermal_model.value}
    return json.dumps(payload, allow_nan=False)


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
    """q2, p2, qp and energy rows at each x: one x and a MomentSet of floats, or arrays of both."""
    cols = [np.atleast_1d(v).tolist() for v in (x, m.q2, m.p2, m.qp, m.energy_units)]
    return [(x, v, kind, prov) for x, *vals in zip(*cols) for v, kind in zip(vals, ("q2", "p2", "qp", "energy"))]


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
    m = steady.moments_sweep(s, var, grid)
    _emit(args.out, spectra.rows_to_csv(_moment_rows(grid, m, _provenance(s, f"sweep={var}"))))


def _run_curve(curve, args) -> None:
    """One curve on the --omin..--omax grid; ``curve(args, s, grid)`` gives its kind, values and provenance tail."""
    s = _build_params(args)
    grid = _grid(args)
    kind, vals, tail = curve(args, s, grid)
    _emit(args.out, SpectrumSeries(grid, vals, kind, _provenance(s, tail)).to_csv())


def _spectrum(args, s: SchemeParams, grid):
    noise = spectra.detected_noise_spectrum if args.detected else spectra.position_noise_spectrum
    kind = spectra.KIND_DETECTED_NOISE if args.detected else spectra.KIND_POSITION_NOISE
    return kind, noise(s, grid, thermal=args.thermal), f"thermal={args.thermal}"


def _snr_stationary(args, s: SchemeParams, grid):
    vals = spectra.stationary_snr(s, args.f0, grid, _window_time(args, s), thermal=args.thermal)
    return spectra.KIND_SNR, vals, f"gmTm={args.Tm:g};stationary"


def _pulse(args, s: SchemeParams):
    """Force pulse and measurement window of snr-nonstationary and cyclic (cyclic averages over t1: no --t1)."""
    gm = s.gamma_m
    win = MeasurementWindow(_window_time(args, s))
    return ForcePulse(f0=args.f0, sigma=args.sigma / gm, t1=getattr(args, "t1", 0.0) / gm, omega_f=args.omega_f), win


def _snr_nonstationary(args, s: SchemeParams, grid):
    return spectra.KIND_SNR, nonstat.nonstationary_snr(s, *_pulse(args, s), grid), f"gmTm={args.Tm:g};nonstationary"


def _cyclic(args, s: SchemeParams, grid):
    if args.Tcool < 0:
        raise ConfigError("--Tcool must be >= 0")
    vals = nonstat.cyclic_avg_snr(s, *_pulse(args, s), args.Tcool / s.gamma_m, grid)
    return spectra.KIND_SNR, vals, f"gmTm={args.Tm:g};gmTcool={args.Tcool:g};cyclic"


def _run_montecarlo(args) -> None:
    if args.estimator == "spectrum" and args.out is None:
        raise ConfigError("--estimator spectrum writes its spectrum next to --out; give --out")
    s = _build_params(args)
    sim = SimConfig(**{f.name: v for f in fields(SimConfig) if (v := getattr(args, f.name, None)) is not None})
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


# id -> (x axis, None for spectra.default_grid(); provenance keys; kind; value rule; curves as
# (name, provenance head, params, gamma_m T_m or None, provenance tail)[; shared(x), once per call]).
# value(s, x, window[, shared]) is one curve, the window lasting T_m.  The rules look the
# library up at call time, so patched or traced versions are used.
_ZETA_KEYS, _FIGURE_KEYS = "g Q theta eta", "g Q zeta theta eta"
_FIGURES = {
    2: (np.geomspace(1e-1, 1e9, 200), _ZETA_KEYS, "energy",
        lambda s, x, _: steady.moments_sweep(s, "zeta", x).energy_units,
        [(f"g{i:02d}", "fig2", _sc(g, 1e7), None, "x=zeta") for i, g in enumerate((10.0, 1e3, 1e5, 1e7))]),
    3: (np.geomspace(1e1, 1e9, 200), _ZETA_KEYS, "energy",
        lambda s, x, _: steady.moments_sweep(s, "zeta", x).energy_units,
        [(f"Q{i:02d}", "fig3", _sc(1e7, q), None, "x=zeta") for i, q in enumerate((1e3, 1e5, 1e7))]),
    4: (np.geomspace(1e5, 1e11, 200), _ZETA_KEYS, "q2",
        lambda s, x, _: steady.moments_sweep(s, "zeta", x).q2,
        [(f"g{i:02d}", "fig4", _sc(g, 1e4), None, "x=zeta") for i, g in enumerate((1e7, 1e9))]),
    # gamma_m T_m = 10 sets the overall scale only, kept in the stationary regime
    5: (None, _FIGURE_KEYS, spectra.KIND_SNR,
        lambda s, w, win: spectra.stationary_snr(s, 1.0, w, win.t_m),
        [(f"g{i:02d}", "fig5", _cd(g, 1e5), 10.0, "gmTm=10") for i, g in enumerate((0.0, 1e4, 1e5))]),
    6: (None, _FIGURE_KEYS, spectra.KIND_DETECTED_NOISE,
        lambda s, w, win: nonstat.nonstationary_noise(s, win, w),
        [(f"Tm{i:02d}", "fig6", _cd(1e3, 1e4), t, f"gmTm={t:g}") for i, t in enumerate((1e-1, 1e-2, 1e-3, 1e-4))]),
    7: (None, _FIGURE_KEYS, spectra.KIND_DETECTED_NOISE,
        lambda s, w, win: nonstat.nonstationary_noise(s, win, w),
        [(f"{panel}_g{i:02d}", f"fig7{panel}", _cd(g, 1e4), t, f"gmTm={t:g}")
         for panel, t in (("a", 1e-3), ("b", 1e-1)) for i, g in enumerate((1.0, 10.0, 1e2, 1e3))]),
    8: (None, _FIGURE_KEYS, spectra.KIND_SNR,
        lambda s, w, win: nonstat.nonstationary_snr(s, _FORCE, win, w),
        [(name, f"fig8;{name}", s, t, f"gmTm={t:g}")
         for name, s, t in (("cooled", _COOLED, 1e-3), ("bare_short", _BARE, 1e-3), ("bare_long", _BARE, 10.0))]),
    # the window is kept above the force duration
    9: (np.geomspace(1e-3, 10.0, 60), _FIGURE_KEYS, spectra.KIND_SNR,
        lambda s, x, _: nonstat.nonstationary_snr(s, _FORCE, MeasurementWindow(x / s.gamma_m), 1.0),
        [(name, f"fig9;{name}", s, None, "x=gmTm") for name, s in (("cooled", _COOLED), ("bare", _BARE))]),
    # the cooled mirror spends T_cool = 1e-3 T_m cooling, the bare one none; both share one arrival signal
    10: (None, _FIGURE_KEYS, spectra.KIND_SNR,
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
        """A subcommand; with ``grid`` its ``handler(args, s, grid)`` is one curve for _run_curve."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=functools.partial(_run_curve, handler) if grid else handler)
        p.add_argument("--out", dest="out", help="output path (stdout if omitted)")
        if params:
            p.add_argument("--config", help="flat key/value parameter file")
            p.add_argument("--scheme", choices=_SCHEME_NAMES, default=None)
            p.add_argument("--g", type=_finite_float, default=None, help="feedback gain g1/g2")
            p.add_argument("--Q", dest="quality", metavar="Q", type=_finite_float, help="mechanical quality factor")
            p.add_argument("--zeta", type=_finite_float, default=None, help="rescaled input power")
            p.add_argument("--theta", type=_finite_float, default=None, help="k_B T / hbar omega_m")
            p.add_argument("--eta", type=_finite_float, default=None, help="detection efficiency")
            p.add_argument("--fb-band", default=None, help="narrow | wide | halfwidth | lo:hi")
        if grid:
            p.add_argument("--omin", type=_finite_float, default=spectra.DEFAULT_GRID[0])
            p.add_argument("--omax", type=_finite_float, default=spectra.DEFAULT_GRID[1])
            p.add_argument("--opoints", type=int, default=spectra.DEFAULT_GRID[2])
        return p

    p = command("steady", _run_steady, "stationary moments (optionally swept)", grid=False)
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--sweep", default=None, help="var:lo:hi:n[:log] (CSV only)")

    p = command("spectrum", _spectrum, "stationary position/detected noise spectrum")
    p.add_argument("--detected", action="store_true", help="add the shot-noise floor")
    p.add_argument("--thermal", choices=("exact", "classical"), default="exact")

    p = command("snr-stationary", _snr_stationary, "stationary spectral SNR, flat force")
    p.add_argument("--Tm", type=_finite_float, default=1.0, help="gamma_m * T_m")
    p.add_argument("--f0", type=_finite_float, default=1.0, help="|f~| (flat)")
    p.add_argument("--thermal", choices=("exact", "classical"), default="exact")

    def force_opts(p):
        p.add_argument("--f0", type=_finite_float, default=1.0)
        p.add_argument("--sigma", type=_finite_float, default=1e-4, help="gamma_m * sigma")
        p.add_argument("--omega-f", type=_finite_float, default=1.0)
        p.add_argument("--wide-init", dest="fb_band", action="store_const", const="wide", help="same as --fb-band wide")

    p = command("snr-nonstationary", _snr_nonstationary, "cool-and-measure SNR")
    p.add_argument("--Tm", type=_finite_float, required=True, help="gamma_m * T_m")
    p.add_argument("--t1", type=_finite_float, default=3e-4, help="gamma_m * t1")
    force_opts(p)

    p = command("cyclic", _cyclic, "arrival-time-averaged cyclic-cooling SNR")
    p.add_argument("--Tm", type=_finite_float, required=True, help="gamma_m * T_m")
    p.add_argument("--Tcool", type=_finite_float, default=0.0, help="gamma_m * T_cool")
    force_opts(p)

    p = command("montecarlo", _run_montecarlo, "Langevin ensemble cross-check", grid=False)
    # no defaults here: a flag left out takes SimConfig's
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--n-traj", type=int)
    p.add_argument("--dt", type=_finite_float)
    p.add_argument("--n-steps", type=int)
    p.add_argument("--estimator", choices=("moments", "spectrum"))

    p = command("figure", _run_figure, "emit the analytic curves of one figure", params=False, grid=False)
    p.add_argument("id", type=int, help="figure id, 2..10")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # whatever the warnings filter
            args.handler(args)
        return 0
    except (QuadratureError, InstabilityError, ArithmeticError) as exc:  # also a NumPy float error
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError, MemoryError, Warning) as exc:  # bad --out; huge grid; a caveat as error
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
