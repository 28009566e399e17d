"""Stationary position-noise spectra, detected spectra, and the stationary SNR.

Spectra are two-sided densities in 1/omega_m units, normalized so that
int (domega / 2 pi) N_Q^2(omega) = <Q^2>_st.  They are even in omega; all
entry points take omega >= 0 grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from ._quad import quad_spectrum
from .core import SchemeParams, _warn
from .response import chi_freq
from .steady import _feedback_weight, _noise_weights, _thermal_density

KIND_POSITION_NOISE = "PositionNoise"
KIND_DETECTED_NOISE = "DetectedNoise"
KIND_SNR = "SNR"

_NOISE_KINDS = (KIND_POSITION_NOISE, KIND_DETECTED_NOISE)

#: CSV cells use 12 significant digits
FLOAT_FMT = "{:.12g}"
CSV_HEADER = "omega,value,kind,provenance"
_CSV_ROW = "%.12g,%.12g,%s,%s\n"  # FLOAT_FMT's text; kind and provenance go in verbatim
DEFAULT_GRID = (1e-3, 3.0, 400)  # lowest and highest omega and points of default_grid and the CLI's grid


def rows_to_csv(rows) -> str:
    """CSV text of (omega, value, kind, provenance) rows, header first.

    Every CSV file the CLI writes goes through here.  A NaN or inf in the
    omega or value column raises FloatingPointError (a numerical failure)
    instead of reaching the file.  All cells are formatted in one ``%`` pass.
    """
    cells = tuple(chain.from_iterable(rows))
    if not (all(map(math.isfinite, cells[0::4])) and all(map(math.isfinite, cells[1::4]))):
        for x, v, kind, _ in zip(*[iter(cells)] * 4):
            if not (math.isfinite(x) and math.isfinite(v)):
                raise FloatingPointError(f"non-finite output: {kind} = {v} at omega = {x}")
    return CSV_HEADER + "\n" + _CSV_ROW * (len(cells) // 4) % cells


@dataclass(frozen=True)
class SpectrumSeries:
    """A spectrum (or SNR curve) on a frequency grid, with provenance tag."""

    omegas: np.ndarray
    values: np.ndarray
    kind: str
    provenance: str

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)
        if omegas.shape != values.shape or omegas.ndim != 1:
            raise ValueError("omegas and values must be 1-d arrays of equal length")
        if len(omegas) > 1 and not np.all(np.diff(omegas) > 0):
            raise ValueError("frequency grid must be strictly increasing")
        if self.kind in _NOISE_KINDS and np.any(values < 0):
            raise ValueError(f"{self.kind} values must be non-negative")

    def to_csv(self) -> str:
        # Python floats format and test faster than numpy scalars, to the same text
        rows = zip(self.omegas.tolist(), self.values.tolist(), repeat(self.kind), repeat(self.provenance))
        return rows_to_csv(rows)


def default_grid(n: int = DEFAULT_GRID[2]) -> np.ndarray:
    """Default frequency grid: n log-spaced points on [1e-3, 3], resolving the
    w -> 0 plateau and the resonance."""
    return np.geomspace(DEFAULT_GRID[0], DEFAULT_GRID[1], n)


def position_noise_spectrum(s: SchemeParams, omega, thermal: str = "exact", gates: bool = True):
    """Stationary position noise spectrum N_Q^2(omega).

    gamma_m |chi~|^2 [ zeta/4 + (g^2 / 4 eta zeta) w_fb(omega) Gate_fb
    + (omega/2) coth(omega / 2 theta) Gate_res ], with the coth replaced by
    its classical limit theta when ``thermal="classical"``: the noise model of :mod:`mirrorfb.steady`.
    """
    omega = np.asarray(omega, dtype=float)
    chi2 = np.abs(chi_freq(s, omega)) ** 2
    back_action, feedback = _noise_weights(s.g, s.zeta, s.eta)
    fb = feedback * _feedback_weight(s, omega)
    th = _thermal_density(s, omega, thermal)
    if gates:
        lo, hi = s.feedback_band()
        absw = np.abs(omega)
        fb = fb * ((absw >= lo) & (absw <= hi))
        th = th * (absw <= s.cutoff_reservoir)
    out = s.gamma_m * chi2 * (back_action + fb + th)
    return out if out.ndim else float(out)


def shot_noise_floor(s: SchemeParams) -> float:
    """Homodyne shot-noise contribution to the detected position spectrum."""
    return 1.0 / (4.0 * s.eta * s.zeta * s.gamma_m)


def detected_noise_spectrum(s: SchemeParams, omega, thermal: str = "exact"):
    """Detected spectrum: position noise (no gate functions) plus shot noise.

    Faithful to the mirror dynamics only below the cavity bandwidth; the
    adiabatic elimination hides the cavity rolloff, so the caller is
    responsible for staying at omega < gamma_c.
    """
    return position_noise_spectrum(s, omega, thermal=thermal, gates=False) + shot_noise_floor(s)


class FrequencyOptimum(NamedTuple):
    zeta_opt: float
    n_min: float


def optimal_power_at_frequency(s: SchemeParams, omega: float) -> FrequencyOptimum:
    """Power minimizing the detected noise at one frequency, and that minimum.

    Closed form for the power; the minimum is :func:`detected_noise_spectrum`
    there, with the exact (coth) thermal density.  The zeta stored in ``s``
    is ignored.
    """
    gm, omega = s.gamma_m, np.asarray(omega, dtype=float)
    chi2 = abs(chi_freq(s, omega)) ** 2
    w = float(_feedback_weight(s, omega))
    x = 1.0 + s.g**2 * gm**2 * chi2 * w  # Q^-2 g^2 |chi|^2 w, Q^-2 = gm^2
    zeta_opt = math.sqrt(x / (s.eta * gm**2 * chi2))
    return FrequencyOptimum(zeta_opt, detected_noise_spectrum(replace(s, zeta=zeta_opt), omega))


def stationary_snr(s: SchemeParams, f_abs, omega, t_m: float, thermal: str = "exact"):
    """Stationary spectral signal-to-noise ratio for force spectrum |f~(omega)|.

    Valid when the measurement lasts many relaxation times; a warning is
    issued when gamma_m (1 + g) t_m < 10.  Equals |f~| |chi~| / sqrt(t_m N),
    N the ``detected_noise_spectrum``.
    """
    if not 0 < t_m < math.inf:
        raise ValueError(f"measurement time t_m must be finite and > 0, got {t_m}")
    if s.damping * t_m < 10.0:
        _warn(
            "stationary SNR assumes t_m >> relaxation time; "
            f"gamma_m (1+g) t_m = {s.damping * t_m:.3g} < 10"
        )
    omega = np.asarray(omega, dtype=float)
    f_abs = np.broadcast_to(np.asarray(f_abs, dtype=float), omega.shape)
    out = f_abs * np.abs(chi_freq(s, omega)) / np.sqrt(t_m * detected_noise_spectrum(s, omega, thermal))
    return out if out.ndim else float(out)


def integrated_position_variance(s: SchemeParams) -> float:
    """int (domega / 2 pi) N_Q^2 over the reservoir band, by quadrature.

    Equals <Q^2>_st; used as the spectral-consistency cross-check against
    the steady module's closed forms.
    """
    lo, hi = s.feedback_band()

    def integrand(w):
        return position_noise_spectrum(s, w) / (2.0 * math.pi)

    return quad_spectrum(integrand, s, (lo, hi, 2.0 * s.theta), "position-spectrum integral")
