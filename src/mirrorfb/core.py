"""Parameter types, unit conventions, and the semiclassical cavity steady state.

Library internals work in dimensionless units with the mechanical frequency
set to one: frequencies are measured in omega_m, times in 1/omega_m, and
energies in units of hbar*omega_m/2.  ``PhysicalParams`` holds lab (SI)
quantities; ``to_dimensionless`` converts them into the working
``SchemeParams`` used everywhere else.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J / K

#: default reservoir cutoff, in units of omega_m
DEFAULT_RESERVOIR_CUTOFF = 1.0e3

#: half-width of the default (narrow) feedback band, in units of the
#: effective damping gamma_m * (1 + g)
NARROW_BAND_WIDTHS = 10.0


class Scheme(Enum):
    """Feedback scheme acting on the mirror."""

    NONE = "none"
    STOCHASTIC_COOLING = "sc"
    COLD_DAMPING = "cd"


class AdiabaticityWarning(UserWarning):
    """Cavity bandwidth is not large compared to the mechanical frequency."""


@dataclass(frozen=True)
class SchemeParams:
    """Dimensionless working parameters of a feedback-controlled mirror.

    Attributes
    ----------
    scheme : Scheme
        Which feedback loop is closed (or none).
    g : float
        Rescaled feedback gain (g1 for stochastic cooling, g2 for cold
        damping), >= 0.  Zero means the loop is open.
    quality : float
        Mechanical quality factor Q = omega_m / gamma_m.
    zeta : float
        Rescaled dimensionless input laser power.
    theta : float
        Dimensionless bath temperature k_B T / (hbar omega_m).
    eta : float
        Homodyne detection efficiency, in (0, 1].
    cutoff_reservoir : float
        Reservoir spectral cutoff, in units of omega_m.
    cutoff_feedback : str | float | tuple
        Feedback-loop band.  ``"narrow"`` selects the default band of
        +-10 gamma_m (1+g) around the resonance, ``"wide"`` a band
        extending to the reservoir cutoff; a float is interpreted as a
        half-width around omega_m, and an explicit ``(lo, hi)`` pair is
        used as given.  The band must be finite: its feedback heating of
        <P^2> grows with the top edge.
    """

    scheme: Scheme = Scheme.NONE
    g: float = 0.0
    quality: float = 1.0e5
    zeta: float = 1.0
    theta: float = 0.0
    eta: float = 1.0
    cutoff_reservoir: float = DEFAULT_RESERVOIR_CUTOFF
    cutoff_feedback: object = "narrow"

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise ValueError(f"scheme must be a Scheme, got {self.scheme!r}")
        for name in ("g", "quality", "zeta", "theta", "eta", "cutoff_reservoir"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.g < 0:
            raise ValueError(f"feedback gain must be >= 0, got {self.g}")
        if self.scheme is Scheme.NONE and self.g != 0:
            raise ValueError("scheme NONE requires g = 0")
        if self.quality <= 0:
            raise ValueError(f"quality factor must be > 0, got {self.quality}")
        if self.zeta <= 0:
            raise ValueError(f"input power zeta must be > 0, got {self.zeta}")
        if self.theta < 0:
            raise ValueError(f"temperature theta must be >= 0, got {self.theta}")
        if not 0 < self.eta <= 1:
            raise ValueError(f"efficiency eta must be in (0, 1], got {self.eta}")
        if self.cutoff_reservoir <= 0:
            raise ValueError("reservoir cutoff must be > 0")
        self.feedback_band()  # validates cutoff_feedback

    @property
    def gamma_m(self) -> float:
        """Mechanical damping rate, in units of omega_m."""
        return 1.0 / self.quality

    @property
    def damping(self) -> float:
        """Effective damping gamma_m (1 + g) of the closed-loop oscillator."""
        return self.gamma_m * (1.0 + self.g)

    @property
    def wide_band(self) -> bool:
        return self.cutoff_feedback == "wide"

    def feedback_band(self) -> tuple[float, float]:
        """Feedback gate interval (lo, hi) for |omega|, in units of omega_m."""
        cf = self.cutoff_feedback
        if cf == "narrow":
            half = NARROW_BAND_WIDTHS * self.damping
            return (max(0.0, 1.0 - half), 1.0 + half)
        if cf == "wide":
            return (0.0, self.cutoff_reservoir)
        if isinstance(cf, tuple):
            if len(cf) != 2:
                raise ValueError(f"feedback band must be a (lo, hi) pair, got {cf}")
            lo, hi = float(cf[0]), float(cf[1])
            if not 0 <= lo < hi < math.inf:
                raise ValueError(f"feedback band must be finite with 0 <= lo < hi, got {cf}")
            return (lo, hi)
        if isinstance(cf, (int, float)) and not isinstance(cf, bool):
            half = float(cf)
            if not 0 < half < math.inf:
                raise ValueError(f"feedback half-width must be finite and > 0, got {cf}")
            return (max(0.0, 1.0 - half), 1.0 + half)
        raise ValueError(f"unrecognized cutoff_feedback: {cf!r}")

    def bare(self) -> "SchemeParams":
        """Same bath/readout parameters with the feedback loop open."""
        return replace(self, scheme=Scheme.NONE, g=0.0)


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory (SI) parameters of the driven cavity with a movable mirror.

    ``feedback_gain_raw`` is the loop's dimensionless electronic gain
    (g_sc or g_cd depending on the scheme); ``temperature`` is the bath
    temperature in kelvin.
    """

    mass: float  # kg
    omega_m: float  # rad/s
    gamma_m: float  # rad/s
    cavity_length: float  # m
    gamma_c: float  # rad/s
    laser_power: float  # W
    laser_omega0: float  # rad/s
    cavity_omega_c: float  # rad/s
    efficiency: float  # (0, 1]
    feedback_gain_raw: float = 0.0
    reservoir_cutoff: float | None = None  # rad/s
    feedback_bandwidth: float | None = None  # rad/s, half-width about omega_m
    temperature: float = 0.0  # K

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        positive = ("mass", "omega_m", "gamma_m", "cavity_length", "gamma_c", "laser_power", "laser_omega0",
                    "cavity_omega_c")
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("reservoir_cutoff", "feedback_bandwidth"):  # None picks the default
            if getattr(self, name) is not None and not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0 when given, got {getattr(self, name)}")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.gamma_c < 10.0 * self.omega_m:
            warnings.warn(
                "cavity bandwidth gamma_c is not >= 10 omega_m; the adiabatic "
                "(large-bandwidth) working equations may be inaccurate",
                AdiabaticityWarning,
                stacklevel=2,
            )

    @property
    def coupling(self) -> float:
        """Optomechanical coupling constant G, rad/s per dimensionless Q."""
        return (self.cavity_omega_c / self.cavity_length) * math.sqrt(
            HBAR / (2.0 * self.mass * self.omega_m)
        )

    @property
    def drive(self) -> float:
        """Coherent drive amplitude E = sqrt(P gamma_c / hbar omega_0), rad/s."""
        return math.sqrt(self.laser_power * self.gamma_c / (HBAR * self.laser_omega0))


@dataclass(frozen=True)
class BistabilityResult:
    """Positive real intracavity intensities |beta|^2 and their stability."""

    roots: tuple[float, ...]
    stable: tuple[bool, ...]

    @property
    def bistable(self) -> bool:
        return len(self.roots) == 3


def classical_steady_amplitude(p: PhysicalParams, detuning: float = 0.0) -> BistabilityResult:
    """Solve for the semiclassical intracavity intensity x = |beta|^2.

    The steady state satisfies the cubic

        x * [(gamma_c/2)^2 + (detuning - 2 G^2 x / omega_m)^2] = E^2,

    which has one or three positive real roots.  ``detuning`` is the bare
    cavity-laser detuning omega_c - omega_0 in rad/s.  With three roots the
    middle one sits on the negative-slope branch and is flagged unstable.
    """
    if not math.isfinite(detuning):
        raise ValueError(f"detuning must be finite, got {detuning}")
    g2 = p.coupling**2
    e2 = p.drive**2
    hw2 = (p.gamma_c / 2.0) ** 2

    # c3 x^3 + c2 x^2 + c1 x + c0 = 0; np.roots drops zero leading coefficients (G = 0)
    c3 = 4.0 * g2 * g2 / p.omega_m**2
    c2 = -4.0 * detuning * g2 / p.omega_m
    c1 = hw2 + detuning**2
    c0 = -e2
    raw = np.roots([c3, c2, c1, c0])
    roots = []
    for r in raw:
        if abs(r.imag) > 1e-8 * (abs(r.real) + 1e-300):
            continue
        x = float(r.real)
        if x <= 0:
            continue
        # polish with Newton; np.roots can be loose for extreme coefficients
        for _ in range(4):
            f = ((c3 * x + c2) * x + c1) * x + c0
            df = (3.0 * c3 * x + 2.0 * c2) * x + c1
            if df == 0:
                break
            x -= f / df
        roots.append(x)
    roots = sorted(set(roots))
    # collapse near-duplicates left by root polishing
    dedup: list[float] = []
    for x in roots:
        if not dedup or abs(x - dedup[-1]) > 1e-9 * abs(x):
            dedup.append(x)
    roots = dedup

    if len(roots) not in (1, 3):
        raise RuntimeError(
            f"expected 1 or 3 positive intensity roots, found {len(roots)}: {roots}"
        )
    if len(roots) == 3:
        stable = (True, False, True)
    else:
        stable = (True,)
    return BistabilityResult(roots=tuple(roots), stable=stable)


def to_dimensionless(
    p: PhysicalParams, beta: float, scheme: Scheme = Scheme.NONE
) -> SchemeParams:
    """Convert lab parameters and a real field amplitude into working units.

    ``beta`` is the (real, positive) semiclassical field amplitude, e.g.
    ``sqrt(root)`` for a stable root of :func:`classical_steady_amplitude`.
    The rescaled gain is g1 = -4 G beta g_sc / gamma_m for stochastic
    cooling (the sign convention makes g1 >= 0 for a cooling loop) and
    g2 = 4 G beta omega_m g_cd / (gamma_m gamma_c) for cold damping.
    """
    if not 0 < beta < math.inf:
        raise ValueError(f"field amplitude beta must be finite and > 0, got {beta}")
    G = p.coupling
    zeta = 16.0 * G**2 * beta**2 / (p.gamma_m * p.gamma_c)
    if zeta <= 0:
        raise ValueError(f"resulting input power zeta must be > 0, got {zeta}")

    if scheme is Scheme.STOCHASTIC_COOLING:
        g = -4.0 * G * beta * p.feedback_gain_raw / p.gamma_m
        if g < 0:
            raise ValueError(
                "stochastic-cooling gain g1 = -4 G beta g_sc / gamma_m is negative; "
                "a cooling loop requires g_sc <= 0 in this sign convention"
            )
    elif scheme is Scheme.COLD_DAMPING:
        g = 4.0 * G * beta * p.omega_m * p.feedback_gain_raw / (p.gamma_m * p.gamma_c)
        if g < 0:
            raise ValueError(
                "cold-damping gain g2 = 4 G beta omega_m g_cd / (gamma_m gamma_c) "
                "is negative; a damping loop requires g_cd >= 0"
            )
    else:
        g = 0.0

    cutoff_res = DEFAULT_RESERVOIR_CUTOFF if p.reservoir_cutoff is None else p.reservoir_cutoff / p.omega_m
    cutoff_fb: object = "narrow" if p.feedback_bandwidth is None else p.feedback_bandwidth / p.omega_m

    return SchemeParams(
        scheme=scheme,
        g=g,
        quality=p.omega_m / p.gamma_m,
        zeta=zeta,
        theta=KB * p.temperature / (HBAR * p.omega_m),
        eta=p.efficiency,
        cutoff_reservoir=cutoff_res,
        cutoff_feedback=cutoff_fb,
    )
