"""Parameter types, unit conventions, and the semiclassical cavity steady state.

Library internals work in dimensionless units with the mechanical frequency
set to one: frequencies are measured in omega_m, times in 1/omega_m, and
energies in units of hbar*omega_m/2.  ``PhysicalParams`` holds lab (SI)
quantities; ``to_dimensionless`` converts them into the working
``SchemeParams`` used everywhere else.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, fields, replace
from enum import Enum

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


def _warn(message: str, category: type[Warning] = UserWarning) -> None:
    """Warn at the innermost frame outside the library (``mirrorfb.cli`` is a caller), so a caveat
    points at the caller's line.  Frames go by module name, as a dataclass's ``__init__`` runs in
    ``<string>``.  Call it from the calling thread: a helper thread's walk ends in ``threading``."""
    frame, level = sys._getframe(1), 2
    while (name := frame.f_globals.get("__name__", "")).startswith("mirrorfb.") and name != "mirrorfb.cli":
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


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
        for name in NUMERIC_FIELDS:
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
        if cf == "wide":
            return (0.0, self.cutoff_reservoir)
        if isinstance(cf, tuple):
            if len(cf) != 2:
                raise ValueError(f"feedback band must be a (lo, hi) pair, got {cf}")
            lo, hi = float(cf[0]), float(cf[1])
            if not 0 <= lo < hi < math.inf:
                raise ValueError(f"feedback band must be finite with 0 <= lo < hi, got {cf}")
            return (lo, hi)
        if cf == "narrow":
            half = NARROW_BAND_WIDTHS * self.damping
        elif isinstance(cf, (int, float)) and not isinstance(cf, bool):
            half = float(cf)
            if not 0 < half < math.inf:
                raise ValueError(f"feedback half-width must be finite and > 0, got {cf}")
        else:
            raise ValueError(f"unrecognized cutoff_feedback: {cf!r}")
        return (max(0.0, 1.0 - half), 1.0 + half)  # centred on the resonance

    def bare(self) -> "SchemeParams":
        """Same bath/readout parameters with the feedback loop open."""
        return replace(self, scheme=Scheme.NONE, g=0.0)


#: the numeric fields of ``SchemeParams``, in field order (annotations are strings here)
NUMERIC_FIELDS = tuple(f.name for f in fields(SchemeParams) if f.type == "float")


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
            _warn(
                "cavity bandwidth gamma_c is not >= 10 omega_m; the adiabatic "
                "(large-bandwidth) working equations may be inaccurate",
                AdiabaticityWarning,
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

        f(x) = x * [(gamma_c/2)^2 + (detuning - 2 G^2 x / omega_m)^2] - E^2 = 0,

    whose one or three positive real roots are returned in ascending order.  ``detuning`` is the
    bare cavity-laser detuning omega_c - omega_0 in rad/s.  With three roots the middle one sits on
    the negative-slope branch and is flagged unstable; the last root is on the upper stable branch.

    As f(0) < 0 and f(x) >= x (gamma_c/2)^2 - E^2, every root lies in (0, 2 E^2 / (gamma_c/2)^2].
    The turning points of f cut that interval into at most three monotone pieces; each piece whose
    ends differ in sign holds one root, bisected down to adjacent floats.  The signs at the cuts run
    from - to +, so one or three pieces change sign.  An exact tangency counts its double root twice
    or not at all.
    """
    if not math.isfinite(detuning):
        raise ValueError(f"detuning must be finite, got {detuning}")
    a = 2.0 * p.coupling**2 / p.omega_m
    e2 = p.drive**2
    hw2 = (p.gamma_c / 2.0) ** 2
    top = 2.0 * e2 / hw2
    if not 0 < top < math.inf:
        raise ValueError(f"intensity bound 2 E^2 / (gamma_c/2)^2 must be finite and > 0, got {top}")

    def f(x: float) -> float:
        return x * (hw2 + (detuning - a * x) ** 2) - e2

    # f'(x) = 3 a^2 x^2 - 4 a detuning x + hw2 + detuning^2 has real zeros only if detuning^2 > 3 hw2
    turning = [(2.0 * detuning + s * math.sqrt(detuning**2 - 3.0 * hw2)) / (3.0 * a)
               for s in (-1.0, 1.0)] if a > 0 and detuning**2 > 3.0 * hw2 else []
    cuts = [0.0, *(x for x in turning if 0 < x < top), top]
    roots = tuple(_bisect(f, lo, hi) for lo, hi in zip(cuts, cuts[1:]) if (f(lo) > 0) != (f(hi) > 0))
    return BistabilityResult(roots=roots, stable=(True, False, True) if len(roots) == 3 else (True,))


def _bisect(f, lo: float, hi: float) -> float:
    """The root of ``f`` in [lo, hi], whose ends differ in sign, bisected down to adjacent floats."""
    rising = f(hi) > 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if (f(mid) > 0) == rising:
            hi = mid
        else:
            lo = mid
    return lo if abs(f(lo)) < abs(f(hi)) else hi


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
    zeta = 16.0 * G**2 * beta**2 / (p.gamma_m * p.gamma_c)  # SchemeParams rejects zeta <= 0

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
