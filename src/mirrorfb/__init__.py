"""Feedback-cooled mirror toolkit.

Closed-form steady states, noise spectra and force-detection SNRs for a
cavity mirror under position (stochastic-cooling) or velocity (cold-damping)
feedback, cross-validated by a Monte Carlo Langevin simulator.
"""

from types import ModuleType as _Module

from .core import (
    BistabilityResult,
    PhysicalParams,
    Scheme,
    SchemeParams,
    classical_steady_amplitude,
    to_dimensionless,
)
from .nonstat import (
    ForcePulse,
    MeasurementWindow,
    cyclic_avg_snr,
    nonstationary_noise,
    nonstationary_snr,
    signal_spectrum,
)
from .oracle import (
    CompareReport,
    EnsembleStats,
    InstabilityError,
    SimConfig,
    compare,
    paired_timestep_stats,
    simulate,
)
from .response import KernelSet, chi_freq, chi_time, kernels
from .spectra import (
    SpectrumSeries,
    default_grid,
    detected_noise_spectrum,
    optimal_power_at_frequency,
    position_noise_spectrum,
    stationary_snr,
)
from .steady import (
    BrownianMoments,
    MomentSet,
    NoiseStrengths,
    ThermalModel,
    brownian_exact,
    min_position_variance,
    noise_strengths,
    optimal_input_power,
    regime_flags,
    steady_energy,
    steady_moments,
)

__version__ = "0.1.0"

# every public name imported above, in sorted order; the submodules are not exported
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _Module))
