"""Quantum time-of-arrival distributions behind piecewise-constant barriers.

The package propagates a Gaussian packet's energy amplitudes *in space*
(solving the space-conditional Schrodinger equation), turns them into
arrival-time densities at a detector, and compares the result with the free
and transmitted-packet Kijowski distributions.  An independent standard-QM
oracle (transfer matrix + Crank-Nicolson grid solver) cross-validates every
quantity that both frameworks can compute.  Units are natural, hbar = 1;
the mass m is a parameter.
"""

from .errors import (ConfigError, DivergenceWarning, GridMismatch, GridTooCoarse,
                     UnstableConfig, ZeroArrival)
from .evolution import (TOADistribution, barrier_amplitude, barrier_toa, free_kijowski,
                        propagate, toa_density)
from .kijowski import model_distance, transmitted_amplitude, transmitted_kijowski
from .numerics import EnergyGrid, TimeGrid, fourier_E_to_t
from .packet import (GaussianPacketSpec, SpectralAmplitude, default_energy_grid,
                     psi_momentum, psi_position, sc_initial_amplitude)
from .potential import PiecewisePotential
from .scenario import (ScenarioConfig, ScenarioResult, SweepPoint, emit_csv,
                       emit_svg, run_scenario)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DivergenceWarning", "EnergyGrid", "GaussianPacketSpec",
    "GridMismatch", "GridTooCoarse", "PiecewisePotential", "ScenarioConfig",
    "ScenarioResult", "SpectralAmplitude", "SweepPoint", "TOADistribution",
    "TimeGrid", "UnstableConfig", "ZeroArrival", "barrier_amplitude", "barrier_toa",
    "default_energy_grid", "emit_csv", "emit_svg", "fourier_E_to_t",
    "free_kijowski", "model_distance", "propagate", "psi_momentum", "psi_position",
    "run_scenario", "sc_initial_amplitude", "toa_density", "transmitted_amplitude",
    "transmitted_kijowski",
]
