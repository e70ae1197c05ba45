"""Initial Gaussian packet and its mapping to the energy-domain amplitude.

The space-conditional state at the reference point x0 = 0 is seeded from the
ordinary momentum wave function under the working hypothesis that the
arrival-momentum amplitude equals the ordinary momentum amplitude
("match-standard-qm").  The alternative (unequal amplitudes) is not
implemented: no operational procedure to obtain it independently is known.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .numerics import EnergyGrid, unit_phase

__all__ = [
    "GaussianPacketSpec",
    "SpectralAmplitude",
    "psi_position",
    "psi_momentum",
    "sc_initial_amplitude",
    "default_energy_grid",
]


@dataclass(frozen=True)
class GaussianPacketSpec:
    """Gaussian packet centered at x_i with mean momentum p_i and width delta."""

    x_i: float
    p_i: float
    delta: float
    m: float = 1.0

    def __post_init__(self):
        if self.delta <= 0 or self.m <= 0:
            raise ValueError("delta and m must both be positive")

    @property
    def sigma_p(self) -> float:
        """Momentum-space standard deviation of |psi_momentum|^2."""
        return 1.0 / (2.0 * self.delta)

    def in_scattering_regime(self) -> bool:
        """Packet well to the left of the origin with essentially positive momenta."""
        return (self.x_i + 5.0 * self.delta <= 0.0
                and self.p_i - 5.0 * self.sigma_p > 0.0)


@dataclass(frozen=True)
class SpectralAmplitude:
    """Complex amplitude per energy-grid sample of the forward-moving state.

    ``anchor_x`` is the detector position at which the amplitudes are defined.
    ``m`` rides along so downstream translations need no extra context.  A
    reflected (backward-moving) component is identically zero in the
    transmitted-particle workflows and is not represented.
    """

    values: np.ndarray
    anchor_x: float
    egrid: EnergyGrid
    m: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.egrid.n,):
            raise ValueError("values must match the energy grid length")
        if not np.all(np.isfinite(values)):
            raise ValueError("amplitude values must be finite")
        object.__setattr__(self, "values", values)


def psi_position(spec: GaussianPacketSpec, x):
    """Position wave function of the initial packet.

    (2 pi delta^2)^(-1/4) exp(-[(x - x_i)/(2 delta) - i p_i delta]^2
                              - p_i^2 delta^2)
    """
    d = spec.delta
    z = (np.asarray(x, dtype=float) - spec.x_i) / (2.0 * d) - 1j * spec.p_i * d
    return (2.0 * np.pi * d**2) ** -0.25 * np.exp(-z**2 - (spec.p_i * d) ** 2)


def psi_momentum(spec: GaussianPacketSpec, P):
    """Momentum wave function: (2 delta^2/pi)^(1/4) exp(-delta^2 (P-p_i)^2 - i P x_i)."""
    d = spec.delta
    P = np.asarray(P, dtype=float)
    return ((2.0 * d**2 / np.pi) ** 0.25 * np.exp(-(d * (P - spec.p_i)) ** 2)
            * unit_phase(-spec.x_i * P))


def sc_initial_amplitude(spec: GaussianPacketSpec, egrid: EnergyGrid) -> SpectralAmplitude:
    """Energy-domain amplitude of the space-conditional state at x0 = 0.

    On the positive-energy grid this is (m/2E)^(1/4) psi_momentum(sqrt(2 m E));
    the step function at E = 0 is honored by construction since the grid never
    reaches E <= 0.  Only the forward component is returned; the reflected
    one is zero for a positive-momentum packet.
    """
    return SpectralAmplitude(_initial_values(spec, egrid), anchor_x=0.0,
                             egrid=egrid, m=spec.m)


@functools.lru_cache(maxsize=1)
def _initial_values(spec: GaussianPacketSpec, egrid: EnergyGrid) -> np.ndarray:
    """Read-only amplitude values of ``sc_initial_amplitude``; one (packet,
    grid) pair is kept, so the models of a sweep share one array."""
    E = egrid.samples
    P = np.sqrt(2.0 * spec.m * E)
    values = (spec.m / (2.0 * E)) ** 0.25 * psi_momentum(spec, P)
    values.flags.writeable = False
    return values


E_FLOOR = 1e-9  # lowest admissible grid energy; (m/2E)^(1/4) blows up at 0


def default_energy_grid(spec: GaussianPacketSpec) -> EnergyGrid:
    """2**14 energies covering p_i +/- 10 momentum widths, mapped to E = P^2/2m."""
    p_lo = spec.p_i - 10.0 * spec.sigma_p
    p_hi = spec.p_i + 10.0 * spec.sigma_p
    e_lo = max(E_FLOOR, p_lo**2 / (2.0 * spec.m)) if p_lo > 0 else E_FLOOR
    e_hi = p_hi**2 / (2.0 * spec.m)
    return EnergyGrid(e_lo, e_hi, 2**14)
