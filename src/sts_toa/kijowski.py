"""Transmitted-packet Kijowski model and the L1 distance between models.

The competing prediction for arrival behind a square barrier: apply the
plane-wave transmission amplitude T(P) to the momentum wave function and feed
the transmitted packet through the free arrival-time formula, normalizing by
the transmission probability.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch
from .evolution import TOADistribution, check_scattering_setup, toa_density
from .numerics import EnergyGrid, TimeGrid, trapezoid_complex
from .packet import (GaussianPacketSpec, SpectralAmplitude, default_energy_grid,
                     sc_initial_amplitude)

__all__ = ["transmission_amplitude", "transmitted_kijowski", "model_distance"]


def transmission_amplitude(P, v0: float, length: float, m: float = 1.0):
    """Square-barrier transmission amplitude for incident momentum P > 0.

        T(P) = 4 P P' exp(-i (P - P') L)
               / [ 4 P P' - expm1(2 i P' L) (P - P')^2 ]

    with P' = sqrt(P^2 - 2 m v0) continued onto the positive imaginary axis
    below the barrier.  Im P' >= 0 keeps |exp(2 i P' L)| <= 1, so nothing
    overflows; deep below the barrier T decays as exp(-|P'| L) and only
    underflows.  At P' = 0 exactly the limit
    4 P exp(-i P L) / (4 P - 2 i L P^2) is taken.
    """
    P = np.asarray(P, dtype=float)
    if np.any(P <= 0.0):
        raise ValueError("transmission amplitude defined for P > 0 only")
    Pp = np.sqrt((P**2 - 2.0 * m * v0).astype(complex))
    # the numerator's full product is formed before dividing: opaque-barrier
    # exponentials are subnormal, and dividing one first loses its digits
    with np.errstate(invalid="ignore"):  # 0 / 0 at P' = 0, replaced below
        out = np.asarray(4.0 * P * Pp * np.exp(-1j * (P - Pp) * length)
                         / (4.0 * P * Pp - np.expm1(2j * Pp * length) * (P - Pp) ** 2))
    turn = Pp == 0
    if np.any(turn):
        p = P[turn]
        out[turn] = 4.0 * p * np.exp(-1j * p * length) / (4.0 * p - 2j * length * p**2)
    return complex(out) if out.ndim == 0 else out


def transmitted_kijowski(spec: GaussianPacketSpec, v0: float, length: float,
                         x: float, tgrid: TimeGrid,
                         egrid: EnergyGrid | None = None,
                         method: str = "fft") -> TOADistribution:
    """Kijowski arrival-time density of the transmitted packet at x > L.

    Sampled on the same energy grid as the space-conditional model (momenta
    P = sqrt(2mE)), so model distances carry no interpolation error.  The
    reported arrival probability is the transmission probability
    integral |T(P) psi_momentum(P)|^2 dP.
    """
    check_scattering_setup(spec, length, x)
    egrid = egrid if egrid is not None else default_energy_grid(spec)
    base = sc_initial_amplitude(spec, egrid)
    P = np.sqrt(2.0 * spec.m * egrid.samples)
    T = transmission_amplitude(P, v0, length, m=spec.m)
    values = T * base.values * np.exp(1j * P * x)
    amps = SpectralAmplitude(values, anchor_x=x, egrid=egrid, m=spec.m)
    return toa_density(amps, tgrid, method=method)


def model_distance(a: TOADistribution, b: TOADistribution) -> float:
    """L1 distance integral |rho_a - rho_b| dt; in [0, 2] for unit densities."""
    if a.tgrid.n != b.tgrid.n or not np.array_equal(a.tgrid.samples, b.tgrid.samples):
        raise GridMismatch("distributions are sampled on different time grids")
    diff = np.abs(a.density - b.density)
    return float(trapezoid_complex(diff, a.tgrid.spacing).real)
