"""Transmitted-packet Kijowski model and the L1 distance between models.

The competing prediction for arrival behind a square barrier: apply the
plane-wave transmission amplitude T(P) to the momentum wave function and feed
the transmitted packet through the free arrival-time formula, normalizing by
the transmission probability.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch
from .evolution import TOADistribution, toa_density
from .numerics import EnergyGrid, TimeGrid, trapezoid_complex
from .packet import (GaussianPacketSpec, SpectralAmplitude, default_energy_grid,
                     sc_initial_amplitude)

__all__ = ["transmission_amplitude", "transmitted_kijowski", "model_distance"]


def transmission_amplitude(P, v0: float, length: float, m: float = 1.0):
    """Square-barrier transmission amplitude for incident momentum P > 0.

        T(P) = 4 P P' exp(-i (P - P') L)
               / [ (P + P')^2 - exp(2 i P' L) (P - P')^2 ]

    with P' = sqrt(P^2 - 2 m v0) continued onto the positive imaginary axis
    below the barrier, where the formula stays finite (opaque-barrier decay).
    """
    P = np.asarray(P, dtype=float)
    if np.any(P <= 0.0):
        raise ValueError("transmission amplitude defined for P > 0 only")
    Pp = np.sqrt((P**2 - 2.0 * m * v0).astype(complex))
    # equivalent form with the removable P' = 0 point (P^2 = 2 m v0) made
    # explicit: multiply numerator and denominator by exp(-i P' L) and
    # divide out one power of P':
    #   T = 4 P exp(-i P L) / [4 P cos(P' L) - 2 i (P^2 + P'^2) sin(P' L) / P']
    z = Pp * length
    with np.errstate(over="ignore", invalid="ignore"):
        sin_over = np.where(np.abs(z) > 1e-6, np.sin(z) / np.where(Pp == 0, 1.0, Pp),
                            length * (1.0 - z**2 / 6.0))
        den = 4.0 * P * np.cos(z) - 2j * (P**2 + Pp**2) * sin_over
        out = np.asarray(4.0 * P * np.exp(-1j * P * length) / den)
    # deep below the barrier (P' L past ~710i) cos z and sin z overflow;
    # there the first form is used, whose exp(i z) = exp(-|P'| L) only
    # underflows
    bad = ~np.isfinite(out)
    if np.any(bad):
        p, pp = np.broadcast_to(P, out.shape)[bad], Pp[bad]
        ez = np.exp(1j * z[bad])
        out[bad] = (4.0 * p * pp * np.exp(-1j * p * length) * ez
                    / ((p + pp) ** 2 - ez**2 * (p - pp) ** 2))
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
    if not x > length:
        raise ValueError("detector must sit beyond the barrier (x > length)")
    egrid = egrid if egrid is not None else default_energy_grid(spec)
    base = sc_initial_amplitude(spec, egrid)
    P = np.sqrt(2.0 * spec.m * egrid.samples)
    T = transmission_amplitude(P, v0, length, m=spec.m)
    values = T * base.values * np.exp(1j * P * x)
    amps = SpectralAmplitude(values, anchor_x=x, egrid=egrid, m=spec.m)
    return toa_density(amps, x, tgrid, method=method)


def model_distance(a: TOADistribution, b: TOADistribution) -> float:
    """L1 distance integral |rho_a - rho_b| dt; in [0, 2] for unit densities."""
    if a.tgrid.n != b.tgrid.n or not np.array_equal(a.tgrid.samples, b.tgrid.samples):
        raise GridMismatch("distributions are sampled on different time grids")
    diff = np.abs(a.density - b.density)
    return float(trapezoid_complex(diff, a.tgrid.spacing).real)
