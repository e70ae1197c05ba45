"""Transmitted-packet Kijowski model and the L1 distance between models.

The competing prediction for arrival behind a square barrier: apply the
plane-wave transmission amplitude T(P) to the momentum wave function and feed
the transmitted packet through the free arrival-time formula, normalizing by
the transmission probability.

Behind the barrier (x > L) the transmitted plane wave is the
space-conditional translation times one factor:

    T(P) exp(i P x) = exp(i theta(E)) R(E),
    theta = (x - L) P + L P',
    R = 4 P P' / [ 4 P P' - expm1(2 i P' L) (P - P')^2 ],

with P' = sqrt(2m[E - V0]).  exp(i theta) is what the space-conditional
translation applies; R sums the multiple reflections inside the barrier,
which that translation does not source.  So the Kijowski amplitude is the
closed-form space-conditional amplitude at the detector times R(E), and
T(P) is R exp(-i (P - P') L).
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch
from .evolution import TOADistribution, barrier_amplitude, toa_density
from .numerics import EnergyGrid, TimeGrid, complex_sqrt_2m, trapezoid_complex
from .packet import GaussianPacketSpec, SpectralAmplitude

__all__ = ["transmission_amplitude", "transmitted_amplitude", "transmitted_kijowski",
           "model_distance"]


def _multiple_reflections(P, Pp, length: float) -> np.ndarray:
    """R = 4 P P' / [4 P P' - expm1(2 i P' L) (P - P')^2], and its limit
    4 P / (4 P - 2 i L P^2) where P' = 0 exactly.

    Im P' >= 0 keeps |exp(2 i P' L)| <= 1, so nothing overflows, and R stays
    of order one however opaque the barrier: the decay exp(-|P'| L) is left
    to the factor it multiplies.
    """
    with np.errstate(invalid="ignore"):  # 0 / 0 at P' = 0, replaced below
        out = np.asarray(4.0 * P * Pp
                         / (4.0 * P * Pp - np.expm1(2j * Pp * length) * (P - Pp) ** 2))
    turn = Pp == 0
    if np.any(turn):
        p = P[turn]
        out[turn] = 4.0 * p / (4.0 * p - 2j * length * p**2)
    return out


def transmission_amplitude(P, v0: float, length: float, m: float = 1.0):
    """Square-barrier transmission amplitude for incident momentum P > 0.

        T(P) = R(P) exp(-i (P - P') L)

    with R the multiple-reflection factor of the module docstring and
    P' = sqrt(P^2 - 2 m v0) continued onto the positive imaginary axis below
    the barrier.  Deep below the barrier T decays as exp(-|P'| L) and only
    underflows.
    """
    P = np.asarray(P, dtype=float)
    if np.any(P <= 0.0):
        raise ValueError("transmission amplitude defined for P > 0 only")
    Pp = np.sqrt((P**2 - 2.0 * m * v0).astype(complex))
    out = _multiple_reflections(P, Pp, length) * np.exp(-1j * (P - Pp) * length)
    return complex(out) if out.ndim == 0 else out


def transmitted_amplitude(sts: SpectralAmplitude, v0: float,
                          length: float) -> SpectralAmplitude:
    """Transmitted-Kijowski amplitude at the detector, a0(E) T(P) exp(i P x).

    ``sts`` must be the closed-form ``barrier_amplitude`` of the same packet
    and barrier (v0 on (0, length)) at its anchor x > length; the result is
    it times R(E).
    """
    E = sts.egrid.samples
    R = _multiple_reflections(np.sqrt(2.0 * sts.m * E), complex_sqrt_2m(E, v0, sts.m),
                              length)
    return SpectralAmplitude(sts.values * R, anchor_x=sts.anchor_x, egrid=sts.egrid,
                             m=sts.m)


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
    sts = barrier_amplitude(spec, v0, length, x, egrid)
    return toa_density(transmitted_amplitude(sts, v0, length), tgrid, method=method)


def model_distance(a: TOADistribution, b: TOADistribution) -> float:
    """L1 distance integral |rho_a - rho_b| dt; in [0, 2] for unit densities."""
    if a.tgrid.n != b.tgrid.n or not np.array_equal(a.tgrid.samples, b.tgrid.samples):
        raise GridMismatch("distributions are sampled on different time grids")
    diff = np.abs(a.density - b.density)
    return float(trapezoid_complex(diff, a.tgrid.spacing).real)
