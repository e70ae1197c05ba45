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

R is formed from real pieces, split at E = V0 as the translation's factors
are.  Above the barrier P' is real and expm1(2 i P' L) = -2 s^2 + 2 i s c,
with c + i s = exp(i P' L) formed by ``numerics.unit_phase`` from
tan(P' L / 2); below it P' = i kappa and
expm1(2 i P' L) = expm1(-2 kappa L) is real.  The numerator and the
denominator D are assembled from these, and R is one complex division,
which NumPy scales by the larger part of D.  Dividing by |D|^2 instead
would fail at tiny energies: near E = 4e-179 without a barrier, D ~ 4 P^2 ~
3e-178, so |D|^2 underflows to 0 and R would be 0 / 0 rather than 1.
``transmission_amplitude`` forms its phase exp(-i (P - P') L) with NumPy's
complex exp.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch
from .evolution import TOADistribution, barrier_amplitude, toa_density
from .numerics import EnergyGrid, TimeGrid, trapezoid_complex, unit_phase
from .packet import GaussianPacketSpec, SpectralAmplitude, default_energy_grid

__all__ = ["transmission_amplitude", "transmitted_amplitude", "transmitted_kijowski",
           "model_distance"]


def _multiple_reflections(P, kappa, split: int, length: float) -> np.ndarray:
    """R = 4 P P' / [4 P P' - expm1(2 i P' L) (P - P')^2], and its limit
    4 P / (4 P - 2 i L P^2) where P' = 0 exactly.

    P ascends; P' = i kappa before index ``split`` (E < V0) and P' = kappa
    from it on.  Im P' >= 0 keeps |exp(2 i P' L)| <= 1, so nothing
    overflows, and R stays of order one however opaque the barrier: the
    decay exp(-|P'| L) is left to the factor it multiplies.
    """
    num = np.empty(P.shape, dtype=complex)
    den = np.empty(P.shape, dtype=complex)
    # above: P' = kappa and expm1(2 i P' L) = -2 s^2 + 2 i s c,
    # with c + i s = exp(i P' L) formed in num until num is needed
    a = slice(split, None)
    unit_phase(np.multiply(kappa[a], length, out=den.real[a]), out=num[a])
    pk = np.multiply(P, kappa)
    d = np.subtract(P, kappa)
    c, s, t = num.real[a], num.imag[a], d[a]  # views, filled in place
    t *= t
    t *= s
    t *= -2.0  # -2 s (P - P')^2
    np.multiply(c, t, out=den.imag[a])
    np.multiply(s, t, out=den.real[a])
    np.multiply(pk[a], 4.0, out=c)
    num.imag[a] = 0.0
    np.subtract(c, den.real[a], out=den.real[a])
    # below: P' = i kappa and expm1(2 i P' L) = expm1(-2 kappa L) = e, in
    # (-1, 0], formed in num until num is needed
    b = slice(None, split)
    e = num.real[b]
    np.multiply(kappa[b], -2.0 * length, out=e)
    np.expm1(e, out=e)
    re = den.real[b]
    np.add(P[b], kappa[b], out=re)
    re *= d[b]
    re *= e
    np.negative(re, out=re)  # -e (P^2 - kappa^2)
    im = den.imag[b]
    np.add(e, 2.0, out=im)
    im *= pk[b]
    im *= 2.0  # 2 P kappa (2 + e)
    num.real[b] = 0.0
    np.multiply(pk[b], 4.0, out=num.imag[b])
    turn = kappa == 0
    if turn.any():
        p = P[turn]
        num[turn] = 4.0 * p
        den[turn] = 4.0 * p - 2j * length * p**2
    num /= den
    return num


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
    order = np.argsort(P, axis=None)
    p = P.reshape(-1)[order]
    q = p**2 - 2.0 * m * v0  # P'^2, ascending
    split = int(np.searchsorted(q, 0.0))
    kappa = np.sqrt(np.abs(q))
    Pp = kappa.astype(complex)
    Pp[:split] *= 1j
    T = _multiple_reflections(p, kappa, split, length) * np.exp(-1j * (p - Pp) * length)
    out = np.empty_like(T)
    out[order] = T
    return complex(out[0]) if P.ndim == 0 else out.reshape(P.shape)


def transmitted_amplitude(sts: SpectralAmplitude, v0: float,
                          length: float) -> SpectralAmplitude:
    """Transmitted-Kijowski amplitude at the detector, a0(E) T(P) exp(i P x).

    ``sts`` must be the closed-form ``barrier_amplitude`` of the same packet
    and barrier (v0 on (0, length)) at its anchor x > length; the result is
    it times R(E).
    """
    E = sts.egrid.samples
    kappa = np.subtract(E, v0)
    np.abs(kappa, out=kappa)
    kappa *= 2.0 * sts.m
    np.sqrt(kappa, out=kappa)
    P = np.multiply(E, 2.0 * sts.m)
    np.sqrt(P, out=P)
    R = _multiple_reflections(P, kappa, int(np.searchsorted(E, v0)), length)
    R *= sts.values
    return SpectralAmplitude(R, anchor_x=sts.anchor_x, egrid=sts.egrid, m=sts.m)


def transmitted_kijowski(spec: GaussianPacketSpec, v0: float, length: float,
                         x: float, tgrid: TimeGrid,
                         egrid: EnergyGrid | None = None,
                         method: str = "fft") -> TOADistribution:
    """Kijowski arrival-time density of the transmitted packet at x > L.

    Sampled on ``egrid`` (momenta P = sqrt(2mE)), by default the Kijowski
    models' grid for the window ``tgrid`` (``default_energy_grid(spec,
    tgrid)``); the density lies on ``tgrid`` as the space-conditional one
    does, so model distances carry no interpolation error.  The reported
    arrival probability is the transmission probability
    integral |T(P) psi_momentum(P)|^2 dP.
    """
    egrid = egrid if egrid is not None else default_energy_grid(spec, tgrid)
    sts = barrier_amplitude(spec, v0, length, x, egrid)
    return toa_density(transmitted_amplitude(sts, v0, length), tgrid, method=method)


def model_distance(a: TOADistribution, b: TOADistribution) -> float:
    """L1 distance integral |rho_a - rho_b| dt; in [0, 2] for unit densities."""
    if a.tgrid.n != b.tgrid.n or not np.array_equal(a.tgrid.samples, b.tgrid.samples):
        raise GridMismatch("distributions are sampled on different time grids")
    diff = np.abs(a.density - b.density)
    return float(trapezoid_complex(diff, a.tgrid.spacing).real)
