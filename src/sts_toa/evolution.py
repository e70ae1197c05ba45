"""Space-conditional solver: spatial translation of the energy-domain
amplitude, arrival-time density assembly, and the free-particle reference
distribution.

Spatial translation multiplies each energy component by exp(+/- i theta(E))
with theta the complex phase integral, one sum over potential levels
(``phase_theta``) for both variants.  The closed form cuts the path at
segment edges; the slice-based variant cuts it into equal slices and takes V
at each slice midpoint, so theta costs one square root per distinct level
whatever the slice count.  When the slices align with segment edges both
variants sum the same widths and agree bit for bit.

The translation generates no reflected (backward-moving) component at segment
interfaces: forbidden segments only attenuate the forward amplitude.  Whether
a reflected branch should be sourced at interfaces is an open question of the
underlying model; the code implements the translation exactly as written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceWarning, ZeroArrival
from .numerics import EnergyGrid, TimeGrid, fourier_E_to_t, trapezoid_complex
from .packet import (GaussianPacketSpec, SpectralAmplitude, default_energy_grid,
                     sc_initial_amplitude)
from .potential import PiecewisePotential, phase_theta

__all__ = ["TOADistribution", "propagate_closed_form", "propagate_slices",
           "toa_density", "free_kijowski", "check_scattering_setup", "barrier_toa"]

# |exp(x)| overflows past ~709; flag growth exponents beyond this
_OVERFLOW_EXPONENT = 700.0

# arrival probabilities below this are indistinguishable from "never arrives"
_ARRIVAL_FLOOR = 1e-300


@dataclass(frozen=True)
class TOADistribution:
    """Arrival-time density on a time grid.

    ``arrival_probability`` is the unscaled norm of the state at the detector
    (the probability the particle ever arrives there); it is always reported
    as computed so the non-unitarity of forbidden-region translation stays
    observable.  ``density`` integrates to 1 on its grid.
    """

    tgrid: TimeGrid
    density: np.ndarray
    arrival_probability: float

    def __post_init__(self):
        d = np.asarray(self.density, dtype=float)
        if d.shape != (self.tgrid.n,):
            raise ValueError("density must match the time grid length")
        if d.min() < 0.0:
            raise ValueError("density must be nonnegative")
        object.__setattr__(self, "density", d)

    def integral(self) -> float:
        return float(trapezoid_complex(self.density, self.tgrid.spacing).real)

    def mean_time(self) -> float:
        """Window-limited mean arrival time, integral t rho(t) dt / integral rho dt.

        The underlying model defines no mean; this one is tied to the
        configured time window and is reported together with it.
        """
        t = self.tgrid.samples
        num = trapezoid_complex(t * self.density, self.tgrid.spacing).real
        den = self.integral()
        return float(num / den)

    def peak_time(self) -> float:
        return float(self.tgrid.samples[int(np.argmax(self.density))])


def _check_growth(exponents: np.ndarray):
    worst = float(np.max(exponents, initial=0.0))
    if worst > _OVERFLOW_EXPONENT:
        raise DivergenceWarning(
            f"evanescent growth exponent {worst:.3g} exceeds {_OVERFLOW_EXPONENT:g}; "
            "translating backward through a forbidden region this thick is "
            "non-physical (amplitude diverges)")


def _apply_multiplier(amps: SpectralAmplitude, theta, x: float) -> SpectralAmplitude:
    exponent = 1j * np.asarray(theta)
    _check_growth(exponent.real)
    return SpectralAmplitude(amps.values * np.exp(exponent),
                             anchor_x=x, egrid=amps.egrid, m=amps.m)


def propagate_closed_form(amps: SpectralAmplitude, pot: PiecewisePotential,
                          x: float) -> SpectralAmplitude:
    """Translate the amplitude from its anchor to x in one exact step."""
    theta = phase_theta(pot, amps.egrid.samples, amps.m, amps.anchor_x, x)
    return _apply_multiplier(amps, theta, x)


def propagate_slices(amps: SpectralAmplitude, pot: PiecewisePotential,
                     x: float, n_slices: int) -> SpectralAmplitude:
    """Translate across n_slices equal slices, sampling V at slice midpoints.

    theta is ``phase_theta`` over the slices' widths summed per potential
    level, so the cost does not depend on the slice count.  First-order
    accurate in the slice width for misaligned slices; bit-for-bit equal to
    the closed form when every slice lies inside one segment.
    """
    theta = phase_theta(pot, amps.egrid.samples, amps.m, amps.anchor_x, x, n_slices)
    return _apply_multiplier(amps, theta, x)


def toa_density(amps: SpectralAmplitude, tgrid: TimeGrid,
                method: str = "fft") -> TOADistribution:
    """Assemble the arrival-time density at the amplitude's anchor position.

    density(t) = |F[amp](t)|^2, with F the energy->time transform, scaled to
    unit integral on its grid (the representable part of the arrival-time
    support).  The unscaled arrival probability is the energy integral of
    the squared amplitude.
    """
    egrid = amps.egrid
    arrival = float(trapezoid_complex(np.abs(amps.values) ** 2, egrid.spacing).real)
    if arrival < _ARRIVAL_FLOOR:
        raise ZeroArrival(f"arrival probability {arrival:g} at x = {amps.anchor_x}")

    series = fourier_E_to_t(amps.values, egrid, tgrid, method=method)
    density = np.abs(series) ** 2
    norm = float(trapezoid_complex(density, tgrid.spacing).real)
    if norm < _ARRIVAL_FLOOR:
        raise ZeroArrival(f"no density mass inside the time window at x = {amps.anchor_x}")
    return TOADistribution(tgrid, density / norm, arrival_probability=arrival)


def free_kijowski(spec: GaussianPacketSpec, x: float, tgrid: TimeGrid,
                  egrid: EnergyGrid | None = None,
                  method: str = "fft") -> TOADistribution:
    """Arrival-time density of the free positive-momentum packet at x.

    Built directly from the momentum wave function weighted by sqrt(P) (in the
    energy variable, (m/2E)^(1/4) psi_momentum), phase-shifted to the detector
    and transformed to the time domain.  Coincides with the zero-potential
    translation pipeline; the two paths are kept separate as a cross-check.
    """
    egrid = egrid if egrid is not None else default_energy_grid(spec)
    amps0 = sc_initial_amplitude(spec, egrid)
    P = np.sqrt(2.0 * spec.m * egrid.samples)
    values = amps0.values * np.exp(1j * P * x)
    amps = SpectralAmplitude(values, anchor_x=x, egrid=egrid, m=spec.m)
    return toa_density(amps, tgrid, method=method)


def check_scattering_setup(spec: GaussianPacketSpec, length: float, x: float):
    """Raise ValueError unless the packet scatters off [0, length] and x > length."""
    if not x > length:
        raise ValueError("detector must sit beyond the barrier (x > length)")
    if not spec.in_scattering_regime():
        raise ValueError("packet must start left of the origin with positive momenta")


def barrier_toa(spec: GaussianPacketSpec, v0: float, length: float, x: float,
                tgrid: TimeGrid, egrid: EnergyGrid | None = None,
                method: str = "fft",
                n_slices: int | None = None) -> TOADistribution:
    """Space-conditional arrival-time density behind a square barrier.

    Full pipeline: initial energy amplitude at x0 = 0, translation across the
    barrier (closed form, or n_slices aligned slices when given), density at
    the detector x > length.
    """
    check_scattering_setup(spec, length, x)
    egrid = egrid if egrid is not None else default_energy_grid(spec)
    pot = PiecewisePotential.square_barrier(v0, length)
    amps = sc_initial_amplitude(spec, egrid)
    if n_slices is None:
        amps = propagate_closed_form(amps, pot, x)
    else:
        amps = propagate_slices(amps, pot, x, n_slices)
    return toa_density(amps, tgrid, method=method)
