"""Space-conditional solver: spatial translation of the energy-domain
amplitude, arrival-time density assembly, and the free-particle reference
distribution.

Spatial translation from x0 to x is a product over the potential levels of
``PiecewisePotential.levels``: U(x, x0) multiplies each energy component by
one factor exp(i W_v k_v) per level V_v, with k_v = sqrt(2m[E - V_v]) and W_v
the signed path width at that level.  ``propagate`` cuts the path at segment
edges (the closed form) or into equal slices with V taken at each slice
midpoint, so it costs one factor per distinct level whatever the slice count.
The zero-level factor is the free flight; behind a square barrier it is the
same at every height, so the heights of a sweep share one (read-only, cached)
array.

Every factor is formed in real arithmetic.  The ascending energy grid splits
at each level: E >= V_v from index searchsorted(E, V_v) on, E < V_v before
it.  With kappa_v = sqrt(2m|E - V_v|) a real square root, k_v = kappa_v above
the split, where the factor is the unit phase exp(i W_v kappa_v) that
``numerics.unit_phase`` forms from tan(W_v kappa_v / 2), and k_v = i kappa_v
below it, where the factor is the decay exp(-W_v kappa_v).  The growth
exponents -W_v kappa_v below the splits are summed and checked before any
exponential is formed.  The free packet's amplitude at the detector is the
zero-potential translation to x, the same ``propagate`` call as a V0 = 0
height's, so both share the cached free flight.

A level inside the energy window is a square-root branch point of the
amplitude, so ``propagate`` records it with its summed width in the result's
``branch_points``, and the amplitude's energy sums are corrected there
(``SpectralAmplitude``).

The translation generates no reflected (backward-moving) component at segment
interfaces: forbidden segments only attenuate the forward amplitude.  Whether
a reflected branch should be sourced at interfaces is an open question of the
underlying model; the code implements the translation exactly as written.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceWarning, ZeroArrival
from .numerics import EnergyGrid, TimeGrid, fourier_E_to_t, trapezoid_complex, unit_phase
from .packet import (GaussianPacketSpec, SpectralAmplitude, default_energy_grid,
                     sc_initial_amplitude)
from .potential import PiecewisePotential

__all__ = ["TOADistribution", "propagate", "toa_density", "free_kijowski",
           "check_scattering_setup", "barrier_amplitude", "barrier_toa"]

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
        if not (d.min() >= 0.0 and d.max() < np.inf):  # NaN fails both
            raise ValueError("density must be finite and nonnegative")
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

    @classmethod
    def from_transform(cls, amps: SpectralAmplitude, series: np.ndarray,
                       tgrid: TimeGrid) -> "TOADistribution":
        """The density of ``amps``'s time amplitude on ``tgrid``, scaled to
        unit integral, with ``amps``'s arrival probability; ``series`` is the
        energy->time sum of ``amps.values`` on ``tgrid``, and the amplitude is
        that sum corrected at ``amps``'s branch points
        (``SpectralAmplitude.branch_corrected``).  ZeroArrival if the arrival
        probability or the density's mass inside the window is below 1e-300,
        DivergenceWarning if either is not finite."""
        arrival = amps.arrival_probability()
        density = np.abs(amps.branch_corrected(series, tgrid)) ** 2
        norm = float(trapezoid_complex(density, tgrid.spacing).real)
        if not (np.isfinite(arrival) and np.isfinite(norm)):
            raise DivergenceWarning(f"arrival probability {arrival:g} and density mass "
                                    f"{norm:g} at x = {amps.anchor_x}: not finite")
        if arrival < _ARRIVAL_FLOOR:
            raise ZeroArrival(f"arrival probability {arrival:g} at x = {amps.anchor_x}")
        if norm < _ARRIVAL_FLOOR:
            raise ZeroArrival(f"no density mass inside the time window at x = {amps.anchor_x}")
        return cls(tgrid, density / norm, arrival_probability=arrival)


def _check_growth(exponents):
    worst = float(np.max(exponents, initial=0.0))
    if worst > _OVERFLOW_EXPONENT:
        raise DivergenceWarning(
            f"evanescent growth exponent {worst:.3g} exceeds {_OVERFLOW_EXPONENT:g}; "
            "translating backward through a forbidden region this thick is "
            "non-physical (amplitude diverges)")


def _level_factors(E: np.ndarray, m: float, levels, widths) -> list[np.ndarray]:
    """One factor exp(i W_v k_v) per level V_v, k_v = sqrt(2m[E - V_v]), on
    the ascending grid E, in real arithmetic; DivergenceWarning if the summed
    growth exponent sum_v -W_v Im k_v overflows, before any exponential."""
    exponents = []
    growth = np.zeros(E.shape)
    for v, w in zip(levels, widths):
        split = int(np.searchsorted(E, v))  # E[:split] < v <= E[split:]
        wk = np.subtract(E, v)
        np.abs(wk, out=wk)
        wk *= 2.0 * m
        np.sqrt(wk, out=wk)
        wk *= w  # W kappa, kappa = |k| = sqrt(2m |E - V|)
        growth[:split] -= wk[:split]
        exponents.append((split, wk))
    _check_growth(growth)
    factors = []
    for split, wk in exponents:
        factor = np.empty(E.shape, dtype=complex)
        unit_phase(wk[split:], out=factor[split:])  # k = kappa: a phase
        np.exp(np.negative(wk[:split], out=wk[:split]), out=factor.real[:split])  # k = i kappa
        factor.imag[:split] = 0.0
        factors.append(factor)
    return factors


@functools.lru_cache(maxsize=1)
def _free_flight(egrid: EnergyGrid, m: float, width: float) -> np.ndarray:
    """Read-only level-zero factor exp(i W sqrt(2 m E)) of a free flight over
    the signed width W; one (grid, mass, width) is kept, so a sweep's heights
    share one."""
    (factor,) = _level_factors(egrid.samples, m, [0.0], [width])
    factor.flags.writeable = False
    return factor


def propagate(amps: SpectralAmplitude, pot: PiecewisePotential, x: float,
              n_slices: int | None = None) -> SpectralAmplitude:
    """amps moved to x by one factor exp(i W_v k_v) per level V_v on the path.

    The path is cut as ``pot.levels`` cuts it: at the segment edges it crosses
    (the exact closed form) when n_slices is None, else into n_slices equal
    slices with V read at each slice midpoint, first-order accurate in the
    slice width.  The factors depend on the cut only through the (levels,
    widths) table that ``pot.levels`` returns, so two cuts with equal tables
    give bit-identical amplitudes; the cost does not depend on the slice count.
    The levels inside the energy window join ``amps.branch_points``, their
    widths added to those already recorded there.
    """
    egrid = amps.egrid
    levels, widths = pot.levels(amps.anchor_x, x, n_slices)
    free = levels == 0.0  # the cached free flight
    factors = _level_factors(egrid.samples, amps.m, levels[~free], widths[~free])
    if free.any():
        factors.insert(0, _free_flight(egrid, amps.m, float(widths[free][0])))
    values = amps.values.copy()
    for factor in factors:
        values *= factor
    points = dict(amps.branch_points)
    for v, w in zip(levels.tolist(), widths.tolist()):
        if egrid.e_min <= v <= egrid.e_max:
            points[v] = points.get(v, 0.0) + w
    return SpectralAmplitude(values, anchor_x=x, egrid=egrid, m=amps.m,
                             branch_points=tuple((v, w) for v, w in sorted(points.items())
                                                 if w != 0.0))


def toa_density(amps: SpectralAmplitude, tgrid: TimeGrid,
                method: str = "fft") -> TOADistribution:
    """Assemble the arrival-time density at the amplitude's anchor position.

    density(t) = |F[amp](t)|^2, with F the energy->time transform, scaled to
    unit integral on its grid (the representable part of the arrival-time
    support).  The unscaled arrival probability is
    ``amps.arrival_probability()``.
    """
    series = fourier_E_to_t(amps.values, amps.egrid, tgrid, method=method)
    return TOADistribution.from_transform(amps, series, tgrid)


def free_kijowski(spec: GaussianPacketSpec, x: float, tgrid: TimeGrid,
                  egrid: EnergyGrid | None = None,
                  method: str = "fft") -> TOADistribution:
    """Arrival-time density of the free positive-momentum packet at x.

    The momentum wave function weighted by sqrt(P) (in the energy variable,
    (m/2E)^(1/4) psi_momentum) carried to x by the zero-potential translation
    (``propagate`` through ``PiecewisePotential.free()``, the detector phase
    exp(i P x)) and transformed to the time domain.  Without ``egrid`` it
    runs on the default grid of the window ``tgrid``
    (``default_energy_grid(spec, tgrid)``).  Raises
    ConfigError unless the packet's momenta are essentially positive
    (``GaussianPacketSpec.has_positive_momenta``).
    """
    if not spec.has_positive_momenta():
        raise ConfigError("packet", "the free Kijowski model needs p_i - 5 sigma_p > 0")
    egrid = egrid if egrid is not None else default_energy_grid(spec, tgrid)
    amps = propagate(sc_initial_amplitude(spec, egrid), PiecewisePotential.free(), x)
    return toa_density(amps, tgrid, method=method)


def check_scattering_setup(spec: GaussianPacketSpec, length: float, x: float):
    """Raise ConfigError unless x > length and the packet is in the scattering regime."""
    if not x > length:
        raise ConfigError("detector_x", "transmitted-packet models need x > barrier length")
    if not spec.in_scattering_regime():
        raise ConfigError("packet", "transmitted-packet models need x_i + 5 delta <= 0 "
                                    "and p_i - 5 sigma_p > 0")


def barrier_amplitude(spec: GaussianPacketSpec, v0: float, length: float, x: float,
                      egrid: EnergyGrid, n_slices: int | None = None) -> SpectralAmplitude:
    """Space-conditional amplitude on ``egrid`` at the detector x > length
    behind a square barrier: the initial amplitude at x0 = 0 translated across
    the barrier (closed form, or n_slices equal slices when given)."""
    check_scattering_setup(spec, length, x)
    pot = PiecewisePotential.square_barrier(v0, length)
    return propagate(sc_initial_amplitude(spec, egrid), pot, x, n_slices)


def barrier_toa(spec: GaussianPacketSpec, v0: float, length: float, x: float,
                tgrid: TimeGrid, egrid: EnergyGrid | None = None,
                method: str = "fft") -> TOADistribution:
    """Space-conditional arrival-time density behind a square barrier: the
    density of ``barrier_amplitude`` at the detector x > length, by default
    on the grid ``default_energy_grid(spec, tgrid)`` of the window ``tgrid``."""
    egrid = egrid if egrid is not None else default_energy_grid(spec, tgrid)
    amps = barrier_amplitude(spec, v0, length, x, egrid)
    return toa_density(amps, tgrid, method=method)
