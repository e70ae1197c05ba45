"""Initial Gaussian packet and its mapping to the energy-domain amplitude.

The space-conditional state at the reference point x0 = 0 is seeded from the
ordinary momentum wave function under the working hypothesis that the
arrival-momentum amplitude equals the ordinary momentum amplitude
("match-standard-qm").  The alternative (unequal amplitudes) is not
implemented: no operational procedure to obtain it independently is known.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .numerics import (BranchTerms, EnergyGrid, TimeGrid, branch_terms, trapezoid_complex,
                       unit_phase)

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

    def has_positive_momenta(self) -> bool:
        """Essentially all momenta positive, p_i - 5 sigma_p > 0, as the
        energy-domain amplitude assumes: it drops the momenta P <= 0, and its
        weight (m/2E)^(1/4) diverges at P = 0."""
        return self.p_i - 5.0 * self.sigma_p > 0.0

    def in_scattering_regime(self) -> bool:
        """Packet well to the left of the origin with essentially positive momenta."""
        return self.x_i + 5.0 * self.delta <= 0.0 and self.has_positive_momenta()


@dataclass(frozen=True)
class SpectralAmplitude:
    """Complex amplitude per energy-grid sample of the forward-moving state.

    ``anchor_x`` is the detector position at which the amplitudes are defined.
    ``m`` rides along so downstream translations need no extra context.  A
    reflected (backward-moving) component is identically zero in the
    transmitted-particle workflows and is not represented.

    ``branch_points`` lists (level V, summed width W) for each factor
    exp(i W sqrt(2m[E - V])) the amplitude carries with e_min <= V <= e_max.
    Each is a square-root branch point of a(E), where the energy sums
    converge only as dE^(3/2); their generalised Euler-Maclaurin terms
    (``numerics.branch_terms``) are formed on first use and subtracted from
    the arrival probability and from the time amplitude
    (``branch_corrected``).
    """

    values: np.ndarray
    anchor_x: float
    egrid: EnergyGrid
    m: float = 1.0
    branch_points: tuple[tuple[float, float], ...] = ()
    _terms: tuple[BranchTerms, ...] | None = field(default=None, init=False, repr=False,
                                                   compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.egrid.n,):
            raise ValueError("values must match the energy grid length")
        if not np.all(np.isfinite(values)):
            raise ValueError("amplitude values must be finite")
        object.__setattr__(self, "values", values)
        points = tuple((float(v), float(w)) for v, w in self.branch_points)
        object.__setattr__(self, "branch_points", points)

    def _branch_terms(self) -> tuple[BranchTerms, ...]:
        if self._terms is None:
            terms = (branch_terms(self.values, self.egrid, self.m, v, w)
                     for v, w in self.branch_points)
            object.__setattr__(self, "_terms", tuple(t for t in terms if t is not None))
        return self._terms

    def arrival_probability(self) -> float:
        """Probability that the particle ever arrives at ``anchor_x``: the
        energy integral of |a(E)|^2 on the grid, with no time transform (the
        trapezoid sum less the branch-point terms)."""
        total = trapezoid_complex(np.abs(self.values) ** 2, self.egrid.spacing).real
        return float(total - sum(t.norm for t in self._branch_terms()))

    def branch_corrected(self, series: np.ndarray, tgrid: TimeGrid) -> np.ndarray:
        """The time amplitude on ``tgrid`` from ``series``, the energy->time sum
        of ``values`` there (``numerics.fourier_E_to_t``): ``series`` less the
        sum's excess at each branch point, or ``series`` itself without one."""
        for terms in self._branch_terms():
            series = series - terms.series(tgrid)
        return series


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
    grid) pair is kept, so the models and heights of a sweep share one array."""
    E = egrid.samples
    P = np.sqrt(2.0 * spec.m * E)
    values = (spec.m / (2.0 * E)) ** 0.25 * psi_momentum(spec, P)
    values.flags.writeable = False
    return values


E_FLOOR = 1e-9  # lowest admissible grid energy; (m/2E)^(1/4) blows up at 0

# the default energy count, and the smaller one of a known time window while
# its kernel phase step across that window stays within pi / 8
_DEFAULT_N, _WINDOW_N, _WINDOW_PHASE_STEP = 2**14, 2**12, np.pi / 8


def default_energy_grid(spec: GaussianPacketSpec, window: TimeGrid | None = None) -> EnergyGrid:
    """Energies covering p_i +/- 10 momentum widths, mapped to E = P^2/2m.

    2**14 of them, unless ``window``, the time window of the run, is given.
    The energy->time sum of ``numerics``, with its end weights and its terms
    at each branch point, resolves every model on 2**12 energies as long as
    their phase step dE (t_max - t_min) is at most pi / 8, and a wider window
    keeps 2**14.
    """
    p_lo = spec.p_i - 10.0 * spec.sigma_p
    p_hi = spec.p_i + 10.0 * spec.sigma_p
    e_lo = max(E_FLOOR, p_lo**2 / (2.0 * spec.m)) if p_lo > 0 else E_FLOOR
    e_hi = p_hi**2 / (2.0 * spec.m)
    if window is not None:
        grid = EnergyGrid(e_lo, e_hi, _WINDOW_N)
        if grid.spacing * (window.t_max - window.t_min) <= _WINDOW_PHASE_STEP:
            return grid
    return EnergyGrid(e_lo, e_hi, _DEFAULT_N)
