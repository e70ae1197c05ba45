"""Grids, the complex square-root branch policy, and energy<->time transforms.

The oscillatory transform

    f(t) = (2*pi*hbar)**-0.5 * integral dE a(E) exp(-i E t / hbar)

is evaluated on uniform grids either by direct (chunked) trapezoid
quadrature or by a chirp-z transform.  Both paths apply identical trapezoid
end weights, so they approximate the same Riemann sum and agree to rounding
error; the direct path is kept permanently as a validation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import czt

from .errors import GridTooCoarse

__all__ = [
    "EnergyGrid",
    "TimeGrid",
    "complex_sqrt_2m",
    "trapezoid_complex",
    "fourier_E_to_t",
    "fourier_t_to_E",
]


def complex_sqrt_2m(E, V, m):
    """sqrt(2 m (E - V)) on the upper-half-plane branch.

    Purely real (nonnegative) for E >= V, purely imaginary with positive
    imaginary part (never -i) for E < V, so forward translation through
    classically forbidden regions attenuates rather than grows.  Accepts
    scalars or arrays (broadcast).
    """
    arg = np.asarray(2.0 * m * (np.asarray(E, dtype=float) - np.asarray(V, dtype=float)))
    # casting the real argument to complex gives +0j imaginary part, which
    # numpy's sqrt continues onto the positive imaginary axis
    out = np.sqrt(arg.astype(complex))
    if out.ndim == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform ascending energy grid; never contains E = 0."""

    e_min: float
    e_max: float
    n: int
    samples: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.e_min > 0.0:
            raise ValueError(f"e_min must be > 0, got {self.e_min}")
        if not self.e_max > self.e_min:
            raise ValueError("e_max must exceed e_min")
        if self.n < 2:
            raise ValueError("need at least 2 samples")
        object.__setattr__(self, "samples", np.linspace(self.e_min, self.e_max, self.n))

    @property
    def spacing(self) -> float:
        return (self.e_max - self.e_min) / (self.n - 1)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform ascending time grid."""

    t_min: float
    t_max: float
    n: int
    samples: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.t_max > self.t_min:
            raise ValueError("t_max must exceed t_min")
        if self.n < 2:
            raise ValueError("need at least 2 samples")
        object.__setattr__(self, "samples", np.linspace(self.t_min, self.t_max, self.n))

    @property
    def spacing(self) -> float:
        return (self.t_max - self.t_min) / (self.n - 1)


def trapezoid_complex(values, spacing: float) -> complex:
    """Composite trapezoid sum of uniformly spaced (complex) samples."""
    values = np.asarray(values)
    if values.shape[-1] < 2:
        raise ValueError("need at least 2 samples")
    return (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1])) * spacing


def _trapezoid_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def _check_nyquist(egrid: EnergyGrid, tgrid: TimeGrid, hbar: float):
    phase_step = egrid.spacing * (tgrid.t_max - tgrid.t_min) / hbar
    if phase_step > np.pi:
        raise GridTooCoarse(
            f"energy spacing {egrid.spacing:g} advances the kernel phase by "
            f"{phase_step:g} rad (> pi) across the time window; refine the grid"
        )


def fourier_E_to_t(amps, egrid: EnergyGrid, tgrid: TimeGrid, hbar: float = 1.0,
                   method: str = "fft") -> np.ndarray:
    """Transform an energy-sampled amplitude to the time domain.

    Approximates (2*pi*hbar)**-0.5 * integral dE a(E) exp(-i E t / hbar) at
    every time-grid point, by trapezoid quadrature on the energy grid.

    method="fft" evaluates the quadrature sum with a chirp-z transform
    (FFT-based, exact same sum); method="direct" accumulates it explicitly.
    """
    values = getattr(amps, "values", amps)
    values = np.asarray(values, dtype=complex)
    if values.shape != (egrid.n,):
        raise ValueError(f"amplitude shape {values.shape} does not match grid ({egrid.n},)")
    _check_nyquist(egrid, tgrid, hbar)

    weighted = values * _trapezoid_weights(egrid.n)
    norm = egrid.spacing / np.sqrt(2.0 * np.pi * hbar)
    t = tgrid.samples
    if method == "direct":
        out = np.empty(tgrid.n, dtype=complex)
        # chunked kernel rows keep the working set small on large grids
        step = max(1, 2**22 // egrid.n)
        for i in range(0, tgrid.n, step):
            kern = np.exp(-1j * np.outer(t[i:i + step], egrid.samples) / hbar)
            out[i:i + step] = kern @ weighted
        return out * norm
    if method == "fft":
        # sum_j a_j exp(-i E_j t_k / hbar) as a chirp-z transform:
        #   z_k = A W^-k with A = exp(i dE t0 / hbar), W = exp(-i dE dt / hbar)
        a = np.exp(1j * egrid.spacing * tgrid.t_min / hbar)
        w = np.exp(-1j * egrid.spacing * tgrid.spacing / hbar)
        out = czt(weighted, m=tgrid.n, w=w, a=a)
        out *= np.exp(-1j * egrid.e_min * t / hbar)
        return out * norm
    raise ValueError(f"unknown method {method!r}")


def fourier_t_to_E(series, tgrid: TimeGrid, egrid: EnergyGrid, hbar: float = 1.0,
                   method: str = "fft") -> np.ndarray:
    """Inverse transform: (2*pi*hbar)**-0.5 * integral dt f(t) exp(+i E t / hbar)."""
    values = np.asarray(series, dtype=complex)
    if values.shape != (tgrid.n,):
        raise ValueError(f"series shape {values.shape} does not match grid ({tgrid.n},)")
    _check_nyquist(egrid, tgrid, hbar)

    weighted = values * _trapezoid_weights(tgrid.n)
    norm = tgrid.spacing / np.sqrt(2.0 * np.pi * hbar)
    if method == "direct":
        out = np.empty(egrid.n, dtype=complex)
        step = max(1, 2**22 // tgrid.n)
        for i in range(0, egrid.n, step):
            kern = np.exp(1j * np.outer(egrid.samples[i:i + step], tgrid.samples) / hbar)
            out[i:i + step] = kern @ weighted
        return out * norm
    if method == "fft":
        a = np.exp(-1j * tgrid.spacing * egrid.e_min / hbar)
        w = np.exp(1j * tgrid.spacing * egrid.spacing / hbar)
        out = czt(weighted, m=egrid.n, w=w, a=a)
        out *= np.exp(1j * tgrid.t_min * egrid.samples / hbar)
        return out * norm
    raise ValueError(f"unknown method {method!r}")
