"""Grids, the complex square-root branch policy, and the energy->time transform.

The oscillatory transform

    f(t) = (2*pi)**-0.5 * integral dE a(E) exp(-i E t)        (hbar = 1)

is evaluated on uniform grids either by direct (chunked) trapezoid
quadrature or by Bluestein's chirp-z algorithm on ``numpy.fft``.  Both paths
apply identical trapezoid end weights, so they approximate the same Riemann
sum and agree to rounding error; the direct path is kept permanently as a
validation oracle.  The chirp-z path keeps one plan per (energy grid, time
grid) pair: the chirp, the kernel's FFT and the pre/post phase factors are
built once, on an FFT length of the form 2**a, 3 * 2**a or 5 * 2**a, and
every transform on that grid pair costs two FFTs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse

__all__ = [
    "EnergyGrid",
    "TimeGrid",
    "complex_sqrt_2m",
    "trapezoid_complex",
    "fourier_E_to_t",
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


def _sample_uniformly(grid, lo_name: str, hi_name: str):
    """Set the frozen ``grid``'s n ``samples`` from field lo_name to field hi_name
    and their ``spacing``; ValueError unless hi > lo, n >= 2 and all are finite."""
    lo, hi, n = getattr(grid, lo_name), getattr(grid, hi_name), grid.n
    if not hi > lo:
        raise ValueError(f"{hi_name} must exceed {lo_name}")
    if n < 2:
        raise ValueError("need at least 2 samples")
    with np.errstate(all="ignore"):  # an overflow is reported below, not warned about
        samples = np.linspace(lo, hi, n)
        spacing = (hi - lo) / (n - 1)
    if not (np.isfinite(spacing) and np.all(np.isfinite(samples))):
        raise ValueError(f"the spacing or a sample of [{lo_name}, {hi_name}] "
                         "overflows a double")
    object.__setattr__(grid, "samples", samples)
    object.__setattr__(grid, "spacing", spacing)


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform ascending energy grid; never contains E = 0."""

    e_min: float
    e_max: float
    n: int
    samples: np.ndarray = field(init=False, repr=False, compare=False)
    spacing: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.e_min > 0.0:
            raise ValueError(f"e_min must be > 0, got {self.e_min}")
        _sample_uniformly(self, "e_min", "e_max")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform ascending time grid."""

    t_min: float
    t_max: float
    n: int
    samples: np.ndarray = field(init=False, repr=False, compare=False)
    spacing: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _sample_uniformly(self, "t_min", "t_max")


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


def _check_nyquist(egrid: EnergyGrid, tgrid: TimeGrid):
    phase_step = egrid.spacing * (tgrid.t_max - tgrid.t_min)
    if phase_step > np.pi:
        raise GridTooCoarse(
            f"energy spacing {egrid.spacing:g} advances the kernel phase by "
            f"{phase_step:g} rad (> pi) across the time window; refine the grid"
        )


def _fft_size(length: int) -> int:
    """Smallest of 2**a, 3 * 2**a and 5 * 2**a that is >= ``length``."""
    return min(b << (-(-length // b) - 1).bit_length() for b in (1, 3, 5))


@functools.lru_cache(maxsize=1)
def _plan(egrid: EnergyGrid, tgrid: TimeGrid):
    """Bluestein chirp-z plan of the energy->time sum on one grid pair.

    With theta = -dE dt and phi = -dE t_min, jk = (j^2 + k^2 - (k - j)^2) / 2
    turns sum_j a_j exp(i (phi + k theta) j) into a convolution with the chirp
    exp(i theta j^2 / 2).  Returns ``(size, pre, kernel_fft, post)``: the FFT
    length, the per-energy factor (trapezoid weight, phi phase, chirp), the
    FFT of the conjugate-chirp kernel, and the per-time factor (chirp, the
    e_min phase, dE / sqrt(2 pi)).  The chirp's phase is computed from theta:
    a power of exp(i theta) would amplify that factor's rounding error by j^2.
    One plan is kept, so a sweep on one grid pair builds it once.
    """
    # sum_j a_j exp(-i (E_j - e_min) t_k); the e_min phase goes into post
    n, m = egrid.n, tgrid.n
    theta = -egrid.spacing * tgrid.spacing
    phi = -egrid.spacing * tgrid.t_min
    size = _fft_size(n + m - 1)
    j = np.arange(max(n, m), dtype=float)
    chirp = np.exp(0.5j * theta * j**2)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
    pre = _trapezoid_weights(n) * np.exp(1j * phi * j[:n]) * chirp[:n]
    post = (chirp[:m] * np.exp(-1j * egrid.e_min * tgrid.samples)
            * (egrid.spacing / np.sqrt(2.0 * np.pi)))
    kernel_fft = np.fft.fft(kernel)
    for arr in (pre, kernel_fft, post):
        arr.flags.writeable = False
    return size, pre, kernel_fft, post


def fourier_E_to_t(amps, egrid: EnergyGrid, tgrid: TimeGrid,
                   method: str = "fft") -> np.ndarray:
    """Transform an energy-sampled amplitude to the time domain.

    Approximates (2*pi)**-0.5 * integral dE a(E) exp(-i E t) at
    every time-grid point, by trapezoid quadrature on the energy grid.

    method="fft" evaluates the quadrature sum with a chirp-z transform
    (FFT-based, exact same sum) padded to the smallest 2**a, 3 * 2**a or
    5 * 2**a >= n_E + n_t - 1; its plan is built once per grid pair and
    reused while consecutive calls share the pair.  method="direct"
    accumulates the sum explicitly.
    """
    values = np.asarray(amps, dtype=complex)
    if values.shape != (egrid.n,):
        raise ValueError(f"amplitude shape {values.shape} does not match grid ({egrid.n},)")
    _check_nyquist(egrid, tgrid)

    if method == "direct":
        weighted = values * _trapezoid_weights(egrid.n)
        t = tgrid.samples
        out = np.empty(tgrid.n, dtype=complex)
        # chunked kernel rows keep the working set small on large grids
        step = max(1, 2**22 // egrid.n)
        for i in range(0, tgrid.n, step):
            kern = np.exp(-1j * np.outer(t[i:i + step], egrid.samples))
            out[i:i + step] = kern @ weighted
        return out * (egrid.spacing / np.sqrt(2.0 * np.pi))
    if method == "fft":
        size, pre, kernel_fft, post = _plan(egrid, tgrid)
        y = np.fft.ifft(np.fft.fft(values * pre, size) * kernel_fft)
        return y[:tgrid.n] * post
    raise ValueError(f"unknown method {method!r}")
