"""Grids, unit phases, and the energy->time transform.

The oscillatory transform

    f(t) = (2*pi)**-0.5 * integral dE a(E) exp(-i E t)        (hbar = 1)

is evaluated on uniform grids either by direct quadrature (kernel rows
formed by recurrence in blocks, no FFT) or by Bluestein's chirp-z algorithm
on ``numpy.fft``.  Both paths apply identical weights, the trapezoid rule's
with Gregory's four-point end corrections, so they approximate the same sum
and agree to rounding error; the direct path is kept permanently as a
validation oracle.  The end corrections remove the trapezoid rule's
endpoint error up to fourth order in dE: an amplitude analytic in E (the
Kijowski models) is then within ~4e-16 of a 2**17-point sum on 2**12
energies, where the plain trapezoid on 2**14 is ~6e-14 off.  The chirp-z
path keeps one plan per (energy grid, time grid) pair: the chirp, the
kernel's FFT and the pre/post phase factors are built once, on an FFT
length of the form 2**a, 3 * 2**a or 5 * 2**a, and every transform on that
grid pair costs two FFTs, run in place in one buffer.

``unit_phase`` forms exp(i phi) for a real phase from t = tan(phi / 2),
cos phi = (1 - t^2) / (1 + t^2) and sin phi = 2 t / (1 + t^2), into the
real and imaginary parts of its output.  It serves every amplitude factor
on the energy grid (the level and free-flight phases, R(E), the initial
packet) and the chirp-z plan, because NumPy evaluates float64 ``tan`` with
SIMD and ``sin``, ``cos`` and complex ``exp`` without: on 16 384 phases on
an AVX-512 x86-64 core (NumPy 2.4), ``tan`` took 1.5 ns per element,
``sin`` and ``cos`` 18 ns each and ``exp(1j * phi)`` 41 ns, and
``unit_phase`` into a preallocated output 5.6 ns against 40 ns for cos and
sin written into one.  The direct quadrature keeps ``np.exp``, so it stays
an independent check of the chirp-z path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse

__all__ = [
    "EnergyGrid",
    "TimeGrid",
    "unit_phase",
    "trapezoid_complex",
    "fourier_E_to_t",
]


def unit_phase(phase, out=None):
    """exp(i phase) for real ``phase``, from t = tan(phase / 2) by the
    half-angle identities cos = (1 - t^2) / (1 + t^2), sin = 2 t / (1 + t^2).

    Written into the complex array ``out`` (the phase's shape; a view such
    as a slice will do, and ``phase`` may be a part of it) when given, else
    into a new array; a 0-d phase without ``out`` gives a Python complex.
    t and 1 + t^2 are its only temporaries, real and contiguous.  No double
    lies within 4.6e-19 of a multiple of pi / 2 (the worst case of
    trigonometric argument reduction), so |t| < 3e18 and nothing overflows
    at any finite phase.
    """
    phase = np.asarray(phase, dtype=float)
    scalar = out is None and phase.ndim == 0
    if out is None:
        out = np.empty(phase.shape, dtype=complex)
    t = np.multiply(phase, 0.5, out=np.empty(phase.shape))
    np.tan(t, out=t)
    u = np.multiply(t, t)
    np.subtract(1.0, u, out=out.real)
    u += 1.0
    out.real /= u  # cos = (1 - t^2) / (1 + t^2)
    t += t
    np.divide(t, u, out=out.imag)  # sin = 2 t / (1 + t^2)
    return complex(out) if scalar else out


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


# Gregory's end weights of the trapezoid rule corrected to fourth order
# (Fornberg, SIAM Review 63, 167 (2021)); interior weights stay 1
_GREGORY_ENDS = np.array([251.0, 897.0, 633.0, 739.0]) / 720.0


def _trapezoid_weights(n: int) -> np.ndarray:
    """Quadrature weights (times dE) of the energy->time sum: the four-point
    Gregory ends for n >= 8, the trapezoid's 1/2 ends below that."""
    w = np.ones(n)
    if n >= 8:
        w[:4] = _GREGORY_ENDS
        w[-4:] = _GREGORY_ENDS[::-1]
    else:
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
def _plans(tgrid: TimeGrid) -> dict:
    """The chirp-z plans on ``tgrid``, by energy grid (``_plan``)."""
    return {}


def _plan(egrid: EnergyGrid, tgrid: TimeGrid):
    """The read-only chirp-z plan of the grid pair, built on first use.

    The latest time grid's plans are kept, for at most two energy grids (a
    sweep's ``sts`` grid and the Kijowski models' grid), so a sweep builds
    each plan once, and a run on a new time grid drops the previous run's
    plans as it builds its own."""
    plans = _plans(tgrid)
    plan = plans.get(egrid)
    if plan is None:
        if len(plans) >= 2:
            plans.clear()
        plan = plans[egrid] = _build_plan(egrid, tgrid)
    return plan


def _build_plan(egrid: EnergyGrid, tgrid: TimeGrid):
    """Bluestein chirp-z plan of the energy->time sum on one grid pair.

    With theta = -dE dt and phi = -dE t_min, jk = (j^2 + k^2 - (k - j)^2) / 2
    turns sum_j a_j exp(i (phi + k theta) j) into a convolution with the chirp
    exp(i theta j^2 / 2).  Returns ``(size, pre, kernel_fft, post)``: the FFT
    length, the per-energy factor (quadrature weight, phi phase, chirp), the
    FFT of the conjugate-chirp kernel, and the per-time factor (chirp, the
    e_min phase, dE / sqrt(2 pi)).  The chirp's phase is computed from theta:
    a power of exp(i theta) would amplify that factor's rounding error by j^2.
    """
    # sum_j a_j exp(-i (E_j - e_min) t_k); the e_min phase goes into post
    n, m = egrid.n, tgrid.n
    theta = -egrid.spacing * tgrid.spacing
    phi = -egrid.spacing * tgrid.t_min
    size = _fft_size(n + m - 1)
    j = np.arange(max(n, m), dtype=float)
    pre = unit_phase(phi * j[:n])
    j *= j
    j *= 0.5 * theta  # the chirp's phase theta j^2 / 2
    chirp = unit_phase(j)
    pre *= chirp[:n]
    pre *= _trapezoid_weights(n)
    post = unit_phase(-egrid.e_min * tgrid.samples)
    post *= chirp[:m]
    post *= egrid.spacing / np.sqrt(2.0 * np.pi)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
    kernel_fft = np.fft.fft(kernel, out=kernel)
    for arr in (pre, kernel_fft, post):
        arr.flags.writeable = False
    return size, pre, kernel_fft, post


def fourier_E_to_t(amps, egrid: EnergyGrid, tgrid: TimeGrid,
                   method: str = "fft") -> np.ndarray:
    """Transform an energy-sampled amplitude to the time domain.

    Approximates (2*pi)**-0.5 * integral dE a(E) exp(-i E t) at
    every time-grid point, by the end-corrected trapezoid rule on the
    energy grid (``_trapezoid_weights``).

    method="fft" evaluates the quadrature sum with a chirp-z transform
    (FFT-based, exact same sum) padded to the smallest 2**a, 3 * 2**a or
    5 * 2**a >= n_E + n_t - 1; its plan is built once per grid pair and
    reused while calls stay on the pair (``_plan``).  method="direct"
    accumulates the sum explicitly, one kernel row at a time: an exact row
    every 32 time rows, and the rows between stepped by exp(-i E dt).
    """
    values = np.asarray(amps, dtype=complex)
    if values.shape != (egrid.n,):
        raise ValueError(f"amplitude shape {values.shape} does not match grid ({egrid.n},)")
    _check_nyquist(egrid, tgrid)

    if method == "direct":
        weighted = values * _trapezoid_weights(egrid.n)
        E, t = egrid.samples, tgrid.samples
        out = np.empty(tgrid.n, dtype=complex)
        # blocks of at most 32 kernel rows and 2**22 entries: an exact row
        # exp(-i E t_i), then each row the one before times exp(-i E dt)
        rows = max(1, min(32, 2**22 // egrid.n))
        kern = np.empty((rows, egrid.n), dtype=complex)
        step = np.exp(-1j * tgrid.spacing * E)
        for i in range(0, tgrid.n, rows):
            block = kern[:min(rows, tgrid.n - i)]
            block[0] = np.exp(-1j * t[i] * E)
            for r in range(1, len(block)):
                np.multiply(block[r - 1], step, out=block[r])
            out[i:i + len(block)] = block @ weighted
        return out * (egrid.spacing / np.sqrt(2.0 * np.pi))
    if method == "fft":
        size, pre, kernel_fft, post = _plan(egrid, tgrid)
        # one buffer holds the padded input, its spectrum and the
        # convolution; the temporaries it replaces cost ~0.35 ms per
        # single-height run on fresh grids of ~18 k energies (2-vCPU x86-64)
        buf = np.zeros(size, dtype=complex)
        np.multiply(values, pre, out=buf[:egrid.n])
        np.fft.fft(buf, out=buf)
        buf *= kernel_fft
        np.fft.ifft(buf, out=buf)
        return buf[:tgrid.n] * post
    raise ValueError(f"unknown method {method!r}")
