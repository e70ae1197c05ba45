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
grid pair costs two FFTs, run in place in one buffer.  A stack of
amplitudes on one grid pair (a block of a sweep's heights) shares one
buffer and one FFT call each way.

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

Behind a level v inside the energy window an amplitude carries
exp(i W k'), k' = sqrt(2m[E - v]), which has a square-root branch point at
E = v, and there the sums above converge only as dE^(3/2).  With
exp(i W k') = cos(W k') + i k' S(E), S = sin(W k') / k', both cos(W k') and
S are entire in E, so the part of the integrand that is not analytic is
sqrt(2m) [i (E - v)_+^(1/2) - (v - E)_+^(1/2)] H(E), with
H = a exp(-i W k') S exp(-i E t).  The generalised Euler-Maclaurin
expansion of I. Navot (J. Math. Phys. 40, 271 (1961)), taken off the nodes
with the Hurwitz zeta function as J. N. Lyness and B. W. Ninham do
(Math. Comp. 21, 162 (1967)), gives the excess of the sum over the
integral at that point: with E[k - 1] < v <= E[k], theta_r = (E[k] - v) / dE
and theta_l = (v - E[k - 1]) / dE (1 - theta_r but for the samples'
rounding),

    sum - integral = (2 pi)^(-1/2) sqrt(2m) sum_j H^(j)(v) / j! dE^(j + 3/2)
                     [i zeta(-1/2 - j, theta_r) - (-1)^j zeta(-1/2 - j, theta_l)].

H's t-dependence is exp(-i v t) times a polynomial in t, so ``branch_terms``
turns the series (j < 6) into one unit phase and one Horner pass over the
time grid (``BranchTerms.series``).  For the integral of |a|^2 only the
side below v is singular: with v - E = dE w^2, |a|^2 there is
|r|^2 exp(-2 W sqrt(2m dE) w), r = a exp(-i W k'), and the sum's excess is
dE sum_n c_n zeta(-n/2, theta_l) over the coefficients c_n of w^n
(n <= 10) in |r|^2 (exp(-2 W sqrt(2m dE) w) - 1).  On fig2's default grid
of 2**12 energies the terms take the amplitude behind a level from
~1e-5 to ~1e-15 of the grid-free integral on a window [0, 150], and the
arrival probability to rounding.  ``_hurwitz_zeta`` is Euler-Maclaurin
summation (SciPy's zeta takes only s > 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import GridTooCoarse

__all__ = [
    "EnergyGrid",
    "TimeGrid",
    "unit_phase",
    "trapezoid_complex",
    "fourier_E_to_t",
    "BranchTerms",
    "branch_terms",
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
def _plan(egrid: EnergyGrid, tgrid: TimeGrid):
    """Bluestein chirp-z plan of the energy->time sum on one grid pair.

    With theta = -dE dt and phi = -dE t_min, jk = (j^2 + k^2 - (k - j)^2) / 2
    turns sum_j a_j exp(i (phi + k theta) j) into a convolution with the chirp
    exp(i theta j^2 / 2).  Returns ``(size, pre, kernel_fft, post)``: the FFT
    length, the per-energy factor (quadrature weight, phi phase, chirp), the
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
    """Transform an energy-sampled amplitude, or a stack of them, to the
    time domain.

    Approximates (2*pi)**-0.5 * integral dE a(E) exp(-i E t) at
    every time-grid point, by the end-corrected trapezoid rule on the
    energy grid (``_trapezoid_weights``).  ``amps`` is one amplitude of
    shape (n_E,), giving shape (n_t,), or a stack of k of them, shape
    (k, n_E) or k rows of n_E, giving shape (k, n_t); each row of a stack
    is transformed as it would be alone, bit for bit.

    method="fft" evaluates the quadrature sum with a chirp-z transform
    (FFT-based, exact same sum) padded to the smallest 2**a, 3 * 2**a or
    5 * 2**a >= n_E + n_t - 1; its plan is built once per grid pair and
    reused while consecutive calls share the pair.  A stack is one (k, size)
    buffer and one FFT call each way along its rows, which costs less per row
    than k calls and lets two threads' transforms run side by side.
    method="direct" accumulates the sum explicitly, one kernel row at a time:
    an exact row every 32 time rows, and the rows between stepped by
    exp(-i E dt); it takes a stack too.
    """
    values = np.asarray(amps, dtype=complex)
    if values.ndim not in (1, 2) or values.shape[-1] != egrid.n:
        raise ValueError(f"amplitude shape {values.shape} does not match grid "
                         f"({egrid.n},) or a stack (k, {egrid.n})")
    _check_nyquist(egrid, tgrid)

    if method == "direct":
        weighted = values * _trapezoid_weights(egrid.n)
        E, t = egrid.samples, tgrid.samples
        out = np.empty(values.shape[:-1] + (tgrid.n,), dtype=complex)
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
            out.T[i:i + len(block)] = block @ weighted.T
        return out * (egrid.spacing / np.sqrt(2.0 * np.pi))
    if method == "fft":
        size, pre, kernel_fft, post = _plan(egrid, tgrid)
        # one buffer holds the padded input, its spectrum and the
        # convolution; the temporaries it replaces cost ~0.35 ms per
        # single-height run on fresh grids of ~18 k energies (2-vCPU x86-64)
        buf = np.zeros(values.shape[:-1] + (size,), dtype=complex)
        np.multiply(values, pre, out=buf[..., :egrid.n])
        np.fft.fft(buf, axis=-1, out=buf)
        buf *= kernel_fft
        np.fft.ifft(buf, axis=-1, out=buf)
        return buf[..., :tgrid.n] * post
    raise ValueError(f"unknown method {method!r}")


# B_2r / 2r for r = 1 ... 10, the Bernoulli numbers of _hurwitz_zeta's tail
_BERNOULLI = np.array([b / (2 * r) for r, b in enumerate(
    [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
     43867 / 798, -174611 / 330], start=1)])
_ZETA_DIRECT = np.arange(10.0)  # the terms (k + a)^-s summed before the tail
_ZETA_POWERS = np.arange(-2.0, -21.0, -2.0)


@functools.lru_cache(maxsize=4)
def _zeta_tail(s: tuple) -> np.ndarray:
    """B_2r / (2r)! s (s + 1) ... (s + 2r - 2), r = 1 ... 10, for each s."""
    s = np.array(s)[:, None]
    i = np.arange(2 * len(_BERNOULLI) - 1)
    return _BERNOULLI * np.cumprod((s + i) / (i + 1), axis=-1)[:, ::2]


def _hurwitz_zeta(s, a):
    """Hurwitz zeta(s, a) = sum_{k >= 0} (k + a)^-s, continued analytically,
    for real s < 1 and a >= 0, elementwise.

    With N = 10 terms summed directly and z = N + a, the Euler-Maclaurin
    formula gives zeta(s, a) = sum_{k < N} (k + a)^-s + z^(1 - s) [1 / (s - 1)
    + 1 / (2z) + sum_{r = 1..10} B_2r / (2r)! s (s + 1) ... (s + 2r - 2) z^-2r];
    the last term is below 1e-15 of the first for -6 <= s < 1, and at a
    negative integer s the tail ends, so the sum is -B_{1-s}(a) / (1 - s).
    The direct terms cancel the z^(1 - s) one to ~1e-16 z^(1 - s) absolute.
    A term with k + a = 0 is 0 for s < 0, so zeta(s, 0) = zeta(s, 1) there.
    """
    s, a = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(a, dtype=float))
    tail = _zeta_tail(tuple(s.ravel().tolist())).reshape(s.shape + _ZETA_POWERS.shape)
    z = a + len(_ZETA_DIRECT)
    tail = np.sum(tail * z[..., None] ** _ZETA_POWERS, axis=-1)
    tail += 1.0 / (s - 1.0) + 0.5 / z
    return np.sum((a[..., None] + _ZETA_DIRECT) ** -s[..., None], axis=-1) + z ** (1.0 - s) * tail


# the branch-point series: r's Taylor coefficients at the level come from a
# degree-7 least-squares fit to the 12 samples nearest it; the time terms run
# to order dE^(13/2) (j < 6), the norm terms to dE^6 (n <= 10).  The tables
# below are built from Python numbers: each NumPy loop a process runs for the
# first time pages in its code, and the same tables built by ~20 small NumPy
# operations added ~0.9 MiB to the resident set of every importing process
_STENCIL, _FIT_DEGREE, _TIME_ORDERS, _NORM_ORDERS = 12, 7, 6, 10
_STENCIL_EXPONENT = 700.0  # exp(W kappa) on the stencil overflows past ~709
_HALF = _STENCIL // 2


def _fit_matrix() -> np.ndarray:
    """The least-squares fit of degree 7 to samples at y = -6 ... 5: the map
    from the 12 values to the coefficients of y^0 ... y^7.

    Built from the polynomials orthonormal on the nodes (in y / 6), by the
    Stieltjes recurrence p_(j+1) ~ (y - alpha_j) p_j - beta_j p_(j-1), which
    needs no linear solve: LAPACK's SVD would add ~1.5 MiB to the resident
    set of every process that imports the package.
    """
    y = [i / _HALF for i in range(-_HALF, _HALF)]
    start = 1.0 / math.sqrt(_STENCIL)
    values = [[start] * _STENCIL]  # p_j at the nodes
    coefs = [[start] + [0.0] * _FIT_DEGREE]  # p_j's coefficients of (y / 6)^m
    beta = 0.0
    for j in range(_FIT_DEGREE):
        p, c = values[j], coefs[j]
        p0, c0 = (values[j - 1], coefs[j - 1]) if j else ([0.0] * _STENCIL, [0.0] * len(c))
        alpha = sum(yi * pi * pi for yi, pi in zip(y, p))
        v = [(yi - alpha) * pi - beta * qi for yi, pi, qi in zip(y, p, p0)]
        w = [(c[m - 1] if m else 0.0) - alpha * c[m] - beta * c0[m] for m in range(len(c))]
        beta = math.sqrt(sum(vi * vi for vi in v))
        values.append([vi / beta for vi in v])
        coefs.append([wi / beta for wi in w])
    return np.array([[sum(c[m] * p[i] for c, p in zip(coefs, values)) / _HALF**m
                      for i in range(_STENCIL)] for m in range(_FIT_DEGREE + 1)])


def _table(rows, cols, entry, dtype=float) -> np.ndarray:
    return np.array([[entry(r, c) for c in range(cols)] for r in range(rows)], dtype=dtype)


# the fit's coefficients of y^m, y = (E - E_k) / dE; the binomials C(m, l)
# and powers m - l that re-expand them about the level
_FIT = _fit_matrix()
_BINOMIAL = _table(_FIT_DEGREE + 1, _FIT_DEGREE + 1, lambda l, m: math.comb(m, l))
_SHIFT = _table(_FIT_DEGREE + 1, _FIT_DEGREE + 1, lambda l, m: max(m - l, 0))
_J = np.arange(float(_TIME_ORDERS))
_ODD_FACTORIALS = np.array([float(math.factorial(2 * j + 1)) for j in range(_TIME_ORDERS)])
_TIME_FACTORS = np.array([(-1j) ** j / math.factorial(j) for j in range(_TIME_ORDERS)])
_SIGNS = np.array([(-1.0) ** j for j in range(_TIME_ORDERS)])
# b_p = sum_l gamma_l z_(l + p) as one product with z padded by a 0
_HANKEL = _table(_TIME_ORDERS, _TIME_ORDERS, lambda p, l: min(p + l, _TIME_ORDERS), int)
# the zeta arguments: s = -1/2 - j at theta_r, then s = -n/2, n = 1 ... 11, at
# theta_l, for both the time terms (odd n) and the norm terms (n <= 10)
_ZETA_S = np.array([-0.5 - j for j in range(_TIME_ORDERS)]
                   + [-0.5 * n for n in range(1, 2 * _TIME_ORDERS)])
# c_n = sum_l (|r|^2)_l decay_(n - 2l) for n - 2l >= 1, as one product with
# decay padded by a leading 0
_NORM_N = np.arange(1.0, _NORM_ORDERS + 1.0)
_NORM_FACTORIALS = np.array([float(math.factorial(n)) for n in range(1, _NORM_ORDERS + 1)])
_NORM_INDEX = _table(_NORM_ORDERS, _NORM_ORDERS // 2, lambda n, l: max(n + 1 - 2 * l, 0), int)


class BranchTerms(NamedTuple):
    """What the energy sums of an amplitude exceed their integrals by at one
    square-root branch point (``branch_terms``).

    The excess of the energy->time sum is exp(-i level t) times the
    polynomial sum_j poly[j] t^j; that of the trapezoid sum of |a|^2 is
    ``norm``.
    """

    level: float
    poly: np.ndarray
    norm: float

    def series(self, tgrid: TimeGrid) -> np.ndarray:
        """The energy->time sum's excess at every time-grid point: one unit
        phase and one Horner pass."""
        t = tgrid.samples
        tc = t.astype(complex)
        out = np.full(t.shape, self.poly[-1])
        for coef in self.poly[-2::-1]:
            out *= tc
            out += coef
        out *= unit_phase(-self.level * t)
        return out


def branch_terms(values, egrid: EnergyGrid, m: float, level: float,
                 width: float) -> BranchTerms | None:
    """The branch-point terms (module docstring) of an amplitude a(E),
    sampled as ``values`` on ``egrid``, that carries the factor
    exp(i W k'), k' = sqrt(2m[E - level]), W = ``width``.

    r = a exp(-i W k') is smooth at the level; its Taylor coefficients come
    from a degree-7 least-squares fit to the 12 samples nearest the level.
    None when those samples do not straddle it (a level within 6 samples of
    a grid end), when W = 0, or when exp(W kappa) would overflow on them.
    """
    E, dE = egrid.samples, egrid.spacing
    k = int(np.searchsorted(E, level))  # E[k - 1] < level <= E[k]
    if width == 0.0 or not _HALF <= k <= egrid.n - _HALF:
        return None
    x = (E[k - _HALF:k + _HALF] - level) / dE
    # each offset from its own sample: the samples' rounding can put
    # E[k] - E[k - 1] past dE, and 1 - theta_r below 0
    theta_r, theta_l = x[_HALF], -x[_HALF - 1]
    kp = np.sqrt((2.0 * m * dE) * x.astype(complex))  # i kappa below the level
    if width * kp.imag.max() > _STENCIL_EXPONENT:
        return None
    fit = _FIT @ (values[k - _HALF:k + _HALF] * np.exp(-1j * width * kp))
    rho = (_BINOMIAL * (-theta_r) ** _SHIFT) @ fit  # r(level + x dE) = sum_l rho_l x^l
    zeta = _hurwitz_zeta(_ZETA_S, np.array([theta_r] * _TIME_ORDERS
                                           + [theta_l] * (len(_ZETA_S) - _TIME_ORDERS)))
    zeta_r, zeta_l = zeta[:_TIME_ORDERS], zeta[_TIME_ORDERS:]
    # S = sin(W k') / k' = W sum_j (-2m W^2 dE x)^j / (2j + 1)!, entire in E
    sinc = width * (-2.0 * m * width**2 * dE) ** _J / _ODD_FACTORIALS
    gamma = np.convolve(rho[:_TIME_ORDERS], sinc)[:_TIME_ORDERS]  # r S = sum gamma_l x^l
    z = np.append(1j * zeta_r - _SIGNS * zeta_l[::2], 0.0)
    # sum_j z_j H^(j)(level) dE^j / j!, H = r S exp(-i E t), in powers of t
    poly = (z[_HANKEL] @ gamma) * _TIME_FACTORS * dE ** _J
    poly *= np.sqrt(m / np.pi) * dE**1.5  # (2 pi)^(-1/2) sqrt(2m) dE^(3/2)
    # with level - E = dE w^2, the part of |a|^2 that is not analytic is
    # |r|^2 (exp(-beta w) - 1), beta = 2 W sqrt(2m dE), below the level; its
    # coefficients c_n of w^n give the excess dE sum_n c_n zeta(-n/2, theta_l)
    half = _NORM_ORDERS // 2
    r2 = np.convolve(rho[:half], rho[:half].conj())[:half].real * _SIGNS[:half]  # of w^(2l)
    decay = np.append(0.0, (-2.0 * width * np.sqrt(2.0 * m * dE)) ** _NORM_N
                      / _NORM_FACTORIALS)  # of w^p, p >= 1
    norm = dE * float(zeta_l[:_NORM_ORDERS] @ (decay[_NORM_INDEX] @ r2))
    return BranchTerms(float(level), poly, norm)
