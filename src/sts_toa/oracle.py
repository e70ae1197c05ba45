"""Independent standard-QM cross-checks.

Five tools that never touch the space-conditional solver: a transfer-matrix
transmission amplitude, a Crank-Nicolson grid propagator, the probability
current sampled at a detector point, the closed-form spreading Gaussian
under a spatially uniform time-dependent potential, and a grid-free
reference for the energy->time integral behind a square barrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, UnstableConfig
from .packet import GaussianPacketSpec, psi_momentum, psi_position
from .potential import PiecewisePotential

__all__ = ["GridSolverConfig", "CNResult", "ProbeSeries", "FluxSeries",
           "transfer_matrix_T", "crank_nicolson_evolve", "flux_toa",
           "time_potential_solution", "barrier_oracle_config",
           "flux_oracle_config", "barrier_transmission_norm",
           "transmitted_norm", "energy_integral_reference"]

# cap on the grid points and on the steps of one solver run; 2**20 is >= 40x
# the largest grid any test or benchmark uses
_MAX_GRID_SIZE = 2**20

# gap from the transmitted-norm cut to the right ramp of the barrier runs.
# Reflection off the 30-wide ramp moves the fig2 reading at V0 = 1.8 by
# 1.9e-7 at 10, 6.8e-8 at 20 and 4.2e-8 at 40, against a domain that keeps
# the packet; it is 700x below that reading's gap to Kijowski (1.3e-4)
_CUT_MARGIN = 10.0

# bound on the phase E_max dt of one CN step at the packet's top energy: CN
# advances a component of energy E by 2 arctan(E dt / 2) rather than E dt,
# a phase error of (E dt)^3 / 12 per step (3.4e-4 rad at the bound)
_MAX_STEP_PHASE = 0.16


def _top_momentum(spec: GaussianPacketSpec) -> float:
    """p_max = |p_i| + 10 sigma_p, the top of the packet's |p| support;
    E_max = p_max^2 / 2m bounds the CN step."""
    return abs(spec.p_i) + 10.0 * spec.sigma_p


def transfer_matrix_T(P, v0: float, length: float, m: float = 1.0):
    """Plane-wave matching across a square barrier; returns (T, R).

    Solves the four continuity conditions at x = 0 and x = L numerically (a
    batched 4x4 linear solve), with the transmitted wave written as
    T exp(i k x).  Independent of any closed-form transmission expression.
    """
    P = np.atleast_1d(np.asarray(P, dtype=float))
    if np.any(P <= 0.0):
        raise ValueError("incident momentum must be positive")
    k = P
    kp = np.sqrt((P**2 - 2.0 * m * v0).astype(complex))
    n = P.size
    # interior basis exp(i kp x), sin(kp x) / kp: it stays independent at the
    # turning point kp = 0, where it becomes (1, x)
    ep = np.exp(1j * kp * length)
    s = np.where(kp == 0, length, np.sin(kp * length) / np.where(kp == 0, 1.0, kp))
    c = np.cos(kp * length)
    ek = np.exp(1j * k * length)

    A = np.zeros((n, 4, 4), dtype=complex)
    b = np.zeros((n, 4), dtype=complex)
    # unknowns: [R, A, B, T]
    A[:, 0] = np.stack([np.ones(n), -np.ones(n), np.zeros(n), np.zeros(n)], axis=-1)
    b[:, 0] = -1.0
    A[:, 1] = np.stack([-1j * k, -1j * kp, -np.ones(n), np.zeros(n)], axis=-1)
    b[:, 1] = -1j * k
    A[:, 2] = np.stack([np.zeros(n), ep, s, -ek], axis=-1)
    A[:, 3] = np.stack([np.zeros(n), 1j * kp * ep, c, -1j * k * ek], axis=-1)
    sol = np.linalg.solve(A, b[..., None])[..., 0]
    T, R = sol[:, 3], sol[:, 0]
    if T.size == 1:
        return complex(T[0]), complex(R[0])
    return T, R


@dataclass(frozen=True)
class GridSolverConfig:
    """Space-time grid for the Crank-Nicolson propagator.

    Validity bounds (checked against the packet and the static potential
    before a run), with p_max = |p_i| + 10 sigma_p, E_max = p_max^2 / 2m and
    V_min = min(min V, 0) the bottom of the deepest well:
      dx < 2 pi / (6 p_loc)   -- resolve the shortest wavelength, at the local
                                 momentum p_loc = sqrt(p_max^2 - 2m V_min)
                                 that the packet's top reaches in that well
      E_max dt <= 0.16        -- phase per step at the top energy; the scheme
                                 itself is unconditionally stable, but its
                                 phase error per step grows as (E dt)^3 / 12

    ``absorber_width`` > 0 adds an imaginary quartic ramp of that width and
    height p_i^2 / 2m at both walls.
    """

    x_min: float
    x_max: float
    n_x: int
    dt: float
    t_final: float
    absorber_width: float = 0.0

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n_x < 8:
            raise ValueError("n_x too small")
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def validate(self, spec: GaussianPacketSpec, pot: PiecewisePotential):
        """UnstableConfig unless the grid resolves ``spec`` moving through
        ``pot``."""
        p_max = _top_momentum(spec)
        depth = max(0.0, -min((s.v for s in pot.segments), default=0.0))
        p_loc = np.sqrt(p_max**2 + 2.0 * spec.m * depth)
        if not self.dx < 2.0 * np.pi / (6.0 * p_loc):
            well = (f" in a well of depth {depth:g}, local momentum {p_loc:g}"
                    if depth > 0.0 else "")
            raise UnstableConfig(
                f"dx = {self.dx:g} does not resolve p_max = {p_max:g}{well} "
                f"(needs dx < {2 * np.pi / (6 * p_loc):g})")
        e_max = p_max**2 / (2.0 * spec.m)
        if not e_max * self.dt <= _MAX_STEP_PHASE:
            raise UnstableConfig(
                f"dt = {self.dt:g} advances the top energy E_max = {e_max:g} "
                f"by {e_max * self.dt:g} rad per step, more than {_MAX_STEP_PHASE}")


@dataclass
class ProbeSeries:
    """Per-step record at one grid point: value and spatial derivative."""

    index: int
    values: np.ndarray
    derivs: np.ndarray


@dataclass
class CNResult:
    x: np.ndarray
    times: np.ndarray                       # every step time, including t=0
    norms: np.ndarray                       # total norm per step
    psi_final: np.ndarray                   # wave function at times[-1]
    probes: dict = field(default_factory=dict)
    m: float = 1.0
    x_cut: float | None = None              # the cut the run named, if any
    absorbed: float = 0.0                   # norm the right ramp absorbed, when
                                            # the run named a cut


def _sample_potential(pot: PiecewisePotential, xs: np.ndarray) -> np.ndarray:
    """Grid sampling of V; points exactly on a segment edge take the mean of
    the one-sided limits (second-order accurate step representation)."""
    v = pot.value_at(xs)
    for x_edge in pot.edges:
        eps = 1e-9 * max(1.0, abs(x_edge))
        v[xs == x_edge] = 0.5 * (pot.value_at(x_edge - eps) + pot.value_at(x_edge + eps))
    return v


def _hamiltonian_diagonals(v: np.ndarray, dx: float, m: float):
    """Five diagonals (d2, d1, d0) of the Dirichlet Hamiltonian.

    Fourth-order pentadiagonal Laplacian with zero ghost points; the wall
    row/column entries are zeroed symmetrically so H stays Hermitian (for
    real v) and the Crank-Nicolson step stays norm-conserving.
    """
    n = v.size
    c = 1.0 / (2.0 * m * dx**2)
    d0 = np.full(n, 30.0 / 12.0 * c, dtype=complex) + v
    d1 = np.full(n - 1, -16.0 / 12.0 * c, dtype=complex)
    d2 = np.full(n - 2, 1.0 / 12.0 * c, dtype=complex)
    d0[0] = d0[-1] = 0.0
    d1[0] = d1[-1] = 0.0
    d2[0] = d2[-1] = 0.0
    return d2, d1, d0


def _lapack_info(routine: str, info: int):
    """Raise on a nonzero LAPACK ``info`` from the CN factor or solve."""
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{routine}: Crank-Nicolson step matrix is singular "
            f"(zero pivot at diagonal {info - 1})")
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")


def _band_solver(ab: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """b -> 2 A^-1 b for the pentadiagonal A in 7-row LAPACK band storage
    ``ab`` (overwritten), from one LU factorisation (zgbtrf).

    When the factorisation interchanged no rows, L and U are band triangles
    of bandwidth 2.  U is split as D U1, with D = diag(U) and U1 unit upper
    triangular, so 2 A^-1 b = U1^-1 (2 D^-1) L^-1 b: two unit triangular
    band solves (ztbsv, k = 2) around one multiply by 2 / D.  No solve
    divides by U's diagonal or passes over the pivot fill rows.  Otherwise
    zgbtrs applies the interchanges and the result is doubled, which is
    exact.  The returned array is new; ``b`` is not modified.
    """
    # imported here so that the rest of the package loads without SciPy
    from scipy.linalg.blas import ztbsv
    from scipy.linalg.lapack import zgbtrf, zgbtrs
    lu, piv, info = zgbtrf(ab, 2, 2, overwrite_ab=1)
    _lapack_info("zgbtrf", info)
    if np.array_equal(piv, np.arange(ab.shape[1])):
        # U[i, j] sits at lu[4 + i - j, j] and L's multipliers in rows 5-6,
        # under a diagonal row that diag=1 ignores
        low = np.asfortranarray(lu[4:])
        # U1[i, j] = U[i, j] / d[i] goes into rows 0-1, the pivot fill (all
        # zero here): row r of column j is scaled by 1 / d[j - 2 + r]; read
        # with k = 2, lu's row 2 is U1's diagonal, which diag=1 ignores
        rd = 1.0 / lu[4]
        lu[0, 2:] = lu[2, 2:] * rd[:-2]
        lu[1, 1:] = lu[3, 1:] * rd[:-1]
        r2 = 2.0 * rd

        def solve(b):
            y = ztbsv(2, low, b, lower=1, diag=1)
            y *= r2
            return ztbsv(2, lu, y, diag=1, overwrite_x=1)
        return solve

    def solve(b):
        chi, info = zgbtrs(lu, 2, 2, b, piv)
        _lapack_info("zgbtrs", info)
        chi *= 2.0
        return chi
    return solve


def _probe_index(cfg: GridSolverConfig, px: float) -> int:
    """Index of the grid node at ``px``, at least two nodes inside the walls
    (the derivative stencil's reach); ValueError if there is none."""
    j = int(round((px - cfg.x_min) / cfg.dx))
    if not (2 <= j < cfg.n_x - 2
            and abs(cfg.x_min + j * cfg.dx - px) <= 1e-9 * max(1.0, abs(px))):
        raise ValueError(f"probe position {px} is not a node of the solver grid "
                         f"(spacing {cfg.dx:g}, walls at {cfg.x_min:g} and "
                         f"{cfg.x_max:g})")
    return j


def crank_nicolson_evolve(spec: GaussianPacketSpec, pot: PiecewisePotential,
                          cfg: GridSolverConfig,
                          probe_x: Sequence[float] = (),
                          vt: Callable[[float], float] | None = None,
                          x_cut: float | None = None) -> CNResult:
    """Propagate the packet with the Crank-Nicolson scheme.

    Dirichlet walls; optional imaginary polynomial absorbing ramp of width
    ``cfg.absorber_width`` at both walls (norm then non-increasing).  ``vt``
    adds a spatially uniform time-dependent potential, evaluated at the step
    midpoint.  ``probe_x`` grid points are recorded at every step; of the
    full wave function only the final state is kept.

    ``x_cut`` names a cut left of the right ramp, and the run then sums the
    norm that ramp absorbs, for ``transmitted_norm``.  With H = H0 - i W
    (W >= 0 the ramps), a step changes the norm by exactly
    -2 dt dx sum W |psi_mid|^2, psi_mid = (psi^n + psi^(n+1)) / 2, which is
    half of the 2 A^-1 psi^n that the step forms; the sum runs over the
    right ramp's nodes only.  ValueError unless the grid has ramps and the
    right one starts past x_cut.

    Scheme: with A = 1 + i H dt / 2, the step A psi^(n+1) = (2 - A) psi^n
    is taken as psi^(n+1) = 2 A^-1 psi^n - psi^n (Goldberg, Schey & Schwartz,
    Am. J. Phys. 35, 177 (1967)).  A is LU-factored once (LAPACK zgbtrf);
    each step is ``_band_solver``'s 2 A^-1 psi^n (two unit triangular band
    solves and one multiply) and one in-place subtraction, with no product
    by 2 - A.  With ``vt`` set, A changes every step and is re-factored.
    """
    cfg.validate(spec, pot)
    x = cfg.x
    dx = cfg.dx
    m = spec.m

    psi = psi_position(spec, x).astype(complex)
    edge_amp = max(abs(psi[0]), abs(psi[-1]))
    if edge_amp > 1e-8:
        raise UnstableConfig(
            f"initial packet reaches the domain walls (|psi| = {edge_amp:g})")

    v = _sample_potential(pot, x).astype(complex)
    if cfg.absorber_width > 0.0:
        eta = spec.p_i**2 / (2.0 * m)
        for sgn, wall in ((1, cfg.x_min), (-1, cfg.x_max)):
            d = sgn * (x - wall)
            ramp = np.clip(1.0 - d / cfg.absorber_width, 0.0, 1.0)
            v = v - 1j * eta * ramp**4

    d2, d1, d0 = _hamiltonian_diagonals(v, dx, m)
    if x_cut is not None:
        ramp_start = cfg.x_max - cfg.absorber_width
        if not (cfg.absorber_width > 0.0 and x_cut < ramp_start):
            raise ValueError(f"the right absorbing ramp must start past the cut "
                             f"x = {x_cut:g} (it starts at {ramp_start:g})")
        j0 = int(np.searchsorted(x, ramp_start, side="right"))
        # sqrt(W) on the right ramp; the wall row of H, and so its W, is 0
        root_w = np.sqrt(-d0[j0:].imag)
    alpha = 1j * cfg.dt / 2.0
    # LAPACK band storage of A (kl = ku = 2): A[i, j] sits at ab[4 + i - j, j];
    # rows 0-1 are workspace for the fill-in of the pivoted factorisation
    ab_0 = np.zeros((7, x.size), dtype=complex, order="F")
    ab_0[2, 2:] = ab_0[6, :-2] = alpha * d2
    ab_0[3, 1:] = ab_0[5, :-1] = alpha * d1
    ab_0[4] = 1.0 + alpha * d0

    def factor(v_shift: float):
        ab = ab_0.copy(order="F")  # so that zgbtrf factors it in place
        ab[4, 1:-1] += alpha * v_shift  # a uniform shift skips the wall rows
        return _band_solver(ab)

    if vt is None:
        solve = factor(0.0)

    n_steps = int(round(cfg.t_final / cfg.dt))
    times = np.arange(n_steps + 1) * cfg.dt
    norms = np.empty(n_steps + 1)
    norms[0] = dx * np.vdot(psi, psi).real

    probes = {px: ProbeSeries(_probe_index(cfg, px),
                              np.empty(n_steps + 1, dtype=complex),
                              np.empty(n_steps + 1, dtype=complex))
              for px in probe_x}

    def record(i, psi):
        for series in probes.values():
            j = series.index
            series.values[i] = psi[j]
            series.derivs[i] = (psi[j - 2] - 8.0 * psi[j - 1]
                                + 8.0 * psi[j + 1] - psi[j + 2]) / (12.0 * dx)

    record(0, psi)

    absorbed = 0.0
    for i in range(1, n_steps + 1):
        if vt is not None:
            solve = factor(float(vt(times[i - 1] + 0.5 * cfg.dt)))
        psi_next = solve(psi)
        if x_cut is not None:
            # psi_next is 2 psi_mid until the subtraction
            w_psi = root_w * psi_next[j0:]
            absorbed += np.vdot(w_psi, w_psi).real
        psi_next -= psi
        psi = psi_next
        norms[i] = dx * np.vdot(psi, psi).real
        record(i, psi)

    return CNResult(x=x, times=times, norms=norms, psi_final=psi,
                    probes=probes, m=m, x_cut=x_cut,
                    absorbed=0.5 * cfg.dt * dx * absorbed)


@dataclass
class FluxSeries:
    """Probability current at a fixed detector, sampled at step midpoints.

    Deliberately not clipped: intervals of negative current (backflow) are
    physical output of this model and are reported as-is.
    """

    times: np.ndarray
    current: np.ndarray


def flux_toa(result: CNResult, x_detector: float) -> FluxSeries:
    """J(x_d, t) = (1/m) Im(psi* dpsi/dx) from a probed solver run, at the
    step midpoints t_n + dt/2.

    psi and dpsi/dx are the averages (psi^n + psi^(n+1)) / 2 of the probe
    values and derivatives over each step: CN's discrete continuity
    equation carries the current of that average.  The current of psi^n
    itself runs ahead of CN's transport velocity by a factor
    1 + (E dt / 2)^2.
    """
    if x_detector not in result.probes:
        raise ValueError(f"no probe was recorded at x = {x_detector}; pass it "
                         "in probe_x when running the solver")
    probe = result.probes[x_detector]
    psi = 0.5 * (probe.values[1:] + probe.values[:-1])
    dpsi = 0.5 * (probe.derivs[1:] + probe.derivs[:-1])
    current = (1.0 / result.m) * np.imag(np.conj(psi) * dpsi)
    times = 0.5 * (result.times[1:] + result.times[:-1])
    return FluxSeries(times, current)


def transmitted_norm(result: CNResult, x_cut: float) -> float:
    """Norm beyond x_cut in the final state, plus the norm the right ramp
    absorbed when the run named x_cut (``crank_nicolson_evolve``).

    ValueError if the run named a different cut.
    """
    if result.x_cut is not None and x_cut != result.x_cut:
        raise ValueError(f"the run counted the norm absorbed past x = "
                         f"{result.x_cut:g}, not past {x_cut:g}")
    psi = result.psi_final
    dx = result.x[1] - result.x[0]
    mask = result.x > x_cut
    return dx * float(np.sum(np.abs(psi[mask]) ** 2)) + result.absorbed


def _absorbed_grid(spec: GaussianPacketSpec, x_right: float, t_final: float,
                   dx: float) -> GridSolverConfig:
    """Solver grid with spacing dx from x_i - 6 delta to x_right, run to
    t_final, with an absorbing ramp beyond each end.

    The ramps are 30 wide, or 3 delta for packets wider than delta = 10, so
    that the left wall lies >= 9 delta from the packet centre, where
    |psi| < 1e-8 at t = 0.  The walls are snapped outward to multiples of dx
    so that segment edges and detectors at such multiples land on grid
    points; dt is the largest step that divides t_final evenly and advances
    the packet's top energy E_max = (|p_i| + 10 sigma_p)^2 / 2m by at most
    0.16 rad.  CN accuracy is set by that phase at the energies the packet
    holds, not by the grid's shortest wavelength.  A grid of more than 2**20
    points or steps raises ConfigError naming ``n_x`` or ``t_final``, before
    anything is allocated.
    """
    absorber = max(30.0, 3.0 * spec.delta)
    x_lo = spec.x_i - 6.0 * spec.delta - absorber
    x_hi = x_right + absorber
    with np.errstate(all="ignore"):
        x_min = np.floor(x_lo / dx) * dx
        x_max = np.ceil(x_hi / dx) * dx
        n_x = np.rint((x_max - x_min) / dx) + 1
        e_max = _top_momentum(spec) ** 2 / (2.0 * spec.m)
        n_steps = np.ceil(t_final * e_max / _MAX_STEP_PHASE)
        # one more step where rounding in the ceil left E_max dt just past the bound
        n_steps += e_max * (t_final / n_steps) > _MAX_STEP_PHASE
    if not n_x <= _MAX_GRID_SIZE:
        raise ConfigError("n_x", f"[{x_lo:g}, {x_hi:g}] at dx = {dx:g} needs "
                                 f"{n_x:g} grid points, more than 2**20")
    if not 1 <= n_steps <= _MAX_GRID_SIZE:
        raise ConfigError("t_final", f"{t_final:g} at E_max dt <= {_MAX_STEP_PHASE} "
                                     f"(E_max = {e_max:g}) needs {n_steps:g} steps, "
                                     "not in [1, 2**20]")
    n_steps = int(n_steps)
    return GridSolverConfig(x_min=float(x_min), x_max=float(x_max), n_x=int(n_x),
                            dt=t_final / n_steps, t_final=t_final,
                            absorber_width=absorber)


def barrier_oracle_config(spec: GaussianPacketSpec, length: float,
                          time_factor: float,
                          dx_target: float) -> tuple[GridSolverConfig, float, float]:
    """Absorbed solver grid of spacing ``dx_target`` for the square-barrier
    runs.

    Returns (config, x_cut, t_measure): the transmitted norm is read beyond
    x_cut = L + 5 delta at t_measure = time_factor times the free classical
    crossing time to x_cut.  The right ramp starts ``_CUT_MARGIN`` past
    x_cut: a run that names x_cut counts what that ramp absorbs as
    transmitted, so the domain does not carry the transmitted packet until
    t_measure, and its size does not grow with ``time_factor``.  The left
    ramp swallows the reflected packet, which ``transmitted_norm`` never
    reads.  A time factor that needs more than 2**20 steps raises the grid
    builder's ConfigError naming ``t_final``.
    """
    v = spec.p_i / spec.m
    x_cut = length + 5.0 * spec.delta
    t_meas = time_factor * (x_cut - spec.x_i) / v
    return (_absorbed_grid(spec, x_cut + _CUT_MARGIN, t_meas, dx_target),
            x_cut, t_meas)


def flux_oracle_config(spec: GaussianPacketSpec, detector_x: float,
                       t_final: float) -> GridSolverConfig:
    """Absorbed solver grid of the ``flux_oracle`` model, run to t_final.

    dx = 0.125, because the probe derivative's O(dx^4) error at dx = 0.25
    visibly biases the current's integral.  The right ramp starts 8 delta
    past the detector, so that wall reflections never reach it inside the
    time window.  ValueError unless the detector is a grid node.
    """
    cfg = _absorbed_grid(spec, detector_x + 8.0 * spec.delta, t_final, 0.125)
    _probe_index(cfg, detector_x)
    return cfg


def barrier_transmission_norm(spec: GaussianPacketSpec, v0: float, length: float,
                              time_factor: float) -> float:
    """Late-time transmitted norm from the grid solver.

    Runs the barrier scattering on ``barrier_oracle_config``'s grids at
    dx = 0.25 and 0.125, each reading the norm past x_cut plus what the
    right ramp absorbed, and Richardson-extrapolates the second-order
    interface error away; the coarse/fine pair costs a fraction of one
    sufficiently fine run.  ``time_factor`` must be late enough that slow
    near-turning-point components have cleared the measurement cut: for the
    fig2 packet at V0 = 1.8, 3 leaves a gap of 4.0e-3 to the transmitted
    Kijowski arrival probability, 4 one of 1.09e-3 and 5 one of 1.74e-4.
    """
    pot = PiecewisePotential.square_barrier(v0, length)
    # both grids are built before either run, so an oversized one fails fast
    runs = [barrier_oracle_config(spec, length, dx_target=dx, time_factor=time_factor)
            for dx in (0.25, 0.125)]
    norms = [transmitted_norm(crank_nicolson_evolve(spec, pot, cfg, x_cut=x_cut), x_cut)
             for cfg, x_cut, _ in runs]
    return (4.0 * norms[1] - norms[0]) / 3.0


def time_potential_solution(spec: GaussianPacketSpec, vt: Callable[[float], float],
                            x, t: float):
    """Wave function at time t under a spatially uniform potential V(t).

    V(t) commutes with the kinetic term and contributes only a global phase:
    psi(x|t) = exp(-i Integral_0^t V dt') psi_free(x|t), the integral a
    4097-point trapezoid rule.  psi_free is the spreading Gaussian in closed
    form (Cohen-Tannoudji, Diu & Laloe, Complement G_I),
    (2 pi delta^2)^(-1/4) (1 + i tau)^(-1/2) exp(-z^2/(1 + i tau) - p_i^2 delta^2)
    with tau = t/(2 m delta^2), z = (x - x_i)/(2 delta) - i p_i delta; at t = 0
    it is ``psi_position``.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    tt = np.linspace(0.0, t, 4097)
    v_phase = np.trapezoid([vt(float(s)) for s in tt], tt)
    d = spec.delta
    w = 1.0 + 1j * t / (2.0 * spec.m * d**2)
    z = (np.asarray(x, dtype=float) - spec.x_i) / (2.0 * d) - 1j * spec.p_i * d
    return ((2.0 * np.pi * d**2) ** -0.25 / np.sqrt(w)
            * np.exp(-z**2 / w - (spec.p_i * d) ** 2 - 1j * v_phase))


def _branch_nodes(e_min: float, e_max: float, v: float, m: float, panels: int,
                  order: int):
    """Gauss-Legendre nodes E, weights and k' = sqrt(2m[E - v]) on [e_min, e_max].

    A v inside the span splits it, and each side is integrated in
    u = sqrt(|E - v|), E = v +/- u^2, dE = 2u du, on ``panels`` equal panels
    of ``order`` nodes; k' is sqrt(2m) u above v and i sqrt(2m) u below, so
    an integrand smooth in E and k' is analytic in u.  Otherwise the span
    takes 2 * ``panels`` panels in E.
    """
    x, w = np.polynomial.legendre.leggauss(order)

    def panel_nodes(lo, hi, count):
        edges = np.linspace(lo, hi, count + 1)
        half = 0.5 * np.diff(edges)[:, None]
        return ((0.5 * (edges[:-1] + edges[1:]))[:, None] + half * x).ravel(), \
            (half * w).ravel()

    if not e_min < v < e_max:
        E, wE = panel_nodes(e_min, e_max, 2 * panels)
        return E, wE, np.sqrt((2.0 * m * (E - v)).astype(complex))
    nodes = []
    for side, span in ((-1.0, v - e_min), (1.0, e_max - v)):
        u, wu = panel_nodes(0.0, np.sqrt(span), panels)
        nodes.append((v + side * u**2, 2.0 * u * wu,
                      np.sqrt(2.0 * m) * u * (1j if side < 0 else 1.0)))
    return tuple(np.concatenate(parts) for parts in zip(*nodes))


def energy_integral_reference(spec: GaussianPacketSpec, v0: float, length: float,
                              x: float, e_min: float, e_max: float, times,
                              kijowski: bool = False, panels: int = 64,
                              order: int = 64):
    """Grid-free energy integrals of a transmitted amplitude at x > length.

    Returns ``(f, p)``: f(t) = (2 pi)^(-1/2) integral a(E) exp(-i E t) dE at
    each of ``times`` and p = integral |a(E)|^2 dE, both over
    [e_min, e_max].  a is the space-conditional amplitude
    (m/2E)^(1/4) psi_momentum(P) exp(i (x - L) P) exp(i L k'), with
    P = sqrt(2mE) and k' = sqrt(2m[E - V0]) on the upper-half-plane branch,
    or with ``kijowski`` the transmitted Kijowski amplitude, whose
    exp(i L k') exp(-i L P) is replaced by ``transfer_matrix_T``'s T(P).
    The quadrature is Gauss-Legendre in u with E = V0 +/- u^2
    (``_branch_nodes``), which converges spectrally across the branch point
    at E = V0 that a uniform energy grid resolves only to dE^(3/2).
    """
    if not x > length:
        raise ValueError("the detector must lie beyond the barrier")
    m = spec.m
    E, w, kp = _branch_nodes(e_min, e_max, v0, m, panels, order)
    P = np.sqrt(2.0 * m * E)
    a = (m / (2.0 * E)) ** 0.25 * psi_momentum(spec, P)
    if kijowski:
        a *= transfer_matrix_T(P, v0, length, m)[0] * np.exp(1j * x * P)
    else:
        a *= np.exp(1j * (x - length) * P) * np.exp(1j * length * kp)
    wa = w * a
    times = np.asarray(times, dtype=float)
    f = np.empty(times.shape, dtype=complex)
    for i in range(0, times.size, 64):
        f.flat[i:i + 64] = np.exp(-1j * np.outer(times.flat[i:i + 64], E)) @ wa
    return f / np.sqrt(2.0 * np.pi), float(np.dot(w, np.abs(a) ** 2))
