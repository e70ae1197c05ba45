import dataclasses

import numpy as np
import pytest

from sts_toa.errors import UnstableConfig
from sts_toa.evolution import barrier_amplitude
from sts_toa.kijowski import transmitted_amplitude
from sts_toa.numerics import TimeGrid, fourier_E_to_t
from sts_toa.oracle import (_CUT_MARGIN, GridSolverConfig, _absorbed_grid,
                            _band_solver, _lapack_info, _probe_index,
                            _sample_potential, barrier_oracle_config,
                            crank_nicolson_evolve, energy_integral_reference,
                            flux_oracle_config, flux_toa, time_potential_solution,
                            transfer_matrix_T, transmitted_norm)
from sts_toa.packet import default_energy_grid
from sts_toa.packet import GaussianPacketSpec, psi_position
from sts_toa.potential import PiecewisePotential


class TestTransferMatrix:
    def test_zero_barrier(self):
        T, R = transfer_matrix_T(2.0, 0.0, 10.0)
        assert T == pytest.approx(1.0, abs=1e-12)
        assert abs(R) < 1e-12

    def test_flux_conservation(self):
        p = np.linspace(0.501, 4.001, 512)
        T, R = transfer_matrix_T(p, 1.8, 10.0)
        np.testing.assert_allclose(np.abs(T) ** 2 + np.abs(R) ** 2, 1.0,
                                   atol=1e-12)

    def test_rejects_nonpositive_momentum(self):
        with pytest.raises(ValueError):
            transfer_matrix_T(np.array([1.0, -0.5]), 1.0, 10.0)


class TestSolverConfig:
    def test_rejects_coarse_space_grid(self, spec):
        cfg = GridSolverConfig(x_min=-100.0, x_max=100.0, n_x=64,
                               dt=1e-3, t_final=1.0)
        with pytest.raises(UnstableConfig):
            cfg.validate(spec, PiecewisePotential.free())

    def test_rejects_large_time_step(self, spec):
        cfg = GridSolverConfig(x_min=-100.0, x_max=100.0, n_x=2048,
                               dt=0.5, t_final=1.0)
        with pytest.raises(UnstableConfig):
            cfg.validate(spec, PiecewisePotential.free())

    def test_rejects_fewer_than_eight_nodes(self):
        with pytest.raises(ValueError, match="n_x too small"):
            GridSolverConfig(x_min=-1.0, x_max=1.0, n_x=7, dt=1e-3, t_final=1.0)

    @pytest.mark.parametrize("dt, t_final", [(0.0, 1.0), (-1e-3, 1.0), (1e-3, 0.0),
                                             (1e-3, -1.0)])
    def test_rejects_nonpositive_times(self, dt, t_final):
        with pytest.raises(ValueError, match="dt and t_final must be positive"):
            GridSolverConfig(x_min=-1.0, x_max=1.0, n_x=64, dt=dt, t_final=t_final)


@pytest.mark.parametrize("p_i", [-0.2, -2.0])
def test_step_bound_holds_for_left_moving_packets(p_i):
    # the packet's top speed is |p_i| + 10 sigma_p whichever way it moves
    spec = GaussianPacketSpec(x_i=-50.0, p_i=p_i, delta=10.0)
    grid = flux_oracle_config(spec, 50.0, 10.0)
    e_max = (abs(p_i) + 10.0 * spec.sigma_p) ** 2 / (2.0 * spec.m)
    assert e_max * grid.dt <= 0.16
    grid.validate(spec, PiecewisePotential.free())


class TestSamplePotential:
    @staticmethod
    def per_node(pot, xs):
        """value_at node by node; a node on an edge takes the mean of the
        one-sided limits."""
        v = []
        for x in xs:
            x = float(x)
            if x in pot.edges:
                eps = 1e-9 * max(1.0, abs(x))
                v.append(0.5 * (pot.value_at(x - eps) + pot.value_at(x + eps)))
            else:
                v.append(pot.value_at(x))
        return np.array(v)

    def test_square_barrier(self):
        pot = PiecewisePotential.square_barrier(1.8, 10.0)
        xs = np.linspace(-5.0, 15.0, 161)  # dx = 0.125: both edges are nodes
        v = _sample_potential(pot, xs)
        assert list(v[np.isin(xs, (0.0, 10.0))]) == [0.9, 0.9]
        assert np.all(v[(xs > 0.0) & (xs < 10.0)] == 1.8)
        assert np.all(v[(xs < 0.0) | (xs > 10.0)] == 0.0)
        assert np.array_equal(v, self.per_node(pot, xs))

    def test_shared_edge_takes_mean_of_heights(self):
        pot = PiecewisePotential(((0.0, 4.0, 1.0), (4.0, 10.0, 3.0)))
        xs = np.linspace(-2.0, 12.0, 57)  # dx = 0.25
        v = _sample_potential(pot, xs)
        assert [v[xs == e][0] for e in (0.0, 4.0, 10.0)] == [0.5, 2.0, 1.5]
        assert np.array_equal(v, self.per_node(pot, xs))


@pytest.mark.parametrize("delta", [1.0, 10.0, 40.0])
def test_absorbing_grids_clear_the_packet(delta, tgrid):
    # crank_nicolson_evolve rejects |psi| > 1e-8 at a wall; both absorbing
    # grids put the left wall at x_i - 6 delta - (absorber width)
    spec = GaussianPacketSpec(x_i=-5.0 * delta - 1.0, p_i=2.0, delta=delta)
    for cfg in (barrier_oracle_config(spec, 10.0, time_factor=1.5, dx_target=0.125)[0],
                flux_oracle_config(spec, 50.0, tgrid.t_max)):
        assert abs(psi_position(spec, np.array([cfg.x_min]))[0]) < 1e-8


FREE_GRID = GridSolverConfig(x_min=-152.0, x_max=64.0, n_x=865,
                             dt=0.05, t_final=20.0)


@pytest.fixture(scope="module")
def free_run(spec):
    return crank_nicolson_evolve(spec, PiecewisePotential.free(), FREE_GRID)


@pytest.fixture(scope="module")
def absorbed_runs(spec):
    """FREE_GRID with absorbing walls, run until most of the packet has entered
    the right ramp: once with A factored once (vt=None), once re-factored at
    every step (vt = 0)."""
    cfg = dataclasses.replace(FREE_GRID, t_final=60.0, absorber_width=30.0)
    return [crank_nicolson_evolve(spec, PiecewisePotential.free(), cfg,
                                  probe_x=(0.0, 40.0), vt=vt)
            for vt in (None, lambda t: 0.0)]


@pytest.fixture(scope="module")
def cut_run(spec):
    """absorbed_runs' first run with a cut named at x = 20, left of the right
    ramp (which starts at x = 34); the left ramp is never reached."""
    cfg = dataclasses.replace(FREE_GRID, t_final=60.0, absorber_width=30.0)
    return crank_nicolson_evolve(spec, PiecewisePotential.free(), cfg,
                                 probe_x=(0.0, 40.0), x_cut=20.0)


class TestAbsorbedNorm:
    def test_right_ramp_loss_is_the_norm_lost(self, cut_run):
        # only the right ramp absorbs, so what it absorbed is the whole loss;
        # the CN identity is exact up to rounding (measured ~2e-13)
        lost = cut_run.norms[0] - cut_run.norms[-1]
        assert lost > 0.5
        assert abs(cut_run.absorbed - lost) < 1e-12

    def test_transmitted_norm_is_all_that_crossed_the_cut(self, cut_run):
        dx = cut_run.x[1] - cut_run.x[0]
        behind = dx * np.sum(np.abs(cut_run.psi_final[cut_run.x <= 20.0]) ** 2)
        assert abs(transmitted_norm(cut_run, 20.0) + behind - cut_run.norms[0]) < 1e-12

    def test_naming_a_cut_leaves_the_run_bit_identical(self, absorbed_runs, cut_run):
        plain = absorbed_runs[0]
        assert plain.x_cut is None and plain.absorbed == 0.0
        assert np.array_equal(plain.psi_final, cut_run.psi_final)
        assert np.array_equal(plain.norms, cut_run.norms)
        for px, probe in plain.probes.items():
            assert np.array_equal(probe.values, cut_run.probes[px].values)
            assert np.array_equal(probe.derivs, cut_run.probes[px].derivs)

    @pytest.mark.parametrize("x_cut, width", [(34.0, 30.0), (20.0, 0.0)])
    def test_cut_must_lie_left_of_the_right_ramp(self, spec, x_cut, width):
        cfg = dataclasses.replace(FREE_GRID, t_final=1.0, absorber_width=width)
        with pytest.raises(ValueError, match="right absorbing ramp"):
            crank_nicolson_evolve(spec, PiecewisePotential.free(), cfg, x_cut=x_cut)

    def test_norm_read_at_another_cut_rejected(self, cut_run):
        with pytest.raises(ValueError, match="absorbed past x = 20"):
            transmitted_norm(cut_run, 10.0)


class TestBarrierOracleGrid:
    @pytest.mark.parametrize("time_factor", [1.5, 4.0, 5.0, 6.0])
    def test_right_ramp_past_the_cut_and_probe_inside(self, spec, time_factor):
        for dx, n_x in ((0.25, 961), (0.125, 1921)):
            cfg, x_cut, _ = barrier_oracle_config(spec, 10.0, time_factor=time_factor,
                                                  dx_target=dx)
            # the domain ends at the cut, whatever the measurement time
            assert cfg.n_x == n_x
            assert cfg.x_max - cfg.absorber_width >= x_cut + _CUT_MARGIN
            # a probe at x = 50, at least two nodes inside the walls
            assert cfg.x[_probe_index(cfg, 50.0)] == 50.0

    def test_short_domain_reads_the_long_domains_norm(self, spec):
        # the coarse grid at V0 = 1.125, time factor 1.5, against a domain
        # that keeps the transmitted packet until t_measure (the right ramp
        # past x_i + v t_measure + 6 widths), read as the norm past the cut
        # alone; measured 9.3e-8 apart: the fast part of the initial
        # in-barrier mass, which reaches the long domain's ramp, and the
        # short ramp's reflection
        pot = PiecewisePotential.square_barrier(1.125, 10.0)
        cfg, x_cut, t_meas = barrier_oracle_config(spec, 10.0, time_factor=1.5,
                                                   dx_target=0.25)
        short = transmitted_norm(crank_nicolson_evolve(spec, pot, cfg, x_cut=x_cut),
                                 x_cut)
        width = spec.delta * np.hypot(1.0, t_meas / (2.0 * spec.m * spec.delta**2))
        right = spec.x_i + spec.p_i / spec.m * t_meas + 6.0 * width
        long_cfg = _absorbed_grid(spec, right, t_meas, 0.25)
        assert long_cfg.n_x > cfg.n_x
        long = transmitted_norm(crank_nicolson_evolve(spec, pot, long_cfg), x_cut)
        assert abs(short - long) < 1e-6


class TestCrankNicolson:
    def test_norm_conserved(self, free_run):
        assert np.max(np.abs(free_run.norms - free_run.norms[0])) < 1e-8
        assert free_run.norms[0] == pytest.approx(1.0, abs=1e-8)

    def test_free_center_follows_classical_path(self, spec, free_run):
        psi = free_run.psi_final
        dx = free_run.x[1] - free_run.x[0]
        center = dx * np.sum(free_run.x * np.abs(psi) ** 2)
        expect = spec.x_i + spec.p_i / spec.m * free_run.times[-1]
        assert abs(center - expect) < 0.02 * spec.delta

    def test_packet_touching_wall_rejected(self, spec):
        cfg = GridSolverConfig(x_min=-60.0, x_max=60.0, n_x=481,
                               dt=0.05, t_final=1.0)
        with pytest.raises(UnstableConfig):
            crank_nicolson_evolve(spec, PiecewisePotential.free(), cfg)

    def test_refactored_path_is_bit_identical(self, absorbed_runs):
        fixed, refactored = absorbed_runs
        assert np.array_equal(fixed.psi_final, refactored.psi_final)
        assert np.array_equal(fixed.norms, refactored.norms)
        for px, probe in fixed.probes.items():
            assert np.array_equal(probe.values, refactored.probes[px].values)
            assert np.array_equal(probe.derivs, refactored.probes[px].derivs)

    def test_absorber_norm_never_increases(self, absorbed_runs):
        norms = absorbed_runs[0].norms
        # a norm sum over n_x = 865 cells is exact to ~n_x * eps
        assert np.all(np.diff(norms) <= 1e-13)
        assert norms[-1] < 0.5 * norms[0]

    def test_singular_step_matrix_names_pivot(self):
        from scipy.linalg.lapack import zgbtrf
        ab = np.zeros((7, 8), dtype=complex)
        ab[4] = 1.0
        ab[4, 5] = 0.0
        info = zgbtrf(ab, 2, 2)[2]
        with pytest.raises(np.linalg.LinAlgError, match="zero pivot at diagonal 5"):
            _lapack_info("zgbtrf", info)

    def test_time_step_error_is_small(self, spec):
        # the coarse Richardson grid of the oracle-cn benchmark (V0 = 1.125,
        # time factor 1.5) at its own dt and at dt / 2: CN's O(dt^2) error
        # at E_max dt = 0.16 stays far inside the oracle's 1e-3 tolerance
        cfg, x_cut, _ = barrier_oracle_config(spec, 10.0, time_factor=1.5,
                                              dx_target=0.25)
        pot = PiecewisePotential.square_barrier(1.125, 10.0)
        coarse, fine = (transmitted_norm(crank_nicolson_evolve(spec, pot, c, x_cut=x_cut),
                                         x_cut)
                        for c in (cfg, dataclasses.replace(cfg, dt=cfg.dt / 2)))
        assert abs(fine - coarse) < 1e-4

    # a CN-like matrix, whose LU needs no row interchange, and one with a
    # small diagonal, whose LU interchanges rows
    @pytest.mark.parametrize("diag, pivots", [(1.0 + 2.5j, False), (0.01, True)])
    def test_band_solver_matches_zgbtrs(self, diag, pivots):
        # the solver returns 2 A^-1 b
        from scipy.linalg.lapack import zgbtrf, zgbtrs
        rng = np.random.default_rng(3)
        n = 64
        ab = np.zeros((7, n), dtype=complex)
        ab[2:7] = 1j * rng.uniform(-1.0, 1.0, (5, n))
        ab[4] = diag
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        lu, piv, _ = zgbtrf(ab, 2, 2)
        assert np.array_equal(piv, np.arange(n)) != pivots
        ref = zgbtrs(lu, 2, 2, b, piv)[0]
        got = _band_solver(ab.copy())(b)
        # without interchanges the solver forms 1 / diag(U) once, at factor
        # time, and multiplies by it where zgbtrs divides: the same
        # triangular solves, rounded differently by a few eps; with
        # interchanges it is zgbtrs itself, doubled exactly
        assert np.max(np.abs(got - 2 * ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(2 * ref))

    def test_matches_solve_banded_reference(self, spec):
        # 200 absorbed steps of A psi^(n+1) = (2 - A) psi^n, each solved by
        # scipy.linalg.solve_banded (LAPACK zgbsv), a routine the solver
        # never calls, with the product by 2 - A taken explicitly
        from scipy.linalg import solve_banded
        from sts_toa.oracle import _hamiltonian_diagonals
        cfg = dataclasses.replace(FREE_GRID, t_final=200 * FREE_GRID.dt,
                                  absorber_width=30.0)
        got = crank_nicolson_evolve(spec, PiecewisePotential.free(), cfg).psi_final

        x, w = cfg.x, cfg.absorber_width
        ramp = (np.clip(1.0 - (x - cfg.x_min) / w, 0.0, 1.0) ** 4
                + np.clip(1.0 - (cfg.x_max - x) / w, 0.0, 1.0) ** 4)
        v = -1j * spec.p_i**2 / (2.0 * spec.m) * ramp
        d2, d1, d0 = _hamiltonian_diagonals(v, cfg.dx, spec.m)
        alpha = 1j * cfg.dt / 2.0
        a_band = np.zeros((5, x.size), dtype=complex)
        a_band[0, 2:] = a_band[4, :-2] = alpha * d2
        a_band[1, 1:] = a_band[3, :-1] = alpha * d1
        a_band[2] = 1.0 + alpha * d0

        def times_h(p):
            hp = d0 * p
            hp[:-1] += d1 * p[1:]
            hp[1:] += d1 * p[:-1]
            hp[:-2] += d2 * p[2:]
            hp[2:] += d2 * p[:-2]
            return hp

        psi = psi_position(spec, x).astype(complex)
        for _ in range(200):
            psi = solve_banded((2, 2), a_band, psi - alpha * times_h(psi))
        assert np.max(np.abs(got - psi)) <= 1e-13 * np.max(np.abs(psi))

    def test_probes_are_the_stencil_on_the_state(self, absorbed_runs):
        # the last probe record, taken during the run, against the stencil
        # read off the final state
        res = absorbed_runs[0]
        psi, dx = res.psi_final, res.x[1] - res.x[0]
        for probe in res.probes.values():
            j = probe.index
            deriv = (psi[j - 2] - 8.0 * psi[j - 1]
                     + 8.0 * psi[j + 1] - psi[j + 2]) / (12.0 * dx)
            assert np.array_equal(probe.values[-1], psi[j])
            assert np.array_equal(probe.derivs[-1], deriv)

    def test_transmitted_norm_before_crossing_is_zero(self, free_run):
        # after 20 time units the dispersing tail has not reached x = 50
        assert transmitted_norm(free_run, 50.0) < 1e-6


@pytest.fixture(scope="module")
def flux_series(spec, tgrid):
    from sts_toa.scenario import ScenarioConfig, run_scenario
    cfg = ScenarioConfig(packet=spec, v0_list=(0.0,), barrier_length=10.0,
                         detector_x=50.0, tgrid=tgrid,
                         models=("flux_oracle", "kijowski_free"))
    return run_scenario(cfg).points[0]


class TestFluxDetector:
    def test_nonnegative_and_peaked_near_classical_time(self, flux_series, tgrid):
        flux = flux_series.flux
        assert np.min(flux) > -1e-10
        t_peak = tgrid.samples[np.argmax(flux)]
        assert 48.0 <= t_peak <= 52.0

    def test_time_integral_is_unity(self, flux_series, tgrid):
        total = np.trapezoid(flux_series.flux, tgrid.samples)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_close_to_free_arrival_model(self, flux_series, tgrid):
        flux = flux_series.flux / np.trapezoid(flux_series.flux, tgrid.samples)
        rho = flux_series.distributions["kijowski_free"].density
        l1 = np.trapezoid(np.abs(flux - rho), tgrid.samples)
        assert l1 < 0.05

    def test_unprobed_detector_rejected(self, free_run):
        with pytest.raises(ValueError):
            flux_toa(free_run, 10.0)


class TestTimePotential:
    # gentle packet: low momentum keeps grid-dispersion error far below tol
    SPEC = GaussianPacketSpec(x_i=-20.0, p_i=0.5, delta=5.0)
    CFG = GridSolverConfig(x_min=-70.0, x_max=30.0, n_x=2001,
                           dt=2e-3, t_final=10.0)

    def test_zero_potential_matches_grid_solver(self):
        res = crank_nicolson_evolve(self.SPEC, PiecewisePotential.free(), self.CFG)
        mask = (res.x > -40.0) & (res.x < 0.0)
        psi_ref = time_potential_solution(self.SPEC, lambda t: 0.0, res.x[mask], 10.0)
        assert np.max(np.abs(res.psi_final[mask] - psi_ref)) < 1e-6

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="t must be >= 0"):
            time_potential_solution(self.SPEC, lambda t: 0.0, 0.0, -1.0)


class TestEnergyIntegralReference:
    """The grid-free energy integrals behind the fig2 barrier (L = 10, x = 50)
    on the default span; |f| <= 0.23 there."""

    @staticmethod
    def _reference(spec, v0, tgrid, **kw):
        egrid = default_energy_grid(spec, tgrid)
        return energy_integral_reference(spec, v0, 10.0, 50.0, egrid.e_min, egrid.e_max,
                                         tgrid.samples, **kw)

    # 64 panels of 64 nodes per side against 96 of 80: measured 2.8e-16 on
    # [0, 150] and 1.7e-15 on [0, 800], where E t reaches ~2500 rad
    @pytest.mark.parametrize("kijowski", [False, True])
    @pytest.mark.parametrize("t_max", [150.0, 800.0])
    def test_two_node_counts_agree(self, spec, kijowski, t_max):
        tgrid = TimeGrid(0.0, t_max, 101)
        f, p = self._reference(spec, 1.8, tgrid, kijowski=kijowski)
        g, q = self._reference(spec, 1.8, tgrid, kijowski=kijowski, panels=96, order=80)
        assert np.max(np.abs(f - g)) < 1e-14
        assert abs(p - q) < 1e-15

    # T(P) is analytic in E, so the end-corrected sum is exact to rounding at
    # any height (measured <= 9.3e-16); so is sts without an in-window level
    @pytest.mark.parametrize("v0, kijowski", [(1.8, True), (1.125, True), (0.0, False),
                                              (4.5, False)])
    def test_analytic_amplitudes_match_the_grid(self, spec, v0, kijowski):
        tgrid = TimeGrid(0.0, 150.0, 151)
        egrid = default_energy_grid(spec, tgrid)
        amps = barrier_amplitude(spec, v0, 10.0, 50.0, egrid)
        if kijowski:
            amps = transmitted_amplitude(amps, v0, 10.0)
        f, p = self._reference(spec, v0, tgrid, kijowski=kijowski, panels=32, order=48)
        assert np.max(np.abs(fourier_E_to_t(amps.values, egrid, tgrid) - f)) < 3e-15
        assert abs(amps.arrival_probability() - p) < 1e-15

    def test_detector_inside_the_barrier_rejected(self, spec):
        with pytest.raises(ValueError):
            energy_integral_reference(spec, 1.8, 10.0, 5.0, 1.125, 3.125, [0.0])
