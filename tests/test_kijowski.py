import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sts_toa.errors import ConfigError, GridMismatch
from sts_toa.evolution import TOADistribution, barrier_toa, free_kijowski, toa_density
from sts_toa.kijowski import (model_distance, transmission_amplitude,
                              transmitted_amplitude, transmitted_kijowski)
from sts_toa.numerics import EnergyGrid, TimeGrid
from sts_toa.oracle import transfer_matrix_T
from sts_toa.packet import GaussianPacketSpec, SpectralAmplitude, sc_initial_amplitude
from sts_toa.scenario import ScenarioConfig, run_scenario

P_GRID = np.linspace(0.501, 4.001, 512)


class TestTransmissionAmplitude:
    def test_zero_barrier_is_transparent(self):
        T = transmission_amplitude(P_GRID, 0.0, 10.0)
        np.testing.assert_allclose(np.abs(T), 1.0, atol=1e-14)

    def test_never_exceeds_unity(self):
        for v0 in (0.5, 1.8, 4.5, 20.0):
            T = transmission_amplitude(P_GRID, v0, 10.0)
            assert np.max(np.abs(T) ** 2) <= 1.0 + 1e-10

    def test_weak_barrier_limit(self):
        T1 = transmission_amplitude(2.0, 1e-4, 10.0)
        T2 = transmission_amplitude(2.0, 1e-6, 10.0)
        assert abs(abs(T2) - 1.0) < abs(abs(T1) - 1.0)
        assert abs(T2 - np.exp(0j)) < 1e-4          # T -> 1 (phase included)

    def test_over_barrier_resonances(self):
        # momenta where P' L is a multiple of pi transmit perfectly
        v0, L = 1.8, 10.0
        for n in (3, 5, 8):
            p_prime = n * np.pi / L
            p = np.sqrt(p_prime**2 + 2.0 * v0)
            T = transmission_amplitude(p, v0, L)
            assert abs(T) == pytest.approx(1.0, abs=1e-10)

    def test_turning_point_is_finite(self):
        v0 = 1.125
        p_turn = np.sqrt(2.0 * v0)
        T = transmission_amplitude(p_turn, v0, 10.0)
        assert np.isfinite(T) and 0 < abs(T) < 1
        T_tm, _ = transfer_matrix_T(p_turn, v0, 10.0)
        assert abs(T - T_tm) < 1e-12

    def test_opaque_barrier_decays_without_overflow(self):
        # kappa L = 728 to 732: cosh overflows, exp(-kappa L) is subnormal
        p = np.array([0.5, 1.0, 2.0])
        kappa = np.sqrt(2.0 * 2000.0 - p**2)
        T = transmission_amplitude(p, 2000.0, 11.5)
        expect = 4.0 * p * kappa * np.exp(-kappa * 11.5) / (p**2 + kappa**2)
        assert np.all(np.isfinite(T))
        np.testing.assert_allclose(np.abs(T), expect, rtol=1e-6)

    def test_matches_transfer_matrix_at_reference_point(self):
        T = transmission_amplitude(2.0, 4.5, 10.0)
        T_tm, _ = transfer_matrix_T(2.0, 4.5, 10.0)
        assert abs(abs(T) ** 2 - abs(T_tm) ** 2) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.2, max_value=5.0),
           st.floats(min_value=0.0, max_value=25.0),
           st.floats(min_value=0.5, max_value=20.0))
    @example(2.0, 2.0, 1.0)  # the turning point P^2 = 2 m v0
    def test_matches_transfer_matrix_everywhere(self, p, v0, length):
        T = transmission_amplitude(p, v0, length)
        T_tm, R_tm = transfer_matrix_T(p, v0, length)
        assert abs(T - T_tm) < 1e-9
        assert abs(abs(T_tm) ** 2 + abs(R_tm) ** 2 - 1.0) < 1e-12


def expm1_reflections(P, Pp, length):
    """R = 4 P P' / [4 P P' - expm1(2 i P' L) (P - P')^2] in complex
    arithmetic, with its limit 4 P / (4 P - 2 i L P^2) at P' = 0."""
    P, Pp = np.broadcast_arrays(np.asarray(P, dtype=float), np.asarray(Pp, dtype=complex))
    turn = Pp == 0
    with np.errstate(invalid="ignore"):
        R = 4.0 * P * Pp / (4.0 * P * Pp - np.expm1(2j * Pp * length) * (P - Pp) ** 2)
    return np.where(turn, 4.0 * P / (4.0 * P - 2j * length * P**2), R)


class TestRealArithmetic:
    """R(E) and T(P) from real pieces against the complex expm1 form."""

    @staticmethod
    def _assert_close(got, expect):
        assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-14

    @pytest.mark.parametrize("v0, length", [(1.125, 10.0), (1.8, 10.0), (4.5, 10.0),
                                            (2000.0, 11.5)])  # kappa L ~ 730 at 2000
    def test_factor_on_the_energy_grid(self, egrid, v0, length):
        # unit amplitudes, so the transmitted amplitude is R itself;
        # at 1.125 the grid's first node has P' = 0 exactly
        E = egrid.samples
        sts = SpectralAmplitude(np.ones(egrid.n), anchor_x=50.0, egrid=egrid)
        R = transmitted_amplitude(sts, v0, length).values
        Pp = np.sqrt((2.0 * (E - v0)).astype(complex))
        expect = expm1_reflections(np.sqrt(2.0 * E), Pp, length)
        self._assert_close(R, expect)

    def test_amplitude_for_unsorted_momenta(self):
        # both sides of P = 2, with the turning point P^2 = 2 m v0 among them
        rng = np.random.default_rng(20)
        P = rng.permutation(np.append(np.linspace(0.3, 4.0, 257), 2.0))
        Pp = np.sqrt((P**2 - 4.0).astype(complex))
        expect = expm1_reflections(P, Pp, 7.0) * np.exp(-1j * (P - Pp) * 7.0)
        self._assert_close(transmission_amplitude(P, 2.0, 7.0), expect)
        T = transmission_amplitude(P.reshape(2, -1), 2.0, 7.0)
        self._assert_close(T, expect.reshape(2, -1))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_scalar_momentum_gives_a_complex(self, p):
        T = transmission_amplitude(p, 2.0, 7.0)
        assert type(T) is complex
        Pp = np.sqrt(complex(p**2 - 4.0))
        self._assert_close(T, expm1_reflections(p, Pp, 7.0) * np.exp(-1j * (p - Pp) * 7.0))

    def test_no_barrier_is_exactly_transparent_at_tiny_energy(self):
        # D ~ 4 P^2 ~ 3e-178, so D D* underflows to 0; num / den does not
        egrid = EnergyGrid(4.04e-179, 1.0, 2)
        sts = SpectralAmplitude(np.ones(2), anchor_x=20.0, egrid=egrid)
        assert np.array_equal(transmitted_amplitude(sts, 0.0, 10.0).values, [1.0, 1.0])
        assert transmission_amplitude(np.sqrt(2.0 * 4.04e-179), 0.0, 10.0) == 1.0


class TestTransmittedDistribution:
    def test_zero_barrier_matches_free(self, spec, tgrid):
        a = transmitted_kijowski(spec, 0.0, 10.0, 50.0, tgrid)
        b = free_kijowski(spec, 50.0, tgrid)
        assert np.max(np.abs(a.density - b.density)) < 1e-8

    def test_hartman_advancement(self, spec, tgrid):
        free_peak = free_kijowski(spec, 50.0, tgrid).peak_time()
        peak = transmitted_kijowski(spec, 4.5, 10.0, 50.0, tgrid).peak_time()
        assert peak < free_peak

    def test_arrival_probability_is_transmission_probability(self, spec, tgrid):
        from sts_toa.packet import psi_momentum
        dist = transmitted_kijowski(spec, 1.8, 10.0, 50.0, tgrid)
        p = np.linspace(0.01, 6.0, 40_001)
        T = transmission_amplitude(p, 1.8, 10.0)
        expect = np.trapezoid(np.abs(T * psi_momentum(spec, p)) ** 2, p)
        assert dist.arrival_probability == pytest.approx(expect, abs=1e-6)

    @pytest.mark.parametrize("pipeline", [barrier_toa, transmitted_kijowski],
                             ids=["sts", "kijowski_transmitted"])
    @pytest.mark.parametrize("x_i, x, field", [
        (5.0, 50.0, "packet"), (-50.0, 5.0, "detector_x"), (-50.0, 10.0, "detector_x")],
        ids=["packet-inside-barrier", "detector-inside-barrier", "detector-at-barrier-end"])
    def test_pipelines_need_a_scattering_setup(self, pipeline, x_i, x, field, tgrid):
        # the library pipelines raise the error ScenarioConfig raises for these models
        spec = GaussianPacketSpec(x_i=x_i, p_i=2.0, delta=10.0)
        with pytest.raises(ConfigError) as exc:
            pipeline(spec, 4.5, 10.0, x, tgrid)
        assert exc.value.field == field


# 1.125 is the default grid's e_min, so P' = 0 at its first energy
IDENTITY_HEIGHTS = (0.0, 1.125, 1.8, 4.5, 6.0)


class TestAmplitudeIdentity:
    """The transmitted-Kijowski amplitude, built as the closed-form sts
    amplitude times R(E), against a0 T(P) exp(i P x) with the T(P) that
    TestTransmissionAmplitude checks against the transfer matrix."""

    @pytest.fixture(scope="class")
    def reference(self, spec, egrid, tgrid):
        a0 = sc_initial_amplitude(spec, egrid)
        P = np.sqrt(2.0 * spec.m * egrid.samples)
        out = {}
        for v0 in IDENTITY_HEIGHTS:
            values = a0.values * transmission_amplitude(P, v0, 10.0) * np.exp(1j * P * 50.0)
            amps = SpectralAmplitude(values, anchor_x=50.0, egrid=egrid, m=spec.m)
            out[v0] = toa_density(amps, tgrid)
        return out

    @staticmethod
    def _assert_matches(dist, ref):
        assert np.max(np.abs(dist.density - ref.density)) < 1e-14
        assert dist.arrival_probability == pytest.approx(ref.arrival_probability, abs=1e-14)

    def test_turning_point_on_the_grid(self, egrid):
        assert egrid.e_min == 1.125

    @pytest.mark.parametrize("v0", IDENTITY_HEIGHTS)
    def test_transmitted_kijowski(self, spec, tgrid, reference, v0):
        self._assert_matches(transmitted_kijowski(spec, v0, 10.0, 50.0, tgrid),
                             reference[v0])

    # under slices:48 the sts amplitude is not the closed form, so the
    # Kijowski amplitude cannot reuse it
    @pytest.mark.parametrize("method", ["closed", "slices:48"])
    def test_sweep_point(self, reference, method):
        cfg = ScenarioConfig.from_dict({"preset": "fig2", "method": method,
                                        "barrier": {"v0": list(IDENTITY_HEIGHTS)}})
        for pt in run_scenario(cfg).points:
            self._assert_matches(pt.distributions["kijowski_transmitted"], reference[pt.v0])


# the bound on the default-grid Kijowski densities against 2**17 energies:
# measured 4.1e-16 (window [0, 150]) and 5.5e-16 (window [0, 800]) on 2**12
# end-corrected energies, where a plain trapezoid on 2**14 is 6.3e-14 off
DEFAULT_GRID_BOUND = 1e-15


class TestDefaultGridAccuracy:
    """The Kijowski models on their default grid (2**12 energies while the
    phase step dE (t_max - t_min) stays within pi / 8) against the same
    span at 2**17, at every height of a 32-height sweep; 800 is just inside
    the window rule's edge for fig2 (~804)."""

    @pytest.mark.parametrize("t_max", [150.0, 800.0])
    def test_within_the_fine_grid(self, t_max):
        heights = [float(v) for v in np.linspace(0.0, 6.0, 32)]
        cfg = ScenarioConfig.from_dict({
            "preset": "fig2", "barrier": {"v0": heights},
            "tgrid": {"t_min": 0.0, "t_max": t_max, "n": 4096},
            "models": ["kijowski_transmitted", "kijowski_free"]})
        coarse = cfg.energy_grid("kijowski_transmitted")
        assert coarse.n == 2**12
        fine = EnergyGrid(coarse.e_min, coarse.e_max, 2**17)
        result = run_scenario(cfg)
        spec, length, x = cfg.packet, cfg.barrier_length, cfg.detector_x
        free = free_kijowski(spec, x, cfg.tgrid, egrid=fine).density
        worst = [np.max(np.abs(result.points[0].distributions["kijowski_free"].density - free))]
        for pt in result.points:
            ref = transmitted_kijowski(spec, pt.v0, length, x, cfg.tgrid, egrid=fine)
            rho = pt.distributions["kijowski_transmitted"].density
            worst.append(np.max(np.abs(rho - ref.density)))
        assert max(worst) < DEFAULT_GRID_BOUND


class TestModelDistance:
    def test_identical_is_zero(self, spec, tgrid):
        d = free_kijowski(spec, 50.0, tgrid)
        assert model_distance(d, d) == 0.0

    def test_disjoint_unit_densities(self):
        tg = TimeGrid(0.0, 10.0, 1001)
        # rectangular bumps with disjoint support, each normalized to 1
        left = np.zeros(tg.n)
        right = np.zeros(tg.n)
        left[100:201] = 1.0
        right[600:701] = 1.0
        left /= np.trapezoid(left, dx=tg.spacing)
        right /= np.trapezoid(right, dx=tg.spacing)
        a = TOADistribution(tg, left, 1.0)
        b = TOADistribution(tg, right, 1.0)
        assert model_distance(a, b) == pytest.approx(2.0, rel=1e-12)

    def test_grid_mismatch_rejected(self, spec, tgrid):
        d1 = free_kijowski(spec, 50.0, tgrid)
        d2 = free_kijowski(spec, 50.0, TimeGrid(0.0, 150.0, 2048))
        with pytest.raises(GridMismatch):
            model_distance(d1, d2)
