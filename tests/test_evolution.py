import numpy as np
import pytest

from sts_toa.errors import DivergenceWarning, ZeroArrival
from sts_toa.evolution import (_free_flight, _level_factors, barrier_toa,
                               free_kijowski, propagate_closed_form,
                               propagate_slices, toa_density)
from sts_toa.numerics import EnergyGrid, TimeGrid, complex_sqrt_2m
from sts_toa.packet import SpectralAmplitude, sc_initial_amplitude
from sts_toa.potential import PiecewisePotential

BARRIER = PiecewisePotential.square_barrier(4.5, 10.0)
# the fig2 heights whose closed form and aligned slices agree bit for bit
V0_LIST = (0.0, 1.8, 4.5)


@pytest.fixture(scope="module")
def amps(spec, egrid):
    return sc_initial_amplitude(spec, egrid)


class TestPropagation:
    def test_zero_distance_identity(self, amps):
        out = propagate_closed_form(amps, BARRIER, 0.0)
        assert np.array_equal(out.values, amps.values)

    def test_free_translation_is_unitary_phase(self, amps, egrid):
        out = propagate_closed_form(amps, PiecewisePotential.free(), 30.0)
        np.testing.assert_allclose(np.abs(out.values), np.abs(amps.values),
                                   rtol=1e-13)
        P = np.sqrt(2.0 * egrid.samples)
        expect = amps.values * np.exp(1j * P * 30.0)
        np.testing.assert_allclose(out.values, expect, rtol=1e-12)

    def test_forbidden_crossing_decay(self, egrid):
        # single E = 2 component entering the barrier decays by e^(-10 sqrt 5)
        idx = int(np.argmin(np.abs(egrid.samples - 2.0)))
        e = float(egrid.samples[idx])
        vals = np.zeros(egrid.n, dtype=complex)
        vals[idx] = 1.0
        one = SpectralAmplitude(vals, anchor_x=0.0, egrid=egrid, m=1.0)
        kappa = np.sqrt(2.0 * (4.5 - e))
        out = propagate_closed_form(one, BARRIER, 10.0)
        assert abs(out.values[idx]) == pytest.approx(np.exp(-10.0 * kappa), rel=1e-10)

    def test_aligned_slices_match_closed_form(self, amps):
        # both variants sum the same widths per level
        for v0 in V0_LIST:
            pot = PiecewisePotential.square_barrier(v0, 10.0)
            a = propagate_closed_form(amps, pot, 50.0)
            for n in (5, 50, 500):
                b = propagate_slices(amps, pot, 50.0, n)
                assert np.array_equal(a.values, b.values), (v0, n)

    def test_misaligned_slices_converge_first_order(self, amps):
        a = propagate_closed_form(amps, BARRIER, 50.0)
        errs = []
        # counts chosen so the barrier edge keeps the same fractional offset
        # (0.4 of a slice) while the slice width shrinks ~9x overall
        for n in (48, 112, 448):
            b = propagate_slices(amps, BARRIER, 50.0, n)
            errs.append(np.max(np.abs(a.values - b.values)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[2] == pytest.approx(448 / 48, rel=0.5)

    @pytest.mark.parametrize("x0, x, n", [(0.0, 50.0, 48), (0.0, 50.0, 112),
                                          (50.0, -7.0, 33)])
    def test_slices_match_per_slice_sum(self, amps, x0, x, n):
        # reference: the midpoint rule summed one slice at a time
        amps = SpectralAmplitude(amps.values, anchor_x=x0, egrid=amps.egrid, m=1.0)
        bounds = np.linspace(x0, x, n + 1)
        E = amps.egrid.samples
        theta = np.zeros(E.size, dtype=complex)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            theta += (hi - lo) * complex_sqrt_2m(E, BARRIER.value_at(0.5 * (lo + hi)), 1.0)
        expect = amps.values * np.exp(1j * theta)
        b = propagate_slices(amps, BARRIER, x, n)
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(b.values - expect)) / scale < 1e-12

    def test_slices_at_the_cap_match_closed_form(self, amps):
        for v0 in V0_LIST:
            pot = PiecewisePotential.square_barrier(v0, 10.0)
            a = propagate_closed_form(amps, pot, 50.0)
            b = propagate_slices(amps, pot, 50.0, 100_000)
            assert np.array_equal(a.values, b.values), v0

    @pytest.mark.parametrize("pots", [[PiecewisePotential.free()],
                                      [PiecewisePotential.square_barrier(v0, 10.0)
                                       for v0 in V0_LIST]],
                             ids=["free", "barrier"])
    def test_backward_slices_match_closed_form(self, amps, pots):
        # from x = 50 back to x = -10: slices of width 1 align with both edges
        for pot in pots:
            there = propagate_closed_form(amps, pot, 50.0)
            a = propagate_closed_form(there, pot, -10.0)
            b = propagate_slices(there, pot, -10.0, 60)
            assert b.anchor_x == -10.0
            assert np.array_equal(a.values, b.values), pot

    def test_free_flight_is_cached_read_only(self, amps):
        propagate_closed_form(amps, BARRIER, 50.0)  # a free flight over x - L = 40
        hits = _free_flight.cache_info().hits
        flight = _free_flight(amps.egrid, 1.0, 40.0)
        assert _free_flight.cache_info().hits == hits + 1
        with pytest.raises(ValueError):
            flight[0] = 0.0

    @pytest.mark.parametrize("level, width, m", [
        (0.5, 10.0, 1.0),      # below every energy: a phase throughout
        (6.0, 10.0, 1.0),      # above every energy: a decay throughout
        (2.0, 10.0, 1.7),      # straddles the grid
        ("node", 10.0, 1.0),   # on a grid node, where k = 0
        (2.0, -10.0, 1.0),     # backward, growth exponent ~13
        (0.0, 40.0, 1.0),      # a free flight
    ])
    def test_level_factor_matches_complex_form(self, egrid, level, width, m):
        E = egrid.samples
        v = float(E[1000]) if level == "node" else level
        expect = np.exp(1j * width * complex_sqrt_2m(E, v, m))
        (factor,) = _level_factors(E, m, [v], [width])
        assert np.max(np.abs(factor - expect) / np.abs(expect)) < 4e-16

    def test_round_trip_in_allowed_region(self, amps):
        out = propagate_closed_form(amps, PiecewisePotential.free(), 40.0)
        back = propagate_closed_form(out, PiecewisePotential.free(), 0.0)
        assert np.max(np.abs(back.values - amps.values)) < 1e-10

    def test_backward_through_thick_barrier_diverges(self, egrid):
        # back from x = 25 to 0 the 500 x 25 barrier grows the amplitude by
        # exp(25 sqrt(2 (500 - E))), an exponent of about 790
        vals = np.ones(egrid.n, dtype=complex)
        one = SpectralAmplitude(vals, anchor_x=25.0, egrid=egrid, m=1.0)
        thick = PiecewisePotential.square_barrier(500.0, 25.0)
        with pytest.raises(DivergenceWarning):
            propagate_closed_form(one, thick, 0.0)

    def test_backward_slices_through_thick_barrier_diverge(self, egrid):
        vals = np.ones(egrid.n, dtype=complex)
        one = SpectralAmplitude(vals, anchor_x=25.0, egrid=egrid, m=1.0)
        thick = PiecewisePotential.square_barrier(500.0, 25.0)
        with pytest.raises(DivergenceWarning):
            propagate_slices(one, thick, 0.0, 50)


class TestDensity:
    def test_normalized_and_nonnegative(self, spec, tgrid):
        dist = free_kijowski(spec, 50.0, tgrid)
        assert np.all(dist.density >= 0.0)
        assert dist.integral() == pytest.approx(1.0, abs=1e-4)
        assert 0.0 <= dist.arrival_probability <= 1.0 + 1e-6

    def test_global_phase_invariance(self, amps, tgrid):
        shifted = SpectralAmplitude(amps.values * np.exp(0.7j),
                                    anchor_x=amps.anchor_x, egrid=amps.egrid,
                                    m=amps.m)
        a = toa_density(amps, tgrid)
        b = toa_density(shifted, tgrid)
        np.testing.assert_allclose(a.density, b.density,
                                   atol=1e-12 * a.density.max())

    def test_zero_amplitudes_never_arrive(self, egrid, tgrid):
        zero = SpectralAmplitude(np.zeros(egrid.n, dtype=complex),
                                 anchor_x=0.0, egrid=egrid, m=1.0)
        with pytest.raises(ZeroArrival):
            toa_density(zero, tgrid)


class TestFreeArrival:
    def test_peak_near_classical_crossing(self, spec, tgrid):
        dist = free_kijowski(spec, 50.0, tgrid)
        assert 48.0 <= dist.peak_time() <= 52.0

    def test_always_arrives(self, spec, tgrid):
        dist = free_kijowski(spec, 50.0, tgrid)
        assert dist.arrival_probability == pytest.approx(1.0, abs=1e-6)

    def test_momentum_phase_shifts_density(self, spec, egrid):
        tgrid = TimeGrid(0.0, 150.0, 4096)
        k = 64
        t0 = k * tgrid.spacing
        base = free_kijowski(spec, 50.0, tgrid, egrid=egrid)
        amps = sc_initial_amplitude(spec, egrid)
        P = np.sqrt(2.0 * egrid.samples)
        vals = (amps.values * np.exp(1j * P * 50.0)
                * np.exp(1j * egrid.samples * t0))
        shifted = SpectralAmplitude(vals, anchor_x=50.0,
                                    egrid=egrid, m=1.0)
        dist = toa_density(shifted, tgrid)
        scale = np.max(base.density)
        assert np.max(np.abs(dist.density[k:] - base.density[:-k])) / scale < 1e-10


class TestBarrierArrival:
    def test_zero_barrier_matches_free(self, spec, tgrid):
        a = barrier_toa(spec, 0.0, 10.0, 50.0, tgrid)
        b = free_kijowski(spec, 50.0, tgrid)
        assert np.max(np.abs(a.density - b.density)) < 1e-8

    def test_moderate_barriers_delay(self, spec, tgrid):
        free_mean = free_kijowski(spec, 50.0, tgrid).mean_time()
        for v0 in (1.125, 1.8):
            mean = barrier_toa(spec, v0, 10.0, 50.0, tgrid).mean_time()
            assert mean > free_mean

    def test_high_barrier_advances(self, spec, tgrid):
        free_mean = free_kijowski(spec, 50.0, tgrid).mean_time()
        mean = barrier_toa(spec, 4.5, 10.0, 50.0, tgrid).mean_time()
        assert mean < free_mean

    def test_detector_must_be_past_barrier(self, spec, tgrid):
        with pytest.raises(ValueError):
            barrier_toa(spec, 1.0, 10.0, 5.0, tgrid)
