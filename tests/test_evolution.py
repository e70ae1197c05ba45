import numpy as np
import pytest

from sts_toa.errors import ConfigError, DivergenceWarning, ZeroArrival
from sts_toa.evolution import (TOADistribution, _free_flight, _level_factors,
                               barrier_amplitude,
                               barrier_toa, free_kijowski, propagate, toa_density)
from sts_toa.kijowski import transmitted_amplitude
from sts_toa.numerics import EnergyGrid, TimeGrid, fourier_E_to_t
from sts_toa.oracle import energy_integral_reference
from sts_toa.packet import (GaussianPacketSpec, SpectralAmplitude, default_energy_grid,
                            sc_initial_amplitude)
from sts_toa.potential import PiecewisePotential
from sts_toa.scenario import ScenarioConfig, run_scenario

BARRIER = PiecewisePotential.square_barrier(4.5, 10.0)
# fig2 heights; the slice counts used with them below give the closed form's
# levels and widths exactly, so the amplitudes agree bit for bit
V0_LIST = (0.0, 1.8, 4.5)


@pytest.fixture(scope="module")
def amps(spec, egrid):
    return sc_initial_amplitude(spec, egrid)


class TestPropagation:
    def test_zero_distance_identity(self, amps):
        out = propagate(amps, BARRIER, 0.0)
        assert np.array_equal(out.values, amps.values)

    def test_free_translation_is_unitary_phase(self, amps, egrid):
        out = propagate(amps, PiecewisePotential.free(), 30.0)
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
        out = propagate(one, BARRIER, 10.0)
        assert abs(out.values[idx]) == pytest.approx(np.exp(-10.0 * kappa), rel=1e-10)

    def test_aligned_slices_match_closed_form(self, amps):
        # these counts sum the slices to the closed form's widths per level
        for v0 in V0_LIST:
            pot = PiecewisePotential.square_barrier(v0, 10.0)
            a = propagate(amps, pot, 50.0)
            for n in (5, 50, 500):
                b = propagate(amps, pot, 50.0, n)
                assert np.array_equal(a.values, b.values), (v0, n)

    def test_misaligned_slices_converge_first_order(self, amps):
        a = propagate(amps, BARRIER, 50.0)
        errs = []
        # counts chosen so the barrier edge keeps the same fractional offset
        # (0.4 of a slice) while the slice width shrinks ~9x overall
        for n in (48, 112, 448):
            b = propagate(amps, BARRIER, 50.0, n)
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
            v = BARRIER.value_at(0.5 * (lo + hi))
            theta += (hi - lo) * np.sqrt((2.0 * (E - v)).astype(complex))
        expect = amps.values * np.exp(1j * theta)
        b = propagate(amps, BARRIER, x, n)
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(b.values - expect)) / scale < 1e-12

    def test_slices_at_the_cap_match_closed_form(self, amps):
        for v0 in V0_LIST:
            pot = PiecewisePotential.square_barrier(v0, 10.0)
            a = propagate(amps, pot, 50.0)
            b = propagate(amps, pot, 50.0, 100_000)
            assert np.array_equal(a.values, b.values), v0

    @pytest.mark.parametrize("pots", [[PiecewisePotential.free()],
                                      [PiecewisePotential.square_barrier(v0, 10.0)
                                       for v0 in V0_LIST]],
                             ids=["free", "barrier"])
    def test_backward_slices_match_closed_form(self, amps, pots):
        # from x = 50 back to x = -10: slices of width 1 sum to the closed
        # form's widths per level
        for pot in pots:
            there = propagate(amps, pot, 50.0)
            a = propagate(there, pot, -10.0)
            b = propagate(there, pot, -10.0, 60)
            assert b.anchor_x == -10.0
            assert np.array_equal(a.values, b.values), pot

    def test_free_flight_is_cached_read_only(self, amps):
        propagate(amps, BARRIER, 50.0)  # a free flight over x - L = 40
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
        # the upper-half-plane branch: +0j continues onto +i sqrt(2m|E - v|)
        expect = np.exp(1j * width * np.sqrt((2.0 * m * (E - v)).astype(complex)))
        (factor,) = _level_factors(E, m, [v], [width])
        assert np.max(np.abs(factor - expect) / np.abs(expect)) < 4e-16

    def test_round_trip_in_allowed_region(self, amps):
        out = propagate(amps, PiecewisePotential.free(), 40.0)
        back = propagate(out, PiecewisePotential.free(), 0.0)
        assert np.max(np.abs(back.values - amps.values)) < 1e-10

    def test_backward_through_thick_barrier_diverges(self, egrid):
        # back from x = 25 to 0 the 500 x 25 barrier grows the amplitude by
        # exp(25 sqrt(2 (500 - E))), an exponent of about 790
        vals = np.ones(egrid.n, dtype=complex)
        one = SpectralAmplitude(vals, anchor_x=25.0, egrid=egrid, m=1.0)
        thick = PiecewisePotential.square_barrier(500.0, 25.0)
        with pytest.raises(DivergenceWarning):
            propagate(one, thick, 0.0)

    def test_backward_slices_through_thick_barrier_diverge(self, egrid):
        vals = np.ones(egrid.n, dtype=complex)
        one = SpectralAmplitude(vals, anchor_x=25.0, egrid=egrid, m=1.0)
        thick = PiecewisePotential.square_barrier(500.0, 25.0)
        with pytest.raises(DivergenceWarning):
            propagate(one, thick, 0.0, 50)


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


    # NaN fails every check of a density: a NaN time series, or a NaN or
    # infinite arrival probability, is a numerical failure naming the
    # detector position (amplitude values are checked finite on their own;
    # a branch-point term can still be NaN)
    def test_nan_series_is_a_numerical_failure(self, amps):
        tgrid = TimeGrid(0.0, 150.0, 64)
        at_detector = SpectralAmplitude(amps.values, anchor_x=50.0, egrid=amps.egrid, m=amps.m)
        with pytest.raises(DivergenceWarning, match="at x = 50.0: not finite"):
            TOADistribution.from_transform(at_detector, np.full(64, np.nan + 0j), tgrid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_arrival_is_a_numerical_failure(self, monkeypatch, amps, bad):
        tgrid = TimeGrid(0.0, 150.0, 64)
        at_detector = SpectralAmplitude(amps.values, anchor_x=50.0, egrid=amps.egrid, m=amps.m)
        monkeypatch.setattr(SpectralAmplitude, "arrival_probability", lambda self: bad)
        with pytest.raises(DivergenceWarning, match="at x = 50.0: not finite"):
            TOADistribution.from_transform(at_detector, np.ones(64, dtype=complex), tgrid)

    def test_density_must_match_the_time_grid(self):
        with pytest.raises(ValueError, match="match the time grid length"):
            TOADistribution(TimeGrid(0.0, 150.0, 64), np.full(63, 1.0 / 150.0), 1.0)

    # an amplitude that arrives but whose time series is zero on the window
    def test_no_mass_inside_the_window_never_arrives(self, amps):
        tgrid = TimeGrid(0.0, 150.0, 64)
        at_detector = SpectralAmplitude(amps.values, anchor_x=50.0, egrid=amps.egrid, m=amps.m)
        with pytest.raises(ZeroArrival, match="no density mass inside the time window"):
            TOADistribution.from_transform(at_detector, np.zeros(64, dtype=complex), tgrid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-300])
    def test_density_must_be_finite_and_nonnegative(self, bad):
        tgrid = TimeGrid(0.0, 150.0, 64)
        density = np.full(64, 1.0 / 150.0)
        density[3] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            TOADistribution(tgrid, density, 1.0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            TOADistribution(tgrid, np.full(64, bad), 1.0)


class TestFreeArrival:
    def test_peak_near_classical_crossing(self, spec, tgrid):
        dist = free_kijowski(spec, 50.0, tgrid)
        assert 48.0 <= dist.peak_time() <= 52.0

    def test_always_arrives(self, spec, tgrid):
        dist = free_kijowski(spec, 50.0, tgrid)
        assert dist.arrival_probability == pytest.approx(1.0, abs=1e-6)

    def test_rejects_momenta_reaching_zero(self, tgrid):
        # at p_i = 4 sigma_p the weight (m/2E)^(1/4) near E = 0 lifted the
        # arrival probability to 1.0004, past the exact 0.99997
        spec = GaussianPacketSpec(x_i=-50.0, p_i=0.2, delta=10.0)
        with pytest.raises(ConfigError, match="^packet: "):
            free_kijowski(spec, 50.0, tgrid)

    def test_shares_the_free_flight(self):
        # fig2's free model flies to x = 50 on the grid where the V0 = 0 sts
        # amplitude does too, so the two share one factor; behind V0 = 1.8
        # the flight is x - L = 40
        _free_flight.cache_clear()
        run_scenario(ScenarioConfig.from_dict({"preset": "fig2",
                                               "barrier": {"v0": [0.0, 1.8]}}))
        info = _free_flight.cache_info()
        assert (info.hits, info.misses) == (1, 2)
        # repeated runs of the free model alone keep hitting the cache
        cfg = ScenarioConfig.from_dict({"preset": "fig2", "models": ["kijowski_free"]})
        run_scenario(cfg)
        hits = _free_flight.cache_info().hits
        run_scenario(cfg)
        assert _free_flight.cache_info().hits == hits + 1

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


class TestBranchPoints:
    # fig2's default span is [1.125, 3.125]: V0 = 1.8 lies inside it, 4.5 not
    def test_propagate_records_the_levels_in_the_window(self, amps):
        inside = propagate(amps, PiecewisePotential.square_barrier(1.8, 10.0), 50.0)
        assert inside.branch_points == ((1.8, 10.0),)
        assert propagate(amps, BARRIER, 50.0).branch_points == ()

    def test_widths_add_up_and_cancel(self, amps):
        pot = PiecewisePotential.square_barrier(1.8, 10.0)
        halfway = propagate(amps, pot, 4.0)
        assert propagate(halfway, pot, 50.0).branch_points == ((1.8, 10.0),)
        there = propagate(amps, pot, 50.0)
        assert propagate(there, pot, -10.0).branch_points == ()

    def test_kijowski_records_none(self, amps):
        sts = propagate(amps, PiecewisePotential.square_barrier(1.8, 10.0), 50.0)
        assert transmitted_amplitude(sts, 1.8, 10.0).branch_points == ()

    # both methods sum the same values and take the same branch-point terms,
    # which move the V0 = 1.8 time amplitude by ~7e-6
    def test_direct_and_fft_apply_the_same_terms(self, spec):
        tgrid = TimeGrid(0.0, 150.0, 512)
        fft = barrier_toa(spec, 1.8, 10.0, 50.0, tgrid)
        direct = barrier_toa(spec, 1.8, 10.0, 50.0, tgrid, method="direct")
        assert fft.arrival_probability == direct.arrival_probability
        assert np.max(np.abs(fft.density - direct.density)) < 1e-12


# the in-window sweep-fine heights (linspace(0, 6, 32) on [1.125, 3.125]),
# fig2's 1.8, and 1.925, which lies on node 1638 of fig2's 2**12 energies
IN_WINDOW = [float(v) for v in np.linspace(0.0, 6.0, 32) if 1.125 <= v <= 3.125] + [1.8, 1.925]
# bounds on the default-grid sts amplitude against the grid-free reference,
# measured worst over IN_WINDOW: 9.5e-16 on [0, 150], 1.4e-12 on [0, 800]
# (the window rule's edge for fig2 is ~804) and 6.9e-16 in the arrival
# probability; the uncorrected sum on 2**14 energies is off by 2.1e-6, 2.1e-6
# and 3.0e-6 there
BRANCH_BOUNDS = {150.0: 1e-14, 800.0: 1e-11}
ARRIVAL_BOUND = 1e-14


class TestBranchPointAccuracy:
    @pytest.fixture(scope="class")
    def references(self, spec):
        """Per height: the reference on [0, 150] and [0, 800], and the
        arrival probability."""
        span = default_energy_grid(spec, TimeGrid(0.0, 150.0, 2))
        times = np.concatenate([np.linspace(0.0, 150.0, 151), np.linspace(0.0, 800.0, 201)])
        out = {}
        for v0 in IN_WINDOW:
            f, p = energy_integral_reference(spec, v0, 10.0, 50.0, span.e_min, span.e_max,
                                             times, panels=32, order=48)
            out[v0] = {150.0: f[:151], 800.0: f[151:]}, p
        return out

    @staticmethod
    def _time_amplitude(amps, tgrid, corrected=True):
        series = fourier_E_to_t(amps.values, amps.egrid, tgrid)
        return amps.branch_corrected(series, tgrid) if corrected else series

    @pytest.mark.parametrize("t_max, n", [(150.0, 151), (800.0, 201)])
    def test_default_grid_time_amplitude(self, spec, references, t_max, n):
        tgrid = TimeGrid(0.0, t_max, n)
        egrid = default_energy_grid(spec, tgrid)
        assert egrid.n == 2**12
        worst = max(np.max(np.abs(self._time_amplitude(
            barrier_amplitude(spec, v0, 10.0, 50.0, egrid), tgrid) - references[v0][0][t_max]))
            for v0 in IN_WINDOW)
        assert worst < BRANCH_BOUNDS[t_max]

    def test_default_grid_arrival_probability(self, spec, references):
        egrid = default_energy_grid(spec, TimeGrid(0.0, 150.0, 2))
        worst = max(abs(barrier_amplitude(spec, v0, 10.0, 50.0, egrid).arrival_probability()
                        - references[v0][1]) for v0 in IN_WINDOW)
        assert worst < ARRIVAL_BOUND

    # on these grids of the span 1.8 lies a rounding error above a node
    # (node 2187 of 6481), where the sample spacing exceeds dE; measured
    # <= 1.3e-15, where the uncorrected sums are off by up to 6.4e-6
    @pytest.mark.parametrize("n", [6481, 8961, 16561])
    def test_level_just_above_a_rounded_node(self, spec, references, n):
        tgrid = TimeGrid(0.0, 150.0, 151)
        amps = barrier_amplitude(spec, 1.8, 10.0, 50.0, EnergyGrid(1.125, 3.125, n))
        f, p = references[1.8]
        assert np.max(np.abs(self._time_amplitude(amps, tgrid) - f[150.0])) < BRANCH_BOUNDS[150.0]
        assert abs(amps.arrival_probability() - p) < ARRIVAL_BOUND

    # the bounds catch the branch-point error: the uncorrected sum on the
    # former 2**14 default grid fails each of them
    @pytest.mark.parametrize("t_max, n", [(150.0, 151), (800.0, 201)])
    def test_uncorrected_fine_grid_fails_the_bounds(self, spec, references, t_max, n):
        tgrid = TimeGrid(0.0, t_max, n)
        v0 = IN_WINDOW[4]  # 1.935..., the worst height
        amps = barrier_amplitude(spec, v0, 10.0, 50.0, default_energy_grid(spec))
        f, p = references[v0]
        error = np.max(np.abs(self._time_amplitude(amps, tgrid, corrected=False) - f[t_max]))
        trapezoid = np.trapezoid(np.abs(amps.values) ** 2, dx=amps.egrid.spacing)
        assert error > BRANCH_BOUNDS[t_max] and abs(trapezoid - p) > ARRIVAL_BOUND

    # fig2 at V0 = 1.8 on 2**10, 2**11 and 2**12 energies over the default
    # span, against the reference on 256 times of [0, 150]: the uncorrected
    # sum's error falls 2.25x and 2.22x per halving of dE (3.6e-5, 1.6e-5,
    # 7.2e-6: order 1.17 and 1.15, the dE^1.5 branch term under a coefficient
    # that moves with the level's place between nodes), while the corrected
    # one is 2.4e-13, 2.3e-15 and 2.0e-15, below 1e-12 on each grid
    def test_dE_halving_sequence(self, spec):
        tgrid = TimeGrid(0.0, 150.0, 256)
        span = default_energy_grid(spec, tgrid)
        f, _ = energy_integral_reference(spec, 1.8, 10.0, 50.0, span.e_min, span.e_max,
                                         tgrid.samples)
        uncorrected, corrected = [], []
        for n in (2**10, 2**11, 2**12):
            amps = barrier_amplitude(spec, 1.8, 10.0, 50.0, EnergyGrid(span.e_min, span.e_max, n))
            for errors, on in ((uncorrected, False), (corrected, True)):
                errors.append(np.max(np.abs(self._time_amplitude(amps, tgrid, on) - f)))
        assert span.n == 2**12
        assert all(coarse > 2.0 * fine for coarse, fine in zip(uncorrected, uncorrected[1:]))
        assert min(uncorrected) > 1e-6
        assert max(corrected) < 1e-12
