import numpy as np
import pytest

from sts_toa.numerics import EnergyGrid, TimeGrid
from sts_toa.packet import (GaussianPacketSpec, SpectralAmplitude,
                            default_energy_grid, psi_momentum, psi_position,
                            sc_initial_amplitude)


class TestSpec:
    def test_rejects_nonpositive_scales(self):
        for kw in ({"delta": -1.0}, {"m": 0.0}):
            with pytest.raises(ValueError):
                GaussianPacketSpec(x_i=0.0, p_i=1.0, **{"delta": 1.0, "m": 1.0, **kw})

    def test_scattering_regime_flag(self, spec):
        assert spec.in_scattering_regime()
        assert not GaussianPacketSpec(x_i=0.0, p_i=2.0, delta=10.0).in_scattering_regime()
        assert not GaussianPacketSpec(x_i=-50.0, p_i=0.1, delta=10.0).in_scattering_regime()

    def test_momentum_width(self, spec):
        assert spec.sigma_p == pytest.approx(0.05)


class TestPositionWave:
    def test_stationary_peak_value(self):
        s = GaussianPacketSpec(x_i=3.0, p_i=0.0, delta=2.0)
        expect = (2.0 * np.pi * s.delta**2) ** -0.25
        assert psi_position(s, 3.0) == pytest.approx(expect)

    def test_normalized(self, spec):
        x = np.linspace(spec.x_i - 12 * spec.delta, spec.x_i + 12 * spec.delta, 40_001)
        norm = np.trapezoid(np.abs(psi_position(spec, x)) ** 2, x)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_reference_value_at_origin(self, spec):
        # 2.5 widths from center: envelope (200 pi)^(-1/4) e^(-6.25)
        expect = (200.0 * np.pi) ** -0.25 * np.exp(-6.25)
        assert abs(psi_position(spec, 0.0)) == pytest.approx(expect, rel=1e-12)


class TestMomentumWave:
    def test_peak_magnitude(self, spec):
        expect = (2.0 * spec.delta**2 / np.pi) ** 0.25
        assert abs(psi_momentum(spec, spec.p_i)) == pytest.approx(expect)

    def test_normalized(self, spec):
        p = np.linspace(spec.p_i - 12 * spec.sigma_p, spec.p_i + 12 * spec.sigma_p, 40_001)
        norm = np.trapezoid(np.abs(psi_momentum(spec, p)) ** 2, p)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_centered_packet_is_real_positive(self):
        s = GaussianPacketSpec(x_i=0.0, p_i=2.0, delta=10.0)
        vals = psi_momentum(s, np.linspace(1.0, 3.0, 101))
        assert np.all(np.abs(vals.imag) < 1e-15)
        assert np.all(vals.real > 0)


class TestInitialAmplitude:
    def test_jacobian_factor(self, spec):
        g = EnergyGrid(2.0, 2.5, 2)
        amps = sc_initial_amplitude(spec, g)
        expect = 0.25**0.25 * psi_momentum(spec, 2.0)
        assert amps.values[0] == pytest.approx(expect, rel=1e-12)

    def test_energy_norm_matches_momentum_norm(self, spec, egrid):
        amps = sc_initial_amplitude(spec, egrid)
        norm = np.trapezoid(np.abs(amps.values) ** 2, dx=egrid.spacing)
        assert norm == pytest.approx(1.0, abs=1e-6)

    def test_values_finite_even_near_zero_energy(self, spec):
        g = EnergyGrid(1e-9, 4.0, 2048)
        amps = sc_initial_amplitude(spec, g)
        assert np.all(np.isfinite(amps.values))

    def test_interleaved_packets_reproduce(self, spec, egrid):
        # one (packet, grid) pair is cached: A, B, A rebuilds A's values
        other = GaussianPacketSpec(x_i=-40.0, p_i=1.5, delta=8.0)
        first = sc_initial_amplitude(spec, egrid).values
        sc_initial_amplitude(other, egrid)
        again = sc_initial_amplitude(spec, egrid).values
        assert np.array_equal(first, again)

    def test_values_are_read_only(self, spec, egrid):
        amps = sc_initial_amplitude(spec, egrid)
        with pytest.raises(ValueError):
            amps.values[0] = 0.0

    def test_default_grid_brackets_packet(self, spec):
        g = default_energy_grid(spec)
        e0 = spec.p_i**2 / (2.0 * spec.m)
        assert g.e_min < e0 < g.e_max
        assert g.n == 2**14

    # an amplitude analytic in E gets 2**12 energies on the same span while
    # dE (t_max - t_min) <= pi / 8, i.e. up to a window ~804 wide for fig2
    @pytest.mark.parametrize("t_max, n", [(150.0, 2**12), (804.0, 2**12),
                                          (805.0, 2**14), (7000.0, 2**14)])
    def test_window_sizes_the_analytic_grid(self, spec, t_max, n):
        g = default_energy_grid(spec, TimeGrid(0.0, t_max, 4096))
        assert g.n == n
        assert (g.e_min, g.e_max) == (default_energy_grid(spec).e_min,
                                      default_energy_grid(spec).e_max)


class TestSpectralAmplitude:
    def test_rejects_nonfinite(self, egrid):
        vals = np.ones(egrid.n, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            SpectralAmplitude(vals, anchor_x=0.0, egrid=egrid, m=1.0)

    def test_rejects_shape_mismatch(self, egrid):
        with pytest.raises(ValueError):
            SpectralAmplitude(np.ones(7, dtype=complex),
                              anchor_x=0.0, egrid=egrid, m=1.0)
