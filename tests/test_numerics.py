import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sts_toa.errors import GridTooCoarse
from sts_toa.numerics import (EnergyGrid, TimeGrid, _fft_size, _plan,
                              fourier_E_to_t, trapezoid_complex,
                              unit_phase)


class TestGrids:
    def test_energy_grid_rejects_nonpositive_floor(self):
        with pytest.raises(ValueError):
            EnergyGrid(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            EnergyGrid(-1.0, 1.0, 16)

    def test_energy_grid_uniform_ascending(self):
        g = EnergyGrid(0.5, 4.0, 257)
        assert np.all(np.diff(g.samples) > 0)
        assert np.allclose(np.diff(g.samples), g.spacing, rtol=1e-14)
        assert g.samples[0] == 0.5 and g.samples[-1] == 4.0

    def test_time_grid_uniform_ascending(self):
        g = TimeGrid(-3.0, 7.0, 101)
        assert np.all(np.diff(g.samples) > 0)
        assert np.allclose(np.diff(g.samples), g.spacing, rtol=1e-14)

    def test_time_grid_rejects_degenerate(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 16)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)


class TestUnitPhase:
    @pytest.mark.parametrize("log2_mag", range(0, 53, 4))
    def test_matches_cos_plus_i_sin(self, log2_mag):
        mag = 2.0**log2_mag
        x = np.random.default_rng(log2_mag).uniform(-mag, mag, 4096)
        err = np.abs(unit_phase(x) - (np.cos(x) + 1j * np.sin(x)))
        assert err.max() <= 4.5e-16

    def test_zero_is_exactly_one(self):
        assert unit_phase(0.0) == 1.0
        assert np.all(unit_phase(np.zeros(3)) == 1.0)

    def test_negated_phase_is_the_conjugate(self):
        x = np.random.default_rng(1).uniform(-50.0, 50.0, 1000)
        assert np.array_equal(unit_phase(-x), np.conj(unit_phase(x)))

    def test_scalar_gives_python_complex(self):
        z = unit_phase(1.0)
        assert type(z) is complex
        assert z == unit_phase(np.array([1.0]))[0]
        assert type(unit_phase(np.float64(2.0))) is complex

    def test_fills_a_slice_of_a_larger_array(self):
        x = np.linspace(-3.0, 3.0, 7)
        buf = np.full(11, 5.0 + 5.0j)
        got = unit_phase(x, out=buf[2:9])
        assert got is not None and np.shares_memory(got, buf)
        assert np.array_equal(buf[2:9], unit_phase(x))
        assert np.all(buf[:2] == 5.0 + 5.0j) and np.all(buf[9:] == 5.0 + 5.0j)

    def test_no_warning_at_odd_multiples_of_pi(self):
        # the doubles nearest (2k + 1) pi put tan(phase / 2) near its poles
        x = np.pi * (2.0 * np.arange(-2000, 2000) + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            z = unit_phase(x)
        assert np.abs(z - (np.cos(x) + 1j * np.sin(x))).max() <= 4.5e-16


class TestTrapezoid:
    def test_constant(self):
        x = np.linspace(0.0, 1.0, 37)
        assert trapezoid_complex(np.ones(37), x[1] - x[0]) == pytest.approx(1.0)

    def test_linear_exact(self):
        x = np.linspace(0.0, 1.0, 11)
        assert trapezoid_complex(x, 0.1) == pytest.approx(0.5, abs=1e-15)

    def test_oscillatory(self):
        x = np.linspace(0.0, 2.0 * np.pi, 10_000)
        val = trapezoid_complex(np.exp(1j * x), x[1] - x[0])
        assert abs(val) < 1e-6

    @given(st.integers(min_value=2, max_value=200))
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert trapezoid_complex(y, 0.3) == pytest.approx(np.trapezoid(y, dx=0.3))


class TestFourier:
    egrid = EnergyGrid(1.0, 3.0, 4096)
    tgrid = TimeGrid(-200.0, 200.0, 4096)

    def _gaussian_amps(self):
        e = self.egrid.samples
        return np.exp(-((e - 2.0) / 0.1) ** 2).astype(complex)

    # Bluestein's convolution has n_E + n_t - 1 terms and is padded to the
    # smallest 2**a, 3 * 2**a or 5 * 2**a at least that long: 8191 -> 8192
    # (n_E = n_t = 4096, checked on the same family by acceptance criterion
    # 10), 12287 -> 12288 and 5119 -> 5120 reach each branch, 8193 -> 10240
    # sits one past a power of two, 5120 -> 5120 fits with no slack, and
    # 5121 -> 6144 is where a length rule one short would pad to 5120
    @pytest.mark.parametrize("n_e, n_t", [(4096, 8192), (4097, 1023), (4097, 4097),
                                          (4097, 1024), (4097, 1025)])
    def test_fft_matches_direct(self, n_e, n_t):
        egrid = EnergyGrid(1.0, 3.0, n_e)
        tgrid = TimeGrid(-200.0, 200.0, n_t)
        rng = np.random.default_rng(3)
        e = egrid.samples
        a = (np.exp(-((e - 2.0) / 0.3) ** 2)
             * np.exp(1j * np.polyval(rng.normal(size=3), e)))
        fft = fourier_E_to_t(a, egrid, tgrid, method="fft")
        direct = fourier_E_to_t(a, egrid, tgrid, method="direct")
        assert np.max(np.abs(fft - direct)) < 1e-8

    # a padding one short wraps the kernel's tail onto the first and last
    # outputs, weighted by the amplitude at the grid ends; the Gaussian above
    # is ~1e-5 there, so these amplitudes are of unit size at every energy
    @pytest.mark.parametrize("n_e, n_t", [(4097, 1023), (4097, 1024),
                                          (4097, 1025)])
    def test_fft_matches_direct_with_weight_at_the_edges(self, n_e, n_t):
        egrid = EnergyGrid(1.0, 3.0, n_e)
        tgrid = TimeGrid(-200.0, 200.0, n_t)
        rng = np.random.default_rng(5)
        a = rng.normal(size=n_e) + 1j * rng.normal(size=n_e)
        fft = fourier_E_to_t(a, egrid, tgrid, method="fft")
        direct = fourier_E_to_t(a, egrid, tgrid, method="direct")
        assert np.max(np.abs(fft - direct)) < 1e-8

    def test_shift_theorem_exact_on_grid(self):
        a = self._gaussian_amps()
        k = 37
        t0 = k * self.tgrid.spacing
        f = fourier_E_to_t(a, self.egrid, self.tgrid)
        f_shift = fourier_E_to_t(a * np.exp(1j * self.egrid.samples * t0),
                                 self.egrid, self.tgrid)
        scale = np.max(np.abs(f))
        assert np.max(np.abs(f_shift[k:] - f[:-k])) / scale < 1e-12

    def test_plancherel(self):
        a = self._gaussian_amps()
        f = fourier_E_to_t(a, self.egrid, self.tgrid)
        lhs = np.trapezoid(np.abs(a) ** 2, dx=self.egrid.spacing)
        rhs = np.trapezoid(np.abs(f) ** 2, dx=self.tgrid.spacing)
        assert rhs == pytest.approx(lhs, rel=1e-6)

    def test_envelope_centered_at_stationary_phase(self):
        # modulating by exp(+iE t0) moves the envelope peak to t0
        t0 = 40.0
        a = self._gaussian_amps() * np.exp(1j * self.egrid.samples * t0)
        f = fourier_E_to_t(a, self.egrid, self.tgrid)
        t_peak = self.tgrid.samples[np.argmax(np.abs(f))]
        assert abs(t_peak - t0) < 1.0

    def test_fft_size_is_smallest_candidate_length(self):
        candidates = sorted(b << a for b in (1, 3, 5) for a in range(20))
        for n in [*range(1, 2050), 5119, 5120, 5121, 8191, 8193, 12287, 20479]:
            assert _fft_size(n) == min(c for c in candidates if c >= n)

    def test_interleaved_grid_pairs_reproduce(self):
        # the plan cache keeps one grid pair: A, B, A rebuilds A's plan
        a = self._gaussian_amps()
        egrid_b, tgrid_b = EnergyGrid(0.5, 2.5, 2048), TimeGrid(0.0, 100.0, 777)
        first = fourier_E_to_t(a, self.egrid, self.tgrid)
        fourier_E_to_t(a[:2048], egrid_b, tgrid_b)
        again = fourier_E_to_t(a, self.egrid, self.tgrid)
        assert np.array_equal(first, again)

    def test_plan_arrays_are_read_only(self):
        fourier_E_to_t(self._gaussian_amps(), self.egrid, self.tgrid)
        _size, *arrays = _plan(self.egrid, self.tgrid)
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_aliasing_guard(self):
        coarse = EnergyGrid(1.0, 3.0, 16)
        with pytest.raises(GridTooCoarse):
            fourier_E_to_t(np.ones(16, dtype=complex), coarse, self.tgrid)
