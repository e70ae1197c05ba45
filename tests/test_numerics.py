import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sts_toa.errors import GridTooCoarse
from sts_toa.numerics import (EnergyGrid, TimeGrid, _fft_size, _hurwitz_zeta, _plan,
                              branch_terms, fourier_E_to_t, trapezoid_complex,
                              unit_phase)
from sts_toa.packet import default_energy_grid


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

    # each row of a stack is transformed as it would be alone, bit for bit:
    # on fig2's grid pair (2**12 energies and 4096 times, FFT length 8192),
    # and on pairs whose FFT length is 3 * 2**11 (5121 -> 6144) and 5 * 2**10
    # (5120); k rows in one list give the same stack
    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("n_e, n_t", [(None, None), (4097, 1025), (4097, 1024)],
                             ids=["fig2", "3x2^11", "5x2^10"])
    def test_stack_rows_equal_single_transforms(self, spec, k, n_e, n_t):
        if n_e is None:
            tgrid = TimeGrid(0.0, 150.0, 4096)
            egrid = default_energy_grid(spec, tgrid)
        else:
            egrid, tgrid = EnergyGrid(1.0, 3.0, n_e), TimeGrid(-200.0, 200.0, n_t)
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(k, egrid.n)) + 1j * rng.normal(size=(k, egrid.n))
        out = fourier_E_to_t(stack, egrid, tgrid)
        assert out.shape == (k, tgrid.n)
        for row, series in zip(stack, out):
            assert np.array_equal(series, fourier_E_to_t(row, egrid, tgrid))
        assert np.array_equal(fourier_E_to_t(list(stack), egrid, tgrid), out)

    # the direct quadrature takes the same stack; its rows agree with the
    # chirp-z ones within criterion 10's bound, and with the direct
    # transform of each row alone to rounding
    def test_direct_takes_a_stack(self):
        egrid, tgrid = EnergyGrid(1.0, 3.0, 4097), TimeGrid(-200.0, 200.0, 1025)
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(3, egrid.n)) + 1j * rng.normal(size=(3, egrid.n))
        direct = fourier_E_to_t(stack, egrid, tgrid, method="direct")
        assert direct.shape == (3, tgrid.n)
        assert np.max(np.abs(direct - fourier_E_to_t(stack, egrid, tgrid))) < 1e-8
        for row, series in zip(stack, direct):
            alone = fourier_E_to_t(row, egrid, tgrid, method="direct")
            assert np.max(np.abs(series - alone)) < 1e-12

    @pytest.mark.parametrize("method", ["fft", "direct"])
    @pytest.mark.parametrize("shape", [(4095,), (2, 4095), (4096, 1), (2, 2, 4096), ()])
    def test_wrong_shape_is_named(self, method, shape):
        with pytest.raises(ValueError, match=re.escape(f"amplitude shape {shape}")):
            fourier_E_to_t(np.ones(shape, dtype=complex), self.egrid, self.tgrid, method)

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


# Bernoulli polynomials B_2 ... B_6 in x, as coefficient lists from x^0 up
BERNOULLI_POLYNOMIALS = {2: [1 / 6, -1, 1], 3: [0, 1 / 2, -3 / 2, 1],
                         4: [-1 / 30, 0, 1, -2, 1], 5: [0, -1 / 6, 0, 5 / 3, -5 / 2, 1],
                         6: [1 / 42, 0, -1 / 2, 0, 5 / 2, -3, 1]}
ZETA_ORDERS = [-0.5, -1.0, -1.5, -2.0, -2.5, -3.0, -3.5, -4.0, -4.5, -5.0, -5.5]


def _zeta_tolerance(s, a):
    # the direct terms cancel the z^(1 - s), z = 10 + a, term of the tail
    return 1e-15 * (10.0 + a) ** (1.0 - s)


class TestHurwitzZeta:
    def test_riemann_values(self):
        assert abs(_hurwitz_zeta(-0.5, 1.0) - (-0.20788622497735457)) < 1e-14
        assert abs(_hurwitz_zeta(-1.5, 1.0) - (-0.025485201889833036)) < 1e-14

    def test_quarter_offset(self):
        assert abs(_hurwitz_zeta(-0.5, 0.25) - 0.090322258761246244) < 1e-14

    @pytest.mark.parametrize("s", ZETA_ORDERS)
    @pytest.mark.parametrize("a", [0.0, 1e-9, 0.25, 0.5, 0.9, 1.0])
    def test_shift_recurrence(self, s, a):
        # zeta(s, a) - zeta(s, a + 1) = a^-s
        diff = _hurwitz_zeta(s, a) - _hurwitz_zeta(s, a + 1.0) - a ** -s
        assert abs(diff) < _zeta_tolerance(s, a + 1.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_negative_integers_give_bernoulli_polynomials(self, k):
        a = np.linspace(0.0, 1.0, 11)
        expect = -np.polynomial.polynomial.polyval(a, BERNOULLI_POLYNOMIALS[k + 1]) / (k + 1)
        assert np.all(np.abs(_hurwitz_zeta(-k, a) - expect) < _zeta_tolerance(-k, 1.0))

    def test_elementwise(self):
        s, a = np.array([-0.5, -2.5, -3.0]), np.array([0.3, 0.7, 0.0])
        out = _hurwitz_zeta(s, a)
        assert out.shape == (3,)
        for i in range(3):
            assert abs(out[i] - _hurwitz_zeta(s[i], a[i])) < _zeta_tolerance(s[i], a[i])


class TestBranchTerms:
    EGRID = EnergyGrid(1.0, 3.0, 4096)

    def _terms(self, level, width=10.0):
        E = self.EGRID.samples
        kp = np.sqrt((2.0 * (E - level)).astype(complex))
        values = np.exp(-((E - 2.0) / 0.3) ** 2) * np.exp(1j * width * kp)
        return branch_terms(values, self.EGRID, 1.0, level, width)

    # the 12-sample fit needs 6 samples on each side, E[k - 6] ... E[k + 5]
    # with E[k - 1] < level <= E[k]: a level nearer an end is left alone
    @pytest.mark.parametrize("index, kept", [(0, False), (5, False), (5.5, True),
                                             (2048.3, True), (4090, True),
                                             (4090.2, False), (4095, False)])
    def test_end_zone(self, index, kept):
        level = self.EGRID.e_min + index * self.EGRID.spacing
        assert (self._terms(level) is not None) == kept

    # on 6481 energies of [1.125, 3.125], 1.8 is node 2187 in exact
    # arithmetic and lies 8e-14 dE above the sample's rounded value, so
    # E[k] - 1.8 exceeds dE and 1 - (E[k] - 1.8) / dE < 0 (it gave NaN)
    def test_level_just_above_a_rounded_node(self):
        egrid = EnergyGrid(1.125, 3.125, 6481)
        assert egrid.samples[2187] < 1.8 < egrid.samples[2188]
        assert (egrid.samples[2188] - 1.8) / egrid.spacing > 1.0
        E = egrid.samples
        kp = np.sqrt((2.0 * (E - 1.8)).astype(complex))
        a = np.exp(-((E - 2.0) / 0.3) ** 2) * np.exp(10j * kp)
        terms = branch_terms(a, egrid, 1.0, 1.8, 10.0)
        assert np.all(np.isfinite(terms.poly)) and np.isfinite(terms.norm)

    # a barrier 1e4 long: exp(W kappa) would reach e^1220 on the stencil
    def test_opaque_level_is_left_alone(self):
        E = self.EGRID.samples
        a = np.exp(-((E - 2.0) / 0.3) ** 2) * np.exp(-1e4 * np.sqrt(np.abs(2.0 * (E - 2.0))))
        assert branch_terms(a, self.EGRID, 1.0, 2.0001, 1e4) is None

    def test_zero_width_has_no_terms(self):
        assert self._terms(2.0, width=0.0) is None

    def test_series_is_the_phase_times_the_polynomial(self):
        terms = self._terms(2.0001)
        tgrid = TimeGrid(0.0, 150.0, 301)
        t = tgrid.samples
        expect = np.polynomial.polynomial.polyval(t, terms.poly) * np.exp(-1j * terms.level * t)
        assert np.max(np.abs(terms.series(tgrid) - expect)) < 1e-15 * np.max(np.abs(expect))

    # a(E) = g(E) exp(i W k') for a smooth g, against Gauss-Legendre in
    # u = sqrt(|E - level|) on each side; a negative W makes a grow below
    # the level; measured <= 1.5e-14 (time) and 4.3e-14 (norm), where the
    # uncorrected sums are ~5e-6 off
    @pytest.mark.parametrize("width", [10.0, -5.0])
    @pytest.mark.parametrize("index", [1500.4, 2048.0])
    def test_corrected_sums_match_the_integrals(self, width, index):
        egrid, tgrid = self.EGRID, TimeGrid(0.0, 150.0, 151)
        level = float(egrid.samples[int(index)]) + (index % 1) * egrid.spacing

        def amplitude(E, kp):
            return np.exp(-((E - 2.0) / 0.25) ** 2 + 3j * E + 1j * width * kp)

        E = egrid.samples
        a = amplitude(E, np.sqrt((2.0 * (E - level)).astype(complex)))
        x, w = np.polynomial.legendre.leggauss(64)
        f, p = 0.0, 0.0
        for side, span in ((-1.0, level - egrid.e_min), (1.0, egrid.e_max - level)):
            edges = np.linspace(0.0, np.sqrt(span), 65)
            half = 0.5 * np.diff(edges)[:, None]
            u = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
            e = level + side * u**2
            au = amplitude(e, np.sqrt(2.0) * u * (1j if side < 0 else 1.0))
            wu = 2.0 * u * (half * w).ravel()
            f = f + np.exp(-1j * np.outer(tgrid.samples, e)) @ (wu * au) / np.sqrt(2.0 * np.pi)
            p += float(np.dot(wu, np.abs(au) ** 2))
        terms = branch_terms(a, egrid, 1.0, level, width)
        series = fourier_E_to_t(a, egrid, tgrid) - terms.series(tgrid)
        assert np.max(np.abs(series - f)) < 1e-13
        assert abs(trapezoid_complex(np.abs(a) ** 2, egrid.spacing).real - terms.norm - p) < 2e-13
