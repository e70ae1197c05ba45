import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sts_toa.potential import PiecewisePotential, phase_theta

BARRIER = PiecewisePotential.square_barrier(4.5, 10.0)


class TestPiecewise:
    def test_square_barrier_single_segment(self):
        (seg,) = BARRIER.segments
        assert (seg.x_start, seg.x_end, seg.v) == (0.0, 10.0, 4.5)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            PiecewisePotential(((0.0, 5.0, 1.0), (4.0, 8.0, 2.0)))

    def test_rejects_reversed_segment(self):
        with pytest.raises(ValueError):
            PiecewisePotential(((5.0, 1.0, 1.0),))

    def test_value_at_closed_left_open_right(self):
        assert BARRIER.value_at(0.0) == 4.5
        assert BARRIER.value_at(10.0) == 0.0
        assert BARRIER.value_at(5.0) == 4.5
        assert BARRIER.value_at(-1.0) == 0.0

    def test_value_at_array_matches_scalar_calls(self):
        # straddles both edges and hits each of them exactly
        xs = np.array([-1.0, -1e-12, 0.0, 1e-12, 5.0, 10.0 - 1e-12, 10.0,
                       10.0 + 1e-12, 11.0])
        v = BARRIER.value_at(xs)
        assert v.shape == xs.shape
        assert list(v) == [BARRIER.value_at(float(x)) for x in xs]
        assert list(v) == [0.0, 0.0, 4.5, 4.5, 4.5, 4.5, 0.0, 0.0, 0.0]
        assert type(BARRIER.value_at(0.0)) is float

    def test_edges(self):
        assert BARRIER.edges == (0.0, 10.0)

    def test_levels_split_at_edges(self):
        levels, widths = BARRIER.levels(-5.0, 15.0)
        assert list(levels) == [0.0, 4.5] and list(widths) == [10.0, 10.0]
        levels, widths = BARRIER.levels(15.0, -5.0)
        assert list(levels) == [0.0, 4.5] and list(widths) == [-10.0, -10.0]
        for n_slices in (None, 7):
            _, widths = BARRIER.levels(5.0, 5.0, n_slices)
            assert np.all(widths == 0.0)


class TestPhaseIntegral:
    def test_free_region(self):
        theta = phase_theta(PiecewisePotential.free(), 2.0, 1.0, 0.0, 50.0)
        assert theta == pytest.approx(100.0 + 0.0j)

    def test_forbidden_segment(self):
        theta = phase_theta(BARRIER, 2.0, 1.0, 0.0, 10.0)
        assert theta == pytest.approx(1j * 10.0 * np.sqrt(5.0))

    def test_mixed_path_additive(self):
        theta = phase_theta(BARRIER, 2.0, 1.0, 0.0, 50.0)
        assert theta == pytest.approx(80.0 + 1j * 10.0 * np.sqrt(5.0))

    def test_decay_nonnegative_forward(self):
        theta = phase_theta(BARRIER, 2.0, 1.0, 0.0, 30.0)
        assert np.imag(theta) >= 0.0
        assert np.real(theta) == pytest.approx(40.0)

    @settings(max_examples=50)
    @given(st.floats(min_value=0.1, max_value=8.0),
           st.floats(min_value=-20.0, max_value=40.0),
           st.floats(min_value=-20.0, max_value=40.0),
           st.floats(min_value=-20.0, max_value=40.0))
    def test_additivity_and_reversal(self, e, x0, x1, x2):
        args = (BARRIER, e, 1.0)
        t01 = phase_theta(*args, x0, x1)
        t12 = phase_theta(*args, x1, x2)
        t02 = phase_theta(*args, x0, x2)
        assert t01 + t12 == pytest.approx(t02, abs=1e-9)
        assert phase_theta(*args, x1, x0) == pytest.approx(-t01, abs=1e-12)

    def test_energy_array_vectorized(self):
        e = np.linspace(0.5, 6.0, 64)
        theta = phase_theta(BARRIER, e, 1.0, 0.0, 50.0)
        assert theta.shape == e.shape
        single = phase_theta(BARRIER, float(e[10]), 1.0, 0.0, 50.0)
        assert theta[10] == pytest.approx(single)
