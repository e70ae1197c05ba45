import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sts_toa.evolution import propagate
from sts_toa.numerics import EnergyGrid
from sts_toa.packet import SpectralAmplitude
from sts_toa.potential import PiecewisePotential

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


def _factor(pot, x0, x, egrid):
    """exp(i theta(E; x0 -> x)) on the grid: unit amplitudes at x0 moved to x."""
    ones = SpectralAmplitude(np.ones(egrid.n), anchor_x=x0, egrid=egrid)
    return propagate(ones, pot, x).values


# theta = integral sqrt(2m[E - V]) dx is the sum over levels of
# W_v sqrt(2m[E - V_v]); propagation applies exp(i theta), so each property
# of the phase integral is checked on the levels and on the propagated factor
class TestPhaseIntegral:
    GRID = EnergyGrid(0.5, 8.0, 301)  # E = 2 is node 60

    def test_free_region(self):
        levels, widths = PiecewisePotential.free().levels(0.0, 50.0)
        assert list(levels) == [0.0] and list(widths) == [50.0]
        factor = _factor(PiecewisePotential.free(), 0.0, 50.0, self.GRID)
        assert self.GRID.samples[60] == 2.0
        assert factor[60] == pytest.approx(np.exp(100.0j), rel=1e-12)

    def test_forbidden_segment(self):
        levels, widths = BARRIER.levels(0.0, 10.0)
        assert list(levels) == [4.5] and list(widths) == [10.0]
        factor = _factor(BARRIER, 0.0, 10.0, self.GRID)
        assert factor[60].imag == 0.0
        assert factor[60].real == pytest.approx(np.exp(-10.0 * np.sqrt(5.0)), rel=1e-14)

    def test_mixed_path_additive(self):
        levels, widths = BARRIER.levels(0.0, 50.0)
        assert list(levels) == [0.0, 4.5] and list(widths) == [40.0, 10.0]
        factor = _factor(BARRIER, 0.0, 50.0, self.GRID)
        assert factor[60] == pytest.approx(np.exp(80.0j - 10.0 * np.sqrt(5.0)), rel=1e-12)

    def test_decay_nonnegative_forward(self):
        # forward through the barrier: a decay below V0, a unit phase above
        factor = _factor(BARRIER, 0.0, 30.0, self.GRID)
        below = self.GRID.samples < 4.5
        assert np.all(np.abs(factor[below]) < 1.0)
        np.testing.assert_allclose(np.abs(factor[~below]), 1.0, rtol=1e-15)
        assert factor[60] == pytest.approx(np.exp(40.0j - 10.0 * np.sqrt(5.0)), rel=1e-12)

    @settings(max_examples=50)
    @given(st.floats(min_value=0.1, max_value=8.0),
           st.floats(min_value=-20.0, max_value=40.0),
           st.floats(min_value=-20.0, max_value=40.0),
           st.floats(min_value=-20.0, max_value=40.0))
    def test_additivity_and_reversal(self, e, x0, x1, x2):
        egrid = EnergyGrid(e, e + 1.0, 33)
        start = SpectralAmplitude(np.ones(egrid.n), anchor_x=x0, egrid=egrid)
        at_x1 = propagate(start, BARRIER, x1)
        via = propagate(at_x1, BARRIER, x2)
        direct = propagate(start, BARRIER, x2)
        np.testing.assert_allclose(via.values, direct.values, rtol=1e-9)
        back = propagate(at_x1, BARRIER, x0)
        np.testing.assert_allclose(back.values, start.values, rtol=1e-12)

    def test_energy_array_vectorized(self):
        factor = _factor(BARRIER, 0.0, 50.0, EnergyGrid(0.5, 6.0, 64))
        e10 = float(np.linspace(0.5, 6.0, 64)[10])
        single = _factor(BARRIER, 0.0, 50.0, EnergyGrid(e10, e10 + 1.0, 2))
        assert factor[10] == pytest.approx(single[0], rel=1e-12)
