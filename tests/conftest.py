import numpy as np
import pytest

from sts_toa import (EnergyGrid, GaussianPacketSpec, PiecewisePotential, SpectralAmplitude,
                     TimeGrid, default_energy_grid, propagate, transmitted_amplitude)


@pytest.fixture(scope="session")
def spec():
    """The reference scattering packet: x_i = -50, P_0 = 2, delta = 10."""
    return GaussianPacketSpec(x_i=-50.0, p_i=2.0, delta=10.0)


@pytest.fixture(scope="session")
def egrid(spec):
    return default_energy_grid(spec)


@pytest.fixture(scope="session")
def tgrid():
    return TimeGrid(0.0, 150.0, 4096)


@pytest.fixture(scope="session")
def chain_T():
    """T(P) for arbitrary momenta P > 0 through the production chain: a unit
    amplitude at x0 = 0, carried across the square barrier to x = L by
    ``propagate`` and passed through ``transmitted_amplitude``, is
    T(P) exp(i P L), and the plane wave's exp(i P L) is divided out.  Each
    momentum sits on node 0 of a 2-node energy grid of its own; a scalar P
    gives a scalar."""
    def transmission(P, v0: float, length: float, m: float = 1.0):
        def one(p):
            e = p * p / (2.0 * m)
            unit = SpectralAmplitude(np.ones(2), anchor_x=0.0,
                                     egrid=EnergyGrid(e, e + 1.0, 2), m=m)
            at_L = propagate(unit, PiecewisePotential.square_barrier(v0, length), length)
            return transmitted_amplitude(at_L, v0, length).values[0] * np.exp(-1j * p * length)
        return np.vectorize(one, otypes=[complex])(P)[()]
    return transmission
