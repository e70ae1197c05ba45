"""Piecewise-constant potentials and the complex phase integral.

Only piecewise-constant potentials are supported: the phase integral then has
an exact closed form per segment and no quadrature error.  Boundary
convention: a segment owns its left edge (closed-left, open-right), so the
slice propagator and the closed form agree bit for bit when slices align with
segment edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .numerics import complex_sqrt_2m

__all__ = ["Segment", "PiecewisePotential", "phase_theta"]


class Segment(NamedTuple):
    x_start: float
    x_end: float
    v: float


@dataclass(frozen=True)
class PiecewisePotential:
    """Ordered, non-overlapping constant-V segments; zero outside all segments."""

    segments: tuple[Segment, ...]

    def __init__(self, segments: Sequence[tuple[float, float, float]]):
        segs = tuple(Segment(*s) for s in segments)
        for s in segs:
            if not s.x_start < s.x_end:
                raise ValueError(f"segment {s} has x_start >= x_end")
        for a, b in zip(segs, segs[1:]):
            if a.x_end > b.x_start:
                raise ValueError(f"segments {a} and {b} overlap or are unsorted")
        object.__setattr__(self, "segments", segs)

    @classmethod
    def free(cls) -> "PiecewisePotential":
        return cls(())

    @classmethod
    def square_barrier(cls, v0: float, length: float) -> "PiecewisePotential":
        """Single barrier of height v0 on (0, length)."""
        return cls(((0.0, length, v0),))

    @property
    def edges(self) -> tuple[float, ...]:
        out = []
        for s in self.segments:
            out.extend((s.x_start, s.x_end))
        return tuple(sorted(set(out)))

    def value_at(self, x):
        """V(x) with the closed-left, open-right edge convention.

        x may be an array; a scalar x gives a float.
        """
        xs = np.asarray(x, dtype=float)
        v = np.zeros(xs.shape)
        for s in self.segments:
            v[(s.x_start <= xs) & (xs < s.x_end)] = s.v
        return float(v) if v.ndim == 0 else v

    def pieces(self, a: float, b: float) -> list[tuple[float, float]]:
        """Split [a, b] (a < b) at segment edges; yields (length, V) pairs."""
        cuts = sorted({a, b, *(e for e in self.edges if a < e < b)})
        out = []
        for lo, hi in zip(cuts, cuts[1:]):
            out.append((hi - lo, self.value_at(lo)))
        return out


def phase_theta(pot: PiecewisePotential, E, m: float, x0: float, x: float):
    """Complex phase theta(E; x0 -> x) = integral sqrt(2m[E-V]) dx'.

    Exact segment sum; E may be an array.  The real part is the oscillatory
    phase, the imaginary part the decay exponent accumulated in forbidden
    regions (nonnegative for x > x0).  Reversing x0 and x flips the sign.
    """
    if x == x0:
        return np.zeros_like(np.asarray(E, dtype=float)) * 1j if np.ndim(E) else 0j
    if x < x0:
        return -phase_theta(pot, E, m, x, x0)
    theta = 0j
    for length, v in pot.pieces(x0, x):
        theta = theta + length * complex_sqrt_2m(E, v, m)
    return theta
