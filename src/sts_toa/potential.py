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

    def levels(self, a: float, b: float, n_slices: int | None = None):
        """Distinct potential levels on the path a -> b and their path widths.

        The path is cut at the segment edges it crosses (exact), or into
        n_slices equal slices, and V is read at each piece's midpoint.
        Returns (levels, widths) arrays, levels ascending; widths are signed,
        negative for b < a and zero for b == a.
        """
        if n_slices is None:
            inner = sorted((e for e in self.edges if min(a, b) < e < max(a, b)),
                           reverse=b < a)
            bounds = np.array([a, *inner, b], dtype=float)
        elif n_slices < 1:
            raise ValueError("n_slices must be >= 1")
        else:
            bounds = np.linspace(a, b, n_slices + 1)
        levels, level_of = np.unique(self.value_at(0.5 * (bounds[:-1] + bounds[1:])),
                                     return_inverse=True)
        return levels, np.bincount(level_of, weights=np.diff(bounds))


def phase_theta(pot: PiecewisePotential, E, m: float, x0: float, x: float,
                n_slices: int | None = None):
    """Complex phase theta(E; x0 -> x) = integral sqrt(2m[E-V]) dx'.

    The sum over potential levels, sum_v W_v sqrt(2m[E - V_v]), with the
    signed widths W_v of ``PiecewisePotential.levels``: exact with segment
    cuts, the midpoint rule with n_slices equal slices.  E may be an array.
    The real part is the oscillatory phase, the imaginary part the decay
    exponent accumulated in forbidden regions (nonnegative for x > x0).
    Reversing x0 and x flips the sign.  The propagators of ``evolution``
    apply exp(i theta) as one factor per term of this sum.
    """
    theta = 0j
    for v, w in zip(*pot.levels(x0, x, n_slices)):
        theta = theta + w * complex_sqrt_2m(E, v, m)
    return theta
