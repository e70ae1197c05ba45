"""Minimal deterministic SVG line plots (no plotting library, byte-stable)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Curve", "Panel", "render_svg"]

_STYLES = {
    "solid": "",
    "dashed": 'stroke-dasharray="6,4" ',
    "dotted": 'stroke-dasharray="2,3" ',
}
_COLORS = ["#1f3a93", "#c0392b", "#1e8449", "#7d3c98"]
_WIDTH, _HEIGHT = 480, 320  # of one panel
_X_LABEL, _Y_LABEL = "t", "\U0001d4ab(t|x)"
_N_TICKS = 5


@dataclass
class Curve:
    label: str
    t: np.ndarray
    rho: np.ndarray
    style: str = "solid"


@dataclass
class Panel:
    title: str
    curves: list[Curve] = field(default_factory=list)


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, _N_TICKS)
    return [float(v) for v in raw]


def _coords(values: np.ndarray) -> list[str]:
    """Each value as ``f"{v:.2f}"`` gives it, from one ``%`` over the array."""
    return ("%.2f\n" * len(values) % tuple(values.tolist())).splitlines()


def render_svg(panels: list[Panel], path: str):
    """Write a standalone multi-panel SVG, one panel per row."""
    if not panels:
        raise ValueError("need at least one panel")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in _svg_lines(panels))


def _svg_lines(panels: list[Panel]):
    pad_l, pad_r, pad_t, pad_b = 64, 16, 28, 40
    total_h = _HEIGHT * len(panels)
    yield '<?xml version="1.0" encoding="UTF-8"?>'
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
           f'height="{total_h}" viewBox="0 0 {_WIDTH} {total_h}">')
    yield '<rect width="100%" height="100%" fill="white"/>'
    # (id(t), t_lo, t_hi) -> (t, its x text); holding t keeps its id
    x_text = {}
    for ip, panel in enumerate(panels):
        oy = ip * _HEIGHT
        x0, x1 = pad_l, _WIDTH - pad_r
        y0, y1 = oy + _HEIGHT - pad_b, oy + pad_t
        t_lo = min(float(c.t[0]) for c in panel.curves)
        t_hi = max(float(c.t[-1]) for c in panel.curves)
        r_hi = max(float(np.max(c.rho)) for c in panel.curves)
        r_hi = r_hi if r_hi > 0 else 1.0

        def sx(t):
            return x0 + (t - t_lo) / (t_hi - t_lo) * (x1 - x0)

        def sy(r):
            return y0 - r / (1.05 * r_hi) * (y0 - y1)

        yield '<g font-family="sans-serif" font-size="11">'
        yield (f'<text x="{(x0 + x1) / 2:.1f}" y="{oy + 16}" '
               f'text-anchor="middle" font-size="13">{panel.title}</text>')
        # axes
        yield f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>'
        yield f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>'
        for tv in _ticks(t_lo, t_hi):
            px = sx(tv)
            yield f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 4}" stroke="black"/>'
            yield f'<text x="{px:.2f}" y="{y0 + 16}" text-anchor="middle">{tv:.2f}</text>'
        for rv in _ticks(0.0, 1.05 * r_hi):
            py = sy(rv)
            yield f'<line x1="{x0 - 4}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="black"/>'
            yield f'<text x="{x0 - 6}" y="{py + 3:.2f}" text-anchor="end">{rv:.3g}</text>'
        yield (f'<text x="{(x0 + x1) / 2:.1f}" y="{y0 + 32}" text-anchor="middle" '
               f'font-style="italic">{_X_LABEL}</text>')
        yield (f'<text x="14" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
               f'font-style="italic" transform="rotate(-90 14 {(y0 + y1) / 2:.1f})">'
               f'{_Y_LABEL}</text>')
        # curves and legend
        for ic, c in enumerate(panel.curves):
            color = _COLORS[ic % len(_COLORS)]
            dash = _STYLES.get(c.style, "")
            # sx and sy act elementwise in the scalar operation order; the x
            # text of a (t, t_lo, t_hi) is formatted once per call
            key = id(c.t), t_lo, t_hi
            if key not in x_text:
                x_text[key] = c.t, _coords(sx(c.t))
            pts = " ".join(map(",".join, zip(x_text[key][1], _coords(sy(c.rho)), strict=True)))
            yield (f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5" {dash}/>')
            ly = y1 + 14 * ic
            yield (f'<line x1="{x1 - 130}" y1="{ly}" x2="{x1 - 104}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="1.5" {dash}/>')
            yield f'<text x="{x1 - 100}" y="{ly + 3}">{c.label}</text>'
        yield '</g>'
    yield '</svg>'
