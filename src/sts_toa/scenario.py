"""Scenario configuration, execution, and result emission (CSV / SVG).

A scenario bundles a Gaussian packet, a square barrier (possibly a sweep over
several heights), a detector position, the grids, and the set of arrival-time
models to evaluate.  Configurations are plain JSON; the ``fig2`` preset
expands to the reference scattering setup (packet at x_i = -50 with P_0 = 2
and delta = 10, barrier of length 10, detector at x = 50) and explicit fields
override preset values.  Execution is deterministic: the same config produces
byte-identical CSV and SVG output.
"""

from __future__ import annotations

import json
import re
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .evolution import (TOADistribution, barrier_amplitude, check_scattering_setup,
                        free_kijowski)
from .kijowski import model_distance, transmitted_amplitude
from .numerics import EnergyGrid, TimeGrid, fourier_E_to_t, trapezoid_complex
from .packet import GaussianPacketSpec, SpectralAmplitude, default_energy_grid
from .potential import PiecewisePotential
from .svgplot import Curve, Panel, render_svg

__all__ = [
    "MODEL_NAMES", "COMPARED_PAIR", "ScenarioConfig", "SweepPoint", "ScenarioResult",
    "run_scenario", "emit_csv", "emit_svg",
]

# the two transmitted-packet models: both need the scattering setup, and a
# sweep point with both reports their L1 distance
COMPARED_PAIR = ("sts", "kijowski_transmitted")

# the closed-form models in CSV column and SVG curve order, with each curve's
# line style and legend label
_CURVES = {"sts": ("solid", "STS"),
           "kijowski_transmitted": ("dashed", "Kijowski (transmitted)"),
           "kijowski_free": ("dotted", "Kijowski (free)")}

MODEL_NAMES = (*_CURVES, "flux_oracle")

_CSV_HEADER = ",".join(["t", *(f"rho_{name}" for name in _CURVES), "flux"])

_METHOD_RE = re.compile(r"^(closed|slices:(\d+))$")

# caps on array sizes; 2**20 is 32x the largest grid any test or benchmark uses
_MAX_SLICES = 100_000
_MAX_GRID_POINTS = 2**20

# from this phase magnitude on, adjacent doubles lie >= 1 rad apart
_MAX_PHASE = 2.0**52

# every field from_dict reads, a section's keys prefixed by its name
_FIELDS = {"packet", "packet.x_i", "packet.p_i", "packet.delta", "packet.m", "detector_x",
           "barrier", "barrier.v0", "barrier.length", "tgrid", "tgrid.t_min", "tgrid.t_max",
           "tgrid.n", "egrid", "egrid.e_min", "egrid.e_max", "egrid.n", "models", "method"}

# Expanded form of the reference figure: barrier sweep over four heights,
# detector well past the barrier, time window wide enough for the slow
# over-barrier components.
FIG2_PRESET = {
    "packet": {"x_i": -50.0, "p_i": 2.0, "delta": 10.0, "m": 1.0},
    "barrier": {"v0": [0.0, 1.125, 1.8, 4.5], "length": 10.0},
    "detector_x": 50.0,
    "tgrid": {"t_min": 0.0, "t_max": 150.0, "n": 4096},
    "egrid": None,
    "models": ["sts", "kijowski_transmitted", "kijowski_free"],
    "method": "closed",
}

PRESETS = {"fig2": FIG2_PRESET}


def _finite_float(val, field_name):
    """``val`` as a finite float, or a ConfigError naming ``field_name``."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(field_name, f"expected float, got {type(val).__name__}")
    if not abs(val) <= sys.float_info.max:  # NaN, infinities, ints past the range
        raise ConfigError(field_name, "must be a finite number")
    return float(val)


def _require(dct, key, typ, field_name, at_most=None):
    if key not in dct:
        raise ConfigError(field_name, "missing required field")
    val = dct[key]
    if typ is float:
        return _finite_float(val, field_name)
    if isinstance(val, bool) or not isinstance(val, typ):  # a bool is an int
        raise ConfigError(field_name, f"expected {typ.__name__}, got {type(val).__name__}")
    if at_most is not None and val > at_most:
        raise ConfigError(field_name, f"must be <= {at_most}, got {val}")
    return val


def _heights(val) -> tuple[float, ...]:
    """``barrier.v0``, one number or a list of them, as finite floats."""
    return tuple(_finite_float(v, "barrier.v0")
                 for v in (val if isinstance(val, (list, tuple)) else [val]))


def _model_names(val) -> tuple[str, ...]:
    if not isinstance(val, (list, tuple)) or not all(isinstance(mn, str) for mn in val):
        raise ConfigError("models", "expected a list of model names")
    return tuple(val)


# the fields a CLI subcommand or flag may force, and how from_dict reads each
_FORCIBLE = {"models": _model_names, "v0_list": _heights, "method": str}


def _check_forcible(models, v0_list, method):
    """The per-field checks of the fields a CLI subcommand or flag may force."""
    if not models:
        raise ConfigError("models", "at least one model is required")
    for name in models:
        if name not in MODEL_NAMES:
            raise ConfigError("models", f"unknown model {name!r}; choose from {MODEL_NAMES}")
    if not v0_list:
        raise ConfigError("barrier.v0", "at least one barrier height is required")
    match = _METHOD_RE.match(method)
    if not match:
        raise ConfigError("method", "must be 'closed' or 'slices:<n>'")
    if match.group(2) is not None and not 1 <= int(match.group(2)) <= _MAX_SLICES:
        raise ConfigError("method", f"slice count must be in [1, {_MAX_SLICES}]")


def _build(field_name, make):
    """Call ``make()``; a ValueError or OverflowError it raises becomes a
    ConfigError naming ``field_name``."""
    try:
        return make()
    except ConfigError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ConfigError(field_name, str(exc)) from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description (see module docstring for the schema)."""

    packet: GaussianPacketSpec
    v0_list: tuple[float, ...]
    barrier_length: float
    detector_x: float
    tgrid: TimeGrid
    egrid: EnergyGrid | None = None
    models: tuple[str, ...] = tuple(FIG2_PRESET["models"])
    method: str = "closed"

    def __post_init__(self):
        _check_forcible(self.models, self.v0_list, self.method)
        # sweep order, one height per value: -0.0 + 0.0 is 0.0
        object.__setattr__(self, "v0_list", tuple(sorted({v + 0.0 for v in self.v0_list})))
        if not self.barrier_length > 0:
            raise ConfigError("barrier.length", "must be > 0")
        if set(COMPARED_PAIR) & set(self.models):
            check_scattering_setup(self.packet, self.barrier_length, self.detector_x)
        self._check_derived_scales()
        if "flux_oracle" in self.models:
            # imported here so that a sweep without the grid solver never loads it
            from .oracle import flux_oracle_config
            try:
                flux_oracle_config(self.packet, self.detector_x, self.tgrid.t_max)
            except ConfigError as exc:
                field_name = "detector_x" if exc.field == "n_x" else "tgrid.t_max"
                raise ConfigError(field_name, f"flux_oracle solver grid: {exc}") from exc
            except ValueError as exc:  # detector off the grid's nodes, or left of the packet
                raise ConfigError("detector_x", f"flux_oracle solver grid: {exc}") from exc

    def _check_derived_scales(self):
        """Reject finite inputs whose derived weights or phases overflow.

        The pipeline forms the momenta P = sqrt(2 m E) and weights
        (m / 2E)^(1/4) at the energy-grid ends, the packet's prefactor
        (2 delta^2 / pi)^(1/4) and phase P x_i, the detector phase P x, the
        time-window phases E t_min and E t_max and the barrier exponent
        kappa L = sqrt(2 m |E - V0|) L; one of them past the float range would
        end the run in non-finite amplitudes.  A phase of magnitude >= 2**52
        rad is rejected as well: there adjacent doubles lie >= 1 rad apart, so
        the phase carries no digits.  kappa L is a phase only where E >= V0;
        below V0 it is a decay exponent, and an opaque barrier is no error.
        """
        spec = self.packet
        egrid = _build("packet", self.energy_grid)
        with np.errstate(all="ignore"):
            E = np.array([egrid.e_min, egrid.e_max])
            P = np.sqrt(2.0 * spec.m * E)
            # (field, quantity, values, which of the values are phases)
            scales = [
                ("packet" if self.egrid is None else "egrid",
                 "momentum sqrt(2 m E) or weight (m / 2E)^(1/4) at the grid ends",
                 np.append(P, (spec.m / (2.0 * E)) ** 0.25), False),
                ("packet.delta", "prefactor (2 delta^2 / pi)^(1/4)",
                 (2.0 * np.float64(spec.delta) ** 2 / np.pi) ** 0.25, False),
                ("packet.x_i", "phase P x_i", P * spec.x_i, True),
                ("detector_x", "phase P x", P * self.detector_x, True),
                ("tgrid.t_min", "phase E t_min", E * self.tgrid.t_min, True),
                ("tgrid.t_max", "phase E t_max", E * self.tgrid.t_max, True),
            ] + [("barrier.v0", f"exponent sqrt(2 m (E - V0)) L at V0 = {v0:g}",
                  np.sqrt(2.0 * spec.m * np.abs(E - v0)) * self.barrier_length, E >= v0)
                 for v0 in self.v0_list]
        for name, what, values, is_phase in scales:
            if not np.all(np.isfinite(values)):
                raise ConfigError(name, f"{what} overflows a double")
            if np.any(is_phase & (np.abs(values) >= _MAX_PHASE)):
                raise ConfigError(name, f"{what} reaches 2**52 rad or more, where "
                                        "adjacent doubles lie >= 1 rad apart")

    @property
    def n_slices(self) -> int | None:
        n = _METHOD_RE.match(self.method).group(2)
        return None if n is None else int(n)

    def energy_grid(self) -> EnergyGrid:
        """The energy grid every model runs on: the config's ``egrid`` when it
        gives one, else the default grid of the time window
        (``packet.default_energy_grid``)."""
        if self.egrid is not None:
            return self.egrid
        return default_energy_grid(self.packet, self.tgrid)

    @classmethod
    def from_dict(cls, raw: dict, forced: dict | None = None) -> "ScenarioConfig":
        """The config ``raw`` describes; ``forced`` maps ``models``, ``v0_list``
        or ``method`` to values that replace the config's own once those pass
        their per-field checks, so the cross-field checks see the forced values."""
        raw = dict(raw)
        preset_name = raw.pop("preset", None)
        if preset_name is not None:
            if preset_name not in PRESETS:
                raise ConfigError("preset", f"unknown preset {preset_name!r}")
            merged = json.loads(json.dumps(PRESETS[preset_name]))  # deep copy
            for key, val in raw.items():
                if isinstance(val, dict) and isinstance(merged.get(key), dict):
                    merged[key] = {**merged[key], **val}
                else:
                    merged[key] = val
            raw = merged
        unknown = sorted({*raw, *(f"{key}.{sub}" for key, val in raw.items()
                                  if isinstance(val, dict) for sub in val)} - _FIELDS)
        if unknown:
            raise ConfigError(unknown[0], "unknown field")

        pk = _require(raw, "packet", dict, "packet")
        packet = _build("packet", lambda: GaussianPacketSpec(
            x_i=_require(pk, "x_i", float, "packet.x_i"),
            p_i=_require(pk, "p_i", float, "packet.p_i"),
            delta=_require(pk, "delta", float, "packet.delta"),
            m=_require(pk, "m", float, "packet.m") if "m" in pk else 1.0))

        br = _require(raw, "barrier", dict, "barrier")
        v0_list = _heights(br.get("v0", 0.0))
        length = _require(br, "length", float, "barrier.length")

        tg = _require(raw, "tgrid", dict, "tgrid")
        tgrid = _build("tgrid", lambda: TimeGrid(
            t_min=_require(tg, "t_min", float, "tgrid.t_min"),
            t_max=_require(tg, "t_max", float, "tgrid.t_max"),
            n=_require(tg, "n", int, "tgrid.n", _MAX_GRID_POINTS)))

        egrid = None
        if raw.get("egrid") is not None:
            eg = _require(raw, "egrid", dict, "egrid")
            egrid = _build("egrid", lambda: EnergyGrid(
                e_min=_require(eg, "e_min", float, "egrid.e_min"),
                e_max=_require(eg, "e_max", float, "egrid.e_max"),
                n=_require(eg, "n", int, "egrid.n", _MAX_GRID_POINTS)))

        models = _model_names(raw.get("models", FIG2_PRESET["models"]))
        method = str(raw.get("method", "closed"))
        _check_forcible(models, v0_list, method)  # the config's own, even if forced

        fields = dict(packet=packet, v0_list=v0_list, barrier_length=length,
                      detector_x=_require(raw, "detector_x", float, "detector_x"),
                      tgrid=tgrid, egrid=egrid, models=models, method=method)
        fields.update((key, _FORCIBLE[key](val)) for key, val in (forced or {}).items())
        return cls(**fields)


@dataclass
class SweepPoint:
    """All requested model outputs at one barrier height."""

    v0: float
    distributions: dict[str, TOADistribution]
    flux: np.ndarray | None = None
    distance_sts_kijowski: float | None = None

    def means(self) -> dict[str, float]:
        return {name: dist.mean_time() for name, dist in self.distributions.items()}


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    points: list[SweepPoint] = field(default_factory=list)

    @property
    def tgrid(self) -> TimeGrid:
        return self.config.tgrid

    def summary(self) -> dict:
        """JSON-friendly digest: per-V0 arrival probabilities, means, distances."""
        out = []
        for pt in self.points:
            rec = {"v0": pt.v0,
                   "arrival_probability": {n: d.arrival_probability
                                           for n, d in pt.distributions.items()},
                   "mean_time": pt.means(),
                   "time_window": [self.tgrid.t_min, self.tgrid.t_max]}
            if pt.flux is not None:
                # the current's time integral over the window, and its mean
                # time where that integral is positive
                dt = self.tgrid.spacing
                total = float(trapezoid_complex(pt.flux, dt).real)
                moment = float(trapezoid_complex(self.tgrid.samples * pt.flux, dt).real)
                rec["arrival_probability"]["flux_oracle"] = total
                rec["mean_time"]["flux_oracle"] = moment / total if total > 0 else None
            if pt.distance_sts_kijowski is not None:
                rec["l1_distance_sts_kijowski"] = pt.distance_sts_kijowski
            out.append(rec)
        return {"points": out}


def _flux_oracle_series(cfg: ScenarioConfig, v0: float) -> np.ndarray:
    """Probability current at the detector from the grid solver, resampled
    onto the scenario time grid."""
    from .oracle import crank_nicolson_evolve, flux_oracle_config, flux_toa
    pot = PiecewisePotential.square_barrier(v0, cfg.barrier_length)
    grid = flux_oracle_config(cfg.packet, cfg.detector_x, cfg.tgrid.t_max)
    result = crank_nicolson_evolve(cfg.packet, pot, grid, probe_x=(cfg.detector_x,))
    series = flux_toa(result, cfg.detector_x)
    return np.interp(cfg.tgrid.samples, series.times, series.current)


def _slices_cut_at_edges(cfg: ScenarioConfig, v0: float) -> bool:
    """Whether the config's method gives the closed form's levels and widths
    on the path from the initial amplitude's anchor x0 = 0 to the detector;
    the translation then multiplies the same factors, bit for bit."""
    if cfg.n_slices is None:
        return True
    pot = PiecewisePotential.square_barrier(v0, cfg.barrier_length)
    sliced = pot.levels(0.0, cfg.detector_x, cfg.n_slices)
    exact = pot.levels(0.0, cfg.detector_x)
    return all(np.array_equal(s, e) for s, e in zip(sliced, exact))


# heights per block of run_scenario: one stacked chirp-z call per model and block costs
# less per row than one call per height (53-61 against 82 us at 8192 points, 2-vCPU x86-64)
_BLOCK = 4


def _stacks(cfg: ScenarioConfig, egrid: EnergyGrid):
    """Yield ``(model, heights, amplitudes)`` for each block of ``_BLOCK``
    heights and each requested transmitted-packet model, in sweep order."""
    def setup(v0):
        return cfg.packet, v0, cfg.barrier_length, cfg.detector_x, egrid

    for i in range(0, len(cfg.v0_list), _BLOCK):
        heights = cfg.v0_list[i:i + _BLOCK]
        closed = [None] * len(heights)
        if "sts" in cfg.models:
            sts = [barrier_amplitude(*setup(v0), n_slices=cfg.n_slices) for v0 in heights]
            closed = [amps if _slices_cut_at_edges(cfg, v0) else None
                      for amps, v0 in zip(sts, heights)]
            yield "sts", heights, sts
        if "kijowski_transmitted" in cfg.models:
            # the Kijowski amplitude is the closed-form sts amplitude times R(E);
            # slices that cut the path elsewhere need the closed form built apart
            kijowski = [transmitted_amplitude(barrier_amplitude(*setup(v0)) if amps is None
                                              else amps, v0, cfg.barrier_length)
                        for amps, v0 in zip(closed, heights)]
            closed = sts = None  # freed before the Kijowski transform
            yield "kijowski_transmitted", heights, kijowski


def _transform(amps: list[SpectralAmplitude], tgrid: TimeGrid) -> np.ndarray:
    """The energy->time sums of ``amps`` on ``tgrid``, one stacked call."""
    rows = [a.values for a in amps]
    # one amplitude goes in as a 1-row view of its own array, not a copy
    return fourier_E_to_t(rows[0][None] if len(rows) == 1 else rows, amps[0].egrid, tgrid)


def run_scenario(cfg: ScenarioConfig, max_workers: int = 1) -> ScenarioResult:
    """Evaluate every requested model at every barrier height.

    Every model runs on ``cfg.energy_grid()``.  At each height the
    transmitted Kijowski model multiplies the closed-form ``sts`` amplitude
    by R(E).  Under ``slices:<n>`` that amplitude is the sliced one when the
    slices give exactly the closed form's levels and widths, and is built
    apart otherwise.

    The heights run in blocks of ``_BLOCK``, and each model's energy->time
    transforms of a block run as one stacked ``fourier_E_to_t`` call.  The
    calling thread builds every amplitude, density and distance.  With
    ``max_workers`` > 1, min(``max_workers`` - 1, number of stacks) pool
    threads run only the transforms: the caller submits each stack and
    assembles the oldest once more wait than there are pool threads, so it
    builds and assembles while the pool transforms.  Results are assembled
    in the config's ascending V0 order either way, so output is deterministic.
    """
    egrid, tgrid = cfg.energy_grid(), cfg.tgrid
    free_dist = (free_kijowski(cfg.packet, cfg.detector_x, tgrid, egrid=egrid)
                 if "kijowski_free" in cfg.models else None)
    points = {v0: SweepPoint(v0=v0, distributions={}) for v0 in cfg.v0_list}

    def assemble(model, heights, amps, series):
        for v0, a, row in zip(heights, amps, series):
            points[v0].distributions[model] = TOADistribution.from_transform(a, row, tgrid)

    n_stacks = -(-len(cfg.v0_list) // _BLOCK) * len(set(COMPARED_PAIR) & set(cfg.models))
    threads = min(max_workers - 1, n_stacks)
    if threads > 0:
        # imported here: with the logging it loads, it costs a cold CLI ~4-5 ms
        from concurrent.futures import ThreadPoolExecutor
        pending = deque()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for model, heights, amps in _stacks(cfg, egrid):
                pending.append((model, heights, amps, pool.submit(_transform, amps, tgrid)))
                if len(pending) > threads:
                    *stack, future = pending.popleft()
                    assemble(*stack, future.result())
            for *stack, future in pending:
                assemble(*stack, future.result())
    else:
        for model, heights, amps in _stacks(cfg, egrid):
            assemble(model, heights, amps, _transform(amps, tgrid))

    for pt in points.values():
        d = pt.distributions
        if free_dist is not None:
            d["kijowski_free"] = free_dist
        if "flux_oracle" in cfg.models:
            pt.flux = _flux_oracle_series(cfg, pt.v0)
        if set(COMPARED_PAIR) <= d.keys():
            pt.distance_sts_kijowski = model_distance(*(d[name] for name in COMPARED_PAIR))
    return ScenarioResult(config=cfg, points=list(points.values()))


def _point_path(base: Path, v0: float) -> Path:
    tag = f"{v0:.17g}".replace(".", "p").replace("-", "m")
    return base.with_name(f"{base.stem}_v0_{tag}{base.suffix}")


def _fields(values: np.ndarray) -> list[str]:
    """Each value as ``f"{x:.17g}"`` gives it, from one ``%`` over the array."""
    return ("%.17g\n" * len(values) % tuple(values.tolist())).splitlines()


def emit_csv(result: ScenarioResult, path) -> list[Path]:
    """Write the density/flux table(s); one file per barrier height.

    Columns: ``t,rho_sts,rho_kijowski_transmitted,rho_kijowski_free,flux``.
    Models that were not requested leave their column empty.  Floats carry 17
    significant digits, lines end in LF, encoding is UTF-8.  A single-height
    scenario writes exactly ``path``; a sweep derives one file name per V0.
    """
    if not result.points:
        raise ConfigError("barrier.v0", "no sweep points to emit")
    base = Path(path)
    paths = ([base] if len(result.points) == 1
             else [_point_path(base, pt.v0) for pt in result.points])
    t = result.tgrid.samples
    empty = [""] * len(t)
    # id -> (array, its fields) for the columns of the last file written; an
    # array the next file uses too (the time grid, a density the heights
    # share) keeps its text, and holding the array keeps its id its own
    text = {}
    for pt, p in zip(result.points, paths):
        cols = [t, *(None if d is None else d.density
                     for d in map(pt.distributions.get, _CURVES)), pt.flux]
        text = {id(c): text.get(id(c)) or (c, _fields(c)) for c in cols if c is not None}
        fields = [empty if c is None else text[id(c)][1] for c in cols]
        rows = map(",".join, zip(*fields, strict=True))
        with open(p, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    return paths


def emit_svg(result: ScenarioResult, path) -> Path:
    """Render the sweep as a stacked-panel SVG, one panel per barrier height.

    Solid line: space-conditional model; dashed: transmitted Kijowski;
    dotted: free Kijowski when requested.
    """
    if not result.points:
        raise ConfigError("barrier.v0", "no sweep points to plot")
    t = result.tgrid.samples
    panels = []
    for pt in result.points:
        curves = []
        for name, (style, label) in _CURVES.items():
            d = pt.distributions.get(name)
            if d is not None:
                curves.append(Curve(label=label, t=t, rho=d.density, style=style))
        if pt.flux is not None:
            curves.append(Curve(label="flux oracle", t=t, rho=np.clip(pt.flux, 0.0, None),
                                style="solid"))
        panels.append(Panel(title=f"V0 = {pt.v0:g}", curves=curves))
    render_svg(panels, str(path))
    return Path(path)
