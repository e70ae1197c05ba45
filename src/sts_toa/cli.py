"""Command-line front end.

Subcommands
-----------
free-toa      arrival-time density of the free packet at the detector
barrier-toa   space-conditional density behind the square barrier
compare       space-conditional vs transmitted-Kijowski densities + L1 distance
sweep         the above over a list of barrier heights
oracle        cross-check arrival probability against the grid solver
selfcheck     run the fast invariant suite and print pass/fail lines

Each subcommand takes only the flags it reads (see its --help).  Exit codes:
0 success, 2 configuration error (an unknown flag or config key included),
3 numerical failure (zero arrival, aliasing grid, evanescent overflow,
unstable solver grid, or a failed selfcheck).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .errors import (ConfigError, DivergenceWarning, GridMismatch,
                     GridTooCoarse, UnstableConfig, ZeroArrival)
from .scenario import (COMPARED_PAIR, MODEL_NAMES, ScenarioConfig, emit_csv, emit_svg,
                       run_scenario)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_NUMERIC_ERRORS = (ZeroArrival, GridTooCoarse, DivergenceWarning,
                   UnstableConfig, GridMismatch)


# every flag a subcommand may take, in --help order; a flag the subcommand
# does not take is absent from its namespace
_FLAGS = {
    "--config": dict(metavar="PATH", help="JSON scenario config"),
    "--preset": dict(choices=["fig2"], help="named parameter preset"),
    "--v0": dict(metavar="LIST", help="comma-separated barrier heights, overrides config"),
    "--method": dict(metavar="M", help="propagation method: closed | slices:<n>"),
    "--models": dict(metavar="LIST",
                     help=f"comma-separated subset of {','.join(MODEL_NAMES)}"),
    "--out-csv": dict(metavar="PATH", help="write density table(s)"),
    "--out-svg": dict(metavar="PATH", help="write stacked-panel plot"),
    "--time-factor": dict(type=float, default=5.0,
                          help="measurement time in units of the free crossing time"),
}


# the models and barrier heights a subcommand forces over the config's
_FORCED = {"free-toa": {"models": ("kijowski_free",), "v0_list": (0.0,)},
           "barrier-toa": {"models": ("sts",)},
           "oracle": {"models": ("kijowski_transmitted",)}}


def _build_config(args) -> ScenarioConfig:
    raw = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("--config", str(exc))
        except json.JSONDecodeError as exc:
            raise ConfigError("--config", f"invalid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("--config", "top-level value must be an object")
    if args.preset:
        raw["preset"] = args.preset
    if not raw:
        raise ConfigError("--config", "provide --config and/or --preset")
    # flag values replace the config's own as the values a subcommand forces
    # do, once those pass their checks; no subcommand both forces a value and
    # takes its flag
    forced = dict(_FORCED.get(args.command, {}))
    if getattr(args, "v0", None) is not None:
        try:
            forced["v0_list"] = [float(s) for s in args.v0.split(",") if s.strip()]
        except ValueError:
            raise ConfigError("--v0", f"not a number list: {args.v0!r}")
    if getattr(args, "method", None) is not None:
        forced["method"] = args.method
    if getattr(args, "models", None) is not None:
        forced["models"] = [s.strip() for s in args.models.split(",") if s.strip()]
    cfg = ScenarioConfig.from_dict(raw, forced=forced)
    if args.command == "compare":  # the requested models plus the compared pair
        missing = tuple(m for m in COMPARED_PAIR if m not in cfg.models)
        cfg = replace(cfg, models=cfg.models + missing)
    return cfg


def _emit(result, args):
    if args.out_csv:
        try:
            paths = emit_csv(result, args.out_csv)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise ConfigError("--out-csv", str(exc)) from exc
        for p in paths:
            print(f"wrote {p}", file=sys.stderr)
    if args.out_svg:
        try:
            path = emit_svg(result, args.out_svg)
        except OSError as exc:
            raise ConfigError("--out-svg", str(exc)) from exc
        print(f"wrote {path}", file=sys.stderr)
    json.dump(result.summary(), sys.stdout, indent=2, sort_keys=True)
    print()


def _cmd_scenario(args) -> int:
    _emit(run_scenario(_build_config(args)), args)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .evolution import barrier_amplitude
    from .kijowski import transmitted_amplitude
    from .oracle import barrier_transmission_norm

    if not 0.0 < args.time_factor < float("inf"):
        raise ConfigError("--time-factor", "must be a finite number > 0")
    cfg = _build_config(args)
    rows = []
    for v0 in cfg.v0_list:
        sts = barrier_amplitude(cfg.packet, v0, cfg.barrier_length, cfg.detector_x,
                                cfg.energy_grid())
        arrival = transmitted_amplitude(sts, v0, cfg.barrier_length).arrival_probability()
        try:
            solver = barrier_transmission_norm(cfg.packet, v0, cfg.barrier_length,
                                               time_factor=args.time_factor)
        except ConfigError as exc:  # more than 2**20 grid points or steps
            raise ConfigError("--time-factor", str(exc)) from exc
        rows.append({"v0": v0,
                     "arrival_probability": arrival,
                     "grid_solver_transmitted_norm": solver,
                     "difference": arrival - solver})
    json.dump({"oracle": rows}, sys.stdout, indent=2, sort_keys=True)
    print()
    return EXIT_OK


def _selfcheck_cases():
    from .evolution import propagate
    from .kijowski import transmission_amplitude
    from .numerics import EnergyGrid, TimeGrid, fourier_E_to_t
    from .oracle import transfer_matrix_T
    from .packet import GaussianPacketSpec, sc_initial_amplitude
    from .potential import PiecewisePotential

    spec = GaussianPacketSpec(x_i=-50.0, p_i=2.0, delta=10.0)
    egrid = EnergyGrid(0.5, 4.0, 4096)
    tgrid = TimeGrid(0.0, 120.0, 1024)

    def fourier_paths():
        rng = np.random.default_rng(7)
        e = egrid.samples
        a = (np.exp(-((e - 2.0) / 0.4) ** 2)
             * np.exp(1j * rng.normal(0.0, 0.1) * e))
        fft = fourier_E_to_t(a, egrid, tgrid, method="fft")
        direct = fourier_E_to_t(a, egrid, tgrid, method="direct")
        return float(np.max(np.abs(fft - direct))), 1e-8

    def transfer_vs_closed():
        p = np.linspace(0.501, 4.001, 512)
        T, _ = transfer_matrix_T(p, 4.5, 10.0)
        Tc = transmission_amplitude(p, 4.5, 10.0)
        return float(np.max(np.abs(T - Tc))), 1e-10

    def unitarity():
        p = np.linspace(0.501, 4.001, 512)
        T, R = transfer_matrix_T(p, 1.8, 10.0)
        return float(np.max(np.abs(np.abs(T) ** 2 + np.abs(R) ** 2 - 1.0))), 1e-12

    def slices_vs_closed():
        pot = PiecewisePotential.square_barrier(1.8, 10.0)
        amps = sc_initial_amplitude(spec, egrid)
        a = propagate(amps, pot, 50.0)
        # 50 slices over [0, 50] give the closed form's levels and widths
        b = propagate(amps, pot, 50.0, 50)
        scale = float(np.max(np.abs(a.values)))
        return float(np.max(np.abs(a.values - b.values))) / scale, 1e-10

    return [("fourier fft vs direct quadrature", fourier_paths),
            ("transfer matrix vs closed-form T", transfer_vs_closed),
            ("|T|^2 + |R|^2 = 1", unitarity),
            ("slice propagation vs closed form", slices_vs_closed)]


def _cmd_selfcheck(args) -> int:
    failures = 0
    for name, fn in _selfcheck_cases():
        try:
            err, tol = fn()
            ok = err < tol
            detail = f"max err {err:.3g} (tol {tol:g})"
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sts-toa",
        description="Quantum time-of-arrival distributions behind a square "
                    "barrier: space-conditional model vs Kijowski, with a "
                    "standard-QM grid-solver oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    io = {"--config", "--preset", "--out-csv", "--out-svg"}
    scenario = io | {"--v0", "--method", "--models"}
    for name, fn, doc, flags in [
            ("free-toa", _cmd_scenario, "free-packet arrival density", io),
            ("barrier-toa", _cmd_scenario, "space-conditional density behind the barrier",
             io | {"--v0", "--method"}),
            ("compare", _cmd_scenario, "model comparison with L1 distances", scenario),
            ("sweep", _cmd_scenario, "barrier-height sweep", scenario),
            ("oracle", _cmd_oracle, "arrival probability vs grid-solver transmitted norm",
             {"--config", "--preset", "--v0", "--time-factor"}),
            ("selfcheck", _cmd_selfcheck, "run the fast invariant suite", set())]:
        p = sub.add_parser(name, help=doc)
        p.set_defaults(_handler=fn)
        for flag, spec in _FLAGS.items():
            if flag in flags:
                p.add_argument(flag, **spec)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args._handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
