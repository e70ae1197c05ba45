"""The four benchmark workloads: seeded inputs, the operation, its checks.

Every workload is a closed loop driven from one process: the next operation
starts when the previous one ends.  An operation's `run` is timed; its
`check` runs after the clock stops and returns an error message or None.
The sts_toa modules are imported inside each workload's constructor, so
their import counts into set-up, and functions are looked up on the module
at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator

CSV_HEADER = "t,rho_sts,rho_kijowski_transmitted,rho_kijowski_free,flux"

# fig2 reference setup, shared by the checks
X_I, P_I, DELTA, BARRIER_L, DETECTOR_X = -50.0, 2.0, 10.0, 10.0, 50.0


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _modules():
    names = ("evolution", "kijowski", "oracle", "packet", "potential", "scenario")
    return {n: importlib.import_module(f"sts_toa.{n}") for n in names}


def _max_abs(a, b) -> float:
    import numpy as np
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class Workload:
    """Defaults shared by the workloads.

    ``cycle`` is the number of operation kinds a loop runs through before it
    may stop.  ``sampling`` says where machine speed may be sampled during an
    operation (speed.py): "self" on the worker's thread, "child" inside the
    CLI child process, "none" only between operations.
    """

    cycle = 1
    sampling = "none"

    def warm_up(self):
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def final_check(self) -> str | None:
        """A check too costly to run per operation, made after the loop."""
        return None


class SweepFine(Workload):
    """Warm fig2 sweep over 32 heights with two worker threads."""

    sampling = "none"  # the op runs on two threads: sample between ops only
    MODELS = ("sts", "kijowski_transmitted", "kijowski_free")

    def __init__(self, seed: int, root: str, tracer=None):
        import numpy as np
        self.m = _modules()
        v0 = [float(v) for v in np.linspace(0.0, 6.0, 32)]
        self.cfg = self.m["scenario"].ScenarioConfig.from_dict(
            {"preset": "fig2", "barrier": {"v0": v0}, "models": list(self.MODELS)})
        rng = np.random.default_rng(seed)
        # which (height, model) the final check recomputes by direct quadrature
        self.direct_point = int(rng.integers(len(v0)))
        self.direct_model = self.MODELS[int(rng.integers(len(self.MODELS)))]
        self.reference = None

    def _op(self):
        return self.m["scenario"].run_scenario(self.cfg, max_workers=2)

    def warm_up(self):
        self._op()

    def ops(self) -> Iterator[Op]:
        while True:
            yield Op("sweep", self._op, self._check)

    def _check(self, result) -> str | None:
        if [p.v0 for p in result.points] != sorted(self.cfg.v0_list):
            return "sweep points out of order or missing"
        zero = result.points[0].distributions
        diff = _max_abs(zero["sts"].density, zero["kijowski_free"].density)
        if not diff < 1e-8:
            return f"V0 = 0: sts vs free Kijowski differ by {diff:.3g} (tol 1e-8)"
        if self.reference is None:
            self.reference = result
            return None
        for pt, ref in zip(result.points, self.reference.points):
            for name in self.MODELS:
                diff = _max_abs(pt.distributions[name].density,
                                ref.distributions[name].density)
                if not diff < 1e-12:
                    return f"V0 = {pt.v0:g} {name}: differs from the first sweep by {diff:.3g}"
        return None

    def final_check(self) -> str | None:
        """Chirp-z vs direct quadrature at one seeded point of the first sweep;
        every later sweep was checked equal to the first."""
        if self.reference is None:
            return None
        ev, kij, cfg = self.m["evolution"], self.m["kijowski"], self.cfg
        pt = self.reference.points[self.direct_point]
        egrid = cfg.energy_grid()
        args = (cfg.packet, pt.v0, cfg.barrier_length, cfg.detector_x, cfg.tgrid)
        if self.direct_model == "sts":
            direct = ev.barrier_toa(*args, egrid=egrid, method="direct")
        elif self.direct_model == "kijowski_transmitted":
            direct = kij.transmitted_kijowski(*args, egrid=egrid, method="direct")
        else:
            direct = ev.free_kijowski(cfg.packet, cfg.detector_x, cfg.tgrid,
                                      egrid=egrid, method="direct")
        diff = _max_abs(direct.density, pt.distributions[self.direct_model].density)
        if not diff < 1e-8:
            return (f"V0 = {pt.v0:g} {self.direct_model}: chirp-z vs direct "
                    f"quadrature {diff:.3g} (tol 1e-8)")
        return None


class CliFig2(Workload):
    """Cold `sts_toa.cli sweep --preset fig2` subprocess, serial."""

    sampling = "child"

    def __init__(self, seed: int, root: str, tracer=None):
        self.root, self.tracer = root, tracer
        self.out = os.path.join(root, "perfbench", "out", "cli")
        os.makedirs(self.out, exist_ok=True)
        self.args = ["sweep", "--preset", "fig2",
                     "--out-csv", os.path.join(self.out, "sweep.csv"),
                     "--out-svg", os.path.join(self.out, "sweep.svg")]
        self.report = os.path.join(self.out, "report.json")
        self.sample = False
        self.expected = None

    def _op(self):
        child = os.path.join(self.root, "perfbench", "cli_child.py")
        if self.tracer is not None and self.tracer.active:
            argv = [sys.executable, child, self.report, "trace", *self.args]
        elif self.sample:
            argv = [sys.executable, child, self.report, "sample", *self.args]
        else:
            argv = [sys.executable, "-m", "sts_toa.cli", *self.args]
        return subprocess.run(argv, cwd=self.root, capture_output=True, text=True,
                              timeout=120)

    def take_report(self) -> dict:
        """What the last CLI child reported about itself (spans or speed samples)."""
        if not os.path.exists(self.report):
            return {}
        with open(self.report, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(self.report)
        return report

    def warm_up(self):
        self._op()
        self._clear()

    def ops(self) -> Iterator[Op]:
        while True:
            yield Op("cli", self._op, self._check)

    def _clear(self):
        for name in os.listdir(self.out):
            if name != "report.json":
                os.remove(os.path.join(self.out, name))

    def _check(self, proc) -> str | None:
        try:
            return self._check_outputs(proc)
        finally:
            self._clear()

    def _check_outputs(self, proc) -> str | None:
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
        csvs = sorted(n for n in os.listdir(self.out) if n.endswith(".csv"))
        if len(csvs) != 4:
            return f"expected 4 CSV files, found {csvs}"
        for name in csvs:
            with open(os.path.join(self.out, name), encoding="utf-8") as fh:
                lines = fh.read().split("\n")
            if lines[0] != CSV_HEADER or lines[-1] != "" or len(lines) != 4096 + 2:
                return f"{name}: bad header or {len(lines) - 2} rows (want 4096)"
        got = [p["arrival_probability"] for p in json.loads(proc.stdout)["points"]]
        if self.expected is None:
            sc = _modules()["scenario"]
            res = sc.run_scenario(sc.ScenarioConfig.from_dict({"preset": "fig2"}))
            self.expected = [p["arrival_probability"] for p in res.summary()["points"]]
        if len(got) != len(self.expected):
            return "summary JSON has the wrong number of points"
        for g, e in zip(got, self.expected):
            for name, val in e.items():
                if not abs(g.get(name, float("nan")) - val) <= 1e-12 * max(1.0, abs(val)):
                    return f"summary arrival probability {name}: {g.get(name)} != {val}"
        return None


class OracleCn(Workload):
    """Crank-Nicolson oracle: Richardson transmitted norm and flux detector."""

    cycle = 2
    sampling = "self"  # single-threaded ops of several seconds
    RICHARDSON_V0 = 1.125

    def __init__(self, seed: int, root: str, tracer=None):
        import numpy as np
        self.np, self.m = np, _modules()
        self.spec = self.m["packet"].GaussianPacketSpec(X_I, P_I, DELTA)
        self.flux_cfg = self.m["scenario"].ScenarioConfig.from_dict(
            {"preset": "fig2", "barrier": {"v0": [0.0]},
             "models": ["flux_oracle", "kijowski_free"]})
        self.kinds = ["richardson", "flux"]
        if np.random.default_rng(seed).integers(2):
            self.kinds.reverse()
        self.p_transmitted = None

    def _richardson(self):
        return self.m["oracle"].barrier_transmission_norm(
            self.spec, self.RICHARDSON_V0, BARRIER_L, time_factor=1.5)

    def _flux(self):
        return self.m["scenario"].run_scenario(self.flux_cfg)

    def warm_up(self):
        """A few CN steps on the coarse Richardson grid, probed and read out."""
        import dataclasses
        orc = self.m["oracle"]
        cfg, x_cut, _ = orc.barrier_oracle_config(self.spec, BARRIER_L, time_factor=1.5,
                                                  dx_target=0.25)
        cfg = dataclasses.replace(cfg, t_final=20 * cfg.dt)
        pot = self.m["potential"].PiecewisePotential.square_barrier(
            self.RICHARDSON_V0, BARRIER_L)
        res = orc.crank_nicolson_evolve(self.spec, pot, cfg, probe_x=(DETECTOR_X,))
        orc.flux_toa(res, DETECTOR_X)
        orc.transmitted_norm(res, x_cut)

    def ops(self) -> Iterator[Op]:
        table = {"richardson": Op("richardson", self._richardson, self._check_norm),
                 "flux": Op("flux", self._flux, self._check_flux)}
        while True:
            for kind in self.kinds:
                yield table[kind]

    def _check_norm(self, norm) -> str | None:
        if self.p_transmitted is None:
            cfg = self.flux_cfg
            self.p_transmitted = self.m["kijowski"].transmitted_kijowski(
                self.spec, self.RICHARDSON_V0, BARRIER_L, DETECTOR_X, cfg.tgrid,
                egrid=cfg.energy_grid()).arrival_probability
        diff = abs(norm - self.p_transmitted)
        if not diff < 1e-3:
            return f"Richardson norm {norm:.6f} vs arrival probability " \
                   f"{self.p_transmitted:.6f}: {diff:.3g} (tol 1e-3)"
        return None

    def _check_flux(self, result) -> str | None:
        np = self.np
        pt = result.points[0]
        t = self.flux_cfg.tgrid.samples
        total = float(np.trapezoid(pt.flux, t))
        if not abs(total - 1.0) < 1e-3:
            return f"flux time integral {total:.6f} (want 1 within 1e-3)"
        rho = pt.distributions["kijowski_free"].density
        l1 = float(np.trapezoid(np.abs(pt.flux / total - rho), t))
        if not l1 < 0.05:
            return f"flux vs free Kijowski L1 {l1:.4f} (tol 0.05)"
        return None


class GridScan(Workload):
    """Single-height compare at V0 = 1.8 on fresh grids every operation."""

    sampling = "none"  # ops of ~0.1 s: samples between ops suffice

    def __init__(self, seed: int, root: str, tracer=None):
        import numpy as np
        self.m = _modules()
        self.rng = np.random.default_rng(seed)
        self.seen = set()

    def _pick(self, lo: int, hi: int, stratum: int, strata: int, step: int = 1) -> int:
        """A uniform draw from one of ``strata`` equal parts of [lo, hi]."""
        span = (hi - lo) // step + 1
        return lo + step * int((stratum + self.rng.random()) * span / strata)

    def _grids(self) -> Iterator[tuple[int, int, int]]:
        """Blocks of 16 operations.  Slice work scales with egrid.n x slices,
        so a block pairs each of 4 egrid.n strata with each of 4 slice-count
        strata; tgrid.n takes one of 16 strata.  Every block then spans the
        same range of op costs, and the median op does not hang on the seed."""
        side = 4
        while True:
            t_strata = self.rng.permutation(side * side)
            block = [(self._pick(4096, 32768, i, side),
                      self._pick(1024, 8192, int(t_strata[side * i + j]), side * side),
                      self._pick(50, 500, j, side, step=5))
                     for i in range(side) for j in range(side)]
            for k in self.rng.permutation(len(block)):
                grids = block[k]
                if grids not in self.seen:  # no two operations share grids
                    self.seen.add(grids)
                    yield grids

    @staticmethod
    def _raw(n_e: int, n_t: int, n_slices: int) -> dict:
        # slices of width 50/n over [0, 50]: a multiple of 5 puts edges on 0 and 10
        return {"preset": "fig2", "barrier": {"v0": [1.8]},
                "models": ["sts", "kijowski_transmitted"],
                "egrid": {"e_min": 1.125, "e_max": 3.125, "n": n_e},
                "tgrid": {"t_min": 0.0, "t_max": 150.0, "n": n_t},
                "method": f"slices:{n_slices}"}

    def _op(self, raw: dict):
        sc = self.m["scenario"]
        cfg = sc.ScenarioConfig.from_dict(raw)
        return cfg, sc.run_scenario(cfg)

    def warm_up(self):
        self._op(self._raw(4096, 1024, 50))

    def ops(self) -> Iterator[Op]:
        for grids in self._grids():
            raw = self._raw(*grids)
            yield Op("scan", lambda raw=raw: self._op(raw), self._check)

    def _check(self, out) -> str | None:
        cfg, result = out
        closed = self.m["evolution"].barrier_toa(
            cfg.packet, 1.8, cfg.barrier_length, cfg.detector_x, cfg.tgrid,
            egrid=cfg.egrid)
        diff = _max_abs(closed.density, result.points[0].distributions["sts"].density)
        if not diff < 1e-10:
            return f"{cfg.method} vs closed form: {diff:.3g} (tol 1e-10)"
        return None


WORKLOADS = {"sweep-fine": SweepFine, "cli-fig2": CliFig2,
             "oracle-cn": OracleCn, "grid-scan": GridScan}
