"""Layer spans recorded from outside the program.

`Tracer.install` replaces every public function of the sts_toa modules with
a timing wrapper, in every module that binds it: `from .evolution import
barrier_toa` copies the name into `scenario` at import, so wrapping only
`evolution.barrier_toa` would miss the calls the scenario runner makes.
Spans stay in memory and are written when the run ends.

A span is (id, name, start, end, parent, op, thread, counters).  Spans of one
benchmark operation share its op id; a span opened on a worker thread with no
open span of its own takes the operation's root span as parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

LAYERS = ("numerics", "packet", "potential", "evolution", "kijowski", "oracle",
          "scenario", "svgplot", "cli")

# private functions wrapped anyway: one span per sweep point
EXTRA = {"scenario._evaluate_point"}


def _cn_counters(bound):
    cfg = bound.arguments["cfg"]
    steps = int(round(cfg.t_final / cfg.dt))
    return {"steps": steps, "cell_steps": steps * cfg.n_x}


def _slice_counters(bound):
    return {"slices": int(bound.arguments["n_slices"])}


def _csv_counters(bound):
    result = bound.arguments["result"]
    return {"rows": len(result.points) * result.tgrid.n}


def _scenario_counters(bound):
    return {"points": len(set(bound.arguments["cfg"].v0_list))}


# exact work counts read from the arguments of a call
COUNTERS = {
    "oracle.crank_nicolson_evolve": _cn_counters,
    "evolution.propagate_slices": _slice_counters,
    "scenario.emit_csv": _csv_counters,
    "scenario.run_scenario": _scenario_counters,
}


class Tracer:
    """Span recorder; its wrappers record only while ``active`` is set."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.active = False
        self.op_id = None
        self.op_span = None
        self.last_op = None  # (op id, root span id) of the latest operation
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        counters = COUNTERS.get(name)
        sig = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            extra = None
            if counters:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = counters(bound)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else self.op_span
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, self.op_id,
                                   threading.get_ident(), extra))
        return wrapper

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.op_span = next(self._ids)
        self._op_t0 = time.perf_counter()
        self.active = True

    def end_op(self):
        t1 = time.perf_counter()
        self.active = False
        self.spans.append((self.op_span, "op", self._op_t0, t1, None, self.op_id,
                           threading.get_ident(), None))
        self.last_op = (self.op_id, self.op_span)
        self.op_span = None

    def add_foreign(self, spans: list):
        """Adopt spans another process recorded during the latest operation."""
        op_id, root = self.last_op
        remap = {s[0]: next(self._ids) for s in spans}
        for sid, name, t0, t1, parent, _op, thread, extra in spans:
            self.spans.append((remap[sid], name, t0, t1, remap.get(parent, root),
                               op_id, thread, extra))

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public sts_toa function wherever a layer module binds it."""
        modules = [importlib.import_module("sts_toa")]
        modules += [importlib.import_module(f"sts_toa.{m}") for m in LAYERS]
        layer_names = {f"sts_toa.{m}" for m in LAYERS}
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ not in layer_names:
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if obj.__name__.startswith("_") and name not in EXTRA:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, name)
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        # classmethods live on the class, not the module
        scenario = importlib.import_module("sts_toa.scenario")
        cls = scenario.ScenarioConfig
        raw = cls.__dict__["from_dict"]
        self._restore.append((cls, "from_dict", raw))
        cls.from_dict = classmethod(self._wrap(raw.__func__,
                                               "scenario.ScenarioConfig.from_dict"))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# -- per-layer metrics -------------------------------------------------------

# name -> (unit, better); the traced run reports exactly these
LAYER_METRICS = {
    "import.sts_toa_ms": ("ms", "lower"),
    "import.scipy_signal_ms": ("ms", "lower"),
    "import.scipy_linalg_ms": ("ms", "lower"),
    "numerics.fourier_E_to_t.calls": ("count", "lower"),
    "numerics.fourier_E_to_t.ms_p50": ("ms", "lower"),
    "numerics.fourier_E_to_t.share": ("ratio", "lower"),
    "packet.sc_initial_amplitude.calls_per_point": ("count", "lower"),
    "packet.sc_initial_amplitude.ms_p50": ("ms", "lower"),
    "kijowski.transmission_amplitude.ms_p50": ("ms", "lower"),
    "kijowski.transmitted_kijowski.ms_p50": ("ms", "lower"),
    "kijowski.model_distance.ms_p50": ("ms", "lower"),
    "evolution.toa_density.self_ms_p50": ("ms", "lower"),
    "evolution.barrier_toa.ms_p50": ("ms", "lower"),
    "evolution.free_kijowski.ms_p50": ("ms", "lower"),
    "potential.phase_theta.ms_p50": ("ms", "lower"),
    "evolution.propagate_slices.ms_p50": ("ms", "lower"),
    "evolution.propagate_slices.us_per_slice": ("us", "lower"),
    "scenario.ScenarioConfig.from_dict.ms": ("ms", "lower"),
    "scenario.emit_csv.ms": ("ms", "lower"),
    "scenario.emit_csv.rows": ("count", "lower"),
    "svgplot.render_svg.ms": ("ms", "lower"),
    "scenario.run_scenario.ms": ("ms", "lower"),
    "scenario.run_scenario.overlap": ("ratio", "higher"),
    "cli.main.ms": ("ms", "lower"),
    "oracle.crank_nicolson_evolve.s": ("s", "lower"),
    "oracle.cn.us_per_step": ("us", "lower"),
    "oracle.cn.ns_per_cell_step": ("ns", "lower"),
    "oracle.cn.cell_steps": ("count", "lower"),
    "oracle.barrier_transmission_norm.s": ("s", "lower"),
    "oracle.flux_toa.ms": ("ms", "lower"),
    "oracle.transmitted_norm.ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for sid, _n, t0, t1, parent, *_ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _n, t0, t1, *_ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(spans, n_ops: int, op_cpu_s: float) -> dict:
    """Per-layer values from the spans of ``n_ops`` traced operations.

    Counts (``.calls``, ``.calls_per_point``, ``.rows``, ``.cell_steps``) are
    per operation and exact; ``_p50`` and bare ``.ms``/``.s`` values are
    medians per call; ``share`` is the function's summed span time over the
    operations' CPU time (all threads).
    """
    dur = defaultdict(list)
    cnt = defaultdict(lambda: defaultdict(int))
    for _sid, name, t0, t1, _p, _op, _th, extra in spans:
        dur[name].append(t1 - t0)
        for key, val in (extra or {}).items():
            cnt[name][key] += val
    selfs = _self_times(spans)
    toa_self = [selfs[s[0]] for s in spans if s[1] == "evolution.toa_density"]

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    fe = "numerics.fourier_E_to_t"
    sc = "packet.sc_initial_amplitude"
    cn = "oracle.crank_nicolson_evolve"
    sl = "evolution.propagate_slices"
    rs = "scenario.run_scenario"
    ms = {name: 1e3 * _median(d) for name, d in dur.items()}
    m = {
        f"{fe}.calls": per_op(len(dur[fe])),
        f"{fe}.ms_p50": ms.get(fe, 0.0),
        f"{fe}.share": ratio(sum(dur[fe]), op_cpu_s),
        f"{sc}.calls_per_point": ratio(len(dur[sc]), cnt[rs]["points"]),
        f"{sc}.ms_p50": ms.get(sc, 0.0),
        "evolution.toa_density.self_ms_p50": 1e3 * _median(toa_self),
        f"{sl}.ms_p50": ms.get(sl, 0.0),
        f"{sl}.us_per_slice": 1e6 * ratio(sum(dur[sl]), cnt[sl]["slices"]),
        "scenario.emit_csv.rows": per_op(cnt["scenario.emit_csv"]["rows"]),
        f"{rs}.overlap": ratio(sum(dur["scenario._evaluate_point"]), sum(dur[rs])),
        f"{cn}.s": _median(dur[cn]),
        "oracle.cn.us_per_step": 1e6 * ratio(sum(dur[cn]), cnt[cn]["steps"]),
        "oracle.cn.ns_per_cell_step": 1e9 * ratio(sum(dur[cn]), cnt[cn]["cell_steps"]),
        "oracle.cn.cell_steps": per_op(cnt[cn]["cell_steps"]),
        "oracle.barrier_transmission_norm.s": _median(dur["oracle.barrier_transmission_norm"]),
    }
    # the rest are median milliseconds per call of the function they name
    for name in LAYER_METRICS:
        if name not in m and not name.startswith(("import.", "trace.")):
            m[name] = ms.get(name.rpartition(".")[0], 0.0)
    return m
