"""One benchmark process: set up a workload, then run its closed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M --t0 T

`--t0` is the wall-clock time just before this interpreter was started, so
set-up time covers interpreter start, imports, input build and the untimed
warm-up operation.  Modes:

* `setup`: stop after set-up;
* `run`: time operations until their summed latency reaches `--seconds`;
* `trace`: run `--seconds / 2` untraced, then `--seconds / 2` with every
  layer wrapped, and report the per-layer values and the tracing overhead.

The loop only stops after a whole cycle of operation kinds, so per-operation
counts are exact.  Set-up and every operation are timed together with the
machine's speed (speed.py).  Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

from speed import Sampler, corrected, reference_s


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _timed(wl, fn, sample: bool):
    """Run ``fn`` once: (result, error, seconds, sampler seconds, speed
    samples, child spans).

    With ``sample`` set, speed is sampled during the run where the workload
    allows it (its ``sampling`` is "self" or "child"); the sampler's own time
    is reported, and taken out of the seconds.
    """
    in_process = sample and wl.sampling == "self"
    if wl.sampling == "child":
        wl.sample = sample
    sampler = Sampler() if in_process else contextlib.nullcontext()
    t0 = time.perf_counter()
    with sampler:
        try:
            result, err = fn(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, err = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    report = wl.take_report() if wl.sampling == "child" else {}
    if in_process:
        report = {"spent": sampler.spent, "samples": sampler.samples}
    spent = report.get("spent", 0.0)
    return result, err, elapsed - spent, spent, report.get("samples", []), report.get("spans")


def _loop(wl, stream, seconds: float, ref0: float, tracer=None, first_id: int = 0,
          sample: bool = False) -> dict:
    lat, cpu, errors, refs, during = [], [], [], [ref0], []
    op_id = first_id
    while sum(lat) < seconds:
        for _ in range(wl.cycle):
            op = next(stream)
            if tracer is not None:
                tracer.begin_op(op_id)
            c0 = _cpu_s()
            result, err, net, _, samples, spans = _timed(wl, op.run, sample)
            cpu.append(_cpu_s() - c0)
            if tracer is not None:
                tracer.end_op()
                if spans:
                    tracer.add_foreign(spans)
            refs.append(reference_s())
            lat.append(net)
            during.append(samples)
            if err is None:
                try:
                    err = op.check(result)
                except Exception as exc:  # a check that cannot read the output fails it
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                errors.append(f"{op.kind}: {err}")
            op_id += 1
    return {"lat": lat, "cpu": cpu, "errors": errors, "refs": refs, "during": during}


def _peak_rss_mib(workload: str) -> float:
    # the CLI workload's program runs in child processes
    who = resource.RUSAGE_CHILDREN if workload == "cli-fig2" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans", help="where trace mode writes its spans")
    args = ap.parse_args()

    root = os.getcwd()
    reference_s(reps=1)  # imports NumPy before a signal handler can need it
    from workloads import WORKLOADS
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
    # set-up is sampled like the ops; imports and input build always are
    with Sampler() as build:
        wl = WORKLOADS[args.workload](args.seed, root, tracer)
    _, err, _, warm_spent, warm_samples, _ = _timed(wl, wl.warm_up, sample=True)
    if err is not None:
        raise RuntimeError(f"warm-up failed: {err}")
    elapsed = time.time() - args.t0 - build.spent - warm_spent
    ref = reference_s()
    out = {"setup_s": corrected([elapsed], [ref, ref], [build.samples + warm_samples])[0],
           "ref_s": ref}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    stream = wl.ops()
    if args.mode == "run":
        res = _loop(wl, stream, args.seconds, out["ref_s"], sample=True)
        out["peak_rss_mib"] = _peak_rss_mib(args.workload)
    else:
        from tracer import layer_metrics
        plain = _loop(wl, stream, args.seconds / 2, out["ref_s"])
        tracer.install()
        try:
            res = _loop(wl, stream, args.seconds / 2, plain["refs"][-1], tracer,
                        first_id=len(plain["lat"]))
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer.spans, len(res["lat"]), sum(res["cpu"]))
        layers["trace.overhead_ms"] = 1e3 * (
            statistics.median(corrected(res["lat"], res["refs"], res["during"]))
            - statistics.median(corrected(plain["lat"], plain["refs"], plain["during"])))
        out["layers"] = layers
        res["errors"] = plain["errors"] + res["errors"]
        out["attempted"] = len(plain["lat"]) + len(res["lat"])
        if args.spans:
            tracer.dump(args.spans)
    out.setdefault("attempted", len(res["lat"]))
    out.update(lat=res["lat"], refs=res["refs"], during=res["during"], errors=res["errors"],
               final_error=wl.final_check())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
