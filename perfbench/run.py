"""sts-toa benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep-fine --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  With `--trace 0` it prints the end-to-end metrics, with `--trace 1`
the per-layer ones.  The last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`; the line before it carries
the machine facts and the raw sample counts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import corrected  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4      # set-up-only interpreters, besides the measuring one
IMPORT_PROBES = 3     # `-X importtime` interpreters in a traced run
DEADLINE_S = 170.0    # the whole run, all child processes included

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its deadline")
        return left


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the sweep's two worker threads are the only busy threads on two cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("STS_TOA_THREADS", None)
    return env


def _worker(root, env, deadline, args, mode, spans=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--t0", repr(time.time())]
    if spans:
        cmd += ["--spans", spans]
    # own process group, so that a timeout also stops the CLI children it runs
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=deadline.left())
    except (subprocess.TimeoutExpired, TimeoutError):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


IMPORT_METRICS = {"sts_toa": "import.sts_toa_ms", "scipy.signal": "import.scipy_signal_ms",
                  "scipy.linalg": "import.scipy_linalg_ms"}
_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)\s*$")


def _subtree_ms(importtime: str, package: str) -> float:
    """Cumulative import time of ``package`` and its submodules.

    Normally that is the package's own line.  Some packages print no line of
    their own (scipy.linalg is loaded while another package is importing), so
    this sums the cumulative times of the outermost entries under the name.
    """
    entries = []  # (depth, name, cumulative us), in completion order
    for line in importtime.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1))))
    total = 0
    for i, (depth, name, cum) in enumerate(entries):
        if name != package and not name.startswith(package + "."):
            continue
        # a module's line follows its children's: the parent is the next
        # entry that sits less deep
        parent = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
        if parent != package and not parent.startswith(package + "."):
            total += cum
    return total / 1e3


def _import_ms(root, env, deadline) -> dict:
    """`-X importtime` of `import sts_toa`, median over fresh interpreters."""
    samples = {name: [] for name in IMPORT_METRICS.values()}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sts_toa"],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=deadline.left())
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("`import sts_toa` failed")
        for package, name in IMPORT_METRICS.items():
            samples[name].append(_subtree_ms(proc.stderr, package))
    return {name: statistics.median(v) for name, v in samples.items()}


def _machine(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"), "seed": seed}


def _quantile(xs, q: float) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[int(q) - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sts_toa", "__init__.py")):
        print("run from the root of an sts-toa checkout (src/sts_toa not found)",
              file=sys.stderr)
        return 2
    env = _env(root)
    deadline = Deadline(DEADLINE_S)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        res = _worker(root, env, deadline, args, "trace",
                      spans=os.path.join(out_dir, f"spans-{tag}.jsonl"))
        values = {**res["layers"], **_import_ms(root, env, deadline)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _better) in LAYER_METRICS.items()}
    else:
        probes = [_worker(root, env, deadline, args, "setup") for _ in range(SETUP_PROBES)]
        res = _worker(root, env, deadline, args, "run")
        probes.append(res)
        setups = [p["setup_s"] for p in probes]
        lat = corrected(res["lat"], res["refs"], res["during"])
        values = {"setup_s": statistics.median(setups),
                  "op_ms_p50": 1e3 * statistics.median(lat),
                  "ops_per_s": len(lat) / sum(lat),
                  "peak_rss_mb": res["peak_rss_mib"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    errors = res["errors"] + ([res["final_error"]] if res["final_error"] else [])
    # every operation's output was checked equal to the one the final check saw
    failed = res["attempted"] if res["final_error"] else len(res["errors"])
    raw = res["lat"]
    info = {"workload": args.workload, "trace": args.trace, "machine": _machine(args.seed),
            "samples": len(raw), "raw_op_ms_p50": 1e3 * statistics.median(raw),
            "ref_ms": [1e3 * min(res["refs"]), 1e3 * max(res["refs"])],
            "errors": errors[:5]}
    if not args.trace and len(lat) >= 100:  # ten samples beyond the 90th percentile
        info["op_ms_p90"] = 1e3 * _quantile(lat, 90)
    result = {"correct": not errors, "attempted": res["attempted"], "failed": failed,
              "metrics": metrics}
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result, "latencies_s": raw,
                   "reference_s": res["refs"], "reference_during_s": res["during"]}, fh)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
