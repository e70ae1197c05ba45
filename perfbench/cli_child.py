"""Run the sts-toa CLI in this process, sampling CPU speed or tracing layers.

    python3 perfbench/cli_child.py REPORT_PATH {sample|trace} <sts-toa arguments...>

The cli-fig2 workload runs this in place of `python -m sts_toa.cli`, so the
reference kernel can be timed on the CLI's own thread while it runs (see
speed.py), or every layer can be wrapped.  It writes REPORT_PATH as JSON
({"spent", "samples"} or {"spans"}) and exits with the CLI's exit code.
"""

import json
import sys

from speed import Sampler, reference_s


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        from sts_toa import cli
        tracer.active = True
        try:
            return cli.main(argv)
        finally:
            tracer.active = False
            with open(report_path, "w", encoding="utf-8") as fh:
                json.dump({"spans": tracer.spans}, fh)
    reference_s(reps=1)  # imports NumPy before a signal handler can need it
    with Sampler() as sampler:
        from sts_toa import cli
        rc = cli.main(argv)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({"spent": sampler.spent, "samples": sampler.samples}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
