"""Run one ``ciqc`` command in this process, as the ``ciqc`` entry point does.

Usage: python3 perfbench/child.py <ciqc arguments>

With PERFBENCH_TRACE set to a file path, the package's public functions are
wrapped first (see tracer.py) and the aggregated spans are written to that
file when the command returns; stdout and the exit code are unchanged.
PERFBENCH_SPAWN holds the CLOCK_MONOTONIC time at which the parent spawned
this process, so that interpreter start-up can be measured.
"""

import os
import sys
import time


def main() -> int:
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        from ciqc.cli import main as cli_main
        return cli_main()

    import ciqc.cli
    startup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - \
        float(os.environ["PERFBENCH_SPAWN"])
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        return ciqc.cli.main()
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path, startup_s)


if __name__ == "__main__":
    sys.exit(main())
