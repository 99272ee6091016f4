"""Run the ``repro fleet`` CLI in-process with the tracer installed.

Used by the traced ``fleet`` run in place of ``python -m repro fleet``::

    python -m perf.fleet_host SUMMARY_JSON TRACE_JSON fleet --root R ...

The fleet's shard daemons and HTTP loop share one process, so spans use
per-thread CPU time: a thread waiting for the interpreter lock is not
charged for the thread that holds it.  Layer self times are compared
with the process's CPU time from install to exit.  Each shard thread
runs inside ``ProfilingService.serve_forever`` (its poll loop is
``serve.service`` work); the main thread runs the asyncio front door,
so its CPU time outside every wrapped call is charged to
``serve.http``.
"""

from __future__ import annotations

import sys
import threading
import time

from perf import layers
from perf.child import write_json
from perf.tracer import Tracer


def main(argv) -> int:
    summary_path, trace_path, cli_args = argv[0], argv[1], argv[2:]
    from repro import cli

    tracer = Tracer(clock=time.thread_time_ns)
    cost = tracer.calibrate()
    codegen = layers.codegen_snapshot()
    tracer.install(layers.boundaries(serve=True))
    cpu_began = time.process_time_ns()
    main_began = time.thread_time_ns()
    try:
        code = cli.main(cli_args)
    finally:
        main_ns = time.thread_time_ns() - main_began
        cpu_ns = time.process_time_ns() - cpu_began
        tracer.restore()
    # This thread ran the asyncio front door: what it spent outside
    # the wrapped calls is request parsing, responses and the loop.
    tracer.credit("serve.http",
                  main_ns - tracer.thread_self(threading.get_ident()))
    write_json(summary_path, layers.layer_summary(
        tracer, cost, cpu_ns, codegen, layers.codegen_snapshot()))
    write_json(trace_path, tracer.chrome_trace())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
