"""Run one ecadd command line in this process, as the ``ecadd`` script
would, and report what the benchmark measures.

    python3 bench/job.py <src dir> <trace 0|1> <ecadd arguments...>

The command's own output comes first; the last line of standard output
is one JSON object:

* ``exit``: the command's exit code (1 for an uncaught exception, whose
  traceback goes to standard error as it would from the real script);
* ``setup_end``: time.monotonic() when the field, curve and point were
  parsed, taken as ``ecadd.cli._job_from_args`` returns.  This one hook
  is installed in every run; it adds one clock read;
* ``peak_rss_mb``: this process's peak resident set size;
* ``trace``: null, or with trace 1 the spans, self times and counters of
  bench/tracer.py.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def main() -> int:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    from ecadd import cli
    from tracer import Tracer, install, peak_rss_mb

    setup_end = []
    parse = cli._job_from_args

    def timed_parse(args):
        job = parse(args)
        setup_end.append(time.monotonic())
        return job

    cli._job_from_args = timed_parse
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    try:
        code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = 1
    result = {
        "exit": code,
        "setup_end": setup_end[0] if setup_end else None,
        "peak_rss_mb": peak_rss_mb(),
        "trace": None if tracer is None else {
            "self_s": tracer.self_times(),
            "counts": tracer.counts,
            "rss": tracer.rss,
            "spans": tracer.spans,
        },
    }
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
