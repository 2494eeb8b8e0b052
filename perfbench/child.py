"""One user run of fasmon in a fresh process, the way `fasmon run` does it.

Usage: python3 child.py '<json job>'

The job names the checkout's `src` directory, the config file and the
output directory. The run imports fasmon from that `src`, resolves the
config with `parse_config`, runs `run_experiment` and writes the CSV (and
the SVG when asked) with `emit_csv`/`emit_svg`. With "setup_only" it stops
once the config is resolved. With "trace_file" the layers are traced and
their metrics reported. With "time_limit_s" the sweep and its emission are cut
after that many seconds; the report then says "timed_out" and its stamps
end at the cut. It prints one JSON line: CLOCK_MONOTONIC stamps of
each stage, the row counts, the peak resident memory and the import path.
"""

import json
import os
import signal
import sys
import time


class TimeLimit(BaseException):
    """Raised when the time limit passes; a BaseException, so that no
    `except Exception` in fasmon catches it."""


def _on_alarm(signum, frame):
    raise TimeLimit


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import fasmon

    fasmon_file = os.path.realpath(fasmon.__file__)
    if not fasmon_file.startswith(src + os.sep):
        print(f"fasmon imported from {fasmon_file}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if job.get("trace_file"):
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()

    spec = fasmon.parse_config(job["config"])
    t_resolved = time.monotonic()
    out = {"t_resolved": t_resolved,
           "fasmon_file": os.path.relpath(fasmon_file, os.path.dirname(src))}
    if not job.get("setup_only"):
        t_run = time.monotonic()
        cpu_run = time.process_time()
        rows, t_run_end = [], None
        if job.get("time_limit_s"):
            signal.signal(signal.SIGALRM, _on_alarm)
            signal.setitimer(signal.ITIMER_REAL, job["time_limit_s"])
        try:
            rows = fasmon.run_experiment(spec)
            t_run_end = time.monotonic()
            if rows:
                fasmon.emit_csv(rows, os.path.join(job["out_dir"], "out.csv"))
                if job.get("svg"):
                    fasmon.emit_svg(rows, os.path.join(job["out_dir"], "out.svg"))
        except TimeLimit:
            out["timed_out"] = True
        signal.setitimer(signal.ITIMER_REAL, 0)
        t_emit_end = time.monotonic()
        cpu_s = time.process_time() - cpu_run

        import numpy
        import resource
        out.update(
            t_run=t_run, t_run_end=t_run_end, t_emit_end=t_emit_end, cpu_s=cpu_s,
            rows=len(rows), expected_rows=fasmon.expected_row_count(spec),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            numpy=numpy.__version__)
    if tracer is not None:
        out["layers"] = tracer.metrics([s.value for s in fasmon.Scheme])
        tracer.dump(job["trace_file"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
