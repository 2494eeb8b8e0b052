"""The fasmon benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-exact --seed 1 --seconds 30 --trace 0

Each measured operation is one user run: a fresh single-threaded Python
process (`child.py`) that imports fasmon from the checkout's `src/`,
resolves the config, runs the sweep and writes the CSV. Runs follow one
another, a closed loop with one client. Before them, a few set-up-only
processes time import plus config resolution. Every CSV is checked against
the reference rows in `reference/`.

With `--trace 0` the last line of output carries the end-to-end metrics of
BENCHMARK.json, with `--trace 1` the per-layer metrics; in a traced run
untraced and traced user runs alternate, so the tracing overhead is
measured too. A record of the run (machine, versions, every raw value) is
written under `.perfbench_out/runs/`, which `compare.py` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Reference, config_seed  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
# the metric names and units; read from the benchmark's own checkout, so
# the same benchmark can measure another checkout's src/
BENCH_FILE = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SETUP_PROBES = 10       # set-up-only processes per run, for setup_s
HARD_LIMIT_S = 165.0    # a run never starts a process past this point
# A user run is cut when only this much of HARD_LIMIT_S is left, which
# leaves time for the set-up probes after it and for the report. A cut run
# is reported as timed out, apart from wrong rows.
RESERVE_S = 8.0
MIN_USER_RUN_S = 5.0    # no user run starts with less time than this to run
# one single-threaded process: BLAS and OpenMP pools get one thread
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}


class ChildError(Exception):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_ENV)
    return env


def _launch(job: dict, root: str, timeout: float) -> dict:
    """Run one child to completion and return its report."""
    if timeout <= 0:
        raise ChildError("out of time before the process could start")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(job)],
                              cwd=root, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ChildError(f"exit code {proc.returncode}: {tail}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["t_spawn"] = t_spawn
    report["stderr_lines"] = len(proc.stderr.splitlines())
    return report


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(src, "fasmon")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def machine_info(root: str, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
        "python": platform.python_version(),
        "blas_threads": THREAD_ENV,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(os.path.join(root, "src")),
        "workload_seed": seed,
        "config_seed": config_seed(seed),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: str, out_dir: str) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record)."""
    workload = WORKLOADS[workload_name]
    reference = Reference(workload)
    with open(BENCH_FILE, encoding="utf-8") as fh:
        bench = json.load(fh)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    info = machine_info(root, seed)

    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    trace_file = os.path.join(out_dir, "traces", f"{workload_name}-seed{seed}-{stamp}.json")
    config_path = os.path.join(work, "config.txt")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(seed))
    base_job = {"src": os.path.join(root, "src"), "config": config_path,
                "out_dir": work, "svg": workload.svg}

    setups: list[dict] = []
    runs: list[dict] = []
    errors: list[str] = []
    try:
        # Not timed: the first process after a source change compiles .pyc
        # files and reads the source from disk, which users do not pay each
        # run.
        _launch(dict(base_job, setup_only=True), root, deadline - time.monotonic())
        # half the probes before the user runs and half after, so that
        # they sample the machine at two moments of the run
        for _ in range(SETUP_PROBES // 2):
            setups.append(_launch(dict(base_job, setup_only=True), root,
                                  deadline - time.monotonic()))

        measure_start = time.monotonic()
        if trace:
            os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        while True:
            traced = trace and len(runs) % 2 == 1
            kinds_done = not trace or len(runs) >= 2
            budget = deadline - time.monotonic() - RESERVE_S
            if trace and not runs:
                budget /= 2     # leave the traced run as much time
            if budget < MIN_USER_RUN_S:
                if runs and kinds_done:
                    break
                errors.append(f"only {budget:.1f} s left for a user run")
                runs.append({"traced": traced, "error": errors[-1]})
                break
            job = dict(base_job, trace_file=trace_file if traced else None,
                       time_limit_s=budget)
            for name in ("out.csv", "out.svg"):
                if os.path.exists(os.path.join(work, name)):
                    os.remove(os.path.join(work, name))
            try:
                report = _launch(job, root, deadline - time.monotonic())
            except ChildError as exc:
                errors.append(str(exc))
                runs.append({"traced": traced, "error": str(exc)})
                break
            report["traced"] = traced
            if report["expected_rows"] != len(reference.rows) and not runs:
                errors.append(f"expected_row_count(spec) is {report['expected_rows']}, "
                              f"the reference has {len(reference.rows)} rows")
            if report.get("timed_out"):
                runs.append(report)
                if not trace or len(runs) >= 2:
                    break
                continue
            csv_path = os.path.join(work, "out.csv")
            if os.path.exists(csv_path):
                with open(csv_path, "rb") as fh:
                    check = reference.check(fh.read(), config_seed(seed))
            else:
                check = reference.check(reference.header.encode() + b"\n", -1)
            report["check"] = check.__dict__
            runs.append(report)

            elapsed = time.monotonic() - measure_start
            mean_run = elapsed / len(runs)
            if (not trace or len(runs) >= 2) and elapsed + mean_run > seconds:
                break
        for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
            setups.append(_launch(dict(base_job, setup_only=True), root,
                                  deadline - time.monotonic()))
    except ChildError as exc:
        errors.append(str(exc))
        if not runs:   # set-up failed, so no user run could start
            runs.append({"traced": False, "error": str(exc)})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A timed-out user run is not a failure of the program: it has no rows
    # to check, and its time still counts (see correct_rows_per_s).
    good = [r for r in runs if "error" not in r]
    timed_out = [r for r in good if r.get("timed_out")]
    checked = [r for r in good if not r.get("timed_out")]
    failed = [r for r in runs if "error" in r
              or "check" in r and (r["check"]["wrong"] or r["check"]["regressed"])]
    correct = not errors and not failed and bool(good)

    def wall(r):
        return r["t_emit_end"] - r["t_run"]

    def correct_rows_per_s(r):
        # a cut run gets the most it could have reached: every expected row
        # by the cut, so a slowdown reads at least as large as it is
        rows = r["expected_rows"] if r.get("timed_out") else r["check"]["correct"]
        return rows / wall(r)

    untraced = [r for r in good if not r["traced"]]
    traced_runs = [r for r in good if r["traced"]]
    setup_times = [r["t_resolved"] - r["t_spawn"] for r in setups + good if not r.get("traced")]
    values = {
        "setup_s": _median(setup_times),
        "rows_per_s": _median([correct_rows_per_s(r) for r in untraced]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        "rows_failed_frac": _median(
            [(r["expected_rows"] - r["check"]["correct"]) / r["expected_rows"]
             for r in checked], 1.0),
    }
    if traced_runs:
        layer_names = traced_runs[0]["layers"].keys()
        for name in layer_names:
            values[name] = _median([r["layers"][name] for r in traced_runs])
        values["trace.overhead_frac"] = (
            _median([wall(r) for r in traced_runs]) / _median([wall(r) for r in untraced]) - 1.0)

    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        # a run with no successful user run of a kind has nothing to
        # report; it is already marked incorrect
        value = values[m["name"]] if correct else values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    result = {"correct": correct, "attempted": len(runs), "failed": len(failed),
              "metrics": metrics}
    info["fasmon_file"] = good[0]["fasmon_file"] if good else None
    info["numpy"] = good[0]["numpy"] if good else None
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "info": info, "result": result, "values": values,
        "csv_bytes_match": [r["check"]["bytes_match"] for r in checked],
        "timed_out": len(timed_out), "errors": errors, "setups": setups, "runs": runs,
        "wall_s": time.monotonic() - start,
    }
    os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)
    record_path = os.path.join(out_dir, "runs",
                               f"{workload_name}-seed{seed}-trace{int(trace)}-{stamp}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    record["path"] = record_path
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench_out",
                        help="directory for run records and traces (default %(default)s)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fasmon", "__init__.py")):
        print("perfbench: src/fasmon not found; run from the root of a fasmon checkout",
              file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         root, os.path.join(root, args.out))
    for err in record["errors"]:
        print(f"perfbench: user run failed: {err}", file=sys.stderr)
    if record["timed_out"]:
        print(f"perfbench: {record['timed_out']} user run(s) cut at the time limit; "
              "their rows are unchecked and their times are bounds", file=sys.stderr)
    print("perfbench info: " + json.dumps(record["info"]))
    print(f"perfbench: {args.workload} seed {args.seed}: {len(record['runs'])} user runs, "
          f"{len(record['setups'])} set-up probes, rows_failed_frac "
          f"{record['values']['rows_failed_frac']:.4f}, csv bytes match "
          f"{record['csv_bytes_match']}, record {os.path.relpath(record['path'], root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
