"""Compare two sets of benchmark runs, such as a parent commit and a change.

Compare records that already exist (each argument is a directory of
`run.py` records, e.g. `.perfbench_out/runs`, or record files):

    python3 perfbench/compare.py PARENT_RECORDS CHANGE_RECORDS

Or run the pairs first, then compare them. The benchmark code next to this
file measures both checkouts' `src/`, so both sides run identical benchmark
code and settings; pair i uses seed BASE_SEED+i and the side that runs first
alternates:

    python3 perfbench/compare.py --run PARENT_ROOT CHANGE_ROOT \\
        --workload sweep-exact --pairs 10 [--trace 0]

For every workload and metric it prints each side's median and quartiles,
the change in the median and the share of seed-matched pairs the change
wins (ties count for neither). The verdict follows the gain and regression
rules: a gain needs at least 9/10 of the pairs won and a median difference
larger than the parent's own quartile spread; an end-to-end metric whose
parent spread exceeds its bound is unresolved unless every change run beats
every parent run; otherwise a median worse by more than the bound is a
regression. A gain does not count when more user runs failed than at the
parent.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_ROOT = os.path.dirname(HERE)
WIN_SHARE = 0.9
BASE_SEED = 100     # pair i of --run uses seed BASE_SEED + i


def load_records(paths) -> list[dict]:
    records = []
    for path in paths:
        files = sorted(f for f in glob.glob(os.path.join(path, "**", "*.json"), recursive=True)
                       if os.sep + "traces" + os.sep not in f) \
            if os.path.isdir(path) else [path]
        for name in files:
            with open(name, encoding="utf-8") as fh:
                record = json.load(fh)
            if "result" in record and "workload" in record:
                records.append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Match runs by seed, in order of appearance."""
    by_seed: dict[int, list[dict]] = {}
    for record in parent:
        by_seed.setdefault(record["seed"], []).append(record)
    pairs = []
    for record in change:
        waiting = by_seed.get(record["seed"])
        if waiting:
            pairs.append((waiting.pop(0), record))
    return pairs


def compare(parent: list[dict], change: list[dict], bench: dict) -> list[str]:
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    lines = []
    groups = sorted({(r["workload"], r["trace"]) for r in parent + change})
    for workload, trace in groups:
        p_runs = [r for r in parent if (r["workload"], r["trace"]) == (workload, trace)]
        c_runs = [r for r in change if (r["workload"], r["trace"]) == (workload, trace)]
        pairs = _pairs(p_runs, c_runs)
        p_failed = sum(r["result"]["failed"] for r in p_runs)
        c_failed = sum(r["result"]["failed"] for r in c_runs)
        p_wrong = sum(not r["result"]["correct"] for r in p_runs)
        c_wrong = sum(not r["result"]["correct"] for r in c_runs)
        lines.append(f"\n== {workload} (trace {trace}): parent {len(p_runs)} runs, "
                     f"change {len(c_runs)} runs, {len(pairs)} seed-matched pairs; "
                     f"failed user runs {p_failed} -> {c_failed}; "
                     f"incorrect runs {p_wrong} -> {c_wrong}")
        if not p_runs or not c_runs:
            continue
        lines.append(f"{'metric':50} {'unit':>6}  {'parent med [q1, q3]':32} "
                     f"{'change med [q1, q3]':32} {'change':>8} {'wins':>7}  verdict")
        names = [n for n in specs if n in p_runs[0]["result"]["metrics"]]
        for name in names:
            spec = specs[name]
            sign = 1.0 if spec["better"] == "higher" else -1.0
            pv = [r["result"]["metrics"][name]["value"] for r in p_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs
                  if name in r["result"]["metrics"]]
            if not cv:
                continue
            p_q1, p_med, p_q3 = quartiles(pv)
            c_q1, c_med, c_q3 = quartiles(cv)
            wins = sum(1 for a, b in pairs
                       if sign * (b["result"]["metrics"][name]["value"]
                                  - a["result"]["metrics"][name]["value"]) > 0)
            rel = (c_med - p_med) / abs(p_med) if p_med else float("nan")
            better_med = sign * (c_med - p_med) > 0
            gain = (pairs and wins >= WIN_SHARE * len(pairs) and better_med
                    and abs(c_med - p_med) > (p_q3 - p_q1) and c_failed <= p_failed)
            if "bound" not in spec and len(set(pv)) == 1 and len(set(cv)) == 1:
                # a count the program repeats exactly: reported as a count
                verdict = "same count" if pv[0] == cv[0] else "count changed"
            elif gain:
                verdict = "gain"
            elif "bound" in spec:
                spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
                all_better = all(sign * (c - p) > 0 for c in cv for p in pv)
                worse = -sign * rel
                if spread > spec["bound"] and not all_better:
                    verdict = f"unresolved (parent spread {spread:.1%} > bound {spec['bound']:.0%})"
                elif worse > spec["bound"]:
                    verdict = f"REGRESSION (worse by {worse:.1%} > bound {spec['bound']:.0%})"
                else:
                    verdict = f"within bound {spec['bound']:.0%}"
            else:
                verdict = ""
            lines.append(
                f"{name:50} {spec['unit']:>6}  {_cell(p_med, p_q1, p_q3):32} "
                f"{_cell(c_med, c_q1, c_q3):32} {rel:>+8.1%} {wins:>3}/{len(pairs):<3}  {verdict}")
    return lines


def _cell(med: float, q1: float, q3: float) -> str:
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def run_pairs(parent_root: str, change_root: str, workload: str, pairs: int,
              trace: int, seconds: float) -> tuple[str, str]:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = os.path.join(BENCH_ROOT, ".perfbench_out", f"compare-{stamp}")
    sides = {"parent": os.path.abspath(parent_root), "change": os.path.abspath(change_root)}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(BASE_SEED + i), "--seconds", str(seconds), "--trace", str(trace),
                   "--out", os.path.join(out, side)]
            proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
            print(f"pair {i + 1}/{pairs} {side}: {last[0][:160]}", flush=True)
            if proc.returncode != 0:
                raise SystemExit(f"{side} run failed:\n{proc.stderr}")
    return os.path.join(out, "parent"), os.path.join(out, "change")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent records (or checkout root with --run)")
    parser.add_argument("change", help="change records (or checkout root with --run)")
    parser.add_argument("--run", action="store_true",
                        help="run the pairs in the two checkouts first")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(BENCH_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parent, change = args.parent, args.change
    if args.run:
        if not args.workload:
            parser.error("--run needs --workload")
        parent, change = run_pairs(parent, change, args.workload, args.pairs,
                                   args.trace, bench["run_seconds"])
    for line in compare(load_records([parent]), load_records([change]), bench):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
