"""Record the reference rows the benchmark checks outputs against.

Usage, from the root of a checkout of the commit whose rows become the
reference:

    python3 perfbench/record_reference.py

Writes into perfbench/reference/:

* `<workload>.csv`: the CSV this commit emits for each workload, at config
  seed 0 (only `curves-mc` depends on the seed, through its Monte Carlo
  cells);
* `curves-mc.sha256.json`: the sha256 of the `curves-mc` CSV for config
  seeds 0 .. DIGEST_SEEDS-1, so a run can report whether its bytes still match;
* `high-corr.oracle.csv`: every `high-corr` row with the exact rate taken
  from an independent adaptive quadrature (scipy), covering the rows this
  commit fails to compute. The solvers still choose the operating points.
  The script checks the oracle against every row this commit did compute
  and, for the rows it did not, against 10^6-draw Monte Carlo.

Needs scipy, one of fasmon's test-only dependencies.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ChildError, _launch  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS, parse_rows, row_ok  # noqa: E402

DIGEST_SEEDS = 32   # curves-mc CSV digests are stored for config seeds 0..31


def emit(workload, seed: int, root: str, work: str) -> bytes:
    config_path = os.path.join(work, "config.txt")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(seed))
    _launch({"src": os.path.join(root, "src"), "config": config_path,
             "out_dir": work, "svg": workload.svg}, root, 600.0)
    with open(os.path.join(work, "out.csv"), "rb") as fh:
        return fh.read()


def oracle_outage(link, rp, n_ports: int) -> float:
    """The best-port outage integral by adaptive quadrature:

        int_0^inf e^{-t} P(chi2'(2, a^2 t) <= b^2)^N dt,

    with 1 - Q1(a sqrt(t), b) as the noncentral chi-square CDF and
    breakpoints across the step at t* = b^2/a^2."""
    from scipy import integrate
    from scipy.stats import ncx2

    gamma = rp.gamma_th
    if gamma == 0.0:
        return 0.0
    mu = link.mu
    ratio = gamma / link.gamma_cap
    if mu == 0.0:
        return (-math.expm1(-ratio)) ** n_ports
    one_minus_mu2 = 1.0 - mu * mu
    a2 = 2.0 * mu * mu / one_minus_mu2
    b2 = 2.0 * ratio / one_minus_mu2
    t_star = b2 / a2
    width = 2.0 * math.sqrt(b2) / a2   # one standard deviation of the step, in t

    def f(t):
        return math.exp(-t) * ncx2.cdf(b2, 2.0, a2 * t) ** n_ports

    t_end = max(t_star + 60.0 * width, 80.0)
    cuts = sorted({0.0, t_end, *(min(max(t_star + k * width, 0.0), t_end)
                                 for k in range(-12, 13))})
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        if hi > lo:
            value, _ = integrate.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=500)
            total += value
    return min(max(total, 0.0), 1.0)


def oracle_rows(root: str, work: str) -> tuple[str, str]:
    """(oracle CSV text, summary) for the high-corr workload."""
    sys.path.insert(0, os.path.join(root, "src"))
    import fasmon
    from fasmon import optimize, outage

    def rate_oracle(params, link, rp, spec=None):
        if rp.rate_r == 0.0:
            return 0.0
        return rp.rate_r * (1.0 - oracle_outage(link, rp, params.n_ports))

    workload = WORKLOADS["high-corr"]
    config_path = os.path.join(work, "config.txt")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(0))
    spec = fasmon.parse_config(config_path)
    original = optimize.rate_true
    optimize.rate_true = rate_oracle
    try:
        rows = fasmon.run_experiment(spec)
    finally:
        optimize.rate_true = original
    text = fasmon.format_rows(rows)

    # the oracle must agree with every row this commit computed
    with open(os.path.join(REFERENCE_DIR, "high-corr.csv"), encoding="utf-8") as fh:
        _, seed_rows = parse_rows(fh.read())
    _, oracle = parse_rows(text)
    worst = max(abs(float(oracle[k]["rate_analytic"]) - float(v["rate_analytic"]))
                for k, v in seed_rows.items())
    bad = [k for k, v in seed_rows.items() if not row_ok(oracle[k], v, 0)]
    if bad:
        raise SystemExit(f"oracle disagrees with computed rows: {bad}")

    # and, where this commit fails, with Monte Carlo
    worst_z = 0.0
    for (scheme, x_value), cells in oracle.items():
        if (scheme, x_value) in seed_rows:
            continue
        params = dataclasses.replace(spec.params, n_ports=int(x_value))
        link = fasmon.derive_link(params)
        rp = outage.RatePoint(float(cells["r_star_bits"]))
        n_mc = 1 if scheme == "ConventionalSingle" else params.n_ports
        est = fasmon.estimate_monitoring_rate(params, link, rp, n_mc, 10**6, 1)
        sigma = est.half_width_95 / 1.959963984540054
        z = abs(est.mean - float(cells["rate_analytic"])) / sigma if sigma else 0.0
        worst_z = max(worst_z, z)
        if z > 5.0:
            raise SystemExit(f"oracle disagrees with Monte Carlo at {scheme} N={x_value}: z={z:.1f}")
    summary = (f"oracle: {len(oracle)} rows; max |rate - seed rate| {worst:.2e} over "
               f"{len(seed_rows)} computed rows; max Monte Carlo z {worst_z:.2f} over "
               f"{len(oracle) - len(seed_rows)} rows the seed fails")
    return text, summary


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    root = os.getcwd()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    os.makedirs(".perfbench_out", exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=".perfbench_out")
    try:
        for workload in WORKLOADS.values():
            data = emit(workload, 0, root, work)
            with open(os.path.join(REFERENCE_DIR, f"{workload.name}.csv"), "wb") as fh:
                fh.write(data)
            print(f"{workload.name}: {len(data.splitlines()) - 1} rows", flush=True)
        workload = WORKLOADS["curves-mc"]
        digests = {seed: hashlib.sha256(emit(workload, seed, root, work)).hexdigest()
                   for seed in range(DIGEST_SEEDS)}
        with open(os.path.join(REFERENCE_DIR, "curves-mc.sha256.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1)
            fh.write("\n")
        print(f"curves-mc: digests for config seeds 0..{DIGEST_SEEDS - 1}", flush=True)
        text, summary = oracle_rows(root, work)
    except ChildError as exc:
        raise SystemExit(f"fasmon run failed: {exc}") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(REFERENCE_DIR, "high-corr.oracle.csv"), "w", encoding="utf-8") as fh:
        fh.write(text)
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
