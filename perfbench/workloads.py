"""Workload definitions and the reference-row check.

Every workload is one `fasmon run`-style config. The benchmark seed feeds
only the config `seed` key; the other keys are fixed so that every seed
runs the same amount of work.

The reference rows live in `reference/`: `<workload>.csv` is the CSV the
reference commit emitted (for `curves-mc` at config seed 0), and
`high-corr.oracle.csv` holds every `high-corr` row computed with an
independent adaptive quadrature, which covers the rows the reference commit
could not compute. `record_reference.py` regenerates both.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Outputs within these tolerances of the reference count as correct. The
# operating point tolerates the golden-section refinement moving inside its
# 1e-7 bracket; the rate is flat there, so it gets the tighter bound.
R_STAR_TOL = (1e-9, 1e-6)       # (absolute, relative)
PM_STAR_DB_TOL = (1e-6, 1e-6)
RATE_TOL = (1e-10, 1e-7)
# a Monte Carlo mean may sit this many binomial standard errors (from the
# reference outage) away from the reference rate
MC_SIGMAS = 6.0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict         # config keys and values, all but `seed`
    svg: bool            # also emit the SVG plot, as `fasmon run --svg` does

    @property
    def mc_samples(self) -> int:
        return int(self.config.get("mc_samples", 0))

    def config_text(self, seed: int) -> str:
        """The config file for one benchmark seed."""
        lines = [f"{key} = {value}" for key, value in self.config.items()]
        lines.append(f"seed = {config_seed(seed)}")
        return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-exact",
        config={"experiment": "fig2", "sweep_values": "-18, -10"},
        svg=False,
    ),
    Workload(
        name="curves-mc",
        config={"experiment": "fig1", "mc_samples": 100000},
        svg=True,
    ),
    Workload(
        name="high-corr",
        config={"experiment": "fig3", "aperture_w": 0.1,
                "schemes": "ProposedBisect, ProposedClosedForm, "
                           "ConstantJamming, Passive, ConventionalSingle"},
        svg=False,
    ),
)}


def config_seed(bench_seed: int) -> int:
    """The config `seed` for a benchmark seed; configs reject negatives."""
    return bench_seed % (1 << 32)


# ---------------------------------------------------------------------------
# CSV rows
# ---------------------------------------------------------------------------

def parse_rows(text: str) -> tuple[str, dict]:
    """(header, {(scheme, x_value): cells}) of a fasmon CSV.

    Parsed here rather than with fasmon.parse_csv, so the check does not
    depend on the code it checks.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0]
    names = header.split(",")
    rows = {}
    for line in lines[1:]:
        cells = dict(zip(names, line.split(",")))
        if len(cells) != len(names) or line.count(",") != len(names) - 1:
            raise ValueError(f"malformed CSV row: {line!r}")
        key = (cells["scheme"], float(cells["x_value"]))
        if key in rows:
            raise ValueError(f"duplicate CSV row: {line!r}")
        rows[key] = cells
    return header, rows


def _close(got: float, ref: float, tol: tuple[float, float]) -> bool:
    if math.isinf(ref) or math.isinf(got):
        return got == ref
    return abs(got - ref) <= tol[0] + tol[1] * abs(ref)


def _mc_ok(cells: dict, ref: dict, n_samples: int) -> bool:
    """A Monte Carlo mean must lie within MC_SIGMAS binomial standard errors
    of the reference rate, and its 95% half width must match that standard
    error to a factor of two wherever the count of hits is large."""
    if ref["rate_mc_mean"] == "":
        return cells["rate_mc_mean"] == "" and cells["rate_mc_ci95"] == ""
    if cells["rate_mc_mean"] == "" or cells["rate_mc_ci95"] == "":
        return False
    rate_r = float(ref["r_star_bits"])
    rate_ref = float(ref["rate_analytic"])
    mean = float(cells["rate_mc_mean"])
    half = float(cells["rate_mc_ci95"])
    p_out = min(max(1.0 - rate_ref / rate_r, 0.0), 1.0)
    sigma = rate_r * math.sqrt(p_out * (1.0 - p_out) / n_samples)
    if abs(mean - rate_ref) > MC_SIGMAS * sigma + rate_r / n_samples:
        return False
    if not (0.0 <= half <= rate_r):
        return False
    if n_samples * p_out * (1.0 - p_out) >= 10.0:
        return 0.5 <= half / (1.959963984540054 * sigma) <= 2.0
    return True


def row_ok(cells: dict, ref: dict, n_samples: int) -> bool:
    """Whether one output row matches its reference row within tolerance."""
    try:
        return (cells["experiment"] == ref["experiment"]
                and cells["x_name"] == ref["x_name"]
                and cells["clamped"] == ref["clamped"]
                and _close(float(cells["r_star_bits"]), float(ref["r_star_bits"]), R_STAR_TOL)
                and _close(float(cells["pm_star_db"]), float(ref["pm_star_db"]), PM_STAR_DB_TOL)
                and _close(float(cells["rate_analytic"]), float(ref["rate_analytic"]), RATE_TOL)
                and _mc_ok(cells, ref, n_samples))
    except (KeyError, ValueError):
        return False


@dataclass
class RowCheck:
    correct: int        # rows produced and within tolerance
    wrong: int          # rows produced but outside tolerance, or unexpected
    regressed: int      # rows the reference commit produced that are now missing
    bytes_match: bool | None  # CSV bytes equal to the seed's; None if unknown


class Reference:
    """The reference commit's rows for one workload, plus oracle rows for the
    rows the reference commit failed to produce."""

    def __init__(self, workload: Workload):
        with open(os.path.join(REFERENCE_DIR, f"{workload.name}.csv"), "rb") as fh:
            self.seed_bytes = fh.read()
        self.header, self.seed_rows = parse_rows(self.seed_bytes.decode("utf-8"))
        self.rows = dict(self.seed_rows)
        oracle_path = os.path.join(REFERENCE_DIR, f"{workload.name}.oracle.csv")
        if os.path.exists(oracle_path):
            with open(oracle_path, encoding="utf-8") as fh:
                _, oracle = parse_rows(fh.read())
            for key, cells in oracle.items():
                self.rows.setdefault(key, cells)
        digest_path = os.path.join(REFERENCE_DIR, f"{workload.name}.sha256.json")
        self.digests = {}
        if os.path.exists(digest_path):
            with open(digest_path, encoding="utf-8") as fh:
                self.digests = {int(k): v for k, v in json.load(fh).items()}
        self.n_samples = workload.mc_samples

    def check(self, csv_bytes: bytes, seed: int) -> RowCheck:
        try:
            header, rows = parse_rows(csv_bytes.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return RowCheck(0, 1, len(self.seed_rows), False)
        correct = wrong = 0
        if header != self.header:
            wrong = len(rows)
        else:
            for key, cells in rows.items():
                ref = self.rows.get(key)
                if ref is not None and row_ok(cells, ref, self.n_samples):
                    correct += 1
                else:
                    wrong += 1
        regressed = sum(1 for key in self.seed_rows if key not in rows)
        if self.n_samples == 0:
            bytes_match = csv_bytes == self.seed_bytes
        elif seed in self.digests:
            bytes_match = hashlib.sha256(csv_bytes).hexdigest() == self.digests[seed]
        else:
            bytes_match = None
        return RowCheck(correct, wrong, regressed, bytes_match)

