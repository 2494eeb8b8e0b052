"""Command-line entry points and their exit-code contract."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import fasmon.channel
import fasmon.specfun
from fasmon import CSV_HEADER, parse_csv, validation
from fasmon.cli import main


def _cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRun:
    def test_happy_path_with_svg(self, tmp_path):
        cfg = _cfg(tmp_path, "experiment = custom\n"
                             "sweep_variable = ratio_db\n"
                             "sweep_values = -12, -8\n"
                             "schemes = ProposedClosedForm, Passive\n")
        out = tmp_path / "rows.csv"
        svg = tmp_path / "rows.svg"
        rc = main(["run", "--config", cfg, "--out", str(out), "--svg", str(svg)])
        assert rc == 0
        rows = parse_csv(str(out))
        assert len(rows) == 4
        assert svg.read_text(encoding="utf-8").startswith("<svg")

    def test_fig3_at_high_correlation_has_every_row(self, tmp_path, capsys):
        # aperture 0.1 (mu = 0.9918): every port count from 2 to 16 gets a
        # row for each of the five schemes
        cfg = _cfg(tmp_path, "experiment = fig3\naperture_w = 0.1\n"
                             "schemes = ProposedBisect, ProposedClosedForm, "
                             "ConstantJamming, Passive, ConventionalSingle\n")
        out = tmp_path / "rows.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert len(parse_csv(str(out))) == 75
        assert capsys.readouterr().err == ""

    def test_set_overrides(self, tmp_path):
        cfg = _cfg(tmp_path, "")
        out = tmp_path / "rows.csv"
        rc = main(["run", "--config", cfg, "--out", str(out),
                   "--set", "experiment=custom",
                   "--set", "sweep_variable=ratio_db",
                   "--set", "sweep_values=-10",
                   "--set", "schemes=Passive"])
        assert rc == 0
        rows = parse_csv(str(out))
        assert [(r.scheme, r.x_value) for r in rows] == [("Passive", -10.0)]

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "absent.cfg"),
                   "--out", str(tmp_path / "rows.csv")])
        assert rc == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_bad_config_reports_location(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "p_s_db = 20\nmystery = 1\n")
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "rows.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "mystery" in err and "line 2" in err

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_sweep_value_is_a_config_error(self, tmp_path, capsys, bad):
        cfg = _cfg(tmp_path, f"experiment = fig3\nsweep_values = 2, {bad}\n")
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "rows.csv")])
        assert rc == 2
        assert "key 'sweep_values'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("ratio_db = 1e308\n", "sigma_ratio_db"),
        ("experiment = fig2\nsweep_values = -20, 1e308\n", "sweep_values")])
    def test_overflowing_db_value_is_a_config_error(self, tmp_path, capsys,
                                                    text, key):
        rc = main(["run", "--config", _cfg(tmp_path, text),
                   "--out", str(tmp_path / "rows.csv")])
        assert rc == 2
        assert f"key {key!r}" in capsys.readouterr().err

    def test_partial_sweep_writes_and_signals(self, tmp_path, capsys):
        # the bisection scheme needs two ports, so the n_ports = 1 point
        # fails while the rest of the sweep completes
        cfg = _cfg(tmp_path, "experiment = custom\n"
                             "sweep_variable = n_ports\n"
                             "sweep_values = 1, 2\n"
                             "schemes = ProposedBisect\n")
        out = tmp_path / "rows.csv"
        rc = main(["run", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert "partial result: 1 of 2" in capsys.readouterr().err
        rows = parse_csv(str(out))
        assert [(r.scheme, r.x_value) for r in rows] == [("ProposedBisect", 2.0)]

    def test_aperture_above_the_limit_exits_3(self, tmp_path):
        # a fresh process, so that an escaping exception would show as its
        # traceback and exit code 1
        src = os.path.dirname(os.path.dirname(fasmon.specfun.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-m", "fasmon.cli", "run", "--config", _cfg(tmp_path, ""),
             "--set", "aperture_w=1e300", "--out", str(tmp_path / "rows.csv")],
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 3
        assert "DomainError" in out.stderr and "aperture_w" in out.stderr
        assert "Traceback" not in out.stderr

    def test_port_count_past_int64_is_a_config_error(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "n_ports = 18446744073709551616\n")
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "rows.csv")])
        assert rc == 2
        assert "n_ports must lie in [1, 9223372036854775807] and be an integer" in \
            capsys.readouterr().err

    def test_port_sweep_past_int64_drops_its_point(self, tmp_path):
        # a fresh process, as above; the point past int64 drops with one
        # stderr line, and the rest of the sweep completes
        src = os.path.dirname(os.path.dirname(fasmon.specfun.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        cfg = _cfg(tmp_path, "experiment = custom\n"
                             "sweep_variable = n_ports\n"
                             "sweep_values = 2, 1e19\n"
                             "schemes = Passive\n")
        out = tmp_path / "rows.csv"
        run = subprocess.run(
            [sys.executable, "-m", "fasmon.cli", "run", "--config", cfg, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 3
        assert "Traceback" not in run.stderr
        assert run.stderr.splitlines()[0].startswith(
            "fasmon: n_ports=1e+19: DomainError: n_ports must lie in [1, ")
        assert [(r.scheme, r.x_value) for r in parse_csv(str(out))] == [("Passive", 2.0)]

    def test_unwritable_output(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, "experiment = custom\n"
                             "sweep_variable = ratio_db\n"
                             "sweep_values = -10\n"
                             "schemes = Passive\n")
        rc = main(["run", "--config", cfg,
                   "--out", str(tmp_path / "no" / "such" / "dir.csv")])
        assert rc == 1
        assert "cannot write output" in capsys.readouterr().err


def _shifted(field, delta):
    """Stand-in factory: the real result with one field moved by delta."""
    def stand_in(real):
        def shifted(*args):
            result = real(*args)
            return dataclasses.replace(
                result, **{field: getattr(result, field) + delta})
        return shifted
    return stand_in


def _alternating_h(real):
    def objective_terms(link, n_ports, xs):
        h, g = real(link, n_ports, xs)
        return h * (-1.0) ** np.arange(h.size), g
    return objective_terms


# (module, name the check looks up, stand-in built from the real function,
#  the one check that must fail). A name patched inside fasmon.validation
# leaves every other caller of the real function untouched; _mix_weight is
# read only by the Monte Carlo sampler, and _laguerre_rule only by the
# quadrature-routes check.
_SABOTAGE = [
    (validation, "marcum_q1", lambda real: lambda a, b: real(a, b) + 1e-9,
     "marcum-q1"),
    (validation, "lambert_w0", lambda real: lambda x: real(x) * (1.0 + 1e-9),
     "lambert-w"),
    (validation, "bessel_j", lambda real: lambda n, z: real(n, z) + 1e-9,
     "bessel-values"),
    (validation, "hyp1f2_half", lambda real: lambda w: real(w) * (1.0 + 1e-9),
     "confluent-series"),
    (validation, "monitor_outage_bound",
     lambda real: lambda link, rp, n: validation.monitor_outage_true(link, rp, n) + 1e-6,
     "outage-directions"),
    (validation, "objective_terms", _alternating_h, "derivative-sign-pattern"),
    (validation, "sd_outage", lambda real: lambda *args: real(*args) + 1e-6,
     "delta-constraint-residuals"),
    (validation, "solve_closed_form", _shifted("r_star", 1e-3),
     "closed-form-stationarity"),
    (validation, "solve_bound_bisect", _shifted("r_star", 1e-2),
     "bisect-vs-bound-grid"),
    (validation, "estimate_sd_outage", _shifted("mean", 1e-2), "mc-sd-outage"),
    (fasmon.channel, "_mix_weight", lambda real: lambda mu: 1.0 - mu,
     "mc-monitor-outage"),
    (fasmon.specfun, "_laguerre_rule",
     lambda real: lambda n: (real(n)[0], real(n)[1] * (1.0 + 1e-9)),
     "outage-quadrature-routes"),
]


class TestValidate:
    def test_quick_suite_passes(self, capsys):
        quick = sum(not check.full_only for check in validation.CHECKS)
        rc = main(["validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"all {quick} checks passed" in out
        assert out.count("[PASS]") == quick

    def test_seed_flag_accepted(self, capsys):
        assert main(["validate", "--seed", "999"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("module, name, stand_in, check", _SABOTAGE,
                             ids=[case[1] for case in _SABOTAGE])
    def test_each_check_can_fail(self, monkeypatch, capsys, module, name,
                                 stand_in, check):
        monkeypatch.setattr(module, name, stand_in(getattr(module, name)))
        rc = validation.run_validation()
        out = capsys.readouterr().out
        assert rc == 4
        assert out.count("[FAIL]") == 1
        assert f"[FAIL] {check}:" in out

    def test_every_quick_check_is_sabotaged(self):
        quick = {check.name for check in validation.CHECKS if not check.full_only}
        assert {case[3] for case in _SABOTAGE} == quick


def test_header_is_stable():
    assert CSV_HEADER == ("experiment,scheme,x_name,x_value,r_star_bits,"
                          "pm_star_db,rate_analytic,rate_mc_mean,"
                          "rate_mc_ci95,clamped")
