"""Configuration parsing, defaults, aliases, and validation errors."""

import math

import pytest

from fasmon import (ConfigError, ExperimentSpec, Scheme, db_to_linear,
                    parse_config)
from fasmon.config import parse_overrides, resolve_config


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestDefaults:
    def test_empty_file_is_reference_setup(self, tmp_path):
        spec = parse_config(_write(tmp_path, ""))
        assert spec.experiment == "fig2"
        assert spec.sweep_variable == "ratio_db"
        assert spec.sweep_values == tuple(float(v) for v in range(-20, 1, 2))
        assert spec.schemes == tuple(Scheme)
        assert spec.mc_samples == 0
        assert spec.seed == 12345
        p = spec.params
        assert p.p_s == 100.0
        assert p.p_m_max == 1000.0
        assert p.sigma_g2 == 10.0 ** -1.8
        assert p.sigma_f2 == p.sigma_g2
        assert (p.sigma_h2, p.sigma_d2, p.sigma_m2) == (1.0, 1.0, 1.0)
        assert p.delta == 0.05
        assert p.n_ports == 8
        assert p.aperture_w == 5.0

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        spec = parse_config(_write(tmp_path, "\n# comment\n  \nn_ports = 4 # inline\n"))
        assert spec.params.n_ports == 4

    def test_fig1_sweep(self, tmp_path):
        spec = parse_config(_write(tmp_path, "experiment = fig1"))
        assert spec.sweep_variable == "p_m_db"
        assert len(spec.sweep_values) == 121
        assert spec.sweep_values[0] == 0.0
        assert spec.sweep_values[-1] == 30.0
        assert spec.schemes == ()

    def test_fig3_sweep(self, tmp_path):
        spec = parse_config(_write(tmp_path, "experiment = fig3"))
        assert spec.sweep_variable == "n_ports"
        assert spec.sweep_values == tuple(float(n) for n in range(2, 17))
        assert spec.schemes == tuple(Scheme)


class TestSourcesAndPrecedence:
    def test_json_object(self, tmp_path):
        text = '{"experiment": "fig3", "n_ports": 12, "ratio_db": -6}'
        spec = parse_config(_write(tmp_path, text, "run.json"))
        assert spec.experiment == "fig3"
        assert spec.params.n_ports == 12
        assert spec.params.sigma_g2 == 10.0 ** -0.6

    def test_ratio_alias(self, tmp_path):
        a = parse_config(_write(tmp_path, "ratio_db = -12", "a.cfg"))
        b = parse_config(_write(tmp_path, "sigma_ratio_db = -12", "b.cfg"))
        assert a.params.sigma_g2 == b.params.sigma_g2 == 10.0 ** -1.2

    def test_overrides_beat_file(self, tmp_path):
        path = _write(tmp_path, "n_ports = 4\np_s_db = 10")
        spec = parse_config(path, ["n_ports=16", "seed=7"])
        assert spec.params.n_ports == 16
        assert spec.params.p_s == pytest.approx(10.0)
        assert spec.seed == 7

    def test_later_override_wins(self):
        values = parse_overrides(["n_ports=4", "n_ports=9"])
        assert values == {"n_ports": 9}

    def test_db_conversion(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(20.0) == 100.0
        assert db_to_linear(-18.0) == 10.0 ** -1.8
        assert db_to_linear(3.0) == pytest.approx(10.0 ** 0.3, rel=1e-15)

    def test_custom_experiment(self, tmp_path):
        text = ("experiment = custom\n"
                "sweep_variable = ratio_db\n"
                "sweep_values = -10, -5, 0\n"
                "schemes = ProposedBisect, Passive\n")
        spec = parse_config(_write(tmp_path, text))
        assert spec.sweep_values == (-10.0, -5.0, 0.0)
        assert spec.schemes == (Scheme.PROPOSED_BISECT, Scheme.PASSIVE)

    def test_library_values_are_parsed(self):
        assert resolve_config({"schemes": "Passive"}).schemes == (Scheme.PASSIVE,)
        # values a reader already parsed pass through unchanged
        parsed = (Scheme.PASSIVE, Scheme.TRUE_GRID)
        assert resolve_config({"schemes": parsed}).schemes == parsed
        with pytest.raises(ConfigError):
            resolve_config({"schemes": "Nope"})

    def test_custom_pm_sweep_defaults_to_curves(self, tmp_path):
        text = ("experiment = custom\n"
                "sweep_variable = p_m_db\n"
                "sweep_values = 0, 10, 20\n")
        spec = parse_config(_write(tmp_path, text))
        assert spec.schemes == ()


class TestErrors:
    def test_unknown_key_reports_location(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "p_s_db = 20\nbogus = 1\n"))
        assert err.value.key == "bogus"
        assert err.value.line == 2

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "delta = lots"))
        assert err.value.key == "delta"

    def test_duplicate_key_reports_both_lines(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "seed = 1\n\nseed = 2\n"))
        assert err.value.line == 3
        assert "line 1" in str(err.value)

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "just some words\n"))
        assert err.value.line == 1

    def test_fig_sweep_variable_conflict(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path,
                                "experiment = fig2\nsweep_variable = n_ports\n"))
        assert err.value.key == "sweep_variable"

    def test_unknown_scheme_lists_known(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "schemes = ProposedBisect, Turbo"))
        assert "Turbo" in str(err.value)
        assert "ProposedClosedForm" in str(err.value)

    def test_non_increasing_sweep(self, tmp_path):
        text = ("experiment = custom\nsweep_variable = ratio_db\n"
                "sweep_values = -4, -4, 0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, text))
        assert err.value.key == "sweep_values"

    def test_custom_requires_sweep(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(_write(tmp_path, "experiment = custom"))

    def test_bad_delta_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(_write(tmp_path, "delta = 1.5"))

    def test_empty_schemes_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "schemes ="))
        assert err.value.key == "schemes"

    def test_schemes_on_pm_sweep_rejected(self, tmp_path):
        text = "experiment = fig1\nschemes = Passive\n"
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, text))
        assert err.value.key == "schemes"

    def test_fractional_port_sweep_rejected(self, tmp_path):
        text = ("experiment = custom\nsweep_variable = n_ports\n"
                "sweep_values = 2, 2.5, 3\n")
        with pytest.raises(ConfigError):
            parse_config(_write(tmp_path, text))

    def test_override_without_equals(self):
        with pytest.raises(ConfigError):
            parse_overrides(["n_ports"])

    def test_json_must_be_object(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(_write(tmp_path, "[1, 2]", "run.json"))

    def test_invalid_json(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(_write(tmp_path, '{"experiment": }', "run.json"))

    def test_bad_experiment_name(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"experiment": "fig9"})
        assert err.value.key == "experiment"

    @pytest.mark.parametrize("values, key", [
        ({"sigma_ratio_db": 1e308}, "sigma_ratio_db"),
        ({"p_s_db": 1e308}, "p_s_db"),
        ({"p_m_max_db": 1e308}, "p_m_max_db"),
        ({"experiment": "fig2", "sweep_values": [-20.0, 1e308]}, "sweep_values"),
        ({"experiment": "fig1", "sweep_values": [0.0, 1e308]}, "sweep_values")])
    def test_overflowing_db_value_names_its_key(self, values, key):
        # 10^(dB/10) overflows a float: a ConfigError, not an OverflowError
        with pytest.raises(ConfigError) as err:
            resolve_config(values)
        assert err.value.key == key

    def test_negative_counters(self):
        with pytest.raises(ConfigError):
            resolve_config({"mc_samples": -1})
        with pytest.raises(ConfigError):
            resolve_config({"seed": -1})


def test_spec_is_immutable(tmp_path):
    spec = parse_config(_write(tmp_path, ""))
    assert isinstance(spec, ExperimentSpec)
    with pytest.raises(Exception):
        spec.seed = 0
