"""The argument contract: every library entry point refuses an argument
outside its domain with DomainError, and never returns a number for it or
fails some other way.

One table row per entry point and argument. A real argument is fed NaN,
+-inf, a bool, a string and None, and -1 or 2**64 where they lie outside
its domain; a count (port counts, sample counts, seeds, the Bessel order)
is also fed 8.5; an array argument gets NaN, +-inf and -1 as one of its
elements. A row fails if any of its values is not refused with
DomainError. Warnings are errors here, so a check that lets a value reach
the arithmetic fails too. SystemParams' port count, and solve_bound_bisect's
single port, are checked where those are tested.
"""

import dataclasses
import math

import numpy as np
import pytest

from fasmon import (DerivedLink, RatePoint, bessel_j, correlation_mu,
                    estimate_monitor_outage, estimate_monitoring_rate,
                    estimate_sd_outage, hyp1f2_half, integrate_expweighted,
                    lambert_w0, marcum_q1, monitor_outage_approx,
                    monitor_outage_bound, monitor_outage_true, objective_terms,
                    rate_for_pm, resolve_config, derive_link, sd_outage)
from fasmon.errors import DomainError, check_count, check_nonneg_array, check_real
from fasmon.mcsim import estimate_monitoring_rates
from fasmon.outage import link_rates_true

_PARAMS = resolve_config({}).params
_LINK = derive_link(_PARAMS)
_RP = RatePoint(1.0)

_NON_FINITE = [math.nan, math.inf, -math.inf]
_NON_REAL = [True, "8", None]
_REAL = _NON_FINITE + _NON_REAL
_NONNEG_REAL = _REAL + [-1]
_COUNT = _NONNEG_REAL + [8.5]
_PORT_COUNT = _COUNT + [0, 2 ** 64]
_ELEMENT = _NON_FINITE + [-1.0]
# numpy turns a string or bool among numbers into a float; a whole array of
# them keeps a dtype that is not a real number's
_NON_REAL_ARRAYS = [np.array(["1.0"]), np.array([True]), np.array([1j])]


def _params(**fields):
    return dataclasses.replace(_PARAMS, **fields)


# (entry point and argument, the call with that argument set to v, bad values)
_TABLE = [
    *[(f"SystemParams.{name}", lambda v, name=name: _params(**{name: v}), _NONNEG_REAL)
      for name in ("p_s", "p_m_max", "sigma_h2", "sigma_g2", "sigma_f2",
                   "sigma_d2", "sigma_m2", "aperture_w")],
    ("SystemParams.delta", lambda v: _params(delta=v), _NONNEG_REAL + [8.5, 2 ** 64]),
    ("DerivedLink.mu", lambda v: DerivedLink(v, 1.0), _NONNEG_REAL + [8.5, 2 ** 64]),
    ("DerivedLink.gamma_cap", lambda v: DerivedLink(0.25, v), _NONNEG_REAL),
    ("correlation_mu.aperture_w", correlation_mu, _NONNEG_REAL + [2 ** 64]),
    ("hyp1f2_half.aperture_w", hyp1f2_half, _NONNEG_REAL + [2 ** 64]),
    ("bessel_j.order", lambda v: bessel_j(v, 2.0), _COUNT + [2, 2 ** 64]),
    ("bessel_j.z", lambda v: bessel_j(1, v), _NONNEG_REAL + [2 ** 64]),
    ("lambert_w0.x", lambert_w0, _NONNEG_REAL),
    ("RatePoint.rate_r", RatePoint, _NONNEG_REAL),
    ("sd_outage.p_m", lambda v: sd_outage(_PARAMS, _RP, v), _NONNEG_REAL),
    ("rate_for_pm.p_m", lambda v: rate_for_pm(_PARAMS, v), _NONNEG_REAL + [2 ** 64]),
    ("monitor_outage_true.n_ports",
     lambda v: monitor_outage_true(_LINK, _RP, v), _PORT_COUNT),
    ("monitor_outage_bound.n_ports",
     lambda v: monitor_outage_bound(_LINK, _RP, v), _PORT_COUNT),
    ("monitor_outage_approx.n_ports",
     lambda v: monitor_outage_approx(_LINK, _RP, v), _PORT_COUNT),
    ("link_rates_true.n_ports",
     lambda v: link_rates_true(_LINK, [1.0, 1.0], [8, v]), _PORT_COUNT),
    ("link_rates_true.rates",
     lambda v: link_rates_true(_LINK, [1.0, v], 8), _ELEMENT + _NON_REAL),
    ("link_rates_true.rates_array", lambda v: link_rates_true(_LINK, v, 8), _NON_REAL_ARRAYS),
    # one link per rate must share mu and match the rates in number
    ("link_rates_true.link", lambda v: link_rates_true(v, [1.0, 1.0], 8),
     [[_LINK, DerivedLink(0.5, _LINK.gamma_cap)], [_LINK], [_LINK, "link"],
      (_LINK, _LINK, _LINK)] + _NON_REAL),
    ("objective_terms.n_ports", lambda v: objective_terms(_LINK, v, 1.0), _PORT_COUNT + [1]),
    ("objective_terms.x", lambda v: objective_terms(_LINK, 8, np.array([1.0, v])),
     _ELEMENT + ["8"]),
    ("objective_terms.scalar_x", lambda v: objective_terms(_LINK, 8, v), _ELEMENT + _NON_REAL),
    ("marcum_q1.a", lambda v: marcum_q1(np.array([1.0, v]), 1.0), _ELEMENT + ["8"]),
    ("marcum_q1.b", lambda v: marcum_q1(1.0, np.array([1.0, v])), _ELEMENT + ["8"]),
    ("marcum_q1.a_array", lambda v: marcum_q1(v, 1.0), _NON_REAL + _NON_REAL_ARRAYS),
    ("marcum_q1.b_array", lambda v: marcum_q1(1.0, v), _NON_REAL + _NON_REAL_ARRAYS),
    ("integrate_expweighted.width",
     lambda v: integrate_expweighted(np.exp, 0.0, math.inf, width=v), _NONNEG_REAL + [0]),
    ("estimate_sd_outage.p_m",
     lambda v: estimate_sd_outage(_PARAMS, _RP, v, 100, 1), _NONNEG_REAL),
    ("estimate_sd_outage.n_samples",
     lambda v: estimate_sd_outage(_PARAMS, _RP, 1.0, v, 1), _COUNT + [0]),
    ("estimate_sd_outage.seed",
     lambda v: estimate_sd_outage(_PARAMS, _RP, 1.0, 100, v), _COUNT),
    ("estimate_monitor_outage.n_ports",
     lambda v: estimate_monitor_outage(_PARAMS, _LINK, _RP, v, 100, 1), _PORT_COUNT),
    ("estimate_monitor_outage.n_samples",
     lambda v: estimate_monitor_outage(_PARAMS, _LINK, _RP, 8, v, 1), _COUNT + [0]),
    ("estimate_monitor_outage.seed",
     lambda v: estimate_monitor_outage(_PARAMS, _LINK, _RP, 8, 100, v), _COUNT),
    ("estimate_monitoring_rate.n_ports",
     lambda v: estimate_monitoring_rate(_PARAMS, _LINK, _RP, v, 100, 1), _PORT_COUNT),
    ("estimate_monitoring_rates.n_ports",
     lambda v: estimate_monitoring_rates([(_PARAMS, _LINK, _RP, 8, 100, 1),
                                          (_PARAMS, _LINK, _RP, v, 100, 1)]), _PORT_COUNT),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, values", [pytest.param(call, values, id=where)
                                          for where, call, values in _TABLE])
def test_bad_arguments_are_domain_errors(call, values):
    wrong = []
    for value in values:
        try:
            call(value)
        except DomainError:
            continue
        except Exception as exc:
            wrong.append(f"{value!r}: {type(exc).__name__}: {exc}")
        else:
            wrong.append(f"{value!r}: returned")
    assert wrong == []


@pytest.mark.parametrize("ports", [[1, True], [True, 1]])
def test_bool_port_count_in_a_block_is_refused_in_either_order(ports):
    # True == 1, so a check of each distinct value once would see only one
    with pytest.raises(DomainError, match="got True"):
        link_rates_true(_LINK, [1.0, 1.0], ports)


@pytest.mark.filterwarnings("error")
def test_non_integer_port_count_is_not_truncated():
    # 8.5 ports used to give exactly the 8-port outage
    with pytest.raises(DomainError, match="n_ports must lie in"):
        monitor_outage_true(_LINK, RatePoint(1.0), 8.5)


class TestChecks:
    @pytest.mark.parametrize("value", [8, 8.0, np.int64(8), np.float64(8.0), np.uint8(8)])
    def test_count_accepts_integral_reals(self, value):
        count = check_count("n", value, 1, 8)
        assert count == 8 and type(count) is int

    def test_count_has_no_upper_bound_by_default(self):
        # seeds: any nonnegative integer, as numpy's SeedSequence takes
        assert check_count("seed", 2 ** 70, 0) == 2 ** 70

    def test_real_returns_a_float(self):
        value = check_real("p", np.float32(0.5), "positive", lambda v: v > 0.0)
        assert value == 0.5 and type(value) is float
        assert check_real("p", 3, "positive", lambda v: v > 0.0) == 3.0

    def test_one_wording_per_kind(self):
        with pytest.raises(DomainError, match=r"^p must be finite and positive, got 10{400}$"):
            check_real("p", 10 ** 400, "positive", lambda v: v > 0.0)
        with pytest.raises(DomainError,
                           match=r"^n must lie in \[1, 8\] and be an integer, got 8\.5$"):
            check_count("n", 8.5, 1, 8)
        with pytest.raises(DomainError,
                           match=r"^a must be finite and nonnegative, got nan$"):
            check_nonneg_array("a", [1.0, math.nan])

    def test_seeds_past_int64_still_run(self):
        # the seed check does not narrow what the generator accepts
        a = estimate_sd_outage(_PARAMS, _RP, 1.0, 100, 2 ** 70)
        assert a == estimate_sd_outage(_PARAMS, _RP, 1.0, 100, 2 ** 70)
