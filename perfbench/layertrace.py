"""Per-layer tracing of fasmon from outside the package.

`Tracer.install` rebinds fasmon's public functions, in every fasmon module
that looks them up, to timing wrappers. Calls at a layer boundary become
spans (name, start, end, parent); the hot leaf, `marcum_q1`, is aggregated
as a count and a time on its parent span instead. A span's self time is its
duration minus the time its child spans and leaves cover.

The layer names are the fasmon module names. Nothing here changes what the
wrapped functions compute: the wrappers pass arguments and results through.
"""

from __future__ import annotations

import json
import os
import sys
import time

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_s", "leaves", "attrs")

    def __init__(self, span_id: int, parent: int, name: str, start: float):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.leaves: dict[str, list] = {}
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.t0 = _clock()
        self.root = Span(0, -1, "root", self.t0)
        self.stack = [self.root]
        self.spans: list[Span] = []     # in order of ending
        self.next_id = 1                # span ids, in order of starting
        self.rule_sizes: set[int] = set()  # quadrature rule sizes seen so far

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, on_call=None):
        """Wrap fn so each call is a span. on_call(span, args, kwargs,
        result) may add attributes once the call has ended; a failed call
        has an "error" attribute and result None."""
        stack, spans = self.stack, self.spans

        def wrapped(*args, **kwargs):
            parent = stack[-1]
            span = Span(self.next_id, parent.id, name, _clock())
            self.next_id += 1
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = _clock()
                stack.pop()
                parent.child_s += span.duration
                spans.append(span)
                if on_call is not None:
                    on_call(span, args, kwargs, result)

        return wrapped

    def leaf(self, name: str, fn):
        """Wrap a hot leaf: count and time accumulate on the parent span."""
        stack = self.stack

        def wrapped(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                top = stack[-1]
                top.child_s += dt
                acc = top.leaves.get(name)
                if acc is None:
                    top.leaves[name] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        return wrapped

    def _integrate(self, fn):
        """integrate_expweighted, counting integrand node evaluations and
        marking calls that first reached a rule size in this process."""
        rule_sizes = self.rule_sizes

        def counted_integral(f, *args, **kwargs):
            span = self.stack[-1]
            span.attrs["nodes"] = 0

            def integrand(ts):
                n = getattr(ts, "size", 1)
                span.attrs["nodes"] += n
                if n > 1 and n not in rule_sizes:
                    rule_sizes.add(n)
                    span.attrs["cold"] = True
                return f(ts)

            return fn(integrand, *args, **kwargs)

        return self.span("specfun.integrate_expweighted", counted_integral)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind fasmon's layer functions to traced versions everywhere
        fasmon looks them up."""
        from fasmon import (channel, config, experiments, mcsim, optimize,
                            outage, reporting, specfun)

        def scheme_attrs(span, args, kwargs, result):
            # evaluate_scheme(params, link, scheme, spec=None)
            scheme = kwargs["scheme"] if "scheme" in kwargs else args[2]
            span.attrs["scheme"] = scheme.value
            if result is not None:
                span.attrs["iterations"] = result.iterations

        def mc_attrs(span, args, kwargs, result):
            # estimate_monitoring_rate(params, link, rate_point, n_ports, n_samples, seed)
            names = ("params", "link", "rate_point", "n_ports", "n_samples", "seed")
            bound = dict(zip(names, args), **kwargs)
            span.attrs["port_draws"] = bound["n_samples"] * bound["n_ports"]

        def emit_attrs(span, args, kwargs, result):
            # emit_csv(rows, path) and emit_svg(rows, path)
            if "error" not in span.attrs:
                span.attrs["bytes"] = os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])

        replacements = {
            config.parse_config: self.span("config.parse_config", config.parse_config),
            channel.derive_link: self.span("channel.derive_link", channel.derive_link),
            specfun.marcum_q1: self.leaf("specfun.marcum_q1", specfun.marcum_q1),
            specfun.integrate_expweighted: self._integrate(specfun.integrate_expweighted),
            outage.monitor_outage_true: self.span("outage.monitor_outage_true",
                                                  outage.monitor_outage_true),
            optimize.evaluate_scheme: self.span("optimize.evaluate_scheme",
                                                optimize.evaluate_scheme, scheme_attrs),
            mcsim.estimate_monitoring_rate: self.span("mcsim.estimate_monitoring_rate",
                                                      mcsim.estimate_monitoring_rate, mc_attrs),
            experiments.run_experiment: self.span("experiments.run_experiment",
                                                  experiments.run_experiment),
            reporting.emit_csv: self.span("reporting.emit_csv", reporting.emit_csv, emit_attrs),
            reporting.emit_svg: self.span("reporting.emit_svg", reporting.emit_svg, emit_attrs),
        }
        by_id = {id(orig): new for orig, new in replacements.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fasmon" and not mod_name.startswith("fasmon."):
                continue
            for attr, value in list(vars(module).items()):
                new = by_id.get(id(value))
                if new is not None:
                    setattr(module, attr, new)

    # -- results ------------------------------------------------------------

    def metrics(self, schemes) -> dict[str, float]:
        """Per-layer totals over every span recorded so far."""
        by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)

        def total(name, attr="duration"):
            return sum(getattr(s, attr) for s in by_name.get(name, ()))

        leaf_calls, leaf_s = 0, 0.0
        for span in [self.root, *self.spans]:
            acc = span.leaves.get("specfun.marcum_q1")
            if acc is not None:
                leaf_calls += acc[0]
                leaf_s += acc[1]

        integrals = by_name.get("specfun.integrate_expweighted", [])
        integrals_per_parent: dict[int, int] = {}
        for s in integrals:
            integrals_per_parent[s.parent] = integrals_per_parent.get(s.parent, 0) + 1
        outage_spans = by_name.get("outage.monitor_outage_true", [])
        scheme_spans = by_name.get("optimize.evaluate_scheme", [])
        mc_spans = by_name.get("mcsim.estimate_monitoring_rate", [])
        mc_s = total("mcsim.estimate_monitoring_rate")

        out = {
            "config.parse_s": total("config.parse_config"),
            "channel.derive_link.calls": len(by_name.get("channel.derive_link", [])),
            "channel.derive_link.s": total("channel.derive_link"),
            "specfun.marcum_q1.calls": leaf_calls,
            "specfun.marcum_q1.s": leaf_s,
            "specfun.marcum_q1.us_per_call": 1e6 * leaf_s / leaf_calls if leaf_calls else 0.0,
            "specfun.integrate_expweighted.calls": len(integrals),
            "specfun.integrate_expweighted.s": total("specfun.integrate_expweighted"),
            "specfun.integrate_expweighted.self_s": total("specfun.integrate_expweighted", "self_s"),
            "specfun.integrate_expweighted.nodes": sum(s.attrs.get("nodes", 0) for s in integrals),
            "specfun.integrate_expweighted.failures": sum(
                1 for s in integrals if s.attrs.get("error") == "AccuracyError"),
            "specfun.integrate_expweighted.cold_s": sum(
                s.duration for s in integrals if s.attrs.get("cold")),
            "outage.monitor_outage_true.calls": len(outage_spans),
            "outage.monitor_outage_true.s": total("outage.monitor_outage_true"),
            "outage.monitor_outage_true.self_s": total("outage.monitor_outage_true", "self_s"),
            "outage.monitor_outage_true.escalations": sum(
                1 for s in outage_spans if integrals_per_parent.get(s.id, 0) >= 2),
            "optimize.true_grid.evals": sum(
                s.attrs.get("iterations", 0) for s in scheme_spans
                if s.attrs.get("scheme") == "TrueGrid"),
            "optimize.bisect.iterations": sum(
                s.attrs.get("iterations", 0) for s in scheme_spans
                if s.attrs.get("scheme") == "ProposedBisect"),
            "mcsim.estimate_monitoring_rate.s": mc_s,
            "mcsim.port_draws_per_s": (
                sum(s.attrs.get("port_draws", 0) for s in mc_spans) / mc_s if mc_s else 0.0),
            "experiments.run_experiment.s": total("experiments.run_experiment"),
            "experiments.run_experiment.self_s": total("experiments.run_experiment", "self_s"),
            "reporting.emit.s": total("reporting.emit_csv") + total("reporting.emit_svg"),
            "reporting.bytes": sum(s.attrs.get("bytes", 0)
                                   for name in ("reporting.emit_csv", "reporting.emit_svg")
                                   for s in by_name.get(name, ())),
        }
        for scheme in schemes:
            mine = [s for s in scheme_spans if s.attrs.get("scheme") == scheme]
            out[f"optimize.evaluate_scheme.{scheme}.s"] = sum(s.duration for s in mine)
            out[f"optimize.evaluate_scheme.{scheme}.self_s"] = sum(s.self_s for s in mine)
        return out

    def dump(self, path: str) -> None:
        """Write every span: [id, parent, name, start, end, self_s, leaves,
        attrs], times in seconds since the tracer started."""
        rows = [[s.id, s.parent, s.name, s.start - self.t0, s.end - self.t0,
                 s.self_s, s.leaves, s.attrs] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"root_leaves": self.root.leaves, "spans": rows}, fh,
                      separators=(",", ":"))
