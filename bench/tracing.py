"""Layer-boundary tracing from outside the program.

``Tracer.install`` replaces the names that each calling module imported
(``expmean.zerofind.evaluate_array``, ``expmean.meanvalue.truncated_reciprocal``,
...) with timing wrappers, and ``Tracer.remove`` puts the originals back.
Calls that carry a layer's structure (an op, a search, a series, a report)
become spans with a name, start, end and parent.  Calls made thousands of
times per op (array and scalar evaluations, sum products, exact coefficient
products) are counted and timed in place, and their time is charged to the
enclosing span, so self time is a span's duration minus its child spans and
these calls.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import time
from collections import Counter

perf = time.perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "child")

    def __init__(self, name: str, parent: int, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0


class Tracer:
    def __init__(self, modules: dict):
        self.m = modules
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.max_degree = 0
        self._derivatives: dict[int, object] = {}
        self._reports_open = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            sp = Span(name, parent, perf())
            self.stack.append(len(self.spans))
            self.spans.append(sp)
            try:
                return fn(*args, **kwargs)
            finally:
                sp.end = perf()
                self.stack.pop()
                if parent >= 0:
                    self.spans[parent].child += sp.end - sp.start

        return wrapper

    def _charge(self, key: str, dt: float) -> None:
        self.times[key] += dt
        if self.stack:
            self.spans[self.stack[-1]].child += dt

    def _eval_array(self, fn):
        def wrapper(f, zs):
            t = perf()
            out = fn(f, zs)
            self._charge("sums.eval", perf() - t)
            self.counts["sums.eval_calls"] += 1
            self.counts["sums.eval_points"] += out.size
            if id(f) in self._derivatives:
                self.counts["zerofind.contour_evals"] += 1
                self.counts["zerofind.contour_points"] += out.size
                if out.size == self.capped_points:
                    self.counts["zerofind.capped_contours"] += 1
            else:
                self.counts["f_points"] += out.size
            return out

        return wrapper

    def _timed(self, key: str, fn, pairs: bool = False):
        def wrapper(*args, **kwargs):
            t = perf()
            out = fn(*args, **kwargs)
            self._charge(key, perf() - t)
            self.counts[key + "_calls"] += 1
            if pairs:
                self.counts[key + "_term_pairs"] += len(args[0].terms) * len(args[1].terms)
            return out

        return wrapper

    def _counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _derivative(self, fn):
        def wrapper(f):
            out = fn(f)
            self._derivatives[id(out)] = out  # kept alive so the id stays unique
            return out

        return wrapper

    def _search(self, fn):
        inner = self.span("zerofind.search", fn)

        def wrapper(*args, **kwargs):
            res = inner(*args, **kwargs)
            self.counts["verify.searches"] += self._reports_open > 0
            self.counts["zerofind.zeros_found"] += sum(z.multiplicity for z in res.zeros)
            return res

        return wrapper

    def _report(self, fn):
        inner = self.span("verify.report", fn)

        def wrapper(*args, **kwargs):
            self.counts["verify.reports"] += 1
            self._reports_open += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._reports_open -= 1

        return wrapper

    def _render(self, fn):
        inner = self.span("cli.render", fn)

        def wrapper(obj):
            out = inner(obj)
            self.counts["cli.render_bytes"] += len(out)
            return out

        return wrapper

    def _reciprocal(self, fn):
        inner = self.span("meanvalue.reciprocal", fn)

        def wrapper(*args, **kwargs):
            res = inner(*args, **kwargs)
            self.counts["meanvalue.reciprocal_calls"] += 1
            self.counts["meanvalue.series_terms"] += res.sum.num_terms()
            return res

        return wrapper

    def _roots(self, fn):
        inner = self.span("laurent.roots", fn)

        def wrapper(p):
            self.counts["laurent.roots_calls"] += 1
            self.max_degree = max(self.max_degree, p.exponent_span())
            return inner(p)

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, obj, attr: str, wrapper) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def install(self) -> None:
        m = self.m
        cli, zf, mv, lau, ver, ex = (m["cli"], m["zerofind"], m["meanvalue"], m["laurent"],
                                     m["verify"], m["exact"])
        n_top = zf.QuadratureConfig().edge_samples_initial * 2 ** zf._MAX_EDGE_DOUBLINGS
        self.capped_points = 4 * (n_top + 1)
        self._patch(cli, "load_problem", self.span("cli.parse", cli.load_problem))
        self._patch(cli, "render_json", self._render(cli.render_json))
        for name, fn in list(cli._COMMANDS.items()):
            self._saved.append((cli._COMMANDS, name, fn))
            cli._COMMANDS[name] = self.span("cli.command", fn)
        search = self._search(zf.search_zeros)
        self._patch(cli, "search_zeros", search)
        self._patch(ver, "search_zeros", search)
        self._patch(zf, "strip_bound", self.span("zerofind.strip_bound", zf.strip_bound))
        self._patch(zf, "derivative", self._derivative(zf.derivative))
        self._patch(zf, "evaluate_array", self._eval_array(zf.evaluate_array))
        self._patch(zf, "coefficient_envelope", self._timed("sums.envelope", zf.coefficient_envelope))
        self._patch(zf, "evaluate", self._timed("sums.scalar_eval", zf.evaluate))
        self._patch(ver, "evaluate", self._timed("sums.scalar_eval", ver.evaluate))
        mean = self.span("meanvalue.mean", mv.mean_value)
        self._patch(cli, "mean_value", mean)
        self._patch(mv, "mean_value", mean)  # verify imports it at call time
        self._patch(mv, "truncated_reciprocal", self._reciprocal(mv.truncated_reciprocal))
        self._patch(mv, "multiply", self._timed("sums.multiply", mv.multiply, pairs=True))
        self._patch(lau, "roots_nonzero", self._roots(lau.roots_nonzero))
        self._patch(cli, "convergence_report", self._report(cli.convergence_report))
        self._patch(ex.ExactCoeff, "__mul__", self._counted("exact.coeff_muls", ex.ExactCoeff.__mul__))

    def remove(self) -> None:
        for obj, attr, orig in reversed(self._saved):
            if isinstance(obj, dict):
                obj[attr] = orig
            else:
                setattr(obj, attr, orig)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def op(self, fn):
        """Wrap one op so its spans hang under an ``op`` root span."""
        return self.span("op", fn)

    def snapshot(self) -> tuple[dict, dict]:
        """(deterministic counts, times in seconds) recorded so far."""
        self_time: Counter = Counter()
        for sp in self.spans:
            self_time[sp.name] += (sp.end - sp.start) - sp.child
        counts = dict(self.counts)
        counts["laurent.max_degree"] = self.max_degree
        times = dict(self.times)
        times.update({"self:" + k: v for k, v in self_time.items()})
        return counts, times

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.times.clear()
        self.max_degree = 0
        self._derivatives.clear()

    def write(self, path: str, spans: list[Span]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(spans):
                fh.write(json.dumps({"id": i, "name": sp.name, "parent": sp.parent,
                                     "start": sp.start, "end": sp.end}) + "\n")


def layer_metrics(counts: dict, times: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json from one traced pass."""
    c = lambda k: counts.get(k, 0)  # noqa: E731
    t = lambda k: times.get(k, 0.0)  # noqa: E731
    zeros = c("zerofind.zeros_found")
    return {
        "sums.eval_calls": (c("sums.eval_calls"), "count"),
        "sums.eval_points": (c("sums.eval_points"), "count"),
        "sums.eval_s": (t("sums.eval"), "s"),
        "sums.eval_ns_per_point": (1e9 * t("sums.eval") / max(1, c("sums.eval_points")), "ns"),
        "sums.envelope_s": (t("sums.envelope"), "s"),
        "sums.scalar_evals": (c("sums.scalar_eval_calls"), "count"),
        "sums.multiply_calls": (c("sums.multiply_calls"), "count"),
        "sums.multiply_term_pairs": (c("sums.multiply_term_pairs"), "count"),
        "sums.multiply_s": (t("sums.multiply"), "s"),
        "exact.coeff_muls": (c("exact.coeff_muls"), "count"),
        "zerofind.search_s": (t("self:zerofind.search"), "s"),
        "zerofind.contour_evals": (c("zerofind.contour_evals"), "count"),
        "zerofind.contour_points": (c("zerofind.contour_points"), "count"),
        "zerofind.capped_contours": (c("zerofind.capped_contours"), "count"),
        "zerofind.points_per_zero": (c("zerofind.contour_points") / max(1, zeros), "count"),
        "zerofind.scan_points": (c("f_points") - c("zerofind.contour_points"), "count"),
        "zerofind.strip_bound_s": (t("self:zerofind.strip_bound"), "s"),
        "zerofind.zeros_found": (zeros, "count"),
        "meanvalue.reciprocal_calls": (c("meanvalue.reciprocal_calls"), "count"),
        "meanvalue.reciprocal_s": (t("self:meanvalue.reciprocal"), "s"),
        "meanvalue.series_terms": (c("meanvalue.series_terms"), "count"),
        "meanvalue.mean_s": (t("self:meanvalue.mean"), "s"),
        "laurent.roots_calls": (c("laurent.roots_calls"), "count"),
        "laurent.roots_s": (t("self:laurent.roots"), "s"),
        "laurent.max_degree": (c("laurent.max_degree"), "count"),
        "verify.searches_per_report": (
            c("verify.searches") / max(1, c("verify.reports")), "count"),
        "verify.report_s": (t("self:verify.report"), "s"),
        "cli.parse_s": (t("self:cli.parse"), "s"),
        "cli.render_s": (t("self:cli.render"), "s"),
        "cli.render_bytes": (c("cli.render_bytes"), "bytes"),
    }
