"""The benchmark tracer still finds every name it wraps.

bench/tracing.py counts work by replacing names in the expmean modules, so
a rename in the library would otherwise break only the traced benchmark
run.  This installs the tracer, runs the benchmark's probe ops (one small
run of every command on problems/*.json) and checks that each layer counted
some work, that each verify report ran one zero search, and that the
probe's reciprocal series do exactly the counted work of the benchmark's
baseline.
"""

import importlib.util
import sys
from pathlib import Path

from expmean import cli

ROOT = Path(__file__).resolve().parent.parent


def _bench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer(capsys, monkeypatch):
    tracing = _bench_module("tracing", monkeypatch)
    workloads = _bench_module("workloads", monkeypatch)
    names = ("cli", "zerofind", "meanvalue", "laurent", "verify", "exact")
    tracer = tracing.Tracer({k: sys.modules["expmean." + k] for k in names})
    tracer.install()
    try:
        codes = {op.name: cli.run(op.argv) for op in workloads.probe_ops(str(ROOT))}
    finally:
        tracer.remove()
    capsys.readouterr()
    assert set(codes.values()) == {0}, codes
    counts, _ = tracer.snapshot()
    for key in (
        "zerofind.contour_evals",
        "meanvalue.reciprocal_calls",
        "sums.scalar_eval_calls",
        "laurent.roots_calls",
        "verify.reports",
        "cli.render_bytes",
    ):
        assert counts.get(key, 0) > 0, key
    # one zero search serves a whole verify ladder
    assert counts["verify.searches"] == counts["verify.reports"]
    # the series work the benchmark counts: a kernel change must not move it
    assert counts["meanvalue.reciprocal_calls"] == 8
    assert counts["meanvalue.series_terms"] == 9


def test_sanity_searches_hold(tmp_path, monkeypatch):
    # the traced benchmark reports correct: false when these lines fail
    tracing = _bench_module("tracing", monkeypatch)
    monkeypatch.setitem(sys.modules, "workloads", _bench_module("workloads", monkeypatch))
    bench_run = _bench_module("run", monkeypatch)
    names = ("cli", "zerofind", "meanvalue", "laurent", "verify", "exact")
    tracer = tracing.Tracer({k: sys.modules["expmean." + k] for k in names})
    tracer.install()
    try:
        lines, errors = bench_run.sanity_searches(cli, tracer, str(ROOT), str(tmp_path))
    finally:
        tracer.remove()
    assert len(lines) == 2 and errors == [], lines
