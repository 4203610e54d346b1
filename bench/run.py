"""Seeded end-to-end benchmark for expmean.

Run from the repository root:

    python3 bench/run.py --workload zeros-aligned --seed 1 --seconds 30 --trace 0

Each workload is a list of ``expmean`` command lines on problem files
generated from the seed (see ``workloads.py``).  They run in process
through ``expmean.cli.run``, one client, closed loop: the list is run in
whole passes, as many as come nearest to ``--seconds``.  After the timed passes every output is checked against an
independent reference (see ``checks.py``).

An op fails when it exits with a code other than 0 or its output fails a
check.  Exit code 3 on every pass is the program's own report of a
numerical failure: the op counts as failed, but ``correct`` stays true.
Any other failure (a wrong result, another exit code, output that differs
between passes) makes ``correct`` false.  Failed ops are left out of every
latency metric.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json.  Their times are scaled by a calibration kernel timed
between ops (see ``Calibration``), in units ``ref-s`` and ``ref-ms``; the
unscaled figures are printed beside them.  With ``--trace 1`` it first runs
the counter-sanity searches and one untraced pass, then wraps the layer
boundaries (see ``tracing.py``) and reports the per-layer metrics of one
traced pass, with times in real seconds.  Each traced pass starts with the
set-up probe, one small run of every command, so every layer is measured
on every workload.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report, every other end-to-end figure and
the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import workloads

perf = time.perf_counter
BLAS_THREADS = "1"
SETUP_REPEATS = 5


def invoke(run, argv: list[str]) -> tuple[int, str]:
    """Exit code and standard output of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(argv)
        except Exception:  # an uncaught error is a failed op, not a crashed benchmark
            traceback.print_exc(file=sys.__stderr__)
            code = -1
    return code, out.getvalue()


def setup(workload: str, seed: int, root: str, work: str):
    """Import, generate, write and parse the problems, run the probe."""
    for name in [m for m in sys.modules if m == "expmean" or m.startswith("expmean.")]:
        del sys.modules[name]
    cli = importlib.import_module("expmean.cli")
    ops = workloads.build(workload, seed, root)
    workloads.write_problems(ops, work)
    for op in ops:
        cli.load_problem(op.argv[-1])
    for op in workloads.probe_ops(root):
        code, _ = invoke(cli.run, op.argv)
        if code != 0:
            raise RuntimeError(f"set-up probe {op.name} exited with {code}")
    return cli, ops


class Calibration:
    """A fixed kernel of numpy evaluation, Fraction sums and interpreter
    loops, timed between ops.

    Shared cores change speed by a third within seconds, so the gated times
    are scaled to a host on which this kernel takes REFERENCE_S:
    raw time * REFERENCE_S / (kernel time measured around it).
    """

    REFERENCE_S = 0.010

    def __init__(self):
        import numpy as np

        self.np = np
        self.points = np.linspace(-1.0, 1.0, 20000) * (1 + 1j)
        self.freqs = np.array([0.0, 1.0, 1.41, 2.0])
        self.coeffs = np.array([1, 2, 3, 4], dtype=complex)

    def __call__(self) -> float:
        np = self.np
        t = perf()
        for _ in range(3):
            np.exp(2 * np.pi * np.multiply.outer(self.points, self.freqs)) @ self.coeffs
        total = Fraction(0)
        for k in range(1, 400):
            total += Fraction(1, k)
        acc = 0
        for k in range(20000):
            acc += k * k
        return perf() - t

    def scale(self, raw: float, kernel: float) -> float:
        return raw * self.REFERENCE_S / kernel


class Pass:
    def __init__(self):
        self.wall = 0.0  # sum of the scaled op latencies
        self.real_wall = 0.0  # start to end of the op list, kernels left out
        self.raw_wall = 0.0  # real time of the pass, calibration included
        self.latency: list[float] = []  # scaled
        self.raw: list[float] = []
        self.codes: list[int] = []
        self.outputs: list[str] = []


def run_pass(run, ops, cal: Calibration) -> Pass:
    p = Pass()
    start = perf()
    kernels = [cal()]
    kernel_s = perf() - start
    raw = []
    for op in ops:
        t = perf()
        code, out = invoke(run, op.argv)
        raw.append(perf() - t)
        t = perf()
        kernels.append(cal())
        kernel_s += perf() - t
        p.codes.append(code)
        p.outputs.append(out)
    # op i ran between kernels i and i + 1; the median of the six kernels
    # around it follows the host's drift without the jitter of a single one
    p.latency = [cal.scale(r, statistics.median(kernels[max(0, i - 2):i + 4]))
                 for i, r in enumerate(raw)]
    p.raw = raw
    p.wall = sum(p.latency)
    p.raw_wall = perf() - start
    p.real_wall = p.raw_wall - kernel_s
    return p


def run_passes(run, ops, cal: Calibration, seconds: float) -> list[Pass]:
    """The number of whole passes that comes nearest to ``seconds``, at least one."""
    passes = [run_pass(run, ops, cal)]
    while len(passes) < round(seconds / passes[0].raw_wall):
        passes.append(run_pass(run, ops, cal))
    return passes


NUMERICAL_FAILURE = 3  # the CLI's exit code for a numerical failure


def repeat_samples(run, ops) -> dict[int, tuple[int, str]]:
    """One untimed repeat of the first op of each kind, so that output bytes
    are compared across repeats even in a run of one pass."""
    first: dict[str, int] = {}
    for i, op in enumerate(ops):
        first.setdefault(op.kind, i)
    return {i: invoke(run, ops[i].argv) for i in first.values()}


def check_outputs(ops, passes: list[Pass], repeats: dict | None = None):
    """Per-op errors, ops the program refused, digits of every checked
    value, parsed results."""
    import checks

    repeats = repeats or {}
    refs: dict = {}
    errors: dict[str, list[str]] = {}
    refused: set[str] = set()
    digits: list[float] = []
    results: dict[str, dict] = {}
    for i, op in enumerate(ops):
        runs = [(p.codes[i], p.outputs[i]) for p in passes]
        if i in repeats:
            runs.append(repeats[i])
        codes = {code for code, _ in runs}
        outs = {out for _, out in runs}
        errs = []
        if codes == {NUMERICAL_FAILURE}:
            refused.add(op.name)
        elif codes != {0}:
            errs.append(f"exit codes {sorted(codes)}")
        elif len(outs) != 1:
            errs.append("output bytes differ between repeats")
        else:
            try:
                results[op.name] = json.loads(passes[0].outputs[i])["results"]
                e, d = checks.check(op, results[op.name], refs)
                errs += e
                digits += d
            except Exception as exc:  # malformed output is a failed op
                errs.append(f"checker: {exc!r}")
        if errs:
            errors[op.name] = errs
    for e in checks.pair_errors(ops, results, refs):
        errors.setdefault("pairs", []).append(e)
    return errors, refused, digits, results


def environment(root: str) -> dict:
    import numpy

    commit = "unknown"  # a plain source tree is identified by src_sha256 alone
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "expmean")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def blas_threads() -> int:
    """Threads of numpy's bundled OpenBLAS, or the requested count."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return int(BLAS_THREADS)


def tail(values: list[float]) -> tuple[float, int]:
    """The value with 10 values above it, and the percentile it sits at."""
    x = sorted(values)
    k = max(0, len(x) - 11)
    return x[k], 100 * (k + 1) // len(x)


def end_to_end(ops, passes, setups, failed, digits, results, peak_rss_mb) -> tuple[dict, list]:
    """Every end-to-end metric, plus readable report lines.

    Latencies are per-op medians over the passes, of the ops that did not
    fail: a failed op has no latency and shows in failed_frac instead.
    """
    ok = [(i, op) for i, op in enumerate(ops) if op.name not in failed]
    scaled = {op.name: statistics.median(p.latency[i] for p in passes) for i, op in ok}
    real = [statistics.median(p.raw[i] for p in passes) for i, _ in ok]

    def p50_ms(kind=None):
        lat = [scaled[op.name] for _, op in ok if kind in (None, op.kind)]
        return 1000 * statistics.median(lat) if lat else None

    zeros = sum(results[op.name]["count"] if op.kind == "zeros"
                else sum(r["count"] for r in results[op.name]["rows"])
                for _, op in ok if op.kind in ("zeros", "verify"))
    search_s = sum(scaled[op.name] for _, op in ok if op.kind in ("zeros", "verify"))
    tail_s, tail_pct = tail(list(scaled.values())) if ok else (None, None)
    m = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "ref-s"),
        "op_p50_ms": (p50_ms(), "ref-ms"),
        "op_tail_ms": (1000 * tail_s if ok else None, "ref-ms"),
        "ms_per_zero": (1000 * search_s / zeros if zeros else None, "ref-ms"),
        "mean_exact_p50_ms": (p50_ms("mean-exact"), "ref-ms"),
        "mean_float_p50_ms": (p50_ms("mean-float"), "ref-ms"),
        "failed_frac": (len(failed) / len(ops), "of ops"),
        "result_digits": (min(digits) if digits else None, "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "wall_real_s": (statistics.median(p.real_wall for p in passes), "s"),
        "op_p50_real_ms": (1000 * statistics.median(real) if ok else None, "ms"),
        "op_tail_real_ms": (1000 * tail(real)[0] if ok else None, "ms"),
    }
    verdicts = [results[o.name]["verdict"] for _, o in ok if o.kind == "verify"]
    notes = [
        f"setup_s over {len(setups)} set-ups, scaled like the ref-s figures; "
        f"wall_s over {len(passes)} passes of {len(ops)} ops",
        f"op_tail_ms is p{tail_pct} of {len(ok)} per-op medians (10 ops above it)",
        "ref-s and ref-ms: each op's time scaled to a host on which the calibration kernel "
        f"takes {Calibration.REFERENCE_S} s; the *_real_* figures are unscaled, and "
        "wall_real_s is the op list from start to end less the kernels between ops",
    ]
    if verdicts:
        notes.append(f"verify verdicts: pass {verdicts.count('pass')}, fail {verdicts.count('fail')}")
    return m, notes


def sanity_searches(cli, tracer, root: str, work: str) -> tuple[list[str], list[str]]:
    """Capped contours on the two reference searches, counted in isolation.

    1 + e^{2 pi sqrt2 z} at R=10 has its 28 zeros on Re z = 0, the first
    cut, and each cut through a zero climbs to the refinement cap, so it
    must show one capped contour per zero; problems/sqrt2.json at R=20 has
    56 zeros clear of the cuts and must show none.
    """
    two_term = os.path.join(work, "sanity-two-term.json")
    with open(two_term, "w", encoding="utf-8") as fh:
        json.dump({"basis": ["1", workloads.SQRT2],
                   "f": [{"coeff": [1, 0], "freq": ["0", "0"]},
                         {"coeff": [1, 0], "freq": ["0", "1"]}]}, fh)
    cases = [("two-term sqrt2", two_term, "10", "zeros"),
             ("three-term sqrt2", os.path.join(root, "problems", "sqrt2.json"), "20", "none")]
    lines, errors = [], []
    for label, path, R, expected in cases:
        tracer.reset()
        code, _ = invoke(cli.run, ["zeros", "--R", R, "--input", path])
        counts, _ = tracer.snapshot()
        capped = counts.get("zerofind.capped_contours", 0)
        zeros = counts.get("zerofind.zeros_found", 0)
        want = zeros if expected == "zeros" else 0
        lines.append(f"counter sanity: {label} R={R}: exit {code}, {zeros} zeros, "
                     f"{capped} capped contours (expected {want})")
        if code != 0 or capped != want:
            errors.append(lines[-1])
    return lines, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "expmean", "cli.py")):
        print("bench: no expmean sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, src)
    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(args, spec, root, work_root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, root: str, work_root: str, work: str) -> int:
    cal = Calibration()
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        before = cal()
        t = perf()
        cli, ops = setup(args.workload, args.seed, root, work)
        raw = perf() - t
        setups.append(cal.scale(raw, 0.5 * (before + cal())))
    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"]
    if args.trace:
        passes, values, notes, errors, refused = traced(cli, ops, cal, args, root, work_root,
                                                        work)
        failed_ops = refused | ({op.name for op in ops} & set(errors))
        wanted = spec["per_layer"]
    else:
        passes = run_passes(cli.run, ops, cal, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors, refused, digits, results = check_outputs(ops, passes,
                                                         repeat_samples(cli.run, ops))
        failed_ops = refused | ({op.name for op in ops} & set(errors))
        values, notes = end_to_end(ops, passes, setups, failed_ops, digits, results, peak_rss_mb)
        wanted = spec["end_to_end"]
    attempted = len(ops) * len(passes)
    failed = len(failed_ops) * len(passes)
    notes.append(f"real time of each pass: {', '.join(f'{p.raw_wall:.2f} s' for p in passes)}")

    lines.append("env " + json.dumps(environment(root), sort_keys=True))
    for name, (value, unit) in values.items():
        shown = "n/a (no such ops in this workload)" if value is None else f"{value:.6g} {unit}"
        lines.append(f"{name} {shown}")
    lines += notes
    for name, errs in sorted(errors.items()):
        lines += [f"FAILED {name}: {e}" for e in errs]
    lines += [f"FAILED {name}: exit code {NUMERICAL_FAILURE} (numerical failure) on every pass"
              for name in sorted(refused)]
    print("\n".join(lines))
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced(cli, ops, cal: Calibration, args, root: str, work_root: str, work: str):
    """Counter sanity, one untraced pass, then traced passes of probe + op list."""
    from tracing import Tracer, layer_metrics

    started = perf()
    tracer = Tracer({k: sys.modules["expmean." + k]
                     for k in ("cli", "zerofind", "meanvalue", "laurent", "verify", "exact")})
    probe = workloads.probe_ops(root)
    snapshots, probe_codes, passes, spans = [], set(), [], []
    tracer.install()
    try:
        notes, sanity = sanity_searches(cli, tracer, root, work)
    finally:
        tracer.remove()
    untraced = run_pass(cli.run, ops, cal)
    tracer.install()
    try:
        traced_run = tracer.op(cli.run)
        while True:
            tracer.reset()
            probe_codes.update(invoke(traced_run, op.argv)[0] for op in probe)
            passes.append(run_pass(traced_run, ops, cal))
            snapshots.append(tracer.snapshot())
            spans = spans or list(tracer.spans)
            if perf() - started + passes[-1].raw_wall > args.seconds:
                break
    finally:
        tracer.remove()
    passes.insert(0, untraced)
    errors, refused, _, _ = check_outputs(ops, passes)
    if sanity:
        errors["sanity"] = sanity
    if probe_codes != {0}:
        errors["probe"] = [f"probe exit codes {sorted(probe_codes)}"]
    if any(s[0] != snapshots[0][0] for s in snapshots[1:]):
        errors["trace"] = ["deterministic counts differ between traced passes"]
    times = {k: statistics.median(s[1].get(k, 0.0) for s in snapshots) for k in snapshots[0][1]}
    values = layer_metrics(snapshots[0][0], times)
    overhead = statistics.median(p.wall for p in passes[1:]) - untraced.wall
    real = statistics.median(p.real_wall for p in passes[1:]) - untraced.real_wall
    path = os.path.join(work_root, f"trace-{args.workload}-{args.seed}.jsonl")
    tracer.write(path, spans)
    notes += [f"traced passes {len(passes) - 1}; tracing overhead {overhead:+.3f} ref-s per pass "
              f"(traced wall_s minus untraced wall_s {untraced.wall:.3f} ref-s), "
              f"{real:+.3f} s unscaled",
              f"spans of the first traced pass: {path}"]
    return passes, values, notes, errors, refused


if __name__ == "__main__":
    sys.exit(main())
