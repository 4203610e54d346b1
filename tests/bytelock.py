"""Byte lock on the CLI output of the benchmark workloads.

Runs every op of the three benchmark workloads (``bench/workloads.py``) at
the given seeds, plus the set-up probe ops, in process through
``expmean.cli.run``, and writes each op's exit code, standard output and
standard error to one JSON file.  The checkout root and the directory of the
generated problem files are replaced by fixed placeholders, so the dumps of
two checkouts compare byte for byte.  An uncaught exception is recorded as
exit code -1 with its last traceback line.  pytest does not collect this
file.

From the repository root:

    python tests/bytelock.py dump before.json --root ../other-checkout --seeds 1,2
    python tests/bytelock.py dump after.json --seeds 1,2
    python tests/bytelock.py diff before.json after.json

``--root`` (default: this checkout) names the checkout whose ``src/`` and
``bench/workloads.py`` are run, so a checkout without this file can be
dumped too.  ``--workloads`` (default: all) names the workloads to run, so
a change to one path can be locked cheaply at more seeds:

    python tests/bytelock.py dump after.json --workloads mean-series --seeds 1,2,3,4,5

``diff`` prints each op whose code, stdout or stderr differs and exits 1 if
any does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _invoke(run, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception as exc:
            code = -1
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    return code, out.getvalue(), err.getvalue()


def dump(root: str, seeds: list[int], names: list[str] | None = None) -> dict[str, dict]:
    """{workload:seed/op or probe/op: {code, stdout, stderr}} for one checkout,
    over the named workloads (default: all)."""
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import workloads
    from expmean.cli import run

    result = {}
    with tempfile.TemporaryDirectory() as work:
        ops = [("probe", op) for op in workloads.probe_ops(root)]
        for seed in seeds:
            for name in names or workloads.WORKLOADS:
                directory = os.path.join(work, f"{name}-{seed}")
                os.mkdir(directory)
                built = workloads.build(name, seed, root)
                workloads.write_problems(built, directory)
                ops += [(f"{name}:{seed}", op) for op in built]

        def normalised(text: str) -> str:
            return text.replace(work, "<work>").replace(root, "<root>")

        for label, op in ops:
            code, out, err = _invoke(run, op.argv)
            result[f"{label}/{op.name}"] = {
                "code": code, "stdout": normalised(out), "stderr": normalised(err)
            }
    return result


def diff(before: dict[str, dict], after: dict[str, dict]) -> list[str]:
    """One line per op that is missing from a dump or differs between them."""
    lines = []
    for key in sorted(before.keys() | after.keys()):
        a, b = before.get(key), after.get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in {'after' if a is None else 'before'}")
            continue
        fields = [f for f in ("code", "stdout", "stderr") if a[f] != b[f]]
        if fields:
            lines.append(f"{key}: {', '.join(fields)} differ (exit {a['code']} -> {b['code']})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="write the output of every op to a JSON file")
    d.add_argument("out")
    d.add_argument("--root", default=HERE, help="checkout to run (default: this one)")
    d.add_argument("--seeds", default="1,2", help="comma-separated workload seeds")
    d.add_argument("--workloads", help="comma-separated workload names (default: all)")
    c = sub.add_parser("diff", help="compare two dumps; exit 1 if they differ")
    c.add_argument("before")
    c.add_argument("after")
    args = parser.parse_args(argv)
    if args.command == "dump":
        names = args.workloads.split(",") if args.workloads else None
        result = dump(args.root, [int(s) for s in args.seeds.split(",")], names)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        codes = sorted({v["code"] for v in result.values()})
        print(f"{len(result)} ops written to {args.out}; exit codes {codes}")
        return 0
    with open(args.before, encoding="utf-8") as fh:
        before = json.load(fh)
    with open(args.after, encoding="utf-8") as fh:
        after = json.load(fh)
    lines = diff(before, after)
    print("\n".join(lines + [f"{len(before)} vs {len(after)} ops, {len(lines)} differ"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
