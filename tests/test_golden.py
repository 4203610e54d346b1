"""Byte lock on the CLI reports for the sample problems.

Each case runs one command from the repository root on a file under
problems/ and compares its standard output with the file of the same name
under tests/golden/.  A change that alters these bytes must say why.  To
regenerate a file, run the command from the repository root, e.g.

    PYTHONPATH=src python -m expmean mean --input problems/two_term.json \
        > tests/golden/two_term.mean.json
"""

from pathlib import Path

import pytest

from expmean.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = [
    (f"{path.stem}.{command}", [command, "--input", f"problems/{path.name}"])
    for path in sorted((ROOT / "problems").glob("*.json"))
    for command in ("mean", "laurent-check")
] + [
    ("two_term.zeros-R2", ["zeros", "--R", "2", "--input", "problems/two_term.json"]),
    ("double_zero.zeros-R2", ["zeros", "--R", "2", "--input", "problems/double_zero.json"]),
    ("sqrt2.zeros-R4", ["zeros", "--R", "4", "--input", "problems/sqrt2.json"]),
    ("sqrt2.verify", ["verify", "--R-list", "1,2,3", "--input", "problems/sqrt2.json"]),
]

# the sqrt2 problems have an irrational basis and so no Laurent image: exit 2, no report
INPUT_ERRORS = {"sqrt2.laurent-check", "sqrt2_exact.laurent-check"}


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_report_bytes_match_golden(name, argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = run(argv)
    out = capsys.readouterr().out
    assert code == (2 if name in INPUT_ERRORS else 0)
    assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()
