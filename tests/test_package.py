"""Tests for the package's public surface."""

import ast
import inspect
from pathlib import Path

import pytest

import expmean
from expmean.cli import run

SRC = Path(expmean.__file__).parent

# wrappers that repeated another public path, the search's retired settings
# class, the retired exact coefficient ring, helpers that only tests read
# (semigroup membership, the window scan, two aliases, reflection), the
# per-end constant terms that mean_value's A_first and A_last give, and the
# Laurent module's series route and root-mean wrapper, all gone from the
# public surface
RETIRED = (
    "winding_count",
    "default_window",
    "empirical_mean",
    "constant_term_A_exact",
    "QuadratureConfig",
    "ExactCoeff",
    "find_zeros",
    "semigroup_contains",
    "fewnomial_check",
    "zero_sum",
    "laurent",
    "residue_end_coefficient",
    "constant_term_A",
    "mean_via_substitution",
    "residue_formula_sum",
    "reflect",
)


def test_all_names_resolve_once():
    assert len(expmean.__all__) == len(set(expmean.__all__))
    for name in expmean.__all__:
        assert hasattr(expmean, name), name


def test_retired_wrappers_stay_out():
    for name in RETIRED:
        assert name not in expmean.__all__
        # expmean.laurent, the submodule, shares its name with the retired alias
        value = getattr(expmean, name, None)
        assert value is None or inspect.ismodule(value), name


def test_modules_use_every_import():
    # __init__ imports to re-export; every other module must read its imports
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= read, f"{path.name} never reads {sorted(imported - read)}"


def test_laurent_root_route_stays_off_the_series_engine():
    # laurent-check sets the series value beside the root sum; the root
    # route must not come to depend on the series engine it checks
    tree = ast.parse((SRC / "laurent.py").read_text(encoding="utf-8"))
    local = {node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level}
    assert local == {"errors", "sums"}


def test_only_sums_names_the_lattice():
    # sums.py builds and joins the frequency lattices; every other module
    # reads a sum's points, units and values through its functions
    for path in sorted(SRC.glob("*.py")):
        if path.name == "sums.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.asname or alias.name for alias in node.names}
            names.add(getattr(node, "id", None) or getattr(node, "attr", None)
                      or getattr(node, "arg", None) or getattr(node, "name", None))
        assert not names & {"lattice", "Lattice"}, path.name


def test_one_version_string(capsys):
    # the CLI and the package metadata both read expmean.__version__
    tomllib = pytest.importorskip("tomllib")
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"expmean {expmean.__version__}\n"
    with open(SRC.parent.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == expmean.__version__
