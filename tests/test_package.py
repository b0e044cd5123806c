"""The package root's export list matches what the root imports, its
version has one source, importing it stays light, and the public calls
take their sizes as integers only."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schedsec
from schedsec.cli import main
from schedsec.errors import ValidationError

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_exactly_the_names_the_root_binds():
    tree = ast.parse(Path(schedsec.__file__).read_text(encoding="utf-8"))
    bound = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names]
    assert len(schedsec.__all__) == len(set(schedsec.__all__))
    assert sorted(schedsec.__all__) == sorted(bound)
    # a star import resolves every listed name or raises AttributeError
    namespace = {}
    exec("from schedsec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(schedsec.__all__)


def test_manifest_and_pyproject_read_the_one_version_literal(tmp_path):
    out = tmp_path / "v"
    assert main(["defend", "construct", "--mode", "shortest-period",
                 "-n", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["versions"]["schedsec"] == schedsec.__version__
    if sys.version_info >= (3, 11):
        import tomllib
        with open(ROOT / "pyproject.toml", "rb") as fh:
            pyproject = tomllib.load(fh)
        assert "version" not in pyproject["project"]
        assert "version" in pyproject["project"]["dynamic"]
        assert (pyproject["tool"]["setuptools"]["dynamic"]["version"]
                == {"attr": "schedsec.__version__"})


def test_import_loads_no_distribution_metadata_reader():
    # importlib.metadata and the email parser it reads METADATA with cost
    # 20-30 ms of every start-up; only modules the import itself adds count,
    # so a site hook that loaded them already is no failure
    code = ("import sys; before = set(sys.modules); "
            "import schedsec, schedsec.cli; "
            "print(*sorted(set(sys.modules) - before))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "schedsec.cli" in added
    assert not [name for name in added
                if name.split(".")[0] == "email"
                or name.startswith("importlib.metadata")]


# one call per size argument, each given a candidate value for it
SIZED_CALLS = {
    "search periods": lambda systems, sched, v: schedsec.optimal_schedule_search(
        systems, [v]),
    "series horizon": lambda systems, sched, v: schedsec.exact_covariance_series(
        systems, sched, horizon=v),
    "mc trials": lambda systems, sched, v: schedsec.monte_carlo_expected_cost(
        systems, sched, trials=v, seed=0),
    "attack period": lambda systems, sched, v: schedsec.random_attack(
        period=v, n_sensors=3, seed=0),
    "attack sensors": lambda systems, sched, v: schedsec.random_attack(
        period=3, n_sensors=v, seed=0),
    "shortest-period sensors": lambda systems, sched, v:
        schedsec.shortest_period_policies(v),
}


@pytest.mark.parametrize("bad", [3.5, 3.0, "3", True],
                         ids=["float", "whole-float", "str", "bool"])
@pytest.mark.parametrize("call", sorted(SIZED_CALLS))
def test_size_arguments_are_strict_integers(call, bad, study_systems,
                                            round_robin):
    # a float is never truncated, a string never parsed and a bool never
    # read as 1; each is refused as the one integer check refuses it
    with pytest.raises(ValidationError, match="must be an integer"):
        SIZED_CALLS[call](study_systems, round_robin, bad)
    SIZED_CALLS[call](study_systems, round_robin, 3)  # an int is taken


# one call per argument check that refuses a value of the right type, with
# the message it must raise
REFUSED_CALLS = {
    "search without systems": (
        lambda systems, sched, ladder: schedsec.optimal_schedule_search(
            [], [3]), "need at least one system"),
    "search without periods": (
        lambda systems, sched, ladder: schedsec.optimal_schedule_search(
            systems, []), "T_candidates must be nonempty"),
    "defense without factors": (
        lambda systems, sched, ladder: schedsec.construct_shift_invariant([]),
        "need at least one duty factor"),
    "shortest period of no sensor": (
        lambda systems, sched, ladder: schedsec.shortest_period_policies(0),
        "need at least one sensor, got 0"),
    "attack of period 0": (
        lambda systems, sched, ladder: schedsec.random_attack(0, 3, 0),
        "period must be >= 1, got 0"),
    "attack of no sensor": (
        lambda systems, sched, ladder: schedsec.random_attack(3, 0, 0),
        "need at least one sensor, got 0"),
    "negative shift": (
        lambda systems, sched, ladder: schedsec.ShiftTuple((0, -1)),
        "shift for sensor 1 must be >= 0, got -1"),
    "shift of an empty row": (
        lambda systems, sched, ladder: schedsec.apply_shift((), 1),
        "cannot shift an empty row"),
    "negative ladder index": (
        lambda systems, sched, ladder: ladder.trace(-1),
        "ladder index must be >= 0, got -1"),
    "correlation with a shift missing": (
        lambda systems, sched, ladder: schedsec.hamming_cross_correlation(
            sched, (0, 1), (0,)), "1 shifts for a 2-sensor tuple"),
    "series with a system missing": (
        lambda systems, sched, ladder: schedsec.exact_covariance_series(
            systems[:2], sched, horizon=5), "2 systems for 3 policy rows"),
    "Monte Carlo with a system missing": (
        lambda systems, sched, ladder: schedsec.monte_carlo_expected_cost(
            systems[:2], sched, trials=2, seed=0),
        "2 systems for 3 policy rows"),
}


@pytest.mark.parametrize("call", sorted(REFUSED_CALLS))
def test_library_calls_refuse_bad_values(call, study_systems, study_ladders,
                                         round_robin):
    run, message = REFUSED_CALLS[call]
    with pytest.raises(ValidationError) as err:
        run(study_systems, round_robin, study_ladders[0])
    assert str(err.value) == message
