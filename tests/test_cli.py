import builtins
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import factor_families, py312_sum
from schedsec import attack, cli
from schedsec.cli import _json_text, build_parser, main
from schedsec.errors import (BUDGET_ENV_VAR, StabilityWarning, Work,
                             read_json)
from schedsec.lti_estimation import steady_state
from schedsec.protocol_sequences import (construct_shift_invariant,
                                         hamming_cross_correlation,
                                         policies_from_dict, policies_to_dict,
                                         shortest_period_policies, throughput)
from schedsec.scheduling import Schedule


DATA = Path(__file__).parent / "data"


def _read_doc(path):
    return read_json(path.read_bytes())


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


@pytest.fixture(scope="module")
def systems_path():
    from importlib import resources
    return str(resources.files("schedsec") / "data" / "three_sensor_study.json")


@pytest.fixture()
def sched_path(tmp_path, systems_path):
    out = tmp_path / "sched"
    assert main(["schedule", "--systems", systems_path, "--periods", "3",
                 "--out", str(out)]) == 0
    return str(out / "schedule.json")


def test_schedule_command_on_divergent_systems(tmp_path, capsys):
    # with A = 1e150 a trace overflows two slots after a reception, and at
    # T = 3 or 4 one of three sensors waits longer, so no schedule has a
    # finite cost: the search refuses with exit 4 and writes nothing
    out = tmp_path / "div"
    systems = Path(__file__).parent / "data" / "divergent_systems.json"
    assert main(["schedule", "--systems", str(systems), "--periods", "3,4",
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "error: no schedule of periods [3, 4] gives every sensor a finite "
        "cost\n")
    assert not out.exists()


def test_schedule_command_reproduces_reference(tmp_path, systems_path):
    out = tmp_path / "s"
    assert main(["schedule", "--systems", systems_path, "--periods", "3",
                 "--out", str(out)]) == 0
    sched = Schedule.from_dict(_read_doc(out / "schedule.json"))
    assert sched.rows == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    cost = json.loads((out / "schedule_cost.json").read_text())
    assert cost["total"] == pytest.approx(2.0250433575300404, rel=1e-8)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "schedule"
    assert "schedule.json" in manifest["outputs"]
    assert "timestamp" not in json.dumps(manifest)


def test_steady_state_stdout(capsys, systems_path):
    assert main(["steady-state", "--systems", systems_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["systems"]) == 3
    assert doc["systems"][0]["trace"] == pytest.approx(0.5702528404508958,
                                                       rel=1e-8)


def test_steady_state_csv(tmp_path, systems_path):
    out = tmp_path / "ss"
    assert main(["steady-state", "--systems", systems_path, "--format", "csv",
                 "--out", str(out)]) == 0
    lines = (out / "steady_state.csv").read_text().strip().splitlines()
    assert lines[0] == "sensor_index,trace,residual,iterations"
    assert len(lines) == 4


def test_cost_command_with_attack(tmp_path, systems_path, sched_path):
    attack = tmp_path / "attack.json"
    attack.write_text(json.dumps({"taus": [0, 0, 2]}))
    out = tmp_path / "cost"
    assert main(["cost", "--systems", systems_path, "--schedule", sched_path,
                 "--attack", str(attack), "--out", str(out)]) == 0
    doc = json.loads((out / "cost.json").read_text())
    assert doc["any_divergent"]
    flags = [s["divergent"] for s in doc["sensors"]]
    assert flags == [False, True, True]


def test_cost_all_idle_divergent(tmp_path, systems_path):
    sched = tmp_path / "idle.json"
    sched.write_text(json.dumps(
        {"T": 2, "rows": [[0, 0], [0, 0], [0, 0]]}))
    out = tmp_path / "c"
    assert main(["cost", "--systems", systems_path, "--schedule", str(sched),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "cost.json").read_text())
    assert all(s["divergent"] for s in doc["sensors"])
    assert doc["total"] is None


def test_cost_csv_format(tmp_path, systems_path, sched_path):
    out = tmp_path / "cc"
    assert main(["cost", "--systems", systems_path, "--schedule", sched_path,
                 "--format", "csv", "--out", str(out)]) == 0
    lines = (out / "cost.csv").read_text().strip().splitlines()
    assert lines[0] == "sensor_index,average_trace,divergent"


def test_attack_optimal(tmp_path, sched_path):
    out = tmp_path / "atk"
    assert main(["attack", "optimal", "--schedule", sched_path,
                 "--out", str(out)]) == 0
    doc = json.loads((out / "attack_report.json").read_text())
    assert doc["blocking"] and doc["spoofed_count"] == 1
    assert doc["blocked_sensors"]
    taus = json.loads((out / "attack.json").read_text())["taus"]
    assert sum(1 for t in taus if t) == 1


def test_attack_random_and_isolate(tmp_path, sched_path):
    out1 = tmp_path / "r"
    assert main(["attack", "random", "--schedule", sched_path, "--seed", "9",
                 "--out", str(out1)]) == 0
    doc = json.loads((out1 / "attack.json").read_text())
    assert len(doc["taus"]) == 3
    out2 = tmp_path / "i"
    assert main(["attack", "isolate", "--schedule", sched_path,
                 "--target", "1", "--out", str(out2)]) == 0
    taus = json.loads((out2 / "attack.json").read_text())["taus"]
    assert taus[1] == 0


def test_defend_construct_shortest(tmp_path):
    out = tmp_path / "d"
    assert main(["defend", "construct", "--mode", "shortest-period",
                 "-n", "3", "--out", str(out)]) == 0
    ps = policies_from_dict(_read_doc(out / "policies.json"))
    assert ps.period == 8


def test_defend_construct_same_duty(tmp_path, sched_path):
    out = tmp_path / "d"
    assert main(["defend", "construct", "--mode", "same-duty",
                 "--schedule", sched_path, "--out", str(out)]) == 0
    ps = policies_from_dict(_read_doc(out / "policies.json"))
    assert ps.period == 27
    assert ps.duty_factors() == [Fraction(1, 3)] * 3


def test_defend_construct_needs_inputs():
    assert main(["defend", "construct", "--mode", "same-duty"]) == 3


def test_defend_bounds(tmp_path, systems_path):
    pol = tmp_path / "p"
    assert main(["defend", "construct", "--mode", "shortest-period", "-n", "3",
                 "--out", str(pol)]) == 0
    out = tmp_path / "b"
    assert main(["defend", "bounds", "--systems", systems_path,
                 "--policies", str(pol / "policies.json"),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "bounds.json").read_text())
    assert doc["lower"] == pytest.approx(doc["upper"], rel=1e-9)
    assert doc["per_sensor_receptions"] == [1, 1, 1]


def test_defend_bounds_of_an_overflowing_ladder_is_json(tmp_path):
    # eleven sensors with A = 1.3 under the shortest-period set: every
    # ladder passes the float range before gap D = 2,048, so both bounds
    # are +inf, written as null, with no numpy warning and no NaN
    pol = tmp_path / "p"
    assert main(["defend", "construct", "--mode", "shortest-period", "-n",
                 "11", "--out", str(pol)]) == 0
    systems = tmp_path / "systems.json"
    systems.write_text(json.dumps([{"A": [[1.3]], "C": [[1]], "Q": [[1]],
                                    "R": [[1]], "Pi": [[1]]}] * 11))
    out = tmp_path / "b"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["defend", "bounds", "--systems", str(systems),
                     "--policies", str(pol / "policies.json"),
                     "--out", str(out)]) == 0

    def reject(name):
        raise AssertionError(f"non-JSON token {name}")

    doc = json.loads((out / "bounds.json").read_text(),
                     parse_constant=reject)
    assert doc["lower"] is None and doc["upper"] is None
    assert doc["per_sensor_receptions"] == [1] * 11


def test_defend_verify_finds_an_early_witness_lazily(tmp_path):
    # 26 rows [1, 0]: 2^26 - 27 sensor tuples, of which the first,
    # (0, 1), already depends on the shifts; none of the rest is listed
    sched = tmp_path / "schedule.json"
    sched.write_text(json.dumps({"T": 2, "rows": [[1, 0]] * 26}))
    out = tmp_path / "v"
    tracemalloc.start()
    try:
        assert main(["defend", "verify", "--schedule", str(sched),
                     "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    doc = json.loads((out / "invariance.json").read_text())
    assert not doc["invariant"]
    assert doc["witness"] == {"sensors": [0, 1], "shifts": [0, 1]}
    assert peak < 5 * 2 ** 20


def test_defend_verify_positive_and_negative(tmp_path, sched_path):
    pol = tmp_path / "p"
    assert main(["defend", "construct", "--mode", "shortest-period", "-n", "2",
                 "--out", str(pol)]) == 0
    out = tmp_path / "v"
    assert main(["defend", "verify", "--policies",
                 str(pol / "policies.json"), "--out", str(out)]) == 0
    doc = json.loads((out / "invariance.json").read_text())
    assert doc["invariant"] and doc["exhaustive"]
    out2 = tmp_path / "v2"
    assert main(["defend", "verify", "--schedule", sched_path,
                 "--out", str(out2)]) == 0
    doc2 = json.loads((out2 / "invariance.json").read_text())
    assert not doc2["invariant"]
    assert doc2["witness"] is not None


_ROUND_ROBIN_ROWS = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


@pytest.mark.parametrize("factor", [
    {"n": 1},                        # missing "d"
    {"n": 1, "d": "x"},              # non-integer
    {"n": 1, "d": "2"},
    {"n": 1.5, "d": 2},
    [1, 2],                          # not an object
    None,                            # "factors" itself not a list
    # row 0 transmits half the time
    pytest.param({"n": 2, "d": 4}, id="not-lowest-terms"),
    # whole documents: the factors swap the rows' duty factors 1/2 and 1/4;
    # the rows' factors 1/3 need a period of 27
    pytest.param({"T": 8, "rows": [[1, 1, 1, 1, 0, 0, 0, 0],
                                   [1, 1, 0, 0, 0, 0, 0, 0]],
                  "factors": [{"n": 1, "d": 4}, {"n": 1, "d": 2}]},
                 id="not-the-rows"),
    pytest.param({"T": 3, "rows": _ROUND_ROBIN_ROWS,
                  "factors": [{"n": 1, "d": 3}] * 3},
                 id="period-not-a-multiple"),
])
@pytest.mark.parametrize("command", ["verify", "bounds"])
def test_malformed_policy_factors_exit_3(tmp_path, capsys, systems_path,
                                         factor, command):
    doc = policies_to_dict(shortest_period_policies(3))
    if isinstance(factor, dict) and "rows" in factor:
        doc = factor
    else:
        doc["factors"] = 5 if factor is None else [factor] + doc["factors"][1:]
    path = tmp_path / "policies.json"
    path.write_text(json.dumps(doc))
    argv = ["defend", command, "--policies", str(path)]
    if command == "bounds":
        argv += ["--systems", systems_path]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


_SCHEDULE_COMMANDS = {
    "verify": ["defend", "verify", "--schedule"],
    "cost": ["cost", "--systems", "bundled:three-sensor-study", "--schedule"],
    "construct": ["defend", "construct", "--mode", "same-duty", "--schedule"],
}


@pytest.mark.parametrize("command, doc", [
    *[(command, doc) for doc in (
        {"T": 3, "rows": 5},
        {"T": "x", "rows": _ROUND_ROBIN_ROWS},
        {"T": 3.0, "rows": _ROUND_ROBIN_ROWS},
        {"T": 3, "rows": [[0, 0, True]] + _ROUND_ROBIN_ROWS[1:]},
    ) for command in _SCHEDULE_COMMANDS],
    ("attack", {"taus": 5}),
    ("attack", {"taus": [1.7, 0, 0]}),
])
def test_malformed_schedule_and_shift_documents_exit_3(tmp_path, capsys,
                                                       command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if command == "attack":
        sched = tmp_path / "schedule.json"
        sched.write_text(json.dumps({"T": 3, "rows": _ROUND_ROBIN_ROWS}))
        argv = _SCHEDULE_COMMANDS["cost"] + [str(sched), "--attack", str(path)]
    else:
        argv = _SCHEDULE_COMMANDS[command] + [str(path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("value, message", [
    ("abc", "SCHEDSEC_BUDGET must be an integer, got 'abc'"),
    ("0", "SCHEDSEC_BUDGET must be positive, got 0"),
    ("-3", "SCHEDSEC_BUDGET must be positive, got -3"),
])
@pytest.mark.parametrize("command", ["schedule", "attack optimal",
                                     "defend verify", "simulate"])
def test_bad_budget_setting_exits_3(command, value, message, monkeypatch,
                                    capsys, systems_path, sched_path):
    argv = {
        "schedule": ["schedule", "--systems", systems_path, "--periods", "3"],
        "attack optimal": ["attack", "optimal", "--schedule", sched_path],
        "defend verify": ["defend", "verify", "--schedule", sched_path],
        "simulate": ["simulate", "--systems", systems_path,
                     "--schedule", sched_path, "--horizon", "10"],
    }[command]
    monkeypatch.setenv(BUDGET_ENV_VAR, value)
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_schedule_periods_that_do_not_parse_exit_3(capsys, systems_path):
    assert main(["schedule", "--systems", systems_path,
                 "--periods", "3,x"]) == 3
    assert capsys.readouterr().err == (
        "error: cannot parse period list '3,x'\n")


def test_shortest_period_defense_takes_n_from_a_schedule(tmp_path, capsys,
                                                          sched_path):
    out = tmp_path / "sp"
    assert main(["defend", "construct", "--mode", "shortest-period",
                 "--schedule", sched_path, "--out", str(out)]) == 0
    got = policies_from_dict(_read_doc(out / "policies.json"))
    assert got == shortest_period_policies(3)
    capsys.readouterr()
    assert main(["defend", "construct", "--mode", "shortest-period"]) == 3
    assert capsys.readouterr().err == (
        "error: shortest-period mode needs -n or --schedule to fix the "
        "sensor count\n")


def test_reproduce_paper_with_one_sensor_exits_4(tmp_path, capsys):
    # a lone sensor's schedule has no other row to collide with, so no
    # attack can block it
    path = tmp_path / "one.json"
    path.write_text(json.dumps([{"A": [[1.5]], "C": [[1.0]], "Q": [[1.0]],
                                 "R": [[1.0]], "Pi": [[1.0]]}]))
    out = tmp_path / "rep"
    assert main(["reproduce-paper", "--systems", str(path),
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "error: no blocking attack exists for this schedule\n")
    assert not out.exists()


def test_attack_random_negative_seed_exits_2(capsys, sched_path):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["attack", "random", "--schedule", sched_path, "--seed", "-1"])
    assert exc.value.code == 2
    assert "must be nonnegative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("text", [b"{", b"\xff\xfe{}",
                                  b"[" * 100_000 + b"]" * 100_000])
def test_unreadable_document_exit_3(tmp_path, capsys, text):
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    assert main(_SCHEDULE_COMMANDS["verify"] + [str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("field, value", [("A", math.nan), ("A", math.inf),
                                          ("C", math.nan), ("A", "1.5"),
                                          ("C", True)])
def test_non_finite_system_entries_exit_3(tmp_path, capsys, field, value):
    entry = {"A": [[1.5]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
             "Pi": [[1.0]]}
    entry[field] = [[value]]
    path = tmp_path / "systems.json"
    path.write_text(json.dumps([entry]))  # written as NaN / Infinity
    assert main(["steady-state", "--systems", str(path)]) == 3
    # every entry must be a JSON number (no string or boolean coerced to
    # one), and a finite one
    problem = ("entries must be finite" if isinstance(value, float) else
               f"entries must be JSON numbers, got {value!r}")
    err = capsys.readouterr().err
    assert err == f"error: system 0 field '{field}': {problem}\n"


def test_steady_state_overflow_exits_3_at_once(tmp_path, capsys):
    # the first prediction step overflows (A Pi A' = 1e400)
    path = tmp_path / "systems.json"
    path.write_text(json.dumps([{"A": [[1e200]], "C": [[1]], "Q": [[1]],
                                 "R": [[1]], "Pi": [[1]]}]))
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["steady-state", "--systems", str(path)]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == (
        "error: system 0: steady-state iteration overflowed to a non-finite "
        "covariance at step 1\n")


def test_steady_state_near_marginal_systems(tmp_path):
    # A = 1.0001 with Q = 1e-6, R = 1e3 contracts by about 1 - 2.1e-4 per
    # step and takes about 95,100 fixed-point steps to come within 1e-8 of
    # the DARE solution, and A = 1 + 10^-3.25 with Q = 1, R = 1e6 is
    # design_sweep's shape; P_bar and the step counts are the reference
    # loop's, bit for bit
    import scipy.linalg

    from conftest import fixed_point_reference
    from schedsec.lti_estimation import _symmetrize, load_systems
    path = Path(__file__).parent / "data" / "near_marginal_systems.json"
    out = tmp_path / "near"
    assert main(["steady-state", "--systems", str(path),
                 "--out", str(out)]) == 0
    got = _read_doc(out / "steady_state.json")["systems"]
    systems = load_systems(_read_doc(path))
    assert len(got) == len(systems) == 2
    for entry, sys in zip(got, systems):
        X, iterations = fixed_point_reference(sys)
        assert entry["iterations"] == iterations
        assert (np.array(entry["P_bar"]).tobytes()
                == _symmetrize(X).tobytes())
        P = scipy.linalg.solve_discrete_are(sys.A.T, sys.C.T, sys.Q, sys.R)
        dare = P - P @ sys.C.T @ np.linalg.solve(
            sys.C @ P @ sys.C.T + sys.R, sys.C @ P)
        assert (np.linalg.norm(np.array(entry["P_bar"]) - dare)
                <= 1e-8 * np.linalg.norm(dare))
    assert 94_000 < got[0]["iterations"] < 96_000


def test_steady_state_with_large_covariance_converges(tmp_path, capsys):
    # P_bar is about 5.6e7, where one ulp is 7.5e-9: an absolute step of
    # 1e-10 is below float resolution, so the stop must scale with ||X||
    import scipy.linalg
    entry = {"A": [[1.5]], "C": [[1]], "Q": [[1]], "R": [[1e8]], "Pi": [[1]]}
    path = tmp_path / "systems.json"
    path.write_text(json.dumps([entry]))
    t0 = time.perf_counter()
    assert main(["steady-state", "--systems", str(path)]) == 0
    assert time.perf_counter() - t0 < 1.0
    P_bar = json.loads(capsys.readouterr().out)["systems"][0]["P_bar"][0][0]
    A, C, Q, R = (np.array(entry[k], dtype=float) for k in "ACQR")
    prior = scipy.linalg.solve_discrete_are(A.T, C.T, Q, R)[0, 0]
    posterior = prior - prior ** 2 / (prior + R[0, 0])
    assert P_bar == pytest.approx(posterior, rel=1e-8)


def test_steady_state_where_the_update_cancels(tmp_path, capsys):
    # the prior is about 1e20 against R = 1: X - X C' S^-1 C X cancels to
    # noise, so only the subtraction-free update converges
    import scipy.linalg
    entry = {"A": [[1e10]], "C": [[1]], "Q": [[1]], "R": [[1]], "Pi": [[1]]}
    path = tmp_path / "systems.json"
    path.write_text(json.dumps([entry]))
    assert main(["steady-state", "--systems", str(path)]) == 0
    P_bar = json.loads(capsys.readouterr().out)["systems"][0]["P_bar"][0][0]
    A, C, Q, R = (np.array(entry[k], dtype=float) for k in "ACQR")
    prior = scipy.linalg.solve_discrete_are(A.T, C.T, Q, R)[0, 0]
    posterior = prior * R[0, 0] / (prior + R[0, 0])
    assert P_bar == pytest.approx(posterior, rel=1e-8)


_junk = (st.none() | st.booleans() | st.integers(-2, 8) | st.floats()
         | st.text(max_size=2))
_json_values = st.recursive(
    _junk, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["T", "rows", "taus", "factors", "n", "d",
                         "A", "C", "Q", "R", "Pi"]), inner,
        max_size=3), max_leaves=6)
# candidate periods as the command line spells them: short lists, sizes
# past any budget, odd spacing and separators, and arbitrary text
_PERIODS = (st.lists(st.integers(-1, 9), max_size=3).map(
    lambda ps: ",".join(map(str, ps)))
    | st.sampled_from(["9100", "100000000", "3,,4", " 4 ", "1_0", "3.5"])
    | st.text(max_size=4))
_FACTOR_SETS = [[(1, 2)], [(1, 3)], [(2, 3)], [(1, 2), (1, 2)],
                [(1, 2), (1, 3)], [(2, 3), (1, 2)]]
_SYSTEMS = [
    {"A": [[1.5]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "Pi": [[1.0]]},
    {"A": [[1.01, 0.5], [0.0, 0.2]], "C": [[1.0, 1.0]],
     "Q": [[0.2, 0.0], [0.0, 0.2]], "R": [[1.0]],
     "Pi": [[1.0, 0.0], [0.0, 1.0]]},
]


def _keys(node):
    return sorted(node) if isinstance(node, dict) else range(len(node))


@st.composite
def _near_valid(draw, kind, n, T):
    """A schedule, shift, policy or systems document for n sensors and
    period T: as generated, with one field or entry at any depth replaced
    by an arbitrary JSON value, or replaced whole."""
    if kind == "systems":
        doc = [copy.deepcopy(draw(st.sampled_from(_SYSTEMS)))
               for _ in range(n)]
    elif kind == "policy":  # n rows where a factor set has n
        doc = policies_to_dict(construct_shift_invariant(draw(st.sampled_from(
            [f for f in _FACTOR_SETS if len(f) == n] or _FACTOR_SETS))))
    elif kind == "shift":
        doc = {"taus": draw(st.lists(st.integers(0, T - 1), min_size=n,
                                     max_size=n))}
    else:  # exclusive: one transmitter per slot
        cols = draw(st.lists(st.integers(0, n - 1), min_size=T, max_size=T))
        doc = {"T": T, "rows": [[int(c == i) for c in cols] for i in range(n)]}
    damage = draw(st.sampled_from(["none", "none", "entry", "whole"]))
    if damage == "whole":
        return draw(_json_values)
    if damage == "entry":
        node, key = doc, draw(st.sampled_from(_keys(doc)))
        while node[key] and isinstance(node[key], (list, dict)) \
                and draw(st.booleans()):
            node = node[key]
            key = draw(st.sampled_from(_keys(node)))
        node[key] = draw(_json_values)
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=180, deadline=None)
@given(data=st.data(),
       command=st.sampled_from(["verify", "verify-policies", "cost",
                                "cost-attack", "isolate", "steady-state",
                                "construct", "bounds", "optimal",
                                "schedule"]))
def test_cli_contract_under_fuzzed_documents(fuzz_dir, data, command):
    """Any schedule, shift, policy or systems document, and with
    `schedule` any `--periods` text, gives exit 0, 3, 4 or 5 and never a
    traceback.  `defend construct --mode same-duty`, `defend bounds`,
    `attack optimal` and `schedule` run under a small work budget."""
    # three sensors, as in the bundled study, half of the time
    n = data.draw(st.just(3) | st.integers(1, 4))
    T = data.draw(st.integers(1, 6))

    def document(kind):
        path = fuzz_dir / f"{kind}.json"
        path.write_text(json.dumps(data.draw(_near_valid(kind, n, T))))
        return str(path)

    if command == "steady-state":
        argv = ["steady-state", "--systems", document("systems")]
    elif command == "verify-policies":
        argv = ["defend", "verify", "--policies", document("policy")]
    elif command == "bounds":
        argv = ["defend", "bounds", "--systems", document("systems"),
                "--policies", document("policy")]
    elif command == "optimal":
        argv = ["attack", "optimal", "--schedule", document("schedule")]
    elif command == "schedule":
        # the = form keeps a value such as "-x" from reading as an option
        argv = ["schedule", "--systems", document("systems"),
                f"--periods={data.draw(_PERIODS)}"]
    elif command == "construct":
        # an exclusive schedule of T <= 6 slots often starves a sensor; a
        # policy set's rows carry duty factors the construction accepts
        argv = _SCHEDULE_COMMANDS["construct"] + [
            document(data.draw(st.sampled_from(["schedule", "policy"])))]
    elif command == "isolate":
        argv = ["attack", "isolate", "--schedule", document("schedule"),
                "--target", str(data.draw(st.integers(0, 4)))]
    else:
        argv = _SCHEDULE_COMMANDS[command.split("-")[0]] + [
            document("schedule")]
        if command == "cost-attack":
            argv += ["--attack", document("shift")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), warnings.catch_warnings(), \
            mock.patch.dict(os.environ, {BUDGET_ENV_VAR: "1000"}
                            if command in ("construct", "bounds", "optimal",
                                           "schedule")
                            else {}):
        warnings.simplefilter("ignore", StabilityWarning)
        code = main(argv)
    assert code in (0, 3, 4, 5), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_simulate_with_attack_and_trials(tmp_path, systems_path, sched_path):
    attack = tmp_path / "attack.json"
    attack.write_text(json.dumps({"taus": [0, 0, 2]}))
    out = tmp_path / "sim"
    assert main(["simulate", "--systems", systems_path,
                 "--schedule", sched_path, "--attack", str(attack),
                 "--horizon", "60", "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert [s["divergent"] for s in doc["sensors"]] == [False, True, True]
    lines = (out / "series.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 60 * 3
    # trials > 1 adds Monte Carlo statistics
    out2 = tmp_path / "sim2"
    assert main(["simulate", "--systems", systems_path,
                 "--schedule", sched_path, "--horizon", "12",
                 "--trials", "20", "--seed", "4", "--out", str(out2)]) == 0
    assert (out2 / "mc.json").exists()


def test_simulate_monte_carlo_is_over_random_shifts(tmp_path, systems_path):
    # mc.json samples uniform random shifts whatever --attack is; the
    # attack pins only the series and summary
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps(policies_to_dict(
        construct_shift_invariant([(1, 3)] * 3))))
    attack = tmp_path / "attack.json"
    attack.write_text(json.dumps({"taus": [0, 5, 11]}))
    argv = ["simulate", "--systems", systems_path, "--policies",
            str(policies), "--horizon", "54", "--trials", "30", "--seed", "4"]
    assert main(argv + ["--out", str(tmp_path / "random")]) == 0
    assert main(argv + ["--attack", str(attack),
                        "--out", str(tmp_path / "fixed")]) == 0
    random, fixed = tmp_path / "random", tmp_path / "fixed"
    assert (fixed / "mc.json").read_bytes() == (random / "mc.json").read_bytes()
    assert _read_doc(random / "mc.json")["std"] > 0
    assert ((fixed / "summary.json").read_bytes()
            != (random / "summary.json").read_bytes())


def test_simulate_saturated_trace_writes_strict_json_and_no_warning(
        tmp_path):
    # sensor 1 (A = 1.1) never receives, and its trace ladder saturates:
    # from slot 3,714 on the trace reads +inf.  With warnings raised as
    # errors the run must print nothing to stderr and write RFC 8259 JSON
    # (no Infinity or NaN), with overflow_at the first slot that reads +inf
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONWARNINGS": "error",
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "sat"
    proc = subprocess.run(
        [sys.executable, "-m", "schedsec.cli", "simulate",
         "--systems", str(DATA / "saturating_systems.json"),
         "--schedule", str(DATA / "starved_schedule.json"),
         "--horizon", "10000", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    doc = json.loads((out / "summary.json").read_text(),
                     parse_constant=_reject_constant)
    rows = [line.split(",") for line in
            (out / "series.csv").read_text().splitlines()[1:]]
    traces = [float(trace) for _, sensor, trace, *_ in rows if sensor == "1"]
    first = traces.index(math.inf)
    assert first == 3714 and all(t == math.inf for t in traces[first:])
    assert [s["overflow_at"] for s in doc["sensors"]] == [None, first]
    assert doc["sensors"][1]["final_trace"] is None
    assert doc["sensors"][1]["mean_trace"] is None
    assert doc["periodic_average"]["per_sensor"][1] is None
    assert doc["sensors"][0]["final_trace"] == pytest.approx(0.99, rel=1e-3)


def _cli_outputs(argv, root):
    """Run one command into a fresh directory under `root`: its exit code
    and the path of each file it wrote, by name."""
    out = Path(tempfile.mkdtemp(dir=root))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        code = main(argv + ["--out", str(out)])
    return code, {path.name: path for path in out.iterdir()}


def _write_json(root, doc):
    fd, path = tempfile.mkstemp(suffix=".json", dir=root)
    with os.fdopen(fd, "w") as fh:
        json.dump(doc, fh)
    return path


def _scalar_systems(gains):
    return [{"A": [[a]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
             "Pi": [[1.0]]} for a in gains]


@st.composite
def _exclusive_schedules(draw):
    """{"T", "rows"} of an exclusive schedule of 2 to 4 sensors and 2 to 8
    slots, each slot owned by one sensor."""
    N = draw(st.integers(2, 4))
    T = draw(st.integers(2, 8))
    owners = draw(st.lists(st.integers(0, N - 1), min_size=T, max_size=T))
    return {"T": T, "rows": [[int(o == i) for o in owners]
                             for i in range(N)]}


@st.composite
def _gap_saturating_instances(draw):
    """Scalar gains and slot owners where sensor 0, with A in [3, 50] and
    one slot per period of 16 to 24, passes 10^12 inside its gap of T - 1
    slots; the other sensors' A lie in [1.01, 3]."""
    T = draw(st.integers(16, 24))
    gains = [draw(st.floats(3, 50))] + draw(
        st.lists(st.floats(1.01, 3), min_size=1, max_size=2))
    owners = draw(st.lists(st.integers(1, len(gains) - 1),
                           min_size=T - 1, max_size=T - 1))
    slot = draw(st.integers(0, T - 1))
    return gains, owners[:slot] + [0] + owners[slot:]


@settings(max_examples=100, deadline=None)
@given(instance=_gap_saturating_instances())
@example(instance=([10.0, 1.1], [0] + [1] * 13))
def test_simulate_periodic_average_is_cost_average_trace(fuzz_dir, instance):
    # two roads to one quantity: simulate's periodic average over the last
    # period of 10 and cost's average trace.  The example is two scalar
    # sensors, A = 10 and 1.1, sensor 0 on slot 0 of 14, where cost reads
    # 7.216457432207066e+24 for sensor 0.  cost adds a period's traces in
    # _ordered_sum's order and simulate in np.mean's; two orders of adding
    # T positive terms differ by at most (T - 1) eps times the sum, so the
    # averages differ by at most 2 T ulps
    gains, owners = instance
    T = len(owners)
    systems = _write_json(fuzz_dir, _scalar_systems(gains))
    sched = _write_json(fuzz_dir, {"T": T, "rows": [
        [int(o == i) for o in owners] for i in range(len(gains))]})
    code, sim = _cli_outputs(["simulate", "--systems", systems, "--schedule",
                              sched, "--horizon", str(10 * T)], fuzz_dir)
    assert code == 0
    code, cost = _cli_outputs(["cost", "--systems", systems, "--schedule",
                               sched], fuzz_dir)
    assert code == 0
    summary = _read_doc(sim["summary.json"])
    want = [s["average_trace"] for s in _read_doc(cost["cost.json"])["sensors"]]
    have = summary["periodic_average"]["per_sensor"]
    assert want[0] > 1e12
    for h, w in zip(have, want):
        if w is None:
            assert h is None
        else:
            assert abs(h - w) <= 2 * T * np.spacing(w), (h, w)
    assert summary["sensors"][0]["overflow_at"] is None


@settings(max_examples=60, deadline=None)
@given(gains=st.lists(st.floats(1.01, 3), min_size=2, max_size=3),
       periods=st.sampled_from(["3", "4", "3,4", "5", "3,5"]))
def test_schedule_costs_are_cost_of_the_schedule_it_wrote(fuzz_dir, gains,
                                                          periods):
    # the search's per-sensor costs and cost run on schedule.json agree to
    # the byte
    systems = _write_json(fuzz_dir, _scalar_systems(gains))
    code, found = _cli_outputs(["schedule", "--systems", systems,
                                f"--periods={periods}"], fuzz_dir)
    assert code == 0
    code, priced = _cli_outputs(["cost", "--systems", systems, "--schedule",
                                 str(found["schedule.json"])], fuzz_dir)
    assert code == 0
    assert (found["schedule_cost.json"].read_bytes()
            == priced["cost.json"].read_bytes())


@settings(max_examples=80, deadline=None)
@given(sched=_exclusive_schedules(), data=st.data())
def test_attack_commands_agree_with_each_other(fuzz_dir, sched, data):
    # attack optimal's attack.json makes cost read every blocked sensor
    # divergent, and attack isolate spoofs as many clocks as the target's
    # per_target_costs entry, exiting 4 where that entry is null
    N = len(sched["rows"])
    path = _write_json(fuzz_dir, sched)
    code, optimal = _cli_outputs(["attack", "optimal", "--schedule", path],
                                 fuzz_dir)
    assert code == 0
    report = _read_doc(optimal["attack_report.json"])
    if report["blocking"]:
        gains = data.draw(st.lists(st.floats(1.01, 3), min_size=N,
                                   max_size=N))
        systems = _write_json(fuzz_dir, _scalar_systems(gains))
        code, priced = _cli_outputs(
            ["cost", "--systems", systems, "--schedule", path, "--attack",
             str(optimal["attack.json"])], fuzz_dir)
        assert code == 0
        sensors = _read_doc(priced["cost.json"])["sensors"]
        assert report["blocked_sensors"]
        for i in report["blocked_sensors"]:
            assert sensors[i]["divergent"]
            assert sensors[i]["average_trace"] is None
    else:
        assert "attack.json" not in optimal
    for target, cost in enumerate(report["per_target_costs"]):
        code, isolated = _cli_outputs(["attack", "isolate", "--schedule",
                                       path, "--target", str(target)],
                                      fuzz_dir)
        if cost is None:
            assert code == 4
            continue
        assert code == 0
        taus = _read_doc(isolated["attack.json"])["taus"]
        assert taus[target] == 0
        assert sum(1 for t in taus if t) == cost


@pytest.mark.skipif(not os.path.lexists("/dev/stdin"),
                    reason="the platform has no /dev/stdin")
@pytest.mark.parametrize("argv, label", [
    (["attack", "optimal", "--schedule"], "schedule"),
    (["steady-state", "--systems"], "systems"),
])
def test_piped_input_is_hashed_as_read(tmp_path, systems_path, argv, label):
    # a pipe can be read once: the manifest must hash the bytes that were
    # parsed, and the outputs must match a run on the same bytes in a file
    data = (json.dumps({"T": 3, "rows": _ROUND_ROBIN_ROWS}).encode()
            if label == "schedule" else Path(systems_path).read_bytes())
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(source, out, stdin=None):
        proc = subprocess.run(
            [sys.executable, "-m", "schedsec.cli", *argv, source,
             "--out", str(out)], input=stdin, capture_output=True, env=env,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads((out / "run_manifest.json").read_text())

    piped = run("/dev/stdin", tmp_path / "piped", stdin=data)
    filed = run(str(path), tmp_path / "filed")
    assert piped["inputs"] == filed["inputs"] == {
        label: f"sha256:{hashlib.sha256(data).hexdigest()}"}
    assert piped["outputs"] == filed["outputs"]
    for name in piped["outputs"]:
        assert ((tmp_path / "piped" / name).read_bytes()
                == (tmp_path / "filed" / name).read_bytes())


def test_simulate_needs_exactly_one_source(systems_path, sched_path):
    assert main(["simulate", "--systems", systems_path]) == 3


def test_exit_code_validation_error(systems_path):
    assert main(["cost", "--systems", systems_path,
                 "--schedule", "/no/such/file.json"]) == 3


def test_exit_code_infeasible(tmp_path):
    sched = tmp_path / "solo.json"
    sched.write_text(json.dumps({"T": 2, "rows": [[1, 1]]}))
    assert main(["attack", "isolate", "--schedule", str(sched),
                 "--target", "0"]) == 4


def test_exit_code_budget(tmp_path, systems_path, monkeypatch):
    monkeypatch.setenv("SCHEDSEC_BUDGET", "5")
    assert main(["schedule", "--systems", systems_path,
                 "--periods", "3"]) == 5


@pytest.mark.parametrize("argv", [
    # 8 rows of period 256
    ["defend", "construct", "--mode", "shortest-period", "-n", "8"],
    # 3 rows of a 400-slot series
    ["simulate", "--horizon", "400"],
    # 50 trials of 3 rows of period 8
    ["simulate", "--horizon", "10", "--trials", "50"],
])
def test_sizes_are_charged_to_the_budget(tmp_path, capsys, monkeypatch,
                                         argv):
    # each size a user picks is charged before the work it implies is
    # done, so a large one exits 5 instead of exhausting time or memory
    if argv[0] == "simulate":
        policies = tmp_path / "policies.json"
        policies.write_text(json.dumps(policies_to_dict(
            shortest_period_policies(3))))
        argv = argv + ["--systems", "bundled:three-sensor-study",
                       "--policies", str(policies)]
    monkeypatch.setenv("SCHEDSEC_BUDGET", "1000")
    assert main(argv + ["--out", str(tmp_path / "out")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "SCHEDSEC_BUDGET" in err


def test_defend_bounds_charges_the_slots_of_the_set(tmp_path, capsys,
                                                    monkeypatch, systems_path):
    # the N * D slots of the set are charged, as `defend construct`
    # charges them, before any steady state or ladder is computed; at
    # exactly N * D the command writes the bytes of an unbudgeted run
    ps = shortest_period_policies(3)
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps(policies_to_dict(ps)))
    argv = ["defend", "bounds", "--systems", systems_path,
            "--policies", str(policies), "--out"]
    slots = ps.n_sensors * ps.period
    assert main(argv + [str(tmp_path / "free")]) == 0
    solved = []
    monkeypatch.setattr(cli, "steady_state",
                        lambda sys: solved.append(sys) or steady_state(sys))
    monkeypatch.setenv("SCHEDSEC_BUDGET", str(slots - 1))
    capsys.readouterr()
    assert main(argv + [str(tmp_path / "short")]) == 5
    assert capsys.readouterr().err == (
        f"error: bounding 3 rows of period 8 needs more than the budget of "
        f"{slots - 1} steps; raise SCHEDSEC_BUDGET to allow it\n")
    assert not solved and not (tmp_path / "short").exists()
    monkeypatch.setenv("SCHEDSEC_BUDGET", str(slots))
    assert main(argv + [str(tmp_path / "exact")]) == 0
    assert len(solved) == 3
    assert ((tmp_path / "exact" / "bounds.json").read_bytes()
            == (tmp_path / "free" / "bounds.json").read_bytes())


@pytest.mark.parametrize("argv", [
    # C(9102, 2) count vectors of 3 sensors, about 41 million
    ["schedule", "--periods", "9100"],
    # C(10^8 + 2, 2) count vectors, and a bound table of 10^24 cells
    ["schedule", "--periods", "100000000"],
    # 20000 * 2^20000 slots: too many digits to print
    ["defend", "construct", "--mode", "shortest-period", "-n", "20000"],
    # a million factors take seconds to multiply, or to check
    ["defend", "construct", "--mode", "shortest-period", "-n", "1000000"],
])
def test_oversized_sizes_are_refused_without_being_computed(
        tmp_path, systems_path, monkeypatch, argv):
    # the default budget, compared with each size before it is computed
    monkeypatch.delenv("SCHEDSEC_BUDGET", raising=False)
    if argv[0] == "schedule":
        argv = argv + ["--systems", systems_path]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "schedsec.cli", *argv,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 5, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert len(proc.stderr) < 300
    assert elapsed < 2.0


@pytest.mark.parametrize("kind", ["state", "measurement"])
def test_steady_state_on_scaled_files_is_right_or_refused(tmp_path, capsys,
                                                          systems_path, kind):
    # the bundled study in other units: P_bar scales by the state scale
    # squared, to a few ulps, at the same iteration counts, or the command
    # exits 3; it used to exit 0 with P_bar 54-89% off at state x 10^-5
    def run(path, out):
        code = main(["steady-state", "--systems", str(path), "--out",
                     str(out)])
        capsys.readouterr()
        if code:
            return code, None
        return code, json.loads((out / "steady_state.json").read_text())

    _, ref = run(systems_path, tmp_path / "ref")
    doc = json.loads(Path(systems_path).read_text())
    for e in (-160, -150, -75, -8, -5, -3, 3, 8, 75, 150, 160):
        s = float(f"1e{e}")
        state, measurement = (s, 1.0) if kind == "state" else (1.0, s)
        with np.errstate(over="ignore", under="ignore"):
            scaled = [{"A": entry["A"],
                       "C": (np.array(entry["C"]) / state
                             * measurement).tolist(),
                       "Q": (np.array(entry["Q"]) * state * state).tolist(),
                       "R": (np.array(entry["R"]) * measurement
                             * measurement).tolist(),
                       "Pi": (np.array(entry["Pi"]) * state
                              * state).tolist()}
                      for entry in doc]
        path = tmp_path / f"{kind}{e}.json"
        path.write_text(json.dumps(scaled))
        code, got = run(path, tmp_path / f"out{e}")
        if abs(e) <= 150:
            assert code == 0, e
        if code:
            assert code == 3, e
            continue
        for want, have in zip(ref["systems"], got["systems"]):
            P = np.array(want["P_bar"]) * state * state
            assert have["iterations"] == want["iterations"], e
            assert (np.abs(np.array(have["P_bar"]) - P).max()
                    <= 8 * np.spacing(np.abs(P).max())), e


def test_series_on_scaled_files_scales_with_the_units(tmp_path, capsys,
                                                     systems_path):
    # the bundled study with Q, R and Pi scaled by 10^e: P_bar and every
    # trace ladder entry scale by 10^e, so the round robin's periodic
    # average must too, to at most 8 ulps, the bound P_bar itself keeps
    # (test_steady_state_on_scaled_files_is_right_or_refused), and no trace
    # reads +inf, also where traces pass 10^12 (e >= 12)
    doc = json.loads(Path(systems_path).read_text())
    sched = tmp_path / "round_robin.json"
    sched.write_text(json.dumps({"T": 3, "rows": _ROUND_ROBIN_ROWS}))
    averages, overflows = {}, {}
    for e in (0, 6, 11, 12, 20, 75):
        scale = float(f"1e{e}")
        path = tmp_path / f"study{e}.json"
        path.write_text(json.dumps([
            {**entry, **{name: (np.array(entry[name]) * scale).tolist()
                         for name in ("Q", "R", "Pi")}}
            for entry in doc]))
        out = tmp_path / f"sim{e}"
        assert main(["simulate", "--systems", str(path), "--schedule",
                     str(sched), "--horizon", "30", "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        overflows[e] = [s["overflow_at"] for s in summary["sensors"]]
        averages[e] = np.array(summary["periodic_average"]["per_sensor"])
    for e, got in averages.items():
        want = averages[0] * float(f"1e{e}")
        assert (np.abs(got - want) <= 8 * np.spacing(want)).all(), (
            e, (got - want) / np.spacing(want))
        assert overflows[e] == [None] * 3, e


def test_attack_optimal_exits_5_at_a_large_root(tmp_path, capsys,
                                               monkeypatch):
    # the root LP of a 10-sensor round robin over 1,024 slots has 1,033 x
    # 10,240 dense tableau entries, past the default budget
    monkeypatch.delenv("SCHEDSEC_BUDGET", raising=False)
    path = tmp_path / "rr.json"
    path.write_text(json.dumps({"T": 1024, "rows": [
        [int(k % 10 == i) for k in range(1024)] for i in range(10)]}))
    assert main(["attack", "optimal", "--schedule", str(path),
                 "--out", str(tmp_path / "out")]) == 5
    assert capsys.readouterr().err.startswith(
        "error: the attack search over 10 sensors of period 1024 needs more "
        "than the budget of 10000000 steps")
    assert not (tmp_path / "out").exists()


def test_isolate_fallback_charges_its_search_to_the_budget(tmp_path, capsys,
                                                          monkeypatch):
    # isolate runs the optimal search for sensor 0, charged the dense tableau
    # of each LP it solves, 6 rows (4 slots and 2 other sensors) by 6 shift
    # and 6 slack columns, the root's up front, and each node the 2 x 6
    # cells of its cover test
    from schedsec.scheduling import ShiftTuple, reception
    rows = [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({"T": 4, "rows": rows}))
    sched = Schedule(period=4, rows=tuple(map(tuple, rows)))
    lps = []
    real_lp = attack.solve_bounded_lp
    with mock.patch.object(attack, "solve_bounded_lp", lambda *args, **kw:
                           lps.append(1) or real_lp(*args, **kw)):
        cost, _, nodes = attack._cheapest_block(sched, 0, Work("search"))
    charge = 6 * 12 * max(len(lps), 1) + 2 * 6 * nodes
    argv = ["attack", "isolate", "--schedule", str(path), "--target", "0",
            "--out"]
    monkeypatch.setenv("SCHEDSEC_BUDGET", str(charge - 1))
    assert main(argv + [str(tmp_path / "short")]) == 5
    assert capsys.readouterr().err == (
        f"error: the attack search over 3 sensors of period 4 needs more "
        f"than the budget of {charge - 1} steps; raise SCHEDSEC_BUDGET to "
        f"allow it\n")
    monkeypatch.setenv("SCHEDSEC_BUDGET", str(charge))
    out = tmp_path / "iso"
    assert main(argv + [str(out)]) == 0
    taus = json.loads((out / "attack.json").read_text())["taus"]
    assert taus[0] == 0
    assert not any(reception(sched, ShiftTuple(tuple(taus)))[0])
    assert sum(1 for t in taus if t) == cost


def test_exit_code_usage():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main([])
    assert exc2.value.code == 2
    # argparse rejects a sensor count below one before the command runs
    with pytest.raises(SystemExit) as exc3:
        main(["defend", "construct", "--mode", "shortest-period", "-n", "0"])
    assert exc3.value.code == 2


def test_no_command_reads_schedule_rows(tmp_path, monkeypatch):
    # every layer reads a schedule's array; the tuple view is for callers
    def unread(self):
        raise AssertionError("Schedule.rows read inside the package")

    monkeypatch.setattr(Schedule, "rows", property(unread))
    rp, sys_ = tmp_path / "rp", "bundled:three-sensor-study"
    sched, ps = str(rp / "schedule.json"), str(rp / "defense_same_duty.json")
    commands = [
        ["reproduce-paper", "--out", str(rp)],
        ["schedule", "--systems", sys_, "--periods", "3,4"],
        ["cost", "--systems", sys_, "--schedule", sched],
        ["attack", "optimal", "--schedule", sched],
        ["attack", "isolate", "--schedule", sched, "--target", "0"],
        ["defend", "construct", "--mode", "same-duty", "--schedule", sched],
        ["defend", "construct", "--mode", "shortest-period", "-n", "4"],
        ["defend", "bounds", "--systems", sys_, "--policies", ps],
        ["defend", "verify", "--policies", ps],
        ["defend", "verify", "--schedule", sched],
        ["simulate", "--systems", sys_, "--policies", ps, "--horizon", "30",
         "--trials", "5"],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    # nor do the library calls the commands leave out
    ref = shortest_period_policies(3)
    assert hamming_cross_correlation(ref, (0, 1), (0, 1)) == 2
    assert throughput(ref, (0, 2), (1, 0), 0) == Fraction(1, 4)


def test_repeated_main_calls_match_fresh_processes(tmp_path, monkeypatch,
                                                   capsys, systems_path,
                                                   sched_path):
    # one process keeps the parser of its first main call; every later call,
    # after a usage error too, must behave as a fresh interpreter does
    built = []

    def counting_build_parser():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    # argparse wraps its messages to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    runs = [
        ["reproduce-paper", "--out", "repro"],
        ["cost", "--systems", systems_path, "--schedule", sched_path,
         "--format", "xml"],
        ["cost", "--systems", systems_path, "--schedule", sched_path,
         "--format", "csv"],
        # --format defaults to json here and to csv for reproduce-paper
        ["steady-state", "--systems", systems_path],
        ["reproduce-paper", "--out", "again"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    fresh.mkdir()
    kept.mkdir()
    monkeypatch.chdir(kept)
    capsys.readouterr()  # what the fixtures printed
    codes = []
    for argv in runs:
        proc = subprocess.run([sys.executable, "-m", "schedsec.cli", *argv],
                              capture_output=True, env=env, cwd=fresh,
                              timeout=120)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out.encode(), err.encode()) == (
            proc.returncode, proc.stdout, proc.stderr), argv
        codes.append(code)
    assert codes == [0, 2, 0, 0, 0]
    assert built == [None]
    for name in ("repro", "again"):
        files = sorted(path.name for path in (fresh / name).iterdir())
        assert files == sorted(path.name for path in (kept / name).iterdir())
        assert "run_manifest.json" in files
        for file in files:
            assert ((kept / name / file).read_bytes()
                    == (fresh / name / file).read_bytes()), (name, file)


def test_format_flag_only_where_a_table_is_rendered(tmp_path, capsys,
                                                    systems_path, sched_path):
    # attack optimal, defend bounds and simulate write JSON documents and
    # CSV series only, so they take no --format
    policies = tmp_path / "policies.json"
    policies.write_text(json.dumps(policies_to_dict(
        shortest_period_policies(3))))
    for argv in (["attack", "optimal", "--schedule", sched_path],
                 ["defend", "bounds", "--systems", systems_path,
                  "--policies", str(policies)],
                 ["simulate", "--systems", systems_path,
                  "--schedule", sched_path, "--horizon", "6"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert main(argv) == 0
    for argv in (["steady-state", "--systems", systems_path],
                 ["schedule", "--systems", systems_path, "--periods", "3"],
                 ["cost", "--systems", systems_path, "--schedule", sched_path],
                 ["reproduce-paper", "--trials", "2"]):
        out = tmp_path / argv[0]
        assert main(argv + ["--format", "csv", "--out", str(out)]) == 0
        assert any(path.suffix == ".csv" for path in out.iterdir())


def test_reproduce_paper_pipeline(tmp_path, monkeypatch):
    out = tmp_path / "repro"
    argv = ["reproduce-paper", "--out", str(out), "--trials", "30",
            "--horizon", "54"]
    assert main(argv) == 0
    report = json.loads((out / "attack_report.json").read_text())
    assert report["spoofed_count"] == 1
    assert report["blocking"] and report["blocked_sensors"]
    assert report["brute_force_agrees"]
    sched = Schedule.from_dict(_read_doc(out / "schedule.json"))
    assert sched.period == 3 and sched.is_exclusive
    same = policies_from_dict(_read_doc(out / "defense_same_duty.json"))
    short = policies_from_dict(_read_doc(out / "defense_shortest.json"))
    assert same.period == 27 and short.period == 8
    bounds_doc = json.loads((out / "bounds.json").read_text())
    assert (bounds_doc["shortest_period"]["lower"]
            == pytest.approx(bounds_doc["shortest_period"]["upper"]))
    mc = json.loads((out / "mc.json").read_text())
    assert (mc["defenses"]["same_duty"]["mean"]
            > mc["defenses"]["shortest_period"]["mean"])
    for name in ("series_schedule.csv", "series_attacked.csv",
                 "series_same_duty.csv", "series_shortest.csv"):
        assert (out / name).exists()

    # identical invocation produces byte-identical artifacts
    out2 = tmp_path / "repro2"
    assert main(["reproduce-paper", "--out", str(out2), "--trials", "30",
                 "--horizon", "54"]) == 0
    for p in sorted(out.iterdir()):
        assert (out2 / p.name).read_bytes() == p.read_bytes(), p.name


# Output hashes of the default `schedsec reproduce-paper` in both table
# flavors; `scripts/compute_goldens.py` prints them.  The csv set equals the
# one in perfbench/expected.json.
_REPRODUCE_HASHES = {
    "attack.json":
        "sha256:cab8b52e30f365d79253f254720b6e60e62471798b0d22c42f7c16ea882a14d6",
    "attack_report.json":
        "sha256:8194da9f749fa49b67d71751cb0bb61a48e4ba579eecc6bcb833765179a2ff31",
    "bounds.json":
        "sha256:0942737111716f8aac0f28b5e95948be1686dea49c492fea5e41277f15e3e042",
    "defense_same_duty.json":
        "sha256:3e07af58803cc7bbc5cb629b88ae4833f1ec2c2ecce1077e06e0d813776c1a0b",
    "defense_shortest.json":
        "sha256:b0872792247b8a95e7dac76b6e30d120f3ebd4e79614371b1cb4202569e0ef97",
    "mc.json":
        "sha256:b7cd2bb0446c488af286f5f4f897092e26951edf00f805328846109fff7b9904",
    "schedule.json":
        "sha256:35b4615d77b108c5f1aa3b1cee383fb5de48aed360fd785f4d64041933e2d49a",
    "series_attacked.csv":
        "sha256:d179ee5cb052248df9b78fbd2bc1904f1e73698de21224be0b06968f58935b40",
    "series_same_duty.csv":
        "sha256:792e4f25ea17a588b3ce6235c0dc4b772237958ccbd51e0349f0722927dd77d3",
    "series_schedule.csv":
        "sha256:c11ef7a4e64baa3f83e44ed0fbbcaca4d61ea4d5dc2ba7499800cb04ddb9f4aa",
    "series_shortest.csv":
        "sha256:580f554b3aa04ae96235f5ac3ad7fa8fc6519763b2094e8d8945d354f0d0530e",
    "steady_state.json":
        "sha256:ba2efef7ca443309d3df13a2584877a49775e0fd11ab4f1c27d22cca4a5b358e",
}
_REPRODUCE_FLAVOR_HASHES = {
    "csv": {
        "attack_cost.csv":
            "sha256:fe3b027e80923e2c4922b7c6d5faa076996b8059a4348fae3e45b4ce2cc95010",
        "schedule_cost.csv":
            "sha256:b5e8db9b5cf0b4be434c207cdb07c3eaebdfc326fb4c896899584832029f90b9",
    },
    "json": {
        "attack_cost.json":
            "sha256:ac06a46bb66eeeef39629b518853602bbce26f2bd883d141638ebe4f9564c021",
        "schedule_cost.json":
            "sha256:b7c6bdd4fa7b242e10e7ed0825d698dd8123236fc5d1a98ee5f4610f695a50de",
    },
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reproduce_paper_output_hashes(tmp_path, fmt):
    out = tmp_path / fmt
    assert main(["reproduce-paper", "--format", fmt, "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["outputs"] == {**_REPRODUCE_HASHES,
                                   **_REPRODUCE_FLAVOR_HASHES[fmt]}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reproduce_paper_output_hashes_under_python_312_sum(tmp_path, fmt,
                                                            monkeypatch):
    # CPython 3.12 compensates builtin sum() over floats; the package adds
    # every float total left to right itself, so a run under 3.12's sum()
    # writes the recorded bytes (patched here only: a subprocess would not
    # inherit it)
    monkeypatch.setattr(builtins, "sum", py312_sum)
    out = tmp_path / fmt
    assert main(["reproduce-paper", "--format", fmt, "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["outputs"] == {**_REPRODUCE_HASHES,
                                   **_REPRODUCE_FLAVOR_HASHES[fmt]}


def test_manifest_hashes_match_contents(tmp_path, systems_path, sched_path):
    out = tmp_path / "m"
    assert main(["cost", "--systems", systems_path, "--schedule", sched_path,
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    for name, tagged in manifest["outputs"].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert tagged == f"sha256:{digest}"
    assert manifest["inputs"]["schedule"].startswith("sha256:")
    assert manifest["versions"]["schedsec"]


def _dumps_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_text_is_json_dumps_for_schedules_and_policy_sets():
    # the "rows" of a document written for a schedule come from its array
    sets = [shortest_period_policies(n) for n in range(1, 13)]
    sets += [construct_shift_invariant(fam) for fam in factor_families(64)[::53]]
    docs = [(policies_to_dict(ps), ps) for ps in sets]
    for sched in (Schedule(period=1, rows=((1,),)),
                  Schedule(period=5, rows=((1, 0, 1, 1, 0),)),
                  Schedule(period=3, rows=((0, 0, 1), (0, 1, 0), (1, 0, 0))),
                  shortest_period_policies(4)):
        docs += [(sched.to_dict(), sched)]
    for doc, sched in docs:
        assert _json_text(doc, sched) == _json_text(doc) == _dumps_text(doc)


def test_json_text_of_a_head_is_the_whole_document():
    # the CLI passes only the keys besides "rows", which come from the array
    sets = [shortest_period_policies(n) for n in (1, 3, 5)]
    sets += [construct_shift_invariant(fam) for fam in factor_families(64)[::53]]
    for ps in sets:
        assert (_json_text(cli._head(ps, factors=True), ps)
                == _dumps_text(policies_to_dict(ps)))
        assert _json_text(cli._head(ps), ps) == _dumps_text(ps.to_dict())


@pytest.mark.parametrize("doc", [
    {"rows": []}, {"rows": [[]]}, {"rows": [[1, 0], []]}, {"rows": None},
    {"rows": [[0, 2]]}, {"rows": [[-1, 0]]}, {"rows": [[True, False]]},
    {"rows": [[0.0, 1.0]]}, {"rows": [[1, 0], "10"]}, {"rows": "[[1]]"},
    {"rows": [(1, 0)]}, [[0, 1]], "rows",
    # a nested "rows" and the splice marker's text inside a string
    {"a": {"rows": None}, "b": '\n  "rows": null', "rows": [[0, 1], [1, 0]],
     "s": {"rows": [[1]]}},
])
def test_json_text_is_json_dumps_for_other_documents(doc):
    assert _json_text(doc) == _dumps_text(doc)


def test_json_text_splices_only_the_top_level_rows():
    # a nested "rows" and the splice marker's text inside a string
    doc = {"a": {"rows": None}, "b": '\n  "rows": null',
           "rows": [[0, 1], [1, 0]], "s": {"rows": [[1]]}}
    assert _json_text(doc, Schedule.coerce(doc["rows"])) == _dumps_text(doc)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 30).flatmap(lambda T: st.lists(
           st.lists(st.integers(0, 1), min_size=T, max_size=T),
           min_size=1, max_size=5)),
       rest=st.dictionaries(st.text(max_size=6),
                            st.one_of(st.none(), st.integers(), st.text(),
                                      st.lists(st.integers(0, 1)))))
def test_json_text_is_json_dumps_for_any_binary_rows(rows, rest):
    sched = Schedule.coerce(rows)
    doc = {**rest, "rows": rows}
    assert _json_text(doc, sched) == _json_text(doc) == _dumps_text(doc)
