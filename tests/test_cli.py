import contextlib
import copy
import io
import json
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedsec.cli import main
from schedsec.errors import StabilityWarning, read_json
from schedsec.protocol_sequences import (construct_shift_invariant,
                                         policies_from_dict, policies_to_dict,
                                         shortest_period_policies)
from schedsec.scheduling import Schedule


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


def test_schedule_command_reproduces_reference(tmp_path, systems_path):
    out = tmp_path / "s"
    assert main(["schedule", "--systems", systems_path, "--periods", "3",
                 "--out", str(out)]) == 0
    sched = Schedule.from_dict(read_json(out / "schedule.json"))
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
    ps = policies_from_dict(read_json(out / "policies.json"))
    assert ps.period == 8


def test_defend_construct_same_duty(tmp_path, sched_path):
    out = tmp_path / "d"
    assert main(["defend", "construct", "--mode", "same-duty",
                 "--schedule", sched_path, "--out", str(out)]) == 0
    ps = policies_from_dict(read_json(out / "policies.json"))
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
    elif kind == "policy":
        doc = policies_to_dict(construct_shift_invariant(
            draw(st.sampled_from(_FACTOR_SETS))))
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


@settings(max_examples=120, deadline=None)
@given(data=st.data(),
       command=st.sampled_from(["verify", "verify-policies", "cost",
                                "cost-attack", "isolate", "steady-state"]))
def test_cli_contract_under_fuzzed_documents(fuzz_dir, data, command):
    """Any schedule, shift, policy or systems document gives exit 0, 3, 4
    or 5 and never a traceback."""
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
            contextlib.redirect_stderr(err), warnings.catch_warnings():
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


def test_isolate_fallback_ignores_the_work_budget(tmp_path, monkeypatch):
    # shifting both other clocks by one covers only slot 1 of sensor 0, so
    # isolate needs the optimal search; it used to enumerate 4^2 tuples
    # against the budget and exit 5
    from schedsec.attack import bnb_optimal_attack
    from schedsec.scheduling import ShiftTuple, reception
    rows = [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({"T": 4, "rows": rows}))
    monkeypatch.setenv("SCHEDSEC_BUDGET", "10")
    out = tmp_path / "iso"
    assert main(["attack", "isolate", "--schedule", str(path),
                 "--target", "0", "--out", str(out)]) == 0
    taus = json.loads((out / "attack.json").read_text())["taus"]
    sched = Schedule(period=4, rows=tuple(map(tuple, rows)))
    assert taus[0] == 0
    assert not any(reception(sched, ShiftTuple(tuple(taus)))[0])
    assert (sum(1 for t in taus if t)
            == bnb_optimal_attack(sched).per_target_costs[0])


def test_exit_code_usage():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        main([])
    assert exc2.value.code == 2


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
    sched = Schedule.from_dict(read_json(out / "schedule.json"))
    assert sched.period == 3 and sched.is_exclusive
    same = policies_from_dict(read_json(out / "defense_same_duty.json"))
    short = policies_from_dict(read_json(out / "defense_shortest.json"))
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


def test_manifest_hashes_match_contents(tmp_path, systems_path, sched_path):
    import hashlib
    out = tmp_path / "m"
    assert main(["cost", "--systems", systems_path, "--schedule", sched_path,
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    for name, tagged in manifest["outputs"].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert tagged == f"sha256:{digest}"
    assert manifest["inputs"]["schedule"].startswith("sha256:")
    assert manifest["versions"]["schedsec"]
