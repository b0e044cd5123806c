import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerated_schedule_search, random_unstable_system
from schedsec import scheduling
from schedsec.cli import _cost_csv
from schedsec.errors import BudgetError, ValidationError, read_json
from schedsec.lti_estimation import steady_state
from schedsec.scheduling import (Schedule, ShiftTuple, _gap_histogram,
                                 _necklaces, _reception_runs, average_cost,
                                 optimal_schedule_search, reception)

GOLDEN_ROUND_ROBIN_COST = 2.0250433575300404

binary_row = st.lists(st.integers(0, 1), min_size=1, max_size=12)


def gap_counts(row):
    """Gap histogram of a reception row, through the row check that
    average_cost applies."""
    return _gap_histogram(_reception_runs(row))


def test_gap_histogram_hand_values():
    assert gap_counts([1, 0, 0]) == [1, 1, 1]
    assert gap_counts([1, 0, 1, 0]) == [2, 2]
    assert gap_counts([1, 1, 1]) == [3]
    assert gap_counts([0, 1, 0, 0, 0]) == [1, 1, 1, 1, 1]
    assert gap_counts((1, 0, 0, 1, 0)) == [2, 2, 1]
    assert gap_counts([0, 0, 0]) == []   # never received


def test_gap_histogram_wraps_cyclically():
    # last reception before slot 0 is slot 3 of the previous period
    assert gap_counts([0, 0, 0, 1]) == [1, 1, 1, 1]
    assert gap_counts([0, 1, 0, 0, 1, 0]) == [2, 2, 2]


def test_gap_histogram_rejects_non_binary():
    with pytest.raises(ValidationError, match="row 0 slot 1 is 2"):
        gap_counts([0, 2, 0])
    with pytest.raises(ValidationError, match="slot 0 is 0.5"):
        gap_counts([0.5, 0.5])
    with pytest.raises(ValidationError, match="nonempty"):
        gap_counts([])
    # an average_cost caller gets the same check
    with pytest.raises(ValidationError, match="reception row"):
        average_cost([[1, 0, 3]], [None])


@settings(max_examples=200, deadline=None)
@given(row=binary_row)
def test_gap_histogram_invariants(row):
    counts = gap_counts(row)
    T = len(row)
    if not any(row):
        assert counts == []
        return
    assert sum(counts) == T
    assert counts[0] == sum(row)
    for t in range(1, len(counts)):
        assert 0 < counts[t] <= counts[t - 1]
    # counts[t] is the number of slots whose latest reception is t back
    back = [next(t for t in range(T) if row[(k - t) % T]) for k in range(T)]
    assert counts == [back.count(t) for t in range(max(back) + 1)]


@settings(max_examples=200, deadline=None)
@given(row=binary_row, r=st.integers(0, 11))
def test_gap_histogram_rotation_invariant(row, r):
    rot = [row[(k + r) % len(row)] for k in range(len(row))]
    assert gap_counts(rot) == gap_counts(row)


def test_duty_factor_reduces():
    sched = Schedule(period=4, rows=((1, 0, 1, 0), (0, 0, 0, 1),
                                     (0, 0, 0, 0), (1, 1, 1, 1)))
    assert sched.duty_factors() == [Fraction(1, 2), Fraction(1, 4),
                                    Fraction(0), Fraction(1)]
    assert sched.duty_factors()[0].denominator == 2


def test_schedule_validation():
    with pytest.raises(ValidationError):
        Schedule(period=2, rows=((0, 2), (1, 0)))
    with pytest.raises(ValidationError):
        Schedule(period=2, rows=((0.5, 0.5),))
    with pytest.raises(ValidationError):
        Schedule(period=3, rows=((0, 1), (1, 0)))
    with pytest.raises(ValidationError, match="row 1 slot 1 is \\[1\\]"):
        Schedule(period=2, rows=((0, 1), (0, [1])))   # unhashable entry
    s = Schedule(period=2, rows=((1, 1), (0, 1)))
    assert not s.is_exclusive
    with pytest.raises(ValidationError):
        s.require_exclusive()


def test_schedule_roundtrip(tmp_path, round_robin):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(round_robin.to_dict()))
    assert Schedule.from_dict(read_json(path)) == round_robin
    with open(path, encoding="utf-8") as fh:
        assert Schedule.from_dict(read_json(fh)) == round_robin


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 4), T=st.integers(1, 6))
def test_schedule_roundtrip_property(tmp_path_factory, seed, n, T):
    from conftest import random_exclusive_schedule
    rng = np.random.default_rng(seed)
    sched = random_exclusive_schedule(rng, n, T)
    assert Schedule.from_dict(sched.to_dict()) == sched


def test_average_cost_golden(round_robin, study_ladders):
    report = average_cost(reception(round_robin), study_ladders)
    assert report.total == pytest.approx(GOLDEN_ROUND_ROBIN_COST, rel=1e-8)
    assert not report.any_divergent


def test_average_cost_manual_small(study_ladders):
    # single sensor, receive every other slot: J = (L0 + L1) / 2
    lad = study_ladders[0]
    report = average_cost([[1, 0]], [lad])
    assert report.per_sensor[0] == pytest.approx(
        (lad.trace(0) + lad.trace(1)) / 2, rel=1e-12)


def test_average_cost_divergent_flags(study_ladders):
    report = average_cost([[0, 0], [1, 1]], study_ladders[:2])
    assert math.isinf(report.per_sensor[0])
    assert report.divergent == (True, False)
    assert math.isinf(report.total)
    assert report.any_divergent


def test_cost_report_csv(study_ladders):
    # rendered by the command line, in the csv module's dialect
    report = average_cost([[0, 0], [1, 0]], study_ladders[:2])
    text = _cost_csv(report)
    lines = text.split("\r\n")
    assert lines[0] == "sensor_index,average_trace,divergent"
    assert lines[1] == "0,,True"
    assert lines[2] == f"1,{report.per_sensor[1]!r},False"
    assert lines[3:] == [""]   # every line ends in \r\n


def test_reception_drops_collisions():
    sched = Schedule(period=2, rows=((1, 1), (0, 1)))
    assert reception(sched) == [[1, 0], [0, 0]]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), T=st.integers(1, 6))
def test_reception_matches_pairwise_rule(data, n, T):
    # reference: compare every shifted row with every other, slot by slot
    rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=T,
                                       max_size=T), min_size=n, max_size=n))
    taus = data.draw(st.lists(st.integers(0, T - 1), min_size=n, max_size=n))
    shifted = [[row[(k + t) % T] for k in range(T)]
               for row, t in zip(rows, taus)]
    want = [[int(shifted[i][k] == 1 and not any(
        shifted[j][k] for j in range(n) if j != i)) for k in range(T)]
        for i in range(n)]
    sched = Schedule(period=T, rows=tuple(map(tuple, rows)))
    assert reception(sched, ShiftTuple(tuple(taus))) == want
    if not any(taus):
        assert reception(sched) == want


def test_optimal_schedule_search_study_instance(study_systems, study_ladders):
    sched, report = optimal_schedule_search(study_systems, [3],
                                            ladders=study_ladders)
    assert sched.rows == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert report.total == pytest.approx(GOLDEN_ROUND_ROBIN_COST, rel=1e-8)


def test_optimal_schedule_search_is_deterministic(study_systems, study_ladders):
    a = optimal_schedule_search(study_systems, [3, 4], ladders=study_ladders)
    b = optimal_schedule_search(study_systems, [4, 3], ladders=study_ladders)
    assert a[0] == b[0]
    assert a[1].total == b[1].total


def test_optimal_schedule_winner_is_uniform(study_systems, study_ladders):
    from conftest import is_uniform_row
    for T in (3, 4, 5):
        sched, _ = optimal_schedule_search(study_systems, [T],
                                           ladders=study_ladders)
        assert sched.is_exclusive
        for row in sched.rows:
            assert is_uniform_row(row)


def test_search_rejects_too_short_period(study_systems, study_ladders):
    with pytest.raises(ValidationError, match="T >= 3"):
        optimal_schedule_search(study_systems, [2], ladders=study_ladders)


def test_search_budget(study_systems, study_ladders, monkeypatch):
    monkeypatch.setenv("SCHEDSEC_BUDGET", "5")
    with pytest.raises(BudgetError, match="SCHEDSEC_BUDGET"):
        optimal_schedule_search(study_systems, [3], ladders=study_ladders)


def test_search_beats_every_explicit_candidate(study_systems, study_ladders):
    from conftest import all_exclusive_schedules
    best, report = optimal_schedule_search(study_systems, [4],
                                           ladders=study_ladders)
    for cand in all_exclusive_schedules(3, 4):
        cost = average_cost(reception(cand), study_ladders).total
        assert report.total <= cost + 1e-12


def test_histogram_sum_rule_matches_cost_definition(study_ladders):
    # cost assembled by hand from the histogram equals average_cost
    lad = study_ladders[2]
    row = [1, 0, 0, 1, 0]
    counts = gap_counts(row)
    assert counts == [2, 2, 1]
    manual = sum(c * lad.trace(t) for t, c in enumerate(counts)) / 5
    report = average_cost([row], [lad])
    assert report.per_sensor[0] == pytest.approx(manual, rel=1e-12)


def _n_necklaces(n_symbols, length):
    """(1/T) sum over d | T of phi(d) N^(T/d)."""
    def phi(d):
        return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
    return sum(phi(d) * n_symbols ** (length // d)
               for d in range(1, length + 1) if length % d == 0) // length


@pytest.mark.parametrize("n_symbols", [1, 2, 3, 4])
@pytest.mark.parametrize("length", range(1, 9))
def test_necklaces_one_per_rotation_class(n_symbols, length):
    necklaces = list(_necklaces(n_symbols, length))
    assert len(necklaces) == _n_necklaces(n_symbols, length)
    classes = set()
    for neck in necklaces:
        rotations = {neck[r:] + neck[:r] for r in range(length)}
        assert neck == min(rotations)
        classes.add(frozenset(rotations))
    assert len(classes) == len(necklaces)


def test_search_prices_only_necklaces_serving_every_sensor(
        monkeypatch, study_systems, study_ladders):
    # every (sensor, cyclic runs) the search asks its pricer for; a
    # necklace that starves a sensor would ask for empty runs
    asked = []
    real = scheduling._gap_pricer

    def recording(ladders):
        price = real(ladders)

        def wrapped(i, runs):
            asked.append((i, runs))
            return price(i, runs)
        return wrapped

    monkeypatch.setattr(scheduling, "_gap_pricer", recording)
    # over {0, 1, 2} at T = 3 only 012 and 021 give every sensor a slot
    sched, _ = optimal_schedule_search(study_systems, [3],
                                       ladders=study_ladders)
    assert sched.rows == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert asked == [(0, (3,)), (1, (3,)), (2, (3,))] * 2
    asked.clear()
    optimal_schedule_search(study_systems, [3, 4, 5], ladders=study_ladders)
    assert all(runs for _, runs in asked)
    assert len(asked) == 3 * sum(1 for T in (3, 4, 5)
                                 for neck in _necklaces(3, T)
                                 if len(set(neck)) == 3)


def _random_search_instance(rng):
    n = int(rng.integers(2, 5))
    systems = [random_unstable_system(rng, name=f"sensor {i}")
               for i in range(n)]
    fits = [T for T in range(n, 13) if n ** T <= 4096]
    periods = rng.choice(fits, size=int(rng.integers(1, min(3, len(fits)) + 1)),
                         replace=False)
    return systems, [int(T) for T in periods]


@pytest.mark.parametrize("seed", range(8))
def test_search_matches_enumeration_oracle(seed):
    rng = np.random.default_rng(seed)
    systems, periods = _random_search_instance(rng)
    ladders = [steady_state(s) for s in systems]
    got = optimal_schedule_search(systems, periods, ladders=ladders)
    want = enumerated_schedule_search(len(systems), periods, ladders)
    assert got[0] == want[0]
    assert got[1].per_sensor == want[1].per_sensor  # bit-identical floats


@pytest.mark.parametrize("periods", [[3], [3, 4], [3, 4, 5, 6]])
def test_search_matches_enumeration_oracle_on_study(periods, study_systems,
                                                    study_ladders):
    got = optimal_schedule_search(study_systems, periods, ladders=study_ladders)
    want = enumerated_schedule_search(3, periods, study_ladders)
    assert got[0] == want[0]
    assert got[1].per_sensor == want[1].per_sensor


class _OverflowLadder:
    """Finite traces up to a gap, then inf, as a ladder that overflows."""

    def __init__(self, *traces):
        self.traces = traces

    def trace(self, t):
        return self.traces[t] if t < len(self.traces) else math.inf


@pytest.mark.parametrize("traces", [(1.0,), (1.0, 2.0), (1.0, math.nan)])
def test_search_matches_oracle_when_no_schedule_is_finite(traces,
                                                          study_systems):
    # every schedule costs inf or NaN, so a necklace that starves a sensor
    # can win the tie-break, exactly as when all assignments were priced
    ladders = [_OverflowLadder(1.0)] + [_OverflowLadder(*traces)] * 2
    for periods in ([3], [3, 4, 5]):
        got = optimal_schedule_search(study_systems, periods, ladders=ladders)
        want = enumerated_schedule_search(3, periods, ladders)
        assert got[0] == want[0]
        assert repr(got[1].per_sensor) == repr(want[1].per_sensor)
