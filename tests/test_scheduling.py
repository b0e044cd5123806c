import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedsec.cli import _cost_csv
from schedsec.errors import BudgetError, ValidationError, read_json
from schedsec.scheduling import (Schedule, ShiftTuple, _gap_counts,
                                 average_cost, optimal_schedule_search,
                                 reception)

GOLDEN_ROUND_ROBIN_COST = 2.0250433575300404

binary_row = st.lists(st.integers(0, 1), min_size=1, max_size=12)


def test_gap_histogram_hand_values():
    assert _gap_counts([1, 0, 0]) == [1, 1, 1]
    assert _gap_counts([1, 0, 1, 0]) == [2, 2]
    assert _gap_counts([1, 1, 1]) == [3]
    assert _gap_counts([0, 1, 0, 0, 0]) == [1, 1, 1, 1, 1]
    assert _gap_counts((1, 0, 0, 1, 0)) == [2, 2, 1]
    assert _gap_counts([0, 0, 0]) == []   # never received


def test_gap_histogram_wraps_cyclically():
    # last reception before slot 0 is slot 3 of the previous period
    assert _gap_counts([0, 0, 0, 1]) == [1, 1, 1, 1]
    assert _gap_counts([0, 1, 0, 0, 1, 0]) == [2, 2, 2]


def test_gap_histogram_rejects_non_binary():
    with pytest.raises(ValidationError, match="row 0 slot 1 is 2"):
        _gap_counts([0, 2, 0])
    with pytest.raises(ValidationError, match="slot 0 is 0.5"):
        _gap_counts([0.5, 0.5])
    with pytest.raises(ValidationError, match="nonempty"):
        _gap_counts([])
    # an average_cost caller gets the same check
    with pytest.raises(ValidationError, match="reception row"):
        average_cost([[1, 0, 3]], [None])


@settings(max_examples=200, deadline=None)
@given(row=binary_row)
def test_gap_histogram_invariants(row):
    counts = _gap_counts(row)
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
    assert _gap_counts(rot) == _gap_counts(row)


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


def test_search_budget(study_systems, study_ladders):
    with pytest.raises(BudgetError, match="SCHEDSEC_BUDGET"):
        optimal_schedule_search(study_systems, [3], ladders=study_ladders,
                                budget=5)


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
    counts = _gap_counts(row)
    assert counts == [2, 2, 1]
    manual = sum(c * lad.trace(t) for t, c in enumerate(counts)) / 5
    report = average_cost([row], [lad])
    assert report.per_sensor[0] == pytest.approx(manual, rel=1e-12)
