import copy
import functools
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (enumerated_schedule_search, fkm_necklaces,
                      random_unstable_system)
from schedsec import scheduling
from schedsec.cli import _cost_csv
from schedsec.errors import (BudgetError, InfeasibleError, ValidationError,
                             Work, read_json)
from schedsec.lti_estimation import load_systems, steady_state
from schedsec.scheduling import (Schedule, ShiftTuple, _binary_rows,
                                 _count_bounds, _fixed_content_necklaces,
                                 _gap_histogram, _gap_pricer, _row_runs,
                                 average_cost, optimal_schedule_search,
                                 reception)

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
GOLDEN_ROUND_ROBIN_COST = 2.0250433575300404
SCHEDULE_GOLDENS = json.loads(
    (DATA / "schedule_goldens.json").read_text())["searches"]

binary_row = st.lists(st.integers(0, 1), min_size=1, max_size=12)


def gap_counts(row):
    """Gap histogram of a reception row, through the row check and the
    batch runs that average_cost applies."""
    return _gap_histogram(
        _row_runs(_binary_rows([row], context="reception row"))[0])


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
    # an average_cost caller gets the same check, and its rows must share
    # one period
    with pytest.raises(ValidationError, match="reception row"):
        average_cost([[1, 0, 3]], [None])
    with pytest.raises(ValidationError, match="row 1 has length 2, expected 3"):
        average_cost([[1, 0, 0], [0, 1]], [None, None])


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


# every form a caller may give the same 0/1 rows in
INPUT_FORMS = {
    "tuples": lambda rows: tuple(map(tuple, rows)),
    "lists": lambda rows: [list(row) for row in rows],
    "generator": lambda rows: (tuple(row) for row in rows),
    "uint8": lambda rows: np.array(rows, dtype=np.uint8),
    "bool": lambda rows: np.array(rows, dtype=bool),
    "int64": lambda rows: np.array(rows, dtype=np.int64),
    "numpy rows": lambda rows: [np.array(row) for row in rows],
}


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 9).flatmap(lambda T: st.lists(
    st.lists(st.integers(0, 1), min_size=T, max_size=T),
    min_size=1, max_size=4)))
def test_one_schedule_from_any_input_form(rows):
    T = len(rows[0])
    scheds = [Schedule(T, form(rows)) for form in INPUT_FORMS.values()]
    scheds += [Schedule(period=np.int64(T), rows=rows),
               Schedule.coerce(np.array(rows, dtype=bool))]
    for sched in scheds:
        assert sched == scheds[0] and hash(sched) == hash(scheds[0])
        assert type(sched.period) is int and sched.period == T
        assert sched.rows == tuple(map(tuple, rows))
        assert all(type(v) is int for row in sched.rows for v in row)
        assert sched.to_dict() == {"T": T, "rows": rows}
        assert json.dumps(sched.to_dict()) == json.dumps(scheds[0].to_dict())
        assert sched.array.dtype == np.uint8 and sched.array.shape == (len(rows), T)
        assert not sched.array.flags.writeable
        with pytest.raises(ValueError):
            sched.array[0, 0] = 1
    assert len({*scheds}) == 1
    assert scheds[0] != Schedule(T + 1, [row + [0] for row in rows])
    assert scheds[0] != tuple(map(tuple, rows))


def test_schedule_copies_a_callers_array():
    given_rows = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    sched = Schedule(2, given_rows)
    given_rows[0, 0] = 0
    assert given_rows.flags.writeable
    assert sched.rows == ((1, 0), (0, 1))
    # copies and unpickled schedules are rebuilt through the check, frozen
    for other in (copy.copy(sched), copy.deepcopy(sched),
                  pickle.loads(pickle.dumps(sched))):
        assert other == sched and hash(other) == hash(sched)
        assert not other.array.flags.writeable


def test_schedule_reads_a_generator_once():
    sched = Schedule(period=2, rows=(r for r in ((1, 0), (0, 1))))
    assert sched.n_sensors == 2 and sched.rows == ((1, 0), (0, 1))
    assert sched.is_exclusive


@pytest.mark.parametrize("period, rows, message", [
    (3.0, ((1, 0, 0),), "period must be an integer, got 3.0"),
    ("3", ((1, 0, 0),), "period must be an integer, got '3'"),
    (True, ((1,),), "period must be an integer, got True"),
    (0, ((1,),), "period must be >= 1, got 0"),
    (2, (), "schedule needs at least one sensor row"),
    (2, np.zeros((0, 2), dtype=np.uint8), "schedule needs at least one sensor row"),
    (2, (1, 0), "schedule: row 0 is 1, expected a row of 2 entries"),
    (2, np.array([1, 0]), "schedule: row 0 is 1, expected a row of 2 entries"),
    (2, ((1, 0), 1), "schedule: row 1 is 1, expected a row of 2 entries"),
    (2, ((1 + 0j, 0),), "schedule: row 0 slot 0 is (1+0j), expected 0 or 1"),
    (2, ((0, 1.0),), "schedule: row 0 slot 1 is 1.0, expected 0 or 1"),
    (2, np.array([[0, 1.0]]), "schedule: row 0 slot 0 is 0.0, expected 0 or 1"),
    (2, np.array([[2, 0]]), "schedule: row 0 slot 0 is 2, expected 0 or 1"),
    (2, np.array([[0, 1], [0, -1]], dtype=np.int8),
     "schedule: row 1 slot 1 is -1, expected 0 or 1"),
    (2, ((0, 1), (np.int64(3), 0)),
     "schedule: row 1 slot 0 is 3, expected 0 or 1"),
    (2, ((0, 1), (0, "1")), "schedule: row 1 slot 1 is '1', expected 0 or 1"),
    (2, ((0, 1), (0, [1])), "schedule: row 1 slot 1 is [1], expected 0 or 1"),
    (3, ((1, 0, 0), (0, 1)), "schedule: row 1 has length 2, expected 3"),
    (3, np.zeros((2, 2), dtype=int), "schedule: row 0 has length 2, expected 3"),
])
def test_schedule_rejects_each_bad_input(period, rows, message):
    with pytest.raises(ValidationError) as info:
        Schedule(period, rows)
    assert str(info.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: average_cost([[]], [None]), "reception row must be nonempty"),
    (lambda: average_cost([[1, 0, 3]], [None]),
     "reception row: row 0 slot 2 is 3, expected 0 or 1"),
    (lambda: average_cost([[1, 0, 0], [0, 1]], [None, None]),
     "reception row: row 1 has length 2, expected 3"),
    (lambda: average_cost([1, 0], [None, None]),
     "reception row: row 0 is 1, expected a row of 0/1 entries"),
    (lambda: average_cost([[1, 0], 1], [None, None]),
     "reception row: row 1 is 1, expected a row of 2 entries"),
    (lambda: average_cost(5, [None]),
     "reception row: expected a sequence of rows, got 5"),
    (lambda: average_cost(np.int64(5), [None]),
     "reception row: expected a sequence of rows, got 5"),
    (lambda: average_cost(iter([[1, 0]]), [None, None]),
     "got 1 reception rows for 2 ladders"),
    (lambda: Schedule.coerce([[]]), "schedule must be nonempty"),
    (lambda: Schedule.coerce([]), "schedule needs at least one sensor row"),
    (lambda: Schedule.coerce(np.array([1, 0])),
     "schedule: row 0 is 1, expected a row of 0/1 entries"),
])
def test_reception_rows_and_coerce_share_the_row_check(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def test_average_cost_reads_an_iterator_once(study_ladders):
    rows = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    want = average_cost(rows, study_ladders)
    assert average_cost(iter(rows), study_ladders) == want
    assert average_cost((tuple(r) for r in rows), study_ladders) == want


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 12).flatmap(lambda T: st.lists(
    st.lists(st.integers(0, 1), min_size=T, max_size=T),
    min_size=1, max_size=4)))
def test_row_runs_are_the_search_memo_keys(rows):
    # the batch kernel gives each row's cyclic runs, from each reception
    # to the next and wrapping round the period, as a sorted tuple of ints
    def cyclic_runs(row):
        hits = [k for k, v in enumerate(row) if v]
        return tuple(sorted(b - a for a, b in
                            zip(hits, [*hits[1:], hits[0] + len(row)])
                            )) if hits else ()

    got = _row_runs(_binary_rows(rows, context="reception row"))
    assert got == [cyclic_runs(row) for row in rows]
    assert all(type(r) is int for runs in got for r in runs)


def test_schedule_roundtrip(tmp_path, round_robin):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(round_robin.to_dict()))
    assert Schedule.from_dict(read_json(path.read_bytes())) == round_robin


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 4), T=st.integers(1, 6))
def test_schedule_roundtrip_property(tmp_path_factory, seed, n, T):
    from conftest import random_exclusive_schedule
    rng = np.random.default_rng(seed)
    sched = random_exclusive_schedule(rng, n, T)
    assert Schedule.from_dict(sched.to_dict()) == sched


@pytest.mark.parametrize("rows, message", [
    ([[1, 0], [0, True]], "row 1 entry must be an integer, got True"),
    ([[False, 1], [1, 0]], "row 0 entry must be an integer, got False"),
    ([[1, 0], [0, 1.0]], "row 1 entry must be an integer, got 1.0"),
    ([[1, 0], ["0", 1]], "row 1 entry must be an integer, got '0'"),
    ([[1, None], [0, 1]], "row 0 entry must be an integer, got None"),
    # the entries are checked in every row before any row's values
    ([[1, 2], [0, True]], "row 1 entry must be an integer, got True"),
    ([[1, 0], [0, 2]], "schedule: row 1 slot 1 is 2, expected 0 or 1"),
    ([[-1, 0], [0, 1]], "schedule: row 0 slot 0 is -1, expected 0 or 1"),
    ([[1, 0], [0, np.int64(2)]],
     "schedule: row 1 slot 1 is 2, expected 0 or 1"),
    ([[1, 0], [0, 1, 0]], "schedule: row 1 has length 3, expected 2"),
    ([[1, 0], 1], "row 1 must be a list, got int"),
])
def test_schedule_document_names_each_bad_entry(rows, message):
    for T in (2, np.int64(2)):
        with pytest.raises(ValidationError) as info:
            Schedule.from_dict({"T": T, "rows": rows})
        assert str(info.value) == message
    with pytest.raises(ValidationError, match='"T" must be an integer'):
        Schedule.from_dict({"T": True, "rows": rows})


def test_schedule_document_takes_numpy_integers():
    doc = {"T": np.int64(2), "rows": [[np.uint8(1), 0], [np.int32(0), 1]]}
    sched = Schedule.from_dict(doc)
    assert sched == Schedule(2, ((1, 0), (0, 1)))
    assert type(sched.period) is int


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


@settings(max_examples=200, deadline=None)
@given(data=st.data(), batch=st.sampled_from([(), (3,), (2, 3)]),
       T=st.integers(1, 7))
def test_shifted_matches_slot_loop(data, batch, T):
    # stacks shaped (T,), (N, T) and (S, N, T), each row with its own
    # offset, negative and beyond the period included
    size = int(np.prod(batch, dtype=int))
    flat = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=T,
                                       max_size=T), min_size=size,
                              max_size=size))
    offsets = data.draw(st.lists(st.integers(-2 * T, 2 * T), min_size=size,
                                 max_size=size))
    want = [[row[(k + t) % T] for k in range(T)]
            for row, t in zip(flat, offsets)]
    rows = np.array(flat).reshape(batch + (T,))
    taus = np.array(offsets).reshape(batch)
    got = scheduling._shifted(rows, taus)
    assert got.shape == batch + (T,)
    assert got.reshape(size, T).tolist() == want
    # a single offset broadcasts over every row, a stack of offsets over
    # one row
    assert scheduling._shifted(rows, offsets[0]).reshape(size, T).tolist() \
        == [[row[(k + offsets[0]) % T] for k in range(T)] for row in flat]
    assert scheduling._shifted(flat[0], taus).reshape(size, T).tolist() \
        == [[flat[0][(k + t) % T] for k in range(T)] for t in offsets]


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


def test_search_budget_counts_vectors_cells_and_nodes(study_systems,
                                                     study_ladders,
                                                     monkeypatch):
    # the 1 + 3 count vectors of periods 3 and 4 and the 3 * C(6, 3)
    # cells of the bound table are charged at once, before either is
    # built, then one step per walk node as it is entered; exactly that
    # much passes
    charges = []

    class Recording(Work):
        def charge(self, steps):
            charges.append(steps)
            super().charge(steps)

    monkeypatch.setattr(scheduling, "Work", Recording)
    want = optimal_schedule_search(study_systems, [3, 4],
                                   ladders=study_ladders)
    assert charges[0] == 1 + 3 + 60 and set(charges[1:]) == {1}
    used = sum(charges)
    monkeypatch.setenv("SCHEDSEC_BUDGET", str(used))
    assert optimal_schedule_search(study_systems, [3, 4],
                                   ladders=study_ladders) == want
    monkeypatch.setenv("SCHEDSEC_BUDGET", str(used - 1))
    with pytest.raises(BudgetError):
        optimal_schedule_search(study_systems, [3, 4], ladders=study_ladders)

    def refuse(*args):
        raise AssertionError("built past the budget")

    monkeypatch.setattr(scheduling, "_count_bounds", refuse)
    monkeypatch.setattr(scheduling, "_contents", refuse)
    monkeypatch.setenv("SCHEDSEC_BUDGET", "63")
    with pytest.raises(BudgetError):
        optimal_schedule_search(study_systems, [3, 4], ladders=study_ladders)
    # C(10^5 - 1, 2) vectors are refused before one is built
    monkeypatch.delenv("SCHEDSEC_BUDGET")
    with pytest.raises(BudgetError) as exc:
        optimal_schedule_search(study_systems, [10**5],
                                ladders=study_ladders)
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize("limit", [1, 5, 64, 81, 10**7])
def test_work_charges_a_power_exactly(monkeypatch, limit):
    monkeypatch.setenv("SCHEDSEC_BUDGET", str(limit))
    for base in range(1, 7):
        for exp in range(40):
            work = Work("a power")
            if base ** exp > limit:
                with pytest.raises(BudgetError):
                    work.charge_power(base, exp)
            else:
                work.charge_power(base, exp)
                assert work.used == base ** exp


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
    necklaces = list(fkm_necklaces(n_symbols, length))
    assert len(necklaces) == _n_necklaces(n_symbols, length)
    classes = set()
    for neck in necklaces:
        rotations = {neck[r:] + neck[:r] for r in range(length)}
        assert neck == min(rotations)
        classes.add(frozenset(rotations))
    assert len(classes) == len(necklaces)


def _compositions(total, parts):
    """Every ordered way to write `total` as `parts` positive integers."""
    return [c for c in itertools.product(range(1, total + 1), repeat=parts)
            if sum(c) == total]


@functools.lru_cache(maxsize=None)
def _necklaces_by_content(n_symbols, length):
    """FKM's necklaces grouped by content (the count of each symbol), each
    group in FKM's order."""
    groups = {}
    for neck in fkm_necklaces(n_symbols, length):
        content = tuple(neck.count(s) for s in range(n_symbols))
        groups.setdefault(content, []).append(neck)
    return groups


def _content_size(counts):
    return len(_necklaces_by_content(len(counts), sum(counts))[counts])


@pytest.mark.parametrize("n_symbols", [1, 2, 3, 4])
@pytest.mark.parametrize("length", range(1, 9))
def test_fixed_content_necklaces_are_fkm_by_content(n_symbols, length):
    # with nothing to prune, the walk yields every necklace of each
    # content with every symbol present, in FKM's order, with each
    # symbol's runs as the gap kernel reads them off the necklace's rows
    groups = _necklaces_by_content(n_symbols, length)
    least = _count_bounds([_OverflowLadder(1.0)] * n_symbols, length)
    walked = []
    for counts in _compositions(length, n_symbols):
        walk = list(_fixed_content_necklaces(
            counts, least, lambda: math.inf, Work("a walk")))
        assert [neck for neck, _ in walk] == groups[counts]
        for neck, runs in walk:
            rows = [[int(c == s) for c in neck] for s in range(n_symbols)]
            assert runs == _row_runs(np.array(rows, dtype=np.uint8))
        walked += [neck for neck, _ in walk]
    assert sorted(walked) == [neck for neck in fkm_necklaces(n_symbols, length)
                              if len(set(neck)) == n_symbols]


def test_necklace_walk_runs_past_the_recursion_limit():
    # the walk keeps its slots on an explicit stack, so a period longer
    # than Python's recursion limit is walked like any other
    T = sys.getrecursionlimit() + 100
    least = [[[0.0] * (T + 1)] * (T + 1)] * 2  # a table of zeros
    walk = list(_fixed_content_necklaces((T - 1, 1), least,
                                         lambda: math.inf, Work("a walk")))
    assert walk == [((0,) * (T - 1) + (1,), [(1,) * (T - 2) + (2,), (T,)])]


def _vector_bounds(ladders, cands):
    """bound[T][i][k] = least[i][k][T] / T for k = 0 .. T - N + 1, read
    off `_count_bounds`' table: the bound on sensor i's cost over every
    period-T schedule that gives it k slots."""
    least = _count_bounds(ladders, max(cands))
    return {T: [[table[k][T] / T for k in range(T - len(ladders) + 2)]
                for table in least] for T in cands}


def _walked_vectors(asked, n_sensors):
    """The (T, counts) of the necklaces a recording pricer saw, one entry
    per run of consecutive necklaces with the same count vector."""
    necklaces = [asked[j:j + n_sensors]
                 for j in range(0, len(asked), n_sensors)]
    return [key for key, _ in itertools.groupby(
        (sum(neck[0][1]), tuple(len(runs) for _, runs in neck))
        for neck in necklaces)]


def _pruned_walk(ladders, periods, asked):
    """The count vectors the search must walk, in order, given what it
    priced: ascending (bound, T, counts), up to the first whose bound
    exceeds the least total priced before it by a relative 1e-9."""
    N = len(ladders)
    cands = sorted(set(periods))
    bound = _vector_bounds(ladders, cands)
    order = sorted((sum(bound[T][i][k] for i, k in enumerate(counts)),
                    T, counts)
                   for T in cands for counts in _compositions(T, N))
    price = _gap_pricer(ladders)  # not the recording one a test installs
    least = {}  # (T, counts): the least total priced among its necklaces
    for j in range(0, len(asked), N):
        neck = asked[j:j + N]
        key = (sum(neck[0][1]), tuple(len(runs) for _, runs in neck))
        total = sum(price(i, runs) for i, runs in neck)
        least[key] = min(least.get(key, math.inf), total)  # NaN never wins
    incumbent, walked = math.inf, []
    for lb, T, counts in order:
        if lb > incumbent + 1e-9 * abs(incumbent):
            break
        walked.append((T, counts))
        incumbent = min(incumbent, least.get((T, counts), math.inf))
    return walked


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
    # only the count vectors the bound could not rule out are walked
    walked = _walked_vectors(asked, 3)
    assert walked == _pruned_walk(study_ladders, [3, 4, 5], asked)
    assert len(asked) == 3 * sum(_content_size(k) for _, k in walked)


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


@pytest.mark.parametrize("block", [1, 100, 1000])
def test_search_is_the_same_over_many_blocks(block, monkeypatch,
                                             study_systems, study_ladders):
    # the slots one batch holds change how the necklaces are stacked for
    # the gap kernel, never the winner or the bits of its cost
    rng = np.random.default_rng(4)
    systems = [random_unstable_system(rng, name=f"sensor {i}")
               for i in range(4)]
    cases = [(study_systems, [8], study_ladders),
             (systems, [4, 5, 6], [steady_state(s) for s in systems])]
    want = [optimal_schedule_search(*case) for case in cases]
    monkeypatch.setattr(scheduling, "_BLOCK_SLOTS", block)
    for case, (sched, report) in zip(cases, want):
        got = optimal_schedule_search(*case)
        assert got[0] == sched
        assert repr(got[1].per_sensor) == repr(report.per_sensor)


class _OverflowLadder:
    """Finite traces up to a gap, then inf, as a ladder that overflows."""

    def __init__(self, *traces):
        self.traces = traces

    def trace(self, t):
        return self.traces[t] if t < len(self.traces) else math.inf

    def ladder(self, upto):
        return [self.trace(t) for t in range(upto + 1)]


def _no_finite_message(periods):
    return (f"no schedule of periods {periods} gives every sensor a finite "
            f"cost")


@pytest.mark.parametrize("traces", [
    ((1.0,), (1.0,), (1.0,)),
    ((1.0,), (1.0, 2.0), (1.0, 2.0)),
    ((1.0,), (1.0, math.nan), (1.0, math.nan)),
    # the first assignment of every period gives sensor 0 all the slots
    # and prices NaN, which neither search may keep
    ((math.nan,), (1.0,), (1.0,)),
])
def test_search_matches_oracle_when_no_schedule_is_finite(traces,
                                                          study_systems):
    # pricing every schedule finds no finite total, so no schedule
    # minimizes the cost, and the search refuses, naming the periods
    ladders = [_OverflowLadder(*t) for t in traces]
    for periods in ([3], [3, 4, 5]):
        _, want = enumerated_schedule_search(3, periods, ladders)
        assert not math.isfinite(want.total)
        with pytest.raises(InfeasibleError) as err:
            optimal_schedule_search(study_systems, periods, ladders=ladders)
        assert str(err.value) == _no_finite_message(periods)


def test_search_finds_a_finite_winner_after_infinite_necklaces(
        study_systems):
    # runs of up to three slots are finite: at T = 6 only the count vector
    # (2, 2, 2) bounds finite, and its first necklaces in walk order, such
    # as 001122, leave a run of five; at T = 4 every vector bounds at inf
    ladders = [_OverflowLadder(1.0, 2.0, 4.0)] * 3
    first = [[int(c == s) for c in (0, 0, 1, 1, 2, 2)] for s in range(3)]
    assert math.isinf(average_cost(first, ladders).total)
    got = optimal_schedule_search(study_systems, [4, 6], ladders=ladders)
    want = enumerated_schedule_search(3, [4, 6], ladders)
    assert math.isfinite(want[1].total) and want[0].period == 6
    assert got[0] == want[0]
    assert repr(got[1].per_sensor) == repr(want[1].per_sensor)


class _NanLadder:
    def ladder(self, upto):
        return [math.nan] * (upto + 1)


def test_search_where_every_schedule_prices_nan_raises(study_systems):
    # a NaN total never wins, so no schedule is chosen; the error names
    # the candidate periods
    with pytest.raises(InfeasibleError) as err:
        optimal_schedule_search(study_systems[:2], [2],
                                ladders=[_NanLadder(), _NanLadder()])
    assert str(err.value) == _no_finite_message([2])


def test_search_where_every_schedule_prices_nan_raises_under_python_O():
    # the same error with assertions compiled out
    code = ("import math\n"
            "from schedsec.errors import InfeasibleError\n"
            "from schedsec.lti_estimation import bundled_systems\n"
            "from schedsec.scheduling import optimal_schedule_search\n"
            "class NanLadder:\n"
            "    def ladder(self, upto):\n"
            "        return [math.nan] * (upto + 1)\n"
            "try:\n"
            "    optimal_schedule_search(bundled_systems()[:2], [2],\n"
            "                            ladders=[NanLadder(), NanLadder()])\n"
            "except InfeasibleError as exc:\n"
            "    print(exc)\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _no_finite_message([2]) + "\n"


def test_search_walks_no_necklace_when_no_schedule_is_finite(
        monkeypatch, study_systems):
    # only runs of one slot are finite, so every count vector bounds at
    # inf: the search refuses before it walks a vector, enters a walk
    # node or prices a gap pattern
    charges, walks, asked = [], [], []
    real_pricer = scheduling._gap_pricer
    real_necklaces = scheduling._fixed_content_necklaces

    class Recording(Work):
        def charge(self, steps):
            charges.append(steps)
            super().charge(steps)

    def recording_pricer(ladders):
        price = real_pricer(ladders)

        def wrapped(i, runs):
            asked.append((i, runs))
            return price(i, runs)
        return wrapped

    def recording_necklaces(counts, *args):
        walks.append(counts)
        return real_necklaces(counts, *args)

    monkeypatch.setattr(scheduling, "Work", Recording)
    monkeypatch.setattr(scheduling, "_gap_pricer", recording_pricer)
    monkeypatch.setattr(scheduling, "_fixed_content_necklaces",
                        recording_necklaces)
    ladders = [_OverflowLadder(1.0)] * 3
    with pytest.raises(InfeasibleError) as err:
        optimal_schedule_search(study_systems, [3, 4, 5], ladders=ladders)
    assert str(err.value) == _no_finite_message([3, 4, 5])
    assert charges == [1 + 3 + 6 + 3 * math.comb(7, 3)]  # vectors, cells
    assert walks == [] and asked == []


def test_count_bounds_read_nan_and_overflow_as_inf():
    # a NaN trace must never reach a sort key or a comparison
    ladders = [_OverflowLadder(1.0), _OverflowLadder(1.0, 2.0),
               _OverflowLadder(1.0, math.nan)]
    assert not any(math.isnan(v) for table in _count_bounds(ladders, 6)
                   for row in table for v in row)
    bound = _vector_bounds(ladders, [3, 4, 6])
    assert not any(math.isnan(v) for per in bound.values()
                   for row in per for v in row)
    # runs of one slot cost trace(0) = 1 each; any longer run is inf or
    # NaN, except that the second ladder's runs of two cost 1 + 2
    assert bound[4][1] == [math.inf, math.inf, 1.5]
    assert bound[6][1] == [math.inf, math.inf, math.inf, 1.5, 8 / 6]
    assert bound[6][0] == bound[6][2] == [math.inf] * 5
    assert bound[3] == [[math.inf, math.inf]] * 3


@pytest.mark.parametrize("seed", range(3))
def test_count_bounds_are_the_least_composition_cost(seed):
    # each bound is the cheapest way to split the period into that many
    # runs, and no necklace with that many slots costs less
    rng = np.random.default_rng(seed)
    systems = [random_unstable_system(rng, name=f"sensor {i}")
               for i in range(3)]
    ladders = [steady_state(s) for s in systems]
    bound = _vector_bounds(ladders, [3, 5, 7])
    for T in (3, 5, 7):
        for i, lad in enumerate(ladders):
            c = [sum(lad.trace(t) for t in range(r)) for r in range(T + 1)]
            assert len(bound[T][i]) == T - 1
            for k in range(1, T - 1):
                want = min(sum(c[r] for r in runs)
                           for runs in _compositions(T, k)) / T
                assert bound[T][i][k] == pytest.approx(want, rel=1e-12)
        for neck in fkm_necklaces(3, T):
            counts = [neck.count(i) for i in range(3)]
            if all(counts):
                rows = [[int(c == i) for c in neck] for i in range(3)]
                per = average_cost(rows, ladders).per_sensor
                for i, k in enumerate(counts):
                    assert per[i] >= bound[T][i][k] * (1 - 1e-12)


@functools.lru_cache(maxsize=None)
def _five_sensor_instance(seed):
    rng = np.random.default_rng(seed)
    systems = [random_unstable_system(rng, name=f"sensor {i}")
               for i in range(5)]
    return systems, [steady_state(s) for s in systems]


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 12).flatmap(lambda T: st.lists(
    st.lists(st.integers(0, 1), min_size=T, max_size=T),
    min_size=1, max_size=5)), r=st.integers(0, 11))
def test_cost_ignores_rotation_and_time_reversal(rows, r):
    # both keep every row's multiset of cyclic gaps, so every sensor's
    # cost keeps its bits; the search prices one necklace per rotation
    # class on the strength of this
    ladders = _five_sensor_instance(100)[1][:len(rows)]
    want = average_cost(rows, ladders).per_sensor
    r %= len(rows[0])
    rotated = [row[r:] + row[:r] for row in rows]
    assert average_cost(rotated, ladders).per_sensor == want
    assert average_cost([row[::-1] for row in rows], ladders).per_sensor \
        == want


@pytest.mark.parametrize("seed", [100, 101])
def test_search_matches_enumeration_oracle_at_five_sensors(seed):
    systems, ladders = _five_sensor_instance(seed)
    got = optimal_schedule_search(systems, [5, 6], ladders=ladders)
    want = enumerated_schedule_search(5, [5, 6], ladders)
    assert got[0] == want[0]
    assert got[1].per_sensor == want[1].per_sensor


def _every_necklace_search(n_sensors, periods, ladders):
    """Reference search over every FKM necklace of every period, whether
    it serves every sensor or not: each priced with average_cost, keyed
    by its rotation with the smallest row-major flattened 0/1 matrix, and
    the first minimum of (total, key, T) kept; a NaN total never wins."""
    best = None  # (total, flat_key, T, rows, report)
    for T in sorted(set(periods)):
        for cols in fkm_necklaces(n_sensors, T):
            rows = [[int(c == i) for c in cols] for i in range(n_sensors)]
            report = average_cost(rows, ladders)
            if not report.total <= (math.inf if best is None else best[0]):
                continue
            key, rows = min(
                (bytes(v for row in rot for v in row), rot)
                for rot in ([row[r:] + row[:r] for row in rows]
                            for r in range(T)))
            entry = (report.total, key, T)
            if best is None or entry < best[:3]:
                best = (*entry, rows, report)
    return Schedule(period=best[2], rows=best[3]), best[4]


def test_search_matches_every_necklace_walk_at_five_sensors():
    systems, ladders = _five_sensor_instance(7)
    got = optimal_schedule_search(systems, [6, 7, 8], ladders=ladders)
    want = _every_necklace_search(5, [6, 7, 8], ladders)
    assert got[0] == want[0]
    assert got[1].per_sensor == want[1].per_sensor



@pytest.mark.parametrize("entry", SCHEDULE_GOLDENS, ids=[
    f"{e.get('systems', e.get('seed'))}_N{len(e['rows'])}_"
    f"T{'-'.join(map(str, e['periods']))}" for e in SCHEDULE_GOLDENS])
def test_search_goldens(entry, monkeypatch):
    # winners recorded at sizes past the enumeration oracles' reach: the
    # period, the rows and every sensor's cost, bit for bit; they pin the
    # answer, not the budget rule, so the budget is raised out of the way
    monkeypatch.setenv("SCHEDSEC_BUDGET", str(10 ** 12))
    if "systems" in entry:
        systems = load_systems(read_json(
            (DATA / entry["systems"]).read_bytes()))
    else:
        rng = np.random.default_rng(entry["seed"])
        systems = [random_unstable_system(rng, name=f"sensor {i}")
                   for i in range(entry["n_sensors"])]
    ladders = [steady_state(s) for s in systems]
    sched, report = optimal_schedule_search(systems, entry["periods"],
                                            ladders=ladders)
    assert sched.period == entry["T"]
    assert ["".join(map(str, row)) for row in sched.rows] == entry["rows"]
    assert report.per_sensor == tuple(entry["per_sensor"])

@pytest.mark.parametrize("n, periods", [(4, [4, 5, 6, 7]), (5, [7, 8])])
def test_search_prices_no_necklace_of_a_pruned_vector(n, periods,
                                                      monkeypatch):
    rng = np.random.default_rng(n)
    systems = [random_unstable_system(rng, name=f"sensor {i}")
               for i in range(n)]
    ladders = [steady_state(s) for s in systems]
    asked = []
    real = scheduling._gap_pricer

    def recording(ladders):
        price = real(ladders)

        def wrapped(i, runs):
            asked.append((i, runs))
            return price(i, runs)
        return wrapped

    monkeypatch.setattr(scheduling, "_gap_pricer", recording)
    optimal_schedule_search(systems, periods, ladders=ladders)
    walked = _walked_vectors(asked, n)
    entered = _pruned_walk(ladders, periods, asked)
    # vectors in ascending bound, each once, only those the bound could
    # not rule out; a prefix bound may leave one with nothing priced
    assert walked == [v for v in entered if v in walked]
    assert len(set(walked)) == len(walked)
    assert len(asked) <= n * sum(_content_size(k) for _, k in walked)
    assert len(entered) < sum(len(_compositions(T, n)) for T in periods)


@pytest.mark.parametrize("seed", range(3))
def test_prefix_bound_keeps_every_necklace_within_the_cut(seed):
    # a prefix is pruned only when every necklace below it costs more than
    # the cut (with the search's relative 1e-9): the walk keeps each
    # necklace within it, in FKM's order, and prunes some of the rest
    rng = np.random.default_rng(seed)
    ladders = [steady_state(random_unstable_system(rng)) for _ in range(3)]
    least = _count_bounds(ladders, 8)
    pruned = 0
    for counts in _compositions(8, 3):
        every = _necklaces_by_content(3, 8)[counts]
        totals = [average_cost([[int(c == i) for c in neck]
                                for i in range(3)], ladders).total
                  for neck in every]
        cut = sorted(totals)[len(totals) // 2]
        kept = [neck for neck, _ in _fixed_content_necklaces(
            counts, least, lambda: cut * (1 + 1e-9), Work("a walk"))]
        assert kept == [neck for neck in every if neck in kept]
        assert {neck for neck, total in zip(every, totals)
                if total <= cut} <= set(kept)
        pruned += len(every) - len(kept)
    assert pruned
