import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedsec.attack import (blocks_sensor, bnb_optimal_attack,
                             brute_force_optimal_attack, isolate_sensor_attack,
                             random_attack)
from schedsec.errors import BudgetError, InfeasibleError, ValidationError
from schedsec.scheduling import Schedule, ShiftTuple, apply_shift, reception


def test_apply_shift_hand_values():
    assert apply_shift((1, 0, 0), 0) == (1, 0, 0)
    assert apply_shift((1, 0, 0), 1) == (0, 0, 1)
    assert apply_shift((1, 0, 0), 2) == (0, 1, 0)
    assert apply_shift((0, 1, 1, 0), 2) == (1, 0, 0, 1)


@settings(max_examples=200, deadline=None)
@given(row=st.lists(st.integers(0, 1), min_size=1, max_size=10),
       a=st.integers(0, 20), b=st.integers(0, 20))
def test_shift_group_laws(row, a, b):
    T = len(row)
    assert apply_shift(row, 0) == tuple(row)
    assert apply_shift(row, T) == tuple(row)
    assert apply_shift(apply_shift(row, a), b) == apply_shift(row, a + b)


def test_shift_tuple_validation(round_robin):
    t = ShiftTuple(taus=(0, 1, 2))
    t.validate_for(round_robin)
    with pytest.raises(ValidationError):
        ShiftTuple(taus=(0, 1)).validate_for(round_robin)
    with pytest.raises(ValidationError):
        ShiftTuple(taus=(0, 1, 3)).validate_for(round_robin)
    assert ShiftTuple(taus=(0, 2, 1)).spoofed_count == 2


def test_shift_tuple_roundtrip():
    t = ShiftTuple(taus=(0, 0, 2))
    assert ShiftTuple.from_dict(json.loads(json.dumps(t.to_dict()))) == t


def test_attacked_reception_reference_tuple(round_robin):
    rec = reception(round_robin, ShiftTuple(taus=(0, 0, 2)))
    assert rec[0] == [0, 0, 1]     # sensor 0 still gets its slot
    assert rec[1] == [0, 0, 0]     # sensors 1 and 2 collide at slot 1
    assert rec[2] == [0, 0, 0]
    assert not blocks_sensor(round_robin, ShiftTuple(taus=(0, 0, 2)), 0)
    assert blocks_sensor(round_robin, ShiftTuple(taus=(0, 0, 2)), 1)
    assert blocks_sensor(round_robin, ShiftTuple(taus=(0, 0, 2)), 2)


def test_zero_attack_is_identity(round_robin):
    rec = reception(round_robin, ShiftTuple(taus=(0, 0, 0)))
    assert rec == [list(r) for r in round_robin.rows]


def test_random_attack_deterministic(round_robin):
    a = random_attack(3, 3, seed=42)
    b = random_attack(3, 3, seed=42)
    assert a == b
    a.validate_for(round_robin)


def test_isolate_each_study_sensor(round_robin):
    for target in range(3):
        attack = isolate_sensor_attack(round_robin, target)
        assert attack.taus[target] == 0
        assert blocks_sensor(round_robin, attack, target)


def test_isolate_infeasible_single_sensor():
    # a lone sensor owns every slot; nobody can collide with it
    sched = Schedule(period=3, rows=((1, 1, 1),))
    with pytest.raises(InfeasibleError):
        isolate_sensor_attack(sched, 0)


def test_isolate_shift_one_construction():
    # duty <= 1/2 and spread ones: shifting everyone else by one slot
    # must land a collision on each of the target's slots
    sched = Schedule(period=4, rows=((1, 0, 1, 0), (0, 1, 0, 0),
                                     (0, 0, 0, 1)))
    attack = isolate_sensor_attack(sched, 0)
    assert blocks_sensor(sched, attack, 0)


def test_isolate_fallback_spoofs_fewest_clocks():
    # where the one-slot collective shift fails, isolate keeps the target
    # honest and spoofs exactly as many clocks as the optimal search needs
    from conftest import random_exclusive_schedule
    rng = np.random.default_rng(31)
    fallbacks = 0
    for _ in range(60):
        sched = random_exclusive_schedule(rng, int(rng.integers(2, 6)),
                                          int(rng.integers(2, 9)))
        costs = bnb_optimal_attack(sched).per_target_costs
        for target in range(sched.n_sensors):
            shift_one = ShiftTuple(tuple(0 if j == target else 1
                                         for j in range(sched.n_sensors)))
            if blocks_sensor(sched, shift_one, target):
                continue
            fallbacks += 1
            if costs[target] is None:
                with pytest.raises(InfeasibleError):
                    isolate_sensor_attack(sched, target)
                continue
            attack = isolate_sensor_attack(sched, target)
            assert attack.taus[target] == 0
            assert blocks_sensor(sched, attack, target)
            assert attack.spoofed_count == costs[target]
    assert fallbacks >= 20


def test_bnb_study_instance(round_robin):
    result = bnb_optimal_attack(round_robin)
    assert result.blocking
    assert result.spoofed_count == 1
    assert result.per_target_costs == (1, 1, 1)
    assert result.nodes_explored >= 3
    assert result.blocked_sensors
    # reported tuple actually starves what it claims to starve
    rec = reception(round_robin, result.taus)
    for i in result.blocked_sensors:
        assert not any(rec[i])


def test_brute_force_study_instance(round_robin):
    result = brute_force_optimal_attack(round_robin)
    assert result.blocking
    assert result.spoofed_count == 1
    # lexicographic scan finds (0, 0, 1) first among the cost-1 tuples
    assert result.taus == ShiftTuple(taus=(0, 0, 1))


def test_reference_tuple_is_feasible_cost_one(round_robin):
    t = ShiftTuple(taus=(0, 0, 2))
    assert t.spoofed_count == 1
    assert blocks_sensor(round_robin, t, 1)


def test_bnb_matches_brute_force_on_random_schedules():
    from conftest import random_exclusive_schedule
    rng = np.random.default_rng(20240819)
    for _ in range(40):
        N = int(rng.integers(2, 5))
        T = int(rng.integers(2, 7))
        sched = random_exclusive_schedule(rng, N, T)
        b = brute_force_optimal_attack(sched)
        a = bnb_optimal_attack(sched)
        assert a.blocking == b.blocking
        if a.blocking:
            assert a.spoofed_count == b.spoofed_count
            rec = reception(sched, a.taus)
            assert any(not any(r) for r in rec)


def test_restricted_equals_unrestricted_brute_force():
    from conftest import random_exclusive_schedule, unrestricted_min_spoof
    rng = np.random.default_rng(5)
    for _ in range(30):
        N = int(rng.integers(2, 4))
        T = int(rng.integers(2, 6))
        sched = random_exclusive_schedule(rng, N, T)
        r = brute_force_optimal_attack(sched)
        u = unrestricted_min_spoof(sched)
        assert r.blocking == (u is not None)
        if r.blocking:
            assert r.spoofed_count == u


def test_brute_force_budget(monkeypatch):
    sched = Schedule(period=6, rows=tuple(
        tuple(1 if k == i else 0 for k in range(6)) for i in range(6)))
    monkeypatch.setenv("SCHEDSEC_BUDGET", "10")
    with pytest.raises(BudgetError):
        brute_force_optimal_attack(sched)


def test_single_sensor_cannot_be_blocked():
    sched = Schedule(period=3, rows=((1, 1, 1),))
    b = brute_force_optimal_attack(sched)
    a = bnb_optimal_attack(sched)
    assert not b.blocking and not a.blocking
    assert a.taus is None and a.spoofed_count is None
    assert a.per_target_costs == (None,)


def test_attack_search_requires_exclusive():
    sched = Schedule(period=2, rows=((1, 1), (0, 1)))
    with pytest.raises(ValidationError):
        bnb_optimal_attack(sched)
    with pytest.raises(ValidationError):
        isolate_sensor_attack(sched, 0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_decoded_bnb_attack_verifies(seed):
    from conftest import random_exclusive_schedule
    rng = np.random.default_rng(seed)
    sched = random_exclusive_schedule(rng, int(rng.integers(2, 4)),
                                      int(rng.integers(2, 6)))
    result = bnb_optimal_attack(sched)
    if result.blocking:
        rec = reception(sched, result.taus)
        assert set(result.blocked_sensors) == {
            i for i in range(sched.n_sensors) if not any(rec[i])}
        assert result.taus.spoofed_count == result.spoofed_count
