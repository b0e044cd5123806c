import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schedsec import attack
from schedsec.attack import (blocks_sensor, bnb_optimal_attack,
                             brute_force_optimal_attack, isolate_sensor_attack,
                             random_attack)
from schedsec.errors import BudgetError, InfeasibleError, ValidationError
from schedsec.scheduling import Schedule, ShiftTuple, apply_shift, reception

DATA = Path(__file__).parent / "data"
ATTACK_PATHS = json.loads((DATA / "attack_paths.json").read_text())["schedules"]


def golden_schedule(entry) -> Schedule:
    rows = tuple(tuple(int(v) for v in row) for row in entry["rows"])
    return Schedule(period=len(rows[0]), rows=rows)


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


def test_shifts_must_be_integers():
    # Python and NumPy integers pass and are stored as int; a float, a
    # string or a bool is refused, not truncated
    taus = ShiftTuple(np.array([2, 0, 1])).taus
    assert taus == (2, 0, 1) and all(type(t) is int for t in taus)
    assert ShiftTuple((np.int32(1), np.uint8(0))).taus == (1, 0)
    assert apply_shift((1, 0, 0), np.int64(1)) == (0, 0, 1)
    for bad in ((1.5, 0), ("2", True), (0, np.float64(1.0)),
                (np.bool_(True), 0), (None, 0)):
        with pytest.raises(ValidationError, match="must be an integer"):
            ShiftTuple(bad)
    for bad in (1.9, 1.0, "1", True, None):
        with pytest.raises(ValidationError, match="must be an integer"):
            apply_shift((1, 0, 0), bad)


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


def test_random_attack_seed_is_strict():
    # a seed is a nonnegative integer: a bool is no longer taken as 1, and
    # a float or a negative number is refused with ValidationError
    for bad in (-1, 1.5, True):
        with pytest.raises(ValidationError, match="seed"):
            random_attack(3, 3, seed=bad)
    assert random_attack(5, 4, seed=np.int64(7)) == random_attack(5, 4, seed=7)


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
    # must land a collision on each of the target's slots, so isolate needs
    # at most those two spoofed clocks
    sched = Schedule(period=4, rows=((1, 0, 1, 0), (0, 1, 0, 0),
                                     (0, 0, 0, 1)))
    assert blocks_sensor(sched, ShiftTuple((0, 1, 1)), 0)
    attack = isolate_sensor_attack(sched, 0)
    assert blocks_sensor(sched, attack, 0)
    assert attack.taus[0] == 0 and attack.spoofed_count <= 2


def test_isolate_fallback_spoofs_fewest_clocks():
    # isolate keeps the target honest and spoofs exactly as many clocks as
    # the optimal search needs, also where the one-slot collective shift
    # fails
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


@st.composite
def exclusive_schedules(draw, max_sensors, max_period):
    """An exclusive schedule of 1..max_sensors rows over 1..max_period
    slots, one transmitter per slot; a row may hold no slot."""
    n = draw(st.integers(1, max_sensors))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=1,
                         max_size=max_period))
    return Schedule(period=len(cols),
                    rows=tuple(tuple(int(c == i) for c in cols)
                               for i in range(n)))


@settings(max_examples=80, deadline=None)
@given(sched=exclusive_schedules(4, 6))
def test_per_target_costs_match_brute_force(sched):
    # every target's optimum, not only the cheapest one: a prune that cut
    # a target's optimal branch would raise that target's cost alone
    from conftest import per_target_min_spoof
    N, T = sched.n_sensors, sched.period
    want = [per_target_min_spoof(sched, target) for target in range(N)]
    assert list(bnb_optimal_attack(sched).per_target_costs) == want
    for target in range(N):
        primary = ShiftTuple(tuple(0 if j == target or T == 1 else 1
                                   for j in range(N)))
        if blocks_sensor(sched, primary, target):
            continue
        if want[target] is None:
            with pytest.raises(InfeasibleError):
                isolate_sensor_attack(sched, target)
            continue
        attack = isolate_sensor_attack(sched, target)
        assert attack.taus[target] == 0
        assert blocks_sensor(sched, attack, target)
        assert attack.spoofed_count == want[target]


def _attack_costs(sched):
    result = bnb_optimal_attack(sched)
    return result.per_target_costs, result.spoofed_count


@settings(max_examples=60, deadline=None)
@given(sched=exclusive_schedules(5, 8), shift=st.integers(0, 7))
def test_attack_costs_ignore_a_common_clock_shift(sched, shift):
    # every row rotated by one shift is the same schedule started later
    rotated = Schedule(period=sched.period,
                       rows=np.roll(sched.array, -shift, axis=1))
    assert _attack_costs(rotated) == _attack_costs(sched)


@settings(max_examples=60, deadline=None)
@given(sched=exclusive_schedules(5, 8), data=st.data())
def test_attack_costs_follow_a_sensor_permutation(sched, data):
    perm = data.draw(st.permutations(range(sched.n_sensors)))
    costs, spoofed = _attack_costs(sched)
    permuted = Schedule(period=sched.period, rows=sched.array[list(perm)])
    assert _attack_costs(permuted) == (tuple(costs[i] for i in perm), spoofed)


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


def test_brute_force_budget_is_compared_before_the_power(monkeypatch):
    # 3^3 tuples fit a budget of 27 and not of 26; 2^4000 tuples are
    # refused without being counted or printed
    sched = Schedule(period=3, rows=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    monkeypatch.setenv("SCHEDSEC_BUDGET", "27")
    brute_force_optimal_attack(sched)
    monkeypatch.setenv("SCHEDSEC_BUDGET", "26")
    with pytest.raises(BudgetError):
        brute_force_optimal_attack(sched)
    monkeypatch.delenv("SCHEDSEC_BUDGET")
    with pytest.raises(BudgetError) as exc:
        brute_force_optimal_attack(Schedule(period=2, rows=((1, 0),) * 4000))
    assert len(str(exc.value)) < 200


def test_attack_search_charges_each_lp_its_tableau(monkeypatch):
    # each target's root is charged its (T + N - 1) x ((N - 1)(T - 1) +
    # T + N - 1) dense tableau up front, each node the target's transmit
    # slots times the (N - 1)(T - 1) columns its cover test reads, and
    # each later LP its tableau before it is solved, all targets against
    # one budget: exactly that much passes with the unbudgeted result
    sched = golden_schedule(ATTACK_PATHS[0])
    N, T = sched.n_sensors, sched.period
    K = (N - 1) * (T - 1)
    tableau = (T + N - 1) * (K + T + N - 1)
    want = bnb_optimal_attack(sched)
    lps, charge = [], []
    real_lp, real_block = attack.solve_bounded_lp, attack._cheapest_block

    def counting_lp(*args, **kwargs):
        lps.append(1)
        return real_lp(*args, **kwargs)

    def counting_block(sched, target, work):
        before = len(lps)
        cost, taus, nodes = real_block(sched, target, work)
        charge.append(max(len(lps) - before, 1) * tableau
                      + nodes * int(sched.array[target].sum()) * K)
        return cost, taus, nodes

    monkeypatch.setattr(attack, "solve_bounded_lp", counting_lp)
    monkeypatch.setattr(attack, "_cheapest_block", counting_block)
    assert bnb_optimal_attack(sched) == want
    # a node its cover bound prunes solves no LP
    assert len(lps) < want.nodes_explored
    used = sum(charge)
    monkeypatch.setenv("SCHEDSEC_BUDGET", str(used))
    assert bnb_optimal_attack(sched) == want
    monkeypatch.setenv("SCHEDSEC_BUDGET", str(used - 1))
    with pytest.raises(BudgetError, match=f"the attack search over {N} "
                       f"sensors of period {T}"):
        bnb_optimal_attack(sched)


def test_attack_search_on_forty_slots_fits_the_default_budget(monkeypatch):
    # twelve sensors over 40 slots, 572 nodes: a node its cover bound
    # prunes solves no LP and is charged only its cover test, so the
    # search fits the default budget
    from conftest import random_exclusive_schedule
    monkeypatch.delenv("SCHEDSEC_BUDGET", raising=False)
    sched = random_exclusive_schedule(np.random.default_rng(0), 12, 40,
                                      full_coverage=True)
    result = bnb_optimal_attack(sched)
    assert result.nodes_explored == 572
    assert result.per_target_costs == (2, 1, 1, 1, 1, 2, 3, 2, 2, 2, 2, 2)
    assert result.taus == ShiftTuple((2,) + (0,) * 11)


def test_attack_search_refuses_a_large_root_before_building_it(monkeypatch):
    # the round robin of 10 sensors over 1,024 slots has a root tableau of
    # 1,033 x 10,240 entries, past the default budget: refused before the
    # shifted rows, the constraint matrix or the LP are built
    def refuse(*args, **kwargs):
        raise AssertionError("built the search past the budget")

    monkeypatch.delenv("SCHEDSEC_BUDGET", raising=False)
    monkeypatch.setattr("schedsec.attack._shifted", refuse)
    monkeypatch.setattr("schedsec.attack.solve_bounded_lp", refuse)
    sched = Schedule(period=1024, rows=tuple(
        tuple(int(k % 10 == i) for k in range(1024)) for i in range(10)))
    with pytest.raises(BudgetError):
        bnb_optimal_attack(sched)


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


@pytest.mark.parametrize(
    "entry", ATTACK_PATHS,
    ids=[f"N{len(e['rows'])}_T{len(e['rows'][0])}" for e in ATTACK_PATHS])
def test_search_path_goldens(entry):
    # the branch-and-bound's whole path is pinned, not only its optimum:
    # the node count moves with any change to the LP pivots or the
    # branching, and the returned tuple with the tie-breaks
    result = bnb_optimal_attack(golden_schedule(entry))
    assert list(result.per_target_costs) == entry["per_target_costs"]
    assert list(result.taus.taus) == entry["taus"]
    assert result.nodes_explored == entry["nodes_explored"]


def test_attack_optimal_cli_on_the_ten_sensor_schedule(tmp_path):
    # the schedule file the CI's rerun step feeds to `attack optimal` is
    # the N = 10, T = 20 golden, and the CLI reports that golden's path
    from schedsec.cli import main
    path = DATA / "ten_sensor_schedule.json"
    doc = json.loads(path.read_text())
    entry, = [e for e in ATTACK_PATHS
              if [[int(v) for v in row] for row in e["rows"]] == doc["rows"]]
    assert main(["attack", "optimal", "--schedule", str(path),
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "attack_report.json").read_text())
    assert report["per_target_costs"] == entry["per_target_costs"]
    assert report["taus"] == entry["taus"]
    assert report["nodes_explored"] == entry["nodes_explored"]
