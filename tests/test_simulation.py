import math

import numpy as np
import pytest

from conftest import (random_exclusive_schedule, state_trajectory_sim,
                      stepped_covariance_series)
from schedsec import simulation
from schedsec.cli import _series_csv, _summary_doc
from schedsec.errors import StabilityWarning, ValidationError
from schedsec.lti_estimation import LinearSystem, lyapunov_step, steady_state
from schedsec.protocol_sequences import (construct_shift_invariant,
                                         shortest_period_policies)
from schedsec.scheduling import (Schedule, ShiftTuple, average_cost,
                                 reception)
from schedsec.simulation import (OVERFLOW_TRACE, exact_covariance_series,
                                 monte_carlo_expected_cost)


def test_sim_config_validation(study_systems, study_ladders, round_robin):
    # the simulators' own knobs: a series needs a horizon, Monte Carlo a trial
    for horizon in (0, -1):
        with pytest.raises(ValidationError, match="horizon must be >= 1"):
            exact_covariance_series(study_systems, round_robin,
                                    horizon=horizon, ladders=study_ladders)
    with pytest.raises(ValidationError, match="trials must be >= 1"):
        monte_carlo_expected_cost(study_systems, round_robin, trials=0, seed=0,
                                  ladders=study_ladders)
    one = exact_covariance_series(study_systems, round_robin, horizon=1,
                                  ladders=study_ladders)
    assert one.traces.shape == (3, 1) and one.periodic_average() is None


def test_series_matches_histogram_cost(study_systems, study_ladders,
                                       round_robin):
    series = exact_covariance_series(study_systems, round_robin, horizon=30,
                                     ladders=study_ladders)
    pa = series.periodic_average()
    ref = average_cost(reception(round_robin), study_ladders)
    assert pa.total == pytest.approx(ref.total, abs=1e-9)


def test_series_matches_histogram_on_random_schedules(study_systems,
                                                      study_ladders):
    from conftest import random_exclusive_schedule
    rng = np.random.default_rng(20240820)
    for _ in range(20):
        T = int(rng.integers(3, 7))
        sched = random_exclusive_schedule(rng, 3, T, full_coverage=True)
        series = exact_covariance_series(study_systems, sched, horizon=4 * T,
                                         ladders=study_ladders)
        ref = average_cost(reception(sched), study_ladders)
        assert series.periodic_average().total == pytest.approx(
            ref.total, abs=1e-9)


def test_divergence_under_reference_attack(study_systems, study_ladders,
                                       round_robin):
    series = exact_covariance_series(study_systems, round_robin,
                                     attack=ShiftTuple(taus=(0, 0, 2)),
                                     horizon=600, ladders=study_ladders)
    assert series.divergent == (False, True, True)
    # sensor 0 settles into an exactly periodic pattern
    t0 = series.traces[0]
    assert np.array_equal(t0[3:60], t0[0:57])
    # starved sensors blow up relative to their steady values
    for i in (1, 2):
        assert series.traces[i, -1] > 1e6 * study_ladders[i].trace(0)
    pa = series.periodic_average()
    assert not math.isinf(pa.per_sensor[0])
    assert math.isinf(pa.per_sensor[1]) and math.isinf(pa.per_sensor[2])


def test_overflow_freezes_series(study_systems, study_ladders, round_robin):
    series = exact_covariance_series(study_systems, round_robin,
                                     attack=ShiftTuple(taus=(0, 0, 2)),
                                     horizon=900, ladders=study_ladders)
    k2 = series.overflow_at[2]
    assert k2 is not None
    assert series.traces[2, k2] > OVERFLOW_TRACE
    assert np.all(series.traces[2, k2:] == series.traces[2, k2])
    assert series.overflow_at[0] is None


def assert_series_is_stepped(systems, sched, attack, horizon, ladders):
    series = exact_covariance_series(systems, sched, attack=attack,
                                     horizon=horizon, ladders=ladders)
    traces, running, overflow_at = stepped_covariance_series(
        systems, sched, attack, horizon, ladders)
    assert series.traces.tobytes() == traces.tobytes()
    assert series.running_means.tobytes() == running.tobytes()
    assert series.overflow_at == overflow_at
    return series


def scalar_system(a, name="scalar"):
    return LinearSystem(A=[[a]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], Pi=[[1.0]],
                        name=name)


def test_periodic_series_starved_sensor_overflows(study_systems,
                                                  study_ladders, round_robin):
    series = assert_series_is_stepped(study_systems, round_robin,
                                      ShiftTuple(taus=(0, 0, 2)), 900,
                                      study_ladders)
    assert series.overflow_at[2] is not None
    assert series.divergent == (False, True, True)


def test_periodic_series_overflow_before_first_reception():
    # A = 1000 passes 1e12 at the third prediction step (slot 2), before the
    # sensor's first reception at slot 3; the trace stays frozen after it
    systems = [scalar_system(1e3)]
    sched = Schedule(period=5, rows=((0, 0, 0, 1, 0),))
    ladders = [steady_state(s) for s in systems]
    series = assert_series_is_stepped(systems, sched, None, 20, ladders)
    assert series.overflow_at == (2,)
    assert np.all(series.traces[0, 2:] == series.traces[0, 2])
    assert series.divergent == (False,)


def test_periodic_series_overflow_inside_the_period_after_first_reception():
    # sensor 0 receives at slot 1 of a period of 8; its trace passes 1e12 at
    # gap 3, so at slot 4, after that reception and inside the period
    systems = [scalar_system(1e3), scalar_system(1.5, "mild")]
    sched = Schedule(period=8, rows=((0, 1, 0, 0, 0, 0, 0, 0),
                                     (1, 0, 1, 0, 1, 0, 1, 0)))
    ladders = [steady_state(s) for s in systems]
    series = assert_series_is_stepped(systems, sched, None, 30, ladders)
    assert series.overflow_at == (4, None)
    assert np.all(series.traces[0, 4:] == series.traces[0, 4])


def test_periodic_series_overflow_from_the_steady_state_on():
    # R = 1e14 puts Tr P_bar at 7.5e13, past OVERFLOW_TRACE at gap 0, but
    # slot 0 (gap 1, before the first reception at slot 2) overflows first
    systems = [LinearSystem(A=[[2.0]], C=[[1.0]], Q=[[1.0]], R=[[1e14]],
                            Pi=[[1.0]])]
    sched = Schedule(period=4, rows=((0, 0, 1, 0),))
    ladders = [steady_state(s) for s in systems]
    assert ladders[0].trace(0) > OVERFLOW_TRACE
    series = assert_series_is_stepped(systems, sched, None, 10, ladders)
    assert series.overflow_at == (0,)


def test_series_same_whether_pricing_extended_the_ladders(study_systems):
    sched = Schedule(period=7, rows=((1, 0, 0, 0, 0, 0, 0),
                                     (0, 0, 1, 1, 0, 0, 0),
                                     (0, 0, 0, 0, 0, 1, 0)))
    attack = ShiftTuple((0, 3, 1))
    ladders = [steady_state(s) for s in study_systems]
    fresh = assert_series_is_stepped(study_systems, sched, attack, 40,
                                     ladders)
    # pricing a sparse pattern extends the same ladders past every gap the
    # series reads
    average_cost([[1] + [0] * 59] * 3, ladders)
    extended = assert_series_is_stepped(study_systems, sched, attack, 40,
                                        ladders)
    assert extended.traces.tobytes() == fresh.traces.tobytes()
    assert extended.running_means.tobytes() == fresh.running_means.tobytes()


def test_periodic_series_stable_sensor_that_never_receives():
    with pytest.warns(StabilityWarning):
        systems = [scalar_system(0.5, "stable"), scalar_system(1.2)]
    sched = Schedule(period=4, rows=((0, 0, 0, 0), (0, 1, 1, 0)))
    ladders = [steady_state(s) for s in systems]
    series = assert_series_is_stepped(systems, sched, None, 50, ladders)
    assert series.divergent == (True, False)
    assert series.overflow_at == (None, None)


@pytest.mark.parametrize("horizon", [1, 2, 5, 8])
def test_periodic_series_horizon_shorter_than_a_period_past_first(
        horizon, study_systems, study_ladders):
    # first receptions at slots 4, 1 and 2 of a period of 6
    sched = Schedule(period=6, rows=((0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1),
                                     (1, 0, 1, 0, 0, 0)))
    assert_series_is_stepped(study_systems, sched, None, horizon,
                             study_ladders)
    assert_series_is_stepped(study_systems, sched, ShiftTuple((1, 0, 3)),
                             horizon, study_ladders)


def test_periodic_series_matches_stepping_on_random_schedules(
        study_systems, study_ladders):
    rng = np.random.default_rng(20261018)
    for _ in range(30):
        T = int(rng.integers(1, 8))
        sched = random_exclusive_schedule(rng, 3, T)
        attack = ShiftTuple(tuple(int(t) for t in rng.integers(0, T, size=3)))
        horizon = int(rng.integers(1, 5 * T + 10))
        assert_series_is_stepped(study_systems, sched, attack, horizon,
                                 study_ladders)


def test_periodic_average_requires_two_periods(study_systems, study_ladders,
                                               round_robin):
    series = exact_covariance_series(study_systems, round_robin, horizon=5,
                                     ladders=study_ladders)
    assert series.periodic_average() is None


def test_series_csv_shape_and_values(study_systems, study_ladders,
                                     round_robin):
    series = exact_covariance_series(study_systems, round_robin, horizon=4,
                                     ladders=study_ladders)
    text = _series_csv(series)
    assert "\r" not in text and text.endswith("\n")
    lines = text.strip().splitlines()
    assert lines[0] == "k,sensor,trace,running_mean,divergent_flag"
    assert len(lines) == 1 + 4 * 3
    k, sensor, trace, running, flag = lines[1].split(",")
    assert (k, sensor, flag) == ("0", "0", "0")
    assert float(trace) == pytest.approx(series.traces[0, 0], rel=1e-15)
    # repr round-trips exactly
    assert float(lines[5].split(",")[2]) == series.traces[1, 1]


def test_summary_document(study_systems, study_ladders, round_robin):
    series = exact_covariance_series(study_systems, round_robin, horizon=12,
                                     ladders=study_ladders)
    doc = _summary_doc(series)
    assert doc["period"] == 3 and doc["horizon"] == 12
    assert len(doc["sensors"]) == 3
    assert doc["periodic_average"]["total"] == pytest.approx(
        2.0250433575300404, rel=1e-6)


def test_mc_deterministic_and_ordered(study_systems, study_ladders):
    sd = construct_shift_invariant([(1, 3)] * 3)
    sp = shortest_period_policies(3)
    a = monte_carlo_expected_cost(study_systems, sd, trials=120, seed=11,
                                  ladders=study_ladders)
    b = monte_carlo_expected_cost(study_systems, sd, trials=120, seed=11,
                                  ladders=study_ladders)
    assert a.samples == b.samples
    assert len(a.samples) == 120
    c = monte_carlo_expected_cost(study_systems, sp, trials=120, seed=11,
                                  ladders=study_ladders)
    assert c.std < 1e-12           # invariant cost has zero spread
    assert a.mean - a.halfwidth > c.mean + c.halfwidth


def test_mc_fixed_attack_model(study_systems, study_ladders):
    sd = construct_shift_invariant([(1, 3)] * 3)
    attack = ShiftTuple(taus=(0, 5, 11))
    mc = monte_carlo_expected_cost(study_systems, sd, trials=10, seed=3,
                                   attack=attack, ladders=study_ladders)
    assert mc.std == pytest.approx(0.0, abs=1e-12)
    ref = average_cost(reception(sd, attack),
                       study_ladders)
    assert mc.mean == pytest.approx(ref.total, rel=1e-12)


def test_mc_randomized_interleaving(study_systems, study_ladders,
                                    round_robin):
    sd = construct_shift_invariant([(1, 3)] * 3)
    mc = monte_carlo_expected_cost(study_systems, sd, trials=60, seed=13,
                                   randomize_interleaving=True,
                                   ladders=study_ladders)
    assert mc.n_divergent == 0
    assert 3.0 < mc.mean < 6.0
    # the round robin's duty factors 1/3 need a period of 27, not 3: no
    # construction gives its rows, so there is nothing to rebuild
    with pytest.raises(ValidationError, match="multiple"):
        monte_carlo_expected_cost(study_systems, round_robin, trials=60,
                                  seed=13, randomize_interleaving=True,
                                  ladders=study_ladders)


def child_rngs(seed, trials):
    return [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(trials)]


def drawn_interleaving(factors, rng):
    """The interleaving vectors monte_carlo_expected_cost draws for one
    trial, in its order: factor by factor, one vector per earlier residue."""
    interleavings = []
    D_prev = 1
    for f in factors:
        vecs = []
        for _ in range(D_prev):
            vec = [0] * f.denominator
            for pos in rng.choice(f.denominator, size=f.numerator,
                                  replace=False):
                vec[int(pos)] = 1
            vecs.append(vec)
        interleavings.append(vecs)
        D_prev *= f.denominator
    return construct_shift_invariant(factors, interleavings=interleavings,
                                     verify=False)


@pytest.mark.parametrize("block", [None, 1, 100])
def test_mc_samples_are_per_trial_average_costs(block, monkeypatch,
                                                study_systems, study_ladders,
                                                round_robin):
    # block: the slots one gathered batch may hold (None keeps the default);
    # 1 gathers trial by trial
    if block is not None:
        monkeypatch.setattr(simulation, "_MC_BLOCK_SLOTS", block)
    sd = construct_shift_invariant([(1, 3)] * 3)
    for sched in (sd, round_robin):  # the round robin starves some trials
        mc = monte_carlo_expected_cost(study_systems, sched, trials=50,
                                       seed=7, ladders=study_ladders)
        want = tuple(average_cost(reception(sched, ShiftTuple(
            rng.integers(0, sched.period, size=3))), study_ladders).total
            for rng in child_rngs(7, 50))
        assert mc.samples == want
    assert mc.n_divergent > 0
    fixed = ShiftTuple((0, 5, 11))
    mc = monte_carlo_expected_cost(study_systems, sd, trials=9, seed=3,
                                   attack=fixed, ladders=study_ladders)
    assert mc.samples == (average_cost(reception(sd, fixed),
                                       study_ladders).total,) * 9


@pytest.mark.parametrize("repeats", [1, 2])
def test_mc_randomized_interleaving_samples(repeats, study_systems,
                                            study_ladders):
    # a policy set may repeat its shortest period; the rebuilt sets do not
    sd = construct_shift_invariant([(1, 3), (1, 2), (1, 3)])
    ps = Schedule(period=repeats * sd.period,
                  rows=tuple(row * repeats for row in sd.rows))
    mc = monte_carlo_expected_cost(study_systems, ps, trials=40, seed=13,
                                   randomize_interleaving=True,
                                   ladders=study_ladders)
    want = []
    for rng in child_rngs(13, 40):
        sched = drawn_interleaving(ps.duty_factors(), rng)
        taus = ShiftTuple(rng.integers(0, sched.period, size=3))
        want.append(average_cost(reception(sched, taus), study_ladders).total)
    assert mc.samples == tuple(want)


def test_mc_divergent_trials_reported(study_systems, study_ladders,
                                      round_robin):
    # exclusive schedules are attackable outright, so uniform attacks will
    # starve sensors in some trials and the aggregate must go infinite
    mc = monte_carlo_expected_cost(study_systems, round_robin, trials=40,
                                   seed=0, ladders=study_ladders)
    assert mc.n_divergent > 0
    assert math.isinf(mc.mean)


def test_trajectory_bit_reproducible(study_systems, study_ladders,
                                     round_robin):
    a = state_trajectory_sim(study_systems, round_robin, None, horizon=12,
                             trials=8, seed=5, ladders=study_ladders)
    b = state_trajectory_sim(study_systems, round_robin, None, horizon=12,
                             trials=8, seed=5, ladders=study_ladders)
    for i in range(3):
        assert np.array_equal(a.states[i], b.states[i])
        assert np.array_equal(a.remote_estimates[i], b.remote_estimates[i])


def test_trajectory_empirical_covariance(study_systems, study_ladders,
                                         round_robin):
    batch = state_trajectory_sim(study_systems, round_robin, None, horizon=9,
                                 trials=150_000, seed=7, ladders=study_ladders)
    for i in range(3):
        rec = batch.receptions[i]
        for k in (0, 2, 5, 8):
            last = -1
            for j in range(k + 1):
                if rec[j % 3]:
                    last = j
            gap = k - last
            expect = study_ladders[i].P_bar.copy()
            for _ in range(gap):
                expect = lyapunov_step(study_systems[i], expect)
            emp = batch.empirical_remote_covariance(i, k)
            rel = np.linalg.norm(emp - expect) / np.linalg.norm(expect)
            assert rel < 0.02, (i, k, rel)


def test_trajectory_local_error_is_stationary(study_systems, study_ladders):
    sched = Schedule(period=2, rows=((1, 0), (0, 1)))
    trials = 120_000
    batch = state_trajectory_sim(study_systems[:2], sched, None, horizon=6,
                                 trials=trials, seed=9,
                                 ladders=study_ladders[:2])
    for i in range(2):
        err = batch.states[i] - batch.local_estimates[i]
        for k in (0, 3, 5):
            emp = err[:, k, :].T @ err[:, k, :] / trials
            rel = (np.linalg.norm(emp - study_ladders[i].P_bar)
                   / np.linalg.norm(study_ladders[i].P_bar))
            assert rel < 0.02, (i, k, rel)


def test_trajectory_measurement_consistency(study_systems, study_ladders,
                                            round_robin):
    batch = state_trajectory_sim(study_systems, round_robin, None, horizon=5,
                                 trials=4, seed=1, ladders=study_ladders)
    # measurements live in the sensor's output space and differ from Cx by
    # the measurement noise, which has unit variance here
    for i in range(3):
        y = batch.measurements[i]
        Cx = batch.states[i] @ study_systems[i].C.T
        assert y.shape == (4, 5, 1)
        assert not np.allclose(y, Cx)
