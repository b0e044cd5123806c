import itertools
import math

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (child_rngs, random_exclusive_schedule,
                      series_csv_reference, state_trajectory_sim,
                      stepped_covariance_series, symmetric_system)
from schedsec import lti_estimation, scheduling, simulation
from schedsec.cli import _series_csv, _summary_doc
from schedsec.errors import BudgetError, StabilityWarning, ValidationError
from schedsec.lti_estimation import LinearSystem, lyapunov_step, steady_state
from schedsec.protocol_sequences import (construct_shift_invariant,
                                         shortest_period_policies)
from schedsec.scheduling import (Schedule, ShiftTuple, average_cost,
                                 reception)
from schedsec.simulation import (CovarianceSeries,
                                 _trial_shifts, exact_covariance_series,
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


def test_overflow_saturates_series(study_systems, study_ladders, round_robin):
    # starved sensor 2 reads ladder entry k + 1 at slot k, finite up to the
    # ladder's saturation (slot 11,974) and +inf from there on
    series = exact_covariance_series(study_systems, round_robin,
                                     attack=ShiftTuple(taus=(0, 0, 2)),
                                     horizon=12_000, ladders=study_ladders)
    k2 = series.overflow_at[2]
    assert k2 is not None
    assert np.isfinite(series.traces[2, :k2]).all()
    assert np.all(series.traces[2, k2:] == math.inf)
    assert series.traces[2, k2 - 1] == study_ladders[2].trace(k2)
    assert series.running_means[2, -1] == math.inf
    assert series.overflow_at[0] is None
    assert np.isfinite(series.traces[0]).all()


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
                                      ShiftTuple(taus=(0, 0, 2)), 12_000,
                                      study_ladders)
    assert series.overflow_at[2] is not None
    assert series.divergent == (False, True, True)


def test_periodic_series_overflow_before_first_reception():
    # A = 1000 saturates at the 52nd prediction step (slot 51), before the
    # sensor's first reception at slot 55, which resets the trace to
    # Tr P_bar; it saturates again at gap 52 of the next run, slot 107
    systems = [scalar_system(1e3)]
    rows = np.zeros((1, 60), dtype=int)
    rows[0, 55] = 1
    ladders = [steady_state(s) for s in systems]
    series = assert_series_is_stepped(systems, Schedule(60, rows), None, 200,
                                      ladders)
    assert series.overflow_at == (51,)
    t = series.traces[0]
    assert np.all(t[51:55] == math.inf) and np.isfinite(t[:51]).all()
    assert t[55] == t[115] == ladders[0].trace(0)
    assert np.isfinite(t[55:107]).all() and np.all(t[107:115] == math.inf)
    assert series.divergent == (False,)


def test_periodic_series_overflow_inside_the_period_after_first_reception():
    # sensor 0 receives at slot 1 of a period of 60; its trace saturates at
    # gap 52, so at slot 53, after that reception and inside the period, and
    # the next reception, at slot 61, resets it to Tr P_bar
    systems = [scalar_system(1e3), scalar_system(1.5, "mild")]
    rows = np.zeros((2, 60), dtype=int)
    rows[0, 1] = 1
    rows[1, ::2] = 1
    ladders = [steady_state(s) for s in systems]
    series = assert_series_is_stepped(systems, Schedule(60, rows), None, 130,
                                      ladders)
    assert series.overflow_at == (53, None)
    t = series.traces[0]
    assert np.isfinite(t[:53]).all() and np.all(t[53:61] == math.inf)
    assert t[61] == ladders[0].trace(0) and np.isfinite(t[61:113]).all()


def test_periodic_series_overflow_from_the_steady_state_on():
    # R = 2e307 puts Tr P_bar at 1.5e307, two prediction steps from
    # saturation: slot 1 (gap 2, before the first reception at slot 2) is
    # the first +inf, and each reception reads the huge P_bar as it is
    systems = [LinearSystem(A=[[2.0]], C=[[1.0]], Q=[[1.0]], R=[[2e307]],
                            Pi=[[1.0]])]
    sched = Schedule(period=4, rows=((0, 0, 1, 0),))
    ladders = [steady_state(s) for s in systems]
    assert ladders[0].ladder(2)[1:] == [pytest.approx(6e307), math.inf]
    series = assert_series_is_stepped(systems, sched, None, 10, ladders)
    assert series.overflow_at == (1,)
    t = series.traces[0]
    assert t[2] == t[6] == ladders[0].trace(0) > 1e306
    assert np.all(t[[1, 4, 5, 8, 9]] == math.inf)


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


@pytest.mark.parametrize("cap", [None, 8])
@pytest.mark.parametrize("n", [3, 9])
def test_series_blocks_match_stepping_beyond_two_states(n, cap, monkeypatch):
    # a 9 x 9 trace sums its diagonal pairwise; a block's traces must keep
    # those bits.  Sensor 0 receives, sensor 1 saturates at slot 1,588,
    # inside a block, before its one reception at slot 1,800, which
    # resets it, and sensor 2 never receives.  The horizons end on, before
    # and after block edges; a cap of 8 slots puts most of them past the
    # cap.
    if cap is not None:
        monkeypatch.setattr(lti_estimation, "_BLOCK_CAP", cap)
    systems = [symmetric_system(n, np.linspace(0.5, 1.3, n), n, "receiving"),
               symmetric_system(n, np.linspace(0.9, 1.25, n), n, "overflow"),
               symmetric_system(n, np.linspace(0.3, 1.001, n), n, "starved")]
    ladders = [steady_state(s) for s in systems]
    rows = np.zeros((3, 2000), dtype=int)
    rows[0, 3::10] = 1
    rows[1, 1800] = 1
    sched = Schedule(period=2000, rows=rows)
    edges = set(itertools.accumulate(lti_estimation._block_sizes(5000)))
    for horizon in (1, 63, 64, 65, 200, 1700, 5000):
        series = assert_series_is_stepped(systems, sched, None, horizon,
                                          ladders)
        assert series.divergent == (False, False, True)
        k = series.overflow_at[1]
        if horizon > 1588:
            assert series.overflow_at[::2] == (None, None)
            assert k == 1588
            # slot k reads entry k + 1, the first one that is +inf
            assert k not in edges and k + 1 not in edges
            assert np.all(series.traces[1, k:min(horizon, 1800)] == math.inf)
        else:
            assert series.overflow_at == (None, None, None)
        if horizon > 1800:
            assert series.traces[1, 1800] == ladders[1].trace(0)
        assert np.isfinite(series.traces[::2]).all()


def counted_stack(monkeypatch):
    """Count the calls of the ladders' stacked kernel, with each stack's
    height."""
    heights = []
    real = lti_estimation._lyapunov_stack

    def counted(A, X, At, Q):
        heights.append(X.shape[0])
        return real(A, X, At, Q)

    monkeypatch.setattr(lti_estimation, "_lyapunov_stack", counted)
    return heights


def test_series_overflow_costs_at_most_twice_the_slot_by_slot_steps(
        monkeypatch):
    # A = 1000 saturates at slot 51, after 52 steps; the ladder block that
    # holds it is stepped to its end, and no further block, although the
    # horizon reads a million entries.  The ladder steps through the
    # stacked kernel, whose calls are counted
    systems = [scalar_system(1e3)]
    ladders = [steady_state(s) for s in systems]
    calls = counted_stack(monkeypatch)
    series = exact_covariance_series(
        systems, Schedule(period=1, rows=((0,),)), horizon=10**6,
        ladders=ladders)
    assert series.overflow_at == (51,)
    assert np.all(series.traces[0, 51:] == math.inf)
    assert 52 <= len(calls) <= 2 * 52


def random_system(rng, n, name):
    """A random unstable, detectable system of state dimension n with one
    output; redrawn until it validates."""
    while True:
        A = np.triu(rng.uniform(-0.8, 0.8, size=(n, n)))
        A[0, 0] = rng.uniform(1.05, 1.4)
        try:
            return LinearSystem(A=A, C=rng.uniform(0.3, 1.5, size=(1, n)),
                                Q=np.diag(rng.uniform(0.05, 0.5, size=n)),
                                R=[[rng.uniform(0.2, 2.0)]], Pi=np.eye(n),
                                name=name)
        except ValidationError:
            continue


@pytest.mark.parametrize("n", [1, 3])
def test_periodic_series_matches_stepping_in_other_state_dimensions(n):
    # the study's states are 2-D; scalar and 3-D states take the same path
    rng = np.random.default_rng(1000 + n)
    systems = [random_system(rng, n, f"sensor {i}") for i in range(3)]
    ladders = [steady_state(s) for s in systems]
    for _ in range(12):
        T = int(rng.integers(1, 8))
        sched = random_exclusive_schedule(rng, 3, T)
        attack = ShiftTuple(tuple(int(t) for t in rng.integers(0, T, size=3)))
        horizon = int(rng.integers(1, 5 * T + 10))
        assert_series_is_stepped(systems, sched, attack, horizon, ladders)


def test_periodic_series_overflow_in_three_dimensions():
    # sensor 0 (growth 40 per slot) saturates at gap 97, inside its gap of
    # 99 slots, and each reception resets it; sensor 1 never receives and
    # saturates later; sensor 2 is fine
    A = np.diag([40.0, 0.5, 0.3])
    A[0, 1] = 1.0
    fast = LinearSystem(A=A, C=[[1.0, 1.0, 1.0]], Q=np.eye(3), R=[[1.0]],
                        Pi=np.eye(3), name="fast")
    rng = np.random.default_rng(7)
    systems = [fast, random_system(rng, 3, "starved"),
               random_system(rng, 3, "served")]
    ladders = [steady_state(s) for s in systems]
    sched = Schedule(period=100, rows=((1,) + (0,) * 99, (0,) * 100,
                                       (0,) + (1,) * 99))
    series = assert_series_is_stepped(systems, sched, None, 2000, ladders)
    assert series.overflow_at[0] == 97
    assert np.all(series.traces[0, 97:100] == math.inf)
    assert series.traces[0, 100] == ladders[0].trace(0)
    assert series.overflow_at[1] is not None
    assert series.overflow_at[2] is None
    assert series.divergent == (False, True, False)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("growths", [(30.0, 4.0), (30.0, 4.0, 1.5)])
def test_series_starved_sensors_of_one_dimension_overflow_apart(
        n, growths, monkeypatch):
    # sensors of one state dimension that never receive saturate at
    # different slots; their ladders step as one stack until the last has
    # left it, at most twice the steps up to the last saturation
    systems = [symmetric_system(n, np.linspace(g, 0.5, n), i, f"starved {i}")
               for i, g in enumerate(growths)]
    systems.append(symmetric_system(n, np.linspace(1.2, 0.5, n), 9, "served"))
    ladders = [steady_state(s) for s in systems]
    rows = np.zeros((len(systems), 6), dtype=int)
    rows[-1, 1] = rows[-1, 4] = 1
    heights = counted_stack(monkeypatch)
    series = assert_series_is_stepped(systems, Schedule(6, rows), None, 10**4,
                                      ladders)
    *starved, served = series.overflow_at
    assert served is None and len(set(starved)) == len(starved)
    assert max(heights) == len(systems)
    # slot k of a starved sensor is ladder entry k + 1
    assert max(starved) + 1 <= len(heights) <= 2 * (max(starved) + 1)


def test_series_starved_sensors_of_mixed_dimensions(monkeypatch):
    # starved sensors of 1, 2 and 3 states, which saturate by slot 1,054,
    # and a served 2-state sensor; each dimension steps its own stack
    systems = [symmetric_system(1, [3.0], 1, "one"),
               symmetric_system(2, [0.4, 2.0], 2, "two"),
               symmetric_system(3, [0.3, 0.6, 1.4], 3, "three"),
               symmetric_system(2, [0.5, 1.1], 4, "served")]
    ladders = [steady_state(s) for s in systems]
    rows = np.zeros((4, 5), dtype=int)
    rows[3, 2] = 1
    heights = counted_stack(monkeypatch)
    series = assert_series_is_stepped(systems, Schedule(5, rows), None, 1200,
                                      ladders)
    assert series.divergent == (True, True, True, False)
    assert None not in series.overflow_at[:3]
    assert series.overflow_at[3] is None
    assert set(heights) <= {1, 2}


@pytest.mark.parametrize("starved", [False, True])
def test_series_with_one_ladder_listed_twice(starved, monkeypatch):
    # two sensors share one system and one ladder object; the ladder is
    # stepped once, as a stack of one, to the longer length either reads;
    # starved, sensor 1 saturates at slot 874
    sys = symmetric_system(2, [0.5, 1.5], 5, "shared")
    lad = steady_state(sys)
    rows = np.zeros((2, 10), dtype=int)
    rows[0, 3] = 1
    if not starved:
        rows[1, 8] = 1
    heights = counted_stack(monkeypatch)
    series = assert_series_is_stepped([sys, sys], Schedule(10, rows), None,
                                      1000, [lad, lad])
    assert set(heights) == {1}
    assert (series.overflow_at[1] is not None) == starved


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


# the floats whose repr a memo could get wrong: every NaN is "nan" whatever
# its sign or payload, and 0.0 and -0.0 compare equal but render apart
NAN_PAYLOAD = float(np.array(0x7FF8000000000001, dtype=np.int64).view(float))
SPECIAL_FLOATS = (math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf, 0.0,
                  -0.0, 5e-324, -5e-324, 1e16, 1e12, 0.1, 2.0250433575300404)


def series_from(traces, means, divergent):
    traces = np.array(traces, dtype=float)
    N, H = traces.shape
    return CovarianceSeries(period=1, horizon=H, receptions=((1,),) * N,
                            traces=traces,
                            running_means=np.array(means, dtype=float),
                            divergent=tuple(divergent),
                            overflow_at=(None,) * N)


@st.composite
def arbitrary_series(draw):
    N, H = draw(st.integers(1, 4)), draw(st.integers(1, 60))
    value = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
    # traces drawn from a small pool repeat, as a periodic series' do
    pool = draw(st.lists(value, min_size=1, max_size=6))
    traces = draw(st.lists(st.lists(st.sampled_from(pool), min_size=H,
                                    max_size=H), min_size=N, max_size=N))
    means = draw(st.lists(st.lists(value, min_size=H, max_size=H),
                          min_size=N, max_size=N))
    divergent = draw(st.lists(st.booleans(), min_size=N, max_size=N))
    return series_from(traces, means, divergent)


@settings(max_examples=300, deadline=None)
@given(arbitrary_series())
@example(series_from([SPECIAL_FLOATS, SPECIAL_FLOATS[::-1]],
                     [SPECIAL_FLOATS[::-1], SPECIAL_FLOATS], [False, True]))
@example(series_from([[0.0, -0.0, -0.0, 0.0]], [[-0.0, 0.0, 0.0, -0.0]],
                     [True]))
def test_series_csv_is_the_reference_rendering(series):
    assert _series_csv(series) == series_csv_reference(series)


def test_series_csv_of_simulated_series_is_the_reference_rendering(
        study_systems, study_ladders, round_robin):
    sd = construct_shift_invariant([(1, 3)] * 3)
    for sched, attack in ((round_robin, None),
                          (round_robin, ShiftTuple((0, 0, 2))),
                          (sd, ShiftTuple((0, 0, 2)))):
        series = exact_covariance_series(study_systems, sched, attack=attack,
                                         horizon=900, ladders=study_ladders)
        assert _series_csv(series) == series_csv_reference(series)


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


@pytest.mark.parametrize("block", [None, 1, 100])
def test_mc_samples_are_per_trial_average_costs(block, monkeypatch,
                                                study_systems, study_ladders,
                                                round_robin):
    # block: the slots one gathered batch may hold (None keeps the default);
    # 1 gathers trial by trial
    if block is not None:
        monkeypatch.setattr(scheduling, "_BLOCK_SLOTS", block)
    sd = construct_shift_invariant([(1, 3)] * 3)
    for sched in (sd, round_robin):  # the round robin starves some trials
        mc = monte_carlo_expected_cost(study_systems, sched, trials=50,
                                       seed=7, ladders=study_ladders)
        want = tuple(average_cost(reception(sched, ShiftTuple(
            rng.integers(0, sched.period, size=3))), study_ladders).total
            for rng in child_rngs(7, 50))
        assert mc.samples == want
    assert mc.n_divergent > 0


def child_shifts(seed, j, N, T):
    """The shifts trial j draws: N bounded integers from the generator of
    SeedSequence(seed)'s j-th child, which has the spawn key (j,)."""
    child = np.random.SeedSequence(seed, spawn_key=(j,))
    return np.random.Generator(np.random.PCG64(child)).integers(0, T, size=N)


@pytest.mark.parametrize("T", [1, 2, 3, 8, 27, 2**31 + 1, 2**32 - 1, 2**32,
                               2**32 + 1, 2**40 + 3])
def test_trial_shifts_match_child_generators(T):
    # 2^31 + 1 rejects about half of Lemire's 32-bit words, 2^32 takes
    # plain 32-bit draws and 2^32 + 1 and up take 64-bit words
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 3):
        spawned = np.random.SeedSequence(seed).spawn(9)
        for N in range(1, 7):
            want = np.array([np.random.Generator(np.random.PCG64(c)).integers(
                0, T, size=N) for c in spawned])
            for lo, hi in ((0, 9), (0, 1), (2, 7), (8, 9), (4, 4)):
                got = _trial_shifts(seed, lo, hi, N, T)
                assert got.dtype == np.int64 and got.shape == (hi - lo, N)
                assert np.array_equal(got, want[lo:hi])
        # children whose spawn key takes one or two 32-bit words
        for lo, hi in ((2**32 - 1, 2**32 + 1), (2**33 + 1, 2**33 + 2)):
            want = [child_shifts(seed, j, 3, T) for j in range(lo, hi)]
            assert np.array_equal(_trial_shifts(seed, lo, hi, 3, T), want)


def test_mc_builds_no_generator(monkeypatch, study_systems, study_ladders):
    # each block of trials reads the seed's pool off one SeedSequence(seed);
    # no child, spawn or generator is built
    sd = construct_shift_invariant([(1, 3)] * 3)
    want = monte_carlo_expected_cost(study_systems, sd, trials=30, seed=5,
                                     ladders=study_ladders).samples

    def refuse(*args, **kwargs):
        raise AssertionError("a per-trial SeedSequence or generator")

    seeded = []

    class SeedOnly(np.random.SeedSequence):
        def __init__(self, entropy=None, **kwargs):
            if kwargs:
                refuse()
            seeded.append(entropy)
            super().__init__(entropy)

        spawn = refuse

    calls = []
    shifts = simulation._trial_shifts

    def counted(*args):
        calls.append(args)
        return shifts(*args)

    monkeypatch.setattr(np.random, "SeedSequence", SeedOnly)
    for name in ("PCG64", "Generator", "default_rng"):
        monkeypatch.setattr(np.random, name, refuse)
    monkeypatch.setattr(simulation, "_trial_shifts", counted)
    # blocks of 8 trials: 4 calls for the 30 trials
    monkeypatch.setattr(scheduling, "_BLOCK_SLOTS", 8 * 3 * 27)
    got = monte_carlo_expected_cost(study_systems, sd, trials=30, seed=5,
                                    ladders=study_ladders).samples
    assert got == want
    assert len(calls) == 4 and seeded == [5] * 4


def test_mc_seed_is_strict(study_systems, study_ladders, round_robin):
    # a seed is a nonnegative integer: a bool is no longer taken as 1, and
    # a float or a negative number is refused with ValidationError
    for bad in (-1, 1.5, True):
        with pytest.raises(ValidationError, match="seed"):
            monte_carlo_expected_cost(study_systems, round_robin, trials=4,
                                      seed=bad, ladders=study_ladders)
    mc = [monte_carlo_expected_cost(study_systems, round_robin, trials=20,
                                    seed=seed, ladders=study_ladders)
          for seed in (7, np.int64(7))]
    assert mc[0].samples == mc[1].samples


def test_mc_budget_refuses_before_drawing(monkeypatch, study_systems,
                                          study_ladders):
    # an oversized request is refused before any shift is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("drew before charging the budget")

    monkeypatch.setattr("schedsec.simulation._trial_shifts", refuse)
    monkeypatch.setenv("SCHEDSEC_BUDGET", "1000")
    sd = construct_shift_invariant([(1, 3), (1, 2), (1, 3)])
    with pytest.raises(BudgetError):
        monte_carlo_expected_cost(study_systems, sd, trials=10**12, seed=1,
                                  ladders=study_ladders)


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
