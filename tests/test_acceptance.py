"""Acceptance gate: the eleven checks the package must pass.

Each test prints one PASS/FAIL line on the terminal (bypassing capture) and
enforces the stated tolerance and runtime budget.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from conftest import (all_exclusive_schedules, factor_families,
                      is_uniform_row, random_exclusive_schedule,
                      random_unstable_system)
from schedsec.attack import bnb_optimal_attack, brute_force_optimal_attack
from schedsec.lti_estimation import steady_state
from schedsec.protocol_sequences import (bounds, construct_shift_invariant,
                                         hamming_cross_correlation,
                                         is_shift_invariant, throughput)
from schedsec.scheduling import (ShiftTuple, average_cost,
                                 optimal_schedule_search, reception)
from schedsec.simulation import (exact_covariance_series,
                                 monte_carlo_expected_cost)

REFERENCE_ROWS = ((0, 0, 1), (0, 1, 0), (1, 0, 0))

THREE_POLICY_SET = [
    [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0],
]


@pytest.fixture
def announce(capsys):
    def _line(text):
        with capsys.disabled():
            print(text)
    return _line


@contextmanager
def criterion(announce, num, desc):
    try:
        yield
    except BaseException:
        announce(f"FAIL criterion {num:2d}: {desc}")
        raise
    announce(f"PASS criterion {num:2d}: {desc}")


def test_criterion_01_schedule_reproduction(announce, study_systems,
                                            study_ladders):
    with criterion(announce, 1, "optimal T=3 schedule matches the reference "
                                "rows up to rotation"):
        t0 = time.monotonic()
        sched, _ = optimal_schedule_search(study_systems, [3],
                                           ladders=study_ladders)
        elapsed = time.monotonic() - t0
        rotations = []
        for r in range(3):
            rotations.append(tuple(
                tuple(row[(k + r) % 3] for k in range(3))
                for row in REFERENCE_ROWS))
        assert sched.rows in rotations
        assert sched.rows == REFERENCE_ROWS  # canonical form is exact
        assert elapsed < 1.0


def test_criterion_02_optimal_attack(announce, round_robin):
    with criterion(announce, 2, "branch-and-bound and brute force agree on "
                                "a single-spoof blocking attack"):
        t0 = time.monotonic()
        bnb = bnb_optimal_attack(round_robin)
        brute = brute_force_optimal_attack(round_robin)
        elapsed = time.monotonic() - t0
        assert bnb.blocking and brute.blocking
        assert bnb.spoofed_count == 1 and brute.spoofed_count == 1
        rec = reception(round_robin, bnb.taus)
        assert any(not any(r) for r in rec)
        # the published tuple is feasible at the same cost
        published = ShiftTuple(taus=(0, 0, 2))
        assert published.spoofed_count == 1
        rec2 = reception(round_robin, published)
        assert any(not any(r) for r in rec2)
        assert elapsed < 1.0


def test_criterion_03_oracle_equivalence(announce):
    with criterion(announce, 3, "branch-and-bound equals the brute-force "
                                "oracle on 200 random schedules"):
        t0 = time.monotonic()
        rng = np.random.default_rng(20240821)
        for trial in range(200):
            N = int(rng.integers(2, 5))
            T = int(rng.integers(2, 7))
            sched = random_exclusive_schedule(rng, N, T)
            a = bnb_optimal_attack(sched)
            b = brute_force_optimal_attack(sched)
            assert a.blocking == b.blocking, (trial, sched.rows)
            if a.blocking:
                assert a.spoofed_count == b.spoofed_count, (trial, sched.rows)
        assert time.monotonic() - t0 < 120.0


def test_criterion_04_shift_one_attack(announce):
    with criterion(announce, 4, "shift-everyone-else-by-one starves every "
                                "half-duty sensor of every uniform schedule"):
        t0 = time.monotonic()
        checked = 0
        for N in (2, 3, 4):
            for T in range(2, 9):
                for sched in all_exclusive_schedules(N, T):
                    if not all(is_uniform_row(r) for r in sched.rows):
                        continue
                    for i in range(N):
                        w = sum(sched.rows[i])
                        if w == 0 or Fraction(w, T) > Fraction(1, 2):
                            continue
                        attack = ShiftTuple(taus=tuple(
                            0 if j == i else 1 for j in range(N)))
                        rec = reception(sched, attack)
                        assert not any(rec[i]), (sched.rows, i)
                        checked += 1
        assert checked > 10_000
        assert time.monotonic() - t0 < 60.0


def test_criterion_05_reference_correlations(announce):
    with criterion(announce, 5, "three-sensor reference set has constant "
                                "correlations over all 12^3 shifts"):
        expected = {(0, 1): 3, (0, 2): 2, (1, 2): 2, (0, 1, 2): 1}
        for taus in itertools.product(range(12), repeat=3):
            for U, want in expected.items():
                shifts = tuple(taus[i] for i in U)
                assert hamming_cross_correlation(THREE_POLICY_SET, U,
                                                 shifts) == want
        assert is_shift_invariant(THREE_POLICY_SET).invariant


def test_criterion_06_reference_construction(announce):
    with criterion(announce, 6, "two-sensor interleaving construction is "
                                "bit-exact"):
        ps = construct_shift_invariant(
            [(1, 4), (1, 3)],
            interleavings=[[[0, 0, 0, 1]],
                           [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 0, 0]]])
        assert list(ps.rows[0]) == [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]
        assert list(ps.rows[1]) == [0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0]


def test_criterion_07_throughput_rationals(announce):
    with criterion(announce, 7, "every constructed set with period <= 64 "
                                "has the exact rational throughputs"):
        families = factor_families(64)
        assert len(families) > 4000
        for fam in families:
            ps = construct_shift_invariant(fam, verify=False)
            D = math.prod(d for _, d in fam)
            assert ps.period == D
            U = tuple(range(len(fam)))
            zeros = (0,) * len(fam)
            for i, (n, d) in enumerate(fam):
                want = Fraction(n, d) * math.prod(
                    1 - Fraction(nn, dd)
                    for j, (nn, dd) in enumerate(fam) if j != i)
                assert throughput(ps, U, zeros, i) == want, (fam, i)


def test_criterion_08_bound_sandwich(announce, study_systems, study_ladders):
    with criterion(announce, 8, "same-duty defense cost under 100 random "
                                "attacks stays inside the closed-form "
                                "bounds"):
        t0 = time.monotonic()
        ps = construct_shift_invariant([(1, 3)] * 3)
        br = bounds(ps, study_ladders)
        rng = np.random.default_rng(20240822)
        for _ in range(100):
            attack = ShiftTuple(taus=tuple(
                int(v) for v in rng.integers(0, 27, size=3)))
            cost = average_cost(reception(ps, attack),
                                study_ladders).total
            assert cost >= br.lower * (1 - 1e-9)
            assert cost <= br.upper * (1 + 1e-9)
        assert time.monotonic() - t0 < 60.0


def test_criterion_09_divergence(announce, study_systems, study_ladders,
                                 round_robin):
    with criterion(announce, 9, "the single-spoof attack drives two sensors "
                                "past 1e6x steady state while the third "
                                "stays periodic"):
        series = exact_covariance_series(study_systems, round_robin,
                                         attack=ShiftTuple(taus=(0, 0, 2)),
                                         horizon=600, ladders=study_ladders)
        for i in (1, 2):
            assert series.divergent[i]
            assert series.traces[i, -1] > 1e6 * study_ladders[i].trace(0)
        assert not series.divergent[0]
        t0 = series.traces[0]
        assert np.array_equal(t0[3:], t0[:-3])


def test_criterion_10_defense_comparison(announce, study_systems,
                                         study_ladders):
    with criterion(announce, 10, "shortest-period defense beats same-duty "
                                 "with 95% confidence over 200 trials"):
        t0 = time.monotonic()
        same = construct_shift_invariant([(1, 3)] * 3)
        short = construct_shift_invariant([(1, 2)] * 3)
        mc_same = monte_carlo_expected_cost(study_systems, same, trials=200,
                                            seed=20240823,
                                            ladders=study_ladders)
        mc_short = monte_carlo_expected_cost(study_systems, short, trials=200,
                                             seed=20240823,
                                             ladders=study_ladders)
        assert mc_same.n_divergent == 0 and mc_short.n_divergent == 0
        gap = mc_same.mean - mc_short.mean
        spread = math.hypot(mc_same.halfwidth, mc_short.halfwidth)
        assert gap - spread > 0.0
        assert time.monotonic() - t0 < 120.0


def test_criterion_11_cross_path_consistency(announce):
    with criterion(announce, 11, "histogram costs equal simulated periodic "
                                 "averages on 100 random instances"):
        t0 = time.monotonic()
        rng = np.random.default_rng(20240824)
        for trial in range(100):
            N = int(rng.integers(2, 5))
            T = int(rng.integers(N, 7))
            systems = [random_unstable_system(rng, name=f"inst {trial}.{i}")
                       for i in range(N)]
            ladders = [steady_state(sys) for sys in systems]
            sched = random_exclusive_schedule(rng, N, T, full_coverage=True)
            closed = average_cost(reception(sched), ladders)
            series = exact_covariance_series(systems, sched, horizon=4 * T,
                                             ladders=ladders)
            sim = series.periodic_average()
            for a, b in zip(closed.per_sensor, sim.per_sensor):
                assert abs(a - b) <= 1e-6, (trial, a, b)
        assert time.monotonic() - t0 < 60.0
