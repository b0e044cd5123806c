import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import enumerated_invariance
from schedsec.errors import BudgetError, ValidationError
from schedsec.protocol_sequences import (PolicySet, RationalDutyFactor,
                                         bounds, construct_shift_invariant,
                                         hamming_cross_correlation,
                                         is_shift_invariant,
                                         shortest_period_policies, throughput)
from schedsec.scheduling import Schedule

REFERENCE_POLICY_ROWS = [
    [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0],
]


def test_duty_factor_validation():
    RationalDutyFactor(1, 3)
    with pytest.raises(ValidationError):
        RationalDutyFactor(0, 3)
    with pytest.raises(ValidationError):
        RationalDutyFactor(3, 3)
    with pytest.raises(ValidationError):
        RationalDutyFactor(2, 4)
    assert RationalDutyFactor.coerce(Fraction(2, 6)) == RationalDutyFactor(1, 3)
    assert RationalDutyFactor.coerce((1, 2)).as_fraction == Fraction(1, 2)


def test_policy_set_validation():
    with pytest.raises(ValidationError, match="weight"):
        PolicySet(period=6, rows=((1, 1, 0, 0, 0, 0), (1, 0, 0, 1, 0, 0)),
                  factors=((1, 2), (1, 3)))
    with pytest.raises(ValidationError, match="multiple"):
        PolicySet(period=4, rows=((1, 1, 0, 0),), factors=((1, 3),))
    with pytest.raises(ValidationError, match="length"):
        PolicySet(period=6, rows=((1, 0, 0),), factors=((1, 3),))


def test_policy_set_roundtrip():
    ps = construct_shift_invariant([(1, 2), (1, 3)])
    assert PolicySet.from_dict(json.loads(json.dumps(ps.to_dict()))) == ps
    assert isinstance(ps, Schedule)


def test_reference_construction_bit_exact():
    # explicit interleaving vectors reproduce the published two-sensor set
    ps = construct_shift_invariant(
        [(1, 4), (1, 3)],
        interleavings=[[[0, 0, 0, 1]],
                       [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 0, 0]]])
    assert ps.period == 12
    assert list(ps.rows[0]) == [0, 0, 0, 1] * 3
    assert list(ps.rows[1]) == [0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0]
    assert is_shift_invariant(ps).invariant


def test_reference_three_sensor_correlations():
    rep = is_shift_invariant(REFERENCE_POLICY_ROWS)
    assert rep.invariant and rep.exhaustive and rep.witness is None
    assert bool(rep)
    z = (0, 0)
    assert hamming_cross_correlation(REFERENCE_POLICY_ROWS, (0, 1), z) == 3
    assert hamming_cross_correlation(REFERENCE_POLICY_ROWS, (0, 2), z) == 2
    assert hamming_cross_correlation(REFERENCE_POLICY_ROWS, (1, 2), z) == 2
    assert hamming_cross_correlation(REFERENCE_POLICY_ROWS, (0, 1, 2), (0, 0, 0)) == 1


def test_default_chooser_golden_rows():
    ps = shortest_period_policies(3)
    assert ps.period == 8
    assert [list(r) for r in ps.rows] == [
        [0, 1, 0, 1, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 1, 0, 1, 0]]


def test_common_shift_cancels():
    # shifting every member of a tuple by the same offset reindexes the
    # cyclic sum and cannot change H; this justifies pinning the first
    # shift to zero in the exhaustive invariance check
    rng = np.random.default_rng(17)
    for _ in range(60):
        T = int(rng.integers(2, 9))
        N = int(rng.integers(2, 4))
        rows = rng.integers(0, 2, size=(N, T)).tolist()
        size = int(rng.integers(2, N + 1))
        U = tuple(sorted(rng.choice(N, size=size, replace=False).astype(int)))
        shifts = tuple(int(v) for v in rng.integers(0, T, size=size))
        c = int(rng.integers(0, T))
        shifted = tuple((s + c) % T for s in shifts)
        assert (hamming_cross_correlation(rows, U, shifts)
                == hamming_cross_correlation(rows, U, shifted))


def test_invariance_rejects_plain_round_robin(round_robin):
    rep = is_shift_invariant(round_robin)
    assert not rep.invariant
    U, shifts = rep.witness
    ref = hamming_cross_correlation(round_robin.rows, U, (0,) * len(U))
    assert hamming_cross_correlation(round_robin.rows, U, shifts) != ref


def test_invariance_proven_within_small_budget():
    # 35^2 shift tuples for the pair; the exact check needs a handful of steps
    ps = construct_shift_invariant([(1, 5), (1, 7)], verify=False)
    rep = is_shift_invariant(ps, budget=100)
    assert rep.invariant and rep.exhaustive
    with pytest.raises(BudgetError, match="budget"):
        is_shift_invariant(ps, budget=2)


def test_invariance_scales_to_period_256():
    ps = shortest_period_policies(8, verify=False)
    t0 = time.perf_counter()
    rep = is_shift_invariant(ps)
    elapsed = time.perf_counter() - t0
    assert rep.invariant and rep.exhaustive
    assert elapsed < 1.0


def _row_sets(D):
    # rows repeating a pattern of a length dividing D make invariance common
    periodic_row = st.sampled_from([p for p in range(1, D + 1) if D % p == 0]
                                   ).flatmap(lambda p: st.lists(
                                       st.integers(0, 1), min_size=p,
                                       max_size=p).map(lambda v: v * (D // p)))
    return st.lists(periodic_row, min_size=2, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(_row_sets))
@example([[0, 0, 0], [1, 0, 0], [0, 1, 0]])   # an all-zero row pins H at 0
@example([[1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]])
def test_invariance_matches_enumeration_on_random_rows(rows):
    rep = is_shift_invariant(rows)
    assert rep.exhaustive
    assert (rep.invariant, rep.witness) == enumerated_invariance(rows)


def test_tuple_validation():
    with pytest.raises(ValidationError):
        hamming_cross_correlation(REFERENCE_POLICY_ROWS, (), ())
    with pytest.raises(ValidationError):
        hamming_cross_correlation(REFERENCE_POLICY_ROWS, (1, 0), (0, 0))
    with pytest.raises(ValidationError):
        hamming_cross_correlation(REFERENCE_POLICY_ROWS, (0, 3), (0, 0))
    with pytest.raises(ValidationError):
        hamming_cross_correlation(REFERENCE_POLICY_ROWS, (0, 1), (0, 12))
    with pytest.raises(ValidationError):
        throughput(REFERENCE_POLICY_ROWS, (0, 1), (0, 0), 2)


def test_throughput_reference_values():
    tp = [throughput(REFERENCE_POLICY_ROWS, (0, 1, 2), (0, 0, 0), p) for p in range(3)]
    assert tp[0] == Fraction(1, 2) * Fraction(1, 2) * Fraction(2, 3)
    assert tp[1] == Fraction(1, 2) * Fraction(1, 2) * Fraction(2, 3)
    assert tp[2] == Fraction(1, 3) * Fraction(1, 2) * Fraction(1, 2)


def test_throughput_invariant_under_shifts():
    rng = np.random.default_rng(23)
    for _ in range(40):
        shifts = tuple(int(v) for v in rng.integers(0, 12, size=3))
        for p in range(3):
            assert (throughput(REFERENCE_POLICY_ROWS, (0, 1, 2), shifts, p)
                    == throughput(REFERENCE_POLICY_ROWS, (0, 1, 2), (0, 0, 0), p))


FACTOR_POOL = [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5)]


def test_constructed_sets_are_invariant_seeded():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        factors = [FACTOR_POOL[int(i)]
                   for i in rng.integers(0, len(FACTOR_POOL), size=n)]
        if math.prod(d for _, d in factors) > 40:
            continue
        ps = construct_shift_invariant(factors)
        assert ps.period == math.prod(d for _, d in factors)
        assert is_shift_invariant(ps).invariant


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(FACTOR_POOL), min_size=2, max_size=4))
def test_invariance_matches_enumeration_on_constructed_sets(factors):
    D = math.prod(d for _, d in factors)
    assume(D ** (len(factors) - 1) <= 10 ** 5)
    ps = construct_shift_invariant(factors, verify=False)
    rep = is_shift_invariant(ps)
    assert rep.exhaustive
    assert (rep.invariant, rep.witness) == enumerated_invariance(ps)


def test_reception_counts_fixed_under_all_shifts():
    # the attack-independent reception guarantee, checked exhaustively on
    # small families: whatever the shifts, sensor i receives exactly
    # n_i * prod_{j != i} (d_j - n_j) slots per period
    from schedsec.scheduling import ShiftTuple, reception
    for factors in [[(1, 2), (1, 3)], [(1, 2), (1, 2), (1, 2)],
                    [(1, 3), (2, 3)], [(1, 4), (1, 3)]]:
        ps = construct_shift_invariant(factors)
        D = ps.period
        expect = [f.n * math.prod(g.d - g.n for j, g in enumerate(ps.factors)
                                  if j != i)
                  for i, f in enumerate(ps.factors)]
        for taus in itertools.product(range(D), repeat=len(factors) - 1):
            attack = ShiftTuple(taus=(0,) + taus)
            rec = reception(ps, attack)
            got = [sum(r) for r in rec]
            assert got == expect, (factors, attack.taus)


def test_interleaving_vector_validation():
    with pytest.raises(ValidationError, match="vectors"):
        construct_shift_invariant([(1, 2), (1, 2)],
                                  interleavings=[[[0, 1]], [[0, 1]]])
    with pytest.raises(ValidationError, match="weight"):
        construct_shift_invariant([(1, 2)], interleavings=[[[1, 1]]])
    with pytest.raises(ValidationError, match="length"):
        construct_shift_invariant([(1, 2)], interleavings=[[[0, 1, 0]]])


def test_shortest_period_all_sizes():
    for n in range(1, 5):
        ps = shortest_period_policies(n)
        assert ps.period == 2 ** n
        assert all(sum(r) == 2 ** (n - 1) for r in ps.rows)
        assert is_shift_invariant(ps).invariant


def test_bounds_golden_same_duty(study_ladders):
    br = bounds([(1, 3)] * 3, study_ladders)
    assert br.per_sensor_receptions == (4, 4, 4)
    assert br.period == 27
    assert br.lower == pytest.approx(3.2785904784017763, rel=1e-8)
    assert br.upper == pytest.approx(10.114024439909416, rel=1e-8)


def test_bounds_collapse_for_single_reception(study_ladders):
    br = bounds([(1, 2)] * 3, study_ladders)
    assert br.per_sensor_receptions == (1, 1, 1)
    assert br.lower == pytest.approx(br.upper, rel=1e-12)
    assert br.lower == pytest.approx(3.7197966749819833, rel=1e-7)


def test_bounds_accepts_policy_set(study_ladders):
    ps = construct_shift_invariant([(1, 3)] * 3)
    assert bounds(ps, study_ladders).lower == pytest.approx(
        bounds([(1, 3)] * 3, study_ladders).lower)


def test_bounds_validates_ladder_count(study_ladders):
    with pytest.raises(ValidationError):
        bounds([(1, 2)], study_ladders)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(FACTOR_POOL), min_size=1, max_size=3))
def test_construction_weight_and_period_properties(factors):
    ps = construct_shift_invariant(factors, verify=False)
    D = math.prod(d for _, d in factors)
    assert ps.period == D
    for row, (n, d) in zip(ps.rows, factors):
        assert sum(row) == D * n // d
