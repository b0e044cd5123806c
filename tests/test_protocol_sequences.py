import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import enumerated_invariance, factor_families
from schedsec.errors import BudgetError, ValidationError
from schedsec.protocol_sequences import (_design_factors, _duty_factor,
                                         bounds, construct_shift_invariant,
                                         hamming_cross_correlation,
                                         is_shift_invariant,
                                         policies_from_dict, policies_to_dict,
                                         shortest_period_policies, throughput)
from schedsec.scheduling import Schedule

REFERENCE_POLICY_ROWS = [
    [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
    [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0],
]


def test_duty_factor_validation():
    assert _duty_factor((1, 3), 0) == Fraction(1, 3)
    assert _duty_factor(Fraction(2, 6), 0) == Fraction(1, 3)
    assert _duty_factor((2, 4), 0) == Fraction(1, 2)
    for bad in ((0, 3), (3, 3), (4, 3), (1, 0), Fraction(0), Fraction(1),
                "1/2", 0.5):
        with pytest.raises(ValidationError, match="sensor 2"):
            _duty_factor(bad, 2)
    # a row that never transmits or always transmits has no defense factor
    for row in ((0, 0, 0), (1, 1, 1)):
        with pytest.raises(ValidationError, match="sensor 1"):
            _design_factors(Schedule(3, ((1, 0, 0), row)))
    with pytest.raises(ValidationError, match="sensor 0"):
        construct_shift_invariant([(0, 3)])


def test_policy_set_validation():
    def doc(T, rows, factors):
        return {"T": T, "rows": [list(r) for r in rows],
                "factors": [{"n": n, "d": d} for n, d in factors]}

    # weight mismatch: row 1 transmits in 2 of 6 slots, not half of them
    with pytest.raises(ValidationError, match="row 1 transmits in 2 of 6"):
        policies_from_dict(doc(6, ((1, 1, 1, 0, 0, 0), (1, 0, 0, 1, 0, 0)),
                               ((1, 2), (1, 2))))
    with pytest.raises(ValidationError, match="is 3/6.*1/2 in lowest terms"):
        policies_from_dict(doc(6, ((1, 1, 1, 0, 0, 0),), ((3, 6),)))
    # the round robin's factors 1/3 need a period of 27
    with pytest.raises(ValidationError, match="multiple"):
        policies_from_dict(doc(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                               ((1, 3),) * 3))
    with pytest.raises(ValidationError, match="multiple"):
        bounds(Schedule(3, ((1, 0, 0), (0, 1, 0))), [None, None])
    with pytest.raises(ValidationError, match="length"):
        policies_from_dict(doc(6, ((1, 0, 0),), ((1, 3),)))
    with pytest.raises(ValidationError, match="duty factors"):
        policies_from_dict(doc(2, ((1, 0),), ((1, 2), (1, 2))))
    for row, factor in (((0, 0), (0, 1)), ((1, 1), (1, 1))):
        with pytest.raises(ValidationError, match="sensor 0"):
            policies_from_dict(doc(2, (row,), (factor,)))


def test_policy_set_roundtrip():
    ps = construct_shift_invariant([(1, 2), (1, 3)])
    doc = policies_to_dict(ps)
    assert doc["factors"] == [{"n": 1, "d": 2}, {"n": 1, "d": 3}]
    assert policies_from_dict(json.loads(json.dumps(doc))) == ps
    assert type(ps) is Schedule


def test_constructed_rows_carry_their_factors():
    # the premise of reading a defense's duty factors off its rows: every
    # constructed set's rows have exactly the reduced factors it was built
    # from, and its policy document reads back as the same schedule
    for fam in factor_families(64):
        ps = construct_shift_invariant(fam, verify=False)
        assert ps.duty_factors() == [Fraction(n, d) for n, d in fam], fam
        assert policies_from_dict(policies_to_dict(ps)) == ps, fam


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


def test_invariance_proven_within_small_budget(monkeypatch):
    # 35^2 shift tuples for the pair; the exact check needs a handful of steps
    ps = construct_shift_invariant([(1, 5), (1, 7)], verify=False)
    monkeypatch.setenv("SCHEDSEC_BUDGET", "100")
    rep = is_shift_invariant(ps)
    assert rep.invariant and rep.exhaustive
    monkeypatch.setenv("SCHEDSEC_BUDGET", "2")
    with pytest.raises(BudgetError, match="budget"):
        is_shift_invariant(ps)


def test_invariance_scales_to_period_256():
    ps = shortest_period_policies(8)
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
        expect = [n * math.prod(dd - nn for j, (nn, dd) in enumerate(factors)
                                if j != i)
                  for i, (n, _) in enumerate(factors)]
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
    br = bounds(construct_shift_invariant([(1, 3)] * 3), study_ladders)
    assert br.per_sensor_receptions == (4, 4, 4)
    assert br.period == 27
    assert br.lower == pytest.approx(3.2785904784017763, rel=1e-8)
    assert br.upper == pytest.approx(10.114024439909416, rel=1e-8)


def test_bounds_collapse_for_single_reception(study_ladders):
    br = bounds(shortest_period_policies(3), study_ladders)
    assert br.per_sensor_receptions == (1, 1, 1)
    assert br.lower == pytest.approx(br.upper, rel=1e-12)
    assert br.lower == pytest.approx(3.7197966749819833, rel=1e-7)


def test_bounds_accepts_policy_set(study_ladders):
    # the factors are read off the rows, so any rows with them give the
    # same bounds: plain rows, or a set repeated over twice its period
    ps = construct_shift_invariant([(1, 3)] * 3)
    want = bounds(ps, study_ladders)
    assert bounds([list(row) for row in ps.rows], study_ladders) == want
    twice = Schedule(2 * ps.period, tuple(row * 2 for row in ps.rows))
    assert bounds(twice, study_ladders) == want


def test_bounds_validates_ladder_count(study_ladders):
    with pytest.raises(ValidationError):
        bounds(shortest_period_policies(1), study_ladders)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(FACTOR_POOL), min_size=1, max_size=3))
def test_construction_weight_and_period_properties(factors):
    ps = construct_shift_invariant(factors, verify=False)
    D = math.prod(d for _, d in factors)
    assert ps.period == D
    for row, (n, d) in zip(ps.rows, factors):
        assert sum(row) == D * n // d
