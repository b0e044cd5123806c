import itertools
import json
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (enumerated_invariance, factor_families,
                      interleaved_rows, residue_zero_sum, slot_correlation,
                      symmetric_system)
from schedsec.errors import (BUDGET_ENV_VAR, BudgetError, StabilityWarning,
                             ValidationError, Work)
from schedsec.protocol_sequences import (BoundsReport, _class_sum,
                                         _design_factors, _divisors,
                                         _duty_factor, _supports, bounds,
                                         construct_shift_invariant,
                                         hamming_cross_correlation,
                                         is_shift_invariant,
                                         policies_from_dict, policies_to_dict,
                                         shortest_period_policies, throughput)
from schedsec.lti_estimation import (LinearSystem, bundled_systems,
                                     steady_state)
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
                "1/2", 0.5, (1.5, 2), (1, 2.0), ("1", "3"), (True, 3),
                [1, False]):
        with pytest.raises(ValidationError, match="sensor 2"):
            _duty_factor(bad, 2)
    # a row that never transmits or always transmits has no defense factor
    for row in ((0, 0, 0), (1, 1, 1)):
        with pytest.raises(ValidationError, match="sensor 1"):
            _design_factors(Schedule(3, ((1, 0, 0), row)))
    for bad in ((0, 3), (1.5, 2), ("1", "3")):
        with pytest.raises(ValidationError, match="sensor 0"):
            construct_shift_invariant([bad])


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
    # from, its policy document reads back as the same schedule, and it is
    # shift invariant, as the construction promises without checking
    for fam in factor_families(64):
        ps = construct_shift_invariant(fam)
        assert ps.duty_factors() == [Fraction(n, d) for n, d in fam], fam
        assert policies_from_dict(policies_to_dict(ps)) == ps, fam
        assert is_shift_invariant(ps), fam


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
    ps = construct_shift_invariant([(1, 5), (1, 7)])
    monkeypatch.setenv("SCHEDSEC_BUDGET", "100")
    rep = is_shift_invariant(ps)
    assert rep.invariant and rep.exhaustive
    monkeypatch.setenv("SCHEDSEC_BUDGET", "2")
    with pytest.raises(BudgetError, match="budget"):
        is_shift_invariant(ps)


def test_invariance_budget_grows_with_the_period(monkeypatch):
    # supports and sums are sets of orders, at most the n + 1 divisors of
    # D = 2^n, so the default budget proves n = 16.  At n = 12 the
    # supports charge one step per row and divisor m > 1, n * n, and row k
    # (support {2^(k+1)}) one class pair per order reached before it, k
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    assert is_shift_invariant(shortest_period_policies(16)).invariant
    ps = shortest_period_policies(12)
    monkeypatch.setenv(BUDGET_ENV_VAR, str(12 * 12 - 1))
    with pytest.raises(BudgetError, match="invariance check"):
        is_shift_invariant(ps)
    monkeypatch.setenv(BUDGET_ENV_VAR, str(12 * 12 + 12 * 11 // 2))
    assert is_shift_invariant(ps).invariant


def test_construction_budget_is_compared_before_the_period(monkeypatch):
    # 4 rows of period 16 fit a budget of 64 and 5 rows of period 32 do
    # not; each factor is checked before it is charged, and the period
    # is not multiplied out once the slots pass the budget
    monkeypatch.setenv(BUDGET_ENV_VAR, "64")
    assert construct_shift_invariant([(1, 2)] * 4).period == 16
    with pytest.raises(BudgetError):
        construct_shift_invariant([(1, 2)] * 5)
    monkeypatch.delenv(BUDGET_ENV_VAR)
    with pytest.raises(ValidationError, match="sensor 0"):
        construct_shift_invariant([(1, 1)] + [(1, 2)] * 10**6)
    start = time.perf_counter()
    with pytest.raises(BudgetError) as exc:
        construct_shift_invariant([(1, 2)] * 10**6)
    assert time.perf_counter() - start < 1.0
    assert len(str(exc.value)) < 200


def test_design_factors_need_no_printed_product():
    # 2^15000 has more digits than Python converts to a string
    sched = Schedule(period=2, rows=((1, 0), (0, 1)) * 7500)
    with pytest.raises(ValidationError, match="not a multiple") as exc:
        _design_factors(sched)
    assert len(str(exc.value)) < 200


@settings(max_examples=200, deadline=None)
@given(data=st.data(), T=st.integers(1, 9), N=st.integers(1, 4))
def test_correlation_matches_slot_loop(data, T, N):
    rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=T,
                                       max_size=T), min_size=N, max_size=N))
    U = tuple(sorted(data.draw(st.sets(st.integers(0, N - 1), min_size=1))))
    shifts = data.draw(st.lists(st.integers(0, T - 1), min_size=len(U),
                                max_size=len(U)))
    assert (hamming_cross_correlation(rows, U, shifts)
            == slot_correlation(rows, U, shifts))


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


def _assert_supports_match_fft(rows):
    """The integer supports against floating-point DFTs: order m is in row
    i's set iff |DFT_w(row i)| > 1e-3 at the frequencies w of order
    D / gcd(w, D) = m, frequency 0 left out; all frequencies of one order
    must agree.  The oracle checks its own margin: every coefficient is
    below 1e-9 * D or above 1e-3, so the cut cannot fall on a rounding
    error."""
    sched = Schedule.coerce(rows)
    D = sched.period
    F = np.abs(np.fft.fft(sched.array.astype(float), axis=1))
    assert ((F < 1e-9 * D) | (F > 1e-3)).all()
    orders = [D // math.gcd(w, D) for w in range(D)]
    for mags in F:
        for m in _divisors(D):
            assert len({mags[w] > 1e-3 for w in range(D)
                        if orders[w] == m}) == 1, m
    want = [{orders[w] for w in range(1, D) if F[i, w] > 1e-3}
            for i in range(len(F))]
    assert _supports(sched.array, D, Work("supports")) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64).flatmap(lambda D: st.lists(
    st.lists(st.integers(0, 1), min_size=D, max_size=D),
    min_size=1, max_size=4)))
def test_supports_match_fft_on_random_rows(rows):
    _assert_supports_match_fft(rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64).flatmap(_row_sets))
def test_supports_match_fft_on_periodic_rows(rows):
    # a row repeating a pattern of length p has a zero DFT off the
    # multiples of D / p, so many orders m vanish
    _assert_supports_match_fft(rows)


def test_supports_match_fft_on_constructed_sets():
    for fam in factor_families(64):
        _assert_supports_match_fft(construct_shift_invariant(fam))
    _assert_supports_match_fft(shortest_period_policies(6))


@pytest.mark.parametrize("n_rows, period", [(1, 1), (3, 2), (2, 12),
                                             (4, 30), (2, 97), (3, 360)])
def test_supports_charge_one_step_per_row_and_divisor(n_rows, period):
    rows = np.random.default_rng(period).integers(0, 2, (n_rows, period))
    work = Work("supports")
    _supports(rows.astype(np.uint8), period, work)
    divisors = [m for m in range(2, period + 1) if period % m == 0]
    assert work.used == n_rows * len(divisors)


def test_class_sum_matches_brute_force():
    # every pair of order classes of Z_D, D <= 60, against the orders of
    # every sum x + y, x of order a and y of order b
    for D in range(1, 61):
        divisors = _divisors(D)
        orders = [D // math.gcd(x, D) for x in range(D)]
        for a, b in itertools.product(divisors, repeat=2):
            xs = [x for x in range(D) if orders[x] == a]
            ys = [y for y in range(D) if orders[y] == b]
            want = {orders[(x + y) % D] for x in xs for y in ys}
            assert _class_sum(a, b, divisors) == want, (D, a, b)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64).flatmap(lambda D: st.lists(
    st.lists(st.integers(0, 1), min_size=D, max_size=D),
    min_size=1, max_size=4)) | st.integers(1, 64).flatmap(_row_sets))
def test_invariance_matches_residue_reachability(rows):
    # the decision over order classes against sums of residues of Z_D
    assert is_shift_invariant(rows).invariant == (not residue_zero_sum(rows))


def test_invariance_matches_residue_reachability_on_factor_families():
    for fam in factor_families(64):
        ps = construct_shift_invariant(fam)
        assert is_shift_invariant(ps).invariant, fam
        assert not residue_zero_sum(ps), fam


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.integers(1, 24).flatmap(_row_sets))
def test_invariance_ignores_row_order_rotation_and_reversal(data, rows):
    # permuting the rows, rotating any one of them, or reversing every row
    # in time keeps each row's set of support orders (a rotation multiplies
    # the DFT by unit phases, a reversal maps w to -w), so the decision
    want = is_shift_invariant(rows).invariant
    order = data.draw(st.permutations(range(len(rows))))
    assert is_shift_invariant([rows[i] for i in order]).invariant == want
    i = data.draw(st.integers(0, len(rows) - 1))
    t = data.draw(st.integers(0, len(rows[0]) - 1))
    rotated = [r[t:] + r[:t] if j == i else r for j, r in enumerate(rows)]
    assert is_shift_invariant(rotated).invariant == want
    assert is_shift_invariant([r[::-1] for r in rows]).invariant == want


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


def test_tuple_entries_must_be_integers():
    rows = [[1, 0], [1, 1]]
    assert hamming_cross_correlation(rows, np.array([0, 1]),
                                     (np.uint8(0), 1)) == 1
    for U, shifts in (((0, 1.7), ("0", 1.2)), ((0, 1), (0, 1.0)),
                      ((0, True), (0, 1)), ((0, 1), (False, 1)),
                      (("0", 1), (0, 1)), ((0, 1), (0, "1"))):
        with pytest.raises(ValidationError, match="must be an integer"):
            hamming_cross_correlation(rows, U, shifts)
        with pytest.raises(ValidationError, match="must be an integer"):
            throughput(rows, U, shifts, 1)


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
    ps = construct_shift_invariant(factors)
    rep = is_shift_invariant(ps)
    assert rep.exhaustive
    assert (rep.invariant, rep.witness) == enumerated_invariance(ps)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_interleavings_are_invariant(data):
    # the theorem the construction rests on holds for any interleaving
    # vectors of the right length and weight, not only the default ones
    factors = data.draw(st.lists(st.sampled_from(FACTOR_POOL), min_size=1,
                                 max_size=4))
    interleavings = []
    D_prev = 1
    for n, d in factors:
        vec = st.permutations([1] * n + [0] * (d - n))
        interleavings.append(data.draw(st.lists(vec, min_size=D_prev,
                                                max_size=D_prev)))
        D_prev *= d
    ps = construct_shift_invariant(factors, interleavings=interleavings)
    assert ps.duty_factors() == [Fraction(n, d) for n, d in factors]
    assert is_shift_invariant(ps)


def test_construction_matches_slot_reference_on_every_family():
    for factors in factor_families(64):
        assert (construct_shift_invariant(factors).rows
                == interleaved_rows(factors)), factors


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_construction_matches_slot_reference_on_random_interleavings(data):
    factors = data.draw(st.lists(st.sampled_from(FACTOR_POOL), min_size=1,
                                 max_size=3))
    interleavings = []
    D_prev = 1
    for n, d in factors:
        vec = st.permutations([1] * n + [0] * (d - n))
        interleavings.append(data.draw(st.lists(vec, min_size=D_prev,
                                                max_size=D_prev)))
        D_prev *= d
    assert (construct_shift_invariant(factors, interleavings).rows
            == interleaved_rows(factors, interleavings))


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
    # weight 1, but not a 0/1 vector
    with pytest.raises(ValidationError, match="expected 0 or 1"):
        construct_shift_invariant([(1, 2)], interleavings=[[[2, -1]]])


def test_shortest_period_all_sizes():
    for n in range(1, 13):
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


def test_bounds_of_an_overflowing_ladder_are_inf():
    # A = 1.3 passes the float range before gap D = 2,048; one reception
    # per period leaves no remainder term, so the lower bound is inf, not
    # 0 * inf = NaN
    sys = LinearSystem(A=[[1.3]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                       Pi=[[1.0]])
    br = bounds(shortest_period_policies(11), [steady_state(sys)] * 11)
    assert br.per_sensor_receptions == (1,) * 11
    assert br.lower == br.upper == math.inf


def _bounds_entry_by_entry(factors, ladders):
    """The two bounds with one trace(t) call per entry, each sum added
    left to right from 0, as `bounds` summed them up to Python 3.11."""
    D = math.prod(d for _, d in factors)
    lower = upper = 0.0
    for i, lad in enumerate(ladders):
        N_i = factors[i][0] * math.prod(d - n for j, (n, d)
                                        in enumerate(factors) if j != i)
        q, r = divmod(D, N_i)
        low = 0.0
        for t in range(q):
            low += lad.trace(t)
        high = 0.0
        for t in range(1, D - N_i + 1):
            high += lad.trace(t)
        lower += N_i * low + (r * lad.trace(q) if r else 0.0)
        upper += N_i * lad.trace(0) + high
    return lower / D, upper / D


# eigenvalue ranges: a stable ladder converges, an unstable one grows, a
# saturating one reaches +inf within 40 entries
_BOUNDS_LADDER_KINDS = {"stable": (0.2, 0.9), "unstable": (1.01, 1.3),
                        "saturating": (1e4, 1e6)}


@settings(max_examples=60, deadline=None)
@given(factors=st.sampled_from(factor_families(96)),
       ladders=st.lists(st.tuples(st.integers(1, 3),
                                  st.sampled_from(sorted(_BOUNDS_LADDER_KINDS))),
                        min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_bounds_are_the_entry_by_entry_sums(factors, ladders, seed):
    # each bound sums slices of one ladder list; on stable, unstable and
    # saturating ladders of mixed state dimension it must keep, bit for
    # bit, the sums of one trace(t) call per entry
    rng = np.random.default_rng(seed)
    systems = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        for j, (n, kind) in zip(range(len(factors)), ladders):
            eig = np.sort(rng.uniform(*_BOUNDS_LADDER_KINDS[kind], size=n))
            systems.append(symmetric_system(n, eig, seed + j, kind))
    br = bounds(construct_shift_invariant(factors),
                [steady_state(sys) for sys in systems])
    want = _bounds_entry_by_entry(factors,
                                  [steady_state(sys) for sys in systems])
    assert (repr(br.lower), repr(br.upper)) == tuple(map(repr, want))


@pytest.mark.parametrize("n, scale", [(3, 1e6), (3, 1e9), (5, 1e3),
                                      (5, 1e6)])
def test_bounds_of_coinciding_bounds_in_any_units(n, scale):
    # with one reception per sensor the bounds coincide, and with Q, R and
    # Pi scaled the two sums, associated differently, can differ by an ulp
    systems = [LinearSystem(A=s.A, C=s.C, Q=s.Q * scale, R=s.R * scale,
                            Pi=s.Pi * scale) for s in bundled_systems()]
    ladders = [steady_state(systems[i % 3]) for i in range(n)]
    br = bounds(shortest_period_policies(n), ladders)
    assert br.lower == pytest.approx(br.upper, rel=1e-12)


def test_inverted_bounds_report_raises():
    with pytest.raises(ValidationError, match="exceeds upper bound"):
        BoundsReport(lower=1.0 + 1e-9, upper=1.0,
                     per_sensor_receptions=(1,), period=2)
    with pytest.raises(ValidationError, match="exceeds upper bound"):
        BoundsReport(lower=3e6 * (1 + 1e-9), upper=3e6,
                     per_sensor_receptions=(1,), period=2)
    assert BoundsReport(lower=3e6 * (1 + 1e-15), upper=3e6,
                        per_sensor_receptions=(1,), period=2)


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
    ps = construct_shift_invariant(factors)
    D = math.prod(d for _, d in factors)
    assert ps.period == D
    for row, (n, d) in zip(ps.rows, factors):
        assert sum(row) == D * n // d


def test_bounds_sums_stop_at_a_saturated_ladders_first_inf(monkeypatch):
    # eleven sensors with A = 1.3 under the shortest-period set (D = 2,048)
    # saturate long before gap D - 1: each running sum ends at the ladder's
    # first +inf entry instead of adding the +inf entries after it
    from schedsec import protocol_sequences
    sys = LinearSystem(A=[[1.3]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                       Pi=[[1.0]])
    ladders = [steady_state(sys) for _ in range(11)]
    summed = []
    real = protocol_sequences._ordered_sum
    monkeypatch.setattr(protocol_sequences, "_ordered_sum",
                        lambda values: summed.append(len(values))
                        or real(values))
    br = bounds(shortest_period_policies(11), ladders)
    assert br.lower == br.upper == math.inf
    saturated = len(ladders[0]._traces)
    assert ladders[0]._traces[-1] == math.inf and saturated < 2048
    assert max(summed) <= saturated
