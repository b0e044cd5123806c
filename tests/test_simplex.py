import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from schedsec.errors import NumericalError, ValidationError
from schedsec.simplex import _BASIC, _LOWER, _simplex_loop, solve_bounded_lp


def test_tiny_hand_solved():
    # min -x - y  s.t. x + y <= 1, 0 <= x, y <= 1
    res = solve_bounded_lp([-1.0, -1.0], [[1.0, 1.0]], [1.0],
                           [0.0, 0.0], [1.0, 1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-9)
    assert res.x.sum() == pytest.approx(1.0, abs=1e-9)


def test_bound_flip_solution():
    # unconstrained except box: optimum sits at the box corner
    res = solve_bounded_lp([-2.0, 3.0], np.zeros((0, 2)), [],
                           [0.0, -1.0], [5.0, 4.0])
    assert res.status == "optimal"
    assert res.x == pytest.approx([5.0, -1.0])
    assert res.objective == pytest.approx(-13.0)


def test_fixed_variables_respected():
    # second variable pinned at 0.5
    res = solve_bounded_lp([1.0, -1.0], [[1.0, 0.0]], [2.0],
                           [0.0, 0.5], [3.0, 0.5])
    assert res.status == "optimal"
    assert res.x[1] == pytest.approx(0.5)
    assert res.x[0] == pytest.approx(0.0)


def test_infeasible_detected():
    # x <= 1 but lower bound 2
    res = solve_bounded_lp([1.0], [[1.0]], [1.0], [2.0], [3.0])
    assert res.status == "infeasible"
    res2 = solve_bounded_lp([0.0], [[1.0], [-1.0]], [1.0, -2.0], [0.0], [5.0])
    assert res2.status == "infeasible"


def test_unbounded_detected():
    res = solve_bounded_lp([-1.0], np.zeros((0, 1)), [], [0.0], [np.inf])
    assert res.status == "unbounded"


def test_degenerate_cycling_guard():
    # classic degenerate vertex; Bland's rule must terminate
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [[0.25, -60.0, -0.04, 9.0],
         [0.5, -90.0, -0.02, 3.0],
         [0.0, 0.0, 1.0, 0.0]]
    b = [0.0, 0.0, 1.0]
    res = solve_bounded_lp(c, A, b, [0.0] * 4, [np.inf] * 4)
    assert res.status == "optimal"
    ref = scipy.optimize.linprog(c, A_ub=A, b_ub=b, bounds=[(0, None)] * 4,
                                 method="highs")
    assert res.objective == pytest.approx(ref.fun, abs=1e-8)


def test_zero_variables_edge_case():
    res = solve_bounded_lp([], np.zeros((1, 0)), [1.0], [], [])
    assert res.status == "optimal"
    assert res.objective == 0.0
    res2 = solve_bounded_lp([], np.zeros((1, 0)), [-1.0], [], [])
    assert res2.status == "infeasible"


def test_rejects_infinite_lower_bound():
    with pytest.raises(ValidationError):
        solve_bounded_lp([1.0], np.zeros((0, 1)), [], [-np.inf], [1.0])


def test_quick_reject_crossed_bounds():
    res = solve_bounded_lp([1.0], np.zeros((0, 1)), [], [2.0], [1.0])
    assert res.status == "infeasible"


def _random_lp(rng, n, m):
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    lo = rng.uniform(-2.0, 0.0, size=n)
    hi = lo + rng.uniform(0.5, 3.0, size=n)
    # anchor b so the box midpoint is feasible: keeps most draws solvable
    mid = (lo + hi) / 2
    b = A @ mid + rng.uniform(-0.5, 2.0, size=m)
    return c, A, b, lo, hi


def test_random_lps_match_scipy():
    rng = np.random.default_rng(20240818)
    solved = 0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(0, 8))
        c, A, b, lo, hi = _random_lp(rng, n, m)
        res = solve_bounded_lp(c, A, b, lo, hi)
        ref = scipy.optimize.linprog(c, A_ub=A if m else None,
                                     b_ub=b if m else None,
                                     bounds=list(zip(lo, hi)), method="highs")
        if res.status == "optimal":
            assert ref.status == 0
            assert res.objective == pytest.approx(ref.fun, abs=1e-6)
            assert np.all(res.x >= lo - 1e-7) and np.all(res.x <= hi + 1e-7)
            if m:
                assert np.all(A @ res.x <= b + 1e-7)
            solved += 1
        else:
            assert res.status == "infeasible"
            assert ref.status == 2
    assert solved > 100  # the generator is tuned to produce mostly solvable LPs


def test_cover_style_lps_match_scipy():
    # the relaxations the branch-and-bound actually solves: minimize the
    # number of picked columns subject to covering a target row, with some
    # variables pinned by branching decisions
    rng = np.random.default_rng(99)
    for _ in range(100):
        T = int(rng.integers(2, 7))
        nblk = int(rng.integers(1, 4))
        K = nblk * (T - 1)
        cols = rng.integers(0, 2, size=(T, K)).astype(float)
        target = np.zeros(T)
        target[rng.integers(0, T, size=max(1, T // 2))] = 1.0
        c = np.ones(K)
        A = np.vstack([-cols] + [np.eye(nblk).repeat(T - 1, axis=1)])
        b = np.concatenate([-target, np.ones(nblk)])
        lo = np.zeros(K)
        hi = np.ones(K)
        if rng.random() < 0.5 and K > 1:
            j = int(rng.integers(0, K))
            lo[j] = hi[j] = float(rng.integers(0, 2))
        res = solve_bounded_lp(c, A, b, lo, hi)
        ref = scipy.optimize.linprog(c, A_ub=A, b_ub=b,
                                     bounds=list(zip(lo, hi)), method="highs")
        if res.status == "optimal":
            assert ref.status == 0
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
        else:
            assert ref.status == 2


def _box_lp(rng):
    # up to 11 x 11; integer data in half the draws, so that degenerate
    # vertices and ratio-test ties are common; some uppers infinite
    n = int(rng.integers(1, 12))
    m = int(rng.integers(0, 12))
    if rng.random() < 0.5:
        c = rng.integers(-3, 4, size=n).astype(float)
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        lo = rng.integers(-2, 1, size=n).astype(float)
        hi = lo + rng.integers(0, 3, size=n)
        b = rng.integers(-2, 4, size=m).astype(float)
    else:
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        lo = rng.uniform(-2.0, 0.0, size=n)
        hi = lo + rng.uniform(0.5, 3.0, size=n)
        b = A @ ((lo + hi) / 2) + rng.uniform(-1.5, 2.0, size=m)
    hi[rng.random(n) < 0.2] = np.inf
    return c, A, b, lo, hi


def _covering_lp(rng):
    # the relaxation _cheapest_block solves: one block of T - 1 shift
    # columns per other sensor, at most one pick per block, the target's
    # slots covered, and some blocks pinned by branching decisions
    T = int(rng.integers(2, 13))
    nblk = int(rng.integers(1, 7))
    w = T - 1
    cols = rng.integers(0, 2, size=(T, nblk * w)).astype(float)
    target = np.zeros(T)
    target[rng.integers(0, T, size=max(1, T // 2))] = 1.0
    A = np.vstack([-cols, np.repeat(np.eye(nblk), w, axis=1)])
    b = np.concatenate([-target, np.ones(nblk)])
    lo = np.zeros(nblk * w)
    hi = np.ones(nblk * w)
    for blk in rng.permutation(nblk)[:int(rng.integers(0, nblk + 1))]:
        hi[blk * w:(blk + 1) * w] = 0.0
        choice = int(rng.integers(0, T))
        if choice:
            lo[blk * w + choice - 1] = hi[blk * w + choice - 1] = 1.0
    return np.ones(nblk * w), A, b, lo, hi


@pytest.mark.parametrize("draw", [_box_lp, _covering_lp])
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_same_pivots_as_the_column_by_column_reference(draw, seed):
    from conftest import bland_reference_lp
    lp = draw(np.random.default_rng(seed))
    got = solve_bounded_lp(*lp)
    want = bland_reference_lp(*lp)
    assert got.status == want.status
    assert got.iterations == want.iterations
    if want.x is None:
        assert got.x is None
    else:
        assert got.x.tobytes() == want.x.tobytes()
        assert got.objective == want.objective


def test_singular_basis_raises_without_a_warning():
    # columns 0 and 1 are equal, so a basis holding both is singular; the
    # bare LAPACK solve leaves NaN and raises the "invalid" flag instead of
    # LinAlgError, and the loop must raise the reference's NumericalError
    # without letting the flag become a RuntimeWarning
    Abar = np.array([[1.0, 1.0, 0.0, 1.0],
                     [2.0, 2.0, 1.0, 0.0]])
    b = np.array([1.0, 1.0])
    cost = np.array([1.0, -1.0, 0.0, 0.0])
    lower, upper = np.zeros(4), np.ones(4)
    basis = np.array([0, 1])
    status = np.array([_BASIC, _BASIC, _LOWER, _LOWER], dtype=np.int8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match="basis became singular"):
            _simplex_loop(Abar, b, cost, lower, upper, basis, status,
                          1e-9, 100)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
