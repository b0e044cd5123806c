import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (fixed_point_reference, solver_probe, stepped_ladder,
                      steady_state_doubling, symmetric_system)
from schedsec import lti_estimation
from schedsec.errors import (ConvergenceError, NumericalError,
                             StabilityWarning, ValidationError, read_json)
from schedsec.lti_estimation import (LinearSystem, bundled_systems,
                                     load_systems, lyapunov_step,
                                     riccati_step, steady_state)

# frozen from an offline computation that agreed with scipy's DARE solver
# and a long plain simulation to ~1e-15
GOLDEN_P_BAR = [
    np.array([[0.3881553597329, -0.06364924390550133],
              [-0.06364924390550133, 0.1820974807179959]]),
    np.array([[0.2951525551343872, -0.03757513070079999],
              [-0.0375751307008, 0.13754027228260413]]),
    np.array([[0.32034157495651244, -0.05053391123419301],
              [-0.05053391123419301, 0.17581266044364138]]),
]
GOLDEN_LADDER_0 = [0.570252840451, 0.784479815527, 1.0543160118,
                   1.34546195609, 1.64588982531, 1.95305796922,
                   2.26654228455, 2.58635635127, 2.91260448207]


def dare_steady_state(sys):
    """Independent route: scipy DARE gives the a-priori covariance; one
    measurement update maps it to the a-posteriori steady state."""
    P_pred = scipy.linalg.solve_discrete_are(sys.A.T, sys.C.T, sys.Q, sys.R)
    return riccati_step(sys, P_pred)


def test_golden_steady_states(study_systems, study_ladders):
    for lad, gold in zip(study_ladders, GOLDEN_P_BAR):
        assert np.allclose(lad.P_bar, gold, atol=1e-8)
        assert lad.residual <= 1e-8


def test_scipy_dare_oracle_on_study_systems(study_systems, study_ladders):
    for sys, lad in zip(study_systems, study_ladders):
        assert np.allclose(lad.P_bar, dare_steady_state(sys), atol=1e-9)


def test_doubling_cross_check_on_study_systems(study_systems, study_ladders):
    for sys, lad in zip(study_systems, study_ladders):
        assert np.allclose(lad.P_bar, steady_state_doubling(sys), atol=1e-9)


def test_scipy_dare_oracle_on_random_systems():
    from conftest import random_unstable_system
    rng = np.random.default_rng(20240817)
    for trial in range(30):
        sys = random_unstable_system(rng, name=f"random {trial}")
        lad = steady_state(sys)
        assert np.allclose(lad.P_bar, dare_steady_state(sys),
                           atol=1e-7, rtol=1e-7)
        assert np.allclose(lad.P_bar, steady_state_doubling(sys),
                           atol=1e-7, rtol=1e-7)


def test_scalar_closed_form():
    # scalar fixed point solves a^2 p^2 + (q + r - a^2 r) p - q r = 0
    for a, q, r in [(1.2, 0.3, 1.0), (2.0, 1.0, 1.0), (1.05, 0.01, 2.0)]:
        sys = LinearSystem(A=[[a]], C=[[1.0]], Q=[[q]], R=[[r]], Pi=[[1.0]])
        b = q + r - a * a * r
        p_exact = (-b + math.sqrt(b * b + 4 * a * a * q * r)) / (2 * a * a)
        lad = steady_state(sys)
        assert lad.P_bar[0, 0] == pytest.approx(p_exact, abs=1e-9)


def test_trace_ladder_golden(study_ladders, monkeypatch):
    lad = study_ladders[0]
    for t, gold in enumerate(GOLDEN_LADDER_0):
        assert lad.trace(t) == pytest.approx(gold, rel=1e-8)
    assert lad.ladder(5) == [lad.trace(t) for t in range(6)]
    # on a saturating ladder, ladder(upto) is upto + 1 entries, +inf from
    # the first non-finite one on, the values trace(t) reads, from no more
    # stacked steps than trace(upto) alone takes
    sys = LinearSystem(A=[[1e3]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], Pi=[[1.0]])
    first = stepped_ladder(sys, steady_state(sys).P_bar, 200).index(math.inf)
    calls = []
    real = lti_estimation._lyapunov_stack

    def counted(A, X, At, Q):
        calls.append(1)
        return real(A, X, At, Q)

    monkeypatch.setattr(lti_estimation, "_lyapunov_stack", counted)
    for upto in (0, first - 1, first, 3 * first + 5):
        calls.clear()
        steady_state(sys).trace(upto)
        alone = len(calls)
        calls.clear()
        lad = steady_state(sys)
        got = lad.ladder(upto)
        assert len(calls) <= alone
        assert len(got) == upto + 1
        assert all(math.isfinite(v) for v in got[:first])
        assert got[first:] == [math.inf] * (upto + 1 - first)
        assert got == [lad.trace(t) for t in range(upto + 1)]
    assert lad.ladder(-1) == lad.ladder(-5) == []


@pytest.mark.parametrize("A, C, first", [
    # the (0, 0) entry passes the float range at gap 512, and the next step
    # would multiply that inf by the zero entries of A (0 * inf = NaN)
    ([[2.0, 0.0], [0.0, 0.0]], [[1.0, 1.0]], 512),
    # the step out of the float range itself adds inf to -inf
    ([[-1.0, 3.0], [0.0, -4.0]], [[1.0, 0.0]], 256),
])
def test_trace_ladder_saturates_at_inf(A, C, first):
    # from its first non-finite trace on the ladder reads +inf, never NaN,
    # without a numpy warning
    sys = LinearSystem(A=A, C=C, Q=np.eye(2), R=[[1.0]], Pi=np.eye(2))
    lad = steady_state(sys)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traces = lad.ladder(600)
    assert all(math.isfinite(v) for v in traces[:first])
    assert traces[first:] == [math.inf] * (601 - first)
    assert lad.trace(10_000) == math.inf


def test_trace_ladder_saturates_only_past_the_float_range():
    # the symmetrization halves before it adds, so a step whose M + M'
    # passes the float range while its half-sum does not stays finite:
    # entry 2 is 4 * entry 1 + 1, about 1.2e308
    sys = LinearSystem(A=[[2.0]], C=[[1.0]], Q=[[1.0]], R=[[1e307]],
                       Pi=[[1.0]])
    lad = steady_state(sys)
    assert lad.ladder(3) == [7.499999999125764e+306, 2.9999999996503057e+307,
                             1.1999999998601223e+308, math.inf]
    assert lyapunov_step(sys, [[lad.trace(1)]])[0, 0] == lad.trace(2)


def test_trace_ladder_is_lazy_and_consistent(study_systems, study_ladders):
    lad = study_ladders[1]
    sys = study_systems[1]
    P = lad.P_bar.copy()
    for t in range(12):
        assert lad.trace(t) == pytest.approx(float(np.trace(P)), rel=1e-12)
        P = lyapunov_step(sys, P)


def _ladder_cases():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        stable = LinearSystem(A=[[0.5]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                              Pi=[[1.0]], name="stable")
    saturating = LinearSystem(A=[[1e3]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                              Pi=[[1.0]], name="saturating")
    return [*bundled_systems(),
            symmetric_system(9, np.linspace(0.5, 1.05, 9), 9, "nine"),
            saturating, stable]


@pytest.mark.parametrize("sys", _ladder_cases(), ids=lambda s: s.name)
def test_ladder_grown_in_blocks_is_stepped_entry_by_entry(sys):
    # the ladder grows in three reads, each stepping its own blocks; every
    # entry keeps the bits of one step and one trace per entry, and a
    # saturating ladder reads +inf from its first non-finite entry on
    lad = steady_state(sys)
    want = stepped_ladder(sys, lad.P_bar, 5000)
    for t in (3, 70, 5000):
        assert repr(lad.trace(t)) == repr(want[t])
        assert np.array(lad.ladder(t)).tobytes() == np.array(
            want[:t + 1]).tobytes()
    assert not any(math.isnan(v) for v in want)
    if sys.name == "saturating":
        first = want.index(math.inf)
        assert 0 < first < 70
        assert all(math.isfinite(v) for v in want[:first])


def test_saturating_ladder_steps_at_most_twice_the_entries(monkeypatch):
    sys = LinearSystem(A=[[1e3]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], Pi=[[1.0]])
    lad = steady_state(sys)
    # an entry-by-entry ladder steps once per entry up to its first inf
    first = stepped_ladder(sys, lad.P_bar, 200).index(math.inf)
    # the ladder steps through the stacked kernel, whose calls are counted
    calls = []
    real = lti_estimation._lyapunov_stack

    def counted(A, X, At, Q):
        calls.append(1)
        return real(A, X, At, Q)

    monkeypatch.setattr(lti_estimation, "_lyapunov_stack", counted)
    assert lad.trace(10**6) == math.inf
    assert first <= len(calls) <= 2 * first
    assert lad.trace(10**7) == math.inf and len(calls) <= 2 * first


# eigenvalue ranges of the drawn ladders: a stable ladder converges, an
# unstable one grows, a saturating one reaches +inf within 120 entries
_LADDER_KINDS = {"stable": (0.2, 0.9), "unstable": (1.01, 1.3),
                 "saturating": (20.0, 80.0)}


@settings(max_examples=60, deadline=None)
@given(cases=st.lists(st.tuples(st.integers(1, 4),
                                st.sampled_from(sorted(_LADDER_KINDS)),
                                st.integers(0, 40), st.integers(1, 250)),
                      min_size=1, max_size=6),
       repeat=st.integers(0, 250), seed=st.integers(0, 2**32 - 1))
def test_extend_ladders_keeps_the_bits_of_one_ladder_at_a_time(
        cases, repeat, seed):
    # ladders of mixed state dimension and kind, each already read to its
    # own length, are extended in one call; with `repeat` the first ladder
    # is listed twice.  The ladders of one n step as one stack, and each
    # entry must keep the bits of one 2-D step and one trace per entry,
    # +inf from the first non-finite trace on, also when a later read
    # extends the ladder again.
    rng = np.random.default_rng(seed)
    ladders, lengths = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        for j, (n, kind, before, length) in enumerate(cases):
            eig = np.sort(rng.uniform(*_LADDER_KINDS[kind], size=n))
            lad = steady_state(symmetric_system(n, eig, j, kind))
            lad.trace(before)
            ladders.append(lad)
            lengths.append(length)
    if repeat:
        ladders.append(ladders[0])
        lengths.append(repeat)
    start = {lad: len(lad._traces) for lad in ladders}
    longest = dict(start)
    for lad, length in zip(ladders, lengths):
        longest[lad] = max(longest[lad], length)
    lti_estimation._extend_ladders(ladders, lengths)
    for lad in ladders:
        got = lad._traces
        want = stepped_ladder(lad.sys, lad.P_bar, len(got) - 1)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        if got[-1] == math.inf:
            assert len(got) <= longest[lad]
        else:
            assert len(got) == longest[lad]
    # each ladder goes on from the iterate of its last entry
    for lad in ladders:
        lad.trace(len(lad._traces) + 6)
        want = stepped_ladder(lad.sys, lad.P_bar, len(lad._traces) - 1)
        assert np.array(lad._traces).tobytes() == np.array(want).tobytes()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 3), joseph=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_steady_state_keeps_the_bits_of_the_norm_loop(n, m, joseph, seed):
    # the fixed-point loop takes its Frobenius step as sqrt(d . d), the
    # float operations of np.linalg.norm(., "fro"), and its update solves
    # through the bare LAPACK gufunc; P_bar, the iteration count and the
    # residual must be those of the reference loop, which calls the public
    # riccati_step and np.linalg.norm, bit for bit.  With `joseph` the
    # process noise is at least 1e12 I and every output sees the first
    # state with a weight of at least 1, so C X C' dwarfs R and the update
    # takes the Joseph form
    from hypothesis import assume
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    N = rng.normal(size=(m, m))
    C = rng.normal(size=(m, n))
    Q = M @ M.T
    if joseph:
        C[:, 0] += np.copysign(1.0, C[:, 0])
        Q = (Q + np.eye(n)) * 1e12
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            sys = LinearSystem(A=rng.normal(size=(n, n)) * 1.2, C=C, Q=Q,
                               R=N @ N.T + 0.1 * np.eye(m), Pi=np.eye(n))
        lad = steady_state(sys)
    except (ValidationError, ConvergenceError):
        assume(False)
    X, iterations = fixed_point_reference(sys)
    assert lad.iterations == iterations
    assert lad.P_bar.tobytes() == lti_estimation._symmetrize(X).tobytes()
    again = riccati_step(sys, lyapunov_step(sys, X))
    assert lad.residual == float(np.linalg.norm(again - X, "fro"))
    P = lyapunov_step(sys, lad.P_bar)
    S = sys.C @ P @ sys.C.T + sys.R
    assert (np.trace(S) > sys._cancellation_bound) == joseph


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(1, 4), data=st.data())
def test_bare_solve_keeps_the_bits_of_np_linalg_solve(m, n, data):
    # steady_state's loop solves S G = C X through the LAPACK gufunc that
    # np.linalg.solve wraps; on float64 matrices the two agree to the bit
    entries = st.floats(-1e3, 1e3, allow_nan=False)
    S = np.array(data.draw(st.lists(entries, min_size=m * m,
                                    max_size=m * m))).reshape(m, m)
    B = np.array(data.draw(st.lists(entries, min_size=m * n,
                                    max_size=m * n))).reshape(m, n)
    S = S @ S.T + 10.0 ** data.draw(st.integers(-8, 2)) * np.eye(m)
    want = np.linalg.solve(S, B)
    got = lti_estimation._lapack_solve(S, B)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_singular_innovation_covariance_raises_numerical_error():
    # S = C X C' + R = -1 + 1 = 0: the solve fails, and the step says why,
    # without a RuntimeWarning from the failed solve
    sys = LinearSystem(A=[[2.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], Pi=[[1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as err:
            riccati_step(sys, [[-1.0]])
    assert str(err.value) == "system: innovation covariance is singular"


def test_steady_state_raises_numerical_error_on_a_singular_step(monkeypatch):
    # the third prediction makes S singular: the loop raises the update's
    # NumericalError at that iteration, not a ConvergenceError, and no
    # RuntimeWarning escapes
    sys = LinearSystem(A=[[2.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], Pi=[[1.0]])
    real = lti_estimation.lyapunov_step
    calls = []

    def step(sys, X):
        calls.append(1)
        return np.array([[-1.0]]) if len(calls) == 3 else real(sys, X)

    monkeypatch.setattr(lti_estimation, "lyapunov_step", step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as err:
            steady_state(sys)
    assert str(err.value) == "system: innovation covariance is singular"
    assert len(calls) == 3


def test_overflowed_iterate_is_not_a_singular_solve(monkeypatch):
    # an overflowed prediction diag(inf, 1.25) sends the update's products
    # through inf * 0, an invalid operation outside the solve: riccati_step
    # returns a non-finite matrix rather than calling S singular, and
    # steady_state reports the overflow at the step where it happened
    sys = LinearSystem(A=np.diag([2.0, 0.5]), C=[[1.0, 0.0]], Q=np.eye(2),
                       R=[[1.0]], Pi=np.eye(2))
    overflowed = np.diag([math.inf, 1.25])
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(riccati_step(sys, overflowed)).all()
    real = lti_estimation.lyapunov_step
    calls = []

    def step(sys, X):
        calls.append(1)
        return overflowed if len(calls) == 2 else real(sys, X)

    monkeypatch.setattr(lti_estimation, "lyapunov_step", step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as err:
            steady_state(sys)
    assert str(err.value) == (
        "system: steady-state iteration overflowed to a non-finite "
        "covariance at step 2")


def test_lyapunov_and_riccati_steps_hand_checked():
    sys = LinearSystem(A=[[2.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], Pi=[[1.0]])
    X = np.array([[3.0]])
    assert lyapunov_step(sys, X)[0, 0] == pytest.approx(13.0)
    # g(3) = 3 - 9/4
    assert riccati_step(sys, X)[0, 0] == pytest.approx(0.75)


def exact_scalar_output_update(sys, X):
    """X - X C' (C X C' + R)^-1 C X for one output, in Fractions."""
    n = sys.n
    X = [[Fraction(float(v)) for v in row] for row in X]
    c = [Fraction(float(v)) for v in sys.C[0]]
    xc = [sum(X[i][j] * c[j] for j in range(n)) for i in range(n)]  # X C'
    s = sum(c[i] * xc[i] for i in range(n)) + Fraction(float(sys.R[0, 0]))
    return np.array([[float(X[i][j] - xc[i] * xc[j] / s) for j in range(n)]
                     for i in range(n)])


def test_riccati_step_switches_form_only_where_it_cancels(study_systems):
    sys = study_systems[0]
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = rng.normal(size=(2, 2))
        X = M @ M.T + 0.1 * np.eye(2)
        # ordinary scale: the subtraction form, to the bit
        S = sys.C @ X @ sys.C.T + sys.R
        plain = X - X @ sys.C.T @ np.linalg.solve(S, sys.C @ X)
        assert riccati_step(sys, X).tobytes() == ((plain + plain.T) / 2).tobytes()
        # C X C' ~ 1e12 R: against the update in exact rational arithmetic
        big = 1e12 * X
        got = riccati_step(sys, big)
        exact = exact_scalar_output_update(sys, big)
        assert np.linalg.norm(got - exact) <= 1e-9 * np.linalg.norm(exact)
    # the posterior of a prior of 1e20 under unit noise is 1e20 / (1e20 + 1)
    scalar = LinearSystem(A=[[1e10]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                          Pi=[[1.0]])
    assert riccati_step(scalar, [[1e20]])[0, 0] == pytest.approx(1.0, rel=1e-15)


def test_steps_preserve_symmetry_and_psd(study_systems):
    rng = np.random.default_rng(7)
    sys = study_systems[0]
    for _ in range(50):
        M = rng.normal(size=(2, 2))
        X = M @ M.T
        for Y in (lyapunov_step(sys, X), riccati_step(sys, X)):
            assert np.allclose(Y, Y.T)
            assert np.linalg.eigvalsh(Y).min() >= -1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_prediction_step_is_symmetrize_of_the_product(n):
    # lyapunov_step writes out the symmetrization; its bits must stay those
    # of _symmetrize(A X A' + Q), since the series and ladder bytes rest on
    # them
    rng = np.random.default_rng(40 + n)
    A = rng.normal(size=(n, n))
    A[0, 0] = 1.5
    sys = LinearSystem(A=A, C=np.ones((1, n)), Q=np.eye(n), R=[[1.0]],
                       Pi=np.eye(n))
    for _ in range(50):
        M = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-8, 9)
        X = M @ M.T
        want = lti_estimation._symmetrize(sys.A @ X @ sys.A.T + sys.Q)
        assert lyapunov_step(sys, X).tobytes() == want.tobytes()


def test_measurement_update_never_hurts(study_systems):
    rng = np.random.default_rng(11)
    sys = study_systems[2]
    for _ in range(50):
        M = rng.normal(size=(2, 2))
        X = M @ M.T + 0.1 * np.eye(2)
        diff = X - riccati_step(sys, X)
        assert np.linalg.eigvalsh(diff).min() >= -1e-9


def test_fixed_point_property(study_systems, study_ladders):
    for sys, lad in zip(study_systems, study_ladders):
        again = riccati_step(sys, lyapunov_step(sys, lad.P_bar))
        assert np.linalg.norm(again - lad.P_bar) <= 1e-8


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValidationError, match="square"):
        LinearSystem(A=[[1.0, 0.0]], C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]],
                     Pi=np.eye(2))
    with pytest.raises(ValidationError, match="symmetric"):
        LinearSystem(A=np.eye(2) * 1.1, C=[[1.0, 0.0]],
                     Q=[[1.0, 0.5], [0.0, 1.0]], R=[[1.0]], Pi=np.eye(2))
    with pytest.raises(ValidationError, match="positive definite"):
        LinearSystem(A=np.eye(2) * 1.1, C=[[1.0, 0.0]], Q=np.eye(2),
                     R=[[0.0]], Pi=np.eye(2))
    with pytest.raises(ValidationError, match="semidefinite"):
        LinearSystem(A=np.eye(2) * 1.1, C=[[1.0, 0.0]],
                     Q=[[1.0, 2.0], [2.0, 1.0]], R=[[1.0]], Pi=np.eye(2))


def test_symmetry_check_does_not_depend_on_units():
    # the tolerance is relative to max|M|: a matrix far from symmetric is
    # refused at any scale, and an exactly symmetric one, the zero matrix
    # included, is accepted at any scale
    def system(Q, Pi=np.eye(2)):
        return LinearSystem(A=np.eye(2) * 1.1, C=np.eye(2), Q=Q,
                            R=np.eye(2), Pi=Pi)

    Q = np.array([[1e-12, 5e-13], [0.0, 1e-12]])
    for scale in (1.0, 1e12):
        with pytest.raises(ValidationError, match="'Q': not symmetric"):
            system(Q * scale)
        sym = np.array([[1e-12, 5e-13], [5e-13, 1e-12]]) * scale
        assert system(sym).Q.tobytes() == sym.tobytes()
    assert not system(np.eye(2), Pi=np.zeros((2, 2))).Pi.any()


@pytest.mark.parametrize("step", [lyapunov_step, riccati_step])
def test_step_shape_messages(step):
    # the steps check X's shape on a fast path; the messages are those of
    # _as_matrix, word for word
    sys = LinearSystem(A=np.diag([2.0, 1.5]), C=[[1.0, 1.0]], Q=np.eye(2),
                       R=[[1.0]], Pi=np.eye(2))
    for X, msg in ((np.ones(2), "expected a 2-D matrix, got shape (2,)"),
                   ([[1.0]], "expected 2 rows, got 1"),
                   (np.ones((3, 2)), "expected 2 rows, got 3"),
                   (np.ones((2, 3)), "expected 2 columns, got 3"),
                   (np.ones((2, 2, 1)),
                    "expected a 2-D matrix, got shape (2, 2, 1)")):
        with pytest.raises(ValidationError) as err:
            step(sys, X)
        assert str(err.value) == msg
    # a ragged nested list, which NumPy's conversion refuses, is a
    # ValidationError that carries NumPy's reason
    ragged = [[1.0, 2.0], [3.0]]
    with pytest.raises(ValueError) as want:
        np.asarray(ragged, dtype=float)
    with pytest.raises(ValidationError) as err:
        step(sys, ragged)
    assert str(err.value) == f"cannot read X as a matrix: {want.value}"
    # a nested list of the right shape is a matrix
    assert (step(sys, [[1, 0], [0, 1]]).tobytes()
            == step(sys, np.eye(2)).tobytes())


def test_validation_rejects_undetectable_pair():
    # the unstable mode is invisible to C
    with pytest.raises(ValidationError, match="detectable"):
        LinearSystem(A=np.diag([2.0, 0.5]), C=[[0.0, 1.0]], Q=np.eye(2),
                     R=[[1.0]], Pi=np.eye(2))


def test_validation_rejects_unstabilizable_pair():
    # C sees the unstable mode, but no process noise drives it
    with pytest.raises(ValidationError, match="stabilizable"):
        LinearSystem(A=np.diag([2.0, 0.5]), C=[[1.0, 1.0]],
                     Q=np.diag([0.0, 1.0]), R=[[1.0]], Pi=np.eye(2))


def test_stable_system_warns_but_works():
    with pytest.warns(StabilityWarning):
        sys = LinearSystem(A=[[0.5]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                           Pi=[[1.0]])
    lad = steady_state(sys)
    assert lad.P_bar[0, 0] > 0


def test_convergence_error_carries_residual(study_systems, monkeypatch):
    monkeypatch.setattr(lti_estimation, "MAX_ITER", 2)
    with pytest.raises(ConvergenceError) as err:
        steady_state(study_systems[0])
    assert err.value.residual > 0


def test_load_systems_roundtrip(tmp_path, study_systems):
    import json
    doc = [{"A": s.A.tolist(), "C": s.C.tolist(), "Q": s.Q.tolist(),
            "R": s.R.tolist(), "Pi": s.Pi.tolist()} for s in study_systems]
    path = tmp_path / "systems.json"
    path.write_text(json.dumps(doc))
    loaded = load_systems(read_json(path.read_bytes()))
    assert len(loaded) == 3
    for got, want in zip(loaded, study_systems):
        assert np.allclose(got.A, want.A)


def test_load_systems_names_offending_field():
    # shape errors use the shared document checks' wording, and every one
    # names the system and the field
    good = {"A": [[1.1]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
            "Pi": [[1.0]]}
    missing = {k: v for k, v in good.items() if k != "Pi"}
    with pytest.raises(ValidationError, match='system 0 document needs key "Pi"'):
        load_systems([missing])
    with pytest.raises(ValidationError, match="system 1 field 'A': expected a 2-D"):
        load_systems([good, {**good, "A": [1.1]}])
    with pytest.raises(ValidationError,
                       match="systems document must be a list, got dict"):
        load_systems({"A": [[1.0]]})
    with pytest.raises(ValidationError, match="systems document is empty"):
        load_systems([])
    with pytest.raises(ValidationError,
                       match="system 1 document must be a JSON object"):
        load_systems([good, [good]])
    for bad, shown in (("1.5", "'1.5'"), (True, "True"), (None, "None"),
                       ({}, "an object")):
        with pytest.raises(ValidationError, match=(
                f"system 1 field 'Q': entries must be JSON numbers, "
                f"got {shown}")):
            load_systems([good, {**good, "Q": [[bad]]}])


@settings(max_examples=40, deadline=None)
@given(a=st.floats(1.01, 3.0), q=st.floats(0.01, 5.0), r=st.floats(0.01, 5.0))
def test_scalar_steady_state_matches_closed_form(a, q, r):
    sys = LinearSystem(A=[[a]], C=[[1.0]], Q=[[q]], R=[[r]], Pi=[[1.0]])
    b = q + r - a * a * r
    p_exact = (-b + math.sqrt(b * b + 4 * a * a * q * r)) / (2 * a * a)
    assert steady_state(sys).P_bar[0, 0] == pytest.approx(p_exact, rel=1e-7)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prediction_step_is_monotone(seed):
    import warnings

    from hypothesis import assume
    rng = np.random.default_rng(seed)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            sys = LinearSystem(A=rng.normal(size=(2, 2)) + np.eye(2) * 1.5,
                               C=[[1.0, 0.3]], Q=np.eye(2), R=[[1.0]],
                               Pi=np.eye(2))
    except ValidationError:
        assume(False)
    M1 = rng.normal(size=(2, 2))
    X = M1 @ M1.T
    M2 = rng.normal(size=(2, 2))
    Y = X + M2 @ M2.T  # Y >= X
    diff = lyapunov_step(sys, Y) - lyapunov_step(sys, X)
    assert np.linalg.eigvalsh(diff).min() >= -1e-9


def rescaled(sys, state=1.0, measurement=1.0):
    """The same system in other units: the state multiplied by `state`
    (Q and Pi by its square, C divided by it) and the measurement by
    `measurement` (C multiplied by it, R by its square).  P_bar scales by
    state^2 and does not depend on the measurement units."""
    return LinearSystem(A=sys.A, C=sys.C / state * measurement,
                        Q=sys.Q * state * state,
                        R=sys.R * measurement * measurement,
                        Pi=sys.Pi * state * state, name=sys.name)


def unit_systems():
    """The bundled study, three random unstable systems and the first
    study system started from Pi = 0, whose tolerances scale with Q."""
    from conftest import random_unstable_system
    rng = np.random.default_rng(14)
    first = bundled_systems()[0]
    return bundled_systems() + [random_unstable_system(rng, f"random {i}")
                                for i in range(3)] + [LinearSystem(
        A=first.A, C=first.C, Q=first.Q, R=first.R, Pi=np.zeros((2, 2)),
        name="Pi = 0")]


UNIT_EXPONENTS = list(range(-8, 9)) + [-75, 75, -150, 150]


@pytest.mark.parametrize("kind", ["state", "measurement", "both"])
def test_steady_state_does_not_depend_on_units(kind):
    # a change of units scales P_bar by the state scale squared, to a few
    # ulps, and keeps the iteration count; 10^±150 puts the covariances
    # at 10^±300, where d . d over- or underflows ("both" at 10^150 is Q,
    # R and Pi times 10^300, which used to stop after one step)
    for sys in unit_systems():
        ref = steady_state(sys)
        for e in UNIT_EXPONENTS:
            s = float(f"1e{e}")
            state, measurement = {"state": (s, 1.0), "measurement": (1.0, s),
                                  "both": (s, s)}[kind]
            got = steady_state(rescaled(sys, state, measurement))
            want = ref.P_bar * state * state
            assert got.iterations == ref.iterations, (sys.name, e)
            ulp = np.spacing(np.abs(want).max())
            assert np.abs(got.P_bar - want).max() <= 8 * ulp, (sys.name, e)
            assert got.residual <= max(8e-8 * state * state,
                                       1e-14 * np.abs(want).max())


def test_steady_state_past_the_float_range_refuses_or_is_right():
    # from 10^±150 to 10^±170 (covariances near or past the float range,
    # or subnormal) a result is the scaled P_bar; anything else raises
    answered = 0
    for sys in bundled_systems():
        ref = steady_state(sys)
        for e in [x / 2 for x in range(300, 341)]:
            for sign in (1, -1):
                s = 10.0 ** (sign * e)
                with np.errstate(over="ignore", under="ignore"):
                    for state, measurement in ((s, 1.0), (1.0, s), (s, s)):
                        try:
                            got = steady_state(
                                rescaled(sys, state, measurement))
                        except (ConvergenceError, ValidationError):
                            continue
                        want = ref.P_bar * state * state
                        rel = np.abs(got.P_bar - want).max() / np.abs(
                            want).max()
                        assert rel <= 1e-14 and got.iterations == ref.iterations
                        answered += 1
    assert answered > 0


def test_zero_process_noise_has_a_zero_steady_state():
    # Q = 0 passes only with a strictly stable A, whose fixed point is 0;
    # a relative stop would wait for the iterates to underflow to it
    for a in (0.5, 0.999):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            sys = LinearSystem(A=[[a, 0.0], [0.0, 0.5]], C=[[0.0, 1.0]],
                               Q=np.zeros((2, 2)), R=[[1.0]], Pi=np.eye(2))
        lad = steady_state(sys)
        assert lad.P_bar.tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert (lad.iterations, lad.residual) == (0, 0.0)
        assert np.array_equal(riccati_step(sys, lyapunov_step(sys, lad.P_bar)),
                              lad.P_bar)


def test_subnormal_steady_state_is_refused():
    sys = bundled_systems()[0]
    with pytest.raises(ConvergenceError, match="below the normal float"):
        steady_state(rescaled(sys, state=1e-160))


@pytest.mark.parametrize("pi", [1e-12, 1e-6, 1e6, 1e12])
def test_scipy_dare_oracle_from_any_starting_covariance(pi):
    # Pi is only the starting point: a diffuse or a tiny one must reach the
    # DARE solution as closely as Pi = I does (a step tolerance scaled by
    # Pi stopped 1e-4 short at Pi = 1e6 I)
    from conftest import random_unstable_system
    rng = np.random.default_rng(26)
    systems = bundled_systems() + [random_unstable_system(rng, f"random {i}")
                                   for i in range(10)]
    for sys in systems:
        sys = LinearSystem(A=sys.A, C=sys.C, Q=sys.Q, R=sys.R,
                           Pi=pi * np.eye(sys.n), name=sys.name)
        want = dare_steady_state(sys)
        got = steady_state(sys).P_bar
        assert (np.linalg.norm(got - want)
                <= 1e-8 * np.linalg.norm(want)), (sys.name, pi)


def test_step_norm_is_overflow_safe():
    # sqrt(d . d) where it is a normal number, else a rescaled sum
    frob = lti_estimation._frobenius
    d = np.array([3.0, -4.0])
    assert frob(d) == 5.0
    with np.errstate(over="ignore"):
        assert frob(d * 1e300) == 5e300
        assert frob(np.array([1.5e308, 1.5e308])) == math.inf
    assert frob(d * 1e-300) == pytest.approx(5e-300, rel=1e-15)
    assert frob(np.zeros(3)) == 0.0
    assert math.isnan(frob(np.array([1.0, math.nan])))
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = rng.normal(size=9)
        assert frob(d) == float(np.linalg.norm(d))


def test_covariance_tests_do_not_depend_on_channel_units():
    # a second output measured in units 10^5 times smaller multiplies its
    # row of C by 10^5 and its variance by 10^10; a second state in such
    # units does the same to Q, Pi and A's and C's entries.  Neither moves
    # the verdicts, and P_bar follows the state units to the loop's
    # accuracy, relative to its Frobenius norm
    base = bundled_systems()[0]
    two = LinearSystem(A=base.A, C=np.vstack([base.C, [[0.0, 1.0]]]),
                       Q=base.Q, R=np.eye(2), Pi=base.Pi)
    T = np.diag([1.0, 1e5])
    for sys in (two, base):
        ref = steady_state(sys)
        m = sys.m
        out = np.diag([1.0] * (m - 1) + [1e5])
        for Tx, Ty in ((np.eye(2), out), (T, np.eye(m)), (T, out)):
            Ti = np.linalg.inv(Tx)
            got = steady_state(LinearSystem(
                A=Tx @ sys.A @ Ti, C=Ty @ sys.C @ Ti, Q=Tx @ sys.Q @ Tx,
                R=Ty @ sys.R @ Ty, Pi=Tx @ sys.Pi @ Tx))
            want = Tx @ ref.P_bar @ Tx
            assert (np.linalg.norm(got.P_bar - want)
                    <= 1e-8 * np.linalg.norm(want))
    # correlation 2 between channels of any units is not a covariance
    for s in (1.0, 1e5, 1e-5):
        with pytest.raises(ValidationError, match="positive definite"):
            LinearSystem(A=base.A, C=np.vstack([base.C, [[0.0, s]]]),
                         Q=base.Q, R=[[1.0, 2 * s], [2 * s, s * s]],
                         Pi=base.Pi)
        with pytest.raises(ValidationError, match="semidefinite"):
            LinearSystem(A=base.A, C=base.C, Q=base.Q,
                         Pi=[[1.0, 2 * s], [2 * s, s * s]], R=base.R)


def test_covariance_tests_are_relative_to_the_matrix():
    # a well-conditioned covariance is accepted on any scale; one whose
    # least eigenvalue is negative, or zero where PD is asked, is not
    for s in (1e-11, 1e-200, 1e200):
        LinearSystem(A=[[2.0]], C=[[1.0]], Q=[[s]], R=[[s]], Pi=[[s]])
        with pytest.raises(ValidationError, match="positive definite"):
            LinearSystem(A=[[2.0]], C=[[1.0]], Q=[[1.0]], R=[[0.0]],
                         Pi=[[1.0]])
        with pytest.raises(ValidationError, match="semidefinite"):
            LinearSystem(A=np.diag([2.0, 0.5]), C=[[1.0, 1.0]],
                         Q=[[s, 2 * s], [2 * s, s]], R=[[1.0]], Pi=np.eye(2))
        with pytest.raises(ValidationError, match="semidefinite"):
            LinearSystem(A=[[2.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                         Pi=[[-s]])


def test_pbh_test_does_not_depend_on_units():
    # the rank test runs on a balanced stack, so C or sqrt(Q) on any scale
    # keeps the verdict, detectable or not
    for s in (1e-150, 1e-20, 1.0, 1e20, 1e150):
        LinearSystem(A=np.diag([2.0, 0.5]), C=[[s, s]], Q=np.eye(2) * s * s,
                     R=[[1.0]], Pi=np.eye(2))
        with pytest.raises(ValidationError, match="detectable"):
            LinearSystem(A=np.diag([2.0, 0.5]), C=[[0.0, s]], Q=np.eye(2),
                         R=[[1.0]], Pi=np.eye(2))
        with pytest.raises(ValidationError, match="stabilizable"):
            LinearSystem(A=np.diag([2.0, 0.5]), C=[[1.0, 1.0]],
                         Q=np.diag([0.0, s * s]), R=[[1.0]], Pi=np.eye(2))


def test_fixed_point_reference_follows_the_stop_rule():
    # from other starting covariances, diffuse ones included, the loop and
    # the reference stop at the same step with the same bits
    for sys in bundled_systems():
        for pi in (4.0, 1e6):
            sys = LinearSystem(A=sys.A, C=sys.C, Q=sys.Q, R=sys.R,
                               Pi=pi * np.eye(2))
            lad = steady_state(sys)
            X, iterations = fixed_point_reference(sys)
            assert lad.iterations == iterations
            assert (lad.P_bar.tobytes()
                    == lti_estimation._symmetrize(X).tobytes())


# numpy.linalg._umath_linalg is private: hidden outright, or present
# without the gufuncs, the package must import and keep every bit
_HIDE_GUFUNCS = {
    "module": "sys.modules['numpy.linalg._umath_linalg'] = None",
    "gufuncs": "sys.modules['numpy.linalg._umath_linalg'] = "
               "types.ModuleType('numpy.linalg._umath_linalg')",
}


@pytest.mark.parametrize("hide", sorted(_HIDE_GUFUNCS))
def test_solves_fall_back_without_numpys_private_gufuncs(hide):
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path
    here = Path(__file__).resolve().parent
    script = "\n".join([
        "import json, sys, types",
        "import numpy.linalg",
        "del numpy.linalg._umath_linalg",
        _HIDE_GUFUNCS[hide],
        "import conftest",
        "print(json.dumps(conftest.solver_probe()))"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout)
    want = solver_probe()
    assert got.pop("solvers") == ["_solve_or_nan"] * 2
    assert want.pop("solvers") == ["solve", "solve1"]
    assert got == want
    assert want["singular_S"] == "system: innovation covariance is singular"
    assert want["singular_basis"] == "simplex basis became singular"
