import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import steady_state_doubling
from schedsec import lti_estimation
from schedsec.errors import ConvergenceError, StabilityWarning, ValidationError
from schedsec.lti_estimation import (LinearSystem, load_systems, lyapunov_step,
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


def test_trace_ladder_golden(study_ladders):
    lad = study_ladders[0]
    for t, gold in enumerate(GOLDEN_LADDER_0):
        assert lad.trace(t) == pytest.approx(gold, rel=1e-8)
    assert lad.ladder(5) == [lad.trace(t) for t in range(6)]


def test_trace_ladder_is_lazy_and_consistent(study_systems, study_ladders):
    lad = study_ladders[1]
    sys = study_systems[1]
    P = lad.P_bar.copy()
    for t in range(12):
        assert lad.trace(t) == pytest.approx(float(np.trace(P)), rel=1e-12)
        P = lyapunov_step(sys, P)


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


def test_validation_rejects_undetectable_pair():
    # the unstable mode is invisible to C
    with pytest.raises(ValidationError, match="detectable"):
        LinearSystem(A=np.diag([2.0, 0.5]), C=[[0.0, 1.0]], Q=np.eye(2),
                     R=[[1.0]], Pi=np.eye(2))


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
    loaded = load_systems(str(path))
    assert len(loaded) == 3
    for got, want in zip(loaded, study_systems):
        assert np.allclose(got.A, want.A)


def test_load_systems_names_offending_field(tmp_path):
    import json
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"A": [[1.1]], "C": [[1.0]], "Q": [[1.0]],
                                 "R": [[1.0]]}]))
    with pytest.raises(ValidationError, match="system 0.*'Pi'"):
        load_systems(str(path))
    good = {"A": [[1.1]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
            "Pi": [[1.0]]}
    with pytest.raises(ValidationError, match="system 1 field 'A': expected a 2-D"):
        load_systems([good, {**good, "A": [1.1]}])
    with pytest.raises(ValidationError, match="array"):
        load_systems({"A": [[1.0]]})
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
