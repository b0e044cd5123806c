"""Steady-state Kalman filtering machinery for scalar/vector LTI processes.

A sensor observes x(k+1) = A x(k) + w(k), y(k) = C x(k) + v(k) with
w ~ N(0, Q), v ~ N(0, R), and runs a local Kalman filter.  The two maps that
drive everything downstream are the covariance prediction step

    lyapunov_step:  X -> A X A' + Q

and the measurement-update step

    riccati_step:   X -> X - X C' (C X C' + R)^{-1} C X.

Their composition has a unique positive semidefinite fixed point P_bar (the
steady-state estimation error covariance) whenever (A, C) is detectable and
(A, sqrt(Q)) is stabilizable.  The trace ladder t -> Tr[h^t(P_bar)] prices
the cost of going t slots without a packet.  `load_systems` reads the JSON
systems document, whose matrix entries must be finite JSON numbers.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from .errors import (ConvergenceError, NumericalError, StabilityWarning,
                     ValidationError, read_json)

PSD_TOL = 1e-9
INSTABILITY_TOL = 1e-12
RESIDUAL_TOL = 1e-8
# steady_state stops once a step moves the iterate by at most this much
# (or by a few ulps of a large iterate)
STEP_TOL = 1e-10
# steady_state gives up (ConvergenceError) after this many fixed-point steps
MAX_ITER = 100_000
# Tr(C X C' + R) above this multiple of Tr(R) makes the update's
# subtraction X - X C' S^-1 C X cancel to noise, so riccati_step switches
# to the Joseph form
CANCELLATION_RATIO = 1e8


def _as_matrix(value, rows=None, cols=None):
    # no copy of a float array: no caller writes into the matrix it gets
    M = np.asarray(value, dtype=float)
    if M.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got shape {M.shape}")
    if rows is not None and M.shape[0] != rows:
        raise ValidationError(f"expected {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise ValidationError(f"expected {cols} columns, got {M.shape[1]}")
    return M


def _symmetrize(X):
    return (X + X.T) / 2.0


def _check_symmetric(M, tol=PSD_TOL):
    return bool(np.all(np.abs(M - M.T) <= tol * (1.0 + np.abs(M).max(initial=0.0))))


def _min_eigenvalue(M):
    return float(np.linalg.eigvalsh(_symmetrize(M)).min())


def _psd_sqrt(M):
    """Symmetric PSD square root via eigendecomposition."""
    w, V = np.linalg.eigh(_symmetrize(M))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def _pbh_detectable(A, C):
    """PBH test: every eigenvalue of A on or outside the unit circle must be
    observable through C."""
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - PSD_TOL:
            M = np.vstack([A - lam * np.eye(n), C.astype(complex)])
            if np.linalg.matrix_rank(M) < n:
                return False
    return True


def _pbh_stabilizable(A, B):
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - PSD_TOL:
            M = np.hstack([A - lam * np.eye(n), B.astype(complex)])
            if np.linalg.matrix_rank(M) < n:
                return False
    return True


@dataclass(eq=False)
class LinearSystem:
    """One sensor's process and measurement model.

    A: n x n state matrix, C: m x n output matrix, Q: n x n process noise
    covariance (PSD), R: m x m measurement noise covariance (PD), Pi: n x n
    initial state covariance (PSD).  `name` is used to prefix validation
    error messages, e.g. the loader sets it to "system 2".
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Pi: np.ndarray
    name: str = "system"

    def __post_init__(self):
        self.A = self._matrix("A", self.A)
        n = self.A.shape[1]
        if self.A.shape[0] != n:
            raise ValidationError(f"{self.name} field 'A': must be square, got {self.A.shape}")
        self.C = self._matrix("C", self.C, cols=n)
        m = self.C.shape[0]
        self.Q = self._cov("Q", self.Q, n, kind="psd")
        self.R = self._cov("R", self.R, m, kind="pd")
        self.Pi = self._cov("Pi", self.Pi, n, kind="psd")
        if not _pbh_detectable(self.A, self.C):
            raise ValidationError(
                f"{self.name}: (A, C) is not detectable; the steady-state "
                f"error covariance does not exist")
        if not _pbh_stabilizable(self.A, _psd_sqrt(self.Q)):
            raise ValidationError(
                f"{self.name}: (A, sqrt(Q)) is not stabilizable; the "
                f"steady-state error covariance is not defined")
        if not self.is_unstable:
            warnings.warn(
                f"{self.name}: spectral radius {self.spectral_radius:.6g} <= 1; "
                f"the process is not strictly unstable and blocked sensors "
                f"will not diverge", StabilityWarning, stacklevel=2)

    def _matrix(self, fname, value, rows=None, cols=None):
        """A finite 2-D float matrix; errors name the system and the field."""
        try:
            M = np.array(value, dtype=float)
            if not np.isfinite(M).all():
                raise ValidationError("entries must be finite")
            return _as_matrix(M, rows=rows, cols=cols)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{self.name} field '{fname}': {exc}") from None

    def _cov(self, fname, value, size, kind):
        M = self._matrix(fname, value, rows=size, cols=size)
        if not _check_symmetric(M):
            raise ValidationError(f"{self.name} field '{fname}': not symmetric")
        lo = _min_eigenvalue(M)
        if kind == "pd" and lo <= PSD_TOL:
            raise ValidationError(
                f"{self.name} field '{fname}': must be positive definite "
                f"(min eigenvalue {lo:.3g})")
        if kind == "psd" and lo < -PSD_TOL:
            raise ValidationError(
                f"{self.name} field '{fname}': must be positive semidefinite "
                f"(min eigenvalue {lo:.3g})")
        return _symmetrize(M)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(np.linalg.eigvals(self.A)).max())

    @property
    def is_unstable(self) -> bool:
        return self.spectral_radius > 1.0 + INSTABILITY_TOL

    @cached_property
    def _cancellation_bound(self) -> float:
        return CANCELLATION_RATIO * float(np.trace(self.R))


def lyapunov_step(sys: LinearSystem, X) -> np.ndarray:
    """One open-loop covariance prediction: A X A' + Q, symmetrized."""
    X = _as_matrix(X, rows=sys.n, cols=sys.n)
    return _symmetrize(sys.A @ X @ sys.A.T + sys.Q)


def riccati_step(sys: LinearSystem, X) -> np.ndarray:
    """One measurement update: X - X C' (C X C' + R)^{-1} C X, symmetrized.

    When C X C' dwarfs R (the trace of S = C X C' + R exceeds
    CANCELLATION_RATIO times the trace of R) the subtraction loses every
    significant digit, and the step returns the equal Joseph form
    (I - K C) X (I - K C)' + K R K' with K = X C' S^{-1}, a sum of two
    PSD terms, instead.  Any other input takes the subtraction form, at the
    cost of one comparison.  (The information form (I + X C' R^{-1} C)^{-1}
    X is exact too, but I + X C' R^{-1} C loses its identity part to
    rounding once X is large, and is then numerically singular.)
    """
    X = _as_matrix(X, rows=sys.n, cols=sys.n)
    S = sys.C @ X @ sys.C.T + sys.R
    try:
        if sum(S.diagonal().tolist()) > sys._cancellation_bound:
            K = np.linalg.solve(S, sys.C @ X).T
            I_KC = np.eye(sys.n) - K @ sys.C
            return _symmetrize(I_KC @ X @ I_KC.T + K @ sys.R @ K.T)
        gain = np.linalg.solve(S, sys.C @ X)
    except np.linalg.LinAlgError:
        raise NumericalError(
            f"{sys.name}: innovation covariance is singular") from None
    return _symmetrize(X - X @ sys.C.T @ gain)


class SteadyState:
    """Steady-state covariance P_bar plus a lazily extended trace ladder.

    ladder entry t is Tr[h^t(P_bar)].  The ladder is an append-only cache;
    reading beyond the materialized prefix extends it in place, which is safe
    to share across threads holding the GIL.
    """

    def __init__(self, sys: LinearSystem, P_bar: np.ndarray, residual: float,
                 iterations: int):
        self.sys = sys
        self.P_bar = _symmetrize(np.array(P_bar, dtype=float))
        self.residual = float(residual)
        self.iterations = int(iterations)
        self._frontier = self.P_bar.copy()
        self._traces = [float(np.trace(self.P_bar))]

    def trace(self, t: int) -> float:
        """Tr[h^t(P_bar)]; extends the ladder on demand."""
        if t < 0:
            raise ValidationError(f"ladder index must be >= 0, got {t}")
        while len(self._traces) <= t:
            self._frontier = lyapunov_step(self.sys, self._frontier)
            self._traces.append(float(np.trace(self._frontier)))
        return self._traces[t]

    def ladder(self, upto: int) -> list[float]:
        """Traces [Tr h^0(P_bar), ..., Tr h^upto(P_bar)]."""
        self.trace(upto)
        return self._traces[: upto + 1]


def steady_state(sys: LinearSystem) -> SteadyState:
    """Fixed-point iteration of the combined predict+update covariance map.

    Starts from Pi and iterates X <- riccati_step(lyapunov_step(X)) until the
    Frobenius change is at most max(STEP_TOL, 4 eps ||X||_F), eps being the
    float64 machine epsilon: a large covariance cannot move by less than a
    few ulps per step.  The fixed-point residual of the result must be at
    most max(RESIDUAL_TOL, 8 eps ||X||_F).  Raises ConvergenceError
    (carrying the last residual) if MAX_ITER steps do not converge, an iterate
    overflows to a non-finite matrix or the residual bound fails.
    """
    eps = np.finfo(float).eps
    X = sys.Pi.copy()
    delta = np.inf
    # bound >= ||X||_F by the triangle inequality; the norm itself is taken
    # only once a step is small next to it
    bound = float(np.linalg.norm(X, "fro"))
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(MAX_ITER):
            X_next = riccati_step(sys, lyapunov_step(sys, X))
            delta = float(np.linalg.norm(X_next - X, "fro"))
            if not math.isfinite(delta) and not np.isfinite(X_next).all():
                raise ConvergenceError(
                    f"{sys.name}: steady-state iteration overflowed to a "
                    f"non-finite covariance at step {it + 1}", residual=delta)
            X = X_next
            bound += delta
            if delta <= STEP_TOL or (
                    delta <= 8 * eps * bound
                    and delta <= 4 * eps * float(np.linalg.norm(X, "fro"))):
                break
        else:
            raise ConvergenceError(
                f"{sys.name}: steady-state iteration did not converge in "
                f"{MAX_ITER} steps (last change {delta:.3g})", residual=delta)
    residual = float(np.linalg.norm(riccati_step(sys, lyapunov_step(sys, X)) - X, "fro"))
    residual_tol = max(RESIDUAL_TOL, 8 * eps * float(np.linalg.norm(X, "fro")))
    if residual > residual_tol:
        raise ConvergenceError(
            f"{sys.name}: converged point violates the fixed-point residual "
            f"bound ({residual:.3g} > {residual_tol:.3g})", residual=residual)
    return SteadyState(sys, X, residual, iterations=it + 1)


def _check_numbers(value, where: str):
    """Every leaf of a nested JSON array must be a JSON number; strings,
    booleans, nulls and objects are refused rather than coerced."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            got = "an object" if isinstance(v, dict) else repr(v)
            raise ValidationError(
                f"{where}: entries must be JSON numbers, got {got}")


def load_systems(source) -> list[LinearSystem]:
    """Load sensor models from a JSON array of objects with keys
    "A", "C", "Q", "R", "Pi" (row-major nested arrays of JSON numbers).

    `source` may be a path, an open text file or an already parsed array.
    Validation errors name the offending system index and field.
    """
    if isinstance(source, (str, os.PathLike)) or hasattr(source, "read"):
        doc = read_json(source)
    else:
        doc = source
    if not isinstance(doc, list):
        raise ValidationError("systems document must be a JSON array")
    if not doc:
        raise ValidationError("systems document is empty")
    out = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ValidationError(f"system {i}: expected an object, got {type(entry).__name__}")
        for key in ("A", "C", "Q", "R", "Pi"):
            if key not in entry:
                raise ValidationError(f"system {i} field '{key}': missing")
            _check_numbers(entry[key], f"system {i} field '{key}'")
        out.append(LinearSystem(A=entry["A"], C=entry["C"], Q=entry["Q"],
                                R=entry["R"], Pi=entry["Pi"], name=f"system {i}"))
    return out


def bundled_systems() -> list[LinearSystem]:
    """The packaged three-sensor study used by the paper's examples."""
    ref = resources.files("schedsec") / "data" / "three_sensor_study.json"
    with ref.open("r", encoding="utf-8") as fh:
        return load_systems(fh)
