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
the cost of going t slots without a packet.  One routine,
`_extend_ladders`, steps every ladder: the ladders it is given that share
a state dimension step together, as one stack of matrices whose slices
keep the bits of `lyapunov_step`.

The update's float operations live in one private kernel,
`_riccati_update`, which takes its one solve as an argument.  The public
`riccati_step` checks X and solves through np.linalg.solve, so a singular
innovation covariance raises NumericalError.  `steady_state`'s loop, which
makes thousands of updates on near-marginal systems, calls the kernel
with the bare LAPACK gufunc behind np.linalg.solve (the same bits, none of
its per-call checks; np.linalg.solve itself on a NumPy without it) and
turns to `riccati_step` only on a step that left a non-finite iterate,
where that singular check lives.  Its tolerances are relative to the
iterate, so neither a change of units nor the starting covariance Pi
changes the accuracy it stops at.

`load_systems` parses a decoded systems document, whose matrix entries
must be finite JSON numbers; it does no I/O, so the caller that read the
bytes also hashes them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from .errors import (ConvergenceError, NumericalError, StabilityWarning,
                     ValidationError, json_list, json_object, read_json)

# a covariance, its channels scaled to unit variance, must have a least
# eigenvalue above -PSD_TOL (PSD) or PSD_TOL (PD) times its largest
PSD_TOL = 1e-9
INSTABILITY_TOL = 1e-12
# steady_state stops once its estimate of the iterate's distance to the
# fixed point is at most STEP_TOL times the iterate's norm, and requires a
# fixed-point residual of at most RESIDUAL_TOL times that norm
RESIDUAL_TOL = 1e-8
STEP_TOL = 5e-10
# steady_state gives up (ConvergenceError) after this many fixed-point steps
MAX_ITER = 100_000
# _extend_ladders steps ladders in blocks of 2, 4, 8, ... iterates, up to
# this many, and reads each block's traces at once
_BLOCK_CAP = 4096
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


def _ordered_sum(values) -> float:
    """Every float total in the package: left to right from 0, as sum() did
    up to Python 3.11 (3.12 compensates), so no bit hangs on the version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _block_sizes(count: int):
    """Block lengths 2, 4, 8, ... (at most _BLOCK_CAP) that add up to count.

    A loop that stops stepping at the end of the block that holds the
    first bad trace has then taken at most twice the steps of a loop that
    stops at that trace: each block is at most 2 longer than all the blocks
    before it together."""
    size = 2
    while count > 0:
        yield min(size, count)
        count -= size
        size = min(2 * size, _BLOCK_CAP)


def _symmetrize(X):
    H = X * 0.5  # halved before the sum, which may pass the float range
    return H + H.T


def _check_symmetric(M, tol=PSD_TOL):
    return bool(np.all(np.abs(M - M.T) <= tol * np.abs(M).max(initial=0.0)))


def _min_eigenvalue(M):
    return float(np.linalg.eigvalsh(M)[0])


def _balanced_eigenvalue_range(M):
    """The least and largest eigenvalues of the symmetric M with each
    channel scaled to unit variance, D^-1/2 M D^-1/2 for D = |diag(M)|
    (a zero diagonal entry left unscaled).  A change of units of any one
    state or output scales its row and column of M, which this undoes, so
    the PD/PSD verdicts do not depend on the units.  An entry that
    overflows there is far past any PSD matrix's and counts as -inf."""
    d = np.abs(M.diagonal())
    unit = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        B = M * unit[:, None] * unit
    if not np.isfinite(B).all():
        return -math.inf, 1.0
    eig = np.linalg.eigvalsh(B)
    return float(eig[0]), float(eig[-1])


_TINY = float(np.finfo(float).tiny)


def _frobenius(d) -> float:
    """The Frobenius norm of a raveled matrix: sqrt(d . d), the bits of
    np.linalg.norm(., "fro").  When d . d leaves the normal float range
    (it overflows, or underflows below the least normal number) the norm is
    taken of d over its largest magnitude and scaled back, so it overflows
    only past the float range itself; NaN stays NaN.  Callers run it under
    np.errstate(over="ignore"), as d . d may overflow."""
    sq = d.dot(d)
    if _TINY <= sq < math.inf:
        return math.sqrt(sq)
    top = float(np.abs(d).max(initial=0.0))
    if not 0.0 < top < math.inf:
        return top
    d = d / top
    return top * math.sqrt(d.dot(d))


def _psd_sqrt(M):
    """Symmetric PSD square root via eigendecomposition."""
    w, V = np.linalg.eigh(_symmetrize(M))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def _pbh(A, B, stack) -> bool:
    """PBH test: stack([A - lam I, B]) has rank n at every eigenvalue lam of
    A on or outside the unit circle.  np.vstack with B = C tests that
    (A, C) is detectable, np.hstack that (A, B) is stabilizable.  The
    stack is balanced first: B's rows (vstack) or columns (hstack) are
    scaled to the norm of A - lam I (to 1 where A = lam I), which leaves
    the rank as it is and keeps matrix_rank's tolerance, relative to the
    largest singular value, from hanging on the units of B."""
    n = A.shape[0]
    axis = 1 if stack is np.vstack else 0
    top = np.abs(B).max(axis=axis, keepdims=True)
    unit = np.divide(1.0, top, out=np.zeros_like(top), where=top > 0)
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - PSD_TOL:
            shifted = A - lam * np.eye(n)
            size = np.linalg.norm(shifted) or 1.0
            M = stack([shifted, (B * unit * size).astype(complex)])
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
        if not _pbh(self.A, self.C, np.vstack):
            raise ValidationError(
                f"{self.name}: (A, C) is not detectable; the steady-state "
                f"error covariance does not exist")
        if not _pbh(self.A, _psd_sqrt(self.Q), np.hstack):
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
        M = _symmetrize(M)
        lo, top = _balanced_eigenvalue_range(M)
        if kind == "pd" and lo <= PSD_TOL * top:
            raise ValidationError(
                f"{self.name} field '{fname}': must be positive definite "
                f"(min eigenvalue {_min_eigenvalue(M):.3g})")
        if kind == "psd" and lo < -PSD_TOL * top:
            raise ValidationError(
                f"{self.name} field '{fname}': must be positive semidefinite "
                f"(min eigenvalue {_min_eigenvalue(M):.3g})")
        return M

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
    """One open-loop covariance prediction: A X A' + Q, symmetrized.

    The covariance series and the trace ladder take one step per slot or
    entry, so the symmetrization is written out here: the float operations
    of `_symmetrize`, without its call, and X is checked with one
    conversion and one shape comparison; `_as_matrix` runs only to raise
    its message.  A nested list NumPy cannot read as a float array, such as
    a ragged one, raises ValidationError.
    """
    try:
        X = np.asarray(X, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"cannot read X as a matrix: {exc}") from None
    if X.shape != sys.A.shape:
        _as_matrix(X, rows=sys.n, cols=sys.n)
    H = (sys.A @ X @ sys.A.T + sys.Q) * 0.5
    return H + H.T


def _solve_or_nan(a, b):
    """np.linalg.solve(a, b), or NaN of b's shape for a singular a."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.full(np.shape(b), np.nan)


def lapack_solver(name: str):
    """The LAPACK gesv gufunc `name` of NumPy's private
    numpy.linalg._umath_linalg: "solve" for a 2-D right-hand side, "solve1"
    for a vector.  np.linalg.solve(a, b) calls it on 2-D float64 a and
    float64 b and returns its result as is, so the two give the same bits;
    called bare, it skips np.linalg.solve's argument checks and error-state
    block, and a singular a fills the result with NaN (raising the
    "invalid" floating-point flag) instead of raising LinAlgError.  A
    NumPy without the module or the gufunc gets np.linalg.solve with the
    same NaN for a singular a, so the callers' singular checks, which look
    for NaN, raise their NumericalError either way."""
    try:
        from numpy.linalg import _umath_linalg
        return getattr(_umath_linalg, name)
    except (ImportError, AttributeError):
        return _solve_or_nan


# The LAPACK gesv gufunc behind np.linalg.solve, for two 2-D float64
# arrays: the same bits, none of its checks, NaN for a singular matrix.
_lapack_solve = lapack_solver("solve")


def _riccati_update(sys: LinearSystem, X: np.ndarray,
                    solve=_lapack_solve) -> np.ndarray:
    """The float operations of `riccati_step` on an n x n float X, with
    the solve passed in: riccati_step passes np.linalg.solve, so that a
    singular S raises; steady_state's loop keeps the bare gufunc, under
    which a singular S yields NaN."""
    C = sys.C
    CX = C @ X
    S = CX @ C.T + sys.R
    if _ordered_sum(S.diagonal().tolist()) > sys._cancellation_bound:
        K = solve(S, CX).T
        I_KC = np.eye(sys.n) - K @ C
        return _symmetrize(I_KC @ X @ I_KC.T + K @ sys.R @ K.T)
    H = (X - X @ C.T @ solve(S, CX)) * 0.5
    return H + H.T


def riccati_step(sys: LinearSystem, X) -> np.ndarray:
    """One measurement update: X - X C' (C X C' + R)^{-1} C X, symmetrized.

    When C X C' dwarfs R (the trace of S = C X C' + R exceeds
    CANCELLATION_RATIO times the trace of R) the subtraction loses every
    significant digit, and the step returns the equal Joseph form
    (I - K C) X (I - K C)' + K R K' with K = X C' S^{-1}, a sum of two
    PSD terms, instead.  Any other input takes the subtraction form, at the
    cost of one comparison.  (The information form (I + X C' R^{-1} C)^{-1}
    X is exact too, but I + X C' R^{-1} C loses its identity part to
    rounding once X is large, and is then numerically singular.)  X is
    checked as in `lyapunov_step`; the update itself is `_riccati_update`,
    which forms C X once and symmetrizes the subtraction form inline.  Its
    one solve goes through np.linalg.solve, so a singular S raises
    NumericalError and no RuntimeWarning, while the products around the
    solve run under the caller's floating-point error settings: inf * 0 in
    them, on an overflowed X, yields NaN, not a singular-S error.
    """
    try:
        X = np.asarray(X, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"cannot read X as a matrix: {exc}") from None
    if X.shape != sys.A.shape:
        _as_matrix(X, rows=sys.n, cols=sys.n)
    try:
        return _riccati_update(sys, X, np.linalg.solve)
    except np.linalg.LinAlgError:
        raise NumericalError(
            f"{sys.name}: innovation covariance is singular") from None


class SteadyState:
    """Steady-state covariance P_bar plus a lazily extended trace ladder.

    ladder entry t is Tr[h^t(P_bar)].  The ladder is an append-only cache;
    reading beyond the materialized prefix extends it to the entry read
    with `_extend_ladders`, the one routine that steps ladders, here on
    this ladder alone; the covariance series and `bounds` extend all their
    ladders in one call.  From its first non-finite trace on the ladder
    reads +inf, never NaN, and stops stepping at the end of that block;
    the iterates past it are dropped.
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
        traces = self._traces
        if len(traces) <= t and traces[-1] < math.inf:
            _extend_ladders([self], [t + 1])
        return traces[min(t, len(traces) - 1)]

    def ladder(self, upto: int) -> list[float]:
        """Traces [Tr h^0(P_bar), ..., Tr h^upto(P_bar)] as `trace` reads
        them, +inf past saturation: one extension, one list for a reader
        of many entries."""
        count, traces = max(upto + 1, 0), self._traces
        if len(traces) < count and traces[-1] < math.inf:
            _extend_ladders([self], [count])
        return traces[:count] + [math.inf] * (count - len(traces))


def _lyapunov_stack(A, X, At, Q):
    """`lyapunov_step`'s float operations on a (k, n, n) stack of iterates,
    with A, At = A' (a transposed view) and Q stacked alike.  Each slice
    keeps the bits of the 2-D step: matmul steps a stack one matrix at a
    time through the same BLAS call as a lone matrix."""
    H = (A @ X @ At + Q) * 0.5
    return H + H.swapaxes(1, 2)


def _extend_ladders(ladders, lengths) -> None:
    """Extend each ladder to hold (at least) its length of entries.

    Ladders of one state dimension n step together, as one (k, n, n)
    stack (`_lyapunov_stack`), in blocks of 2, 4, 8, ... up to _BLOCK_CAP
    steps (`_block_sizes`); the iterates of a block go into one array,
    whose traces are read at once with one batched trace, the bits of one
    trace per matrix.  A ladder that reaches its length within a block
    keeps the entries up to it.  A ladder leaves the stack at the end of
    the block that holds its first non-finite trace and reads +inf from
    there on, the entries past it dropped.  Each block is at most 2
    longer than the blocks before it together, so a ladder takes at most
    twice the steps up to its saturation.  The same ladder listed twice
    is stepped once, to the longer length.
    """
    longest: dict[SteadyState, int] = {}  # keyed by identity
    for lad, length in zip(ladders, lengths):
        longest[lad] = max(longest.get(lad, 0), length)
    groups: dict[int, list] = {}
    for lad, length in longest.items():
        traces = lad._traces
        if length <= len(traces) or traces[-1] == math.inf:
            continue
        groups.setdefault(lad.sys.n, []).append([lad, length - len(traces)])
    with np.errstate(over="ignore", invalid="ignore"):
        for n, stack in groups.items():
            A = np.stack([lad.sys.A for lad, _ in stack])
            Q = np.stack([lad.sys.Q for lad, _ in stack])
            X = np.stack([lad._frontier for lad, _ in stack])
            for size in _block_sizes(max(left for _, left in stack)):
                k = len(stack)
                block = np.empty((size, k, n, n))
                At = A.swapaxes(1, 2)
                for j in range(size):
                    X = _lyapunov_stack(A, X, At, Q)
                    block[j] = X
                got = block.reshape(size * k, n, n).trace(0, 1, 2)
                got = got.reshape(size, k)
                keep = []
                for j, entry in enumerate(stack):
                    lad, left = entry
                    take = min(size, left)
                    new = got[:take, j]
                    bad = np.flatnonzero(~np.isfinite(new))
                    if bad.size:
                        lad._traces += new[:bad[0]].tolist()
                        lad._traces.append(math.inf)
                        continue
                    lad._traces += new.tolist()
                    lad._frontier = block[take - 1, j].copy()
                    entry[1] = left - take
                    if entry[1]:
                        keep.append(j)
                if not keep:
                    break
                if len(keep) < k:
                    stack = [stack[j] for j in keep]
                    A, Q, X = A[keep], Q[keep], X[keep]


def steady_state(sys: LinearSystem) -> SteadyState:
    """Fixed-point iteration of the combined predict+update covariance map.

    Starts from Pi and iterates X <- riccati_step(lyapunov_step(X)) until
    the Frobenius change d of a step is at most
    STEP_TOL ||X||_F (1 - d / d_prev), d_prev being the previous step's
    change (infinite before the first step): d / (1 - d / d_prev)
    estimates the distance to the fixed point of a map that contracts by
    d / d_prev per step, so the stop asks for the same relative accuracy
    however slowly the map contracts.  The fixed-point residual of the
    result must be at most RESIDUAL_TOL ||X||_F.  Both are relative to the
    iterate, which converges to P_bar whatever Pi is: a change of state
    units scales P_bar and the tolerances alike, a change of measurement
    units leaves both, and Pi, only the starting point, moves neither.
    The norms are overflow-safe (`_frobenius`), and a non-finite step or
    residual is never accepted.  Raises ConvergenceError (carrying the last
    residual) if MAX_ITER steps do not converge, an iterate overflows to a
    non-finite matrix, the residual bound fails or the result is a nonzero
    matrix below the normal float range, where the iteration has lost the
    precision it asks for.  Q = 0 passes validation only with a strictly
    stable A, whose fixed point is 0 exactly; the iterates would reach it
    only by underflowing, so it is returned at once, after 0 steps.

    Each step calls `lyapunov_step` through the module's global name (so a
    tracer that rebinds it sees every step) and then the update kernel
    `_riccati_update` with the bare LAPACK solve, which costs a few
    microseconds less per step than np.linalg.solve and gives the same
    bits.  Under the bare solve a singular S yields NaN instead of an
    error, so a step whose iterate is not finite is first repeated by the
    checked `riccati_step` on the same prediction: a singular S raises its
    NumericalError at the same step as before, and anything else is the
    overflow ConvergenceError.  The residual is taken with `riccati_step`.
    """
    if not sys.Q.any():
        return SteadyState(sys, np.zeros_like(sys.Q), 0.0, iterations=0)
    X = sys.Pi.copy()
    delta = prev = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        # bound >= ||X||_F by the triangle inequality; the norm itself is
        # taken only once a step is small next to it
        bound = _frobenius(X.ravel())
        for it in range(MAX_ITER):
            P = lyapunov_step(sys, X)
            X_next = _riccati_update(sys, P)
            delta = _frobenius((X_next - X).ravel())
            if not math.isfinite(delta) and not np.isfinite(X_next).all():
                # a singular S left NaN; the checked step raises its error
                riccati_step(sys, P)
                raise ConvergenceError(
                    f"{sys.name}: steady-state iteration overflowed to a "
                    f"non-finite covariance at step {it + 1}", residual=delta)
            X = X_next
            bound += delta
            if delta <= STEP_TOL * bound and delta <= STEP_TOL * (
                    _frobenius(X.ravel()) * (1.0 - delta / prev)):
                break
            prev = delta
        else:
            raise ConvergenceError(
                f"{sys.name}: steady-state iteration did not converge in "
                f"{MAX_ITER} steps (last change {delta:.3g})", residual=delta)
        norm = _frobenius(X.ravel())
        residual = _frobenius(
            (riccati_step(sys, lyapunov_step(sys, X)) - X).ravel())
    residual_tol = RESIDUAL_TOL * norm
    if not residual <= residual_tol < math.inf:
        raise ConvergenceError(
            f"{sys.name}: converged point violates the fixed-point residual "
            f"bound ({residual:.3g} > {residual_tol:.3g})", residual=residual)
    if 0 < norm < _TINY:
        raise ConvergenceError(
            f"{sys.name}: steady-state covariance {norm:.3g} is below the "
            f"normal float range", residual=residual)
    return SteadyState(sys, X, residual, iterations=it + 1)


_SYSTEM_KEYS = ("A", "C", "Q", "R", "Pi")


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


def load_systems(doc) -> list[LinearSystem]:
    """Sensor models from a parsed systems document: a nonempty JSON array
    of objects with keys "A", "C", "Q", "R", "Pi" (row-major nested arrays
    of JSON numbers).  Validation errors name the system index and field.
    """
    if not json_list(doc, "systems document"):
        raise ValidationError("systems document is empty")
    out = []
    for i, entry in enumerate(doc):
        json_object(entry, _SYSTEM_KEYS, f"system {i}")
        for key in _SYSTEM_KEYS:
            _check_numbers(entry[key], f"system {i} field '{key}'")
        out.append(LinearSystem(**{key: entry[key] for key in _SYSTEM_KEYS},
                                name=f"system {i}"))
    return out


def bundled_systems() -> list[LinearSystem]:
    """The packaged three-sensor study used by the paper's examples."""
    ref = resources.files("schedsec") / "data" / "three_sensor_study.json"
    return load_systems(read_json(ref.read_bytes()))
