"""Dense two-phase primal simplex for small box-constrained LPs.

Solves   min c.x   s.t.  A x <= b,  lower <= x <= upper.

Written for the small relaxations that appear in the spoofing search: at
most a few hundred columns and a few dozen rows.  Every iteration solves
against the current basis from scratch (no factorization is updated or
kept between pivots) and prices every column at once.  Bounds may pin
variables (lower == upper) and uppers may be infinite.  Bland's rule is
used for both the entering and the leaving choice, which rules out
cycling; bound flips are taken whenever the entering variable reaches its
opposite bound first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .lti_estimation import lapack_solver

_RATIO_EPS = 1e-11

# nonbasic variables sit at a bound: +1 at the lower, -1 at the upper, so
# that status * d < -tol marks a reduced cost d that improves the
# objective; 0 marks a basic variable
_LOWER, _UPPER, _BASIC = 1, -1, 0

# The LAPACK gesv gufunc that np.linalg.solve(a, b) calls for a 2-D
# float64 a and a 1-D b: the same bits, none of its checks, NaN for a
# singular matrix.
_solve = lapack_solver("solve1")


@dataclass
class LpResult:
    status: str              # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    iterations: int


def _simplex_loop(Abar, b, cost, lower, upper, basis, status, tol, max_iter):
    """Core bounded-variable iteration; mutates basis/status and returns
    (iterations, x): x is the basic solution the phase ends on, None on an
    unbounded ray.  `basis` is an index array and `status` an int8 array
    of _LOWER/_UPPER/_BASIC codes."""
    m = Abar.shape[0]
    movable = upper - lower > _RATIO_EPS
    lo, hi = lower.tolist(), upper.tolist()
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for it in range(max_iter):
            B = Abar[:, basis]
            y = _solve(B.T, cost[basis])
            nb = status != _BASIC
            x = np.where(status == _UPPER, upper, lower)
            x_B = _solve(B, b - Abar[:, nb] @ x[nb])
            # a singular basis fills both solves with NaN, and a sum of
            # squares is NaN only if one of its entries is
            if math.isnan(x_B.dot(x_B) + y.dot(y)):
                raise NumericalError("simplex basis became singular")
            # entering variable: Bland's rule, the lowest index whose
            # reduced cost improves the objective
            d = cost - y @ Abar
            eligible = np.flatnonzero((status * d < -tol) & movable & nb)
            if not eligible.size:
                x[basis] = x_B
                return it, x  # optimal for this phase
            enter = int(eligible[0])
            sigma = float(status[enter])
            w = _solve(B, Abar[:, enter]).tolist()
            x_B = x_B.tolist()
            rows = basis.tolist()
            # ratio test: how far can the entering variable move
            t_best = hi[enter] - lo[enter]
            leave = -1
            leave_to = _BASIC
            for i in range(m):
                g = sigma * w[i]
                if g > _RATIO_EPS:
                    t_i = (x_B[i] - lo[rows[i]]) / g
                    hit = _LOWER
                elif g < -_RATIO_EPS:
                    t_i = (x_B[i] - hi[rows[i]]) / g
                    hit = _UPPER
                else:
                    continue
                t_i = max(t_i, 0.0)
                if (t_i < t_best - _RATIO_EPS
                        or (t_i < t_best + _RATIO_EPS
                            and (leave < 0 or rows[i] < rows[leave]))):
                    t_best, leave, leave_to = t_i, i, hit
            if not math.isfinite(t_best):
                return it, None  # unbounded ray
            if leave < 0:
                # entering variable flips to its opposite bound
                status[enter] = -status[enter]
                continue
            status[rows[leave]] = leave_to
            basis[leave] = enter
            status[enter] = _BASIC
    raise NumericalError(f"simplex did not terminate within {max_iter} iterations")


def solve_bounded_lp(c, A_ub, b_ub, lower, upper, tol: float = 1e-9,
                     max_iter: int | None = None) -> LpResult:
    """Minimize c.x subject to A_ub x <= b_ub and lower <= x <= upper."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = c.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise ValidationError(f"constraint matrix shape {A.shape} does not fit {n} variables")
    m = A.shape[0]
    if b.shape != (m,) or lower.shape != (n,) or upper.shape != (n,):
        raise ValidationError("b, lower, upper must match the constraint dimensions")
    if np.any(~np.isfinite(lower)):
        raise ValidationError("lower bounds must be finite")
    if np.any(upper < lower - _RATIO_EPS):
        return LpResult("infeasible", None, None, 0)

    # variables: n structural, m slacks, plus one artificial per violated row
    resid = b - A @ lower
    art_rows = np.flatnonzero(resid < -_RATIO_EPS)
    p = art_rows.size
    total = n + m + p
    Abar = np.zeros((m, total))
    Abar[:, :n] = A
    Abar[:, n:n + m] = np.eye(m)
    Abar[art_rows, n + m + np.arange(p)] = -1.0
    lo = np.concatenate([lower, np.zeros(m), np.zeros(p)])
    hi = np.concatenate([upper, np.full(m, np.inf), np.full(p, np.inf)])

    # each row starts on its slack, or on its artificial if it is violated
    basis = np.arange(n, n + m)
    basis[art_rows] = n + m + np.arange(p)
    status = np.full(total, _LOWER, dtype=np.int8)
    status[basis] = _BASIC

    iters = 0
    maxit = max_iter or 200 * (total + m) + 1000
    if p:
        c1 = np.zeros(total)
        c1[n + m:] = 1.0
        r, x = _simplex_loop(Abar, b, c1, lo, hi, basis, status, tol, maxit)
        if x is None:
            raise NumericalError("phase-1 subproblem claimed an unbounded ray")
        iters += r
        if float(c1 @ x) > 1e-7:
            return LpResult("infeasible", None, None, iters)
        hi[n + m:] = 0.0  # lock artificials for phase 2

    c2 = np.concatenate([c, np.zeros(m + p)])
    r, x = _simplex_loop(Abar, b, c2, lo, hi, basis, status, tol, maxit)
    if x is None:
        return LpResult("unbounded", None, None, iters)
    iters += r
    xs = x[:n]
    return LpResult("optimal", xs, float(c @ xs), iters)
