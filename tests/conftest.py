import builtins
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from schedsec import lti_estimation, simplex
from schedsec.attack import bnb_optimal_attack
from schedsec.errors import NumericalError
from schedsec.lti_estimation import (MAX_ITER, STEP_TOL, LinearSystem,
                                     _psd_sqrt, bundled_systems,
                                     lyapunov_step, riccati_step,
                                     steady_state)
from schedsec.scheduling import (Schedule, ShiftTuple, average_cost,
                                 reception)
from schedsec.simplex import _RATIO_EPS, LpResult


_builtin_sum = builtins.sum


def py312_sum(iterable, /, start=0):
    """builtin sum() as CPython 3.12 and later compute it over ints and
    floats: an integer prefix is summed exactly, the first float is added
    plainly, and the floats after it are added with Neumaier compensation
    (ints among them plainly), the compensation being added at the end when
    it is nonzero and finite.  Any input that is not all ints and floats
    goes to the real sum().  Through 3.11 sum() added left to right; with
    builtins.sum patched to this, a run computes what a 3.12 interpreter
    does on any Python."""
    items = list(iterable)
    if any(type(v) not in (int, float) for v in (start, *items)):
        return _builtin_sum(items, start)
    total, rest = start, iter(items)
    if type(total) is int:
        for v in rest:
            total += v
            if type(v) is float:
                break
        else:
            return total
    compensation = 0.0
    for v in rest:
        if type(v) is int:
            total += v
            continue
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def study_system_matrices():
    A = [np.array([[1.01, 0.5], [0.0, 0.2]]),
         np.array([[1.02, 0.4], [0.0, 0.15]]),
         np.array([[1.03, 0.6], [0.0, 0.1]])]
    Q = [np.diag([0.2, 0.2]), np.diag([0.1, 0.15]), np.diag([0.1, 0.2])]
    C = np.array([[1.0, 1.0]])
    R = np.array([[1.0]])
    return A, C, Q, R


@pytest.fixture(scope="session")
def study_systems():
    A, C, Q, R = study_system_matrices()
    return [LinearSystem(A=A[i], C=C, Q=Q[i], R=R, Pi=np.eye(2),
                         name=f"sensor {i}")
            for i in range(3)]


@pytest.fixture(scope="session")
def study_ladders(study_systems):
    return [steady_state(sys) for sys in study_systems]


@pytest.fixture(scope="session")
def round_robin():
    return Schedule(period=3, rows=((0, 0, 1), (0, 1, 0), (1, 0, 0)))


def child_rngs(seed, trials):
    """The reference per-trial streams: default_rng of each SeedSequence
    child, one child per trial in order."""
    return [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(trials)]


def random_exclusive_schedule(rng, n_sensors, period,
                              full_coverage=False) -> Schedule:
    """Random columnwise transmitter assignment; with full_coverage the
    first N columns are a permutation so every sensor holds a slot."""
    cols = rng.integers(0, n_sensors, size=period)
    if full_coverage:
        if period < n_sensors:
            raise ValueError("cannot cover all sensors with period < N")
        head = rng.permutation(n_sensors)
        cols = np.concatenate([head, cols[n_sensors:]])
    rows = [[0] * period for _ in range(n_sensors)]
    for k, i in enumerate(cols):
        rows[int(i)][k] = 1
    return Schedule(period=period, rows=tuple(tuple(r) for r in rows))


def random_unstable_system(rng, name="random") -> LinearSystem:
    """Random 2x2 detectable unstable system; retries until valid."""
    while True:
        A = np.array([[rng.uniform(1.01, 1.3), rng.uniform(-1.0, 1.0)],
                      [0.0, rng.uniform(-0.9, 0.9)]])
        C = np.array([[rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)]])
        Q = np.diag(rng.uniform(0.05, 0.5, size=2))
        R = np.array([[rng.uniform(0.2, 2.0)]])
        try:
            return LinearSystem(A=A, C=C, Q=Q, R=R, Pi=np.eye(2), name=name)
        except Exception:
            continue


def symmetric_system(n, eigenvalues, seed, name="symmetric"):
    """An n-state system whose A is symmetric with the given eigenvalues
    in a random orthonormal basis, every state measured, unit noises."""
    basis, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    A = basis @ np.diag(eigenvalues) @ basis.T
    return LinearSystem(A=(A + A.T) / 2, C=np.eye(n), Q=np.eye(n),
                        R=np.eye(n), Pi=np.eye(n), name=name)


def all_exclusive_schedules(n_sensors, period):
    """Every columnwise transmitter assignment, as Schedule objects."""
    for cols in itertools.product(range(n_sensors), repeat=period):
        rows = [[0] * period for _ in range(n_sensors)]
        for k, i in enumerate(cols):
            rows[i][k] = 1
        yield Schedule(period=period, rows=tuple(tuple(r) for r in rows))


def is_uniform_row(row) -> bool:
    """Max cyclic gap minus min cyclic gap between consecutive ones <= 1."""
    ones = [k for k, v in enumerate(row) if v]
    if len(ones) <= 1:
        return True
    T = len(row)
    gaps = [(ones[(j + 1) % len(ones)] - ones[j]) % T for j in range(len(ones))]
    return max(gaps) - min(gaps) <= 1


def factor_families(limit):
    """Every list of reduced duty factors (n, d), 0 < n < d, whose
    denominators multiply to at most `limit`, in depth-first order."""
    out = []

    def gen(prefix, room):
        for d in range(2, room + 1):
            for n in range(1, d):
                if math.gcd(n, d) == 1:
                    fam = prefix + [(n, d)]
                    out.append(fam)
                    gen(fam, room // d)

    gen([], limit)
    return out


def slot_correlation(rows, U, shifts) -> int:
    """Reference Hamming cross-correlation, slot by slot: the number of
    slots k in which rows[i][(k + t) % D] is 1 for every member i of U
    with its shift t.  Shares no code with the library's shift gather."""
    D = len(rows[0])
    total = 0
    for k in range(D):
        for i, t in zip(U, shifts):
            if not rows[i][(k + t) % D]:
                break
        else:
            total += 1
    return total


def enumerated_invariance(policies):
    """Reference shift-invariance check by enumeration.

    For every sensor subset of two or more rows, in sorted order, walks all
    D^(|U|-1) shift tuples in lexicographic order with the first shift
    pinned to zero (a common shift only reindexes the cyclic sum).  Returns
    (invariant, witness), the witness being the first (U, shifts) whose
    correlation differs from the all-zero shifts.
    """
    rows = getattr(policies, "rows", policies)
    N, D = len(rows), len(rows[0])
    subsets = sorted(itertools.chain.from_iterable(
        itertools.combinations(range(N), size) for size in range(2, N + 1)))
    for U in subsets:
        reference = slot_correlation(rows, U, (0,) * len(U))
        for rest in itertools.product(range(D), repeat=len(U) - 1):
            shifts = (0,) + rest
            if slot_correlation(rows, U, shifts) != reference:
                return False, (U, shifts)
    return True, None


def residue_zero_sum(policies) -> bool:
    """Reference for the Fourier criterion over the residues of Z_D:
    whether two or more rows have nonzero DFT frequencies, one per row,
    that sum to 0 mod D.  Supports come from np.fft.fft, whose margin is
    asserted (every |coefficient| below 1e-9 D or above 1e-3), and the
    sums are Python sets of residues, walked row by row: `one` holds the
    sums of one row's frequency, `two` those of two or more rows'."""
    rows = np.array(getattr(policies, "rows", policies), dtype=float)
    D = rows.shape[1]
    F = np.abs(np.fft.fft(rows, axis=1))
    assert ((F < 1e-9 * D) | (F > 1e-3)).all()
    one, two = set(), set()
    for mags in F:
        s = {w for w in range(1, D) if mags[w] > 1e-3}
        two |= {(x + y) % D for x in one | two for y in s}
        if 0 in two:
            return True
        one |= s
    return False


def interleaved_rows(factors, interleavings=None):
    """Reference for construct_shift_invariant, symbol by symbol: sensor i
    writes symbol q of its vector r at slot q * D_{i-1} + r of its short
    row, for q in range(d_i) and r in range(D_{i-1}), and repeats the short
    row to the period D.  The default vector r has ones in its last n_i
    positions, rotated left by r."""
    D = math.prod(d for _, d in factors)
    rows = []
    D_prev = 1
    for i, (n, d) in enumerate(factors):
        if interleavings is None:
            base = [0] * (d - n) + [1] * n
            vecs = [[base[(q + r) % d] for q in range(d)]
                    for r in range(D_prev)]
        else:
            vecs = interleavings[i]
        short = [0] * (d * D_prev)
        for q in range(d):
            for r in range(D_prev):
                short[q * D_prev + r] = int(vecs[r][q])
        rows.append(tuple(short * (D // len(short))))
        D_prev *= d
    return tuple(rows)


def fkm_necklaces(n_symbols, length):
    """Every length-`length` necklace over range(n_symbols) exactly once, as
    its lexicographically smallest rotation, in lexicographic order.

    Iterative FKM prenecklace walk (Fredricksen, Kessler & Maiorana; Ruskey,
    Savage & Wang, J. Algorithms 1992): a prenecklace is a necklace iff the
    length of its longest Lyndon prefix divides `length`.  It walks every
    content at once, so it checks the library's fixed-content generator
    independently.
    """
    a = [0] * length
    yield tuple(a)
    while True:
        i = length - 1
        while i >= 0 and a[i] == n_symbols - 1:
            i -= 1
        if i < 0:
            return
        a[i] += 1
        for j in range(i + 1, length):
            a[j] = a[j - i - 1]
        if length % (i + 1) == 0:
            yield tuple(a)


def enumerated_schedule_search(n_sensors, periods, ladders):
    """Reference optimal-schedule search by enumeration.

    Walks all N^T columnwise transmitter assignments of each period in
    lexicographic order, rotates each to the rotation with the smallest
    row-major flattened 0/1 matrix, skips rotation classes already seen,
    prices the rest with average_cost and keeps the first minimum of
    (total, flattened matrix, period); a NaN total never wins.  Returns
    (Schedule, CostReport).
    """
    N = n_sensors
    best = None  # (total, flat_key, T, rows, report)
    for T in sorted(set(periods)):
        seen = set()
        for cols in itertools.product(range(N), repeat=T):
            rotations = []
            for r in range(T):
                rows = tuple(tuple(1 if cols[(k + r) % T] == i else 0
                                   for k in range(T)) for i in range(N))
                rotations.append((bytes(v for row in rows for v in row), rows))
            key, rows = min(rotations)
            if key in seen:
                continue
            seen.add(key)
            report = average_cost(rows, ladders)
            if not report.total <= (math.inf if best is None else best[0]):
                continue
            entry = (report.total, key, T)
            if best is None or entry < best[:3]:
                best = (*entry, rows, report)
    return Schedule(period=best[2], rows=best[3]), best[4]


def unrestricted_min_spoof(sched):
    """Fewest spoofed clocks over all T^N shift tuples that starve some
    sensor, the starved sensor's own clock shifted or not; None when no
    tuple starves anyone."""
    N = sched.n_sensors
    best = None
    for combo in itertools.product(range(sched.period), repeat=N):
        count = sum(1 for t in combo if t)
        if best is not None and count >= best:
            continue
        rec = reception(sched, ShiftTuple(combo))
        if any(not any(rec[i]) for i in range(N)):
            best = count
    return best


def per_target_min_spoof(sched, target):
    """Fewest spoofed clocks over the T^(N-1) shift tuples that keep the
    target's clock honest and starve it; None when none of them does."""
    N = sched.n_sensors
    best = None
    for combo in itertools.product(range(sched.period), repeat=N - 1):
        taus = combo[:target] + (0,) + combo[target:]
        count = sum(1 for t in taus if t)
        if best is not None and count >= best:
            continue
        if not any(reception(sched, ShiftTuple(taus))[target]):
            best = count
    return best


def per_target_min_spoof_blocked(sched, target, block=1 << 16):
    """per_target_min_spoof over NumPy blocks of shift tuples, so that
    N = 6, T = 10 (10^5 tuples a target) takes milliseconds.

    Each other sensor's T shifted rows (np.roll, shift tau transmitting
    row[(k + tau) % T] at slot k), read on the target's transmit slots,
    are packed into one integer of slot bits.  Tuple number i, in
    itertools.product order, takes the digits of i in base T; a tuple
    starves the target when the OR of its rows' bits sets every slot bit,
    and costs its nonzero digits."""
    rows = np.asarray(sched.array, dtype=np.int64)
    N, T = rows.shape
    slots = np.flatnonzero(rows[target])
    assert len(slots) < 63, "slot bits must fit an int64"
    weights = np.left_shift(1, np.arange(len(slots), dtype=np.int64))
    bits = [np.stack([np.roll(rows[j], -tau) for tau in range(T)])[:, slots]
            @ weights for j in range(N) if j != target]
    full = int(weights.sum())
    best = None
    total = T ** len(bits)
    for start in range(0, total, block):
        index = np.arange(start, min(start + block, total), dtype=np.int64)
        cover = np.zeros(len(index), dtype=np.int64)
        cost = np.zeros(len(index), dtype=np.int64)
        for place, mask in enumerate(reversed(bits)):
            digit = index // T ** place % T
            cover |= mask[digit]
            cost += digit != 0
        starving = cost[cover == full]
        if starving.size and (best is None or starving.min() < best):
            best = int(starving.min())
    return best


def bland_reference_lp(c, A_ub, b_ub, lower, upper, tol=1e-9, max_iter=None):
    """Reference for solve_bounded_lp: the same two-phase Bland's-rule
    simplex, column by column, with 'L'/'U'/'B' status strings, one reduced
    cost per column in index order and np.linalg.solve for every solve.
    The library must make the same pivots and reach the same point bit for
    bit.  Does no validation."""
    c, A, b, lower, upper = (np.asarray(v, dtype=float)
                             for v in (c, A_ub, b_ub, lower, upper))
    n = c.shape[0]
    m = A.shape[0]
    if np.any(upper < lower - _RATIO_EPS):
        return LpResult("infeasible", None, None, 0)

    # variables: n structural, m slacks, plus one artificial per violated row
    resid = b - A @ lower
    art_rows = [k for k in range(m) if resid[k] < -_RATIO_EPS]
    p = len(art_rows)
    total = n + m + p
    Abar = np.zeros((m, total))
    Abar[:, :n] = A
    Abar[:, n:n + m] = np.eye(m)
    for idx, k in enumerate(art_rows):
        Abar[k, n + m + idx] = -1.0
    lo = np.concatenate([lower, np.zeros(m), np.zeros(p)])
    hi = np.concatenate([upper, np.full(m, np.inf), np.full(p, np.inf)])

    status = ["L"] * total
    basis = []
    for k in range(m):
        if k in art_rows:
            j = n + m + art_rows.index(k)
        else:
            j = n + k
        basis.append(j)
        status[j] = "B"

    iters = 0
    if p:
        c1 = np.zeros(total)
        c1[n + m:] = 1.0
        maxit = max_iter or 200 * (total + m) + 1000
        r = _bland_reference_loop(Abar, b, c1, lo, hi, basis, status, tol, maxit)
        if r < 0:
            raise NumericalError("phase-1 subproblem claimed an unbounded ray")
        iters += r
        x = _bland_reference_point(Abar, b, lo, hi, basis, status)
        if float(c1 @ x) > 1e-7:
            return LpResult("infeasible", None, None, iters)
        hi[n + m:] = 0.0  # lock artificials for phase 2

    c2 = np.concatenate([c, np.zeros(m + p)])
    maxit = max_iter or 200 * (total + m) + 1000
    r = _bland_reference_loop(Abar, b, c2, lo, hi, basis, status, tol, maxit)
    if r < 0:
        return LpResult("unbounded", None, None, iters)
    iters += r
    x = _bland_reference_point(Abar, b, lo, hi, basis, status)
    xs = x[:n]
    return LpResult("optimal", xs, float(c @ xs), iters)


def _bland_reference_loop(Abar, b, cost, lower, upper, basis, status, tol, max_iter):
    """Core bounded-variable iteration; mutates basis/status, returns the
    iteration count.  `status` holds 'L'/'U' for nonbasic, 'B' for basic."""
    m, total = Abar.shape
    for it in range(max_iter):
        B = Abar[:, basis]
        x_nb = np.where(np.array([s == "U" for s in status]), upper, lower)
        nb_mask = np.array([s != "B" for s in status])
        rhs = b - Abar[:, nb_mask] @ x_nb[nb_mask]
        try:
            x_B = np.linalg.solve(B, rhs)
            y = np.linalg.solve(B.T, cost[basis])
        except np.linalg.LinAlgError:
            raise NumericalError("simplex basis became singular") from None
        # entering variable: Bland's rule over violated reduced costs
        enter = -1
        sigma = 0.0
        for j in range(total):
            if status[j] == "B" or upper[j] - lower[j] <= _RATIO_EPS:
                continue
            d = cost[j] - y @ Abar[:, j]
            if status[j] == "L" and d < -tol:
                enter, sigma = j, 1.0
                break
            if status[j] == "U" and d > tol:
                enter, sigma = j, -1.0
                break
        if enter < 0:
            return it  # optimal for this phase
        w = np.linalg.solve(B, Abar[:, enter])
        # ratio test: how far can the entering variable move
        t_best = upper[enter] - lower[enter]
        leave = -1
        leave_to = ""
        for i in range(m):
            g = sigma * w[i]
            if g > _RATIO_EPS:
                t_i = (x_B[i] - lower[basis[i]]) / g
                hit = "L"
            elif g < -_RATIO_EPS:
                t_i = (x_B[i] - upper[basis[i]]) / g
                hit = "U"
            else:
                continue
            t_i = max(t_i, 0.0)
            if (t_i < t_best - _RATIO_EPS
                    or (t_i < t_best + _RATIO_EPS
                        and (leave < 0 or basis[i] < basis[leave]))):
                t_best, leave, leave_to = t_i, i, hit
        if not np.isfinite(t_best):
            return -1  # unbounded ray
        if leave < 0:
            # entering variable flips to its opposite bound
            status[enter] = "U" if status[enter] == "L" else "L"
            continue
        out = basis[leave]
        status[out] = leave_to
        basis[leave] = enter
        status[enter] = "B"
    raise NumericalError(f"simplex did not terminate within {max_iter} iterations")


def _bland_reference_point(Abar, b, lower, upper, basis, status):
    total = Abar.shape[1]
    x = np.where(np.array([s == "U" for s in status]), upper, lower).astype(float)
    nb_mask = np.array([s != "B" for s in status])
    rhs = b - Abar[:, nb_mask] @ x[nb_mask]
    x_B = np.linalg.solve(Abar[:, basis], rhs)
    for i, j in enumerate(basis):
        x[j] = x_B[i]
    return x



def steady_state_doubling(sys: LinearSystem, iters: int = 100) -> np.ndarray:
    """Reference steady state by structured doubling.

    An independent cross-check of steady_state's fixed-point iteration: it
    squares the closed loop each step, so it converges quadratically.
    Returns P_bar.
    """
    n = sys.n
    Ak = sys.A.T.copy()
    Gk = sys.C.T @ np.linalg.solve(sys.R, sys.C)
    Hk = sys.Q.copy()
    for _ in range(iters):
        M = np.linalg.inv(np.eye(n) + Gk @ Hk)
        A_next = Ak @ M @ Ak
        G_next = Gk + Ak @ M @ Gk @ Ak.T
        H_next = Hk + Ak.T @ Hk @ M @ Ak
        H_next = (H_next + H_next.T) / 2.0
        if np.linalg.norm(H_next - Hk, "fro") <= 1e-14 * (1.0 + np.linalg.norm(H_next, "fro")):
            Hk = H_next
            break
        Ak, Gk, Hk = A_next, G_next, H_next
    # Hk is the pre-measurement fixed point; one update maps it to P_bar.
    return riccati_step(sys, Hk)


def stepped_covariance_series(systems, sched, attack, horizon, ladders):
    """Reference for exact_covariance_series: every sensor stepped slot by
    slot over the whole horizon, with no use of periodicity and no ladder
    entry read.

    A reception slot resets the covariance to P_bar, any other slot takes
    one prediction step; from the first non-finite trace on the trace reads
    +inf and the covariance is not stepped until the next reception.
    Returns (traces, running_means, overflow_at), overflow_at[i] the first
    slot whose trace is +inf, or None.
    """
    receptions = reception(sched, attack)
    traces = np.empty((len(systems), horizon))
    overflow_at = [None] * len(systems)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, sys in enumerate(systems):
            P = ladders[i].P_bar.copy()
            tr = float(np.trace(P))
            for k in range(horizon):
                if receptions[i][k % sched.period]:
                    P = ladders[i].P_bar.copy()
                    tr = float(np.trace(P))
                elif tr < math.inf:
                    P = lyapunov_step(sys, P)
                    tr = float(np.trace(P))
                    if not math.isfinite(tr):
                        tr = math.inf
                if tr == math.inf and overflow_at[i] is None:
                    overflow_at[i] = k
                traces[i, k] = tr
        running = np.cumsum(traces, axis=1) / np.arange(1, horizon + 1)
    return traces, running, tuple(overflow_at)


def stepped_ladder(sys, P_bar, upto):
    """Reference for SteadyState.ladder: one prediction step and one
    float(np.trace) per entry, +inf from the first non-finite trace on."""
    out, P = [float(np.trace(P_bar))], P_bar
    with np.errstate(over="ignore", invalid="ignore"):
        while len(out) <= upto:
            if out[-1] == math.inf:
                out.append(math.inf)
                continue
            P = lyapunov_step(sys, P)
            tr = float(np.trace(P))
            out.append(tr if math.isfinite(tr) else math.inf)
    return out


def fixed_point_reference(sys):
    """Reference for steady_state's loop: the same fixed-point iteration
    and stopping rule, with np.linalg.norm for every Frobenius norm.  A
    step of Frobenius change d stops once d <= STEP_TOL ||X||_F
    (1 - d / d_prev), d_prev the previous change (infinite at first), and
    d <= STEP_TOL times ||Pi||_F plus the changes so far, which bounds
    ||X||_F.  Returns (X, iterations), or None if it does not stop in
    MAX_ITER."""
    X = sys.Pi.copy()
    prev = math.inf
    bound = float(np.linalg.norm(X, "fro"))
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(MAX_ITER):
            X_next = riccati_step(sys, lyapunov_step(sys, X))
            delta = float(np.linalg.norm(X_next - X, "fro"))
            X = X_next
            bound += delta
            norm = float(np.linalg.norm(X, "fro"))
            if (delta <= STEP_TOL * bound
                    and delta <= STEP_TOL * norm * (1.0 - delta / prev)):
                return X, it + 1
            prev = delta
    return None


def series_csv_reference(series) -> str:
    """Reference for cli._series_csv: one f-string per line, every float
    through repr, in slot-major order."""
    traces = series.traces.tolist()
    means = series.running_means.tolist()
    flags = [int(d) for d in series.divergent]
    lines = ["k,sensor,trace,running_mean,divergent_flag"]
    lines += [f"{k},{i},{traces[i][k]!r},{means[i][k]!r},{flags[i]}"
              for k in range(series.horizon) for i in range(series.n_sensors)]
    return "\n".join(lines) + "\n"


@dataclass
class TrajectoryBatch:
    """Noisy sample paths for every sensor, vectorized over trials.

    Per sensor i the arrays have shapes states (trials, K, n), measurements
    (trials, K, m), local_estimates and remote_estimates (trials, K, n).
    """

    receptions: tuple[tuple[int, ...], ...]
    states: list = field(default_factory=list)
    measurements: list = field(default_factory=list)
    local_estimates: list = field(default_factory=list)
    remote_estimates: list = field(default_factory=list)

    def empirical_remote_covariance(self, sensor: int, k: int) -> np.ndarray:
        err = (self.states[sensor] - self.remote_estimates[sensor])[:, k, :]
        return err.T @ err / err.shape[0]


def state_trajectory_sim(systems, sched, attack, horizon, trials, seed,
                         ladders) -> TrajectoryBatch:
    """Sampling oracle for exact_covariance_series.

    Simulates states, measurements and both estimators under a (possibly
    attacked) reception pattern.  The local filter runs at its steady-state
    gain with its error started in its stationary law, and the remote
    estimator counts a virtual reception at slot -1, so the empirical
    remote error covariance at slot k tends to the deterministic series
    value for k's gap.  Noise is drawn per sensor from an independent
    SeedSequence child, in the fixed order initial error, then per slot
    process noise then measurement noise, so a fixed seed is bit-identical.
    """
    receptions = tuple(tuple(r) for r in reception(sched, attack))
    children = np.random.SeedSequence(seed).spawn(len(systems))
    batch = TrajectoryBatch(receptions=receptions)
    for i, sys in enumerate(systems):
        rng = np.random.default_rng(children[i])
        n, m = sys.n, sys.m
        P_bar = ladders[i].P_bar
        P_pred = lyapunov_step(sys, P_bar)
        # steady posterior gain: P_pred C^T (C P_pred C^T + R)^-1
        S = sys.C @ P_pred @ sys.C.T + sys.R
        K_gain = np.linalg.solve(S.T, (P_pred @ sys.C.T).T).T
        sqrtQ, sqrtR, sqrtP = _psd_sqrt(sys.Q), _psd_sqrt(sys.R), _psd_sqrt(P_bar)
        states = np.empty((trials, horizon, n))
        measurements = np.empty((trials, horizon, m))
        local = np.empty((trials, horizon, n))
        remote = np.empty((trials, horizon, n))
        x = np.zeros((trials, n))
        x_loc = x - rng.standard_normal((trials, n)) @ sqrtP.T
        x_rem = x_loc.copy()  # virtual reception at slot -1
        for k in range(horizon):
            w = rng.standard_normal((trials, n)) @ sqrtQ.T
            v = rng.standard_normal((trials, m)) @ sqrtR.T
            x = x @ sys.A.T + w
            y = x @ sys.C.T + v
            pred = x_loc @ sys.A.T
            x_loc = pred + (y - pred @ sys.C.T) @ K_gain.T
            if receptions[i][k % sched.period]:
                x_rem = x_loc.copy()
            else:
                x_rem = x_rem @ sys.A.T
            states[:, k, :] = x
            measurements[:, k, :] = y
            local[:, k, :] = x_loc
            remote[:, k, :] = x_rem
        batch.states.append(states)
        batch.measurements.append(measurements)
        batch.local_estimates.append(local)
        batch.remote_estimates.append(remote)
    return batch


def solver_probe() -> dict:
    """What the bare solves decide: the bundled steady states and the
    attack searches of the golden schedules, bit for bit, and the
    NumericalError of a singular innovation covariance and of a singular
    simplex basis."""
    out = {"solvers": [lti_estimation._lapack_solve.__name__,
                       simplex._solve.__name__]}
    out["steady"] = [[st.P_bar.tobytes().hex(), st.iterations,
                      repr(st.residual)]
                     for st in map(steady_state, bundled_systems())]
    paths = json.loads((Path(__file__).parent / "data" /
                        "attack_paths.json").read_text())["schedules"]
    out["attacks"] = []
    for entry in paths[:4]:
        rows = tuple(tuple(int(v) for v in row) for row in entry["rows"])
        res = bnb_optimal_attack(Schedule(period=len(rows[0]), rows=rows))
        out["attacks"].append([list(res.taus.taus), res.nodes_explored,
                               list(res.per_target_costs)])
    sys = LinearSystem(A=[[2.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                       Pi=[[1.0]])
    real, calls = lti_estimation.lyapunov_step, []

    def step(sys, X):
        calls.append(1)
        return np.array([[-1.0]]) if len(calls) == 3 else real(sys, X)

    lti_estimation.lyapunov_step = step
    try:
        steady_state(sys)
    except NumericalError as exc:
        out["singular_S"] = str(exc)
    finally:
        lti_estimation.lyapunov_step = real
    Abar = np.array([[1.0, 1.0, 0.0, 1.0], [2.0, 2.0, 1.0, 0.0]])
    status = np.array([simplex._BASIC, simplex._BASIC, simplex._LOWER,
                       simplex._LOWER], dtype=np.int8)
    try:
        simplex._simplex_loop(Abar, np.ones(2), np.array([1.0, -1, 0, 0]),
                              np.zeros(4), np.ones(4), np.array([0, 1]),
                              status, 1e-9, 100)
    except NumericalError as exc:
        out["singular_basis"] = str(exc)
    return out
