import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from schedsec.lti_estimation import (LinearSystem, _psd_sqrt, lyapunov_step,
                                     riccati_step, steady_state)
from schedsec.protocol_sequences import hamming_cross_correlation
from schedsec.scheduling import (Schedule, ShiftTuple, average_cost,
                                 reception)
from schedsec.simulation import OVERFLOW_TRACE


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
        reference = hamming_cross_correlation(policies, U, (0,) * len(U))
        for rest in itertools.product(range(D), repeat=len(U) - 1):
            shifts = (0,) + rest
            if hamming_cross_correlation(policies, U, shifts) != reference:
                return False, (U, shifts)
    return True, None


def enumerated_schedule_search(n_sensors, periods, ladders):
    """Reference optimal-schedule search by enumeration.

    Walks all N^T columnwise transmitter assignments of each period in
    lexicographic order, rotates each to the rotation with the smallest
    row-major flattened 0/1 matrix, skips rotation classes already seen,
    prices the rest with average_cost and keeps the first minimum of
    (total, flattened matrix, period).  Returns (Schedule, CostReport).
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
    slot over the whole horizon, with no use of periodicity.

    A reception slot resets the covariance to P_bar, any other slot takes
    one prediction step; once a trace passes OVERFLOW_TRACE it is frozen.
    Returns (traces, running_means, overflow_at).
    """
    receptions = reception(sched, attack)
    traces = np.empty((len(systems), horizon))
    overflow_at = [None] * len(systems)
    for i, sys in enumerate(systems):
        P = ladders[i].P_bar.copy()
        frozen = False
        for k in range(horizon):
            if not frozen:
                if receptions[i][k % sched.period]:
                    P = ladders[i].P_bar.copy()
                else:
                    P = lyapunov_step(sys, P)
                tr = float(np.trace(P))
                if tr > OVERFLOW_TRACE:
                    overflow_at[i] = k
                    frozen = True
            traces[i, k] = tr
    running = np.cumsum(traces, axis=1) / np.arange(1, horizon + 1)
    return traces, running, tuple(overflow_at)


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
