import itertools

import numpy as np
import pytest

from schedsec.lti_estimation import LinearSystem, steady_state
from schedsec.protocol_sequences import hamming_cross_correlation
from schedsec.scheduling import Schedule


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
