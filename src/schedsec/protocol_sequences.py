"""Shift-invariant protocol sequences as a clock-spoofing countermeasure.

A set of binary policy rows is shift invariant when the Hamming
cross-correlation of every subset of rows does not depend on the relative
cyclic shifts.  Under such a set, a clock-shift attacker cannot change how
often any sensor gets through: each sensor's reception count per period is
pinned at n_i * prod_{j != i} (d_j - n_j), whatever the shifts are.  What
the attacker can still do is cluster those receptions, which moves the cost
between the closed-form cost bounds computed by `bounds`.

Invariance is decided exactly with the Fourier criterion of Shum, Chen,
Sung & Wong, "Shift-invariant protocol sequences for the collision channel
without feedback", IEEE Trans. Inf. Theory 55(7), 2009: a set of period D
is shift invariant iff no two or more rows have nonzero DFT frequencies,
one per row, that sum to 0 mod D.

Sets with prescribed rational duty factors n_i / d_i are built by
interleaving: sensor i cycles through D_{i-1} = d_1 ... d_{i-1} short
binary vectors of length d_i and weight n_i, writing one symbol of each in
round-robin order.  The result has period exactly D = d_1 ... d_N.

A defense is a plain `Schedule`.  Row i of a constructed set transmits in
D * n_i / d_i slots, so its duty factors are `Schedule.duty_factors()` of
its rows, exactly and in lowest terms; nothing stores them a second time.
The policy-set document {"T", "rows", "factors"} spells them out for
readers, and `policies_from_dict` checks them against the rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (SchedSecError, ValidationError, Work, json_int,
                     json_list, json_object)
from .scheduling import Schedule, ShiftTuple, apply_shift, reception


def _duty_factor(value, i: int) -> Fraction:
    """Sensor i's duty factor, a Fraction or an (n, d) pair, as a Fraction
    strictly between 0 and 1."""
    if isinstance(value, (tuple, list)) and len(value) == 2 and value[1] != 0:
        value = Fraction(int(value[0]), int(value[1]))
    if not isinstance(value, Fraction):
        raise ValidationError(
            f"cannot interpret {value!r} as sensor {i}'s duty factor")
    if not 0 < value < 1:
        raise ValidationError(
            f"sensor {i} has duty factor {value}; a defense needs "
            f"0 < n/d < 1 for every sensor")
    return value


def _design_factors(sched: Schedule) -> list[Fraction]:
    """The duty factors a shift-invariant defense's rows carry.

    They are the rows' duty factors, each strictly between 0 and 1, and the
    period must be a multiple of their denominators' product (the period
    the construction gives them).
    """
    factors = [_duty_factor(f, i) for i, f in enumerate(sched.duty_factors())]
    product = math.prod(f.denominator for f in factors)
    if sched.period % product != 0:
        raise ValidationError(
            f"period {sched.period} is not a multiple of the duty factors' "
            f"denominator product {product}")
    return factors


def policies_to_dict(sched: Schedule) -> dict:
    """The policy-set document {"T", "rows", "factors"} of a defense: its
    schedule plus each row's duty factor in lowest terms."""
    return {**sched.to_dict(),
            "factors": [{"n": f.numerator, "d": f.denominator}
                        for f in sched.duty_factors()]}


def policies_from_dict(doc) -> Schedule:
    """Parse a policy-set document strictly.

    Every entry must be a JSON integer, factor i must be row i's duty
    factor in lowest terms and strictly between 0 and 1, and the period a
    multiple of the denominators' product; anything else raises
    ValidationError.
    """
    json_object(doc, ("T", "rows", "factors"), "policy")
    factors = json_list(doc["factors"], '"factors"')
    for i, f in enumerate(factors):
        if not (isinstance(f, dict) and "n" in f and "d" in f):
            raise ValidationError(f'factor {i} needs keys "n" and "d"')
    pairs = [(json_int(f["n"], f'factor {i} "n"'),
              json_int(f["d"], f'factor {i} "d"'))
             for i, f in enumerate(factors)]
    sched = Schedule.from_dict(doc)
    if len(pairs) != sched.n_sensors:
        raise ValidationError(
            f"{sched.n_sensors} rows for {len(pairs)} duty factors")
    for i, ((n, d), f) in enumerate(zip(pairs, sched.duty_factors())):
        if (n, d) != (f.numerator, f.denominator):
            raise ValidationError(
                f"factor {i} is {n}/{d}, but row {i} transmits in "
                f"{sum(sched.rows[i])} of {sched.period} slots: {f} in "
                f"lowest terms")
    _design_factors(sched)
    return sched


def _check_tuple(U, shifts, n_rows, period):
    if not U:
        raise ValidationError("sensor tuple must be nonempty")
    U = tuple(int(i) for i in U)
    if any(not 0 <= i < n_rows for i in U):
        raise ValidationError(f"sensor tuple {U} out of range for {n_rows} rows")
    if any(U[a] >= U[a + 1] for a in range(len(U) - 1)):
        raise ValidationError(f"sensor tuple {U} must be strictly ascending")
    shifts = tuple(int(t) for t in shifts)
    if len(shifts) != len(U):
        raise ValidationError(
            f"{len(shifts)} shifts for a {len(U)}-sensor tuple")
    if any(not 0 <= t < period for t in shifts):
        raise ValidationError(f"shifts {shifts} out of range for period {period}")
    return U, shifts


def hamming_cross_correlation(policies, U, shifts) -> int:
    """Number of slots in which every listed row, cyclically shifted by its
    own offset, transmits simultaneously."""
    sched = Schedule.coerce(policies)
    U, shifts = _check_tuple(U, shifts, sched.n_sensors, sched.period)
    return _correlation(sched.rows, U, shifts, sched.period)


def _correlation(rows, U, shifts, period) -> int:
    total = 0
    for k in range(period):
        for i, t in zip(U, shifts):
            if not rows[i][(k + t) % period]:
                break
        else:
            total += 1
    return total


def throughput(policies, U, shifts, position: int) -> Fraction:
    """Exact fraction of slots in which member `position` of the tuple
    transmits while every other member stays silent."""
    sched = Schedule.coerce(policies)
    U, shifts = _check_tuple(U, shifts, sched.n_sensors, sched.period)
    if not 0 <= position < len(U):
        raise ValidationError(
            f"position {position} out of range for a {len(U)}-sensor tuple")
    members = Schedule(sched.period, tuple(sched.rows[i] for i in U))
    return Fraction(sum(reception(members, ShiftTuple(shifts))[position]),
                    sched.period)


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of a shift-invariance check; truthy iff invariant.

    witness is (U, shifts) for a non-invariant set: a sensor tuple and a
    shift tuple whose cross-correlation differs from the all-zero shifts.
    exhaustive is always True, because the check is exact at every size;
    reports and invariance.json keep the field.
    """

    invariant: bool
    witness: tuple | None
    exhaustive: bool

    def __bool__(self):
        return self.invariant


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@functools.lru_cache(maxsize=1024)
def _cyclotomic(m: int) -> tuple[int, ...]:
    """Integer coefficients of the cyclotomic polynomial Phi_m, lowest
    degree first, from Phi_m(x) = prod_{d | m} (x^d - 1)^mu(m/d)."""
    poly = [1]
    divide = []
    for d in _divisors(m):
        mu = _mobius(m // d)
        if mu == 1:
            poly = [0] * d + poly
            for k in range(len(poly) - d):
                poly[k] -= poly[k + d]
        elif mu == -1:
            divide.append(d)
    for d in divide:
        # exact division by x^d - 1: a[k] = q[k - d] - q[k]
        q = []
        for k in range(len(poly) - d):
            q.append((q[k - d] if k >= d else 0) - poly[k])
        poly = q
    return tuple(poly)


def _divisible(f: list[int], phi: tuple[int, ...]) -> bool:
    """Whether the monic integer polynomial phi divides f, by long division
    in integers (both lowest degree first)."""
    deg = len(phi) - 1
    terms = [(j, c) for j, c in enumerate(phi[:-1]) if c]
    for k in range(len(f) - 1, deg - 1, -1):
        c = f[k]
        if c:
            for j, a in terms:
                f[k - deg + j] -= c * a
    return not any(f[:deg])


def _supports(rows, period: int, work: Work) -> list[int]:
    """Each row's nonzero DFT support as a bitmask over Z_period, frequency 0
    left out.

    The DFT of row r at w is r(zeta^w), and zeta^w is a primitive m-th root
    of unity for m = period / gcd(w, period).  Its minimal polynomial is
    Phi_m, so the coefficient vanishes iff Phi_m divides r(x), a property of
    m alone; r is first folded mod x^m - 1, which Phi_m divides.
    """
    arrays = [np.asarray(row, dtype=np.int64) for row in rows]
    masks = [0] * len(rows)
    for m in _divisors(period)[1:]:
        phi = _cyclotomic(m)
        step = period // m
        order_m = 0
        for j in range(1, m):
            if math.gcd(j, m) == 1:
                order_m |= 1 << (step * j)
        for i, a in enumerate(arrays):
            work.charge(1)
            if not _divisible(a.reshape(-1, m).sum(axis=0).tolist(), phi):
                masks[i] |= order_m
    return masks


def _sumset(a: int, b: int, period: int, work: Work) -> int:
    """{x + y mod period : x in a, y in b} for bitmasks a and b."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    work.charge(a.bit_count())
    full = (1 << period) - 1
    out = 0
    while a:
        low = a & -a
        s = low.bit_length() - 1
        out |= ((b << s) | (b >> (period - s))) & full
        a ^= low
    return out


def _zero_sum(masks, period: int, work: Work) -> bool:
    """Whether two or more rows have support frequencies, one per row, that
    sum to 0 mod period: a reachability pass over Z_period."""
    one = two = 0  # sums reachable from exactly one / at least two rows
    for s in masks:
        if s:
            two |= _sumset(one | two, s, period, work)
            if two & 1:
                return True
            one |= s
    return False


def is_shift_invariant(policies) -> InvarianceReport:
    """Check that every subset's cross-correlation ignores relative shifts.

    Exact at every size, by the Fourier criterion of Shum, Chen, Sung &
    Wong (IEEE Trans. Inf. Theory 55(7), 2009): writing the cross-correlation
    of a subset as a Fourier series in its shifts, a nonconstant term needs
    two or more rows whose DFTs are nonzero at frequencies that sum to
    0 mod D.  So the set is invariant iff no such frequencies exist.  Which
    DFT coefficients vanish is decided in integers with cyclotomic
    polynomials, with no floating-point tolerance.

    For a non-invariant set the witness is the first sensor tuple, in
    sorted order, whose own correlation depends on the shifts, with the
    first shift tuple, in lexicographic order and the first shift pinned
    to zero, at which the correlation differs from the all-zero shifts.
    The budget (SCHEDSEC_BUDGET) caps the steps taken: one per cyclotomic
    remainder, one per residue-set rotation and one per shift tuple walked
    for the witness.
    """
    sched = Schedule.coerce(policies)
    rows, period = sched.rows, sched.period
    work = Work("invariance check")
    masks = _supports(rows, period, work)
    if not _zero_sum(masks, period, work):
        return InvarianceReport(True, None, True)
    subsets = sorted(itertools.chain.from_iterable(
        itertools.combinations(range(len(rows)), size)
        for size in range(2, len(rows) + 1)))
    for U in subsets:
        # an all-zero member pins the correlation at 0
        if (all(any(rows[i]) for i in U)
                and _zero_sum([masks[i] for i in U], period, work)):
            reference = _correlation(rows, U, (0,) * len(U), period)
            for rest in itertools.product(range(period), repeat=len(U) - 1):
                work.charge(1)
                shifts = (0,) + rest
                if _correlation(rows, U, shifts, period) != reference:
                    return InvarianceReport(False, (U, shifts), True)
    raise SchedSecError("no witness for a failed invariance check; this is a bug")


def construct_shift_invariant(factors, interleavings=None,
                              verify: bool = True) -> Schedule:
    """Build a shift-invariant policy set with the given duty factors.

    Sensor i's row interleaves D_{i-1} = d_1 ... d_{i-1} binary vectors of
    length d_i and weight n_i, one symbol from each in turn, then repeats to
    the common period D = d_1 ... d_N.  By default vector j is the cyclic
    rotation by (j - 1) of the base vector with ones in its last n_i
    positions; pass `interleavings` (one list of vectors per sensor) to
    choose them explicitly.  Each factor is a Fraction or an (n, d) pair
    with 0 < n/d < 1, and row i's duty factor is factor i in lowest terms.
    The budget (SCHEDSEC_BUDGET) is charged the N * D slots of the rows
    before any is built.  With verify, the result is proven shift
    invariant by `is_shift_invariant` before it is returned.
    """
    fs = [_duty_factor(f, i) for i, f in enumerate(factors)]
    if not fs:
        raise ValidationError("need at least one duty factor")
    D = math.prod(f.denominator for f in fs)
    Work(f"building {len(fs)} rows of period {D}").charge(len(fs) * D)
    rows = []
    D_prev = 1
    for i, frac in enumerate(fs):
        n, d = frac.numerator, frac.denominator
        if interleavings is None:
            base = [0] * (d - n) + [1] * n
            vecs = [apply_shift(base, j) for j in range(D_prev)]
        else:
            vecs = [list(v) for v in interleavings[i]]
            if len(vecs) != D_prev:
                raise ValidationError(
                    f"sensor {i} needs {D_prev} interleaving vectors, "
                    f"got {len(vecs)}")
            for j, v in enumerate(vecs):
                if len(v) != d:
                    raise ValidationError(
                        f"sensor {i} vector {j} has length {len(v)}, "
                        f"expected {d}")
                if any(x not in (0, 1) for x in v):
                    raise ValidationError(
                        f"sensor {i} vector {j} is not binary")
                if sum(v) != n:
                    raise ValidationError(
                        f"sensor {i} vector {j} has weight {sum(v)}, "
                        f"expected {n}")
        short = []
        for q in range(d):
            for r in range(D_prev):
                short.append(vecs[r][q])
        reps = D // len(short)
        rows.append(tuple(short * reps))
        D_prev *= d
    sched = Schedule(period=D, rows=tuple(rows))
    if verify:
        report = is_shift_invariant(sched)
        if not report:
            raise SchedSecError(
                f"constructed set failed its invariance check at witness "
                f"{report.witness}; this is a bug")
    return sched


def shortest_period_policies(n_sensors: int) -> Schedule:
    """The shortest shift-invariant set: every duty factor 1/2, period 2^N,
    proven shift invariant."""
    if n_sensors < 1:
        raise ValidationError(f"need at least one sensor, got {n_sensors}")
    return construct_shift_invariant([(1, 2)] * n_sensors)


@dataclass(frozen=True)
class BoundsReport:
    """Worst- and best-case long-run cost of a shift-invariant defense.

    per_sensor_receptions[i] is the attack-independent number of packets
    sensor i receives per period.  lower corresponds to evenly spread
    receptions, upper to receptions bunched back to back.
    """

    lower: float
    upper: float
    per_sensor_receptions: tuple[int, ...]
    period: int

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValidationError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}")


def bounds(policies, ladders) -> BoundsReport:
    """Cost bounds for a constructed defense.

    `policies` is the defense's schedule; its duty factors n_i / d_i are
    read from its rows.  `ladders` are the per-sensor steady states.
    Sensor i receives exactly N_i = n_i * prod_{j != i} (d_j - n_j)
    packets per period D = prod d_j under every shift tuple; the bounds
    price the extreme gap layouts of those receptions.
    """
    fs = _design_factors(Schedule.coerce(policies))
    if len(fs) != len(ladders):
        raise ValidationError(
            f"{len(fs)} duty factors for {len(ladders)} ladders")
    D = math.prod(f.denominator for f in fs)
    receptions = []
    lower = 0.0
    upper = 0.0
    for i, (f, lad) in enumerate(zip(fs, ladders)):
        N_i = f.numerator * math.prod(g.denominator - g.numerator
                                      for j, g in enumerate(fs) if j != i)
        receptions.append(N_i)
        q, r = divmod(D, N_i)
        lower += N_i * sum(lad.trace(t) for t in range(q)) + r * lad.trace(q)
        upper += N_i * lad.trace(0) + sum(lad.trace(t) for t in range(1, D - N_i + 1))
    return BoundsReport(lower=lower / D, upper=upper / D,
                        per_sensor_receptions=tuple(receptions), period=D)
