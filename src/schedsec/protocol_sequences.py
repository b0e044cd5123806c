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
one per row, that sum to 0 mod D.  Which DFT coefficients vanish is
found in integers, by cyclic differences of the folded rows (`_supports`);
it depends only on a frequency's order m = D / gcd(w, D), so supports and
their sums are sets of orders, divisors of D (`_zero_sum`).

Sets with prescribed rational duty factors n_i / d_i are built by
interleaving: sensor i cycles through D_{i-1} = d_1 ... d_{i-1} short
binary vectors of length d_i and weight n_i, writing one symbol of each in
round-robin order.  The result has period exactly D = d_1 ... d_N, and
each row is index arithmetic on its (D_{i-1}, d_i) array of vectors.

A defense is a plain `Schedule`.  Row i of a constructed set transmits in
D * n_i / d_i slots, so its duty factors are `Schedule.duty_factors()` of
its rows, exactly and in lowest terms; nothing stores them a second time.
The policy-set document {"T", "rows", "factors"} spells them out for
readers, and `policies_from_dict` checks them against the rows.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (SchedSecError, ValidationError, Work, is_integer,
                     json_list, json_object, strict_int)
from .lti_estimation import _extend_ladders, _ordered_sum
from .scheduling import (Schedule, ShiftTuple, _binary_rows, _shifted,
                         reception)


def _duty_factor(value, i: int) -> Fraction:
    """Sensor i's duty factor, a Fraction or an (n, d) pair of integers, as
    a Fraction strictly between 0 and 1."""
    if (isinstance(value, (tuple, list)) and len(value) == 2
            and all(is_integer(v) for v in value) and value[1] != 0):
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
    product = 1  # multiplied no further once it passes the period
    for f in factors:
        product *= f.denominator
        if product > sched.period:
            break
    if sched.period % product != 0:
        raise ValidationError(
            f"period {sched.period} is not a multiple of the duty factors' "
            f"denominator product")
    return factors


def policies_to_dict(sched: Schedule) -> dict:
    """The policy-set document {"T", "rows", "factors"} of a defense: its
    schedule plus each row's duty factor in lowest terms."""
    return {**sched.to_dict(), "factors": _factor_docs(sched)}


def _factor_docs(sched: Schedule) -> list[dict]:
    return [{"n": f.numerator, "d": f.denominator}
            for f in sched.duty_factors()]


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
        json_object(f, ("n", "d"), f"factor {i}")
    pairs = [(strict_int(f["n"], f'factor {i} "n"'),
              strict_int(f["d"], f'factor {i} "d"'))
             for i, f in enumerate(factors)]
    sched = Schedule.from_dict(doc)
    if len(pairs) != sched.n_sensors:
        raise ValidationError(
            f"{sched.n_sensors} rows for {len(pairs)} duty factors")
    for i, ((n, d), f) in enumerate(zip(pairs, sched.duty_factors())):
        if (n, d) != (f.numerator, f.denominator):
            raise ValidationError(
                f"factor {i} is {n}/{d}, but row {i} transmits in "
                f"{f * sched.period} of {sched.period} slots: {f} in "
                f"lowest terms")
    _design_factors(sched)
    return sched


def _check_tuple(U, shifts, n_rows, period):
    U = tuple(strict_int(i, "sensor tuple entry") for i in U)
    if not U:
        raise ValidationError("sensor tuple must be nonempty")
    if any(not 0 <= i < n_rows for i in U):
        raise ValidationError(f"sensor tuple {U} out of range for {n_rows} rows")
    if any(U[a] >= U[a + 1] for a in range(len(U) - 1)):
        raise ValidationError(f"sensor tuple {U} must be strictly ascending")
    shifts = tuple(strict_int(t, "shift") for t in shifts)
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
    return _correlation(sched.array, U, shifts)


def _correlation(rows: np.ndarray, U, shifts) -> int:
    """The all-transmit count of the rows U of a 0/1 (N, T) array, row U[a]
    shifted by shifts[a]."""
    return int(_shifted(rows[list(U)], shifts).all(axis=0).sum())


def throughput(policies, U, shifts, position: int) -> Fraction:
    """Exact fraction of slots in which member `position` of the tuple
    transmits while every other member stays silent."""
    sched = Schedule.coerce(policies)
    U, shifts = _check_tuple(U, shifts, sched.n_sensors, sched.period)
    if not 0 <= position < len(U):
        raise ValidationError(
            f"position {position} out of range for a {len(U)}-sensor tuple")
    members = Schedule(sched.period, sched.array[list(U)])
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
    return small + [n // d for d in reversed(small) if d * d != n]


def _supports(rows, period: int, work: Work) -> list[set[int]]:
    """Each row's nonzero DFT support, frequency 0 left out, as the set of
    its frequencies' orders m = period / gcd(w, period), for the rows of an
    integer (N, period) array.

    The DFT of row r at w is r(zeta^w) for a primitive m-th root of unity
    zeta^w, whose conjugates are the other primitive ones, so whether it
    vanishes depends on m alone.  Fold r mod x^m - 1 to f and multiply by
    g = prod_{p | m prime} (x^(m/p) - 1) mod x^m - 1: g vanishes at exactly
    the m-th roots of unity that are not primitive, and x^m - 1 has simple
    roots, so f * g is zero iff f vanishes at every primitive one.  Each
    factor is a cyclic shift minus f, for all rows at once; the entries
    stay at most period in absolute value, so int64 holds them exactly.

    The fold mod x^m - 1 is the fold mod x^(m q) - 1 summed over its q
    blocks.  Taking q as the least prime of period / m gives each m one
    parent, so the folds form a tree, walked depth first from the rows
    themselves: each costs about m q entries, and only one path's are held.
    """
    n_rows, divisors = len(rows), _divisors(period)
    # the primes of the period: its divisors with no smaller divisor > 1
    primes = [p for i, p in enumerate(divisors) if i
              and all(p % q for q in divisors[1:i])]
    supports = [set() for _ in range(n_rows)]
    # (m, q, the fold mod x^(m q) - 1), for each m > 1
    stack = [(period, 1, rows)] if period > 1 else []
    while stack:
        m, q, above = stack.pop()
        work.charge(n_rows)
        f = above.reshape(n_rows, q, m).sum(axis=1, dtype=np.int64)
        least = next((p for p in primes if period // m % p == 0), period)
        # the root's children (q == 1) fold the rows themselves, so that no
        # int64 copy of the rows is held past the root
        stack += [(m // p, p, f if q > 1 else above) for p in primes
                  if m % p == 0 and p <= least and p < m]
        for p in primes:
            if m % p == 0:
                cut = m - m // p  # f shifted by m/p: slot k holds f[k - m/p]
                f = np.concatenate((f[:, cut:], f[:, :cut]), axis=1) - f
        for s, live in zip(supports, f.any(axis=1).tolist()):
            if live:
                s.add(m)
    return supports


def _class_sum(a: int, b: int, divisors: list[int]) -> set[int]:
    """The orders of x + y over every x of order a and y of order b in
    Z_D, `divisors` being D's divisors in ascending order.  By the CRT,
    prime by prime: where a and b hold different powers of p the sum holds
    the larger; where both hold p^i it holds any p^e with e <= i, or e < i
    for p = 2 (two units mod 2^i sum to an even residue).  So for e the
    part of g = gcd(a, b) whose primes a and b hold equally, the orders are
    lcm(a, b) / e times each divisor of e, or of e / 2 for an even e."""
    g = math.gcd(a, b)
    h, e = a // g * b // g, g  # h holds the primes whose powers differ
    while (c := math.gcd(e, h)) > 1:
        e //= c
    top, base = e // 2 if e % 2 == 0 else e, a // g * b // e
    return {base * d for d in divisors[:bisect.bisect(divisors, top)]
            if top % d == 0}


def _zero_sum(supports, divisors: list[int], work: Work) -> bool:
    """Whether two or more rows have support frequencies, one per row, that
    sum to 0 in Z_D: a reachability pass over the order classes of Z_D,
    `divisors` being D's divisors.  Every support is a union of classes,
    and so is every sum set, as a unit of Z_D maps each class onto itself."""
    one, two = set(), set()  # sums reachable from exactly one / >= 2 rows
    for s in supports:
        if s:
            reach = one | two
            work.charge(len(reach) * len(s))  # one step per class pair
            if not reach.isdisjoint(s):  # x + (-x), and -x has x's order
                return True
            two.update(*(_class_sum(a, b, divisors) for a in reach for b in s))
            one |= s
    return False


def is_shift_invariant(policies) -> InvarianceReport:
    """Check that every subset's cross-correlation ignores relative shifts.

    Exact at every size, by the Fourier criterion of Shum, Chen, Sung &
    Wong (IEEE Trans. Inf. Theory 55(7), 2009): writing the cross-correlation
    of a subset as a Fourier series in its shifts, a nonconstant term needs
    two or more rows whose DFTs are nonzero at frequencies that sum to
    0 mod D.  So the set is invariant iff no such frequencies exist.  Which
    DFT coefficients vanish is decided in integers (`_supports`), with no
    floating-point tolerance, and supports and their sums are sets of
    orders, divisors of D (`_zero_sum`).

    For a non-invariant set the witness is the first sensor tuple, in
    sorted order, whose own correlation depends on the shifts, with the
    first shift tuple, in lexicographic order and the first shift pinned
    to zero, at which the correlation differs from the all-zero shifts.
    Row i repeats with period p_i, the lcm of its support orders, so shift
    i is walked over range(p_i) only: a shift t >= p_i gives the
    correlation of t mod p_i, which comes earlier.  The budget
    (SCHEDSEC_BUDGET) caps the steps taken: one per row and divisor m > 1
    of D, one per pair of order classes summed, and one per sensor tuple
    and per shift tuple walked, lazily, for the witness.
    """
    sched = Schedule.coerce(policies)
    rows, period = sched.array, sched.period
    work = Work("invariance check")
    supports, divisors = _supports(rows, period, work), _divisors(period)
    if not _zero_sum(supports, divisors, work):
        return InvarianceReport(True, None, True)
    # the sorted tuples of two or more rows, depth first, leaving out the
    # all-zero rows (such a member pins the correlation at 0)
    live = np.flatnonzero(rows.any(axis=1)).tolist()
    periods = [math.lcm(*s) for s in supports]
    stack = [(i,) for i in reversed(live)]
    while stack:
        U = stack.pop()
        stack += [U + (j,) for j in reversed(live) if j > U[-1]]
        if len(U) < 2:
            continue
        work.charge(1)
        if _zero_sum([supports[i] for i in U], divisors, work):
            reference = _correlation(rows, U, (0,) * len(U))
            for rest in itertools.product(*(range(periods[i]) for i in U[1:])):
                work.charge(1)
                shifts = (0,) + rest
                if _correlation(rows, U, shifts) != reference:
                    return InvarianceReport(False, (U, shifts), True)
    raise SchedSecError("no witness for a failed invariance check; this is a bug")


def construct_shift_invariant(factors, interleavings=None) -> Schedule:
    """Build a shift-invariant policy set with the given duty factors.

    Sensor i's row interleaves D_{i-1} = d_1 ... d_{i-1} binary vectors of
    length d_i and weight n_i, one symbol from each in turn, then repeats to
    the common period D = d_1 ... d_N: slot k reads V[k % D_{i-1},
    (k // D_{i-1}) % d_i] of the (D_{i-1}, d_i) vector array V.  By
    default vector j is the cyclic shift by j of the base vector with ones
    in its last n_i positions; pass `interleavings` (one list of vectors
    per sensor) to choose them explicitly.  Each factor is a Fraction or an
    (n, d) pair of integers with 0 < n/d < 1, and row i's duty factor is
    factor i in lowest terms.  Every such set is shift invariant by the
    theorem of Shum, Chen, Sung & Wong (2009), whatever the interleaving
    vectors, so the result is not checked again; `is_shift_invariant`
    decides it for any rows.  The budget (SCHEDSEC_BUDGET) is charged the
    N * D slots of the rows before any is built.
    """
    factors = list(factors)
    if not factors:
        raise ValidationError("need at least one duty factor")
    # the N * D slots, multiplied in as each factor passes its check and
    # no further once they pass the budget
    work = Work(f"building {len(factors)} shift-invariant rows")
    fs, slots = [], len(factors)
    for i, f in enumerate(factors):
        fs.append(_duty_factor(f, i))
        slots *= fs[-1].denominator
        if slots > work.limit:
            break
    work.charge(slots)
    D = math.prod(f.denominator for f in fs)
    k = np.arange(D)
    rows = []
    D_prev = 1
    for i, frac in enumerate(fs):
        n, d = frac.numerator, frac.denominator
        if interleavings is None:
            V = _shifted(np.uint8([0] * (d - n) + [1] * n), np.arange(D_prev))
        else:
            if len(interleavings[i]) != D_prev:
                raise ValidationError(
                    f"sensor {i} needs {D_prev} interleaving vectors, "
                    f"got {len(interleavings[i])}")
            V = _binary_rows(interleavings[i], d,
                             f"sensor {i} interleaving vectors")
            for j, w in enumerate(V.sum(axis=1).tolist()):
                if w != n:
                    raise ValidationError(
                        f"sensor {i} vector {j} has weight {w}, expected {n}")
        rows.append(V[k % D_prev, k // D_prev % d])
        D_prev *= d
    return Schedule(period=D, rows=np.array(rows))


def shortest_period_policies(n_sensors: int) -> Schedule:
    """The shortest shift-invariant set: every duty factor 1/2, period 2^N,
    built by `construct_shift_invariant`."""
    n_sensors = strict_int(n_sensors, "n_sensors")
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
        # relative: equal bounds, summed in two orders, differ by an ulp
        if self.lower > self.upper * (1 + 1e-12):
            raise ValidationError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}")


def bounds(policies, ladders) -> BoundsReport:
    """Cost bounds for a constructed defense.

    `policies` is the defense's schedule; its duty factors n_i / d_i are
    read from its rows.  `ladders` are the per-sensor steady states.
    Sensor i receives exactly N_i = n_i * prod_{j != i} (d_j - n_j)
    packets per period D = prod d_j under every shift tuple; the bounds
    price the extreme gap layouts of those receptions.  Every ladder is
    first extended to the last entry either sum reads, all in one
    `_extend_ladders` call (ladders of one state dimension step as one
    stack, a ladder listed twice once); each sum adds a slice of the
    ladder's own list, which a saturated ladder ends at its first +inf
    entry, so a running sum stops there.
    """
    fs = _design_factors(Schedule.coerce(policies))
    if len(fs) != len(ladders):
        raise ValidationError(
            f"{len(fs)} duty factors for {len(ladders)} ladders")
    D = math.prod(f.denominator for f in fs)
    receptions = [f.numerator * math.prod(g.denominator - g.numerator
                                          for j, g in enumerate(fs) if j != i)
                  for i, f in enumerate(fs)]
    # the upper sum reads entries <= D - N_i, every entry the lower reads too
    _extend_ladders(ladders, [D - N_i + 1 for N_i in receptions])
    lower = upper = 0.0
    for N_i, lad in zip(receptions, ladders):
        trace = lad._traces
        q, r = divmod(D, N_i)
        # no r = 0 term: 0 * trace is NaN once the ladder reads inf
        lower += N_i * _ordered_sum(trace[:q]) + (r * lad.trace(q) if r else 0.0)
        upper += N_i * trace[0] + _ordered_sum(trace[1:D - N_i + 1])
    return BoundsReport(lower=lower / D, upper=upper / D,
                        per_sensor_receptions=tuple(receptions), period=D)
