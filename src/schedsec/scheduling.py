"""Periodic transmission schedules over a shared collision channel.

N sensors share one channel in slotted time.  A schedule fixes, for each slot
of a period T, which sensors transmit; a packet gets through only when its
sender is the sole transmitter in the slot.  A clock-shift attack offsets a
sensor's slot clock, so it transmits a cyclic shift of its row.  One
kernel, `_sole_receptions`, applies the collision rule to a batch of
shifted schedules at once; `reception` is its one-trial case.  The
long-run estimation cost of a reception pattern depends only on the cyclic
gap structure between receptions: a sensor that last received t slots ago
carries covariance h^t(P_bar), so the per-period cost is the count of slots
at each gap t weighted by the trace ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isinf
from typing import Sequence

import numpy as np

from .errors import ValidationError, Work, json_int, json_list, json_object
from .lti_estimation import LinearSystem, SteadyState, steady_state


def _check_binary_rows(rows, period, context="schedule"):
    for i, row in enumerate(rows):
        if len(row) != period:
            raise ValidationError(
                f"{context}: row {i} has length {len(row)}, expected {period}")
        try:
            binary = set(row) <= {0, 1}
        except TypeError:  # an unhashable entry is not 0 or 1 either
            binary = False
        if not binary:
            k, v = next((k, v) for k, v in enumerate(row) if v not in (0, 1))
            raise ValidationError(
                f"{context}: row {i} slot {k} is {v!r}, expected 0 or 1")


@dataclass(frozen=True)
class Schedule:
    """Binary transmission policies: rows[i][k] = 1 iff sensor i transmits
    in slot k of the cyclic period."""

    period: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValidationError(f"period must be >= 1, got {self.period}")
        if not self.rows:
            raise ValidationError("schedule needs at least one sensor row")
        _check_binary_rows(self.rows, self.period)
        object.__setattr__(self, "rows",
                           tuple(tuple(int(v) for v in row) for row in self.rows))

    @classmethod
    def coerce(cls, value) -> "Schedule":
        """A Schedule as it is; plain 0/1 rows of one common length become
        a Schedule with that period."""
        if isinstance(value, Schedule):
            return value
        rows = tuple(tuple(row) for row in value)
        if not rows:
            raise ValidationError("schedule needs at least one sensor row")
        return cls(period=len(rows[0]), rows=rows)

    @property
    def n_sensors(self) -> int:
        return len(self.rows)

    @property
    def is_exclusive(self) -> bool:
        """True when every slot has exactly one transmitter."""
        return all(sum(row[k] for row in self.rows) == 1 for k in range(self.period))

    def require_exclusive(self):
        if not self.is_exclusive:
            raise ValidationError(
                "operation requires an exclusive schedule "
                "(exactly one transmitter per slot)")

    def duty_factors(self) -> list[Fraction]:
        """Fraction of slots each row transmits in, in lowest terms."""
        return [Fraction(sum(row), self.period) for row in self.rows]

    def to_dict(self) -> dict:
        return {"T": self.period, "rows": [list(row) for row in self.rows]}

    @classmethod
    def from_dict(cls, doc: dict) -> "Schedule":
        """Parse a {"T", "rows"} document strictly: every entry must be a
        JSON integer."""
        json_object(doc, ("T", "rows"), "schedule")
        rows = json_list(doc["rows"], '"rows"')
        return cls(period=json_int(doc["T"], '"T"'),
                   rows=tuple(tuple(json_int(v, f"row {i} entry")
                                    for v in json_list(row, f"row {i}"))
                              for i, row in enumerate(rows)))


@dataclass(frozen=True)
class ShiftTuple:
    """Per-sensor clock offsets; entry 0 leaves that sensor untouched."""

    taus: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "taus", tuple(int(t) for t in self.taus))
        for i, t in enumerate(self.taus):
            if t < 0:
                raise ValidationError(f"shift for sensor {i} must be >= 0, got {t}")

    @property
    def spoofed_count(self) -> int:
        return sum(1 for t in self.taus if t != 0)

    def validate_for(self, sched: Schedule):
        if len(self.taus) != sched.n_sensors:
            raise ValidationError(
                f"shift tuple has {len(self.taus)} entries for "
                f"{sched.n_sensors} sensors")
        for i, t in enumerate(self.taus):
            if t >= sched.period:
                raise ValidationError(
                    f"shift {t} for sensor {i} exceeds period {sched.period}")

    def to_dict(self) -> dict:
        return {"taus": list(self.taus)}

    @classmethod
    def from_dict(cls, doc: dict) -> "ShiftTuple":
        json_object(doc, ("taus",), "shift tuple")
        return cls(taus=tuple(json_int(t, f"taus entry {i}") for i, t in
                              enumerate(json_list(doc["taus"], '"taus"'))))


def apply_shift(row, tau: int):
    """Cyclic shift of a policy row: result[k] = row[(k + tau) % T]."""
    T = len(row)
    if T == 0:
        raise ValidationError("cannot shift an empty row")
    tau = int(tau) % T
    return tuple(row[(k + tau) % T] for k in range(T))


def _sole_receptions(rows: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Collision-channel outcome of a batch of trials, in one gather.

    rows is a boolean (S, N, T) stack holding one schedule per trial, or
    one schedule for all (S = 1); taus is the (trials, N) array of clock
    offsets.  Entry [j, i, k] of the result is True iff sensor i's row in
    trial j, shifted by taus[j, i], transmits in slot k and no other
    shifted row does.
    """
    N, T = rows.shape[1:]
    slots = (np.arange(T) + taus[:, :, None]) % T
    shifted = rows[np.arange(len(rows))[:, None, None], np.arange(N)[:, None],
                   slots]
    return shifted & (shifted.sum(axis=1, keepdims=True) == 1)


def reception(sched: Schedule,
              attack: ShiftTuple | None = None) -> list[list[int]]:
    """Collision-channel outcome: sensor i receives in slot k iff its row,
    shifted by its clock offset under `attack`, transmits there and no
    other shifted row does (the one-trial case of `_sole_receptions`)."""
    taus = (0,) * sched.n_sensors
    if attack is not None:
        attack.validate_for(sched)
        taus = attack.taus
    sole = _sole_receptions(np.array([sched.rows], dtype=bool),
                            np.array([taus]))
    return sole[0].astype(int).tolist()


def _cyclic_runs(hits: Sequence[int], period: int) -> tuple[int, ...]:
    """A sensor's multiset of cyclic reception gaps: the sorted lengths of
    the runs from each of its reception slots `hits` (ascending, within one
    period) to the next.  A sensor that never receives has none.  This
    sorted tuple of ints, as `_row_runs` also gives it, is the memo key of
    `_gap_pricer`."""
    if not hits:
        return ()
    return tuple(sorted(b - a for a, b in
                        zip(hits, [*hits[1:], hits[0] + period])))


def _row_runs(sole: np.ndarray) -> list[tuple[int, ...]]:
    """`_cyclic_runs` of every row of a boolean (R, T) reception array,
    computed for all rows at once."""
    R, T = sole.shape
    r, k = np.nonzero(sole)              # every hit, row by row, in slot order
    last = np.ones(len(r), dtype=bool)   # the last hit of its row
    last[:-1] = r[1:] != r[:-1]
    first = np.ones(len(r), dtype=bool)
    first[1:] = last[:-1]
    head = k[np.maximum.accumulate(np.where(first, np.arange(len(k)), 0))]
    # each hit runs to the next one in its row; the last wraps to the first
    runs = np.where(last, head + T, np.roll(k, -1)) - k
    runs = runs[np.lexsort((runs, r))].tolist()
    ends = np.cumsum(np.bincount(r, minlength=R)).tolist()
    return [tuple(runs[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def _reception_runs(reception_row: Sequence[int]) -> tuple[int, ...]:
    """`_cyclic_runs` of a 0/1 reception row, checked first."""
    T = len(reception_row)
    if T == 0:
        raise ValidationError("reception row must be nonempty")
    _check_binary_rows([reception_row], T, context="reception row")
    return _cyclic_runs([k for k, v in enumerate(reception_row) if v], T)


def _gap_histogram(runs: Sequence[int]) -> list[int]:
    """Gap counts of one sensor from its cyclic runs: entry t is the number
    of slots whose most recent reception lies t slots in the past (t = 0
    marks the reception slots themselves)."""
    counts = [0] * max(runs, default=0)
    # the run from one reception up to the next adds one to gaps 0 .. len-1
    for run in runs:
        for t in range(run):
            counts[t] += 1
    return counts


def _gap_pricer(ladders: Sequence[SteadyState]):
    """price(i, runs): sensor i's long-run average trace from its cyclic
    runs, memoized on (i, runs).

    The cost of a reception pattern depends only on its multiset of cyclic
    gaps, so callers that meet the same pattern many times (rotations in
    the schedule search, repeated Monte Carlo trials) price it once.  The
    cost is the gap histogram weighted by the trace ladder, summed in gap
    order and divided by the period; a memo hit returns the bits a fresh
    computation would.  No runs (a sensor that never receives) costs inf.
    """
    memo = {}

    def price(i: int, runs: tuple[int, ...]) -> float:
        key = (i, runs)
        cost = memo.get(key)
        if cost is None:
            if runs:
                lad = ladders[i]
                total = 0.0
                for t, c in enumerate(_gap_histogram(runs)):
                    total += c * lad.trace(t)
                cost = total / sum(runs)  # the runs add up to the period
            else:
                cost = inf
            memo[key] = cost
        return cost

    return price


@dataclass(frozen=True)
class CostReport:
    """Per-sensor long-run average covariance traces.

    Divergent sensors (zero receptions per period) carry the distinguished
    value inf, never a large finite float; the total is divergent exactly
    when some sensor is.
    """

    per_sensor: tuple[float, ...]

    @property
    def total(self) -> float:
        return sum(self.per_sensor)

    @property
    def divergent(self) -> tuple[bool, ...]:
        return tuple(isinf(v) for v in self.per_sensor)

    @property
    def any_divergent(self) -> bool:
        return any(self.divergent)


def average_cost(receptions: Sequence[Sequence[int]],
                 ladders: Sequence[SteadyState]) -> CostReport:
    """Exact long-run average trace from cyclic reception patterns.

    receptions[i] is sensor i's per-slot reception indicator over one
    period; ladders[i] prices gaps.  A sensor that never receives is
    divergent (its covariance grows without bound for unstable dynamics).
    """
    if len(receptions) != len(ladders):
        raise ValidationError(
            f"got {len(receptions)} reception rows for {len(ladders)} ladders")
    price = _gap_pricer(ladders)
    return CostReport(tuple(price(i, _reception_runs(row))
                            for i, row in enumerate(receptions)))


def _necklaces(n_symbols: int, length: int):
    """Every length-`length` necklace over range(n_symbols) exactly once, as
    its lexicographically smallest rotation, in lexicographic order.

    Iterative FKM prenecklace walk (Fredricksen, Kessler & Maiorana; Ruskey,
    Savage & Wang, J. Algorithms 1992): a prenecklace is a necklace iff the
    length of its longest Lyndon prefix divides `length`.
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


def _flat_key(cols: tuple[int, ...], n_sensors: int) -> bytes:
    """Row-major flattened 0/1 matrix of a columnwise assignment, as bytes
    (lexicographic comparison on bytes matches the flattened-matrix order)."""
    T = len(cols)
    return bytes(1 if cols[k] == i else 0 for i in range(n_sensors) for k in range(T))


def _canonical_rotation(cols: tuple[int, ...], n_sensors: int):
    """The cyclic rotation whose flattened matrix is lexicographically
    smallest; returns (key, rotated assignment)."""
    best_key = None
    best = cols
    T = len(cols)
    for r in range(T):
        rot = tuple(cols[(k + r) % T] for k in range(T))
        key = _flat_key(rot, n_sensors)
        if best_key is None or key < best_key:
            best_key, best = key, rot
    return best_key, best


def _exclusive_rows(cols: tuple[int, ...], n_sensors: int):
    """0/1 rows of a columnwise assignment."""
    return tuple(tuple(1 if c == i else 0 for c in cols)
                 for i in range(n_sensors))


def optimal_schedule_search(systems: Sequence[LinearSystem],
                            T_candidates: Sequence[int],
                            ladders: Sequence[SteadyState] | None = None
                            ) -> tuple[Schedule, CostReport]:
    """Search for the cost-minimizing exclusive schedule over necklaces.

    The cost depends only on each sensor's cyclic reception gaps, so every
    cyclic rotation of a columnwise transmitter assignment costs the same,
    to the bit.  The search therefore walks one assignment per rotation
    class (the necklaces, generated once each by FKM) for each candidate
    period.  It prices each sensor's gap multiset once, however many
    necklaces share it, with the same float operations as average_cost.
    A necklace that leaves a sensor without a slot costs inf and is priced
    only if no schedule that serves every sensor has a finite cost.  Each
    class is represented by its rotation with the lexicographically
    smallest row-major flattened 0/1 matrix, and the winner is the minimum
    of (total, that matrix, period): ties break toward the smallest
    flattened matrix, then the smallest period.  The budget
    (SCHEDSEC_BUDGET) caps the N^T column assignments the candidate periods
    span, summed over periods; exceeding it raises BudgetError.
    """
    N = len(systems)
    if N < 1:
        raise ValidationError("need at least one system")
    cands = sorted(set(int(T) for T in T_candidates))
    if not cands:
        raise ValidationError("T_candidates must be nonempty")
    for T in cands:
        if T < N:
            raise ValidationError(
                f"period {T} cannot give all {N} sensors a slot; use T >= {N}")
    total_size = sum(N ** T for T in cands)
    Work(f"enumerating {total_size} assignments").charge(total_size)
    if ladders is None:
        ladders = [steady_state(s) for s in systems]
    price = _gap_pricer(ladders)
    best = None  # (total, flat_key, T, rows, per-sensor costs)
    # A NaN total never wins.  Necklaces that starve a sensor (total inf)
    # are walked only when nothing that serves every sensor is finite.
    for starving in (False, True):
        if best is not None and best[0] < inf:
            break
        for T in cands:
            for cols in _necklaces(N, T):
                if (len(set(cols)) < N) != starving:
                    continue
                hits = [[] for _ in range(N)]
                for k, c in enumerate(cols):
                    hits[c].append(k)
                per = tuple(price(i, _cyclic_runs(h, T))
                            for i, h in enumerate(hits))
                total = sum(per)  # CostReport.total, to the bit
                if not total <= (inf if best is None else best[0]):
                    continue
                # every rotation prices the same, so only a contender
                # needs its canonical rotation for the tie-break
                key, canon = _canonical_rotation(cols, N)
                entry = (total, key, T)
                if best is None or entry < best[:3]:
                    best = (*entry, _exclusive_rows(canon, N), per)
    assert best is not None
    return Schedule(period=best[2], rows=best[3]), CostReport(best[4])
