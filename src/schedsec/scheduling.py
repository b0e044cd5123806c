"""Periodic transmission schedules over a shared collision channel.

N sensors share one channel in slotted time.  A schedule fixes, for each slot
of a period T, which sensors transmit; a packet gets through only when its
sender is the sole transmitter in the slot.  A `Schedule` stores that as one
read-only (N, T) uint8 array, `sched.array`, checked once from 0/1 rows or an
integer or bool array; `sched.rows` is a tuple view derived from it.  A
clock-shift attack offsets a sensor's slot clock, so it transmits
row[(k + tau) % T].  One gather, `_shifted`, computes that index for the
whole package: collisions, attack columns, correlations, canonical rotations
and interleaved defenses.  One kernel, `_sole_receptions`, applies the
collision rule to a batch of shifted schedules at once; `reception` is its
one-trial case.  The long-run estimation cost of a reception pattern depends
only on the cyclic gap structure between receptions: a sensor that last
received t slots ago carries covariance h^t(P_bar), so the per-period cost is
the count of slots at each gap t weighted by the trace ladder.  One kernel,
`_row_runs`, reads those gaps off a batch of reception rows, for
`average_cost`, the schedule search and Monte Carlo alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isinf
from typing import Sequence

import numpy as np

from .errors import ValidationError, Work, json_list, json_object, strict_int
from .lti_estimation import LinearSystem, SteadyState, steady_state

# slots one batch of the search or of Monte Carlo stacks for the kernels,
# bounding their memory whatever the number of necklaces or trials
_BLOCK_SLOTS = 1 << 18


def _binary_rows(rows, period=None, context="schedule") -> np.ndarray:
    """0/1 rows as a new (N, T) uint8 array, checked once (in one pass
    for an integer or bool array), naming the first fault: rows of `period`
    entries (the first row's count when None), bools or integers 0 or 1."""
    rows = rows if isinstance(rows, np.ndarray) else list(rows)  # read once
    if period is None:
        period = len(rows[0]) if len(rows) else 0
        if len(rows) and not period:
            raise ValidationError(f"{context} must be nonempty")
    try:
        a = np.asarray(rows)
    except ValueError:  # ragged rows: the loop below names the fault
        a = np.asarray(None)
    if (a.ndim != 2 or a.dtype.kind not in "biu" or a.shape[1] != period
            or ((a < 0) | (a > 1)).any()):
        for i, row in enumerate(rows):
            if not hasattr(row, "__len__"):
                row = row.item() if isinstance(row, np.generic) else row
                raise ValidationError(f"{context}: row {i} is {row!r}, "
                                      f"expected a row of {period} entries")
            if len(row) != period:
                raise ValidationError(f"{context}: row {i} has length "
                                      f"{len(row)}, expected {period}")
            for k, v in enumerate(row):
                v = v.item() if isinstance(v, np.generic) else v
                if type(v) not in (int, bool) or v not in (0, 1):
                    raise ValidationError(f"{context}: row {i} slot {k} is "
                                          f"{v!r}, expected 0 or 1")
        a = np.asarray(rows, dtype=np.uint8).reshape(len(rows), period)
    return a.astype(np.uint8)  # a copy, whatever the caller holds


@dataclass(frozen=True, init=False, eq=False)
class Schedule:
    """Binary transmission policies: array[i, k] = 1 iff sensor i transmits
    in slot k of the period; `rows` is a tuple view built on each read."""

    period: int
    array: np.ndarray

    def __init__(self, period: int, rows):
        period = strict_int(period, "period")
        if period < 1:
            raise ValidationError(f"period must be >= 1, got {period}")
        array = _binary_rows(rows, period)
        if not len(array):
            raise ValidationError("schedule needs at least one sensor row")
        array.flags.writeable = False
        self.__dict__.update(period=period, array=array)  # frozen

    def __reduce__(self):  # a copy or an unpickled one is checked and frozen
        return Schedule, (self.period, self.array)

    def __eq__(self, other):
        return (isinstance(other, Schedule) and self.period == other.period
                and np.array_equal(self.array, other.array))

    def __hash__(self):
        return hash((self.period, self.array.tobytes()))

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))

    @classmethod
    def coerce(cls, value) -> "Schedule":
        """A Schedule as it is; 0/1 rows of one length, as a Schedule."""
        if isinstance(value, Schedule):
            return value
        rows = _binary_rows(value)
        return cls(rows.shape[1] or 1, rows)  # no rows: Schedule says so

    @property
    def n_sensors(self) -> int:
        return len(self.array)

    @property
    def is_exclusive(self) -> bool:
        """True when every slot has exactly one transmitter."""
        return bool((self.array.sum(axis=0) == 1).all())

    def require_exclusive(self):
        if not self.is_exclusive:
            raise ValidationError(
                "operation requires an exclusive schedule "
                "(exactly one transmitter per slot)")

    def duty_factors(self) -> list[Fraction]:
        """Fraction of slots each row transmits in, in lowest terms."""
        return [Fraction(w, self.period) for w in self.array.sum(1).tolist()]

    def to_dict(self) -> dict:
        return {"T": self.period, "rows": self.array.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Schedule":
        """Parse a {"T", "rows"} document strictly: every entry must be a
        JSON integer."""
        json_object(doc, ("T", "rows"), "schedule")
        rows = json_list(doc["rows"], '"rows"')
        return cls(period=strict_int(doc["T"], '"T"'),
                   rows=tuple(tuple(strict_int(v, f"row {i} entry")
                                    for v in json_list(row, f"row {i}"))
                              for i, row in enumerate(rows)))


@dataclass(frozen=True)
class ShiftTuple:
    """Per-sensor clock offsets; entry 0 leaves that sensor untouched.
    Each offset must be a Python or NumPy integer."""

    taus: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "taus", tuple(
            strict_int(t, f"taus entry {i}") for i, t in enumerate(self.taus)))
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
        return cls(taus=tuple(json_list(doc["taus"], '"taus"')))


def _shifted(rows, taus) -> np.ndarray:
    """Every row cyclically shifted by its own offset, in one gather:
    out[..., k] = rows[..., (k + taus[...]) % T], for rows of shape
    (..., T) and offsets shaped like its batch axes.  The batch axes of
    the two broadcast as NumPy arrays do."""
    rows = np.asarray(rows)
    T = rows.shape[-1]
    slots = (np.arange(T) + np.asarray(taus)[..., None]) % T
    # one index per batch axis (cheaper here than np.take_along_axis)
    batch = [np.arange(n).reshape((n,) + (1,) * (rows.ndim - 1 - a))
             for a, n in enumerate(rows.shape[:-1])]
    return rows[(*batch, slots)]


def apply_shift(row, tau: int):
    """Cyclic shift of a policy row: result[k] = row[(k + tau) % T], for
    an integer tau."""
    T = len(row)
    if T == 0:
        raise ValidationError("cannot shift an empty row")
    return tuple(_shifted(row, strict_int(tau, "shift") % T).tolist())


def _sole_receptions(rows: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Collision-channel outcome of a batch of trials, in one gather.

    rows is a 0/1 uint8 (S, N, T) stack holding one schedule per trial, or
    one schedule for all (S = 1); taus is the (trials, N) array of clock
    offsets.  Entry [j, i, k] of the result is 1 iff sensor i's row in
    trial j, shifted by taus[j, i], transmits in slot k and no other
    shifted row does.
    """
    shifted = _shifted(rows, taus)
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
    return _sole_receptions(sched.array[None], np.array([taus]))[0].tolist()


def _row_runs(sole: np.ndarray) -> list[tuple[int, ...]]:
    """Each row's multiset of cyclic reception gaps, for every row of a
    0/1 (R, T) reception array at once: the sorted lengths of the runs
    from each reception slot to the next, wrapping round the period.  A
    row that never receives has none.  These sorted tuples of ints are the
    memo keys of `_gap_pricer`."""
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
    period, the same for every sensor; ladders[i] prices gaps.  A sensor
    that never receives is divergent (its covariance grows without bound
    for unstable dynamics).
    """
    if len(receptions) != len(ladders):
        raise ValidationError(
            f"got {len(receptions)} reception rows for {len(ladders)} ladders")
    price = _gap_pricer(ladders)
    return CostReport(tuple(price(i, runs) for i, runs in
                            enumerate(_row_runs(_binary_rows(
                                receptions, context="reception row")))))


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


def _canonical_rotation(cols: tuple[int, ...], n_sensors: int):
    """The cyclic rotation of a columnwise assignment whose row-major
    flattened 0/1 matrix, as bytes, is smallest; returns (bytes, array)."""
    T = len(cols)
    onehot = np.arange(n_sensors)[:, None] == np.array(cols)
    rotations = _shifted(onehot, np.arange(T)[:, None]).view(np.uint8)
    keys = [rot.tobytes() for rot in rotations]
    r = keys.index(min(keys))
    return keys[r], rotations[r]


def optimal_schedule_search(systems: Sequence[LinearSystem],
                            T_candidates: Sequence[int],
                            ladders: Sequence[SteadyState] | None = None
                            ) -> tuple[Schedule, CostReport]:
    """Search for the cost-minimizing exclusive schedule over necklaces.

    The cost depends only on each sensor's cyclic reception gaps, so every
    cyclic rotation of a columnwise transmitter assignment costs the same,
    to the bit.  The search therefore walks one assignment per rotation
    class (the necklaces, generated once each by FKM) for each candidate
    period.  An exclusive assignment's reception rows are its own rows, so
    the gaps of a whole block of necklaces come from one `_row_runs` call,
    and each sensor's gap multiset is priced once, however many necklaces
    share it, with the same float operations as average_cost.  A necklace
    that leaves a sensor without a slot costs inf and is priced only if no
    schedule that serves every sensor has a finite cost.  Each class is
    represented by its rotation with the lexicographically smallest
    row-major flattened 0/1 matrix, and the winner is the minimum of
    (total, that matrix, period): ties break toward the smallest flattened
    matrix, then the smallest period.  The budget (SCHEDSEC_BUDGET) caps
    the N^T column assignments the candidate periods span, summed over
    periods and each compared with it before it is raised in full;
    exceeding it raises BudgetError.
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
    work = Work(f"enumerating the column assignments of {N} sensors")
    for T in cands:
        work.charge_power(N, T)
    if ladders is None:
        ladders = [steady_state(s) for s in systems]
    price = _gap_pricer(ladders)
    sensors = np.arange(N)[:, None]
    best = None  # (total, flat_key, T, uint8 rows, per-sensor costs)
    # A NaN total never wins.  Necklaces that starve a sensor (total inf)
    # are walked only when nothing that serves every sensor is finite.
    for starving in (False, True):
        if best is not None and best[0] < inf:
            break
        for T in cands:
            necklaces = (cols for cols in _necklaces(N, T)
                         if (len(set(cols)) < N) == starving)
            size = max(1, _BLOCK_SLOTS // (N * T))
            while block := list(itertools.islice(necklaces, size)):
                # (necklace, sensor) reception rows: sensor i owns cols == i
                runs = _row_runs((np.array(block)[:, None] == sensors
                                  ).reshape(-1, T))
                for j, cols in enumerate(block):
                    per = tuple(map(price, range(N), runs[j * N:j * N + N]))
                    total = sum(per)  # CostReport.total, to the bit
                    if not total <= (inf if best is None else best[0]):
                        continue
                    # every rotation prices the same, so only a contender
                    # needs its canonical rotation for the tie-break
                    key, rows = _canonical_rotation(cols, N)
                    entry = (total, key, T)
                    if best is None or entry < best[:3]:
                        best = (*entry, rows, per)
    assert best is not None
    return Schedule(period=best[2], rows=best[3]), CostReport(best[4])
