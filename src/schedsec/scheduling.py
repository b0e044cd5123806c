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
`average_cost` and Monte Carlo alike, and one memo, `_gap_pricer`, prices
them.  The cost is a sum over sensors, so the search bounds each sensor's
part by one DP table, `_count_bounds`: a count vector by its slot counts,
and a necklace prefix by the runs it has closed and the slots it has left.
It takes the count vectors in ascending bound and walks each one's
necklaces by content, pruning every prefix whose bound cannot reach the
least total so far, and prices each necklace it reaches from the runs the
walk carries.  Only a finite total can win, so the search takes only
the count vectors that give every sensor a slot, and refuses when no
schedule of its periods has a finite cost.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, inf, isinf
from typing import Sequence

import numpy as np

from .errors import (InfeasibleError, ValidationError, Work, json_list,
                     json_object, strict_int)
from .lti_estimation import (LinearSystem, SteadyState, _ordered_sum,
                             steady_state)

# slots the search's tied necklaces or one batch of Monte Carlo trials
# stack for the kernels, bounding their memory however many there are
_BLOCK_SLOTS = 1 << 18


def _scalar(v):
    """A NumPy scalar as its Python value, for checks and messages."""
    return v.item() if isinstance(v, np.generic) else v


def _binary_rows(rows, period=None, context="schedule") -> np.ndarray:
    """0/1 rows as a new (N, T) uint8 array, checked once (in one pass
    for an integer or bool array), naming the first fault: rows of `period`
    entries (the first row's count when None), bools or integers 0 or 1."""
    if not (isinstance(rows, np.ndarray) and rows.ndim):
        try:
            rows = list(rows)  # read once
        except TypeError:
            raise ValidationError(f"{context}: expected a sequence of rows, "
                                  f"got {_scalar(rows)!r}") from None
    if period is None:
        first = rows[0] if len(rows) else ()
        if not hasattr(first, "__len__"):
            raise ValidationError(f"{context}: row 0 is {_scalar(first)!r}, "
                                  f"expected a row of 0/1 entries")
        period = len(first)
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
                raise ValidationError(
                    f"{context}: row {i} is {_scalar(row)!r}, "
                    f"expected a row of {period} entries")
            if len(row) != period:
                raise ValidationError(f"{context}: row {i} has length "
                                      f"{len(row)}, expected {period}")
            for k, v in enumerate(row):
                v = _scalar(v)
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
        JSON integer, and `_binary_rows` names one that is not 0 or 1."""
        json_object(doc, ("T", "rows"), "schedule")
        rows = json_list(doc["rows"], '"rows"')
        period = strict_int(doc["T"], '"T"')
        checked = []
        for i, row in enumerate(rows):
            row = json_list(row, f"row {i}")
            # a row holding anything but plain ints (a bool, a float, a
            # NumPy integer) takes the loop that names or converts it
            if not set(map(type, row)) <= {int}:
                row = [strict_int(v, f"row {i} entry") for v in row]
            checked.append(row)
        return cls(period=period, rows=checked)


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
    gaps, so callers that meet the same pattern many times (necklaces in
    the schedule search, repeated Monte Carlo trials) price it once.  The
    cost is the gap histogram weighted by the `ladder` list, summed in gap
    order and divided by the period; a memo hit returns the bits a fresh
    computation would.  No runs (a sensor that never receives) costs inf.
    """
    memo = {}

    def price(i: int, runs: tuple[int, ...]) -> float:
        key = (i, runs)
        cost = memo.get(key)
        if cost is None:
            cost = inf  # no runs
            if runs:
                hist = _gap_histogram(runs)
                trace = ladders[i].ladder(len(hist) - 1)
                total = _ordered_sum(c * v for c, v in zip(hist, trace))
                cost = total / sum(runs)  # the runs add up to the period
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
        return _ordered_sum(self.per_sensor)

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
    rows = _binary_rows(receptions, context="reception row")  # read once
    if len(rows) != len(ladders):
        raise ValidationError(
            f"got {len(rows)} reception rows for {len(ladders)} ladders")
    price = _gap_pricer(ladders)
    return CostReport(tuple(price(i, runs)
                            for i, runs in enumerate(_row_runs(rows))))


def _count_bounds(ladders: Sequence[SteadyState], T_max: int):
    """least[i][k][s]: the least cost of s slots of sensor i split into k
    cyclic runs, for every k and s up to T_max (inf where none exists).

    A run of r slots adds c(r) = sum_{t<r} trace(t) to the sum the cost
    divides by T, so the entry is the least sum of c over the compositions
    of s into k positive parts: a DP over (runs, slots used), O(T^3) per
    sensor, with no convexity of the ladder assumed.  least[i][k][T] / T
    bounds sensor i's cost over every period-T schedule that gives it k
    slots, and least[i][1][r] = c(r).  A NaN trace counts as +inf: a NaN
    cost never wins, and NaN never reaches a comparison.
    """
    def table(lad):
        c = list(itertools.accumulate(
            (v if v == v else inf for v in lad.ladder(T_max - 1)), initial=0.0))
        least = [[0.0] + [inf] * T_max]  # no runs cover no slots
        for k in range(1, T_max + 1):
            least.append([inf] * k + [
                min(least[-1][s - r] + c[r] for r in range(1, s - k + 2))
                for s in range(k, T_max + 1)])
        return least
    return [table(lad) for lad in ladders]


def _fixed_content_necklaces(counts: Sequence[int], least, cut, work: Work):
    """The necklaces with counts[s] copies of symbol s, each as its
    lexicographically smallest rotation, in lexicographic order, but for
    those a prefix bound rules out; each with every symbol's cyclic runs.

    The FKM walk with each symbol drawn from what is left of the content
    (Sawada, TCS 301, 2003): a prenecklace a[1..t-1] whose longest Lyndon
    prefix has length p extends by any symbol j >= a[t-p] still left, and
    a full word is a necklace iff p divides its length.  A prefix fixes
    the closed runs of each symbol it holds, r slots costing least[s][1][r]
    (`_count_bounds`' table); the symbol's `left` slots to come split its
    open span, L = T - l + f slots from l round to f, into left + 1 runs,
    which cost at least least[s][left + 1][L], and a symbol not yet placed
    costs at least least[s][counts[s]][T].  A node whose sum of these, over
    T, exceeds cut() is pruned with its subtree, and each node entered is
    charged one step to `work`.  No recursion: one generator per slot fills
    it with each symbol in turn, and a stack holds them.  Yields, for
    positive counts, (necklace, runs), runs[s] symbol s's sorted cyclic runs.
    """
    T, K = sum(counts), len(counts)
    left = list(counts)
    a = [0] * (T + 1)  # a[1..T]; a[0] is never read
    p = [1] * (T + 2)  # p[t]: longest Lyndon prefix length of a[1..t-1]
    first, last = [0] * K, [0] * K  # a symbol's slots; 0 before its first
    runs = [[] for _ in range(K)]     # each symbol's closed runs
    closed = [0.0] * K                # and what they cost
    part = [least[s][k][T] for s, k in enumerate(counts)]

    def fill(t, symbols):  # yields once for each child the bound admits
        for j in symbols:
            if left[j]:
                work.charge(1)
                l, held = last[j], (closed[j], part[j])
                if l:
                    runs[j].append(t - l)
                    closed[j] += least[j][1][t - l]
                else:
                    first[j] = t
                a[t], last[j] = j, t
                left[j] -= 1
                part[j] = closed[j] + least[j][left[j] + 1][T - t + first[j]]
                if _ordered_sum(part) / T <= cut():
                    p[t + 1] = p[t] if j == a[t - p[t]] else t
                    yield
                left[j] += 1
                last[j], (closed[j], part[j]) = l, held
                if l:
                    runs[j].pop()

    stack = [fill(1, [0])]  # every necklace starts with symbol 0
    while stack:
        t = len(stack)
        if next(stack[-1], stack) is stack:  # slot t has no symbol left
            stack.pop()
        elif t < T:
            stack.append(fill(t + 1, range(a[t + 1 - p[t + 1]], K)))
        elif T % p[T + 1] == 0:
            yield tuple(a[1:]), [tuple(sorted(r + [T - l + f]))
                                 for r, f, l in zip(runs, first, last)]


def _contents(T: int, N: int):
    """Every count vector (k_1, ..., k_N) of positive parts with sum T, by
    stars and bars: N - 1 cuts split the T slots into N runs."""
    for cuts in itertools.combinations(range(1, T), N - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, T)))


def _least_rotation(cols: np.ndarray, n_sensors: int):
    """The least canonical rotation in a block of columnwise assignments.

    Of every cyclic rotation of every row of the (B, T) array `cols`, taken
    as an (N, T) 0/1 matrix, finds the first whose row-major flattening,
    as bytes, is smallest; all B * T rotations come from one `_shifted`
    call.  Returns (the row of cols it rotates, its bytes, the (N, T)
    uint8 array)."""
    B, T = cols.shape
    onehot = (cols[:, None, :] == np.arange(n_sensors)[:, None]).view(np.uint8)
    rotations = _shifted(onehot[:, None], np.arange(T)[:, None]).reshape(
        B * T, n_sensors, T)
    keys = [rows.tobytes() for rows in rotations]
    least = min(range(B * T), key=keys.__getitem__)
    return least // T, keys[least], rotations[least]


def optimal_schedule_search(systems: Sequence[LinearSystem],
                            T_candidates: Sequence[int],
                            ladders: Sequence[SteadyState] | None = None
                            ) -> tuple[Schedule, CostReport]:
    """Search for the cost-minimizing exclusive schedule: bound each count
    vector first, then walk only the necklace prefixes that can still win.

    The cost depends only on each sensor's cyclic reception gaps, so every
    cyclic rotation of a columnwise transmitter assignment costs the same,
    to the bit, and one assignment per rotation class (a necklace) stands
    for all.  The cost is also a sum over sensors, and sensor i's part is
    at least `_count_bounds`' least[i][k_i][T] / T for its slot count k_i,
    so every necklace with count vector (k_1, ..., k_N) costs at least
    LB = sum_i least[i][k_i][T] / T.  A sensor without a slot costs inf,
    so the search takes only the compositions of each candidate period T
    into N positive parts, C(T-1, N-1) of them, in ascending (LB, T,
    counts), and stops at the first vector whose LB exceeds the cut: the
    largest finite float until a total is priced, then the least total so
    far plus a relative 1e-9 (the bound adds in another order than the
    pricer).  Each vector's necklaces are walked by content
    (`_fixed_content_necklaces`), and a prefix whose own bound exceeds the
    same cut is pruned with every necklace below it; totals that tie are
    never pruned, so the result does not depend on the walk order.  A
    total of inf or NaN is never kept, and when no schedule has a finite
    total the search raises InfeasibleError.  An exclusive
    assignment's reception rows are its own rows, so each necklace the
    walk reaches is priced from the runs it carries, each sensor's gap
    multiset once however many necklaces share it, with the same float
    operations as average_cost.  Each class is represented by its
    rotation with the lexicographically smallest row-major flattened 0/1
    matrix, and the winner is the minimum of (total, that matrix,
    period): ties break toward the smallest flattened matrix, then the
    smallest period.  Only a vector's necklaces at the least total so far
    can win, so only their rotations are compared, in `_least_rotation`
    calls of at most _BLOCK_SLOTS slots.  Each candidate period must be
    an integer (`strict_int`).  The budget (SCHEDSEC_BUDGET) is charged
    the C(T-1, N-1) count vectors of each period and the
    N * C(T_max+2, 3) cells of the bound table before either is built,
    and one step for each walk node as it is entered; exceeding it raises
    BudgetError.
    """
    N = len(systems)
    if N < 1:
        raise ValidationError("need at least one system")
    cands = sorted(set(strict_int(T, "period") for T in T_candidates))
    if not cands:
        raise ValidationError("T_candidates must be nonempty")
    if cands[0] < N:
        raise ValidationError(f"period {cands[0]} cannot give all {N} "
                              f"sensors a slot; use T >= {N}")
    work = Work(f"the schedule search over {N} sensors")
    work.charge(sum(comb(T - 1, N - 1) for T in cands)  # count vectors
                + N * comb(cands[-1] + 2, 3))  # `_count_bounds`' DP cells
    if ladders is None:
        ladders = [steady_state(s) for s in systems]
    price = _gap_pricer(ladders)
    least = _count_bounds(ladders, cands[-1])
    best = None  # (total, flat_key, T, uint8 rows, per-sensor costs)
    lead = cut = sys.float_info.max  # the least total so far; what it admits
    vectors = sorted(
        (_ordered_sum(least[i][k][T] / T for i, k in enumerate(counts)),
         T, counts) for T in cands for counts in _contents(T, N))
    for lb, T, counts in vectors:
        if lb > cut:
            break  # every later vector's bound is at least as high
        tied = []  # (necklace, per) at the least total so far
        walk = _fixed_content_necklaces(counts, least, lambda: cut, work)
        for leaf in itertools.chain(walk, [None]):  # None: the walk is over
            if leaf:
                per = tuple(map(price, range(N), leaf[1]))
                total = _ordered_sum(per)  # CostReport.total, to the bit
                if not total <= lead:  # an inf or NaN total never wins
                    continue
                if total < lead:
                    lead, cut, tied = total, total + 1e-9 * abs(total), []
                tied.append((leaf[0], per))
            if tied and (not leaf or (len(tied) + 1) * N * T > _BLOCK_SLOTS):
                # every rotation prices the same, so only the necklaces
                # tied at the least total need their canonical rotations
                w, key, rows = _least_rotation(
                    np.array([cols for cols, _ in tied]), N)
                if best is None or (lead, key, T) < best[:3]:
                    best = (lead, key, T, rows, tied[w][1])
                tied = []
    if best is None:
        raise InfeasibleError(f"no schedule of periods {cands} gives every "
                              f"sensor a finite cost")
    return Schedule(period=best[2], rows=best[3]), CostReport(best[4])
