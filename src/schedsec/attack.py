"""Clock-shift spoofing attacks against exclusive transmission schedules.

A time-synchronization spoofer cannot forge packets, but it can offset a
sensor's notion of the slot clock.  Sensor j then transmits the cyclic
shift of its policy row: row[(k + tau_j) % T] at slot k.  Shifted sensors
collide with the slots of their unshifted peers, and a well-chosen tuple of
shifts starves a chosen sensor of every packet.

Finding the cheapest such tuple (fewest spoofed clocks) is a binary
covering program per target: pick at most one nonzero shift per other
sensor so that the shifted rows jointly cover every slot the target
transmits in.  `bnb_optimal_attack` solves it by depth-first
branch-and-bound over LP relaxations; `brute_force_optimal_attack` is the
independent exhaustive oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetError, InfeasibleError, ValidationError,
                     resolve_budget)
from .scheduling import Schedule, ShiftTuple, apply_shift, reception
from .simplex import solve_bounded_lp

INTEGRALITY_TOL = 1e-6
LP_TOL = 1e-9


def blocks_sensor(sched: Schedule, attack: ShiftTuple, target: int) -> bool:
    """True when the attack leaves the target sensor with zero receptions."""
    return not any(reception(sched, attack)[target])


def isolate_sensor_attack(sched: Schedule, target: int,
                          budget: int | None = None) -> ShiftTuple:
    """Blocking attack against one sensor of an exclusive schedule.

    Tries the one-slot collective shift first (every other clock offset by
    1), which provably starves the target whenever its duty factor is at
    most 1/2 and its slots are spread out.  Otherwise falls back to an
    exhaustive search over shift tuples that keep the target's clock
    honest, and raises InfeasibleError when no tuple blocks the target.
    """
    sched.require_exclusive()
    N = sched.n_sensors
    if not 0 <= target < N:
        raise ValidationError(f"target {target} out of range for {N} sensors")
    primary = ShiftTuple(tuple(0 if j == target else 1 for j in range(N)))
    if sched.period == 1 and N > 1:
        primary = ShiftTuple((0,) * N)
    if blocks_sensor(sched, primary, target):
        return primary
    T = sched.period
    limit = resolve_budget(budget)
    space = T ** (N - 1)
    if space > limit:
        raise BudgetError(
            f"fallback search over {space} shift tuples exceeds the budget "
            f"{limit}; raise SCHEDSEC_BUDGET to allow it")
    others = [j for j in range(N) if j != target]
    for combo in itertools.product(range(T), repeat=N - 1):
        taus = [0] * N
        for j, t in zip(others, combo):
            taus[j] = t
        cand = ShiftTuple(tuple(taus))
        if blocks_sensor(sched, cand, target):
            return cand
    raise InfeasibleError(f"no blocking attack exists for sensor {target}")


def random_attack(period: int, n_sensors: int, seed: int) -> ShiftTuple:
    """Independent uniform shift per sensor, deterministic in the seed."""
    if period < 1:
        raise ValidationError(f"period must be >= 1, got {period}")
    if n_sensors < 1:
        raise ValidationError(f"need at least one sensor, got {n_sensors}")
    rng = np.random.default_rng(seed)
    return ShiftTuple(tuple(int(t) for t in rng.integers(0, period, size=n_sensors)))


@dataclass
class MipInstance:
    """Binary covering program for blocking one target sensor.

    Columns enumerate the candidate spoofs: for every other sensor(in
    ascending order) and every nonzero shift 1..T-1, the column holds that
    sensor's shifted policy row.  A binary selection vector must pick at
    most one column per sensor block and cover every slot of the target's
    row.  The selection's weight is the number of spoofed sensors.
    """

    target: int
    period: int
    target_row: tuple[int, ...]
    block_sensors: tuple[int, ...]
    columns: np.ndarray            # shape (T, (T-1) * (N-1)), 0/1
    column_sensor: tuple[int, ...]
    column_shift: tuple[int, ...]
    selection: np.ndarray | None = None

    @property
    def n_columns(self) -> int:
        return self.columns.shape[1]

    @property
    def shifts_per_block(self) -> int:
        return self.period - 1

    def block_slice(self, sensor: int) -> slice:
        b = self.block_sensors.index(sensor)
        w = self.shifts_per_block
        return slice(b * w, (b + 1) * w)

    def block_matrix(self) -> np.ndarray:
        """0/1 selector matrix with one row per block: row b sums block b."""
        E = np.zeros((len(self.block_sensors), self.n_columns))
        for b in range(len(self.block_sensors)):
            w = self.shifts_per_block
            E[b, b * w:(b + 1) * w] = 1.0
        return E

    def is_feasible(self, selection) -> bool:
        sel = np.asarray(selection, dtype=float)
        if sel.shape != (self.n_columns,):
            return False
        if np.any(np.abs(sel - np.round(sel)) > INTEGRALITY_TOL):
            return False
        sel = np.round(sel)
        if np.any((sel < 0) | (sel > 1)):
            return False
        for j in self.block_sensors:
            if sel[self.block_slice(j)].sum() > 1:
                return False
        return bool(np.all(self.columns @ sel >= np.array(self.target_row) - 0.5))

    def decode(self, selection) -> ShiftTuple:
        """Selection vector -> full shift tuple (target stays at 0)."""
        sel = np.round(np.asarray(selection, dtype=float)).astype(int)
        n = len(self.block_sensors) + 1
        taus = [0] * n
        for c in np.nonzero(sel)[0]:
            taus[self.column_sensor[c]] = self.column_shift[c]
        return ShiftTuple(tuple(taus))

    def encode(self, attack: ShiftTuple) -> np.ndarray:
        """Shift tuple (target unshifted) -> selection vector."""
        if attack.taus[self.target] != 0:
            raise ValidationError("the target sensor is never shifted")
        sel = np.zeros(self.n_columns)
        for j in self.block_sensors:
            t = attack.taus[j]
            if t:
                w = self.shifts_per_block
                b = self.block_sensors.index(j)
                sel[b * w + (t - 1)] = 1.0
        return sel


def build_mip(sched: Schedule, target: int) -> MipInstance:
    """Covering-program instance for starving one sensor of an exclusive
    schedule, columns ordered by sensor then shift."""
    sched.require_exclusive()
    N = sched.n_sensors
    T = sched.period
    if not 0 <= target < N:
        raise ValidationError(f"target {target} out of range for {N} sensors")
    others = tuple(j for j in range(N) if j != target)
    cols = []
    col_sensor = []
    col_shift = []
    for j in others:
        for t in range(1, T):
            cols.append(apply_shift(sched.rows[j], t))
            col_sensor.append(j)
            col_shift.append(t)
    columns = (np.array(cols, dtype=int).T if cols
               else np.zeros((T, 0), dtype=int))
    return MipInstance(target=target, period=T, target_row=sched.rows[target],
                       block_sensors=others, columns=columns,
                       column_sensor=tuple(col_sensor),
                       column_shift=tuple(col_shift))


@dataclass
class AttackSearchResult:
    """Outcome of an optimal-attack search.

    blocking is False when no shift tuple can starve any sensor, in which
    case taus and spoofed_count are None.  per_target_costs (filled by the
    branch-and-bound path) lists the cheapest spoof count that blocks each
    sensor, None where blocking that sensor is impossible.
    """

    blocking: bool
    taus: ShiftTuple | None
    spoofed_count: int | None
    blocked_sensors: tuple[int, ...] = ()
    per_target_costs: tuple[int | None, ...] | None = None
    nodes_explored: int = 0


def brute_force_optimal_attack(sched: Schedule, budget: int | None = None,
                               allow_shifted_target: bool = False) -> AttackSearchResult:
    """Exhaustive oracle over all T^N shift tuples.

    A tuple qualifies when some sensor receives nothing in a period while
    its own clock stays honest (pass allow_shifted_target=True to drop that
    requirement and search the unrestricted space).  Among qualifying
    tuples the lexicographically smallest one of minimum spoofed count
    wins.  Returns an explicit non-blocking result when nothing qualifies.
    """
    N = sched.n_sensors
    T = sched.period
    limit = resolve_budget(budget)
    if T ** N > limit:
        raise BudgetError(
            f"enumerating {T ** N} shift tuples exceeds the budget {limit}; "
            f"raise SCHEDSEC_BUDGET to allow it")
    best: ShiftTuple | None = None
    best_count = None
    for combo in itertools.product(range(T), repeat=N):
        cand = ShiftTuple(combo)
        if best_count is not None and cand.spoofed_count >= best_count:
            continue
        rec = reception(sched, cand)
        starved = [i for i in range(N) if not any(rec[i])]
        if not allow_shifted_target:
            starved = [i for i in starved if combo[i] == 0]
        if starved:
            best, best_count = cand, cand.spoofed_count
            if best_count == 0:
                break
    if best is None:
        return AttackSearchResult(blocking=False, taus=None, spoofed_count=None)
    rec = reception(sched, best)
    blocked = tuple(i for i in range(N) if not any(rec[i]))
    return AttackSearchResult(blocking=True, taus=best, spoofed_count=best_count,
                              blocked_sensors=blocked)


@dataclass
class BnbState:
    """Search state for one target: which sensor blocks are still free,
    the pinned choices so far, and the best integral objective found."""

    live: tuple[int, ...]
    fixed: dict[int, int] = field(default_factory=dict)
    incumbent: float = float("inf")
    best_selection: np.ndarray | None = None
    nodes: int = 0


def lp_relaxation(inst: MipInstance, state: BnbState):
    """Relaxed covering program at a node: live blocks range over [0, 1],
    fixed blocks are pinned to their chosen columns.

    Returns (selection, objective) or None when the node is infeasible.
    The objective lower-bounds every integral completion of the node.
    """
    K = inst.n_columns
    lower = np.zeros(K)
    upper = np.ones(K)
    for j, choice in state.fixed.items():
        sl = inst.block_slice(j)
        upper[sl] = 0.0
        if choice:
            col = sl.start + (choice - 1)
            lower[col] = upper[col] = 1.0
    A = np.vstack([-inst.columns.astype(float), inst.block_matrix()])
    b = np.concatenate([-np.array(inst.target_row, dtype=float),
                        np.ones(len(inst.block_sensors))])
    res = solve_bounded_lp(np.ones(K), A, b, lower, upper, tol=LP_TOL)
    if res.status != "optimal":
        return None
    return res.x, res.objective


def _branch_block(inst: MipInstance, state: BnbState, selection) -> int:
    """Most-fractional live block; ties go to the smallest sensor index."""
    best_j = -1
    best_mass = -1.0
    for j in sorted(state.live):
        part = selection[inst.block_slice(j)]
        mass = float(np.minimum(part, 1.0 - part).sum())
        if mass > best_mass + 1e-12:
            best_j, best_mass = j, mass
    return best_j


def _bnb_single_target(inst: MipInstance) -> BnbState:
    state = BnbState(live=inst.block_sensors)

    def visit():
        state.nodes += 1
        res = lp_relaxation(inst, state)
        if res is None:
            return
        selection, objective = res
        if objective >= state.incumbent - LP_TOL:
            return
        if np.all(np.abs(selection - np.round(selection)) <= INTEGRALITY_TOL):
            rounded = np.round(selection)
            state.incumbent = float(rounded.sum())
            state.best_selection = rounded
            return
        j = _branch_block(inst, state, selection)
        state.live = tuple(s for s in state.live if s != j)
        for choice in range(inst.period):
            state.fixed[j] = choice
            visit()
        del state.fixed[j]
        state.live = tuple(sorted(state.live + (j,)))

    visit()
    return state


def bnb_optimal_attack(sched: Schedule) -> AttackSearchResult:
    """Depth-first branch-and-bound for the minimum-spoof blocking attack.

    Solves the covering program once per target sensor (LP relaxations
    pruned against a per-target incumbent, fractional nodes branched over
    the T alternatives of the most fractional sensor block) and returns the
    cheapest blocking attack over all targets.  The result's
    per_target_costs records each target's optimum.
    """
    sched.require_exclusive()
    N = sched.n_sensors
    per_target: list[int | None] = []
    best_taus: ShiftTuple | None = None
    best_cost = None
    nodes = 0
    for target in range(N):
        inst = build_mip(sched, target)
        state = _bnb_single_target(inst)
        nodes += state.nodes
        if state.best_selection is None:
            per_target.append(None)
            continue
        cost = int(round(state.incumbent))
        per_target.append(cost)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_taus = inst.decode(state.best_selection)
    if best_taus is None:
        return AttackSearchResult(blocking=False, taus=None, spoofed_count=None,
                                  per_target_costs=tuple(per_target),
                                  nodes_explored=nodes)
    rec = reception(sched, best_taus)
    blocked = tuple(i for i in range(N) if not any(rec[i]))
    assert blocked, "decoded attack must starve its target"
    return AttackSearchResult(blocking=True, taus=best_taus,
                              spoofed_count=best_cost,
                              blocked_sensors=blocked,
                              per_target_costs=tuple(per_target),
                              nodes_explored=nodes)
