"""Clock-shift spoofing attacks against exclusive transmission schedules.

A time-synchronization spoofer cannot forge packets, but it can offset a
sensor's notion of the slot clock.  Sensor j then transmits the cyclic
shift of its policy row: row[(k + tau_j) % T] at slot k.  Shifted sensors
collide with the slots of their unshifted peers, and a well-chosen tuple of
shifts starves a chosen sensor of every packet.

Finding the cheapest such tuple (fewest spoofed clocks) is a binary
covering program per target: pick at most one nonzero shift per other
sensor so that the shifted rows jointly cover every slot the target
transmits in.  One private search, `_cheapest_block`, solves it by
depth-first branch-and-bound over LP relaxations.  A node first takes an
integer cover bound, and a node the bound prunes solves no LP; every other
node makes one `solve_bounded_lp` call.  The dense Bland's-rule simplex
(`simplex.py`) prices every column of a pivot at once; each LP starts from
its slack basis, so a node's relaxation, and with it the branching, the
node count and the returned tuple, depends on that node's bounds alone.
`bnb_optimal_attack` runs it for every target and keeps the cheapest;
`isolate_sensor_attack` runs it for one target.
`brute_force_optimal_attack` is the independent exhaustive oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (InfeasibleError, ValidationError, Work, strict_int,
                     strict_seed)
from .scheduling import Schedule, ShiftTuple, _shifted, reception
from .simplex import solve_bounded_lp

INTEGRALITY_TOL = 1e-6
LP_TOL = 1e-9


def blocks_sensor(sched: Schedule, attack: ShiftTuple, target: int) -> bool:
    """True when the attack leaves the target sensor with zero receptions."""
    return not any(reception(sched, attack)[target])


def isolate_sensor_attack(sched: Schedule, target: int) -> ShiftTuple:
    """Fewest-spoof blocking attack against one sensor of an exclusive
    schedule.

    Returns the tuple of `_cheapest_block`, which keeps the target's clock
    honest and spoofs `bnb_optimal_attack`'s per_target_costs[target]
    clocks, and raises InfeasibleError when no such tuple blocks the
    target; the search is charged to the budget as in
    `bnb_optimal_attack`.
    """
    sched.require_exclusive()
    N = sched.n_sensors
    if not 0 <= target < N:
        raise ValidationError(f"target {target} out of range for {N} sensors")
    _, taus, _ = _cheapest_block(sched, target, _search_work(sched))
    if taus is None:
        raise InfeasibleError(f"no blocking attack exists for sensor {target}")
    return taus


def random_attack(period: int, n_sensors: int, seed: int) -> ShiftTuple:
    """Independent uniform shift per sensor, deterministic in the seed, a
    nonnegative integer; the sizes are integers too (a bool, a float or a
    string is refused)."""
    period = strict_int(period, "period")
    n_sensors = strict_int(n_sensors, "n_sensors")
    if period < 1:
        raise ValidationError(f"period must be >= 1, got {period}")
    if n_sensors < 1:
        raise ValidationError(f"need at least one sensor, got {n_sensors}")
    rng = np.random.default_rng(strict_seed(seed))
    return ShiftTuple(tuple(int(t) for t in rng.integers(0, period, size=n_sensors)))


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


def brute_force_optimal_attack(sched: Schedule) -> AttackSearchResult:
    """Exhaustive oracle over all T^N shift tuples.

    A tuple qualifies when some sensor receives nothing in a period while
    its own clock stays honest.  Among qualifying tuples the
    lexicographically smallest one of minimum spoofed count wins.  Returns
    an explicit non-blocking result when nothing qualifies.  The budget
    (SCHEDSEC_BUDGET) is charged the T^N tuples, compared with it before
    the power is raised in full.
    """
    N = sched.n_sensors
    T = sched.period
    Work(f"enumerating the shift tuples of {N} sensors over period {T}"
         ).charge_power(T, N)
    best: ShiftTuple | None = None
    best_count = None
    for combo in itertools.product(range(T), repeat=N):
        cand = ShiftTuple(combo)
        if best_count is not None and cand.spoofed_count >= best_count:
            continue
        rec = reception(sched, cand)
        if any(combo[i] == 0 and not any(rec[i]) for i in range(N)):
            best, best_count = cand, cand.spoofed_count
            if best_count == 0:
                break
    if best is None:
        return AttackSearchResult(blocking=False, taus=None, spoofed_count=None)
    rec = reception(sched, best)
    blocked = tuple(i for i in range(N) if not any(rec[i]))
    return AttackSearchResult(blocking=True, taus=best, spoofed_count=best_count,
                              blocked_sensors=blocked)


def _search_work(sched: Schedule) -> Work:
    return Work(f"the attack search over {sched.n_sensors} sensors of "
                f"period {sched.period}")


def _cheapest_block(sched: Schedule, target: int, work: Work):
    """Fewest spoofed clocks that starve `target` of an exclusive schedule.

    A binary covering program: column (j, t) is the row of another sensor
    j shifted by t = 1..T-1, ordered by sensor then shift.  At most one
    column per sensor block may be picked, and the picks must cover every
    slot the target transmits in.  Depth-first branch-and-bound over LP
    relaxations: a node whose bound cannot beat the incumbent is pruned, an
    integral relaxation becomes the incumbent, and otherwise the most
    fractional live block (ties to the smallest sensor) is pinned to each of
    its T choices in turn, 0 meaning that sensor's clock stays honest.
    Before its LP, a node takes the cover bound f + |U| / m: f picks fixed,
    U the target's slots they leave open, m the most of U that one free
    column covers.  It bounds the LP optimum from below, so where it cannot
    beat the incumbent (or m = 0, an infeasible LP) the node is pruned
    without its LP, as the LP would have pruned it: the nodes visited, the
    branching and the result are those of an LP at every node.
    `work` is charged the root's dense tableau, its constraint rows times
    its structural and slack columns, from N and T before any matrix is
    built, so an oversized schedule is refused before it takes the
    memory; then each node the cells of `hit` its cover test reads, and
    each LP after the root's its tableau, before it is solved.

    Returns (cost, taus, nodes); cost and taus are None when no tuple with
    an honest target clock starves the target.
    """
    T = sched.period
    others = [j for j in range(sched.n_sensors) if j != target]
    w = T - 1
    K = len(others) * w
    rows = T + len(others)
    tableau = rows * (rows + K)
    work.charge(tableau)
    # column b*w + t-1 is the row of sensor others[b] shifted by t
    cols = _shifted(sched.array[others, None], np.arange(1, T)).reshape(K, T).T
    A = np.vstack([-cols.astype(float),
                   np.repeat(np.eye(len(others)), w, axis=1)])
    b = np.concatenate([-sched.array[target].astype(float),
                        np.ones(len(others))])
    # hit[s, c]: column c covers the target's s-th transmit slot
    hit = cols[sched.array[target] == 1].astype(bool)
    fixed: dict[int, int] = {}
    incumbent = float("inf")
    best = None
    nodes = 0

    def visit():
        nonlocal incumbent, best, nodes
        nodes += 1
        work.charge(hit.size)
        lower = np.zeros(K)
        upper = np.ones(K)
        for blk, choice in fixed.items():
            upper[blk * w:(blk + 1) * w] = 0.0
            if choice:
                lower[blk * w + choice - 1] = upper[blk * w + choice - 1] = 1.0
        # the cover bound, times m: exact, as the incumbent is whole or inf
        picked = lower > 0
        open_slots = hit[~hit[:, picked].any(axis=1)]
        if len(open_slots):
            f = int(np.count_nonzero(picked))
            m = int(open_slots[:, upper > lower].sum(axis=0).max(initial=0))
            if m == 0 or f * m + len(open_slots) >= incumbent * m:
                return
        if nodes > 1:  # the root's LP was charged up front
            work.charge(tableau)
        res = solve_bounded_lp(np.ones(K), A, b, lower, upper, tol=LP_TOL)
        if res.status != "optimal" or res.objective >= incumbent - LP_TOL:
            return
        x = res.x
        rounded = np.round(x)
        if np.all(np.abs(x - rounded) <= INTEGRALITY_TOL):
            incumbent, best = float(rounded.sum()), rounded
            return
        frac = np.minimum(x, 1.0 - x)
        pick, mass = -1, -1.0
        for blk in range(len(others)):
            if blk in fixed:
                continue
            m = float(frac[blk * w:(blk + 1) * w].sum())
            if m > mass + 1e-12:
                pick, mass = blk, m
        for choice in range(T):
            fixed[pick] = choice
            visit()
        del fixed[pick]

    visit()
    if best is None:
        return None, None, nodes
    taus = [0] * sched.n_sensors
    for c in np.nonzero(best)[0]:
        taus[others[c // w]] = int(c % w) + 1
    return int(round(incumbent)), ShiftTuple(tuple(taus)), nodes


def bnb_optimal_attack(sched: Schedule) -> AttackSearchResult:
    """Minimum-spoof blocking attack: the per-target search for every
    sensor, keeping the cheapest (ties to the smaller target).  The
    result's per_target_costs records each target's optimum and
    nodes_explored sums the search nodes of all targets.  The budget
    (SCHEDSEC_BUDGET) is charged, for all targets together, each root's
    dense tableau before it is built, each node its cover test, and each
    later LP its tableau before it is solved.
    """
    sched.require_exclusive()
    N = sched.n_sensors
    work = _search_work(sched)
    per_target: list[int | None] = []
    best_taus: ShiftTuple | None = None
    best_cost = None
    nodes = 0
    for target in range(N):
        cost, taus, n = _cheapest_block(sched, target, work)
        nodes += n
        per_target.append(cost)
        if cost is not None and (best_cost is None or cost < best_cost):
            best_cost, best_taus = cost, taus
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
