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
depth-first branch-and-bound over LP relaxations.  Every node but a root
first takes `_lp_bound`, priced exactly in integers from two
dual-feasible solutions of its relaxation; by weak duality the LP optimum
is at least that bound, so a node it prunes is one whose LP would have
pruned it, and it solves no LP.  Every other node makes one
`solve_bounded_lp` call.  The dense Bland's-rule simplex
(`simplex.py`) prices every column of a pivot at once; each LP starts from
its slack basis, so a node's relaxation, and with it the branching, the
node count and the returned tuple, depends on that node's bounds alone.
`bnb_optimal_attack` runs it for every target and keeps the cheapest;
`isolate_sensor_attack` runs it for one target.
`brute_force_optimal_attack` is the independent exhaustive oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

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


def _lp_bound(hit: np.ndarray, fixed: dict[int, int], w: int,
              incumbent: float) -> int | Fraction | float:
    """Lower bound on the LP relaxation of a search node, exact in
    integers: an int or a Fraction, or inf when the LP is infeasible.

    hit[s, c] says that column c (block c // w) covers the target's s-th
    transmit slot; `fixed` pins blocks to a choice, 0 for an honest clock.
    With f the nonzero picks and U the slots they leave open, the node's LP
    is f plus min sum x over the free blocks' columns, each open slot
    covered at least once and each block summing to at most 1.  Any
    feasible solution of its dual (a price y_s >= 0 per open slot, z_b >= 0
    per free block, with sum_s y_s - z_b <= 1 over the slots each column
    covers) bounds the LP from below by f + sum y - sum z (weak duality),
    so a node whose bound reaches the incumbent is one its LP would prune.
    Two such solutions are priced:
    - block capacity: y = a on every open slot and z_b = max(0, a m_b - 1),
      m_b the most open slots one column of block b covers; the best a
      gives the fractional knapsack f + k + (|U| - S_k) / m_(k+1), the m_b
      in descending order, S_k the sum of the first k and k the most that
      sum below |U|;
    - packing: y = 1 on a greedy set P of open slots, in slot order, no
      free column covering two of them; z = 0, so f + |P|.
    The LP is infeasible when an open slot has no free covering column or
    the capacities sum below |U| (the dual is then unbounded).  The first
    step, a = 1 / max m_b, is f + |U| / max m_b; the knapsack and the
    packing are priced only when the incumbent is finite and that step
    does not reach it, and the larger bound is returned.
    """
    picks = [blk * w + choice - 1 for blk, choice in fixed.items() if choice]
    f = len(picks)
    open_hit = hit[~hit[:, picks].any(axis=1)]
    n_open = len(open_hit)
    if not n_open:
        return f
    free = np.ones(hit.shape[1] // w, dtype=bool)
    free[list(fixed)] = False
    cover = open_hit.reshape(n_open, -1, w)[:, free]
    caps = cover.sum(axis=0).max(axis=1)
    m = int(caps.max(initial=0))
    if not m:
        return math.inf
    bound = Fraction(f * m + n_open, m)
    if bound >= incumbent:
        return bound
    if int(caps.sum()) < n_open or not cover.any(axis=(1, 2)).all():
        return math.inf
    if incumbent == math.inf:
        return bound
    caps = np.sort(caps)[::-1]
    k = int(np.searchsorted(np.cumsum(caps), n_open))
    m = int(caps[k])
    bound = Fraction((f + k) * m + n_open - int(caps[:k].sum()), m)
    if bound >= incumbent:
        return bound
    taken = np.zeros(cover.shape[1] * w, dtype=bool)
    packed = 0
    for row in cover.reshape(n_open, -1):
        if not (row & taken).any():
            taken |= row
            packed += 1
    return max(bound, f + packed)


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
    Before its LP, every node but the root takes `_lp_bound`, the value of
    a feasible solution of its LP's dual and so, by weak duality, at most
    the LP optimum: where it reaches the incumbent (or the LP is shown
    infeasible) the node is pruned without its LP, as the LP would have
    pruned it, so the nodes visited, the branching and the result are
    those of an LP at every node.  The root has nothing fixed and no
    incumbent, so only an infeasible LP could prune it, and its own LP
    reports that.
    `work` is charged the root's dense tableau, its constraint rows times
    its structural and slack columns, from N and T before any matrix is
    built, so an oversized schedule is refused before it takes the
    memory; then each node the cells of `hit` its bound reads, and each
    LP after the root's its tableau, before it is solved.

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
        # the root's own LP, charged up front, is the only test it needs
        if nodes > 1:
            if _lp_bound(hit, fixed, w, incumbent) >= incumbent:
                return
            work.charge(tableau)
        lower = np.zeros(K)
        upper = np.ones(K)
        for blk, choice in fixed.items():
            upper[blk * w:(blk + 1) * w] = 0.0
            if choice:
                lower[blk * w + choice - 1] = upper[blk * w + choice - 1] = 1.0
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
    dense tableau before it is built, each node the cells of its LP bound,
    and each later LP its tableau before it is solved.  The bound is the
    value of a feasible solution of the node's LP dual, never above the LP
    optimum, so it prunes only nodes the LP would prune: the search path,
    nodes_explored included, is that of an LP at every node.
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
