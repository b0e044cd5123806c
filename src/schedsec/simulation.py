"""Exact covariance recursions and Monte Carlo evaluation.

`exact_covariance_series` iterates the remote estimator's error covariance
matrix slot by slot with `lyapunov_step`, starting from the ladder's P_bar.
After a sensor's first reception its covariance repeats with the period,
so the series steps each sensor up to one period past that reception and
repeats the period from there.  Its steps are the float operations the
trace ladder is built from, so each slot's trace equals the ladder's at
that slot's gap to the bit and is no independent check of the
ladder-based costs; the independent stepping oracle lives in the tests.
`monte_carlo_expected_cost` averages exact per-attack costs over random
clock-shift attacks: it applies `scheduling`'s collision kernel to a whole
batch of trials at once and prices every reception pattern it meets once,
keeping no collision rule of its own.  To randomize a defense's
interleaving it reads the duty factors off the defense's rows.  Both
charge the slots they fill to the work budget before filling any.
Rendering the results (the series CSV and summary document) is the
command line's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, Work
from .lti_estimation import (LinearSystem, SteadyState, lyapunov_step,
                             steady_state)
from .protocol_sequences import _design_factors, construct_shift_invariant
from .scheduling import (CostReport, Schedule, ShiftTuple, _gap_pricer,
                         _row_runs, _sole_receptions, reception)

OVERFLOW_TRACE = 1e12
# shifted slots gathered at once by the Monte Carlo kernel, bounding its
# memory whatever the number of trials
_MC_BLOCK_SLOTS = 1 << 18


@dataclass
class CovarianceSeries:
    """Deterministic per-slot remote error covariance traces.

    traces[i][k] is sensor i's trace at slot k.  Once a trace passes
    OVERFLOW_TRACE the matrix recursion is frozen and later slots repeat the
    last value, with the crossing recorded in overflow_at; this keeps
    running statistics finite while still witnessing divergence.
    divergent[i] is structural: sensor i gets no packet in a whole period.
    """

    period: int
    horizon: int
    receptions: tuple[tuple[int, ...], ...]
    traces: np.ndarray
    running_means: np.ndarray
    divergent: tuple[bool, ...]
    overflow_at: tuple[int | None, ...]

    @property
    def n_sensors(self) -> int:
        return len(self.receptions)

    def periodic_average(self) -> CostReport | None:
        """Long-run average cost read off the last simulated period.

        After each sensor's first reception the covariance sequence is
        exactly periodic, so the mean over any later full period equals the
        infinite-horizon average.  Needs horizon >= 2 * period; divergent
        sensors report inf.
        """
        if self.horizon < 2 * self.period:
            return None
        per_sensor = []
        for i in range(self.n_sensors):
            if self.divergent[i]:
                per_sensor.append(math.inf)
            else:
                tail = self.traces[i, self.horizon - self.period:self.horizon]
                per_sensor.append(float(np.mean(tail)))
        return CostReport(per_sensor=tuple(per_sensor))


def exact_covariance_series(systems: Sequence[LinearSystem], policies,
                            attack: ShiftTuple | None = None,
                            horizon: int = 1000,
                            ladders: Sequence[SteadyState] | None = None
                            ) -> CovarianceSeries:
    """Iterate each sensor's remote error covariance under a reception
    pattern derived from (possibly attacked) transmission rows.

    A slot with a reception resets the covariance to the local filter's
    steady state; any other slot applies one open-loop prediction step.
    The virtual slot -1 counts as a reception, so the pre-first-packet
    segment follows the prediction iterates of the steady state.

    From a sensor's first reception on, its covariance repeats with the
    period, so each sensor is stepped only up to one full period past its
    first reception and the rest of the horizon repeats that period, to
    the bit.  A sensor that never receives is stepped slot by slot.  Of
    the ladder the series reads only P_bar.  The budget (SCHEDSEC_BUDGET)
    is charged the N * horizon slots of the series before any is filled.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    sched = Schedule.coerce(policies)
    N, T = sched.n_sensors, sched.period
    if len(systems) != N:
        raise ValidationError(f"{len(systems)} systems for {N} policy rows")
    Work(f"a {horizon}-slot series of {N} sensors").charge(N * horizon)
    receptions = tuple(tuple(r) for r in reception(sched, attack))
    if ladders is None:
        ladders = [steady_state(sys) for sys in systems]
    traces = np.empty((N, horizon))
    divergent = tuple(sum(row) == 0 for row in receptions)
    overflow_at: list[int | None] = [None] * N
    for i, sys in enumerate(systems):
        row = receptions[i]
        first = row.index(1) if 1 in row else None
        stop = horizon if first is None else min(horizon, first + T)
        P = ladders[i].P_bar
        for k in range(stop):
            P = ladders[i].P_bar if row[k % T] else lyapunov_step(sys, P)
            tr = float(np.trace(P))
            traces[i, k] = tr
            if tr > OVERFLOW_TRACE:
                overflow_at[i] = k
                traces[i, k:] = tr
                break
        else:
            if stop < horizon:
                later = np.arange(stop, horizon)
                traces[i, stop:] = traces[i, first + (later - first) % T]
    running = np.cumsum(traces, axis=1) / np.arange(1, horizon + 1)
    return CovarianceSeries(period=T, horizon=horizon,
                            receptions=receptions, traces=traces,
                            running_means=running, divergent=divergent,
                            overflow_at=tuple(overflow_at))


@dataclass(frozen=True)
class MonteCarloCost:
    """Sample statistics of exact per-attack costs across random trials.

    halfwidth is the 1.96 * std / sqrt(n) normal-approximation 95% radius.
    If any trial starved a sensor outright the aggregate statistics are
    inf and n_divergent counts those trials.
    """

    samples: tuple[float, ...]
    mean: float
    std: float
    halfwidth: float
    n_divergent: int


def _mc_statistics(samples: list[float]) -> MonteCarloCost:
    x = np.asarray(samples, dtype=float)
    n = len(x)
    n_div = int(np.sum(np.isinf(x)))
    if n_div:
        return MonteCarloCost(samples=tuple(float(v) for v in x),
                              mean=math.inf, std=math.inf, halfwidth=math.inf,
                              n_divergent=n_div)
    std = float(np.std(x, ddof=1)) if n > 1 else math.inf
    half = 1.96 * std / math.sqrt(n) if n > 1 else math.inf
    return MonteCarloCost(samples=tuple(float(v) for v in x),
                          mean=float(np.mean(x)), std=std, halfwidth=half,
                          n_divergent=0)


def _random_interleaving(factors, rng) -> Schedule:
    """The shift-invariant set of `factors` with random interleaving
    vectors, drawn factor by factor; the construction guarantees
    invariance, so it is not rechecked."""
    interleavings = []
    D_prev = 1
    for f in factors:
        vecs = []
        for _ in range(D_prev):
            vec = [0] * f.denominator
            for pos in rng.choice(f.denominator, size=f.numerator,
                                  replace=False):
                vec[int(pos)] = 1
            vecs.append(vec)
        interleavings.append(vecs)
        D_prev *= f.denominator
    return construct_shift_invariant(factors, interleavings=interleavings,
                                     verify=False)


def monte_carlo_expected_cost(systems: Sequence[LinearSystem], policies,
                              trials: int, seed: int,
                              attack: ShiftTuple | None = None,
                              randomize_interleaving: bool = False,
                              ladders: Sequence[SteadyState] | None = None
                              ) -> MonteCarloCost:
    """Average the exact periodic cost over randomly drawn clock shifts.

    Each of the `trials` trials gets an independent child of `seed`
    (SeedSequence spawning), draws interleaving vectors first when
    randomize_interleaving is set, then a uniform random shift tuple unless
    a fixed `attack` pins the shifts (None, the default, draws them).
    randomize_interleaving rebuilds the defense from the duty factors of
    its rows, so its period must be a multiple of their denominators'
    product, as a constructed defense's is; the rebuilt sets skip the
    invariance recheck since the construction guarantees it.  The budget
    (SCHEDSEC_BUDGET) is charged the trials * N * T slots the trials
    gather before any trial is drawn.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    base = Schedule.coerce(policies)
    N = base.n_sensors
    if len(systems) != N:
        raise ValidationError(f"{len(systems)} systems for {N} policy rows")
    if attack is not None:
        attack.validate_for(base)
    T = base.period
    if randomize_interleaving:
        factors = _design_factors(base)
        # a rebuilt set has the shortest period its factors allow
        T = math.prod(f.denominator for f in factors)
    Work(f"Monte Carlo over {trials} trials of {N} rows of period {T}"
         ).charge(trials * N * T)
    if ladders is None:
        ladders = [steady_state(sys) for sys in systems]
    price = _gap_pricer(ladders)
    children = np.random.SeedSequence(seed).spawn(trials)
    block = max(1, _MC_BLOCK_SLOTS // (N * T))
    samples = []
    for lo in range(0, trials, block):
        stack, taus = [], []
        for child in children[lo:lo + block]:
            rng = np.random.default_rng(child)
            if randomize_interleaving:
                stack.append(_random_interleaving(factors, rng).rows)
            taus.append(rng.integers(0, T, size=N) if attack is None
                        else attack.taus)
        rows = np.array(stack if stack else [base.rows], dtype=bool)
        sole = _sole_receptions(rows, np.array(taus)).reshape(-1, T)
        per = [price(r % N, runs) for r, runs in enumerate(_row_runs(sole))]
        # a trial's cost is its sensors' costs summed in order, as in
        # CostReport.total
        samples += [sum(per[j:j + N]) for j in range(0, len(per), N)]
    return _mc_statistics(samples)
