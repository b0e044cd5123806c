"""Exact covariance recursions and Monte Carlo evaluation.

`exact_covariance_series` iterates the remote estimator's error covariance
matrix slot by slot, which gives a route to long-run costs that never
touches the trace-ladder bookkeeping in `scheduling`: the two must agree,
and tests hold them to that.  After a sensor's first reception its
covariance repeats with the period, so the series steps each sensor up to
one period past that reception and repeats the period from there.
`monte_carlo_expected_cost` averages exact per-attack costs over random
clock-shift attacks: it applies the collision rule to a whole batch of
trials in one array gather and prices every reception pattern it meets
once.  Rendering the results (the series CSV and summary document) is the
command line's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .lti_estimation import (LinearSystem, SteadyState, lyapunov_step,
                             steady_state)
from .protocol_sequences import PolicySet, construct_shift_invariant
from .scheduling import (CostReport, Schedule, ShiftTuple, _gap_pricer,
                         reception)

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
    the bit.  A sensor that never receives is stepped slot by slot.  The
    steps are the series' own (it reads P_bar, never the trace ladder), so
    the series stays an independent check on the ladder-based costs.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    sched = Schedule.coerce(policies)
    N, T = sched.n_sensors, sched.period
    if len(systems) != N:
        raise ValidationError(f"{len(systems)} systems for {N} policy rows")
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


def _random_interleaving(factors, rng) -> PolicySet:
    """The shift-invariant set of `factors` with random interleaving
    vectors, drawn factor by factor; the construction guarantees
    invariance, so it is not rechecked."""
    interleavings = []
    D_prev = 1
    for f in factors:
        vecs = []
        for _ in range(D_prev):
            vec = [0] * f.d
            for pos in rng.choice(f.d, size=f.n, replace=False):
                vec[int(pos)] = 1
            vecs.append(vec)
        interleavings.append(vecs)
        D_prev *= f.d
    return construct_shift_invariant(factors, interleavings=interleavings,
                                     verify=False)


def _sole_receptions(rows: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Collision-channel outcome of a batch of trials, the rule of
    `reception` in one gather.

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


def _row_runs(sole: np.ndarray) -> list[tuple[int, ...]]:
    """The cyclic runs (as `scheduling._cyclic_runs` gives them) of every
    row of a boolean (R, T) reception array, computed for all rows at
    once."""
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


def monte_carlo_expected_cost(systems: Sequence[LinearSystem], policies,
                              trials: int, seed: int,
                              attack_model="uniform",
                              randomize_interleaving: bool = False,
                              ladders: Sequence[SteadyState] | None = None
                              ) -> MonteCarloCost:
    """Average the exact periodic cost over randomly drawn clock shifts.

    Each of the `trials` trials gets an independent child of `seed`
    (SeedSequence spawning), draws interleaving vectors first when
    randomize_interleaving is set, then the shift tuple when attack_model
    is "uniform"; a fixed ShiftTuple may be passed instead to pin the
    attack.  randomize_interleaving requires a PolicySet so the duty factors
    are known; the rebuilt sets skip the invariance recheck since the
    construction guarantees it.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if randomize_interleaving and not isinstance(policies, PolicySet):
        raise ValidationError(
            "randomize_interleaving needs a PolicySet with duty factors")
    base = Schedule.coerce(policies)
    N = base.n_sensors
    if len(systems) != N:
        raise ValidationError(f"{len(systems)} systems for {N} policy rows")
    if isinstance(attack_model, ShiftTuple):
        attack_model.validate_for(base)
    elif attack_model != "uniform":
        raise ValidationError(
            f'attack_model must be "uniform" or a ShiftTuple, got {attack_model!r}')
    if ladders is None:
        ladders = [steady_state(sys) for sys in systems]
    price = _gap_pricer(ladders)
    # a rebuilt set has the shortest period its factors allow
    T = (math.prod(f.d for f in policies.factors) if randomize_interleaving
         else base.period)
    children = np.random.SeedSequence(seed).spawn(trials)
    block = max(1, _MC_BLOCK_SLOTS // (N * T))
    samples = []
    for lo in range(0, trials, block):
        stack, taus = [], []
        for child in children[lo:lo + block]:
            rng = np.random.default_rng(child)
            if randomize_interleaving:
                stack.append(_random_interleaving(policies.factors, rng).rows)
            if isinstance(attack_model, ShiftTuple):
                taus.append(attack_model.taus)
            else:
                taus.append(rng.integers(0, T, size=N))
        rows = np.array(stack if stack else [base.rows], dtype=bool)
        sole = _sole_receptions(rows, np.array(taus)).reshape(-1, T)
        per = [price(r % N, runs) for r, runs in enumerate(_row_runs(sole))]
        # a trial's cost is its sensors' costs summed in order, as in
        # CostReport.total
        samples += [sum(per[j:j + N]) for j in range(0, len(per), N)]
    return _mc_statistics(samples)
