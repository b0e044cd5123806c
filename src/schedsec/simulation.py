"""Exact covariance recursions and Monte Carlo evaluation.

`exact_covariance_series` gives the remote estimator's error covariance
trace slot by slot.  A reception resets the covariance to P_bar and any
other slot takes one prediction step, so a slot's trace is the trace
ladder's entry at that slot's gap since the last reception: the series
computes every slot's gap with one array formula and reads the ladders
there as they are, +inf past saturation, the values the ladder-based
costs read.  The ladders are extended in one `_extend_ladders` call,
which steps the ladders of one state dimension as one stack; the series
steps no matrix of its own, so it is no independent check of the
ladder-based costs; the independent slot-by-slot oracle lives in the
tests.
`monte_carlo_expected_cost` averages exact per-attack costs over random
clock-shift attacks: it applies `scheduling`'s collision kernel to a whole
batch of trials at once and prices every reception pattern it meets once,
keeping no collision rule of its own.  It has one stream contract: trial
j's shifts are the first N bounded draws of `Generator(PCG64(child_j))`,
child_j the j-th SeedSequence child of the seed (the stream
`default_rng(child_j)` gives), and that order fixes the samples.
`_trial_shifts` computes them for a block of trials at once: it takes the
seed's entropy pool from one `SeedSequence(seed)` and repeats, in uint64
array arithmetic, only what differs per trial (mixing in the spawn key,
`generate_state`, PCG64 and the bounded-integer draws), so no child or
generator is built.  The slots the trials fill are charged to the work
budget before any is filled.  Rendering the results (the series CSV and
summary document) is the command line's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import scheduling
from .errors import ValidationError, Work, strict_int, strict_seed
# lyapunov_step: unused, kept for perfbench's alias test (ROADMAP item 1)
from .lti_estimation import (LinearSystem, SteadyState, _extend_ladders,
                             _ordered_sum, lyapunov_step, steady_state)
from .scheduling import (CostReport, Schedule, ShiftTuple, _gap_pricer,
                         _row_runs, _sole_receptions, reception)


@dataclass
class CovarianceSeries:
    """Deterministic per-slot remote error covariance traces.

    traces[i][k] is sensor i's trace at slot k, the trace ladder's entry at
    the slot's gap since the last reception, as the ladder reads it: +inf
    once the ladder saturates, until the next reception resets it.
    overflow_at[i] is the first slot whose trace is +inf, or None.
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
        tail = self.traces[:, self.horizon - self.period:self.horizon]
        return CostReport(tuple(math.inf if div else float(np.mean(row))
                                for div, row in zip(self.divergent, tail)))


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

    Slot k's covariance is h^g(P_bar), g being k minus the last reception
    slot <= k, so its trace is ladder entry g, to the bit; a sensor that
    never receives reads entries 1 to horizon.  The gaps of every sensor
    and slot are computed at once.  The budget (SCHEDSEC_BUDGET) is
    charged the N * horizon slots of the series before any is filled.

    All the ladders are extended in one `_extend_ladders` call, to the
    longest gap each sensor reads: ladders of one state dimension step as
    one stack, and a ladder listed twice steps once.  A ladder stops at
    the end of the block that holds its first non-finite trace, so it
    takes at most twice the steps up to its saturation; every gap from
    there on reads +inf, as `SteadyState.ladder` does.
    """
    horizon = strict_int(horizon, "horizon")
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
    # slot k's gap since the last reception <= k, a virtual one at slot -1:
    # it repeats with the period once a sensor has received, and a sensor
    # that never receives reads k + 1
    slots = np.arange(horizon)
    hit = np.array(receptions, dtype=bool)[:, slots % T]
    gaps = slots - np.maximum.accumulate(np.where(hit, slots, -1), axis=1)
    lengths = (gaps.max(axis=1) + 1).tolist()
    _extend_ladders(ladders, lengths)
    traces = np.array([np.array(lad.ladder(length - 1))[g]
                       for lad, length, g in zip(ladders, lengths, gaps)])
    divergent = tuple(sum(row) == 0 for row in receptions)
    overflow_at = tuple(int(row.argmax()) if row.any() else None
                        for row in np.isinf(traces))
    with np.errstate(over="ignore"):
        running = np.cumsum(traces, axis=1) / np.arange(1, horizon + 1)
    return CovarianceSeries(period=T, horizon=horizon,
                            receptions=receptions, traces=traces,
                            running_means=running, divergent=divergent,
                            overflow_at=overflow_at)


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

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> MonteCarloCost:
        """The statistics of per-trial costs, in trial order."""
        x = np.asarray(samples, dtype=float)
        n = len(x)
        n_div = int(np.sum(np.isinf(x)))
        if n_div:
            return cls(samples=tuple(float(v) for v in x), mean=math.inf,
                       std=math.inf, halfwidth=math.inf, n_divergent=n_div)
        std = float(np.std(x, ddof=1)) if n > 1 else math.inf
        half = 1.96 * std / math.sqrt(n) if n > 1 else math.inf
        return cls(samples=tuple(float(v) for v in x),
                   mean=float(np.mean(x)), std=std, halfwidth=half,
                   n_divergent=0)


# SeedSequence's hash constants (NumPy's bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1


def _hashmix(value, const: int):
    """SeedSequence's hashmix of a 32-bit word, an int or a uint64 array,
    and the hash constant that follows `const`."""
    value = value ^ const
    const = const * _MULT_A & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words, ints or uint64 arrays."""
    z = (_MIX_L * x - _MIX_R * y) & _M32
    return z ^ z >> 16


def _mulhi(a, b):
    """High 64 bits of the 128-bit products of uint64 arrays, from 32-bit
    limbs."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)
    return a1 * b1 + (mid >> 32) + ((a0 * b1 + (mid & _M32)) >> 32)


def _mul128(a, b):
    """(hi, lo) uint64 halves of a * b mod 2^128, for (hi, lo) pairs."""
    return _mulhi(a[1], b[1]) + a[1] * b[0] + a[0] * b[1], a[1] * b[1]


def _add128(a, b):
    """(hi, lo) uint64 halves of a + b mod 2^128, for (hi, lo) pairs."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo


def _lcg_jumps(k0: int, n: int):
    """PCG64's jumps to outputs k0..k0+n-1 from its seeding: output k reads
    the state (inc + initstate) M^(k+1) + inc (1 + M + ... + M^k) mod
    2^128.  Both factors, as (hi, lo) pairs of uint64 arrays."""
    mask, m, c, pairs = (1 << 128) - 1, _PCG_MULT ** 2, 1 + _PCG_MULT, []
    for k in range(1, k0 + n):
        if k >= k0:
            pairs.append((m & mask, c & mask))
        m, c = m * _PCG_MULT & mask, c + m
    return [(np.array([v[f] >> 64 for v in pairs], dtype=np.uint64),
             np.array([v[f] & _M64 for v in pairs], dtype=np.uint64))
            for f in (0, 1)]


def _trial_shifts(seed: int, lo: int, hi: int, N: int, T: int) -> np.ndarray:
    """The shifts of trials lo..hi-1, computed for the whole window at once.

    Row j is `Generator(PCG64(SeedSequence(seed).spawn(hi)[lo + j]))
    .integers(0, T, size=N)`, to the bit, for 0 <= lo <= hi <= 2^64.  The
    pool the seed alone fixes is read off one `SeedSequence(seed)`, which
    is never spawned; from there the steps are NumPy's, on arrays: the
    spawn-key words mixed into that pool per trial,
    `generate_state(4, uint64)`, PCG64's srandom, its XSL-RR outputs
    (O'Neill 2014) split into `next_uint32`'s low then high halves, and
    Lemire's bounded draws (ACM TOMACS 2019), on 64-bit words when
    T > 2^32.  Whether a word is rejected does not depend on its place,
    so a trial's draws are its first N accepted words; a trial short of
    them steps its generator further.
    """
    out = np.zeros((hi - lo, N), dtype=np.int64)
    if T == 1 or not out.size:
        return out  # integers(0, 1) draws nothing
    # the pool the seed alone fixes, and the hash constant its mixing
    # leaves: one hash per word of the pool, 12 across it and 4 per seed
    # word past the fourth, 4 * max(4, words) in all
    pool = np.random.SeedSequence(seed).pool.tolist()
    words = -(-seed.bit_length() // 32)
    const = _INIT_A * pow(_MULT_A, 4 * max(4, words), 1 << 32) & _M32
    # the spawn key (j,): one word below 2^32, two from there
    j = np.uint64(lo) + np.arange(hi - lo, dtype=np.uint64)
    pool = [np.full(j.shape, w, dtype=np.uint64) for w in pool]
    for key, sel in ((j & _M32, np.s_[:]), (j >> 32, j > _M32)):
        key = key[sel]
        for dst in range(4):
            h, const = _hashmix(key, const)
            pool[dst][sel] = _mix(pool[dst][sel], h)
    const, state = _INIT_B, []
    for i in range(8):
        w = pool[i % 4] ^ const
        const = const * _MULT_B & _M32
        w = w * const & _M32
        state.append(w ^ w >> 16)
    s = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
    # srandom(initstate = s[0:2], initseq = s[2:4]), as (hi, lo) halves
    inc = (s[2] << 1 | s[3] >> 63, s[3] << 1 | 1)
    base = _add128(inc, (s[0], s[1]))
    wide = T > 1 << 32
    threshold = (1 << (64 if wide else 32)) % T
    # an array, not a NumPy scalar: NumPy 1.x promotes a uint64 scalar
    # combined with a Python int to float64
    t = np.full(1, T, dtype=np.uint64)
    got = np.zeros(hi - lo, dtype=np.int64)
    todo = np.arange(hi - lo)
    k0 = 1
    while todo.size:
        n_out = -(-int(N - got[todo].min()) // (1 if wide else 2))
        power, total = _lcg_jumps(k0, n_out)
        st = _add128(_mul128([h[todo, None] for h in base], power),
                     _mul128([h[todo, None] for h in inc], total))
        x, rot = st[0] ^ st[1], st[0] >> 58
        x = x >> rot | x << ((64 - rot) & 63)
        if wide:
            left, value = x * t, _mulhi(x, t)
        else:
            # with T = 2^32 every word is accepted as it is: the plain
            # next_uint32 draws
            m = np.stack([x & _M32, x >> 32], axis=-1).reshape(
                len(todo), -1) * t
            left, value = m & _M32, m >> 32
        accept = left >= threshold
        rank = got[todo, None] + np.cumsum(accept, axis=1) - 1
        take = accept & (rank < N)
        r, c = np.nonzero(take)
        out[todo[r], rank[r, c]] = value[r, c]
        got[todo] += take.sum(axis=1)
        todo = todo[got[todo] < N]
        k0 += n_out
    return out


def monte_carlo_expected_cost(systems: Sequence[LinearSystem], policies,
                              trials: int, seed: int,
                              ladders: Sequence[SteadyState] | None = None
                              ) -> MonteCarloCost:
    """Average the exact periodic cost over uniformly random clock shifts.

    Trial j's shift tuple is the first N bounded draws of
    `Generator(PCG64(child_j))`, child_j the j-th SeedSequence child of
    `seed` (a nonnegative integer), and its sample is `average_cost` of the
    reception pattern that tuple gives.  The shifts of a block of trials
    are computed at once by `_trial_shifts`, with no child or generator
    built.  The budget (SCHEDSEC_BUDGET) is charged the trials * N * T
    slots the trials gather before any trial is drawn.
    """
    trials = strict_int(trials, "trials")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    seed = strict_seed(seed)
    sched = Schedule.coerce(policies)
    N, T = sched.n_sensors, sched.period
    if len(systems) != N:
        raise ValidationError(f"{len(systems)} systems for {N} policy rows")
    Work(f"Monte Carlo over {trials} trials of {N} rows of period {T}"
         ).charge(trials * N * T)
    if ladders is None:
        ladders = [steady_state(sys) for sys in systems]
    price = _gap_pricer(ladders)
    block = max(1, scheduling._BLOCK_SLOTS // (N * T))
    samples = []
    for lo in range(0, trials, block):
        taus = _trial_shifts(seed, lo, min(trials, lo + block), N, T)
        sole = _sole_receptions(sched.array[None], taus).reshape(-1, T)
        per = [price(r % N, runs) for r, runs in enumerate(_row_runs(sole))]
        # a trial's cost is its sensors' costs summed as CostReport.total
        samples += [_ordered_sum(per[j:j + N]) for j in range(0, len(per), N)]
    return MonteCarloCost.from_samples(samples)
