"""Exact covariance recursions and Monte Carlo evaluation.

`exact_covariance_series` iterates the remote estimator's error covariance
matrix slot by slot, which gives a route to long-run costs that never
touches the trace-ladder bookkeeping in `scheduling`: the two must agree,
and tests hold them to that.  `monte_carlo_expected_cost` averages exact
per-attack costs over random clock-shift attacks, and
`state_trajectory_sim` generates noisy state/estimate sample paths whose
empirical error covariances match the deterministic series slot for slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .lti_estimation import (LinearSystem, SteadyState, _psd_sqrt,
                             lyapunov_step, steady_state)
from .protocol_sequences import PolicySet, construct_shift_invariant
from .scheduling import (CostReport, Schedule, ShiftTuple, average_cost,
                         reception)

OVERFLOW_TRACE = 1e12


@dataclass(frozen=True)
class SimConfig:
    """Common knobs for the stochastic simulators."""

    horizon: int = 1000
    seed: int = 0
    trials: int = 1

    def __post_init__(self):
        if self.horizon < 1:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        if self.trials < 1:
            raise ValidationError(f"trials must be positive, got {self.trials}")


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

    def growth_factors(self, sensor: int) -> np.ndarray:
        """trace[k] / trace[k - period] for k >= period."""
        t = self.traces[sensor]
        return t[self.period:] / t[:self.horizon - self.period]

    def to_rows(self):
        rows = []
        for k in range(self.horizon):
            for i in range(self.n_sensors):
                rows.append((k, i, repr(float(self.traces[i, k])),
                             repr(float(self.running_means[i, k])),
                             int(self.divergent[i])))
        return rows

    def write_csv(self, path_or_file):
        header = "k,sensor,trace,running_mean,divergent_flag\n"
        if hasattr(path_or_file, "write"):
            fh = path_or_file
            fh.write(header)
            for row in self.to_rows():
                fh.write(",".join(str(v) for v in row) + "\n")
        else:
            with open(path_or_file, "w", encoding="utf-8") as fh:
                self.write_csv(fh)

    def summary(self) -> dict:
        periodic = self.periodic_average()
        sensors = []
        for i in range(self.n_sensors):
            sensors.append({
                "index": i,
                "final_trace": float(self.traces[i, -1]),
                "mean_trace": float(self.running_means[i, -1]),
                "divergent": bool(self.divergent[i]),
                "overflow_at": self.overflow_at[i],
            })
        doc = {"period": self.period, "horizon": self.horizon,
               "sensors": sensors}
        if periodic is not None:
            doc["periodic_average"] = {
                "per_sensor": [None if math.isinf(v) else v
                               for v in periodic.per_sensor],
                "total": None if math.isinf(periodic.total) else periodic.total,
            }
        return doc


def exact_covariance_series(systems: Sequence[LinearSystem], policies,
                            attack: ShiftTuple | None = None,
                            horizon: int = 1000,
                            initial="steady",
                            ladders: Sequence[SteadyState] | None = None
                            ) -> CovarianceSeries:
    """Iterate each sensor's remote error covariance under a reception
    pattern derived from (possibly attacked) transmission rows.

    A slot with a reception resets the covariance to the local filter's
    steady state; any other slot applies one open-loop prediction step.
    The virtual slot -1 counts as a reception, so with initial="steady"
    the pre-first-packet segment follows the prediction iterates of the
    steady state.  Pass a list of matrices as `initial` to start elsewhere.
    """
    sched = Schedule.coerce(policies)
    N = sched.n_sensors
    if len(systems) != N:
        raise ValidationError(f"{len(systems)} systems for {N} policy rows")
    receptions = tuple(tuple(r) for r in reception(sched, attack))
    if ladders is None:
        ladders = [steady_state(sys) for sys in systems]
    if initial == "steady":
        start = [lad.P_bar for lad in ladders]
    else:
        start = [np.asarray(P, dtype=float) for P in initial]
        if len(start) != N:
            raise ValidationError(f"{len(start)} initial matrices for {N} sensors")
    traces = np.empty((N, horizon))
    divergent = tuple(sum(row) == 0 for row in receptions)
    overflow_at: list[int | None] = [None] * N
    for i, sys in enumerate(systems):
        P = start[i].copy()
        frozen = False
        for k in range(horizon):
            if not frozen:
                if receptions[i][k % sched.period]:
                    P = ladders[i].P_bar.copy()
                else:
                    P = lyapunov_step(sys, P)
                tr = float(np.trace(P))
                if tr > OVERFLOW_TRACE:
                    overflow_at[i] = k
                    frozen = True
            traces[i, k] = float(np.trace(P))
    running = np.cumsum(traces, axis=1) / np.arange(1, horizon + 1)
    return CovarianceSeries(period=sched.period, horizon=horizon,
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
    running_mean: tuple[float, ...]
    running_halfwidth: tuple[float, ...]
    n_divergent: int


def _mc_statistics(samples: list[float]) -> MonteCarloCost:
    x = np.asarray(samples, dtype=float)
    n = len(x)
    n_div = int(np.sum(np.isinf(x)))
    counts = np.arange(1, n + 1, dtype=float)
    if n_div:
        running_mean = tuple(math.inf if np.any(np.isinf(x[:j + 1])) else
                             float(np.mean(x[:j + 1])) for j in range(n))
        running_half = tuple(math.inf for _ in range(n))
        return MonteCarloCost(samples=tuple(float(v) for v in x),
                              mean=math.inf, std=math.inf, halfwidth=math.inf,
                              running_mean=running_mean,
                              running_halfwidth=running_half,
                              n_divergent=n_div)
    csum = np.cumsum(x)
    cmean = csum / counts
    csq = np.cumsum(x * x)
    # running variance from cumulative moments; the cancellation here can
    # leave ~1e-13 absolute noise, so the final statistics are redone two-pass
    with np.errstate(invalid="ignore"):
        cvar = np.maximum(csq - counts * cmean * cmean, 0.0) / np.maximum(counts - 1, 1)
    chalf = 1.96 * np.sqrt(cvar / counts)
    chalf[0] = math.inf  # one sample carries no interval
    std = float(np.std(x, ddof=1)) if n > 1 else math.inf
    half = 1.96 * std / math.sqrt(n) if n > 1 else math.inf
    return MonteCarloCost(samples=tuple(float(v) for v in x),
                          mean=float(np.mean(x)), std=std, halfwidth=half,
                          running_mean=tuple(float(v) for v in cmean),
                          running_halfwidth=tuple(float(v) for v in chalf),
                          n_divergent=0)


def monte_carlo_expected_cost(systems: Sequence[LinearSystem], policies,
                              cfg: SimConfig,
                              attack_model="uniform",
                              randomize_interleaving: bool = False,
                              ladders: Sequence[SteadyState] | None = None
                              ) -> MonteCarloCost:
    """Average the exact periodic cost over randomly drawn clock shifts.

    Each trial gets an independent child seed (SeedSequence spawning), draws
    interleaving vectors first when randomize_interleaving is set, then the
    shift tuple when attack_model is "uniform"; a fixed ShiftTuple may be
    passed instead to pin the attack.  randomize_interleaving requires a
    PolicySet so the duty factors are known; the rebuilt sets skip the
    invariance recheck since the construction guarantees it.
    """
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
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    samples = []
    for child in children:
        rng = np.random.default_rng(child)
        sched = base
        if randomize_interleaving:
            factors = policies.factors
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
            sched = construct_shift_invariant(
                factors, interleavings=interleavings, verify=False)
        if isinstance(attack_model, ShiftTuple):
            attack = attack_model
        else:
            attack = ShiftTuple(taus=tuple(
                int(t) for t in rng.integers(0, sched.period, size=N)))
        report = average_cost(reception(sched, attack), ladders)
        samples.append(report.total)
    return _mc_statistics(samples)


@dataclass
class TrajectoryBatch:
    """Noisy sample paths for every sensor, vectorized over trials.

    Per sensor i the arrays have shapes states (trials, K, n), measurements
    (trials, K, m), local_estimates and remote_estimates (trials, K, n).
    The local filter runs at its steady-state gain with the estimation
    error started in its stationary law, and the remote estimator counts a
    virtual reception at slot -1, so the empirical remote error covariance
    at slot k is exactly the deterministic series value for k's gap.
    """

    period: int
    horizon: int
    trials: int
    seed: int
    receptions: tuple[tuple[int, ...], ...]
    states: list = field(default_factory=list)
    measurements: list = field(default_factory=list)
    local_estimates: list = field(default_factory=list)
    remote_estimates: list = field(default_factory=list)

    def remote_errors(self, sensor: int) -> np.ndarray:
        return self.states[sensor] - self.remote_estimates[sensor]

    def empirical_remote_covariance(self, sensor: int, k: int) -> np.ndarray:
        err = self.remote_errors(sensor)[:, k, :]
        return err.T @ err / err.shape[0]


def state_trajectory_sim(systems: Sequence[LinearSystem], policies,
                         attack: ShiftTuple | None, cfg: SimConfig,
                         ladders: Sequence[SteadyState] | None = None
                         ) -> TrajectoryBatch:
    """Simulate states, measurements, and both estimators under a (possibly
    attacked) reception pattern.  Bit-identical for a fixed config: noise is
    drawn per sensor from an independent SeedSequence child, in the fixed
    order initial error, then per slot process noise then measurement noise.
    """
    sched = Schedule.coerce(policies)
    N = sched.n_sensors
    if len(systems) != N:
        raise ValidationError(f"{len(systems)} systems for {N} policy rows")
    receptions = tuple(tuple(r) for r in reception(sched, attack))
    if ladders is None:
        ladders = [steady_state(sys) for sys in systems]
    K = cfg.horizon
    children = np.random.SeedSequence(cfg.seed).spawn(N)
    batch = TrajectoryBatch(period=sched.period, horizon=K, trials=cfg.trials,
                            seed=cfg.seed, receptions=receptions)
    for i, sys in enumerate(systems):
        rng = np.random.default_rng(children[i])
        n, m = sys.n, sys.m
        P_bar = ladders[i].P_bar
        P_pred = lyapunov_step(sys, P_bar)
        # steady posterior gain: P_pred C^T (C P_pred C^T + R)^-1
        S = sys.C @ P_pred @ sys.C.T + sys.R
        K_gain = np.linalg.solve(S.T, (P_pred @ sys.C.T).T).T
        sqrtQ = _psd_sqrt(sys.Q)
        sqrtR = _psd_sqrt(sys.R)
        sqrtP = _psd_sqrt(P_bar)
        states = np.empty((cfg.trials, K, n))
        measurements = np.empty((cfg.trials, K, m))
        local = np.empty((cfg.trials, K, n))
        remote = np.empty((cfg.trials, K, n))
        x = np.zeros((cfg.trials, n))
        e0 = rng.standard_normal((cfg.trials, n)) @ sqrtP.T
        x_loc = x - e0
        x_rem = x_loc.copy()  # virtual reception at slot -1
        for k in range(K):
            w = rng.standard_normal((cfg.trials, n)) @ sqrtQ.T
            v = rng.standard_normal((cfg.trials, m)) @ sqrtR.T
            x = x @ sys.A.T + w
            y = x @ sys.C.T + v
            pred = x_loc @ sys.A.T
            x_loc = pred + (y - pred @ sys.C.T) @ K_gain.T
            if receptions[i][k % sched.period]:
                x_rem = x_loc.copy()
            else:
                x_rem = x_rem @ sys.A.T
            states[:, k, :] = x
            measurements[:, k, :] = y
            local[:, k, :] = x_loc
            remote[:, k, :] = x_rem
        batch.states.append(states)
        batch.measurements.append(measurements)
        batch.local_estimates.append(local)
        batch.remote_estimates.append(remote)
    return batch
