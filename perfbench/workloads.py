"""The three benchmark workloads: inputs, jobs and output checks.

Every workload turns its seed into inputs, yields its jobs in rounds (the
timed loop only stops between rounds, so each run holds whole rounds of a
fixed mix), runs one job per call, and checks the stored results after the
timed loop with rules written here, not with the code under test.

The layers are reached through their module attributes (``attack.f``, not
a copied ``f``) so that the tracer's rebinding reaches the calls made here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from schedsec import attack, cli, lti_estimation, protocol_sequences
from schedsec import scheduling, simulation
from schedsec.errors import ValidationError

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- rules re-implemented here, independent of the package ----------------


def receptions(rows, taus=None):
    """Collision channel: sensor i receives in slot k iff its (shifted) row
    transmits there and no other shifted row does."""
    T = len(rows[0])
    taus = taus or [0] * len(rows)
    shifted = [[row[(k + t) % T] for k in range(T)] for row, t in zip(rows, taus)]
    busy = [sum(col) for col in zip(*shifted)]
    return [[int(r[k] == 1 and busy[k] == 1) for k in range(T)] for r in shifted]


def random_exclusive_rows(rng, n, T):
    """Random columnwise transmitter assignment; the first n columns are a
    permutation, so every sensor holds at least one slot."""
    cols = rng.integers(0, n, size=T)
    cols[:n] = rng.permutation(n)
    return tuple(tuple(int(c == i) for c in cols) for i in range(n))


def random_unstable_system(rng, name):
    """Random 2x2 detectable, strictly unstable system."""
    while True:
        A = [[rng.uniform(1.01, 1.3), rng.uniform(-1.0, 1.0)],
             [0.0, rng.uniform(-0.9, 0.9)]]
        C = [[rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)]]
        Q = np.diag(rng.uniform(0.05, 0.5, size=2))
        R = [[rng.uniform(0.2, 2.0)]]
        try:
            return lti_estimation.LinearSystem(A=A, C=C, Q=Q, R=R,
                                               Pi=np.eye(2), name=name)
        except ValidationError:
            continue


def dare_posterior(sys):
    """Steady-state a-posteriori covariance from scipy's DARE solver plus
    one measurement update written out here."""
    import scipy.linalg
    P = scipy.linalg.solve_discrete_are(sys.A.T, sys.C.T, sys.Q, sys.R)
    S = sys.C @ P @ sys.C.T + sys.R
    return P - P @ sys.C.T @ np.linalg.solve(S, sys.C @ P)


def rel_close(a, b, rtol):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b)) <= rtol * float(np.linalg.norm(b))


@dataclass
class Job:
    index: int
    kind: str
    payload: tuple


class Workload:
    name = ""
    why = ""
    counted_rounds = 1      # rounds in the fixed set that --trace 1 runs

    def rounds(self):
        raise NotImplementedError

    def run(self, job: Job):
        raise NotImplementedError

    def check_job(self, job: Job, result) -> str | None:
        return None

    def check_run(self, records) -> list[str]:
        """Checks over the whole run that are not tied to one job."""
        return []

    def close(self):
        pass


# -- paper_pipeline --------------------------------------------------------


class PaperPipeline(Workload):
    name = "paper_pipeline"
    why = ("the command users run: reproduce-paper on the bundled study; "
           "simulation, defense verification and CLI rendering dominate")
    counted_rounds = 20

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        # reproduce-paper's inputs are the bundled study and its default
        # flags, so the seed changes nothing here
        self.seed = seed
        self.out = workdir / "paper_pipeline"
        self.argv = ["reproduce-paper", "--out", str(self.out)]
        self.expected = load_expected()["paper_pipeline"]["outputs"]
        if smoke:
            self.counted_rounds = 1

    def rounds(self):
        for k in itertools.count():
            yield [Job(k, "reproduce", ())]

    def run(self, job):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"reproduce-paper exited with {code}")
        return json.loads((self.out / "run_manifest.json").read_text())["outputs"]

    def check_job(self, job, result):
        if result != self.expected:
            bad = sorted(k for k in set(result) | set(self.expected)
                         if result.get(k) != self.expected.get(k))
            return f"output hashes differ from the recorded set: {bad}"
        return None

    def check_run(self, records):
        # hash the files of the last job ourselves, independently of the
        # manifest the CLI wrote
        outputs = records[-1].result if records[-1].ok else {}
        problems = []
        for name, want in outputs.items():
            got = "sha256:" + hashlib.sha256(
                (self.out / name).read_bytes()).hexdigest()
            if got != want:
                problems.append(f"{name} on disk does not match its manifest hash")
        return problems

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


# -- attack_synthesis ------------------------------------------------------


ATTACK_CLASSES = ((6, 12), (8, 16), (10, 20))
POPULATION_SEED = 20241017
POPULATION_PER_CLASS = 36


def attack_population():
    """Fixed population of random exclusive full-coverage schedules,
    POPULATION_PER_CLASS per (N, T) class."""
    rng = np.random.default_rng(POPULATION_SEED)
    return [[random_exclusive_rows(rng, n, T)
             for _ in range(POPULATION_PER_CLASS)]
            for n, T in ATTACK_CLASSES]


def rotate(rows, rotation):
    """The same schedule started `rotation` slots later: every row shifted
    by the same amount, which leaves every attack's cost unchanged."""
    T = len(rows[0])
    return tuple(tuple(row[(k + rotation) % T] for k in range(T))
                 for row in rows)


class AttackSynthesis(Workload):
    """Solve times are heavy-tailed (about 1.5 standard deviations per mean
    per schedule), so fresh draws for every seed would make a run's
    throughput and tail depend on which schedules it happened to draw.
    Every run therefore cycles through one fixed population, and the seed
    draws the order and a random rotation in time of each schedule, which
    changes neither its optimal per-target costs nor the search's work.
    (Sensor permutations and time reversal were left out: they change the
    number of branch-and-bound nodes of the heaviest schedules by up to
    seven times, so the tail would depend on the seed.)  A round is one
    whole cycle (about 10 s at the recorded baseline), so every run covers
    the population evenly, whatever the solver's speed."""

    name = "attack_synthesis"
    why = ("minimum-spoof attack search (branch-and-bound over simplex LPs) "
           "on random exclusive schedules; no simulation or defense code")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.population = attack_population()
        self.costs = load_expected()["attack_synthesis"]["per_target_costs"]
        self.rng = np.random.default_rng(seed)
        self.per_class = POPULATION_PER_CLASS
        self.side_size = 12
        if smoke:
            self.per_class = 1
            self.side_size = 2
        self.first_cycle = self._cycle(0)

    def _cycle(self, c):
        # per-run order: each class's population in a seeded order, the
        # classes taking turns, every schedule a random rotation
        orders = [self.rng.permutation(POPULATION_PER_CLASS)[:self.per_class]
                  for _ in ATTACK_CLASSES]
        jobs = []
        for r in range(self.per_class):
            for ci, (_, T) in enumerate(ATTACK_CLASSES):
                pop = int(orders[ci][r])
                rows = rotate(self.population[ci][pop],
                              int(self.rng.integers(T)))
                sched = scheduling.Schedule(period=T, rows=rows)
                index = (c * self.per_class + r) * len(ATTACK_CLASSES) + ci
                jobs.append(Job(index, "bnb", (ci, pop, sched)))
        return jobs

    def rounds(self):
        yield self.first_cycle
        for c in itertools.count(1):
            yield self._cycle(c)

    def run(self, job):
        return attack.bnb_optimal_attack(job.payload[2])

    def check_job(self, job, result):
        ci, pop, sched = job.payload
        rows, T = sched.rows, sched.period
        want = self.costs[ci][pop]
        got = list(result.per_target_costs or ())
        if got != want:
            return f"per_target_costs {got} != recorded {want}"
        finite = [c for c in want if c is not None]
        if not finite:
            if result.blocking or result.taus is not None:
                return "reports a blocking attack where none exists"
            return None
        if not result.blocking or result.taus is None:
            return "no blocking attack reported"
        taus = list(result.taus.taus)
        if len(taus) != len(rows) or any(not 0 <= t < T for t in taus):
            return f"shift tuple {taus} out of range"
        spoofed = sum(t != 0 for t in taus)
        if not result.spoofed_count == spoofed == min(finite):
            return (f"spoofed_count {result.spoofed_count}, nonzero shifts "
                    f"{spoofed}, cheapest target {min(finite)}")
        rec = receptions(rows, taus)
        starved = tuple(i for i in range(len(rows)) if not any(rec[i]))
        if tuple(result.blocked_sensors) != starved:
            return f"blocked_sensors {result.blocked_sensors} != starved {starved}"
        if not any(taus[i] == 0 for i in starved):
            return "no starved sensor kept an honest clock"
        return None

    def check_run(self, records):
        # small side set where the brute-force oracle is cheap
        rng = np.random.default_rng([self.seed, 1])
        problems = []
        for k in range(self.side_size):
            n = int(rng.integers(3, 6))
            T = int(rng.integers(n, 8))
            sched = scheduling.Schedule(period=T,
                                        rows=random_exclusive_rows(rng, n, T))
            a = attack.bnb_optimal_attack(sched)
            b = attack.brute_force_optimal_attack(sched)
            if (a.blocking, a.spoofed_count) != (b.blocking, b.spoofed_count):
                problems.append(f"side instance {k} {sched.rows}: bnb "
                                f"{a.spoofed_count}, brute force {b.spoofed_count}")
        return problems


# -- design_sweep ----------------------------------------------------------


N3_PERIODS = (3, 4, 5, 6, 7)
N4_PERIODS = (4, 5, 6)
FACTOR_SETS = (
    ((1, 2),) * 2,
    ((1, 2),) * 3,
    ((1, 2),) * 4,
    ((1, 3),) * 3,
    ((1, 4), (1, 3)),
    ((1, 3), (2, 3), (1, 4)),
    ((1, 2), (1, 3), (1, 2), (1, 3)),
    ((3, 8), (3, 8), (1, 4)),      # D = 256: verification falls back to sampling
)
MARGINAL_LOG_EPS = (-3.5, -3.0)   # A = 1 + eps, eps log-uniform in this range
# Unit process noise and a low signal-to-noise sensor give 9k-12k fixed-point
# iterations.  steady_state stops on an absolute step of 1e-10, so at small
# covariance scales (Q = 1e-6, R = 1e3: P_bar ~ 1) its result misses the DARE
# solution by up to 2.5e-7 relative; at this scale it agrees to ~3e-10.
MARGINAL_Q = 1.0
MARGINAL_R = 1e6
SHIFT_SAMPLES = 4                 # seeded shift tuples per defense check
SEARCH_SPOT_CHECKS = 16           # random rival schedules per search


class DesignSweep(Workload):
    name = "design_sweep"
    why = ("schedule enumeration, near-marginal steady states and "
           "shift-invariance proofs; no attack search or simulation")
    counted_rounds = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        if smoke:
            self.mix = {"search3": 1, "search4": 0, "marginal": 1}
            self.factor_sets = FACTOR_SETS[:2]
        else:
            self.mix = {"search3": 4, "search4": 8, "marginal": 5}
            self.factor_sets = FACTOR_SETS
        self.first_round = self._round(0)

    def _round(self, r):
        rng = self.rng
        groups = []
        for kind, n, periods in (("search3", 3, N3_PERIODS),
                                 ("search4", 4, N4_PERIODS)):
            groups.append([("search", ([random_unstable_system(rng, f"sensor {i}")
                                        for i in range(n)], periods))
                           for _ in range(self.mix[kind])])
        m = self.mix["marginal"]
        lo, hi = MARGINAL_LOG_EPS
        marginal = []
        for j in range(m):
            # one draw per stratum keeps every round's spread of eps alike
            eps = 10.0 ** (lo + (hi - lo) * (j + rng.uniform()) / m)
            marginal.append(("marginal", (lti_estimation.LinearSystem(
                A=[[1.0 + eps]], C=[[1.0]], Q=[[MARGINAL_Q]], R=[[MARGINAL_R]],
                Pi=[[1.0]], name=f"marginal {eps:.3e}"),)))
        groups.append(marginal)
        groups.append([("defense", (factors, [random_unstable_system(
            rng, f"sensor {i}") for i in range(len(factors))]))
            for factors in self.factor_sets])
        # spread every group evenly through the round, so that each kind of
        # job samples the whole run rather than one stretch of it
        order = sorted(((k + 0.5) / len(g), gi, k)
                       for gi, g in enumerate(groups) for k in range(len(g)))
        return [Job(r * 1000 + pos, *groups[gi][k])
                for pos, (_, gi, k) in enumerate(order)]

    def rounds(self):
        yield self.first_round
        for r in itertools.count(1):
            yield self._round(r)

    def run(self, job):
        if job.kind == "search":
            systems, periods = job.payload
            ladders = [lti_estimation.steady_state(s) for s in systems]
            sched, report = scheduling.optimal_schedule_search(
                systems, periods, ladders=ladders)
            return ladders, sched, report
        if job.kind == "marginal":
            return lti_estimation.steady_state(job.payload[0])
        factors, systems = job.payload
        ps = protocol_sequences.construct_shift_invariant(factors)
        ladders = [lti_estimation.steady_state(s) for s in systems]
        return ps, ladders, protocol_sequences.bounds(ps, ladders)

    def check_job(self, job, result):
        if job.kind == "search":
            return self._check_search(job, result)
        if job.kind == "marginal":
            if not rel_close(result.P_bar, dare_posterior(job.payload[0]), 1e-8):
                return "P_bar differs from the DARE solution by more than 1e-8"
            return None
        return self._check_defense(job, result)

    def _check_search(self, job, result):
        systems, periods = job.payload
        ladders, sched, report = result
        rows, T = sched.rows, sched.period
        if T not in periods or len(rows) != len(systems):
            return f"schedule shape {len(rows)}x{T} not among the candidates"
        if any(sum(col) != 1 for col in zip(*rows)):
            return "schedule is not exclusive"
        for sys, lad in zip(systems, ladders):
            if not rel_close(lad.P_bar, dare_posterior(sys), 1e-8):
                return f"{sys.name}: P_bar differs from DARE by more than 1e-8"
        series = simulation.exact_covariance_series(
            systems, sched, horizon=3 * T, ladders=ladders).periodic_average()
        for a, b in zip(report.per_sensor, series.per_sensor):
            if not (math.isfinite(a) and abs(a - b) <= 1e-9 * abs(b)):
                return f"cost {a!r} != simulated periodic average {b!r}"
        # the returned optimum must not lose to random rival schedules
        rng = np.random.default_rng([self.seed, job.index])
        for _ in range(SEARCH_SPOT_CHECKS):
            T2 = int(rng.choice(periods))
            cols = rng.integers(0, len(systems), size=T2)
            rival = [[int(c == i) for c in cols] for i in range(len(systems))]
            cost = scheduling.average_cost(receptions(rival), ladders).total
            if cost < report.total * (1 - 1e-12):
                return f"rival schedule {rival} is cheaper ({cost!r})"
        return None

    def _check_defense(self, job, result):
        factors, systems = job.payload
        ps, ladders, br = result
        D = math.prod(d for _, d in factors)
        if ps.period != D or br.period != D or len(ps.rows) != len(factors):
            return f"period {ps.period} / {br.period}, expected {D}"
        for row, (n, d) in zip(ps.rows, factors):
            if sum(row) != D * n // d:
                return f"row weight {sum(row)} != {D * n // d}"
        # the two bounds coincide for some sets; allow rounding between them
        if not br.lower <= br.upper * (1 + 1e-12):
            return f"bounds out of order: {br.lower} > {br.upper}"
        rng = np.random.default_rng([self.seed, job.index])
        for _ in range(SHIFT_SAMPLES):
            taus = [int(v) for v in rng.integers(0, D, size=len(factors))]
            counts = tuple(sum(r) for r in receptions(ps.rows, taus))
            if counts != tuple(br.per_sensor_receptions):
                return (f"shifts {taus}: receptions {counts} != "
                        f"{tuple(br.per_sensor_receptions)}")
        return None


WORKLOADS = {w.name: w for w in (PaperPipeline, AttackSynthesis, DesignSweep)}
