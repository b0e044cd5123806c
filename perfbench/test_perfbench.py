"""Tests of the benchmark harness itself, on the smoke size.

    python3 -m pytest perfbench

Every workload runs in both modes on tiny inputs and must report exactly
the metrics BENCHMARK.json declares; the tracer, the tail percentile and
the collision rule the checks rely on are tested on hand-made cases.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def run_benchmark(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})


def test_refuses_to_run_without_the_package():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_benchmark("paper_pipeline", 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_rebinds_every_alias_and_restores_them():
    import schedsec.lti_estimation as lti
    import schedsec.simulation as sim
    original = lti.lyapunov_step
    assert sim.lyapunov_step is original
    with tracer.Tracer() as t:
        assert lti.lyapunov_step is not original
        assert sim.lyapunov_step is lti.lyapunov_step
        sys_ = lti.LinearSystem(A=[[2.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                                Pi=[[1.0]])
        lti.steady_state(sys_)
    assert lti.lyapunov_step is original and sim.lyapunov_step is original
    steps = t.calls("lti_estimation.lyapunov_step")
    iterations = t.counters["lti_estimation.steady_state_iterations"]
    # one step per iteration plus the final residual check
    assert steps == iterations + 1
    assert t.calls("lti_estimation.lyapunov_step",
                   "lti_estimation.steady_state") == steps


def test_self_and_total_time_from_spans():
    t = tracer.Tracer()
    t.names = ["attack.outer", "simplex.solve", "attack.inner"]
    # attack.outer [0, 10] holds simplex.solve [2, 5] and attack.inner [6, 8]
    for nid, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 2.0, 5.0),
                                    (2, 0, 6.0, 8.0)):
        t.name_id.append(nid)
        t.parent.append(parent)
        t.job.append(0)
        t.start.append(start)
        t.end.append(end)
    times = t.layer_times()
    assert times["attack"] == {"calls": 2, "self_s": 7.0, "total_s": 10.0}
    assert times["simplex"] == {"calls": 1, "self_s": 3.0, "total_s": 3.0}


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail([float(v) for v in range(1, 201)]) == (95.0, 190.0, 10)
    assert run.tail([float(v) for v in range(1, 11)]) == (50.0, 5.5, 5)


def test_building_a_round_is_off_the_clock():
    class Instant(workloads.Workload):
        def run(self, job):
            return None

    def slow_rounds():
        for k in range(3):
            time.sleep(0.2)
            yield [workloads.Job(k, "noop", ())]

    records, wall = run.run_jobs(Instant(), slow_rounds(), math.inf)
    assert len(records) == 3 and wall < 0.1


def test_reference_time_is_the_mean_near_the_job():
    log = hostspeed.SpeedLog()
    log.mid = [0.0, 1.0, 1.2, 1.4, 5.0]
    log.seconds = [9.0, 1.0, 2.0, 3.0, 9.0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hostspeed, "MIN_SAMPLES", 3)
        assert log.reference_near(1.1, 1.3) == 2.0
        # too few samples near the job: the window widens to take them all
        mp.setattr(hostspeed, "MIN_SAMPLES", 5)
        assert log.reference_near(1.1, 1.3) == pytest.approx(24.0 / 5)
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(3.0, 2 * ref) == 1.5


def test_stopping_clock_is_the_adjusted_job_time():
    class Sleep(workloads.Workload):
        def run(self, job):
            time.sleep(0.02)

    class SlowHost(hostspeed.SpeedLog):
        # a host on which everything takes 1.25 times the reference time
        def reference_near(self, start, end):
            return 1.25 * hostspeed.REFERENCE_S

    rounds = ([workloads.Job(k, "sleep", ())] for k in range(1000))
    records, wall = run.run_jobs(Sleep(), rounds, 0.4, speed=SlowHost())
    assert all(r.adjusted == pytest.approx(r.seconds / 1.25) for r in records)
    # stops at the round boundary nearest to 0.4 s of adjusted time, when
    # the wall clock has gone past it
    assert sum(r.adjusted for r in records) == pytest.approx(0.4, abs=0.02)
    assert wall > 0.45


def test_attack_round_is_one_whole_cycle_of_the_population():
    w = workloads.AttackSynthesis(5, False, run.OUT / "work")
    cycle = w.first_cycle
    size = workloads.POPULATION_PER_CLASS
    assert len(cycle) == size * len(workloads.ATTACK_CLASSES)
    assert sorted((j.payload[0], j.payload[1]) for j in cycle) == [
        (ci, pop) for ci in range(len(workloads.ATTACK_CLASSES))
        for pop in range(size)]


def test_collision_rule_matches_the_paper_attack():
    round_robin = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    rec = workloads.receptions(round_robin, [0, 0, 2])
    assert [sum(r) for r in rec] == [1, 0, 0]
    assert workloads.receptions(round_robin) == [list(r) for r in round_robin]
