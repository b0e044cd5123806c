"""Every script under scripts/ runs to completion on small arguments, and
defense_comparison.py's randomized study prints the reference loop's
statistics."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import child_rngs
from schedsec.lti_estimation import bundled_systems, steady_state
from schedsec.protocol_sequences import construct_shift_invariant
from schedsec.scheduling import ShiftTuple, average_cost, reception

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


@pytest.mark.parametrize("script, args", [
    ("attack_sweep.py", ["--trials", "2", "--sensors", "2", "3",
                         "--periods", "3", "4"]),
    ("compute_goldens.py", []),
    ("defense_comparison.py", ["--trials", "2"]),
])
def test_script_runs(script, args):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def drawn_interleaving(factors, rng):
    """The shift-invariant set of `factors`, (n, d) pairs, with its
    interleaving vectors drawn from rng in the randomized study's order:
    factor by factor, one vector per earlier residue."""
    interleavings = []
    D_prev = 1
    for n, d in factors:
        vecs = []
        for _ in range(D_prev):
            vec = [0] * d
            for pos in rng.choice(d, size=n, replace=False):
                vec[int(pos)] = 1
            vecs.append(vec)
        interleavings.append(vecs)
        D_prev *= d
    return construct_shift_invariant(factors, interleavings=interleavings)


def test_defense_comparison_randomized_interleaving():
    # trial j redraws the interleaving vectors, then its shifts, from
    # default_rng of the seed's j-th SeedSequence child
    proc = run_script("defense_comparison.py",
                      ["--randomize-interleaving", "--trials", "12",
                       "--seed", "13"])
    assert proc.returncode == 0, proc.stderr
    printed = re.findall(r"mean cost +(\S+) \+/- (\S+) +\(std (\S+),",
                         proc.stdout)
    ladders = [steady_state(sys) for sys in bundled_systems()]
    want = []
    for factors in ([(1, 3)] * 3, [(1, 2)] * 3):
        samples = []
        for rng in child_rngs(13, 12):
            sched = drawn_interleaving(factors, rng)
            taus = ShiftTuple(rng.integers(0, sched.period, size=3))
            samples.append(average_cost(reception(sched, taus),
                                        ladders).total)
        std = float(np.std(samples, ddof=1))
        want.append((f"{float(np.mean(samples)):.6f}",
                     f"{1.96 * std / math.sqrt(12):.6f}", f"{std:.6f}"))
    assert printed == want


@pytest.mark.parametrize("args", [["--trials", "0"], ["--denominator", "1"],
                                  ["--seed", "-1"]])
def test_defense_comparison_rejects_arguments(args):
    proc = run_script("defense_comparison.py", args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "must be >=" in proc.stderr
