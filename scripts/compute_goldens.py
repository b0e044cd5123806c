#!/usr/bin/env python3
"""Recompute every frozen constant used by the test suite.

Run this after changing numerical code to see which golden values moved.
Output is deterministic, one labelled value per line.
"""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from schedsec.attack import bnb_optimal_attack, brute_force_optimal_attack
from schedsec.cli import main as cli_main
from schedsec.lti_estimation import bundled_systems, steady_state
from schedsec.protocol_sequences import bounds, construct_shift_invariant
from schedsec.scheduling import (Schedule, average_cost,
                                 optimal_schedule_search, reception)

ATTACK_PATHS = (Path(__file__).resolve().parents[1] / "tests" / "data"
                / "attack_paths.json")


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    systems = bundled_systems()
    states = [steady_state(sys) for sys in systems]

    print("# steady states")
    for i, st in enumerate(states):
        print(f"P_bar[{i}] =")
        for row in st.P_bar:
            print("    [" + ", ".join(repr(float(v)) for v in row) + "]")
        print(f"trace[{i}] = {float(np.trace(st.P_bar))!r}  "
              f"(residual {st.residual:.3g}, {st.iterations} iterations)")

    print("\n# trace ladder, sensor 0, gaps 0..8")
    for t, v in enumerate(states[0].ladder(8)):
        print(f"L0({t}) = {v!r}")

    print("\n# optimal period-3 schedule")
    sched, report = optimal_schedule_search(systems, [3], ladders=states)
    for i, row in enumerate(sched.rows):
        print(f"row[{i}] = {list(row)}")
    print(f"cost = {report.total!r}")

    print("\n# minimum-spoof blocking attack on that schedule")
    bnb = bnb_optimal_attack(sched)
    brute = brute_force_optimal_attack(sched)
    print(f"bnb:   taus = {list(bnb.taus.taus)}, spoofed = {bnb.spoofed_count}")
    print(f"brute: taus = {list(brute.taus.taus)}, spoofed = {brute.spoofed_count}")

    print("\n# attack search paths (tests/data/attack_paths.json)")
    doc = json.loads(ATTACK_PATHS.read_text(encoding="utf-8"))
    for entry in doc["schedules"]:
        rows = tuple(tuple(int(v) for v in row) for row in entry["rows"])
        res = bnb_optimal_attack(Schedule(period=len(rows[0]), rows=rows))
        print(f"N={len(rows)}, T={len(rows[0])}: "
              f"per_target_costs = {list(res.per_target_costs)}, "
              f"taus = {list(res.taus.taus)}, "
              f"nodes_explored = {res.nodes_explored}")

    print("\n# defense cost bounds (bundled ladders)")
    for label, factors in (("same-duty (1/3)^3", [(1, 3)] * 3),
                           ("shortest-period (1/2)^3", [(1, 2)] * 3)):
        ps = construct_shift_invariant(factors)
        br = bounds(ps, states)
        nominal = average_cost(reception(ps), states).total
        print(f"{label}: period {ps.period}, lower = {br.lower!r}, "
              f"upper = {br.upper!r}, zero-shift cost = {nominal!r}")

    print("\n# reproduce-paper output hashes (default arguments)")
    for fmt in ("csv", "json"):
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(["reproduce-paper", "--format", fmt, "--out", tmp])
            manifest = json.loads((Path(tmp) / "run_manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            print(f"{fmt}: {name} = {digest}")


if __name__ == "__main__":
    main()
