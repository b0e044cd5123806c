"""Record the reference values the benchmark checks outputs against.

    python3 perfbench/record.py

Writes perfbench/expected.json with
  * the reproduce-paper output hashes (the run_manifest.json "outputs"
    map of the bundled study with default flags), and
  * the per-target minimum spoof counts of every schedule in the
    attack_synthesis population.

Both are properties of correct outputs, not of one implementation: the
hashes are the byte-identical contract of reproduce-paper and the spoof
counts are optima.  Re-record only when the benchmark's inputs change,
never to absorb a change in the package's results.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import OUT, git_commit  # noqa: E402
from schedsec import attack, cli, scheduling  # noqa: E402
from workloads import (ATTACK_CLASSES, EXPECTED_PATH,  # noqa: E402
                       attack_population)


def paper_outputs() -> dict:
    out = OUT / "work" / "record"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["reproduce-paper", "--out", str(out)])
        if code != 0:
            raise SystemExit(f"reproduce-paper exited with {code}")
        return json.loads((out / "run_manifest.json").read_text())["outputs"]
    finally:
        shutil.rmtree(out, ignore_errors=True)


def population_costs() -> list:
    costs = []
    for (n, T), schedules in zip(ATTACK_CLASSES, attack_population()):
        t0 = time.perf_counter()
        costs.append([list(attack.bnb_optimal_attack(
            scheduling.Schedule(period=T, rows=rows)).per_target_costs)
            for rows in schedules])
        print(f"N={n} T={T}: {len(schedules)} schedules in "
              f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return costs


def main():
    doc = {
        "recorded_at_commit": git_commit(),
        "paper_pipeline": {"outputs": paper_outputs()},
        "attack_synthesis": {"classes": [list(c) for c in ATTACK_CLASSES],
                             "per_target_costs": population_costs()},
    }
    text = json.dumps(doc, indent=1, sort_keys=True)
    # one schedule's costs per line instead of one number per line
    text = re.sub(r"\[\s*([0-9nul,\s]*?)\s*\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    EXPECTED_PATH.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
