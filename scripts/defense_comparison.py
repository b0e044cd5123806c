#!/usr/bin/env python3
"""Compare the two shift-invariant defenses under random clock-shift attacks.

For each defense (equal duty factors 1/d per sensor, and the shortest-period
all-1/2 family) this draws uniform random attack tuples, prices each exactly,
and prints the Monte Carlo mean with a 95% half-width next to the closed-form
bounds.  With --randomize-interleaving the construction's free choices are
also redrawn per trial.
"""

import argparse

from schedsec.lti_estimation import bundled_systems, steady_state
from schedsec.protocol_sequences import bounds, construct_shift_invariant
from schedsec.simulation import monte_carlo_expected_cost


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--denominator", type=int, default=3,
                    help="same-duty defense uses duty factor 1/D for all "
                         "sensors (default 3)")
    ap.add_argument("--randomize-interleaving", action="store_true")
    args = ap.parse_args()

    systems = bundled_systems()
    states = [steady_state(sys) for sys in systems]
    n = len(systems)

    print(f"{args.trials} uniform random attack tuples, seed {args.seed}")
    for label, factors in ((f"same-duty (1/{args.denominator})^{n}",
                            [(1, args.denominator)] * n),
                           (f"shortest-period (1/2)^{n}", [(1, 2)] * n)):
        ps = construct_shift_invariant(factors)
        br = bounds(ps, states)
        mc = monte_carlo_expected_cost(
            systems, ps, args.trials, args.seed,
            randomize_interleaving=args.randomize_interleaving,
            ladders=states)
        print(f"\n{label}  (period {ps.period})")
        print(f"  lower bound    {br.lower:.6f}")
        print(f"  mean cost      {mc.mean:.6f} +/- {mc.halfwidth:.6f}"
              f"  (std {mc.std:.6f}, divergent trials {mc.n_divergent})")
        print(f"  upper bound    {br.upper:.6f}")


if __name__ == "__main__":
    main()
