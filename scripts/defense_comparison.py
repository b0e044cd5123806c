#!/usr/bin/env python3
"""Compare the two shift-invariant defenses under random clock-shift attacks.

For each defense (equal duty factors 1/d per sensor, and the shortest-period
all-1/2 family) this draws uniform random attack tuples, prices each exactly,
and prints the Monte Carlo mean with a 95% half-width next to the closed-form
bounds.  With --randomize-interleaving the construction's free choices are
also redrawn per trial.
"""

import argparse

import numpy as np

from schedsec.lti_estimation import bundled_systems, steady_state
from schedsec.protocol_sequences import bounds, construct_shift_invariant
from schedsec.scheduling import ShiftTuple, average_cost, reception
from schedsec.simulation import MonteCarloCost, monte_carlo_expected_cost


def at_least(lo):
    """An argparse type: an integer >= lo."""
    def integer(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return integer


def randomized_interleaving_cost(factors, states, trials, seed):
    """Monte Carlo cost with the interleaving vectors redrawn per trial.

    Trial j draws from default_rng of SeedSequence(seed)'s j-th child:
    first each sensor's interleaving vectors, factor by factor and one
    vector per earlier residue, then its shift tuple over the rebuilt
    set's period.  Its sample is that attack's exact average cost.
    """
    samples = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        interleavings, D_prev = [], 1
        for n, d in factors:
            vecs = np.zeros((D_prev, d), dtype=np.int8)
            for vec in vecs:
                vec[rng.choice(d, size=n, replace=False)] = 1
            interleavings.append(vecs)
            D_prev *= d
        ps = construct_shift_invariant(factors, interleavings=interleavings)
        taus = ShiftTuple(rng.integers(0, ps.period, size=len(factors)))
        samples.append(average_cost(reception(ps, taus), states).total)
    return MonteCarloCost.from_samples(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=at_least(1), default=200)
    ap.add_argument("--seed", type=at_least(0), default=0)
    ap.add_argument("--denominator", type=at_least(2), default=3,
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
        if args.randomize_interleaving:
            mc = randomized_interleaving_cost(factors, states, args.trials,
                                              args.seed)
        else:
            mc = monte_carlo_expected_cost(systems, ps, args.trials,
                                           args.seed, ladders=states)
        print(f"\n{label}  (period {ps.period})")
        print(f"  lower bound    {br.lower:.6f}")
        print(f"  mean cost      {mc.mean:.6f} +/- {mc.halfwidth:.6f}"
              f"  (std {mc.std:.6f}, divergent trials {mc.n_divergent})")
        print(f"  upper bound    {br.upper:.6f}")


if __name__ == "__main__":
    main()
