#!/usr/bin/env python3
"""Round-trip a measurement pattern through both reduction compilers.

For random rotation lists the pattern's postselected branch distribution
is computed directly from 2x2 products, then compared against the exact
conditional output of the compiled circuits.  Event probabilities are
checked against their closed forms 2^-n * 2^-(n-1) and 2^-(n+1) * 2^-(n-1).
The exit status is 1 when any residual exceeds 1e-9.
"""

import argparse
import sys

import numpy as np

from dqc1sim.gadgets import compile_n_plus_1, compile_three, pattern_from_rotations
from dqc1sim.verify import reduction_conditional_tv, reduction_event_probability


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=8)
    ap.add_argument("--max-rotations", type=int, default=4)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'rotations':>9}  {'mode':>5}  {'TV to target':>12}  {'event':>10}  {'closed form':>11}")
    worst = 0.0
    for _ in range(args.trials):
        count = int(rng.integers(1, args.max_rotations + 1))
        angles = [float(a) for a in rng.uniform(-np.pi, np.pi, size=count)]
        pattern = pattern_from_rotations(angles)
        n = pattern.graph.num_vertices
        for mode, compiler, closed in (
            ("n1", compile_n_plus_1, 2.0**-n * 2.0 ** -(n - 1)),
            ("three", compile_three, 2.0 ** -(n + 1) * 2.0 ** -(n - 1)),
        ):
            red = compiler(pattern)
            tv = reduction_conditional_tv(red)
            event = reduction_event_probability(red)
            worst = max(worst, tv, abs(event - closed))
            print(
                f"{count:>9}  {mode:>5}  {tv:>12.3e}  {event:>10.3e}  {closed:>11.3e}"
            )
    ok = worst <= 1e-9
    print(f"worst residual {worst:.3e} ({'ok' if ok else 'BROKEN'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
