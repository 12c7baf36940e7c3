#!/usr/bin/env python3
"""How multiplicative simulation error degrades under postselection.

Draws random comparable distribution pairs, computes the minimal c over
the joint, then conditions on one bit and reports where the conditional
ratio lands inside the theoretical [1/c^2, c^2] band.  The last block
builds a pair engineered to sit at the top of the band, which the checker
must flag as tight.  The exit status is 1 when a random pair fails its
bounds or the engineered pair is not flagged.
"""

import argparse
import sys

import numpy as np

from dqc1sim.analysis import check_conditional_bounds, minimal_multiplicative_error
from dqc1sim.distributions import OutcomeDistribution


def random_pair(rng: np.random.Generator, k: int):
    size = 1 << k
    raw_p = rng.uniform(0.05, 1.0, size=size)
    raw_q = raw_p * np.exp(rng.uniform(-0.8, 0.8, size=size))
    keys = [format(i, f"0{k}b") for i in range(size)]
    qubits = tuple(range(k))
    p = OutcomeDistribution(qubits, dict(zip(keys, raw_p / raw_p.sum())))
    q = OutcomeDistribution(qubits, dict(zip(keys, raw_q / raw_q.sum())))
    return p, q


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--qubits", type=int, default=3)
    ap.add_argument("--seed", type=int, default=23)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    failed = 0
    print(f"{'c':>7}  {'c^2':>7}  {'max ratio':>9}  {'min ratio':>9}  band use")
    for _ in range(args.trials):
        p, q = random_pair(rng, args.qubits)
        c = minimal_multiplicative_error(p, q)
        report = check_conditional_bounds(p, q, {0: 0}, c)
        failed += not report.passed
        use = max(report.max_ratio / (c * c), (1 / (c * c)) / report.min_ratio)
        print(
            f"{c:>7.4f}  {c * c:>7.4f}  {report.max_ratio:>9.4f}  "
            f"{report.min_ratio:>9.4f}  {100 * use:6.1f}% {'PASS' if report.passed else 'FAIL'}"
        )

    # engineered worst case: one conditional outcome pinned at ratio c while
    # the event probabilities are skewed by c the other way
    c, eps = 2.0, 1e-11
    p00, p01 = 0.5, 0.5 * eps
    q00, q01 = p00 / c, c * p01
    p = OutcomeDistribution(
        (0, 1), {"00": p00, "01": p01, "10": (1 - p00 - p01) / 2, "11": (1 - p00 - p01) / 2}
    )
    q = OutcomeDistribution(
        (0, 1), {"00": q00, "01": q01, "10": (1 - q00 - q01) / 2, "11": (1 - q00 - q01) / 2}
    )
    report = check_conditional_bounds(p, q, {0: 0}, minimal_multiplicative_error(p, q))
    print(
        f"engineered pair: max ratio {report.max_ratio:.12f} vs c^2 = 4, "
        f"tight={report.tight} ({'ok' if report.tight else 'BROKEN'})"
    )
    return 0 if report.tight and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
