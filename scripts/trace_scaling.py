#!/usr/bin/env python3
"""Shot-scaling study for the clean-qubit trace estimator.

Draws one random circuit, computes the exact normalized trace, then runs
the estimator at increasing shot counts.  The reported error should fall
roughly as 1/sqrt(shots) and stay inside the 5 sigma band checked at the
bottom; the exit status is 1 when it does not.
"""

import argparse
import sys

import numpy as np

from dqc1sim.analysis import estimate_trace
from dqc1sim.circuits import circuit_matrix
from dqc1sim.randcirc import random_circuit


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qubits", type=int, default=4)
    ap.add_argument("--gates", type=int, default=12)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--part", choices=("real", "imaginary"), default="real")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    u = random_circuit(rng, args.qubits, args.gates)
    tr = complex(np.trace(circuit_matrix(u))) / 2**args.qubits
    exact = tr.real if args.part == "real" else tr.imag
    print(f"circuit: {args.qubits} qubits, {len(u.gates)} gates, seed {args.seed}")
    print(f"exact {args.part} part of normalized trace: {exact:+.6f}")
    print(f"{'shots':>9}  {'estimate':>9}  {'stderr':>8}  {'|error|':>8}  pulls")

    worst = 0.0
    for shots in (10**3, 10**4, 10**5, 10**6):
        est = estimate_trace(u, args.part, shots=shots, seed=args.seed)
        err = abs(est.normalized_trace_part - exact)
        pulls = err / est.stderr if est.stderr > 0 else 0.0
        worst = max(worst, pulls)
        print(
            f"{shots:>9}  {est.normalized_trace_part:>+9.5f}  "
            f"{est.stderr:>8.5f}  {err:>8.5f}  {pulls:.2f} sigma"
        )

    ok = worst <= 5
    print(f"worst pull {worst:.2f} sigma ({'ok' if ok else 'SUSPICIOUS'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
