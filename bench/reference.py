"""Reference figures for bench/README.md: the sha256 of each operation's
stdout, the share of operation time each traced layer takes, and the
top of a cProfile of the same operation.  For reference only; no check
reads them.

    python3 bench/reference.py --seed 1
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import importlib
import os
import pstats
import shutil
import sys
import time
from pathlib import Path

import run  # first: it fixes the BLAS thread count before numpy loads
import numpy as np
from tracing import Tracer, layer_totals

SHARE_LAYERS = (
    "qstate.kernel", "circuits.check_unitary", "engine.sample", "qstate.density",
    "circuits.gate_matrix", "distributions.marginal", "distributions.construct",
    "analysis.pair_c", "cli.parse",
)


def _first_op(workload: str, seed: int, work: Path):
    stream, build = run.WORKLOADS[workload]
    return build(np.random.default_rng([seed, stream]), work)[0][0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC_DIR))
    cli = importlib.import_module("dqc1sim.cli")
    for workload in run.WORKLOADS:
        work = run.OUT_DIR / f"reference-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        # Relative file names, so the digests do not depend on the checkout's path.
        os.chdir(work)
        op = _first_op(workload, args.seed, Path("."))
        print(f"## {workload} (seed {args.seed}, first operation)")
        for argv in op.argvs:
            code, out = run._call(cli, argv)
            digest = hashlib.sha256(out.encode()).hexdigest()
            print(f"  {argv[0]:12s} exit {code} stdout sha256 {digest}")
        tracer = Tracer()
        tracer.install()
        try:
            tracer.run_op(lambda: [run._call(cli, argv) for argv in op.argvs])
        finally:
            tracer.uninstall()
        totals = layer_totals(tracer)
        whole = totals["bench.op"]["total_s"]
        shares = ", ".join(
            f"{name} {totals[name]['total_s'] / whole:.0%}"
            for name in SHARE_LAYERS if totals.get(name, {}).get("total_s", 0) > 0.01 * whole
        )
        print(f"  traced layer shares: {shares}")
        prof = cProfile.Profile()
        t0 = time.perf_counter()
        prof.runcall(lambda: [run._call(cli, argv) for argv in op.argvs])
        elapsed = time.perf_counter() - t0
        stats = pstats.Stats(prof).stats
        top = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:5]
        print(f"  cProfile self-time shares ({elapsed:.2f} s profiled):")
        for (path, line, func), (_, _, tottime, _, _) in top:
            print(f"    {tottime / elapsed:5.1%}  {Path(path).name}:{line} {func}")
        os.chdir(run.BENCH_DIR.parent)
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
