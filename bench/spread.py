"""Run-to-run spread of the end-to-end metrics, and the comparison of two
sets of runs against the bounds in BENCHMARK.json.

    python3 bench/spread.py run --runs 10 --first-seed 100 --out bench/out/set1.json
    python3 bench/spread.py compare bench/out/set1.json bench/out/set2.json

`run` starts bench/run.py once per workload and seed, one run at a time,
the workloads taking turns, and prints, per workload and metric, the
median, the quartiles and the distance between the quartiles as a share
of the median.  `compare` prints how much worse the second set's median
is than the first's and the larger of the two spreads, next to the
metric's bound; setup_s is held to its bound like every other metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med, "values": values}


def cmd_run(args) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list] = {wl: [] for wl in names}
    # Seed by seed, every workload in turn, so that each workload's runs
    # spread over the whole set and a slow stretch of the host lands on
    # all of them alike.
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for wl in names:
            proc = subprocess.run(
                [*spec["command"], "--workload", wl, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
            )
            runs[wl].append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{wl} seed {seed}: exit {proc.returncode}", file=sys.stderr)
    results: dict = {}
    for wl in names:
        metrics = {
            m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in runs[wl]])
            for m in spec["end_to_end"]
        }
        failed_share = sorted({r["failed"] / r["attempted"] for r in runs[wl]})
        results[wl] = {"metrics": metrics, "failed_shares": failed_share,
                       "attempted": [r["attempted"] for r in runs[wl]]}
        for name, s in metrics.items():
            print(f"{wl:14s} {name:12s} median {s['median']:.4g} "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['iqr_share']:.3f}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0


def cmd_compare(args) -> int:
    spec = _spec()
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    ok = True
    for wl in first:
        for m in spec["end_to_end"]:
            a = first[wl]["metrics"][m["name"]]["median"]
            b = second[wl]["metrics"][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            spread = max(first[wl]["metrics"][m["name"]]["iqr_share"],
                         second[wl]["metrics"][m["name"]]["iqr_share"])
            within = worse <= m["bound"] and spread <= m["bound"]
            ok = ok and within
            print(f"{wl:14s} {m['name']:12s} {a:.4g} -> {b:.4g} worse by {worse:+.3f} "
                  f"spread {spread:.3f} bound {m['bound']} {'ok' if within else 'OUT'}")
        if first[wl]["failed_shares"] != second[wl]["failed_shares"]:
            ok = False
            print(f"{wl}: failed shares differ", file=sys.stderr)
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run_p = sub.add_parser("run")
    run_p.add_argument("--runs", type=int, default=10)
    run_p.add_argument("--first-seed", type=int, default=100)
    run_p.add_argument("--out", required=True)
    run_p.set_defaults(func=cmd_run)
    cmp_p = sub.add_parser("compare")
    cmp_p.add_argument("first")
    cmp_p.add_argument("second")
    cmp_p.set_defaults(func=cmd_compare)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
