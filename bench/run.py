"""dqc1sim benchmark: one workload per process, one closed-loop client.

    python3 bench/run.py --workload trace_sample --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each operation is an in-process call of dqc1sim.cli.main with stdout
captured, so it crosses argument parsing, file parsing and JSON output but
not interpreter start-up.  Every output is checked after the operation,
outside the timed region, against values computed without dqc1sim.  The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per layer with --trace 1).  The exit
code is 0 only when every operation passed its check.

See bench/README.md for the workloads, the metrics and the reference runs.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread.  On a 2-vCPU VM, two threads
# put the dense route's run medians 25% apart, one thread 8%.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

import checks  # noqa: E402
import inputs  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402

SETUP_REPEATS = 9
# Rounds of distinct inputs a run cycles through.  Kept small so that
# setup_s is mostly dqc1sim's import, not the writing of input files.
POOL_ROUNDS = 8


@dataclass(frozen=True)
class Op:
    """One operation: dqc1sim CLI calls made in order, and the check of
    their captured stdouts."""

    argvs: tuple[tuple[str, ...], ...]
    check: Callable[[list[str]], str | None]


def _trace_rounds(rng: np.random.Generator, work: Path) -> list[list[Op]]:
    rounds = []
    for i in range(POOL_ROUNDS):
        u = inputs.make_trace_input(rng, work / f"unitary{i}.json")
        prog_seed = str(int(rng.integers(1 << 31)))
        ops = []
        for part in ("real", "imaginary"):
            argv = ("trace", "--unitary", str(u.path), "--part", part,
                    "--shots", str(inputs.TRACE_SHOTS), "--seed", prog_seed)

            def check(outs, part=part, u=u):
                return checks.check_trace(outs[0], part, inputs.TRACE_SHOTS, u.trace)

            ops.append(Op((argv,), check))
        rounds.append(ops)
    return rounds


def _reduce3_rounds(rng: np.random.Generator, work: Path) -> list[list[Op]]:
    rounds = []
    for i in range(POOL_ROUNDS):
        chain = inputs.make_chain_input(rng, work / f"pattern{i}.json")
        compiled = work / f"compiled{i}.json"
        argvs = (
            ("compile", "--pattern", str(chain.path), "--mode", "three", "--out", str(compiled)),
            ("exact", "--circuit", str(compiled)),
        )

        def check(outs, chain=chain):
            return checks.check_compile_three(outs[0]) or checks.check_chain_exact(
                outs[1], chain.angles, inputs.CHAIN_VERTICES
            )

        rounds.append([Op(argvs, check)])
    return rounds


def _error_rounds(rng: np.random.Generator, work: Path) -> list[list[Op]]:
    rounds = []
    for i in range(POOL_ROUNDS):
        pair = inputs.make_error_input(rng, work / f"p{i}.json", work / f"q{i}.json")

        def check(outs, pair=pair):
            return checks.check_error_report(outs[0], pair.p, pair.q, inputs.ERROR_K)

        rounds.append([Op((("check-error", str(pair.p_path), str(pair.q_path)),), check)])
    return rounds


# name -> (stream id for the input generator, function making the
# rounds).  A round is the unit a run repeats: trace_sample alternates the
# real and imaginary part of one unitary.
WORKLOADS: dict[str, tuple[int, Callable[[np.random.Generator, Path], list[list[Op]]]]] = {
    "trace_sample": (1, _trace_rounds),
    "reduce3_exact": (2, _reduce3_rounds),
    "error_report": (3, _error_rounds),
}


def _import_cli():
    """Import dqc1sim afresh from the checkout's src/ and return its cli."""
    for name in [m for m in sys.modules if m == "dqc1sim" or m.startswith("dqc1sim.")]:
        del sys.modules[name]
    cli = importlib.import_module("dqc1sim.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC_DIR.resolve()):
        raise ImportError(f"dqc1sim loaded from {cli.__file__}, not from {SRC_DIR}")
    return cli


def _setup(workload: str, seed: int, work: Path):
    """Import dqc1sim and write the inputs, SETUP_REPEATS times; the
    median is setup_s.  The last import and inputs are the ones used."""
    stream, build = WORKLOADS[workload]
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        cli = _import_cli()
        work.mkdir(parents=True)
        rounds = build(np.random.default_rng([seed, stream]), work)
        times.append(time.perf_counter() - t0)
    return cli, rounds, statistics.median(times)


def _call(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def _run_op(cli, op: Op, tracer: Tracer | None) -> tuple[float, str | None]:
    """Time one operation, then check it.  Returns (seconds, failure)."""
    outs: list[str] = []

    def calls() -> int:
        for argv in op.argvs:
            code, out = _call(cli, argv)
            outs.append(out)
            if code != 0:
                return code
        return 0

    gc.collect()
    t0 = time.perf_counter()
    try:
        code = calls() if tracer is None else tracer.run_op(calls)
    except Exception:  # an operation that raises is a failed operation
        elapsed = time.perf_counter() - t0
        return elapsed, traceback.format_exc(limit=3).strip().splitlines()[-1]
    elapsed = time.perf_counter() - t0
    if code != 0:
        return elapsed, f"exit code {code}"
    try:
        return elapsed, op.check(outs)
    except (KeyError, TypeError, ValueError) as exc:
        return elapsed, f"malformed output: {exc!r}"


@dataclass
class RunLog:
    attempted: int = 0
    failed: int = 0
    plain: list[float] = field(default_factory=list)  # untraced op seconds
    traced: list[float] = field(default_factory=list)


def _measure(cli, rounds, seconds: float, tracer: Tracer | None) -> RunLog:
    """Closed loop over whole rounds for `seconds`: a round starts only if
    it should end in time, judged by the last round's length.  The first
    round warms up and is checked but not timed.  With a tracer, rounds
    alternate traced and untraced, at least one of each."""
    log = RunLog()
    index = 0
    start = None
    last_round = 0.0
    min_rounds = 3 if tracer is not None else 2
    while index < min_rounds or time.perf_counter() - start + last_round <= seconds:
        round_start = time.perf_counter()
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        for op in rounds[index % len(rounds)]:
            elapsed, failure = _run_op(cli, op, tracer if traced else None)
            log.attempted += 1
            if failure is not None:
                log.failed += 1
                print(f"FAILED round {index}: {failure}", file=sys.stderr)
            if start is not None:
                (log.traced if traced else log.plain).append(elapsed)
        if traced:
            tracer.uninstall()
        if start is None:
            start = time.perf_counter()
        last_round = time.perf_counter() - round_start
        index += 1
    return log


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per_layer(tracer: Tracer, log: RunLog, workload: str) -> dict[str, tuple[float, str]]:
    ops = len(log.traced)
    tot = layer_totals(tracer)

    def get(name: str, key: str) -> float:
        return tot.get(name, {}).get(key, 0.0) / ops

    pure_sims = get("engine.pure_sim", "calls")
    shots = inputs.TRACE_SHOTS if workload == "trace_sample" else 0
    check_calls = tot.get("circuits.check_unitary", {}).get("calls", 0.0)
    return {
        "qstate.kernel_calls": (get("qstate.kernel", "calls"), "count"),
        "qstate.kernel_s": (get("qstate.kernel", "total_s"), "s"),
        "engine.pure_sims": (pure_sims, "count"),
        "engine.sample_self_s": (get("engine.sample", "self_s"), "s"),
        "engine.pure_sims_per_shot": (pure_sims / shots if shots else 0.0, "ratio"),
        "circuits.check_unitary_calls": (get("circuits.check_unitary", "calls"), "count"),
        "circuits.check_unitary_per_matrix": (
            check_calls / tracer.distinct_matrices if tracer.distinct_matrices else 0.0,
            "ratio",
        ),
        "qstate.density_steps": (get("qstate.density", "calls"), "count"),
        "qstate.density_s": (get("qstate.density", "total_s"), "s"),
        "qstate.density_bytes": (float(tracer.density_bytes), "bytes"),
        "circuits.gate_matrix_calls": (get("circuits.gate_matrix", "calls"), "count"),
        "circuits.gate_matrix_s": (get("circuits.gate_matrix", "total_s"), "s"),
        "engine.exact_self_s": (get("engine.exact", "self_s"), "s"),
        "distributions.condition_s": (get("distributions.condition", "total_s"), "s"),
        "gadgets.build_s": (get("gadgets.build", "total_s"), "s"),
        "gadgets.gates_out": (tracer.gates_out / ops, "count"),
        "distributions.marginal_calls": (get("distributions.marginal", "calls"), "count"),
        "distributions.marginal_s": (get("distributions.marginal", "total_s"), "s"),
        "distributions.construct_calls": (get("distributions.construct", "calls"), "count"),
        "distributions.construct_s": (get("distributions.construct", "total_s"), "s"),
        "analysis.report_s": (get("analysis.report", "total_s"), "s"),
        "analysis.pair_c_calls": (get("analysis.pair_c", "calls"), "count"),
        "analysis.trace_s": (get("analysis.trace", "total_s"), "s"),
        "cli.parse_s": (get("cli.parse", "total_s"), "s"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "trace.op_p50_s": (statistics.median(log.traced), "s"),
        "trace.overhead_s": (statistics.median(log.traced) - statistics.median(log.plain), "s"),
        "trace.missing": (float(len(tracer.missing)), "count"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{workload}-{os.getpid()}"
    try:
        cli, rounds, setup_s = _setup(workload, seed, work)
        tracer = Tracer() if trace else None
        loop_start = time.perf_counter()
        log = _measure(cli, rounds, seconds, tracer)
        print(
            f"{workload} seed={seed}: {log.attempted} ops in "
            f"{time.perf_counter() - loop_start:.1f} s, BLAS threads {BLAS_THREADS}, "
            f"nproc {os.cpu_count()}, numpy {np.__version__}",
            file=sys.stderr,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    timed = log.plain + log.traced
    if trace:
        for label in tracer.missing:
            print(f"trace target missing: {label}", file=sys.stderr)
        np.savez(OUT_DIR / f"spans-{workload}-seed{seed}.npz", **tracer.arrays())
        metrics = _per_layer(tracer, log, workload)
    else:
        metrics = {
            "op_p50_s": (statistics.median(timed), "s"),
            "wall_s": (statistics.fmean(timed), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    return {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"{workload} printed no result (exit {proc.returncode})")
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"] and proc.returncode == 0
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, metric in res["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "dqc1sim" / "__init__.py").is_file():
        print(f"error: no dqc1sim sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
