"""Each benchmark check accepts dqc1sim's real output and rejects a
deliberately corrupted copy of it.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402


def _outputs(workload: str, tmp_path: Path):
    """The first operation of a workload: (op, captured stdouts)."""
    sys.path.insert(0, str(run.SRC_DIR))
    cli = importlib.import_module("dqc1sim.cli")
    _, build = run.WORKLOADS[workload]
    op = build(np.random.default_rng([7, 0]), tmp_path)[0][0]
    outs = []
    for argv in op.argvs:
        code, out = run._call(cli, argv)
        assert code == 0
        outs.append(out)
    return op, outs


def _edit(text: str, **changes) -> str:
    doc = json.loads(text)
    doc.update(changes)
    return json.dumps(doc)


def test_trace_check(tmp_path):
    op, outs = _outputs("trace_sample", tmp_path)
    assert op.check(outs) is None
    doc = json.loads(outs[0])
    shifted = doc["normalized_trace_part"] + 10 * doc["stderr"]
    # Keep the estimate on the 2k/shots - 1 grid so only the shift is wrong.
    k = round((shifted + 1) / 2 * doc["shots"])
    est = 2 * k / doc["shots"] - 1
    p0 = k / doc["shots"]
    err = 2 * (p0 * (1 - p0) / doc["shots"]) ** 0.5
    assert "stderr from" in op.check([_edit(outs[0], normalized_trace_part=est, stderr=err)])
    assert "stderr" in op.check([_edit(outs[0], stderr=doc["stderr"] * 1.001)])
    assert op.check([_edit(outs[0], part="other")]) is not None


def test_reduce3_checks(tmp_path):
    op, outs = _outputs("reduce3_exact", tmp_path)
    assert op.check(outs) is None
    doc = json.loads(outs[1])
    swapped = {"0": doc["probs"]["1"], "1": doc["probs"]["0"]}
    assert "probs" in op.check([outs[0], _edit(outs[1], probs=swapped)])
    event = doc["postselection_probability"] * 2
    assert "postselection" in op.check([outs[0], _edit(outs[1], postselection_probability=event)])
    assert "measures" in op.check([_edit(outs[0], measured_count=2), outs[1]])
    assert "postselects" in op.check([_edit(outs[0], postselect={"0": 1}), outs[1]])


def test_error_report_checks(tmp_path):
    op, outs = _outputs("error_report", tmp_path)
    assert op.check(outs) is None
    doc = json.loads(outs[0])
    assert "worst_c" in op.check([_edit(outs[0], worst_c=doc["worst_c"] + 1e-6)])
    per = dict(doc["per_marginal_c"])
    per["0,3"] += 1e-6
    assert "marginal 0,3" in op.check([_edit(outs[0], per_marginal_c=per)])
    per = dict(doc["per_marginal_c"])
    del per["8"]
    assert "marginals reported" in op.check([_edit(outs[0], per_marginal_c=per)])


def test_chain_probability_matches_known_angles():
    # theta = 0 on every vertex: (H)^(n-1)|+> alternates |+> -> |0> -> |+>.
    assert checks.chain_output_one([0.0]) == pytest.approx(0.0, abs=1e-15)
    assert checks.chain_output_one([0.0, 0.0]) == pytest.approx(0.5)


def test_marginal_cs_of_identical_distributions_are_one():
    p = np.full(8, 1 / 8)
    assert set(checks.marginal_cs(p, p, 3).values()) == {1.0}
    assert len(checks.marginal_cs(p, p, 3)) == 7


def test_inputs_repeat_per_seed(tmp_path):
    a = inputs.make_trace_input(np.random.default_rng(3), tmp_path / "a.json")
    b = inputs.make_trace_input(np.random.default_rng(3), tmp_path / "b.json")
    assert a.path.read_bytes() == b.path.read_bytes() and a.trace == b.trace


def test_tracer_reports_missing_target_and_counts(tmp_path, monkeypatch):
    import tracing

    monkeypatch.setattr(
        tracing, "TARGETS", tracing.TARGETS + (("gone.fn", "dqc1sim.engine", "no_such_function"),)
    )
    op, _ = _outputs("error_report", tmp_path)
    cli = sys.modules["dqc1sim.cli"]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_op(lambda: [run._call(cli, argv) for argv in op.argvs])
    finally:
        tracer.uninstall()
    assert tracer.missing == ["dqc1sim.engine.no_such_function"]
    totals = layer_totals(tracer)
    assert totals["analysis.pair_c"]["calls"] == 2**inputs.ERROR_K - 1
    assert totals["cli.main"]["calls"] == 1
    # Restored after uninstall: a plain call records nothing more.
    before = len(tracer.starts)
    run._call(cli, op.argvs[0])
    assert len(tracer.starts) == before


def test_command_fails_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "checks.py", "inputs.py", "tracing.py"):
        (tmp_path / "bench" / name).write_bytes((BENCH_DIR / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "error_report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
