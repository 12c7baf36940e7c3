"""Spans around the calls one dqc1sim module makes into the next.

The tracer patches module attributes from outside the program: a call
made through a patched name records a span (name, start, end, parent).
Spans stay in flat arrays until the run ends.  A target that no longer
exists is reported as missing and skipped, so a renamed function never
stops the timed run.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


# (span name, module, attribute path).  The module is the caller's, so the
# span sits on the boundary between two layers; e.g. the engine's kernel
# calls are counted where the engine makes them.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cli.main", "dqc1sim.cli", "main"),
    ("cli.parse", "dqc1sim.cli", "build_parser"),
    ("cli.parse", "dqc1sim.cli", "parse_unitary"),
    ("cli.parse", "dqc1sim.cli", "parse_circuit"),
    ("cli.parse", "dqc1sim.cli", "parse_pattern"),
    ("cli.parse", "dqc1sim.cli", "parse_distribution"),
    ("gadgets.build", "dqc1sim.cli", "compile_three"),
    ("gadgets.build", "dqc1sim.analysis", "build_trace_circuit"),
    ("analysis.trace", "dqc1sim.cli", "estimate_trace"),
    ("analysis.report", "dqc1sim.cli", "multiplicative_error_report"),
    ("analysis.pair_c", "dqc1sim.analysis", "_pair_c"),
    ("engine.exact", "dqc1sim.cli", "exact_distribution"),
    ("engine.sample", "dqc1sim.analysis", "sample"),
    ("engine.pure_sim", "dqc1sim.engine", "_mixture_outcome_weights"),
    ("qstate.kernel", "dqc1sim.engine", "_apply_gate_kernel"),
    ("qstate.density", "dqc1sim.engine", "evolve_density"),
    ("circuits.gate_matrix", "dqc1sim.qstate", "gate_matrix"),
    ("circuits.check_unitary", "dqc1sim.qstate", "check_unitary"),
    ("circuits.check_unitary", "dqc1sim.circuits", "check_unitary"),
    ("distributions.condition", "dqc1sim.distributions", "OutcomeDistribution.condition"),
    ("distributions.marginal", "dqc1sim.distributions", "OutcomeDistribution.marginal"),
    ("distributions.construct", "dqc1sim.distributions", "OutcomeDistribution.__post_init__"),
)


# Work taken from a call's arguments or result, per span name.
def _gates_out(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.gates_out += len(getattr(result, "circuit", result).gates)


def _density_bytes(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.density_bytes = max(tracer.density_bytes, 16 * 4 ** args[0].num_qubits)


def _matrix_seen(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.matrices.add(np.asarray(args[0]).tobytes())


HOOKS: dict[str, Callable[["Tracer", tuple, Any], None]] = {
    "gadgets.build": _gates_out,
    "qstate.density": _density_bytes,
    "circuits.check_unitary": _matrix_seen,
}

OP = "bench.op"


def _resolve(module: str, path: str):
    """(owner object, attribute name), or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


@dataclass
class Tracer:
    """Span recorder; install() patches TARGETS, uninstall() restores them."""

    names: list[str] = field(default_factory=lambda: [OP])
    name_ids: array = field(default_factory=lambda: array("H"))
    parents: array = field(default_factory=lambda: array("q"))
    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    gates_out: int = 0
    density_bytes: int = 0
    # Distinct matrices seen by check_unitary in the current operation,
    # and summed over operations.
    matrices: set = field(default_factory=set)
    distinct_matrices: int = 0
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, module, path in TARGETS:
            target = _resolve(module, path)
            if target is None:
                label = f"{module}.{path}"
                if label not in self.missing:
                    self.missing.append(label)
                continue
            owner, attr = target
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def run_op(self, op: Callable[[], Any]) -> Any:
        """Run one benchmark operation as the root span of its calls."""
        self.matrices = set()
        idx = self._open(0)
        try:
            return op()
        finally:
            self._close(idx)
            self.distinct_matrices += len(self.matrices)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_ids": np.frombuffer(self.name_ids, dtype=np.uint16),
            "parents": np.frombuffer(self.parents, dtype=np.int64),
            "starts": np.frombuffer(self.starts, dtype=np.float64),
            "ends": np.frombuffer(self.ends, dtype=np.float64),
        }


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time and self time.

    Total time counts only spans whose parent has another name, so a name
    that calls itself is not counted twice.  Self time is a span's duration
    minus its children's.
    """
    a = tracer.arrays()
    ids, parents = a["name_ids"].astype(np.int64), a["parents"]
    dur = a["ends"] - a["starts"]
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child
    parent_ids = np.where(has_parent, ids[np.maximum(parents, 0)], -1)
    outer = parent_ids != ids
    out = {}
    for i, name in enumerate(tracer.names):
        sel = ids == i
        out[name] = {
            "calls": float(np.count_nonzero(sel)),
            "total_s": float(dur[sel & outer].sum()),
            "self_s": float(own[sel].sum()),
        }
    return out
