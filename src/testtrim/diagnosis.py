"""Replay of a failing circuit's pattern log into a diagnosis trace.

Given a fault dictionary and the injected (ground-truth) fault, the trace
records, per failing pattern, the size of the intermediate candidate set:
the faults whose dictionary rows are consistent with the observed pass/fail
log up to that point.  Consistency uses the full log: a candidate must
reproduce the observed response on every failing pattern seen so far and
must pass every passing pattern seen so far.

The golden candidate set is the intermediate set at the last failing
pattern.  The convergence ratio m = |golden| / |intermediate| is
non-decreasing and ends at 1; the regression label y rescales m so that
each trace spans [0, 1], with y = 1 reserved for converged rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .faultsim import Fault, FaultDictionary


class UndiagnosableFaultError(ValueError):
    """The injected fault is never detected by the pattern set."""


@dataclass
class DiagnosisTrace:
    """Ordered per-failing-pattern record for one failing circuit."""

    circuit_id: str
    num_inputs: int
    total_patterns: int
    failing_indices: list[int]          # 1-based pattern indices, strictly increasing
    intermediate_sizes: list[int]
    golden_size: int
    m_values: list[float]
    y_values: list[float]
    injected_fault: Fault | None = None
    candidate_sets: list[frozenset[int]] | None = field(default=None, repr=False)

    @property
    def num_failing(self) -> int:
        return len(self.failing_indices)


def compute_labels(m_values: Sequence[float]) -> list[float]:
    """Rescale a trace's m sequence to labels in [0, 1].

    y = 1 where m = 1, otherwise (m - m_min) / (1 - m_min) with m_min the
    minimum over this trace.  When every row has already converged
    (m_min = 1) all labels are 1.
    """
    if not m_values:
        raise ValueError("empty m sequence")
    for m in m_values:
        if not 0.0 < m <= 1.0:
            raise ValueError(f"m values must lie in (0, 1], got {m}")
    m_min = min(m_values)
    if m_min == 1.0:
        return [1.0] * len(m_values)
    return [1.0 if m == 1.0 else (m - m_min) / (1.0 - m_min) for m in m_values]


def trace_diagnosis(fdict: FaultDictionary, injected: Fault,
                    keep_sets: bool = False) -> DiagnosisTrace:
    """Replay the injected fault's pass/fail log and record candidate refinement.

    Candidate sets are maintained incrementally over the pattern sequence:
    each failing pattern keeps the candidates matching the observed faulty
    response, each passing pattern keeps the candidates that also pass.
    Raises :class:`UndiagnosableFaultError` if the fault is never detected.
    """
    try:
        inj_idx = fdict.faults.index(injected)
    except ValueError:
        raise ValueError(f"injected fault {injected} not in dictionary") from None

    fail_mask = fdict.mismatch_vs_free(inj_idx)
    if fail_mask == 0:
        raise UndiagnosableFaultError(
            f"fault {injected} on circuit '{fdict.circuit.name}' is undiagnosable "
            f"with this pattern set")

    num_faults = len(fdict.faults)
    # Bit p of diff_inj[f]: fault f's response differs from the injected
    # fault's under pattern p.  Likewise diff_free vs the fault-free row.
    diff_inj = [fdict.mismatch_between(f, inj_idx) for f in range(num_faults)]
    diff_free = [fdict.mismatch_vs_free(f) for f in range(num_faults)]

    failing0 = [p for p in range(fdict.num_patterns) if (fail_mask >> p) & 1]
    candidates = set(range(num_faults))
    sizes: list[int] = []
    sets: list[frozenset[int]] = []
    for p in range(failing0[-1] + 1):
        bit = 1 << p
        if fail_mask & bit:
            candidates = {f for f in candidates if not (diff_inj[f] & bit)}
            sizes.append(len(candidates))
            if keep_sets:
                sets.append(frozenset(candidates))
        else:
            candidates = {f for f in candidates if not (diff_free[f] & bit)}

    golden = sizes[-1]
    m_values = [golden / s for s in sizes]
    return DiagnosisTrace(
        circuit_id=fdict.circuit.name,
        num_inputs=len(fdict.circuit.inputs),
        total_patterns=fdict.num_patterns,
        failing_indices=[p + 1 for p in failing0],
        intermediate_sizes=sizes,
        golden_size=golden,
        m_values=m_values,
        y_values=compute_labels(m_values),
        injected_fault=injected,
        candidate_sets=sets if keep_sets else None,
    )


TRACE_HEADER = ["circuit_id", "num_inputs", "total_patterns", "k", "failing_index_k",
                "intermediate_size", "golden_size", "m", "y"]


def write_traces(traces: Iterable[DiagnosisTrace], path) -> None:
    """CSV export, one record per failing pattern."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for t in traces:
            for k in range(t.num_failing):
                writer.writerow([
                    t.circuit_id, t.num_inputs, t.total_patterns, k + 1, t.failing_indices[k],
                    t.intermediate_sizes[k], t.golden_size,
                    f"{t.m_values[k]:.6f}", f"{t.y_values[k]:.6f}",
                ])


def read_traces(path) -> list[DiagnosisTrace]:
    """Rebuild traces from a CSV export.

    Each record carries its circuit's applied pattern count, so a reader
    needs no corpus settings.  Loaded traces carry no injected-fault ground
    truth.
    """
    groups: dict[str, list[dict]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != TRACE_HEADER:
            raise ValueError(f"unexpected trace header in {path}: {reader.fieldnames}")
        for row in reader:
            groups.setdefault(row["circuit_id"], []).append(row)

    traces = []
    for cid, rows in groups.items():
        rows.sort(key=lambda r: int(r["k"]))
        if [int(r["k"]) for r in rows] != list(range(1, len(rows) + 1)):
            raise ValueError(f"non-contiguous k sequence for circuit '{cid}'")
        failing = [int(r["failing_index_k"]) for r in rows]
        total = int(rows[0]["total_patterns"])
        if total < failing[-1]:
            raise ValueError(f"circuit '{cid}': total_patterns {total} is below its "
                             f"last failing pattern {failing[-1]}")
        traces.append(DiagnosisTrace(
            circuit_id=cid,
            num_inputs=int(rows[0]["num_inputs"]),
            total_patterns=total,
            failing_indices=failing,
            intermediate_sizes=[int(r["intermediate_size"]) for r in rows],
            golden_size=int(rows[0]["golden_size"]),
            m_values=[float(r["m"]) for r in rows],
            y_values=[float(r["y"]) for r in rows],
        ))
    return traces
