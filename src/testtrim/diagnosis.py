"""Replay of a failing circuit's pattern log into a diagnosis trace.

Given a fault dictionary and the injected (ground-truth) fault, the trace
records, per failing pattern, the size of the intermediate candidate set:
the faults whose dictionary rows are consistent with the observed pass/fail
log up to that point.  Consistency uses the full log: a candidate must
reproduce the observed response on every failing pattern seen so far and
must pass every passing pattern seen so far.  On a passing pattern the
observed response is the fault-free one, so both clauses say the same
thing: the candidate's response equals the injected fault's.  A fault is
therefore eliminated for good at its *elimination index*, the lowest set
bit of its packed mismatch against the injected fault, and the
intermediate size at pattern ``p`` counts the faults whose elimination
index lies above ``p``.

The mismatch is read off the dictionary's per-fault records, not its
rows.  With ``M`` the detection masks, ``i`` the injected fault, ``s_i``
its stem and ``t`` the stem of fault ``f``::

    mismatch(f, i) = (M_f ^ M_i) | (M_f & M_i & E_t)

A pattern eliminates ``f`` where exactly one of the two faults fails;
where both fail, each row reads its stem's flip, so it eliminates ``f``
where the two stem flips differ at some output:
``E_t = OR_j (diff_t[j] ^ diff_si[j])`` over the union of the two stems'
output supports, and ``E_si = 0``.

The golden candidate set is the intermediate set at the last failing
pattern.  The convergence ratio m = |golden| / |intermediate| is
non-decreasing and ends at 1; the regression label y rescales m so that
each trace spans [0, 1], with y = 1 reserved for converged rows.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
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


def _flip_mismatch(diffs: Sequence[tuple[int, int]], other: dict[int, int]) -> int:
    """Patterns under which two stem flips differ at some output: the OR of
    ``diff[j] ^ other[j]`` over the union of both ``(position, diff word)``
    supports, a position missing on one side reading 0 there."""
    rest = dict(other)
    e = 0
    for j, w in diffs:
        e |= w ^ rest.pop(j, 0)
    for w in rest.values():
        e |= w
    return e


def _elimination_indices(fdict: FaultDictionary, inj_idx: int) -> list[int]:
    """Per fault, the first pattern under which its response differs from
    fault ``inj_idx``'s, or ``fdict.num_patterns`` where none does.

    The mismatch comes from ``fault_masks``, ``fault_stems`` and
    ``stem_diffs`` as the module docstring gives, never from
    ``fault_words``; ``E_t`` is computed once per stem, and only for stems
    with a fault that fails where the injected fault fails.  The
    intermediate set at a failing pattern ``p`` is the faults whose index
    lies above ``p``.
    """
    fail_mask = fdict.fault_masks[inj_idx]
    never = fdict.num_patterns          # elimination index of a surviving fault
    inj_stem = fdict.fault_stems[inj_idx]
    inj_diffs = dict(fdict.stem_diffs[inj_stem])
    stem_mismatch = {inj_stem: 0}       # E_t, for the stems that need it
    elim = []
    for m, t in zip(fdict.fault_masks, fdict.fault_stems):
        diff = m ^ fail_mask
        both = m & fail_mask
        if both:
            e = stem_mismatch.get(t)
            if e is None:
                e = stem_mismatch[t] = _flip_mismatch(fdict.stem_diffs[t], inj_diffs)
            diff |= both & e
        elim.append((diff & -diff).bit_length() - 1 if diff else never)
    return elim


def trace_diagnosis(fdict: FaultDictionary, injected: Fault) -> DiagnosisTrace:
    """Replay the injected fault's pass/fail log and record candidate refinement.

    Each fault's elimination index is the first pattern under which its
    response differs from the injected fault's (see
    :func:`_elimination_indices`).  The size at a failing pattern ``p`` is
    the number of faults whose index lies above ``p``, read off the sorted
    indices.  Raises :class:`UndiagnosableFaultError` if the fault is never
    detected.
    """
    try:
        inj_idx = fdict.faults.index(injected)
    except ValueError:
        raise ValueError(f"injected fault {injected} not in dictionary") from None

    fail_mask = fdict.fault_masks[inj_idx]
    if fail_mask == 0:
        raise UndiagnosableFaultError(
            f"fault {injected} on circuit '{fdict.circuit.name}' is undiagnosable "
            f"with this pattern set")

    order = sorted(_elimination_indices(fdict, inj_idx))
    failing0 = [p for p in range(fdict.num_patterns) if (fail_mask >> p) & 1]
    sizes = [len(order) - bisect.bisect_right(order, p) for p in failing0]

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
    """Rebuild traces from a CSV export, in one pass over its records.

    Each record carries its circuit's applied pattern count, so a reader
    needs no corpus settings.  Loaded traces carry no injected-fault ground
    truth.  Raises ``ValueError`` on a different header, on a file without
    records, and, naming the file and line, on a record with the wrong
    number of fields (as a truncated file leaves), a bad value, a k that
    does not continue its circuit's records (a circuit's records come in k
    order, as :func:`write_traces` writes them), or an m or y other than
    the one its candidate-set sizes give, to six digits; blank lines are
    skipped.  A circuit whose records stop before its golden set is
    reached is rejected too.  So a loaded row has y == 1 exactly where its
    intermediate size is the golden size (a non-converged y reaches
    1.000000 only above two million candidates).
    """
    traces: dict[str, DiagnosisTrace] = {}
    lines: dict[str, list[int]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header in {path}: {header}")
        for fields in reader:
            if not fields:
                continue
            try:
                if len(fields) != len(TRACE_HEADER):
                    raise ValueError(f"expected {len(TRACE_HEADER)} fields, got {len(fields)}")
                m, y = float(fields[7]), float(fields[8])
                if not (math.isfinite(m) and math.isfinite(y)):
                    raise ValueError(f"non-finite m or y ({fields[7]!r}, {fields[8]!r})")
                num_inputs, total, k, failing, size, golden = map(int, fields[1:7])
                cid = fields[0]
                t = traces.get(cid)
                if t is None:
                    t = traces[cid] = DiagnosisTrace(cid, num_inputs, total, [], [], golden,
                                                     [], [])
                    lines[cid] = []
                if k != t.num_failing + 1:
                    raise ValueError(f"non-contiguous k sequence for circuit '{cid}'")
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
            t.failing_indices.append(failing)
            t.intermediate_sizes.append(size)
            t.m_values.append(m)
            t.y_values.append(y)
            lines[cid].append(reader.line_num)
    if not traces:
        raise ValueError(f"trace file {path} holds no rows")

    for cid, t in traces.items():
        if t.total_patterns < t.failing_indices[-1]:
            raise ValueError(f"{path}: circuit '{cid}': total_patterns {t.total_patterns} "
                             f"is below its last failing pattern {t.failing_indices[-1]}")
        if t.intermediate_sizes[-1] != t.golden_size:
            raise ValueError(f"{path}: circuit '{cid}' ends at intermediate size "
                             f"{t.intermediate_sizes[-1]}, not at its golden size "
                             f"{t.golden_size}")
        _check_labels(path, t, lines[cid])
    return list(traces.values())


def _check_labels(path, trace: DiagnosisTrace, lines: list[int]) -> None:
    """Reject a record whose m or y differs, at six digits, from the value
    its circuit's candidate-set sizes give (:func:`compute_labels`)."""
    golden = trace.golden_size
    for size, line in zip(trace.intermediate_sizes, lines):
        if not 0 < golden <= size:
            raise ValueError(f"{path} line {line}: intermediate size {size} and golden "
                             f"size {golden} break 1 <= golden <= intermediate")
    m_values = [golden / size for size in trace.intermediate_sizes]
    for m, y, m_read, y_read, line in zip(m_values, compute_labels(m_values),
                                          trace.m_values, trace.y_values, lines):
        if round(m, 6) != m_read or round(y, 6) != y_read:
            raise ValueError(f"{path} line {line}: m {m_read:.6f} and y {y_read:.6f} differ "
                             f"from {m:.6f} and {y:.6f} given by the candidate-set sizes")
