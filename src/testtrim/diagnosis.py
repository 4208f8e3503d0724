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

The elimination indices come from the dictionary
(:meth:`~testtrim.faultsim.FaultDictionary.elimination_indices`), which
reads its packed per-fault records, not its rows; this module keeps the
record math.

``traces.csv`` holds one record per failing circuit: its id, input count
and applied pattern count, its failing indices and its intermediate sizes.
No field of the record repeats another: the golden size is the last size,
and the convergence ratios and labels of the feature rows are derived from
the sizes by :func:`~testtrim.dataset.dataset_from_traces`.  The model side
reads this record, so the fault simulator is imported for type annotations
only.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .faultsim import Fault, FaultDictionary


class UndiagnosableFaultError(ValueError):
    """The injected fault is never detected by the pattern set."""


@dataclass
class DiagnosisTrace:
    """Ordered per-failing-pattern record for one failing circuit: the
    fields of a ``traces.csv`` record, plus the injected fault of a trace
    built by :func:`trace_diagnosis`."""

    circuit_id: str
    num_inputs: int
    total_patterns: int
    failing_indices: list[int]          # 1-based pattern indices, strictly increasing
    intermediate_sizes: list[int]       # non-increasing, ending at the golden size
    injected_fault: Fault | None = None

    @property
    def golden_size(self) -> int:
        return self.intermediate_sizes[-1]

    @property
    def num_failing(self) -> int:
        return len(self.failing_indices)


def trace_diagnosis(fdict: FaultDictionary, injected: Fault) -> DiagnosisTrace:
    """Replay the injected fault's pass/fail log and record candidate refinement.

    Each fault's elimination index is the first pattern under which its
    response differs from the injected fault's (see
    :meth:`FaultDictionary.elimination_indices`).  The size at a failing
    pattern ``p`` is the number of faults whose index lies above ``p``, read
    off the sorted indices.  Raises :class:`UndiagnosableFaultError` if the
    fault is never detected.
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

    order = sorted(fdict.elimination_indices(inj_idx))
    failing0 = [p for p in range(fdict.num_patterns) if (fail_mask >> p) & 1]
    sizes = [len(order) - bisect.bisect_right(order, p) for p in failing0]

    return DiagnosisTrace(
        circuit_id=fdict.circuit.name,
        num_inputs=len(fdict.circuit.inputs),
        total_patterns=fdict.num_patterns,
        failing_indices=[p + 1 for p in failing0],
        intermediate_sizes=sizes,
        injected_fault=injected,
    )


# the largest int the float feature matrix (and a float m) holds exactly
_EXACT_INT_LIMIT = 2 ** 53

TRACE_HEADER = ["circuit_id", "num_inputs", "total_patterns", "failing_indices",
                "intermediate_sizes"]


def write_traces(traces: Iterable[DiagnosisTrace], path) -> None:
    """CSV export, one record per trace; the two lists are space-separated ints."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for t in traces:
            writer.writerow([t.circuit_id, t.num_inputs, t.total_patterns,
                             " ".join(map(str, t.failing_indices)),
                             " ".join(map(str, t.intermediate_sizes))])


def read_traces(path) -> list[DiagnosisTrace]:
    """Rebuild traces from a CSV export, one trace per record.

    Each record carries its circuit's applied pattern count, so a reader
    needs no corpus settings.  Loaded traces carry no injected-fault ground
    truth.  Blank lines are skipped.  Each refusal raises ``ValueError``
    naming the file and the line: a header other than :data:`TRACE_HEADER`
    (as an older export holds), a file without records, a wrong number of
    fields or a value that is not an int, a second record for one circuit
    id, lists that are empty or differ in length, ``num_inputs`` below 1, a
    count or size above 2**53, failing indices that do not rise strictly
    from 1 up to ``total_patterns``, more patterns than ``2**num_inputs``,
    sizes that rise or fall below 1, and a last record without a line end,
    which is what a cut file leaves.  These checks are what makes every
    derived ratio m = golden / size lie in (0, 1].  A field is never
    refused for its length.  A failing index moved to
    another value that still rises passes: no file records the applied
    patterns, so it cannot be re-checked until they are persisted.  Text
    that does not decode is refused naming the file.
    """
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except UnicodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    # no field is longer than its line: a long failing list is read, not refused
    longest = max(map(len, lines), default=0)
    if longest > csv.field_size_limit():
        csv.field_size_limit(longest)
    reader = csv.reader(lines)
    traces: dict[str, DiagnosisTrace] = {}
    try:
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header {header}; run 'testtrim generate' again")
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(TRACE_HEADER):
                raise ValueError(f"expected {len(TRACE_HEADER)} fields, got {len(fields)}")
            cid = fields[0]
            num_inputs, total = int(fields[1]), int(fields[2])
            failing = [int(v) for v in fields[3].split()]
            sizes = [int(v) for v in fields[4].split()]
            if cid in traces:
                raise ValueError(f"a second record for circuit '{cid}'")
            if not failing or len(failing) != len(sizes):
                raise ValueError(f"{len(failing)} failing indices and {len(sizes)} "
                                 f"intermediate sizes: want as many, at least 1")
            if num_inputs < 1:
                raise ValueError(f"num_inputs {num_inputs} is below 1")
            for name, value in (("num_inputs", num_inputs), ("total_patterns", total),
                                ("intermediate size", max(sizes))):
                if value > _EXACT_INT_LIMIT:
                    raise ValueError(f"{name} {value} is above 2**53, the largest int a "
                                     f"float holds exactly")
            low = 1
            for index in failing:
                if index < low:
                    raise ValueError(f"failing index {index} is below {low}: failing "
                                     f"indices rise strictly from 1")
                low = index + 1
            if failing[-1] > total:
                raise ValueError(f"failing index {failing[-1]} is above total_patterns {total}")
            if (total - 1).bit_length() > num_inputs:  # total > 2**num_inputs, not built
                raise ValueError(f"total_patterns {total} is above 2**{num_inputs}, the "
                                 f"patterns {num_inputs} inputs have")
            for before, size in zip(sizes, sizes[1:]):
                if size > before:
                    raise ValueError(f"intermediate size {size} rises above the size "
                                     f"{before} before it")
            if sizes[-1] < 1:
                raise ValueError(f"intermediate size {sizes[-1]} is below 1")
            traces[cid] = DiagnosisTrace(cid, num_inputs, total, failing, sizes)
        if not traces:
            raise ValueError("no trace record")
        if not lines[-1].endswith(("\n", "\r")):
            raise ValueError("the last record has no line end: the file is cut")
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path} line {max(reader.line_num, 1)}: {exc}") from None
    return list(traces.values())
