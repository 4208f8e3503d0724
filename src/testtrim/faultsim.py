"""Single stuck-at fault enumeration, faulty simulation, fault dictionaries.

The dictionary stores, for every (fault, pattern) pair, the full output
response.  Internally responses are kept packed: one machine word per
(fault, output) whose bit ``p`` is the output value under pattern ``p``.
Construction is parallel-pattern single-fault propagation: one fault-free
pass over all gates, then per fault a pass over only the gates in the fault
site's fanout cone.  Packed words also make pass/fail bookkeeping cheap
bitwise arithmetic.  ``response()`` and ``fault_free`` materialize ordinary
bit tuples on demand.

Fault collapsing is deliberately not performed: candidate-set sizes feed
the downstream label arithmetic and must stay reproducible counts over the
uncollapsed fault universe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .netlist import Circuit, Gate, Pattern, Response, _check_pattern, _propagate

EXHAUSTIVE_INPUT_LIMIT = 12


@dataclass(frozen=True, order=True)
class Fault:
    """One stuck-at defect: ``signal`` (dense id) held at ``stuck_value``."""

    signal: int
    stuck_value: int


def enumerate_faults(circuit: Circuit) -> list[Fault]:
    """All 2 * signal_count stuck-at faults, ordered by signal id then s-a-0/s-a-1."""
    return [Fault(s, v) for s in range(circuit.signal_count) for v in (0, 1)]


def simulate_faulty(circuit: Circuit, fault: Fault, pattern: Sequence[int]) -> Response:
    """Response with ``fault`` active: the faulted signal is pinned to its
    stuck value and the gate driving it, if any, is skipped."""
    if not 0 <= fault.signal < circuit.signal_count:
        raise ValueError(f"unknown signal id {fault.signal}")
    _check_pattern(circuit, pattern)
    words = [0] * circuit.signal_count
    for sid, bit in zip(circuit.inputs, pattern):
        words[sid] = bit
    words[fault.signal] = fault.stuck_value
    _propagate((g for g in circuit.gates if g.output != fault.signal), words, 1)
    return tuple(words[o] for o in circuit.outputs)


def exhaustive_patterns(num_inputs: int) -> list[Pattern]:
    """All 2^k input patterns, in numeric order (input j carries bit j)."""
    if num_inputs > EXHAUSTIVE_INPUT_LIMIT:
        raise ValueError(
            f"exhaustive pattern sets are limited to {EXHAUSTIVE_INPUT_LIMIT} inputs, "
            f"got {num_inputs}")
    return [tuple((code >> j) & 1 for j in range(num_inputs))
            for code in range(1 << num_inputs)]


def random_patterns(num_inputs: int, count: int, seed: int) -> list[Pattern]:
    """``count`` distinct seeded random patterns (capped at 2^k available)."""
    rng = random.Random(seed)
    total = 1 << num_inputs
    codes = rng.sample(range(total), min(count, total))
    return [tuple((code >> j) & 1 for j in range(num_inputs)) for code in codes]


@dataclass(frozen=True)
class FaultDictionary:
    """Complete response table for every (fault, pattern) pair of one circuit.

    ``fault_words[f][o]`` packs output ``o`` of fault ``f`` across all
    patterns; ``free_words[o]`` is the fault-free row in the same layout.
    """

    circuit: Circuit
    patterns: tuple[Pattern, ...]
    faults: tuple[Fault, ...]
    fault_words: tuple[tuple[int, ...], ...]
    free_words: tuple[int, ...]
    seed: int | None = None

    @property
    def num_patterns(self) -> int:
        return len(self.patterns)

    @cached_property
    def fault_free(self) -> tuple[Response, ...]:
        """Fault-free response per pattern."""
        return tuple(self._unpack(self.free_words, p) for p in range(self.num_patterns))

    def response(self, fault_idx: int, pattern_idx: int) -> Response:
        return self._unpack(self.fault_words[fault_idx], pattern_idx)

    def response_row(self, fault_idx: int) -> tuple[Response, ...]:
        words = self.fault_words[fault_idx]
        return tuple(self._unpack(words, p) for p in range(self.num_patterns))

    @staticmethod
    def _unpack(words: Sequence[int], pattern_idx: int) -> Response:
        return tuple((w >> pattern_idx) & 1 for w in words)

    def mismatch_vs_free(self, fault_idx: int) -> int:
        """Bitmask over patterns where the fault's response differs from fault-free."""
        acc = 0
        for wf, w0 in zip(self.fault_words[fault_idx], self.free_words):
            acc |= wf ^ w0
        return acc

    def mismatch_between(self, fault_a: int, fault_b: int) -> int:
        """Bitmask over patterns where two faults' responses differ."""
        acc = 0
        for wa, wb in zip(self.fault_words[fault_a], self.fault_words[fault_b]):
            acc |= wa ^ wb
        return acc

    def detected_fault_indices(self) -> list[int]:
        return [f for f in range(len(self.faults)) if self.mismatch_vs_free(f) != 0]


def _fanout_cone(circuit: Circuit, readers: list[list[int]], site: int) -> list[Gate]:
    """Gates that transitively read ``site``, in topological order.

    ``readers[s]`` lists the positions of the gates reading signal ``s``; a
    gate reading a signal on several pins appears once in the cone.
    """
    seen: set[int] = set()
    stack = [site]
    while stack:
        for gi in readers[stack.pop()]:
            if gi not in seen:
                seen.add(gi)
                stack.append(circuit.gates[gi].output)
    return [circuit.gates[gi] for gi in sorted(seen)]


def build_fault_dictionary(circuit: Circuit, patterns: Sequence[Pattern],
                           seed: int | None = None) -> FaultDictionary:
    """Simulate every enumerated fault against every pattern.

    All patterns are packed into machine words.  One fault-free pass covers
    every gate; each excited fault then pins its site's word and re-evaluates
    only the site's fanout cone, so a fault costs one pass over its cone.  A
    fault whose stuck word equals the fault-free word is never excited and
    gets the fault-free row.  Rows share the fault-free ints of outputs
    outside the cone.  The result is deterministic for a given circuit and
    pattern list; ``seed`` is only recorded for export metadata.
    """
    if not patterns:
        raise ValueError("empty pattern list")
    for p in patterns:
        _check_pattern(circuit, p)
    mask = (1 << len(patterns)) - 1
    outputs = circuit.outputs

    free = [0] * circuit.signal_count
    for j, sid in enumerate(circuit.inputs):
        w = 0
        for p, pat in enumerate(patterns):
            w |= pat[j] << p
        free[sid] = w
    _propagate(circuit.gates, free, mask)
    free_words = tuple(free[o] for o in outputs)

    readers: list[list[int]] = [[] for _ in range(circuit.signal_count)]
    for gi, gate in enumerate(circuit.gates):
        for i in gate.inputs:
            readers[i].append(gi)

    faults = tuple(enumerate_faults(circuit))
    words = list(free)
    cone_site, cone = -1, []
    rows = []
    for fault in faults:
        site = fault.signal
        stuck = mask if fault.stuck_value else 0
        if stuck == free[site]:
            rows.append(free_words)
            continue
        if site != cone_site:
            cone_site, cone = site, _fanout_cone(circuit, readers, site)
        words[site] = stuck
        _propagate(cone, words, mask)
        rows.append(tuple(words[o] for o in outputs))
        words[site] = free[site]
        for gate in cone:
            words[gate.output] = free[gate.output]
    return FaultDictionary(circuit=circuit, patterns=tuple(patterns), faults=faults,
                           fault_words=tuple(rows), free_words=free_words, seed=seed)


def write_dictionary(fdict: FaultDictionary, path) -> None:
    """Columnar text export: header, then one line per (fault, pattern).

    Line format: ``<fault_signal> <stuck_value> <pattern_index> <response_bits>``
    with 0-based pattern indices and response bits in output-list order.
    """
    circuit = fdict.circuit
    names = circuit.signal_names
    lines = [
        f"# circuit={circuit.name} signals={circuit.signal_count} "
        f"faults={len(fdict.faults)} patterns={fdict.num_patterns} seed={fdict.seed}"
    ]
    for fi, fault in enumerate(fdict.faults):
        for p in range(fdict.num_patterns):
            bits = "".join(str(b) for b in fdict.response(fi, p))
            lines.append(f"{names[fault.signal]} {fault.stuck_value} {p} {bits}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
