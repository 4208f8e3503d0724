"""Single stuck-at fault enumeration, faulty simulation, fault dictionaries.

The dictionary stores, for every (fault, pattern) pair, the full output
response.  Internally responses are kept packed: one machine word per
(fault, output) whose bit ``p`` is the output value under pattern ``p``.
Construction is parallel-pattern single-fault propagation over fanout-free
regions.  A *stem* is a primary output or a signal read by zero or by
several distinct gates; every other signal has exactly one next gate, so
the signals between a fault site and its stem form a fanout-free path.  A
fault is simulated gate by gate along that path only; it reaches the rest
of the circuit through its stem alone.  Each stem's fanout cone is
propagated once, with the stem's word complemented, and the fault's row is
the fault-free row with the stem's output differences applied wherever the
fault flips the stem.  Cones are read off per-signal reachability bitsets.
Packed words also make pass/fail bookkeeping cheap bitwise arithmetic.
``response()`` and ``fault_free`` materialize ordinary bit tuples on demand.
The ``.dict`` export (:func:`write_dictionary`) writes the same packed
words, one line per fault with one hex word per output.

Fault collapsing is deliberately not performed: candidate-set sizes feed
the downstream label arithmetic and must stay reproducible counts over the
uncollapsed fault universe.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from functools import cached_property, reduce
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
    ``fault_masks[f]`` has bit ``p`` set where fault ``f``'s response
    differs from the fault-free one under pattern ``p``.
    """

    circuit: Circuit
    patterns: tuple[Pattern, ...]
    faults: tuple[Fault, ...]
    fault_words: tuple[tuple[int, ...], ...]
    free_words: tuple[int, ...]
    fault_masks: tuple[int, ...]
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
        return self.fault_masks[fault_idx]

    def mismatch_between(self, fault_a: int, fault_b: int) -> int:
        """Bitmask over patterns where two faults' responses differ."""
        return reduce(operator.or_, map(operator.xor, self.fault_words[fault_a],
                                        self.fault_words[fault_b]), 0)

    def detected_fault_indices(self) -> list[int]:
        return [f for f, m in enumerate(self.fault_masks) if m]


# bytes.translate table: a bit string's "0"/"1" characters to 0/1 selector bytes
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _fanout_free_paths(circuit: Circuit) -> tuple[list[int], list[Gate | None], list[int]]:
    """Per-signal ``(reach, next_gate, stem_of)`` lists.

    ``reach[s]`` has bit ``gi`` set for each gate ``gates[gi]`` that
    transitively reads ``s``.  ``next_gate[s]`` is the one gate reading a
    non-stem signal and None for a stem; ``stem_of[s]`` is the stem that
    ends ``s``'s fanout-free path (``s`` itself for a stem).  Signal ids are
    not topological, so both passes walk the gate order backwards.
    """
    gates = circuit.gates
    num_signals = circuit.signal_count
    reach = [0] * num_signals
    readers: list[set[int]] = [set() for _ in range(num_signals)]
    for gi in range(len(gates) - 1, -1, -1):
        out, _, ins = gates[gi]
        r = reach[out] | (1 << gi)
        for i in ins:
            reach[i] |= r
            readers[i].add(gi)
    is_output = set(circuit.outputs)
    next_gate = [gates[min(r)] if len(r) == 1 and s not in is_output else None
                 for s, r in enumerate(readers)]
    stem_of = list(range(num_signals))
    for s in itertools.chain((g.output for g in reversed(gates)), circuit.inputs):
        if next_gate[s] is not None:
            stem_of[s] = stem_of[next_gate[s].output]
    return reach, next_gate, stem_of


def build_fault_dictionary(circuit: Circuit, patterns: Sequence[Pattern],
                           seed: int | None = None) -> FaultDictionary:
    """Simulate every enumerated fault against every pattern.

    All patterns are packed into machine words, and one fault-free pass
    covers every gate.  A fault whose stuck word equals the fault-free word
    is never excited.  An excited fault pins its site's word and evaluates
    its fanout-free path one next gate at a time up to the site's stem.  It
    stops early, with the fault-free row, where its word equals the
    fault-free word again.  At the stem, ``D`` = faulty XOR fault-free word
    marks the patterns under which the fault flips the stem.

    Each stem reached is flipped once: its word is complemented, its fanout
    cone propagated, and the outputs that change are kept as sparse
    ``(position, diff word)`` pairs whose OR is ``obs``.  The fault reaches
    the rest of the circuit through its stem only, so under a pattern in
    ``D`` every output reads its stem-flipped value and elsewhere its
    fault-free value: the row is ``free_words`` with ``diff & D`` XORed in
    at each kept position, and the detection mask is ``obs & D``.  The cone
    is read off ``reach[s]``, an int with bit ``gi`` set for every gate that
    transitively reads ``s``, built in one reverse-topological pass.  A
    stem's pairs are dropped after the last fault whose path ends there.
    Rows without a difference share the fault-free tuple.  The result is
    deterministic for a given circuit and pattern list; ``seed`` is only
    recorded for export metadata.
    """
    if not patterns:
        raise ValueError("empty pattern list")
    for p in patterns:
        _check_pattern(circuit, p)
    mask = (1 << len(patterns)) - 1
    gates = circuit.gates
    outputs = circuit.outputs
    num_signals = circuit.signal_count

    free = [0] * num_signals
    for j, sid in enumerate(circuit.inputs):
        w = 0
        for p, pat in enumerate(patterns):
            w |= pat[j] << p
        free[sid] = w
    _propagate(gates, free, mask)
    free_words = tuple(free[o] for o in outputs)

    reach, next_gate, stem_of = _fanout_free_paths(circuit)
    remaining = [0] * num_signals      # faults left whose path ends at each stem
    for s in stem_of:
        remaining[s] += 2

    faults = tuple(enumerate_faults(circuit))
    words = list(free)
    flips: dict[int, tuple[list[tuple[int, int]], int]] = {}
    rows = []
    fault_masks = []
    for fault in faults:
        site = fault.signal
        stem = stem_of[site]
        stuck = mask if fault.stuck_value else 0
        d = stuck ^ free[site]
        if d:
            words[site] = stuck
            sig = site
            while sig != stem:
                gate = next_gate[sig]
                _propagate((gate,), words, mask)
                sig = gate.output
                d = words[sig] ^ free[sig]
                if not d:
                    break
            s = site
            words[s] = free[s]
            while s != sig:
                s = next_gate[s].output
                words[s] = free[s]
        detected = 0
        if d:
            flip = flips.get(stem)
            if flip is None:
                selectors = format(reach[stem], "b")[::-1].encode().translate(_BIT_BYTES)
                cone = list(itertools.compress(gates, selectors))
                words[stem] = free[stem] ^ mask
                _propagate(cone, words, mask)
                diffs = [(j, w) for j, o in enumerate(outputs) if (w := words[o] ^ free[o])]
                words[stem] = free[stem]
                for gate in cone:
                    words[gate.output] = free[gate.output]
                obs = 0
                for _, w in diffs:
                    obs |= w
                flip = flips[stem] = (diffs, obs)
            diffs, obs = flip
            detected = obs & d
        if detected:
            row = list(free_words)
            for j, w in diffs:
                x = w & d
                if x:
                    row[j] ^= x
            rows.append(tuple(row))
        else:
            rows.append(free_words)
        fault_masks.append(detected)
        remaining[stem] -= 1
        if not remaining[stem]:
            flips.pop(stem, None)
    return FaultDictionary(circuit=circuit, patterns=tuple(patterns), faults=faults,
                           fault_words=tuple(rows), free_words=free_words,
                           fault_masks=tuple(fault_masks), seed=seed)


def write_dictionary(fdict: FaultDictionary, path) -> None:
    """Text export: a header line, then one line per fault.

    Line format: ``<fault_signal> <stuck_value> <w_1> ... <w_O>``, where
    ``w_j`` is output ``j``'s packed word in lowercase hex without ``0x``:
    bit ``p`` is the output's value under pattern ``p`` (0-based, in
    dictionary pattern order).  Fields are separated by single spaces, so
    a circuit without outputs writes ``<fault_signal> <stuck_value>``.
    Faults are listed in dictionary order.
    """
    circuit = fdict.circuit
    names = circuit.signal_names
    lines = [
        f"# circuit={circuit.name} signals={circuit.signal_count} "
        f"faults={len(fdict.faults)} patterns={fdict.num_patterns} seed={fdict.seed}"
    ]
    for fault, words in zip(fdict.faults, fdict.fault_words):
        lines.append(" ".join([names[fault.signal], str(fault.stuck_value),
                               *[format(w, "x") for w in words]]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
