"""Single stuck-at fault enumeration and fault dictionaries.

The dictionary gives, for every (fault, pattern) pair, the full output
response.  Responses are packed: one machine word per (fault, output)
whose bit ``p`` is the output value under pattern ``p``.  Construction is
parallel-pattern single-fault propagation over fanout-free regions
(Waicukauski et al. 1985).  A *stem* is a primary output or a signal read
by zero or by several distinct gates; every other signal has exactly one
next gate, so the signals between a fault site and its stem form a
fanout-free path, and a fault reaches the rest of the circuit through its
stem alone.  Inside the fanout-free regions no fault is simulated on its
own: critical-path tracing (Abramovici, Menon & Miller 1984) gives every
signal, in one reverse-topological pass, the patterns under which its
complement reaches its stem, and a fault flips its stem under those of
them that excite it.  Each stem some fault flips is flipped once under
all patterns, with K stems propagated together in K slices of one wide
word, as in parallel-fault simulation (Seshu 1965).  A batch propagates
the union of its stems' cones, so the stems are batched in a preorder
walk of their fanout tree, where a stem's parent is a stem its readers
feed: neighbours in the walk share most of their cones.  Each batch keeps
one K-slice diff word per output it changes, and each stem keeps only its
batch and the bit offset of its slice: no diff word is cut per stem.
Cones are read off per-signal reachability bitsets.  Every gate
evaluation runs on the circuit's compiled gate program (``netlist._run``).

The dictionary keeps one record per fault, its detection mask and its
stem's slot in the batch diffs, and derives every row from it: the
fault-free row with the stem's slice of its batch's diffs applied under
the patterns in the mask.  This module alone knows that layout.  Trace
replay (:mod:`testtrim.diagnosis`) asks
:meth:`FaultDictionary.elimination_indices`, which compares the records
directly, never the rows, and reads the stem diffs only for the faults
that first fail where the injected fault first fails.  :meth:`FaultDictionary.response` unpacks one
(fault, pattern) entry into a bit tuple on demand.  The ``.dict`` export
(:func:`write_dictionary`) writes the packed rows, one line per fault with
one hex word per output.

Fault collapsing is deliberately not performed: candidate-set sizes feed
the downstream label arithmetic and must stay reproducible counts over the
uncollapsed fault universe.  The corpus build runs the builds with the
garbage collector paused, as nothing they allocate forms a reference cycle.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .netlist import Circuit, Pattern, Response, _check_patterns, _run

EXHAUSTIVE_INPUT_LIMIT = 12

# bytes.translate tables between a bit string's "0"/"1" characters and 0/1 bytes
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


class Fault(NamedTuple):
    """One stuck-at defect: ``signal`` (dense id) held at ``stuck_value``."""

    signal: int
    stuck_value: int


# Fault._make without its Python-level length check
_new_fault = functools.partial(tuple.__new__, Fault)


def enumerate_faults(circuit: Circuit) -> list[Fault]:
    """All 2 * signal_count stuck-at faults, ordered by signal id then s-a-0/s-a-1."""
    return list(map(_new_fault, itertools.product(range(circuit.signal_count), (0, 1))))


def exhaustive_patterns(num_inputs: int) -> list[Pattern]:
    """All 2^k input patterns, in numeric order (input j carries bit j)."""
    if num_inputs > EXHAUSTIVE_INPUT_LIMIT:
        raise ValueError(
            f"exhaustive pattern sets are limited to {EXHAUSTIVE_INPUT_LIMIT} inputs, "
            f"got {num_inputs}")
    return _unpack(range(1 << num_inputs), num_inputs)


def random_patterns(num_inputs: int, count: int, seed: int) -> list[Pattern]:
    """``count`` distinct seeded random patterns (capped at 2^k available)."""
    rng = random.Random(seed)
    total = 1 << num_inputs
    # range(total) has a C length below 2**63 codes; above, draw until enough are distinct
    codes = rng.sample(range(total), min(count, total)) if num_inputs < 63 else {}
    while len(codes) < min(count, total):
        codes[rng.getrandbits(num_inputs)] = None
    return _unpack(codes, num_inputs)


def _unpack(codes, num_inputs: int) -> list[Pattern]:
    """Each code as a bit tuple, input ``j`` carrying bit ``j`` (the bit set above
    them keeps the leading zeros).  Per-input words end to end (ROADMAP item 4b)
    wait on item 2: ``perfbench/checks.py`` reads ``fdict.patterns[p]`` as bit tuples."""
    return [tuple(format(code | 1 << num_inputs, "b")[:0:-1].encode().translate(_BIT_BYTES))
            for code in codes]


def _stem_diffs(entries, offset: int, mask: int):
    """``(j, diff & mask)`` for each of a batch's ``(j, low, W_j >> low)``
    entries that reaches the slice at bit ``offset``, ``diff`` being that
    slice: the diff at output ``j`` under the stem in that slice."""
    for j, low, w in entries:
        if offset >= low:
            yield j, (w >> (offset - low)) & mask


class _DerivedRows(Sequence):
    """Read-only ``fault_words`` view of a built dictionary.

    Row ``f`` is derived on access: ``free_words`` with the fault's stem
    diffs, ANDed with its detection mask, XORed in (see
    :class:`FaultDictionary`).
    """

    __slots__ = ("_free_words", "_fault_masks", "_fault_slots", "_batch_diffs")

    def __init__(self, free_words, fault_masks, fault_slots, batch_diffs) -> None:
        self._free_words = free_words
        self._fault_masks = fault_masks
        self._fault_slots = fault_slots
        self._batch_diffs = batch_diffs

    def __len__(self) -> int:
        return len(self._fault_masks)

    def __getitem__(self, fault_idx: int) -> tuple[int, ...]:
        detected = self._fault_masks[fault_idx]
        if not detected:
            return self._free_words
        batch, offset = self._fault_slots[fault_idx]
        row = list(self._free_words)
        for j, d in _stem_diffs(self._batch_diffs[batch], offset, detected):
            row[j] ^= d
        return tuple(row)


@dataclass(frozen=True)
class FaultDictionary:
    """Complete response table for every (fault, pattern) pair of one circuit.

    ``fault_words[f][o]`` packs output ``o`` of fault ``f`` across all
    patterns; ``free_words[o]`` is the fault-free row in the same layout.
    ``fault_masks[f]`` has bit ``p`` set where fault ``f``'s response
    differs from the fault-free one under pattern ``p``.

    The builder stores one record per fault, not its rows: its detection
    mask and the slot of the stem that ends its fanout-free path.  Stems
    are flipped K at a time (see :func:`_flip_stems`), and the flips are
    kept per batch.  For each output ``j`` that batch ``b`` changes,
    ``batch_diffs[b]`` holds one ``(j, low, W_j >> low)`` entry: ``W_j`` is
    K * P bits wide, its P-bit slice at offset ``k * P`` is the diff at
    ``j`` under the batch's ``k``-th stem, and ``low`` is the offset of its
    lowest nonzero slice, so the zero slices below it are not stored.
    ``fault_slots[f]`` is ``(b, k * P)`` for a detected fault whose stem
    is the ``k``-th of batch ``b``, and None for an undetected fault.  The
    stem's diff at ``j`` is ``diff[j] = (W_j >> k * P) & full`` (0 where
    the batch has no entry), so row ``f`` is ``free_words[j] ^ (diff[j] &
    fault_masks[f])``, and ``fault_words`` derives it so on access.
    ``fault_words`` still accepts any sequence of rows
    (``dataclasses.replace(fdict, fault_words=rows)``), and
    :meth:`response` and :func:`write_dictionary` read whatever it holds;
    :meth:`elimination_indices` reads the records alone.
    """

    circuit: Circuit
    patterns: tuple[Pattern, ...]
    faults: tuple[Fault, ...]
    fault_words: Sequence[tuple[int, ...]]
    free_words: tuple[int, ...]
    fault_masks: tuple[int, ...]
    fault_slots: tuple[tuple[int, int] | None, ...]
    batch_diffs: tuple[tuple[tuple[int, int, int], ...], ...]

    @property
    def num_patterns(self) -> int:
        return len(self.patterns)

    def response(self, fault_idx: int, pattern_idx: int) -> Response:
        """Output bits of fault ``fault_idx`` under pattern ``pattern_idx``."""
        return tuple((w >> pattern_idx) & 1 for w in self.fault_words[fault_idx])

    def detected_fault_indices(self) -> list[int]:
        return [f for f, m in enumerate(self.fault_masks) if m]

    def elimination_indices(self, inj_idx: int) -> list[int]:
        """Per fault, the first 0-based pattern under which its response
        differs from fault ``inj_idx``'s, or ``num_patterns`` where none does.

        Read off the records, not the rows: with ``M`` the masks,
        ``mismatch(f, i) = (M_f ^ M_i) | (M_f & M_i & E_f)``.  Let ``p_i`` be
        the injected fault's first failing pattern.  Below ``p_i`` the
        mismatch is ``M_f``, so a fault whose mask has a set bit below
        ``p_i`` has that lowest bit as its index, and a fault that passes
        ``p_i`` differs there; both read only ``M_f`` cut to its low ``p_i +
        1`` bits.  Only a fault whose first failing pattern is ``p_i`` reads
        ``E_f``: where both faults fail, each row reads its stem's diff, so
        ``E_f = OR_j (diff_f[j] ^ diff_i[j])``.  With ``R_j`` the injected
        stem's diff copied into all K slices, ``X_B = OR_j (W_j ^ R_j)`` (a
        missing side reading 0) and ``E_f = (X_B >> off_f) & full``.  ``X_B``
        is computed once per batch and ``E`` once per slot, each only where
        such a fault needs it, and ``E`` is 0 on the injected fault's own
        slot.  An undetected injected fault fails with none, so every index
        is then the lowest set bit of ``M_f``.
        """
        never = self.num_patterns           # elimination index of a surviving fault
        fail_mask = self.fault_masks[inj_idx]
        if not fail_mask:
            return [(m & -m).bit_length() - 1 if m else never for m in self.fault_masks]
        full = (1 << self.num_patterns) - 1
        lead = fail_mask & -fail_mask       # the bit of p_i
        first = lead.bit_length() - 1
        prefix = (lead << 1) - 1
        slots = self.fault_slots
        batch_diffs = self.batch_diffs
        inj_slot = slots[inj_idx]
        inj_diffs = None                    # R_j, computed once a batch needs it
        batch_mismatch: dict[int, int] = {}  # X_B, for the batches that need it
        slot_mismatch = {inj_slot: 0}       # E, for the slots that need it
        elim = []
        for m, slot in zip(self.fault_masks, slots):
            low = m & prefix
            if low != lead:                 # the fault's first failing pattern is not p_i
                elim.append((low & -low).bit_length() - 1 if low else first)
                continue
            e = slot_mismatch.get(slot)
            if e is None:
                batch, offset = slot
                x = batch_mismatch.get(batch)
                if x is None:
                    if inj_diffs is None:
                        inj_diffs = self._replicated_diffs(inj_slot)
                    x = batch_mismatch[batch] = _flip_mismatch(batch_diffs[batch], inj_diffs)
                e = slot_mismatch[slot] = (x >> offset) & full
            diff = (m ^ fail_mask) | (m & fail_mask & e)
            elim.append((diff & -diff).bit_length() - 1 if diff else never)
        return elim


    def _replicated_diffs(self, slot: tuple[int, int]) -> dict[int, int]:
        """``R_j``: the nonzero diffs of the stem in ``slot``, each copied
        into every slice of a batch word."""
        full = (1 << self.num_patterns) - 1
        width = max(s[1] for s in self.fault_slots if s) + self.num_patterns
        copies = ((1 << width) - 1) // full  # bit 0 of every slice: d * copies is d in each
        return {j: d * copies for j, d in _stem_diffs(self.batch_diffs[slot[0]], slot[1], full)
                if d}


def _flip_mismatch(entries, other: dict[int, int]) -> int:
    """``OR_j (W_j ^ other[j])`` over a batch's ``(j, low, W_j >> low)``
    entries and ``other``, a side missing ``j`` reading 0 there.  The words
    ``other`` misses are ORed per ``low`` and shifted once per ``low``."""
    rest = dict(other)
    by_low: dict[int, int] = {}
    x = 0
    for j, low, w in entries:
        r = rest.pop(j, None)
        if r is None:
            by_low[low] = by_low.get(low, 0) | w
        else:
            x |= (w << low) ^ r
    for low, w in by_low.items():
        x |= w << low
    for w in rest.values():
        x |= w
    return x


# Stems flipped per propagation: K = _BATCH_BITS // P (at least 1) for P patterns.
# Builds of a 1000- and a 3000-gate netlist at P = 1024 (fresh processes, 2-core x86,
# median of 12; peak RSS): 6144 bits 176.5 ms / 54.4 MB, 7168 173.4 / 54.8, 8192
# 183.8 / 55.4, 16384 166.8 / 60.3.  8192 bits (1120 bytes) miss glibc's per-thread
# malloc cache (up to 1032): 277 ns per gate against 184 at 7168; 16384 peaks 5.5 MB higher.
_BATCH_BITS = 7168


_MANY = -2  # the reader gate of a signal read by several gates, or of an output


def _fanout_free_regions(circuit: Circuit, free: list[int],
                         mask: int) -> tuple[list[int], list[int], list[int]]:
    """Per-signal ``(reach, stem_of, sens)`` lists.

    ``reach[s]`` has bit ``gi`` set for each gate ``gates[gi]`` that
    transitively reads ``s``.  ``stem_of[s]`` is the stem that ends ``s``'s
    fanout-free path (``s`` itself for a stem).  ``sens[s]`` marks the
    patterns under which complementing ``s`` complements ``stem_of[s]``,
    by critical-path tracing: ``mask`` for a stem, and for a signal with
    one reader gate, ``sens`` of the reader's output under the patterns
    where the reader's output changes with ``s`` complemented (one
    evaluation of the reader on the fault-free words ``free``).  None of
    the reader's other inputs depends on ``s``, so this is exact.  Signal
    ids are not topological, so both passes walk the gate order backwards.
    """
    program = circuit._program
    num_signals = circuit.signal_count
    reach = [0] * num_signals
    # the one reader gate of each signal: -1 while none is seen, _MANY after a second
    reader = [-1] * num_signals
    for gi in range(len(program) - 1, -1, -1):
        out, _, _, _, ins = program[gi]
        r = reach[out] | (1 << gi)
        for i in ins:
            reach[i] |= r
            reader[i] = gi if reader[i] in (-1, gi) else _MANY
    for o in circuit.outputs:
        reader[o] = _MANY
    stem_of = list(range(num_signals))
    sens = [mask] * num_signals
    words = list(free)
    for s in itertools.chain((g.output for g in reversed(circuit.gates)), circuit.inputs):
        gi = reader[s]
        if gi < 0:
            continue
        out = program[gi][0]
        stem_of[s] = stem_of[out]
        if sens[out]:
            words[s] ^= mask
            _run(program[gi:gi + 1], words, mask)
            sens[s] = (words[out] ^ free[out]) & sens[out]
            words[s] = free[s]
            words[out] = free[out]
        else:
            sens[s] = 0
    return reach, stem_of, sens


def _stems_per_batch(num_stems: int, num_patterns: int) -> int:
    """K, the stems flipped per propagation: ``_BATCH_BITS // P``, at least
    1 and at most ``num_stems``."""
    return max(1, min(_BATCH_BITS // num_patterns, num_stems))


def _fanout_tree_order(circuit: Circuit, reach: list[int], stem_of: list[int],
                       stems: Sequence[int], num_patterns: int) -> Sequence[int]:
    """``stems``, given in topological order, reordered for :func:`_flip_stems`.

    Stems that fit one batch keep their order.  Otherwise the stems form a
    forest: a stem's parent is the stem, among the ``stem_of`` of its
    reader gates' outputs, with the largest cone (of equal cones, the later
    in topological order).  A stem's cone holds its
    parent's, so a preorder walk of the forest keeps stems whose cones
    overlap most next to each other, and a batch cut from it evaluates
    fewer union-cone gates than one cut from the topological order.
    Roots, and the children of each stem, are walked in ascending cone
    size, ties broken by topological position.  The walk is cut into runs
    of K stems, and each run is sorted topologically.
    """
    per_batch = _stems_per_batch(len(stems), num_patterns)
    if len(stems) <= per_batch:
        return stems
    num = len(stems)
    # walk rank: cone size, then topological position
    rank = {s: reach[s].bit_count() * num + k for k, s in enumerate(stems)}
    parent: dict[int, int] = {}
    for out, _, _, _, ins in circuit._program:
        d = stem_of[out]
        rd = rank.get(d)
        if rd is None:
            continue
        for i in ins:
            if i in rank:
                p = parent.get(i)
                if p is None or rd > rank[p]:
                    parent[i] = d
    children: dict[int, list[int]] = {}
    roots = []
    for s in sorted(stems, key=rank.__getitem__, reverse=True):
        p = parent.get(s)
        (roots if p is None else children.setdefault(p, [])).append(s)
    walk = []
    stack = roots  # in descending rank, so the smallest is walked first
    while stack:
        s = stack.pop()
        walk.append(s)
        stack.extend(children.get(s, ()))
    position = {s: k for k, s in enumerate(stems)}
    return [s for b in range(0, num, per_batch)
            for s in sorted(walk[b:b + per_batch], key=position.__getitem__)]


def _flip_stems(circuit: Circuit, free: list[int], reach: list[int],
                stems: Sequence[int], num_patterns: int) -> tuple[list, list, list[int]]:
    """Flip each of ``stems`` under every pattern, K stems per propagation.

    Returns ``(batch_diffs, stem_slots, obs)`` in the layout
    :class:`FaultDictionary` gives: per batch ``b``, one ``(output
    position, low, W >> low)`` entry per output the batch changes, with
    ``W`` the output's K * P-bit diff word and ``low`` the offset of its
    lowest nonzero slice; ``stem_slots[s] = (b, k * P)`` for the ``k``-th
    stem of batch ``b`` and None for every other signal; ``obs[s]`` the OR
    of ``s``'s slices (0 for other signals).

    Each run of K stems (a batch) must be in topological order, as
    :func:`_fanout_tree_order` gives them: the runs follow a walk of the
    stems' fanout tree, and within a run the stems are sorted
    topologically.  K = max(1, _BATCH_BITS // P), capped at the number of
    stems, so no slice of a full batch goes unused:
    every signal word is replicated into K slices of P bits by shift-ORs,
    slice ``k`` of the ``k``-th stem is complemented, and the union of the
    stems' ``reach`` cones is propagated once with the K-slice mask.  A
    batch stem driven by a gate of that union is recomputed by the gate, so
    its slice is complemented again right after it; upstream stems then
    reach it in their own slices only.  The diff words stay packed: only
    their OR is cut, once per stem, and a word drops only its low zero
    slices, which keeps the retained words small where the batch's low
    stems do not reach the output.
    """
    program = circuit._program
    mask = (1 << num_patterns) - 1
    per_batch = _stems_per_batch(len(stems), num_patterns)
    wide = (1 << (per_batch * num_patterns)) - 1
    rep = []
    for w in free:
        copies = 1
        while copies < per_batch:
            w |= w << (copies * num_patterns)
            copies *= 2
        rep.append(w & wide)
    # slice masks: a test against one costs its width, not the whole word's
    slices = [mask << (k * num_patterns) for k in range(per_batch)]
    driver = {g.output: gi for gi, g in enumerate(circuit.gates)}
    batch_diffs: list[tuple[tuple[int, int, int], ...]] = []
    stem_slots: list[tuple[int, int] | None] = [None] * circuit.signal_count
    obs = [0] * circuit.signal_count
    for b in range(0, len(stems), per_batch):
        batch = stems[b:b + per_batch]
        words = rep.copy()
        cone = 0
        for k, s in enumerate(batch):
            words[s] ^= mask << (k * num_patterns)
            cone |= reach[s]
        selectors = format(cone, "b")[::-1].encode().translate(_BIT_BYTES)
        start = 0
        for k, s in enumerate(batch):
            gi = driver.get(s)
            if gi is not None and (cone >> gi) & 1:
                _run(itertools.compress(program[start:gi + 1], selectors[start:gi + 1]),
                     words, wide)
                words[s] ^= mask << (k * num_patterns)
                start = gi + 1
        _run(itertools.compress(program[start:], selectors[start:]), words, wide)
        entries = []
        seen = 0
        for j, o in enumerate(circuit.outputs):
            w = words[o]
            if w is not rep[o]:
                w ^= rep[o]
                if w:
                    seen |= w
                    k = 0
                    while not w & slices[k]:
                        k += 1
                    if k:  # a shift by 0 would copy the word
                        w >>= k * num_patterns
                    entries.append((j, k * num_patterns, w))
        for k, s in enumerate(batch):
            stem_slots[s] = (len(batch_diffs), k * num_patterns)
            obs[s] = (seen >> (k * num_patterns)) & mask
        batch_diffs.append(tuple(entries))
    return batch_diffs, stem_slots, obs


def build_fault_dictionary(circuit: Circuit, patterns: Sequence[Pattern]) -> FaultDictionary:
    """Simulate every enumerated fault against every pattern.

    All patterns are packed into machine words, and one fault-free pass
    covers every gate.  No fault is simulated on its own inside the
    fanout-free regions.  Critical-path tracing (Abramovici, Menon &
    Miller 1984) gives every signal ``s`` its sensitization word
    ``sens[s]``, the patterns under which complementing ``s`` complements
    its stem: ``mask`` for a stem, and ``local[s] & sens[next_gate(s)]``
    for a non-stem signal, where ``local[s]`` marks where its one reader's
    output changes when ``s`` is complemented under every pattern (see
    :func:`_fanout_free_regions`).  A fault excites its site under
    ``stuck ^ free[site]``, so it flips its stem under ``D = (stuck ^
    free[site]) & sens[site]``.

    Every stem some fault flips is then flipped once under all patterns,
    several stems per propagation, batched along the stems' fanout tree
    (see :func:`_fanout_tree_order` and :func:`_flip_stems`); each batch
    keeps one diff word per output that changes, and each stem's ``obs`` is
    its slice of their OR.  The cones are read off ``reach[s]``, an int
    with bit ``gi`` set for every gate that transitively reads ``s``, built
    in one reverse-topological pass.  The fault reaches the rest of the
    circuit through its stem only, so under a pattern in ``D`` every output
    reads its stem-flipped value and elsewhere its fault-free value: the
    detection mask is ``obs & D``.  A detected fault keeps its stem's
    slot, and its row is derived from that slot, its batch's diff words and
    its mask (see :class:`FaultDictionary`).  The result is deterministic for a given
    circuit and pattern list.
    """
    if not patterns:
        raise ValueError("empty pattern list")
    _check_patterns(circuit, patterns)
    mask = (1 << len(patterns)) - 1
    num_signals = circuit.signal_count

    free = [0] * num_signals
    for sid, bits in zip(circuit.inputs, zip(*patterns)):  # bits[p]: the input under p
        free[sid] = int(bytes(bits[::-1]).translate(_BIT_CHARS), 2)
    _run(circuit._program, free, mask)
    free_words = tuple(free[o] for o in circuit.outputs)

    reach, stem_of, sens = _fanout_free_regions(circuit, free, mask)
    faults = tuple(enumerate_faults(circuit))
    fault_stems = [stem_of[fault.signal] for fault in faults]
    stem_flips = [((mask if fault.stuck_value else 0) ^ free[fault.signal]) & sens[fault.signal]
                  for fault in faults]
    del sens  # one word per signal: kept out of the stem flips' peak memory
    flipped = {stem for stem, d in zip(fault_stems, stem_flips) if d}
    order = [s for s in itertools.chain(circuit.inputs, (g.output for g in circuit.gates))
             if s in flipped]
    order = _fanout_tree_order(circuit, reach, stem_of, order, len(patterns))
    batch_diffs, stem_slots, obs = _flip_stems(circuit, free, reach, order, len(patterns))
    fault_masks = tuple(obs[stem] & d for stem, d in zip(fault_stems, stem_flips))
    fault_slots = tuple(stem_slots[stem] if m else None
                        for stem, m in zip(fault_stems, fault_masks))
    batch_diffs = tuple(batch_diffs)
    return FaultDictionary(
        circuit=circuit, patterns=tuple(patterns), faults=faults,
        fault_words=_DerivedRows(free_words, fault_masks, fault_slots, batch_diffs),
        free_words=free_words, fault_masks=fault_masks, fault_slots=fault_slots,
        batch_diffs=batch_diffs)


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
    with open(path, "w") as fh:   # one write per fault: no line outlives its write
        fh.write(f"# circuit={circuit.name} signals={circuit.signal_count} "
                 f"faults={len(fdict.faults)} patterns={fdict.num_patterns}\n")
        for fault, words in zip(fdict.faults, fdict.fault_words):
            fh.write(" ".join([names[fault.signal], str(fault.stuck_value),
                               *[format(w, "x") for w in words]]) + "\n")
