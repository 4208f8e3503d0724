"""Gate-level combinational netlists: parsing, structure checks, simulation.

A circuit is read from bench-style text (one statement per line, ``#``
comments)::

    INPUT(a)
    OUTPUT(z)
    z = AND(a, b)

Signal names are interned to dense integer ids at parse time so that fault
sites and simulation buffers are plain index-addressable arrays.  Gates are
stored in a stable topological order; evaluation is a single forward pass.

Patterns and responses are plain tuples of 0/1 ints whose lengths match the
circuit's input and output lists respectively.

Simulation works on packed machine words: every signal holds an int whose
bit ``p`` is the signal's value under pattern ``p``.  With ``mask = 1`` this
degenerates to ordinary single-pattern evaluation; the fault-dictionary
builder passes wider masks to simulate all patterns of a set at once.  Each
circuit compiles its gates once into a program of small-int opcodes, and
one loop, :func:`_run`, evaluates any topologically ordered part of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

GATE_KINDS = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF")
_UNARY_KINDS = frozenset({"NOT", "BUF"})

Pattern = tuple[int, ...]
Response = tuple[int, ...]


class BenchParseError(ValueError):
    """Malformed or structurally inconsistent netlist text.

    Carries the 1-based ``line`` and ``col`` of the offending token when
    they are known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col if col else 1}: {message}"
        super().__init__(message)


class Gate(NamedTuple):
    output: int
    kind: str
    inputs: tuple[int, ...]


@dataclass(frozen=True)
class Circuit:
    """An acyclic gate-level circuit, immutable after construction.

    ``signal_names`` maps dense signal ids back to source names; ``inputs``,
    ``outputs`` and gate pins are stored as signal ids.  ``gates`` is
    topologically sorted: every gate input is a primary input or the output
    of an earlier gate.  ``_program`` is ``gates`` compiled once for the
    gate-evaluation loop :func:`_run`.
    """

    name: str
    signal_names: tuple[str, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    gates: tuple[Gate, ...]
    _program: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_program", _compile(self.gates))

    @property
    def signal_count(self) -> int:
        return len(self.signal_names)


_ID_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_IO_RE = re.compile(r"(INPUT|OUTPUT)\s*\(\s*([A-Za-z0-9_]+)\s*\)\Z", re.IGNORECASE)
_GATE_RE = re.compile(r"([A-Za-z0-9_]+)\s*=\s*([A-Za-z0-9_]+)\s*\(([^()]*)\)\Z")


def parse_bench(text: str, name: str = "circuit") -> Circuit:
    """Parse bench-style netlist text into a :class:`Circuit`.

    Raises :class:`BenchParseError` for syntax errors, undeclared or
    multiply-driven signals, bad gate arities, unknown gate kinds, and
    cyclic dependencies.  Gate declaration order in the text is free; the
    returned circuit stores gates topologically sorted.
    """
    input_names: list[str] = []
    output_names: list[str] = []
    declared_outputs: set[str] = set()
    # gate statements: (out_name, kind, in_names, line_no, raw_line)
    gate_stmts: list[tuple[str, str, tuple[str, ...], int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].strip()
        if not code:
            continue
        col0 = raw.index(code[0]) + 1
        m = _IO_RE.fullmatch(code)
        if m:
            kw = m.group(1).upper()
            sig = m.group(2)
            if kw == "INPUT":
                input_names.append(sig)
            else:
                if sig in declared_outputs:
                    raise BenchParseError(f"duplicate OUTPUT declaration for '{sig}'",
                                          line_no, raw.find(sig) + 1)
                declared_outputs.add(sig)
                output_names.append(sig)
            continue
        m = _GATE_RE.fullmatch(code)
        if m:
            out, kind, args = m.group(1), m.group(2), m.group(3)
            kind_u = kind.upper()
            if kind_u not in GATE_KINDS:
                raise BenchParseError(f"unknown gate kind '{kind}'", line_no, raw.find(kind) + 1)
            in_names = tuple(a.strip() for a in args.split(","))
            for a in in_names:
                if not _ID_RE.fullmatch(a):
                    raise BenchParseError(f"bad gate input list '{args.strip()}'",
                                          line_no, raw.find("(") + 2)
            if kind_u in _UNARY_KINDS and len(in_names) != 1:
                raise BenchParseError(f"{kind_u} takes exactly 1 input, got {len(in_names)}",
                                      line_no, col0)
            if kind_u not in _UNARY_KINDS and len(in_names) < 2:
                raise BenchParseError(f"{kind_u} takes at least 2 inputs, got {len(in_names)}",
                                      line_no, col0)
            gate_stmts.append((out, kind_u, in_names, line_no, raw))
            continue
        raise BenchParseError(f"syntax error near '{code}'", line_no, col0)

    # Driver bookkeeping: a signal is driven by INPUT or by exactly one gate.
    seen_inputs: set[str] = set()
    for i, n in enumerate(input_names):
        if n in seen_inputs:
            raise BenchParseError(f"signal '{n}' multiply driven (duplicate INPUT)")
        seen_inputs.add(n)
    driven: set[str] = set(seen_inputs)
    for out, _, _, line_no, raw in gate_stmts:
        if out in driven:
            raise BenchParseError(f"signal '{out}' multiply driven", line_no, raw.find(out) + 1)
        driven.add(out)

    for out, _, ins, line_no, raw in gate_stmts:
        for a in ins:
            if a not in driven:
                raise BenchParseError(f"undeclared signal '{a}' used as input of '{out}'",
                                      line_no, raw.rfind(a) + 1)
    for n in output_names:
        if n not in driven:
            raise BenchParseError(f"undeclared signal '{n}' used as OUTPUT")

    return build_circuit(name, input_names, output_names,
                         [(out, kind, ins) for out, kind, ins, _, _ in gate_stmts],
                         _lines={out: ln for out, _, _, ln, _ in gate_stmts})


def build_circuit(name: str,
                  input_names: Sequence[str],
                  output_names: Sequence[str],
                  gate_stmts: Sequence[tuple[str, str, Sequence[str]]],
                  _lines: dict[str, int] | None = None) -> Circuit:
    """Assemble a validated Circuit from name-level statements.

    Shared by the parser and the random-circuit generator.  Performs the
    stable topological sort and interns signals: inputs first, then gate
    outputs, in declaration order.  The sort gives the order of repeated
    passes over the statements in declaration order, each placing every
    statement whose inputs are defined by then: a gate's pass is one, or
    the largest pass of a gate it reads, plus one if that gate is declared
    after it.  Gates are sorted by (pass, declaration index), with the
    passes computed in linear time over Kahn's algorithm.  A statement
    never placed is reported as a cyclic dependency, the first such one in
    declaration order.
    """
    ids: dict[str, int] = {}
    for n in input_names:
        ids[n] = len(ids)
    for out, _, _ in gate_stmts:
        ids[out] = len(ids)

    primary = set(input_names)
    declared = {out: g for g, (out, _, _) in enumerate(gate_stmts)}
    waiting = [0] * len(gate_stmts)
    readers: list[list[int]] = [[] for _ in gate_stmts]
    for g, (_, _, ins) in enumerate(gate_stmts):
        for i in ins:
            if i not in primary:
                waiting[g] += 1
                h = declared.get(i)
                if h is not None:
                    readers[h].append(g)
    passes = [1] * len(gate_stmts)
    placed = [g for g, w in enumerate(waiting) if not w]
    for h in placed:
        for g in readers[h]:
            passes[g] = max(passes[g], passes[h] + (h > g))
            waiting[g] -= 1
            if not waiting[g]:
                placed.append(g)
    if len(placed) < len(gate_stmts):
        out = gate_stmts[next(g for g, w in enumerate(waiting) if w)][0]
        raise BenchParseError(f"cyclic dependency involving '{out}'", (_lines or {}).get(out))
    ordered = [gate_stmts[g] for g in sorted(placed, key=lambda g: (passes[g], g))]

    gates = tuple(Gate(ids[out], kind, tuple(ids[i] for i in ins)) for out, kind, ins in ordered)
    return Circuit(
        name=name,
        signal_names=tuple(ids),
        inputs=tuple(ids[n] for n in input_names),
        outputs=tuple(ids[n] for n in output_names),
        gates=gates,
    )


def format_bench(circuit: Circuit) -> str:
    """Pretty-print a circuit back to bench text (round-trips structurally)."""
    names = circuit.signal_names
    lines = [f"INPUT({names[i]})" for i in circuit.inputs]
    lines += [f"OUTPUT({names[i]})" for i in circuit.outputs]
    for g in circuit.gates:
        args = ", ".join(names[i] for i in g.inputs)
        lines.append(f"{names[g.output]} = {g.kind}({args})")
    return "\n".join(lines) + "\n"


# Gate program opcodes: a one- or two-pin gate of kind GATE_KINDS[k] has
# opcode k, and a gate with three or more pins has opcode 8 + k.  In both
# ranges NAND, NOR and XNOR have the odd opcodes.
_OPCODES = {kind: op for op, kind in enumerate(GATE_KINDS)}


def _compile(gates: Sequence[Gate]) -> tuple[tuple[int, int, int, int, tuple[int, ...]], ...]:
    """One ``(out, op, a, b, ins)`` entry per gate, for :func:`_run`.

    ``a`` and ``b`` are the first and last pins (equal for one pin), and
    ``op`` is the kind's opcode, offset by 8 when the gate has more than
    two pins.
    """
    return tuple((out, _OPCODES[kind] + (8 if len(ins) > 2 else 0), ins[0], ins[-1], ins)
                 for out, kind, ins in gates)


def _run(program: Iterable[tuple[int, int, int, int, tuple[int, ...]]],
         words: list[int], mask: int) -> None:
    """Evaluate the gate-program entries in ``program`` in order,
    bit-parallel across patterns.

    ``words[s]`` holds signal ``s``; bit ``p`` is its value under pattern
    ``p``, and ``mask`` has one bit set per pattern.  Every input word must
    lie inside ``mask``.  Each entry's output word is overwritten from its
    input words, so entries must come in topological order, e.g. as a
    subsequence of a circuit's ``_program``.  This is the package's only
    gate-evaluation loop: :func:`evaluate` runs a whole program on one-bit
    words.  The dictionary builder runs it over a whole program for the
    fault-free words, one entry at a time to find where a fanout-free
    signal's flip propagates through its reader, and over the union of
    several stems' fanout cones at once with a mask of several P-bit
    slices, one per flipped stem; it cuts the union after each such stem's
    own driver gate to complement the stem's slice again.
    """
    for out, op, a, b, ins in program:
        if op < 2:
            w = words[a] & words[b]
            if op:
                w ^= mask
        elif op < 4:
            w = words[a] | words[b]
            if op == 3:
                w ^= mask
        elif op < 6:
            w = words[a] ^ words[b]
            if op == 5:
                w ^= mask
        elif op == 6:
            w = words[a] ^ mask
        elif op == 7:
            w = words[a]
        else:
            if op < 10:
                w = mask
                for i in ins:
                    w &= words[i]
            elif op < 12:
                w = 0
                for i in ins:
                    w |= words[i]
            else:
                w = 0
                for i in ins:
                    w ^= words[i]
            if op & 1:
                w ^= mask
        words[out] = w


def _check_pattern(circuit: Circuit, pattern: Sequence[int]) -> None:
    if len(pattern) != len(circuit.inputs):
        raise ValueError(
            f"pattern length {len(pattern)} does not match "
            f"{len(circuit.inputs)} circuit inputs")
    for b in pattern:
        if b not in (0, 1):
            raise ValueError(f"pattern bits must be 0 or 1, got {b!r}")


def evaluate(circuit: Circuit, pattern: Sequence[int]) -> Response:
    """Fault-free response of the circuit under one input pattern."""
    _check_pattern(circuit, pattern)
    words = [0] * circuit.signal_count
    for sid, bit in zip(circuit.inputs, pattern):
        words[sid] = bit
    _run(circuit._program, words, 1)
    return tuple(words[o] for o in circuit.outputs)
