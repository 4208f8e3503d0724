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

import functools
import itertools
import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, NoReturn, Sequence

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


# Gate._make without its Python-level length check
_new_gate = functools.partial(tuple.__new__, Gate)


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


_NAME = r"[A-Za-z0-9_]+"
# One well-formed line: blank, an INPUT or OUTPUT declaration, or a gate, then an
# optional comment.  Keywords are case-insensitive ASCII, like gate kinds.  Groups:
# INPUT, OUTPUT, declared signal, gate output, kind, first pin, second pin, more pins.
_LINE_RE = re.compile(
    rf"\s*(?:(?ai:(INPUT)|(OUTPUT))\s*\(\s*({_NAME})\s*\)"
    rf"|({_NAME})\s*=\s*({_NAME})\s*\(\s*({_NAME})"
    rf"(?:\s*,\s*({_NAME})((?:\s*,\s*{_NAME})*))?\s*\))?\s*(?:#.*)?")
_NAME_RE = re.compile(_NAME)
# the gate words read: each kind, and BUFF, the ISCAS-85 files' word for a buffer
_KIND_WORDS = {**{kind: kind for kind in GATE_KINDS}, "BUFF": "BUF"}
# the detailed checks that word the error for a line the grammar refuses
_ID_RE = re.compile(rf"{_NAME}\Z")
_GATE_RE = re.compile(rf"({_NAME})\s*=\s*({_NAME})\s*\(([^()]*)\)\Z")


def parse_bench(text: str, name: str = "circuit") -> Circuit:
    """Parse bench-style netlist text into a :class:`Circuit`.

    One compiled grammar recognises each well-formed line; for a line it
    refuses, the detailed checks word the error.  ``BUFF`` reads as
    ``BUF``.  Raises :class:`BenchParseError`, naming the line and column,
    for syntax errors, undeclared or multiply-driven signals, bad gate
    arities, unknown gate kinds, and cyclic dependencies.  Gate
    declaration order in the text is free; the returned circuit stores
    gates topologically sorted.
    """
    lines = text.splitlines()
    input_names: list[str] = []
    input_lines: list[int] = []
    output_names: list[str] = []
    output_lines: list[int] = []
    declared_outputs: set[str] = set()
    gate_stmts: list[tuple[str, str, tuple[str, ...]]] = []
    gate_lines: list[int] = []
    for line_no, raw in enumerate(lines, start=1):
        m = _LINE_RE.fullmatch(raw)
        if m is None:
            _refuse(raw, line_no)
        is_input, is_output, sig, out, kind, a, b, more = m.groups()
        if out is not None:
            kind = _KIND_WORDS.get(kind.upper())
            ins = (a,) if b is None else (a, b, *_NAME_RE.findall(more)) if more else (a, b)
            if kind is None or (kind in _UNARY_KINDS) != (b is None):
                _refuse(raw, line_no)
            gate_stmts.append((out, kind, ins))
            gate_lines.append(line_no)
        elif is_input:
            input_names.append(sig)
            input_lines.append(line_no)
        elif is_output:
            if sig in declared_outputs:
                raise BenchParseError(f"duplicate OUTPUT declaration for '{sig}'",
                                      line_no, _declared_col(raw, sig))
            declared_outputs.add(sig)
            output_names.append(sig)
            output_lines.append(line_no)

    # Driver bookkeeping: a signal is driven by INPUT or by exactly one gate.
    driven: set[str] = set()
    for n, line_no in zip(input_names, input_lines):
        if n in driven:
            raise BenchParseError(f"signal '{n}' multiply driven (duplicate INPUT)",
                                  line_no, _declared_col(lines[line_no - 1], n))
        driven.add(n)
    for (out, _, _), line_no in zip(gate_stmts, gate_lines):
        if out in driven:
            raise BenchParseError(f"signal '{out}' multiply driven",
                                  line_no, lines[line_no - 1].find(out) + 1)
        driven.add(out)
    for (out, _, ins), line_no in zip(gate_stmts, gate_lines):
        for a in ins:
            if a not in driven:
                raise BenchParseError(f"undeclared signal '{a}' used as input of '{out}'",
                                      line_no, lines[line_no - 1].rfind(a) + 1)
    for n, line_no in zip(output_names, output_lines):
        if n not in driven:
            raise BenchParseError(f"undeclared signal '{n}' used as OUTPUT",
                                  line_no, _declared_col(lines[line_no - 1], n))

    return build_circuit(name, input_names, output_names, gate_stmts, _lines=gate_lines)


def _declared_col(raw: str, sig: str) -> int:
    """The 1-based column of ``sig`` in its INPUT or OUTPUT line ``raw``."""
    return raw.index(sig, raw.index("(")) + 1


def _refuse(raw: str, line_no: int) -> NoReturn:
    """Raise the error for a line the grammar refuses, worded by the detailed
    checks: the kind, the pin list and the arity of a gate, else syntax."""
    code = raw.split("#", 1)[0].strip()
    col0 = raw.index(code[0]) + 1
    m = _GATE_RE.fullmatch(code)
    if m:
        kind, args = m.group(2), m.group(3)
        kind_u = kind.upper()
        if kind_u not in _KIND_WORDS:
            raise BenchParseError(f"unknown gate kind '{kind}'", line_no, raw.find(kind) + 1)
        in_names = tuple(map(str.strip, args.split(",")))
        if not all(map(_ID_RE.fullmatch, in_names)):
            raise BenchParseError(f"bad gate input list '{args.strip()}'",
                                  line_no, raw.find("(") + 2)
        if _KIND_WORDS[kind_u] in _UNARY_KINDS and len(in_names) != 1:
            raise BenchParseError(f"{kind_u} takes exactly 1 input, got {len(in_names)}",
                                  line_no, col0)
        if _KIND_WORDS[kind_u] not in _UNARY_KINDS and len(in_names) < 2:
            raise BenchParseError(f"{kind_u} takes at least 2 inputs, got {len(in_names)}",
                                  line_no, col0)
    raise BenchParseError(f"syntax error near '{code}'", line_no, col0)


def build_circuit(name: str,
                  input_names: Sequence[str],
                  output_names: Sequence[str],
                  gate_stmts: Sequence[tuple[str, str, Sequence[str]]],
                  _lines: Sequence[int] | None = None) -> Circuit:
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
    declaration order, at its line in ``_lines`` (one per statement) when
    given.  A pin that names no input or gate output is refused.
    """
    num_inputs = len(input_names)
    ids = {n: k for k, n in enumerate(itertools.chain(input_names,
                                                      (out for out, _, _ in gate_stmts)))}
    try:
        pins = [tuple(map(ids.__getitem__, ins)) for _, _, ins in gate_stmts]
    except KeyError:
        out, pin = next((out, i) for out, _, ins in gate_stmts for i in ins if i not in ids)
        raise BenchParseError(f"undeclared signal '{pin}' used as input of '{out}'") from None
    gate_ids: Sequence[int] = range(num_inputs, num_inputs + len(gate_stmts))
    kinds = list(map(operator.itemgetter(1), gate_stmts))
    # declared in order, each gate reads only lower ids than its own: one pass places all
    if not all(map(int.__lt__, map(max, pins), gate_ids)):
        order = _pass_order(num_inputs, pins, _lines, gate_stmts)
        gate_ids = [num_inputs + g for g in order]
        kinds = [kinds[g] for g in order]
        pins = [pins[g] for g in order]
    return Circuit(
        name=name,
        signal_names=tuple(ids),
        inputs=tuple(range(num_inputs)),
        outputs=tuple(map(ids.__getitem__, output_names)),
        gates=tuple(map(_new_gate, zip(gate_ids, kinds, pins))),
    )


def _pass_order(num_inputs: int, pins: list[tuple[int, ...]], lines: Sequence[int] | None,
                gate_stmts) -> list[int]:
    """Gate indices sorted by (pass, declaration index), for statements not
    declared in order (see :func:`build_circuit`)."""
    waiting = [0] * len(pins)
    readers: list[list[int]] = [[] for _ in pins]
    for g, gate_pins in enumerate(pins):
        for i in gate_pins:
            if i >= num_inputs:
                readers[i - num_inputs].append(g)
                waiting[g] += 1
    passes = [1] * len(pins)
    placed = [g for g, w in enumerate(waiting) if not w]
    for h in placed:
        for g in readers[h]:
            passes[g] = max(passes[g], passes[h] + (h > g))
            waiting[g] -= 1
            if not waiting[g]:
                placed.append(g)
    if len(placed) < len(pins):
        g = next(g for g, w in enumerate(waiting) if w)
        raise BenchParseError(f"cyclic dependency involving '{gate_stmts[g][0]}'",
                              lines[g] if lines else None)
    return sorted(range(len(pins)), key=passes.__getitem__)


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


def _check_patterns(circuit: Circuit, patterns: Sequence[Sequence[int]]) -> None:
    """Refuse the first of ``patterns`` that :func:`_check_pattern` refuses.
    The lengths and the bits are checked as two sets; only a pattern set
    that fails them is walked pattern by pattern, for the message."""
    try:
        if set(map(len, patterns)) <= {len(circuit.inputs)} and set().union(*patterns) <= {0, 1}:
            return
    except TypeError:  # a pattern without a length, or a bit that does not hash
        pass
    for pattern in patterns:
        _check_pattern(circuit, pattern)


def evaluate(circuit: Circuit, pattern: Sequence[int]) -> Response:
    """Fault-free response of the circuit under one input pattern."""
    _check_pattern(circuit, pattern)
    words = [0] * circuit.signal_count
    for sid, bit in zip(circuit.inputs, pattern):
        words[sid] = bit
    _run(circuit._program, words, 1)
    return tuple(words[o] for o in circuit.outputs)
