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
builder passes wider masks to simulate all patterns of a set at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
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
    of an earlier gate.
    """

    name: str
    signal_names: tuple[str, ...]
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    gates: tuple[Gate, ...]

    @property
    def signal_count(self) -> int:
        return len(self.signal_names)

    @cached_property
    def _id_by_name(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.signal_names)}

    def signal_id(self, name: str) -> int:
        return self._id_by_name[name]

    def structurally_equal(self, other: "Circuit") -> bool:
        """Name-level structural identity (ignores the interning order)."""
        def shape(c: Circuit):
            names = c.signal_names
            return (
                tuple(names[i] for i in c.inputs),
                tuple(names[i] for i in c.outputs),
                tuple((names[g.output], g.kind, tuple(names[i] for i in g.inputs)) for g in c.gates),
            )
        return shape(self) == shape(other)


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
                if sig in output_names:
                    raise BenchParseError(f"duplicate OUTPUT declaration for '{sig}'",
                                          line_no, raw.find(sig) + 1)
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
    stable topological sort (declaration order is kept among ready gates)
    and interns signals: inputs first, then gate outputs, in declaration
    order.
    """
    ids: dict[str, int] = {}
    for n in input_names:
        ids[n] = len(ids)
    for out, _, _ in gate_stmts:
        ids[out] = len(ids)

    defined = set(input_names)
    remaining = list(gate_stmts)
    ordered: list[tuple[str, str, Sequence[str]]] = []
    while remaining:
        progressed = False
        rest = []
        for stmt in remaining:
            out, kind, ins = stmt
            if all(i in defined for i in ins):
                ordered.append(stmt)
                defined.add(out)
                progressed = True
            else:
                rest.append(stmt)
        if not progressed:
            out = rest[0][0]
            line = (_lines or {}).get(out)
            raise BenchParseError(f"cyclic dependency involving '{out}'", line)
        remaining = rest

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


def _propagate(gates: Iterable[Gate], words: list[int], mask: int) -> None:
    """Evaluate ``gates`` in order, bit-parallel across patterns.

    ``words[s]`` holds signal ``s``; bit ``p`` is its value under pattern
    ``p``, and ``mask`` has one bit set per pattern.  Each gate's output word
    is overwritten from its input words, so ``gates`` must be in topological
    order.  This is the package's only gate-evaluation loop: fault-free
    evaluation passes every gate, and fault simulation pins the fault site's
    word and passes the gates that do not drive it (the dictionary builder
    passes only the site's fanout cone).
    """
    for out, kind, ins in gates:
        if kind == "AND":
            w = mask
            for i in ins:
                w &= words[i]
        elif kind == "NAND":
            w = mask
            for i in ins:
                w &= words[i]
            w ^= mask
        elif kind == "OR":
            w = 0
            for i in ins:
                w |= words[i]
        elif kind == "NOR":
            w = 0
            for i in ins:
                w |= words[i]
            w ^= mask
        elif kind == "XOR":
            w = 0
            for i in ins:
                w ^= words[i]
        elif kind == "XNOR":
            w = 0
            for i in ins:
                w ^= words[i]
            w ^= mask
        elif kind == "NOT":
            w = words[ins[0]] ^ mask
        else:  # BUF
            w = words[ins[0]]
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
    _propagate(circuit.gates, words, 1)
    return tuple(words[o] for o in circuit.outputs)


def evaluate_all_signals(circuit: Circuit, pattern: Sequence[int]) -> tuple[int, ...]:
    """Fault-free value of every signal (by id) under one pattern."""
    _check_pattern(circuit, pattern)
    words = [0] * circuit.signal_count
    for sid, bit in zip(circuit.inputs, pattern):
        words[sid] = bit
    _propagate(circuit.gates, words, 1)
    return tuple(words)
