import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AND_BENCH, random_small_circuit
from oracles import (multipass_gate_order, recursive_truth_table_eval, reference_parse_bench,
                     structurally_equal)
from testtrim.faultsim import exhaustive_patterns
from testtrim.generator import random_circuit
from testtrim.netlist import BenchParseError, build_circuit, evaluate, format_bench, parse_bench


def test_parse_smallest_legal_netlist(and_circuit):
    assert len(and_circuit.inputs) == 2
    assert len(and_circuit.outputs) == 1
    assert len(and_circuit.gates) == 1
    assert and_circuit.gates[0].kind == "AND"
    assert and_circuit.signal_count == 3


def test_self_loop_is_cyclic_error():
    text = "INPUT(a)\nOUTPUT(z)\nz = AND(a, z)\n"
    with pytest.raises(BenchParseError, match="cyclic"):
        parse_bench(text)


def test_fixture_signal_count(sample6):
    # hand count: inputs a,b,c,d,e (5) + gate outputs g1..g4,p,q (6) = 11
    assert sample6.signal_count == 11
    assert len(sample6.inputs) == 5
    assert len(sample6.gates) == 6
    assert len(sample6.outputs) == 2


def test_and_truth_table(and_circuit):
    assert evaluate(and_circuit, (1, 1)) == (1,)
    assert evaluate(and_circuit, (1, 0)) == (0,)
    assert evaluate(and_circuit, (0, 1)) == (0,)
    assert evaluate(and_circuit, (0, 0)) == (0,)


def test_fixture_matches_truth_table_oracle(sample6):
    for pattern in exhaustive_patterns(len(sample6.inputs)):
        assert evaluate(sample6, pattern) == recursive_truth_table_eval(sample6, pattern)


def test_evaluate_is_pure(sample6):
    pattern = (1, 0, 1, 1, 0)
    assert evaluate(sample6, pattern) == evaluate(sample6, pattern)


def test_evaluate_length_mismatch(and_circuit):
    with pytest.raises(ValueError, match="length"):
        evaluate(and_circuit, (1, 1, 0))
    with pytest.raises(ValueError):
        evaluate(and_circuit, (1,))


def test_evaluate_rejects_non_bits(and_circuit):
    with pytest.raises(ValueError):
        evaluate(and_circuit, (1, 2))


def test_roundtrip_fixture(sample6):
    again = parse_bench(format_bench(sample6), name=sample6.name)
    assert structurally_equal(sample6, again)
    assert structurally_equal(again, sample6)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_roundtrip_random_circuits(seed):
    circuit = random_small_circuit(seed)
    again = parse_bench(format_bench(circuit), name=circuit.name)
    assert structurally_equal(circuit, again)


def test_gates_topologically_sorted_even_when_declared_backwards():
    text = (
        "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n"
        "z = AND(y, a)\n"
        "y = NOT(w)\n"
        "w = AND(a, b)\n"
    )
    circuit = parse_bench(text)
    defined = set(circuit.inputs)
    for gate in circuit.gates:
        assert all(i in defined for i in gate.inputs)
        defined.add(gate.output)
    # z = a AND NOT(a AND b)
    assert evaluate(circuit, (1, 1)) == (0,)
    assert evaluate(circuit, (1, 0)) == (1,)
    assert evaluate(circuit, (0, 0)) == (0,)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_topological_order_property_random(seed):
    circuit = random_small_circuit(seed)
    defined = set(circuit.inputs)
    for gate in circuit.gates:
        assert all(i in defined for i in gate.inputs)
        defined.add(gate.output)


def test_all_gate_kinds_evaluate():
    text = (
        "INPUT(a)\nINPUT(b)\nINPUT(c)\n"
        + "".join(f"OUTPUT(o{j})\n" for j in range(1, 15))
        + "o1 = AND(a, b)\no2 = NAND(a, b)\no3 = OR(a, b)\no4 = NOR(a, b)\n"
        "o5 = XOR(a, b)\no6 = XNOR(a, b)\no7 = NOT(a)\no8 = BUF(a)\n"
        "o9 = AND(a, b, c)\no10 = NAND(a, b, c)\no11 = OR(a, b, c)\no12 = NOR(a, b, c)\n"
        "o13 = XOR(a, b, c)\no14 = XNOR(a, b, c)\n"
    )
    circuit = parse_bench(text)
    for a, b, c in itertools.product((0, 1), repeat=3):
        got = evaluate(circuit, (a, b, c))
        want = (a & b, 1 - (a & b), a | b, 1 - (a | b),
                a ^ b, 1 - (a ^ b), 1 - a, a,
                a & b & c, 1 - (a & b & c), a | b | c, 1 - (a | b | c),
                a ^ b ^ c, 1 - (a ^ b ^ c))
        assert got == want


def _statements(circuit):
    names = circuit.signal_names
    return ([names[i] for i in circuit.inputs], [names[o] for o in circuit.outputs],
            [(names[g.output], g.kind, tuple(names[i] for i in g.inputs))
             for g in circuit.gates])


def test_gate_order_and_cycle_errors_match_multipass_reference():
    # shuffled declaration orders; every other circuit has one pin rewired to a
    # random gate output, which closes a cycle when that gate reads the pin's gate
    cycles = 0
    for seed in range(300):
        rng = random.Random(seed)
        inputs, outputs, stmts = _statements(random_small_circuit(seed, max_gates=30))
        rng.shuffle(stmts)
        if seed % 2:
            g = rng.randrange(len(stmts))
            out, kind, ins = stmts[g]
            pins = list(ins)
            pins[rng.randrange(len(pins))] = rng.choice(stmts)[0]
            stmts[g] = (out, kind, tuple(pins))
        try:
            want = multipass_gate_order(inputs, stmts)
        except ValueError as exc:
            cycles += 1
            with pytest.raises(BenchParseError) as got:
                build_circuit("c", inputs, outputs, stmts)
            assert str(got.value) == str(exc)
            continue
        assert _statements(build_circuit("c", inputs, outputs, stmts))[2] == want
    assert 30 < cycles < 150


def test_build_circuit_refuses_an_undeclared_pin():
    with pytest.raises(BenchParseError) as exc:
        build_circuit("c", ["a"], ["z"], [("y", "NOT", ("a",)), ("z", "AND", ("y", "w"))])
    assert str(exc.value) == "undeclared signal 'w' used as input of 'z'"


def test_chain_declared_outputs_first_parses_in_gate_order():
    n = 3000
    text = ("INPUT(a)\nOUTPUT(g3000)\n"
            + "".join(f"g{i} = NOT(g{i - 1})\n" for i in range(n, 1, -1)) + "g1 = NOT(a)\n")
    circuit = parse_bench(text)
    assert [circuit.signal_names[g.output] for g in circuit.gates] == \
        [f"g{i}" for i in range(1, n + 1)]
    assert evaluate(circuit, (1,)) == (1,)


def test_evaluate_all_signals(sample6_text):
    # every gate output declared an output, so evaluate reports its value
    internal = "".join(f"OUTPUT({n})\n" for n in ("g1", "g2", "g3", "g4"))
    circuit = parse_bench(sample6_text + internal)
    pattern = (1, 1, 0, 0, 1)
    by_name = {circuit.signal_names[o]: v
               for o, v in zip(circuit.outputs, evaluate(circuit, pattern))}
    assert by_name["g1"] == 1      # AND(1, 1)
    assert by_name["g2"] == 1      # NOR(0, 0)
    assert by_name["g3"] == 0      # XOR(1, 1)
    assert by_name["g4"] == 1      # NAND(g3, 1)
    assert by_name["p"] == 1       # OR(g4, g2)
    assert by_name["q"] == 1       # NOT(g3)


class TestParseErrors:
    def test_syntax_error_reports_line_and_col(self):
        with pytest.raises(BenchParseError) as exc:
            parse_bench("INPUT(a)\n???\n")
        assert exc.value.line == 2
        assert exc.value.col is not None
        assert "line 2" in str(exc.value)

    def test_unclosed_paren(self):
        with pytest.raises(BenchParseError, match="syntax"):
            parse_bench("INPUT(a)\nOUTPUT(z)\nz = AND(a, a\n")

    def test_unknown_gate_kind(self):
        with pytest.raises(BenchParseError, match="unknown gate kind 'MAJ'"):
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = MAJ(a, b)\n")

    def test_undeclared_signal(self):
        with pytest.raises(BenchParseError, match="undeclared signal 'w'"):
            parse_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(w)\n")

    def test_undeclared_output(self):
        # named at the OUTPUT line, at the signal's column, like every other refusal
        with pytest.raises(BenchParseError, match="undeclared") as exc:
            parse_bench("INPUT(a)\nOUTPUT(a)\n output ( zz )\n")
        assert (exc.value.line, exc.value.col) == (3, 11)
        assert str(exc.value) == "line 3, col 11: undeclared signal 'zz' used as OUTPUT"

    def test_multiply_driven_by_two_gates(self):
        text = "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUF(a)\n"
        with pytest.raises(BenchParseError, match="multiply driven"):
            parse_bench(text)

    def test_multiply_driven_input_and_gate(self):
        text = "INPUT(a)\nINPUT(z)\nOUTPUT(z)\nz = NOT(a)\n"
        with pytest.raises(BenchParseError, match="multiply driven"):
            parse_bench(text)

    def test_duplicate_input(self):
        # named at the repeated INPUT line, at the signal's column
        with pytest.raises(BenchParseError, match="multiply driven") as exc:
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(a)\n\tINPUT(  a)\nINPUT(a)\n")
        assert (exc.value.line, exc.value.col) == (4, 10)
        assert str(exc.value) == "line 4, col 10: signal 'a' multiply driven (duplicate INPUT)"

    def test_duplicate_output(self):
        with pytest.raises(BenchParseError, match="duplicate OUTPUT"):
            parse_bench("INPUT(a)\nOUTPUT(a)\nOUTPUT(a)\n")

    def test_duplicate_output_names_its_line_and_column(self):
        # the repeat is found among many outputs, at its own line and column
        names = [f"o{i}" for i in range(5000)]
        text = "".join(f"INPUT({n})\nOUTPUT({n})\n" for n in names) + "  OUTPUT( o4321 )\n"
        with pytest.raises(BenchParseError) as exc:
            parse_bench(text)
        assert (exc.value.line, exc.value.col) == (10001, 11)
        assert str(exc.value) == "line 10001, col 11: duplicate OUTPUT declaration for 'o4321'"

    def test_not_arity(self):
        with pytest.raises(BenchParseError, match="NOT takes exactly 1"):
            parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NOT(a, b)\n")

    def test_binary_gate_arity(self):
        with pytest.raises(BenchParseError, match="at least 2"):
            parse_bench("INPUT(a)\nOUTPUT(z)\nz = AND(a)\n")

    def test_long_cycle(self):
        text = (
            "INPUT(a)\nOUTPUT(z)\n"
            "u = AND(a, w)\n"
            "w = NOT(u)\n"
            "z = BUF(u)\n"
        )
        with pytest.raises(BenchParseError, match="cyclic"):
            parse_bench(text)


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nINPUT(a)  # trailing\n\nOUTPUT(a)\n# done\n"
    circuit = parse_bench(text)
    assert circuit.signal_count == 1
    assert evaluate(circuit, (1,)) == (1,)


def test_case_insensitive_keywords_and_kinds():
    text = "input(a)\ninput(b)\noutput(z)\nz = nand(a, b)\n"
    circuit = parse_bench(text)
    assert circuit.gates[0].kind == "NAND"
    assert evaluate(circuit, (1, 1)) == (0,)


def test_buff_reads_as_buf():
    # the circulated ISCAS-85 files write a buffer as BUFF
    circuit = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(y)\n"
                          "y = buff(a)\nz = AND(y, b)\nw = BUFF ( b )\n")
    assert [g.kind for g in circuit.gates] == ["BUF", "AND", "BUF"]
    assert format_bench(circuit).count("BUF(") == 2 and "BUFF" not in format_bench(circuit)
    for pattern in exhaustive_patterns(2):
        assert evaluate(circuit, pattern) == (pattern[0] & pattern[1], pattern[0])
    with pytest.raises(BenchParseError) as exc:
        parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = BUFF(a, b)\n")
    assert str(exc.value) == "line 4, col 1: BUFF takes exactly 1 input, got 2"


def _assert_parses_as_reference(text: str) -> bool:
    """parse_bench gives the reference parser's circuit, or its error with the
    same text, line and column.  True where the text parses."""
    try:
        want = reference_parse_bench(text, name="c")
    except BenchParseError as exc:
        with pytest.raises(BenchParseError) as got:
            parse_bench(text, name="c")
        assert (str(got.value), got.value.line, got.value.col) == (str(exc), exc.line, exc.col)
        return False
    got = parse_bench(text, name="c")
    assert structurally_equal(got, want)
    assert got.signal_names == want.signal_names
    return True


# a line cut into alternating separators and tokens: tokens at the odd positions
_PIECES_RE = re.compile(r"([A-Za-z0-9_]+|[^\sA-Za-z0-9_])")
_SPACES = (" ", "  ", "\t", "\u00a0", "\u2003", "\u3000", "\x1f")
# replacement tokens: keywords and kinds in other cases, unknown and non-ASCII
# look-alikes (dotless i, Kelvin sign), punctuation and names
_WORDS = ("INPUT", "input", "Output", "OUTPUT", "\u0131nput", "\u0130NPUT", "AND", "nand", "Or",
          "NOR", "xor", "XNOR", "NOT", "BUF", "BUFF", "buff", "MAJ", "DFF", "(", ")", ",", "=",
          "#", "a", "x1", "g2", "\u212a", "\u00e9")


def _mutate(lines: list[str], data) -> list[str]:
    """One edit of a netlist's lines, drawn from ``data``."""
    op = data.draw(st.sampled_from(("drop", "repeat", "replace", "space", "comment", "blank",
                                    "case", "move", "widen", "repeat line")))
    if not lines:
        return [data.draw(st.sampled_from(_WORDS))]
    i = data.draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    pieces = _PIECES_RE.split(line)
    tokens = range(1, len(pieces), 2)
    if op in ("drop", "repeat", "replace") and tokens:
        t = data.draw(st.sampled_from(tokens))
        if op == "drop":
            pieces[t] = ""
        elif op == "repeat":
            pieces[t] += data.draw(st.sampled_from(("", *_SPACES))) + pieces[t]
        else:
            pieces[t] = data.draw(st.sampled_from(_WORDS))
    elif op == "space":
        t = data.draw(st.integers(0, len(pieces) - 1).filter(lambda k: k % 2 == 0))
        pieces[t] += data.draw(st.sampled_from(_SPACES))
    elif op == "comment":
        pieces.append(data.draw(st.sampled_from(("#", " # z = AND(a, b)", "\t#(", "#\u00e9"))))
    elif op == "case":
        pieces = [data.draw(st.sampled_from((line.lower(), line.upper(), line.swapcase())))]
    elif op == "widen" and "(" in line and "=" in line:
        extra = data.draw(st.lists(st.sampled_from(("a", "x1", "x2", "g1", "g3")), min_size=1,
                                   max_size=3))
        pieces = [line.replace(")", "".join(f", {n}" for n in extra) + ")", 1)]
    new = "".join(pieces)
    if op == "blank":
        return lines[:i] + [data.draw(st.sampled_from(("", "  ", "\t", "\u00a0")))] + lines[i:]
    if op == "move":
        rest = lines[:i] + lines[i + 1:]
        k = data.draw(st.integers(0, len(rest)))
        return rest[:k] + [line] + rest[k:]
    if op == "repeat line":
        return lines[:i + 1] + [line] + lines[i + 1:]
    return lines[:i] + [new] + lines[i + 1:]


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_parser_matches_reference_on_mutated_netlists(seed, data):
    lines = format_bench(random_small_circuit(seed)).splitlines()
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        lines = _mutate(lines, data)
    end = data.draw(st.sampled_from(("\n", "\r\n", "\r")))
    _assert_parses_as_reference(end.join(lines) + data.draw(st.sampled_from(("", end))))


@pytest.mark.parametrize("gates", (1000, 3000))
def test_parser_matches_reference_at_scale(gates):
    # written as the corpus-scale benchmark writes its netlists
    rng = random.Random(f"parse-scale:{gates}")
    circuit = random_circuit(f"g{gates}", rng, min_inputs=24, max_inputs=24,
                             min_gates=gates, max_gates=gates, p_unread=0.5)
    text = format_bench(circuit)
    assert _assert_parses_as_reference(text)
    assert structurally_equal(parse_bench(text), circuit)
