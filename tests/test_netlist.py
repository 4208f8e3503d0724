import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AND_BENCH, random_small_circuit
from oracles import multipass_gate_order, recursive_truth_table_eval, structurally_equal
from testtrim.faultsim import exhaustive_patterns
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
        with pytest.raises(BenchParseError, match="undeclared"):
            parse_bench("INPUT(a)\nOUTPUT(zz)\n")

    def test_multiply_driven_by_two_gates(self):
        text = "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUF(a)\n"
        with pytest.raises(BenchParseError, match="multiply driven"):
            parse_bench(text)

    def test_multiply_driven_input_and_gate(self):
        text = "INPUT(a)\nINPUT(z)\nOUTPUT(z)\nz = NOT(a)\n"
        with pytest.raises(BenchParseError, match="multiply driven"):
            parse_bench(text)

    def test_duplicate_input(self):
        with pytest.raises(BenchParseError, match="multiply driven"):
            parse_bench("INPUT(a)\nINPUT(a)\nOUTPUT(a)\n")

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
