import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AND_BENCH, random_small_circuit
from oracles import full_pass_fault_words, rewrite_fault_response
from testtrim.faultsim import (Fault, build_fault_dictionary, enumerate_faults,
                               exhaustive_patterns, random_patterns,
                               simulate_faulty, write_dictionary)
from testtrim.generator import random_circuit
from testtrim.netlist import evaluate, evaluate_all_signals, parse_bench

PATTERN_COUNTS = (1, 63, 64, 65, 1024)


def test_enumerate_and_circuit(and_circuit):
    faults = enumerate_faults(and_circuit)
    assert len(faults) == 6
    assert faults == [Fault(s, v) for s in range(3) for v in (0, 1)]


def test_enumerate_passthrough_circuit():
    circuit = parse_bench("INPUT(a)\nOUTPUT(a)\n")
    assert len(enumerate_faults(circuit)) == 2


def test_enumerate_fixture(sample6):
    faults = enumerate_faults(sample6)
    assert len(faults) == 22          # 2 x 11 signals
    assert len(set(faults)) == 22     # no duplicates
    assert faults == enumerate_faults(sample6)  # deterministic


def test_simulate_faulty_output_forced(and_circuit):
    z = and_circuit.signal_id("z")
    assert simulate_faulty(and_circuit, Fault(z, 1), (0, 0)) == (1,)


def test_simulate_faulty_unexcited_fault(and_circuit):
    a = and_circuit.signal_id("a")
    assert simulate_faulty(and_circuit, Fault(a, 1), (1, 1)) == (1,)
    assert simulate_faulty(and_circuit, Fault(a, 1), (1, 1)) == evaluate(and_circuit, (1, 1))


def test_simulate_faulty_unknown_signal(and_circuit):
    with pytest.raises(ValueError, match="unknown signal"):
        simulate_faulty(and_circuit, Fault(99, 0), (1, 1))


def test_simulate_faulty_matches_rewrite_oracle(sample6, sample6_text):
    patterns = exhaustive_patterns(len(sample6.inputs))
    for fault in enumerate_faults(sample6):
        for pattern in patterns:
            got = simulate_faulty(sample6, fault, pattern)
            want = rewrite_fault_response(sample6_text, sample6, fault, pattern)
            assert got == want, (fault, pattern)


def test_unexcited_fault_equals_fault_free_everywhere(sample6):
    # if the stuck value matches the fault-free signal value, nothing changes
    patterns = exhaustive_patterns(len(sample6.inputs))
    for pattern in patterns:
        signal_values = evaluate_all_signals(sample6, pattern)
        free = evaluate(sample6, pattern)
        for sid, value in enumerate(signal_values):
            assert simulate_faulty(sample6, Fault(sid, value), pattern) == free


def test_dictionary_dimensions(and_circuit):
    patterns = exhaustive_patterns(2)
    fdict = build_fault_dictionary(and_circuit, patterns)
    assert len(fdict.faults) == 6
    assert fdict.num_patterns == 4
    # complete: every (fault, pattern) entry is materializable
    for f in range(6):
        for p in range(4):
            assert fdict.response(f, p) in {(0,), (1,)}


def test_dictionary_rows_match_per_pair_simulation(sample6):
    patterns = exhaustive_patterns(len(sample6.inputs))
    fdict = build_fault_dictionary(sample6, patterns)
    assert fdict.fault_free == tuple(evaluate(sample6, p) for p in patterns)
    for fi, fault in enumerate(fdict.faults):
        row = fdict.response_row(fi)
        for p, pattern in enumerate(patterns):
            assert row[p] == simulate_faulty(sample6, fault, pattern)


def test_undetected_fault_rows_equal_fault_free(sample6):
    patterns = exhaustive_patterns(len(sample6.inputs))[:4]
    fdict = build_fault_dictionary(sample6, patterns)
    for fi in range(len(fdict.faults)):
        if fdict.mismatch_vs_free(fi) == 0:
            assert fdict.response_row(fi) == fdict.fault_free


def test_detectability_matches_brute_force(sample6, sample6_text):
    patterns = exhaustive_patterns(len(sample6.inputs))
    fdict = build_fault_dictionary(sample6, patterns)
    detected = set(fdict.detected_fault_indices())
    brute = set()
    for fi, fault in enumerate(fdict.faults):
        for pattern in patterns:
            if rewrite_fault_response(sample6_text, sample6, fault, pattern) != \
               evaluate(sample6, pattern):
                brute.add(fi)
                break
    assert detected == brute


def test_dictionary_rebuild_identical(sample6):
    patterns = random_patterns(len(sample6.inputs), 12, seed=3)
    a = build_fault_dictionary(sample6, patterns)
    b = build_fault_dictionary(sample6, patterns)
    assert a.fault_words == b.fault_words
    assert a.free_words == b.free_words


def test_dictionary_rejects_empty_pattern_list(and_circuit):
    with pytest.raises(ValueError, match="empty pattern list"):
        build_fault_dictionary(and_circuit, [])


def test_exhaustive_patterns():
    patterns = exhaustive_patterns(3)
    assert len(patterns) == 8
    assert len(set(patterns)) == 8
    assert patterns[0] == (0, 0, 0)
    assert patterns[5] == (1, 0, 1)  # code 5 = 0b101, input j carries bit j
    with pytest.raises(ValueError, match="12"):
        exhaustive_patterns(13)


def test_random_patterns_seeded_and_distinct():
    a = random_patterns(6, 20, seed=9)
    b = random_patterns(6, 20, seed=9)
    c = random_patterns(6, 20, seed=10)
    assert a == b
    assert a != c
    assert len(set(a)) == 20
    # budget capped at the exhaustive space
    assert len(random_patterns(3, 100, seed=1)) == 8


def test_dictionary_export_format(tmp_path, and_circuit):
    patterns = exhaustive_patterns(2)
    fdict = build_fault_dictionary(and_circuit, patterns, seed=42)
    path = tmp_path / "and2.dict"
    write_dictionary(fdict, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# circuit=and2 signals=3 faults=6 patterns=4 seed=42"
    assert len(lines) == 1 + 6 * 4
    # z stuck-at-1 under pattern 0 responds 1
    assert "z 1 0 1" in lines


def _random_pattern_list(circuit, count, rng):
    """``count`` seeded patterns, repeats allowed, so any width is reachable."""
    return [tuple(rng.getrandbits(1) for _ in circuit.inputs) for _ in range(count)]


def _assert_matches_full_pass(circuit, patterns):
    fdict = build_fault_dictionary(circuit, patterns)
    want_fault_words, want_free_words = full_pass_fault_words(circuit, patterns)
    assert fdict.free_words == want_free_words
    assert fdict.fault_words == want_fault_words


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       num_gates=st.integers(min_value=1, max_value=300),
       p_unread=st.sampled_from((0.5, 0.8)),
       num_patterns=st.sampled_from(PATTERN_COUNTS))
def test_dictionary_matches_full_pass_reference(seed, num_gates, p_unread, num_patterns):
    rng = random.Random(seed)
    circuit = random_circuit(f"r{seed}", rng, min_inputs=1, max_inputs=24,
                             min_gates=num_gates, max_gates=num_gates, p_unread=p_unread)
    _assert_matches_full_pass(circuit, _random_pattern_list(circuit, num_patterns, rng))


EDGE_BENCHES = {
    # a gate reading one signal on both pins, twice in a row
    "duplicate_inputs": "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(w)\n"
                        "y = AND(a, a)\nz = XOR(y, y)\nw = OR(y, b)\n",
    "input_is_output": "INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(z)\nz = NAND(a, b)\n",
    "output_also_read": "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n"
                        "y = NOR(a, b)\nz = XNOR(y, c)\n",
    "unread_input": "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\nz = AND(a, b)\n",
}


@pytest.mark.parametrize("num_patterns", PATTERN_COUNTS)
@pytest.mark.parametrize("name", sorted(EDGE_BENCHES))
def test_dictionary_matches_full_pass_on_edge_netlists(name, num_patterns):
    circuit = parse_bench(EDGE_BENCHES[name], name=name)
    patterns = _random_pattern_list(circuit, num_patterns, random.Random(num_patterns))
    _assert_matches_full_pass(circuit, patterns)
