import dataclasses
import itertools
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import AND_BENCH, EDGE_BENCHES, random_pattern_list
from oracles import (full_pass_fault_words, pattern_bits, per_pattern_input_words,
                     read_dictionary_text, recursive_signal_values, rewrite_fault_response,
                     seeded_patterns_reference, union_cone_gate_count)
from testtrim import faultsim, netlist
from testtrim.diagnosis import trace_diagnosis
from testtrim.faultsim import (Fault, build_fault_dictionary, enumerate_faults,
                               exhaustive_patterns, random_patterns, write_dictionary)
from testtrim.generator import random_circuit
from testtrim.netlist import build_circuit, evaluate, parse_bench

PATTERN_COUNTS = (1, 63, 64, 65, 1024)


def test_enumerate_and_circuit(and_circuit):
    faults = enumerate_faults(and_circuit)
    assert len(faults) == 6
    assert faults == [Fault(s, v) for s in range(3) for v in (0, 1)]


def test_fault_prints_orders_and_hashes_as_its_fields():
    # error texts and the benchmark's failure messages print faults
    fault = Fault(3, 1)
    assert repr(fault) == str(fault) == "Fault(signal=3, stuck_value=1)"
    assert (fault.signal, fault.stuck_value) == (3, 1)
    assert (sorted([Fault(3, 1), Fault(1, 1), Fault(3, 0), Fault(1, 0)])
            == [Fault(1, 0), Fault(1, 1), Fault(3, 0), Fault(3, 1)])
    assert Fault(2, 1) < Fault(3, 0)
    # hashed as the tuple of its fields, so sets of faults keep their order
    assert hash(fault) == hash((3, 1)) == hash(Fault(3, 1))
    assert len({fault, Fault(3, 1), Fault(1, 3)}) == 2


def test_enumerate_passthrough_circuit():
    circuit = parse_bench("INPUT(a)\nOUTPUT(a)\n")
    assert len(enumerate_faults(circuit)) == 2


def test_enumerate_fixture(sample6):
    faults = enumerate_faults(sample6)
    assert len(faults) == 22          # 2 x 11 signals
    assert len(set(faults)) == 22     # no duplicates
    assert faults == enumerate_faults(sample6)  # deterministic


def test_unexcited_fault_equals_fault_free_everywhere(sample6):
    # if the stuck value matches the fault-free signal value, nothing changes
    patterns = exhaustive_patterns(len(sample6.inputs))
    fdict = build_fault_dictionary(sample6, patterns)
    names = sample6.signal_names
    for p, pattern in enumerate(patterns):
        values = recursive_signal_values(sample6, pattern)
        free = evaluate(sample6, pattern)
        for fi, fault in enumerate(fdict.faults):
            if values[names[fault.signal]] == fault.stuck_value:
                assert fdict.response(fi, p) == free, (fault, pattern)


def test_dictionary_dimensions(and_circuit):
    patterns = exhaustive_patterns(2)
    fdict = build_fault_dictionary(and_circuit, patterns)
    assert len(fdict.faults) == 6
    assert fdict.num_patterns == 4
    # complete: every (fault, pattern) entry is materializable
    for f in range(6):
        for p in range(4):
            assert fdict.response(f, p) in {(0,), (1,)}


def test_dictionary_rows_match_per_pair_simulation(sample6, sample6_text):
    patterns = exhaustive_patterns(len(sample6.inputs))
    fdict = build_fault_dictionary(sample6, patterns)
    for p, pattern in enumerate(patterns):
        assert tuple((w >> p) & 1 for w in fdict.free_words) == evaluate(sample6, pattern)
    for fi, fault in enumerate(fdict.faults):
        for p, pattern in enumerate(patterns):
            want = rewrite_fault_response(sample6_text, sample6, fault, pattern)
            assert fdict.response(fi, p) == want, (fault, pattern)


def test_simulate_faulty_matches_rewrite_oracle(sample6, sample6_text):
    # one pattern per dictionary: each faulty response is simulated on its own,
    # in a single-bit word, rather than as one lane of a packed batch
    patterns = exhaustive_patterns(len(sample6.inputs))
    for pattern in patterns:
        fdict = build_fault_dictionary(sample6, [pattern])
        for fi, fault in enumerate(fdict.faults):
            want = rewrite_fault_response(sample6_text, sample6, fault, pattern)
            assert fdict.response(fi, 0) == want, (fault, pattern)


def test_undetected_fault_rows_equal_fault_free(sample6):
    patterns = exhaustive_patterns(len(sample6.inputs))[:4]
    fdict = build_fault_dictionary(sample6, patterns)
    undetected = [fi for fi, m in enumerate(fdict.fault_masks) if not m]
    assert undetected
    for fi in undetected:
        assert fdict.fault_words[fi] == fdict.free_words


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
    assert tuple(a.fault_words) == tuple(b.fault_words)
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


@pytest.mark.parametrize("num_inputs", (62, 63, 64, 100))
def test_random_patterns_on_wide_inputs(num_inputs):
    # from 2**63 codes on, range(2**num_inputs) has no C length
    patterns = random_patterns(num_inputs, 40, seed=5)
    assert patterns == random_patterns(num_inputs, 40, seed=5)
    assert patterns != random_patterns(num_inputs, 40, seed=6)
    assert len(set(patterns)) == 40
    assert all(len(p) == num_inputs and set(p) <= {0, 1} for p in patterns)
    # the high inputs are drawn too, not left at 0
    assert any(p[-1] for p in patterns)


@pytest.mark.parametrize("num_inputs", (1, 12, 24, 62, 63, 64, 100))
def test_pattern_bits_and_input_words_match_per_bit_reference(num_inputs):
    patterns = random_patterns(num_inputs, 1024, seed=num_inputs)
    assert patterns == seeded_patterns_reference(num_inputs, 1024, num_inputs)
    if num_inputs <= faultsim.EXHAUSTIVE_INPUT_LIMIT:
        assert exhaustive_patterns(num_inputs) == [pattern_bits(code, num_inputs)
                                                   for code in range(1 << num_inputs)]
    # every input is an output, so the fault-free row is the packed input words
    names = [f"x{j}" for j in range(num_inputs)]
    fdict = build_fault_dictionary(build_circuit("wires", names, names, []), patterns)
    assert list(fdict.free_words) == per_pattern_input_words(patterns, num_inputs)


@pytest.mark.parametrize("bad, message", [
    ((0, 1, 1), "pattern length 3 does not match 2 circuit inputs"),
    ((1,), "pattern length 1 does not match 2 circuit inputs"),
    ((0, 2), "pattern bits must be 0 or 1, got 2"),
    ((-1, 0), "pattern bits must be 0 or 1, got -1"),
])
def test_bad_pattern_refused_with_its_message(and_circuit, bad, message):
    for patterns in ([bad], [(0, 0), (1, 1), bad, (0, 1)]):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_fault_dictionary(and_circuit, patterns)


def test_dictionary_export_format(tmp_path, and_circuit):
    patterns = exhaustive_patterns(2)  # (a, b) = 00, 10, 01, 11: z = a & b is 0b1000
    fdict = build_fault_dictionary(and_circuit, patterns)
    path = tmp_path / "and2.dict"
    write_dictionary(fdict, path)
    assert path.read_text().splitlines() == [
        "# circuit=and2 signals=3 faults=6 patterns=4",
        "a 0 0", "a 1 c",   # a stuck-at-1: z = b
        "b 0 0", "b 1 a",   # b stuck-at-1: z = a
        "z 0 0", "z 1 f",
    ]


def _assert_export_round_trips(fdict, tmp_path):
    """The export read back gives the header and, fault by fault in
    enumeration order, the reference words of every output."""
    path = tmp_path / "export.dict"
    write_dictionary(fdict, path)
    text = path.read_text()
    assert not any(line.endswith(" ") for line in text.splitlines())
    header, rows = read_dictionary_text(text)
    circuit = fdict.circuit
    assert header == (f"# circuit={circuit.name} signals={circuit.signal_count} "
                      f"faults={2 * circuit.signal_count} patterns={len(fdict.patterns)}")
    want_words, _ = full_pass_fault_words(circuit, fdict.patterns)
    names = circuit.signal_names
    assert rows == [(names[f.signal], f.stuck_value, words)
                    for f, words in zip(enumerate_faults(circuit), want_words)]


@pytest.mark.parametrize("num_patterns", (1, 63, 64, 65, 208))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_dictionary_export_matches_bitwise_reference(tmp_path, seed, num_patterns):
    rng = random.Random(seed)
    circuit = random_circuit(f"r{seed}", rng, min_inputs=3, max_inputs=10,
                             min_gates=10, max_gates=60, p_unread=0.5)
    patterns = random_pattern_list(circuit, num_patterns, rng)
    _assert_export_round_trips(build_fault_dictionary(circuit, patterns), tmp_path)


def test_dictionary_export_streams_its_lines(tmp_path):
    # 100 outputs x 1024 patterns: 220 lines of about 23 KB each, a 5 MB file
    inputs = [f"x{i}" for i in range(10)]
    gates = [(f"g{j}", "XOR", (inputs[j % 10], inputs[(j + 1 + j // 10 % 9) % 10]))
             for j in range(100)]
    circuit = build_circuit("wide", inputs, [g for g, _, _ in gates], gates)
    fdict = build_fault_dictionary(circuit, exhaustive_patterns(10))
    path = tmp_path / "wide.dict"
    tracemalloc.start()
    try:
        write_dictionary(fdict, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4_000_000
    # a writer that holds every line, or one joined string, peaks above the file's size
    assert peak < size // 20, (peak, size)


@pytest.mark.parametrize("bench", (AND_BENCH, "INPUT(a)\nINPUT(b)\nz = AND(a, b)\n"),
                         ids=("and2", "no_outputs"))
def test_dictionary_export_matches_bitwise_reference_small(tmp_path, bench):
    circuit = parse_bench(bench, name="small")
    _assert_export_round_trips(build_fault_dictionary(circuit, exhaustive_patterns(2)),
                               tmp_path)


def _assert_matches_full_pass(circuit, patterns):
    fdict = build_fault_dictionary(circuit, patterns)
    want_fault_words, want_free_words = full_pass_fault_words(circuit, patterns)
    assert fdict.free_words == want_free_words
    assert tuple(fdict.fault_words) == want_fault_words
    for row, fault_mask in zip(want_fault_words, fdict.fault_masks):
        want_mask = 0
        for w, w0 in zip(row, want_free_words):
            want_mask |= w ^ w0
        assert fault_mask == want_mask


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       num_gates=st.integers(min_value=1, max_value=300),
       p_unread=st.sampled_from((0.5, 0.8)),
       num_patterns=st.sampled_from(PATTERN_COUNTS),
       stems_per_batch=st.sampled_from((None, 1, 2, 3, 1000)))
def test_dictionary_matches_full_pass_reference(seed, num_gates, p_unread, num_patterns,
                                                stems_per_batch):
    # stems_per_batch None keeps the module's budget; 1000 puts every stem in one batch
    rng = random.Random(seed)
    circuit = random_circuit(f"r{seed}", rng, min_inputs=1, max_inputs=24,
                             min_gates=num_gates, max_gates=num_gates, p_unread=p_unread)
    patterns = random_pattern_list(circuit, num_patterns, rng)
    budget = stems_per_batch * num_patterns if stems_per_batch else faultsim._BATCH_BITS
    with mock.patch.object(faultsim, "_BATCH_BITS", budget):
        _assert_matches_full_pass(circuit, patterns)


@pytest.mark.parametrize("num_patterns", (1, 64, 208, 1024))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_batch_budget_changes_no_result(seed, num_patterns):
    # the budget sets only how many stems share a propagation word
    rng = random.Random(f"budget:{seed}")
    circuit = random_circuit(f"b{seed}", rng, min_inputs=4, max_inputs=24,
                             min_gates=100, max_gates=300, p_unread=0.5)
    patterns = random_pattern_list(circuit, num_patterns, rng)
    results, batches = [], []
    for budget in (1024, 7168, 8192):
        with mock.patch.object(faultsim, "_BATCH_BITS", budget):
            fdict = build_fault_dictionary(circuit, patterns)
        detected = fdict.detected_fault_indices()
        injected = detected[::max(1, len(detected) // 12)]
        results.append((tuple(fdict.fault_words), fdict.fault_masks,
                        [fdict.elimination_indices(f) for f in injected],
                        [trace_diagnosis(fdict, fdict.faults[f]) for f in injected]))
        batches.append(len(fdict.batch_diffs))
    assert results[0][3]
    assert results[0] == results[1] == results[2]
    if num_patterns == 1024:  # one stem per word at 1024 bits, 7 and 8 at the others
        assert batches[0] > batches[2]


def test_replaced_rows_are_the_rows_read(sample6):
    fdict = build_fault_dictionary(sample6, exhaustive_patterns(len(sample6.inputs)))
    full = (1 << fdict.num_patterns) - 1
    inverted = tuple(tuple(w ^ full for w in row) for row in fdict.fault_words)
    replaced = dataclasses.replace(fdict, fault_words=inverted)
    assert replaced.fault_words == inverted != tuple(fdict.fault_words)
    for fi in range(len(fdict.faults)):
        for p in range(fdict.num_patterns):
            want = tuple(1 - b for b in fdict.response(fi, p))
            assert replaced.response(fi, p) == want


@pytest.mark.parametrize("num_patterns", PATTERN_COUNTS)
@pytest.mark.parametrize("name", sorted(EDGE_BENCHES))
def test_dictionary_matches_full_pass_on_edge_netlists(name, num_patterns):
    circuit = parse_bench(EDGE_BENCHES[name], name=name)
    patterns = random_pattern_list(circuit, num_patterns, random.Random(num_patterns))
    _assert_matches_full_pass(circuit, patterns)


@pytest.mark.parametrize("num_patterns", (1, 7, 65))
@pytest.mark.parametrize("seed", (0, 1))
def test_elimination_indices_match_full_pass_rows(seed, num_patterns):
    # every fault injected, undetected ones too: their row is the fault-free row
    rng = random.Random(seed)
    circuit = random_circuit(f"r{seed}", rng, min_inputs=3, max_inputs=8,
                             min_gates=20, max_gates=40, p_unread=0.5)
    patterns = random_pattern_list(circuit, num_patterns, rng)
    rows, _ = full_pass_fault_words(circuit, patterns)
    with mock.patch.object(faultsim, "_BATCH_BITS", 3 * num_patterns):
        fdict = build_fault_dictionary(circuit, patterns)
    assert not all(fdict.fault_masks) and len(fdict.batch_diffs) > 1
    for injected, inj_row in enumerate(rows):
        want = []
        for row in rows:
            diff = 0
            for w, v in zip(row, inj_row):
                diff |= w ^ v
            want.append((diff & -diff).bit_length() - 1 if diff else num_patterns)
        assert fdict.elimination_indices(injected) == want, injected


def _stems_in_topological_order(circuit, patterns):
    """The fault-free words, ``reach`` and ``stem_of`` of a build, and its
    stems in topological order."""
    mask = (1 << len(patterns)) - 1
    free = [0] * circuit.signal_count
    for sid, w in zip(circuit.inputs, per_pattern_input_words(patterns, len(circuit.inputs))):
        free[sid] = w
    netlist._run(circuit._program, free, mask)
    reach, stem_of, _ = faultsim._fanout_free_regions(circuit, free, mask)
    stems = [s for s in itertools.chain(circuit.inputs, (g.output for g in circuit.gates))
             if stem_of[s] == s]
    return free, reach, stem_of, stems


def _per_stem_flips(batch_diffs, stem_slots, obs, num_patterns):
    """Per flipped stem, its nonzero diff word at each output and its ``obs``,
    cut from the batch words by the layout ``FaultDictionary`` documents."""
    full = (1 << num_patterns) - 1
    flips = {}
    for s, slot in enumerate(stem_slots):
        if slot is not None:
            batch, offset = slot
            diffs = {j: (w >> (offset - low)) & full
                     for j, low, w in batch_diffs[batch] if offset >= low}
            flips[s] = ({j: d for j, d in diffs.items() if d}, obs[s])
    return flips


@pytest.mark.parametrize("num_patterns", (64, 208, 1024))
@pytest.mark.parametrize("seed, num_gates", ((0, 100), (1, 300), (2, 1000)))
def test_fanout_tree_batches_change_no_result(seed, num_gates, num_patterns):
    rng = random.Random(f"tree:{seed}")
    circuit = random_circuit(f"t{seed}", rng, min_inputs=24, max_inputs=24,
                             min_gates=num_gates, max_gates=num_gates, p_unread=0.5)
    patterns = random_pattern_list(circuit, num_patterns, rng)
    free, reach, stem_of, stems = _stems_in_topological_order(circuit, patterns)
    tree = faultsim._fanout_tree_order(circuit, reach, stem_of, stems, num_patterns)
    per_batch = min(faultsim._BATCH_BITS // num_patterns, len(stems))
    several = len(stems) > per_batch
    assert sorted(tree) == sorted(stems) and (tree != stems if several else tree is stems)
    flips = [_per_stem_flips(*faultsim._flip_stems(circuit, free, reach, order, num_patterns),
                             num_patterns) for order in (stems, tree)]
    assert flips[0] == flips[1] and len(flips[0]) == len(stems)

    fdict = build_fault_dictionary(circuit, patterns)
    with mock.patch.object(faultsim, "_fanout_tree_order", lambda c, r, s, stems, p: stems):
        topo = build_fault_dictionary(circuit, patterns)
    assert len(fdict.batch_diffs) == len(topo.batch_diffs) == -(-len(stems) // per_batch)
    if num_gates <= 300:   # the full-pass reference re-simulates every gate per fault
        assert tuple(fdict.fault_words) == full_pass_fault_words(circuit, patterns)[0]
    assert tuple(fdict.fault_words) == tuple(topo.fault_words)
    assert fdict.fault_masks == topo.fault_masks
    detected = fdict.detected_fault_indices()
    for f in [0, *detected[::max(1, len(detected) // 20)]]:
        assert fdict.elimination_indices(f) == topo.elimination_indices(f), f


def test_fanout_tree_batches_evaluate_fewer_gates():
    # the corpus-scale netlists' shape: 1000 gates, 24 inputs, p_unread 0.5, 1024 patterns
    rng = random.Random("tree-guard")
    circuit = random_circuit("guard", rng, min_inputs=24, max_inputs=24, min_gates=1000,
                             max_gates=1000, p_unread=0.5)
    patterns = random_pattern_list(circuit, 1024, rng)
    free, reach, stem_of, stems = _stems_in_topological_order(circuit, patterns)
    tree = faultsim._fanout_tree_order(circuit, reach, stem_of, stems, 1024)
    topo_gates, tree_gates = (
        union_cone_gate_count(faultsim._flip_stems(circuit, free, reach, order, 1024)[1], reach)
        for order in (stems, tree))
    assert tree_gates <= 0.9 * topo_gates, (tree_gates, topo_gates)


def test_one_batch_keeps_the_topological_order(sample6):
    patterns = exhaustive_patterns(len(sample6.inputs))
    _, reach, stem_of, stems = _stems_in_topological_order(sample6, patterns)
    assert faultsim._fanout_tree_order(sample6, reach, stem_of, stems, len(patterns)) is stems
