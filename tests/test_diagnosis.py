import bisect
import random
from dataclasses import fields, replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EDGE_BENCHES, random_pattern_list, random_small_circuit
from oracles import (bit_pattern_dictionary, first_difference_indices, full_pass_fault_words,
                     numeric_order_patterns, oracle_candidate_sets, prefix_replay_candidate_sets)
from testtrim import faultsim
from testtrim.dataset import dataset_from_traces
from testtrim.diagnosis import (TRACE_HEADER, DiagnosisTrace, UndiagnosableFaultError,
                                read_traces, trace_diagnosis, write_traces)
from testtrim.faultsim import (Fault, build_fault_dictionary, enumerate_faults,
                               exhaustive_patterns)
from testtrim.generator import random_circuit
from testtrim.netlist import parse_bench


def _exhaustive_dict(circuit):
    return build_fault_dictionary(circuit, *exhaustive_patterns(len(circuit.inputs)))


def _traced_sets(fdict, injected):
    """The trace of ``injected`` and its exact candidate set per failing
    pattern: the faults whose elimination index lies above the pattern's
    0-based index."""
    trace = trace_diagnosis(fdict, injected)
    elim = fdict.elimination_indices(fdict.faults.index(injected))
    sets = [{f for f, e in enumerate(elim) if e > k - 1} for k in trace.failing_indices]
    return trace, sets


def test_and_output_stuck_fails_on_zero_patterns(and_circuit):
    fdict = _exhaustive_dict(and_circuit)
    z = and_circuit.signal_names.index("z")
    trace = trace_diagnosis(fdict, Fault(z, 1))
    # fault-free output is 0 on three of the four patterns
    assert trace.num_failing == 3
    assert trace.failing_indices == [1, 2, 3]  # patterns 00, 10, 01 (code order)
    assert trace.total_patterns == 4
    ds = dataset_from_traces([trace])
    assert ds.m[-1] == 1.0 and ds.y[-1] == 1.0


def test_trace_record_holds_the_persisted_fields_only():
    # the golden size, m and y are derived: none of them is a field
    assert [f.name for f in fields(DiagnosisTrace)] == TRACE_HEADER + ["injected_fault"]


def test_injected_always_a_candidate(sample6):
    fdict = _exhaustive_dict(sample6)
    for fi in fdict.detected_fault_indices():
        _, sets = _traced_sets(fdict, fdict.faults[fi])
        for candidates in sets:
            assert fi in candidates


def test_candidate_sets_match_bruteforce_oracle(sample6):
    patterns = numeric_order_patterns(len(sample6.inputs))
    fdict = bit_pattern_dictionary(sample6, patterns)
    for fi in fdict.detected_fault_indices():
        injected = fdict.faults[fi]
        trace, sets = _traced_sets(fdict, injected)
        want_failing, want_sets = oracle_candidate_sets(sample6, patterns, injected)
        assert trace.failing_indices == want_failing
        assert sets == want_sets
        assert trace.intermediate_sizes == [len(s) for s in want_sets]


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=2_000))
def test_candidate_oracle_on_random_circuits(seed):
    circuit = random_small_circuit(seed, max_inputs=5, max_gates=10)
    patterns = numeric_order_patterns(len(circuit.inputs))
    fdict = bit_pattern_dictionary(circuit, patterns)
    detectable = fdict.detected_fault_indices()
    if not detectable:
        return
    injected = fdict.faults[detectable[seed % len(detectable)]]
    trace, sets = _traced_sets(fdict, injected)
    want_failing, want_sets = oracle_candidate_sets(circuit, patterns, injected)
    assert trace.failing_indices == want_failing
    assert sets == want_sets


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       num_gates=st.integers(min_value=1, max_value=300),
       num_patterns=st.sampled_from((1, 64, 65, 1024)))
def test_trace_matches_prefix_replay_oracle(seed, num_gates, num_patterns):
    rng = random.Random(seed)
    circuit = random_circuit(f"r{seed}", rng, min_inputs=1, max_inputs=24,
                             min_gates=num_gates, max_gates=num_gates, p_unread=0.5)
    patterns = random_pattern_list(circuit, num_patterns, rng)
    fault_words, free_words = full_pass_fault_words(circuit, patterns)
    detectable = [f for f, row in enumerate(fault_words) if row != free_words]
    if not detectable:
        return
    injected = detectable[rng.randrange(len(detectable))]
    _assert_trace_matches_prefix_replay(bit_pattern_dictionary(circuit, patterns),
                                        fault_words, free_words, injected)


@pytest.mark.parametrize("num_patterns", (1, 7, 64, 65))
@pytest.mark.parametrize("name", sorted(EDGE_BENCHES))
def test_every_edge_injection_matches_prefix_replay_oracle(name, num_patterns):
    # same-stem, cross-stem and no-diff-stem pairs of injected and candidate fault
    circuit = parse_bench(EDGE_BENCHES[name], name=name)
    patterns = random_pattern_list(circuit, num_patterns, random.Random(num_patterns))
    fault_words, free_words = full_pass_fault_words(circuit, patterns)
    fdict = bit_pattern_dictionary(circuit, patterns)
    for injected, row in enumerate(fault_words):
        if row != free_words:
            _assert_trace_matches_prefix_replay(fdict, fault_words, free_words, injected)


def _assert_trace_matches_prefix_replay(fdict, fault_words, free_words, injected):
    trace, sets = _traced_sets(fdict, fdict.faults[injected])
    want_failing, want_sets = prefix_replay_candidate_sets(fault_words, free_words, injected)
    assert trace.failing_indices == want_failing, injected
    assert trace.intermediate_sizes == [len(s) for s in want_sets], injected
    assert sets == want_sets, injected


def _replay_circuit(num_patterns):
    rng = random.Random(f"replay:{num_patterns}")
    circuit = random_circuit("replay", rng, min_inputs=24, max_inputs=24, min_gates=300,
                             max_gates=300, p_unread=0.5)
    patterns = random_pattern_list(circuit, num_patterns, rng)
    return circuit, patterns, full_pass_fault_words(circuit, patterns)


@pytest.mark.parametrize("num_patterns", (64, 1024))
def test_replay_by_first_failing_pattern_matches_prefix_replay(num_patterns):
    # only a fault that first fails where the injected one does reads its stem's diffs
    circuit, patterns, (fault_words, free_words) = _replay_circuit(num_patterns)
    fdict = bit_pattern_dictionary(circuit, patterns)
    full = (1 << num_patterns) - 1
    first = {f: (m & -m).bit_length() - 1 for f, m in enumerate(fdict.fault_masks) if m}
    by_first = sorted(first, key=first.get)
    early = next(f for f in by_first if first[f] > 0)
    late = by_first[-1]
    assert first[by_first[0]] == 0 and 0 < first[early] <= 8 < first[late]
    # an injected fault with an equivalent one: another fault with its very row
    twin = {}
    for f in by_first:
        twin.setdefault(fault_words[f], []).append(f)
    injected, equivalent = next(fs for fs in twin.values() if len(fs) > 1)[:2]
    for f in (by_first[0], early, late, injected):
        _assert_trace_matches_prefix_replay(fdict, fault_words, free_words, f)
    elim = fdict.elimination_indices(injected)
    assert elim[equivalent] == elim[injected] == num_patterns
    assert fdict.fault_masks[equivalent] == fdict.fault_masks[injected] != full


@pytest.mark.parametrize("num_patterns", (64, 1024))
def test_every_detected_fault_replays_to_its_first_difference_sizes(num_patterns):
    # the sizes count, at each failing pattern, the faults whose rows still match
    circuit, patterns, (fault_words, free_words) = _replay_circuit(num_patterns)
    fdict = bit_pattern_dictionary(circuit, patterns)
    first_difference = first_difference_indices(fault_words, num_patterns)
    detected = fdict.detected_fault_indices()
    assert detected == [f for f, row in enumerate(fault_words) if row != free_words]
    for n, f in enumerate(detected):
        want = first_difference(f)
        trace = trace_diagnosis(fdict, fdict.faults[f])
        if n % 4 == 0:
            assert fdict.elimination_indices(f) == want, f
        order = sorted(want)  # size at the 1-based index k: the faults with e >= k
        assert trace.intermediate_sizes == [len(order) - bisect.bisect_left(order, k)
                                            for k in trace.failing_indices], f


@pytest.mark.parametrize("stems_per_batch", (1, 2, 3))
def test_trace_replay_across_batches_matches_prefix_replay(stems_per_batch):
    # 19 flipped stems: with 2 or 3 per batch the last batch holds one stem;
    # 65 patterns put the slice offsets off machine-word boundaries
    rng = random.Random(1)
    circuit = random_circuit("batches", rng, min_inputs=6, max_inputs=6, min_gates=30,
                             max_gates=30, p_unread=0.5)
    patterns = random_pattern_list(circuit, 65, rng)
    fault_words, free_words = full_pass_fault_words(circuit, patterns)
    with mock.patch.object(faultsim, "_BATCH_BITS", stems_per_batch * len(patterns)):
        fdict = bit_pattern_dictionary(circuit, patterns)
    assert len(fdict.batch_diffs) == -(-19 // stems_per_batch)
    last = len(fdict.batch_diffs) - 1
    partial = 19 % stems_per_batch != 0
    # where the stem of each candidate that fails with the injected fault sits
    cases = set()
    for injected, row in enumerate(fault_words):
        if row == free_words:
            continue
        inj_mask = fdict.fault_masks[injected]
        inj_slot = fdict.fault_slots[injected]
        for mask, slot in zip(fdict.fault_masks, fdict.fault_slots):
            if not mask & inj_mask:
                continue
            batch = slot[0]
            if batch == inj_slot[0]:
                cases.add("same stem" if slot == inj_slot else "same batch")
            else:
                cases.add("partial last batch" if partial and batch == last
                          else "other batch")
        _assert_trace_matches_prefix_replay(fdict, fault_words, free_words, injected)
    want = {"same stem", "other batch"}
    if stems_per_batch > 1:
        want |= {"same batch", "partial last batch"}
    assert cases == want


def test_monotone_refinement_and_soundness(small_corpus):
    ds = small_corpus.dataset
    for c, trace in enumerate(small_corpus.traces):
        sizes = trace.intermediate_sizes
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert trace.golden_size == sizes[-1] >= 1
        ms = ds.m[ds.offsets[c]:ds.offsets[c + 1]].tolist()
        ys = ds.y[ds.offsets[c]:ds.offsets[c + 1]].tolist()
        assert all(a <= b for a, b in zip(ms, ms[1:]))
        assert ms[-1] == 1.0
        assert all(0.0 < m <= 1.0 for m in ms)
        assert all(0.0 <= y <= 1.0 for y in ys)
        assert ys[-1] == 1.0


def test_undetected_fault_raises(and_circuit):
    # with only the all-ones pattern, a stuck-at-1 on input a is silent
    fdict = bit_pattern_dictionary(and_circuit, [(1, 1)])
    a = and_circuit.signal_names.index("a")
    with pytest.raises(UndiagnosableFaultError, match="undiagnosable"):
        trace_diagnosis(fdict, Fault(a, 1))


def test_unknown_injected_fault(and_circuit):
    fdict = bit_pattern_dictionary(and_circuit, [(1, 1)])
    with pytest.raises(ValueError, match=r"^injected fault Fault\(signal=57, stuck_value=0\) "
                                         r"not in dictionary$"):
        trace_diagnosis(fdict, Fault(57, 0))


def test_trace_csv_roundtrip(tmp_path, small_corpus):
    # an id taken from a netlist file name may hold a comma: csv quotes it
    traces = [replace(small_corpus.traces[0], circuit_id="c,000"), *small_corpus.traces[1:]]
    path = tmp_path / "traces.csv"
    write_traces(traces, path)
    assert len(path.read_text().splitlines()) == 1 + len(traces)  # one record per trace
    loaded = read_traces(path)
    # the record is the sizes: the golden size, m and y come back exactly,
    # only the injected fault is not persisted
    assert loaded == [replace(t, injected_fault=None) for t in traces]
    got, want = dataset_from_traces(loaded), dataset_from_traces(traces)
    assert (got.m.tolist(), got.y.tolist()) == (want.m.tolist(), want.y.tolist())


def test_trace_csv_roundtrip_past_the_default_field_limit(tmp_path):
    # 25,000 failing indices make a field over csv's default 131,072 characters
    failing = list(range(1, 50_001, 2))
    sizes = [30_000 - i for i in range(len(failing))]
    trace = DiagnosisTrace("big", 16, 60_000, failing, sizes)
    path = tmp_path / "traces.csv"
    write_traces([trace], path)
    assert len(path.read_text().splitlines()[1].split(",")[3]) > 131_072
    assert read_traces(path) == [trace]


def test_read_traces_rejects_header_without_total_patterns(tmp_path, small_corpus):
    path = tmp_path / "traces.csv"
    write_traces(small_corpus.traces[:1], path)
    lines = path.read_text().splitlines()
    drop = TRACE_HEADER.index("total_patterns")
    path.write_text("\n".join(",".join(c for i, c in enumerate(ln.split(",")) if i != drop)
                              for ln in lines) + "\n")
    with pytest.raises(ValueError, match="unexpected trace header"):
        read_traces(path)


def test_read_traces_rejects_total_below_last_failing_pattern(tmp_path, small_corpus):
    path = tmp_path / "traces.csv"
    write_traces(small_corpus.traces[:1], path)
    _edit_field(path, 2, "total_patterns", "0")
    with pytest.raises(ValueError, match=r"traces\.csv line 2: failing index \d+ is above "
                                         r"total_patterns 0"):
        read_traces(path)


def _set_field(column, value, line=2):
    """The file lines with ``column`` of 1-based line ``line`` set to ``value``."""
    def edit(lines):
        fields = lines[line - 1].split(",")
        fields[TRACE_HEADER.index(column)] = value
        return [*lines[:line - 1], ",".join(fields), *lines[line:]]
    return edit


def _sizes_from(line, first):
    """``line`` with its first intermediate size set to ``first``."""
    fields = line.split(",")
    sizes = fields[-1].split()
    fields[-1] = " ".join([str(first), *sizes[1:]])
    return ",".join(fields)


_PER_PATTERN_HEADER = ("circuit_id,num_inputs,total_patterns,k,failing_index_k,"
                       "intermediate_size,golden_size,m,y")


@pytest.mark.parametrize("edit, line, message", [
    (lambda lines: lines[:1], 1, "no trace record"),
    (lambda lines: [_PER_PATTERN_HEADER, *lines[1:]], 1,
     r"unexpected trace header .*; run 'testtrim generate' again"),
    (lambda lines: [lines[0], lines[1].rsplit(",", 1)[0], lines[2]], 2,
     "expected 5 fields, got 4"),
    (lambda lines: [*lines[:2], lines[2] + ",0"], 3, "expected 5 fields, got 6"),
    (_set_field("num_inputs", "6.0"), 2, "invalid literal for int"),
    (_set_field("intermediate_sizes", "3 2 x", line=3), 3, "invalid literal for int"),
    (lambda lines: [*lines[:2], lines[1]], 3, r"a second record for circuit 'c\d+'"),
    (_set_field("failing_indices", ""), 2, r"0 failing indices and \d+ intermediate sizes"),
    (_set_field("intermediate_sizes", ""), 2, r"\d+ failing indices and 0 intermediate sizes"),
    (_set_field("intermediate_sizes", "5 4"), 2, r"\d+ failing indices and 2 intermediate"),
    (_set_field("intermediate_sizes", "0", line=3), 3, "intermediate size 0 is below 1"),
    (_set_field("num_inputs", "0"), 2, "num_inputs 0 is below 1"),
    (_set_field("num_inputs", str(10**23), line=3), 3,
     r"num_inputs 10{23} is above 2\*\*53"),
    (_set_field("total_patterns", str(10**23)), 2, r"total_patterns 10{23} is above 2\*\*53"),
    (_set_field("total_patterns", str(2**53 + 1)), 2,
     r"total_patterns 9007199254740993 is above 2\*\*53"),
    (lambda lines: [lines[0], lines[1], _sizes_from(lines[2], 2**53 + 1)], 3,
     r"intermediate size 9007199254740993 is above 2\*\*53"),
    (_set_field("num_inputs", "1"), 2, r"total_patterns \d+ is above 2\*\*1, the patterns"),
], ids=["no record", "per-pattern header", "field missing", "field added", "non-int value",
        "non-int list entry", "repeated circuit", "no failing index", "no size",
        "list lengths differ", "size below 1", "no input", "input count over 2**53",
        "pattern count over 2**53", "pattern count just over 2**53", "size over 2**53",
        "more patterns than inputs give"])
def test_read_traces_rejects_bad_row_naming_file_and_line(tmp_path, small_corpus,
                                                          edit, line, message):
    # the header, the failing indices, the rising sizes and the cut last
    # record are refused in the tests around this one
    path = tmp_path / "traces.csv"
    write_traces(small_corpus.traces[:2], path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=rf"traces\.csv line {line}: {message}"):
        read_traces(path)


def test_read_traces_rejects_circuit_cut_before_golden_set(tmp_path, small_corpus):
    # a last size cut from 12 to 1 would be a converged size: only the
    # missing line end shows the file is cut
    trace = DiagnosisTrace("c1", 4, 16, [2, 5, 9], [40, 12, 12])
    path = tmp_path / "traces.csv"
    write_traces([small_corpus.traces[0], trace], path)
    data = path.read_bytes()
    assert data.endswith(b",40 12 12\r\n")
    path.write_bytes(data[:-3])
    with pytest.raises(ValueError, match=r"traces\.csv line 3: the last record has no line end"):
        read_traces(path)


def _edit_field(path, line, column, value):
    """Set ``column`` of 1-based file line ``line`` to ``value``."""
    lines = _set_field(column, value, line)(path.read_text().splitlines())
    path.write_text("\n".join(lines) + "\n")


def _two_record_trace(small_corpus):
    return next(t for t in small_corpus.traces
                if t.num_failing > 2 and t.intermediate_sizes[0] > t.golden_size)


@pytest.mark.parametrize("line, value, message", [
    (2, "0", "failing index 0 is below 1"),
    (3, "-3", r"failing index -3 is below \d+"),
])
def test_read_traces_rejects_failing_indices_not_rising_from_one(tmp_path, small_corpus,
                                                                 line, value, message):
    # the first index of the first record, the second index of the second
    trace = _two_record_trace(small_corpus)
    path = tmp_path / "traces.csv"
    write_traces([trace, replace(trace, circuit_id="other")], path)
    failing = [str(i) for i in trace.failing_indices]
    failing[line - 2] = value
    _edit_field(path, line, "failing_indices", " ".join(failing))
    with pytest.raises(ValueError, match=rf"traces\.csv line {line}: {message}"):
        read_traces(path)


def test_read_traces_rejects_a_rising_size(tmp_path, small_corpus):
    # the second size raised above the first
    trace = _two_record_trace(small_corpus)
    sizes = list(trace.intermediate_sizes)
    sizes[1] = sizes[0] + 1
    path = tmp_path / "traces.csv"
    write_traces([replace(trace, intermediate_sizes=sizes)], path)
    with pytest.raises(ValueError, match=rf"traces\.csv line 2: intermediate size "
                                         rf"{sizes[1]} rises above the size {sizes[0]}"):
        read_traces(path)
