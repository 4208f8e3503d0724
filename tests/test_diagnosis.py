import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_small_circuit
from oracles import oracle_candidate_sets
from testtrim.diagnosis import (TRACE_HEADER, UndiagnosableFaultError, compute_labels,
                                read_traces, trace_diagnosis, write_traces)
from testtrim.faultsim import (Fault, build_fault_dictionary, enumerate_faults,
                               exhaustive_patterns)


def _exhaustive_dict(circuit):
    return build_fault_dictionary(circuit, exhaustive_patterns(len(circuit.inputs)))


def test_and_output_stuck_fails_on_zero_patterns(and_circuit):
    fdict = _exhaustive_dict(and_circuit)
    z = and_circuit.signal_id("z")
    trace = trace_diagnosis(fdict, Fault(z, 1))
    # fault-free output is 0 on three of the four patterns
    assert trace.num_failing == 3
    assert trace.failing_indices == [1, 2, 3]  # patterns 00, 10, 01 (code order)
    assert trace.total_patterns == 4
    assert trace.m_values[-1] == 1.0
    assert trace.y_values[-1] == 1.0


def test_injected_always_a_candidate(sample6):
    fdict = _exhaustive_dict(sample6)
    for fi in fdict.detected_fault_indices():
        trace = trace_diagnosis(fdict, fdict.faults[fi], keep_sets=True)
        for candidates in trace.candidate_sets:
            assert fi in candidates


def test_candidate_sets_match_bruteforce_oracle(sample6):
    patterns = exhaustive_patterns(len(sample6.inputs))
    fdict = build_fault_dictionary(sample6, patterns)
    for fi in fdict.detected_fault_indices():
        injected = fdict.faults[fi]
        trace = trace_diagnosis(fdict, injected, keep_sets=True)
        want_failing, want_sets = oracle_candidate_sets(sample6, patterns, injected)
        assert trace.failing_indices == want_failing
        assert [set(s) for s in trace.candidate_sets] == want_sets
        assert trace.intermediate_sizes == [len(s) for s in want_sets]


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=2_000))
def test_candidate_oracle_on_random_circuits(seed):
    circuit = random_small_circuit(seed, max_inputs=5, max_gates=10)
    patterns = exhaustive_patterns(len(circuit.inputs))
    fdict = build_fault_dictionary(circuit, patterns)
    detectable = fdict.detected_fault_indices()
    if not detectable:
        return
    injected = fdict.faults[detectable[seed % len(detectable)]]
    trace = trace_diagnosis(fdict, injected, keep_sets=True)
    want_failing, want_sets = oracle_candidate_sets(circuit, patterns, injected)
    assert trace.failing_indices == want_failing
    assert [set(s) for s in trace.candidate_sets] == want_sets


def test_monotone_refinement_and_soundness(small_corpus):
    for fdict, trace in zip(small_corpus.dictionaries, small_corpus.traces):
        sizes = trace.intermediate_sizes
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert trace.golden_size == sizes[-1] >= 1
        ms = trace.m_values
        assert all(a <= b for a, b in zip(ms, ms[1:]))
        assert ms[-1] == 1.0
        assert all(0.0 < m <= 1.0 for m in ms)
        assert all(0.0 <= y <= 1.0 for y in trace.y_values)
        assert trace.y_values[-1] == 1.0


def test_undetected_fault_raises(and_circuit):
    # with only the all-ones pattern, a stuck-at-1 on input a is silent
    fdict = build_fault_dictionary(and_circuit, [(1, 1)])
    a = and_circuit.signal_id("a")
    with pytest.raises(UndiagnosableFaultError, match="undiagnosable"):
        trace_diagnosis(fdict, Fault(a, 1))


def test_unknown_injected_fault(and_circuit):
    fdict = build_fault_dictionary(and_circuit, [(1, 1)])
    with pytest.raises(ValueError, match="not in dictionary"):
        trace_diagnosis(fdict, Fault(57, 0))


class TestComputeLabels:
    def test_direct_substitution(self):
        got = compute_labels([0.2, 0.5, 1.0])
        assert got == pytest.approx([0.0, 0.375, 1.0], abs=1e-12)
        assert got[0] == 0.0 and got[-1] == 1.0  # boundary rows are exact

    def test_single_converged_row(self):
        assert compute_labels([1.0]) == [1.0]

    def test_minimum_maps_to_zero(self):
        assert compute_labels([0.25, 0.25, 1.0]) == [0.0, 0.0, 1.0]

    def test_all_converged(self):
        assert compute_labels([1.0, 1.0, 1.0]) == [1.0, 1.0, 1.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compute_labels([])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            compute_labels([0.5, 1.5])
        with pytest.raises(ValueError):
            compute_labels([0.0, 1.0])

    @settings(max_examples=100)
    @given(st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=30),
           st.integers(min_value=1, max_value=50))
    def test_label_laws_on_synthetic_m(self, increments, golden):
        # build a non-increasing size sequence ending at the golden size
        sizes = []
        acc = golden
        for inc in reversed(increments):
            sizes.append(acc)
            acc += inc
        sizes = list(reversed(sizes))
        m = [golden / s for s in sizes]
        y = compute_labels(m)
        assert all(0.0 <= v <= 1.0 for v in y)
        assert y[-1] == 1.0
        m_min = min(m)
        if m_min < 1.0:
            assert min(y) == 0.0
            for mi, yi in zip(m, y):
                assert (yi == 1.0) == (mi == 1.0)
        assert max(y) == 1.0


def test_trace_csv_roundtrip(tmp_path, small_corpus):
    path = tmp_path / "traces.csv"
    write_traces(small_corpus.traces, path)
    loaded = read_traces(path)
    assert len(loaded) == len(small_corpus.traces)
    by_id = {t.circuit_id: t for t in loaded}
    for orig in small_corpus.traces:
        got = by_id[orig.circuit_id]
        assert got.failing_indices == orig.failing_indices
        assert got.intermediate_sizes == orig.intermediate_sizes
        assert got.golden_size == orig.golden_size
        assert got.num_inputs == orig.num_inputs
        assert got.total_patterns == orig.total_patterns
        assert got.m_values == pytest.approx(orig.m_values, abs=5e-7)
        assert got.y_values == pytest.approx(orig.y_values, abs=5e-7)
        # converged rows survive the 6-digit round trip exactly
        for y_orig, y_got in zip(orig.y_values, got.y_values):
            assert (y_orig == 1.0) == (y_got == 1.0)


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
    header, *rows = path.read_text().splitlines()
    col = TRACE_HEADER.index("total_patterns")
    rows = [",".join("0" if i == col else c for i, c in enumerate(r.split(","))) for r in rows]
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(ValueError, match="total_patterns 0 is below"):
        read_traces(path)


def _drop_last_field(row):
    return row.rsplit(",", 1)[0]


@pytest.mark.parametrize("edit, message", [
    (_drop_last_field, "expected 9 fields"),
    (lambda row: row + ",0", "expected 9 fields"),
    (lambda row: _drop_last_field(row) + ",nan", "non-finite m or y"),
    (lambda row: ",".join(row.split(",")[:7] + ["inf"] + row.split(",")[8:]),
     "non-finite m or y"),
    (lambda row: _drop_last_field(row) + ",", "could not convert"),
])
def test_read_traces_rejects_bad_row_naming_file_and_line(tmp_path, small_corpus,
                                                          edit, message):
    path = tmp_path / "traces.csv"
    write_traces(small_corpus.traces[:2], path)
    lines = path.read_text().splitlines()
    lines[2] = edit(lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"traces\.csv line 3: {message}"):
        read_traces(path)


def test_read_traces_rejects_circuit_cut_before_golden_set(tmp_path, small_corpus):
    trace = next(t for t in small_corpus.traces
                 if t.num_failing > 1 and t.intermediate_sizes[-2] > t.golden_size)
    path = tmp_path / "traces.csv"
    write_traces([trace], path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="not at its golden size"):
        read_traces(path)
