"""Correctness checks on workload outputs.

None of them goes through the code the benchmark times.  Dictionary
responses are compared against ``tests/oracles.rewrite_fault_response``,
which re-parses a rewritten netlist and runs the fault-free evaluator;
trace and report checks test invariants, not model numbers.  Each check
function returns ``(attempted, failures)`` with one message per failure.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

Outcome = tuple[int, list[str]]

SAMPLES = 3  # oracle-checked dictionary responses per circuit


def check_corpus(corpus, bench_texts: dict[str, str], oracles, seed: int) -> Outcome:
    """Per circuit: a seeded sample of dictionary responses against the
    oracle, the injected fault's first failing pattern, and the trace's
    candidate-set invariants."""
    from testtrim.netlist import evaluate

    attempted, failures = 0, []
    rng = random.Random(f"perfbench-check:{seed}")
    for circuit, fdict, trace in zip(corpus.circuits, corpus.dictionaries, corpus.traces):
        text = bench_texts[circuit.name]
        picks = [(rng.randrange(len(fdict.faults)), rng.randrange(fdict.num_patterns))
                 for _ in range(SAMPLES)]
        for fi, p in picks:
            attempted += 1
            want = oracles.rewrite_fault_response(text, circuit, fdict.faults[fi],
                                                  fdict.patterns[p])
            if fdict.response(fi, p) != want:
                failures.append(f"{circuit.name}: fault {fdict.faults[fi]} pattern {p}: "
                                f"dictionary {fdict.response(fi, p)} != oracle {want}")

        attempted += 1
        first = fdict.patterns[trace.failing_indices[0] - 1]
        if (oracles.rewrite_fault_response(text, circuit, trace.injected_fault, first)
                == evaluate(circuit, first)):
            failures.append(f"{circuit.name}: injected fault passes its first failing pattern")

        attempted += 1
        sizes = trace.intermediate_sizes
        ok = (len(sizes) == len(trace.failing_indices) >= 1
              and all(a >= b for a, b in zip(sizes, sizes[1:]))
              and sizes[-1] == trace.golden_size >= 1
              and all(a < b for a, b in zip(trace.failing_indices, trace.failing_indices[1:]))
              and 1 <= trace.failing_indices[0]
              and trace.failing_indices[-1] <= trace.total_patterns)
        if not ok:
            failures.append(f"{circuit.name}: trace sizes {sizes[:8]} / golden "
                            f"{trace.golden_size} break the candidate-set invariants")
    return attempted, failures


def read_summary(path: Path) -> dict[str, str]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"{path.name}: expected one summary row, got {len(rows)}")
    return rows[0]


def check_pipeline(out: Path, stages: dict[str, tuple[int, str]]) -> Outcome:
    """Every stage exits 0 without a traceback, the oracle policy scores
    accuracy 1, and the trained policy's metrics lie in [0, 1].

    ``stages`` maps a stage name to its exit code and standard error."""
    attempted, failures = 0, []
    for stage, (code, stderr) in stages.items():
        attempted += 1
        if code != 0 or "Traceback" in stderr:
            tail = stderr.strip().splitlines()[-1:] or [""]
            failures.append(f"stage {stage} exited {code}: {tail[0]}")

    attempted += 1
    try:
        acc = float(read_summary(out / "oracle_summary.csv")["diagnosis_accuracy"])
        if acc != 1.0:
            failures.append(f"oracle diagnosis_accuracy {acc} != 1.0")
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"oracle summary unreadable: {exc}")

    attempted += 1
    try:
        row = read_summary(out / "summary.csv")
        for key in ("diagnosis_accuracy", "volume_reduction"):
            if not 0.0 <= float(row[key]) <= 1.0:
                failures.append(f"model {key} {row[key]} outside [0, 1]")
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"model summary unreadable: {exc}")

    attempted += 1
    for name in ("sweep_alpha.csv", "beta_weights.csv", "learning_curve.csv"):
        try:
            with open(out / name) as fh:
                if sum(1 for _ in fh) < 2:
                    failures.append(f"{name} holds no data rows")
                    break
        except OSError as exc:
            failures.append(f"{name} unreadable: {exc}")
            break
    return attempted, failures
