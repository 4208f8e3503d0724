"""Corpus synthesis: circuits -> fault dictionaries -> traces -> dataset.

Each corpus slot is one failing circuit: a netlist (generated or loaded),
a seeded pattern set, and one seeded injected fault drawn from the faults
the pattern set can actually detect.  Slots use independent sub-seeds
derived from the corpus seed, so the whole corpus is reproducible and
individual slots do not perturb each other.

The model side reads the traces and owns the split (``dataset.split_corpus``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .config import RunConfig
from .dataset import Dataset, dataset_from_traces
from .diagnosis import DiagnosisTrace, trace_diagnosis
from .faultsim import (FaultDictionary, build_fault_dictionary,
                       exhaustive_patterns, random_patterns)
from .generator import random_circuit
from .netlist import BenchParseError, Circuit, parse_bench

_MAX_GENERATION_ATTEMPTS = 50


@dataclass
class Corpus:
    circuits: list[Circuit]
    dictionaries: list[FaultDictionary]
    traces: list[DiagnosisTrace]
    dataset: Dataset


def _patterns_for(circuit: Circuit, spec: int | str, seed: int):
    if spec == "exhaustive":
        return exhaustive_patterns(len(circuit.inputs))
    return random_patterns(len(circuit.inputs), int(spec), seed)


def _slot_rng(corpus_seed: int, slot: int, attempt: int) -> random.Random:
    # string seeding hashes with SHA-512 internally: stable across platforms
    return random.Random(f"testtrim:{corpus_seed}:{slot}:{attempt}")


def build_corpus(cfg: RunConfig) -> Corpus:
    """Build the full corpus described by the config.

    With the built-in generator, slots whose pattern set detects no fault
    at all are regenerated with a fresh sub-seed; with user netlists they
    are skipped (a warning-free no-op: the circuit emits no trace).  A
    netlist that does not decode or parse is reported with its file path,
    and a file name that is not UTF-8 is refused before any is read.
    """
    circuits: list[Circuit] = []
    dictionaries: list[FaultDictionary] = []
    traces: list[DiagnosisTrace] = []

    def fill_slot(circuit: Circuit, rng: random.Random) -> bool:
        """Add ``circuit`` with a fault drawn from those its patterns
        detect; False, adding nothing, when they detect none."""
        patterns = _patterns_for(circuit, cfg.corpus_patterns, rng.randrange(1 << 32))
        fdict = build_fault_dictionary(circuit, patterns)
        detectable = fdict.detected_fault_indices()
        if not detectable:
            return False
        circuits.append(circuit)
        dictionaries.append(fdict)
        traces.append(trace_diagnosis(fdict, fdict.faults[rng.choice(detectable)]))
        return True

    if cfg.corpus_netlist_dir is not None:
        paths = sorted(Path(cfg.corpus_netlist_dir).glob("*.bench"))
        if not paths:
            raise ValueError(f"no .bench files in {cfg.corpus_netlist_dir}")
        for path in paths:   # artifacts record the circuit id, the name's stem, as UTF-8
            try:
                path.name.encode()
            except UnicodeError:
                raise ValueError(f"the file name {str(path)!r} is not UTF-8") from None
        for slot, path in enumerate(paths):
            try:
                circuit = parse_bench(path.read_text(), name=path.stem)
            except BenchParseError as exc:
                raise BenchParseError(f"{path}: {exc}") from None
            except UnicodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
            fill_slot(circuit, _slot_rng(cfg.corpus_seed, slot, 0))
    else:
        for slot in range(cfg.corpus_circuits):
            for attempt in range(_MAX_GENERATION_ATTEMPTS):
                rng = _slot_rng(cfg.corpus_seed, slot, attempt)
                circuit = random_circuit(
                    f"c{slot:03d}", rng,
                    min_inputs=cfg.corpus_min_inputs, max_inputs=cfg.corpus_max_inputs,
                    min_gates=cfg.corpus_min_gates, max_gates=cfg.corpus_max_gates)
                if fill_slot(circuit, rng):
                    break
            else:
                raise RuntimeError(f"no detectable fault found for slot {slot} after "
                                   f"{_MAX_GENERATION_ATTEMPTS} attempts")

    if not traces:
        raise ValueError("corpus produced no diagnosable traces")
    return Corpus(
        circuits=circuits,
        dictionaries=dictionaries,
        traces=traces,
        dataset=dataset_from_traces(traces),
    )
