import random
from pathlib import Path

import pytest

from testtrim.config import RunConfig
from testtrim.corpus import build_corpus
from testtrim.netlist import parse_bench

DATA_DIR = Path(__file__).parent / "data"

AND_BENCH = """\
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
"""


# Small netlists at the corners of the fanout-free-region dictionary builder.
EDGE_BENCHES = {
    # a gate reading one signal on both pins, twice in a row
    "duplicate_inputs": "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(w)\n"
                        "y = AND(a, a)\nz = XOR(y, y)\nw = OR(y, b)\n",
    "input_is_output": "INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(z)\nz = NAND(a, b)\n",
    "output_also_read": "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n"
                        "y = NOR(a, b)\nz = XNOR(y, c)\n",
    "unread_input": "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\nz = AND(a, b)\n",
    # k is constant 0, so every effect of a dies at y, mid-way along a -> t -> y -> u -> z
    "masked_mid_path": "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\n"
                       "nb = NOT(b)\nk = AND(b, nb)\nt = BUF(a)\ny = AND(t, k)\n"
                       "u = NOT(y)\nz = OR(u, c)\n",
    # y is an output and has one reader, so a's path stops at y, not at z
    "output_read_once": "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n"
                        "y = NAND(a, b)\nu = BUF(y)\nz = OR(u, c)\n",
    # flipping the stem a flips both XOR inputs: the flip cancels at z
    "reconvergent_cancel": "INPUT(a)\nOUTPUT(z)\nb = BUF(a)\nz = XOR(a, b)\n",
    # s1 -> s2 -> s3 are stems, each read by the next and by an output, so
    # s2 and s3 are driven inside the fanout cones of the stems before them
    "fanout_stem_chain": "INPUT(a)\nINPUT(b)\nOUTPUT(z1)\nOUTPUT(z2)\nOUTPUT(z3)\nOUTPUT(w)\n"
                         "s1 = AND(a, b)\nz1 = NOT(s1)\ns2 = OR(s1, a)\nz2 = BUF(s2)\n"
                         "s3 = NOT(s2)\nz3 = XOR(s3, b)\nw = AND(s3, a)\n",
    "out_of_order": "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n"
                    "z = OR(y, x)\ny = AND(a, x)\nx = NOT(b)\n",
    # Gates with three and four pins: between them the three benches below
    # hold every multi-input kind at both widths.  t -> u -> v -> z is one
    # fanout-free path of wide gates.
    "wide_fanout_free_path": "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nOUTPUT(z)\n"
                             "t = AND(a, b, c)\nu = NOR(t, d, e)\nv = XOR(u, a, b, c)\n"
                             "z = NAND(v, d, e, c)\n",
    # the stem s is a wide gate's output read by three wide gates
    "wide_stem": "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nOUTPUT(y1)\nOUTPUT(z)\n"
                 "s = OR(a, b, c, d)\ny1 = XNOR(s, c, e)\ny2 = AND(s, a, b, e)\n"
                 "y3 = NAND(s, d, b)\nz = OR(y2, y3, e)\n",
    # repeated pins: r is read by q alone but on two pins, and q likewise by z
    "wide_repeated_pin": "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(z)\n"
                         "r = XOR(a, b, a)\nq = NOR(r, r, c, d)\nz = XNOR(q, a, b, q)\n",
}


@pytest.fixture(scope="session")
def and_circuit():
    return parse_bench(AND_BENCH, name="and2")


@pytest.fixture(scope="session")
def sample6_text():
    return (DATA_DIR / "sample6.bench").read_text()


@pytest.fixture(scope="session")
def sample6(sample6_text):
    return parse_bench(sample6_text, name="sample6")


@pytest.fixture(scope="session")
def small_corpus():
    """Twelve small circuits, quick to build, shared across test modules."""
    cfg = RunConfig(corpus_circuits=12, corpus_patterns=48, corpus_seed=5,
                    corpus_min_inputs=4, corpus_max_inputs=6,
                    corpus_min_gates=8, corpus_max_gates=16)
    return build_corpus(cfg)


def random_small_circuit(seed: int, max_inputs: int = 6, max_gates: int = 14):
    """Deterministic small random circuit for property-style tests."""
    from testtrim.generator import random_circuit
    rng = random.Random(f"prop:{seed}")
    return random_circuit(f"r{seed}", rng, min_inputs=3, max_inputs=max_inputs,
                          min_gates=4, max_gates=max_gates)


def random_pattern_list(circuit, count, rng):
    """``count`` seeded patterns, repeats allowed, so any width is reachable."""
    return [tuple(rng.getrandbits(1) for _ in circuit.inputs) for _ in range(count)]


def move_line(key: str, *, after: str):
    """A corruption of a file's lines: the first line whose first word is
    ``key`` moves to just after the first line whose first word is ``after``."""
    def edit(lines):
        i = next(i for i, ln in enumerate(lines) if ln.split()[:1] == [key])
        rest = lines[:i] + lines[i + 1:]
        j = next(j for j, ln in enumerate(rest) if ln.split()[:1] == [after])
        return rest[:j + 1] + [lines[i]] + rest[j + 1:]
    return edit
