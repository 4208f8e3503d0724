"""Random acyclic netlist generation for self-contained corpora.

Circuits are built gate by gate: each new gate draws its operands from the
signals defined so far, which makes the result acyclic by construction.
Fan-in is capped at 2 (1 for NOT/BUF).

Operand choice is biased toward signals nothing has read yet.  That funnels
the logic into a handful of sink gates, which become the primary outputs.
Few outputs means each test pattern reveals little, so fault candidates are
eliminated gradually instead of collapsing on the first failing pattern;
diagnosis traces then exercise the whole label range.
"""

from __future__ import annotations

import random

from .netlist import GATE_KINDS, Circuit, build_circuit

_UNARY = ("NOT", "BUF")


def random_circuit(name: str, rng: random.Random, *, min_inputs: int, max_inputs: int,
                   min_gates: int, max_gates: int, p_unread: float = 0.8) -> Circuit:
    num_inputs = rng.randint(min_inputs, max_inputs)
    num_gates = rng.randint(min_gates, max_gates)
    input_names = [f"x{i}" for i in range(1, num_inputs + 1)]
    pool = list(input_names)
    unread: set[str] = set(pool)
    stmts: list[tuple[str, str, tuple[str, ...]]] = []
    for j in range(1, num_gates + 1):
        kind = rng.choice(GATE_KINDS)
        arity = 1 if kind in _UNARY else 2
        ins: list[str] = []
        for _ in range(arity):
            if unread and rng.random() < p_unread:
                fresh = sorted(unread - set(ins))
                ins.append(rng.choice(fresh) if fresh else rng.choice(pool))
            else:
                ins.append(rng.choice(pool))
        out = f"g{j}"
        stmts.append((out, kind, tuple(ins)))
        unread -= set(ins)
        pool.append(out)
        unread.add(out)

    read = {i for _, _, ins in stmts for i in ins}
    outputs = [out for out, _, _ in stmts if out not in read]
    if not outputs:
        outputs = [stmts[-1][0]]
    return build_circuit(name, input_names, outputs, stmts)
