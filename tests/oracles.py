"""Independent reference implementations the tests check the package against.

Everything here deliberately avoids the package's production code paths:
the structure comparison reads gates by signal name, the gate-order
reference places statements by repeated passes over the declaration order,
the reference parser tries each line as a declaration, then as a gate,
with separate checks, and assembles its circuit from that gate order, the
truth-table
evaluator recurses over name-level gate expressions, the
fault oracle rewrites netlist text and reuses only the fault-free
evaluator, the full-pass dictionary builder re-simulates every gate for
every fault with its own packed gate table, the candidate oracle gets
its responses from the fault oracle and rescans full pattern prefixes with
the two-clause consistency definition instead of incremental filtering,
the prefix replay applies the same two clauses to whole packed prefixes of
rows from the full-pass builder (fast enough for netlists of hundreds of
gates),
the first-difference reference repacks the full-pass rows pattern-major
and finds each pair's first differing pattern with one XOR, the cone
count ORs each batch's stem cones from the stems' slots, the dictionary
reader parses the text export back into packed words for comparison with
the full-pass rows, the pattern references take each bit of
a pattern code by a shift and pack each input word one pattern at a time,
the per-trace stop reference builds, standardizes and scores one row at a
time with its own formulas, the RBF map takes each landmark distance
directly instead of through the expanded-norm identity, the lasso minimizer
takes proximal gradient steps on the whole coefficient vector instead of
coordinate descent, the logistic minimizer takes damped Newton steps on its
own cost, gradient and Hessian, and the sigmoid calls libm's exp one value
at a time.  Two references keep the package's arithmetic but not its memory
plan, so the fast paths must match them bit for bit: the one-shot RBF map
builds the whole distance matrix in one expression, and the every-trial
L-BFGS loop takes the cost and the gradient together at each line-search
trial.
"""

from __future__ import annotations

import math
import operator
import random
import re
from functools import reduce

import numpy as np

from testtrim.faultsim import Fault, enumerate_faults
from testtrim.netlist import BenchParseError, Circuit, Gate, evaluate, format_bench, parse_bench


def structurally_equal(a: Circuit, b: Circuit) -> bool:
    """Name-level structural identity (ignores the interning order)."""
    def shape(c: Circuit):
        names = c.signal_names
        return (
            tuple(names[i] for i in c.inputs),
            tuple(names[i] for i in c.outputs),
            tuple((names[g.output], g.kind, tuple(names[i] for i in g.inputs))
                  for g in c.gates),
        )
    return shape(a) == shape(b)


def multipass_gate_order(input_names, gate_stmts):
    """Name-level gate statements in the parser's topological order.

    Repeated passes scan the statements not yet placed in declaration order
    and place each one whose inputs are all defined by then.  A pass that
    places none raises ValueError naming the first statement left, as the
    parser's cyclic-dependency error does.
    """
    defined = set(input_names)
    remaining = list(gate_stmts)
    ordered = []
    while remaining:
        rest = []
        for stmt in remaining:
            out, _, ins = stmt
            if all(i in defined for i in ins):
                ordered.append(stmt)
                defined.add(out)
            else:
                rest.append(stmt)
        if len(rest) == len(remaining):
            raise ValueError(f"cyclic dependency involving '{rest[0][0]}'")
        remaining = rest
    return ordered


_REF_NAME = r"[A-Za-z0-9_]+"
_REF_ID_RE = re.compile(rf"{_REF_NAME}\Z")
_REF_IO_RE = re.compile(rf"((?ai:INPUT|OUTPUT))\s*\(\s*({_REF_NAME})\s*\)\Z")
_REF_GATE_RE = re.compile(rf"({_REF_NAME})\s*=\s*({_REF_NAME})\s*\(([^()]*)\)\Z")
_REF_KINDS = ("AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUF", "BUFF")
_REF_UNARY = ("NOT", "BUF", "BUFF")


def reference_parse_bench(text: str, name: str = "circuit") -> Circuit:
    """``parse_bench`` as a line loop of separate checks, each line tried as
    a declaration, then as a gate, then refused.

    Signals, errors, lines and columns follow the parser's contract: ids
    are inputs, then gate outputs, in declaration order; gates come in
    :func:`multipass_gate_order`; ``BUFF`` reads as ``BUF``; keywords are
    case-insensitive ASCII.  The checks of each signal's source run after
    every line has parsed: duplicate INPUT first, then multiply-driven
    gates, undeclared gate inputs and undeclared OUTPUTs.  The circuit is
    assembled here, not by ``build_circuit``.
    """
    input_names: list[str] = []
    output_names: list[str] = []
    places: dict[tuple[str, str], tuple[int, int]] = {}   # (keyword, signal) -> line, col
    declared_outputs: set[str] = set()
    gate_stmts: list[tuple[str, str, tuple[str, ...], int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].strip()
        if not code:
            continue
        col0 = raw.index(code[0]) + 1
        m = _REF_IO_RE.fullmatch(code)
        if m:
            kw, sig = m.group(1).upper(), m.group(2)
            col = raw.index(code) + m.start(2) + 1
            if kw == "INPUT":
                if sig in input_names:
                    places.setdefault(("INPUT", sig), (line_no, col))
                input_names.append(sig)
            else:
                if sig in declared_outputs:
                    raise BenchParseError(f"duplicate OUTPUT declaration for '{sig}'",
                                          line_no, col)
                declared_outputs.add(sig)
                output_names.append(sig)
                places[("OUTPUT", sig)] = (line_no, col)
            continue
        m = _REF_GATE_RE.fullmatch(code)
        if m:
            out, kind, args = m.group(1), m.group(2), m.group(3)
            kind_u = kind.upper()
            if kind_u not in _REF_KINDS:
                raise BenchParseError(f"unknown gate kind '{kind}'", line_no, raw.find(kind) + 1)
            in_names = tuple(part.strip() for part in args.split(","))
            if not all(_REF_ID_RE.fullmatch(n) for n in in_names):
                raise BenchParseError(f"bad gate input list '{args.strip()}'",
                                      line_no, raw.find("(") + 2)
            if kind_u in _REF_UNARY and len(in_names) != 1:
                raise BenchParseError(f"{kind_u} takes exactly 1 input, got {len(in_names)}",
                                      line_no, col0)
            if kind_u not in _REF_UNARY and len(in_names) < 2:
                raise BenchParseError(f"{kind_u} takes at least 2 inputs, got {len(in_names)}",
                                      line_no, col0)
            gate_stmts.append((out, "BUF" if kind_u == "BUFF" else kind_u, in_names, line_no, raw))
            continue
        raise BenchParseError(f"syntax error near '{code}'", line_no, col0)

    driven: set[str] = set()
    for n in input_names:
        if n in driven:
            raise BenchParseError(f"signal '{n}' multiply driven (duplicate INPUT)",
                                  *places[("INPUT", n)])
        driven.add(n)
    for out, _, _, line_no, raw in gate_stmts:
        if out in driven:
            raise BenchParseError(f"signal '{out}' multiply driven", line_no, raw.find(out) + 1)
        driven.add(out)
    for out, _, ins, line_no, raw in gate_stmts:
        for a in ins:
            if a not in driven:
                raise BenchParseError(f"undeclared signal '{a}' used as input of '{out}'",
                                      line_no, raw.rfind(a) + 1)
    for n in output_names:
        if n not in driven:
            raise BenchParseError(f"undeclared signal '{n}' used as OUTPUT",
                                  *places[("OUTPUT", n)])

    ids = {n: k for k, n in enumerate(input_names + [out for out, *_ in gate_stmts])}
    try:
        ordered = multipass_gate_order(input_names, [stmt[:3] for stmt in gate_stmts])
    except ValueError as exc:  # the message quotes the first statement left unplaced
        stuck = str(exc).split("'")[1]
        raise BenchParseError(str(exc), next(ln for out, _, _, ln, _ in gate_stmts
                                             if out == stuck)) from None
    return Circuit(name=name, signal_names=tuple(ids),
                   inputs=tuple(ids[n] for n in input_names),
                   outputs=tuple(ids[n] for n in output_names),
                   gates=tuple(Gate(ids[out], kind, tuple(ids[i] for i in ins))
                               for out, kind, ins in ordered))


def recursive_signal_values(circuit: Circuit, pattern) -> dict[str, int]:
    """Every signal's value by name, by recursion over named gate
    expressions (no topo order used)."""
    names = circuit.signal_names
    exprs = {names[g.output]: (g.kind, [names[i] for i in g.inputs]) for g in circuit.gates}
    values = {names[i]: b for i, b in zip(circuit.inputs, pattern)}

    def value_of(sig: str) -> int:
        if sig in values:
            return values[sig]
        kind, ins = exprs[sig]
        bits = [value_of(i) for i in ins]
        if kind == "AND":
            v = int(all(bits))
        elif kind == "NAND":
            v = int(not all(bits))
        elif kind == "OR":
            v = int(any(bits))
        elif kind == "NOR":
            v = int(not any(bits))
        elif kind == "XOR":
            v = sum(bits) % 2
        elif kind == "XNOR":
            v = (sum(bits) + 1) % 2
        elif kind == "NOT":
            v = 1 - bits[0]
        else:  # BUF
            v = bits[0]
        values[sig] = v
        return v

    for name in names:
        value_of(name)
    return values


def recursive_truth_table_eval(circuit: Circuit, pattern) -> tuple[int, ...]:
    """Output values, read off :func:`recursive_signal_values`."""
    values = recursive_signal_values(circuit, pattern)
    return tuple(values[circuit.signal_names[o]] for o in circuit.outputs)


def rewrite_faulty_circuit(bench_text: str, circuit: Circuit, fault: Fault) -> Circuit:
    """The faulted circuit obtained by textual netlist rewriting.

    The faulted signal's driver is replaced by a constant gate
    (XOR(w, w) = 0, XNOR(w, w) = 1); a faulted primary input is first
    renamed so patterns still line up positionally.
    """
    sig = circuit.signal_names[fault.signal]
    const_kind = "XNOR" if fault.stuck_value else "XOR"
    lines = [ln for ln in bench_text.splitlines() if ln.split("#", 1)[0].strip()]

    if fault.signal in circuit.inputs:
        free = f"{sig}__free"
        rewritten = []
        for ln in lines:
            stripped = ln.split("#", 1)[0].strip()
            if stripped.upper().startswith("INPUT") and f"({sig})" in stripped.replace(" ", ""):
                rewritten.append(f"INPUT({free})")
                rewritten.append(f"{sig} = {const_kind}({free}, {free})")
            else:
                rewritten.append(ln)
        text = "\n".join(rewritten)
    else:
        helper = circuit.signal_names[circuit.inputs[0]]
        rewritten = []
        for ln in lines:
            stripped = ln.split("#", 1)[0].strip()
            if "=" in stripped and stripped.split("=", 1)[0].strip() == sig:
                rewritten.append(f"{sig} = {const_kind}({helper}, {helper})")
            else:
                rewritten.append(ln)
        text = "\n".join(rewritten)

    return parse_bench(text)


def rewrite_fault_response(bench_text: str, circuit: Circuit, fault: Fault, pattern):
    """Response of the faulted circuit under one pattern, by netlist rewriting."""
    return evaluate(rewrite_faulty_circuit(bench_text, circuit, fault), pattern)


def pattern_bits(code: int, num_inputs: int) -> tuple[int, ...]:
    """The pattern a code stands for: input ``j`` carries ``(code >> j) & 1``."""
    return tuple((code >> j) & 1 for j in range(num_inputs))


def seeded_patterns_reference(num_inputs: int, count: int, seed: int):
    """``faultsim.random_patterns``' codes, drawn the same way, each
    unpacked bit by bit."""
    rng = random.Random(seed)
    total = 1 << num_inputs
    codes = rng.sample(range(total), min(count, total)) if num_inputs < 63 else {}
    while len(codes) < min(count, total):
        codes[rng.getrandbits(num_inputs)] = None
    return [pattern_bits(code, num_inputs) for code in codes]


def per_pattern_input_words(patterns, num_inputs: int) -> list[int]:
    """Per input ``j``, the word whose bit ``p`` is ``patterns[p][j]``,
    packed one pattern at a time."""
    return [sum(pat[j] << p for p, pat in enumerate(patterns)) for j in range(num_inputs)]


# (reduction over the input words, invert the result) per gate kind
_PACKED_GATES = {
    "AND": (operator.and_, False), "NAND": (operator.and_, True),
    "OR": (operator.or_, False), "NOR": (operator.or_, True),
    "XOR": (operator.xor, False), "XNOR": (operator.xor, True),
    "NOT": (operator.and_, True), "BUF": (operator.and_, False),
}


def full_pass_fault_words(circuit: Circuit, patterns):
    """Reference fault dictionary words: every gate re-simulated per fault.

    Returns ``(fault_words, free_words)`` in the layout of
    ``FaultDictionary``, faults in ``enumerate_faults`` order.
    """
    mask = (1 << len(patterns)) - 1
    packed_inputs = per_pattern_input_words(patterns, len(circuit.inputs))

    def run(stuck_signal=-1, stuck_word=0):
        words = [0] * circuit.signal_count
        for sid, w in zip(circuit.inputs, packed_inputs):
            words[sid] = w
        if stuck_signal >= 0:
            words[stuck_signal] = stuck_word
        for out, kind, ins in circuit.gates:
            if out == stuck_signal:
                continue
            op, invert = _PACKED_GATES[kind]
            w = reduce(op, (words[i] for i in ins))
            words[out] = w ^ mask if invert else w
        return tuple(words[o] for o in circuit.outputs)

    fault_words = tuple(run(f.signal, f.stuck_value * mask) for f in enumerate_faults(circuit))
    return fault_words, run()


def prefix_replay_candidate_sets(fault_words, free_words, injected_idx: int):
    """Candidate sets per failing pattern from packed rows, two clauses per prefix.

    ``fault_words`` and ``free_words`` are rows in the ``FaultDictionary``
    layout, e.g. from :func:`full_pass_fault_words`.  For each failing
    pattern ``p`` every fault is tested afresh over the whole prefix
    ``0..p``: it must match the injected fault's response on the failing
    patterns and the fault-free response on the passing ones.

    Returns (failing_indices_1based, [set of fault indices per k]).
    """
    def differs(row_a, row_b):
        acc = 0
        for wa, wb in zip(row_a, row_b):
            acc |= wa ^ wb
        return acc

    injected_row = fault_words[injected_idx]
    fail = differs(injected_row, free_words)
    assert fail, "prefix replay called with an undetected fault"
    vs_injected = [differs(row, injected_row) for row in fault_words]
    vs_free = [differs(row, free_words) for row in fault_words]
    failing = [p for p in range(fail.bit_length()) if (fail >> p) & 1]
    sets = []
    for pk in failing:
        prefix = (2 << pk) - 1
        sets.append({f for f in range(len(fault_words))
                     if not (vs_injected[f] & fail & prefix)
                     and not (vs_free[f] & ~fail & prefix)})
    return [p + 1 for p in failing], sets


def first_difference_indices(fault_words, num_patterns: int):
    """A function of an injected fault's index giving, per fault, the first
    pattern under which its row differs from the injected fault's row, or
    ``num_patterns`` where none does.

    Each row is repacked pattern-major, bit ``p * O + j`` holding output
    ``j`` under pattern ``p``, so one XOR per pair of faults and its lowest
    set bit find the pattern.
    """
    def pattern_major(row) -> int:
        columns = [format(w, f"0{num_patterns}b")[::-1] for w in row]
        return int("".join(map("".join, zip(*columns)))[::-1] or "0", 2)

    width = len(fault_words[0]) if fault_words else 0
    packed = [pattern_major(row) for row in fault_words]

    def indices(injected_idx: int) -> list[int]:
        inj = packed[injected_idx]
        out = []
        for x in packed:
            x ^= inj
            out.append(((x & -x).bit_length() - 1) // width if x else num_patterns)
        return out
    return indices


def union_cone_gate_count(stem_slots, reach) -> int:
    """The gate evaluations of a stem-flip build: per batch, the gates in the
    union of its stems' ``reach`` cones.

    ``stem_slots[s]`` is ``(batch, offset)`` for a flipped stem, None
    otherwise, as ``faultsim._flip_stems`` returns them.
    """
    cones: dict[int, int] = {}
    for s, slot in enumerate(stem_slots):
        if slot is not None:
            cones[slot[0]] = cones.get(slot[0], 0) | reach[s]
    return sum(bin(cone).count("1") for cone in cones.values())


def read_dictionary_text(text: str):
    """Parse a ``.dict`` export into ``(header, rows)``.

    ``rows`` holds one ``(signal_name, stuck_value, words)`` per fault line,
    ``words`` the per-output hex fields read back as ints.  Fields are split
    on single spaces, so a doubled or trailing space shows up as an empty
    field and is rejected, as is any word not in canonical lowercase hex.
    """
    if not text.endswith("\n"):
        raise ValueError("export does not end in a newline")
    header, *lines = text[:-1].split("\n")
    rows = []
    for line in lines:
        name, stuck, *fields = line.split(" ")
        words = tuple(int(w, 16) for w in fields)
        if [format(w, "x") for w in words] != fields:
            raise ValueError(f"non-canonical hex word in {line!r}")
        rows.append((name, int(stuck), words))
    return header, rows


def oracle_candidate_sets(circuit: Circuit, patterns, injected: Fault):
    """Brute-force candidate sets per failing pattern.

    Re-simulates every fault against every pattern by netlist rewriting
    (never through the production fault simulator), then for each failing
    pattern filters the whole fault list over the full prefix with the
    literal two-clause rule: match the observed response on failing
    patterns, match fault-free on passing ones.

    Returns (failing_indices_1based, [set of fault indices per k]).
    """
    faults = enumerate_faults(circuit)
    bench_text = format_bench(circuit)
    free = [evaluate(circuit, p) for p in patterns]
    sims = []
    for f in faults:
        faulty = rewrite_faulty_circuit(bench_text, circuit, f)
        sims.append([evaluate(faulty, p) for p in patterns])
    inj = faults.index(injected)
    failing = [i for i in range(len(patterns)) if sims[inj][i] != free[i]]
    assert failing, "oracle called with an undetected fault"

    sets = []
    for pk in failing:
        keep = set()
        for fi in range(len(faults)):
            ok = True
            for j in range(pk + 1):
                observed = sims[inj][j]
                if observed != free[j]:
                    if sims[fi][j] != observed:
                        ok = False
                        break
                elif sims[fi][j] != free[j]:
                    ok = False
                    break
            if ok:
                keep.add(fi)
        sets.append(keep)
    return [i + 1 for i in failing], sets


def proximal_gradient_lasso(X, Y, alpha, tol=1e-14, max_iter=1000000):
    """Minimize ||b0 + X b - Y||^2 / (2n) + alpha ||b||_1 over the n rows
    (intercept b0 unpenalized) by proximal gradient steps of length 1/L,
    L the largest eigenvalue of the smooth part's Hessian, each followed by
    soft-thresholding of b.  Returns ``(b0, b)``."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    n = X.shape[0]
    A = np.column_stack([np.ones(n), X])
    step = 1.0 / np.linalg.eigvalsh(A.T @ A / n).max()
    w = np.zeros(A.shape[1])
    for _ in range(max_iter):
        z = w - step * (A.T @ (A @ w - Y)) / n
        z[1:] = np.sign(z[1:]) * np.maximum(np.abs(z[1:]) - step * alpha, 0.0)
        done = np.abs(z - w).max() < tol
        w = z
        if done:
            break
    return w[0], w[1:]


def newton_logistic(Phi, y, lam, tol=1e-13, max_iter=200):
    """Minimize the regularized logistic cost (intercept weight unpenalized)
    by damped Newton steps.  Returns ``(theta, cost)``."""
    Phi = np.asarray(Phi, float)
    y = np.asarray(y, float)
    m, k = Phi.shape
    pen = np.full(k, lam / m)
    pen[0] = 0.0

    def cost(theta):
        z = Phi @ theta
        return float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * np.sum(pen * theta ** 2))

    theta = np.zeros(k)
    for _ in range(max_iter):
        h = 1.0 / (1.0 + np.exp(-(Phi @ theta)))
        grad = Phi.T @ (h - y) / m + pen * theta
        if np.linalg.norm(grad) < tol:
            break
        hess = (Phi.T * (h * (1.0 - h))) @ Phi / m + np.diag(pen)
        step = np.linalg.solve(hess, grad)
        current, t = cost(theta), 1.0
        while cost(theta - t * step) > current - 1e-4 * t * (grad @ step) and t > 1e-12:
            t *= 0.5
        if cost(theta - t * step) >= current:
            break
        theta = theta - t * step
    return theta, cost(theta)


def central_difference_gradient(cost_fn, theta, step=1e-5):
    """Coordinate-wise central finite differences of a scalar function."""
    theta = np.asarray(theta, float)
    grad = np.empty_like(theta)
    for j in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[j] += step
        dn[j] -= step
        grad[j] = (cost_fn(up) - cost_fn(dn)) / (2.0 * step)
    return grad


def rbf_map_reference(x, landmarks, gamma):
    """Feature vector [1, exp(-gamma ||x - l_j||^2) for each landmark j],
    each squared distance summed from coordinate differences."""
    x = np.asarray(x, float)
    d2 = ((np.asarray(landmarks, float) - x) ** 2).sum(axis=1)
    return np.concatenate([[1.0], np.exp(-gamma * d2)])


def rbf_features_one_shot(X, landmarks, gamma):
    """The expanded-norm RBF map in one expression over all rows, with the
    constant feature stacked in front."""
    X = np.asarray(X, dtype=float)
    L = np.asarray(landmarks, dtype=float)
    x_sq = (X ** 2).sum(axis=1)[:, None]
    l_sq = (L ** 2).sum(axis=1)[None, :]
    d2 = np.maximum(x_sq + l_sq - 2.0 * X @ L.T, 0.0)
    phi = np.exp(-gamma * d2)
    return np.column_stack([np.ones(X.shape[0]), phi])


def lbfgs_every_trial(Phi, y_bin, lam, iterations):
    """The kernel-logistic L-BFGS loop from theta = 0, with the cost and the
    gradient taken together by ``logistic_cost_grad`` at every line-search
    trial.  Returns ``(theta, costs, grad_norm, backtracks)``: the final
    weights, the cost history, the final gradient norm, and the number of
    rejected trials."""
    from testtrim.models import (ARMIJO_C1, GRAD_TOL, LBFGS_MEMORY, MAX_BACKTRACKS,
                                 _lbfgs_direction, logistic_cost_grad)

    theta = np.zeros(Phi.shape[1])
    cost, grad = logistic_cost_grad(theta, Phi, y_bin, lam)
    costs, pairs, backtracks = [cost], [], 0
    grad_norm = float(np.linalg.norm(grad))
    while grad_norm >= GRAD_TOL and len(costs) <= iterations:
        direction = _lbfgs_direction(grad, grad_norm, pairs[-LBFGS_MEMORY:])
        slope = float(grad @ direction)
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = theta + step * direction
            trial_cost, trial_grad = logistic_cost_grad(trial, Phi, y_bin, lam)
            if trial_cost < cost and trial_cost <= cost + ARMIJO_C1 * step * slope:
                break
            step *= 0.5
            backtracks += 1
        else:
            break
        s, y = trial - theta, trial_grad - grad
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, sy))
        theta, cost, grad = trial, trial_cost, trial_grad
        costs.append(cost)
        grad_norm = float(np.linalg.norm(grad))
    return theta, costs, grad_norm, backtracks


def sigmoid_reference(z: float) -> float:
    """1 / (1 + e^-z) with ``math.exp``; 0.0 where e^-z overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:
        return 0.0


def naive_sigmoid_dot(theta, phi):
    """Straight-line sigmoid(theta . phi) with an explicit loop."""
    acc = 0.0
    for t, p in zip(theta, phi):
        acc += float(t) * float(p)
    return sigmoid_reference(acc)


def per_trace_stop(model, standardizer, trace, tau):
    """Reference stop decision for one trace, one row at a time.

    Each row's five features are built from the trace, standardized and
    scored on their own: a linear model's prediction clamped to [0, 1], or a
    kernel model's sigmoid over its RBF landmark distances clamped to
    [PROB_EPS, 1 - PROB_EPS].  The rows are walked to the first score >= tau,
    else to the last row.  Returns ``(k_star, terminated_pattern, scores)``.
    """
    # imported here: the benchmark's corpus check loads this module without models
    from testtrim.models import PROB_EPS, LinearModel

    failing = trace.failing_indices
    scores = []
    for k, idx in enumerate(failing, start=1):
        x = np.array([trace.num_inputs, k, failing[0], idx, failing[-1]], dtype=float)
        z = np.where(standardizer.constant, x, (x - standardizer.mean) / standardizer.scale)
        if isinstance(model, LinearModel):
            score = min(max(model.intercept + float(np.dot(model.beta, z)), 0.0), 1.0)
        else:
            dist2 = np.sum((model.landmarks - z) ** 2, axis=1)
            score = sigmoid_reference(float(model.theta[0] + np.dot(
                model.theta[1:], np.exp(-model.gamma * dist2))))
            score = min(max(score, PROB_EPS), 1.0 - PROB_EPS)
        scores.append(score)
    k_star = next((k for k, score in enumerate(scores, start=1) if score >= tau),
                  len(failing))
    return k_star, failing[k_star - 1], np.array(scores)
