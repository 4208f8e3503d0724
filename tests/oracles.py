"""Independent reference implementations the tests check the package against.

Everything here deliberately avoids the package's production code paths:
the truth-table evaluator recurses over name-level gate expressions, the
fault oracle rewrites netlist text and reuses only the fault-free
evaluator, the full-pass dictionary builder re-simulates every gate for
every fault with its own packed gate table, the candidate oracle gets
its responses from the fault oracle and rescans full pattern prefixes with
the two-clause consistency definition instead of incremental filtering,
the dictionary writer unpacks every response bit by bit, the logistic
minimizer takes damped Newton steps on its own cost, gradient and Hessian,
and the sigmoid calls libm's exp one value at a time.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np

from testtrim.faultsim import Fault, enumerate_faults
from testtrim.netlist import Circuit, evaluate, format_bench, parse_bench


def recursive_truth_table_eval(circuit: Circuit, pattern) -> tuple[int, ...]:
    """Evaluate by recursion over named gate expressions (no topo order used)."""
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

    return tuple(value_of(names[o]) for o in circuit.outputs)


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
    packed_inputs = [sum(pat[j] << p for p, pat in enumerate(patterns))
                     for j in range(len(circuit.inputs))]

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


def bitwise_dictionary_text(fdict) -> str:
    """The ``.dict`` export built one ``response()`` call per (fault, pattern)."""
    circuit = fdict.circuit
    names = circuit.signal_names
    lines = [
        f"# circuit={circuit.name} signals={circuit.signal_count} "
        f"faults={len(fdict.faults)} patterns={fdict.num_patterns} seed={fdict.seed}"
    ]
    for fi, fault in enumerate(fdict.faults):
        for p in range(fdict.num_patterns):
            bits = "".join(str(b) for b in fdict.response(fi, p))
            lines.append(f"{names[fault.signal]} {fault.stuck_value} {p} {bits}")
    return "\n".join(lines) + "\n"


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


def gradient_descent_ridge(X, Y, alpha, fit_intercept=True, tol=1e-12, max_iter=500000):
    """Minimize ||A w - Y||^2 + alpha ||w_pen||^2 by plain gradient descent."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    n = X.shape[0]
    A = np.column_stack([np.ones(n), X]) if fit_intercept else X
    d = A.shape[1]
    pen = np.full(d, float(alpha))
    if fit_intercept:
        pen[0] = 0.0
    H = 2.0 * (A.T @ A) + 2.0 * np.diag(pen)
    lr = 1.0 / np.linalg.eigvalsh(H).max()
    w = np.zeros(d)
    for _ in range(max_iter):
        grad = 2.0 * (A.T @ (A @ w - Y)) + 2.0 * pen * w
        if np.linalg.norm(grad) < tol:
            break
        w = w - lr * grad
    return (w[0], w[1:]) if fit_intercept else (0.0, w)


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
