"""Span tracing of testtrim from the outside.

:meth:`Tracer.install` wraps every public function defined in the traced
modules.  Modules import these functions by name (``from .faultsim import
build_fault_dictionary``), so each wrapper is bound under every name any
testtrim module looks it up by, not only in the defining module.  Spans are
kept in memory as ``[name, start, end, parent]``; a few wrappers also record
work counts, and :meth:`Tracer.summary` reduces everything to additive sums.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("netlist", "generator", "faultsim", "diagnosis", "dataset",
          "corpus", "models", "evaluation", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = {}
        self._fits: list[tuple] = []
        self._dict_paths: list[str] = []
        self._corpora: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        record = getattr(self, "_record_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if record is not None:
                record(result, *args, **kwargs)
            return result
        return wrapper

    def install(self) -> None:
        import testtrim.cli  # noqa: F401  (loads every module)
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"testtrim.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "testtrim" and not modname.startswith("testtrim."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    # Recorders run after the span closes and do O(1) work; anything heavier
    # is stashed and evaluated in summary(), outside every span.

    def _record_faultsim_build_fault_dictionary(self, fdict, *args, **kwargs):
        self._add("faultsim.builds", 1)
        self._add("faultsim.fault_patterns", len(fdict.faults) * fdict.num_patterns)

    def _record_faultsim_write_dictionary(self, _result, fdict, path, *args, **kwargs):
        self._dict_paths.append(os.fspath(path))

    def _record_diagnosis_trace_diagnosis(self, trace, *args, **kwargs):
        self._add("diagnosis.traces", 1)
        self._add("diagnosis.failing_patterns", trace.num_failing)
        self._add("diagnosis.replayed_patterns", trace.failing_indices[-1])
        self._add("diagnosis.golden_sum", trace.golden_size)

    def _record_dataset_dataset_from_traces(self, dataset, *args, **kwargs):
        self._add("dataset.rows", len(dataset))

    def _record_corpus_build_corpus(self, corpus, *args, **kwargs):
        self._corpora.append(corpus)

    def _record_models_fit_kernel_logistic(self, model, X_train, y_bin, lam, gamma,
                                           *args, **kwargs):
        self._fits.append((model, X_train, y_bin, lam))

    def summary(self) -> dict:
        """Additive sums: per-name inclusive time and calls, per-layer self
        time, and the work counts.  Sums from several processes add up."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[i]

        counts = dict(self.counts)
        for corpus in self._corpora:
            counts["corpus.kept_circuits"] = counts.get("corpus.kept_circuits", 0) + len(corpus.circuits)
            for fdict in corpus.dictionaries:
                counts["faultsim.faults"] = counts.get("faultsim.faults", 0) + len(fdict.faults)
                counts["faultsim.detected"] = (counts.get("faultsim.detected", 0)
                                               + len(fdict.detected_fault_indices()))
        counts["faultsim.dict_bytes"] = float(sum(os.path.getsize(p) for p in self._dict_paths))
        if self._fits:
            from testtrim.models import logistic_cost_grad, rbf_features
            import numpy as np
            last = self._fits[-1]
            for model, X_train, y_bin, lam in self._fits:
                counts["models.fit_iterations"] = (counts.get("models.fit_iterations", 0)
                                                   + len(model.cost_history))
                counts["models.fit_rows"] = counts.get("models.fit_rows", 0) + len(y_bin)
                counts["models.fit_positive"] = (counts.get("models.fit_positive", 0)
                                                 + float(np.sum(y_bin)))
            # gradient norm where the last fit stopped (its theta is final)
            model, X_train, y_bin, lam = last
            phi = rbf_features(X_train, model.landmarks, model.gamma)
            _, grad = logistic_cost_grad(model.theta, phi, y_bin, lam)
            counts["models.final_grad_norm"] = float(np.linalg.norm(grad))
        return {"inclusive": inclusive, "calls": calls, "self": self_s, "counts": counts}
