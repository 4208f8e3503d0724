"""Run configuration: one flat key=value text file holds every knob and seed.

No hidden entropy anywhere: corpus synthesis, splitting, landmark
subsampling and threshold selection all read their seeds from here, so a
config file pins an experiment completely.  Configs round-trip through
their file format unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping


@dataclass
class RunConfig:
    corpus_netlist_dir: str | None = None     # None: use the built-in generator
    corpus_circuits: int = 150
    corpus_patterns: int | str = 208          # budget per circuit (capped at 2^k) or 'exhaustive'
    corpus_seed: int = 7
    corpus_min_inputs: int = 5
    corpus_max_inputs: int = 10
    corpus_min_gates: int = 18
    corpus_max_gates: int = 54
    split_train_fraction: float = 0.7
    split_validation_fraction: float = 0.25   # carved out of the train side
    split_seed: int = 1
    model_kind: str = "kernel-logistic"       # or 'linear'
    model_alpha: float = 1e-3
    model_penalty: str = "l2"
    model_lambda: float = 1.0
    model_gamma: float = 1.0
    model_iterations: int = 2000
    model_landmark_cap: int = 512
    model_seed: int = 3
    policy_tau: float | str = "auto"
    out_dir: str = "runs/default"


def _parse_patterns(v: str) -> int | str:
    return "exhaustive" if v == "exhaustive" else int(v)


def _parse_tau(v: str) -> float | str:
    return "auto" if v == "auto" else float(v)


def _parse_optional_str(v: str) -> str | None:
    return v or None


# file key -> (attribute, parser)
_KEYS: dict[str, tuple[str, object]] = {
    "corpus.netlist_dir": ("corpus_netlist_dir", _parse_optional_str),
    "corpus.circuits": ("corpus_circuits", int),
    "corpus.patterns": ("corpus_patterns", _parse_patterns),
    "corpus.seed": ("corpus_seed", int),
    "corpus.min_inputs": ("corpus_min_inputs", int),
    "corpus.max_inputs": ("corpus_max_inputs", int),
    "corpus.min_gates": ("corpus_min_gates", int),
    "corpus.max_gates": ("corpus_max_gates", int),
    "split.train_fraction": ("split_train_fraction", float),
    "split.validation_fraction": ("split_validation_fraction", float),
    "split.seed": ("split_seed", int),
    "model.kind": ("model_kind", str),
    "model.alpha": ("model_alpha", float),
    "model.penalty": ("model_penalty", str),
    "model.lambda": ("model_lambda", float),
    "model.gamma": ("model_gamma", float),
    "model.iterations": ("model_iterations", int),
    "model.landmark_cap": ("model_landmark_cap", int),
    "model.seed": ("model_seed", int),
    "policy.tau": ("policy_tau", _parse_tau),
    "out.dir": ("out_dir", str),
}


def config_from_text(text: str, overrides: Mapping[str, str] | None = None) -> RunConfig:
    """Parse a config file's text, apply ``overrides`` on top, then validate.

    ``overrides`` maps file keys to value text, parsed exactly like a file
    line; the command-line flags arrive this way, so the config they yield
    passes the same checks as a config file would.
    """
    cfg = RunConfig()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        _set(cfg, key.strip(), value.strip(), f"config line {line_no}")
    for key, value in (overrides or {}).items():
        _set(cfg, key, value, "override")
    _validate(cfg)
    return cfg


def _set(cfg: RunConfig, key: str, value: str, where: str) -> None:
    if key not in _KEYS:
        raise ValueError(f"{where}: unknown key {key!r}")
    attr, parse = _KEYS[key]
    try:
        setattr(cfg, attr, parse(value))
    except ValueError:
        raise ValueError(f"{where}: bad value for {key!r}: {value!r}") from None


def config_to_text(cfg: RunConfig, include_out_dir: bool = True) -> str:
    lines = []
    for key, (attr, _) in _KEYS.items():
        if key == "out.dir" and not include_out_dir:
            continue
        value = getattr(cfg, attr)
        if value is None:
            value = ""
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path, overrides: Mapping[str, str] | None = None) -> RunConfig:
    with open(path) as fh:
        return config_from_text(fh.read(), overrides)


def save_config(cfg: RunConfig, path, include_out_dir: bool = True) -> None:
    with open(path, "w") as fh:
        fh.write(config_to_text(cfg, include_out_dir=include_out_dir))


def _validate(cfg: RunConfig) -> None:
    if cfg.model_kind not in ("linear", "kernel-logistic"):
        raise ValueError(f"model.kind must be 'linear' or 'kernel-logistic', "
                         f"got {cfg.model_kind!r}")
    if cfg.model_penalty not in ("l2", "l1"):
        raise ValueError(f"model.penalty must be 'l2' or 'l1', got {cfg.model_penalty!r}")
    if isinstance(cfg.corpus_patterns, int) and cfg.corpus_patterns < 1:
        raise ValueError("corpus.patterns must be at least 1")
    if not 0.0 < cfg.split_train_fraction < 1.0:
        raise ValueError("split.train_fraction must be in (0, 1)")
    if not 0.0 <= cfg.split_validation_fraction < 1.0:
        raise ValueError("split.validation_fraction must be in [0, 1)")
    if isinstance(cfg.policy_tau, float) and not 0.0 < cfg.policy_tau < 1.0:
        raise ValueError("policy.tau must be in (0, 1) or 'auto'")
