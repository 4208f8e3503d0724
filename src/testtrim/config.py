"""Run configuration: one flat key=value text file holds every knob and seed.

No hidden entropy anywhere: corpus synthesis, splitting, landmark
subsampling and threshold selection all read their seeds from here, so a
config file pins an experiment completely.  Configs round-trip through
their file format unchanged.

:class:`RunConfig` alone states each setting's key, parser and default.
Field ``corpus_seed`` is key ``corpus.seed``: the first underscore becomes a
dot.  A field's type parses its value, and the word-valued
``corpus.netlist_dir``, ``corpus.patterns`` and ``policy.tau`` name their
parsers.  ``generate`` records the ``corpus.*`` and ``split.*`` keys in
``config.txt`` (``CORPUS_KEYS``), and ``train`` the ``model.*`` keys and
``policy.tau`` in ``model.txt`` (``MODEL_KEYS``).
"""

import math
from dataclasses import dataclass, field, fields
from typing import Mapping


def _parse_patterns(v: str) -> int | str:
    return "exhaustive" if v == "exhaustive" else int(v)


def _parse_tau(v: str) -> float | str:
    return "auto" if v == "auto" else float(v)


def _parse_optional_str(v: str) -> str | None:
    return v or None


def _word_valued(default, parse):
    return field(default=default, metadata={"parse": parse})


@dataclass
class RunConfig:
    corpus_netlist_dir: str | None = _word_valued(None, _parse_optional_str)  # None: generate
    corpus_circuits: int = 150
    corpus_patterns: int | str = _word_valued(208, _parse_patterns)  # per circuit, or 'exhaustive'
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
    model_lambda: float = 1.0
    model_gamma: float = 1.0
    model_iterations: int = 2000
    model_landmark_cap: int = 512
    model_seed: int = 3
    policy_tau: float | str = _word_valued("auto", _parse_tau)
    out_dir: str = "runs/default"


# file key -> (attribute, parser), in field order
_KEYS = {f.name.replace("_", ".", 1): (f.name, f.metadata.get("parse", f.type))
         for f in fields(RunConfig)}


def config_from_text(text: str, overrides: Mapping[str, str] | None = None) -> RunConfig:
    """Parse a config file's text, apply ``overrides`` on top, then validate.

    A key set on two lines of ``text`` is refused.  ``overrides`` maps file
    keys to value text, parsed exactly like a file line; the command-line
    flags arrive this way, so the config they yield passes the same checks
    as a config file would.
    """
    cfg = RunConfig()
    first_set: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_set:
            raise ValueError(f"config lines {first_set[key]} and {line_no} both set {key!r}")
        first_set[key] = line_no
        _set(cfg, key, value.strip(), f"config line {line_no}")
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


CORPUS_KEYS = ("corpus.", "split.")
MODEL_KEYS = ("model.", "policy.")


def config_to_text(cfg: RunConfig, prefixes: tuple[str, ...] = ("",)) -> str:
    """One ``key = value`` line per key that starts with one of ``prefixes``
    (by default every key), in file order."""
    return "".join(f"{key} = {_text(getattr(cfg, attr))}\n"
                   for key, (attr, _) in _KEYS.items() if key.startswith(prefixes))


def check_same_settings(cfg: RunConfig, record: RunConfig, source,
                        prefixes: tuple[str, ...]) -> None:
    """Raise ``ValueError`` naming the first key starting with one of
    ``prefixes`` whose value in ``cfg`` differs from ``record``, the
    settings that ``source`` recorded: a stage reads the corpus and the
    split that ``generate`` recorded, and the model that ``train`` did."""
    for key, (attr, _) in _KEYS.items():
        if key.startswith(prefixes) and getattr(cfg, attr) != getattr(record, attr):
            raise ValueError(f"{key} = {_text(getattr(cfg, attr))} differs from "
                             f"{_text(getattr(record, attr))} recorded in {source}")


def _text(value) -> str:
    return "" if value is None else str(value)


def load_config(path, overrides: Mapping[str, str] | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return config_from_text(text, overrides)


def save_config(cfg: RunConfig, path, prefixes: tuple[str, ...] = ("",)) -> None:
    with open(path, "w") as fh:
        fh.write(config_to_text(cfg, prefixes))


def _validate(cfg: RunConfig) -> None:
    if cfg.model_kind not in ("linear", "kernel-logistic"):
        raise ValueError(f"model.kind must be 'linear' or 'kernel-logistic', "
                         f"got {cfg.model_kind!r}")
    if isinstance(cfg.corpus_patterns, int) and cfg.corpus_patterns < 1:
        raise ValueError("corpus.patterns must be at least 1")
    for key, value in (("corpus.circuits", cfg.corpus_circuits),
                       ("corpus.min_inputs", cfg.corpus_min_inputs),
                       ("corpus.min_gates", cfg.corpus_min_gates),
                       ("model.iterations", cfg.model_iterations),
                       ("model.landmark_cap", cfg.model_landmark_cap)):
        if value < 1:
            raise ValueError(f"{key} must be at least 1, got {value}")
    if cfg.corpus_min_inputs > cfg.corpus_max_inputs:
        raise ValueError(f"corpus.min_inputs {cfg.corpus_min_inputs} is above "
                         f"corpus.max_inputs {cfg.corpus_max_inputs}")
    if cfg.corpus_min_gates > cfg.corpus_max_gates:
        raise ValueError(f"corpus.min_gates {cfg.corpus_min_gates} is above "
                         f"corpus.max_gates {cfg.corpus_max_gates}")
    for key, value in (("model.alpha", cfg.model_alpha), ("model.lambda", cfg.model_lambda)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{key} must be finite and non-negative, got {value}")
    if not 0.0 < cfg.model_gamma < math.inf:
        raise ValueError(f"model.gamma must be finite and positive, got {cfg.model_gamma}")
    if not 0.0 < cfg.split_train_fraction < 1.0:
        raise ValueError("split.train_fraction must be in (0, 1)")
    if not 0.0 <= cfg.split_validation_fraction < 1.0:
        raise ValueError("split.validation_fraction must be in [0, 1)")
    if isinstance(cfg.policy_tau, float) and not 0.0 < cfg.policy_tau < 1.0:
        raise ValueError("policy.tau must be in (0, 1) or 'auto'")
