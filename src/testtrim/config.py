"""Run configuration: one flat key=value text file holds every knob and seed.

No hidden entropy anywhere: corpus synthesis, splitting, landmark
subsampling and threshold selection all read their seeds from here, so a
config file pins an experiment completely.  Configs round-trip through
their file format unchanged.

:class:`RunConfig` alone states each setting's key, parser, range check
and default.  Field ``corpus_seed`` is key ``corpus.seed``: the first
underscore becomes a dot.  A field's type parses its value, and the
word-valued ``corpus.netlist_dir``, ``corpus.patterns`` and ``policy.tau``
name their parsers.  A value is checked as it is set, from a file line or
a flag, so its error names the file and the line, or the flag; only the
two min <= max checks wait for the whole config.  ``generate`` records
the ``corpus.*`` and ``split.*`` keys in ``config.txt`` (``CORPUS_KEYS``),
and ``train`` the ``model.*`` keys and ``policy.tau`` in ``model.txt``
(``MODEL_KEYS``).  A record must hold exactly its keys, in written order.
"""

import math
import re
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence


def _parse_patterns(v: str) -> int | str:
    return "exhaustive" if v == "exhaustive" else int(v)


def _parse_tau(v: str) -> float | str:
    return "auto" if v == "auto" else float(v)


def _parse_optional_str(v: str) -> str | None:
    return v or None


def _setting(default, *, parse=None, check=None):
    """A field whose value text ``parse`` reads (by default the field's
    type does) and whose parsed value must pass ``check``, a pair of a
    test and what the test asks for."""
    return field(default=default, metadata={"parse": parse, "check": check})


_AT_LEAST_ONE = (lambda v: v >= 1, "be at least 1")
_NON_NEGATIVE = (lambda v: 0.0 <= v < math.inf, "be finite and non-negative")


@dataclass
class RunConfig:
    corpus_netlist_dir: str | None = _setting(None, parse=_parse_optional_str)  # None: generate
    corpus_circuits: int = _setting(150, check=_AT_LEAST_ONE)
    corpus_patterns: int | str = _setting(     # per circuit, or 'exhaustive'
        208, parse=_parse_patterns, check=(lambda v: v == "exhaustive" or v >= 1,
                                           "be at least 1 or 'exhaustive'"))
    corpus_seed: int = 7
    corpus_min_inputs: int = _setting(5, check=_AT_LEAST_ONE)
    corpus_max_inputs: int = 10
    corpus_min_gates: int = _setting(18, check=_AT_LEAST_ONE)
    corpus_max_gates: int = 54
    split_train_fraction: float = _setting(0.7, check=(lambda v: 0.0 < v < 1.0,
                                                       "be in (0, 1)"))
    split_validation_fraction: float = _setting(  # carved out of the train side
        0.25, check=(lambda v: 0.0 <= v < 1.0, "be in [0, 1)"))
    split_seed: int = 1
    model_kind: str = _setting("kernel-logistic", check=(
        lambda v: v in ("linear", "kernel-logistic"), "be 'linear' or 'kernel-logistic'"))
    model_alpha: float = _setting(1e-3, check=_NON_NEGATIVE)
    model_lambda: float = _setting(1.0, check=_NON_NEGATIVE)
    model_gamma: float = _setting(1.0, check=(lambda v: 0.0 < v < math.inf,
                                              "be finite and positive"))
    model_iterations: int = _setting(2000, check=_AT_LEAST_ONE)
    model_landmark_cap: int = _setting(512, check=_AT_LEAST_ONE)
    model_seed: int = 3
    policy_tau: float | str = _setting("auto", parse=_parse_tau, check=(
        lambda v: v == "auto" or 0.0 < v < 1.0, "be in (0, 1) or 'auto'"))
    out_dir: str = "runs/default"


# file key -> (attribute, parser, check), in field order
_KEYS = {f.name.replace("_", ".", 1): (f.name, f.metadata.get("parse") or f.type,
                                       f.metadata.get("check"))
         for f in fields(RunConfig)}
_COMMENT = re.compile(r"(?:^|\s)#")


def config_from_text(text: str, overrides: Iterable[tuple[str, str, str]] = (),
                     source="config") -> RunConfig:
    """Parse a config file's text, apply ``overrides`` on top, then validate.

    A ``#`` at a line's start or after whitespace starts a comment; a key set
    on two lines is refused.  ``overrides`` are ``(flag, key, value text)``
    triples, each parsed and checked exactly like a file line: the flags
    arrive this way.  An error names ``source`` and its line, or the flag.
    """
    cfg = RunConfig()
    first_set: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        where = f"{source} line {line_no}"
        if "=" not in line:
            raise ValueError(f"{where}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_set:
            raise ValueError(f"{source} lines {first_set[key]} and {line_no} both set {key!r}")
        first_set[key] = line_no
        _set(cfg, key, value.strip(), where)
    for flag, key, value in overrides:
        _set(cfg, key, value, flag)
    # the checks that read two settings; _set checks each setting alone
    for low, high in (("min_inputs", "max_inputs"), ("min_gates", "max_gates")):
        lo, hi = getattr(cfg, f"corpus_{low}"), getattr(cfg, f"corpus_{high}")
        if lo > hi:
            raise ValueError(f"{source}: corpus.{low} {lo} is above corpus.{high} {hi}")
    return cfg


def _set(cfg: RunConfig, key: str, value: str, where: str) -> None:
    if key not in _KEYS:
        raise ValueError(f"{where}: unknown key {key!r}")
    attr, parse, check = _KEYS[key]
    try:
        parsed = parse(value)
    except ValueError:
        raise ValueError(f"{where}: bad value for {key!r}: {value!r}") from None
    if check is not None and not check[0](parsed):
        raise ValueError(f"{where}: {key} must {check[1]}, got {parsed!r}")
    setattr(cfg, attr, parsed)


CORPUS_KEYS = ("corpus.", "split.")
MODEL_KEYS = ("model.", "policy.")


def config_to_text(cfg: RunConfig, prefixes: tuple[str, ...] = ("",)) -> str:
    """One ``key = value`` line per key starting with one of ``prefixes`` (by
    default every key), in file order; a value that would not read back is refused."""
    pairs = [(key, _text(getattr(cfg, attr)))
             for key, (attr, _, _) in _KEYS.items() if key.startswith(prefixes)]
    for key, value in pairs:
        if len(value.splitlines()) > 1 or _COMMENT.split(" " + value, 1)[0].strip() != value:
            raise ValueError(f"{key} = {value!r} would not read back from a config file")
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def check_same_settings(cfg: RunConfig, record: RunConfig, source,
                        prefixes: tuple[str, ...]) -> None:
    """Raise ``ValueError`` naming the first key starting with one of
    ``prefixes`` whose value in ``cfg`` differs from ``record``, the
    settings that ``source`` recorded: a stage reads the corpus and the
    split that ``generate`` recorded, and the model that ``train`` did."""
    for key, (attr, _, _) in _KEYS.items():
        if key.startswith(prefixes) and getattr(cfg, attr) != getattr(record, attr):
            raise ValueError(f"{key} = {_text(getattr(cfg, attr))} differs from "
                             f"{_text(getattr(record, attr))} recorded in {source}")


def _text(value) -> str:
    return "" if value is None else str(value)


def take_line(lines: Sequence[str], at: int, key: str | None, source) -> str:
    """What follows ``key`` on ``lines[at]``, a line that must start with
    ``key`` (None: the end of the file): a record is read in written order."""
    word = re.match(r"[^\s=]*", lines[at])[0] if at < len(lines) else None
    if word != key:
        want, got = ("the end of the file" if w is None else repr(w) for w in (key, word))
        raise ValueError(f"{source} line {at + 1}: expected {want}, got {got}")
    return "" if key is None else lines[at][len(key):].strip()


def read_record(lines: Sequence[str], prefixes: tuple[str, ...], source,
                at: int = 0) -> tuple[RunConfig, int]:
    """The settings ``config_to_text(cfg, prefixes)`` wrote from ``lines[at]``
    on, each checked as a config line is, and the index of the line after them."""
    cfg = RunConfig()
    for key in (key for key in _KEYS if key.startswith(prefixes)):
        rest, where = take_line(lines, at, key, source), f"{source} line {at + 1}"
        if rest[:1] != "=":
            raise ValueError(f"{where}: expected 'key = value', got {lines[at].strip()!r}")
        _set(cfg, key, rest[1:].strip(), where)
        at += 1
    return cfg, at


def _read_text(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_config(path, overrides: Iterable[tuple[str, str, str]] = ()) -> RunConfig:
    return config_from_text(_read_text(path), overrides, source=path)


def load_record(path, prefixes: tuple[str, ...]) -> RunConfig:
    """The record ``save_config(cfg, path, prefixes)`` wrote, and no line after it."""
    lines = _read_text(path).splitlines()
    cfg, end = read_record(lines, prefixes, path)
    take_line(lines, end, None, path)
    return cfg


def save_config(cfg: RunConfig, path, prefixes: tuple[str, ...] = ("",)) -> None:
    with open(path, "w") as fh:
        fh.write(config_to_text(cfg, prefixes))
