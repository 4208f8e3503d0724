"""Command line entry point chaining the pipeline end to end.

Subcommands::

    testtrim generate     synthesize the corpus and write all data files
    testtrim train        fit the configured model, pick tau, write model.txt
    testtrim evaluate     score the trained policy on the held-out circuits
    testtrim sweep        emit the alpha sweep, weight table and learning curve
    testtrim oracle-eval  run the ground-truth scorer through the same policy

Every subcommand is a pure function of the config file and its input
files; reruns produce byte-identical artifacts.  Diagnostics go to stderr,
data goes to files, and the exit status is nonzero exactly when an error
case fires.

Only ``generate`` simulates; the other stages read ``traces.csv``, split
with ``dataset.split_corpus`` and fit with ``evaluation.fit_policy``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import evaluation as ev
from .config import (RunConfig, check_same_corpus, config_from_text, load_config,
                     save_config)
from .corpus import build_corpus
from .dataset import dataset_from_traces, split_corpus, write_dataset
from .diagnosis import read_traces, write_traces
from .faultsim import write_dictionary
from .models import KernelLogisticModel, load_model, save_model
from .netlist import format_bench


# Every flag takes one value; the value word may start with "-" (``--alpha -1e-9``).
_FLAGS = {
    "--config": dict(metavar="PATH", help="config file (flat key = value)"),
    "--out": dict(metavar="DIR", help="output directory (overrides out.dir)"),
    "--seed": dict(metavar="INT", help="corpus seed (overrides corpus.seed)"),
    "--model": dict(choices=["linear", "kernel-logistic"],
                    help="model kind (overrides model.kind)"),
    "--alpha": dict(metavar="FLOAT", help="linear penalty weight (overrides model.alpha)"),
    "--tau": dict(metavar="FLOAT|auto", help="stop threshold (overrides policy.tau)"),
}


class _UsageError(Exception):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="testtrim",
        description="Fault-diagnosis corpus synthesis and test-termination policies.")
    common = _Parser(add_help=False)
    for flag, kwargs in _FLAGS.items():
        common.add_argument(flag, **kwargs)

    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=fn.__doc__)
    return parser


def _attach_flag_values(argv: list[str]) -> list[str]:
    """``--flag value`` as ``--flag=value``: argparse would take a value such
    as ``-1e-9`` or ``-inf`` for an option of its own."""
    joined = []
    words = iter(argv)
    for word in words:
        value = next(words, None) if word in _FLAGS else None
        joined.append(word if value is None else f"{word}={value}")
    return joined


def _effective_config(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults) with the flags applied, validated once."""
    flags = {"out.dir": args.out, "corpus.seed": args.seed, "model.kind": args.model,
             "model.alpha": args.alpha, "policy.tau": args.tau}
    overrides = {key: value for key, value in flags.items() if value is not None}
    if args.config:
        return load_config(args.config, overrides)
    return config_from_text("", overrides)


def _load_corpus_files(cfg: RunConfig):
    """The dataset derived from the corpus traces (``dataset.csv`` is an
    export only) and the config ``generate`` recorded with them.

    A ``corpus.*`` or ``split.*`` setting of ``cfg`` that differs from that
    record is refused: the files describe another corpus or split.
    """
    out = Path(cfg.out_dir)
    traces_path, record_path = out / "traces.csv", out / "config.txt"
    for path in (traces_path, record_path):
        if not path.exists():
            raise FileNotFoundError(f"missing {path}; run 'testtrim generate' first")
    try:
        record = load_config(record_path)
    except ValueError as exc:
        raise ValueError(f"{record_path}: {exc}") from None
    check_same_corpus(cfg, record, record_path)
    return dataset_from_traces(read_traces(traces_path)), record


def cmd_generate(cfg: RunConfig) -> int:
    """Synthesize the corpus: netlists, dictionaries, traces, dataset."""
    corpus = build_corpus(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.corpus_netlist_dir is None:
        netdir = out / "netlists"
        netdir.mkdir(exist_ok=True)
        for circuit in corpus.circuits:
            (netdir / f"{circuit.name}.bench").write_text(format_bench(circuit))
    dictdir = out / "dicts"
    dictdir.mkdir(exist_ok=True)
    for fdict in corpus.dictionaries:
        write_dictionary(fdict, dictdir / f"{fdict.circuit.name}.dict")
    write_traces(corpus.traces, out / "traces.csv")
    write_dataset(corpus.dataset, out / "dataset.csv")
    save_config(cfg, out / "config.txt", include_out_dir=False)
    print(f"generated corpus: {len(corpus.circuits)} circuits, "
          f"{len(corpus.dataset)} dataset rows, seed {cfg.corpus_seed}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    """Fit the configured model and stop threshold, write model.txt."""
    out = Path(cfg.out_dir)
    dataset, _ = _load_corpus_files(cfg)
    split = split_corpus(dataset, cfg, with_validation=cfg.policy_tau == "auto")
    model, std, tau = ev.fit_policy(cfg, split)
    validation = split.validation.circuit_ids if split.validation is not None else []
    save_model(out / "model.txt", model, std,
               train_circuits=sorted(split.train.circuit_ids + validation), tau=tau)
    fit = ""
    if isinstance(model, KernelLogisticModel):
        fit = (f", fit: {len(model.cost_history) - 1} iterations, "
               f"grad_norm={model.grad_norm:.3g}, "
               f"{'converged' if model.converged else 'not converged'}")
    positive = float(split.train.labels_binary().mean())
    print(f"trained {ev.model_descriptor(model)} on {len(split.train)} rows "
          f"({len(split.train.circuit_ids)} circuits, {positive:.1%} positive), "
          f"tau={tau:g}{fit}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    """Apply the trained policy to the held-out circuits, write reports."""
    out = Path(cfg.out_dir)
    model_path = out / "model.txt"
    if not model_path.exists():
        raise FileNotFoundError(f"missing {model_path}; run 'testtrim train' first")
    loaded = load_model(model_path)
    dataset, record = _load_corpus_files(cfg)
    split = split_corpus(dataset, cfg, with_validation=False)

    overlap = set(split.test.circuit_ids) & set(loaded.train_circuits)
    if overlap:
        raise ValueError(
            f"test circuits overlap the model's training circuits: "
            f"{sorted(overlap)[:5]}{'...' if len(overlap) > 5 else ''}")

    scores = ev.score_matrix(loaded.model, loaded.standardizer.transform(split.test.X))
    report = ev.evaluate(split.test, scores, loaded.tau)
    cls_acc = report.classification_accuracy
    model = ev.model_descriptor(loaded.model)
    ev.write_report_csv(report, out / "report.csv")
    ev.write_summary_csv(report, out / "summary.csv", model, record.corpus_seed,
                         classification_acc=cls_acc)
    print(f"evaluated {model} at tau={report.tau:g}: "
          f"diagnosis_accuracy={report.diagnosis_accuracy:.4f} "
          f"volume_reduction={report.volume_reduction:.4f} "
          f"classification_accuracy={cls_acc:.4f}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    """Emit sweep_alpha.csv, beta_weights.csv and learning_curve.csv."""
    out = Path(cfg.out_dir)
    dataset, _ = _load_corpus_files(cfg)
    split = split_corpus(dataset, cfg, with_validation=True)
    if split.validation is None:
        raise ValueError("sweep needs a validation split "
                         "(set split.validation_fraction > 0)")

    # every point first: a failed fit leaves none of the three files
    points = ev.sweep_alpha(ev.DEFAULT_ALPHA_GRID, split)
    curve = ev.learning_curve(split, cfg)
    ev.write_sweep_csv(points, out / "sweep_alpha.csv")
    ev.write_beta_csv(points, out / "beta_weights.csv")
    ev.write_curve_csv(curve, out / "learning_curve.csv")
    print(f"sweep done: {len(points)} alpha points, {len(curve)} curve sizes")
    return 0


def cmd_oracle_eval(cfg: RunConfig) -> int:
    """Evaluate the ground-truth scorer (each row's label) on the held-out circuits."""
    out = Path(cfg.out_dir)
    dataset, record = _load_corpus_files(cfg)
    split = split_corpus(dataset, cfg, with_validation=False)
    tau = 1.0 if cfg.policy_tau == "auto" else float(cfg.policy_tau)
    report = ev.evaluate(split.test, split.test.y, tau)
    ev.write_report_csv(report, out / "oracle_report.csv")
    ev.write_summary_csv(report, out / "oracle_summary.csv", "oracle", record.corpus_seed)
    print(f"oracle policy at tau={tau:g}: "
          f"diagnosis_accuracy={report.diagnosis_accuracy:.4f} "
          f"volume_reduction={report.volume_reduction:.4f}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "oracle-eval": cmd_oracle_eval,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(_attach_flag_values(argv))
        cfg = _effective_config(args)
        return _COMMANDS[args.command](cfg)
    except (_UsageError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
