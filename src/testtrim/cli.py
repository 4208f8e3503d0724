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
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import evaluation as ev
from .config import RunConfig, config_from_text, load_config, save_config
from .dataset import dataset_from_traces, standardize_fit_apply, write_dataset
from .diagnosis import UndiagnosableFaultError, read_traces, write_traces
from .faultsim import write_dictionary
from .models import (KernelLogisticModel, TrainConfig, fit_kernel_logistic,
                     fit_penalized_linear, load_model, save_model)
from .netlist import BenchParseError, format_bench


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="testtrim",
        description="Fault-diagnosis corpus synthesis and test-termination policies.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="config file (flat key = value)")
    common.add_argument("--out", metavar="DIR", help="output directory (overrides out.dir)")
    common.add_argument("--seed", metavar="INT",
                        help="corpus seed (overrides corpus.seed)")
    common.add_argument("--model", choices=["linear", "kernel-logistic"],
                        help="model kind (overrides model.kind)")
    common.add_argument("--alpha", metavar="FLOAT",
                        help="linear penalty weight (overrides model.alpha)")
    common.add_argument("--tau", metavar="FLOAT|auto",
                        help="stop threshold (overrides policy.tau)")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=fn.__doc__)
    return parser


def _effective_config(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults) with the flags applied, validated once."""
    flags = {"out.dir": args.out, "corpus.seed": args.seed, "model.kind": args.model,
             "model.alpha": args.alpha, "policy.tau": args.tau}
    overrides = {key: value for key, value in flags.items() if value is not None}
    if args.config:
        return load_config(args.config, overrides)
    return config_from_text("", overrides)


def _out(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_corpus_files(cfg: RunConfig):
    """The corpus traces and the dataset derived from them (``dataset.csv``
    is an export only)."""
    traces_path = Path(cfg.out_dir) / "traces.csv"
    if not traces_path.exists():
        raise FileNotFoundError(f"missing {traces_path}; run 'testtrim generate' first")
    traces = read_traces(traces_path)
    return dataset_from_traces(traces), traces


def cmd_generate(cfg: RunConfig) -> int:
    """Synthesize the corpus: netlists, dictionaries, traces, dataset."""
    out = _out(cfg)
    corpus = corpus_mod.build_corpus(cfg)
    if corpus.generated:
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
          f"{len(corpus.dataset)} dataset rows, seed {corpus.seed}")
    return 0


def _train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(iterations=cfg.model_iterations, seed=cfg.model_seed,
                       landmark_cap=cfg.model_landmark_cap)


def _fit_from_split(cfg: RunConfig, split: corpus_mod.CorpusSplit):
    """Fit the configured model on the train rows; returns (model, standardizer, tau)."""
    X_train = standardize_fit_apply(split.train)[0]
    std = split.train.standardization
    if cfg.model_kind == "linear":
        alpha = cfg.model_alpha
        if cfg.model_penalty == "l1":
            alpha = ev.sweep_lasso_alpha(alpha, len(split.train))
        model = fit_penalized_linear(X_train, split.train.labels(), alpha,
                                     penalty=cfg.model_penalty)
    else:
        model = fit_kernel_logistic(
            X_train, split.train.labels_binary(), cfg.model_lambda, cfg.model_gamma,
            _train_config(cfg))
    if cfg.policy_tau == "auto":
        if not split.validation_traces:
            raise ValueError("policy.tau = auto needs a validation split "
                             "(set split.validation_fraction > 0)")
        tau = ev.select_tau(model, std, split.validation_traces)
    else:
        tau = float(cfg.policy_tau)
    return model, std, tau


def cmd_train(cfg: RunConfig) -> int:
    """Fit the configured model and stop threshold, write model.txt."""
    out = _out(cfg)
    dataset, traces = _load_corpus_files(cfg)
    split = corpus_mod.split_corpus(dataset, traces, cfg,
                                    with_validation=cfg.policy_tau == "auto")
    model, std, tau = _fit_from_split(cfg, split)
    save_model(out / "model.txt", model, std,
               train_circuits=sorted(split.trainval_circuits), tau=tau)
    fit = ""
    if isinstance(model, KernelLogisticModel):
        fit = (f", fit: {len(model.cost_history) - 1} iterations, "
               f"grad_norm={model.grad_norm:.3g}, "
               f"{'converged' if model.converged else 'not converged'}")
    positive = float(split.train.labels_binary().mean())
    print(f"trained {ev.model_descriptor(model)} on {len(split.train)} rows "
          f"({len(split.train.circuit_ids())} circuits, {positive:.1%} positive), "
          f"tau={tau:g}{fit}")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    """Apply the trained policy to the held-out circuits, write reports."""
    out = _out(cfg)
    model_path = out / "model.txt"
    if not model_path.exists():
        raise FileNotFoundError(f"missing {model_path}; run 'testtrim train' first")
    loaded = load_model(model_path)
    dataset, traces = _load_corpus_files(cfg)
    split = corpus_mod.split_corpus(dataset, traces, cfg, with_validation=False)

    overlap = set(split.test.circuit_ids()) & set(loaded.train_circuits)
    if overlap:
        raise ValueError(
            f"test circuits overlap the model's training circuits: "
            f"{sorted(overlap)[:5]}{'...' if len(overlap) > 5 else ''}")

    tau = loaded.tau if loaded.tau is not None else 0.5
    policy = ev.TerminationPolicy(loaded.model, tau, loaded.standardizer)
    report = ev.evaluate(policy, split.test_traces, corpus_seed=cfg.corpus_seed)
    X_test = loaded.standardizer.transform(split.test.feature_matrix())
    cls_acc = ev.classification_accuracy(loaded.model, X_test, split.test.labels_binary())
    ev.write_report_csv(report, out / "report.csv")
    ev.write_summary_csv(report, out / "summary.csv", classification_acc=cls_acc)
    print(f"evaluated {report.model} at tau={report.tau:g}: "
          f"diagnosis_accuracy={report.diagnosis_accuracy:.4f} "
          f"volume_reduction={report.volume_reduction:.4f} "
          f"classification_accuracy={cls_acc:.4f}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    """Emit sweep_alpha.csv, beta_weights.csv and learning_curve.csv."""
    out = _out(cfg)
    dataset, traces = _load_corpus_files(cfg)
    split = corpus_mod.split_corpus(dataset, traces, cfg, with_validation=True)
    if not split.validation_traces:
        raise ValueError("sweep needs a validation split "
                         "(set split.validation_fraction > 0)")

    points = ev.sweep_alpha(ev.DEFAULT_ALPHA_GRID, split.train,
                            split.validation_traces, split.test_traces)
    ev.write_sweep_csv(points, out / "sweep_alpha.csv")
    ev.write_beta_csv(points, out / "beta_weights.csv")

    sizes = ev.curve_sizes(len(split.train))
    curve = ev.learning_curve(
        sizes, split.train, split.test, cfg.model_lambda, cfg.model_gamma,
        _train_config(cfg), seed=cfg.model_seed)
    ev.write_curve_csv(curve, out / "learning_curve.csv")
    print(f"sweep done: {len(points)} alpha points, {len(curve)} curve sizes")
    return 0


def cmd_oracle_eval(cfg: RunConfig) -> int:
    """Evaluate the ground-truth scorer through the same policy machinery."""
    out = _out(cfg)
    dataset, traces = _load_corpus_files(cfg)
    split = corpus_mod.split_corpus(dataset, traces, cfg, with_validation=False)
    tau = 1.0 if cfg.policy_tau == "auto" else float(cfg.policy_tau)
    policy = ev.TerminationPolicy(ev.OracleScorer(), tau)
    report = ev.evaluate(policy, split.test_traces, corpus_seed=cfg.corpus_seed)
    ev.write_report_csv(report, out / "oracle_report.csv")
    ev.write_summary_csv(report, out / "oracle_summary.csv")
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
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        return _COMMANDS[args.command](cfg)
    except (ValueError, OSError, RuntimeError, BenchParseError,
            UndiagnosableFaultError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
