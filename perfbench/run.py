"""testtrim benchmark: the CLI pipeline and a large-netlist corpus build, traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository.  Every job runs in a child Python
process with ``src`` on its path (see ``worker.py``).  With ``--trace 0`` the
workload repeats untraced passes for about ``--seconds`` and reports medians;
with ``--trace 1`` it makes one untraced and one traced pass and reports
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is the JSON result; the lines before it
repeat every metric by name with its unit, plus the host.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_pipeline, read_summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"

STAGES = ("generate", "train", "evaluate", "oracle-eval", "sweep")
SETUP_IMPORTS = 7        # fresh-process imports behind the setup_s median
TIME_LIMIT_S = 170.0     # the whole run, children included


def _stage_key(stage: str) -> str:
    return stage.replace("-", "_")


# Named metrics printed beside the JSON line but not in it: they exist on
# one workload only, or vary with the corpus seed more than any bound.
PRINTED_UNITS = {"pipeline_s": "s", "corpus_s": "s", "error_rate": "fraction",
                 "diagnosis_accuracy": "fraction", "volume_reduction": "fraction",
                 **{f"{_stage_key(stage)}_s": "s" for stage in STAGES}}

SCALE_PATTERNS = 1024    # corpus.patterns on corpus-scale


class Jobs:
    """Starts child processes in ``work`` and enforces one shared deadline."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def run(self, args: list[str]) -> tuple[int, float, str, str]:
        """Run ``python <args>``; returns (exit code, wall seconds, stdout, stderr)."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                                  env=self.env, cwd=self.work,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return -9, time.perf_counter() - t0, "", "timed out"
        return proc.returncode, time.perf_counter() - t0, proc.stdout, proc.stderr


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)

    @property
    def error_rate(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 1.0


def host_info(jobs: Jobs) -> dict:
    code, _, out, err = jobs.run([str(WORKER), "host"])
    if code != 0:
        raise RuntimeError(f"host probe failed: {err.strip()[-300:]}")
    return json.loads(out)


def setup_seconds(jobs: Jobs, tally: Tally) -> float:
    """Median wall time of a fresh process importing the CLI with numpy/scipy.
    One untimed import first compiles bytecode, a once-per-install cost."""
    times = []
    for i in range(SETUP_IMPORTS + 1):
        code, wall, _, err = jobs.run(["-c", "import testtrim.cli"])
        tally.add(1, [] if code == 0 else [f"import failed: {err.strip()[-300:]}"])
        if i:
            times.append(wall)
    return statistics.median(times)


def repeat(seconds: float, deadline: float, one_pass) -> list:
    """``one_pass()`` until the next pass would end after ``seconds`` (at
    least one pass).  Every pass has the same inputs, so the pass count
    changes only the precision of the median."""
    results = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        results.append(one_pass())
        last = time.perf_counter() - start
        end = time.perf_counter() + last
        if end - t0 > seconds or time.monotonic() + last > deadline:
            return results


# ---------------------------------------------------------------------------
# pipeline-default: the five CLI stages, one process each, as a user runs them


def pipeline_pass(jobs: Jobs, tally: Tally, out: Path, seed: int,
                  config: Path | None = None, traced: bool = False) -> dict:
    """One pass of the five stages into a fresh ``out``; checks the outputs.
    Traced, each stage runs under ``worker.py stage`` and leaves span sums."""
    shutil.rmtree(out, ignore_errors=True)
    walls, status, summaries = {}, {}, []
    for stage in STAGES:
        cli_args = [stage, "--out", str(out), "--seed", str(seed)]
        if config is not None:
            cli_args += ["--config", str(config)]
        if traced:
            result = jobs.work / f"trace-{stage}.json"
            args = [str(WORKER), "stage", stage, str(result), *cli_args]
        else:
            args = ["-m", "testtrim.cli", *cli_args]
        code, wall, _, err = jobs.run(args)
        walls[stage] = wall
        status[stage] = (code, err)
        if traced and code == 0:
            summaries.append((stage, json.loads(result.read_text())))
    tally.add(*check_pipeline(out, status))
    quality = {}
    for name, path in (("model", out / "summary.csv"), ("oracle", out / "oracle_summary.csv")):
        try:
            row = read_summary(path)
            quality[name] = (float(row["diagnosis_accuracy"]), float(row["volume_reduction"]))
        except (OSError, ValueError, KeyError):
            quality[name] = (float("nan"), float("nan"))
    shutil.rmtree(out, ignore_errors=True)
    return {"walls": walls, "quality": quality, "summaries": summaries}


# ---------------------------------------------------------------------------
# corpus-scale: build_corpus in a child process


def scale_setup(jobs: Jobs, seed: int) -> dict:
    """Writes the run's netlists, outside the timed passes, and returns the
    corpus config that reads them."""
    netdir = jobs.work / "netlists"
    code, _, _, err = jobs.run([str(WORKER), "netlists", str(netdir), str(seed)])
    if code != 0:
        raise RuntimeError(f"netlist set-up failed: {err.strip()[-300:]}")
    return {"corpus_patterns": SCALE_PATTERNS, "corpus_seed": seed,
            "corpus_netlist_dir": str(netdir)}


def corpus_pass(jobs: Jobs, tally: Tally, config: dict, traced: bool = False) -> dict:
    spec = jobs.work / "corpus-spec.json"
    result = jobs.work / "corpus-result.json"
    result.unlink(missing_ok=True)
    spec.write_text(json.dumps({"config": config, "trace": traced}))
    code, _, _, err = jobs.run([str(WORKER), "corpus", str(spec), str(result)])
    if code != 0:
        tally.add(1, [f"build_corpus job exited {code}: {err.strip()[-300:]}"])
        return {"corpus_s": float("nan"), "trace": None}
    data = json.loads(result.read_text())
    tally.add(1 + data["attempted"], data["failures"])
    return data


# ---------------------------------------------------------------------------
# per-layer metrics from span sums


def merge(summaries: list[dict]) -> dict:
    total = {"inclusive": {}, "calls": {}, "self": {}, "counts": {}}
    for s in summaries:
        for part, values in s.items():
            for key, value in values.items():
                if key == "models.final_grad_norm":
                    total[part][key] = max(total[part].get(key, 0.0), value)
                else:
                    total[part][key] = total[part].get(key, 0) + value
    return total


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(s: dict) -> dict[str, float]:
    inc, calls, self_s, n = s["inclusive"], s["calls"], s["self"], s["counts"]

    def t(name: str) -> float:
        return inc.get(name, 0.0)

    build_s = t("faultsim.build_fault_dictionary")
    m = {
        "faultsim.build_fault_dictionary_s": build_s,
        "faultsim.fault_patterns": n.get("faultsim.fault_patterns", 0),
        "faultsim.fault_patterns_per_s": _ratio(n.get("faultsim.fault_patterns", 0), build_s),
        "faultsim.detected_fraction": _ratio(n.get("faultsim.detected", 0),
                                             n.get("faultsim.faults", 0)),
        "faultsim.write_dictionary_s": t("faultsim.write_dictionary"),
        "faultsim.dict_mb": n.get("faultsim.dict_bytes", 0) / 1e6,
        "diagnosis.trace_diagnosis_s": t("diagnosis.trace_diagnosis"),
        "diagnosis.failing_patterns": n.get("diagnosis.failing_patterns", 0),
        "diagnosis.replayed_patterns": n.get("diagnosis.replayed_patterns", 0),
        "diagnosis.mean_golden_size": _ratio(n.get("diagnosis.golden_sum", 0),
                                             n.get("diagnosis.traces", 0)),
        "diagnosis.write_traces_s": t("diagnosis.write_traces"),
        "diagnosis.read_traces_s": t("diagnosis.read_traces"),
        "dataset.dataset_from_traces_s": t("dataset.dataset_from_traces"),
        "dataset.rows": n.get("dataset.rows", 0),
        "dataset.write_dataset_s": t("dataset.write_dataset"),
        "dataset.read_dataset_s": t("dataset.read_dataset"),
        "generator.random_circuit_s": t("generator.random_circuit"),
        "corpus.build_corpus_s": t("corpus.build_corpus"),
        "corpus.split_corpus_s": t("corpus.split_corpus"),
        "corpus.attempts_per_slot": _ratio(n.get("faultsim.builds", 0),
                                           n.get("corpus.kept_circuits", 0)),
        "netlist.parse_bench_s": t("netlist.parse_bench"),
        "netlist.format_bench_s": t("netlist.format_bench"),
        "models.fit_kernel_logistic_s": t("models.fit_kernel_logistic"),
        "models.fit_calls": calls.get("models.fit_kernel_logistic", 0),
        "models.fit_iterations": n.get("models.fit_iterations", 0),
        "models.final_grad_norm": n.get("models.final_grad_norm", 0.0),
        "models.rbf_features_s": t("models.rbf_features"),
        "models.train_positive_fraction": _ratio(n.get("models.fit_positive", 0),
                                                 n.get("models.fit_rows", 0)),
        "models.fit_penalized_linear_s": t("models.fit_penalized_linear"),
        "models.save_model_s": t("models.save_model"),
        "models.load_model_s": t("models.load_model"),
        "evaluation.sweep_alpha_s": t("evaluation.sweep_alpha"),
        "evaluation.beta_weight_report_s": t("evaluation.beta_weight_report"),
        "evaluation.learning_curve_s": t("evaluation.learning_curve"),
        "evaluation.select_tau_s": t("evaluation.select_tau"),
        "evaluation.evaluate_s": t("evaluation.evaluate"),
    }
    for layer in ("netlist", "generator", "faultsim", "diagnosis", "dataset",
                  "corpus", "models", "evaluation", "cli"):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return m


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict, Tally]:
    """Returns (metrics by name, host facts, tally of checks)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    jobs = Jobs(work, deadline)
    tally = Tally()
    host = host_info(jobs)
    metrics: dict[str, float] = {}

    if workload == "pipeline-default":
        out = work / "run"
        if not trace:
            metrics["setup_s"] = setup_seconds(jobs, tally)
            passes = repeat(seconds, deadline,
                            lambda: pipeline_pass(jobs, tally, out, seed))
            for stage in STAGES:
                metrics[f"{_stage_key(stage)}_s"] = statistics.median(
                    p["walls"][stage] for p in passes)
            metrics["pipeline_s"] = statistics.median(sum(p["walls"].values()) for p in passes)
            metrics["wall_s"] = metrics["pipeline_s"]
            model = passes[0]["quality"]["model"]
            metrics["diagnosis_accuracy"], metrics["volume_reduction"] = model
        else:
            plain = pipeline_pass(jobs, tally, out, seed)
            traced = pipeline_pass(jobs, tally, out, seed, traced=True)
            metrics.update(layer_metrics(merge([s for _, s in traced["summaries"]])))
            for stage, summary in traced["summaries"]:
                key = _stage_key(stage)
                metrics[f"cli.{key}.self_s"] = summary["self"].get("cli", 0.0)
                metrics[f"cli.{key}.main_s"] = summary["inclusive"].get("cli.main", 0.0)
            for stage in STAGES:
                metrics[f"cli.{_stage_key(stage)}.wall_s"] = plain["walls"][stage]
            model, oracle = plain["quality"]["model"], plain["quality"]["oracle"]
            metrics["evaluation.diagnosis_accuracy"] = model[0]
            metrics["evaluation.volume_reduction"] = model[1]
            metrics["evaluation.oracle_gap"] = oracle[1] - model[1]
            untraced_s = sum(plain["walls"].values())
            metrics["trace.overhead_s"] = sum(traced["walls"].values()) - untraced_s
            metrics["trace.overhead_fraction"] = _ratio(metrics["trace.overhead_s"], untraced_s)
    else:  # corpus-scale
        if not trace:
            metrics["setup_s"] = setup_seconds(jobs, tally)
            config = scale_setup(jobs, seed)
            passes = repeat(seconds, deadline, lambda: corpus_pass(jobs, tally, config))
            metrics["corpus_s"] = statistics.median(p["corpus_s"] for p in passes)
            metrics["wall_s"] = metrics["corpus_s"]
        else:
            config = scale_setup(jobs, seed)
            plain = corpus_pass(jobs, tally, config)
            traced = corpus_pass(jobs, tally, config, traced=True)
            if traced["trace"] is not None:
                metrics.update(layer_metrics(traced["trace"]))
            metrics["trace.overhead_s"] = traced["corpus_s"] - plain["corpus_s"]
            metrics["trace.overhead_fraction"] = _ratio(metrics["trace.overhead_s"],
                                                        plain["corpus_s"])

    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = peak_kb / 1024.0
    metrics["error_rate"] = tally.error_rate
    return metrics, host, tally


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    missing = [p for p in ("src/testtrim/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a testtrim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, host, tally = run(args.workload, args.seed, args.seconds,
                                   bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(PRINTED_UNITS)
    print(f"host {json.dumps(host)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}")
    for failure in tally.failures[:20]:
        print(f"  check failed: {failure}")

    if args.trace:
        # a layer the workload never calls did no work
        for m in listed:
            metrics.setdefault(m["name"], 0.0)
    absent = [m["name"] for m in listed if not math.isfinite(metrics.get(m["name"], math.nan))]
    if absent:
        print(f"error: metrics not measured: {', '.join(absent)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
